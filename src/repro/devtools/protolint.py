"""protolint: the AST checks behind the protocol's code-level invariants.

Each check is a plain function ``check(path, tree)`` over one parsed
module that yields ``(line, message)`` pairs; ``path`` is the
repo-relative POSIX path (``src/repro/...``). :data:`CHECKS` gives each
one its path scope and its allowlist, and :func:`lint_tree` applies
them to every module under ``src/``. ``docs/static_analysis.md`` has
the table of checks and the invariants they guard.

Run it from the repo root; it needs nothing beyond the stdlib::

    PYTHONPATH=src python -m repro.devtools.protolint

It prints one ``path:line: ID message`` line per finding and exits 1 if
there are any.
"""

from __future__ import annotations

import ast
import builtins
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: What a check reports: ``(line, message)``.
Flag = Tuple[int, str]
Check = Callable[[str, ast.Module], Iterator[Flag]]
#: ``(path, qualname) -> reason``. An empty qualname exempts the whole file.
Allowlist = Dict[Tuple[str, str], str]

#: Packages held at the strict rung of the typing ladder: the scope of
#: the annotation check. pyproject.toml's strict [[tool.mypy.overrides]]
#: block must name the same packages (a test asserts it).
STRICT_TIER = (
    "src/repro/protocol",
    "src/repro/sketch",
    "src/repro/crypto",
    "src/repro/devtools",
    "src/repro/store",
    "src/repro/core",
)

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _dotted(node: Optional[ast.AST]) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _module_aliases(tree: ast.Module, module: str) -> Set[str]:
    """Names the module is importable under (``import socket as s``)."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == module
    }


def _from_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """local name -> original name for ``from <module> import ...``."""
    return {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == module
        for alias in node.names
    }


# ---------------------------------------------------------------------------
# PL001: raw sockets only inside the byte-accounting seam
# ---------------------------------------------------------------------------

_SOCKET_CREATORS = {
    "socket",
    "create_connection",
    "create_server",
    "socketpair",
    "fromfd",
}
_SOCKET_METHODS = {
    "send",
    "sendall",
    "sendto",
    "recv",
    "recv_into",
    "recvfrom",
    "recvfrom_into",
    "connect",
    "connect_ex",
    "accept",
}


def raw_sockets(path: str, tree: ast.Module) -> Iterator[Flag]:
    """PL001: no socket is created or moves bytes outside the seam.

    A dotted name holds a socket when it is annotated ``socket.socket``
    or assigned from a socket-creating call or from another such name
    (``self._sock = sock``), under whatever alias the module imports.
    """
    aliases = _module_aliases(tree, "socket")
    socket_types = {f"{alias}.socket" for alias in aliases}
    creators = {
        local
        for local, orig in _from_imports(tree, "socket").items()
        if orig in _SOCKET_CREATORS
    }

    def creates(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        if isinstance(node.func, ast.Name):
            return node.func.id in creators
        return (
            isinstance(node.func, ast.Attribute)
            and _dotted(node.func.value) in aliases
            and node.func.attr in _SOCKET_CREATORS
        )

    sockets: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and _dotted(node.annotation) in socket_types:
            sockets.add(node.arg)
        elif isinstance(node, ast.AnnAssign):
            target = _dotted(node.target)
            if target is not None and _dotted(node.annotation) in socket_types:
                sockets.add(target)
        elif isinstance(node, ast.Assign) and (
            creates(node.value) or _dotted(node.value) in sockets
        ):
            sockets.update(n for n in map(_dotted, node.targets) if n is not None)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if creates(node):
            yield (
                node.lineno,
                f"raw socket creation ({_dotted(node.func)}) outside the "
                "transport/framing layer",
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SOCKET_METHODS
            and _dotted(node.func.value) in sockets
        ):
            yield (
                node.lineno,
                f"raw socket .{node.func.attr}() bypasses the _ship "
                "byte-accounting hook",
            )


# ---------------------------------------------------------------------------
# PL002: no unseeded randomness on the protocol/crypto/sketch path
# ---------------------------------------------------------------------------

#: A module's random / os aliases, numpy.random bases, from-random / from-os names.
_RandomImports = Tuple[Set[str], Set[str], Set[str], Dict[str, str], Dict[str, str]]
_NUMPY_SEEDABLE = {"default_rng", "RandomState", "Generator", "SeedSequence"}


def _random_imports(tree: ast.Module) -> _RandomImports:
    """The names a module reaches random, os and numpy.random under."""
    np_random_bases = {f"{alias}.random" for alias in _module_aliases(tree, "numpy")}
    np_random_bases.update(
        local
        for local, orig in _from_imports(tree, "numpy").items()
        if orig == "random"
    )
    return (
        _module_aliases(tree, "random"),
        _module_aliases(tree, "os"),
        np_random_bases,
        _from_imports(tree, "random"),
        _from_imports(tree, "os"),
    )


def _randomness_flag(
    path: str, node: ast.Call, imports: _RandomImports
) -> Optional[str]:
    func = node.func
    random_aliases, os_aliases, np_random_bases, from_random, from_os = imports
    urandom = "os.urandom is OS entropy; only crypto/ may use it"
    in_crypto = path.startswith("src/repro/crypto/")
    if isinstance(func, ast.Name):
        origin = from_random.get(func.id)
        if origin is not None and origin[:1].islower():
            return f"random.{origin}() draws from the shared unseeded generator"
        if from_os.get(func.id) == "urandom" and not in_crypto:
            return urandom
        return None
    if not isinstance(func, ast.Attribute):
        return None
    base = _dotted(func.value)
    seedless = not node.args and not node.keywords
    if base in random_aliases:
        if func.attr == "Random" and seedless:
            return "bare random.Random() is seeded from OS entropy"
        if func.attr == "SystemRandom":
            return "random.SystemRandom cannot be seeded"
        if func.attr[:1].islower():
            return (
                f"module-level random.{func.attr}() draws from the "
                "shared unseeded generator"
            )
        return None
    if base in os_aliases and func.attr == "urandom":
        return None if in_crypto else urandom
    if base in np_random_bases:
        if func.attr in _NUMPY_SEEDABLE:
            return f"numpy.random.{func.attr}() without a seed" if seedless else None
        if func.attr[:1].islower():
            return f"numpy.random.{func.attr}() uses the legacy global unseeded state"
    return None


def unseeded_randomness(path: str, tree: ast.Module) -> Iterator[Flag]:
    """PL002: every draw comes from an explicitly seeded generator;
    ``os.urandom`` only under ``crypto/``."""
    # Built once per file, not per call: each build walks the module.
    imports = _random_imports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            message = _randomness_flag(path, node, imports)
            if message is not None:
                yield node.lineno, message


# ---------------------------------------------------------------------------
# PL004: no silent exception swallowing in protocol code
# ---------------------------------------------------------------------------


def silent_excepts(path: str, tree: ast.Module) -> Iterator[Flag]:
    """PL004: a bare or ``Exception``/``BaseException`` handler must
    re-raise, convert, or at least reference the caught exception."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            broad = "bare except:"
        else:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {_dotted(t) for t in types}
            caught = [n for n in ("BaseException", "Exception") if n in names]
            if not caught:
                continue
            broad = f"except {', '.join(caught)}"
        body = [sub for stmt in node.body for sub in ast.walk(stmt)]
        if not any(isinstance(sub, ast.Raise) for sub in body) and not any(
            isinstance(sub, ast.Name)
            and sub.id == node.name
            and isinstance(sub.ctx, ast.Load)
            for sub in body
        ):
            yield (
                node.lineno,
                f"{broad} swallows the error without re-raise, conversion, "
                "or even a trace",
            )


# ---------------------------------------------------------------------------
# PL006: stdout belongs to the CLI
# ---------------------------------------------------------------------------


def stray_prints(path: str, tree: ast.Module) -> Iterator[Flag]:
    """PL006: no ``print(...)`` call outside the command line's own
    modules: library code returns what it found or raises, and the CLI
    decides what reaches stdout."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield (
                node.lineno,
                "print() outside cli.py writes to stdout behind the CLI's "
                "back; return or log the value instead",
            )


# ---------------------------------------------------------------------------
# Annotations: the strict tier's dependency-free typing rung
# ---------------------------------------------------------------------------


def _unannotated(
    body: Sequence[ast.stmt], prefix: str, in_class: bool
) -> Iterator[Flag]:
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _unannotated(node.body, f"{prefix}{node.name}.", True)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{node.name}"
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            if in_class:
                positional = positional[1:]  # self / cls carry no annotation
            for arg in positional + args.kwonlyargs:
                if arg.annotation is None:
                    yield arg.lineno, f"{qualname}: parameter {arg.arg!r}"
            for star, label in ((args.vararg, "*"), (args.kwarg, "**")):
                if star is not None and star.annotation is None:
                    yield star.lineno, f"{qualname}: parameter {label}{star.arg}"
            if node.returns is None:
                yield node.lineno, f"{qualname}: return type"
            yield from _unannotated(node.body, f"{qualname}.", False)


def _annotation_names(annotation: ast.expr) -> Iterator[str]:
    """The bare names an annotation refers to; a string inside it is a
    forward reference and is parsed as one."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(quoted.body)


def _unbound(node: ast.AST, scope: str, bound: Set[str]) -> Iterator[Flag]:
    annotation: Optional[ast.expr] = None
    if isinstance(node, _SCOPES):
        scope = f"{scope}.{node.name}" if scope else node.name
        if not isinstance(node, ast.ClassDef):
            annotation = node.returns
    elif isinstance(node, (ast.arg, ast.AnnAssign)):
        annotation = node.annotation
    if annotation is not None:
        for name in _annotation_names(annotation):
            if name not in bound:
                yield (
                    annotation.lineno,
                    f"{scope or '<module>'}: annotation names unbound {name!r}",
                )
    for child in ast.iter_child_nodes(node):
        yield from _unbound(child, scope, bound)


def annotation_gaps(path: str, tree: ast.Module) -> Iterator[Flag]:
    """Every def fully annotated (each parameter, ``*args`` and
    ``**kwargs`` included, and the return type), and no annotation
    naming something the module binds nowhere, which
    ``from __future__ import annotations`` would hide at run time."""
    yield from _unannotated(tree.body, "", False)
    bound = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, _SCOPES):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    yield from _unbound(tree, "", bound)


# ---------------------------------------------------------------------------
# The table and the runner
# ---------------------------------------------------------------------------

#: The transport whose ``_ship`` hook does the byte accounting. The HTTP
#: service plane is deliberately not listed: its protocol bytes cross the
#: same seam, and a raw socket there would be an unaccounted byte path.
PL001_ALLOWED: Allowlist = {
    ("src/repro/protocol/net/transport.py", ""): "the accounting seam itself",
}

PL004_ALLOWED: Allowlist = {
    ("src/repro/protocol/net/transport.py", "SocketTransport.__del__"): (
        "close() is shutdown-safe by construction; __del__ during "
        "interpreter teardown may still see torn-down modules and must "
        "never raise"
    ),
}

PL006_ALLOWED: Allowlist = {
    ("src/repro/cli.py", ""): "the command line owns stdout",
    ("src/repro/devtools/protolint.py", "main"): "protolint's own report",
}

#: id -> (check, path scope, allowlist).
CHECKS: Dict[str, Tuple[Check, Tuple[str, ...], Allowlist]] = {
    "PL001": (
        raw_sockets,
        ("src/repro/protocol/", "src/repro/service/"),
        PL001_ALLOWED,
    ),
    "PL002": (
        unseeded_randomness,
        ("src/repro/protocol/", "src/repro/crypto/", "src/repro/sketch/"),
        {},
    ),
    "PL004": (silent_excepts, ("src/repro/protocol/",), PL004_ALLOWED),
    "PL006": (stray_prints, ("src/repro/",), PL006_ALLOWED),
    "annotations": (annotation_gaps, STRICT_TIER, {}),
}


def _qualname_at(tree: ast.Module, line: int) -> str:
    """The dotted name of the innermost def or class holding ``line``
    (breadth-first order visits enclosing scopes outermost first)."""
    return ".".join(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, _SCOPES)
        and node.lineno <= line <= (node.end_lineno or node.lineno)
    )


def lint_tree(root: Path) -> List[str]:
    """Every finding under ``root/src``, as ``path:line: ID message``."""
    findings: List[str] = []
    for file in sorted((root / "src").rglob("*.py")):
        path = file.relative_to(root).as_posix()
        tree: Optional[ast.Module] = None
        for check_id, (check, scope, allowed) in CHECKS.items():
            exempt = {qualname for (where, qualname) in allowed if where == path}
            if not path.startswith(scope) or "" in exempt:
                continue
            if tree is None:
                tree = ast.parse(file.read_text(encoding="utf-8"), filename=path)
            for line, message in check(path, tree):
                if not exempt or _qualname_at(tree, line) not in exempt:
                    findings.append(f"{path}:{line}: {check_id} {message}")
    return findings


def main() -> int:
    findings = lint_tree(Path.cwd())
    for finding in findings:
        print(finding)
    print(f"protolint: {len(findings)} finding(s)" if findings else "protolint: clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
