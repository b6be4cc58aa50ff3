"""The strict-typing ladder's local rung: annotation completeness.

The CI ``mypy`` job runs the strict tier (``protocol/``, ``sketch/``,
``crypto/``, ``devtools/``) under ``strict = true``; this module is the
in-tree proxy that needs no third-party tooling: an AST pass asserting
that every function in the strict tier is *fully annotated* (every
parameter, including ``*args``/``**kwargs``, and the return type). That
is the part of strict mypy a bare interpreter can check — and the part
that rots first, because an unannotated seam type-checks as ``Any`` and
silently exempts its callers.

It also reports an annotation that names something the module never
binds (no import, def, class or assignment of that name anywhere in the
file, and not a builtin) — e.g. ``Set[int]`` without importing ``Set``.
``from __future__ import annotations`` keeps such a name from ever
being evaluated, so only CI's ruff ``F82`` / mypy would see it.

Run it directly::

    python -m repro.devtools.annotations src/repro/protocol \
        src/repro/sketch src/repro/crypto src/repro/devtools

``tests/test_devtools_annotations.py`` pins the strict tier at zero
gaps, so a new unannotated def fails tier-1 locally before CI's real
mypy ever sees it.
"""

from __future__ import annotations

import ast
import builtins
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence, Set

#: Packages held at the strict rung of the ladder (see pyproject.toml's
#: [tool.mypy] overrides — the two lists must agree).
STRICT_TIER = (
    "src/repro/protocol",
    "src/repro/sketch",
    "src/repro/crypto",
    "src/repro/devtools",
    "src/repro/store",
)


@dataclass(frozen=True)
class Gap:
    """One missing annotation, or one annotation naming nothing."""

    path: str
    line: int
    function: str
    what: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.function}: {self.what}"


def _function_gaps(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    path: str,
    qualname: str,
    is_method: bool,
) -> Iterator[Gap]:
    args = node.args
    positional = list(args.posonlyargs) + list(args.args)
    if is_method and positional:
        positional = positional[1:]  # self / cls carry no annotation
    for arg in positional + list(args.kwonlyargs):
        if arg.annotation is None:
            yield Gap(path, arg.lineno, qualname, f"parameter {arg.arg!r}")
    for star, label in ((args.vararg, "*"), (args.kwarg, "**")):
        if star is not None and star.annotation is None:
            yield Gap(
                path, star.lineno, qualname, f"parameter {label}{star.arg}"
            )
    if node.returns is None:
        yield Gap(path, node.lineno, qualname, "return type")


def _walk(
    body: Sequence[ast.stmt], path: str, prefix: str, in_class: bool
) -> Iterator[Gap]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{node.name}"
            yield from _function_gaps(node, path, qualname, in_class)
            yield from _walk(node.body, path, f"{qualname}.", False)
        elif isinstance(node, ast.ClassDef):
            yield from _walk(
                node.body, path, f"{prefix}{node.name}.", True
            )


def _bound_names(tree: ast.Module) -> Set[str]:
    """Every name the module binds in any scope, plus the builtins."""
    bound = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    return bound


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


class _UnboundAnnotations(ast.NodeVisitor):
    """Collects annotations whose names the module binds nowhere."""

    def __init__(self, path: str, bound: Set[str]) -> None:
        self.path = path
        self.bound = bound
        self.scope: List[str] = []
        self.gaps: List[Gap] = []

    def _check(self, annotation: ast.expr | None) -> None:
        if annotation is None:
            return
        for name in _annotation_names(annotation):
            if name not in self.bound:
                self.gaps.append(
                    Gap(
                        self.path,
                        annotation.lineno,
                        ".".join(self.scope) or "<module>",
                        f"annotation names unbound {name!r}",
                    )
                )

    def _visit_scope(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
    ) -> None:
        self.scope.append(node.name)
        if not isinstance(node, ast.ClassDef):
            self._check(node.returns)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_ClassDef = _visit_scope

    def visit_arg(self, node: ast.arg) -> None:
        self._check(node.annotation)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check(node.annotation)
        self.generic_visit(node)


def find_gaps(paths: Sequence[str], root: Path | None = None) -> List[Gap]:
    """All annotation gaps under the given files/directories."""
    root = root if root is not None else Path.cwd()
    gaps: List[Gap] = []
    for path in paths:
        target = Path(path)
        files = [target] if target.is_file() else sorted(target.rglob("*.py"))
        for file_path in files:
            if "__pycache__" in file_path.parts:
                continue
            try:
                rel = file_path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = file_path.as_posix()
            tree = ast.parse(
                file_path.read_text(encoding="utf-8"), filename=rel
            )
            gaps.extend(_walk(tree.body, rel, "", False))
            unbound = _UnboundAnnotations(rel, _bound_names(tree))
            unbound.visit(tree)
            gaps.extend(unbound.gaps)
    gaps.sort(key=lambda g: (g.path, g.line))
    return gaps


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    paths = args or list(STRICT_TIER)
    gaps = find_gaps(paths)
    for gap in gaps:
        print(gap.render())
    if gaps:
        print(f"\nannotations: {len(gaps)} gap(s) in the strict tier")
        return 1
    print("annotations: strict tier fully annotated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
