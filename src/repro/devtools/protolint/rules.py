"""The protolint rule catalogue (PL001, PL002, PL004, PL005).

Each rule machine-checks one of the code-level disciplines the paper's
privacy guarantees rest on. Rules scope themselves by repo-relative
path, so running the linter over ``src tests`` applies each
invariant exactly where it must hold (a test harness is allowed to open
raw sockets; the protocol package is not).

Adding a rule: subclass :class:`~repro.devtools.protolint.engine.Rule`,
set ``rule_id``/``title``/``hint``, implement ``scope`` and ``check``,
decorate with ``@register`` — the framework handles discovery,
suppression, reporting and exit codes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.protolint.engine import (
    FileContext,
    Finding,
    Rule,
    register,
)

# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------

#: A module's random / os aliases, numpy.random bases, from-random / from-os names.
_RandomImports = Tuple[Set[str], Set[str], Set[str], Dict[str, str], Dict[str, str]]

#: socket-module functions that create a live socket.
_SOCKET_CREATORS = {
    "socket",
    "create_connection",
    "create_server",
    "socketpair",
    "fromfd",
}

#: socket methods that move bytes or initiate connections.
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


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _module_aliases(tree: ast.Module, module: str) -> Set[str]:
    """Names the module is importable under (``import socket as s``)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
    return aliases


def _from_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """local name -> original name for ``from <module> import ...``."""
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return names


class _SocketTracker:
    """Dotted names statically known to hold raw socket objects.

    Sources of evidence: parameters / variables annotated
    ``socket.socket``, and assignments from socket-creating calls
    (``x = socket.create_connection(...)``, ``self._sock = sock`` where
    ``sock`` is itself socket-typed).
    """

    def __init__(self, tree: ast.Module) -> None:
        self.mod_aliases = _module_aliases(tree, "socket")
        self.creator_names = {
            local
            for local, orig in _from_imports(tree, "socket").items()
            if orig in _SOCKET_CREATORS
        }
        self.typed: Set[str] = set()
        self._collect(tree)

    def _is_socket_annotation(self, node: Optional[ast.AST]) -> bool:
        return _dotted(node) in {
            f"{alias}.socket" for alias in self.mod_aliases
        } if node is not None else False

    def is_creation_call(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        if isinstance(node.func, ast.Name):
            return node.func.id in self.creator_names
        if isinstance(node.func, ast.Attribute):
            base = _dotted(node.func.value)
            return base in self.mod_aliases and node.func.attr in _SOCKET_CREATORS
        return False

    def _collect(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and self._is_socket_annotation(
                node.annotation
            ):
                self.typed.add(node.arg)
            elif isinstance(node, ast.AnnAssign):
                target = _dotted(node.target)
                if target is not None and self._is_socket_annotation(
                    node.annotation
                ):
                    self.typed.add(target)
            elif isinstance(node, ast.Assign):
                value_is_socket = self.is_creation_call(node.value) or (
                    _dotted(node.value) in self.typed
                )
                if value_is_socket:
                    for target in node.targets:
                        name = _dotted(target)
                        if name is not None:
                            self.typed.add(name)

    def is_socket_method_call(self, node: ast.Call) -> bool:
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SOCKET_METHODS
            and _dotted(node.func.value) in self.typed
        )


def _in_strict_protocol_paths(path: str) -> bool:
    return path.startswith(
        ("src/repro/protocol/", "src/repro/crypto/", "src/repro/sketch/")
    )


# ---------------------------------------------------------------------------
# PL001 — raw sockets only inside the accounting seam
# ---------------------------------------------------------------------------

#: The only protocol modules allowed to touch raw sockets: the framing
#: layer and the transport whose ``_ship`` hook does the byte accounting.
#: The HTTP service plane (``repro/service/``) is deliberately NOT
#: allowlisted: all of its protocol bytes must cross the same seam
#: (socketserver's request streams and http.client carry the control
#: plane; a raw ``socket.socket()`` there would be an unaccounted byte
#: path).
PL001_ALLOWED = (
    "src/repro/protocol/net/transport.py",
    "src/repro/protocol/net/frames.py",
)


@register
class RawSocketRule(Rule):
    rule_id = "PL001"
    title = "raw socket I/O outside the byte-accounting seam"
    hint = (
        "route bytes through repro.protocol.net.frames /"
        " SocketTransport._ship (use frames.connect_stream to open"
        " connections) so every wire byte is accounted"
    )

    def scope(self, path: str) -> bool:
        return (
            path.startswith(("src/repro/protocol/", "src/repro/service/"))
            and path not in PL001_ALLOWED
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        tracker = _SocketTracker(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if tracker.is_creation_call(node):
                yield self.finding(
                    ctx,
                    node,
                    f"raw socket creation ({_dotted(node.func)}) outside "
                    "the transport/framing layer",
                )
            elif tracker.is_socket_method_call(node):
                assert isinstance(node.func, ast.Attribute)
                yield self.finding(
                    ctx,
                    node,
                    f"raw socket .{node.func.attr}() bypasses the _ship "
                    "byte-accounting hook",
                )


# ---------------------------------------------------------------------------
# PL002 — no unseeded randomness on the protocol/crypto/sketch path
# ---------------------------------------------------------------------------


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


@register
class UnseededRandomnessRule(Rule):
    rule_id = "PL002"
    title = "unseeded randomness on the protocol path"
    hint = (
        "derive randomness from an explicitly seeded generator"
        " (random.Random(seed) / numpy default_rng(seed)); protocol runs"
        " must be reproducible and pad streams attributable to their seed"
    )

    def scope(self, path: str) -> bool:
        return _in_strict_protocol_paths(path)

    def _flag_message(
        self, ctx: FileContext, node: ast.Call, imports: _RandomImports
    ) -> Optional[str]:
        func = node.func
        random_aliases, os_aliases, np_random_bases, from_random, from_os = imports
        if isinstance(func, ast.Name):
            origin = from_random.get(func.id)
            if origin is not None and origin[:1].islower():
                return f"random.{origin}() draws from the shared unseeded generator"
            if from_os.get(func.id) == "urandom" and not ctx.path.startswith(
                "src/repro/crypto/"
            ):
                return "os.urandom is OS entropy; only crypto/ may use it"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        base = _dotted(func.value)
        if base in random_aliases:
            if func.attr == "Random":
                if not node.args and not node.keywords:
                    return "bare random.Random() is seeded from OS entropy"
                return None
            if func.attr == "SystemRandom":
                return "random.SystemRandom cannot be seeded"
            if func.attr[:1].islower():
                return (
                    f"module-level random.{func.attr}() draws from the "
                    "shared unseeded generator"
                )
            return None
        if base in os_aliases and func.attr == "urandom":
            if not ctx.path.startswith("src/repro/crypto/"):
                return "os.urandom is OS entropy; only crypto/ may use it"
            return None
        if base in np_random_bases:
            if func.attr in {"default_rng", "RandomState", "Generator", "SeedSequence"}:
                if not node.args and not node.keywords:
                    return f"numpy.random.{func.attr}() without a seed"
                return None
            if func.attr[:1].islower():
                return (
                    f"numpy.random.{func.attr}() uses the legacy global "
                    "unseeded state"
                )
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # Built once per file, not per call: each build walks the module.
        imports = _random_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                message = self._flag_message(ctx, node, imports)
                if message is not None:
                    yield self.finding(ctx, node, message)


# ---------------------------------------------------------------------------
# PL004 — no silent exception swallowing in protocol code
# ---------------------------------------------------------------------------

_BROAD_EXC = {"Exception", "BaseException"}


@register
class SilentExceptRule(Rule):
    rule_id = "PL004"
    title = "broad exception handler silently swallows errors"
    hint = (
        "catch the specific exception, re-raise, convert to ProtocolError,"
        " or at minimum reference the caught exception (log/wrap it) so"
        " the failure leaves a trace"
    )

    def scope(self, path: str) -> bool:
        return path.startswith("src/repro/protocol/")

    def _is_broad(self, handler: ast.ExceptHandler) -> Optional[str]:
        if handler.type is None:
            return "bare except:"
        names = []
        if isinstance(handler.type, ast.Name):
            names = [handler.type.id]
        elif isinstance(handler.type, ast.Tuple):
            names = [
                elt.id for elt in handler.type.elts if isinstance(elt, ast.Name)
            ]
        broad = sorted(set(names) & _BROAD_EXC)
        return f"except {', '.join(broad)}" if broad else None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._is_broad(node)
            if broad is None:
                continue
            has_raise = any(
                isinstance(sub, ast.Raise)
                for stmt in node.body
                for sub in ast.walk(stmt)
            )
            uses_exc = node.name is not None and any(
                isinstance(sub, ast.Name)
                and sub.id == node.name
                and isinstance(sub.ctx, ast.Load)
                for stmt in node.body
                for sub in ast.walk(stmt)
            )
            if not has_raise and not uses_exc:
                yield self.finding(
                    ctx,
                    node,
                    f"{broad} swallows the error without re-raise,"
                    " conversion, or even a trace",
                )


# ---------------------------------------------------------------------------
# PL005 — wire-schema drift between messages.py, wire.py and net/spec.py
# ---------------------------------------------------------------------------


@register
class WireSchemaDriftRule(Rule):
    rule_id = "PL005"
    title = "wire-schema drift across messages.py / wire.py / net/spec.py"
    hint = (
        "every message class needs a _TYPE_OF tag, an encode() arm, a"
        " decode() constructor and a slot in the Message union in"
        " protocol/wire.py; summary_to_spec/summary_from_spec in"
        " net/spec.py must agree on their keys"
    )

    def scope(self, path: str) -> bool:
        return path.endswith("protocol/messages.py")

    # -- discovery helpers -------------------------------------------------
    @staticmethod
    def _message_classes(tree: ast.Module) -> Dict[str, ast.ClassDef]:
        classes: Dict[str, ast.ClassDef] = {}
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "size_bytes"
                for item in node.body
            ):
                classes[node.name] = node
        return classes

    @staticmethod
    def _type_registry(
        tree: ast.Module,
    ) -> Optional[Tuple[ast.AST, Dict[str, object]]]:
        for node in ast.walk(tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            named = any(
                isinstance(t, ast.Name) and t.id == "_TYPE_OF" for t in targets
            )
            if named and isinstance(value, ast.Dict):
                entries: Dict[str, object] = {}
                for key, val in zip(value.keys, value.values):
                    if isinstance(key, ast.Name) and isinstance(
                        val, ast.Constant
                    ):
                        entries[key.id] = val.value
                return node, entries
        return None

    @staticmethod
    def _function(tree: ast.Module, name: str) -> Optional[ast.FunctionDef]:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return node
        return None

    def _sibling(self, ctx: FileContext, *relative: str) -> Optional[ast.Module]:
        if ctx.real_path is None:
            return None
        sibling = ctx.real_path.parent.joinpath(*relative)
        if not sibling.is_file():
            return None
        return ast.parse(sibling.read_text(encoding="utf-8"), filename=str(sibling))

    def _located(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
            hint=self.hint,
        )

    # -- the cross-check ---------------------------------------------------
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        wire_path = ctx.path[: -len("messages.py")] + "wire.py"
        spec_path = ctx.path[: -len("messages.py")] + "net/spec.py"
        wire = self._sibling(ctx, "wire.py")
        spec = self._sibling(ctx, "net", "spec.py")
        if wire is None:
            yield self.finding(
                ctx,
                ctx.tree,
                f"cannot cross-check: {wire_path} not found beside messages.py",
            )
            return

        classes = self._message_classes(ctx.tree)
        registry = self._type_registry(wire)
        if registry is None:
            yield self._located(
                wire_path, wire, "cannot locate the _TYPE_OF tag registry"
            )
            return
        registry_node, tags = registry

        encode_fn = self._function(wire, "encode")
        decode_fn = self._function(wire, "decode")
        encode_arms: Set[str] = set()
        if encode_fn is not None:
            for node in ast.walk(encode_fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and isinstance(node.args[1], ast.Name)
                ):
                    encode_arms.add(node.args[1].id)
        decode_ctors: Set[str] = set()
        if decode_fn is not None:
            for node in ast.walk(decode_fn):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name
                ):
                    decode_ctors.add(node.func.id)
        union_names: Set[str] = set()
        for node in ast.walk(wire):
            is_message_target = isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "Message"
                for t in node.targets
            )
            if is_message_target:
                union_names = {
                    sub.id
                    for sub in ast.walk(node.value)
                    if isinstance(sub, ast.Name)
                }

        for name, class_node in sorted(classes.items()):
            if name not in tags:
                yield self.finding(
                    ctx,
                    class_node,
                    f"message class {name} has no wire tag in _TYPE_OF",
                )
            if encode_fn is not None and name not in encode_arms:
                yield self.finding(
                    ctx,
                    class_node,
                    f"message class {name} has no encode() arm in wire.py",
                )
            if decode_fn is not None and name not in decode_ctors:
                yield self.finding(
                    ctx,
                    class_node,
                    f"message class {name} is never constructed in decode()",
                )
            if union_names and name not in union_names:
                yield self.finding(
                    ctx,
                    class_node,
                    f"message class {name} is missing from the Message union",
                )
        for name in sorted(set(tags) - set(classes)):
            yield self._located(
                wire_path,
                registry_node,
                f"_TYPE_OF registers {name}, which is not a message class "
                "in messages.py",
            )
        seen: Dict[object, str] = {}
        for name, tag in tags.items():
            if tag in seen:
                yield self._located(
                    wire_path,
                    registry_node,
                    f"wire tag {tag!r} is assigned to both {seen[tag]} "
                    f"and {name}",
                )
            seen[tag] = name

        if spec is None:
            yield self.finding(
                ctx,
                ctx.tree,
                f"cannot cross-check: {spec_path} not found for the summary "
                "schema",
            )
            return
        to_spec = self._function(spec, "summary_to_spec")
        from_spec = self._function(spec, "summary_from_spec")
        if to_spec is None or from_spec is None:
            yield self._located(
                spec_path,
                spec,
                "net/spec.py must define summary_to_spec and summary_from_spec",
            )
            return
        written: Set[str] = set()
        for node in ast.walk(to_spec):
            if isinstance(node, ast.Dict):
                written.update(
                    key.value
                    for key in node.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                )
        read: Set[str] = set()
        for node in ast.walk(from_spec):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == "spec"
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                read.add(node.slice.value)
        for key in sorted(read - written):
            yield self._located(
                spec_path,
                from_spec,
                f"summary_from_spec reads key {key!r} that summary_to_spec "
                "never writes",
            )
        for key in sorted(written - read):
            yield self._located(
                spec_path,
                to_spec,
                f"summary_to_spec writes key {key!r} that summary_from_spec "
                "never reads back",
            )
