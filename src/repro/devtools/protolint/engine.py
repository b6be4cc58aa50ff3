"""The protolint framework: findings, rules, suppression, the runner.

Design goals (what keeps the next rule a ~30-line change):

* a rule is a subclass of :class:`Rule` registered with
  :func:`register` — it declares its id, a one-line title, a fix hint,
  the path scope it applies to, and a ``check`` method that yields
  :class:`Finding`\\ s from a parsed module;
* everything else — file discovery, parsing, repo-relative path
  normalization, ``# protolint: disable=`` suppression (including
  linting the suppression *reasons*), report formatting and exit
  codes — lives here and is shared by every rule.

Suppression is line-scoped::

    sock.sendall(frame)  # protolint: disable=PL001 (accounting hook)

The parenthesized reason is mandatory: an escape hatch without a
non-empty reason (or naming a rule id that does not exist) is itself a
finding under the framework id ``PL000`` — the hatch must document why
the invariant does not apply, or it is just an unaudited hole.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

#: Framework id for defective suppression directives.
BAD_DISABLE = "PL000"

_DISABLE_RE = re.compile(
    r"#\s*protolint:\s*disable=(?P<ids>[A-Za-z]{2}\d{3}"
    r"(?:\s*,\s*[A-Za-z]{2}\d{3})*)"
    r"(?:\s*\((?P<reason>[^)]*)\))?"
)


@dataclass(frozen=True)
class Finding:
    """One machine-readable lint finding."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# protolint: disable=`` directive."""

    line: int
    rule_ids: Tuple[str, ...]
    reason: str


@dataclass
class FileContext:
    """Everything a rule may need about one source file.

    ``path`` is the repo-relative POSIX path (``src/repro/...``); rules
    scope themselves on it. ``tree`` is the parsed module.
    """

    path: str
    source: str
    tree: ast.Module
    real_path: Optional[Path] = None
    suppressions: Dict[int, Suppression] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls, source: str, path: str, real_path: Optional[Path] = None
    ) -> "FileContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(path=path, source=source, tree=tree, real_path=real_path)
        # Directives are parsed from real COMMENT tokens only — the same
        # text inside a string literal (docs, test fixtures) is data,
        # not a suppression.
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except tokenize.TokenError:  # ast.parse above accepted it; keep going
            comments = []
        for lineno, comment in comments:
            match = _DISABLE_RE.search(comment)
            if match is None:
                continue
            ids = tuple(
                part.strip().upper() for part in match.group("ids").split(",")
            )
            reason = (match.group("reason") or "").strip()
            ctx.suppressions[lineno] = Suppression(lineno, ids, reason)
        return ctx

    def suppressed(self, finding: Finding) -> bool:
        directive = self.suppressions.get(finding.line)
        return (
            directive is not None
            and finding.rule_id in directive.rule_ids
            and bool(directive.reason)
        )


class Rule:
    """Base class for one protocol-invariant rule.

    Subclasses set the class attributes, implement :meth:`check`, and
    register themselves with :func:`register`; see
    :mod:`repro.devtools.protolint.rules` for the catalogue.
    """

    #: Machine-readable id, ``PLnnn``.
    rule_id: str = ""
    #: One-line statement of the invariant.
    title: str = ""
    #: How to fix a violation (shown with every finding).
    hint: str = ""

    def scope(self, path: str) -> bool:
        """Whether this rule examines the file at repo-relative ``path``."""
        raise NotImplementedError

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
            hint=self.hint,
        )


#: rule id -> rule class. Populated by :func:`register`.
REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_cls.rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def active_rules(only: Optional[Sequence[str]] = None) -> List[Rule]:
    ids = sorted(REGISTRY) if only is None else list(only)
    return [REGISTRY[rule_id]() for rule_id in ids]


def _check_suppressions(ctx: FileContext) -> Iterator[Finding]:
    """Lint the escape hatches themselves (any file, any scope)."""
    for directive in ctx.suppressions.values():
        for rule_id in directive.rule_ids:
            if rule_id != BAD_DISABLE and rule_id not in REGISTRY:
                yield Finding(
                    ctx.path,
                    directive.line,
                    1,
                    BAD_DISABLE,
                    f"disable names unknown rule {rule_id}",
                    hint="use an id from --list-rules",
                )
        if not directive.reason:
            yield Finding(
                ctx.path,
                directive.line,
                1,
                BAD_DISABLE,
                "disable directive without a reason",
                hint=(
                    "write '# protolint: disable=PLnnn (why the invariant "
                    "does not apply here)'"
                ),
            )


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    real_path: Optional[Path] = None,
) -> List[Finding]:
    """Lint one in-memory module; ``path`` drives the rule scoping.

    The unit the self-test fixtures exercise: hand it a snippet and the
    repo-relative path it pretends to live at.
    """
    ctx = FileContext.from_source(source, path, real_path=real_path)
    findings = list(_check_suppressions(ctx))
    for rule in rules if rules is not None else active_rules():
        if not rule.scope(ctx.path):
            continue
        for finding in rule.check(ctx):
            if not ctx.suppressed(finding):
                findings.append(finding)
    return findings


def _iter_py_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for sub in sorted(path.rglob("*.py")):
            if "__pycache__" not in sub.parts:
                yield sub


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(
    paths: Iterable[str],
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Finding], List[str]]:
    """Lint files/directories; returns (findings, unparseable-file errors).

    ``root`` anchors the repo-relative paths rules scope on; it defaults
    to the current working directory, which is where
    ``python -m repro.devtools.protolint src tests`` runs.
    """
    root = root if root is not None else Path.cwd()
    chosen = rules if rules is not None else active_rules()
    findings: List[Finding] = []
    errors: List[str] = []
    for file_path in _iter_py_files([Path(p) for p in paths]):
        rel = _relative(file_path, root)
        try:
            source = file_path.read_text(encoding="utf-8")
            findings.extend(
                lint_source(source, rel, rules=chosen, real_path=file_path)
            )
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            errors.append(f"{rel}: {exc}")
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings, errors
