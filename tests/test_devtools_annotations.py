"""Pin the strict-typing tier at zero annotation gaps.

protolint's annotation check (``annotation_gaps``) is the in-tree proxy
for CI's strict mypy rung: every def in the strict tier is fully
annotated (all parameters including ``*args``/``**kwargs``, plus the
return type), and no annotation names something the module never binds
(ruff ``F82``'s job in CI). These tests keep the tier pinned at zero
gaps so an unannotated seam — or an unimported ``Set`` — fails tier-1
locally before CI's real tools ever see it, and exercise the gap finder
itself against synthetic fixtures.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.devtools.protolint import STRICT_TIER, Flag, annotation_gaps

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Packages promoted beyond the ladder's strict rung in spirit: they are
#: not under mypy's strict override yet, but their public seams were
#: annotated in the same pass, and this pin stops them regressing while
#: they wait for promotion.
ANNOTATED_EXTRAS = (
    "src/repro/backend",
    "src/repro/extension",
    "src/repro/api.py",
)


def _gaps_under(relpath: str) -> list[str]:
    target = REPO_ROOT / relpath
    files = [target] if target.is_file() else sorted(target.rglob("*.py"))
    gaps = []
    for file in files:
        path = file.relative_to(REPO_ROOT).as_posix()
        tree = ast.parse(file.read_text(encoding="utf-8"))
        gaps += [f"{path}:{line}: {msg}" for line, msg in annotation_gaps(path, tree)]
    return gaps


# ---------------------------------------------------------------------------
# The pins: the strict tier (and the annotated extras) stay at zero gaps.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("package", STRICT_TIER)
def test_strict_tier_fully_annotated(package: str) -> None:
    gaps = _gaps_under(package)
    rendered = "\n".join(gaps)
    assert not gaps, f"annotation gaps in strict tier {package}:\n{rendered}"


@pytest.mark.parametrize("target", ANNOTATED_EXTRAS)
def test_annotated_extras_stay_annotated(target: str) -> None:
    gaps = _gaps_under(target)
    rendered = "\n".join(gaps)
    assert not gaps, f"annotation gaps in {target}:\n{rendered}"


def test_strict_tier_matches_mypy_override() -> None:
    """STRICT_TIER and pyproject's [[tool.mypy.overrides]] must agree."""
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    for package in STRICT_TIER:
        module = package.removeprefix("src/").replace("/", ".") + ".*"
        assert f'"{module}"' in pyproject, (
            f"{package} is in STRICT_TIER but {module} is missing from the "
            "strict [[tool.mypy.overrides]] block in pyproject.toml"
        )


# ---------------------------------------------------------------------------
# The gap finder itself, against synthetic fixtures.
# ---------------------------------------------------------------------------


def _gaps(source: str) -> list[Flag]:
    return list(annotation_gaps("mod.py", ast.parse(textwrap.dedent(source))))


def test_finds_unannotated_parameter_and_return() -> None:
    gaps = _gaps(
        """
        def f(x, y: int):
            return x + y
        """,
    )
    assert [message for _line, message in gaps] == [
        "f: parameter 'x'",
        "f: return type",
    ]


def test_self_and_cls_are_exempt() -> None:
    gaps = _gaps(
        """
        class C:
            def method(self, x: int) -> int:
                return x

            @classmethod
            def build(cls) -> "C":
                return cls()
        """,
    )
    assert gaps == []


def test_star_args_need_annotations() -> None:
    gaps = _gaps(
        """
        def f(*args, **kwargs) -> None:
            pass
        """,
    )
    assert {message for _line, message in gaps} == {
        "f: parameter *args",
        "f: parameter **kwargs",
    }


def test_nested_function_first_arg_not_treated_as_self() -> None:
    gaps = _gaps(
        """
        class C:
            def method(self) -> None:
                def inner(x) -> None:
                    pass
        """,
    )
    assert [message for _line, message in gaps] == [
        "C.method.inner: parameter 'x'",
    ]


def test_unimported_annotation_name_is_reported() -> None:
    """``from __future__ import annotations`` hides an unimported ``Set``
    at run time; the finder must not."""
    gaps = _gaps(
        """
        from __future__ import annotations

        from typing import Dict, Tuple

        PairKey = Tuple[int, int]


        class Provider:
            def __init__(self) -> None:
                self._pairs_of: Dict[int, Set[PairKey]] = {}

            def pairs(self, user: int) -> "FrozenSet[PairKey]":
                return frozenset(self._pairs_of[user])
        """,
    )
    assert gaps == [
        (11, "Provider.__init__: annotation names unbound 'Set'"),
        (13, "Provider.pairs: annotation names unbound 'FrozenSet'"),
    ]


def test_names_bound_anywhere_in_the_module_are_not_reported() -> None:
    gaps = _gaps(
        """
        from __future__ import annotations

        import hashlib
        import numpy as np
        from typing import TYPE_CHECKING, Optional, TypeVar

        if TYPE_CHECKING:
            from collections import OrderedDict

        T = TypeVar("T")


        def f(x: "hashlib._Hash", y: np.ndarray, z: T) -> "OrderedDict[str, Later]":
            count: Optional[int] = None
            return OrderedDict()


        class Later:
            pass
        """,
    )
    assert gaps == []
