"""Pin the strict-typing tier at zero annotation gaps.

``repro.devtools.annotations`` is the in-tree proxy for CI's strict
mypy rung: it asserts every def in the strict tier is fully annotated
(all parameters including ``*args``/``**kwargs``, plus the return
type), and that no annotation names something the module never binds
(ruff ``F82``'s job in CI). These tests keep the tier pinned at zero
gaps so an unannotated seam — or an unimported ``Set`` — fails tier-1
locally before CI's real tools ever see it, and exercise the gap finder
itself against synthetic fixtures.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.devtools.annotations import STRICT_TIER, Gap, find_gaps, main

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


def _gaps_under(relpath: str) -> list[Gap]:
    return find_gaps([str(REPO_ROOT / relpath)], root=REPO_ROOT)


# ---------------------------------------------------------------------------
# The pins: the strict tier (and the annotated extras) stay at zero gaps.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("package", STRICT_TIER)
def test_strict_tier_fully_annotated(package: str) -> None:
    gaps = _gaps_under(package)
    rendered = "\n".join(g.render() for g in gaps)
    assert not gaps, f"annotation gaps in strict tier {package}:\n{rendered}"


@pytest.mark.parametrize("target", ANNOTATED_EXTRAS)
def test_annotated_extras_stay_annotated(target: str) -> None:
    gaps = _gaps_under(target)
    rendered = "\n".join(g.render() for g in gaps)
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


def _write(tmp_path: Path, source: str) -> Path:
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


def test_finds_unannotated_parameter_and_return(tmp_path: Path) -> None:
    target = _write(
        tmp_path,
        """
        def f(x, y: int):
            return x + y
        """,
    )
    gaps = find_gaps([str(target)], root=tmp_path)
    assert [(g.function, g.what) for g in gaps] == [
        ("f", "parameter 'x'"),
        ("f", "return type"),
    ]


def test_self_and_cls_are_exempt(tmp_path: Path) -> None:
    target = _write(
        tmp_path,
        """
        class C:
            def method(self, x: int) -> int:
                return x

            @classmethod
            def build(cls) -> "C":
                return cls()
        """,
    )
    assert find_gaps([str(target)], root=tmp_path) == []


def test_star_args_need_annotations(tmp_path: Path) -> None:
    target = _write(
        tmp_path,
        """
        def f(*args, **kwargs) -> None:
            pass
        """,
    )
    gaps = find_gaps([str(target)], root=tmp_path)
    assert {g.what for g in gaps} == {"parameter *args", "parameter **kwargs"}


def test_nested_function_first_arg_not_treated_as_self(tmp_path: Path) -> None:
    target = _write(
        tmp_path,
        """
        class C:
            def method(self) -> None:
                def inner(x) -> None:
                    pass
        """,
    )
    gaps = find_gaps([str(target)], root=tmp_path)
    assert [(g.function, g.what) for g in gaps] == [
        ("C.method.inner", "parameter 'x'"),
    ]


def test_unimported_annotation_name_is_reported(tmp_path: Path) -> None:
    """``from __future__ import annotations`` hides an unimported ``Set``
    at run time; the finder must not."""
    target = _write(
        tmp_path,
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
    gaps = find_gaps([str(target)], root=tmp_path)
    assert [(g.line, g.function, g.what) for g in gaps] == [
        (11, "Provider.__init__", "annotation names unbound 'Set'"),
        (13, "Provider.pairs", "annotation names unbound 'FrozenSet'"),
    ]


def test_names_bound_anywhere_in_the_module_are_not_reported(
    tmp_path: Path,
) -> None:
    target = _write(
        tmp_path,
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
    assert find_gaps([str(target)], root=tmp_path) == []


def test_main_exit_codes(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    clean = _write(tmp_path, "x = 1\n")
    assert main([str(clean)]) == 0
    assert "fully annotated" in capsys.readouterr().out

    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(x):\n    pass\n", encoding="utf-8")
    assert main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "parameter 'x'" in out
    assert "2 gap(s)" in out
