"""protolint — the AST-based protocol-invariant linter.

Run it over the tree::

    python -m repro.devtools.protolint src tests

Rules (see :mod:`repro.devtools.protolint.rules` for the catalogue and
the docs' "Static analysis" section for the invariants they guard):

========  ==========================================================
PL001     raw socket I/O only inside the byte-accounting seam
PL002     no unseeded randomness under protocol/, crypto/, sketch/
PL004     no silent exception swallowing in protocol code
PL005     wire-schema drift across messages.py / wire.py / net/spec.py
PL000     (framework) defective ``# protolint: disable=`` directives
========  ==========================================================

PL003 is unassigned: the package defines no coroutine, so there is no
``async def`` to keep blocking calls out of
(``tests/test_layering.py::test_the_package_runs_no_event_loop``).

Suppress a finding inline — the reason is mandatory and itself linted::

    risky_call()  # protolint: disable=PL002 (justification here)
"""

from repro.devtools.protolint.engine import (
    BAD_DISABLE,
    REGISTRY,
    FileContext,
    Finding,
    Rule,
    Suppression,
    active_rules,
    lint_paths,
    lint_source,
    register,
)
from repro.devtools.protolint import rules as _rules  # populate REGISTRY

__all__ = [
    "BAD_DISABLE",
    "REGISTRY",
    "FileContext",
    "Finding",
    "Rule",
    "Suppression",
    "active_rules",
    "lint_paths",
    "lint_source",
    "register",
]

del _rules
