"""Developer tooling that machine-checks the repo's protocol invariants.

The paper's privacy guarantees rest on a handful of code-level
disciplines — pads are one-time per (pair, round), every byte on the
wire flows through the ``_ship``/``_carry`` accounting hooks, all
randomness on the protocol/crypto path comes from seeded generators, and
no protocol error is ever silently swallowed. Runtime tests exercise
those invariants on the paths they happen to cover; the tools in this
package check them *statically*, over every module, on every run:

* :mod:`repro.devtools.protolint` — the AST-based protocol-invariant
  linter (``python -m repro.devtools.protolint src tests``).
  See :mod:`repro.devtools.protolint.rules` for the rule catalogue.
* :mod:`repro.devtools.annotations` — the strict-typing ladder's local
  rung: verifies that every function in the strict-tier packages
  (``protocol/``, ``sketch/``, ``crypto/``) is fully annotated, so the
  CI ``mypy --strict`` job never discovers a bare seam first.
"""

from repro.devtools.protolint import Finding, Rule, lint_paths, lint_source

__all__ = ["Finding", "Rule", "lint_paths", "lint_source"]
