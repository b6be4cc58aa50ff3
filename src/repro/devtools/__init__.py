"""Developer tooling that machine-checks the repo's protocol invariants.

The paper's privacy guarantees rest on a handful of code-level
disciplines: every byte on the wire flows through the ``_ship``/``_carry``
accounting hooks, all randomness on the protocol/crypto path comes from
seeded generators, no protocol error is ever silently swallowed, and the
strict-tier packages are fully annotated. Runtime tests exercise those
invariants on the paths they happen to cover; :mod:`repro.devtools.protolint`
checks them statically, over every module, on every run
(``python -m repro.devtools.protolint``).
"""
