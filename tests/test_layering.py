"""Layering: the protocol substrate imports nothing from the layers
that operate it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
LOWER = ("protocol", "crypto", "sketch", "statsutil")
UPPER = ("repro.backend", "repro.service", "repro.api", "repro.cli")
#: Threshold rules cross process boundaries by name; the names live in core.
ALLOWED = {("protocol/net/spec.py", "repro.core.thresholds")}


def test_lower_layers_import_nothing_from_their_operators():
    offenders = []
    for package in LOWER:
        for path in sorted((SRC / package).rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                for module in modules:
                    if module.startswith(UPPER + ("repro.core",)) \
                            and (rel, module) not in ALLOWED:
                        offenders.append(f"{rel} imports {module}")
    assert offenders == []
