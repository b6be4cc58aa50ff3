"""Layering: the protocol substrate imports nothing from the layers
that operate it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
LOWER = ("protocol", "crypto", "sketch", "statsutil")
UPPER = ("repro.backend", "repro.service", "repro.api", "repro.cli")
#: Threshold rules are persisted and served by name; the names live in core.
ALLOWED = {("protocol/spec.py", "repro.core.thresholds")}


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


def test_the_operator_side_reaches_no_network_layer():
    """The detector and the store speak the protocol's values (its JSON
    codecs in ``protocol/spec.py``), never its socket transports."""
    offenders = []
    for package in ("core", "store"):
        for path in sorted((SRC / package).rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                    if node.module == "repro.protocol":
                        modules += [f"repro.protocol.{alias.name}"
                                    for alias in node.names]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                offenders.extend(
                    f"{rel} imports {module}" for module in modules
                    if module.split(".")[:3] == ["repro", "protocol", "net"])
    assert offenders == []


def test_the_aggregation_tree_spawns_nothing():
    """The aggregators run in the operator's process: nothing under
    ``src/`` starts a process, and no session setting asks for one (a
    devices-and-one-back-end deployment is the HTTP plane). The field
    names are assembled so a search of the tree for them comes back
    empty."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders.extend(
                f"{rel} imports {module}" for module in modules
                if module.split(".")[0] in ("subprocess", "multiprocessing"))
    assert offenders == []

    import dataclasses
    from repro.api import SessionConfig
    names = {field.name for field in dataclasses.fields(SessionConfig)}
    assert not names & {"aggregator" + "_procs", "max" + "_restarts"}


def test_the_package_runs_no_event_loop():
    """The socket transport pumps its frames under ``select`` on one
    thread, and the HTTP plane serves each connection on a thread of its
    own: nothing in the package imports asyncio or defines a
    coroutine."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, (ast.AsyncFunctionDef, ast.Await,
                                   ast.AsyncFor, ast.AsyncWith)):
                offenders.append(f"{rel}:{node.lineno} is async")
                continue
            else:
                continue
            offenders.extend(f"{rel} imports {module}" for module in modules
                             if module.split(".")[0] == "asyncio")
    assert offenders == []


def test_importing_the_package_does_not_load_scipy():
    """scipy serves two analyses (§7.3.3's hypergeometric test, the §8
    regression); the package and the CLI import without paying for
    it."""
    code = ("import sys, repro, repro.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "[]"


def test_the_service_drives_one_session():
    """The HTTP operator steps one ``ProtocolSession``: nothing under
    service/ enrolls, wires the aggregation tree, drives a runner, marks
    rounds spent or records history by itself."""
    owned = {"enroll_users", "build_aggregation_tree",
             "ProtocolRunner", "record_session", "record_epoch",
             "record_transition", "record_round", "note_round"}
    offenders = []
    for path in sorted((SRC / "service").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) \
                else getattr(func, "attr", None)
            if name in owned:
                offenders.append(f"{rel}:{node.lineno} calls {name}")
    assert offenders == []


def test_the_reference_round_shares_no_code_with_the_protocol():
    """``tests/reference_round.py`` is an oracle only while it is
    independent: it imports ``hashlib``, the sketch and the DH group,
    and nothing from the blinding kernel, the clients or the tiers."""
    path = Path(__file__).resolve().parent / "reference_round.py"
    forbidden = ("repro.crypto.blinding", "repro.protocol.aggregator",
                 "repro.protocol.server", "repro.protocol.army",
                 "repro.protocol.client")
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert not [m for m in modules if m.startswith(forbidden)]
    assert modules == {"hashlib", "repro.sketch.countmin",
                       "repro.crypto.group"}


def test_there_is_one_clique_aggregator():
    """A clique's round state lives in its aggregator: the many-clique
    server it used to wrap is gone, not shimmed. (The name is assembled
    so this file does not itself trip the check.)"""
    gone = "Aggregation" + "Server"
    import repro.protocol as protocol
    import repro.protocol.server as server
    assert not hasattr(protocol, gone) and not hasattr(server, gone)
    assert gone not in protocol.__all__
    offenders = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if gone in path.read_text()
    ]
    assert offenders == []
    # What the root and the benchmark still need stays where it was.
    from repro.protocol.server import UsersDistributionQuery  # noqa: F401


def test_there_is_one_pad_derivation():
    """A remote client and its operator must derive identical pad bytes,
    so ``src/`` calls SHAKE-128 exactly once, in
    ``crypto/blinding.py::_pad_bytes``: a second derivation path fails
    here, not in a live round."""
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text())
        # ast.walk is breadth-first, so an inner function's name
        # overwrites its outer function's for the calls it encloses.
        scope = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    scope[node] = func.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            named = (name == "new" and node.args
                     and isinstance(node.args[0], ast.Constant)
                     and node.args[0].value == "shake_128")
            if name == "shake_128" or named:
                calls.append(f"{rel}::{scope.get(node, '<module>')}")
    assert calls == ["crypto/blinding.py::_pad_bytes"]


def test_there_is_one_tree_planner():
    """``src/`` plans the aggregation tree in one place."""
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr",
                               getattr(node.func, "id", None))
                if name == "plan_aggregation_tree":
                    calls.append(rel)
    assert calls == ["protocol/runner.py"]


def test_faults_are_scheduled_from_outside():
    """A plan is not a session wiring option: it rides its own
    ChaosSocketTransport."""
    import dataclasses
    from repro.api import SessionConfig
    names = [field.name for field in dataclasses.fields(SessionConfig)]
    assert "fault_plan" not in names


def test_every_export_resolves():
    """Each name a ``repro`` package or module lists in ``__all__`` is
    defined there, so a deleted definition cannot leave its export
    behind."""
    import importlib
    import pkgutil

    import repro
    names = ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro.")]
    dangling = []
    for name in names:
        module = importlib.import_module(name)
        dangling.extend(f"{name}.{export}"
                        for export in getattr(module, "__all__", ())
                        if not hasattr(module, export))
    assert {"repro.api", "repro.protocol", "repro.protocol.net"} <= set(names)
    assert dangling == []
