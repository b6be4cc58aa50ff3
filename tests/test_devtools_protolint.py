"""Self-tests for the protolint checks.

Per check: minimal snippets that must flag and near-misses that must
pass, each linted by :func:`lint_tree` from a scratch root that holds
the snippet at the path it pretends to live at, so scope and allowlist
are exercised too. PL005, the wire-schema invariant, is checked at run
time over the codec's own tables and the summary-spec round-trip, with
fake modules that must flag and a consistent pair that must pass. Plus
the entry point's exit codes and the acceptance criterion that the real
tree lints clean.
"""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
import tempfile
import types
import typing
from pathlib import Path

import numpy as np
import pytest

from repro.devtools import protolint
from repro.devtools.protolint import CHECKS, lint_tree, unseeded_randomness
from repro.errors import ProtocolError
from repro.protocol import messages, wire
from repro.protocol.client import RoundConfig
from repro.protocol.endpoint import RoundSummary
from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    MissingClientsNotice,
)
from repro.protocol.spec import summary_from_spec, summary_to_spec
from repro.sketch.countmin import CountMinSketch
from repro.statsutil.distributions import EmpiricalDistribution

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A path inside the protocol package (in scope for PL001, PL002, PL004).
PROTO = "src/repro/protocol/net/fake.py"


def ids(findings):
    return sorted(finding.split()[1] for finding in findings)


def lint(source, path):
    """PL findings for ``source`` placed at repo-relative ``path`` (the
    snippets are unannotated on purpose; ``test_devtools_annotations.py``
    covers the annotation check)."""
    with tempfile.TemporaryDirectory() as root:
        target = Path(root, path)
        target.parent.mkdir(parents=True)
        target.write_text(source)
        return [f for f in lint_tree(Path(root)) if ids([f]) != ["annotations"]]


# ---------------------------------------------------------------------------
# PL001 — raw sockets only inside the accounting seam
# ---------------------------------------------------------------------------


class TestPL001:
    flagged = (
        "import socket\n"
        "def dial(host):\n"
        "    s = socket.create_connection((host, 1))\n"
        "    s.sendall(b'x')\n"
    )

    def test_flags_creation_and_send(self):
        findings = lint(self.flagged, PROTO)
        assert ids(findings) == ["PL001", "PL001"]
        assert "create_connection" in findings[0]
        assert "_ship" in findings[1]

    def test_flags_annotated_socket_methods(self):
        source = (
            "import socket\n"
            "def pump(sock: socket.socket):\n"
            "    return sock.recv(4)\n"
        )
        assert ids(lint(source, PROTO)) == ["PL001"]

    def test_near_miss_transport_send_passes(self):
        # .send() on a non-socket (the Transport API) must not flag.
        source = (
            "import socket\n"  # typing-only import is fine
            "def route(transport, message):\n"
            "    transport.send('server', message)\n"
            "def annotate(sock: socket.socket) -> str:\n"
            "    return repr(sock)\n"
        )
        assert lint(source, PROTO) == []

    def test_allowed_files_and_out_of_scope_paths_pass(self):
        allowed = "src/repro/protocol/net/transport.py"
        assert lint(self.flagged, allowed) == []
        assert lint(self.flagged, "tests/test_sockets.py") == []
        assert lint(self.flagged, "src/repro/simulation/fake.py") == []

    def test_service_package_is_in_scope(self):
        """The HTTP service plane gets no raw sockets either: its only
        byte paths are socketserver's request streams and http.client,
        and protocol bytes move through the transport seam underneath."""
        source = (
            "import socket\n"
            "def leak():\n"
            "    return socket.socket()\n"
        )
        assert ids(lint(source, "src/repro/service/fake.py")) == ["PL001"]

    def test_no_service_file_is_allowlisted(self):
        """Unlike protocol/net/, nothing under service/ may hold a raw
        socket — not even the HTTP server module itself."""
        for path in ("src/repro/service/http.py",
                     "src/repro/service/client.py",
                     "src/repro/service/state.py"):
            assert ids(lint(self.flagged, path)) == ["PL001", "PL001"], path


# ---------------------------------------------------------------------------
# PL002 — no unseeded randomness
# ---------------------------------------------------------------------------


class TestPL002:
    def test_flags_module_level_random(self):
        source = "import random\nx = random.random()\n"
        assert ids(lint(source, "src/repro/crypto/fake.py")) == ["PL002"]

    def test_flags_bare_random_instance(self):
        source = "import random\nrng = random.Random()\n"
        assert ids(lint(source, PROTO)) == ["PL002"]

    def test_flags_numpy_global_state_and_bare_default_rng(self):
        source = (
            "import numpy as np\n"
            "a = np.random.rand(3)\n"
            "rng = np.random.default_rng()\n"
        )
        assert ids(lint(source, "src/repro/sketch/fake.py")) == [
            "PL002",
            "PL002",
        ]

    def test_flags_urandom_outside_crypto(self):
        source = "import os\nkey = os.urandom(16)\n"
        assert ids(lint(source, PROTO)) == ["PL002"]

    def test_near_miss_seeded_generators_pass(self):
        source = (
            "import os\n"
            "import random\n"
            "import numpy as np\n"
            "rng = random.Random(42)\n"
            "gen = np.random.default_rng(7)\n"
            "key = os.urandom(16)\n"  # crypto/ may use OS entropy
        )
        assert lint(source, "src/repro/crypto/fake.py") == []

    def test_out_of_scope_path_passes(self):
        source = "import random\nx = random.random()\n"
        assert lint(source, "src/repro/simulation/fake.py") == []

    def test_import_tables_are_built_once_per_file(self, monkeypatch):
        # Each table build walks the whole module, so building them per
        # call made the check quadratic in the module's size.
        builds = []
        for name in ("_module_aliases", "_from_imports"):
            real = getattr(protolint, name)
            monkeypatch.setattr(
                protolint,
                name,
                lambda tree, module, real=real: builds.append(module)
                or real(tree, module),
            )
        tree = ast.parse("import numpy as np\n" + "x = np.zeros(1).sum()\n" * 50)
        assert list(unseeded_randomness("src/repro/sketch/fake.py", tree)) == []
        assert sorted(builds) == ["numpy", "numpy", "os", "os", "random", "random"]


# ---------------------------------------------------------------------------
# PL004 — no silent exception swallowing
# ---------------------------------------------------------------------------


class TestPL004:
    swallow = (
        "class SocketTransport:\n"
        "    def __del__(self):\n"
        "        try:\n"
        "            self.close()\n"
        "        except BaseException:\n"
        "            pass\n"
        "    def close(self):\n"
        "        try:\n"
        "            pass\n"
        "        except BaseException:\n"
        "            pass\n"
    )

    def test_flags_broad_swallow_and_bare_except(self):
        source = (
            "def run(op):\n"
            "    try:\n"
            "        op()\n"
            "    except Exception:\n"
            "        pass\n"
            "    try:\n"
            "        op()\n"
            "    except:\n"
            "        return None\n"
        )
        assert ids(lint(source, PROTO)) == ["PL004", "PL004"]

    def test_near_miss_narrow_convert_and_traced_pass(self):
        source = (
            "def run(op, log):\n"
            "    try:\n"
            "        op()\n"
            "    except ValueError:\n"
            "        pass\n"  # narrow catch is allowed
            "    try:\n"
            "        op()\n"
            "    except Exception as exc:\n"
            "        raise ProtocolError(str(exc)) from exc\n"
            "    try:\n"
            "        op()\n"
            "    except Exception as exc:\n"
            "        log.warning('failed: %s', exc)\n"
        )
        assert lint(source, PROTO) == []

    def test_allowlist_entry_exempts_one_qualname(self):
        """The one allowlisted handler is SocketTransport.__del__ in
        transport.py: the same handler in any other def, or in any other
        file, still flags."""
        allowed = "src/repro/protocol/net/transport.py"
        assert [f.split(":")[1] for f in lint(self.swallow, allowed)] == ["10"]
        assert ids(lint(self.swallow, PROTO)) == ["PL004", "PL004"]


# ---------------------------------------------------------------------------
# PL006 — stdout belongs to the CLI
# ---------------------------------------------------------------------------


class TestPL006:
    flagged = (
        "def report(rows):\n"
        "    for row in rows:\n"
        "        print(row)\n"
        "    print('done', file=None)\n"
    )

    def test_flags_print_calls_anywhere_in_the_package(self):
        for path in (PROTO, "src/repro/core/fake.py", "src/repro/fake.py"):
            findings = lint(self.flagged, path)
            assert ids(findings) == ["PL006", "PL006"]
            assert sorted(f.split(":")[1] for f in findings) == ["3", "4"]

    def test_near_miss_names_and_attributes_pass(self):
        source = (
            '"""Quickstart::\n\n    print(result)\n"""\n'  # in a docstring
            "def render(printer, log, rows):\n"
            "    printer.print(rows)\n"  # a method that happens to be print
            "    log.info('%d rows', len(rows))\n"
            "    pprint = repr\n"
            "    return pprint(rows), 'print(rows)'\n"
        )
        assert lint(source, PROTO) == []

    def test_the_cli_and_protolints_own_main_are_allowed(self):
        assert lint(self.flagged, "src/repro/cli.py") == []
        lint_main = "def main():\n    print('clean')\n"
        assert lint(lint_main, "src/repro/devtools/protolint.py") == []
        assert ids(lint(self.flagged, "src/repro/devtools/protolint.py")) \
            == ["PL006", "PL006"]

    def test_out_of_scope_paths_pass(self):
        assert lint(self.flagged, "examples/fake.py") == []


# ---------------------------------------------------------------------------
# PL005 — wire-schema drift, checked by running the codec's tables rather
# than by reading the source: fake message/codec modules that must flag
# and a consistent pair that must pass, then the real modules
# ---------------------------------------------------------------------------


def message_classes(module):
    """The module's message classes: dataclasses that define size_bytes."""
    return {
        cls for _name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
        and dataclasses.is_dataclass(cls) and "size_bytes" in vars(cls)}


def registry_drift(messages_module, wire_module):
    """Where the codec's tag table and ``Message`` union disagree with the
    message classes, and which tags are shared."""
    classes = message_classes(messages_module)
    tagged = set(wire_module._ENCODERS)
    union = set(typing.get_args(wire_module.Message))
    problems = [f"{cls.__name__} has no wire tag" for cls in classes - tagged]
    problems += [f"{cls.__name__} is not in the Message union"
                 for cls in classes - union]
    problems += [f"{cls.__name__} is tagged but not a message class"
                 for cls in (tagged | union) - classes]
    owners = {}
    for cls, (tag, _encoder) in wire_module._ENCODERS.items():
        if tag in owners:
            problems.append(f"tag {tag} assigned to both "
                            f"{owners[tag].__name__} and {cls.__name__}")
        owners.setdefault(tag, cls)
    return sorted(problems)


def spec_drift(summary, encode, decode):
    """The RoundSummary fields that do not survive ``decode(encode())``."""
    rebuilt = decode(encode(summary), SPEC_CONFIG)

    def comparable(value):
        if isinstance(value, CountMinSketch):
            return value.depth, value.width, value.seed, value.cells
        if isinstance(value, EmpiricalDistribution):
            return value.values
        return value

    return [field.name for field in dataclasses.fields(RoundSummary)
            if comparable(getattr(rebuilt, field.name))
            != comparable(getattr(summary, field.name))]


def fake_module(name, source, **names):
    module = types.ModuleType(name)
    vars(module).update(names)
    exec(source, vars(module))
    return module


MESSAGES_OK = (
    "import dataclasses\n"
    "@dataclasses.dataclass\n"
    "class Ping:\n"
    "    def size_bytes(self):\n"
    "        return 16\n"
    "@dataclasses.dataclass\n"
    "class Pang:\n"
    "    def size_bytes(self):\n"
    "        return 16\n"
)
WIRE_OK = (
    "_ENCODERS = {Ping: (1, repr), Pang: (2, repr)}\n"
    "Message = typing.Union[Ping, Pang]\n"
)
SPEC_CONFIG = RoundConfig(cms_depth=2, cms_width=8, cms_seed=5, id_space=50)


def fake_tree(messages_source, wire_source):
    """A fake messages module and a fake codec module that imports all of
    its message classes."""
    messages_module = fake_module("fake_messages", messages_source)
    wire_module = fake_module(
        "fake_wire", wire_source, typing=typing,
        **{cls.__name__: cls for cls in message_classes(messages_module)})
    return messages_module, wire_module


def recovery_summary():
    """A summary whose every field differs from what a reader that
    falls back on a default would produce."""
    cells = np.arange(SPEC_CONFIG.num_cells, dtype=np.uint64) * 3 + 1
    return RoundSummary(
        round_id=4,
        aggregate=CountMinSketch(2, 8, 5, cells=cells),
        distribution=EmpiricalDistribution([1.0, 2.5, 2.5]),
        users_threshold=2.25,
        reported_users=["u1", "u2"],
        missing_users=["u3"],
        recovery_round_used=True,
    )


class TestPL005:
    def test_near_miss_consistent_tree_passes(self):
        assert registry_drift(*fake_tree(MESSAGES_OK, WIRE_OK)) == []
        assert spec_drift(recovery_summary(), summary_to_spec,
                          summary_from_spec) == []

    def test_flags_unregistered_message_class(self):
        messages_source = MESSAGES_OK + (
            "@dataclasses.dataclass\n"
            "class Pong:\n"
            "    def size_bytes(self):\n"
            "        return 16\n"
        )
        problems = registry_drift(*fake_tree(messages_source, WIRE_OK))
        assert problems == ["Pong has no wire tag",
                            "Pong is not in the Message union"]

    def test_flags_stale_registry_entry_and_duplicate_tag(self):
        wire_source = "class Gone:\n    pass\n" + WIRE_OK.replace(
            "Pang: (2, repr)}", "Pang: (2, repr), Gone: (1, repr)}")
        problems = registry_drift(*fake_tree(MESSAGES_OK, wire_source))
        assert problems == ["Gone is tagged but not a message class",
                            "tag 1 assigned to both Ping and Gone"]

    def test_flags_summary_spec_key_drift(self):
        summary = recovery_summary()

        def never_reads_missing_users(spec, config):
            # A reader that ignores a key the writer sends falls back on
            # the field's default; the round-trip shows it.
            return summary_from_spec(dict(spec, missing_users=[]), config)

        assert spec_drift(summary, summary_to_spec,
                          never_reads_missing_users) == ["missing_users"]

        def never_writes_read_only(summary):
            spec = summary_to_spec(summary)
            del spec["recovery_round_used"]
            return spec

        with pytest.raises(ProtocolError, match="recovery_round_used"):
            spec_drift(summary, never_writes_read_only, summary_from_spec)


# ---------------------------------------------------------------------------
# The table and the entry point
# ---------------------------------------------------------------------------


class TestFramework:
    def test_catalogue_is_complete(self):
        """Every check is documented: a docstring on the function and a
        row in docs/static_analysis.md's table."""
        doc = (REPO_ROOT / "docs" / "static_analysis.md").read_text()
        assert sorted(CHECKS) == ["PL001", "PL002", "PL004", "PL006",
                                  "annotations"]
        for check_id, (check, scope, _allowed) in CHECKS.items():
            assert check.__doc__ and scope
            assert f"| {check_id} " in doc and f"`{check.__name__}`" in doc

    def test_custom_rule_is_a_small_extension(self, monkeypatch):
        # A new check is a function and a row in the table; lint_tree
        # does the scoping, parsing and reporting.
        def no_eval(path, tree):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and \
                        getattr(node.func, "id", None) == "eval":
                    yield node.lineno, "eval() call"

        monkeypatch.setitem(
            CHECKS, "PL900", (no_eval, ("src/repro/protocol/",), {}))
        assert lint("eval('1')\n", PROTO) == [f"{PROTO}:1: PL900 eval() call"]
        assert lint("eval('1')\n", "src/repro/cli.py") == []


class TestCLI:
    def run(self, root):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro.devtools.protolint"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60)

    def test_clean_file_exits_zero(self, tmp_path):
        target = tmp_path / "src" / "repro" / "protocol" / "clean.py"
        target.parent.mkdir(parents=True)
        target.write_text("x = 1\n")
        done = self.run(tmp_path)
        assert done.returncode == 0
        assert "protolint: clean" in done.stdout

    def test_findings_exit_one(self, tmp_path):
        target = tmp_path / "src" / "repro" / "protocol" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\nx = random.random()\n")
        done = self.run(tmp_path)
        assert done.returncode == 1
        assert "src/repro/protocol/bad.py:2: PL002" in done.stdout
        assert "1 finding(s)" in done.stdout


# ---------------------------------------------------------------------------
# The acceptance criterion: the real tree is clean
# ---------------------------------------------------------------------------


class TestRealTree:
    def test_repo_lints_clean(self):
        findings = lint_tree(REPO_ROOT)
        assert findings == [], "\n".join(findings)

    def test_pl005_cross_check_runs_on_real_messages(self):
        # Guard against the cross-check passing vacuously (e.g. a moved
        # class): it must see the real message classes, all registered.
        assert {BlindedReport, BlindingAdjustment, MissingClientsNotice} <= \
            message_classes(messages)
        assert registry_drift(messages, wire) == []
