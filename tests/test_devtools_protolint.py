"""Self-tests for the protolint protocol-invariant linter.

Per rule: one minimal snippet that must flag, one near-miss that must
pass, and an escape-hatch round-trip. Plus: the framework contracts
(registry, suppression-reason linting, CLI exit codes) and the
acceptance criterion that the real tree lints clean.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.devtools.protolint import (
    REGISTRY,
    Rule,
    active_rules,
    lint_paths,
    lint_source,
    register,
)
from repro.devtools.protolint.__main__ import main

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A path inside the protocol package (in scope for PL001, PL002, PL004).
PROTO = "src/repro/protocol/net/fake.py"


def ids(findings):
    return sorted(f.rule_id for f in findings)


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
        findings = lint_source(self.flagged, PROTO)
        assert ids(findings) == ["PL001", "PL001"]
        assert "create_connection" in findings[0].message
        assert "_ship" in findings[1].message

    def test_flags_annotated_socket_methods(self):
        source = (
            "import socket\n"
            "def pump(sock: socket.socket):\n"
            "    return sock.recv(4)\n"
        )
        assert ids(lint_source(source, PROTO)) == ["PL001"]

    def test_near_miss_transport_send_passes(self):
        # .send() on a non-socket (the Transport API) must not flag.
        source = (
            "import socket\n"  # typing-only import is fine
            "def route(transport, message):\n"
            "    transport.send('server', message)\n"
            "def annotate(sock: socket.socket) -> str:\n"
            "    return repr(sock)\n"
        )
        assert lint_source(source, PROTO) == []

    def test_allowed_files_and_out_of_scope_paths_pass(self):
        allowed = "src/repro/protocol/net/transport.py"
        assert lint_source(self.flagged, allowed) == []
        assert lint_source(self.flagged, "tests/test_sockets.py") == []

    def test_service_package_is_in_scope(self):
        """The HTTP service plane gets no raw sockets either: its only
        byte paths are socketserver's request streams and http.client,
        and protocol bytes move through the transport seam underneath."""
        source = (
            "import socket\n"
            "def leak():\n"
            "    return socket.socket()\n"
        )
        findings = lint_source(source, "src/repro/service/fake.py")
        assert ids(findings) == ["PL001"]

    def test_no_service_file_is_allowlisted(self):
        """Unlike protocol/net/, nothing under service/ may hold a raw
        socket — not even the HTTP server module itself."""
        for path in ("src/repro/service/http.py",
                     "src/repro/service/client.py",
                     "src/repro/service/state.py"):
            assert ids(lint_source(self.flagged, path)) == \
                ["PL001", "PL001"], path

    def test_escape_hatch_roundtrip(self):
        source = (
            "import socket\n"
            "def pump(sock: socket.socket):\n"
            "    return sock.recv(4)  # protolint: disable=PL001 (fixture)\n"
        )
        assert lint_source(source, PROTO) == []


# ---------------------------------------------------------------------------
# PL002 — no unseeded randomness
# ---------------------------------------------------------------------------


class TestPL002:
    def test_flags_module_level_random(self):
        source = "import random\nx = random.random()\n"
        assert ids(lint_source(source, "src/repro/crypto/fake.py")) == ["PL002"]

    def test_flags_bare_random_instance(self):
        source = "import random\nrng = random.Random()\n"
        assert ids(lint_source(source, PROTO)) == ["PL002"]

    def test_flags_numpy_global_state_and_bare_default_rng(self):
        source = (
            "import numpy as np\n"
            "a = np.random.rand(3)\n"
            "rng = np.random.default_rng()\n"
        )
        assert ids(lint_source(source, "src/repro/sketch/fake.py")) == [
            "PL002",
            "PL002",
        ]

    def test_flags_urandom_outside_crypto(self):
        source = "import os\nkey = os.urandom(16)\n"
        assert ids(lint_source(source, PROTO)) == ["PL002"]

    def test_near_miss_seeded_generators_pass(self):
        source = (
            "import os\n"
            "import random\n"
            "import numpy as np\n"
            "rng = random.Random(42)\n"
            "gen = np.random.default_rng(7)\n"
            "key = os.urandom(16)\n"  # crypto/ may use OS entropy
        )
        assert lint_source(source, "src/repro/crypto/fake.py") == []

    def test_out_of_scope_path_passes(self):
        source = "import random\nx = random.random()\n"
        assert lint_source(source, "src/repro/simulation/fake.py") == []

    def test_escape_hatch_roundtrip(self):
        source = (
            "import random\n"
            "x = random.random()  # protolint: disable=PL002 (fixture)\n"
        )
        assert lint_source(source, PROTO) == []

    def test_import_tables_are_built_once_per_file(self, monkeypatch):
        # Each table build walks the whole module, so building them per
        # call made the rule quadratic in the module's size.
        from repro.devtools.protolint import rules

        builds = []
        for name in ("_module_aliases", "_from_imports"):
            real = getattr(rules, name)
            monkeypatch.setattr(
                rules,
                name,
                lambda tree, module, real=real: builds.append(module)
                or real(tree, module),
            )
        (pl002,) = [r for r in active_rules() if r.rule_id == "PL002"]
        source = "import numpy as np\n" + "x = np.zeros(1).sum()\n" * 50
        assert lint_source(source, "src/repro/sketch/fake.py", rules=[pl002]) == []
        assert sorted(builds) == ["numpy", "numpy", "os", "os", "random", "random"]


# ---------------------------------------------------------------------------
# PL004 — no silent exception swallowing
# ---------------------------------------------------------------------------


class TestPL004:
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
        assert ids(lint_source(source, PROTO)) == ["PL004", "PL004"]

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
        assert lint_source(source, PROTO) == []

    def test_escape_hatch_roundtrip(self):
        source = (
            "def run(op):\n"
            "    try:\n"
            "        op()\n"
            "    except Exception:  # protolint: disable=PL004 (fixture)\n"
            "        pass\n"
        )
        assert lint_source(source, PROTO) == []


# ---------------------------------------------------------------------------
# PL005 — wire-schema drift
# ---------------------------------------------------------------------------

MESSAGES_OK = (
    "class Ping:\n"
    "    def size_bytes(self):\n"
    "        return 16\n"
)
WIRE_OK = (
    "_TYPE_OF = {Ping: 1}\n"
    "Message = Ping\n"
    "def encode(message):\n"
    "    if isinstance(message, Ping):\n"
    "        return b'1'\n"
    "def decode(data):\n"
    "    return Ping()\n"
)
SPEC_OK = (
    "def summary_to_spec(summary):\n"
    "    return {'round_id': summary.round_id}\n"
    "def summary_from_spec(spec):\n"
    "    return spec['round_id']\n"
)


def write_tree(tmp_path, messages, wire, spec):
    proto = tmp_path / "src" / "repro" / "protocol"
    (proto / "net").mkdir(parents=True)
    (proto / "messages.py").write_text(messages)
    (proto / "wire.py").write_text(wire)
    (proto / "net" / "spec.py").write_text(spec)
    return proto / "messages.py"


class TestPL005:
    def test_near_miss_consistent_tree_passes(self, tmp_path):
        target = write_tree(tmp_path, MESSAGES_OK, WIRE_OK, SPEC_OK)
        findings, errors = lint_paths([str(target)], root=tmp_path)
        assert errors == []
        assert findings == []

    def test_flags_unregistered_message_class(self, tmp_path):
        messages = MESSAGES_OK + (
            "class Pong:\n"
            "    def size_bytes(self):\n"
            "        return 16\n"
        )
        target = write_tree(tmp_path, messages, WIRE_OK, SPEC_OK)
        findings, _ = lint_paths([str(target)], root=tmp_path)
        assert ids(findings) == ["PL005"] * 4  # tag, encode, decode, union
        assert all("Pong" in f.message for f in findings)

    def test_flags_stale_registry_entry_and_duplicate_tag(self, tmp_path):
        wire = WIRE_OK.replace(
            "_TYPE_OF = {Ping: 1}", "_TYPE_OF = {Ping: 1, Gone: 1}"
        )
        target = write_tree(tmp_path, MESSAGES_OK, wire, SPEC_OK)
        findings, _ = lint_paths([str(target)], root=tmp_path)
        messages = [f.message for f in findings]
        assert any("Gone" in m and "not a message class" in m for m in messages)
        assert any("assigned to both" in m for m in messages)

    def test_flags_summary_spec_key_drift(self, tmp_path):
        spec = (
            "def summary_to_spec(summary):\n"
            "    return {'round_id': 1, 'written_only': 2}\n"
            "def summary_from_spec(spec):\n"
            "    return spec['round_id'], spec['read_only']\n"
        )
        target = write_tree(tmp_path, MESSAGES_OK, WIRE_OK, spec)
        findings, _ = lint_paths([str(target)], root=tmp_path)
        messages = [f.message for f in findings]
        assert any("'read_only'" in m and "never writes" in m for m in messages)
        assert any(
            "'written_only'" in m and "never reads" in m for m in messages
        )

    def test_missing_wire_module_is_a_finding(self, tmp_path):
        proto = tmp_path / "src" / "repro" / "protocol"
        proto.mkdir(parents=True)
        target = proto / "messages.py"
        target.write_text(MESSAGES_OK)
        findings, _ = lint_paths([str(target)], root=tmp_path)
        assert ids(findings) == ["PL005"]
        assert "cannot cross-check" in findings[0].message


# ---------------------------------------------------------------------------
# PL000 — the escape hatches are themselves linted
# ---------------------------------------------------------------------------


class TestSuppressionLinting:
    def test_disable_without_reason_flags_and_does_not_suppress(self):
        source = (
            "import random\n"
            "x = random.random()  # protolint: disable=PL002\n"
        )
        assert ids(lint_source(source, PROTO)) == ["PL000", "PL002"]

    def test_disable_with_empty_reason_flags(self):
        source = (
            "import random\n"
            "x = random.random()  # protolint: disable=PL002 (  )\n"
        )
        assert ids(lint_source(source, PROTO)) == ["PL000", "PL002"]

    def test_disable_unknown_rule_flags(self):
        source = "x = 1  # protolint: disable=PL999 (made up)\n"
        findings = lint_source(source, "tests/anywhere.py")
        assert ids(findings) == ["PL000"]
        assert "unknown rule" in findings[0].message

    def test_disable_wrong_rule_does_not_suppress(self):
        source = (
            "import random\n"
            "x = random.random()  # protolint: disable=PL004 (wrong id)\n"
        )
        assert ids(lint_source(source, PROTO)) == ["PL002"]

    def test_multi_rule_disable(self):
        source = (
            "import random\n"
            "import socket\n"
            "def pump(sock: socket.socket):\n"
            "    return sock.recv(random.randint(1, 4))"
            "  # protolint: disable=PL001, PL002 (fixture)\n"
        )
        assert lint_source(source, PROTO) == []


# ---------------------------------------------------------------------------
# Framework contracts
# ---------------------------------------------------------------------------


class TestFramework:
    def test_catalogue_is_complete(self):
        assert sorted(REGISTRY) == ["PL001", "PL002", "PL004", "PL005"]
        for rule_cls in REGISTRY.values():
            assert rule_cls.title and rule_cls.hint

    def test_register_rejects_duplicate_ids(self):
        class Clone(Rule):
            rule_id = "PL001"

        with pytest.raises(ValueError, match="duplicate"):
            register(Clone)

    def test_custom_rule_is_a_small_extension(self):
        # The advertised contract: a new rule is scope + check, nothing
        # else — the framework does discovery, suppression, reporting.
        class NoPrintRule(Rule):
            rule_id = "PL900"
            title = "no print in protocol code"
            hint = "use logging"

            def scope(self, path):
                return path.startswith("src/repro/protocol/")

            def check(self, ctx):
                for node in ast.walk(ctx.tree):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "print"
                    ):
                        yield self.finding(ctx, node, "print() call")

        findings = lint_source("print('hi')\n", PROTO, rules=[NoPrintRule()])
        assert ids(findings) == ["PL900"]

    def test_findings_are_machine_readable(self):
        source = "import random\nx = random.random()\n"
        (finding,) = lint_source(source, PROTO)
        record = finding.as_dict()
        assert record["rule"] == "PL002"
        assert record["path"] == PROTO
        assert record["line"] == 2
        assert record["hint"]


# ---------------------------------------------------------------------------
# CLI: exit codes and formats
# ---------------------------------------------------------------------------


class TestCLI:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main([str(target)]) == 0
        assert "protolint: clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("# protolint: disable=PL001\n")
        assert main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "PL000" in out and "1 finding(s)" in out

    def test_unparseable_file_exits_two(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def oops(:\n")
        assert main([str(target)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_paths_exits_two(self, capsys):
        assert main([]) == 2

    def test_unknown_select_exits_two(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main([str(target), "--select", "PL777"]) == 2

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("# protolint: disable=PL002\n")
        assert main([str(target), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["errors"] == []
        assert report["findings"][0]["rule"] == "PL000"

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in sorted(REGISTRY):
            assert rule_id in out


# ---------------------------------------------------------------------------
# The acceptance criterion: the real tree is clean
# ---------------------------------------------------------------------------


class TestRealTree:
    def test_repo_lints_clean(self):
        findings, errors = lint_paths(
            [
                str(REPO_ROOT / "src"),
                str(REPO_ROOT / "tests"),
            ],
            root=REPO_ROOT,
        )
        assert errors == []
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_pl005_cross_check_runs_on_real_messages(self):
        # Guard against the cross-check silently skipping (e.g. a moved
        # file): the rule must consider the real messages.py in scope.
        (rule,) = [r for r in active_rules() if r.rule_id == "PL005"]
        assert rule.scope("src/repro/protocol/messages.py")
