"""Tests for the command-line interface."""

import socket

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_threshold_rule_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "--threshold-rule", "max"])


class TestSimulate:
    def test_prints_workload(self, capsys):
        code, out = run_cli(capsys, "simulate", "--users", "30",
                            "--websites", "60", "--visits", "30",
                            "--seed", "3")
        assert code == 0
        assert "impressions:" in out
        assert "distinct ads:" in out

    def test_deterministic(self, capsys):
        _, out1 = run_cli(capsys, "simulate", "--users", "30",
                          "--websites", "60", "--seed", "4")
        _, out2 = run_cli(capsys, "simulate", "--users", "30",
                          "--websites", "60", "--seed", "4")
        assert out1 == out2


class TestDetect:
    def test_cleartext_run(self, capsys):
        code, out = run_cli(capsys, "detect", "--users", "40",
                            "--websites", "80", "--visits", "40",
                            "--frequency-cap", "8", "--seed", "7")
        assert code == 0
        assert "cleartext oracle" in out
        assert "FN=" in out
        assert "precision=" in out

    def test_private_run(self, capsys):
        code, out = run_cli(capsys, "detect", "--users", "20",
                            "--websites", "50", "--visits", "30",
                            "--private", "--seed", "7")
        assert code == 0
        assert "private (blinded CMS)" in out

    def test_threshold_rule_selection(self, capsys):
        code, out = run_cli(capsys, "detect", "--users", "30",
                            "--websites", "60", "--visits", "30",
                            "--threshold-rule", "mean+median", "--seed", "2")
        assert code == 0
        assert "mean+median" in out

    def test_private_round_over_socket(self, capsys):
        code, out = run_cli(capsys, "detect", "--users", "16",
                            "--websites", "40", "--visits", "20",
                            "--private", "--seed", "7",
                            "--transport", "socket", "--cliques", "2")
        assert code == 0
        assert "bytes on the wire" in out
        assert "private (blinded CMS)" in out

    def test_transport_requires_private(self, capsys):
        code = main(["detect", "--users", "16", "--transport", "socket"])
        assert code == 2

    def test_chaos_seed_without_chaos_is_refused(self, capsys):
        code = main(["detect", "--users", "16", "--private",
                     "--transport", "socket", "--chaos-seed", "9"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--chaos wan|lossy|hostile" in err

    @pytest.mark.parametrize("flags,message", [
        (["--fan-in", "4"], "--clients and --fan-in configure"),
        (["--clients", "batched"], "--clients and --fan-in configure"),
        (["--private", "--chaos", "wan"], "--private --transport socket"),
    ], ids=["fan-in-without-private", "clients-without-private",
            "chaos-without-socket"])
    def test_session_flags_need_the_session_they_configure(
            self, capsys, flags, message):
        code = main(["detect", "--users", "16", *flags])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_wiring_refusals_speak_in_the_validators_words(self, capsys):
        """One validator per value: the CLI forwards the flag and prints
        SessionConfig's refusal as is."""
        code = main(["detect", "--users", "16", "--private",
                     "--fan-in", "1"])
        assert code == 2
        assert "fan_in must be >= 2" in capsys.readouterr().err

    def test_transport_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "--transport", "quic"])

    def test_chaos_run_replays_and_closes_the_transport_it_built(
            self, capsys, monkeypatch):
        """``--chaos`` hands the session a ChaosSocketTransport the CLI
        built; a session does not close a passed instance, so the CLI
        must. Same flags, same output, non-zero faults."""
        import repro.protocol.net as net

        built = []

        class Recorded(net.ChaosSocketTransport):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(net, "ChaosSocketTransport", Recorded)
        argv = ["detect", "--users", "16", "--private", "--transport",
                "socket", "--chaos", "lossy"]
        outs = []
        for _ in range(2):
            code, out = run_cli(capsys, *argv)
            assert code == 0
            outs.append(out.splitlines())
        assert outs[0] == outs[1]
        chaos_line = next(line for line in outs[0]
                          if line.startswith("chaos profile 'lossy'"))
        assert "retransmits=" in chaos_line
        assert "injected delay 0.000s" not in chaos_line
        assert len(built) == 2
        assert all(transport._closed for transport in built)


class TestBias:
    def test_prints_table2(self, capsys):
        code, out = run_cli(capsys, "bias", "--users", "150",
                            "--ads-per-user", "30", "--seed", "11")
        assert code == 0
        assert "gender[female]" in out
        assert "income[90k-...]" in out
        assert "effects" in out


class TestCompareAndOverhead:
    def test_compare(self, capsys):
        code, out = run_cli(capsys, "compare")
        assert code == 0
        assert "eyeWnder" in out
        assert "Count-based" in out

    def test_overhead(self, capsys):
        code, out = run_cli(capsys, "overhead")
        assert code == 0
        assert "184.9 KB" in out
        assert "OPRF" in out


class TestServe:
    """Argument validation for the service plane (the serving path
    itself is covered end to end in test_service_e2e.py)."""

    def test_memory_transport_is_not_a_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--transport", "memory"])

    def test_nonpositive_sketch_dims_refused(self, capsys):
        code = main(["serve", "--cms-depth", "0"])
        assert code == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.fixture()
    def no_block(self, monkeypatch):
        """A service that does come up returns at once instead of
        serving until shutdown."""
        monkeypatch.setattr("repro.service.ReproService.wait_for_shutdown",
                            lambda self, timeout=None: True)

    def test_busy_port_is_one_line_and_exit_2(self, capsys, no_block):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            code = main(["serve", "--port", str(port)])
        assert code == 2
        err = capsys.readouterr().err
        assert "failed to bind" in err
        assert err.count("\n") == 1

    def test_a_service_that_comes_up_prints_its_token_and_address(
            self, capsys, no_block):
        code = main(["serve", "--port", "0", "--operator-token", "op-tok"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("operator token: ")
        assert lines[0].endswith(".op-tok")
        assert lines[1].startswith("serving on http://127.0.0.1:")
        assert not lines[1].endswith(":0")
        assert lines[2] == "shutdown requested; stopping"

    def test_unsendable_operator_token_is_one_line_and_exit_2(self, capsys,
                                                             no_block):
        code = main(["serve", "--operator-token", "bad token"])
        assert code == 2
        err = capsys.readouterr().err
        assert "printable ASCII" in err
        assert err.count("\n") == 1


class TestHistory:
    """``history`` answers from a store ``detect --store`` recorded."""

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("history") / "history.db")
        code = main(["detect", "--users", "16", "--websites", "40",
                     "--visits", "20", "--private", "--seed", "7",
                     "--store", path])
        assert code == 0
        return path

    def history(self, capsys, path, *flags):
        capsys.readouterr()
        code = main(["history", "--store", path, *flags])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_overview_names_the_session_and_its_week(self, capsys,
                                                     recorded):
        code, out, _ = self.history(capsys, recorded)
        assert code == 0
        assert f"history store {recorded} (schema v" in out
        assert "session 'pipeline':" in out
        assert "1 epoch(s), 1 round(s)" in out
        assert "weeks recorded: [0]" in out

    def test_rounds_lists_the_persisted_round_and_filters_by_epoch(
            self, capsys, recorded):
        code, out, _ = self.history(capsys, recorded, "--rounds")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1 persisted round(s)"
        assert "reporting=16 missing=0" in lines[1]
        code, out, _ = self.history(capsys, recorded, "--rounds",
                                    "--epoch", "1")
        assert code == 0
        assert out.splitlines() == ["0 persisted round(s)"]

    def test_flagged_agrees_with_the_overview_and_honours_since_week(
            self, capsys, recorded):
        _, overview, _ = self.history(capsys, recorded)
        code, out, _ = self.history(capsys, recorded, "--flagged")
        assert code == 0
        count = int(out.split()[0])
        assert count > 0
        assert f"({count} flagged campaign-week(s))" in overview
        assert len(out.splitlines()) == 1 + count
        code, out, _ = self.history(capsys, recorded, "--flagged",
                                    "--since-week", "1")
        assert code == 0
        assert out.splitlines() == ["0 flagged campaign-week(s) since week 1"]

    def test_trend_of_a_flagged_campaign_marks_its_week(self, capsys,
                                                        recorded):
        _, flagged, _ = self.history(capsys, recorded, "--flagged")
        ad = flagged.splitlines()[1].split()[2]
        code, out, _ = self.history(capsys, recorded, "--trend", ad)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"trend for {ad}:"
        assert lines[1].startswith("  week 0: ")
        assert lines[1].endswith(" FLAGGED")

    def test_trend_of_an_unrecorded_ad_exits_1(self, capsys, recorded):
        code, out, err = self.history(capsys, recorded, "--trend",
                                      "http://never.example/ad")
        assert code == 1
        assert out == ""
        assert "no recorded verdicts" in err

    def test_a_missing_store_is_refused_without_creating_it(
            self, capsys, tmp_path):
        path = tmp_path / "absent.db"
        code, _, err = self.history(capsys, str(path))
        assert code == 2
        assert "no history store" in err
        assert not path.exists()
