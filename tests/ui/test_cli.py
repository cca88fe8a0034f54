"""Tests for the ``saql`` command-line UI."""

import pytest

from repro.queries import DEMO_QUERIES
from repro.ui.cli import main


class TestParseCommand:
    def test_parse_valid_query(self, tmp_path, capsys):
        path = tmp_path / "query.saql"
        path.write_text(DEMO_QUERIES["rule-c5-data-exfiltration"])
        assert main(["parse", str(path)]) == 0
        output = capsys.readouterr().out
        assert "osql.exe" in output

    def test_parse_invalid_query(self, tmp_path, capsys):
        path = tmp_path / "broken.saql"
        path.write_text("proc p write")
        assert main(["parse", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestQueriesCommand:
    def test_list_queries(self, capsys):
        assert main(["queries"]) == 0
        output = capsys.readouterr().out
        assert "rule-c5-data-exfiltration" in output
        assert "outlier-exfiltration" in output

    def test_show_query(self, capsys):
        assert main(["queries", "--show", "rule-c1-initial-compromise"]) == 0
        assert "outlook.exe" in capsys.readouterr().out

    def test_show_unknown_query(self, capsys):
        assert main(["queries", "--show", "nope"]) == 1


class TestDemoCommand:
    def test_demo_detects_the_attack(self, capsys, tmp_path):
        events_path = tmp_path / "demo.jsonl"
        code = main(["demo", "--background-minutes", "40",
                     "--attack-start", "600", "--seed", "3",
                     "--queries", "rule-c5-data-exfiltration",
                     "rule-c2-malware-infection",
                     "--save-events", str(events_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "ALERT" in output
        assert "rule-c5-data-exfiltration" in output
        assert events_path.exists()

    def test_demo_rejects_unknown_query(self, capsys):
        assert main(["demo", "--queries", "bogus"]) == 1

    def test_demo_sharded_with_rebalancing(self, capsys):
        """The rebalance flags reach the sharded scheduler; the demo's
        host-pinned query set yields a published steal veto, not a crash."""
        code = main(["demo", "--background-minutes", "10",
                     "--attack-start", "300", "--seed", "3",
                     "--shards", "2", "--shard-backend", "serial",
                     "--rebalance-interval", "500",
                     "--rebalance-ratio", "1.1",
                     "--queries", "rule-c5-data-exfiltration",
                     "timeseries-network-spike"])
        assert code == 0
        output = capsys.readouterr().out
        assert "work stealing disabled" in output

    def test_rebalance_flags_build_a_stealing_scheduler(self):
        import argparse

        from repro.core.engine.alerts import CallbackSink
        from repro.ui.cli import _make_scheduler, build_parser

        parser = build_parser()
        args = parser.parse_args(["demo", "--shards", "2",
                                  "--rebalance-interval", "250",
                                  "--rebalance-ratio", "1.5"])
        assert isinstance(args, argparse.Namespace)
        scheduler = _make_scheduler(args, CallbackSink(lambda alert: None))
        assert scheduler._rebalance_interval == 250
        assert scheduler._rebalance_ratio == 1.5


class TestRunCommand:
    def test_run_queries_against_saved_events(self, tmp_path, capsys):
        events_path = tmp_path / "demo.jsonl"
        main(["demo", "--background-minutes", "40", "--attack-start", "600",
              "--seed", "3", "--queries", "rule-c1-initial-compromise",
              "--save-events", str(events_path)])
        capsys.readouterr()

        query_path = tmp_path / "exfil.saql"
        query_path.write_text(DEMO_QUERIES["rule-c5-data-exfiltration"])
        assert main(["run", str(query_path), "--database",
                     str(events_path)]) == 0
        output = capsys.readouterr().out
        assert "ALERT" in output

    def test_run_rejects_broken_query_file(self, tmp_path, capsys):
        events_path = tmp_path / "demo.jsonl"
        main(["demo", "--background-minutes", "5", "--attack-start", "60",
              "--queries", "rule-c1-initial-compromise",
              "--save-events", str(events_path)])
        capsys.readouterr()
        bad = tmp_path / "bad.saql"
        bad.write_text("this is not saql")
        assert main(["run", str(bad), "--database", str(events_path)]) == 1


class TestExecutionFlagValidation:
    """The integer flags shared by ``run``/``demo``/``serve`` parse alike."""

    DEMO = ["demo", "--background-minutes", "5", "--attack-start", "60",
            "--queries", "rule-c1-initial-compromise"]
    COMMANDS = {
        "demo": DEMO,
        "run": ["run", "query.saql", "--database", "events.jsonl"],
        "serve": ["serve"],
    }

    def test_quarantine_zero_disables_quarantine_on_demo(self, capsys):
        assert main(self.DEMO + ["--quarantine-errors", "0"]) == 0
        assert "quarantined" not in capsys.readouterr().err

    def test_quarantine_zero_fails_fast_on_query_errors(self):
        from repro.testing.faults import InjectedCrash

        with pytest.raises(InjectedCrash):
            main(self.DEMO + ["--quarantine-errors", "0", "--inject-fault",
                              "query-error:query=rule-c1-initial-compromise"])

    def test_quarantine_zero_disables_quarantine_on_run(self, tmp_path,
                                                        capsys):
        events_path = tmp_path / "demo.jsonl"
        assert main(self.DEMO + ["--save-events", str(events_path)]) == 0
        query_path = tmp_path / "c1.saql"
        query_path.write_text(DEMO_QUERIES["rule-c1-initial-compromise"])
        assert main(["run", str(query_path), "--database", str(events_path),
                     "--quarantine-errors", "0"]) == 0
        assert "ALERT" in capsys.readouterr().out

    def test_quarantine_zero_disables_quarantine_on_serve(self):
        from repro.ui.cli import _build_service, build_parser

        args = build_parser().parse_args(["serve", "--quarantine-errors",
                                          "0"])
        assert _build_service(args).config.quarantine_errors is None

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("flag,value", [("--checkpoint-rebase", "0"),
                                            ("--quarantine-errors", "-1")])
    def test_out_of_range_values_are_rejected(self, command, flag, value,
                                              capsys):
        from repro.ui.cli import build_parser

        # Parsing alone must reject the value: ``serve`` would otherwise
        # start listening.
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(self.COMMANDS[command] + [flag, value])
        assert raised.value.code != 0
        assert flag in capsys.readouterr().err
