"""Smoke test of the benchmark: every workload runs at a tiny scale, every
catalogued metric comes out with its unit, the span files are well formed,
and the correctness gate turns a wrong alert set into a non-zero exit."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import cli, oracle  # noqa: E402
from perfbench.catalog import (END_TO_END, END_TO_END_UNITS,  # noqa: E402
                               PER_LAYER, PER_LAYER_UNITS, WORKLOADS)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE = ["--scale", "0.01", "--seconds", "0.25"]


def run(*arguments):
    return subprocess.run([sys.executable, "perfbench/run.py", *arguments],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=280)


def test_every_workload_reports_every_metric(tmp_path):
    report = tmp_path / "report.json"
    finished = run(*SMOKE, "--traced", "--json", str(report))
    assert finished.returncode == 0, finished.stderr[-4000:]
    last = json.loads(finished.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1

    results = json.loads(report.read_text())["results"]
    assert ({(entry["workload"], entry["traced"]) for entry in results}
            == {(name, traced) for name in WORKLOADS
                for traced in (False, True)})
    for entry in results:
        units = PER_LAYER_UNITS if entry["traced"] else END_TO_END_UNITS
        assert entry["failed"] == 0
        assert set(entry["metrics"]) == set(units)
        for name, metric in entry["metrics"].items():
            assert NAME.match(name)
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], float)
            if not entry["traced"]:
                assert metric["value"] > 0, (entry["workload"], name)

    for workload in WORKLOADS:
        trace = json.loads(
            (ROOT / "perfbench" / "out" / f"trace-{workload}.json")
            .read_text())
        spans = trace["spans"]
        assert spans
        known = {span["id"] for span in spans}
        for span in spans:
            assert span["end"] >= span["start"]
            assert span["parent"] is None or span["parent"] in known


def test_unknown_workload_is_refused():
    finished = run("--workload", "no-such-workload", *SMOKE)
    assert finished.returncode != 0
    assert "unknown workload" in finished.stderr


def test_tampered_oracle_fails_the_run(monkeypatch, capsys):
    genuine = oracle.ast_reference

    def one_alert_short(queries, events, finish=True):
        return genuine(queries, events, finish)[1:]

    monkeypatch.setattr(oracle, "ast_reference", one_alert_short)
    code = cli.main(["--workload", "window-heavy-batch", "--scale", "0.05",
                     "--seconds", "0.2"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] >= 1


def test_gate_counts_missing_extra_and_duplicate_alerts():
    alerts = [{"query_name": "q", "timestamp": 1.0, "data": [0.5, "x"],
               "group_key": None, "window_start": None, "window_end": None,
               "agentid": "h", "model_kind": "rule"},
              {"query_name": "q", "timestamp": 2.0, "data": [0.25, "y"],
               "group_key": None, "window_start": None, "window_end": None,
               "agentid": "h", "model_kind": "rule"}]
    expected = oracle.fingerprints(alerts)
    nudged = json.loads(json.dumps(alerts))
    nudged[0]["data"][0] += 1e-13
    assert oracle.mismatches(expected, oracle.fingerprints(nudged)) == 0
    assert oracle.mismatches(expected, oracle.fingerprints(alerts[:1])) == 1
    assert oracle.mismatches(
        expected, oracle.fingerprints(alerts + alerts[:1])) == 1
    wrong = json.loads(json.dumps(alerts))
    wrong[1]["data"][0] = 0.26
    assert oracle.mismatches(expected, oracle.fingerprints(wrong)) == 2


def test_benchmark_json_states_the_catalogue():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["perfbench"]
    assert declared["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= declared["run_seconds"] <= 60
    assert ([(entry["name"], entry["why"]) for entry in declared["workloads"]]
            == list(WORKLOADS.items()))
    assert ([(entry["name"], entry["unit"], entry["better"], entry["bound"])
             for entry in declared["end_to_end"]] == END_TO_END)
    assert ([(entry["name"], entry["unit"], entry["better"])
             for entry in declared["per_layer"]] == PER_LAYER)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(entry["unit"]) for key in ("end_to_end", "per_layer")
               for entry in declared[key])
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"]
               for entry in declared["workloads"])
    assert all(0 < entry["bound"] <= 0.25 for entry in declared["end_to_end"])
    assert any(entry == {"name": "setup_s", "unit": "s", "better": "lower",
                         "bound": entry["bound"]}
               for entry in declared["end_to_end"])
