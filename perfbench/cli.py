"""Command line of the benchmark: run workloads, print every metric by
name with its unit, check correctness, and optionally repeat (A/A mode).

Two callers share it.  The driver runs one workload per invocation::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

and a person runs everything at once::

    PYTHONPATH=src python -m perfbench --seed 7 [--workload NAME] [--traced]
        [--json PATH] [--repeat N --check-repeat] [--scale X]

The last line of standard output is always one JSON object with exactly
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.catalog import (END_TO_END, END_TO_END_UNITS, PER_LAYER_UNITS,
                               WORKLOADS)
from perfbench.closed_loop import CLOSED_LOOP, Outcome
from perfbench.trace import Tracer
from perfbench.wire import WireOpenLoop

OUT_DIR = Path(__file__).resolve().parent / "out"
RUNNERS = {**CLOSED_LOOP, WireOpenLoop.name: WireOpenLoop()}
DEFAULT_SECONDS = 14.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench", description="The SAQL pipeline benchmark.")
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics) only")
    parser.add_argument("--traced", action="store_true",
                        help="after the untraced run, repeat each workload "
                             "traced and print the per-layer metrics too")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink event counts (smoke use only; "
                             "published numbers are at scale 1)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write every result to this file")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set this many times")
    parser.add_argument("--check-repeat", action="store_true",
                        help="fail when an end-to-end metric's spread over "
                             "the repeats exceeds its bound")
    return parser


def run_workload(name: str, seed: int, seconds: float, scale: float,
                 traced: bool) -> Dict[str, Any]:
    """One run of one workload in this process; prints its metrics,
    writes its span file when traced, returns its result entry."""
    workdir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if traced else None
    try:
        outcome = RUNNERS[name].run(seed, seconds, scale, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{name}.json")
    return {"workload": name, "traced": traced,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": report(outcome, traced), "notes": outcome.notes}


def run_isolated(name: str, args: argparse.Namespace,
                 traced: bool) -> Dict[str, Any]:
    """The same run in a process of its own, as the driver runs it: peak
    memory, frozen inputs and child-process accounting of one workload do
    not leak into the next.  Relays the child's report."""
    result = OUT_DIR / f"result-{os.getpid()}.json"
    OUT_DIR.mkdir(exist_ok=True)
    child = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", name, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--scale", str(args.scale),
         "--trace", str(int(traced)), "--json", str(result)],
        stdout=subprocess.PIPE, text=True)
    try:
        if not result.exists():
            raise RuntimeError(f"{name} ended with code {child.returncode} "
                               "and no result")
        print("\n".join(child.stdout.splitlines()[:-1]))
        return json.loads(result.read_text(encoding="utf-8"))["results"][0]
    finally:
        result.unlink(missing_ok=True)


def report(outcome: Outcome, traced: bool) -> Dict[str, Dict[str, Any]]:
    """Print one outcome's metrics; returns them in the contract's shape."""
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    values = outcome.per_layer if traced else outcome.end_to_end
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    mode = "traced" if traced else "untraced"
    print(f"== {outcome.workload} ({mode}) ==")
    for name, entry in metrics.items():
        print(f"{outcome.workload:20s} {name:38s} "
              f"{entry['value']:16.6f} {entry['unit']}")
    share = (outcome.failed / outcome.attempted) if outcome.attempted else 1.0
    print(f"{outcome.workload:20s} {'failed_share':38s} {share:16.6f} ratio "
          f"({outcome.failed} of {outcome.attempted})")
    for key, value in outcome.notes.items():
        print(f"{outcome.workload:20s}   note {key} = {json.dumps(value)}")
    return metrics


def spreads(samples: List[float]) -> Tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance as a
    share of the median) of one metric's repeats."""
    middle = statistics.median(samples)
    if len(samples) < 2:
        return middle, middle, middle, 0.0
    first, _, third = statistics.quantiles(samples, n=4)
    return middle, first, third, (third - first) / middle if middle else 0.0


def check_repeats(history: Dict[str, Dict[str, List[float]]]) -> int:
    """Print median and quartiles per metric per workload over the
    repeats; returns how many end-to-end metrics spread past their bound."""
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    over = 0
    print("== repeats ==")
    for workload, metrics in history.items():
        for name, samples in metrics.items():
            middle, first, third, spread = spreads(samples)
            # setup_s is judged on its median drifting, not on its spread.
            judged = name in bounds and name != "setup_s"
            verdict = ""
            if judged:
                verdict = "ok" if spread <= bounds[name] else "OVER BOUND"
                over += verdict != "ok"
            print(f"{workload:20s} {name:38s} median {middle:14.6f} "
                  f"q1 {first:14.6f} q3 {third:14.6f} "
                  f"spread {spread:8.4f} {verdict}")
    return over


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    modes = [True] if args.trace else [False] + ([True] * args.traced)
    runs = [(repeat, name, traced) for repeat in range(args.repeat)
            for name in names for traced in modes]
    attempted = failed = 0
    results: List[Dict[str, Any]] = []
    history: Dict[str, Dict[str, List[float]]] = {}
    last: Dict[str, Any] = {}
    for repeat, name, traced in runs:
        entry = (run_workload(name, args.seed, args.seconds, args.scale,
                              traced)
                 if len(runs) == 1 else run_isolated(name, args, traced))
        attempted += entry["attempted"]
        failed += entry["failed"]
        metrics = entry["metrics"]
        last = metrics if len(names) == 1 else {**last, name: metrics}
        results.append({**entry, "repeat": repeat})
        for metric, value in metrics.items():
            history.setdefault(name, {}).setdefault(
                metric, []).append(value["value"])
    over = check_repeats(history) if args.repeat > 1 else 0
    if args.json:
        Path(args.json).write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "results": results}, indent=2) + "\n", encoding="utf-8")
    if failed:
        print(f"error: {failed} of {attempted} operations failed the "
              "correctness gate", file=sys.stderr)
    if over and args.check_repeat:
        print(f"error: {over} end-to-end metrics spread past their bound",
              file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": last}))
    return 1 if failed or (over and args.check_repeat) else 0
