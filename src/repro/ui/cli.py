"""The ``saql`` command-line UI.

Sub-commands:

* ``saql parse QUERY_FILE`` — parse a SAQL query and echo its normalized
  form (useful while authoring queries);
* ``saql demo`` — run the full demonstration: simulate the enterprise,
  inject the 5-step APT attack, deploy the 8 demo queries over the stream
  and print the alerts in detection order;
* ``saql run --database EVENTS.jsonl QUERY_FILE...`` — run one or more
  query files against a stored event database (written by
  ``EventDatabase.save`` or the quickstart example);
* ``saql serve --state-dir DIR`` — run the always-on service: a
  JSON-lines TCP endpoint accepting event ingestion and runtime query
  registration, with backpressure, retrying exactly-once alert sinks
  and graceful SIGTERM drain/``--resume`` restart.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import List, Optional

from repro.attack import APTScenario
from repro.collection import Enterprise, EnterpriseConfig
from repro.core import ConcurrentQueryScheduler, SAQLError, parse_query
from repro.core.engine.alerts import Alert, CallbackSink
from repro.core.language import format_query
from repro.core.parallel import (DEFAULT_REBALANCE_RATIO,
                                 ShardedScheduler, SupervisionPolicy)
from repro.core.snapshot import resume_events
from repro.events.stream import iter_batches
from repro.core.retry import BackoffPolicy, RetryPolicy
from repro.obs import MetricRegistry, render_json
from repro.queries import DEMO_QUERIES, demo_query_names
from repro.service import (FileSink, SAQLService, ServiceConfig,
                           ServiceTransport, TenantQuota, WebhookSink)
from repro.storage import (CheckpointStore, EventDatabase, ReplaySpec,
                           StreamReplayer)
from repro.testing import FaultPlan, parse_fault_spec

#: Default events per ingestion batch for the demo/run commands.
DEFAULT_CLI_BATCH = 256


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``saql`` CLI."""
    parser = argparse.ArgumentParser(
        prog="saql",
        description="SAQL: query streaming system monitoring data for "
                    "abnormal behavior.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    parse_cmd = subparsers.add_parser(
        "parse", help="parse a SAQL query file and echo its normalized form")
    parse_cmd.add_argument("query_file", help="path to a .saql query file")

    demo_cmd = subparsers.add_parser(
        "demo", help="run the APT-attack demonstration end to end")
    demo_cmd.add_argument("--background-minutes", type=float, default=60.0,
                          help="minutes of benign background to simulate")
    demo_cmd.add_argument("--attack-start", type=float, default=1800.0,
                          help="attack start time (seconds into the stream)")
    demo_cmd.add_argument("--seed", type=int, default=7,
                          help="enterprise simulation seed")
    demo_cmd.add_argument("--queries", nargs="*", default=None,
                          help="subset of demo query names to deploy")
    demo_cmd.add_argument("--save-events", default=None,
                          help="also save the generated stream: a .jsonl "
                               "path writes the plain JSON-lines file, a "
                               "suffix-less path writes an indexed segment "
                               "store directory")
    _add_execution_options(demo_cmd)

    run_cmd = subparsers.add_parser(
        "run", help="run query files against a stored event database")
    run_cmd.add_argument("query_files", nargs="+",
                         help="paths to .saql query files")
    run_cmd.add_argument("--database", required=True,
                         help="stored events to query: a JSON-lines file "
                              "or a segment-store directory (written by "
                              "demo --save-events)")
    run_cmd.add_argument("--hosts", nargs="*", default=None,
                         help="restrict the replay to these hosts")
    run_cmd.add_argument("--start", type=float, default=None,
                         help="replay start timestamp")
    run_cmd.add_argument("--end", type=float, default=None,
                         help="replay end timestamp")
    run_cmd.add_argument("--resume", action="store_true",
                         help="restore from the latest checkpoint in "
                              "--checkpoint-dir and replay the journal "
                              "from the checkpoint cursor (exactly-once: "
                              "already-emitted alerts are not re-derived)")
    _add_execution_options(run_cmd)

    list_cmd = subparsers.add_parser(
        "queries", help="list the built-in demo queries")
    list_cmd.add_argument("--show", default=None,
                          help="print the SAQL text of one demo query")

    serve_cmd = subparsers.add_parser(
        "serve", help="run the always-on SAQL service (JSON-lines TCP "
                      "ingestion + runtime query control plane)")
    serve_cmd.add_argument("--state-dir", default=None,
                           help="directory for checkpoints, the delivery "
                                "ledger, dead letters and the query "
                                "manifest; required for --resume")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address")
    serve_cmd.add_argument("--port", type=int, default=7699,
                           help="bind port (0 = ephemeral; the bound "
                                "port is printed on startup)")
    serve_cmd.add_argument("--resume", action="store_true",
                           help="restore the previous run from --state-dir "
                                "(manifest + latest checkpoint + delivery "
                                "ledger) before serving")
    serve_cmd.add_argument("--query", action="append", default=None,
                           metavar="TENANT/NAME=FILE", dest="queries",
                           help="register a query at startup (repeatable): "
                                "tenant/name=path/to/query.saql")
    serve_cmd.add_argument("--sink-file", action="append", default=None,
                           metavar="PATH",
                           help="deliver alerts to this JSON-lines file "
                                "(repeatable)")
    serve_cmd.add_argument("--sink-webhook", action="append", default=None,
                           metavar="URL",
                           help="POST alerts to this HTTP endpoint "
                                "(repeatable)")
    serve_cmd.add_argument("--queue-capacity", type=int, default=4096,
                           help="bounded ingestion queue capacity")
    serve_cmd.add_argument("--queue-policy", default="block",
                           choices=["block", "shed"],
                           help="admission policy when the queue is full: "
                                "block the producer or shed the event")
    serve_cmd.add_argument("--block-timeout", type=float, default=None,
                           help="cap on producer blocking (seconds) under "
                                "--queue-policy block; past it the event "
                                "sheds (counted)")
    serve_cmd.add_argument("--batch-size", type=int, default=DEFAULT_CLI_BATCH,
                           help="events per scheduler batch")
    serve_cmd.add_argument("--checkpoint-interval", type=int, default=10000,
                           help="events between checkpoints (with "
                                "--state-dir)")
    serve_cmd.add_argument("--checkpoint-mode", default="full",
                           choices=["full", "diff"],
                           help="checkpoint record format: 'full' dumps "
                                "all state every time, 'diff' writes "
                                "deltas against a periodic full base so "
                                "checkpoint bytes track state churn")
    serve_cmd.add_argument("--checkpoint-rebase", type=_at_least(1),
                           default=8, metavar="N",
                           help="deltas between full-base rebases (with "
                                "--checkpoint-mode diff)")
    serve_cmd.add_argument("--quarantine-errors", type=_at_least(0),
                           default=3, metavar="N",
                           help="per-query fatal-error budget before "
                                "quarantine (0 disables quarantine: the "
                                "first query error fails the service)")
    serve_cmd.add_argument("--retry-attempts", type=int, default=5,
                           help="delivery attempts per alert per sink "
                                "before dead-lettering")
    serve_cmd.add_argument("--retry-timeout", type=float, default=5.0,
                           help="per-attempt sink timeout (seconds; "
                                "webhook sinks)")
    serve_cmd.add_argument("--max-queries-per-tenant", type=int, default=16,
                           help="default tenant quota")
    serve_cmd.add_argument("--no-metrics", action="store_true",
                           help="disable metrics collection (the "
                                "'metrics' op reports an error)")
    serve_cmd.add_argument("--metrics-json", default=None, metavar="PATH",
                           help="write the final metrics snapshot to "
                                "PATH as JSON after the drain completes")
    serve_cmd.add_argument("--journal-events", action="store_true",
                           help="journal ingested events into a segment "
                                "store under STATE_DIR/events and expose "
                                "its stats in the 'stats' op")
    serve_cmd.add_argument("--finish-on-drain", action="store_true",
                           help="treat a drain as end-of-stream: flush "
                                "open windows before stopping (default "
                                "keeps them checkpointed for --resume)")
    return parser


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return parse


def _add_execution_options(command: argparse.ArgumentParser) -> None:
    """Add the batch-ingestion / sharded-execution options shared by
    ``demo`` and ``run``."""
    command.add_argument("--batch-size", type=int, default=DEFAULT_CLI_BATCH,
                         help="events per ingestion batch (amortizes "
                              "dispatch overhead)")
    command.add_argument("--shards", type=int, default=1,
                         help="partition the stream by agentid across this "
                              "many workers (1 = single-process)")
    command.add_argument("--shard-backend", default="process",
                         choices=["serial", "thread", "process"],
                         help="execution backend when --shards > 1")
    command.add_argument("--shard-map", default="hash",
                         choices=["hash", "auto"],
                         help="agentid -> shard assignment: 'hash' spreads "
                              "hosts by stable crc32, 'auto' observes a "
                              "stream prefix and bin-packs hosts onto "
                              "shards by event count")
    command.add_argument("--rebalance-interval", type=int, default=0,
                         help="events between work-stealing load-report "
                              "epochs; 0 disables mid-stream rebalancing "
                              "(requires --shards > 1)")
    command.add_argument("--rebalance-ratio", type=float,
                         default=DEFAULT_REBALANCE_RATIO,
                         help="steal once the hottest shard's epoch load "
                              "exceeds this multiple of the mean shard "
                              "load (>= 1.0)")
    command.add_argument("--checkpoint-dir", default=None,
                         help="directory for durable state checkpoints; "
                              "enables periodic snapshots of all engine "
                              "state for crash recovery")
    command.add_argument("--checkpoint-interval", type=int, default=10000,
                         help="events between checkpoints (with "
                              "--checkpoint-dir)")
    command.add_argument("--checkpoint-mode", default="full",
                         choices=["full", "diff"],
                         help="checkpoint record format: 'full' dumps all "
                              "state every time, 'diff' writes deltas "
                              "against a periodic full base so checkpoint "
                              "bytes track state churn")
    command.add_argument("--checkpoint-rebase", type=_at_least(1),
                         default=8, metavar="N",
                         help="deltas between full-base rebases (with "
                              "--checkpoint-mode diff)")
    command.add_argument("--segment-bytes", type=int, default=None,
                         metavar="BYTES",
                         help="segment-store journal size at which the "
                              "tail seals into an indexed segment "
                              "(directory databases / --save-events "
                              "directories; default 4 MiB)")
    command.add_argument("--supervise", action="store_true",
                         help="supervise shard workers (requires --shards "
                              "> 1): probe liveness, detect dead/hung "
                              "shards and recover in-run by restarting "
                              "from the last checkpoint (with "
                              "--checkpoint-dir) or migrating the dead "
                              "shard's hosts to survivors")
    command.add_argument("--max-recoveries", type=int, default=3,
                         help="per-shard recovery budget before a "
                              "supervised run gives up (with --supervise)")
    command.add_argument("--recovery", default="auto",
                         choices=["auto", "restart", "migrate"],
                         help="supervised recovery mode: 'auto' restarts "
                              "from a checkpoint when one exists and "
                              "migrates otherwise")
    command.add_argument("--quarantine-errors", type=_at_least(0),
                         default=None, metavar="N",
                         help="quarantine a query after N fatal errors "
                              "instead of failing the run; other queries "
                              "keep alerting (0 disables quarantine: the "
                              "first query error fails the run)")
    command.add_argument("--inject-fault", action="append", default=None,
                         metavar="SPEC", dest="inject_fault",
                         help="inject a fault for testing supervision "
                              "(repeatable). SPEC is KIND[:KEY=VALUE,...] "
                              "with KIND in crash|kill|hang|query-error "
                              "and keys shard=, after=, duration=, "
                              "query= — e.g. 'kill:shard=1,after=5000' "
                              "or 'query-error:query=exfil'")
    command.add_argument("--metrics-json", default=None, metavar="PATH",
                         help="write the run's merged metrics snapshot "
                              "(counters, stage-latency histograms, "
                              "per-query timings) to PATH as JSON when "
                              "the run ends")
    command.add_argument("--no-metrics", action="store_true",
                         help="disable metrics collection (drops the "
                              "per-batch timing instrumentation)")


def _checkpoint_store(args: argparse.Namespace):
    """Build the checkpoint store the flags select (None when disabled)."""
    if not getattr(args, "checkpoint_dir", None):
        return None
    if args.checkpoint_interval < 1:
        raise SystemExit("--checkpoint-interval must be at least 1")
    return CheckpointStore(
        args.checkpoint_dir,
        mode=getattr(args, "checkpoint_mode", "full") or "full",
        rebase_interval=args.checkpoint_rebase)


def _fault_plan(args: argparse.Namespace):
    """Parse the repeatable ``--inject-fault`` specs (None when absent)."""
    specs = getattr(args, "inject_fault", None)
    if not specs:
        return None
    try:
        return FaultPlan([parse_fault_spec(spec) for spec in specs])
    except ValueError as error:
        raise SystemExit(f"--inject-fault: {error}")


def _supervision_policy(args: argparse.Namespace):
    """Build the supervision policy ``--supervise`` selects (or None)."""
    if not getattr(args, "supervise", False):
        return None
    if args.shards <= 1:
        raise SystemExit("--supervise requires --shards > 1")
    try:
        return SupervisionPolicy(max_recoveries=args.max_recoveries,
                                 recovery=args.recovery)
    except ValueError as error:
        raise SystemExit(f"--supervise: {error}")


def _make_scheduler(args: argparse.Namespace, sink: CallbackSink):
    """Build the scheduler the execution options select."""
    store = _checkpoint_store(args)
    interval = args.checkpoint_interval if store is not None else None
    quarantine = args.quarantine_errors or None
    plan = _fault_plan(args)
    supervision = _supervision_policy(args)
    metrics_on = not getattr(args, "no_metrics", False)
    if args.shards > 1:
        rebalance = args.rebalance_interval
        return ShardedScheduler(shards=args.shards,
                                backend=args.shard_backend, sink=sink,
                                batch_size=args.batch_size,
                                shard_map=args.shard_map,
                                rebalance_interval=(rebalance
                                                    if rebalance > 0
                                                    else None),
                                rebalance_ratio=args.rebalance_ratio,
                                checkpoint_store=store,
                                checkpoint_interval=interval,
                                supervision=supervision,
                                quarantine_errors=quarantine,
                                fault_plan=plan,
                                metrics=metrics_on)
    return ConcurrentQueryScheduler(sink=sink,
                                    checkpoint_store=store,
                                    checkpoint_interval=interval,
                                    quarantine_errors=quarantine,
                                    metrics=MetricRegistry(
                                        enabled=metrics_on))


def _arm_faults(args: argparse.Namespace, scheduler) -> None:
    """Install ``--inject-fault`` specs into a single-process scheduler.

    Called after queries are registered (query-error faults poison a
    registered engine).  The sharded scheduler instead receives the plan
    at construction and installs it into each lane it builds.
    """
    plan = _fault_plan(args)
    if plan is None or isinstance(scheduler, ShardedScheduler):
        return
    try:
        plan.install(scheduler, position=0)
    except ValueError as error:
        raise SystemExit(f"--inject-fault: {error}")


def _write_metrics_json(args: argparse.Namespace, scheduler) -> None:
    """Dump the run's metrics snapshot to ``--metrics-json`` (if set).

    Works for both scheduler flavors: the single-process scheduler
    snapshots its live registry, the sharded scheduler returns the
    merged cross-shard view collected at finish.
    """
    path = getattr(args, "metrics_json", None)
    if not path:
        return
    snapshot = scheduler.metrics_snapshot()
    if snapshot is None:
        print("warning: metrics are disabled; "
              f"{path} not written", file=sys.stderr)
        return
    Path(path).write_text(render_json(snapshot) + "\n", encoding="utf-8")
    print(f"metrics written to {path}")


def _print_alert(alert: Alert) -> None:
    print(f"ALERT {alert.describe()}")


def _print_rebalance_summary(scheduler) -> None:
    """Report what the work-stealing balancer did (sharded runs only)."""
    migrations = getattr(scheduler, "migrations", None)
    if migrations:
        moves = ", ".join(f"{record.agentid}: {record.source}->"
                          f"{record.target}" for record in migrations)
        print(f"work stealing: {len(migrations)} migration(s) ({moves})")
        return
    eligibility = getattr(scheduler, "last_steal_eligibility", None)
    if eligibility is not None and not eligibility.eligible:
        print(f"work stealing disabled: {eligibility.reason}")


def _print_supervision_summary(scheduler) -> None:
    """Report in-run recoveries and quarantined queries, when any."""
    for record in getattr(scheduler, "recoveries", []) or []:
        print(f"recovered shard {record.position} ({record.reason}) via "
              f"{record.mode} in {record.latency:.2f}s: "
              f"{record.events_replayed} events replayed"
              + (f", hosts migrated: "
                 f"{', '.join(record.migrated_agentids)}"
                 if record.migrated_agentids else ""))
    quarantined = getattr(scheduler, "quarantined", None) or {}
    for name, detail in sorted(quarantined.items()):
        print(f"quarantined query {name!r} after {detail['errors']} "
              f"fatal errors: {detail['last_error']}", file=sys.stderr)
    stats = getattr(scheduler, "stats", None)
    if stats is not None and not quarantined:
        for name, errors in sorted(getattr(stats, "quarantined",
                                           {}).items()):
            print(f"quarantined query {name!r} after {errors} "
                  "fatal errors", file=sys.stderr)


def command_parse(args: argparse.Namespace) -> int:
    """Implement ``saql parse``."""
    text = Path(args.query_file).read_text(encoding="utf-8")
    try:
        query = parse_query(text)
    except SAQLError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(format_query(query))
    return 0


def command_demo(args: argparse.Namespace) -> int:
    """Implement ``saql demo``."""
    duration = args.background_minutes * 60.0
    enterprise = Enterprise(EnterpriseConfig(seed=args.seed))
    scenario = APTScenario(start_time=args.attack_start)
    stream = enterprise.event_feed(0.0, duration,
                                   injected=scenario.events())

    names = args.queries or demo_query_names()
    scheduler = _make_scheduler(args, CallbackSink(_print_alert))
    for name in names:
        if name not in DEMO_QUERIES:
            print(f"error: unknown demo query {name!r}", file=sys.stderr)
            return 1
        scheduler.add_query(DEMO_QUERIES[name], name=name)
    _arm_faults(args, scheduler)

    print(f"deployed {len(names)} queries over "
          f"{len(list(stream.events))} events "
          f"({len(enterprise.hosts)} hosts); attack starts at "
          f"t={args.attack_start:.0f}")
    if args.shards > 1:
        single = getattr(scheduler, "single_lane_query_names", [])
        print(f"sharded execution: {args.shards} {args.shard_backend} "
              f"shards, batch size {args.batch_size}"
              + (f"; full-stream fallback for {len(single)} queries"
                 if single else ""))
    alerts = scheduler.execute(stream, batch_size=args.batch_size)
    print(f"done: {len(alerts)} alerts, "
          f"{scheduler.stats.groups} query groups "
          f"(vs {scheduler.stats.queries} stream copies without sharing)")
    _print_rebalance_summary(scheduler)
    _print_supervision_summary(scheduler)
    _print_error_records(scheduler)
    _write_metrics_json(args, scheduler)

    if args.save_events:
        target = Path(args.save_events)
        if target.is_dir() or not target.suffix:
            database = EventDatabase.open(
                target, segment_bytes=args.segment_bytes)
            database.insert_many(stream)
            database.store.seal_tail()
            database.close()
            layout = "segment store"
        else:
            database = EventDatabase(stream)
            database.save(target)
            layout = "JSON-lines file"
        print(f"saved {len(database)} events to {args.save_events} "
              f"({layout})")
    return 0


def command_run(args: argparse.Namespace) -> int:
    """Implement ``saql run``.

    Single-process runs catch SIGINT/SIGTERM for the whole command (the
    database load included — long loads are exactly when operators hit
    ctrl-C) and stop at the next batch boundary; sharded runs keep the
    default signal disposition, since their workers own checkpointing.
    """
    interrupted = _InterruptFlag()
    if args.shards == 1:
        with interrupted.armed():
            return _run_body(args, interrupted)
    return _run_body(args, interrupted)


def _run_body(args: argparse.Namespace,
              interrupted: "_InterruptFlag") -> int:
    database_path = Path(args.database)
    if database_path.is_dir():
        database = EventDatabase.open(database_path,
                                      segment_bytes=args.segment_bytes)
    else:
        database = EventDatabase.load(database_path)
    spec = ReplaySpec(hosts=args.hosts, start_time=args.start,
                      end_time=args.end)
    replayer = StreamReplayer(database, spec)

    scheduler = _make_scheduler(args, CallbackSink(_print_alert))
    for path in args.query_files:
        text = Path(path).read_text(encoding="utf-8")
        try:
            scheduler.add_query(text, name=Path(path).stem)
        except SAQLError as error:
            print(f"error in {path}: {error}", file=sys.stderr)
            return 1
    _arm_faults(args, scheduler)

    # Crash recovery: restore engine state from the latest checkpoint and
    # replay the journal exactly after the checkpoint cursor.  Restored
    # (already-emitted) alerts are not re-printed — re-emission is
    # exactly-once.
    cursor = None
    if args.resume:
        store = _checkpoint_store(args)
        if store is None:
            print("error: --resume requires --checkpoint-dir",
                  file=sys.stderr)
            return 1
        snapshot = store.latest()
        if snapshot is None:
            print("no checkpoint found; running from the start")
        else:
            try:
                scheduler.restore_state(snapshot)
            except ValueError as error:
                print(f"error: cannot resume: {error}", file=sys.stderr)
                return 1
            cursor = scheduler.restored_cursor
            print(f"restored checkpoint at watermark "
                  f"t={cursor.watermark:.0f} "
                  f"({cursor.events_ingested} events already processed)")

    # Replay in batches so the replayer, the batch ingestion path and the
    # sharded runtime all share one chunked code path.
    source = (iter(replayer) if cursor is None
              else resume_events(replayer, cursor))
    alerts: List[Alert] = []
    if args.shards > 1:
        # The sharded scheduler returns (and emits) the *complete* run:
        # its merged output seeds the restored alert ledgers, so on a
        # resumed run the checkpointed alerts are printed again as part
        # of the deterministic merged stream.
        alerts = scheduler.execute(source, batch_size=args.batch_size)
        summary = (f"{len(alerts)} alerts (complete run, including "
                   "checkpointed alerts)" if cursor is not None
                   else f"{len(alerts)} alerts")
    else:
        # Graceful interrupt: SIGINT/SIGTERM stop the replay at the next
        # batch boundary instead of killing the process mid-state; with
        # a checkpoint store a final checkpoint makes the interruption
        # resumable (never lose a long replay to a ctrl-C).
        for batch in iter_batches(source, args.batch_size):
            alerts.extend(scheduler.process_events(batch))
            if interrupted:
                break
        if not interrupted:
            alerts.extend(scheduler.finish())
        if interrupted:
            if getattr(args, "checkpoint_dir", None):
                scheduler.checkpoint_now()
                print(f"interrupted by {interrupted.name}: wrote final "
                      f"checkpoint after {replayer.events_replayed} events")
                print(f"resume with: saql run --resume --checkpoint-dir "
                      f"{args.checkpoint_dir} --database {args.database} "
                      + " ".join(args.query_files))
            else:
                print(f"interrupted by {interrupted.name} after "
                      f"{replayer.events_replayed} events (no "
                      "--checkpoint-dir: nothing to resume from)")
            _write_metrics_json(args, scheduler)
            return 0
        summary = (f"{len(alerts)} alerts (this run; checkpointed alerts "
                   "were not re-emitted)" if cursor is not None
                   else f"{len(alerts)} alerts")
    print(f"done: {replayer.events_replayed} events replayed, {summary}")
    _print_rebalance_summary(scheduler)
    _print_supervision_summary(scheduler)
    _print_error_records(scheduler)
    _write_metrics_json(args, scheduler)
    return 0


class _InterruptFlag:
    """Arms SIGINT/SIGTERM as a checked flag for batch-boundary stops."""

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self):
        self._signum: Optional[int] = None
        self._previous = {}

    def __bool__(self) -> bool:
        return self._signum is not None

    @property
    def name(self) -> str:
        return (signal.Signals(self._signum).name
                if self._signum is not None else "")

    def _handle(self, signum, frame) -> None:
        self._signum = signum

    def armed(self):
        from contextlib import contextmanager

        @contextmanager
        def _armed():
            for signum in self.SIGNALS:
                try:
                    self._previous[signum] = signal.signal(signum,
                                                           self._handle)
                except ValueError:  # non-main thread (tests): stay unarmed
                    pass
            try:
                yield self
            finally:
                for signum, previous in self._previous.items():
                    signal.signal(signum, previous)
                self._previous.clear()
        return _armed()


def _print_error_records(scheduler) -> None:
    """Print per-query execution errors when the scheduler exposes them.

    The sharded scheduler's engines live in its workers, so it has no
    cross-process error reporter; worker failures surface as exceptions.
    """
    reporter = getattr(scheduler, "error_reporter", None)
    if reporter is not None and reporter.has_errors():
        for record in reporter.records:
            print(record.describe(), file=sys.stderr)


def _parse_query_flag(spec: str):
    """Parse one ``--query TENANT/NAME=FILE`` startup registration."""
    scoped, separator, path = spec.partition("=")
    tenant, slash, name = scoped.partition("/")
    if not separator or not slash or not tenant or not name or not path:
        raise SystemExit(f"--query: expected TENANT/NAME=FILE, got {spec!r}")
    return tenant, name, Path(path)


def _build_service(args: argparse.Namespace) -> SAQLService:
    """Construct the :class:`SAQLService` the ``serve`` flags select."""
    sinks = []
    for path in args.sink_file or []:
        sinks.append(FileSink(path))
    for url in args.sink_webhook or []:
        sinks.append(WebhookSink(url, timeout=args.retry_timeout))
    if args.retry_attempts < 1:
        raise SystemExit("--retry-attempts must be at least 1")
    config = ServiceConfig(
        queue_capacity=args.queue_capacity,
        queue_policy=args.queue_policy,
        block_timeout=args.block_timeout,
        batch_size=args.batch_size,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_mode=args.checkpoint_mode,
        checkpoint_rebase=args.checkpoint_rebase,
        quarantine_errors=args.quarantine_errors or None,
        retry=RetryPolicy(max_attempts=args.retry_attempts,
                          timeout=args.retry_timeout,
                          backoff=BackoffPolicy(initial=0.05, maximum=2.0,
                                                factor=2.0, jitter=0.25)),
        default_quota=TenantQuota(max_queries=args.max_queries_per_tenant),
        metrics=not args.no_metrics,
        journal_events=args.journal_events,
    )
    return SAQLService(state_dir=args.state_dir, sinks=sinks, config=config)


def command_serve(args: argparse.Namespace) -> int:
    """Implement ``saql serve``: run the service until drained.

    The loop is signal-driven: SIGTERM/SIGINT (or a client ``drain`` op)
    request a graceful drain; the service then stops admissions, drains
    the queue, checkpoints, flushes alert delivery and exits 0.  With
    ``--state-dir`` a subsequent ``saql serve --resume`` continues with
    no duplicated and no lost alerts.
    """
    if args.resume and not args.state_dir:
        print("error: --resume requires --state-dir", file=sys.stderr)
        return 1
    try:
        service = _build_service(args)
    except ValueError as error:
        raise SystemExit(f"serve: {error}")
    service.start(resume=args.resume)
    registered = {(entry.tenant, entry.name)
                  for entry in service.registry.entries()}
    for spec in args.queries or []:
        tenant, name, path = _parse_query_flag(spec)
        if (tenant, name) in registered:
            continue  # already in the resumed manifest
        try:
            service.register_query(tenant, name,
                                   path.read_text(encoding="utf-8"))
        except (SAQLError, ValueError) as error:
            print(f"error in --query {spec}: {error}", file=sys.stderr)
            return 1
    transport = ServiceTransport(service, host=args.host,
                                 port=args.port).start()
    host, port = transport.address
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(
            signum,
            lambda *_: service.request_drain(
                finish_stream=args.finish_on_drain))
    print(f"serving on {host}:{port} "
          f"({len(service.registry)} queries"
          + (f", state dir {args.state_dir}" if args.state_dir else "")
          + (", resumed" if args.resume else "") + ")", flush=True)
    try:
        while not service.wait_for_drain_request(timeout=1.0):
            pass
    finally:
        transport.shutdown()
        report = service.drain(reason="signal")
    print(f"drained in {report.duration_seconds:.2f}s: "
          f"{report.delivered} alerts delivered, "
          f"{report.dead_lettered} dead-lettered, "
          f"checkpoint {'written' if report.checkpointed else 'skipped'}")
    if args.metrics_json:
        snapshot = service.metrics_snapshot()
        if snapshot is None:
            print("warning: metrics are disabled; "
                  f"{args.metrics_json} not written", file=sys.stderr)
        else:
            Path(args.metrics_json).write_text(render_json(snapshot) + "\n",
                                               encoding="utf-8")
            print(f"metrics written to {args.metrics_json}")
    if args.state_dir and not report.finished_stream:
        print(f"resume with: saql serve --resume --state-dir "
              f"{args.state_dir}")
    return 0


def command_queries(args: argparse.Namespace) -> int:
    """Implement ``saql queries``."""
    if args.show:
        text = DEMO_QUERIES.get(args.show)
        if text is None:
            print(f"error: unknown demo query {args.show!r}", file=sys.stderr)
            return 1
        print(text.strip())
        return 0
    for name in demo_query_names():
        print(name)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``saql`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "parse": command_parse,
        "demo": command_demo,
        "run": command_run,
        "queries": command_queries,
        "serve": command_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
