"""``wire-open-loop``: the service behind its TCP front door, open loop.

The program under test is ``saql serve`` running as a subprocess.  The
load generator lives in this process: one thread sends pre-serialised
``ingest_batch`` lines on a fixed schedule over one pipelined connection
and never waits for a reply; a second thread reads the replies, the
responses of a second (control) connection and the tail of the alert sink
file, stamping each with the same monotonic clock.  Arrival is therefore
independent of service speed, and a queue that cannot keep up shows as
latency and as the generator running late.

Every latency is measured from the time the alert's enabling event (the
matching event for a rule alert, the first event at or past ``window_end``
for a window alert) occurs on the schedule, so the wait a stall imposes on
later events is counted.  Events occur at the rung's rate and a line is due
when its last event has occurred, so the wait for the rest of the line is
counted too, and the latencies of one line's alerts differ by when their
events occurred instead of all reading the same.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core import ConcurrentQueryScheduler
from repro.events.event import Event
from repro.events.serialization import event_to_dict

from perfbench import inputs as gen
from perfbench import oracle
from perfbench.closed_loop import (BATCH_SIZE, Outcome, codec_metrics,
                                   freeze_inputs, query_metrics,
                                   scheduler_counters)
from perfbench.measure import (children_peak_rss_mb, live, percentile,
                               stage)
from perfbench.trace import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
TENANT = "soc"
#: Events per ``ingest_batch`` line.
LINE_EVENTS = 128
#: (name, events/second, share of ``--seconds`` it sends for, played in
#: traced runs only).  The reference rate is played four times and the top
#: rate twice, each on a fresh server, because the box's slow spells are
#: short and only ever lengthen a stall or lower a rate: the lower median of
#: the plays shrugs off two spoilt ones where a single longer play could not
#: (under bursts of competing load the 99th percentile of one 5 s play
#: spread 37% over 24 plays, the lower median of four 3 s plays 6%).  The
#: middle rung only places the sustainable rate, a per-layer metric.
RUNGS = (("r8k-1", 8000, 0.225, False), ("r8k-2", 8000, 0.225, False),
         ("r8k-3", 8000, 0.225, False), ("r8k-4", 8000, 0.225, False),
         ("r12k", 12000, 0.06, True),
         ("r32k-1", 32000, 0.06, False), ("r32k-2", 32000, 0.06, False))
#: The plays at the reference rate: alert latency and the registration
#: round trip are reported there.
REFERENCE_RUNGS = tuple(name for name, rate, _, _ in RUNGS
                        if rate == RUNGS[0][1])
#: The plays at the top rate: far above capacity, so block-policy
#: backpressure makes the achieved rate the service's capacity.
TOP_RUNGS = tuple(name for name, rate, _, _ in RUNGS if rate == RUNGS[-1][1])
#: Event time of the stream: event ``i`` happens at ``i / EVENT_RATE``, the
#: reference rung's send schedule.
EVENT_RATE = 8000.0
#: Leading share of a rung left out of the latency sample (plans compile
#: and caches fill on the first batches).  With ``--seconds 14`` the sample
#: is 0.63-3.15 s of a play: the server stalls at about 1.5, 2.6 and 3.7 s
#: of uptime, so both ends sit well clear of a stall.
WARMUP_SHARE = 0.2
#: A rung is sustainable when all of these hold and nothing shed or failed.
LATENCY_LIMIT_S = 0.5
LATE_LIMIT_S = 0.1
ACK_LAG_LIMIT_S = 0.25
#: Latency booked for an oracle alert that was never delivered.
UNDELIVERED_S = 3600.0
#: Register+remove pairs of the probe query, sent in a tail appended to
#: each reference rung: the same server at the same rate, but after the
#: latency sample is closed (with probes inside the sample its 99th
#: percentile ranged 59-91 ms over four plays of one seed; without, 65-67).
PROBE_PAIRS = 20
#: Where in a line's interval a control request goes out.  At the
#: reference rate the server is done with a line (decode, then one pump
#: batch) about half way to the next, so every request meets an idle server
#: and its round trip is its own work.  Spread over all phases, half the
#: requests waited behind a batch (~3.5 ms against ~0.4 ms) and the summary
#: moved with that half's share: 10-17% over ten runs as a mean, and a median
#: flips between the two modes.
CONTROL_PHASE = 0.75
#: Length of that tail, as a share of ``--seconds``.
PROBE_TAIL_SHARE = 0.025
#: Shortest rung, in lines (room for a few probe pairs at smoke scale).
MIN_RUNG_LINES = 8
#: Lines between two ``stats`` scrapes of a traced rung.
SCRAPE_EVERY_LINES = 16
#: Events before and after the restart of the recovery measurement.
RESTART_EVENTS = 8192
#: Events of the reference rung the AST interpreter re-executes.
VERIFY_EVENTS = 16000
SETTLE_TIMEOUT_S = 60.0

REGISTER = json.dumps({"op": "register", "tenant": TENANT, "name": "probe",
                       "query": gen.PROBE_QUERY}).encode("utf-8") + b"\n"
REMOVE = json.dumps({"op": "remove", "tenant": TENANT,
                     "name": "probe"}).encode("utf-8") + b"\n"
STATS = b'{"op":"stats"}\n'

Stamped = List[Tuple[float, bytes]]


class Server:
    """One ``saql serve`` subprocess."""

    def __init__(self, workdir: Path, label: str, query_flags: List[str],
                 state_dir: Optional[Path] = None, resume: bool = False):
        self.sink_path = workdir / f"alerts-{label}.jsonl"
        command = [sys.executable, "-m", "repro.ui.cli", "serve",
                   "--port", "0", "--batch-size", str(BATCH_SIZE),
                   "--queue-capacity", "8192",
                   "--max-queries-per-tenant", "64",
                   "--sink-file", str(self.sink_path)] + query_flags
        if state_dir is not None:
            command += ["--state-dir", str(state_dir)]
        if resume:
            command.append("--resume")
        self._log = open(workdir / f"server-{label}.log", "ab")
        self.spawned = perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        line = self.process.stdout.readline()
        self.ready = perf_counter()
        self.drain_s = 0.0
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"saql serve did not come up: {line!r}")
        host, port = line.split()[2].rsplit(":", 1)
        self.address = (host, int(port))

    def stop(self) -> None:
        """SIGTERM, then wait for the drain to finish and the process to
        end (killed if it does not)."""
        started = perf_counter()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=SETTLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self.drain_s = perf_counter() - started
        self._log.close()


class Connection:
    """One JSON-lines connection, used request-by-request while no
    receiver thread owns its socket."""

    def __init__(self, address: Tuple[str, int]):
        self.socket = socket.create_connection(address, timeout=30.0)
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()

    def exchange(self, line: bytes) -> bytes:
        """Send one request line and block for its reply line."""
        self.socket.sendall(line)
        while b"\n" not in self._buffer:
            data = self.socket.recv(1 << 16)
            if not data:
                raise ConnectionError("the server closed the connection")
            self._buffer += data
        reply, _, rest = bytes(self._buffer).partition(b"\n")
        self._buffer = bytearray(rest)
        return reply

    def request(self, **payload: Any) -> Dict[str, Any]:
        return json.loads(self.exchange(
            json.dumps(payload).encode("utf-8") + b"\n"))

    def scheduler_ingested(self) -> int:
        return self.request(op="stats")["stats"]["scheduler"][
            "events_ingested"]

    def close(self) -> None:
        self.socket.close()


@dataclass
class RungResult:
    """Everything stamped during one rung, and what was made of it."""

    name: str
    rate: int
    events: int
    #: Leading events whose alerts make the latency sample (the rest is
    #: the probe tail).
    sampled: int
    ready_s: float
    #: The file sink's label in the server's metrics.
    sink: str
    start: float = 0.0
    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    acks: Stamped = field(default_factory=list)
    deliveries: Stamped = field(default_factory=list)
    #: (kind, sent at) of each control request, and the stamped replies.
    control_sent: List[Tuple[str, float]] = field(default_factory=list)
    control_replies: Stamped = field(default_factory=list)
    processed_at: float = 0.0
    stats: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    drain_s: float = 0.0
    bytes_in: int = 0
    # Filled in by ``judge``.
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    failed_requests: int = 0
    not_accepted: int = 0
    alert_mismatches: int = 0
    oracle_alerts: int = 0
    sustainable: bool = False

    @property
    def late(self) -> List[float]:
        return [max(0.0, sent - due)
                for sent, due in zip(self.sent, self.due)]

    @property
    def ack_lag(self) -> float:
        return max(0.0, self.acks[-1][0] - self.due[-1]) if self.acks else 0.0

    @property
    def achieved_eps(self) -> float:
        return self.events / (self.processed_at - self.start)

    def round_trips(self, *kinds: str) -> List[Tuple[float, float]]:
        """(sent, replied) of the control requests of the given kinds."""
        return [(sent, received) for (kind, sent), (received, _)
                in zip(self.control_sent, self.control_replies)
                if kind in kinds]


class Receiver(threading.Thread):
    """The load generator's second thread: stamps ingest replies, control
    replies and new lines of the sink file as they appear."""

    def __init__(self, data: socket.socket, control: socket.socket,
                 sink_path: Path, result: RungResult, acks: int):
        super().__init__(name="perfbench-receiver", daemon=True)
        self._streams = {data: (bytearray(), result.acks),
                         control: (bytearray(), result.control_replies)}
        self._sink_path = sink_path
        self._sink = None
        self._sink_tail = bytearray()
        self._result = result
        self._expected_acks = acks
        self.done_sending = threading.Event()
        self.abandon = threading.Event()

    @staticmethod
    def _take_lines(buffer: bytearray, data: bytes, into: Stamped) -> None:
        now = perf_counter()
        buffer += data
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                return
            into.append((now, bytes(buffer[:newline])))
            del buffer[:newline + 1]

    def poll_sink(self) -> None:
        """Stamp whatever the sink file has gained since the last poll."""
        if self._sink is None:
            if not self._sink_path.exists():
                return
            self._sink = open(self._sink_path, "rb")
        data = self._sink.read()
        if data:
            self._take_lines(self._sink_tail, data, self._result.deliveries)

    def _complete(self) -> bool:
        result = self._result
        return (self.done_sending.is_set()
                and len(result.acks) >= self._expected_acks
                and len(result.control_replies) >= len(result.control_sent))

    def run(self) -> None:
        selector = selectors.DefaultSelector()
        for sock in self._streams:
            selector.register(sock, selectors.EVENT_READ)
        try:
            while not (self._complete() or self.abandon.is_set()):
                for key, _ in selector.select(timeout=0.001):
                    buffer, into = self._streams[key.fileobj]
                    # Readable, so this returns at once; the sockets stay in
                    # blocking mode for the sender thread.
                    data = key.fileobj.recv(1 << 16)
                    if not data:
                        return
                    self._take_lines(buffer, data, into)
                self.poll_sink()
        finally:
            selector.close()

    def close(self) -> None:
        self.poll_sink()
        if self._sink is not None:
            self._sink.close()


@dataclass
class WireInputs:
    events: List[Event]
    lines: List[bytes]
    queries: List[gen.Query]
    query_flags: List[str]


class WireOpenLoop:
    """The open-loop service workload."""

    name = "wire-open-loop"

    # -- set-up ---------------------------------------------------------------

    def rung_events(self, seconds: float, scale: float) -> Dict[str, int]:
        """Events each rung offers (and ``"probe-tail"``, the events of the
        reference rung's tail): whole lines of ``rate * share * seconds``
        (shrunk by ``--scale``)."""
        shares = [rung[:3] for rung in RUNGS]
        shares.append(("probe-tail", RUNGS[0][1], PROBE_TAIL_SHARE))
        return {name: max(MIN_RUNG_LINES,
                          int(rate * share * seconds * scale)
                          // LINE_EVENTS) * LINE_EVENTS
                for name, rate, share in shares}

    def setup(self, seed: int, count: int, workdir: Path) -> WireInputs:
        events, hosts = gen.enterprise_stream(seed, count)
        events = gen.retime(gen.with_canaries(events), EVENT_RATE)
        lines = [
            json.dumps({"op": "ingest_batch", "events": [
                event_to_dict(event)
                for event in events[begin:begin + LINE_EVENTS]]},
                separators=(",", ":")).encode("utf-8") + b"\n"
            for begin in range(0, len(events), LINE_EVENTS)]
        queries = gen.wire_queries(hosts)
        directory = workdir / "queries"
        directory.mkdir(exist_ok=True)
        flags: List[str] = []
        for name, text in queries:
            path = directory / f"{name}.saql"
            path.write_text(text, encoding="utf-8")
            flags += ["--query", f"{TENANT}/{name}={path}"]
        return WireInputs(events, lines, queries, flags)

    # -- one rung -------------------------------------------------------------

    def play(self, inputs: WireInputs, workdir: Path, label: str, rate: int,
             events: int, probe_tail: int, scrape: bool) -> RungResult:
        """A fresh server, ``events`` events at ``rate`` events/second and
        then ``probe_tail`` more with the registration probes among them."""
        server = Server(workdir, label, inputs.query_flags)
        result = RungResult(label, rate, events + probe_tail, events,
                            ready_s=server.ready - server.spawned,
                            sink=f"file:{server.sink_path}")
        try:
            self._offer(server, inputs, result, scrape)
        finally:
            server.stop()
        result.drain_s = server.drain_s
        # Whatever the drain still delivered is in the file by now.
        with open(server.sink_path, "rb") as handle:
            lines = handle.read().splitlines()
        now = perf_counter()
        result.deliveries += [(now, line)
                              for line in lines[len(result.deliveries):]]
        return result

    def _offer(self, server: Server, inputs: WireInputs, result: RungResult,
               scrape: bool) -> None:
        lines = inputs.lines[:result.events // LINE_EVENTS]
        # Control requests ride the sender's schedule and never make it
        # wait: probe pairs through the tail after the latency sample,
        # scrapes (traced runs) at a fixed stride.  Each goes out in the
        # first interval at or after its slot in which the previous reply
        # is in: the server's handler reads through a buffered file but
        # waits on the raw socket, so a small request that lands in that
        # buffer behind another one is not answered until more bytes arrive.
        plan: List[Tuple[int, str, bytes]] = []
        if scrape:
            plan += [(index, "scrape", STATS) for index in range(
                SCRAPE_EVERY_LINES, len(lines), SCRAPE_EVERY_LINES)]
        first = result.sampled // LINE_EVENTS
        room = len(lines) - first - 1
        if room > 1:
            pairs = min(PROBE_PAIRS, room // 2)
            stride = room // (2 * pairs)
            for pair in range(pairs):
                slot = first + 2 * pair * stride + 1
                plan += [(slot, "register", REGISTER),
                         (slot + stride, "remove", REMOVE)]
        plan.sort(key=lambda entry: entry[0], reverse=True)
        data = Connection(server.address)
        control = Connection(server.address)
        receiver = Receiver(data.socket, control.socket, server.sink_path,
                            result, len(lines))
        interval = LINE_EVENTS / result.rate
        receiver.start()
        result.start = start = perf_counter()
        try:
            for index, line in enumerate(lines):
                due = start + index * interval
                delay = due - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                result.due.append(due)
                result.sent.append(perf_counter())
                data.socket.sendall(line)
                if (plan and plan[-1][0] <= index and len(result.control_sent)
                        == len(result.control_replies)):
                    _, kind, request = plan.pop()
                    delay = due + CONTROL_PHASE * interval - perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    result.control_sent.append((kind, perf_counter()))
                    control.socket.sendall(request)
        finally:
            receiver.done_sending.set()
            receiver.join(timeout=SETTLE_TIMEOUT_S)
            receiver.abandon.set()
            receiver.join()
        result.bytes_in = sum(map(len, lines))
        # The queue may still hold the tail: wait until the scheduler has
        # taken every event and the sinks have nothing pending.
        deadline = perf_counter() + SETTLE_TIMEOUT_S
        while True:
            stats = control.request(op="stats")["stats"]
            if stats["scheduler"]["events_ingested"] >= result.events:
                result.processed_at = result.processed_at or perf_counter()
                if stats["sinks"]["lag"] == 0:
                    break
            if perf_counter() > deadline:
                raise RuntimeError(f"rung {result.name} did not settle")
            time.sleep(0.005)
            receiver.poll_sink()
        result.stats = stats
        result.metrics = control.request(op="metrics",
                                         format="json")["metrics"]
        receiver.close()
        control.close()
        data.close()

    # -- judging a rung -------------------------------------------------------

    def judge(self, result: RungResult, expected: oracle.Fingerprints) -> None:
        """Fill in latencies, failures and the sustainable verdict."""
        for _, body in result.acks:
            reply = json.loads(body)
            accepted = reply["counts"]["accepted"] if reply.get("ok") else 0
            result.failed_requests += not reply.get("ok")
            result.not_accepted += LINE_EVENTS - accepted
        missing = result.events // LINE_EVENTS - len(result.acks)
        result.failed_requests += missing
        result.not_accepted += missing * LINE_EVENTS
        result.failed_requests += (len(result.control_sent)
                                   - len(result.control_replies))
        result.failed_requests += sum(
            not json.loads(body).get("ok")
            for _, body in result.control_replies)
        alerts = result.alerts = [json.loads(body)
                                  for _, body in result.deliveries]
        result.oracle_alerts = oracle.count(expected)
        result.alert_mismatches = oracle.mismatches(
            expected, oracle.fingerprints(alerts))
        warm = WARMUP_SHARE * result.sampled
        for (delivered, _), alert in zip(result.deliveries, alerts):
            position = enabling_index(alert)
            if warm <= position < result.sampled:
                result.latencies.append(
                    delivered - occurred_at(result, position))
        result.latencies += [UNDELIVERED_S] * max(
            0, result.oracle_alerts - len(alerts))
        result.sustainable = bool(
            result.latencies
            and percentile(result.latencies, 0.99) <= LATENCY_LIMIT_S
            and max(result.late) <= LATE_LIMIT_S
            and result.ack_lag <= ACK_LAG_LIMIT_S
            and not result.failed_requests and not result.not_accepted
            and not result.stats["queue"]["shed"])

    # -- restart --------------------------------------------------------------

    def restart(self, inputs: WireInputs, workdir: Path, events: int,
                tracer: Optional[Tracer]) -> Tuple[float, int, int]:
        """SIGTERM a serving instance with a state directory after
        ``events`` events and resume it for as many more: returns (seconds
        from spawning the new process to its first acknowledged batch,
        alert mismatches across the restart, oracle alerts)."""
        state = workdir / "state"
        lines = events // LINE_EVENTS

        def feed(server: Server, batch: Iterable[bytes],
                 until: int) -> float:
            connection = Connection(server.address)
            first_ack = 0.0
            for line in batch:
                connection.exchange(line)
                first_ack = first_ack or perf_counter()
            deadline = perf_counter() + SETTLE_TIMEOUT_S
            while connection.scheduler_ingested() < until:
                if perf_counter() > deadline:
                    raise RuntimeError("the restarted service did not "
                                       "take the events it acknowledged")
                time.sleep(0.005)
            connection.close()
            return first_ack

        first = Server(workdir, "restart", inputs.query_flags,
                       state_dir=state)
        try:
            feed(first, inputs.lines[:lines], events)
        finally:
            first.stop()
        second = Server(workdir, "restart", inputs.query_flags,
                        state_dir=state, resume=True)
        try:
            # The resumed scheduler counts the restored events too.
            recovered = feed(second, inputs.lines[lines:2 * lines],
                             2 * events)
        finally:
            second.stop()
        if tracer is not None:
            root = tracer.add("server.restart", second.spawned - first.drain_s,
                              recovered, trace="restart")
            tracer.add("server.drain", second.spawned - first.drain_s,
                       second.spawned, parent=root, trace="restart")
            tracer.add("server.spawn_to_serving", second.spawned,
                       second.ready, parent=root, trace="restart")
            tracer.add("transport.first_ack", second.ready, recovered,
                       parent=root, trace="restart")
        with open(second.sink_path, "rb") as handle:
            delivered = [json.loads(line) for line in handle]
        expected = direct_alerts(inputs.queries,
                                 inputs.events[:2 * events])
        wrong = oracle.mismatches(oracle.alert_fingerprints(expected),
                                  oracle.fingerprints(delivered))
        return recovered - second.spawned, wrong, len(expected)

    # -- the run --------------------------------------------------------------

    def run(self, seed: int, seconds: float, scale: float, workdir: Path,
            tracer: Optional[Tracer]) -> Outcome:
        sizes = self.rung_events(seconds, scale)
        restart_events = max(8, int(RESTART_EVENTS * min(1.0, scale))
                             // LINE_EVENTS) * LINE_EVENTS
        reference_name, top_name = REFERENCE_RUNGS[0], TOP_RUNGS[0]
        tail = sizes.pop("probe-tail")
        count = max(max(sizes.values()), sizes[reference_name] + tail,
                    2 * restart_events)
        setups: List[float] = []
        for _ in range(3):
            start = perf_counter()
            inputs = self.setup(seed, count, workdir)
            setups.append(perf_counter() - start)
        freeze_inputs()

        traced = tracer is not None
        rungs: Dict[str, RungResult] = {}
        for name, rate, _, traced_only in RUNGS:
            if traced or not traced_only:
                rungs[name] = self.play(
                    inputs, workdir, name, rate, sizes[name],
                    tail if name in REFERENCE_RUNGS else 0, scrape=traced)
        judged = list(rungs.values())
        if traced:
            # The top rung again without the scrapes prices the trace.
            judged.append(self.play(inputs, workdir, top_name + "-bare",
                                    RUNGS[-1][1], sizes[top_name], 0,
                                    scrape=False))
        recovery_s, restart_wrong, restart_alerts = self.restart(
            inputs, workdir, restart_events, tracer)

        # -- correctness ------------------------------------------------------
        longest = direct_alerts(
            inputs.queries,
            inputs.events[:max(result.events for result in judged)])
        attempted = 2 * restart_events + restart_alerts
        failed = restart_wrong
        for result in judged:
            self.judge(result, oracle.alert_fingerprints(
                alert for alert in longest
                if enabling_index(alert) < result.events))
            attempted += (result.events + result.oracle_alerts
                          + result.events // LINE_EVENTS
                          + len(result.control_sent))
            failed += (result.not_accepted + result.alert_mismatches
                       + result.failed_requests)
        reference = rungs[reference_name]
        verify = inputs.events[:min(
            reference.events,
            max(2 * BATCH_SIZE, int(VERIFY_EVENTS * min(1.0, scale))))]
        interpreted = oracle.alert_fingerprints(oracle.ast_reference(
            [(f"{TENANT}/{name}", text) for name, text in inputs.queries],
            verify, finish=False))
        delivered = oracle.fingerprints(
            alert for alert in reference.alerts
            if enabling_index(alert) < len(verify))
        attempted += len(verify) + oracle.count(interpreted)
        failed += oracle.mismatches(interpreted, delivered)

        # -- end-to-end metrics -----------------------------------------------
        unsustained = {result.rate for result in rungs.values()
                       if not result.sustainable}
        sustainable = max({result.rate for result in rungs.values()}
                          - unsustained, default=0)
        # A probe costs a register and a remove: one sample per pair.
        probes = [[(added[1] - added[0] + removed[1] - removed[0]) * 1e3
                   for added, removed in zip(
                       rungs[name].round_trips("register"),
                       rungs[name].round_trips("remove"))]
                  for name in REFERENCE_RUNGS]
        latencies = [rungs[name].latencies for name in REFERENCE_RUNGS]
        if not all(latencies) or not all(probes):
            raise RuntimeError("a reference rung produced no latency or "
                               "probe sample; raise --seconds or --scale")
        # Over the plays, the median on the good side (see RUNGS).
        end_to_end = {
            "setup_s": statistics.median(setups),
            "events_per_s": statistics.median_high(
                rungs[name].achieved_eps for name in TOP_RUNGS),
            "alert_latency_p50_ms": statistics.median_low(
                percentile(sample, 0.50) for sample in latencies) * 1e3,
            "alert_latency_p99_ms": statistics.median_low(
                percentile(sample, 0.99) for sample in latencies) * 1e3,
            "query_register_ms": statistics.median_low(
                statistics.median(sample) for sample in probes),
            "recovery_s": recovery_s,
            "peak_rss_mb": children_peak_rss_mb(),
        }
        notes: Dict[str, Any] = {
            "queries": len(inputs.queries),
            "latency_samples": [len(sample) for sample in latencies],
            "register_samples": [len(sample) for sample in probes],
            "sustainable_rate_eps": sustainable,
            "rungs": {result.name: rung_note(result) for result in judged},
        }
        per_layer: Dict[str, float] = {}
        if tracer is not None:
            for result in rungs.values():
                record_rung(tracer, result)
            per_layer = layer_metrics(inputs, reference, rungs[top_name],
                                      judged[-1], sustainable)
            notes["self_time_share"] = tracer.self_time_shares()
        return Outcome(self.name, attempted, failed, end_to_end, per_layer,
                       notes)


def rung_note(result: RungResult) -> Dict[str, Any]:
    """The per-rung table row printed beside the metrics."""
    return {
        "offered_eps": result.rate, "events": result.events,
        "achieved_eps": result.achieved_eps,
        "sustainable": result.sustainable,
        "alert_latency_p50_ms": percentile(result.latencies, 0.50) * 1e3,
        "alert_latency_p99_ms": percentile(result.latencies, 0.99) * 1e3,
        "late_ms_p99": percentile(result.late, 0.99) * 1e3,
        "late_ms_max": max(result.late) * 1e3,
        "ack_lag_ms": result.ack_lag * 1e3,
        "oracle_alerts": result.oracle_alerts,
        "queue_high_water": result.stats["queue"]["high_water"],
        "queue_blocked_seconds": result.stats["queue"]["blocked_seconds"],
    }


def layer_metrics(inputs: WireInputs, reference: RungResult,
                  top: RungResult, bare_top: RungResult,
                  sustainable: int) -> Dict[str, float]:
    """Per-layer metrics of the reference rung: the generator's own stamps
    for transport and loadgen, the server's ``stats`` and ``metrics`` ops
    for everything behind the socket."""
    snapshot = reference.metrics
    stats = reference.stats
    acks = [received - sent for sent, (received, _)
            in zip(reference.sent, reference.acks)]
    scrapes = [received - sent
               for sent, received in reference.round_trips("scrape")]
    registry = live(snapshot)
    pump = stage(registry, "pump_batch")
    batches = registry.histogram("saql_batch_seconds")
    delivery = registry.histogram("saql_sink_delivery_seconds",
                                  sink=reference.sink)
    metrics = {
        "transport.ack_ms_p50": percentile(acks, 0.50) * 1e3,
        "transport.ack_ms_p99": percentile(acks, 0.99) * 1e3,
        "transport.bytes_in": float(reference.bytes_in),
        "transport.requests_failed": float(reference.failed_requests),
        "queue.high_water": float(stats["queue"]["high_water"]),
        "queue.blocked_seconds": stats["queue"]["blocked_seconds"],
        "queue.shed": float(stats["queue"]["shed"]),
        "queue.depth_end": float(stats["queue"]["depth"]),
        "server.pump_batch_s": pump.sum,
        "server.pump_batches": float(pump.count),
        "server.batch_fill":
            reference.events / max(1, pump.count) / BATCH_SIZE,
        "server.drain_s": reference.drain_s,
        "server.ready_s": reference.ready_s,
        "sinks.delivery_ms_p50": delivery.percentile(0.50) * 1e3,
        "sinks.delivery_ms_p99": delivery.percentile(0.99) * 1e3,
        "sinks.retries": float(stats["sinks"]["retries"]),
        "sinks.dead_letters": float(stats["sinks"]["dead_lettered"]),
        "sinks.lag_end": float(stats["sinks"]["lag"]),
        "obs.scrape_ms": statistics.median(scrapes) * 1e3 if scrapes else 0.0,
        "obs.trace_overhead_pct":
            100.0 * (1.0 - top.achieved_eps / bare_top.achieved_eps),
        "loadgen.late_ms_p99": percentile(reference.late, 0.99) * 1e3,
        "loadgen.late_ms_max": max(reference.late) * 1e3,
        "loadgen.offered_eps": reference.events / (
            reference.sent[-1] - reference.start
            + LINE_EVENTS / reference.rate),
        "loadgen.sustainable_rate_eps": float(sustainable),
        "scheduler.batches": float(batches.count),
        "scheduler.batch_ms_p50": batches.percentile(0.50) * 1e3,
        "scheduler.batch_ms_p99": batches.percentile(0.99) * 1e3,
        "scheduler.add_query_ms": statistics.median(
            (replied - sent) * 1e3
            for sent, replied in reference.round_trips("register")),
        "scheduler.remove_query_ms": statistics.median(
            (replied - sent) * 1e3
            for sent, replied in reference.round_trips("remove")),
    }
    metrics.update(scheduler_counters(snapshot, stats["scheduler"],
                                      batches.sum))
    metrics.update(codec_metrics(inputs.events))
    metrics.update(query_metrics(inputs.queries))
    return metrics


def direct_alerts(queries: List[gen.Query],
                  events: List[Event]) -> List[Any]:
    """What the service must deliver for ``events``: the direct batch
    alerts under the service's scoped query names, open windows left open
    (a SIGTERM drain checkpoints them, it does not flush them)."""
    scheduler = ConcurrentQueryScheduler()
    for name, text in queries:
        scheduler.add_query(text, name=f"{TENANT}/{name}")
    alerts: List[Any] = []
    for begin in range(0, len(events), BATCH_SIZE):
        alerts.extend(scheduler.process_events(
            events[begin:begin + BATCH_SIZE]))
    return alerts


def enabling_index(alert: Any) -> int:
    """Stream position of the event that made an alert (an ``Alert`` or
    its encoded dict) possible: the matching event for a rule alert, the
    first event at or past ``window_end`` for a window alert."""
    if isinstance(alert, dict):
        end, timestamp = alert["window_end"], alert["timestamp"]
    else:
        end, timestamp = alert.window_end, alert.timestamp
    if end is None:
        return int(round(float(timestamp) * EVENT_RATE))
    return int(math.ceil(float(end) * EVENT_RATE - 1e-6))


def occurred_at(result: RungResult, position: int) -> float:
    """When the event at stream ``position`` occurs on a rung's schedule:
    events occur at the rung's rate and a line is due the moment its last
    event has, so an event waits up to one line interval to be sent."""
    return result.start + (position - (LINE_EVENTS - 1)) / result.rate


def record_rung(tracer: Tracer, result: RungResult) -> None:
    """Spans of one rung: a request span per line (due to acknowledged)
    with the generator's lateness and the transport round trip as its
    children, a span per delivered alert (due to in the sink file) whose
    parent is the request carrying its enabling event, and a span per
    scrape with the queue depth and sink lag it read."""
    end = max([result.processed_at]
              + [stamp for stamp, _ in result.deliveries[-1:]])
    root = tracer.add(f"wire-open-loop.{result.name}", result.start, end,
                      trace=result.name, events=result.events,
                      offered_eps=result.rate)
    requests: List[int] = []
    for index, (due, sent, (received, _)) in enumerate(
            zip(result.due, result.sent, result.acks)):
        trace = f"{result.name}/line-{index}"
        request = tracer.add("service.request", due, received, parent=root,
                             trace=trace)
        tracer.add("loadgen.late", due, sent, parent=request, trace=trace)
        tracer.add("transport.ack", sent, received, parent=request,
                   trace=trace)
        requests.append(request)
    interval = LINE_EVENTS / result.rate
    for (delivered, _), alert in zip(result.deliveries, result.alerts):
        line = enabling_index(alert) // LINE_EVENTS
        if line < len(requests):
            tracer.add("service.alert", result.start + line * interval,
                       delivered, parent=requests[line],
                       trace=f"{result.name}/line-{line}")
    for (kind, sent), (received, body) in zip(result.control_sent,
                                              result.control_replies):
        if kind == "scrape":
            stats = json.loads(body)["stats"]
            tracer.add("obs.scrape", sent, received, parent=root,
                       trace=result.name,
                       queue_depth=stats["queue"]["depth"],
                       sink_lag=stats["sinks"]["lag"])
        else:
            tracer.add(f"service.{kind}", sent, received, parent=root,
                       trace=result.name)
