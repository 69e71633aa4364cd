"""The three workloads: plan-cold, xmark-steady and serve-mixed.

Why these three (each one loads some layers and bypasses others):

* ``plan-cold`` -- XMark scale 0.001, one in-process closed-loop client,
  every query text unique (nonce comment + seeded literals).  The plan
  cache never hits, so parse -> desugar -> loop-lift -> optimize is most
  of the wall time.  It judges planning changes and bypasses the plan
  cache; execution is a minor share.  The run length is a fixed number
  of passes: the constructor leak makes Q10, the tail, slower with every
  pass, and with a deadline a fast stretch of the host ran more passes
  and read a slower tail.
* ``xmark-steady`` -- XMark scale 0.002, one long-lived ``Database``,
  the 20 queries prepared once (warm plan cache) and run as passes in a
  seeded order, every result fully serialized.  Planning does nothing;
  execution, node construction and serialization do everything.  The
  run length is a fixed number of passes, not seconds, because latency
  depends on how many constructor queries ran before: the drift metric
  shows the constructor leak.
* ``serve-mixed`` -- ``python -m repro serve --workers 0 --threads 1``
  with a fresh ``--store`` in its own process, one client process with
  one keep-alive connection, 2% "watch an auction" updates.  Phase A is
  a closed loop (capacity); phase B an open loop at a fixed rate, timed
  from each request's due time.  The only workload that crosses
  ``server/http.py`` and ``server/service.py`` and the only one that
  writes: every update fsyncs the WAL, invalidates the document's plans
  and re-emits the whole document into the arena.  One query thread:
  with two, concurrent constructor queries make each other re-sort the
  shared arena, and the same seed's throughput varies by a third from
  run to run.  One connection: with one query thread a second one only
  queues behind the first, which doubled the run-to-run spread of the
  median; in phase B the backlog queues at the client instead, and
  latency still counts from the due time.  Phase A is 0.7 whole passes
  of reads per second of the run, with an update after every 49th read,
  and only its service times are gated; phase B lasts a fifth of the
  run.  The constructor leak makes Q10 ten times slower over phase A, so
  the tail is a point on Q10's ramp: while the number of Q10 reads in
  the sample depended on the seed, the tail moved by a fifth between
  seeds.

Reference answers are computed by the baseline interpreter after the
timed region, and every response is compared byte for byte.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import repro
from repro.xmark import XMARK_QUERIES

from perfbench import inputs, metrics
from perfbench.tracing import Tracer, install, layer_totals, load_spans

ROOT = Path(__file__).resolve().parent.parent

#: reference-kernel samples after each set-up: set-up is scaled by the
#: host speed of its own seconds, which can differ from the run's by a
#: fifth
SETUP_KERNEL_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    """The fixed parameters of one workload."""

    name: str
    why: str
    scale: float
    #: set-ups per run; ``setup_s`` is their median
    setups: int = 5
    #: passes over the 20 queries per second of ``--seconds`` (xmark-steady;
    #: serve-mixed phase A)
    passes_per_second: float = 1.0
    #: serve-mixed phase B: fixed arrival rate and latency limit
    rate_qps: float = 6.0
    limit_ms: float = 1000.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "plan-cold",
            "XMark 0.001, 1 in-process closed-loop client, unique query texts in seeded "
            "passes (1 pass/s): loads parse/desugar/loop-lift/optimize (~80% of time); "
            "bypasses the plan cache",
            scale=0.001,
            setups=15,
        ),
        Workload(
            "xmark-steady",
            "XMark 0.002, 1 in-process client, one Database, 20 prepared queries in "
            "seeded passes (1 pass/s): loads execute/construct/serialize; bypasses planning",
            scale=0.002,
        ),
        Workload(
            "serve-mixed",
            "serve --threads 1 --store, 1 keep-alive conn, 2% updates; closed loop of 0.7 "
            "query passes per run second, then open loop at 6 req/s, limit 1000 ms: loads "
            "http/service/WAL",
            scale=0.002,
            passes_per_second=0.7,
        ),
    )
}


@dataclass
class Checker:
    """Every response of a phase, compared with the reference answers
    after the timed region."""

    #: (query name, reference text) -> Counter of the outputs seen
    outputs: dict = field(default_factory=lambda: defaultdict(Counter))
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)

    def record(self, name: str, key: str, output: str) -> None:
        self.attempted += 1
        self.outputs[(name, key)][output] += 1

    def fail(self, name: str, exc: BaseException | str) -> None:
        """Count an operation that produced no answer."""
        self.attempted += 1
        self.failed += 1
        self.wrong.append(f"{name}: {exc}")

    def check(self, oracle: inputs.Oracle) -> None:
        """Count every response that differs from the reference as a
        failed operation, naming its query."""
        for (name, key), seen in self.outputs.items():
            reference = oracle.answer(key)
            for output, times in seen.items():
                if output != reference:
                    self.failed += times
                    self.wrong.append(f"{name}: wrong answer x{times}")


@dataclass
class Phase:
    """What one measured phase produced."""

    metrics: dict
    notes: dict
    checker: Checker
    #: traced phases: span totals and their normalisers
    totals: dict | None = None
    requests: int = 0
    updates: int = 0
    client_latency_s: float | None = None
    #: serve-mixed: (drained store directory, acknowledged inserts)
    watch: tuple | None = None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timing_metrics(
    latencies: list[float], service: list[float], seconds: float, scale: float
) -> tuple:
    """Wall-clock latency and throughput over ``seconds``, and the same
    figures for the requests' service (CPU) times at reference speed."""
    tail_s, pct, n = metrics.tail(latencies)
    service = [scale * s for s in service]
    service_tail_s, service_pct, service_n = metrics.tail(service)
    values = {
        "latency_p50_ms": 1e3 * metrics.p50(latencies),
        "latency_tail_ms": 1e3 * tail_s,
        "throughput_qps": len(latencies) / seconds,
        "service_p50_ms": 1e3 * metrics.p50(service),
        "service_tail_ms": 1e3 * service_tail_s,
        "capacity_qps": len(service) / sum(service),
    }
    notes = {
        "tail_percentile": pct,
        "samples": n,
        "service_tail_percentile": service_pct,
        "service_samples": service_n,
        "host_scale": scale,
    }
    return values, notes


class _ServerCpu:
    """CPU time of every thread of a process, from
    ``/proc/<pid>/task/*/schedstat`` (nanoseconds on the CPU; time the
    host steals from the virtual CPU is not in it)."""

    def __init__(self, pid: int):
        self.task_dir = f"/proc/{pid}/task"

    def seconds(self) -> float:
        total = 0
        for tid in os.listdir(self.task_dir):
            try:
                with open(f"{self.task_dir}/{tid}/schedstat", "rb") as handle:
                    total += int(handle.read().split()[0])
            except (FileNotFoundError, ProcessLookupError):  # the thread ended meanwhile
                pass
        return total / 1e9


# ------------------------------------------------------------ in-process
def _inprocess(wl: Workload, seed: int, seconds: float, tracer: Tracer | None) -> Phase:
    steady = wl.name == "xmark-steady"
    xml = inputs.document(wl.scale)
    setup_times = []
    setup_speed = metrics.HostSpeed()
    for _ in range(wl.setups):
        session = prepared = None  # the previous set-up is garbage
        c0 = time.process_time()
        session = repro.connect()
        session.database.load_document(inputs.DOC_URI, xml)
        session.prepare(inputs.WARMUP_QUERY).execute().serialize()
        if steady:
            prepared = {name: session.prepare(XMARK_QUERIES[name]) for name in inputs.QUERY_NAMES}
        setup_times.append(time.process_time() - c0)
        setup_speed.sample(SETUP_KERNEL_SAMPLES)

    passes = max(2, round(seconds * wl.passes_per_second))
    if steady:
        schedule = (
            (name, XMARK_QUERIES[name], None)
            for order in inputs.steady_orders(seed, passes)
            for name in order
        )
    else:
        schedule = islice(
            inputs.ColdRequests(seed, wl.scale), passes * len(inputs.QUERY_NAMES)
        )

    checker = Checker()
    latencies: list[float] = []
    service: list[float] = []
    by_query: dict[str, list[float]] = defaultdict(list)  # in time order
    speed = metrics.HostSpeed()
    root = (lambda: tracer.span("api.request", root=True)) if tracer else nullcontext
    start = time.perf_counter()
    for i, (name, key, text) in enumerate(schedule):
        if i % 2 == 0:
            speed.sample()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with root():
                query = prepared[name] if steady else session.prepare(text)
                output = query.execute().serialize()
        except Exception as exc:  # a failed operation is counted, not fatal
            checker.fail(name, exc)
            continue
        elapsed = time.perf_counter() - t0
        service.append(time.process_time() - c0)
        latencies.append(elapsed)
        by_query[name].append(elapsed)
        checker.record(name, key, output)
    wall = time.perf_counter() - start - speed.wall_s
    rss = _peak_rss_mb()
    session = prepared = None

    scale = speed.scale()
    values, notes = _timing_metrics(latencies, service, wall, scale)
    values["setup_s"] = setup_speed.scale() * metrics.median(setup_times)
    values["peak_rss_mb"] = rss
    notes["setups"] = len(setup_times)
    notes["passes"] = passes
    if steady:
        values["latency_drift"] = metrics.drift(by_query)
    return Phase(values, notes, checker, requests=len(latencies))


# ----------------------------------------------------------- serve-mixed
class _Server:
    """One ``python -m repro serve`` process (or the traced launcher)."""

    def __init__(self, wl: Workload, doc_path: Path, store: Path, spans: Path | None):
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "serve_traced.py"), str(spans)]
        cmd += [
            "--workers", "0",
            "--threads", "1",
            "--store", str(store),
            "--doc", f"{inputs.DOC_URI}={doc_path}",
            "--port", "0",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.log = store.with_suffix(".log")
        with open(self.log, "wb") as err:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err
            )
        try:
            self.port = self._await_port(60.0)
            self._await_health(60.0)
            self.cpu = _ServerCpu(self.proc.pid)
            #: the server's CPU time from spawn until it answered /healthz
            self.setup_cpu_s = self.cpu.seconds()
        except BaseException:
            self.stop()
            raise

    def _await_port(self, timeout: float) -> int:
        lines: queue.Queue = queue.Queue()

        def pump():
            for raw in self.proc.stdout:
                lines.put(raw.decode("utf-8", "replace"))
            lines.put(None)

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()
        end = time.monotonic() + timeout
        while True:
            try:
                line = lines.get(timeout=max(0.0, end - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("the server printed no address in time") from None
            if line is None:
                raise RuntimeError(f"the server exited; see {self.log}")
            if line.startswith("serving on http://"):
                return int(line.split()[2].rsplit(":", 1)[1])

    def _await_health(self, timeout: float) -> None:
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    conn.close()
                    return
                conn.close()
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("the server never became healthy")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain + checkpoint), then wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._pump.join(timeout=10)
        self.proc.stdout.close()


class _Connection:
    """One keep-alive HTTP connection of the client."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def post(self, path: str, body: dict) -> tuple[int, dict]:
        self.conn.request(
            "POST", path, body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def _send(conn: _Connection, request: tuple) -> tuple[bool, object]:
    """Issue one request; returns (ok, result text or error)."""
    kind, name, bindings = request
    try:
        if kind == "update":
            status, payload = conn.post(
                "/update", {"query": inputs.WATCH_UPDATE, "bindings": bindings}
            )
            ok = status == 200 and payload.get("applied", {}).get("insert") == 1
        else:
            status, payload = conn.post("/query", {"query": XMARK_QUERIES[name]})
            ok = status == 200
        return ok, payload.get("result") if ok else payload
    except (OSError, http.client.HTTPException, ValueError) as exc:
        return False, exc


def _serve(wl: Workload, seed: int, seconds: float, work: Path, traced: bool) -> Phase:
    xml = inputs.document(wl.scale)
    doc_path = work / "auction.xml"
    doc_path.write_text(xml, encoding="utf-8")
    spans_path = work / "spans.jsonl" if traced else None
    setups = 1 if traced else wl.setups
    setup_times = []
    setup_speed = metrics.HostSpeed()
    for i in range(setups):
        server = _Server(wl, doc_path, work / f"store{i}", spans_path)
        setup_times.append(server.setup_cpu_s)
        setup_speed.sample(SETUP_KERNEL_SAMPLES)
        if i < setups - 1:
            server.stop()
    store = work / f"store{setups - 1}"
    sequence = inputs.ServeRequests(seed, wl.scale)
    # (phase, kind, name, latency from send, latency from due, ok, result,
    # service time)
    records: list[tuple] = []
    lateness: list[float] = []
    # phase A stops after whole passes of reads, so every seed's sample
    # holds each query equally often: the tail is a point on the steep
    # ramp of the slowest query (Q10, which the constructor leak makes
    # about ten times slower over the phase) and must sit at the same
    # place on every seed
    a_reads = len(inputs.QUERY_NAMES) * max(1, round(seconds * wl.passes_per_second))
    b_seconds = seconds / 5
    conn = None
    speed = metrics.HostSpeed()

    def send(request: tuple) -> tuple:
        """(ok, result, sent, done, service time) of one request."""
        s0 = server.cpu.seconds()
        c0 = time.thread_time()
        t0 = time.perf_counter()
        ok, result = _send(conn, request)
        done = time.perf_counter()
        c1 = time.thread_time()
        return ok, result, t0, done, c1 - c0 + server.cpu.seconds() - s0

    try:
        conn = _Connection(server.port)
        # warm the plan cache (one request per query) outside every measurement
        for name in inputs.QUERY_NAMES:
            conn.post("/query", {"query": XMARK_QUERIES[name]})

        # phase A: closed loop, the next request is sent on completion
        a_start = time.perf_counter()
        reads = 0
        while reads < a_reads:
            request = sequence.next()
            reads += request[0] == "query"
            if reads % 2 == 0:
                speed.sample()
            ok, result, t0, done, service = send(request)
            records.append(("A", *request[:2], done - t0, done - t0, ok, result, service))
        a_wall = time.perf_counter() - a_start - speed.wall_s

        # phase B: seeded open loop; latency counts from the due time, and
        # a backlog queues at the client
        due = inputs.arrivals(seed, wl.rate_qps, b_seconds)
        backlog: queue.Queue = queue.Queue()

        def generate():
            b_start = time.perf_counter()
            for offset in due:
                at = b_start + offset
                pause = at - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                lateness.append(time.perf_counter() - at)
                backlog.put((at, sequence.next()))
            backlog.put(None)

        generator = threading.Thread(target=generate)
        generator.start()
        while (item := backlog.get()) is not None:
            at, request = item
            ok, result, t0, done, service = send(request)
            records.append(("B", *request[:2], done - t0, done - at, ok, result, service))
        generator.join()
        rss = server.peak_rss_mb()
    finally:
        if conn is not None:
            conn.close()
        server.stop()

    checker = Checker()
    acked = 0
    for _phase, kind, name, _lat, _due, ok, result, _service in records:
        if not ok:
            checker.fail(name, result)
        elif kind == "update":
            checker.attempted += 1
            acked += 1
        else:
            checker.record(name, XMARK_QUERIES[name], result)

    # latency from send to completion over both phases; service time,
    # throughput and capacity from the closed loop only
    a = [r for r in records if r[0] == "A"]
    b = [r for r in records if r[0] == "B"]
    values, notes = _timing_metrics(
        [r[3] for r in records], [r[7] for r in a], a_wall, speed.scale()
    )
    values["throughput_qps"] = len(a) / a_wall
    values["setup_s"] = setup_speed.scale() * metrics.median(setup_times)
    values["peak_rss_mb"] = rss
    updates = [r[3] for r in records if r[1] == "update"]
    values["update_p50_ms"] = 1e3 * metrics.median(updates) if updates else float("nan")
    misses = sum(1 for r in b if not r[5] or r[4] * 1e3 > wl.limit_ms)
    values["slo_miss_frac"] = misses / len(b) if b else float("nan")
    notes.update(
        setups=len(setup_times),
        updates=len(updates),
        phase_b_requests=len(b),
        phase_b_rate_qps=wl.rate_qps,
        phase_b_limit_ms=wl.limit_ms,
        phase_b_p50_from_due_ms=1e3 * metrics.median([r[4] for r in b]) if b else float("nan"),
        generator_late_max_ms=1e3 * max(lateness, default=0.0),
        generator_late_mean_ms=1e3 * sum(lateness) / max(len(lateness), 1),
    )
    phase = Phase(
        values, notes, checker, requests=len(records), updates=len(updates),
        watch=(store, acked),
    )
    if traced:
        # drop the warm-up requests: perf_counter is CLOCK_MONOTONIC, one
        # clock for the client and the server process
        spans = load_spans(str(spans_path))
        starts = {sid: start for sid, name, start, *_ in spans if name == "http.request"}
        phase.totals = layer_totals(
            [span for span in spans if not span[5] or starts.get(span[5], 0.0) >= a_start]
        )
        phase.client_latency_s = sum(r[3] for r in records)
    return phase


def _check_watches(phase: Phase, oracle: inputs.Oracle) -> None:
    """Reopen the drained store: every acknowledged insert must be there."""
    store, acked = phase.watch
    expected = int(oracle.answer(inputs.WATCH_COUNT_QUERY)) + acked
    session = repro.connect(store=str(store))
    found = int(session.execute(inputs.WATCH_COUNT_QUERY).serialize())
    phase.checker.attempted += 1
    if found != expected:
        phase.checker.failed += 1
        phase.checker.wrong.append(f"watch: count(//watch) {found}, expected {expected}")


# ------------------------------------------------------------------ run
def _phase(wl: Workload, seed: int, seconds: float, work: Path, traced: bool) -> Phase:
    tracer = Tracer() if traced and wl.name != "serve-mixed" else None
    restore = install(tracer) if tracer else None
    try:
        if wl.name == "serve-mixed":
            phase = _serve(wl, seed, seconds, work, traced)
        else:
            phase = _inprocess(wl, seed, seconds, tracer)
    finally:
        if restore:
            restore()
    if tracer:
        tracer.dump(str(work / "spans.jsonl"))
        phase.totals = layer_totals(tracer.spans)
    # references: outside the timed region, with tracing removed
    oracle = inputs.Oracle(inputs.document(wl.scale))
    phase.checker.check(oracle)
    if wl.name == "serve-mixed":
        _check_watches(phase, oracle)
    phase.metrics["error_frac"] = phase.checker.failed / max(phase.checker.attempted, 1)
    return phase


def run(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload; with ``trace`` an untraced phase is followed by
    a traced one (the difference of their medians is the tracing
    overhead).  Returns the workload's section of the result file."""
    phases = []
    for traced in (False, True) if trace else (False,):
        phase_dir = work / f"{wl.name}-{'traced' if traced else 'untraced'}"
        phase_dir.mkdir(parents=True)
        phases.append(_phase(wl, seed, seconds, phase_dir, traced))
    base = phases[0]
    result = {
        "why": wl.why,
        "scale": wl.scale,
        "attempted": sum(p.checker.attempted for p in phases),
        "failed": sum(p.checker.failed for p in phases),
        "wrong": [w for p in phases for w in p.checker.wrong],
        "metrics": {
            name: {"value": value, "unit": metrics.metric_unit(name)}
            for name, value in base.metrics.items()
        },
        "notes": base.notes,
    }
    if trace:
        traced = phases[1]
        layers = metrics.per_layer(
            traced.totals,
            traced.requests,
            traced.updates,
            traced.client_latency_s,
            untraced_p50_ms=base.metrics["latency_p50_ms"],
            traced_p50_ms=traced.metrics["latency_p50_ms"],
        )
        result["per_layer"] = {
            name: {"value": value, "unit": metrics.metric_unit(name)}
            for name, value in layers.items()
        }
    return result
