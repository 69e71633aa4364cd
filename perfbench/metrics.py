"""Metric definitions, the statistics behind them, and compare mode.

End-to-end metrics are what a user of the engine sees; per-layer
metrics come from the traced run's spans (see :mod:`perfbench.tracing`).
Timings are reported as a median and as the tail: the highest
percentile that still has ten samples beyond it.  Both are Harrell-Davis
estimates, a weighted mean of the order statistics around the quantile:
a workload mixes 20 queries of very different cost, and a single order
statistic jumps between the latency clusters of neighbouring queries.

The gated timings are *CPU time at reference speed*.  A request's
service time is the CPU time the threads serving it spent on it (the
client thread in process; the server's threads plus the client thread
for ``serve-mixed``), and a set-up's is the CPU time of the processes
that set up.  On a shared host, wall-clock time also counts the time
the host takes the virtual CPU away (steal), and the speed of the CPU
itself moves with the host's load: the same run measured 32 ms and
42 ms p50 on one 2-vCPU host a few minutes apart.  So every run also
times :func:`reference_kernel`, fixed work that uses no code of the
engine, before every other closed-loop request and after each set-up,
and scales the CPU times of the requests (of the set-ups) by
``REFERENCE_KERNEL_S`` / (the kernel's median CPU time among the
requests (the set-ups)): the figures read as on a host where the kernel
takes 2.5 ms.  A change to
the engine moves the figures; a change of host speed mostly does not.
Wall-clock latency and throughput are printed and kept beside them,
but not gated.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

#: name -> (unit, better); measured on every workload and gated
END_TO_END = {
    "setup_s": ("s", "lower"),
    "service_p50_ms": ("ms", "lower"),
    "service_tail_ms": ("ms", "lower"),
    "capacity_qps": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: printed and kept in the result file, but not gated: wall-clock
#: timings, which move with the host, and metrics that exist only on
#: some workloads or are 0 when all is well
REPORTED = {
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "throughput_qps": ("1/s", "higher"),
    "latency_drift": ("ratio", "lower"),
    "update_p50_ms": ("ms", "lower"),
    "slo_miss_frac": ("fraction", "lower"),
    "error_frac": ("fraction", "lower"),
}

#: name -> (unit, better, normaliser); ``_ms`` metrics are self time
_PER_REQUEST, _PER_UPDATE, _PER_LOAD = "request", "update", "load"
PER_LAYER = {
    "xquery.parse_ms": ("ms", "lower", _PER_REQUEST),
    "xquery.desugar_ms": ("ms", "lower", _PER_REQUEST),
    "loop_lifting.compile_ms": ("ms", "lower", _PER_REQUEST),
    "loop_lifting.plan_ops": ("count", "lower", _PER_REQUEST),
    "optimizer.optimize_ms": ("ms", "lower", _PER_REQUEST),
    "optimizer.estimator_ms": ("ms", "lower", _PER_REQUEST),
    "optimizer.pass_runs": ("count", "lower", _PER_REQUEST),
    "optimizer.plan_ops": ("count", "lower", _PER_REQUEST),
    "plan_cache.hit_ratio": ("ratio", "higher", _PER_REQUEST),
    "plan_cache.invalidations": ("count", "lower", _PER_REQUEST),
    "database.read_lock_wait_ms": ("ms", "lower", _PER_REQUEST),
    "evaluate.execute_ms": ("ms", "lower", _PER_REQUEST),
    "evaluate.result_rows": ("count", "lower", _PER_REQUEST),
    "staircase.step_ms": ("ms", "lower", _PER_REQUEST),
    "staircase.step_calls": ("count", "lower", _PER_REQUEST),
    "serialize.serialize_ms": ("ms", "lower", _PER_REQUEST),
    "serialize.output_bytes": ("bytes", "lower", _PER_REQUEST),
    "arena.nodes_added": ("count", "lower", _PER_REQUEST),
    "arena.attr_ranges_calls": ("count", "lower", _PER_REQUEST),
    "arena.attr_ranges_ms": ("ms", "lower", _PER_REQUEST),
    "database.apply_update_ms": ("ms", "lower", _PER_UPDATE),
    "updates.arena_nodes_added": ("count", "lower", _PER_UPDATE),
    "store.append_wal_ms": ("ms", "lower", _PER_UPDATE),
    "store.wal_bytes_per_update": ("bytes", "lower", _PER_UPDATE),
    "service.execute_ms": ("ms", "lower", _PER_REQUEST),
    "http.overhead_ms": ("ms", "lower", _PER_REQUEST),
    "shred.load_ms": ("ms", "lower", _PER_LOAD),
    "trace.latency_ms": ("ms", "lower", _PER_REQUEST),
    "trace.layer_sum_ms": ("ms", "lower", _PER_REQUEST),
    "trace.unaccounted_ms": ("ms", "lower", _PER_REQUEST),
    "trace.overhead_ms": ("ms", "lower", _PER_REQUEST),
}

#: span name -> per-layer self-time metric
_SELF_TIME = {
    "xquery.parse": "xquery.parse_ms",
    "xquery.desugar": "xquery.desugar_ms",
    "loop_lifting.compile": "loop_lifting.compile_ms",
    "optimizer.optimize": "optimizer.optimize_ms",
    "optimizer.estimator": "optimizer.estimator_ms",
    "database.read_lock_wait": "database.read_lock_wait_ms",
    "evaluate.execute": "evaluate.execute_ms",
    "staircase.step": "staircase.step_ms",
    "serialize.serialize": "serialize.serialize_ms",
    "arena.attr_ranges": "arena.attr_ranges_ms",
    "database.apply_update": "database.apply_update_ms",
    "store.append_wal": "store.append_wal_ms",
    "service.execute": "service.execute_ms",
}

#: (span name, count key) -> per-layer count metric
_COUNTS = {
    ("loop_lifting.compile", "plan_ops"): "loop_lifting.plan_ops",
    ("optimizer.optimize", "pass_runs"): "optimizer.pass_runs",
    ("optimizer.optimize", "plan_ops"): "optimizer.plan_ops",
    ("evaluate.execute", "result_rows"): "evaluate.result_rows",
    ("evaluate.execute", "nodes_added"): "arena.nodes_added",
    ("serialize.serialize", "output_bytes"): "serialize.output_bytes",
    ("database.apply_update", "nodes_added"): "updates.arena_nodes_added",
    ("store.append_wal", "wal_bytes"): "store.wal_bytes_per_update",
}

#: span name -> per-layer call-count metric
_CALLS = {
    "staircase.step": "staircase.step_calls",
    "arena.attr_ranges": "arena.attr_ranges_calls",
}

#: spans that open a request: their self time is the unaccounted rest
ROOT_SPANS = ("api.request", "http.request")


def median(values) -> float:
    """The median of a non-empty sample."""
    return statistics.median(values)


#: CPU time of :func:`reference_kernel` on the reference host
REFERENCE_KERNEL_S = 0.0025

#: the fixed input of the kernel's NumPy sort
_KERNEL_ARRAY = np.random.default_rng(1).random(150_000)


def reference_kernel() -> int:
    """A fixed piece of work of the two kinds the engine does: Python
    list, dict and sort work (about 40% of its time) and a NumPy sort of
    150k floats.  Over 64 fifteen-second plan-cold windows on a shared
    2-vCPU host, in which the unscaled p50 moved from 27 to 46 ms (log
    standard deviation 0.115), p50 scaled by this kernel kept a log
    standard deviation of 0.041; scaled by the Python part alone 0.054,
    by a pointer-chasing walk of a large heap 0.15."""
    data = [(i * 7919) % 10007 for i in range(2500)]
    counts: dict[int, int] = {}
    for i, x in enumerate(data):
        counts[x] = counts.get(x, 0) + i
    return len(counts) + sorted(data)[100] + int(np.sort(_KERNEL_ARRAY)[7] > 0.5)


class HostSpeed:
    """The reference kernel's CPU times over one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: wall-clock time spent in the kernel, for wall-clock throughput
        self.wall_s = 0.0

    def sample(self, times: int = 1) -> None:
        """Time the kernel ``times`` times on the calling thread."""
        for _ in range(times):
            t0 = time.perf_counter()
            c0 = time.thread_time()
            reference_kernel()
            self.samples.append(time.thread_time() - c0)
            self.wall_s += time.perf_counter() - t0

    def scale(self) -> float:
        """Factor from this run's CPU times to reference-speed ones."""
        return REFERENCE_KERNEL_S / median(self.samples)


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of a non-empty sample:
    order statistic ``i`` of ``n`` weighted by the Beta((n+1)p,
    (n+1)(1-p)) density at ``(i - 0.5) / n`` (midpoint rule)."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    logs = [
        (a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
        for i in range(n)
    ]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def p50(values) -> float:
    """The median latency (Harrell-Davis estimate)."""
    return quantile(values, 0.5)


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile of the sample
    with at least ten samples beyond it, ``100 (n - 10) / n``
    (Harrell-Davis estimate).  Samples of ten or fewer have no such
    percentile; their maximum is returned as percentile 100."""
    n = len(values)
    if n <= 10:
        return max(values), 100.0, n
    p = (n - 10) / n
    return quantile(values, p), 100.0 * p, n


def drift(samples_by_query: dict[str, list[float]]) -> float:
    """Geometric mean over queries of (median latency of the query's
    last tenth of samples) / (median of its first tenth), each tenth at
    least two samples; samples are in time order.  1.0 means flat."""
    logs = []
    for samples in samples_by_query.values():
        k = max(2, round(len(samples) / 10))
        if len(samples) < 2 * k:
            continue
        logs.append(math.log(median(samples[-k:]) / median(samples[:k])))
    return math.exp(sum(logs) / len(logs)) if logs else 1.0


def per_layer(
    totals: dict,
    requests: int,
    updates: int,
    client_latency_s: float | None,
    untraced_p50_ms: float,
    traced_p50_ms: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced phase.

    ``totals`` is :func:`perfbench.tracing.layer_totals` of its spans;
    ``client_latency_s`` the summed client-side latency of the
    ``requests`` (None when the root spans are the client's own).
    """
    req, bg = totals["req"], totals["bg"]
    per = {
        _PER_REQUEST: max(requests, 1),
        _PER_UPDATE: max(updates, 1),
    }
    out = dict.fromkeys(PER_LAYER, 0.0)
    for span, metric in _SELF_TIME.items():
        if span in req:
            out[metric] = 1e3 * req[span]["self"] / per[PER_LAYER[metric][2]]
    for (span, key), metric in _COUNTS.items():
        if span in req:
            out[metric] = req[span]["counts"].get(key, 0.0) / per[PER_LAYER[metric][2]]
    for span, metric in _CALLS.items():
        if span in req:
            out[metric] = req[span]["calls"] / per[_PER_REQUEST]
    lookups = req.get("plan_cache.lookup", {"counts": {}})["counts"]
    # no lookup at all (prepared once, never stale) is no miss either
    out["plan_cache.hit_ratio"] = (
        lookups["hits"] / lookups["lookups"] if lookups.get("lookups") else 1.0
    )
    invalidations = sum(
        req.get(span, {"counts": {}})["counts"].get("invalidations", 0.0)
        for span in ("plan_cache.lookup", "plan_cache.invalidate")
    )
    out["plan_cache.invalidations"] = invalidations / per[_PER_REQUEST]
    loads = [part["shred.load"] for part in (req, bg) if "shred.load" in part]
    load_calls = sum(slot["calls"] for slot in loads)
    if load_calls:
        out["shred.load_ms"] = 1e3 * sum(slot["self"] for slot in loads) / load_calls

    roots = [req[name] for name in ROOT_SPANS if name in req]
    root_total = sum(slot["total"] for slot in roots)
    latency = client_latency_s if client_latency_s is not None else root_total
    if client_latency_s is not None:
        out["http.overhead_ms"] = 1e3 * (client_latency_s - root_total) / per[_PER_REQUEST]
    layer_ms = out["http.overhead_ms"] + 1e3 * sum(
        slot["self"] for name, slot in req.items() if name not in ROOT_SPANS
    ) / per[_PER_REQUEST]
    out["trace.latency_ms"] = 1e3 * latency / per[_PER_REQUEST]
    out["trace.layer_sum_ms"] = layer_ms
    out["trace.unaccounted_ms"] = out["trace.latency_ms"] - layer_ms
    out["trace.overhead_ms"] = traced_p50_ms - untraced_p50_ms
    return out


def metric_unit(name: str) -> str:
    """The unit of any metric this benchmark reports."""
    for table in (END_TO_END, REPORTED, PER_LAYER):
        if name in table:
            return table[name][0]
    raise KeyError(name)


def metric_better(name: str) -> str:
    """``"lower"`` or ``"higher"`` for any reported metric."""
    for table in (END_TO_END, REPORTED, PER_LAYER):
        if name in table:
            return table[name][1]
    raise KeyError(name)


# ------------------------------------------------------------- compare
def compare(base_path: str, new_path: str, bounds: dict[str, float], out) -> int:
    """Print per-workload, per-metric deltas of two result files.

    Each delta is given with its base: ``new - base`` and its share of
    the base.  A metric that got worse by more than its bound (from
    ``BENCHMARK.json``) is flagged.  Returns the number of flagged
    metrics.
    """
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    print(f"base: {base_path}  ({_env_line(base)})", file=out)
    print(f"new:  {new_path}  ({_env_line(new)})", file=out)
    flagged = 0
    for workload, base_run in base["workloads"].items():
        new_run = new["workloads"].get(workload)
        if new_run is None:
            print(f"\n{workload}: missing from {new_path}", file=out)
            continue
        print(f"\n{workload}", file=out)
        print(f"  {'metric':<30}{'base':>14}{'new':>14}{'delta':>14}{'of base':>10}", file=out)
        pairs = [
            (name, entry, new_run[key][name])
            for key in ("metrics", "per_layer")
            for name, entry in base_run.get(key, {}).items()
            if name in new_run.get(key, {})
        ]
        for name, entry, new_entry in pairs:
            b, n = entry["value"], new_entry["value"]
            delta = n - b
            share = delta / b if b else float("nan")
            worse = -share if metric_better(name) == "higher" else share
            flag = ""
            if name in bounds and worse > bounds[name]:
                flag = f"  WORSE than bound {bounds[name]:.0%}"
                flagged += 1
            print(
                f"  {name:<30}{b:>14.4f}{n:>14.4f}{delta:>+14.4f}"
                f"{share:>+10.1%} {entry['unit']}{flag}",
                file=out,
            )
    return flagged


def _env_line(result: dict) -> str:
    env = result.get("env", {})
    return (
        f"nproc {env.get('nproc')}, python {env.get('python')}, "
        f"numpy {env.get('numpy')}, seed {result.get('args', {}).get('seed')}"
    )
