"""E6 — the rewrite-pass optimizer ablation.

Three experiments:

* **plan sizes** (the paper's E6): loop-lifted plans are large (Q8 ≈ 120
  operators before optimization) and rewriting reduces them
  significantly; measured before/after per query.
* **cost-aware pass ablation**: execution time of the XMark join queries
  with the full pass pipeline versus selected passes disabled —
  ``python benchmarks/bench_optimizer.py [scale]`` prints the table.
  Selection pushdown is the headline: on the theta-join queries Q11/Q12
  it removes the boolean-selection machinery (σ/∪/×/\\ over every tuple
  iteration) from the hot path.
* **optimizer-mode ablation**: planning time and execution time of every
  XMark query under the three planning strategies (``cost``, ``greedy``,
  ``wcoj``), with a byte-equality check across modes; emits
  ``BENCH_optimizer.json`` so the perf trajectory is tracked across PRs.

Methodology for the ablations: plans are compiled once per configuration;
every timed run evaluates against one loaded document (constructed nodes
live in each execution's transient overlay, so repetitions do not slow
each other down); numpy is warmed up before measuring; the median of
``reps`` runs is reported (for planning time with its interquartile
range, since single runs of a few-millisecond planner flip rankings).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pytest

from repro import PathfinderEngine
from repro.compiler.loop_lifting import Compiler
from repro.relational import algebra as alg
from repro.relational.evaluate import EvalContext, evaluate
from repro.relational.optimizer import (
    CardinalityEstimator,
    OptimizerStats,
    optimize,
)
from repro.xmark import XMARK_QUERIES, generate_document
from repro.xquery.core import desugar_module
from repro.xquery.parser import parse_query

QUERIES = ["Q1", "Q5", "Q8", "Q10", "Q19", "Q20"]

#: the XMark join queries of the ablation (equi- and theta-joins)
JOIN_QUERIES = ("Q4", "Q8", "Q11", "Q12")

#: the cost-aware passes added on top of the structural ones
COST_AWARE = frozenset(
    {"fuse_select", "pushdown", "join_recognition", "distinct_elim", "join_order"}
)

DEFAULT_SCALE = 0.02
DEFAULT_REPS = 3
DEFAULT_JSON = "BENCH_optimizer.json"

#: the selectable planning strategies, in reporting order
MODES = ("cost", "greedy", "wcoj")


def _plan(engines, name):
    module = desugar_module(parse_query(XMARK_QUERIES[name]))
    compiler = Compiler(
        engines.pathfinder.documents, engines.pathfinder.default_document
    )
    return compiler.compile_module(module)


@pytest.mark.parametrize("query", QUERIES)
def test_optimize_time(benchmark, engines_small, query):
    plan = _plan(engines_small, query)
    benchmark.group = f"optimizer-{query}"
    benchmark.name = "optimize-pass"
    stats = OptimizerStats()
    benchmark.pedantic(optimize, args=(plan, stats), rounds=3, iterations=1)
    benchmark.extra_info["ops_before"] = stats.ops_before
    benchmark.extra_info["ops_after"] = stats.ops_after


@pytest.mark.parametrize("optimized", [True, False], ids=["opt-on", "opt-off"])
def test_execution_with_and_without(benchmark, optimized):
    text = generate_document(0.002)
    engine = PathfinderEngine(use_optimizer=optimized)
    engine.load_document("auction.xml", text)
    benchmark.group = "optimizer-exec-Q8"
    benchmark.name = "opt-on" if optimized else "opt-off"
    benchmark.pedantic(
        engine.execute, args=(XMARK_QUERIES["Q8"],), rounds=3, iterations=1
    )


@pytest.mark.parametrize("pushdown", [True, False], ids=["pushdown-on", "pushdown-off"])
def test_execution_with_and_without_pushdown(benchmark, pushdown):
    text = generate_document(0.002)
    disabled = frozenset() if pushdown else frozenset({"pushdown"})
    engine = PathfinderEngine(disabled_passes=disabled)
    engine.load_document("auction.xml", text)
    benchmark.group = "optimizer-exec-Q11"
    benchmark.name = "pushdown-on" if pushdown else "pushdown-off"
    benchmark.pedantic(
        engine.execute, args=(XMARK_QUERIES["Q11"],), rounds=3, iterations=1
    )


def test_q8_plan_size_matches_paper_ballpark(engines_small):
    """Paper: 'XMark query Q8, prior to optimization, compiles to a plan
    DAG of 120 operators'.  Our compiler is in the same regime."""
    plan = _plan(engines_small, "Q8")
    before = alg.op_count(plan)
    stats = OptimizerStats()
    optimize(plan, stats)
    assert 80 <= before <= 400
    assert stats.ops_after < before


# --------------------------------------------------------------------------
# script mode: the pushdown / cost-aware ablation table
# --------------------------------------------------------------------------
def _median_iqr(samples: list[float]) -> tuple[float, float]:
    """Median and interquartile range of ``samples`` (IQR 0 for one)."""
    if len(samples) < 2:
        return samples[0], 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return statistics.median(samples), q3 - q1


def _timed_eval(plan, engine, reps: int) -> float:
    """Median evaluation time of ``reps`` runs against ``engine``'s
    loaded document."""
    times = []
    for _ in range(reps):
        ctx = EvalContext(engine.arena, engine.documents)
        t0 = time.perf_counter()
        evaluate(plan, ctx)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_ablation(scale: float = DEFAULT_SCALE, reps: int = DEFAULT_REPS) -> list[dict]:
    """Time the join queries with full, pushdown-less and structural-only
    pass pipelines; returns one record per query (also printed)."""
    text = generate_document(scale)
    engine = PathfinderEngine()
    engine.load_document("auction.xml", text)
    estimator = CardinalityEstimator.from_database(engine.arena, engine.documents)
    engine.execute("count(//item)")  # numpy warm-up

    print(f"\n=== cost-aware pass ablation (XMark scale {scale}) ===")
    print(
        f"{'query':>6} {'all passes':>12} {'no pushdown':>12} "
        f"{'structural':>12} {'pushdown x':>11} {'cost-aware x':>13}"
    )
    records = []
    for name in JOIN_QUERIES:
        module = desugar_module(parse_query(XMARK_QUERIES[name]))
        plan = Compiler(engine.documents, engine.default_document).compile_module(module)
        full = optimize(plan, estimator=estimator)
        no_push = optimize(plan, estimator=estimator, disabled={"pushdown"})
        structural = optimize(plan, estimator=estimator, disabled=COST_AWARE)
        t_full = _timed_eval(full, engine, reps)
        t_nopush = _timed_eval(no_push, engine, reps)
        t_struct = _timed_eval(structural, engine, reps)
        rec = {
            "query": name,
            "full": t_full,
            "no_pushdown": t_nopush,
            "structural": t_struct,
        }
        records.append(rec)
        print(
            f"{name:>6} {t_full * 1000:>10.1f}ms {t_nopush * 1000:>10.1f}ms "
            f"{t_struct * 1000:>10.1f}ms {t_nopush / t_full:>10.2f}x "
            f"{t_struct / t_full:>12.2f}x"
        )
    print(
        "(pushdown x / cost-aware x = slowdown when disabling pushdown / "
        "all cost-aware passes)"
    )
    return records


def _serialized(plan, engine) -> str:
    """Serialize one evaluation of ``plan`` against ``engine``'s document."""
    from repro.compiler.serialize import serialize_result

    ctx = EvalContext(engine.arena, engine.documents)
    table = evaluate(plan, ctx)
    return serialize_result(table, ctx.arena)


def run_mode_ablation(
    scale: float = DEFAULT_SCALE,
    reps: int = DEFAULT_REPS,
    json_path: str | None = DEFAULT_JSON,
    queries: list[str] | None = None,
) -> dict:
    """Planning + execution time per optimizer mode across the XMark suite.

    For every query the plan is optimized ``reps`` times under each of
    :data:`MODES` (median and IQR of planning time; ``cost``/``wcoj``
    are handed the pre-built catalog statistics exactly as the
    production plan cache does, ``greedy`` gets none), executed ``reps``
    times against one loaded document (median reported), and the
    serialized outputs of the three modes are compared byte for byte.
    Per-mode planning totals are the median and IQR, over the ``reps``
    repetitions, of the whole suite's planning time.  Prints the table
    and writes ``json_path`` (one summary row, same shape as the other
    BENCH_*.json files).
    """
    text = generate_document(scale)
    engine = PathfinderEngine()
    engine.load_document("auction.xml", text)
    estimator = CardinalityEstimator.from_database(engine.arena, engine.documents)
    engine.execute("count(//item)")  # numpy warm-up
    names = list(queries) if queries else sorted(XMARK_QUERIES)

    print(f"\n=== optimizer-mode ablation (XMark scale {scale}) ===")
    print(
        f"{'query':>6} {'plan cost':>10} {'greedy':>8} {'wcoj':>8} "
        f"{'exec cost':>10} {'greedy':>8} {'wcoj':>8} {'wcoj x':>7} {'same':>5}"
    )
    per_query = []
    plan_runs = {m: [0.0] * reps for m in MODES}  # suite total per rep
    exec_totals = {m: 0.0 for m in MODES}
    for name in names:
        module = desugar_module(parse_query(XMARK_QUERIES[name]))
        plan = Compiler(engine.documents, engine.default_document).compile_module(
            module
        )
        row: dict = {"query": name}
        outputs = {}
        for mode in MODES:
            est = None if mode == "greedy" else estimator
            times = []
            optimized = None
            for rep in range(reps):
                t0 = time.perf_counter()
                optimized = optimize(plan, estimator=est, mode=mode)
                times.append(time.perf_counter() - t0)
                plan_runs[mode][rep] += times[-1]
            row[f"plan_{mode}_s"], row[f"plan_{mode}_iqr_s"] = _median_iqr(times)
            t_exec = _timed_eval(optimized, engine, reps)
            row[f"exec_{mode}_s"] = t_exec
            exec_totals[mode] += t_exec
            outputs[mode] = _serialized(optimized, engine)
        row["identical"] = len(set(outputs.values())) == 1
        per_query.append(row)
        wcoj_x = row["exec_cost_s"] / row["exec_wcoj_s"]
        print(
            f"{name:>6} {row['plan_cost_s'] * 1000:>8.2f}ms "
            f"{row['plan_greedy_s'] * 1000:>6.2f}ms "
            f"{row['plan_wcoj_s'] * 1000:>6.2f}ms "
            f"{row['exec_cost_s'] * 1000:>8.2f}ms "
            f"{row['exec_greedy_s'] * 1000:>6.2f}ms "
            f"{row['exec_wcoj_s'] * 1000:>6.2f}ms "
            f"{wcoj_x:>6.2f}x {'yes' if row['identical'] else 'NO':>5}"
        )

    plan_totals, plan_iqr = {}, {}
    for mode in MODES:
        plan_totals[mode], plan_iqr[mode] = _median_iqr(plan_runs[mode])
    greedy_plan_speedup = plan_totals["cost"] / plan_totals["greedy"]
    greedy_exec_ratio = exec_totals["greedy"] / exec_totals["cost"]
    wcoj_speedups = {
        r["query"]: r["exec_cost_s"] / r["exec_wcoj_s"] for r in per_query
    }
    wcoj_wins = sorted(q for q, x in wcoj_speedups.items() if x >= 1.3)
    all_identical = all(r["identical"] for r in per_query)
    print(f"planning totals, all {len(names)} queries (median ± IQR of {reps} reps):")
    for mode in MODES:
        print(
            f"  {mode:>6} {plan_totals[mode] * 1000:>8.1f}ms "
            f"± {plan_iqr[mode] * 1000:.1f}ms"
        )
    print(f"greedy plans {greedy_plan_speedup:.1f}x faster than cost")
    print(
        f"execution totals: cost {exec_totals['cost'] * 1000:.1f}ms, "
        f"greedy {exec_totals['greedy'] * 1000:.1f}ms "
        f"({greedy_exec_ratio:.3f}x of cost), "
        f"wcoj {exec_totals['wcoj'] * 1000:.1f}ms"
    )
    print(
        f"wcoj >=1.3x on: {', '.join(wcoj_wins) or 'none'}; "
        f"results identical across modes: {all_identical}"
    )

    row = {
        "bench": "optimizer_modes",
        "scale": scale,
        "reps": reps,
        "queries": names,
        "planning_total_s": plan_totals,
        "planning_total_iqr_s": plan_iqr,
        "execution_total_s": exec_totals,
        "greedy_planning_speedup": greedy_plan_speedup,
        "greedy_execution_ratio": greedy_exec_ratio,
        "wcoj_execution_speedups": wcoj_speedups,
        "wcoj_queries_at_least_1_3x": wcoj_wins,
        "all_results_identical": all_identical,
        "per_query": per_query,
    }
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(row, fh, indent=2)
            fh.write("\n")
        print(f"wrote {json_path}")
    return row


def main(argv: list[str]) -> int:
    scale = float(argv[1]) if len(argv) > 1 else DEFAULT_SCALE
    reps = int(argv[2]) if len(argv) > 2 else DEFAULT_REPS
    json_path = argv[3] if len(argv) > 3 else DEFAULT_JSON
    run_ablation(scale, reps)
    run_mode_ablation(scale, reps, json_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
