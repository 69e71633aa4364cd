"""Paper-shaped reports: regenerate every table and figure of Section 3.

Usage::

    python benchmarks/report.py table3     # Table 3 (both engines, 3 scales)
    python benchmarks/report.py figure4    # normalised scalability series
    python benchmarks/report.py storage    # Section 3.1 storage overhead
    python benchmarks/report.py figure5    # the Figure 5 plan, rendered
    python benchmarks/report.py staircase  # E5 staircase ablation
    python benchmarks/report.py optimizer  # E6 plan-size reductions
    python benchmarks/report.py joins      # E7 join-recognition ablation
    python benchmarks/report.py prepared   # plan-cache amortization
    python benchmarks/report.py serve      # HTTP serving throughput sweep
    python benchmarks/report.py cluster    # sharded worker-process scaling
    python benchmarks/report.py updates    # update latency vs re-shredding
    python benchmarks/report.py serialize  # document I/O fast path
    python benchmarks/report.py all
"""

from __future__ import annotations

import os
import sys
import time

# allow `python benchmarks/report.py ...` from anywhere
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.harness import (
    DEFAULT_TIMEOUT,
    SCALES,
    fmt_seconds,
    load_engines,
    time_baseline,
    time_pathfinder,
)
from repro import PathfinderEngine
from repro.xmark import XMARK_QUERIES, generate_document

BASELINE_SLOW = {"Q9", "Q10", "Q11", "Q12"}


def report_table3(scales=SCALES, timeout=DEFAULT_TIMEOUT):
    print("\n=== Table 3: query evaluation times (seconds) ===")
    print("(X-Hive -> nested-loop baseline with value indexes; DNF = over budget)")
    header = ["Q"]
    for s in scales:
        header += [f"base@{s}", f"PF@{s}"]
    print(" | ".join(f"{h:>11}" for h in header))
    for name in XMARK_QUERIES:
        cells = [name]
        for scale in scales:
            engines = load_engines(scale)
            budget = timeout / 4 if name in BASELINE_SLOW else timeout
            base = time_baseline(engines, name, timeout=budget, use_indexes=True)
            pf = time_pathfinder(engines, name)
            cells += [fmt_seconds(base), fmt_seconds(pf)]
        print(" | ".join(f"{c:>11}" for c in cells))


def report_figure4(scales=SCALES):
    print("\n=== Figure 4: Pathfinder times normalised to the middle scale ===")
    mid = scales[len(scales) // 2]
    print(f"(normalised to scale {mid}; linear scaling => ratios track node counts)")
    node_counts = {s: load_engines(s).node_count for s in scales}
    print(f"{'Q':>4} | " + " | ".join(f"x{s}" .rjust(9) for s in scales)
          + " |  (nodes: " + ", ".join(str(node_counts[s]) for s in scales) + ")")
    for name in XMARK_QUERIES:
        base = time_pathfinder(load_engines(mid), name)
        cells = []
        for scale in scales:
            t = time_pathfinder(load_engines(scale), name)
            cells.append(f"{t / base:9.2f}")
        print(f"{name:>4} | " + " | ".join(cells))


def report_storage(scales=SCALES):
    print("\n=== Section 3.1: storage overhead of the encoding ===")
    print(f"{'scale':>8} | {'xml bytes':>10} | {'encoded':>10} | {'overhead %':>10} "
          f"| {'nodes':>8} | {'pool entries':>12}")
    for scale in scales:
        engine = PathfinderEngine()
        text = generate_document(scale)
        engine.load_document("auction.xml", text)
        r = engine.storage_report()
        print(
            f"{scale:>8} | {r.xml_bytes:>10} | {r.encoded_bytes:>10} "
            f"| {r.overhead_pct:>10.1f} | {r.node_rows:>8} | {r.pool_entries:>12}"
        )


def report_figure5():
    print("\n=== Figure 5: plan for `for $v in (10,20) return $v + 100` ===")
    engine = PathfinderEngine()
    engine.load_document("d", "<r/>")
    report = engine.explain("for $v in (10,20) return $v + 100")
    print("\n-- loop-lifted plan (unoptimized), "
          f"{report.stats.ops_before} operators --")
    print(report.unoptimized_ascii)
    print(f"\n-- after peephole optimization, {report.stats.ops_after} operators --")
    print(report.plan_ascii)
    print("\nresult:", engine.execute("for $v in (10,20) return $v + 100").serialize())


def report_staircase():
    import numpy as np

    from repro.encoding.axes import Axis, element
    from repro.relational.staircase import naive_step, staircase_step

    print("\n=== E5: staircase join vs tree-unaware region join ===")
    print(f"{'scale':>8} | {'contexts':>8} | {'staircase s':>12} | {'naive s':>12} | {'speedup':>8}")
    for scale in SCALES:
        engines = load_engines(scale)
        engine = engines.pathfinder
        regions = engine.execute("/site/regions//*").table
        nodes = regions.item("item").data
        iters = np.ones(len(nodes), dtype=np.int64)
        t0 = time.perf_counter()
        staircase_step(engine.arena, iters, nodes, Axis.DESCENDANT, element("keyword"))
        t1 = time.perf_counter()
        naive_step(engine.arena, iters, nodes, Axis.DESCENDANT, element("keyword"))
        t2 = time.perf_counter()
        print(
            f"{scale:>8} | {len(nodes):>8} | {t1 - t0:>12.4f} | {t2 - t1:>12.4f} "
            f"| {(t2 - t1) / max(t1 - t0, 1e-9):>7.1f}x"
        )


def report_optimizer(ablation_scale=0.008, ablation_reps=3):
    from repro.compiler.loop_lifting import Compiler
    from repro.relational import algebra as alg
    from repro.relational.optimizer import OptimizerStats, optimize
    from repro.xquery.core import desugar_module
    from repro.xquery.parser import parse_query

    print("\n=== E6: peephole optimizer — plan sizes (paper: Q8 ~ 120 ops) ===")
    engines = load_engines(0.002)
    print(f"{'Q':>4} | {'ops before':>10} | {'ops after':>10} | {'reduction':>9}")
    for name in XMARK_QUERIES:
        module = desugar_module(parse_query(XMARK_QUERIES[name]))
        compiler = Compiler(
            engines.pathfinder.documents, engines.pathfinder.default_document
        )
        plan = compiler.compile_module(module)
        stats = OptimizerStats()
        optimize(plan, stats)
        print(
            f"{name:>4} | {stats.ops_before:>10} | {stats.ops_after:>10} "
            f"| {stats.reduction_pct:>8.0f}%"
        )

    # the cost-aware pass ablation on the join queries (pushdown etc.)
    from benchmarks.bench_optimizer import run_ablation, run_mode_ablation

    run_ablation(scale=ablation_scale, reps=ablation_reps)

    # planning/execution per optimizer mode (cost vs greedy vs wcoj)
    run_mode_ablation(scale=ablation_scale, reps=ablation_reps)


def report_joins():
    from repro.compiler.loop_lifting import Compiler
    from repro.relational.evaluate import EvalContext, evaluate
    from repro.xquery.core import desugar_module
    from repro.xquery.parser import parse_query

    from repro.relational import algebra as alg
    from repro.relational.optimizer import optimize

    print("\n=== E7: join recognition ablation (Q8–Q12) ===")
    print("(Q11/Q12 use '>' — a theta-join recognition cannot and should not touch)")
    print(f"{'Q':>4} | {'recognised':>10} | {'with JR s':>10} | {'without s':>10} | {'speedup':>8}")
    engines = load_engines(0.008)
    engine = engines.pathfinder
    for name in ("Q8", "Q9", "Q10", "Q11", "Q12"):
        module = desugar_module(parse_query(XMARK_QUERIES[name]))
        times = {}
        plans = {}
        for jr in (True, False):
            compiler = Compiler(
                engine.documents, engine.default_document, use_join_recognition=jr
            )
            plan = optimize(compiler.compile_module(module))
            plans[jr] = alg.op_count(plan)
            ctx = EvalContext(engine.arena, documents=engine.documents)
            t0 = time.perf_counter()
            evaluate(plan, ctx)
            times[jr] = time.perf_counter() - t0
        recognised = "yes" if plans[True] != plans[False] else "no"
        print(
            f"{name:>4} | {recognised:>10} | {times[True]:>10.3f} | {times[False]:>10.3f} "
            f"| {times[False] / times[True]:>7.1f}x"
        )


def report_sqlhost():
    from repro.compiler.serialize import serialize_result
    from repro.sqlhost import SQLHostBackend

    print("\n=== E8: back-end comparison — numpy column store vs SQL host ===")
    print("(non-constructing XMark queries; identical plans, identical results)")
    engines = load_engines(0.002)
    engine = engines.pathfinder
    backend = SQLHostBackend(engine.arena, engine.documents)
    print(f"{'Q':>4} | {'columnstore s':>13} | {'sql host s':>11} | {'ratio':>6} | agree")
    try:
        for name in ("Q1", "Q5", "Q6", "Q7", "Q18"):
            plan, _ = engine.compile(XMARK_QUERIES[name])
            from repro.relational.evaluate import EvalContext, evaluate

            ctx = EvalContext(engine.arena, documents=engine.documents)
            t0 = time.perf_counter()
            evaluate(plan, ctx)
            t1 = time.perf_counter()
            table = backend.execute(plan)
            t2 = time.perf_counter()
            agree = (
                serialize_result(table, ctx.arena)
                == engine.execute(XMARK_QUERIES[name]).serialize()
            )
            print(
                f"{name:>4} | {t1 - t0:>13.4f} | {t2 - t1:>11.4f} "
                f"| {(t2 - t1) / max(t1 - t0, 1e-9):>5.1f}x | {agree}"
            )
    finally:
        backend.close()


def report_prepared():
    from benchmarks.bench_prepared import report_prepared as run

    run()


def report_serve():
    from benchmarks.bench_serve import report_serve as run

    run()


def report_cluster():
    from benchmarks.bench_cluster import report_cluster as run

    run()


def report_updates():
    from benchmarks.bench_updates import report_updates as run

    run()


def report_serialize():
    from benchmarks.bench_serialize import report_serialize as run

    run()


REPORTS = {
    "table3": report_table3,
    "figure4": report_figure4,
    "storage": report_storage,
    "figure5": report_figure5,
    "staircase": report_staircase,
    "optimizer": report_optimizer,
    "joins": report_joins,
    "sqlhost": report_sqlhost,
    "prepared": report_prepared,
    "serve": report_serve,
    "cluster": report_cluster,
    "updates": report_updates,
    "serialize": report_serialize,
}


def main(argv):
    which = argv[1] if len(argv) > 1 else "all"
    if which == "all":
        for fn in REPORTS.values():
            fn()
        return 0
    fn = REPORTS.get(which)
    if fn is None:
        print(__doc__)
        return 1
    fn()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
