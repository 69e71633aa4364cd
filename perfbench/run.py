"""Run the repository benchmark, or compare two of its result files.

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --compare base.json new.json

Workloads: ``plan-cold``, ``xmark-steady``, ``serve-mixed`` (see
``perfbench/workloads.py`` for why each was chosen) or ``all``, which
runs each of them in a process of its own.  With ``--trace 0`` every
end-to-end metric is printed by name with its unit; with ``--trace 1``
an untraced phase is followed by a traced one and the per-layer metrics
are printed, with the sum of layer self times, the unaccounted
remainder and the tracing overhead.  Every answer is checked against
the baseline interpreter.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; a
result file with every metric and the environment is written too
(``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=("plan-cold", "xmark-steady", "serve-mixed", "all")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default: under perfbench/_work/results)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if not args.compare and not args.workload:
        parser.error("pass --workload or --compare")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _bounds() -> dict[str, float]:
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return {}
    with open(spec, encoding="utf-8") as handle:
        return {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}


def print_section(name: str, result: dict, args, out) -> None:
    """Print one workload's metrics, each by name with its unit."""
    from perfbench.metrics import END_TO_END, REPORTED

    notes = result["notes"]
    mode = "untraced + traced" if args.trace else "untraced"
    print(f"\n== {name}  (seed {args.seed}, {args.seconds:g} s, {mode}) ==", file=out)
    print(f"why: {result['why']}", file=out)
    tail = f"p{notes['tail_percentile']:.2f} of {notes['samples']} samples (10 beyond)"
    explain = {
        "setup_s": f"CPU time at reference speed, median of {notes['setups']} set-ups",
        "service_p50_ms": (
            f"CPU time per request x host scale {notes['host_scale']:.4f}, "
            f"n={notes['service_samples']}"
        ),
        "service_tail_ms": (
            f"p{notes['service_tail_percentile']:.2f} of {notes['service_samples']} "
            "samples (10 beyond)"
        ),
        "capacity_qps": "requests per CPU-second at reference speed, closed loop",
        "latency_p50_ms": f"wall clock, n={notes['samples']}",
        "latency_tail_ms": tail,
        "throughput_qps": "wall clock, closed loop",
    }
    if "passes" in notes:
        explain["latency_drift"] = f"{notes['passes']} passes"
    if "phase_b_requests" in notes:
        explain["slo_miss_frac"] = (
            f"{notes['phase_b_requests']} requests at {notes['phase_b_rate_qps']:g} req/s, "
            f"limit {notes['phase_b_limit_ms']:g} ms, p50 from due "
            f"{notes['phase_b_p50_from_due_ms']:.2f} ms, generator late max "
            f"{notes['generator_late_max_ms']:.2f} ms"
        )
        explain["update_p50_ms"] = f"{notes['updates']} updates"
    for metric in list(END_TO_END) + list(REPORTED):
        entry = result["metrics"].get(metric)
        if entry is not None:
            print(
                f"  {metric:<26}{entry['value']:>14.4f} {entry['unit']:<9}"
                f"{explain.get(metric, '')}",
                file=out,
            )
    for wrong in result["wrong"]:
        print(f"  FAILED {wrong}", file=out)
    layers = result.get("per_layer")
    if layers:
        print(
            "  per layer (traced; _ms = self time, per request; update metrics per "
            "update; shred.load_ms per load):",
            file=out,
        )
        for metric, entry in layers.items():
            print(f"    {metric:<30}{entry['value']:>14.4f} {entry['unit']}", file=out)
        print(
            f"  traced latency {layers['trace.latency_ms']['value']:.3f} ms = layer self "
            f"times {layers['trace.layer_sum_ms']['value']:.3f} ms + unaccounted "
            f"{layers['trace.unaccounted_ms']['value']:.3f} ms; tracing overhead (traced - "
            f"untraced latency_p50_ms) {layers['trace.overhead_ms']['value']:.3f} ms",
            file=out,
        )


def summary_line(sections: dict, trace: bool) -> dict:
    """The last output line: ``correct``, ``attempted``, ``failed`` and
    every end-to-end (``trace`` False) or per-layer metric; with several
    workloads each metric name is prefixed by its workload's."""
    from perfbench.metrics import END_TO_END, PER_LAYER

    key, wanted = ("per_layer", PER_LAYER) if trace else ("metrics", END_TO_END)
    prefix = len(sections) > 1
    return {
        "correct": all(s["failed"] == 0 for s in sections.values()),
        "attempted": sum(s["attempted"] for s in sections.values()),
        "failed": sum(s["failed"] for s in sections.values()),
        "metrics": {
            (f"{name}." if prefix else "") + metric: section[key][metric]
            for name, section in sections.items()
            for metric in wanted
        },
    }


def _run_alone(name: str, args, run_dir: Path) -> dict:
    """Run one workload in a process of its own and return its section:
    ``peak_rss_mb`` is a process's high-water mark, which must not carry
    over from the workloads run before it."""
    out = run_dir / f"{name}.json"
    run_dir.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"workload {name} exited with code {done.returncode}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][name]


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.compare:
        from perfbench.metrics import compare

        compare(*args.compare, _bounds(), sys.stdout)
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import numpy

    from perfbench import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    result = {
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "args": {"seed": args.seed, "seconds": args.seconds, "trace": args.trace},
        "workloads": {},
    }
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        for name in names:
            if len(names) == 1:
                section = workloads.run(
                    workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), run_dir
                )
            else:
                section = _run_alone(name, args, run_dir)
            result["workloads"][name] = section
            print_section(name, section, args, sys.stdout)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    out_path = Path(args.out) if args.out else (
        WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"\nresult file: {out_path}")

    print(json.dumps(summary_line(result["workloads"], bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
