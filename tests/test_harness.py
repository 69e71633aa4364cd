"""Smoke tests for the benchmark harness and report generators.

The benchmark harness is part of the deliverable (it regenerates every
table/figure), so its machinery is covered here: engine loading/caching,
row construction, DNF handling and each report function.
"""

import io
from contextlib import redirect_stdout

from benchmarks import harness, report


class TestHarness:
    def test_load_engines_cached(self):
        a = harness.load_engines(0.0005, seed=3)
        b = harness.load_engines(0.0005, seed=3)
        assert a is b
        assert a.node_count > 0 and a.xml_bytes > 0

    def test_run_query_row(self):
        engines = harness.load_engines(0.0005, seed=3)
        row = harness.run_query(engines, "Q1", timeout=20.0)
        assert row.pathfinder_seconds > 0
        assert row.speedup is None or row.speedup > 0

    def test_baseline_timeout_reports_dnf(self):
        engines = harness.load_engines(0.0008, seed=3)
        result = harness.time_baseline(engines, "Q9", timeout=0.001)
        assert result is None  # DNF

    def test_baseline_with_indexes(self):
        engines = harness.load_engines(0.0005, seed=3)
        t = harness.time_baseline(engines, "Q8", timeout=30.0, use_indexes=True)
        assert t is not None and t > 0

    def test_fmt_seconds(self):
        assert harness.fmt_seconds(None) == "DNF"
        assert harness.fmt_seconds(0.1234) == "0.123"
        assert harness.fmt_seconds(42.0) == "42.0"


class TestReports:
    def _run(self, fn, *args, **kwargs):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            fn(*args, **kwargs)
        return buffer.getvalue()

    def test_storage_report(self):
        out = self._run(report.report_storage, scales=(0.0005,))
        assert "overhead %" in out

    def test_figure5_report(self):
        out = self._run(report.report_figure5)
        assert "110 120" in out and "operators" in out

    def test_optimizer_report_lines(self, tmp_path, monkeypatch):
        # the report writes BENCH_optimizer.json into the working
        # directory: keep the committed trajectory file out of reach
        monkeypatch.chdir(tmp_path)
        out = self._run(report.report_optimizer, ablation_scale=0.0005, ablation_reps=1)
        assert (tmp_path / "BENCH_optimizer.json").exists()
        assert out.count("%") >= 20  # one reduction per query
        assert "pass ablation" in out and "pushdown" in out

    def test_table3_single_scale(self):
        out = self._run(report.report_table3, scales=(0.0005,), timeout=10.0)
        assert "Q20" in out and "PF@0.0005" in out

    def test_prepared_report(self):
        from benchmarks.bench_prepared import report_prepared

        out = self._run(report_prepared, scale=0.0005, reps=2)
        assert "speedup" in out and "Q8" in out

    def test_prepared_rows_show_amortization(self):
        from benchmarks.bench_prepared import run_prepared_bench

        rows = run_prepared_bench(scale=0.0005, reps=2, queries=("Q1",))
        assert rows[0]["cold_seconds"] > rows[0]["prepared_seconds"]

    def test_serve_bench_rows(self):
        """The serving sweep runs end to end over a real socket and
        reports throughput and latency percentiles per worker count,
        in both connection modes (keep-alive and per-request close)."""
        from benchmarks.bench_serve import run_serve_bench

        rows = run_serve_bench(
            scale=0.0005, seconds=0.4, worker_counts=(1, 2), queries=("Q1",)
        )
        assert [(r["workers"], r["connection"]) for r in rows] == [
            (1, "keep-alive"),
            (1, "close"),
            (2, "keep-alive"),
            (2, "close"),
        ]
        for row in rows:
            assert row["requests"] > 0
            assert row["throughput_rps"] > 0
            assert row["p50_ms"] <= row["p99_ms"]

    def test_main_dispatch_unknown(self):
        assert report.main(["report.py", "nonsense"]) == 1

    def test_main_dispatch_known(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = report.main(["report.py", "storage"])
        assert code == 0
