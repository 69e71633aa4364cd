"""Canonical digests of the optimized XMark plans (the golden-plan guard).

For every XMark query under every optimizer mode, the plan is compiled
through ``Database.compile_query`` against one fixed XMark document and
reduced to two SHA-256 digests:

* ``plan`` -- of the canonical rendering: one line per operator in
  children-before-parents order, each the operator's structural key with
  its children named by their line numbers, so DAG sharing is part of
  the rendering;
* ``passes`` -- of the per-pass statistics tuple ``(name, runs,
  rewrites, ops_before, ops_after, est_rows)`` (wall-clock time left
  out), plus the plan-level round count and operator counts.

``tests/test_plan_golden.py`` compares these against the committed
fixture and across string-hash seeds.  Regenerate the fixture (only when
a change is *meant* to alter plans) with::

    PYTHONPATH=src python -m tests.golden_plans --write

and print the digests as JSON with ``PYTHONPATH=src python -m
tests.golden_plans``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import repro
from repro.relational import algebra as alg
from repro.relational.optimizer import OPTIMIZER_MODES
from repro.xmark import XMARK_QUERIES, generate_document

#: the document every golden plan is compiled against
SCALE = 0.002

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_plans.json"


def render(plan: alg.Op) -> str:
    """The canonical text of a plan DAG (independent of object ids)."""
    index: dict[alg.Op, int] = {}
    lines = []
    for node in alg.walk(plan):
        key = node.struct_key(tuple(index[c] for c in node.children))
        index[node] = len(index)
        lines.append(repr(key))
    return "\n".join(lines)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stats_tuple(stats) -> tuple:
    """Everything :class:`OptimizerStats` reports except timings."""
    passes = tuple(
        (p.name, p.runs, p.rewrites, p.ops_before, p.ops_after, p.est_rows)
        for p in stats.pass_stats
    )
    return (stats.passes, stats.ops_before, stats.ops_after, stats.estimated_rows, passes)


def digests(scale: float = SCALE) -> dict[str, dict[str, str]]:
    """``{"Qn/mode": {"plan": sha256, "passes": sha256}}`` for all 20
    XMark queries under every optimizer mode."""
    database = repro.connect().database
    database.load_document("auction.xml", generate_document(scale))
    out = {}
    for name in sorted(XMARK_QUERIES, key=lambda q: int(q[1:])):
        for mode in OPTIMIZER_MODES:
            cached = database.compile_query(
                XMARK_QUERIES[name], use_optimizer=True, optimizer_mode=mode
            )
            out[f"{name}/{mode}"] = {
                "plan": _sha(render(cached.plan)),
                "passes": _sha(repr(stats_tuple(cached.stats))),
            }
    return out


def main(argv: list[str]) -> int:
    result = digests()
    if "--write" in argv:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE} ({len(result)} plans)")
    else:
        json.dump(result, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
