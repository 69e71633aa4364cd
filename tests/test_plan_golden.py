"""Golden-plan guard: the optimizer's output is pinned and deterministic.

* every XMark query × optimizer mode still compiles to the plan (and
  per-pass statistics) recorded in ``tests/data/golden_plans.json`` —
  a refactoring of the optimizer must not change what it produces;
* plans do not depend on the string-hash seed (``PYTHONHASHSEED``);
* the pass identity contract: a pass run that reports no rewrite returns
  its input root object itself.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.relational import optimizer
from repro.xmark import XMARK_QUERIES, generate_document

from tests import golden_plans

ROOT = Path(__file__).resolve().parent.parent


def test_plans_match_golden_fixture():
    expected = json.loads(golden_plans.FIXTURE.read_text())
    actual = golden_plans.digests()
    assert sorted(actual) == sorted(expected)
    changed = sorted(k for k in expected if actual[k] != expected[k])
    assert not changed, f"plans or pass statistics changed: {changed}"


def _digests_with_hash_seed(seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "tests.golden_plans"],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": str(seed)},
        timeout=300,
    )
    return json.loads(out.stdout)


def test_plans_do_not_depend_on_hash_seed():
    first, second = _digests_with_hash_seed(0), _digests_with_hash_seed(2)
    differ = sorted(k for k in first if first[k]["plan"] != second[k]["plan"])
    assert not differ, f"plans differ between hash seeds 0 and 2: {differ}"
    assert first == second


@pytest.fixture
def contract_checked(monkeypatch):
    """Wrap every registered pass so a run that reports no rewrite must
    hand back its input root; returns the list of violations."""
    violations: list[str] = []

    def checked(p: optimizer.RewritePass) -> optimizer.RewritePass:
        def fn(root, analysis):
            new_root, fired = p.fn(root, analysis)
            if fired == 0 and new_root is not root:
                violations.append(p.name)
            return new_root, fired

        return dataclasses.replace(p, fn=fn)

    monkeypatch.setattr(optimizer, "PASSES", tuple(map(checked, optimizer.PASSES)))
    monkeypatch.setattr(optimizer, "_GREEDY_PASS", checked(optimizer._GREEDY_PASS))
    monkeypatch.setattr(optimizer, "_TWIG_PASS", checked(optimizer._TWIG_PASS))
    return violations


def test_pass_without_rewrites_returns_its_root(contract_checked):
    database = repro.connect().database
    database.load_document("auction.xml", generate_document(golden_plans.SCALE))
    for query in XMARK_QUERIES.values():
        for mode in optimizer.OPTIMIZER_MODES:
            database.compile_query(query, use_optimizer=True, optimizer_mode=mode)
    assert contract_checked == []
