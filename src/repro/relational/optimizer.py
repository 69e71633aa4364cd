"""The rewrite-pass plan optimizer.

Loop-lifted plans are large and mechanical — the paper reports ~120
operators for XMark Q8 before optimization and cites peephole-style
rewriting [Grust, "Purely Relational FLWORs", XIME-P 2005] as the remedy.
This module organises that rewriting as an ordered pipeline of **named
rewrite passes** over the algebra DAG, run to a fixpoint by
:func:`optimize`.  Each pass is a pure ``plan → plan`` transform that
reports how many rewrites fired; per-pass statistics (operator counts,
rewrites, estimated root cardinality) surface through
:class:`OptimizerStats` into ``Session.explain`` and the CLI.

The default pipeline, in order (see ``docs/ARCHITECTURE.md`` for a worked
example):

* **cse** — hash-consing: structurally identical subplans are shared
  (loop-lifting emits the same ``loop`` relation many times);
* **fold** — compile-time evaluation: σ/π over literal tables, unions of
  literals, and empty-input propagation;
* **fuse_select** — ``σ (t = true) ∘ ⊛ t:cmp(a,b)`` becomes a direct
  ``σ a cmp b``, exposing the comparison to the passes below;
* **pushdown** — selections (σ) and semijoin restrictions (⋉) move below
  π, ⋈, ×, ⊛, ∪, ϱ, δ, aggregates and staircase joins whenever they only
  constrain one input, so downstream operators see fewer rows;
* **join_recognition** — ``σ (a = b)`` over a cross product (or over an
  equi-join, as an extra key) becomes an equi-join when both columns are
  plain numeric columns;
* **distinct_elim** — δ over provably duplicate-free input is dropped
  (e.g. directly above a staircase join, whose output is already
  sorted-distinct per iteration);
* **prune** — required-column (*icols*) analysis: only columns an
  ancestor consumes are kept; dead ``Map``/``RowNum``/``Atomize``
  targets are dropped entirely;
* **merge_projects** — π ∘ π collapses, identity π disappears;
* **join_order** — join inputs are swapped (under a schema-restoring π)
  so the side the sort-merge kernel sorts is the one estimated smaller,
  using :class:`CardinalityEstimator` seeded from literal/document leaves.

All rewrites except ``join_order`` are row-order-exact; ``join_order``
preserves the multiset of rows and refuses to reorder joins beneath any
consumer whose result could depend on physical row order (δ/str_join
without an order column, ϱ with ambiguous ties — see
:func:`_order_sensitive`).  The plan-equivalence test corpus guards all
of it end to end.

Each :func:`optimize` call shares one :class:`PlanAnalysis` among its
passes — topological orders, schemas, estimates, structural classes —
which stays exact across passes and rounds because plan nodes are
immutable and passes return what they leave alone unchanged.

:func:`optimize` additionally selects between three planning strategies
(:data:`OPTIMIZER_MODES`): ``cost`` runs the default pipeline above to a
fixpoint; ``greedy`` runs one round of the three highest-impact passes
plus a statistics-free syntax-ranked join ordering (no fixpoint, no
fingerprints, no cardinality estimation — a fraction of the planning
cost); ``wcoj`` appends a ``twig_collapse`` pass fusing chains of
staircase steps into one multi-way
:class:`~repro.relational.algebra.StructuralTwigJoin`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.encoding.axes import Axis
from repro.errors import AlgebraError
from repro.relational import algebra as alg


# --------------------------------------------------------------------------
# static schema inference
# --------------------------------------------------------------------------
def schema_of(
    op: alg.Op, memo: dict[alg.Op, tuple[str, ...]] | None = None
) -> tuple[str, ...]:
    """Infer the output schema of a plan node (column names).

    ``memo`` is keyed by the operator objects themselves (operators hash
    by identity), so it can be shared by every plan that reuses a node.
    """
    if memo is None:
        memo = {}
    cached = memo.get(op)
    if cached is not None:
        return cached
    result = _schema(op, memo)
    memo[op] = result
    return result


def _schema(op: alg.Op, memo) -> tuple[str, ...]:
    if isinstance(op, alg.Lit):
        return op.schema
    if isinstance(op, alg.Project):
        return tuple(new for new, _ in op.cols)
    if isinstance(op, (alg.Select,)):
        return schema_of(op.child, memo)
    if isinstance(op, alg.Union):
        return schema_of(op.inputs[0], memo)
    if isinstance(op, (alg.Difference, alg.SemiJoin)):
        return schema_of(op.left, memo)
    if isinstance(op, alg.Distinct):
        return schema_of(op.child, memo)
    if isinstance(op, (alg.Join, alg.Cross)):
        return schema_of(op.left, memo) + schema_of(op.right, memo)
    if isinstance(op, (alg.RowNum, alg.Map)):
        base = schema_of(op.child, memo)
        return base if op.target in base else base + (op.target,)
    if isinstance(op, alg.Atomize):
        base = schema_of(op.child, memo)
        return base if op.target in base else base + (op.target,)
    if isinstance(op, alg.Aggr):
        return (op.group, op.target) if op.group else (op.target,)
    if isinstance(op, (alg.StepJoin, alg.StructuralTwigJoin)):
        return (op.iter_col, op.item_col)
    if isinstance(op, (alg.ElemConstr, alg.TextConstr, alg.AttrConstr)):
        return ("iter", "item")
    if isinstance(op, (alg.DocRoot, alg.GenRange)):
        return ("iter", "pos", "item")
    if isinstance(op, alg.ParamTable):
        return ("pos", "item")
    raise AlgebraError(f"cannot infer schema of {type(op).__name__}")


def _item_cols_of(op: alg.Op, memo: dict[alg.Op, frozenset]) -> frozenset:
    """Which output columns are polymorphic item columns (best effort)."""
    cached = memo.get(op)
    if cached is not None:
        return cached
    result = _item_cols(op, memo)
    memo[op] = result
    return result


def _item_cols(op: alg.Op, memo) -> frozenset:
    if isinstance(op, alg.Lit):
        return op.item_cols
    if isinstance(op, alg.Project):
        child = _item_cols_of(op.child, memo)
        return frozenset(new for new, old in op.cols if old in child)
    if isinstance(op, (alg.Select, alg.Distinct)):
        return _item_cols_of(op.child, memo)
    if isinstance(op, alg.Union):
        return _item_cols_of(op.inputs[0], memo)
    if isinstance(op, (alg.Difference, alg.SemiJoin)):
        return _item_cols_of(op.left, memo)
    if isinstance(op, (alg.Join, alg.Cross)):
        return _item_cols_of(op.left, memo) | _item_cols_of(op.right, memo)
    if isinstance(op, alg.RowNum):
        return _item_cols_of(op.child, memo)
    if isinstance(op, alg.Map):
        base = _item_cols_of(op.child, memo)
        if op.fn in ("kind_code", "atom_cls", "atom_key"):
            return base - {op.target}
        return base | {op.target}
    if isinstance(op, alg.Atomize):
        return _item_cols_of(op.child, memo) | {op.target}
    if isinstance(op, alg.Aggr):
        if op.kind == "count":
            return frozenset()
        return frozenset({op.target})
    if isinstance(op, (alg.StepJoin, alg.StructuralTwigJoin)):
        return frozenset({op.item_col})
    if isinstance(op, (alg.ElemConstr, alg.TextConstr, alg.AttrConstr)):
        return frozenset({"item"})
    if isinstance(op, (alg.DocRoot, alg.GenRange, alg.ParamTable)):
        return frozenset({"item"})
    return frozenset()


# --------------------------------------------------------------------------
# cardinality estimation
# --------------------------------------------------------------------------
#: crude textbook selectivities for σ predicates (column vs constant /
#: column vs column); only *relative* magnitudes matter, for join ordering
_SEL_EQ_CONST = 0.1
_SEL_CMP_CONST = 0.4
_SEL_COL_COL = 0.25

#: per-axis output growth factors used by :class:`CardinalityEstimator`
_UNIT_AXES = frozenset({Axis.SELF, Axis.PARENT, Axis.ATTRIBUTE})
_DEEP_AXES = frozenset(
    {Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF, Axis.FOLLOWING, Axis.PRECEDING}
)


@dataclass
class CardinalityEstimator:
    """Simple bottom-up row-count estimates for plan DAGs.

    Estimates are seeded at the leaves — ``Lit`` row counts, ``DocRoot``
    (one row), ``GenRange`` expansion — and scaled upward with document
    statistics taken from the :class:`~repro.encoding.arena.NodeArena`
    (total shredded nodes per document, mean branching factor).  They are
    deliberately crude: the only consumer that *decides* anything with
    them is the ``join_order`` pass, which needs no more than "which join
    input is likely larger"; ``OptimizerStats`` additionally reports them
    for observability.
    """

    #: per-document shredded node counts (uri → rows of the node table)
    doc_rows: dict[str, float] = field(default_factory=dict)
    #: mean children per element — the child-axis growth factor
    child_fanout: float = 4.0
    #: growth factor of descendant-flavoured axes
    descendant_fanout: float = 16.0

    @classmethod
    def from_database(cls, arena, documents: dict[str, int]) -> "CardinalityEstimator":
        """Seed an estimator from a node arena and its document catalog."""
        # statistics must not fault cold fragments in: subtree_nodes and
        # logical_column answer from the paging records/memmaps directly
        doc_rows = {
            uri: float(arena.subtree_nodes(root)) for uri, root in documents.items()
        }
        total = sum(doc_rows.values())
        child_fanout, descendant_fanout = 4.0, 16.0
        if total > 1 and arena.num_nodes:
            level = arena.logical_column("level")
            depth = float(level.max()) if len(level) else 1.0
            depth = max(depth, 1.0)
            # nodes ≈ fanout^depth  ⇒  fanout ≈ nodes^(1/depth)
            child_fanout = min(max(total ** (1.0 / depth), 2.0), 64.0)
            descendant_fanout = min(max(child_fanout**2, 16.0), total)
        return cls(doc_rows, child_fanout, descendant_fanout)

    def estimate(self, op: alg.Op, memo: dict | None = None) -> float:
        """Estimated number of output rows of ``op`` (never below 0).

        ``memo`` is keyed by the operator objects themselves (operators
        hash by identity), so one memo can safely be reused across
        several plans sharing subtrees.
        """
        if memo is None:
            memo = {}
        cached = memo.get(op)
        if cached is not None:
            return cached
        result = self._estimate(op, memo)
        memo[op] = result
        return result

    def _estimate(self, op: alg.Op, memo) -> float:
        est = lambda c: self.estimate(c, memo)  # noqa: E731
        if isinstance(op, alg.Lit):
            return float(len(op.rows))
        if isinstance(op, alg.DocRoot):
            return 1.0
        if isinstance(op, alg.ParamTable):
            return 4.0  # bindings are unknown at compile time
        if isinstance(op, (alg.Project, alg.Map, alg.Atomize, alg.RowNum)):
            return est(op.child)
        if isinstance(op, alg.Select):
            consts = sum(1 for tag, _ in (op.lhs, op.rhs) if tag == "const")
            if consts:
                sel = _SEL_EQ_CONST if op.op == "eq" else _SEL_CMP_CONST
            else:
                sel = _SEL_COL_COL
            return est(op.child) * sel
        if isinstance(op, alg.Union):
            return sum(est(i) for i in op.inputs)
        if isinstance(op, alg.Difference):
            return est(op.left) * 0.6
        if isinstance(op, alg.SemiJoin):
            return est(op.left) * 0.6
        if isinstance(op, alg.Distinct):
            return est(op.child) * 0.6
        if isinstance(op, alg.Join):
            # assume a foreign-key-flavoured equi-join
            return max(est(op.left), est(op.right))
        if isinstance(op, alg.Cross):
            return est(op.left) * est(op.right)
        if isinstance(op, alg.Aggr):
            if op.group is None:
                return 1.0
            return max(est(op.child) * 0.2, 1.0)
        if isinstance(op, alg.StepJoin):
            if op.axis in _UNIT_AXES:
                fanout = 1.0
            elif op.axis in _DEEP_AXES:
                fanout = self.descendant_fanout
                if self.doc_rows and self._reaches_doc(op.child, memo):
                    # a descendant-flavoured step fanning out of a document
                    # root scans whole documents, not a fixed factor
                    fanout = max(fanout, max(self.doc_rows.values()))
            else:
                fanout = self.child_fanout
            return est(op.child) * fanout
        if isinstance(op, alg.StructuralTwigJoin):
            rows = est(op.child)
            for axis, _ in op.steps:
                if axis in _UNIT_AXES:
                    rows *= 1.0
                elif axis in _DEEP_AXES:
                    rows *= self.descendant_fanout
                else:
                    rows *= self.child_fanout
            return rows
        if isinstance(op, alg.GenRange):
            return est(op.child) * 8.0
        if isinstance(op, (alg.ElemConstr, alg.AttrConstr)):
            return est(op.children[0])
        if isinstance(op, alg.TextConstr):
            return est(op.content)
        return 1.0

    def _reaches_doc(self, op: alg.Op, memo) -> bool:
        """Does ``op``'s subtree contain a ``DocRoot`` leaf?  (Memoised in
        the same dict as the row estimates, under tagged keys.)"""
        key = ("doc", op)
        cached = memo.get(key)
        if cached is not None:
            return cached
        memo[key] = False  # cycle-safe default; plans are DAGs anyway
        result = isinstance(op, alg.DocRoot) or any(
            self._reaches_doc(c, memo) for c in op.children
        )
        memo[key] = result
        return result


# --------------------------------------------------------------------------
# uniqueness analysis (feeds the distinct_elim pass)
# --------------------------------------------------------------------------
_MAX_UNIQUE_SETS = 8


def _unique_sets(op: alg.Op, memo: dict[alg.Op, frozenset]) -> frozenset:
    """Column sets on which ``op``'s output rows are provably unique.

    The empty set means the relation has at most one row (then every key
    set is trivially unique).  Best-effort and capped: missing facts are
    always safe, they only make ``distinct_elim`` fire less.
    """
    cached = memo.get(op)
    if cached is not None:
        return cached
    # deterministic truncation: prefer the most general (smallest) facts
    ordered = sorted(_unique(op, memo), key=lambda s: (len(s), sorted(s)))
    result = frozenset(ordered[:_MAX_UNIQUE_SETS])
    memo[op] = result
    return result


def _unique(op: alg.Op, memo) -> frozenset:
    if isinstance(op, alg.Lit):
        return frozenset({frozenset()}) if len(op.rows) <= 1 else frozenset()
    if isinstance(op, (alg.DocRoot,)):
        return frozenset({frozenset()})
    if isinstance(op, alg.ParamTable):
        return frozenset({frozenset({"pos"})})
    if isinstance(op, (alg.StepJoin, alg.StructuralTwigJoin)):
        return frozenset({frozenset({op.iter_col, op.item_col})})
    if isinstance(op, alg.GenRange):
        # each iteration's range has distinct values and dense pos — but
        # only if no iteration occurs twice in the input
        if any(u <= frozenset({"iter"}) for u in _unique_sets(op.child, memo)):
            return frozenset(
                {frozenset({"iter", "pos"}), frozenset({"iter", "item"})}
            )
        return frozenset()
    if isinstance(op, alg.Distinct):
        return _unique_sets(op.child, memo) | frozenset({frozenset(op.keys)})
    if isinstance(op, (alg.Select, alg.SemiJoin, alg.Difference)):
        return _unique_sets(op.children[0], memo)
    if isinstance(op, (alg.Map, alg.Atomize)):
        # the target may overwrite a column: facts mentioning it go stale
        return frozenset(
            s for s in _unique_sets(op.child, memo) if op.target not in s
        )
    if isinstance(op, alg.RowNum):
        base = frozenset(
            s for s in _unique_sets(op.child, memo) if op.target not in s
        )
        mine = frozenset({op.target}) if op.group is None else frozenset(
            {op.group, op.target}
        )
        return base | frozenset({mine})
    if isinstance(op, alg.Project):
        out = set()
        by_old: dict[str, str] = {}
        for new, old in op.cols:
            by_old.setdefault(old, new)
        for s in _unique_sets(op.child, memo):
            if all(c in by_old for c in s):
                out.add(frozenset(by_old[c] for c in s))
        return frozenset(out)
    if isinstance(op, alg.Aggr):
        if op.group is None:
            return frozenset({frozenset()})
        return frozenset({frozenset({op.group})})
    if isinstance(op, (alg.Join, alg.Cross)):
        lsets = _unique_sets(op.left, memo)
        rsets = _unique_sets(op.right, memo)
        out = {ls | rs for ls in lsets for rs in rsets}
        if isinstance(op, alg.Join):
            # right unique on the join keys ⇒ each left row matches ≤ 1
            rkeys = frozenset(r for _, r in op.keys)
            if any(rs <= rkeys for rs in rsets):
                out |= set(lsets)
            lkeys = frozenset(l for l, _ in op.keys)
            if any(ls <= lkeys for ls in lsets):
                out |= set(rsets)
        return frozenset(out)
    return frozenset()


# --------------------------------------------------------------------------
# shared plan analysis (one per optimize() call)
# --------------------------------------------------------------------------
class PlanAnalysis:
    """Everything the passes of one :func:`optimize` call learn about plans.

    Plan nodes are immutable, so a fact about a node — its schema, item
    columns, uniqueness facts, estimated rows, structural class — holds
    for as long as the node exists, across every pass and fixpoint round;
    a plan's topological order is cached per root.  Passes
    preserve the identity of what they leave alone (a pass that fires no
    rewrite returns its input root), so later passes and rounds find
    most answers here instead of recomputing them.

    Every memo is keyed by the operator objects themselves, which also
    keeps the nodes alive while the analysis lives: an ``id()``-keyed
    memo could hand a dead node's answer to a new node that reused its
    address.
    """

    def __init__(self, estimator: CardinalityEstimator):
        #: the cardinality estimator (its ``estimate`` is the traced hook)
        self.estimator = estimator
        self._orders: dict[alg.Op, list[alg.Op]] = {}
        self._schemas: dict[alg.Op, tuple[str, ...]] = {}
        self._items: dict[alg.Op, frozenset] = {}
        self._unique: dict[alg.Op, frozenset] = {}
        self._estimates: dict = {}
        #: node → structural class id; struct key → class id (hash consing)
        self._class_of: dict[alg.Op, int] = {}
        self._classes: dict[tuple, int] = {}

    def order(self, root: alg.Op) -> list[alg.Op]:
        """The plan's distinct nodes, children before parents."""
        order = self._orders.get(root)
        if order is None:
            order = self._orders[root] = alg.walk(root)
        return order

    def op_count(self, root: alg.Op) -> int:
        """Number of distinct operators of the plan."""
        return len(self.order(root))

    def parent_counts(self, root: alg.Op) -> dict[alg.Op, int]:
        """Number of consumers of each node within the plan (a new dict)."""
        counts: dict[alg.Op, int] = {}
        for node in self.order(root):
            for child in node.children:
                counts[child] = counts.get(child, 0) + 1
        return counts

    def schema(self, op: alg.Op) -> tuple[str, ...]:
        """Output columns of ``op`` (:func:`schema_of`)."""
        cached = self._schemas.get(op)
        return cached if cached is not None else schema_of(op, self._schemas)

    def item_cols(self, op: alg.Op) -> frozenset:
        """Polymorphic item columns of ``op``."""
        return _item_cols_of(op, self._items)

    def unique_sets(self, op: alg.Op) -> frozenset:
        """Column sets on which ``op``'s rows are provably unique."""
        return _unique_sets(op, self._unique)

    def estimate(self, op: alg.Op) -> float:
        """Estimated output rows of ``op``."""
        cached = self._estimates.get(op)
        if cached is not None:
            return cached
        return self.estimator.estimate(op, self._estimates)

    def class_id(self, node: alg.Op) -> int:
        """The structural class of ``node``: equal ids ⇔ identical
        subplans (as trees).  The children's classes must be known —
        visit nodes children-first, as :meth:`order` lists them."""
        cid = self._class_of.get(node)
        if cid is None:
            key = node.struct_key(tuple(self._class_of[c] for c in node.children))
            cid = self._classes.setdefault(key, len(self._classes))
            self._class_of[node] = cid
        return cid

    def fingerprint(self, root: alg.Op) -> int:
        """A structural fingerprint of the plan (fixpoint detection).

        Exact, not a hash: two plans seen by this analysis have equal
        fingerprints iff they are structurally identical.
        """
        class_id = self.class_id
        for node in self.order(root):
            class_id(node)
        return self._class_of[root]


# --------------------------------------------------------------------------
# optimizer statistics
# --------------------------------------------------------------------------
@dataclass
class PassStats:
    """Aggregated statistics of one named rewrite pass across all rounds."""

    #: registry name of the pass (see :data:`PASS_NAMES`)
    name: str
    #: how many fixpoint rounds ran this pass
    runs: int = 0
    #: total rewrites the pass fired
    rewrites: int = 0
    #: operator count before the pass first ran
    ops_before: int = 0
    #: operator count after the pass most recently ran
    ops_after: int = 0
    #: estimated root cardinality after the pass most recently ran
    est_rows: float | None = None
    #: total wall-clock seconds spent inside the pass across all rounds
    seconds: float = 0.0


@dataclass
class OptimizerStats:
    """Plan-level and per-pass optimizer counters (benchmark E6, explain)."""

    #: operator count of the plan handed to :func:`optimize`
    ops_before: int = 0
    #: operator count of the returned plan
    ops_after: int = 0
    #: fixpoint rounds executed
    passes: int = 0
    #: per-pass statistics, in pipeline order
    pass_stats: list[PassStats] = field(default_factory=list)
    #: estimated root cardinality of the optimized plan
    estimated_rows: float | None = None

    @property
    def reduction_pct(self) -> float:
        """Plan-size reduction achieved, as a percentage of ``ops_before``."""
        if self.ops_before == 0:
            return 0.0
        return 100.0 * (self.ops_before - self.ops_after) / self.ops_before

    def pass_table(self) -> str:
        """The per-pass statistics as an aligned text table."""
        header = (
            f"{'pass':<18}{'runs':>5}{'fired':>7}{'ops in':>8}"
            f"{'ops out':>9}{'est rows':>10}{'ms':>8}"
        )
        lines = [header]
        for p in self.pass_stats:
            est = f"{p.est_rows:,.0f}" if p.est_rows is not None else "-"
            lines.append(
                f"{p.name:<18}{p.runs:>5}{p.rewrites:>7}{p.ops_before:>8}"
                f"{p.ops_after:>9}{est:>10}{p.seconds * 1000.0:>8.2f}"
            )
        return "\n".join(lines)


# --------------------------------------------------------------------------
# optimizer driver
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class RewritePass:
    """A named, stats-reporting transform over the algebra DAG.

    Contract: a run that fires no rewrite returns its input root object
    itself, and a rewritten plan shares every node the pass left alone —
    that identity is what lets the :class:`PlanAnalysis` memos carry over
    from pass to pass.
    """

    #: registry name (what ``disabled=`` and the CLI refer to)
    name: str
    #: one-line description (docs, ``--explain`` output)
    description: str
    #: the transform: ``(root, analysis) → (new_root, rewrites_fired)``
    fn: Callable[[alg.Op, PlanAnalysis], tuple[alg.Op, int]]


_MAX_ROUNDS = 10

#: the selectable planning strategies (see :func:`optimize`)
OPTIMIZER_MODES: tuple[str, ...] = ("cost", "greedy", "wcoj")


#: the passes ``greedy`` keeps from the default pipeline (one round each):
#: cse dedups the shared-subtree DAG, pushdown moves selections below the
#: joins, prune drops dead columns — the three with the largest measured
#: execution impact; everything else is planning cost greedy does without
_GREEDY_PASS_NAMES: tuple[str, ...] = ("cse", "pushdown", "prune")


def _pipeline_for_mode(
    mode: str,
) -> tuple[tuple[RewritePass, ...], tuple[RewritePass, ...]]:
    """(fixpoint passes, post-fixpoint passes) for an optimizer mode.

    ``twig_collapse`` is a *post* pass: it must only fire once the
    pipeline has converged, because a collapsed twig hides its pairwise
    steps from pushdown and join ordering — collapsing mid-fixpoint
    measurably regressed plans whose steps still had selections to push.
    """
    if mode == "greedy":
        loop = tuple(p for p in PASSES if p.name in _GREEDY_PASS_NAMES)
        return loop + (_GREEDY_PASS,), ()
    if mode == "wcoj":
        return PASSES, (_TWIG_PASS,)
    return PASSES, ()


def pass_names_for_mode(mode: str) -> tuple[str, ...]:
    """Every pass name :func:`optimize` accepts in ``disabled`` under
    ``mode``: the default registry (:data:`PASS_NAMES`) plus the mode's
    own passes (``greedy_order``, ``twig_collapse``) — what the CLI
    validates ``--disable-pass`` against."""
    names = list(PASS_NAMES)
    loop, post = _pipeline_for_mode(mode)
    names.extend(p.name for p in loop + post if p.name not in names)
    return tuple(names)


def optimize(
    root: alg.Op,
    stats: OptimizerStats | None = None,
    *,
    disabled: frozenset[str] | set[str] | tuple = frozenset(),
    estimator: CardinalityEstimator | None = None,
    trace: list | None = None,
    mode: str = "cost",
) -> alg.Op:
    """Run the rewrite-pass pipeline to a (bounded) fixpoint.

    ``mode`` selects the planning strategy (:data:`OPTIMIZER_MODES`):

    * ``cost`` — the default pipeline; ``join_order`` decides with the
      cardinality estimator and per-pass statistics include estimates;
    * ``greedy`` — no statistics anywhere: a single round of the three
      highest-impact passes (:data:`_GREEDY_PASS_NAMES`) plus the
      syntax-ranked ``greedy_order`` pass, with no fixpoint iteration,
      no structural fingerprints and no cardinality estimates —
      planning cost drops sharply, plan quality may too (execution-time
      early termination on empty intermediates limits the downside);
    * ``wcoj`` — the ``cost`` pipeline plus a final ``twig_collapse``
      pass that fuses chains of pairwise staircase steps into one
      multi-way :class:`~repro.relational.algebra.StructuralTwigJoin`.

    ``disabled`` names passes to skip (must be members of
    :data:`PASS_NAMES` or of the selected mode's pipeline); ``estimator``
    seeds cardinality estimation (a default, statistics-free estimator is
    used when omitted); ``trace``, when a list, receives one
    ``(pass_name, plan)`` snapshot after every pass application that
    changed the plan — the hook behind ``examples/plan_explorer.py``'s
    per-pass diffs.
    """
    if mode not in OPTIMIZER_MODES:
        raise AlgebraError(
            f"unknown optimizer mode {mode!r}; "
            f"available: {', '.join(OPTIMIZER_MODES)}"
        )
    pipeline, post = _pipeline_for_mode(mode)
    allowed = set(PASS_NAMES) | {p.name for p in pipeline + post}
    unknown = set(disabled) - allowed
    if unknown:
        raise AlgebraError(
            f"unknown optimizer pass(es) {sorted(unknown)}; "
            f"available: {', '.join(PASS_NAMES)}"
        )
    collect = stats is not None
    estimates = mode != "greedy"
    # one analysis for the whole run: every node a pass leaves in place
    # keeps its cached facts, and an unchanged plan its order
    analysis = PlanAnalysis(
        estimator if estimator is not None else CardinalityEstimator()
    )
    active = [p for p in pipeline if p.name not in set(disabled)]
    post_active = [p for p in post if p.name not in set(disabled)]
    per = {p.name: PassStats(p.name) for p in (*active, *post_active)}
    cur_ops = analysis.op_count(root) if collect else 0
    if collect:
        stats.ops_before = cur_ops

    def _apply(p: RewritePass) -> None:
        nonlocal root, cur_ops
        if collect:
            ps = per[p.name]
            if ps.runs == 0:
                ps.ops_before = cur_ops
        t0 = time.perf_counter()
        new_root, fired = p.fn(root, analysis)
        elapsed = time.perf_counter() - t0
        if collect:
            ps.runs += 1
            ps.rewrites += fired
            ps.seconds += elapsed
            if fired:
                cur_ops = analysis.op_count(new_root)
            ps.ops_after = cur_ops
            if estimates:
                ps.est_rows = analysis.estimate(new_root)
        if trace is not None and fired and new_root is not root:
            trace.append((p.name, new_root))
        root = new_root

    rounds = 0
    fingerprint = analysis.fingerprint(root) if estimates else None
    for i in range(_MAX_ROUNDS):
        rounds = i + 1
        start = root
        for p in active:
            _apply(p)
        if not estimates:
            # greedy: one round, no fixpoint iteration — each pass gets
            # one shot and execution-time early termination on empty
            # intermediates covers what a second round would have won
            break
        if root is start:
            break  # no pass rewrote anything (the identity contract)
        next_fingerprint = analysis.fingerprint(root)
        if next_fingerprint == fingerprint:
            break
        fingerprint = next_fingerprint
    for p in post_active:
        # post passes fire exactly once, on the converged plan (wcoj's
        # twig_collapse: fused twigs must not hide steps from the loop)
        _apply(p)
    if collect:
        stats.passes = rounds
        stats.ops_after = analysis.op_count(root)
        stats.pass_stats = list(per.values())
        if estimates:
            stats.estimated_rows = analysis.estimate(root)
    return root


def _rewrite_bottom_up(
    root: alg.Op, analysis: PlanAnalysis, rewrite_one
) -> tuple[alg.Op, int]:
    """Shared pass skeleton: rebuild the DAG children-first, offering
    every node to ``rewrite_one(node) -> Op | None``; counts the nodes it
    rewrote.  New passes usually only need a ``rewrite_one``."""
    rebuilt: dict[alg.Op, alg.Op] = {}
    fired = 0
    for node in analysis.order(root):
        new = _rebuilt(node, rebuilt)
        replacement = rewrite_one(new)
        if replacement is not None and replacement is not new:
            new = replacement
            fired += 1
        rebuilt[node] = new
    return rebuilt[root], fired


# --------------------------------------------------------------------------
# pass: common subexpression elimination (hash consing)
# --------------------------------------------------------------------------
def _cse(root: alg.Op, analysis: PlanAnalysis) -> tuple[alg.Op, int]:
    # the first node of each structural class (children-first order)
    # represents it; rebuilt children are representatives, so a class
    # id decides exactly what a key over the children's identities would
    canon: dict[int, alg.Op] = {}
    rebuilt: dict[alg.Op, alg.Op] = {}
    fired = 0
    for node in analysis.order(root):
        candidate = _rebuilt(node, rebuilt)
        existing = canon.setdefault(analysis.class_id(candidate), candidate)
        if existing is not candidate:
            fired += 1
        rebuilt[node] = existing
    return rebuilt[root], fired


def _rebuilt(node: alg.Op, rebuilt: dict[alg.Op, alg.Op]) -> alg.Op:
    """``node`` over the rebuilt versions of its children — ``node``
    itself when none of them changed (the pass identity contract)."""
    children = node.children
    if not children:
        return node
    new = tuple([rebuilt[c] for c in children])
    return node if new == children else _with_children(node, new)


def _with_children(node: alg.Op, children: tuple[alg.Op, ...]) -> alg.Op:
    """Clone ``node`` with new children (no-op when nothing changed)."""
    if tuple(node.children) == children:
        return node
    if isinstance(node, alg.Project):
        return alg.Project(children[0], node.cols)
    if isinstance(node, alg.Select):
        return alg.Select(children[0], node.op, node.lhs, node.rhs)
    if isinstance(node, alg.Union):
        return alg.Union(children)
    if isinstance(node, alg.Difference):
        return alg.Difference(children[0], children[1], node.keys)
    if isinstance(node, alg.Distinct):
        return alg.Distinct(children[0], node.keys, node.order_col)
    if isinstance(node, alg.Join):
        return alg.Join(children[0], children[1], node.keys)
    if isinstance(node, alg.SemiJoin):
        return alg.SemiJoin(children[0], children[1], node.keys)
    if isinstance(node, alg.Cross):
        return alg.Cross(children[0], children[1])
    if isinstance(node, alg.RowNum):
        return alg.RowNum(children[0], node.target, node.order, node.group)
    if isinstance(node, alg.Map):
        return alg.Map(children[0], node.fn, node.target, node.args)
    if isinstance(node, alg.Aggr):
        return alg.Aggr(
            children[0], node.kind, node.target, node.arg, node.group,
            node.sep, node.order_col,
        )
    if isinstance(node, alg.StepJoin):
        return alg.StepJoin(children[0], node.axis, node.test, node.iter_col, node.item_col)
    if isinstance(node, alg.StructuralTwigJoin):
        return alg.StructuralTwigJoin(
            children[0], node.steps, node.iter_col, node.item_col
        )
    if isinstance(node, alg.Atomize):
        return alg.Atomize(children[0], node.target, node.arg)
    if isinstance(node, alg.ElemConstr):
        return alg.ElemConstr(children[0], children[1])
    if isinstance(node, alg.TextConstr):
        return alg.TextConstr(children[0])
    if isinstance(node, alg.AttrConstr):
        return alg.AttrConstr(children[0], children[1])
    if isinstance(node, alg.GenRange):
        return alg.GenRange(children[0], node.lo_col, node.hi_col)
    if isinstance(node, (alg.Lit, alg.DocRoot, alg.ParamTable)):
        return node
    raise AlgebraError(f"cannot clone {type(node).__name__}")


# --------------------------------------------------------------------------
# pass: literal folding and empty propagation
# --------------------------------------------------------------------------
def _is_empty_lit(op: alg.Op) -> bool:
    return isinstance(op, alg.Lit) and not op.rows


def _empty_like(op: alg.Op, analysis: PlanAnalysis) -> alg.Lit:
    return alg.Lit(analysis.schema(op), (), analysis.item_cols(op))


def _fold(root: alg.Op, analysis: PlanAnalysis) -> tuple[alg.Op, int]:
    return _rewrite_bottom_up(root, analysis, lambda n: _fold_one(n, analysis))


def _fold_one(node: alg.Op, analysis: PlanAnalysis) -> alg.Op:
    # constructors have side effects; never fold them away
    if isinstance(node, (alg.ElemConstr, alg.TextConstr, alg.AttrConstr)):
        return node
    if isinstance(node, alg.Select):
        child = node.child
        if _is_empty_lit(child):
            return child
        if isinstance(child, alg.Lit) and _foldable_pred(node, child):
            return _fold_select_lit(node, child)
    if isinstance(node, alg.Project):
        child = node.child
        if isinstance(child, alg.Lit):
            idx = {name: i for i, name in enumerate(child.schema)}
            if all(old in idx for _, old in node.cols):
                rows = tuple(
                    tuple(row[idx[old]] for _, old in node.cols) for row in child.rows
                )
                new_items = frozenset(
                    new for new, old in node.cols if old in child.item_cols
                )
                return alg.Lit(tuple(n for n, _ in node.cols), rows, new_items)
    if isinstance(node, alg.Union):
        inputs = [i for i in node.inputs if not _is_empty_lit(i)]
        if not inputs:
            return node.inputs[0]
        if len(inputs) == 1:
            return inputs[0]
        if len(inputs) != len(node.inputs):
            return alg.Union(tuple(inputs))
        if all(isinstance(i, alg.Lit) for i in inputs):
            first = inputs[0]
            if all(i.schema == first.schema and i.item_cols == first.item_cols for i in inputs):
                rows = tuple(r for i in inputs for r in i.rows)
                return alg.Lit(first.schema, rows, first.item_cols)
    if isinstance(node, (alg.Map, alg.RowNum, alg.Distinct, alg.Atomize)):
        if _is_empty_lit(node.child):
            return _empty_like(node, analysis)
    if isinstance(node, alg.Map):
        child = node.child
        if isinstance(child, alg.Lit):
            folded = _fold_map_lit(node, child)
            if folded is not None:
                return folded
    if isinstance(node, alg.Atomize):
        child = node.child
        if isinstance(child, alg.Lit) and node.arg in child.item_cols:
            # literal rows hold Python scalars, never nodes: fn:data is the
            # identity, so the target column is a copy of the argument
            idx = child.schema.index(node.arg)
            return _lit_with_column(
                child, node.target, [row[idx] for row in child.rows]
            )
    if isinstance(node, (alg.StepJoin, alg.StructuralTwigJoin)):
        if _is_empty_lit(node.child):
            return alg.Lit(
                (node.iter_col, node.item_col), (), frozenset({node.item_col})
            )
    if isinstance(node, (alg.Join, alg.Cross, alg.SemiJoin)):
        if _is_empty_lit(node.left) or _is_empty_lit(node.right):
            return _empty_like(node, analysis)
    if isinstance(node, alg.Difference):
        if _is_empty_lit(node.left):
            return node.left
        if _is_empty_lit(node.right):
            return node.left
    return node


#: ⊛ functions foldable over literal int/bool operands: exactly those whose
#: evaluator kernel reduces to Python's own int/bool semantics there
_FOLD_MAP_FNS: dict[str, Callable] = {
    "ebv": lambda a: bool(a),
    "not": lambda a: not bool(a),
    # literal ints are xs:integer items, literal bools xs:boolean items
    "is_numeric": lambda a: not isinstance(a, bool),
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
    "eq": lambda a, b: bool(a == b),
    "ne": lambda a, b: bool(a != b),
    "lt": lambda a, b: bool(a < b),
    "le": lambda a, b: bool(a <= b),
    "gt": lambda a, b: bool(a > b),
    "ge": lambda a, b: bool(a >= b),
}


def _lit_with_column(child: alg.Lit, target: str, values: list) -> alg.Lit:
    """``child`` extended (or overwritten) with item column ``target``."""
    if target in child.schema:
        idx = child.schema.index(target)
        rows = tuple(
            row[:idx] + (v,) + row[idx + 1 :] for row, v in zip(child.rows, values)
        )
        return alg.Lit(child.schema, rows, child.item_cols | {target})
    rows = tuple(row + (v,) for row, v in zip(child.rows, values))
    return alg.Lit(
        child.schema + (target,), rows, child.item_cols | {target}
    )


def _fold_map_lit(node: alg.Map, child: alg.Lit) -> alg.Lit | None:
    fn = _FOLD_MAP_FNS.get(node.fn)
    if fn is None:
        return None
    idx = {name: i for i, name in enumerate(child.schema)}

    def values(operand):
        tag, v = operand
        if tag == "const":
            if not isinstance(v, (int, bool)):
                return None
            return [v] * len(child.rows)
        col = [row[idx[v]] for row in child.rows]
        if not all(isinstance(x, (int, bool)) for x in col):
            return None
        return col

    args = [values(a) for a in node.args]
    if any(a is None for a in args):
        return None
    return _lit_with_column(child, node.target, [fn(*xs) for xs in zip(*args)] if args else [])


def _foldable_pred(node: alg.Select, child: alg.Lit) -> bool:
    """Can this σ-over-literal evaluate at compile time?

    Item-column operands are allowed only when every involved value is an
    int or bool: there the general comparison is the numeric comparison
    Python's operators implement.  Strings, doubles and nodes need the
    runtime item machinery (string pool, NaN rules) — left to the
    evaluator.
    """
    for tag, v in (node.lhs, node.rhs):
        if tag == "col" and v in child.item_cols:
            idx = child.schema.index(v)
            if not all(isinstance(row[idx], (int, bool)) for row in child.rows):
                return False
        if tag == "const" and not isinstance(v, (int, bool)):
            return False
    return True


def _fold_select_lit(node: alg.Select, child: alg.Lit) -> alg.Lit:
    idx = {name: i for i, name in enumerate(child.schema)}
    import operator

    ops = {
        "eq": operator.eq,
        "ne": operator.ne,
        "lt": operator.lt,
        "le": operator.le,
        "gt": operator.gt,
        "ge": operator.ge,
    }
    fn = ops[node.op]

    def val(row, operand):
        tag, v = operand
        return row[idx[v]] if tag == "col" else v

    rows = tuple(
        row for row in child.rows if fn(val(row, node.lhs), val(row, node.rhs))
    )
    if rows == child.rows:
        return child
    return alg.Lit(child.schema, rows, child.item_cols)


# --------------------------------------------------------------------------
# pass: select/map comparison fusion
# --------------------------------------------------------------------------
_CMP_FNS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})
_CMP_NEGATED = {"eq": "ne", "ne": "eq"}


def _fuse_select(root: alg.Op, analysis: PlanAnalysis) -> tuple[alg.Op, int]:
    """Rewrite ``σ (t = true) ∘ ⊛ t:cmp(a, b)`` into ``⊛ t ∘ σ a cmp b``.

    Loop-lifting funnels every comparison through a ⊛ that materialises a
    boolean column which a σ then tests against a constant.  Applying the
    comparison *as* the selection predicate (and recomputing the — now
    constant — boolean column on the survivors, so the schema is
    unchanged) lets prune drop the dead ⊛ and exposes the comparison to
    pushdown and join recognition.  Both paths evaluate comparisons with
    the same general-comparison kernel, so the rewrite is exact.
    """
    return _rewrite_bottom_up(root, analysis, _fuse_one)


def _fuse_one(node: alg.Op) -> alg.Op | None:
    if not isinstance(node, alg.Select) or node.op not in ("eq", "ne"):
        return None
    m = node.child
    if not isinstance(m, alg.Map) or m.fn not in _CMP_FNS or len(m.args) != 2:
        return None
    if ("col", m.target) in m.args:
        return None
    for probe, other in ((node.lhs, node.rhs), (node.rhs, node.lhs)):
        if probe != ("col", m.target):
            continue
        if other[0] != "const" or not isinstance(other[1], bool):
            continue
        want = other[1] if node.op == "eq" else not other[1]
        sel_op = m.fn if want else _CMP_NEGATED.get(m.fn)
        if sel_op is None:
            return None  # ordering comparisons have no NaN-exact negation
        selected = alg.Select(m.child, sel_op, m.args[0], m.args[1])
        return alg.Map(selected, m.fn, m.target, m.args)
    return None


# --------------------------------------------------------------------------
# pass: selection / semijoin pushdown
# --------------------------------------------------------------------------
def _pushdown(root: alg.Op, analysis: PlanAnalysis) -> tuple[alg.Op, int]:
    """Move σ and ⋉ filters below operators they don't depend on.

    A filter constrains a set of columns; whenever its immediate child
    produces those columns unchanged from one of *its* inputs (a π
    rename, one side of a ⋈/×, a ⊛ that writes a different column, every
    branch of a ∪, whole iterations of a ϱ/staircase join/aggregate …)
    the filter sinks below it, so the bypassed operator — and everything
    between the filter and wherever it lands — processes fewer rows.

    To keep the rewrite a strict win on DAG-shaped plans, filters do not
    sink into shared subplans (the unfiltered subplan would still be
    evaluated for its other parents) except through π/σ, which cost
    nothing to duplicate.
    """
    counts = analysis.parent_counts(root)
    rebuilt: dict[alg.Op, alg.Op] = {}
    fired = 0
    for node in analysis.order(root):
        new = _rebuilt(node, rebuilt)
        if isinstance(new, alg.Select):
            filt = ("select", new.op, new.lhs, new.rhs)
            sunk = _sink(filt, new.child, counts, analysis)
            if sunk is not None:
                new = sunk
                fired += 1
        elif isinstance(new, alg.SemiJoin):
            filt = ("semi", new.right, new.keys)
            sunk = _sink(filt, new.left, counts, analysis)
            if sunk is not None:
                new = sunk
                fired += 1
        elif isinstance(new, (alg.Map, alg.Atomize)):
            sunk = _sink_map(new, counts, analysis)
            if sunk is not None:
                new = sunk
                fired += 1
        if new not in counts:
            # the rewritten node inherits the original's parent count, so
            # later filters see sunk subtrees shared by several parents
            counts[new] = counts.get(node, 1)
        rebuilt[node] = new
    return rebuilt[root], fired


def _filter_cols(filt) -> frozenset:
    if filt[0] == "select":
        _, _, lhs, rhs = filt
        return frozenset(v for tag, v in (lhs, rhs) if tag == "col")
    _, _, keys = filt
    return frozenset(l for l, _ in keys)


def _filter_rename(filt, mapping: dict[str, str]):
    """Rewrite a filter's column references through a π rename."""
    if filt[0] == "select":
        _, op, lhs, rhs = filt

        def ren(operand):
            tag, v = operand
            return (tag, mapping[v]) if tag == "col" else operand

        return ("select", op, ren(lhs), ren(rhs))
    _, right, keys = filt
    return ("semi", right, tuple((mapping[l], r) for l, r in keys))


def _attach(filt, node: alg.Op) -> alg.Op:
    """Place a filter directly above ``node``."""
    if filt[0] == "select":
        _, op, lhs, rhs = filt
        return alg.Select(node, op, lhs, rhs)
    _, right, keys = filt
    return alg.SemiJoin(node, right, keys)


def _sink_or_attach(filt, node, counts, analysis, shared: bool) -> alg.Op:
    sunk = _sink(filt, node, counts, analysis, shared)
    return sunk if sunk is not None else _attach(filt, node)


def _sink(filt, x: alg.Op, counts, analysis, shared: bool = False) -> alg.Op | None:
    """Push ``filt`` below ``x``; returns the new subtree or None.

    ``shared`` is True once the descent has passed through any node with
    more than one consumer: from there on, every rebuilt node is a copy
    whose original still runs for the other consumers, so only π/σ —
    which cost nothing to duplicate — may be traversed, and the filter
    attaches above the first expensive operator instead of forking it.
    """
    cols = _filter_cols(filt)
    if not cols:
        return None
    shared = shared or counts.get(x, 1) > 1
    if shared and not isinstance(x, (alg.Project, alg.Select)):
        return None  # don't duplicate shared, non-trivial subplans
    if isinstance(x, alg.Project):
        mapping = dict(x.cols)
        if not all(c in mapping for c in cols):
            return None
        inner = _filter_rename(filt, mapping)
        return alg.Project(
            _sink_or_attach(inner, x.child, counts, analysis, shared), x.cols
        )
    if isinstance(x, alg.Select):
        # only worthwhile when the filter makes it below the inner σ too
        # (a bare σ/σ swap would oscillate between rounds)
        body = _sink(filt, x.child, counts, analysis, shared)
        if body is None:
            return None
        return alg.Select(body, x.op, x.lhs, x.rhs)
    if isinstance(x, alg.Union):
        return alg.Union(
            tuple(_sink_or_attach(filt, b, counts, analysis, shared) for b in x.inputs)
        )
    if isinstance(x, (alg.Join, alg.Cross)):
        lschema = frozenset(analysis.schema(x.left))
        rschema = frozenset(analysis.schema(x.right))
        if cols <= lschema:
            left = _sink_or_attach(filt, x.left, counts, analysis, shared)
            if isinstance(x, alg.Join):
                return alg.Join(left, x.right, x.keys)
            return alg.Cross(left, x.right)
        if cols <= rschema:
            right = _sink_or_attach(filt, x.right, counts, analysis, shared)
            if isinstance(x, alg.Join):
                return alg.Join(x.left, right, x.keys)
            return alg.Cross(x.left, right)
        return None
    if isinstance(x, alg.SemiJoin):
        left = _sink_or_attach(filt, x.left, counts, analysis, shared)
        return alg.SemiJoin(left, x.right, x.keys)
    if isinstance(x, alg.Difference):
        left = _sink_or_attach(filt, x.left, counts, analysis, shared)
        return alg.Difference(left, x.right, x.keys)
    if isinstance(x, (alg.Map, alg.Atomize)):
        if x.target in cols:
            return None
        child = _sink_or_attach(filt, x.child, counts, analysis, shared)
        return _with_children(x, (child,))
    if isinstance(x, alg.RowNum):
        # whole iterations (= ϱ groups) may be filtered without renumbering
        if x.group is None or not cols <= {x.group} or x.target in cols:
            return None
        child = _sink_or_attach(filt, x.child, counts, analysis, shared)
        return alg.RowNum(child, x.target, x.order, x.group)
    if isinstance(x, alg.Aggr):
        if x.group is None or not cols <= {x.group}:
            return None
        child = _sink_or_attach(filt, x.child, counts, analysis, shared)
        return alg.Aggr(
            child, x.kind, x.target, x.arg, x.group, x.sep, x.order_col
        )
    if isinstance(x, alg.Distinct):
        if not cols <= set(x.keys):
            return None
        child = _sink_or_attach(filt, x.child, counts, analysis, shared)
        return alg.Distinct(child, x.keys, x.order_col)
    if isinstance(x, alg.StepJoin):
        if not cols <= {x.iter_col}:
            return None
        child = _sink_or_attach(filt, x.child, counts, analysis, shared)
        return alg.StepJoin(child, x.axis, x.test, x.iter_col, x.item_col)
    if isinstance(x, alg.StructuralTwigJoin):
        if not cols <= {x.iter_col}:
            return None
        child = _sink_or_attach(filt, x.child, counts, analysis, shared)
        return alg.StructuralTwigJoin(child, x.steps, x.iter_col, x.item_col)
    if isinstance(x, alg.GenRange):
        if not cols <= {"iter"}:
            return None
        child = _sink_or_attach(filt, x.child, counts, analysis, shared)
        return alg.GenRange(child, x.lo_col, x.hi_col)
    return None


def _sink_map(m, counts, analysis) -> alg.Op | None:
    """Push a ⊛/atomize below ∪ (per branch) or × (onto the side that
    holds its operands), where it runs over fewer rows and may reach a
    literal table that ``fold`` can evaluate at compile time."""
    x = m.child
    if counts.get(x, 1) > 1:
        return None
    if m.target in analysis.schema(x):
        return None  # overwrite semantics: leave in place
    args = (
        frozenset({m.arg})
        if isinstance(m, alg.Atomize)
        else _operand_cols(*m.args)
    )
    if isinstance(x, alg.Union):
        branches = []
        for b in x.inputs:
            mb = _with_children(m, (b,))
            sunk = _sink_map(mb, counts, analysis)
            branches.append(sunk if sunk is not None else mb)
        return alg.Union(tuple(branches))
    if isinstance(x, alg.Cross):
        lschema = frozenset(analysis.schema(x.left))
        rschema = frozenset(analysis.schema(x.right))
        if args <= lschema:
            ml = _with_children(m, (x.left,))
            sunk = _sink_map(ml, counts, analysis)
            return alg.Cross(sunk if sunk is not None else ml, x.right)
        if args <= rschema:
            mr = _with_children(m, (x.right,))
            sunk = _sink_map(mr, counts, analysis)
            return alg.Cross(x.left, sunk if sunk is not None else mr)
    return None


# --------------------------------------------------------------------------
# pass: join recognition (σ= over × / ⋈ becomes an equi-join key)
# --------------------------------------------------------------------------
def _join_recognition(root: alg.Op, analysis: PlanAnalysis) -> tuple[alg.Op, int]:
    """Turn ``σ (a = b)`` over × into ⋈, or add a key to an existing ⋈.

    Sound only for plain numeric columns: equality of item columns
    follows general-comparison rules (untypedAtomic coerces, ``10`` =
    ``10.0``) which the surrogate-equality join kernel does not
    implement, so item operands are left alone.  Exact including row
    order: the sort-merge join emits matches left-major with ties in
    right order, which is precisely the filtered cross product.
    """
    return _rewrite_bottom_up(
        root, analysis, lambda new: _join_rec_one(new, analysis)
    )


def _join_rec_one(node: alg.Op, analysis: PlanAnalysis) -> alg.Op | None:
    if not isinstance(node, alg.Select) or node.op != "eq":
        return None
    child = node.child
    if not isinstance(child, (alg.Cross, alg.Join)):
        return None
    if node.lhs[0] != "col" or node.rhs[0] != "col":
        return None
    a, b = node.lhs[1], node.rhs[1]
    items = analysis.item_cols(child)
    if a in items or b in items:
        return None
    lschema = analysis.schema(child.left)
    rschema = analysis.schema(child.right)
    if a in lschema and b in rschema:
        key = (a, b)
    elif b in lschema and a in rschema:
        key = (b, a)
    else:
        return None
    keys = (child.keys if isinstance(child, alg.Join) else ()) + (key,)
    return alg.Join(child.left, child.right, keys)


# --------------------------------------------------------------------------
# pass: redundant distinct elimination
# --------------------------------------------------------------------------
def _distinct_elim(root: alg.Op, analysis: PlanAnalysis) -> tuple[alg.Op, int]:
    """Drop δ whose input is provably duplicate-free on its keys.

    The staircase join's post-condition — output duplicate-free and
    document-ordered per iteration — is the flagship case; the
    uniqueness facts of :func:`_unique_sets` generalise it through π
    renames, filters, row numbering and key joins.
    """

    def elim(new: alg.Op) -> alg.Op | None:
        if not isinstance(new, alg.Distinct):
            return None
        keys = frozenset(new.keys)
        if any(u <= keys for u in analysis.unique_sets(new.child)):
            return new.child
        return None

    return _rewrite_bottom_up(root, analysis, elim)


# --------------------------------------------------------------------------
# pass: projection pruning (icols)
# --------------------------------------------------------------------------
def _prune(root: alg.Op, analysis: PlanAnalysis) -> tuple[alg.Op, int]:
    """Required-column (icols) pruning in two passes.

    Pass 1 walks parents-before-children accumulating, per node, the union
    of the columns its parents need.  Pass 2 rebuilds each node exactly
    once against its accumulated requirement — shared subplans stay shared
    (pruning per parent would duplicate them), and a node that loses no
    column and keeps its children is returned as is.
    """
    required = frozenset(analysis.schema(root))
    # pass 1: accumulate requirements top-down in reverse topological order
    topo = analysis.order(root)  # children before parents
    req: dict[alg.Op, frozenset] = {root: required}
    for node in reversed(topo):
        node_req = req.get(node, frozenset())
        node_req &= frozenset(analysis.schema(node))
        req[node] = node_req
        for child, child_req in _child_requirements(node, node_req, analysis):
            req[child] = req.get(child, frozenset()) | child_req
    # pass 2: rebuild bottom-up
    fired = [0]
    rebuilt: dict[alg.Op, alg.Op] = {}
    for node in topo:
        rebuilt[node] = _prune_rewrite(node, req[node], rebuilt, analysis, fired)
    # the root must deliver exactly its original schema
    return _restrict(rebuilt[root], required, analysis, fired), fired[0]


def _child_requirements(op, required, analysis: PlanAnalysis):
    """Which columns each child must deliver for ``op`` to produce
    ``required`` (mirrors the construction rules of ``_prune_rewrite``)."""
    if isinstance(op, alg.Lit):
        return []
    if isinstance(op, alg.Project):
        cols = [(new, old) for new, old in op.cols if new in required] or list(op.cols[:1])
        return [(op.child, frozenset(old for _, old in cols))]
    if isinstance(op, alg.Select):
        return [(op.child, required | _operand_cols(op.lhs, op.rhs))]
    if isinstance(op, alg.Union):
        return [(i, required) for i in op.inputs]
    if isinstance(op, alg.Difference):
        keys = frozenset(op.keys)
        return [(op.left, required | keys), (op.right, keys)]
    if isinstance(op, alg.Distinct):
        extra = frozenset([op.order_col]) if op.order_col else frozenset()
        return [(op.child, required | frozenset(op.keys) | extra)]
    if isinstance(op, (alg.Join, alg.SemiJoin)):
        lkeys = frozenset(l for l, _ in op.keys)
        rkeys = frozenset(r for _, r in op.keys)
        lschema = frozenset(analysis.schema(op.left))
        out = [(op.left, (required & lschema) | lkeys)]
        if isinstance(op, alg.SemiJoin):
            out.append((op.right, rkeys))
        else:
            rschema = frozenset(analysis.schema(op.right))
            out.append((op.right, (required & rschema) | rkeys))
        return out
    if isinstance(op, alg.Cross):
        lschema = analysis.schema(op.left)
        rschema = analysis.schema(op.right)
        # a side nothing needs still keeps one column (its first, in
        # schema order: set order would vary with the string hash seed)
        lreq = (required & frozenset(lschema)) or frozenset(lschema[:1])
        rreq = (required & frozenset(rschema)) or frozenset(rschema[:1])
        return [(op.left, lreq), (op.right, rreq)]
    if isinstance(op, alg.RowNum):
        if op.target not in required:
            return [(op.child, required)]
        child_req = (required - {op.target}) | frozenset(c for c, _ in op.order)
        if op.group:
            child_req |= {op.group}
        return [(op.child, child_req)]
    if isinstance(op, alg.Map):
        if op.target not in required:
            return [(op.child, required)]
        return [(op.child, (required - {op.target}) | _operand_cols(*op.args))]
    if isinstance(op, alg.Atomize):
        if op.target not in required:
            return [(op.child, required)]
        return [(op.child, (required - {op.target}) | {op.arg})]
    if isinstance(op, alg.Aggr):
        child_req = frozenset(filter(None, (op.arg, op.group, op.order_col)))
        if not child_req:
            child_req = frozenset(analysis.schema(op.child)[:1])
        return [(op.child, child_req)]
    if isinstance(op, (alg.StepJoin, alg.StructuralTwigJoin)):
        return [(op.child, frozenset({op.iter_col, op.item_col}))]
    if isinstance(op, alg.GenRange):
        return [(op.child, frozenset({"iter", op.lo_col, op.hi_col}))]
    # constructors / DocRoot: children keep their full schemas
    return [(c, frozenset(analysis.schema(c))) for c in op.children]


def _restrict(op: alg.Op, required: frozenset, analysis: PlanAnalysis, fired) -> alg.Op:
    """Wrap ``op`` in a projection keeping only ``required`` columns (a
    rewrite like any other: it changes the plan)."""
    schema = analysis.schema(op)
    keep = tuple(c for c in schema if c in required)
    if keep == schema:
        return op
    fired[0] += 1
    return alg.Project(op, tuple((c, c) for c in keep))


def _operand_cols(*operands) -> frozenset:
    return frozenset(v for tag, v in operands if tag == "col")


def _prune_rewrite(op, required, rebuilt, analysis: PlanAnalysis, fired):
    # children were already pruned against their accumulated requirements;
    # _with_children keeps ``op`` itself when none of them changed
    if isinstance(op, alg.Lit):
        keep = tuple(c for c in op.schema if c in required) or op.schema[:1]
        if keep == op.schema:
            return op
        fired[0] += 1
        idx = {name: i for i, name in enumerate(op.schema)}
        rows = tuple(tuple(row[idx[c]] for c in keep) for row in op.rows)
        return alg.Lit(keep, rows, op.item_cols & frozenset(keep))

    if isinstance(op, alg.Project):
        cols = tuple((new, old) for new, old in op.cols if new in required)
        if not cols:
            cols = op.cols[:1]
        child = rebuilt[op.child]
        if cols == op.cols:
            return _with_children(op, (child,))
        fired[0] += 1
        return alg.Project(child, cols)

    # NB: downstream of here, operators are allowed to deliver *more*
    # columns than required — extra columns are cut at the next enclosing
    # projection.  Only Union branches and Difference/SemiJoin right sides
    # need exact schemas, and they get explicit restrictions.
    if isinstance(op, alg.Union):
        inputs = tuple(
            _restrict(rebuilt[i], required, analysis, fired) for i in op.inputs
        )
        return _with_children(op, inputs)

    if isinstance(op, alg.Difference):
        right = _restrict(rebuilt[op.right], frozenset(op.keys), analysis, fired)
        return _with_children(op, (rebuilt[op.left], right))

    if isinstance(op, alg.SemiJoin):
        rkeys = frozenset(r for _, r in op.keys)
        right = _restrict(rebuilt[op.right], rkeys, analysis, fired)
        return _with_children(op, (rebuilt[op.left], right))

    if isinstance(op, (alg.RowNum, alg.Map, alg.Atomize)) and op.target not in required:
        # a dead target: drop the operator
        fired[0] += 1
        return rebuilt[op.child]

    if isinstance(op, (alg.StepJoin, alg.StructuralTwigJoin)):
        need = frozenset({op.iter_col, op.item_col})
        child = _restrict(rebuilt[op.child], need, analysis, fired)
        return _with_children(op, (child,))

    if isinstance(
        op,
        (
            alg.Select, alg.Distinct, alg.Join, alg.Cross, alg.RowNum, alg.Map,
            alg.Atomize, alg.Aggr, alg.GenRange, alg.ElemConstr, alg.TextConstr,
            alg.AttrConstr, alg.DocRoot, alg.ParamTable,
        ),
    ):
        return _rebuilt(op, rebuilt)

    raise AlgebraError(f"prune: unhandled op {type(op).__name__}")


# --------------------------------------------------------------------------
# pass: projection merging / identity removal
# --------------------------------------------------------------------------
def _merge_projects(root: alg.Op, analysis: PlanAnalysis) -> tuple[alg.Op, int]:
    """Collapse π ∘ π chains and remove identity projections."""

    def merge(new: alg.Op) -> alg.Op | None:
        if not isinstance(new, alg.Project):
            return None
        child = new.child
        if isinstance(child, alg.Project):
            inner = dict((n, o) for n, o in child.cols)
            new = alg.Project(
                child.child, tuple((n, inner[o]) for n, o in new.cols)
            )
            child = new.child
        child_schema = analysis.schema(child)
        if tuple(n for n, _ in new.cols) == child_schema and all(
            n == o for n, o in new.cols
        ):
            return child
        return new

    return _rewrite_bottom_up(root, analysis, merge)


# --------------------------------------------------------------------------
# pass: cost-based join input ordering
# --------------------------------------------------------------------------
#: only swap when one side is estimated this much larger — estimates are
#: crude, and each swap costs a schema-restoring projection
_SWAP_RATIO = 4.0


def _order_sensitive(root: alg.Op, analysis: PlanAnalysis) -> set[alg.Op]:
    """The nodes whose *physical* row order can influence results.

    Most consumers are insensitive to physical order (filters preserve
    it, ϱ orders by named columns), but three are not: δ without an
    ``order_col`` whose keys don't cover the child schema (which
    duplicate survives depends on row order), order-sensitive aggregates
    (``str_join``) without an ``order_col``, and ϱ whose order keys +
    group don't provably determine a unique rank (ties break by physical
    order).  Everything beneath such a consumer must keep its row order.
    """
    sensitive_roots: list[alg.Op] = []
    for node in analysis.order(root):
        if isinstance(node, alg.Distinct) and node.order_col is None:
            if set(node.keys) < set(analysis.schema(node.child)):
                sensitive_roots.append(node.child)
        elif isinstance(node, alg.Aggr):
            if node.kind == "str_join" and node.order_col is None:
                sensitive_roots.append(node.child)
        elif isinstance(node, alg.RowNum):
            determined = frozenset(c for c, _ in node.order)
            if node.group:
                determined |= {node.group}
            if not any(u <= determined for u in analysis.unique_sets(node.child)):
                sensitive_roots.append(node.child)
    marked: set[alg.Op] = set()
    stack = sensitive_roots
    while stack:
        n = stack.pop()
        if n in marked:
            continue
        marked.add(n)
        stack.extend(n.children)
    return marked


def _join_order(root: alg.Op, analysis: PlanAnalysis) -> tuple[alg.Op, int]:
    """Put the estimated-smaller join input on the right-hand side.

    The sort-merge join kernel sorts its *right* input and probes it with
    the left, so sorting the smaller side is cheaper.  A swapped join is
    wrapped in a projection restoring the original column order.  Row
    order within the join changes, so joins beneath a physical-order-
    sensitive consumer (see :func:`_order_sensitive`) are left alone.
    """
    return _reorder_joins(root, analysis, analysis.estimate)


def _reorder_joins(root: alg.Op, analysis: PlanAnalysis, size) -> tuple[alg.Op, int]:
    """Swap each join whose right input ``size`` ranks far larger than
    its left, unless the join sits beneath an order-sensitive consumer."""
    sensitive = _order_sensitive(root, analysis)

    def reorder(new: alg.Op) -> alg.Op | None:
        if not isinstance(new, alg.Join):
            return None
        left, right = size(new.left), size(new.right)
        if right <= _SWAP_RATIO * max(left, 1.0):
            return None
        original = analysis.schema(new)
        swapped = alg.Join(new.right, new.left, tuple((r, l) for l, r in new.keys))
        return alg.Project(swapped, tuple((c, c) for c in original))

    # sensitivity is a property of the *original* nodes, so this pass
    # keeps its own loop instead of using _rewrite_bottom_up
    rebuilt: dict[alg.Op, alg.Op] = {}
    fired = 0
    for node in analysis.order(root):
        new = _rebuilt(node, rebuilt)
        if node not in sensitive:
            replacement = reorder(new)
            if replacement is not None:
                new = replacement
                fired += 1
        rebuilt[node] = new
    return rebuilt[root], fired


# --------------------------------------------------------------------------
# pass: greedy (statistics-free) join input ordering
# --------------------------------------------------------------------------
#: syntax-visible relative size factors: a named test keeps a step
#: selective, a wildcard does not, and descendant-flavoured axes fan out
#: far more than child steps — the ranking only needs relative magnitudes
_GREEDY_CHILD_NAMED = 2.0
_GREEDY_CHILD_WILD = 8.0
_GREEDY_DEEP_NAMED = 8.0
_GREEDY_DEEP_WILD = 32.0


def _step_factor(axis: Axis, test) -> float:
    """Syntax-only growth factor of one axis step (greedy mode)."""
    if axis in _UNIT_AXES:
        return 1.0
    named = getattr(test, "name", None) is not None
    if axis in _DEEP_AXES:
        return _GREEDY_DEEP_NAMED if named else _GREEDY_DEEP_WILD
    return _GREEDY_CHILD_NAMED if named else _GREEDY_CHILD_WILD


def _syntax_score(op: alg.Op, memo: dict) -> float:
    """Relative subtree size ranked purely by plan syntax.

    The greedy mode's stand-in for cardinality estimation: no document
    statistics are consulted.  Steps are ranked by axis kind and by
    name-test vs wildcard, attached σ predicates shrink their input by
    the textbook selectivities, and the combinators compose
    multiplicatively — exactly enough signal to answer "which join input
    is likely larger" without ever touching the arena.
    """
    cached = memo.get(op)
    if cached is not None:
        return cached
    memo[op] = 1.0  # cycle-safe default; plans are DAGs anyway
    score = _syntax_score_of(op, memo)
    memo[op] = score
    return score


def _syntax_score_of(op: alg.Op, memo) -> float:
    rec = lambda c: _syntax_score(c, memo)  # noqa: E731
    if isinstance(op, alg.Lit):
        return float(len(op.rows))
    if isinstance(op, alg.DocRoot):
        return 1.0
    if isinstance(op, alg.ParamTable):
        return 4.0
    if isinstance(op, alg.StepJoin):
        return rec(op.child) * _step_factor(op.axis, op.test)
    if isinstance(op, alg.StructuralTwigJoin):
        score = rec(op.child)
        for axis, test in op.steps:
            score *= _step_factor(axis, test)
        return score
    if isinstance(op, alg.Select):
        consts = sum(1 for tag, _ in (op.lhs, op.rhs) if tag == "const")
        if consts:
            sel = _SEL_EQ_CONST if op.op == "eq" else _SEL_CMP_CONST
        else:
            sel = _SEL_COL_COL
        return rec(op.child) * sel
    if isinstance(op, alg.Union):
        return sum(rec(i) for i in op.inputs)
    if isinstance(op, (alg.Difference, alg.SemiJoin, alg.Distinct)):
        return rec(op.children[0]) * 0.6
    if isinstance(op, alg.Join):
        return max(rec(op.left), rec(op.right))
    if isinstance(op, alg.Cross):
        return rec(op.left) * rec(op.right)
    if isinstance(op, alg.Aggr):
        if op.group is None:
            return 1.0
        return max(rec(op.child) * 0.2, 1.0)
    if isinstance(op, alg.GenRange):
        return rec(op.child) * 8.0
    if not op.children:
        return 1.0
    return rec(op.children[0])


def _greedy_order(root: alg.Op, analysis: PlanAnalysis) -> tuple[alg.Op, int]:
    """Statistics-free join input ordering (the ``greedy`` mode).

    Same contract and safety discipline as :func:`_join_order` — swap
    under a schema-restoring π, never beneath an order-sensitive
    consumer — but ranks the two inputs with :func:`_syntax_score`
    instead of the cardinality estimator, so planning needs no document
    statistics at all.
    """
    score_memo: dict = {}
    return _reorder_joins(root, analysis, lambda op: _syntax_score(op, score_memo))


# --------------------------------------------------------------------------
# pass: twig collapse (the wcoj mode's multi-way join recognition)
# --------------------------------------------------------------------------
#: axes the twig join's merged scan handles (forward, subtree-shaped)
_TWIG_AXES = frozenset({Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF})

#: minimum chain length worth collapsing — a two-step chain gains nothing
#: over two staircase steps, the twig's advantage grows with chain depth
_TWIG_MIN_STEPS = 3


def _twig_collapse(root: alg.Op, analysis: PlanAnalysis) -> tuple[alg.Op, int]:
    """Fuse chains of pairwise staircase steps into one twig join.

    A run of ``StepJoin`` operators where each feeds exactly the next
    (sole consumer, matching iter/item columns, subtree-shaped axes)
    evaluates as k separate staircase joins, each materialising its full
    intermediate frontier.  Collapsing the run into one
    :class:`~repro.relational.algebra.StructuralTwigJoin` lets the
    evaluator match the whole chain with a single merged scan.  Fires
    only at the *top* of a maximal chain, so bottom-up rewriting never
    collapses a partial suffix.
    """
    counts = analysis.parent_counts(root)
    # steps continued by (the sole input of) a chain-compatible step
    # above them — they fold into the collapse fired at the top
    continued: set[alg.Op] = set()
    for node in analysis.order(root):
        if isinstance(node, alg.StepJoin) and node.axis in _TWIG_AXES:
            c = node.child
            if (
                isinstance(c, alg.StepJoin)
                and c.axis in _TWIG_AXES
                and c.iter_col == node.iter_col
                and c.item_col == node.item_col
                and counts.get(c, 1) == 1
            ):
                continued.add(c)
    # chain membership is a property of the *original* nodes, so this
    # pass keeps its own loop instead of using _rewrite_bottom_up
    rebuilt: dict[alg.Op, alg.Op] = {}
    fired = 0
    for node in analysis.order(root):
        new = _rebuilt(node, rebuilt)
        if (
            isinstance(node, alg.StepJoin)
            and node.axis in _TWIG_AXES
            and node not in continued
            and node.child in continued
        ):
            steps = [(node.axis, node.test)]
            base = node.child
            while base in continued:
                steps.append((base.axis, base.test))
                base = base.child
            if len(steps) >= _TWIG_MIN_STEPS:
                steps.reverse()
                new = alg.StructuralTwigJoin(
                    rebuilt[base], tuple(steps), node.iter_col, node.item_col
                )
                fired += 1
        rebuilt[node] = new
    return rebuilt[root], fired


# --------------------------------------------------------------------------
# the registry
# --------------------------------------------------------------------------
#: the default pipeline, in application order
PASSES: tuple[RewritePass, ...] = (
    RewritePass("cse", "share structurally identical subplans", _cse),
    RewritePass("fold", "evaluate σ/π/∪ over literals, propagate empty inputs", _fold),
    RewritePass("fuse_select", "fuse σ(t=true) with the ⊛ comparison feeding it", _fuse_select),
    RewritePass("pushdown", "push σ/⋉ below π, ⋈, ×, ⊛, ∪, ϱ, δ, aggregates, steps", _pushdown),
    RewritePass("join_recognition", "turn σ= over × into an equi-join", _join_recognition),
    RewritePass("distinct_elim", "drop δ over provably duplicate-free input", _distinct_elim),
    RewritePass("prune", "keep only columns an ancestor consumes (icols)", _prune),
    RewritePass("merge_projects", "collapse π∘π, remove identity π", _merge_projects),
    RewritePass("join_order", "sort the estimated-smaller join input", _join_order),
)

#: names of all registered passes, in pipeline order
PASS_NAMES: tuple[str, ...] = tuple(p.name for p in PASSES)

#: ``greedy`` mode's drop-in replacement for ``join_order``
_GREEDY_PASS = RewritePass(
    "greedy_order", "sort the syntax-ranked-smaller join input (no statistics)",
    _greedy_order,
)

#: ``wcoj`` mode's extra pass, appended after the default pipeline
_TWIG_PASS = RewritePass(
    "twig_collapse", "fuse chains of staircase steps into one twig join",
    _twig_collapse,
)
