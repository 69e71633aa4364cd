"""The relational algebra of the paper's Table 1, as an operator DAG.

Operators are immutable nodes with identity-based hashing (plans are DAGs;
shared subplans are evaluated once by the memoising evaluator).  The
algebra is deliberately "assembly-style", mirroring the restrictions the
paper exploits:

* all joins are equi-joins (``Join``), theta predicates are a ``Select``
  over a join/cross product;
* π (``Project``) renames/duplicates columns and never eliminates
  duplicate rows;
* ∪ (``Union``) is disjoint union — plain concatenation;
* ϱ (``RowNum``) is the MonetDB ``mark``-style row numbering with optional
  grouping and ordering;
* the staircase join (``StepJoin``), node constructors (``ElemConstr``,
  ``TextConstr``, ``AttrConstr``) and atomization (``Atomize``) are the
  "short-hands for efficient implementations" of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.encoding.axes import Axis, NodeTest

#: A scalar operand of Select/Map: a column reference or a constant.
Operand = tuple  # ("col", name) | ("const", python value)


def col(name: str) -> Operand:
    """Operand referencing column ``name``."""
    return ("col", name)


def const(value) -> Operand:
    """Operand holding a literal value."""
    return ("const", value)


@dataclass(frozen=True, eq=False)
class Op:
    """Base class of all algebra operators."""

    @property
    def children(self) -> tuple["Op", ...]:
        """The operator's input plans."""
        return ()

    def label(self) -> str:
        """Short human-readable label (dot / ASCII plan rendering)."""
        return type(self).__name__

    def struct_key(self, child_ids: tuple[int, ...]) -> tuple:
        """Structural identity key given dedup ids of the children (CSE)."""
        return (type(self).__name__,) + self._params() + (child_ids,)

    def _params(self) -> tuple:
        return ()


@dataclass(frozen=True, eq=False)
class Lit(Op):
    """A literal table.  ``item_cols`` marks polymorphic columns; their
    values in ``rows`` are Python scalars, encoded at evaluation time."""

    schema: tuple[str, ...]
    rows: tuple[tuple, ...]
    item_cols: frozenset = field(default_factory=frozenset)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        if not self.rows:
            return f"∅({','.join(self.schema)})"
        return f"lit({','.join(self.schema)};{len(self.rows)}r)"

    def _params(self) -> tuple:
        # NB: row values are tagged with their Python type — ``True == 1``
        # and ``hash(True) == hash(1)``, so untyped rows would let CSE merge
        # a boolean literal table with an integer one.
        typed_rows = tuple(
            tuple((type(v).__name__, v) for v in row) for row in self.rows
        )
        return (self.schema, typed_rows, tuple(sorted(self.item_cols)))


@dataclass(frozen=True, eq=False)
class Project(Op):
    """π — keep/rename/duplicate columns.  ``cols`` is ``(new, old)``."""

    child: Op
    cols: tuple[tuple[str, str], ...]

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        parts = [n if n == o else f"{n}:{o}" for n, o in self.cols]
        return f"π {','.join(parts)}"

    def _params(self):
        return (self.cols,)


@dataclass(frozen=True, eq=False)
class Select(Op):
    """σ — keep rows satisfying a simple comparison predicate."""

    child: Op
    op: str  # eq ne lt le gt ge
    lhs: Operand
    rhs: Operand

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"σ {_fmt(self.lhs)} {self.op} {_fmt(self.rhs)}"

    def _params(self):
        return (self.op, self.lhs, self.rhs)


@dataclass(frozen=True, eq=False)
class Union(Op):
    """∪ — disjoint union (concatenation) of same-schema inputs."""

    inputs: tuple[Op, ...]

    @property
    def children(self):
        """The operator's input plans."""
        return self.inputs

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return "∪"


@dataclass(frozen=True, eq=False)
class Difference(Op):
    """\\ — rows of ``left`` whose key is absent from ``right``."""

    left: Op
    right: Op
    keys: tuple[str, ...]

    @property
    def children(self):
        """The operator's input plans."""
        return (self.left, self.right)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"\\ {','.join(self.keys)}"

    def _params(self):
        return (self.keys,)


@dataclass(frozen=True, eq=False)
class Distinct(Op):
    """δ — duplicate elimination on ``keys``.

    Keeps the first occurrence; "first" means smallest ``order_col`` value
    when one is given (sequence order), physical row order otherwise.
    """

    child: Op
    keys: tuple[str, ...]
    order_col: str | None = None

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"δ {','.join(self.keys)}"

    def _params(self):
        return (self.keys, self.order_col)


@dataclass(frozen=True, eq=False)
class Join(Op):
    """⋈ — inner equi-join on ``keys`` = ((lcol, rcol), ...).

    Output schema is the union of both sides' columns, which must be
    disjoint (the compiler renames first, exactly like the paper's plans).
    """

    left: Op
    right: Op
    keys: tuple[tuple[str, str], ...]

    @property
    def children(self):
        """The operator's input plans."""
        return (self.left, self.right)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return "⋈ " + ",".join(f"{l}={r}" for l, r in self.keys)

    def _params(self):
        return (self.keys,)


@dataclass(frozen=True, eq=False)
class SemiJoin(Op):
    """⋉ — rows of ``left`` with at least one key match in ``right``."""

    left: Op
    right: Op
    keys: tuple[tuple[str, str], ...]

    @property
    def children(self):
        """The operator's input plans."""
        return (self.left, self.right)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return "⋉ " + ",".join(f"{l}={r}" for l, r in self.keys)

    def _params(self):
        return (self.keys,)


@dataclass(frozen=True, eq=False)
class Cross(Op):
    """× — Cartesian product (schemas must be disjoint)."""

    left: Op
    right: Op

    @property
    def children(self):
        """The operator's input plans."""
        return (self.left, self.right)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return "×"


@dataclass(frozen=True, eq=False)
class RowNum(Op):
    """ϱ — dense 1-based row numbering.

    Numbers rows by ``order`` (sequence of ``(column, descending)``)
    within each ``group`` (or globally when ``group`` is None).  This is
    MonetDB's ``mark`` / SQL:1999 ``DENSE_RANK`` in the paper's notation
    ``%target:(order)/group``.
    """

    child: Op
    target: str
    order: tuple[tuple[str, bool], ...]
    group: str | None = None

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        order = ",".join(c + ("↓" if d else "") for c, d in self.order)
        group = f"/{self.group}" if self.group else ""
        return f"ϱ {self.target}:({order}){group}"

    def _params(self):
        return (self.target, self.order, self.group)


@dataclass(frozen=True, eq=False)
class Map(Op):
    """⊛ — elementwise function over columns/constants (arith, cmp, ...)."""

    child: Op
    fn: str
    target: str
    args: tuple[Operand, ...]

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"⊛ {self.target}:{self.fn}({','.join(_fmt(a) for a in self.args)})"

    def _params(self):
        return (self.fn, self.target, self.args)


@dataclass(frozen=True, eq=False)
class Aggr(Op):
    """Aggregation (count/sum/min/max/avg/str_join) per ``group``.

    Output schema: ``(group, target)`` — or just ``(target,)`` with a
    single row when ``group`` is None.  Groups absent from the input are
    absent from the output (the compiler fills defaults explicitly, e.g.
    ``fn:count`` of an empty sequence).
    """

    child: Op
    kind: str
    target: str
    arg: str | None
    group: str | None
    sep: str = " "
    order_col: str | None = None  # order-sensitive aggregates (str_join)

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        group = f"/{self.group}" if self.group else ""
        return f"{self.kind} {self.target}:{self.arg or '*'}{group}"

    def _params(self):
        return (self.kind, self.target, self.arg, self.group, self.sep, self.order_col)


@dataclass(frozen=True, eq=False)
class StepJoin(Op):
    """Staircase join: evaluate an XPath axis step for every context node.

    Input: a table with columns ``(iter_col, item_col)`` of node items.
    Output: ``(iter_col, item_col)`` — the axis result, duplicate-free and
    document-ordered per ``iter`` (the axis-step post-condition XQuery
    requires).
    """

    child: Op
    axis: Axis
    test: NodeTest
    iter_col: str = "iter"
    item_col: str = "item"

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"⤲ {self.axis.value}::{self.test}"

    def _params(self):
        return (self.axis, self.test, self.iter_col, self.item_col)


@dataclass(frozen=True, eq=False)
class StructuralTwigJoin(Op):
    """Multi-way structural join: a chain of axis steps matched as one twig.

    ``steps`` is the ordered chain ``((axis, test), ...)`` that a run of
    pairwise :class:`StepJoin` operators would have evaluated one at a
    time; the ``wcoj`` optimizer mode collapses such runs into this single
    operator.  The evaluator matches the whole chain in one pass over the
    sorted pre/size ranges (worst-case-optimal in the spirit of leapfrog
    triejoin: no intermediate result is ever materialised beyond the
    frontier of context nodes).  Output has the same post-condition as the
    final ``StepJoin`` it replaces: ``(iter_col, item_col)``, duplicate-
    free and document-ordered per ``iter``.
    """

    child: Op
    steps: tuple[tuple[Axis, NodeTest], ...]
    iter_col: str = "iter"
    item_col: str = "item"

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        path = "/".join(f"{a.value}::{t}" for a, t in self.steps)
        return f"⋈⤲ {path}"

    def _params(self):
        return (self.steps, self.iter_col, self.item_col)


@dataclass(frozen=True, eq=False)
class Atomize(Op):
    """fn:data — typed-value extraction: nodes become ``xs:untypedAtomic``
    string values, atomic items pass through."""

    child: Op
    target: str
    arg: str

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"data {self.target}:{self.arg}"

    def _params(self):
        return (self.target, self.arg)


@dataclass(frozen=True, eq=False)
class ElemConstr(Op):
    """ε — element construction, one new element per ``iter``.

    ``names`` has columns ``(iter, item)`` (one QName string per iter);
    ``content`` has ``(iter, pos, item)`` whose items are copied into the
    new element: node items are deep-copied subtrees, attribute items
    become attributes, adjacent atomic items merge into text nodes.
    Output: ``(iter, item)`` with the freshly constructed node ids.
    """

    names: Op
    content: Op

    @property
    def children(self):
        """The operator's input plans."""
        return (self.names, self.content)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return "ε elem"


@dataclass(frozen=True, eq=False)
class TextConstr(Op):
    """τ — text-node construction, one new text node per ``iter``.

    ``content`` has ``(iter, item)`` with one string per iter.
    """

    content: Op

    @property
    def children(self):
        """The operator's input plans."""
        return (self.content,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return "τ text"


@dataclass(frozen=True, eq=False)
class AttrConstr(Op):
    """Attribute construction: ``names``/``values`` are ``(iter, item)``
    string tables; output ``(iter, item)`` of fresh attribute items."""

    names: Op
    values: Op

    @property
    def children(self):
        """The operator's input plans."""
        return (self.names, self.values)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return "ε attr"


@dataclass(frozen=True, eq=False)
class GenRange(Op):
    """``lo to hi`` range expansion: input has per-iter integer columns
    ``lo_col``/``hi_col``; output is ``(iter, pos, item)`` with one row per
    integer of each iter's inclusive range."""

    child: Op
    lo_col: str
    hi_col: str

    @property
    def children(self):
        """The operator's input plans."""
        return (self.child,)

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"range {self.lo_col}..{self.hi_col}"

    def _params(self):
        return (self.lo_col, self.hi_col)


@dataclass(frozen=True, eq=False)
class DocRoot(Op):
    """fn:doc — one row ``(iter=1, pos=1, item=document node)``."""

    uri: str

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        return f"doc({self.uri!r})"

    def _params(self):
        return (self.uri,)


@dataclass(frozen=True, eq=False)
class ParamTable(Op):
    """An external-variable parameter table (``declare variable $x
    external``).

    A leaf whose contents are *not* known at compile time: at evaluation
    the binding supplied through ``EvalContext.params[name]`` expands to
    one row ``(pos, item)`` per item of the bound sequence (dense ``pos``
    1..n).  This is what makes a compiled plan reusable across
    executions — the plan cache stores the DAG once, and each execution
    resolves the parameter table against its own bindings.  When
    ``type_name`` is set (``declare variable $x as xs:integer external``)
    the binding is type-checked at bind time.
    """

    name: str
    type_name: str | None = None

    def label(self) -> str:
        """Rendered operator label (plan printing)."""
        suffix = f" as {self.type_name}" if self.type_name else ""
        return f"param ${self.name}{suffix}"

    def _params(self):
        return (self.name, self.type_name)


def _fmt(operand: Operand) -> str:
    tag, v = operand
    return str(v) if tag == "col" else repr(v)


# --------------------------------------------------------------------------
# DAG utilities
# --------------------------------------------------------------------------
def walk(root: Op) -> list[Op]:
    """Every distinct operator of the DAG, children before parents.

    Operators hash by identity, so the ``seen`` set holds the nodes
    themselves (an ``id()`` could be reused once a node is freed).
    """
    order: list[Op] = []
    seen: set[Op] = set()
    stack: list[tuple[Op, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node in seen:
            continue
        if expanded:
            seen.add(node)
            order.append(node)
        else:
            stack.append((node, True))
            for child in node.children:
                if child not in seen:
                    stack.append((child, False))
    return order


def op_count(root: Op) -> int:
    """Number of distinct operators in the plan DAG (paper: Q8 ≈ 120)."""
    return len(walk(root))
