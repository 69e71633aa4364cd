"""The node arena: documents and constructed fragments, one encoding.

The arena is the heart of the tree encoding.  It keeps the XPath
Accelerator tables for a set of trees as one set of parallel, growing
arrays.  The database's arena holds the loaded documents; the fragments
a query constructs go to that execution's own overlay arena
(:mod:`repro.encoding.overlay`), the same class sharing the same string
pool:

``kind | size | level | frag | parent | name | value``

Rows are appended in pre-order per fragment and fragments are contiguous,
so the **global row id doubles as the pre rank**: ``pre(v) = v -
frag_base(frag(v))`` and, more importantly, integer order on row ids *is*
document order (fragments ordered by creation, as XQuery allows).  The
paper's region predicates then become plain integer range conditions on
row ids, e.g. descendants of ``v`` are exactly rows ``v+1 .. v+size(v)``.

Attributes live in a parallel ``owner | name | value`` table with their own
id space (attribute items carry ``K_ATTR`` kind).  Names and textual values
are surrogates into a shared :class:`~repro.relational.items.StringPool` —
the paper's unique-value property BATs ("surrogate sharing ... avoids
expensive string comparisons and reduces space consumption").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import DynamicError
from repro.relational.items import StringPool

NK_DOC = 0
NK_ELEM = 1
NK_TEXT = 2
NK_COMMENT = 3
NK_PI = 4

NODE_KIND_NAMES = {
    NK_DOC: "document",
    NK_ELEM: "element",
    NK_TEXT: "text",
    NK_COMMENT: "comment",
    NK_PI: "processing-instruction",
}


class _Buf:
    """A growable int64 array with amortised O(1) appends."""

    __slots__ = ("_data", "_len", "on_grow")

    def __init__(self, capacity: int = 1024):
        self._data = np.zeros(capacity, dtype=np.int64)
        self._len = 0
        #: optional callback fired after a reallocation (the fragment
        #: pager re-releases cold spans the growth copy re-resided)
        self.on_grow = None

    def __len__(self) -> int:
        return self._len

    def view(self) -> np.ndarray:
        return self._data[: self._len]

    def _reserve(self, extra: int) -> None:
        need = self._len + extra
        if need > len(self._data):
            cap = max(need, 2 * len(self._data))
            grown = np.zeros(cap, dtype=np.int64)
            grown[: self._len] = self._data[: self._len]
            self._data = grown
            if self.on_grow is not None:
                self.on_grow()

    def grow(self, extra: int) -> None:
        """Extend the length by ``extra`` rows without writing them.

        The reserved tail reads as zeros until filled — this is how a
        paged fragment's span exists before its first fault-in (calloc
        pages cost no RSS until touched).
        """
        self._reserve(extra)
        self._len += extra

    def append(self, value: int) -> int:
        self._reserve(1)
        self._data[self._len] = value
        self._len += 1
        return self._len - 1

    def extend(self, values) -> None:
        values = np.asarray(values, dtype=np.int64)
        self._reserve(len(values))
        self._data[self._len : self._len + len(values)] = values
        self._len += len(values)

    def __getitem__(self, idx):
        return self.view()[idx]

    def __setitem__(self, idx, value):
        self.view()[idx] = value


@dataclass
class TreeDelta:
    """Structural edits applied while rebuilding one document fragment.

    This is the arena-level half of the XQuery Update Facility: the
    pending-update-list compiler (:mod:`repro.compiler.updates`) resolves
    update primitives to *old* arena rows/attribute ids and fills these
    maps; :meth:`NodeArena.rebuild_with_delta` then re-emits the document
    as a brand-new fragment with the edits applied.  Content entries are
    ``("copy", row)`` (deep copy of an existing subtree) or ``("text",
    sid)`` (a new text node), exactly like the element constructor spec.
    """

    #: target row → content inserted immediately before/after it
    insert_before: dict[int, list] = field(default_factory=dict)
    insert_after: dict[int, list] = field(default_factory=dict)
    #: parent row → content inserted as first/last children
    insert_first: dict[int, list] = field(default_factory=dict)
    insert_last: dict[int, list] = field(default_factory=dict)
    #: element row → ``(name sid, value sid)`` attributes to add
    insert_attrs: dict[int, list] = field(default_factory=dict)
    #: node rows / attribute ids whose subtrees are dropped
    delete: set = field(default_factory=set)
    delete_attrs: set = field(default_factory=set)
    #: target row → replacement content (``replace node``)
    replace: dict[int, list] = field(default_factory=dict)
    #: attribute id → ``(name sid, value sid)`` replacements
    replace_attr: dict[int, list] = field(default_factory=dict)
    #: text/comment/PI row → new value sid (``replace value of node``)
    replace_value: dict[int, int] = field(default_factory=dict)
    #: element row → text sid replacing its entire content
    replace_content: dict[int, int] = field(default_factory=dict)
    #: attribute id → new value sid
    replace_attr_value: dict[int, int] = field(default_factory=dict)
    #: element/PI row → new name sid (``rename node``)
    rename: dict[int, int] = field(default_factory=dict)
    #: attribute id → new name sid
    rename_attr: dict[int, int] = field(default_factory=dict)


class NodeArena:
    """Container for a set of trees (documents and/or fragments).

    Concurrency contract: rows are append-only and never change once
    appended, so readers may scan without locking — a reader simply does
    not see fragments appended after it started.  All *mutation* goes
    through ``mutation_lock`` (a reentrant mutex): interleaved appends
    from two threads would violate the fragment-contiguity invariant the
    whole encoding rests on ("the global row id doubles as the pre
    rank"), so constructors hold the lock for their entire fragment.
    The lazy navigation indices are rebuilt under the same lock and
    handed to readers as an immutable snapshot.  Query execution never
    appends to the database's arena (constructed nodes go to per-execution
    overlays), so under a read-only workload the lock is taken only for
    the one-time index build.
    """

    def __init__(self, pool: StringPool | None = None):
        self.pool = pool if pool is not None else StringPool()
        self._kind = _Buf()
        self._size = _Buf()
        self._level = _Buf()
        self._frag = _Buf()
        self._parent = _Buf()
        self._name = _Buf()
        self._value = _Buf()
        self._attr_owner = _Buf(256)
        self._attr_name = _Buf(256)
        self._attr_value = _Buf(256)
        self.frag_base: list[int] = []
        #: serialises every arena mutation (see the class docstring);
        #: reentrant so composite constructors can call the low-level
        #: appenders they are built from
        self.mutation_lock = threading.RLock()
        self._version = 0
        #: (version, child_order, child_parents, attr_order,
        #: attr_owners_sorted, text_rows) — replaced atomically as a unit
        #: so concurrent readers never mix index generations
        self._indices: tuple | None = None
        #: how often the navigation indices were rebuilt (the ``/stats``
        #: arena gauge: flat under a read-only workload)
        self.index_builds = 0
        self._strvalue_cache: dict[int, int] = {}
        #: demand pager for mmap-backed fragments (None = fully eager);
        #: see :meth:`enable_paging` and :mod:`repro.encoding.paging`
        self.pager = None
        self._frag_bases_cache: np.ndarray | None = None

    # -------------------------------------------------------------- paging
    def enable_paging(self, budget_bytes: int | None) -> None:
        """Attach a :class:`~repro.encoding.paging.FragmentPager`.

        Fragments adopted with ``paged=True`` afterwards stay
        mmap-resident until first touch and are evicted LRU once the
        resident tracked bytes exceed ``budget_bytes`` (``None`` = fault
        lazily but never evict).  Must be called before any paged
        adoption; enabling is idempotent per arena lifetime.
        """
        from repro.encoding.paging import FragmentPager

        with self.mutation_lock:
            if self.pager is not None:  # pragma: no cover - defensive
                self.pager.budget_bytes = budget_bytes
                return
            self.pager = FragmentPager(self, budget_bytes)
            for buf in (
                self._kind, self._size, self._level, self._frag,
                self._parent, self._name, self._value,
                self._attr_owner, self._attr_name, self._attr_value,
            ):
                buf.on_grow = self.pager.note_buffer_growth

    def _frag_bases(self) -> np.ndarray:
        """``frag_base`` as a cached array (for row→fragment searches
        that must not read the possibly-cold ``frag`` column)."""
        bases = self._frag_bases_cache
        if bases is None or len(bases) != len(self.frag_base):
            bases = np.asarray(self.frag_base, dtype=np.int64)
            self._frag_bases_cache = bases
        return bases

    def adopt_fragment(self, source, paged: bool = False) -> int:
        """Adopt a persisted fragment (``PagedFragment``); returns its
        root row.

        The fragment's row and attribute spans are *reserved* (length
        extended, nothing written).  With ``paged=True`` and a pager
        attached, the span is filled only on first touch; otherwise it
        is materialised immediately — straight from the memmapped
        columns into the flat buffers, the single-copy eager path.
        """
        from repro.encoding.paging import fill_adopted_span

        with self.mutation_lock:
            fid = self.begin_fragment()
            base = self.num_nodes
            n, m = source.nodes, source.attrs
            for buf in (self._kind, self._size, self._level, self._frag,
                        self._parent, self._name, self._value):
                buf.grow(n)
            for buf in (self._attr_owner, self._attr_name, self._attr_value):
                buf.grow(m)
            abase = self.num_attrs - m
            self._version += 1
            if self.pager is not None:
                self.pager.register(fid, base, abase, source, hot=False)
                if not paged:
                    self.ensure_rows((base,))
            else:
                fill_adopted_span(self, base, abase, source, fid)
            return base

    def register_paged_backing(self, root: int, source) -> bool:
        """Track an already-materialised fragment as evictable.

        Called after a document fragment is (re)written to the store:
        its in-arena span is now byte-identical to what a fault-in from
        ``source`` would produce, so the pager may evict and re-fault
        it.  Returns False (leaving the fragment untracked, i.e. pinned
        in memory) when the span does not match the backing — a
        conservative refusal, never an error.
        """
        pager = self.pager
        if pager is None:
            return False
        with self.mutation_lock:
            bases = self._frag_bases()
            fid = int(np.searchsorted(bases, int(root), side="right") - 1)
            if fid < 0 or int(bases[fid]) != int(root):
                return False
            if pager.record_for_base(int(root)) is not None:
                return False
            n = int(self.size[root]) + 1
            if n != source.nodes:
                return False
            ids, _ = self.attrs_in_span(int(root), int(root) + n)
            m = len(ids)
            if m != source.attrs:
                return False
            if m and not (
                int(ids[0]) + m - 1 == int(ids[-1])
                and bool(np.all(np.diff(ids) == 1))
            ):
                return False
            abase = int(ids[0]) if m else 0
            pager.register(fid, int(root), abase, source, hot=True)
            return True

    def retire_fragment(self, row: int) -> None:
        """Untrack (and materialise) the paged fragment owning ``row``.

        Must run before the fragment's backing files are deleted — the
        span keeps serving stale-but-valid rows to old readers and
        whole-arena scans forever after.  No-op without a pager or for
        untracked rows.
        """
        if self.pager is not None:
            self.pager.retire_rows(row)

    def ensure_rows(self, rows) -> None:
        """Fault in the paged fragments owning ``rows`` (no-op when the
        arena is eager) — the column-access seam every reader of node
        columns goes through before indexing them."""
        pager = self.pager
        if pager is not None:
            pager.ensure_rows(rows)

    def ensure_attrs(self, attr_ids) -> None:
        """Like :meth:`ensure_rows` for attribute-table readers."""
        pager = self.pager
        if pager is not None:
            pager.ensure_attrs(attr_ids)

    def ensure_all(self) -> None:
        """Fault in every paged fragment (whole-arena scans such as the
        SQL-host export)."""
        pager = self.pager
        if pager is not None:
            pager.ensure_all()

    def page_scope(self):
        """Context manager pinning every fragment touched inside it (one
        per query execution / streamed serialization); a no-op context
        for eager arenas."""
        pager = self.pager
        if pager is not None:
            return pager.scope()
        from contextlib import nullcontext

        return nullcontext()

    def subtree_nodes(self, root: int) -> int:
        """Node count of the fragment rooted at ``root`` without
        faulting it in (catalog listings must not page anything)."""
        pager = self.pager
        if pager is not None:
            rec = pager.record_for_base(int(root))
            if rec is not None:
                return rec.source.nodes
        return int(self.size[root]) + 1

    def logical_column(self, name: str) -> np.ndarray:
        """One node/attribute column with cold paged spans patched in
        from their mmap sources — residency-independent reads for the
        optimizer statistics and the navigation indices."""
        pager = self.pager
        if pager is None:
            return getattr(self, name)
        return pager.patched_column(name)

    # ------------------------------------------------------------- columns
    @property
    def kind(self) -> np.ndarray:
        """Node kind per row (``NK_*`` constants)."""
        return self._kind.view()

    @property
    def size(self) -> np.ndarray:
        """Subtree size per row (descendant count)."""
        return self._size.view()

    @property
    def level(self) -> np.ndarray:
        """Depth per row (fragment root = 0)."""
        return self._level.view()

    @property
    def frag(self) -> np.ndarray:
        """Fragment id per row."""
        return self._frag.view()

    @property
    def parent(self) -> np.ndarray:
        """Parent row id per row (``-1`` at fragment roots)."""
        return self._parent.view()

    @property
    def name(self) -> np.ndarray:
        """Tag/target name surrogate per row (``-1`` when nameless)."""
        return self._name.view()

    @property
    def value(self) -> np.ndarray:
        """Text value surrogate per row (``-1`` when valueless)."""
        return self._value.view()

    @property
    def attr_owner(self) -> np.ndarray:
        """Owner row id per attribute."""
        return self._attr_owner.view()

    @property
    def attr_name(self) -> np.ndarray:
        """Name surrogate per attribute."""
        return self._attr_name.view()

    @property
    def attr_value(self) -> np.ndarray:
        """Value surrogate per attribute."""
        return self._attr_value.view()

    @property
    def num_nodes(self) -> int:
        """Total node rows across every fragment."""
        return len(self._kind)

    @property
    def num_attrs(self) -> int:
        """Total attribute rows across every fragment."""
        return len(self._attr_owner)

    def resolve(self, node: int) -> tuple["NodeArena", int]:
        """``(arena, row)`` holding node ``node`` — this arena itself;
        :class:`~repro.encoding.overlay.ExecutionArena` answers the same
        call for its overlay ids, so readers handle both uniformly."""
        return self, int(node)

    def resolve_attr(self, attr_id: int) -> tuple["NodeArena", int]:
        """Like :meth:`resolve` for attribute ids."""
        return self, int(attr_id)

    # ------------------------------------------------------------- building
    def begin_fragment(self) -> int:
        """Start a new fragment; returns its id.  The next appended node is
        the fragment root and must carry the total subtree ``size``.

        Callers appending a multi-row fragment must hold
        ``mutation_lock`` across the whole begin/append sequence so the
        fragment's rows stay contiguous (the composite constructors
        below do; :func:`~repro.encoding.shred.shred_text` runs under the
        Database's exclusive catalog lock).
        """
        with self.mutation_lock:
            self.frag_base.append(self.num_nodes)
            self._version += 1
            return len(self.frag_base) - 1

    def append_node(
        self, kind: int, size: int, level: int, parent: int, name: int, value: int
    ) -> int:
        """Append one node row (pre-order position), returning its row id."""
        with self.mutation_lock:
            self._kind.append(kind)
            self._size.append(size)
            self._level.append(level)
            self._frag.append(len(self.frag_base) - 1)
            self._parent.append(parent)
            self._name.append(name)
            self._value.append(value)
            self._version += 1
            return self.num_nodes - 1

    def append_nodes(
        self,
        kinds: Sequence[int],
        sizes: Sequence[int],
        levels: Sequence[int],
        parents: Sequence[int],
        names: Sequence[int],
        values: Sequence[int],
        fragment_roots: np.ndarray | None = None,
    ) -> int:
        """Bulk append; returns the row id of the first appended node.

        Rows join the current fragment unless ``fragment_roots`` — the
        ascending batch offsets of fragment roots, starting at 0 — is
        given: then each of those rows begins a new fragment, so a whole
        batch of constructed trees lands with one append.
        """
        with self.mutation_lock:
            base = self.num_nodes
            if fragment_roots is None:
                frags = np.full(len(kinds), len(self.frag_base) - 1, dtype=np.int64)
            else:
                starts = np.zeros(len(kinds), dtype=np.int64)
                starts[fragment_roots] = 1
                frags = np.cumsum(starts) + (len(self.frag_base) - 1)
                self.frag_base.extend((np.asarray(fragment_roots) + base).tolist())
            self._kind.extend(kinds)
            self._size.extend(sizes)
            self._level.extend(levels)
            self._frag.extend(frags)
            self._parent.extend(parents)
            self._name.extend(names)
            self._value.extend(values)
            self._version += 1
            return base

    def append_attr(self, owner: int, name: int, value: int) -> int:
        """Append one attribute, returning its attribute id."""
        with self.mutation_lock:
            self._attr_owner.append(owner)
            self._attr_name.append(name)
            self._attr_value.append(value)
            self._version += 1
            return self.num_attrs - 1

    def append_attrs(
        self,
        owners: Sequence[int],
        names: Sequence[int],
        values: Sequence[int],
    ) -> int:
        """Bulk append attributes; returns the first appended attribute id.

        The vectorised twin of :meth:`append_attr`, used when adopting a
        whole persisted fragment (:mod:`repro.encoding.store`) — one
        array extend instead of a Python loop per attribute.
        """
        with self.mutation_lock:
            base = self.num_attrs
            self._attr_owner.extend(owners)
            self._attr_name.extend(names)
            self._attr_value.extend(values)
            self._version += 1
            return base

    # -------------------------------------------------------------- indices
    def _refresh_indices(self) -> tuple:
        """Return the navigation-index snapshot for the current version.

        The snapshot tuple is built under ``mutation_lock`` and replaced
        atomically, so a reader always works with one consistent
        generation even while other threads construct nodes.
        """
        snap = self._indices
        if snap is not None and snap[0] == self._version:
            return snap
        with self.mutation_lock:
            snap = self._indices
            if snap is not None and snap[0] == self._version:
                return snap
            # logical columns: cold paged spans are patched in from
            # their mmap sources, so the indices are correct regardless
            # of residency — and fault-in/eviction never invalidate them
            # (they write/clear exactly the values patched here)
            parent = self.logical_column("parent")
            child_order = np.argsort(parent, kind="stable")
            child_parents = parent[child_order]
            owner = self.logical_column("attr_owner")
            attr_order = np.argsort(owner, kind="stable")
            attr_owners_sorted = owner[attr_order]
            text_rows = np.nonzero(self.logical_column("kind") == NK_TEXT)[0]
            self.index_builds += 1
            snap = (
                self._version,
                child_order,
                child_parents,
                attr_order,
                attr_owners_sorted,
                text_rows,
            )
            self._indices = snap
            return snap

    def children_ranges(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each node: the slice of the child index holding its children.

        Returns ``(order, lo, hi)`` — children of ``nodes[i]`` are
        ``order[lo[i]:hi[i]]``, already sorted in document order.
        """
        _, child_order, child_parents, _, _, _ = self._refresh_indices()
        lo = np.searchsorted(child_parents, nodes, side="left")
        hi = np.searchsorted(child_parents, nodes, side="right")
        return child_order, lo, hi

    def attr_ranges(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`children_ranges` but over the attribute table."""
        _, _, _, attr_order, attr_owners_sorted, _ = self._refresh_indices()
        lo = np.searchsorted(attr_owners_sorted, nodes, side="left")
        hi = np.searchsorted(attr_owners_sorted, nodes, side="right")
        return attr_order, lo, hi

    def attrs_in_span(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """All attributes owned by rows ``start .. stop-1``, batched.

        Returns ``(ids, counts)``: ``ids`` are attribute ids grouped by
        owner in ascending row order (within one owner, append == document
        order) and ``counts[i]`` is how many of them row ``start+i`` owns.
        Because pre-order subtrees are contiguous row ranges, this fetches
        the attributes of a whole subtree with two binary searches — the
        scan serializer's replacement for a per-node :meth:`attr_ranges`
        call.
        """
        _, _, _, attr_order, attr_owners_sorted, _ = self._refresh_indices()
        lo = int(np.searchsorted(attr_owners_sorted, start, side="left"))
        hi = int(np.searchsorted(attr_owners_sorted, stop, side="left"))
        ids = attr_order[lo:hi]
        counts = np.bincount(
            attr_owners_sorted[lo:hi] - start, minlength=stop - start
        )
        return ids, counts

    def text_rows(self) -> np.ndarray:
        """All text-node rows, ascending (== document order)."""
        return self._refresh_indices()[5]

    # ------------------------------------------------------------ structure
    def frag_end(self, rows: np.ndarray) -> np.ndarray:
        """Last row id (inclusive) of each row's fragment."""
        b = self.root_of(rows)
        return b + self.size[b]

    def root_of(self, rows: np.ndarray) -> np.ndarray:
        """Fragment root (document node for loaded documents).

        Found by binary search on the fragment bases rather than via the
        ``frag`` column, so it works for rows of cold paged fragments
        too (their ``frag`` entries are unwritten until fault-in).
        """
        bases = self._frag_bases()
        return bases[np.searchsorted(bases, rows, side="right") - 1]

    # --------------------------------------------------------- string value
    def string_value_id(self, node: int) -> int:
        """Pool surrogate of the node's string-value (cached per node)."""
        cached = self._strvalue_cache.get(node)
        if cached is not None:
            return cached
        self.ensure_rows((node,))
        kind = int(self.kind[node])
        if kind in (NK_TEXT, NK_COMMENT, NK_PI):
            sid = int(self.value[node])
        else:
            texts = self.text_rows()
            lo = np.searchsorted(texts, node + 1)
            hi = np.searchsorted(texts, node + int(self.size[node]), side="right")
            rows = texts[lo:hi]
            if len(rows) == 1:
                sid = int(self.value[rows[0]])
            elif len(rows) == 0:
                sid = self.pool.intern("")
            else:
                sid = self.pool.intern(
                    "".join(self.pool.value(int(v)) for v in self.value[rows])
                )
        self._strvalue_cache[node] = sid
        return sid

    def string_value_ids(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`string_value_id` over a batch of node rows."""
        out = np.empty(len(nodes), dtype=np.int64)
        sv = self.string_value_id
        for i, n in enumerate(nodes):
            out[i] = sv(int(n))
        return out

    # --------------------------------------------------------- construction
    def new_text_node(self, value_id: int) -> int:
        """Construct a parentless text node (``text { ... }``)."""
        with self.mutation_lock:
            self.begin_fragment()
            return self.append_node(NK_TEXT, 0, 0, -1, -1, value_id)

    def new_attribute(self, name_id: int, value_id: int) -> int:
        """Construct a parentless attribute (computed attribute constructor).

        The owner is ``-1`` until an element constructor copies it.
        """
        return self.append_attr(-1, name_id, value_id)

    def new_element(
        self,
        name_id: int,
        attrs: Sequence[tuple[int, int]],
        content: Sequence[tuple[str, int]],
    ) -> int:
        """Construct a new element tree (``element {..} {..}`` / direct).

        ``content`` entries are ``('copy', node_row)`` — a deep copy of an
        existing subtree (XQuery constructor copy semantics), ``('text',
        value_id)`` — a new text child, or ``('attr', attr_id)`` — an
        attribute to copy onto the new element.  Returns the new root row.
        """
        copy_rows = [payload for tag, payload in content if tag == "copy"]
        if copy_rows:
            self.ensure_rows(copy_rows)
        attr_ids = [payload for tag, payload in content if tag == "attr"]
        if attr_ids:
            self.ensure_attrs(attr_ids)
        with self.mutation_lock:
            self.begin_fragment()
            total = 1
            for tag, payload in content:
                if tag == "copy":
                    total += int(self.size[payload]) + 1
                elif tag == "text":
                    total += 1
            root = self.append_node(NK_ELEM, total - 1, 0, -1, name_id, -1)
            for name, value in attrs:
                self.append_attr(root, name, value)
            for tag, payload in content:
                if tag == "attr":
                    self.append_attr(
                        root,
                        int(self.attr_name[payload]),
                        int(self.attr_value[payload]),
                    )
                elif tag == "text":
                    self.append_node(NK_TEXT, 0, 1, root, -1, payload)
                elif tag == "copy":
                    self._copy_subtree(payload, root)
                else:  # pragma: no cover - compiler always passes valid tags
                    raise DynamicError(f"bad constructor content tag {tag!r}")
            return root

    def new_document_fragment(self) -> int:
        """Reserved for document-node constructors (not in the dialect)."""
        raise DynamicError("document {} constructors are not supported")

    def _copy_subtree(self, src: int, new_parent: int) -> int:
        """Deep-copy rows ``src..src+size`` under ``new_parent`` (caller
        holds ``mutation_lock`` for the whole enclosing fragment)."""
        count = int(self.size[src]) + 1
        dest = self.num_nodes
        rows = slice(src, src + count)
        kinds = self.kind[rows].copy()
        sizes = self.size[rows].copy()
        levels = self.level[rows] - int(self.level[src]) + int(self.level[new_parent]) + 1
        parents = self.parent[rows] - src + dest
        parents = np.asarray(parents, dtype=np.int64).copy()
        parents[0] = new_parent
        names = self.name[rows].copy()
        values = self.value[rows].copy()
        # attribute copies: owners in [src, src+count) — use the index
        order, lo, hi = self.attr_ranges(np.arange(src, src + count, dtype=np.int64))
        self.append_nodes(kinds, sizes, levels, parents, names, values)
        for i in range(count):
            for j in order[lo[i] : hi[i]]:
                self.append_attr(
                    dest + i, int(self.attr_name[j]), int(self.attr_value[j])
                )
        return dest

    # ------------------------------------------------------------ updates
    def _child_rows_of(self, row: int) -> list[int]:
        """Child rows of ``row`` in document order (helper for rebuilds)."""
        order, lo, hi = self.children_ranges(np.asarray([row], dtype=np.int64))
        return sorted(int(r) for r in order[int(lo[0]) : int(hi[0])])

    def _attr_ids_of(self, row: int) -> list[int]:
        """Attribute ids owned by ``row`` (helper for rebuilds)."""
        order, lo, hi = self.attr_ranges(np.asarray([row], dtype=np.int64))
        return [int(j) for j in order[int(lo[0]) : int(hi[0])]]

    def rebuild_with_delta(self, root: int, delta: TreeDelta) -> int:
        """Re-emit the fragment rooted at ``root`` with ``delta`` applied.

        This is the structural-update primitive behind the XQuery Update
        Facility: the encoding is append-only, so instead of shifting
        ``pre`` ranks in place the whole affected document is rebuilt as
        a **new fragment** (one pre-order pass over the old rows, exactly
        like shredding) and the caller swaps the catalog entry to the
        returned root — an epoch bump, not a re-shred of XML text.  Old
        rows stay valid for readers that started before the swap.
        """
        # the whole old document is read during the re-emit; fault it in
        # up front (updates materialise their targets by design — the
        # rebuilt fragment is dirty and unevictable until checkpointed)
        self.ensure_rows((root,))
        kinds: list[int] = []
        sizes: list[int] = []
        levels: list[int] = []
        parents: list[int] = []
        names: list[int] = []
        values: list[int] = []
        attrs: list[tuple[int, int, int]] = []  # (owner offset, name, value)

        # rows the delta touches, sorted: any subtree free of them (and
        # every copied source subtree) is emitted as one vectorised slice
        # instead of row by row — updates cost O(touched path + content),
        # not O(document), on the hot rebuild loop
        touched_set: set[int] = set(delta.delete)
        for table in (
            delta.insert_before,
            delta.insert_after,
            delta.insert_first,
            delta.insert_last,
            delta.insert_attrs,
            delta.replace,
            delta.replace_value,
            delta.replace_content,
            delta.rename,
        ):
            touched_set.update(table)
        for attr_table in (
            delta.delete_attrs,
            delta.replace_attr,
            delta.replace_attr_value,
            delta.rename_attr,
        ):
            touched_set.update(int(self.attr_owner[a]) for a in attr_table)
        touched = np.asarray(sorted(touched_set), dtype=np.int64)

        def append_row(kind, level, parent, name, value) -> int:
            offset = len(kinds)
            kinds.append(kind)
            sizes.append(0)
            levels.append(level)
            parents.append(parent)
            names.append(name)
            values.append(value)
            return offset

        def bulk_copy(row: int, level: int, parent: int) -> int:
            """Copy the whole subtree of ``row`` verbatim as array slices
            (region copy: the subtree is rows ``row .. row+size``)."""
            count = int(self.size[row]) + 1
            base_off = len(kinds)
            src = slice(row, row + count)
            kinds.extend(self.kind[src].tolist())
            sizes.extend(self.size[src].tolist())
            levels.extend((self.level[src] - int(self.level[row]) + level).tolist())
            parents.extend((self.parent[src] - row + base_off).tolist())
            parents[base_off] = parent
            names.extend(self.name[src].tolist())
            values.extend(self.value[src].tolist())
            _, _, _, attr_order, attr_owners_sorted, _ = self._refresh_indices()
            a_lo = np.searchsorted(attr_owners_sorted, row, side="left")
            a_hi = np.searchsorted(attr_owners_sorted, row + count, side="left")
            for j in attr_order[a_lo:a_hi]:
                j = int(j)
                attrs.append(
                    (
                        base_off + int(self.attr_owner[j]) - row,
                        int(self.attr_name[j]),
                        int(self.attr_value[j]),
                    )
                )
            return count

        def copy_fresh(row: int, level: int, parent: int) -> int:
            """Deep-copy ``row`` verbatim (inserted/replacement content is
            outside the delta's domain); returns rows appended."""
            if int(self.kind[row]) == NK_DOC:
                # a document-node source contributes its children
                return sum(
                    bulk_copy(c, level, parent) for c in self._child_rows_of(row)
                )
            return bulk_copy(row, level, parent)

        def emit_entry(entry, level: int, parent: int) -> int:
            tag, payload = entry
            if tag == "text":
                append_row(NK_TEXT, level, parent, -1, payload)
                return 1
            return copy_fresh(payload, level, parent)

        def emit_inserts(table: dict, row: int, level: int, parent: int) -> int:
            return sum(emit_entry(e, level, parent) for e in table.get(row, ()))

        def emit(row: int, level: int, parent: int) -> int:
            """Emit ``row`` with the delta applied; returns rows appended."""
            if row in delta.delete:
                return 0
            if row in delta.replace:
                return sum(
                    emit_entry(e, level, parent) for e in delta.replace[row]
                )
            # untouched subtree: one region copy instead of a row walk
            nxt = int(np.searchsorted(touched, row))
            if nxt == len(touched) or int(touched[nxt]) > row + int(self.size[row]):
                return bulk_copy(row, level, parent)
            kind = int(self.kind[row])
            name = delta.rename.get(row, int(self.name[row]))
            value = delta.replace_value.get(row, int(self.value[row]))
            offset = append_row(kind, level, parent, name, value)
            if kind == NK_ELEM:
                for aid in self._attr_ids_of(row):
                    if aid in delta.delete_attrs:
                        continue
                    if aid in delta.replace_attr:
                        for aname, avalue in delta.replace_attr[aid]:
                            attrs.append((offset, aname, avalue))
                        continue
                    aname = delta.rename_attr.get(aid, int(self.attr_name[aid]))
                    avalue = delta.replace_attr_value.get(
                        aid, int(self.attr_value[aid])
                    )
                    attrs.append((offset, aname, avalue))
                for aname, avalue in delta.insert_attrs.get(row, ()):
                    attrs.append((offset, aname, avalue))
            total = 1
            if kind in (NK_ELEM, NK_DOC):
                if row in delta.replace_content:
                    sid = delta.replace_content[row]
                    if self.pool.value(sid) != "":
                        total += emit_entry(("text", sid), level + 1, offset)
                else:
                    total += emit_inserts(delta.insert_first, row, level + 1, offset)
                    for child in self._child_rows_of(row):
                        total += emit_inserts(
                            delta.insert_before, child, level + 1, offset
                        )
                        total += emit(child, level + 1, offset)
                        total += emit_inserts(
                            delta.insert_after, child, level + 1, offset
                        )
                    total += emit_inserts(delta.insert_last, row, level + 1, offset)
            sizes[offset] = total - 1
            return total

        with self.mutation_lock:
            if emit(root, 0, -1) == 0:  # pragma: no cover - guarded upstream
                raise DynamicError("an update may not delete the document root")
            self.begin_fragment()
            first_row = self.num_nodes
            rebased = [p + first_row if p >= 0 else -1 for p in parents]
            base = self.append_nodes(kinds, sizes, levels, rebased, names, values)
            for owner_offset, name_id, value_id in attrs:
                self.append_attr(base + owner_offset, name_id, value_id)
            return base

    # ------------------------------------------------------------ node info
    def name_of(self, node: int) -> str:
        """Tag name of an element / PI target."""
        nid = int(self.name[node])
        return self.pool.value(nid) if nid >= 0 else ""
