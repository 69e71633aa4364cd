"""The per-execution arena: shared documents plus a transient overlay.

Query-constructed nodes never enter the shared document arena.  Each
query execution reads through an :class:`ExecutionArena`: a thin view
over the base :class:`~repro.encoding.arena.NodeArena` plus an overlay
``NodeArena``, created on the first construction, that shares the base
:class:`~repro.relational.items.StringPool` and receives every node and
attribute the element/text/attribute constructors build.  This is how
Pathfinder on MonetDB keeps constructed nodes in per-query transient
containers, apart from the persistent documents.

**Id space.**  ``node_base`` (B) and ``attr_base`` (A) are the base
arena's node and attribute counts when the execution starts, read under
the catalog read lock.  Overlay node ``l`` has global id ``B + l`` and
overlay attribute ``l`` has ``A + l``; ids below the bound address the
base.  Overlay ids exceed every base id the execution can see, so integer
order stays document order (fragments ordered by creation).  Constructed
fragments are deep copies, so no axis crosses B: every kernel runs
unchanged on one side (:meth:`ExecutionArena.per_side`).

**Lifetime.**  The view is ``EvalContext.arena`` and is carried by the
``QueryResult`` and its ``NodeHandle``\\ s; the overlay is freed with the
last of them.  The base is never appended to, so its navigation indices
are built once and constructor queries never take its ``mutation_lock``.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.arena import NK_ELEM, NK_TEXT, NodeArena
from repro.relational.kernels import multi_arange

#: constructor content entry tags for :meth:`ExecutionArena.new_elements`
COPY, ATTR, TEXT = 0, 1, 2


class ExecutionArena:
    """One execution's view: base ids below the bounds, overlay above."""

    __slots__ = ("base", "pool", "node_base", "attr_base", "_overlay")

    def __init__(self, base: NodeArena):
        self.base = base
        self.pool = base.pool
        self.node_base = base.num_nodes
        self.attr_base = base.num_attrs
        self._overlay: NodeArena | None = None

    @property
    def overlay(self) -> NodeArena:
        """The transient arena holding this execution's constructed nodes."""
        if self._overlay is None:
            self._overlay = NodeArena(self.pool)
        return self._overlay

    @property
    def num_nodes(self) -> int:
        """Base rows visible to this execution plus constructed rows."""
        extra = 0 if self._overlay is None else self._overlay.num_nodes
        return self.node_base + extra

    # ------------------------------------------------------------ dispatch
    def resolve(self, node: int) -> tuple[NodeArena, int]:
        """``(arena, local row)`` holding global node id ``node``."""
        node = int(node)
        if node < self.node_base:
            return self.base, node
        return self.overlay, node - self.node_base

    def resolve_attr(self, attr_id: int) -> tuple[NodeArena, int]:
        """``(arena, local id)`` holding global attribute id ``attr_id``."""
        attr_id = int(attr_id)
        if attr_id < self.attr_base:
            return self.base, attr_id
        return self.overlay, attr_id - self.attr_base

    def take(self, column: str, ids) -> np.ndarray:
        """Gather a node column (``kind``, ``size``, ``name``, ``value``)
        or attribute column (``attr_name``, ``attr_value``) at global ids.

        Only columns whose values are not ids themselves may be read
        this way: ``parent``/``attr_owner`` hold side-local ids.
        """
        ids = np.asarray(ids, dtype=np.int64)
        bound = self.attr_base if column.startswith("attr_") else self.node_base
        upper = ids >= bound
        if not upper.any():
            return getattr(self.base, column)[ids]
        out = np.empty(len(ids), dtype=np.int64)
        out[~upper] = getattr(self.base, column)[ids[~upper]]
        out[upper] = getattr(self.overlay, column)[ids[upper] - bound]
        return out

    def string_value_ids(self, nodes) -> np.ndarray:
        """Pool surrogates of the nodes' string-values; constructed nodes
        cache theirs in the overlay, which is freed with the result."""
        nodes = np.asarray(nodes, dtype=np.int64)
        upper = nodes >= self.node_base
        if not upper.any():
            return self.base.string_value_ids(nodes)
        out = np.empty(len(nodes), dtype=np.int64)
        out[~upper] = self.base.string_value_ids(nodes[~upper])
        out[upper] = self.overlay.string_value_ids(nodes[upper] - self.node_base)
        return out

    def root_of(self, rows) -> np.ndarray:
        """Fragment root of each global row (``fn:root``)."""
        rows = np.asarray(rows, dtype=np.int64)
        upper = rows >= self.node_base
        if not upper.any():
            return self.base.root_of(rows)
        out = np.empty(len(rows), dtype=np.int64)
        out[~upper] = self.base.root_of(rows[~upper])
        local = self.overlay.root_of(rows[upper] - self.node_base)
        out[upper] = local + self.node_base
        return out

    def per_side(self, kernel, iters, nodes, *args, attr_out: bool = False):
        """Run an axis ``kernel(arena, iters, nodes, *args) -> (iters,
        ids)`` on each side of B and merge the outputs by ``(iter, id)``.

        ``attr_out`` marks attribute-id output (shifted by A instead of
        B).  The kernels return ``(iter, id)``-sorted output, and every
        overlay id exceeds every base id, so a stable sort on ``iter``
        of the concatenation is the merge.
        """
        upper = nodes >= self.node_base
        if not upper.any():
            return kernel(self.base, iters, nodes, *args)
        shift = self.attr_base if attr_out else self.node_base
        out_i, out_r = kernel(
            self.overlay, iters[upper], nodes[upper] - self.node_base, *args
        )
        out_r = out_r + shift
        if upper.all():
            return out_i, out_r
        base_i, base_r = kernel(self.base, iters[~upper], nodes[~upper], *args)
        out_i = np.concatenate((base_i, out_i))
        out_r = np.concatenate((base_r, out_r))
        order = np.argsort(out_i, kind="stable")
        return out_i[order], out_r[order]

    def page_scope(self):
        """Pin the base fragments read while the scope is open (the
        overlay is never paged)."""
        return self.base.page_scope()

    # --------------------------------------------------------- construction
    def new_text_nodes(self, value_ids) -> np.ndarray:
        """Construct parentless text nodes, one fragment each; returns
        their global ids."""
        value_ids = np.asarray(value_ids, dtype=np.int64)
        n = len(value_ids)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        zeros = np.zeros(n, dtype=np.int64)
        first = self.overlay.append_nodes(
            np.full(n, NK_TEXT, dtype=np.int64),
            zeros,
            zeros,
            np.full(n, -1, dtype=np.int64),
            np.full(n, -1, dtype=np.int64),
            value_ids,
            fragment_roots=np.arange(n, dtype=np.int64),
        )
        return self.node_base + first + np.arange(n, dtype=np.int64)

    def new_attributes(self, name_ids, value_ids) -> np.ndarray:
        """Construct parentless attributes (owner ``-1`` until an element
        constructor copies them); returns their global ids."""
        name_ids = np.asarray(name_ids, dtype=np.int64)
        n = len(name_ids)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        first = self.overlay.append_attrs(
            np.full(n, -1, dtype=np.int64), name_ids, value_ids
        )
        return self.attr_base + first + np.arange(n, dtype=np.int64)

    def new_elements(self, name_ids, owners, tags, payloads) -> np.ndarray:
        """Construct ``len(name_ids)`` element trees as one batch.

        Content entry ``j`` belongs to element ``owners[j]`` (entries are
        ordered by element, then content order) and is, by ``tags[j]``:
        :data:`COPY` — a deep copy of global node ``payloads[j]``;
        :data:`ATTR` — a copy of global attribute ``payloads[j]``; or
        :data:`TEXT` — a new text child with value surrogate
        ``payloads[j]``.  Every element is its own fragment.  The batch
        is written with one ``append_nodes`` and one ``append_attrs``,
        and the attributes of all copied rows come from one
        ``attr_ranges`` lookup per side — so a whole constructor
        operator costs at most one overlay index build.  Returns the
        global ids of the new element roots.
        """
        name_ids = np.asarray(name_ids, dtype=np.int64)
        owners = np.asarray(owners, dtype=np.int64)
        tags = np.asarray(tags, dtype=np.int64)
        payloads = np.asarray(payloads, dtype=np.int64)
        n = len(name_ids)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        overlay = self.overlay
        B = self.node_base
        is_copy = tags == COPY
        is_text = tags == TEXT

        # copy sources per side: (entry indices, arena, local source rows)
        sides = []
        for arena, lower in ((self.base, True), (overlay, False)):
            sel = np.flatnonzero(is_copy & ((payloads < B) == lower))
            if len(sel):
                src = payloads[sel] - (0 if lower else B)
                arena.ensure_rows(src)
                sides.append((sel, arena, src))

        # rows each entry contributes, and where each lands in the batch
        rows = is_text.astype(np.int64)
        for sel, arena, src in sides:
            rows[sel] = arena.size[src] + 1
        entry_start = owners + 1 + np.cumsum(rows) - rows
        elem_rows = np.bincount(owners, weights=rows, minlength=n).astype(np.int64)
        root_off = np.arange(n, dtype=np.int64) + np.cumsum(elem_rows) - elem_rows
        total = n + int(elem_rows.sum())
        first = overlay.num_nodes

        kind = np.empty(total, dtype=np.int64)
        size = np.zeros(total, dtype=np.int64)
        level = np.empty(total, dtype=np.int64)
        parent = np.empty(total, dtype=np.int64)
        name = np.full(total, -1, dtype=np.int64)
        value = np.full(total, -1, dtype=np.int64)
        kind[root_off] = NK_ELEM
        size[root_off] = elem_rows
        level[root_off] = 0
        parent[root_off] = -1
        name[root_off] = name_ids

        text_at = entry_start[is_text]
        kind[text_at] = NK_TEXT
        level[text_at] = 1
        parent[text_at] = root_off[owners[is_text]] + first
        value[text_at] = payloads[is_text]

        # attributes as (sort key = entry index, owner offset, name, value)
        a_keys, a_owner, a_name, a_value = [], [], [], []
        for sel, arena, src in sides:
            counts = rows[sel]
            dest = entry_start[sel]
            src_rows = multi_arange(src, src + counts)
            dest_rows = multi_arange(dest, dest + counts)
            src_of_row = np.repeat(src, counts)
            kind[dest_rows] = arena.kind[src_rows]
            size[dest_rows] = arena.size[src_rows]
            level[dest_rows] = (
                arena.level[src_rows] - arena.level[src_of_row] + 1
            )
            parent[dest_rows] = (
                arena.parent[src_rows] - src_of_row + np.repeat(dest, counts) + first
            )
            parent[dest] = root_off[owners[sel]] + first
            name[dest_rows] = arena.name[src_rows]
            value[dest_rows] = arena.value[src_rows]
            order, lo, hi = arena.attr_ranges(src_rows)
            if int((hi - lo).sum()):
                ids = order[multi_arange(lo, hi)]
                a_keys.append(np.repeat(np.repeat(sel, counts), hi - lo))
                a_owner.append(np.repeat(dest_rows, hi - lo))
                a_name.append(arena.attr_name[ids])
                a_value.append(arena.attr_value[ids])
        attr_sel = np.flatnonzero(tags == ATTR)
        if len(attr_sel):
            attr_src = payloads[attr_sel]
            self.base.ensure_attrs(attr_src[attr_src < self.attr_base])
            a_keys.append(attr_sel)
            a_owner.append(root_off[owners[attr_sel]])
            a_name.append(self.take("attr_name", attr_src))
            a_value.append(self.take("attr_value", attr_src))

        overlay.append_nodes(
            kind, size, level, parent, name, value, fragment_roots=root_off
        )
        if a_keys:
            # the per-element attribute order of element-at-a-time
            # construction: content order, then row and index order
            keys = np.concatenate(a_keys)
            order = np.argsort(keys, kind="stable")
            overlay.append_attrs(
                np.concatenate(a_owner)[order] + first,
                np.concatenate(a_name)[order],
                np.concatenate(a_value)[order],
            )
        return B + first + root_off
