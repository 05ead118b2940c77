"""Algorithm 2 (*DynAggrNodeInfo*) as two exact level-order sweeps.

The gossip protocol's fixed point has a closed recursive form on a
tree.  Write ``A(x, m)`` for the table host ``x`` holds about neighbor
``m`` (the message ``m`` sends ``x`` at fixed point):

    A(x, m) = top_{n_cut by d(x, ·)} ( {m} ∪ ⋃_{v ∈ N(m) \\ {x}} A(m, v) )

Every dependency of a directed edge ``(x ← m)`` lies strictly on the
far side of that edge, so on a tree the recursion is well-founded and
has a *unique* solution — the same one the round-based protocol in
:mod:`repro.core.decentralized` converges to.  Rooting the tree turns
it into the classic rerooting pattern:

* **upward sweep** (deepest level first): ``up[i] = A(parent(i), i)``
  merges ``{i}`` with the children's ``up`` tables, ranked by distance
  to the parent;
* **downward sweep** (root first): ``down[i] = A(i, parent(i))``
  merges ``{parent}``, the parent's own ``down`` table, and the
  *siblings'* ``up`` tables, ranked by distance to ``i``.

Each level is processed as one padded 2D array: gather candidates,
rank each row with one ``np.lexsort`` over ``(distance, host id)`` —
the reference's exact tie-break — and keep the first ``n_cut``
columns.  Candidate sets are unions of *disjoint* subtree sets, so no
dedup pass is needed.  Two sweeps touch each directed edge exactly
once: ``2·(n-1)`` merges total, versus ``O(diameter)`` full rounds for
the round-based protocol.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.tree import TreeCSR

__all__ = [
    "node_info_sweep",
    "node_info_resweep",
    "clustering_space",
    "clustering_spaces",
    "tables_from_sweep",
]

#: Id-key used for padding slots so they rank after every real host.
_PAD_ID = np.iinfo(np.int64).max


def _rank_rows(
    candidates: np.ndarray,
    receivers: np.ndarray,
    dist: np.ndarray,
    host_ids: np.ndarray,
    n_cut: int,
) -> np.ndarray:
    """Per-row top-``n_cut`` of *candidates* by ``(d(receiver, ·), id)``.

    ``candidates`` is ``(rows, width)`` of compact indices padded with
    ``-1``; ``receivers`` is ``(rows,)`` compact indices.  Returns
    ``(rows, n_cut)`` compact indices padded with ``-1``.
    """
    rows, width = candidates.shape
    pad = candidates < 0
    safe = np.where(pad, 0, candidates)
    distances = dist[receivers[:, None], safe]
    distances[pad] = np.inf
    ids = np.where(pad, _PAD_ID, host_ids[safe])
    # Primary key: distance to the receiver; secondary: original host
    # id — exactly ``sorted(candidates, key=lambda u: (d[u], u))``.
    order = np.lexsort((ids, distances), axis=1)
    ranked = np.take_along_axis(candidates, order, axis=1)
    if width >= n_cut:
        return ranked[:, :n_cut]
    out = np.full((rows, n_cut), -1, dtype=np.int64)
    out[:, :width] = ranked
    return out


def _gather_children(
    destination: np.ndarray,
    column: int,
    nodes: np.ndarray,
    source: np.ndarray,
    child_start: np.ndarray,
    child_counts: np.ndarray,
    n_cut: int,
    skip: np.ndarray | None = None,
) -> None:
    """Copy the k-th child's *source* table into each node's slot.

    For every node in *nodes* with at least ``k + 1`` children, place
    ``source[child_start[node] + k]`` into
    ``destination[:, column : column + n_cut]``.  With *skip* given
    (the downward sweep excluding each node itself from its siblings),
    children equal to the skip target are left as padding.
    """
    max_children = int(child_counts.max()) if len(child_counts) else 0
    for k in range(max_children):
        has = child_counts > k
        if skip is not None:
            child = child_start[nodes] + k
            has = has & (child != skip)
        rows = np.flatnonzero(has)
        if not len(rows):
            continue
        children = child_start[nodes[rows]] + k
        lo = column + k * n_cut
        destination[rows, lo:lo + n_cut] = source[children]


def node_info_sweep(
    csr: TreeCSR, n_cut: int
) -> tuple[np.ndarray, np.ndarray]:
    """Compute every directed edge's fixed-point ``aggrNode`` table.

    Returns ``(up, down)``, both ``(size, n_cut)`` compact-index
    arrays padded with ``-1``:

    * ``up[i]`` — the table ``parent(i)`` holds about ``i`` (undefined
      padding row for the root);
    * ``down[i]`` — the table ``i`` holds about ``parent(i)``
      (undefined for the root).
    """
    size = csr.size
    up = np.full((size, n_cut), -1, dtype=np.int64)
    down = np.full((size, n_cut), -1, dtype=np.int64)
    if size <= 1:
        return up, down
    levels = csr.levels()

    # Upward sweep: deepest level first; children are always one level
    # deeper, so their ``up`` rows are final when the level runs.
    for lo, hi in reversed(levels[1:]):
        nodes = np.arange(lo, hi, dtype=np.int64)
        counts = csr.child_end[lo:hi] - csr.child_start[lo:hi]
        width = 1 + int(counts.max() if len(counts) else 0) * n_cut
        candidates = np.full((hi - lo, width), -1, dtype=np.int64)
        candidates[:, 0] = nodes
        _gather_children(
            candidates, 1, nodes, up, csr.child_start, counts, n_cut
        )
        up[lo:hi] = _rank_rows(
            candidates, csr.parent[lo:hi], csr.dist, csr.host_ids, n_cut
        )

    # Downward sweep: root's children first; a node's ``down`` row
    # depends on its parent's ``down`` (one level up, already final)
    # and its siblings' ``up`` (finished above).
    for lo, hi in levels[1:]:
        nodes = np.arange(lo, hi, dtype=np.int64)
        parents = csr.parent[lo:hi]
        sibling_counts = csr.child_end[parents] - csr.child_start[parents]
        width = (
            1 + n_cut
            + int(sibling_counts.max() if len(sibling_counts) else 0)
            * n_cut
        )
        candidates = np.full((hi - lo, width), -1, dtype=np.int64)
        candidates[:, 0] = parents
        grand = csr.parent[parents] >= 0
        rows = np.flatnonzero(grand)
        if len(rows):
            candidates[rows, 1:1 + n_cut] = down[parents[rows]]
        _gather_children(
            candidates,
            1 + n_cut,
            parents,
            up,
            csr.child_start,
            sibling_counts,
            n_cut,
            skip=nodes,
        )
        down[lo:hi] = _rank_rows(
            candidates, nodes, csr.dist, csr.host_ids, n_cut
        )
    return up, down


def node_info_resweep(
    csr: TreeCSR,
    up: np.ndarray,
    down: np.ndarray,
    n_cut: int,
    anchor: int,
    fresh: int | None = None,
    holes_up: np.ndarray | None = None,
    holes_down: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Masked re-sweep after a single leaf splice under *anchor*.

    *up* and *down* are the pre-change sweep arrays already re-indexed
    to the patched *csr* (a joined leaf's rows blanked to ``-1``;
    references to a departed leaf cleared to ``-1``), and are updated
    **in place**.  *fresh* is the joined leaf's compact index (``None``
    for a departure).  For a departure, *holes_up*/*holes_down* mark
    the rows whose reference to the departed leaf was cleared: each
    one's table already differs from its pre-event value, and its
    freed slot may admit a candidate the old cut line excluded, so
    holed rows are recomputed and reported as changed unconditionally.
    Recomputes exactly the rows the splice can have perturbed:

    * **upward**: ``up`` rows along the leaf→root path starting at the
      splice point, stopping at the first *unholed* row that comes out
      unchanged (every row above it merges the same candidate sets, so
      the whole remaining path is already at fixed point; a holed row
      never stops the walk — its pre-event value fed the parent's
      merge even when its refill lands on the cleared value);
    * **downward**: a masked level-order sweep seeded at the anchor's
      children (their sibling set changed structurally), at every
      holed ``down`` row, and at the siblings of every rewritten
      ``up`` row; a recomputed ``down`` row that changed dirties its
      children on the next level, so dirtiness flows exactly as far
      as information does.

    Rows not recomputed are untouched — and provably unchanged: a
    table can only differ from its pre-splice value if the spliced
    leaf's information flows into its candidate set, and every such
    flow path either crosses a recomputed row first or held the leaf
    directly (and is then a seeded hole).  The result is bit-identical
    to a full :func:`node_info_sweep` (differentially tested in
    ``tests/core/test_churn_kernels.py``).

    Returns ``(changed_up, changed_down, recomputed)``: boolean masks
    of rows whose tables differ from their pre-event values, plus the
    total number of row recomputations (the patch path's "message"
    ledger).
    """
    size = csr.size
    changed_up = np.zeros(size, dtype=bool)
    changed_down = np.zeros(size, dtype=bool)
    recomputed = 0
    if size <= 1:
        return changed_up, changed_down, recomputed

    # Upward pass: one row at a time along the ancestor path.
    x = int(fresh) if fresh is not None else int(anchor)
    while x >= 0:
        px = int(csr.parent[x])
        if px < 0:
            break
        children = np.arange(
            int(csr.child_start[x]), int(csr.child_end[x]), dtype=np.int64
        )
        width = 1 + len(children) * n_cut
        row = np.full((1, width), -1, dtype=np.int64)
        row[0, 0] = x
        if len(children):
            row[0, 1:] = up[children].ravel()
        ranked = _rank_rows(
            row,
            np.asarray([px], dtype=np.int64),
            csr.dist,
            csr.host_ids,
            n_cut,
        )[0]
        recomputed += 1
        holed = holes_up is not None and bool(holes_up[x])
        if np.array_equal(ranked, up[x]) and not holed:
            break
        up[x] = ranked
        changed_up[x] = True
        x = px

    # Downward pass: seed structural dirtiness, then sweep by level.
    dirty = np.zeros(size, dtype=bool)
    dirty[int(csr.child_start[anchor]):int(csr.child_end[anchor])] = True
    if holes_down is not None:
        dirty |= holes_down
    for x in np.flatnonzero(changed_up):
        px = int(csr.parent[x])
        if px >= 0:
            dirty[int(csr.child_start[px]):int(csr.child_end[px])] = True
    for lo, hi in csr.levels()[1:]:
        mask = dirty[lo:hi] | changed_down[csr.parent[lo:hi]]
        rows = np.flatnonzero(mask)
        if not len(rows):
            continue
        nodes = (lo + rows).astype(np.int64)
        parents = csr.parent[nodes]
        sibling_counts = csr.child_end[parents] - csr.child_start[parents]
        width = 1 + n_cut + int(sibling_counts.max()) * n_cut
        candidates = np.full((len(nodes), width), -1, dtype=np.int64)
        candidates[:, 0] = parents
        grand = np.flatnonzero(csr.parent[parents] >= 0)
        if len(grand):
            candidates[grand, 1:1 + n_cut] = down[parents[grand]]
        _gather_children(
            candidates,
            1 + n_cut,
            parents,
            up,
            csr.child_start,
            sibling_counts,
            n_cut,
            skip=nodes,
        )
        ranked = _rank_rows(
            candidates, nodes, csr.dist, csr.host_ids, n_cut
        )
        recomputed += len(nodes)
        moved = ~np.all(ranked == down[nodes], axis=1)
        if holes_down is not None:
            # A holed row counts as changed even when its refill lands
            # on the cleared value: the pre-event table held the
            # departed leaf, so downstream consumers must recommit.
            moved |= holes_down[nodes]
        down[nodes] = ranked
        changed_down[nodes[moved]] = True
    return changed_up, changed_down, recomputed


def clustering_space(
    csr: TreeCSR, up: np.ndarray, down: np.ndarray, node: int
) -> tuple[int, ...]:
    """``V_x = {x} ∪ ⋃_v aggrNode[v]`` of compact *node*, as sorted ids.

    Read straight off the sweep arrays: the tables a node holds about
    its children are their ``up`` rows, the one about its parent is its
    own ``down`` row.  The single definition shared by the cold build
    and the churn re-sweep.
    """
    members = up[int(csr.child_start[node]) : int(csr.child_end[node])]
    kept = members[members >= 0].tolist()
    if int(csr.parent[node]) >= 0:
        row = down[node]
        kept += row[row >= 0].tolist()
    ids = csr.host_ids
    return tuple(sorted({int(ids[node]), *ids[kept].tolist()}))


def clustering_spaces(
    csr: TreeCSR, up: np.ndarray, down: np.ndarray
) -> list[tuple[int, ...]]:
    """:func:`clustering_space` of every compact node, in CSR order."""
    return [clustering_space(csr, up, down, x) for x in range(csr.size)]


def _entries(csr: TreeCSR, rows: np.ndarray) -> list[tuple[int, ...]]:
    """Sweep rows as table entries: sorted host-id tuples, pads dropped."""
    mapped = np.where(rows >= 0, csr.host_ids[rows], -1)
    mapped.sort(axis=1)
    return [tuple(h for h in row if h >= 0) for row in mapped.tolist()]


def tables_from_sweep(
    csr: TreeCSR, up: np.ndarray, down: np.ndarray
) -> dict[int, dict[int, tuple[int, ...]]]:
    """Materialize sweep results as ``{host: {neighbor: sorted ids}}``.

    The id-sorted table-of-dicts presentation the round protocol
    stores, so the two compare with ``==``.
    """
    ids = csr.host_ids.tolist()
    tables: dict[int, dict[int, tuple[int, ...]]] = {h: {} for h in ids}
    if csr.size <= 1:
        return tables
    parents = csr.parent[1:].tolist()
    ups = _entries(csr, up[1:])
    downs = _entries(csr, down[1:])
    for host, parent, toward, away in zip(ids[1:], parents, ups, downs):
        # What the parent knows about this subtree, and vice versa.
        tables[ids[parent]][host] = toward
        tables[host][ids[parent]] = away
    return tables
