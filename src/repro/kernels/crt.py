"""Algorithm 3 (*DynAggrMaxCluster*) as batched array kernels.

Three pieces replace the per-class round protocol:

1. **Per-space pair tables** (:class:`SpaceTable`).  The reference
   computes ``aggrCRT[m][m][l]`` with a binary search over ``k`` that
   re-runs *FindCluster* per probe.  But the answer has a direct form:
   the largest admissible cluster for constraint ``l`` is the largest
   candidate set ``S*_pq`` over pairs with ``d(p, q) <= l`` and
   ``diam(S*_pq) <= l`` (every *FindCluster* success returns some
   ``S*_pq`` prefix, and success at ``k`` implies ``|S*_pq| >= k`` for
   one such pair) — or ``1`` when no pair qualifies.  The table sorts
   the space's pairs by ``d(p, q)`` once, computes ``|S*_pq|`` in
   vectorized chunks *lazily* up to the largest constraint seen, and
   keeps a running prefix max/argmax so a class lookup is a
   ``searchsorted`` plus one (cached) diameter spot-check.  Tables are
   class-independent, so every bandwidth class — and every host whose
   clustering space has the same contents — shares one.
2. **A batched own matrix** (:meth:`CrtPrecompute.own_matrix`): all
   hosts × all requested classes evaluated against the shared tables
   in one pass, deduplicated by space contents.
3. **Two level-order max-sweeps** (:func:`crt_sweep`) for the
   propagated values.  The fixed point ``C(x, m) = max(own[m],
   max_{v in N(m) \\ {x}} C(m, v))`` has the same rerooting structure
   as the node-info sweep, with ``max`` replacing top-``n_cut``
   ranking, and is batched across all classes as array columns.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.kernels.tree import TreeCSR
from repro.metrics.metric import submatrix

__all__ = [
    "SpaceTable",
    "CrtPrecompute",
    "crt_sweep",
    "crt_tables",
]

#: Upper bound on ``chunk_rows * space_size`` for the boolean candidate
#: masks — keeps peak mask memory around a few MB per in-flight chunk.
_CHUNK_CELLS = 4_000_000


class SpaceTable:
    """Max-cluster-size oracle for one clustering space.

    Thread-safe: per-class extractions run concurrently on the service
    executor, and several class searches may share one table.
    """

    def __init__(self, sub: np.ndarray) -> None:
        self._sub = sub
        self._lock = threading.Lock()
        self._diam_cache: dict[int, float] = {}
        size = int(sub.shape[0])
        self._size = size
        if size < 2:
            self._pair_count = 0
            return
        iu, iv = np.triu_indices(size, k=1)
        dpq = sub[iu, iv]
        order = np.argsort(dpq, kind="stable")
        self._iu = iu[order]
        self._iv = iv[order]
        self._dpq = dpq[order]
        self._pair_count = int(order.shape[0])
        self._sizes = np.zeros(self._pair_count, dtype=np.int64)
        self._prefix_max = np.zeros(self._pair_count, dtype=np.int64)
        self._prefix_arg = np.zeros(self._pair_count, dtype=np.int64)
        self._covered = 0

    def _extend_locked(self, limit: int) -> None:
        """Compute ``|S*_pq|`` for sorted pairs ``[covered, limit)``."""
        sub = self._sub
        chunk = max(1, _CHUNK_CELLS // max(self._size, 1))
        while self._covered < limit:
            lo = self._covered
            hi = min(limit, lo + chunk)
            dpq = self._dpq[lo:hi, None]
            mask = (sub[self._iu[lo:hi]] <= dpq) & (
                sub[self._iv[lo:hi]] <= dpq
            )
            self._sizes[lo:hi] = mask.sum(axis=1)
            running = self._prefix_max[lo - 1] if lo else np.int64(0)
            arg = self._prefix_arg[lo - 1] if lo else np.int64(0)
            for index in range(lo, hi):
                if self._sizes[index] > running:
                    running = self._sizes[index]
                    arg = np.int64(index)
                self._prefix_max[index] = running
                self._prefix_arg[index] = arg
            self._covered = hi

    def _diam_locked(self, index: int) -> float:
        cached = self._diam_cache.get(index)
        if cached is not None:
            return cached
        sub = self._sub
        dpq = self._dpq[index]
        mask = (sub[self._iu[index]] <= dpq) & (sub[self._iv[index]] <= dpq)
        members = np.flatnonzero(mask)
        diam = float(sub[np.ix_(members, members)].max())
        self._diam_cache[index] = diam
        return diam

    def max_size_for(self, l: float) -> int:
        """Largest admissible cluster size for constraint *l*.

        Matches :func:`repro.core.find_cluster.max_cluster_size` on the
        space's restricted distance matrix exactly, including the
        float comparison semantics of the pair scan.
        """
        if self._size < 2:
            return self._size
        with self._lock:
            limit = int(np.searchsorted(self._dpq, l, side="right"))
            if limit == 0:
                return 1
            self._extend_locked(limit)
            best = int(self._prefix_arg[limit - 1])
            if self._diam_locked(best) <= l:
                return int(self._sizes[best])
            # Rare: the biggest candidate set spreads wider than l.
            # Scan eligible pairs by descending size until one's
            # diameter fits; diameters are cached, so repeated lookups
            # for nearby classes stay cheap.
            by_size = np.argsort(
                self._sizes[:limit], kind="stable"
            )[::-1]
            for index in by_size:
                if self._sizes[index] < 2:
                    break
                if self._diam_locked(int(index)) <= l:
                    return int(self._sizes[index])
            return 1


class CrtPrecompute:
    """Class-independent CRT state shared by every per-class search.

    Deduplicates :class:`SpaceTable` construction by space contents —
    on real overlays most hosts' clustering spaces coincide — and is
    safe to share across the service executor's worker threads.
    """

    def __init__(self, distance_values: np.ndarray) -> None:
        self._values = np.asarray(distance_values, dtype=np.float64)
        self._tables: dict[tuple[int, ...], SpaceTable] = {}
        self._lock = threading.Lock()

    def table_for(self, space: tuple[int, ...]) -> SpaceTable:
        """The (shared, lazily built) table for one space's contents."""
        with self._lock:
            table = self._tables.get(space)
        if table is not None:
            return table
        # Build outside the lock: construction is O(n^2) (submatrix +
        # pair argsort), and holding the global lock for it serializes
        # executor threads even when they want *different* spaces.  On
        # a race the first insert wins so every caller shares one
        # canonical table.
        built = SpaceTable(submatrix(self._values, space))
        with self._lock:
            return self._tables.setdefault(space, built)

    @property
    def distinct_spaces(self) -> int:
        """Number of distinct space tables built so far."""
        with self._lock:
            return len(self._tables)

    def carried(
        self,
        distance_values: np.ndarray,
        drop: int | None = None,
    ) -> CrtPrecompute:
        """A fresh precompute inheriting this one's space tables.

        The incremental churn path swaps in a new instance per
        membership event rather than mutating the shared one (adopted
        snapshots may still be reading it).  Tables are keyed by space
        *contents* and built from pairwise distances that membership
        churn never alters, so every table whose space survives the
        event is still exact: a joined host only appears in *new*
        space tuples, and a departed host's tuples (*drop*) can never
        be requested again once the spaces are re-derived.
        """
        fresh = CrtPrecompute(distance_values)
        with self._lock:
            for space, table in self._tables.items():
                if drop is not None and drop in space:
                    continue
                fresh._tables[space] = table
        return fresh

    def own_matrix(
        self,
        spaces: list[tuple[int, ...]],
        distance_classes: list[float],
    ) -> np.ndarray:
        """``own[i][j] = max_cluster_size(spaces[i], classes[j])``.

        The batched form of Algorithm 3 line 8: every host × every
        requested class in one pass over the shared tables.
        """
        own = np.ones(
            (len(spaces), len(distance_classes)), dtype=np.int64
        )
        cache: dict[tuple[int, ...], np.ndarray] = {}
        for row, space in enumerate(spaces):
            done = cache.get(space)
            if done is None:
                table = self.table_for(space)
                done = np.asarray(
                    [table.max_size_for(l) for l in distance_classes],
                    dtype=np.int64,
                )
                cache[space] = done
            own[row] = done
        return own


def crt_sweep(
    csr: TreeCSR, own: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point CRT values for every directed edge, all classes.

    *own* is the ``(size, classes)`` matrix from
    :meth:`CrtPrecompute.own_matrix`.  Returns ``(up_crt, down_crt)``:
    ``up_crt[i]`` is what ``i`` sends its parent (the subtree max
    including ``own[i]``); ``down_crt[i]`` is what the parent sends
    ``i`` (the rest-of-tree max).  Rows for the root are unused.
    """
    up_crt = own.copy()
    levels = csr.levels()
    # Subtree maxes, deepest level first: each level folds into its
    # parents (one level up), so children are final when read.
    for lo, hi in reversed(levels[1:]):
        np.maximum.at(up_crt, csr.parent[lo:hi], up_crt[lo:hi])

    # Rest-of-tree maxes, parents before children (BFS index order
    # guarantees down_crt[parent] is final; sizes are >= 1, so 0 is a
    # safe identity for the root's missing upstream contribution).
    down_crt = np.zeros_like(own)
    for node in range(csr.size):
        start = int(csr.child_start[node])
        end = int(csr.child_end[node])
        if start == end:
            continue
        base = own[node]
        if csr.parent[node] >= 0:
            base = np.maximum(base, down_crt[node])
        block = up_crt[start:end]
        count = end - start
        if count == 1:
            down_crt[start] = base
            continue
        # Exclude each child from its siblings' max via prefix/suffix
        # running maxes over the contiguous children block.
        prefix = np.maximum.accumulate(block, axis=0)
        suffix = np.maximum.accumulate(block[::-1], axis=0)[::-1]
        siblings = np.empty_like(block)
        siblings[0] = suffix[1]
        siblings[-1] = prefix[-2]
        if count > 2:
            siblings[1:-1] = np.maximum(prefix[:-2], suffix[2:])
        down_crt[start:end] = np.maximum(base, siblings)
    return up_crt, down_crt


def crt_tables(
    csr: TreeCSR,
    own: np.ndarray,
    up_crt: np.ndarray,
    down_crt: np.ndarray,
    distance_classes: list[float],
) -> dict[int, dict[int, dict[float, int]]]:
    """Materialize sweep results as per-host ``aggrCRT`` dicts.

    Output matches the reference protocol state exactly:
    ``{host: {neighbor_or_self: {l: max size}}}``, where the self entry
    is the host's own table (Algorithm 3 line 8).
    """

    def entry(row: np.ndarray) -> dict[float, int]:
        return {
            l: int(row[j]) for j, l in enumerate(distance_classes)
        }

    tables: dict[int, dict[int, dict[float, int]]] = {}
    for index in range(csr.size):
        host = int(csr.host_ids[index])
        tables[host] = {host: entry(own[index])}
    for index in range(csr.size):
        parent = int(csr.parent[index])
        if parent < 0:
            continue
        host = int(csr.host_ids[index])
        parent_host = int(csr.host_ids[parent])
        tables[parent_host][host] = entry(up_crt[index])
        tables[host][parent_host] = entry(down_crt[index])
    return tables
