"""Incremental maintenance kernels for membership churn.

A membership event need not recompile the stack: the prediction-tree
framework always attaches a join as a single leaf, and most departures
remove one, so the compiled arrays held by
``AggregationSubstrate`` can be *patched*:

1. **Topology splice** (:func:`splice_join` / :func:`splice_leave`):
   :meth:`TreeCSR.patch_join`/:meth:`~TreeCSR.patch_leaf_leave` rewrite
   the BFS numbering in O(size) shifts, and the sweep arrays are
   re-indexed to match (a joined leaf gets blank rows; references to a
   departed leaf are cleared — every row holding one is recomputed
   before anything reads it).
2. **Masked re-sweep** (:func:`resweep`): :func:`~repro.kernels.aggr.
   node_info_resweep` recomputes only the rows the splice can have
   perturbed, then the clustering spaces of exactly the nodes whose
   tables changed are re-derived with :func:`~repro.kernels.aggr.
   clustering_space`.  Results are bit-identical to a full
   recompile (differential- and hypothesis-tested).

Events the splice premise cannot absorb — an interior departure whose
subtree re-attaches, removal of the compiled root — raise
:class:`~repro.exceptions.TreePatchFallback`, and the caller walks down
the maintenance ladder to its only other rung, a full rebuild.

This module is numpy-pure (no core/service imports — see lint rule
RPR010); the substrate assembles the results back into its
``KernelView`` under the membership lock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.aggr import clustering_space, node_info_resweep
from repro.kernels.tree import TreeCSR

__all__ = [
    "TopologyPatch",
    "ChurnResult",
    "splice_join",
    "splice_leave",
    "resweep",
]


@dataclass(frozen=True)
class TopologyPatch:
    """A spliced tree plus sweep arrays re-indexed to it.

    Intermediate state between the topology splice and the masked
    re-sweep — split so the substrate can trace the two stages as
    separate spans (``churn.patch`` / ``churn.resweep``).
    """

    kind: str
    csr: TreeCSR
    up: np.ndarray
    down: np.ndarray
    anchor: int
    position: int
    host: int
    #: Rows (post-splice numbering) that referenced the departed leaf
    #: and had the reference cleared to ``-1`` — each one's table
    #: changed by definition and its freed slot may admit a new
    #: candidate, so the re-sweep must revisit every one.  ``None``
    #: for a join (inserting a candidate punches no holes).
    holes_up: np.ndarray | None = None
    holes_down: np.ndarray | None = None


@dataclass(frozen=True)
class ChurnResult:
    """Everything a patched membership event changed.

    ``up``/``down`` are the post-event sweep arrays (bit-identical to a
    full :func:`~repro.kernels.aggr.node_info_sweep` of ``csr``);
    ``spaces`` is the full post-event clustering space list;
    ``dirty_hosts`` is every host whose tables or space changed (plus
    the churned host itself) — the unit the answer-table patch sizes
    its rebuild-threshold decision on.
    """

    kind: str
    csr: TreeCSR
    spaces: list[tuple[int, ...]]
    up: np.ndarray
    down: np.ndarray
    dirty_hosts: frozenset[int]
    recomputed: int
    position: int
    host: int


def splice_join(
    csr: TreeCSR,
    up: np.ndarray,
    down: np.ndarray,
    host: int,
    anchor: int,
    distance_values: np.ndarray,
) -> TopologyPatch:
    """Splice joined leaf *host* under *anchor* host and re-index.

    Raises :class:`~repro.exceptions.TreePatchFallback` when the
    single-leaf splice premise does not hold.
    """
    patched, position = csr.patch_join(host, anchor, distance_values)
    up = np.insert(up, position, -1, axis=0)
    up[up >= position] += 1
    down = np.insert(down, position, -1, axis=0)
    down[down >= position] += 1
    anchor_index = int(patched.parent[position])
    return TopologyPatch(
        kind="join",
        csr=patched,
        up=up,
        down=down,
        anchor=anchor_index,
        position=position,
        host=int(host),
    )


def splice_leave(
    csr: TreeCSR,
    up: np.ndarray,
    down: np.ndarray,
    host: int,
) -> TopologyPatch:
    """Splice departed leaf *host* out of the arrays.

    Raises :class:`~repro.exceptions.TreePatchFallback` when *host* is
    not a leaf of the compiled tree (or is its root) — those events
    restructure the overlay and must take the full-rebuild rung.
    """
    patched, position = csr.patch_leaf_leave(host)
    # The former parent's compact index precedes the leaf's, so it is
    # unchanged by the deletion shift.
    anchor_index = int(csr.parent[position])
    # Rows referencing the departed index — anywhere in the tree for
    # ``down`` (its information flowed root-ward then fanned out),
    # along the anchor->root path for ``up``.  Clearing the reference
    # changes each such table AND frees a slot a previously cut
    # candidate may now claim, so the masks ride along for the
    # re-sweep to force-revisit them.
    holes_up = np.delete((up == position).any(axis=1), position)
    holes_down = np.delete((down == position).any(axis=1), position)
    up = np.delete(up, position, axis=0)
    up[up == position] = -1
    up[up > position] -= 1
    down = np.delete(down, position, axis=0)
    down[down == position] = -1
    down[down > position] -= 1
    return TopologyPatch(
        kind="leave",
        csr=patched,
        up=up,
        down=down,
        anchor=anchor_index,
        position=position,
        host=int(host),
        holes_up=holes_up,
        holes_down=holes_down,
    )


def resweep(
    patch: TopologyPatch,
    spaces: list[tuple[int, ...]],
    n_cut: int,
) -> ChurnResult:
    """Run the masked re-sweep and re-derive the perturbed spaces.

    *spaces* is the pre-event clustering space list (host-id tuples,
    indexed by the pre-event compact numbering); only the entries whose
    node-info tables changed are recomputed.
    """
    csr = patch.csr
    up = patch.up
    down = patch.down
    changed_up, changed_down, recomputed = node_info_resweep(
        csr,
        up,
        down,
        n_cut,
        patch.anchor,
        fresh=patch.position if patch.kind == "join" else None,
        holes_up=patch.holes_up,
        holes_down=patch.holes_down,
    )

    new_spaces = list(spaces)
    if patch.kind == "join":
        new_spaces.insert(patch.position, ())
    else:
        del new_spaces[patch.position]

    affected = {int(x) for x in np.flatnonzero(changed_down)}
    for x in np.flatnonzero(changed_up):
        px = int(csr.parent[x])
        if px >= 0:
            affected.add(px)
    # The splice point's own neighbor set changed even when no table
    # row moved: the anchor gained/lost the leaf's contribution, and a
    # joined leaf's space must be derived from scratch.
    affected.add(patch.anchor)
    if patch.kind == "join":
        affected.add(patch.position)
    for x in affected:
        new_spaces[x] = clustering_space(csr, up, down, x)

    dirty = {int(csr.host_ids[x]) for x in affected}
    dirty.add(patch.host)
    return ChurnResult(
        kind=patch.kind,
        csr=csr,
        spaces=new_spaces,
        up=up,
        down=down,
        dirty_hosts=frozenset(dirty),
        recomputed=recomputed,
        position=patch.position,
        host=patch.host,
    )
