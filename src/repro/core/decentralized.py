"""Decentralized clustering: Algorithms 2, 3 and 4 (Sec. III-B).

Every host keeps, per overlay neighbor ``m``:

* ``aggrNode[m]`` — the ``n_cut`` closest hosts (by predicted distance)
  among everything reachable via ``m`` (Algorithm 2, *DynAggrNodeInfo*);
* ``aggrCRT[m][l]`` — the maximum cluster size of diameter class ``l``
  that exists in ``m``'s direction (Algorithm 3, *DynAggrMaxCluster*);
  the host's own entry ``aggrCRT[self][l]`` holds the maximum size of a
  cluster it can build from its local clustering space
  ``V_x = {x} ∪ ⋃ aggrNode[v]``.

These tables form the **cluster routing table (CRT)**.  A query ``(k, l)``
submitted at any host either gets answered from the local space or is
forwarded toward a neighbor whose CRT promises a big-enough cluster
(Algorithm 4, *ProcessQuery*).  On the tree overlay a query that never
returns to its immediate predecessor can never revisit a host, so
routing always terminates.

The two aggregation mechanisms split cleanly by what they depend on:
``aggrNode`` is *class-independent* (driven only by predicted distances
and ``n_cut``) while ``aggrCRT`` depends on the distance-class set.
:class:`AggregationSubstrate` captures the class-independent half so one
Algorithm 2 fixed point can be shared by any number of per-class
searches.  It computes that fixed point with the array sweeps of
:mod:`repro.kernels` and patches it across single-leaf overlay changes
instead of rebuilding it.

:class:`DecentralizedClusterSearch` has two modes.  Standalone, it is
the paper-literal protocol: the background mechanisms are periodic,
and :meth:`~DecentralizedClusterSearch.run_aggregation` executes
synchronous rounds of Algorithms 2 and 3 until a fixed point, reached
after at most (anchor-tree diameter) rounds because information travels
one overlay hop per round.  The simulator and the experiments use it
this way, and the test suite holds the substrate to it as the oracle.
Layered over a shared substrate, it adopts the substrate's fixed point
and runs only the batched Algorithm 3 kernel for its own classes.  The
test suite also validates the fixed point against direct oracles
derived from Theorems 3.2 and 3.3.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

import numpy as np

from repro._validation import check_cluster_size
from repro.core.find_cluster import find_cluster, max_cluster_size
from repro.core.query import BandwidthClasses
from repro.exceptions import (
    KernelError,
    QueryError,
    TreePatchFallback,
    ValidationError,
)
from repro.kernels.aggr import (
    clustering_spaces,
    node_info_sweep,
    tables_from_sweep,
)
from repro.kernels.churn import resweep, splice_join, splice_leave
from repro.kernels.crt import CrtPrecompute, crt_sweep, crt_tables
from repro.kernels.tree import TreeCSR, compile_tree
from repro.metrics.metric import DistanceMatrix
from repro.obs import NOOP_TRACER, SpanLike, TracerLike
from repro.predtree.framework import BandwidthPredictionFramework

__all__ = [
    "ClusterNodeState",
    "AggregationReport",
    "AggregationSubstrate",
    "ChurnEvent",
    "KernelView",
    "MaintenanceReport",
    "SubstrateSnapshot",
    "QueryResult",
    "DecentralizedClusterSearch",
    "propagate_node_info",
    "propagate_crt",
    "own_crt_table",
]


def propagate_node_info(
    m_host: int,
    m_aggr_node: dict[int, tuple[int, ...]],
    x: int,
    distance_row,
    n_cut: int,
) -> tuple[int, ...]:
    """Algorithm 2, lines 2-6 — the message ``m`` sends neighbor ``x``.

    ``candNode = {m} ∪ ⋃_{v != x} m.aggrNode[v]``; the result keeps the
    ``n_cut`` candidates closest to *x* by predicted distance (ties
    broken by node id for determinism), sorted by id.
    """
    candidates = {m_host}
    for neighbor, nodes in m_aggr_node.items():
        if neighbor != x:
            candidates.update(nodes)
    ranked = sorted(candidates, key=lambda u: (distance_row[u], u))
    return tuple(sorted(ranked[:n_cut]))


def own_crt_table(
    space: tuple[int, ...],
    distances: DistanceMatrix,
    distance_classes: list[float],
) -> dict[float, int]:
    """Algorithm 3, line 8 — max cluster size per class in ``V_m``."""
    local = distances.restrict(list(space))
    return {l: max_cluster_size(local, l) for l in distance_classes}


def propagate_crt(
    m_neighbors: list[int],
    m_aggr_crt: dict[int, dict[float, int]],
    x: int,
    own: dict[float, int],
    distance_classes: list[float],
) -> dict[float, int]:
    """Algorithm 3, line 9 — the CRT message ``m`` sends neighbor ``x``:
    the max over ``m``'s own space and every direction except ``x``."""
    table: dict[float, int] = {}
    for l in distance_classes:
        best = own.get(l, 0)
        for neighbor in m_neighbors:
            if neighbor == x:
                continue
            best = max(best, m_aggr_crt.get(neighbor, {}).get(l, 0))
        table[l] = best
    return table


@dataclass
class ClusterNodeState:
    """Per-host protocol state (the node's entire local knowledge).

    Attributes
    ----------
    host:
        The host id.
    neighbors:
        Overlay (anchor-tree) neighbors.
    aggr_node:
        ``aggrNode[m]`` per neighbor — sorted tuples of host ids.
    aggr_crt:
        ``aggrCRT[m][l]`` per neighbor *and* per self — max cluster size
        per distance class.
    """

    host: int
    neighbors: list[int]
    aggr_node: dict[int, tuple[int, ...]] = field(default_factory=dict)
    aggr_crt: dict[int, dict[float, int]] = field(default_factory=dict)

    def clustering_space(self) -> list[int]:
        """``V_x = {x} ∪ ⋃_v aggrNode[v]`` (sorted, Sec. III-B.3)."""
        members = {self.host}
        for nodes in self.aggr_node.values():
            members.update(nodes)
        return sorted(members)

    def own_max_size(self, l: float) -> int:
        """``aggrCRT[self][l]`` — max cluster size in the local space."""
        return self.aggr_crt.get(self.host, {}).get(l, 0)


@dataclass(frozen=True)
class AggregationReport:
    """Outcome of running the background mechanisms to fixed point.

    Attributes
    ----------
    rounds:
        Synchronous rounds executed.
    converged:
        Whether a fixed point was reached within the round budget.
    node_info_messages:
        Total Algorithm 2 messages sent (one per directed overlay edge
        per round).
    crt_messages:
        Total Algorithm 3 messages sent.
    """

    rounds: int
    converged: bool
    node_info_messages: int
    crt_messages: int


@dataclass(frozen=True)
class MaintenanceReport:
    """Outcome of one substrate maintenance operation.

    Attributes
    ----------
    kind:
        ``"build"`` (first full fixed point), ``"patch"`` (the churn
        kernels spliced the event into the compiled arrays),
        ``"rebuild"`` (the patch was refused and the fixed point was
        recomputed cold), or ``"noop"`` (:meth:`AggregationSubstrate.
        ensure` found the substrate already current).
    rounds:
        Sweeps executed: 2 for a build/rebuild (one upward, one
        downward), 0 for a patch (the masked re-sweep is closed-form,
        not iterative) or a no-op.
    messages:
        Directed-edge table rows computed — ``2 * (hosts - 1)`` for a
        build/rebuild, the rows the masked re-sweep recomputed for a
        patch (the comparable work ledger of Algorithm 2's messages).
    touched_hosts:
        Hosts whose tables or clustering spaces changed (the blast
        radius of a patch; the full host count for a build/rebuild).
    fallbacks:
        1 when the kernel patch declined the event and the reported
        rebuild absorbed it instead; 0 otherwise.
    """

    kind: str
    rounds: int
    messages: int
    touched_hosts: int
    fallbacks: int = 0


@dataclass(frozen=True)
class KernelView:
    """Compiled array view of a substrate fixed point.

    Produced by every :class:`AggregationSubstrate` build and patch and
    consumed by per-class searches and answer tables: the compiled
    anchor tree, every host's clustering-space contents (aligned to the
    CSR's compact numbering), and the shared class-independent CRT
    precompute.  The view is immutable and internally thread-safe, so
    any number of concurrent per-class passes can extract from it.
    """

    csr: TreeCSR
    spaces: list[tuple[int, ...]]
    precompute: CrtPrecompute


#: ``{host: (overlay neighbors, aggrNode tables)}`` — the dict view of a
#: substrate fixed point, shaped like the round protocol's node state.
SubstrateSnapshot = dict[int, tuple[list[int], dict[int, tuple[int, ...]]]]


@dataclass(frozen=True)
class ChurnEvent:
    """One kernel-patched membership event, for downstream patchers.

    Published by :class:`AggregationSubstrate` when a join/leave was
    absorbed by the churn kernels (``MaintenanceReport.kind ==
    "patch"``) and consumed by the service layer to patch its answer
    tables instead of dropping them.  Everything here is the *post-
    event* state: the freshly patched kernel view, the protocol-order
    neighbor lists, and the set of hosts whose tables or clustering
    spaces the event actually changed.
    """

    kind: str
    host: int
    generation: int
    view: KernelView
    neighbors: dict[int, list[int]]
    distances: DistanceMatrix
    dirty_hosts: frozenset[int]
    removed: int | None


class AggregationSubstrate:
    """The class-independent half of the CRT: Algorithm 2 at fixed point.

    One substrate holds the overlay neighbor lists and the Algorithm 2
    fixed point — everything Algorithms 3 and 4 consume that does *not*
    depend on the distance-class set.  Build it once per overlay
    generation and layer any number of per-class
    :class:`DecentralizedClusterSearch` passes on top (each pays only
    the cheap CRT pass for its own classes).

    The fixed point is stored once, as arrays: the node-info sweep
    arrays ``(up, down)`` of :func:`~repro.kernels.aggr.node_info_sweep`
    plus the :class:`KernelView` compiled beside them.  The dict view
    per-class searches adopt (:meth:`snapshot`) is derived from those
    arrays at most once per generation, on first use, and shared
    read-only.

    Membership changes climb a two-rung ladder: a single-leaf join or a
    leaf departure is *patched* into the arrays (CSR splice plus masked
    re-sweep, :mod:`repro.kernels.churn`); an event the splice refuses
    falls to a full rebuild.

    All mutating and snapshot-taking methods are serialized behind an
    internal lock so a service thread can maintain the substrate while
    query threads adopt it.

    Parameters
    ----------
    framework:
        The live prediction framework (overlay + predicted distances).
    n_cut:
        Algorithm 2 aggregation cutoff.
    tracer:
        Optional :class:`~repro.obs.tracer.TracerLike`; builds and
        maintenance emit ``substrate.*``, ``kernel.*`` and ``churn.*``
        spans.  Defaults to the zero-overhead no-op tracer.

    Raises
    ------
    KernelError
        From :meth:`build` (and any method that builds first) when the
        overlay's neighbor lists do not form a tree the kernels can
        compile.
    """

    def __init__(
        self,
        framework: BandwidthPredictionFramework,
        n_cut: int = 10,
        tracer: TracerLike = NOOP_TRACER,
    ) -> None:
        if n_cut < 1:
            raise ValidationError(f"n_cut must be >= 1, got {n_cut!r}")
        self.framework = framework
        self.n_cut = int(n_cut)
        self._tracer = tracer
        self._lock = threading.RLock()
        self._distances: DistanceMatrix = (
            framework.predicted_distance_matrix(allow_partial=True)
        )
        self._neighbors: dict[int, list[int]] = {
            host: framework.overlay_neighbors(host)
            for host in framework.hosts
        }
        self._built = False
        self._generation = framework.generation
        # The canonical fixed point: the compiled view and the sweep
        # arrays matching ``_view.csr``; ``None`` until the first build.
        self._view: KernelView | None = None
        self._sweep: tuple[np.ndarray, np.ndarray] | None = None
        # The dict view derived from ``_sweep``; dropped by every
        # maintenance operation and re-derived on the next adoption.
        self._snapshot: SubstrateSnapshot | None = None
        self._last_churn: ChurnEvent | None = None

    # -- introspection ------------------------------------------------------

    @property
    def generation(self) -> int:
        """Framework generation the fixed point was last synchronized to."""
        with self._lock:
            return self._generation

    @property
    def built(self) -> bool:
        """Whether the Algorithm 2 fixed point has been computed."""
        with self._lock:
            return self._built

    @property
    def hosts(self) -> list[int]:
        """Hosts currently covered by the substrate."""
        with self._lock:
            return list(self._neighbors)

    @property
    def distances(self) -> DistanceMatrix:
        """The predicted-distance matrix the tables rank against."""
        with self._lock:
            return self._distances

    def snapshot(self) -> SubstrateSnapshot:
        """The fixed point as ``{host: (neighbors, aggr_node)}``.

        Derived from the sweep arrays with
        :func:`~repro.kernels.aggr.tables_from_sweep` the first time it
        is asked for after a build or patch, then shared: every caller
        until the next maintenance operation receives the *same*
        object, so treat it as read-only.  Maintenance never mutates a
        published snapshot — it drops the reference and derives a
        fresh one — so an adopter's view stays frozen at its
        generation.  A substrate that was never built is built first.
        """
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> SubstrateSnapshot:
        if not self._built:
            self.build()
        if self._snapshot is None:
            assert self._view is not None and self._sweep is not None
            csr = self._view.csr
            with self._tracer.start_span(
                "substrate.derive", hosts=csr.size
            ):
                tables = tables_from_sweep(csr, *self._sweep)
                self._snapshot = {
                    host: (self._neighbors[host], tables[host])
                    for host in self._neighbors
                }
        return self._snapshot

    def adopt_view(
        self,
    ) -> tuple[DistanceMatrix, SubstrateSnapshot, KernelView]:
        """Atomic adoption view: ``(distances, snapshot, kernel view)``.

        All three pieces are taken under one lock acquisition, so a
        concurrent maintenance operation can never interleave between
        them and hand an adopter tables from one generation with
        distances from another.  A substrate that was never built is
        built first; a built-but-stale one is adopted as-is at its
        recorded generation — staleness policy belongs to the caller
        (the service re-validates its pinned generation before
        publishing), and rebuilding here would read the live framework
        from a context that holds no membership lock.
        """
        with self._lock:
            snapshot = self._snapshot_locked()
            assert self._view is not None
            return self._distances, snapshot, self._view

    # -- fixed-point computation --------------------------------------------

    def _rebuild_locked(self) -> MaintenanceReport:
        """Cold full fixed point; caller holds the lock.

        Compiles the overlay and runs the two node-info sweeps — one
        upward, one downward — instead of ``O(diameter)`` rounds.  A
        :class:`~repro.exceptions.KernelError` from the compiler (the
        neighbor lists do not form a tree) propagates and leaves the
        substrate unbuilt.
        """
        self._built = False
        self._view = None
        self._sweep = None
        self._snapshot = None
        self._distances = self.framework.predicted_distance_matrix(
            allow_partial=True
        )
        self._neighbors = {
            host: self.framework.overlay_neighbors(host)
            for host in self.framework.hosts
        }
        with self._tracer.start_span(
            "kernel.compile", hosts=len(self._neighbors)
        ) as span:
            csr = compile_tree(self._neighbors, self._distances.values)
            span.set(depth=csr.depth)
        with self._tracer.start_span(
            "kernel.sweep", kind="node_info", hosts=csr.size
        ) as span:
            up, down = node_info_sweep(csr, self.n_cut)
            span.set(levels=csr.depth + 1)
        self._sweep = (up, down)
        self._view = KernelView(
            csr=csr,
            spaces=clustering_spaces(csr, up, down),
            precompute=CrtPrecompute(self._distances.values),
        )
        self._built = True
        self._generation = self.framework.generation
        # Each sweep visits every directed edge once — the message /
        # round ledger of the closed form.
        return MaintenanceReport(
            kind="rebuild",
            rounds=2,
            messages=2 * (csr.size - 1),
            touched_hosts=csr.size,
        )

    def build(self) -> MaintenanceReport:
        """Compute (or recompute, if stale) the full fixed point."""
        with self._tracer.start_span("substrate.build") as span:
            with self._lock:
                report = replace(self._rebuild_locked(), kind="build")
                span.set(
                    generation=self._generation,
                    rounds=report.rounds,
                    messages=report.messages,
                    touched_hosts=report.touched_hosts,
                )
            return report

    def ensure(self) -> MaintenanceReport:
        """Idempotent build: a ``"noop"`` report when already current."""
        with self._lock:
            if self._built and self._generation == self.framework.generation:
                return MaintenanceReport(
                    kind="noop", rounds=0, messages=0, touched_hosts=0
                )
            return self.build()

    # -- incremental maintenance --------------------------------------------

    def take_churn_event(self) -> ChurnEvent | None:
        """Consume the :class:`ChurnEvent` of the latest patched change.

        Non-``None`` exactly when the most recent :meth:`apply_join`/
        :meth:`apply_leave` reported ``kind == "patch"`` and the event
        has not been taken yet; consuming is destructive so a stale
        event can never be applied twice.
        """
        with self._lock:
            event = self._last_churn
            self._last_churn = None
            return event

    def _patch_event_locked(
        self, kind: str, host: int
    ) -> MaintenanceReport | None:
        """Try to absorb a membership event with the churn kernels.

        Returns ``None`` — fall to the rebuild rung — when any kernel
        stage raises :class:`~repro.exceptions.KernelError` (including
        the typed :class:`~repro.exceptions.TreePatchFallback` splice
        refusals).  On success the neighbor lists, kernel view, sweep
        arrays, and the :class:`ChurnEvent` for downstream patchers are
        all updated under the held lock.
        """
        view, sweep = self._view, self._sweep
        assert view is not None and sweep is not None
        try:
            with self._tracer.start_span(
                "churn.patch", kind=kind, host=host
            ) as span:
                if kind == "join":
                    anchors = self.framework.overlay_neighbors(host)
                    if len(anchors) != 1:
                        raise TreePatchFallback(
                            f"join of host {host!r} did not attach a "
                            "single leaf"
                        )
                    topology = splice_join(
                        view.csr,
                        sweep[0].copy(),
                        sweep[1].copy(),
                        host,
                        anchors[0],
                        self._distances.values,
                    )
                else:
                    topology = splice_leave(
                        view.csr, sweep[0].copy(), sweep[1].copy(), host
                    )
                span.set(position=topology.position)
            with self._tracer.start_span(
                "churn.resweep", kind=kind, host=host
            ) as span:
                result = resweep(topology, view.spaces, self.n_cut)
                span.set(
                    recomputed=result.recomputed,
                    dirty_hosts=len(result.dirty_hosts),
                )
        except KernelError:
            return None

        if kind == "join":
            self._neighbors[host] = list(
                self.framework.overlay_neighbors(host)
            )
            anchor_hosts = list(self._neighbors[host])
        else:
            anchor_hosts = [
                n for n in self._neighbors.pop(host) if n in self._neighbors
            ]
        for neighbor in anchor_hosts:
            self._neighbors[neighbor] = self.framework.overlay_neighbors(
                neighbor
            )

        removed = int(host) if kind == "leave" else None
        precompute = view.precompute.carried(
            self._distances.values, drop=removed
        )
        patched_view = KernelView(
            csr=result.csr, spaces=result.spaces, precompute=precompute
        )
        self._view = patched_view
        self._sweep = (result.up, result.down)
        self._generation = self.framework.generation
        self._last_churn = ChurnEvent(
            kind=kind,
            host=int(host),
            generation=self._generation,
            view=patched_view,
            neighbors={h: list(v) for h, v in self._neighbors.items()},
            distances=self._distances,
            dirty_hosts=result.dirty_hosts,
            removed=removed,
        )
        return MaintenanceReport(
            kind="patch",
            rounds=0,
            messages=result.recomputed,
            touched_hosts=len(result.dirty_hosts),
        )

    def _maintain_locked(
        self, kind: str, host: int, span: SpanLike
    ) -> MaintenanceReport:
        """Patch, else rebuild; caller holds the lock."""
        self._distances = self.framework.predicted_distance_matrix(
            allow_partial=True
        )
        self._last_churn = None
        self._snapshot = None
        report = self._patch_event_locked(kind, host)
        if report is None:
            report = replace(self._rebuild_locked(), fallbacks=1)
        span.set(
            kind=report.kind,
            generation=self._generation,
            rounds=report.rounds,
            messages=report.messages,
            touched_hosts=report.touched_hosts,
            fallbacks=report.fallbacks,
        )
        return report

    def apply_join(self, host: int) -> MaintenanceReport:
        """Absorb the join of *host* (already applied to the framework).

        A join attaches one leaf to the anchor tree and leaves every
        existing pairwise predicted distance untouched, so the compiled
        stack is *patched* — CSR splice plus a masked re-sweep — and
        stays warm.  When the splice declines (the join did not attach
        a single leaf) the fixed point is rebuilt cold.
        """
        with self._tracer.start_span(
            "substrate.apply_join", host=host
        ) as span:
            with self._lock:
                if not self._built:
                    return self.build()
                if host in self._neighbors:
                    raise QueryError(
                        f"host {host!r} is already part of the substrate"
                    )
                return self._maintain_locked("join", host, span)

    def apply_leave(self, host: int) -> MaintenanceReport:
        """Absorb the departure of anchor-leaf *host*.

        Valid only when the departure displaced nobody (the framework's
        ``remove_host`` returned no re-joined hosts); a restructuring
        departure changes many predicted distances at once and must go
        through :meth:`build` instead.  Like :meth:`apply_join`, the
        kernel patch comes first (sound only when the host is a leaf of
        the *compiled* tree too), then a full rebuild.
        """
        with self._tracer.start_span(
            "substrate.apply_leave", host=host
        ) as span:
            with self._lock:
                if not self._built:
                    return self.build()
                if host not in self._neighbors:
                    raise QueryError(
                        f"host {host!r} is not in the substrate"
                    )
                if host in self.framework.hosts:
                    raise QueryError(
                        f"host {host!r} is still part of the overlay; "
                        "apply the departure to the framework first"
                    )
                return self._maintain_locked("leave", host, span)


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one decentralized query.

    Attributes
    ----------
    cluster:
        Sorted host ids of the found cluster (empty when unsatisfied).
    hops:
        Forwarding hops taken (0 when the entry node answered directly).
    visited:
        Hosts visited, in order (entry node first).
    snapped_b:
        The bandwidth class the query constraint was snapped up to.
    l:
        The distance class actually queried.
    """

    cluster: list[int]
    hops: int
    visited: list[int]
    snapped_b: float
    l: float

    @property
    def found(self) -> bool:
        """Whether a cluster was returned."""
        return bool(self.cluster)


class DecentralizedClusterSearch:
    """The full decentralized system over a prediction framework.

    Parameters
    ----------
    framework:
        Fully built bandwidth-prediction framework (provides predicted
        distances and the anchor-tree overlay).
    classes:
        The predetermined bandwidth classes users may query with.
    n_cut:
        Aggregation cutoff — each Algorithm 2 message carries at most
        this many node ids (the decentralization knob of Sec. IV-B).
    pair_order:
        Pair-scan order used when answering queries from a local
        clustering space (``"nearest"`` or ``"index"``; see
        :func:`~repro.core.find_cluster.find_cluster`).
    substrate:
        Optional shared :class:`AggregationSubstrate` over the same
        framework.  When given, the Algorithm 2 fixed point is adopted
        from it (ensuring it first) instead of recomputed, and
        :meth:`run_aggregation` only runs the batched per-class CRT
        kernel — the cheap, class-dependent half.  The adopted tables
        are the substrate's shared read-only snapshot of one
        generation; later maintenance of the substrate replaces that
        snapshot instead of mutating it, so this search's state never
        moves.  Without a substrate the search is the paper-literal
        round protocol.
    tracer:
        Optional :class:`~repro.obs.tracer.TracerLike`;
        :meth:`run_aggregation` emits a ``crt.pass`` span with round
        and message counts.  Defaults to the no-op tracer.
    """

    def __init__(
        self,
        framework: BandwidthPredictionFramework,
        classes: BandwidthClasses,
        n_cut: int = 10,
        pair_order: str = "nearest",
        substrate: AggregationSubstrate | None = None,
        tracer: TracerLike = NOOP_TRACER,
    ) -> None:
        if n_cut < 1:
            raise ValidationError(f"n_cut must be >= 1, got {n_cut!r}")
        self.framework = framework
        self.classes = classes
        self.n_cut = int(n_cut)
        self.pair_order = pair_order
        self._tracer = tracer
        # The adopted kernel view; ``None`` for a standalone search.
        self._kernel_view: KernelView | None = None
        if substrate is not None:
            if substrate.framework is not framework:
                raise ValidationError(
                    "substrate was built over a different framework"
                )
            if substrate.n_cut != self.n_cut:
                raise ValidationError(
                    f"substrate n_cut={substrate.n_cut} does not match "
                    f"search n_cut={self.n_cut}"
                )
            self._distances, snapshot, self._kernel_view = (
                substrate.adopt_view()
            )
            self._states = {
                host: ClusterNodeState(
                    host=host, neighbors=neighbors, aggr_node=tables
                )
                for host, (neighbors, tables) in snapshot.items()
            }
        else:
            self._distances = framework.predicted_distance_matrix(
                allow_partial=True
            )
            self._states = {
                host: ClusterNodeState(
                    host=host,
                    neighbors=framework.overlay_neighbors(host),
                )
                for host in framework.hosts
            }
        # Cache of own-CRT computations keyed by the local space content;
        # FindCluster is by far the most expensive step of Algorithm 3 and
        # the space only changes while Algorithm 2 is still converging.
        self._own_crt_cache: dict[tuple[int, ...], dict[float, int]] = {}
        self._aggregated = False

    # -- accessors ----------------------------------------------------------

    @property
    def hosts(self) -> list[int]:
        """All participating hosts."""
        return list(self._states)

    def state_of(self, host: int) -> ClusterNodeState:
        """The protocol state of *host* (read by tests and observers)."""
        try:
            return self._states[host]
        except KeyError:
            raise QueryError(f"unknown host {host!r}") from None

    @property
    def distance_classes(self) -> list[float]:
        """The distance-class set ``L``."""
        return self.classes.distance_classes

    # -- Algorithm 2: DynAggrNodeInfo -----------------------------------------

    def _propagate_node_info(
        self, m: ClusterNodeState, x: int
    ) -> tuple[int, ...]:
        """What neighbor *m* sends host *x* this round (Alg. 2 lines 2-6)."""
        return propagate_node_info(
            m.host, m.aggr_node, x, self._distances.row(x), self.n_cut
        )

    # -- Algorithm 3: DynAggrMaxCluster ---------------------------------------

    def _own_crt(self, m: ClusterNodeState) -> dict[float, int]:
        """``m.aggrCRT[m]`` — max cluster size per class in ``V_m``.

        Uses the binary search of :func:`max_cluster_size`; memoized on
        the clustering-space contents.
        """
        space = tuple(m.clustering_space())
        cached = self._own_crt_cache.get(space)
        if cached is not None:
            return dict(cached)
        table = own_crt_table(
            space, self._distances, self.classes.distance_classes
        )
        self._own_crt_cache[space] = dict(table)
        return table

    def _propagate_crt(
        self, m: ClusterNodeState, x: int, own: dict[float, int]
    ) -> dict[float, int]:
        """What *m* sends *x* (Alg. 3 line 9)."""
        return propagate_crt(
            m.neighbors, m.aggr_crt, x, own, self.classes.distance_classes
        )

    # -- synchronous execution ----------------------------------------------

    def run_round(self) -> bool:
        """One synchronous round of Algorithms 2 and 3 on every edge.

        All messages are computed from the previous round's state and
        applied simultaneously.  Returns ``True`` when any state changed.
        Only a standalone search runs rounds: a substrate-backed one
        holds the substrate's shared read-only tables.
        """
        if self._kernel_view is not None:
            raise QueryError(
                "a substrate-backed search adopts its node-info fixed "
                "point; run_aggregation() runs its CRT kernel"
            )
        node_updates: dict[tuple[int, int], tuple[int, ...]] = {}
        crt_updates: dict[tuple[int, int], dict[float, int]] = {}
        for state in self._states.values():
            own = self._own_crt(state)
            for x in state.neighbors:
                node_updates[(x, state.host)] = self._propagate_node_info(
                    state, x
                )
                crt_updates[(x, state.host)] = self._propagate_crt(
                    state, x, own
                )
            crt_updates[(state.host, state.host)] = own

        changed = False
        for (x, m), nodes in node_updates.items():
            if self._states[x].aggr_node.get(m) != nodes:
                self._states[x].aggr_node[m] = nodes
                changed = True
        for (x, m), table in crt_updates.items():
            if self._states[x].aggr_crt.get(m) != table:
                self._states[x].aggr_crt[m] = table
                changed = True
        return changed

    def run_aggregation(
        self, max_rounds: int | None = None
    ) -> AggregationReport:
        """Run the background mechanisms to their fixed point.

        Standalone, this executes synchronous rounds until nothing
        changes (or *max_rounds*).  The default budget is ``2 *
        diameter + 4`` rounds: node info floods in ``diameter`` rounds
        and CRT values chase it, so the fixed point always lands inside
        the budget on a static overlay.

        On a substrate-backed search node info is already at fixed
        point, so only Algorithm 3 runs, as the batched kernel over the
        adopted :class:`KernelView`: ``node_info_messages`` is 0 and
        *max_rounds* is irrelevant (the closed form is exact, not
        iterative).  The live anchor tree is never read, so a
        concurrent membership change cannot perturb an in-flight pass.
        """
        if self._kernel_view is not None:
            return self._run_aggregation_kernel()
        if max_rounds is None:
            anchor = self.framework.anchor_tree
            max_rounds = 2 * max(anchor.diameter(), 1) + 4
        edges = sum(len(s.neighbors) for s in self._states.values())
        with self._tracer.start_span(
            "crt.pass",
            classes=len(self.classes.distance_classes),
            substrate_backed=False,
        ) as span:
            rounds = 0
            converged = False
            for _ in range(max_rounds):
                rounds += 1
                if not self.run_round():
                    converged = True
                    break
            self._aggregated = True
            report = AggregationReport(
                rounds=rounds,
                converged=converged,
                node_info_messages=rounds * edges,
                crt_messages=rounds * edges,
            )
            span.set(
                rounds=report.rounds,
                converged=report.converged,
                node_info_messages=report.node_info_messages,
                crt_messages=report.crt_messages,
            )
            return report

    def _run_aggregation_kernel(self) -> AggregationReport:
        """Batched Algorithm 3: all classes in one pair-table pass.

        The own tables come from the substrate's shared
        :class:`~repro.kernels.crt.CrtPrecompute` (deduplicated by
        space contents and reused by every concurrent per-class
        search); the propagated values are two level-order max-sweeps.
        The resulting ``aggrCRT`` state is identical to the round
        protocol's fixed point.
        """
        view = self._kernel_view
        assert view is not None
        classes = self.classes.distance_classes
        with self._tracer.start_span(
            "crt.pass",
            classes=len(classes),
            substrate_backed=True,
        ) as span:
            with self._tracer.start_span(
                "kernel.sweep",
                kind="crt",
                hosts=view.csr.size,
                classes=len(classes),
            ) as sweep_span:
                own = view.precompute.own_matrix(view.spaces, classes)
                up_crt, down_crt = crt_sweep(view.csr, own)
                sweep_span.set(
                    distinct_spaces=view.precompute.distinct_spaces
                )
            tables = crt_tables(view.csr, own, up_crt, down_crt, classes)
            for host, crt in tables.items():
                self._states[host].aggr_crt = crt
            self._aggregated = True
            edges = 2 * (view.csr.size - 1) if view.csr.size > 1 else 0
            report = AggregationReport(
                rounds=2,
                converged=True,
                node_info_messages=0,
                crt_messages=edges,
            )
            span.set(
                rounds=report.rounds,
                converged=report.converged,
                node_info_messages=0,
                crt_messages=report.crt_messages,
            )
            return report

    def mark_aggregated(self) -> None:
        """Declare the per-host state ready for queries.

        Used by external drivers (e.g. the message-passing simulator in
        :mod:`repro.sim.protocols`) that populate the states themselves
        instead of calling :meth:`run_aggregation`.
        """
        self._aggregated = True

    # -- Algorithm 4: ProcessQuery ------------------------------------------

    def process_query(
        self, k: int, b: float, start: int, strict: bool = False
    ) -> QueryResult:
        """Submit query ``(k, b)`` at host *start* (Alg. 4).

        ``b`` is snapped up to the nearest bandwidth class; the query
        routes along the overlay until a host's local space can answer
        or every promising direction is exhausted.

        *strict* reproduces the paper's literal ``k < aggrCRT`` pseudo-
        code; the default uses ``k <= aggrCRT`` (see DESIGN.md — a
        cluster of exactly the maximum size must be findable).
        """
        if not self._aggregated:
            raise QueryError(
                "run_aggregation() must complete before queries are "
                "processed"
            )
        check_cluster_size(k, "k")
        if start not in self._states:
            raise QueryError(f"unknown start host {start!r}")
        snapped = self.classes.snap_bandwidth(b)
        l = self.classes.transform.distance_constraint(snapped)

        def admits(size: int) -> bool:
            return k < size if strict else k <= size

        visited: list[int] = []
        hops = 0
        current = start
        previous: int | None = None
        while True:
            visited.append(current)
            state = self._states[current]
            if admits(state.own_max_size(l)):
                space = state.clustering_space()
                local = self._distances.restrict(space)
                found = find_cluster(
                    local, k, l, pair_order=self.pair_order
                )
                if found:
                    cluster = sorted(space[i] for i in found)
                    return QueryResult(
                        cluster=cluster,
                        hops=hops,
                        visited=visited,
                        snapped_b=snapped,
                        l=l,
                    )
            next_host = None
            for neighbor in state.neighbors:
                if neighbor == previous:
                    continue
                if admits(state.aggr_crt.get(neighbor, {}).get(l, 0)):
                    next_host = neighbor
                    break
            if next_host is None:
                return QueryResult(
                    cluster=[],
                    hops=hops,
                    visited=visited,
                    snapped_b=snapped,
                    l=l,
                )
            previous = current
            current = next_host
            hops += 1
