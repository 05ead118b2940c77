"""The long-lived cluster-query service (:class:`ClusterQueryService`).

Every other entry point in this repository (CLI ``query``, examples,
experiment drivers) rebuilds the prediction framework and the cluster
routing tables from scratch for each call.  The paper's decentralized
design (Algorithms 2-4) exists precisely so that a *live* overlay can
answer a continuous stream of queries; this module supplies that
regime in-process:

* one :class:`~repro.predtree.framework.BandwidthPredictionFramework`
  is owned for the lifetime of the service;
* the class-independent Algorithm 2 fixed point (the *aggregation
  substrate*) is built **once per overlay generation** and shared by
  every distance class; per-class state is only the cheap CRT pass,
  built lazily once per ``(class, generation)`` and memoized;
* results are served from a generation-keyed LRU cache, so repeated
  queries cost a dictionary lookup;
* membership changes (``add_host`` / ``remove_host``) bump the overlay
  generation, which structurally invalidates every cached answer — a
  query can never return a cluster computed against a stale overlay.
  The substrate itself survives single-leaf changes: the churn kernels
  patch the change into its compiled arrays, falling back to a cold
  rebuild only when the anchor tree restructured (a departure that
  displaced descendants) or the patch declined.

See DESIGN.md §6 ("Service layer") for the invalidation scheme.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.decentralized import (
    AggregationSubstrate,
    ChurnEvent,
    DecentralizedClusterSearch,
)
from repro.core.query import BandwidthClasses, ClusterQuery
from repro.exceptions import (
    KernelError,
    ServiceError,
    StaleGenerationError,
)
from repro.kernels.answers import AnswerTable, build_answer_table
from repro.obs import NOOP_SPAN, NOOP_TRACER, SpanLike, TracerLike
from repro.predtree.framework import (
    BandwidthPredictionFramework,
    MembershipChange,
)
from repro.service.admission import AdmissionController
from repro.service.cache import (
    AggregationCache,
    AnswerTableMemo,
    GenerationMemo,
    LRUCache,
)
from repro.service.telemetry import ServiceTelemetry, TelemetrySnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.executor import GroupDispatcher

__all__ = ["ClusterQueryService", "ServiceResult", "ServiceStats"]

#: Result-cache key: ``(k, snapped_class, generation)``.
_ResultKey = tuple[int, float, int]
#: Cached payload: ``(cluster, hops, entry_host, distance_class)``.
_CachedAnswer = tuple[tuple[int, ...], int, int, float]


@dataclass(frozen=True)
class ServiceResult:
    """One answered query.

    Attributes
    ----------
    cluster:
        Sorted host ids of the found cluster (empty when unsatisfied).
    hops:
        Overlay forwarding hops the computation that produced this
        answer took (0 when the entry host answered locally).  Cached
        answers report the hops recorded when the answer was first
        computed — the routing cost of the answer, not of serving it
        from the cache.
    start:
        Entry host the original computation was submitted at.
    snapped_b:
        Bandwidth class the constraint was snapped up to (Mbps).
    l:
        Distance class actually queried.
    generation:
        Overlay generation the answer is valid for — always the
        service's current generation at the time the result was
        returned.
    cached:
        Whether the answer came from the result cache.
    latency_s:
        Wall-clock service time for this call in seconds.
    """

    cluster: tuple[int, ...]
    hops: int
    start: int
    snapped_b: float
    l: float
    generation: int
    cached: bool
    latency_s: float

    @property
    def found(self) -> bool:
        """Whether a cluster was returned."""
        return bool(self.cluster)


@dataclass(frozen=True)
class ServiceStats:
    """Operational snapshot of a :class:`ClusterQueryService`.

    Attributes
    ----------
    generation:
        Current overlay generation.
    host_count:
        Hosts currently in the overlay.
    result_cache_entries:
        Entries currently held by the LRU result cache.
    aggregation_entries:
        Per-class aggregations memoized for the current generation.
    telemetry:
        Counter/latency snapshot (see :class:`~repro.service.telemetry.
        TelemetrySnapshot`).
    """

    generation: int
    host_count: int
    result_cache_entries: int
    aggregation_entries: int
    telemetry: TelemetrySnapshot


class ClusterQueryService:
    """A long-lived, cache-aware front end over the decentralized system.

    Parameters
    ----------
    framework:
        Fully built prediction framework; the service takes ownership
        of its membership (drive joins/departures through the service,
        not the framework, so caches stay coherent).
    classes:
        Bandwidth classes users may query with.  Constraints are
        snapped up exactly as in the decentralized system.
    n_cut:
        Algorithm 2 aggregation cutoff for the routing tables.
    pair_order:
        Pair-scan order for local cluster extraction (see
        :func:`~repro.core.find_cluster.find_cluster`).
    cache_size:
        Capacity of the LRU result cache.
    telemetry:
        Optional externally owned telemetry sink (a fresh one is
        created by default).
    tracer:
        Optional :class:`~repro.obs.tracer.TracerLike`.  With a real
        :class:`~repro.obs.Tracer`, every query produces a span tree
        (submit → cache lookup → substrate build / CRT pass → routing)
        recorded into the tracer's store; the default no-op tracer
        keeps the hot path untraced behind a single branch.
    admission:
        Optional :class:`~repro.service.admission.AdmissionController`
        guarding :meth:`submit` / :meth:`submit_batch`.  The default
        controller admits everything (no bound, no rate limit) but
        still enforces deadlines and counts outcomes into this
        service's telemetry.

    Notes
    -----
    The result cache is keyed by ``(k, snapped_class, generation)``;
    the entry host is deliberately *not* part of the key.  Any cluster
    satisfying ``(k, b)`` is a correct answer regardless of where the
    query entered the overlay, so all entry points share one cached
    answer per constraint (the paper's queries are anycast in the same
    sense).  Callers that need per-entry routing behaviour (e.g. hop
    counts for evaluation) should use
    :class:`~repro.core.decentralized.DecentralizedClusterSearch`
    directly.
    """

    def __init__(
        self,
        framework: BandwidthPredictionFramework,
        classes: BandwidthClasses,
        n_cut: int = 10,
        pair_order: str = "nearest",
        cache_size: int = 1024,
        telemetry: ServiceTelemetry | None = None,
        tracer: TracerLike | None = None,
        admission: AdmissionController | None = None,
    ) -> None:
        if framework.size < 2:
            raise ServiceError(
                "the service needs a framework with at least 2 hosts, "
                f"got {framework.size}"
            )
        self._framework = framework
        self._classes = classes
        self._n_cut = int(n_cut)
        self._pair_order = pair_order
        self._results: LRUCache[_ResultKey, _CachedAnswer] = LRUCache(
            cache_size
        )
        self._substrate: GenerationMemo[AggregationSubstrate] = (
            GenerationMemo()
        )
        self._aggregations: AggregationCache[DecentralizedClusterSearch] = (
            AggregationCache()
        )
        self._answer_tables: AnswerTableMemo[AnswerTable] = (
            AnswerTableMemo()
        )
        self._telemetry = telemetry or ServiceTelemetry()
        self._tracer: TracerLike = (
            tracer if tracer is not None else NOOP_TRACER
        )
        self._admission = (
            admission
            if admission is not None
            else AdmissionController(
                telemetry=self._telemetry, tracer=self._tracer
            )
        )
        # Serializes membership changes and generation reads against
        # each other; query execution itself runs outside the lock so
        # batched classes can fan out across threads.
        self._membership_lock = threading.RLock()
        # Local epoch for invalidations that do not change membership
        # (e.g. an in-place bandwidth-matrix edit).  The published
        # generation is framework.generation + epoch: both terms are
        # monotonic, so the sum never revisits an old value.
        self._epoch = 0

    # -- introspection --------------------------------------------------------

    @property
    def framework(self) -> BandwidthPredictionFramework:
        """The owned prediction framework (read-only use, please)."""
        return self._framework

    @property
    def classes(self) -> BandwidthClasses:
        """The bandwidth-class set queries are snapped against."""
        return self._classes

    @property
    def generation(self) -> int:
        """The current overlay generation (monotonic)."""
        with self._membership_lock:
            return self._framework.generation + self._epoch

    @property
    def hosts(self) -> list[int]:
        """Hosts currently in the overlay.

        Read under the membership lock: membership changes mutate the
        framework's host set in place, so an unlocked read during
        churn could observe a half-applied change.
        """
        with self._membership_lock:
            return self._framework.hosts

    @property
    def telemetry(self) -> ServiceTelemetry:
        """The telemetry sink (counters + latency histogram)."""
        return self._telemetry

    @property
    def tracer(self) -> TracerLike:
        """The tracer queries are recorded through (no-op by default)."""
        return self._tracer

    @property
    def admission(self) -> AdmissionController:
        """The admission controller guarding query entry points."""
        return self._admission

    def stats(self) -> ServiceStats:
        """Operational snapshot: generation, cache fill, telemetry.

        When the service is traced, the telemetry snapshot carries the
        trace id of the slowest recent query so operators can pivot
        from quantiles to one concrete span tree.
        """
        store = self._tracer.store
        slowest = store.slowest_trace_id() if store is not None else None
        # One lock hold for both framework reads: a snapshot taken
        # during churn must pair the generation with the host count it
        # actually describes, never a torn mixture of two overlays.
        with self._membership_lock:
            generation = self._framework.generation + self._epoch
            host_count = self._framework.size
        return ServiceStats(
            generation=generation,
            host_count=host_count,
            result_cache_entries=len(self._results),
            aggregation_entries=len(self._aggregations),
            telemetry=self._telemetry.snapshot(slowest_trace_id=slowest),
        )

    # -- membership -----------------------------------------------------------

    def add_host(self, host: int) -> None:
        """Join *host* to the overlay; bumps the generation.

        The shared aggregation substrate is carried across the change
        by splicing the joined host straight into the compiled CSR
        arrays and re-sweeping only the dirty subtree.  When that patch
        succeeds, memoized answer tables are patched to the new
        generation instead of invalidated, so the warm query path stays
        warm across the join.
        """
        with self._tracer.start_span("service.add_host", host=host):
            with self._membership_lock:
                self._framework.add_host(host)
                self._results.clear()
                self._aggregations.invalidate()
                event = self._maintain_substrate_locked(
                    self._framework.last_change
                )
                if event is None:
                    self._answer_tables.invalidate()
                else:
                    self._patch_answer_tables_locked(event)
        self._telemetry.record_membership_change()

    def remove_host(self, host: int) -> list[int]:
        """Handle the departure of *host*; bumps the generation.

        Returns the hosts that re-joined (the departed host's anchor
        descendants, as in
        :meth:`~repro.predtree.framework.BandwidthPredictionFramework.
        remove_host`).  After this returns, no query — cached or fresh —
        can ever yield a cluster containing *host*.

        A leaf departure (no re-joins) is kernel-patched into the
        aggregation substrate, with memoized answer tables patched
        rather than invalidated.  A departure that displaced
        descendants restructured the anchor tree, so the substrate is
        dropped and rebuilt cold by the next query.
        """
        with self._tracer.start_span(
            "service.remove_host", host=host
        ) as span:
            with self._membership_lock:
                rejoined = self._framework.remove_host(host)
                self._results.clear()
                self._aggregations.invalidate()
                event = self._maintain_substrate_locked(
                    self._framework.last_change
                )
                if event is None:
                    self._answer_tables.invalidate()
                else:
                    self._patch_answer_tables_locked(event)
            span.set(rejoined=len(rejoined))
        self._telemetry.record_membership_change()
        return rejoined

    def invalidate(self) -> None:
        """Explicitly drop all cached state and bump the generation.

        Call this after mutating anything the service cannot observe,
        e.g. editing the ground-truth bandwidth matrix in place.  The
        substrate is dropped too: an unobserved change may have moved
        predicted distances, which the churn patch cannot see.
        """
        with self._membership_lock:
            self._epoch += 1
            self._invalidate_locked()
            self._substrate.invalidate()

    def _invalidate_locked(self) -> None:
        """Drop per-generation caches; caller holds the membership lock.

        Deliberately leaves the substrate memo alone — membership paths
        maintain it incrementally via
        :meth:`_maintain_substrate_locked`, and :meth:`invalidate`
        drops it explicitly.  Membership paths no longer call this:
        they clear results and aggregations directly and treat the
        answer-table memo patch-first.
        """
        self._results.clear()
        self._aggregations.invalidate()
        self._answer_tables.invalidate()

    def _maintain_substrate_locked(
        self, change: MembershipChange | None
    ) -> ChurnEvent | None:
        """Carry the substrate across one membership change.

        Caller holds the membership lock and has already applied the
        change to the framework.  Carrying the substrate is sound only
        when the held one is exactly one generation behind and the
        change did not restructure the anchor tree or empty the
        overlay; anything else drops the memo so the next query
        rebuilds cold.

        Returns the substrate's :class:`~repro.core.decentralized.
        ChurnEvent` when the change was absorbed by the kernel patch
        — the caller uses it to patch memoized answer tables instead
        of invalidating them.  Returns ``None`` for every other
        outcome (no held substrate, memo dropped, full rebuild).
        """
        held = self._substrate.peek()
        if held is None:
            return None
        held_generation, substrate = held
        generation = self._framework.generation + self._epoch
        if (
            change is None
            or change.rejoined
            or held_generation != generation - 1
            or not self._framework.hosts
        ):
            self._substrate.invalidate()
            return None
        began = time.perf_counter()
        if change.kind == "join":
            report = substrate.apply_join(change.host)
        else:
            report = substrate.apply_leave(change.host)
        if report.fallbacks:
            self._telemetry.record_patch_fallbacks(report.fallbacks)
        event: ChurnEvent | None = None
        if report.kind == "patch":
            self._telemetry.record_kernel_patch()
            event = substrate.take_churn_event()
        else:
            # The patch declined and the substrate rebuilt cold — that
            # is a substrate build, histogram included, so
            # maintenance-triggered cold paths show up in the same
            # latency statistics as first-query builds.
            self._telemetry.record_substrate_build(
                time.perf_counter() - began
            )
        self._substrate.replace(generation, substrate)
        return event

    def _patch_answer_tables_locked(self, event: ChurnEvent) -> None:
        """Migrate memoized answer tables across *event*.

        Caller holds the membership lock and the substrate was just
        kernel-patched.  Each held table is asked to carry itself to
        the post-event topology (:meth:`~repro.kernels.answers.
        AnswerTable.patched`); tables that decline — the dirty subtree
        exceeded the rebuild threshold, or a kernel error surfaced —
        are simply dropped from the memo and rebuilt lazily, exactly
        as if the memo had been invalidated.
        """
        generation = self._framework.generation + self._epoch

        def patcher(
            snapped: float, table: AnswerTable
        ) -> AnswerTable | None:
            try:
                return table.patched(
                    event.view.csr,
                    event.view.spaces,
                    event.view.precompute,
                    event.neighbors,
                    event.distances.values,
                    event.dirty_hosts,
                    removed=event.removed,
                )
            except KernelError:
                return None

        patched = self._answer_tables.patch(generation, patcher)
        if patched:
            self._telemetry.record_answer_table_patches(patched)

    # -- query execution ------------------------------------------------------

    def _substrate_for(self, generation: int) -> AggregationSubstrate:
        """The shared node-info substrate for *generation*, built once.

        Concurrent callers (batched class groups fanning out across
        threads) serialize behind a single build inside the memo
        instead of racing to produce one copy each.

        Both the generation check and the build run under the
        membership lock: a cold build reads the live framework, so
        without the lock a query pinned to generation ``g`` could
        capture a framework state from ``g+1`` mid-mutation and store
        it in the memo under key ``g`` — the next membership change
        would then apply its delta to a substrate that already
        reflects it.  A pinned generation that no longer matches the
        overlay raises :class:`StaleGenerationError` instead of
        building from a framework the caller is not looking at.
        """

        def build() -> AggregationSubstrate:
            if not self._framework.hosts:
                raise ServiceError(
                    "cannot answer queries on an empty overlay — every "
                    "host has departed; add_host() before submitting"
                )
            substrate = AggregationSubstrate(
                self._framework,
                n_cut=self._n_cut,
                tracer=self._tracer,
            )
            began = time.perf_counter()
            substrate.ensure()
            self._telemetry.record_substrate_build(
                time.perf_counter() - began
            )
            return substrate

        with self._membership_lock:
            if generation != self.generation:
                raise StaleGenerationError(
                    f"substrate requested for generation {generation}, "
                    f"overlay is at {self.generation}"
                )
            return self._substrate.get_or_build(
                generation, build, tracer=self._tracer
            )

    def prepare(self, generation: int | None = None) -> None:
        """Eagerly build the shared substrate for *generation*.

        Called by the batched executor before fanning class groups out
        across threads, so workers find the expensive class-independent
        half already done and only pay their own per-class CRT pass.
        Safe to call at any time with no argument (e.g. to pre-warm
        after membership churn before traffic arrives); with an
        explicit *generation* it raises
        :class:`~repro.exceptions.StaleGenerationError` when the
        overlay has already moved on.

        The build compiles the substrate's kernel view too, so worker
        threads adopt pre-compiled arrays instead of serializing behind
        the first adopter's compile.
        """
        self._substrate_for(
            self.generation if generation is None else generation
        )

    def _class_search(
        self, snapped: float, generation: int
    ) -> DecentralizedClusterSearch:
        """The single-class CRT layer for *snapped*, memoized.

        The expensive class-independent half (the Algorithm 2 fixed
        point) comes from the shared substrate — built once per
        generation however many classes are queried; this method only
        adds the cheap per-class CRT pass.  Restricting the routing
        tables to one distance class is what lets a batch grouped by
        class pay for CRT aggregation exactly once per class instead of
        once per |L| classes per query.
        """
        search = self._aggregations.get(snapped, generation)
        if search is not None:
            return search
        with self._tracer.start_span(
            "service.class_search",
            snapped_b=snapped,
            generation=generation,
        ):
            substrate = self._substrate_for(generation)
            search = DecentralizedClusterSearch(
                self._framework,
                BandwidthClasses(
                    [snapped], transform=self._classes.transform
                ),
                n_cut=self._n_cut,
                pair_order=self._pair_order,
                substrate=substrate,
                tracer=self._tracer,
            )
            search.run_aggregation()
            self._telemetry.record_aggregation_build()
            self._aggregations.put(snapped, generation, search)
            return search

    def _answer_table_for(
        self, snapped: float, generation: int
    ) -> AnswerTable | None:
        """The warm-path answer table for ``(snapped, generation)``.

        Built lazily from the same adopted substrate view the kernel
        CRT pass consumes — the own values and edge CRT thresholds are
        shared arrays, so routing decisions are bit-identical to the
        per-query reference by construction.  Returns ``None`` when the
        table builder raises a :class:`~repro.exceptions.KernelError`;
        callers fall back to the per-query path.
        """
        table = self._answer_tables.get(snapped, generation)
        if table is not None:
            return table
        substrate = self._substrate_for(generation)
        with self._tracer.start_span(
            "answer.build", snapped_b=snapped, generation=generation
        ) as span:
            distances, snapshot, view = substrate.adopt_view()
            neighbors = {
                host: list(entry[0])
                for host, entry in snapshot.items()
            }
            try:
                table = build_answer_table(
                    view.csr,
                    view.spaces,
                    view.precompute,
                    neighbors,
                    distances.values,
                    self._classes.transform.distance_constraint(snapped),
                    pair_order=self._pair_order,
                )
            except KernelError:
                return None
            span.set(
                hosts=len(neighbors),
                breakpoints=int(table.breakpoints.shape[0]),
            )
        self._telemetry.record_answer_table_build()
        self._answer_tables.put(snapped, generation, table)
        return table

    def submit_group(
        self,
        snapped: float,
        indices: list[int],
        queries: list[ClusterQuery],
        generation: int,
        start: int | None = None,
    ) -> list[ServiceResult] | None:
        """Answer one warm class group as a batched table gather.

        *indices* select this group's queries (all snapping to
        *snapped*) out of the full batch; results come back aligned
        with *indices*.  Returns ``None`` — no work done — whenever
        the vectorized path does not apply, and the caller (the batch
        executor) runs the per-query path instead:

        * the class is cold for *generation* — no memoized per-class
          aggregation AND no answer table (the per-query path must run
          anyway to pay the CRT pass, and keeping cold batches on it
          preserves their traced span contract exactly).  A table
          *patched* across a membership event counts as warm: churn
          does not demote the batched path back to per-query;
        * *start* is a host the compiled overlay does not cover (the
          per-query path owns the error semantics for bad entries).

        When it does apply, answers are bit-identical to submitting
        each query via :meth:`submit`: cache hits are served first
        (``cached=True``), the misses' distinct ``k`` values are
        answered by one :meth:`~repro.kernels.answers.AnswerTable.
        answer_many` gather, and computed answers are published to the
        result cache under the membership lock with the same
        generation re-validation as the per-query path.
        """
        began = time.perf_counter()
        table = self._answer_tables.get(snapped, generation)
        if (
            table is None
            and self._aggregations.get(snapped, generation) is None
        ):
            return None
        keys = [
            (queries[index].k, snapped, generation) for index in indices
        ]
        if table is None and not all(
            key in self._results for key in keys
        ):
            table = self._answer_table_for(snapped, generation)
            if table is None:
                return None
        if start is not None and table is not None and not table.covers(
            start
        ):
            return None
        hits: dict[int, _CachedAnswer] = {}
        pending: dict[int, list[int]] = {}
        for position, key in enumerate(keys):
            cached = self._results.get(key)
            if cached is not None:
                hits[position] = cached
            else:
                pending.setdefault(int(key[0]), []).append(position)
        answers: dict[int, tuple[tuple[int, ...], int]] = {}
        entry = start
        if pending:
            if table is None:
                # The all-cached prefilter raced an eviction; let the
                # per-query path recompute the evicted entries.
                return None
            if entry is None:
                entry = table.default_entry
            ks = sorted(pending)
            try:
                if self._tracer.enabled:
                    with self._tracer.start_span(
                        "answer.gather",
                        snapped_b=snapped,
                        generation=generation,
                        queries=len(indices),
                        distinct_k=len(ks),
                    ):
                        gathered = table.answer_many(ks, entry)
                else:
                    gathered = table.answer_many(ks, entry)
            except KernelError:
                return None
            answers = dict(zip(ks, gathered))
            # Publish atomically with generation re-validation, same
            # as the per-query miss path.
            with self._membership_lock:
                if self.generation != generation:
                    raise StaleGenerationError(
                        f"overlay generation changed from {generation} "
                        f"to {self.generation} while the batch was in "
                        "flight"
                    )
                for k, (cluster, hops) in answers.items():
                    self._results.put(
                        (k, snapped, generation),
                        (cluster, hops, entry, table.l),
                    )
        results: list[ServiceResult] = []
        for position, key in enumerate(keys):
            hit = hits.get(position)
            if hit is not None:
                cluster, hops, result_entry, l = hit
                was_cached = True
            else:
                assert table is not None and entry is not None
                cluster, hops = answers[int(key[0])]
                # First miss per k computes; duplicates behave like
                # the per-query path, where they would have hit the
                # just-published cache entry.
                was_cached = pending[int(key[0])][0] != position
                l = table.l
                result_entry = entry
            self._telemetry.record_query(
                time.perf_counter() - began,
                cached=was_cached,
                found=bool(cluster),
            )
            results.append(
                ServiceResult(
                    cluster=cluster,
                    hops=hops,
                    start=result_entry,
                    snapped_b=snapped,
                    l=l,
                    generation=generation,
                    cached=was_cached,
                    latency_s=time.perf_counter() - began,
                )
            )
        return results

    def submit(
        self,
        query: ClusterQuery,
        start: int | None = None,
        expected_generation: int | None = None,
        deadline: float | None = None,
        caller: str | None = None,
        preadmitted: bool = False,
    ) -> ServiceResult:
        """Answer one ``(k, b)`` query against the live overlay.

        Parameters
        ----------
        query:
            The constraint pair.
        start:
            Entry host for a computed (non-cached) answer; defaults to
            the overlay's first host.  Cached answers ignore it (see
            the class notes on the cache key).
        expected_generation:
            When given, the query is pinned: if the overlay generation
            differs — before or after computation — the call raises
            :class:`~repro.exceptions.StaleGenerationError` instead of
            returning an answer the caller would consider stale.
        deadline:
            Absolute monotonic deadline; an already-expired query is
            shed with :class:`~repro.exceptions.DeadlineExceededError`
            instead of executed.
        caller:
            Tag keying this service's per-caller rate bucket (see
            :class:`~repro.service.admission.AdmissionController`).
        preadmitted:
            ``True`` when the caller already holds an admission ticket
            covering this query (the batch executor admits once per
            batch); skips re-admission but still checks *deadline*.
        """
        self._admission.check_deadline(deadline)
        if preadmitted:
            return self._submit_traced(query, start, expected_generation)
        with self._admission.admit(caller):
            return self._submit_traced(query, start, expected_generation)

    def _submit_traced(
        self,
        query: ClusterQuery,
        start: int | None,
        expected_generation: int | None,
    ) -> ServiceResult:
        """The admitted submit path (tracing branch + answer)."""
        # The one tracing branch on the hot path: with the default
        # no-op tracer a submit pays exactly this comparison and
        # nothing else (NOOP_SPAN short-circuits all decoration).
        if not self._tracer.enabled:
            return self._answer(query, start, expected_generation, NOOP_SPAN)
        with self._tracer.start_span(
            "service.submit", k=query.k, b=query.b
        ) as span:
            return self._answer(query, start, expected_generation, span)

    def _answer(
        self,
        query: ClusterQuery,
        start: int | None,
        expected_generation: int | None,
        span: SpanLike,
    ) -> ServiceResult:
        """Compute one answer, decorating *span* when tracing is on."""
        began = time.perf_counter()
        traced = span is not NOOP_SPAN
        generation = self.generation
        if (
            expected_generation is not None
            and expected_generation != generation
        ):
            raise StaleGenerationError(
                f"query pinned to generation {expected_generation}, "
                f"overlay is at {generation}"
            )
        snapped = self._classes.snap_bandwidth(query.b)
        key = (query.k, snapped, generation)
        if traced:
            span.set(snapped_b=snapped, generation=generation)
            with span.start_span("service.cache_lookup") as lookup:
                cached = self._results.get(key)
                lookup.set(
                    outcome="hit" if cached is not None else "miss"
                )
        else:
            cached = self._results.get(key)
        if cached is not None:
            cluster, hops, entry, l = cached
            if traced:
                span.set(cache="hit", found=bool(cluster))
            self._telemetry.record_query(
                time.perf_counter() - began, cached=True,
                found=bool(cluster),
            )
            return ServiceResult(
                cluster=cluster,
                hops=hops,
                start=entry,
                snapped_b=snapped,
                l=l,
                generation=generation,
                cached=True,
                latency_s=time.perf_counter() - began,
            )

        # Miss path: dominated by the class search / routing below, so
        # unguarded no-op span calls are in the noise here.
        span.set(cache="miss")
        search = self._class_search(snapped, generation)
        # The default entry host comes from the search's adopted
        # snapshot, not the live framework: it must describe the pinned
        # generation, not whatever the overlay mutated into while this
        # query was in flight.  (An empty overlay never gets this far:
        # the substrate build refuses it.)
        entry = start if start is not None else search.hosts[0]
        with span.start_span("service.route", entry=entry) as route:
            outcome = search.process_query(query.k, snapped, start=entry)
            route.set(hops=outcome.hops, found=bool(outcome.cluster))
        cluster = tuple(outcome.cluster)
        span.set(found=bool(cluster), hops=outcome.hops)
        # Re-validate and publish atomically: holding the membership
        # lock means no invalidation can slip between the generation
        # check and the cache insert, which would strand a
        # dead-generation entry in an LRU slot forever.
        with self._membership_lock:
            if self.generation != generation:
                # Membership changed under our feet: the answer was
                # computed against an overlay that no longer exists.
                raise StaleGenerationError(
                    f"overlay generation changed from {generation} to "
                    f"{self.generation} while the query was in flight"
                )
            self._results.put(
                key, (cluster, outcome.hops, entry, outcome.l)
            )
        self._telemetry.record_query(
            time.perf_counter() - began, cached=False, found=bool(cluster)
        )
        return ServiceResult(
            cluster=cluster,
            hops=outcome.hops,
            start=entry,
            snapped_b=snapped,
            l=outcome.l,
            generation=generation,
            cached=False,
            latency_s=time.perf_counter() - began,
        )

    def submit_batch(
        self,
        queries: list[ClusterQuery],
        start: int | None = None,
        max_workers: int | None = None,
        dispatcher: "GroupDispatcher | None" = None,
        deadline: float | None = None,
        caller: str | None = None,
    ) -> list[ServiceResult]:
        """Answer a batch, grouped by snapped class (order preserved).

        Grouping means the per-class routing-table aggregation runs at
        most once per distinct class in the batch; with *max_workers*
        the class groups additionally fan out across a thread pool.
        With *dispatcher* each class group is answered remotely (see
        :class:`~repro.service.executor.GroupDispatcher`) — e.g. over
        a ``repro.net`` wire client — while this service still does
        the grouping and merge.  The batch is admitted as **one**
        request against this service's admission controller (keyed by
        *caller*); *deadline* is re-checked before each class group so
        expired remainders are shed, not executed.  Delegates to
        :class:`~repro.service.executor.BatchExecutor`.
        """
        from repro.service.executor import BatchExecutor

        return BatchExecutor(
            self, max_workers=max_workers, dispatcher=dispatcher
        ).run(queries, start=start, deadline=deadline, caller=caller)
