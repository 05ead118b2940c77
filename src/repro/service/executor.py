"""Batched query execution grouped by snapped distance class.

A batch of ``(k, b)`` queries usually hits far fewer distinct bandwidth
classes than it has queries (users pick constraints from the
predetermined set ``L``).  Executing the batch grouped by snapped class
means the per-class CRT pass runs **once per distinct class in the
batch**, after which every query in the group is a cheap table lookup
plus local cluster extraction.  The class-independent half — the
Algorithm 2 node-info fixed point — is shared by *all* groups: the
executor builds it exactly once (via
:meth:`~repro.service.core.ClusterQueryService.prepare`) before fanning
out, so worker threads never race to produce N copies of the expensive
substrate.  Class groups are otherwise independent — they touch
disjoint memo entries — so they can optionally fan out across a
:class:`~concurrent.futures.ThreadPoolExecutor`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.query import BandwidthClasses, ClusterQuery
from repro.exceptions import ServiceError
from repro.obs import NOOP_SPAN, SpanLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.core import ClusterQueryService, ServiceResult

__all__ = ["BatchExecutor", "GroupDispatcher", "group_by_class"]


@runtime_checkable
class GroupDispatcher(Protocol):
    """Remote fan-out hook for one per-class query group.

    The executor still owns grouping, generation pinning, and merging
    results back into submission order; a dispatcher only decides
    *where* one class group's queries are answered.  ``repro.net``
    supplies two implementations: :class:`~repro.net.client.
    ClientGroupDispatcher` (one remote server over TCP) and the
    multi-process :class:`~repro.net.coordinator.ClusterCoordinator`.
    """

    def dispatch_group(
        self,
        snapped: float,
        indices: list[int],
        queries: list["ClusterQuery"],
        generation: int,
        start: int | None,
    ) -> list["ServiceResult"]:
        """Answer ``[queries[i] for i in indices]``, preserving order.

        *snapped* is the group's distance class and *generation* the
        pinned overlay generation; implementations should raise
        :class:`~repro.exceptions.StaleGenerationError` (directly or
        from the remote side) when they cannot answer at that
        generation.
        """
        ...


def group_by_class(
    queries: list[ClusterQuery], classes: BandwidthClasses
) -> dict[float, list[int]]:
    """Partition *queries* (by index) by snapped bandwidth class.

    Returns ``{snapped_class: [query indices]}`` with indices in their
    original order.  Raises
    :class:`~repro.exceptions.UnsupportedConstraintError` if any query
    exceeds the largest class — before any work is done, so a batch is
    validated atomically.
    """
    groups: dict[float, list[int]] = {}
    for index, query in enumerate(queries):
        snapped = classes.snap_bandwidth(query.b)
        groups.setdefault(snapped, []).append(index)
    return groups


class BatchExecutor:
    """Executes batches against one :class:`ClusterQueryService`.

    Parameters
    ----------
    service:
        The service to answer through (its caches and telemetry are
        shared with single-query traffic).
    max_workers:
        Thread-pool width for fanning class groups out; ``None`` (or a
        batch with a single distinct class) executes sequentially.
    dispatcher:
        Optional :class:`GroupDispatcher` answering each class group
        remotely instead of through *service*.  Dispatched groups run
        sequentially regardless of *max_workers* — a wire client is
        not thread-safe, and a multi-process coordinator parallelizes
        across workers internally — and the local substrate is not
        pre-built (the remote side owns its own).
    """

    def __init__(
        self,
        service: "ClusterQueryService",
        max_workers: int | None = None,
        dispatcher: GroupDispatcher | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ServiceError(
                f"max_workers must be >= 1, got {max_workers!r}"
            )
        self._service = service
        self._max_workers = max_workers
        self._dispatcher = dispatcher

    def run(
        self,
        queries: list[ClusterQuery],
        start: int | None = None,
        deadline: float | None = None,
        caller: str | None = None,
    ) -> list["ServiceResult"]:
        """Answer every query, returning results in submission order.

        The whole batch is pinned to the generation observed at entry:
        if membership changes while the batch is in flight, the
        affected queries raise
        :class:`~repro.exceptions.StaleGenerationError` rather than
        mixing answers from two different overlays.

        The batch is admitted as one request (keyed by *caller*)
        against the service's admission controller; *deadline* — an
        absolute monotonic timestamp — is checked at entry and again
        before each class group, so a batch that expires mid-flight
        sheds its remaining groups instead of executing them.
        """
        service = self._service
        admission = service.admission
        admission.check_deadline(deadline)
        service.telemetry.record_batch()
        if not queries:
            return []
        with admission.admit(caller):
            tracer = service.tracer
            if not tracer.enabled:
                return self._run(queries, start, deadline, NOOP_SPAN)
            with tracer.start_span(
                "service.submit_batch", queries=len(queries)
            ) as span:
                return self._run(queries, start, deadline, span)

    def _run(
        self,
        queries: list[ClusterQuery],
        start: int | None,
        deadline: float | None,
        span: SpanLike,
    ) -> list["ServiceResult"]:
        """Execute the grouped batch, decorating *span* when traced."""
        service = self._service
        generation = service.generation
        groups = group_by_class(queries, service.classes)
        span.set(
            generation=generation,
            classes=len(groups),
        )
        results: list[ServiceResult | None] = [None] * len(queries)

        def run_group(item: tuple[float, list[int]]) -> None:
            snapped, indices = item
            # Expired work is shed before the group's CRT pass or
            # dispatch is committed — the whole point of carrying the
            # deadline this deep.
            service.admission.check_deadline(deadline)
            # The group span is *entered on the worker thread* with an
            # explicit parent: entering pushes it onto that thread's
            # local stack, so the submit spans below nest under it
            # instead of starting new root traces.
            with span.start_span(
                "batch.group",
                snapped_b=snapped,
                queries=len(indices),
                remote=self._dispatcher is not None,
            ):
                if self._dispatcher is not None:
                    answers = self._dispatcher.dispatch_group(
                        snapped, indices, queries, generation, start
                    )
                    if len(answers) != len(indices):
                        raise ServiceError(
                            f"dispatcher returned {len(answers)} "
                            f"result(s) for a {len(indices)}-query group"
                        )
                    for index, answer in zip(indices, answers):
                        results[index] = answer
                    return
                # Warm classes take the vectorized answer-table path:
                # the whole group becomes one gather instead of
                # len(indices) reference walks.  submit_group returns
                # None whenever it does not apply (cold class, uncovered
                # entry host), and the per-query
                # loop below remains the authoritative fallback.
                grouped = service.submit_group(
                    snapped, indices, queries, generation, start=start
                )
                if grouped is not None:
                    for index, answer in zip(indices, grouped):
                        results[index] = answer
                    return
                for index in indices:
                    results[index] = service.submit(
                        queries[index],
                        start=start,
                        expected_generation=generation,
                        deadline=deadline,
                        preadmitted=True,
                    )

        group_items = list(groups.items())
        if (
            self._max_workers is not None
            and len(group_items) > 1
            and self._dispatcher is None
        ):
            # Build the shared class-independent substrate once, up
            # front; workers then only pay their own per-class CRT
            # pass instead of serializing behind (or duplicating) the
            # expensive node-info fixed point.
            service.prepare(generation)
            workers = min(self._max_workers, len(group_items))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                # list() re-raises the first worker exception, if any.
                list(pool.map(run_group, group_items))
        else:
            for item in group_items:
                run_group(item)
        holes = [
            index
            for index, result in enumerate(results)
            if result is None
        ]
        if holes:
            # Every query index belongs to exactly one group, so an
            # unfilled slot means a group runner lost a result — most
            # likely a dispatcher that mapped its answers to the wrong
            # indices.  Silently dropping the slot would break the
            # documented submission-order correspondence; fail loudly
            # instead.
            raise ServiceError(
                f"batch execution left {len(holes)} of {len(queries)} "
                f"result slot(s) unfilled (indices {holes}); a group "
                "runner or dispatcher dropped results"
            )
        return [result for result in results if result is not None]
