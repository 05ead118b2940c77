"""Synthetic load generation for the cluster-query service.

Drives a :class:`~repro.service.core.ClusterQueryService` with a
configurable mix of ``(k, b)`` queries — optionally batched, optionally
under membership churn — and reports end-to-end throughput together
with the service's own telemetry.  This is both the measurement harness
behind ``repro-bcc serve-bench`` / ``benchmarks/bench_service_
throughput.py`` and a convenient soak test for the cache-invalidation
machinery (churn exercises every generation-bump path while queries
are in flight).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro._validation import as_rng
from repro.core.query import ClusterQuery
from repro.exceptions import ServiceError
from repro.experiments.report import format_table
from repro.service.core import ClusterQueryService, ServiceResult
from repro.service.telemetry import TelemetrySnapshot

__all__ = ["LoadGenConfig", "LoadGenReport", "query_mix", "run_loadgen"]


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of the generated query stream.

    Attributes
    ----------
    queries:
        Total queries to submit.
    batch_size:
        Queries per ``submit_batch`` call; ``1`` submits singly (the
        unbatched baseline).
    k_choices:
        Cluster sizes drawn uniformly per query.
    distinct_constraints:
        Number of distinct ``b`` values in the mix; drawn once, then
        sampled per query.  A small number models real traffic (users
        reuse popular constraints) and is what makes caching pay off.
    churn_rate:
        Probability, per batch, of one membership churn event (a
        random non-root host departs and immediately re-joins).
    max_workers:
        Thread-pool width handed to ``submit_batch`` (``None`` =
        sequential).
    seed:
        PRNG seed for the query mix and churn choices.
    """

    queries: int = 200
    batch_size: int = 25
    k_choices: tuple[int, ...] = (3, 5, 8)
    distinct_constraints: int = 4
    churn_rate: float = 0.0
    max_workers: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise ServiceError(f"queries must be >= 1, got {self.queries!r}")
        if self.batch_size < 1:
            raise ServiceError(
                f"batch_size must be >= 1, got {self.batch_size!r}"
            )
        if not self.k_choices or any(k < 2 for k in self.k_choices):
            raise ServiceError("k_choices must be non-empty, all >= 2")
        if self.distinct_constraints < 1:
            raise ServiceError("distinct_constraints must be >= 1")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ServiceError("churn_rate must lie in [0, 1]")


@dataclass(frozen=True)
class LoadGenReport:
    """Outcome of one load-generation run.

    Attributes
    ----------
    queries:
        Queries submitted and answered (churn is injected between
        batches, so no batch ever observes a mid-flight generation
        change).
    found:
        Queries answered with a non-empty cluster.
    churn_events:
        Membership churn events injected.
    duration_s:
        Wall-clock time spent submitting.
    throughput_qps:
        ``queries / duration_s``.
    telemetry:
        The service's telemetry snapshot taken at the end of the run.
    """

    queries: int
    found: int
    churn_events: int
    duration_s: float
    throughput_qps: float
    telemetry: TelemetrySnapshot

    def format_table(self) -> str:
        """Render the headline numbers as an aligned text table."""
        t = self.telemetry
        rows = [
            ["queries", self.queries],
            ["found", self.found],
            ["churn events", self.churn_events],
            ["duration (s)", f"{self.duration_s:.3f}"],
            ["throughput (q/s)", f"{self.throughput_qps:.1f}"],
            ["cache hits", t.cache_hits],
            ["cache misses", t.cache_misses],
            ["substrate builds", t.substrate_builds],
            ["kernel patches", t.kernel_patches],
            ["per-class CRT passes", t.aggregation_builds],
            ["p50 latency (ms)", f"{t.latency_p50_s * 1e3:.3f}"],
            ["p95 latency (ms)", f"{t.latency_p95_s * 1e3:.3f}"],
            ["p99 latency (ms)", f"{t.latency_p99_s * 1e3:.3f}"],
        ]
        return format_table(
            ["metric", "value"], rows, title="service load generation"
        )


def query_mix(
    service: ClusterQueryService,
    config: LoadGenConfig,
    rng: np.random.Generator,
) -> list[ClusterQuery]:
    """Draw the full query stream up front (all constraints snappable).

    Public so the wire-level harness (:mod:`repro.net.loadgen`) can
    drive a server with the *identical* deterministic stream and make
    in-process vs over-the-wire throughput directly comparable.
    """
    bandwidths = service.classes.bandwidths
    low, high = bandwidths[0], bandwidths[-1]
    pool = [
        float(rng.uniform(low, high))
        for _ in range(config.distinct_constraints)
    ]
    return [
        ClusterQuery(
            k=int(rng.choice(config.k_choices)),
            b=pool[int(rng.integers(len(pool)))],
        )
        for _ in range(config.queries)
    ]


def _churn_once(
    service: ClusterQueryService, rng: np.random.Generator
) -> None:
    """One churn event: a random non-root host departs and re-joins."""
    root = service.framework.anchor_tree.root
    candidates = [host for host in service.hosts if host != root]
    victim = int(candidates[int(rng.integers(len(candidates)))])
    service.remove_host(victim)
    service.add_host(victim)


def run_loadgen(
    service: ClusterQueryService, config: LoadGenConfig
) -> LoadGenReport:
    """Drive *service* with the configured stream; returns the report."""
    rng = as_rng(config.seed)
    stream = query_mix(service, config, rng)
    churn_events = 0
    results: list[ServiceResult] = []
    began = time.perf_counter()
    for offset in range(0, len(stream), config.batch_size):
        batch = stream[offset:offset + config.batch_size]
        if config.churn_rate and rng.random() < config.churn_rate:
            _churn_once(service, rng)
            churn_events += 1
        results.extend(
            service.submit_batch(batch, max_workers=config.max_workers)
        )
    duration = time.perf_counter() - began
    return LoadGenReport(
        queries=len(results),
        found=sum(1 for result in results if result.found),
        churn_events=churn_events,
        duration_s=duration,
        throughput_qps=len(results) / duration if duration > 0 else 0.0,
        telemetry=service.telemetry.snapshot(),
    )
