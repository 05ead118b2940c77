"""Service telemetry: counters and latency histograms.

A long-lived query service is only operable if it can report what it is
doing: how many queries it served, how often the result cache hit, how
many routing-table aggregations it had to rebuild, and where the
latency quantiles sit.  :class:`ServiceTelemetry` collects all of that
behind one lock so the batched executor can record from worker threads,
and :meth:`ServiceTelemetry.snapshot` freezes it into an immutable
:class:`TelemetrySnapshot` for reporting.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from repro.exceptions import ServiceError

__all__ = [
    "ADMISSION_WINDOW",
    "LatencyHistogram",
    "ServiceTelemetry",
    "TelemetrySnapshot",
]

#: Sliding-window length (admission outcomes) behind ``shed_rate``.
ADMISSION_WINDOW = 1024


class LatencyHistogram:
    """Bounded reservoir of latency samples with quantile readout.

    Keeps at most *capacity* samples; once full, every new sample
    overwrites the oldest (a sliding window, which for a service is the
    regime of interest — recent behaviour).  **Every statistic reads
    that same window**: :meth:`mean` and :meth:`quantile` both describe
    the retained samples, so once the reservoir wraps they stay
    mutually consistent (a windowed sum is maintained incrementally —
    the overwritten sample is subtracted on overwrite).  Lifetime
    exposure is the *count* only, via :attr:`total_recorded`.
    Quantiles use the nearest-rank method on a sorted copy, so reads
    never perturb the reservoir.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ServiceError(f"capacity must be >= 1, got {capacity!r}")
        self._capacity = int(capacity)
        self._samples: list[float] = []
        self._cursor = 0
        self._total = 0
        self._window_sum = 0.0

    def record(self, seconds: float) -> None:
        """Add one latency sample (in seconds)."""
        value = float(seconds)
        if not math.isfinite(value) or value < 0:
            raise ServiceError(
                f"latency sample must be finite >= 0, got {seconds!r}"
            )
        if len(self._samples) < self._capacity:
            self._samples.append(value)
        else:
            self._window_sum -= self._samples[self._cursor]
            self._samples[self._cursor] = value
            self._cursor = (self._cursor + 1) % self._capacity
        self._total += 1
        self._window_sum += value

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def total_recorded(self) -> int:
        """Samples ever recorded (including ones the window dropped)."""
        return self._total

    def mean(self) -> float:
        """Mean over the current window (``nan`` when empty).

        Windowed to match :meth:`quantile` — mean and p50 always
        describe the same population of samples.
        """
        if not self._samples:
            return float("nan")
        return self._window_sum / len(self._samples)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile ``q in [0, 1]`` over the current window.

        Returns ``nan`` when no samples have been recorded.
        """
        if not 0.0 <= q <= 1.0:
            raise ServiceError(f"quantile must lie in [0, 1], got {q!r}")
        if not self._samples:
            return float("nan")
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable view of the service counters at one instant.

    Attributes
    ----------
    queries_served:
        Total queries answered (from cache or computed).
    cache_hits / cache_misses:
        Result-cache outcomes.
    aggregation_builds:
        Per-class CRT passes executed (Algorithm 3 restricted to one
        distance class, layered over the shared substrate).
    substrate_builds:
        Full Algorithm 2 node-info fixed points computed — the
        expensive class-independent build every class shares.  A warm
        multi-class batch should show exactly 1 of these however many
        classes it touches.
    batches:
        ``submit_batch`` calls executed.
    membership_changes:
        ``add_host``/``remove_host`` operations applied.
    unsatisfied:
        Queries that returned an empty cluster.
    latency_p50_s / latency_p95_s / latency_p99_s / latency_mean_s:
        Per-query service latency statistics in seconds, all computed
        over the histogram's sliding window (``nan`` before the first
        query).
    slowest_trace_id:
        Trace id of the slowest query currently retained by the
        service's :class:`~repro.obs.store.TraceStore` — the handle to
        jump from quantiles to the full span tree.  ``None`` when the
        service runs untraced (the default no-op tracer).
    substrate_build_p50_s / substrate_build_p95_s /
    substrate_build_mean_s:
        Cold-path substrate build latency statistics in seconds
        (``nan`` until the first timed build).  The counter alone
        cannot surface a cold-path *regression* — a build that got 10x
        slower still counts once; the histogram makes it visible.
    answer_table_builds:
        Warm-path answer tables constructed (one per ``(generation,
        class)`` the batched gather path touched).  Counted separately
        from :attr:`aggregation_builds` — a table build reuses the
        class's already-built CRT state and is not a CRT pass.
    kernel_patches:
        Membership changes absorbed by the kernel churn path (CSR
        splice + masked re-sweep) with the compiled stack kept warm —
        the cheap outcome of the two-rung maintenance ladder.
    answer_table_patches:
        Answer tables migrated across a membership event by
        :meth:`~repro.service.cache.AnswerTableMemo.patch` instead of
        being dropped and rebuilt.
    patch_fallbacks:
        Membership events the kernel patch declined (a change that
        restructured the compiled tree) and a substrate rebuild
        absorbed instead.
    admitted / shed / throttled / expired:
        Admission outcomes (see :mod:`repro.service.admission`):
        requests let in, rejected at the pending-work bound, rejected
        by a per-client rate limit, and dropped because their deadline
        passed before execution.
    shed_rate:
        Fraction of *recent* admission decisions that were rejections
        (shed + throttled + expired), over a sliding window of the
        last :data:`ADMISSION_WINDOW` outcomes — the operator-facing
        "is the service under overload right now" signal (``nan``
        before any admission decision).
    """

    queries_served: int
    cache_hits: int
    cache_misses: int
    aggregation_builds: int
    substrate_builds: int
    batches: int
    membership_changes: int
    unsatisfied: int
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_mean_s: float
    slowest_trace_id: str | None = None
    substrate_build_p50_s: float = float("nan")
    substrate_build_p95_s: float = float("nan")
    substrate_build_mean_s: float = float("nan")
    answer_table_builds: int = 0
    kernel_patches: int = 0
    answer_table_patches: int = 0
    patch_fallbacks: int = 0
    admitted: int = 0
    shed: int = 0
    throttled: int = 0
    expired: int = 0
    shed_rate: float = float("nan")

    @property
    def hit_rate(self) -> float:
        """Cache hit fraction (``nan`` before the first query)."""
        looked = self.cache_hits + self.cache_misses
        return self.cache_hits / looked if looked else float("nan")


class _AdmissionWindow:
    """Fixed-size ring of recent admission outcomes (True = rejected).

    The windowed rejection fraction is the live overload signal the
    lifetime counters cannot provide: counters only ever grow, while
    the window forgets an incident once :data:`ADMISSION_WINDOW`
    healthy admissions have washed it out.  Not internally locked —
    :class:`ServiceTelemetry` mutates it strictly under its own lock.
    """

    __slots__ = ("_capacity", "_cursor", "_outcomes", "_rejected")

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._outcomes: list[bool] = []
        self._cursor = 0
        self._rejected = 0

    def push(self, rejected: bool) -> None:
        """Record one admission outcome, evicting the oldest when full."""
        if len(self._outcomes) < self._capacity:
            self._outcomes.append(rejected)
        else:
            cursor = self._cursor
            if self._outcomes[cursor]:
                self._rejected -= 1
            self._outcomes[cursor] = rejected
            self._cursor = (cursor + 1) % self._capacity
        if rejected:
            self._rejected += 1

    @property
    def rate(self) -> float:
        """Rejected fraction of the window (NaN before any outcome)."""
        if not self._outcomes:
            return float("nan")
        return self._rejected / len(self._outcomes)


class ServiceTelemetry:
    """Thread-safe counters + latency histogram for one service."""

    def __init__(self, histogram_capacity: int = 4096) -> None:
        self._lock = threading.Lock()
        self._histogram = LatencyHistogram(histogram_capacity)
        self._build_histogram = LatencyHistogram(histogram_capacity)
        self._queries_served = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._aggregation_builds = 0
        self._substrate_builds = 0
        self._batches = 0
        self._membership_changes = 0
        self._unsatisfied = 0
        self._answer_table_builds = 0
        self._kernel_patches = 0
        self._answer_table_patches = 0
        self._patch_fallbacks = 0
        self._admitted = 0
        self._shed = 0
        self._throttled = 0
        self._expired = 0
        self._admission_window = _AdmissionWindow(ADMISSION_WINDOW)

    def record_query(
        self, latency_s: float, cached: bool, found: bool
    ) -> None:
        """Account one served query."""
        with self._lock:
            self._queries_served += 1
            if cached:
                self._cache_hits += 1
            else:
                self._cache_misses += 1
            if not found:
                self._unsatisfied += 1
            self._histogram.record(latency_s)

    def record_aggregation_build(self) -> None:
        """Account one per-class CRT pass (cheap, class-dependent)."""
        with self._lock:
            self._aggregation_builds += 1

    def record_substrate_build(self, latency_s: float | None = None) -> None:
        """Account one full node-info fixed point (expensive, shared).

        *latency_s* feeds the ``substrate_build_seconds`` histogram;
        ``None`` keeps counter-only accounting for callers that cannot
        time the build (kept for compatibility, and exercised by the
        no-rebuild paths).
        """
        with self._lock:
            self._substrate_builds += 1
            if latency_s is not None:
                self._build_histogram.record(latency_s)

    def record_answer_table_build(self) -> None:
        """Account one warm-path answer-table construction."""
        with self._lock:
            self._answer_table_builds += 1

    def record_kernel_patch(self) -> None:
        """Account one membership change absorbed by the kernel patch."""
        with self._lock:
            self._kernel_patches += 1

    def record_answer_table_patches(self, count: int) -> None:
        """Account *count* answer tables migrated across a change."""
        with self._lock:
            self._answer_table_patches += int(count)

    def record_patch_fallbacks(self, count: int) -> None:
        """Account *count* declined maintenance-ladder rungs."""
        with self._lock:
            self._patch_fallbacks += int(count)

    def record_admitted(self) -> None:
        """Account one request let through admission."""
        with self._lock:
            self._admitted += 1
            self._admission_window.push(False)

    def record_shed(self) -> None:
        """Account one request rejected at the pending-work bound."""
        with self._lock:
            self._shed += 1
            self._admission_window.push(True)

    def record_throttled(self) -> None:
        """Account one request rejected by a per-client rate limit."""
        with self._lock:
            self._throttled += 1
            self._admission_window.push(True)

    def record_expired(self) -> None:
        """Account one request shed because its deadline passed."""
        with self._lock:
            self._expired += 1
            self._admission_window.push(True)

    def record_batch(self) -> None:
        """Account one batch execution."""
        with self._lock:
            self._batches += 1

    def record_membership_change(self) -> None:
        """Account one membership operation (join or departure)."""
        with self._lock:
            self._membership_changes += 1

    def snapshot(
        self, *, slowest_trace_id: str | None = None
    ) -> TelemetrySnapshot:
        """Freeze the current counters into a :class:`TelemetrySnapshot`.

        *slowest_trace_id* is threaded through verbatim — the service
        passes its trace store's current slowest trace so operators can
        pivot from the latency quantiles to one concrete span tree.
        """
        with self._lock:
            return TelemetrySnapshot(
                queries_served=self._queries_served,
                cache_hits=self._cache_hits,
                cache_misses=self._cache_misses,
                aggregation_builds=self._aggregation_builds,
                substrate_builds=self._substrate_builds,
                batches=self._batches,
                membership_changes=self._membership_changes,
                unsatisfied=self._unsatisfied,
                latency_p50_s=self._histogram.quantile(0.50),
                latency_p95_s=self._histogram.quantile(0.95),
                latency_p99_s=self._histogram.quantile(0.99),
                latency_mean_s=self._histogram.mean(),
                slowest_trace_id=slowest_trace_id,
                substrate_build_p50_s=self._build_histogram.quantile(0.50),
                substrate_build_p95_s=self._build_histogram.quantile(0.95),
                substrate_build_mean_s=self._build_histogram.mean(),
                answer_table_builds=self._answer_table_builds,
                kernel_patches=self._kernel_patches,
                answer_table_patches=self._answer_table_patches,
                patch_fallbacks=self._patch_fallbacks,
                admitted=self._admitted,
                shed=self._shed,
                throttled=self._throttled,
                expired=self._expired,
                shed_rate=self._admission_window.rate,
            )
