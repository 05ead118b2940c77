"""Tests for :class:`ClusterQueryService` — the service tentpole."""

import math

import pytest

from repro.core.query import BandwidthClasses, ClusterQuery
from repro.exceptions import (
    ServiceError,
    StaleGenerationError,
    UnsupportedConstraintError,
)
from repro.predtree.framework import build_framework
from repro.service import ClusterQueryService


class TestSubmit:
    def test_returns_valid_cluster(self, service):
        result = service.submit(ClusterQuery(k=4, b=30.0))
        assert result.found
        assert len(result.cluster) == 4
        assert result.snapped_b >= 30.0
        assert result.generation == service.generation
        # Every returned pair satisfies the snapped constraint under
        # the predicted distances the system works with.
        framework = service.framework
        for i, u in enumerate(result.cluster):
            for v in result.cluster[i + 1:]:
                assert framework.predicted_distance(u, v) <= result.l + 1e-9

    def test_repeat_query_is_cached(self, service):
        first = service.submit(ClusterQuery(k=4, b=30.0))
        second = service.submit(ClusterQuery(k=4, b=30.0))
        assert not first.cached
        assert second.cached
        assert second.cluster == first.cluster

    def test_cache_shared_across_snapped_constraints(self, service):
        first = service.submit(ClusterQuery(k=4, b=28.0))
        second = service.submit(ClusterQuery(k=4, b=30.0))
        # Both snap to the same class, so the second is a hit.
        assert first.snapped_b == second.snapped_b
        assert second.cached

    def test_cache_shared_across_entry_hosts(self, service):
        hosts = service.hosts
        first = service.submit(ClusterQuery(k=3, b=20.0), start=hosts[0])
        second = service.submit(ClusterQuery(k=3, b=20.0), start=hosts[-1])
        assert second.cached
        assert second.cluster == first.cluster

    def test_unsatisfiable_query_cached_too(self, service):
        impossible = ClusterQuery(k=29, b=75.0)
        first = service.submit(impossible)
        second = service.submit(impossible)
        assert not first.found
        assert not second.found
        assert second.cached

    def test_unsupported_constraint_raises(self, service):
        with pytest.raises(UnsupportedConstraintError):
            service.submit(ClusterQuery(k=3, b=1e6))

    def test_stale_pin_rejected(self, service):
        generation = service.generation
        victim = service.submit(ClusterQuery(k=3, b=20.0)).cluster[0]
        service.remove_host(victim)
        with pytest.raises(StaleGenerationError):
            service.submit(
                ClusterQuery(k=3, b=20.0), expected_generation=generation
            )

    def test_current_pin_accepted(self, service):
        result = service.submit(
            ClusterQuery(k=3, b=20.0),
            expected_generation=service.generation,
        )
        assert result.found


class TestMembership:
    def test_membership_bumps_generation(self, service):
        before = service.generation
        victim = max(
            host for host in service.hosts
            if host != service.framework.anchor_tree.root
        )
        service.remove_host(victim)
        after_remove = service.generation
        assert after_remove > before
        service.add_host(victim)
        assert service.generation > after_remove

    def test_generation_bump_invalidates_cache(self, service):
        query = ClusterQuery(k=4, b=30.0)
        service.submit(query)
        assert service.submit(query).cached
        victim = max(
            host for host in service.hosts
            if host != service.framework.anchor_tree.root
        )
        service.remove_host(victim)
        fresh = service.submit(query)
        assert not fresh.cached

    def test_explicit_invalidate(self, service):
        query = ClusterQuery(k=4, b=30.0)
        service.submit(query)
        before = service.generation
        service.invalidate()
        assert service.generation > before
        assert not service.submit(query).cached

    def test_rejects_tiny_framework(self):
        import numpy as np

        from repro.metrics.metric import BandwidthMatrix

        tiny = build_framework(
            BandwidthMatrix(np.full((1, 1), np.inf)), seed=0
        )
        with pytest.raises(ServiceError):
            ClusterQueryService(tiny, BandwidthClasses([10.0]), n_cut=2)


class TestStats:
    def test_stats_counts(self, service):
        query = ClusterQuery(k=4, b=30.0)
        service.submit(query)
        service.submit(query)
        stats = service.stats()
        assert stats.host_count == 30
        assert stats.telemetry.queries_served == 2
        assert stats.telemetry.cache_hits == 1
        assert stats.telemetry.cache_misses == 1
        assert stats.telemetry.aggregation_builds == 1
        assert stats.result_cache_entries == 1
        assert stats.aggregation_entries == 1
        assert stats.telemetry.hit_rate == pytest.approx(0.5)


class TestSharedSubstrate:
    """The tentpole invariant: one node-info fixed point, m CRT passes."""

    def _mixed_batch(self):
        return [
            ClusterQuery(k=3, b=20.0),   # snaps to 30
            ClusterQuery(k=4, b=30.0),   # snaps to 30
            ClusterQuery(k=3, b=40.0),   # snaps to 45
            ClusterQuery(k=3, b=60.0),   # snaps to 60
        ]

    def test_batch_builds_substrate_once(self, service):
        service.submit_batch(self._mixed_batch(), max_workers=3)
        snapshot = service.telemetry.snapshot()
        # 3 distinct snapped classes: 1 shared fixed point, 3 CRT passes.
        assert snapshot.substrate_builds == 1
        assert snapshot.aggregation_builds == 3

    def test_sequential_classes_share_substrate(self, service):
        for query in self._mixed_batch():
            service.submit(query)
        snapshot = service.telemetry.snapshot()
        assert snapshot.substrate_builds == 1
        assert snapshot.aggregation_builds == 3

    def test_prepare_prewarms(self, service):
        service.prepare()
        snapshot = service.telemetry.snapshot()
        assert snapshot.substrate_builds == 1
        service.submit(ClusterQuery(k=3, b=20.0))
        assert service.telemetry.snapshot().substrate_builds == 1

    def test_cold_build_latency_lands_in_histogram(self, service):
        service.prepare()
        snapshot = service.telemetry.snapshot()
        # The build was timed, not just counted.
        assert math.isfinite(snapshot.substrate_build_mean_s)
        assert snapshot.substrate_build_mean_s >= 0.0
        assert math.isfinite(snapshot.substrate_build_p50_s)


def _anchor_leaf(service):
    """A host whose departure displaces nobody (not the root)."""
    anchor = service.framework.anchor_tree
    return [
        host for host in service.hosts if not anchor.children(host)
    ][-1]


class TestIncrementalMaintenance:
    def test_leaf_churn_never_rebuilds(self, service):
        query = ClusterQuery(k=3, b=20.0)
        service.submit(query)
        victim = _anchor_leaf(service)
        assert service.remove_host(victim) == []
        service.submit(query)
        service.add_host(victim)
        service.submit(query)
        snapshot = service.telemetry.snapshot()
        assert snapshot.substrate_builds == 1
        # Leaf churn is absorbed warm, as kernel patches.
        assert snapshot.kernel_patches == 2
        assert snapshot.patch_fallbacks == 0

    def test_incremental_answers_match_cold_service(self, service, dataset):
        query = ClusterQuery(k=4, b=30.0)
        service.submit(query)
        victim = _anchor_leaf(service)
        assert service.remove_host(victim) == []
        warm = service.submit(query)

        from repro.service import ClusterQueryService

        framework = build_framework(dataset.bandwidth, seed=1)
        cold_service = ClusterQueryService(
            framework, service.classes, n_cut=5
        )
        cold_service.remove_host(victim)
        cold = cold_service.submit(query)
        assert warm.cluster == cold.cluster

    def test_restructuring_departure_rebuilds(self, service):
        query = ClusterQuery(k=3, b=20.0)
        service.submit(query)
        anchor = service.framework.anchor_tree
        victim = next(
            host
            for host in service.hosts
            if anchor.children(host) and host != anchor.root
        )
        rejoined = service.remove_host(victim)
        assert rejoined
        service.submit(query)
        snapshot = service.telemetry.snapshot()
        # The anchor tree restructured: incremental maintenance would
        # be unsound, so the substrate was rebuilt cold instead.
        assert snapshot.substrate_builds == 2
        assert snapshot.kernel_patches == 0


class TestEmptyOverlay:
    def test_submit_on_empty_overlay_raises_service_error(self):
        import numpy as np

        from repro.metrics.metric import BandwidthMatrix

        bandwidth = BandwidthMatrix(
            np.array([[np.inf, 50.0], [50.0, np.inf]])
        )
        framework = build_framework(bandwidth, seed=0)
        service = ClusterQueryService(
            framework, BandwidthClasses([40.0, 60.0]), n_cut=2
        )
        root = framework.anchor_tree.root
        for host in [h for h in service.hosts if h != root]:
            service.remove_host(host)
        service.remove_host(root)
        assert service.hosts == []
        with pytest.raises(ServiceError, match="empty overlay"):
            service.submit(ClusterQuery(k=2, b=40.0))

    def test_draining_a_served_overlay_keeps_membership_working(
        self, service
    ):
        # A held substrate must not make the last departure raise: an
        # empty overlay has nothing to compile, so the memo is dropped.
        query = ClusterQuery(k=2, b=20.0)
        service.submit(query)
        anchor = service.framework.anchor_tree
        departed = []
        while service.hosts:
            leaves = [h for h in service.hosts if not anchor.children(h)]
            departed.append(leaves[-1])
            service.remove_host(leaves[-1])
        with pytest.raises(ServiceError, match="empty overlay"):
            service.submit(query)
        for host in reversed(departed[-3:]):
            service.add_host(host)
        assert service.submit(query).generation == service.generation


class TestResultCachePublishRace:
    def test_invalidate_racing_publish_cannot_strand_dead_entry(
        self, service
    ):
        """Regression: an invalidation landing between the post-compute
        generation check and the cache insert must not leave a
        dead-generation entry occupying an LRU slot forever.  The
        racing cache forces that exact interleaving: the first publish
        triggers a concurrent ``invalidate()`` and gives it half a
        second to win the race before inserting."""
        import threading

        from repro.service.cache import LRUCache

        class RacingCache(LRUCache):
            def __init__(self, capacity, victim_service):
                super().__init__(capacity)
                self.victim_service = victim_service
                self.invalidator = None

            def put(self, key, value):
                if self.invalidator is None:
                    self.invalidator = threading.Thread(
                        target=self.victim_service.invalidate
                    )
                    self.invalidator.start()
                    # Unfixed, the insert runs outside the membership
                    # lock, so this join sees the invalidation complete
                    # and the entry below is stranded dead.  Fixed, the
                    # invalidator blocks on the lock until the insert
                    # is published atomically with its re-validation.
                    self.invalidator.join(timeout=0.5)
                super().put(key, value)

        racing = RacingCache(16, service)
        service._results = racing
        service.submit(ClusterQuery(k=3, b=20.0))
        assert racing.invalidator is not None
        racing.invalidator.join(timeout=5.0)
        assert not racing.invalidator.is_alive()
        current = service.generation
        stranded = [
            key for key in list(racing._entries) if key[2] != current
        ]
        assert stranded == []
