"""Churn during serving: correctness, telemetry, and patch parity.

Two acceptance properties live here.  First, the generation scheme:
once ``remove_host`` returns, no query — cached, fresh, single, or
batched — may return a cluster containing the removed host.  Second,
the kernel churn contract: leaf churn is absorbed as a patch —
exactly one patch counter moves, no substrate rebuild happens, and
the memoized answer tables are migrated in place instead of dropped —
and the patched tables agree answer-for-answer with a twin service
running the invalidate-everything regime (the same oracle the churn
bench uses).
"""

import pytest

from repro.core.query import BandwidthClasses, ClusterQuery
from repro.exceptions import KernelError, StaleGenerationError
from repro.predtree.framework import build_framework
from repro.service import ClusterQueryService

BANDWIDTHS = (20.0, 40.0, 60.0)


def _fresh(dataset, **kwargs):
    framework = build_framework(dataset.bandwidth, seed=1)
    classes = BandwidthClasses.linear(15.0, 75.0, 5)
    return ClusterQueryService(framework, classes, n_cut=5, **kwargs)


def _anchor_leaf(service):
    """A removable host: an anchor-tree leaf (departure displaces nobody)."""
    framework = service.framework
    return [
        host
        for host in framework.hosts
        if not framework.anchor_tree.children(host)
    ][-1]


def _warm_tables(service):
    """Warm every class in BANDWIDTHS and build their answer tables.

    The first batch pays the per-class CRT pass (per-query path); the
    second, now warm, goes through ``submit_group`` and memoizes the
    answer tables the churn path migrates.
    """
    service.submit_batch([ClusterQuery(k=3, b=b) for b in BANDWIDTHS])
    service.submit_batch([ClusterQuery(k=4, b=b) for b in BANDWIDTHS])


def _non_root_member(service, cluster):
    root = service.framework.anchor_tree.root
    return next(host for host in cluster if host != root)


class TestChurnDuringServing:
    def test_removed_host_never_served_again(self, service):
        queries = [
            ClusterQuery(k=3, b=20.0),
            ClusterQuery(k=4, b=30.0),
            ClusterQuery(k=5, b=20.0),
        ]
        for query in queries:        # warm every cache layer
            service.submit(query)
        victim = _non_root_member(
            service, service.submit(queries[0]).cluster
        )
        service.remove_host(victim)
        for query in queries:
            result = service.submit(query)
            assert victim not in result.cluster
            assert not result.cached or result.generation == (
                service.generation
            )
        for result in service.submit_batch(queries, max_workers=2):
            assert victim not in result.cluster

    def test_sustained_churn_never_leaks(self, service):
        query = ClusterQuery(k=3, b=20.0)
        removed: list[int] = []
        for _ in range(4):
            cluster = service.submit(query).cluster
            assert cluster, "query became unsatisfiable mid-test"
            for departed in removed:
                assert departed not in cluster
            victim = _non_root_member(service, cluster)
            service.remove_host(victim)
            removed.append(victim)

    def test_rejoin_after_departure_is_servable_again(self, service):
        query = ClusterQuery(k=3, b=20.0)
        victim = _non_root_member(service, service.submit(query).cluster)
        service.remove_host(victim)
        assert victim not in service.hosts
        service.add_host(victim)
        assert victim in service.hosts
        result = service.submit(query)
        assert result.found        # the overlay serves either way

    def test_batch_pinned_generation_rejects_mid_batch_churn(self, service):
        query = ClusterQuery(k=3, b=20.0)
        generation = service.generation
        victim = _non_root_member(service, service.submit(query).cluster)
        service.remove_host(victim)
        with pytest.raises(StaleGenerationError):
            service.submit(query, expected_generation=generation)


class TestChurnTelemetryContract:
    def test_patched_join_is_one_patch_and_zero_builds(
        self, dataset
    ):
        service = _fresh(dataset)
        _warm_tables(service)
        victim = _anchor_leaf(service)
        assert service.remove_host(victim) == []
        before = service.telemetry.snapshot()
        service.add_host(victim)
        after = service.telemetry.snapshot()
        # Exactly one patch; nothing rebuilt, no ladder rung declined.
        assert after.kernel_patches == before.kernel_patches + 1
        assert after.substrate_builds == before.substrate_builds
        assert after.patch_fallbacks == before.patch_fallbacks

    def test_patched_leave_migrates_answer_tables(
        self, dataset
    ):
        service = _fresh(dataset)
        _warm_tables(service)
        before = service.telemetry.snapshot()
        victim = _anchor_leaf(service)
        assert service.remove_host(victim) == []
        after = service.telemetry.snapshot()
        assert after.kernel_patches == before.kernel_patches + 1
        assert after.answer_table_patches > before.answer_table_patches
        # A patched class is still warm: the next batch gathers from
        # the migrated tables without rebuilding them.
        results = service.submit_batch(
            [ClusterQuery(k=5, b=b) for b in BANDWIDTHS]
        )
        final = service.telemetry.snapshot()
        assert final.answer_table_builds == after.answer_table_builds
        assert all(victim not in result.cluster for result in results)

    def test_forced_fallback_is_counted(self, dataset, monkeypatch):
        def refuse(*args, **kwargs):
            raise KernelError("forced refusal")

        monkeypatch.setattr(
            "repro.core.decentralized.splice_leave", refuse
        )
        service = _fresh(dataset)
        _warm_tables(service)
        builds = service.telemetry.snapshot().substrate_builds
        victim = _anchor_leaf(service)
        assert service.remove_host(victim) == []
        snapshot = service.telemetry.snapshot()
        assert snapshot.patch_fallbacks == 1
        assert snapshot.kernel_patches == 0
        # The declined patch fell to the rebuild rung.
        assert snapshot.substrate_builds == builds + 1
        # No ChurnEvent means nothing to migrate the tables with.
        assert snapshot.answer_table_patches == 0

    def test_invalidated_twin_never_patches(self, dataset):
        service = _fresh(dataset)
        _warm_tables(service)
        service.invalidate()
        victim = _anchor_leaf(service)
        assert service.remove_host(victim) == []
        service.invalidate()
        snapshot = service.telemetry.snapshot()
        # invalidate() dropped the substrate, so the event had nothing
        # to patch: the invalidate-everything regime.
        assert snapshot.kernel_patches == 0
        assert snapshot.answer_table_patches == 0
        assert snapshot.patch_fallbacks == 0


class TestChurnAnswerParity:
    def test_patched_tables_agree_with_invalidating_twin(
        self, dataset
    ):
        service = _fresh(dataset)
        # The twin calls invalidate() after every event, so it never
        # holds a substrate to patch: every batch rebuilds from scratch.
        twin = _fresh(dataset)
        _warm_tables(service)
        batch = [
            ClusterQuery(k=k, b=b) for k in (3, 5) for b in BANDWIDTHS
        ]
        for _ in range(2):
            victim = _anchor_leaf(service)
            assert service.remove_host(victim) == []
            assert twin.remove_host(victim) == []
            twin.invalidate()
            warm = service.submit_batch(batch)
            for query, result in zip(batch, warm):
                expected = twin.submit(query)
                assert result.cluster == expected.cluster, query
                assert result.hops == expected.hops, query
            service.add_host(victim)
            twin.add_host(victim)
            twin.invalidate()
        snapshot = service.telemetry.snapshot()
        assert snapshot.kernel_patches == 4
        assert snapshot.answer_table_patches > 0
