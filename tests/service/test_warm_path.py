"""The vectorized warm batch path, and hot-path regression tests.

The answer-table path (``ClusterQueryService.submit_group``) promises
bit-identical answers to the per-query reference path whenever it
engages, and graceful fallback whenever it cannot.  These tests drive
it through the public ``submit_batch`` API against a twin service that
only ever uses the per-query path, plus the satellite regressions this
PR fixed: cached ``hops`` semantics and locked ``stats()``/``hosts``
reads under churn.
"""

import threading

import pytest

from repro.core.query import BandwidthClasses, ClusterQuery
from repro.predtree.framework import build_framework
from repro.service import ClusterQueryService

BANDWIDTHS = (20.0, 40.0, 60.0)


def _fresh(dataset, cache_size=1024):
    framework = build_framework(dataset.bandwidth, seed=1)
    classes = BandwidthClasses.linear(15.0, 75.0, 5)
    return ClusterQueryService(
        framework, classes, n_cut=5, cache_size=cache_size
    )


def _warm(service):
    """Make every class in BANDWIDTHS warm (CRT pass done)."""
    service.submit_batch(
        [ClusterQuery(k=3, b=b) for b in BANDWIDTHS]
    )


def _mixed_misses():
    """Mixed (k, b) queries that are all result-cache misses."""
    return [
        ClusterQuery(k=k, b=b)
        for k in range(2, 9)
        for b in BANDWIDTHS
    ]


class TestWarmBatchParity:
    def test_warm_batch_engages_and_matches_per_query(self, dataset):
        # cache_size=2 keeps the warm batch from being answered out of
        # the LRU: the gather path must do the actual work.
        service = _fresh(dataset, cache_size=2)
        reference = _fresh(dataset)
        _warm(service)
        batch = _mixed_misses()
        results = service.submit_batch(batch)
        assert service.telemetry.snapshot().answer_table_builds == len(
            BANDWIDTHS
        )
        for query, result in zip(batch, results):
            expected = reference.submit(query)
            assert result.cluster == expected.cluster, query
            assert result.hops == expected.hops, query
            assert result.snapped_b == expected.snapped_b
            assert result.l == expected.l
            assert result.start == expected.start
            assert result.generation == expected.generation

    def test_parallel_warm_batch_matches(self, dataset):
        service = _fresh(dataset, cache_size=2)
        reference = _fresh(dataset)
        _warm(service)
        batch = _mixed_misses()
        results = service.submit_batch(batch, max_workers=3)
        for query, result in zip(batch, results):
            expected = reference.submit(query)
            assert result.cluster == expected.cluster, query
            assert result.hops == expected.hops, query

    def test_explicit_start_matches(self, dataset):
        service = _fresh(dataset, cache_size=2)
        reference = _fresh(dataset, cache_size=2)
        _warm(service)
        start = service.hosts[-1]
        batch = _mixed_misses()
        results = service.submit_batch(batch, start=start)
        for query, result in zip(batch, results):
            expected = reference.submit(query, start=start)
            assert result.cluster == expected.cluster, query
            assert result.hops == expected.hops, query
            assert result.start == expected.start == start

    def test_unknown_start_falls_back_to_per_query_error(self, dataset):
        service = _fresh(dataset, cache_size=2)
        _warm(service)
        from repro.exceptions import QueryError

        with pytest.raises(QueryError):
            service.submit_batch(_mixed_misses(), start=10_000)

    def test_duplicate_queries_in_batch_report_cached(self, dataset):
        service = _fresh(dataset, cache_size=2)
        _warm(service)
        query = ClusterQuery(k=7, b=20.0)
        first, second = service.submit_batch([query, query])
        # Same semantics as the per-query loop: the first occurrence
        # computes, the duplicate would have hit the just-published
        # cache entry.
        assert not first.cached
        assert second.cached
        assert first.cluster == second.cluster
        assert first.hops == second.hops

    def test_tables_memoized_per_class_and_generation(self, dataset):
        service = _fresh(dataset, cache_size=2)
        _warm(service)
        service.submit_batch(_mixed_misses())
        builds = service.telemetry.snapshot().answer_table_builds
        assert builds == len(BANDWIDTHS)
        # Fresh ks, same classes: the memoized tables serve the gather
        # without rebuilding.
        service.submit_batch(
            [
                ClusterQuery(k=k, b=b)
                for k in range(9, 12)
                for b in BANDWIDTHS
            ]
        )
        assert (
            service.telemetry.snapshot().answer_table_builds == builds
        )

    def test_churn_migrates_tables_and_stays_correct(self, dataset):
        service = _fresh(dataset, cache_size=2)
        reference = _fresh(dataset, cache_size=2)
        _warm(service)
        service.submit_batch(_mixed_misses())
        builds = service.telemetry.snapshot().answer_table_builds
        victim = service.hosts[-1]
        service.remove_host(victim)
        reference.remove_host(victim)
        # A leaf departure patches the memoized tables to the new
        # generation (kernel churn path); any table that declined is
        # dropped and rebuilt.  Either way the warm batch must agree
        # with the per-query path against a cold reference service.
        _warm(service)
        batch = _mixed_misses()
        results = service.submit_batch(batch)
        snapshot = service.telemetry.snapshot()
        assert (
            snapshot.answer_table_builds > builds
            or snapshot.answer_table_patches > 0
        )
        for query, result in zip(batch, results):
            expected = reference.submit(query)
            assert result.cluster == expected.cluster, query
            assert result.hops == expected.hops, query
        assert all(
            victim not in result.cluster for result in results
        )


class TestCachedHopsRegression:
    def test_cached_answer_returns_stored_hops(self, dataset):
        """Satellite regression: cache hits report the original hops.

        The docstring used to promise 0 for cached answers while the
        implementation returned the stored value; the stored value is
        the documented behavior now (the routing cost *of the answer*).
        """
        service = _fresh(dataset)
        start = service.hosts[-1]
        witness = None
        for k in range(2, 12):
            for b in BANDWIDTHS:
                result = service.submit(
                    ClusterQuery(k=k, b=b), start=start
                )
                assert not result.cached
                if result.hops > 0:
                    witness = (ClusterQuery(k=k, b=b), result)
                    break
            if witness is not None:
                break
        assert witness is not None, (
            "no query routed off its entry host; pick a farther start"
        )
        query, original = witness
        repeat = service.submit(query, start=start)
        assert repeat.cached
        assert repeat.hops == original.hops
        assert repeat.hops > 0
        assert repeat.cluster == original.cluster


class TestStatsUnderChurn:
    def test_stats_snapshot_is_never_torn(self, service):
        """Satellite regression: stats()/hosts read under the lock.

        A remove/add churn loop alternates the host count between n
        and n-1 while bumping the generation each step; a torn read
        would pair a generation with the *other* overlay's host count.
        Each stats() snapshot must satisfy the exact invariant
        ``host_count == n - ((generation - g0) % 2)``.
        """
        anchor = service.framework.anchor_tree
        n = len(service.hosts)
        g0 = service.generation
        stop = threading.Event()
        failures: list[BaseException] = []

        def churn():
            try:
                while not stop.is_set():
                    victims = [
                        host
                        for host in service.hosts
                        if not anchor.children(host)
                        and host != anchor.root
                    ]
                    if not victims:
                        break
                    victim = victims[0]
                    service.remove_host(victim)
                    service.add_host(victim)
            except BaseException as error:  # pragma: no cover
                failures.append(error)

        def observe():
            try:
                for _ in range(300):
                    stats = service.stats()
                    expected = n - ((stats.generation - g0) % 2)
                    assert stats.host_count == expected, (
                        f"torn stats: generation {stats.generation} "
                        f"paired with host_count {stats.host_count}"
                    )
                    hosts = service.hosts
                    assert len(hosts) in (n - 1, n)
                    assert len(set(hosts)) == len(hosts)
            except BaseException as error:
                failures.append(error)

        churner = threading.Thread(target=churn)
        observers = [
            threading.Thread(target=observe) for _ in range(3)
        ]
        churner.start()
        for thread in observers:
            thread.start()
        for thread in observers:
            thread.join()
        stop.set()
        churner.join()
        assert failures == []
