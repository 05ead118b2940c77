"""Differential tests: the vectorized kernels vs. the round protocol.

The kernel layer's whole contract is *bit-identical* fixed points: the
two-pass sweeps and the batched CRT kernel must reproduce exactly the
tables the reference protocol converges to, on every overlay and every
distance matrix — including degenerate ties, which is why several
generators quantize distances.  Oracles here are written directly on
the pure reference functions (``propagate_node_info`` /
``propagate_crt`` / ``own_crt_table``), so kernel bugs cannot hide
behind a shared implementation.  End to end, the substrate, the
substrate-backed CRT pass and the service's answers are held to the
standalone paper-literal :class:`DecentralizedClusterSearch`.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decentralized import (
    AggregationSubstrate,
    DecentralizedClusterSearch,
    own_crt_table,
    propagate_crt,
    propagate_node_info,
)
from repro.core.find_cluster import max_cluster_size
from repro.core.query import ClusterQuery
from repro.datasets.planetlab import hp_planetlab_like
from repro.exceptions import KernelError, QueryError
from repro.kernels.aggr import (
    clustering_spaces,
    node_info_sweep,
    tables_from_sweep,
)
from repro.kernels.crt import CrtPrecompute, crt_sweep, crt_tables
from repro.kernels.tree import compile_tree
from repro.metrics.metric import DistanceMatrix
from repro.predtree.framework import build_framework
from repro.service.core import ClusterQueryService
from repro.service.executor import BatchExecutor

from tests.conftest import random_tree_distance_matrix


def random_overlay(n: int, seed: int) -> dict[int, list[int]]:
    """A random tree adjacency over hosts ``0..n-1``."""
    rng = np.random.default_rng(seed)
    neighbors: dict[int, list[int]] = {0: []}
    for node in range(1, n):
        parent = int(rng.integers(0, node))
        neighbors[node] = [parent]
        neighbors[parent].append(node)
    return neighbors


def random_distances(n: int, seed: int, quantize: bool) -> DistanceMatrix:
    """A random (non-tree) metric-ish matrix; quantized to force ties."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.5, 30.0, size=(n, n))
    raw = (raw + raw.T) / 2
    if quantize:
        raw = np.round(raw)
    np.fill_diagonal(raw, 0.0)
    return DistanceMatrix(raw)


def reference_node_info(neighbors, distances, n_cut):
    """The Algorithm 2 fixed point, iterated on the pure functions."""
    tables = {host: {} for host in neighbors}
    for _ in range(2 * len(neighbors) + 4):
        updates = {
            (x, m): propagate_node_info(
                m, tables[m], x, distances.row(x), n_cut
            )
            for m in neighbors
            for x in neighbors[m]
        }
        changed = False
        for (x, m), nodes in updates.items():
            if tables[x].get(m) != nodes:
                tables[x][m] = nodes
                changed = True
        if not changed:
            return tables
    raise AssertionError("reference protocol failed to converge")


def reference_space(host, node_tables):
    """``V_x = {x} ∪ ⋃_v aggrNode[v]`` from a host-keyed table dict."""
    members = {host}
    for nodes in node_tables[host].values():
        members.update(nodes)
    return tuple(sorted(members))


def reference_spaces(csr, node_tables):
    """:func:`reference_space` per compact node of *csr*, in CSR order."""
    return [
        reference_space(int(host), node_tables) for host in csr.host_ids
    ]


def oracle_snapshot(search):
    """A standalone search's node state in the substrate snapshot shape."""
    return {
        host: (
            list(search.state_of(host).neighbors),
            dict(search.state_of(host).aggr_node),
        )
        for host in search.hosts
    }


def reference_crt(neighbors, node_tables, distances, classes):
    """The Algorithm 3 fixed point, iterated on the pure functions."""
    spaces = {host: reference_space(host, node_tables) for host in neighbors}
    own = {
        host: own_crt_table(spaces[host], distances, classes)
        for host in neighbors
    }
    crt = {host: {host: dict(own[host])} for host in neighbors}
    for _ in range(2 * len(neighbors) + 4):
        updates = {
            (x, m): propagate_crt(
                neighbors[m], crt[m], x, own[m], classes
            )
            for m in neighbors
            for x in neighbors[m]
        }
        changed = False
        for (x, m), table in updates.items():
            if crt[x].get(m) != table:
                crt[x][m] = table
                changed = True
        if not changed:
            return crt
    raise AssertionError("reference CRT failed to converge")


class TestCompileTree:
    def test_structure_invariants(self):
        neighbors = random_overlay(25, seed=3)
        d = random_distances(25, seed=4, quantize=False)
        csr = compile_tree(neighbors, d.values)
        assert csr.size == 25
        assert int(csr.parent[0]) == -1
        # Parents precede children; children ranges tile 1..size-1.
        seen = []
        for node in range(csr.size):
            for child in csr.children_of(node):
                assert int(csr.parent[child]) == node
                assert child > node
                seen.append(int(child))
        assert sorted(seen) == list(range(1, 25))
        # Levels are contiguous and depth-consistent.
        for depth, (lo, hi) in enumerate(csr.levels()):
            for node in range(lo, hi):
                if depth == 0:
                    assert int(csr.parent[node]) == -1
                else:
                    parent = int(csr.parent[node])
                    plo, phi = csr.levels()[depth - 1]
                    assert plo <= parent < phi
        # Distances are re-indexed to compact numbering.
        np.testing.assert_array_equal(
            csr.dist,
            d.values[np.ix_(csr.host_ids, csr.host_ids)],
        )

    def test_rejects_cycle(self):
        neighbors = {0: [1, 2], 1: [0, 2], 2: [0, 1]}
        d = random_distances(3, seed=0, quantize=False)
        with pytest.raises(KernelError, match="not a tree"):
            compile_tree(neighbors, d.values)

    def test_rejects_disconnected(self):
        neighbors = {0: [1], 1: [0], 2: [3], 3: [2]}
        d = random_distances(4, seed=0, quantize=False)
        with pytest.raises(KernelError, match="not a tree"):
            compile_tree(neighbors, d.values)

    def test_rejects_empty_and_bad_root(self):
        d = random_distances(2, seed=0, quantize=False)
        with pytest.raises(KernelError, match="empty"):
            compile_tree({}, d.values)
        with pytest.raises(KernelError, match="root"):
            compile_tree({0: [1], 1: [0]}, d.values, root=7)

    def test_root_choice_never_changes_tables(self):
        neighbors = random_overlay(18, seed=9)
        d = random_distances(18, seed=10, quantize=True)
        tables = []
        for root in (0, 5, 17):
            csr = compile_tree(neighbors, d.values, root=root)
            up, down = node_info_sweep(csr, 4)
            tables.append(tables_from_sweep(csr, up, down))
        assert tables[0] == tables[1] == tables[2]


class TestNodeInfoSweepDifferential:
    @pytest.mark.parametrize("n,seed,n_cut", [
        (2, 0, 2),
        (7, 1, 1),
        (20, 2, 3),
        (40, 3, 8),
        (60, 4, 5),
    ])
    def test_matches_reference_on_random_overlays(self, n, seed, n_cut):
        neighbors = random_overlay(n, seed)
        d = random_distances(n, seed + 100, quantize=True)
        expected = reference_node_info(neighbors, d, n_cut)
        csr = compile_tree(neighbors, d.values)
        up, down = node_info_sweep(csr, n_cut)
        assert tables_from_sweep(csr, up, down) == expected

    def test_matches_reference_on_tree_metric(self):
        d = random_tree_distance_matrix(30, seed=5)
        neighbors = random_overlay(30, seed=6)
        expected = reference_node_info(neighbors, d, 4)
        csr = compile_tree(neighbors, d.values)
        up, down = node_info_sweep(csr, 4)
        assert tables_from_sweep(csr, up, down) == expected

    def test_single_host_overlay(self):
        d = DistanceMatrix([[0.0]])
        csr = compile_tree({0: []}, d.values)
        up, down = node_info_sweep(csr, 3)
        assert tables_from_sweep(csr, up, down) == {0: {}}


class TestCrtKernelDifferential:
    CLASSES = [2.0, 5.0, 9.0, 14.0, 30.0]

    def _kernel_crt(self, neighbors, d, n_cut, classes):
        csr = compile_tree(neighbors, d.values)
        up, down = node_info_sweep(csr, n_cut)
        node_tables = tables_from_sweep(csr, up, down)
        spaces = clustering_spaces(csr, up, down)
        assert spaces == reference_spaces(csr, node_tables)
        pre = CrtPrecompute(d.values)
        own = pre.own_matrix(spaces, classes)
        up_crt, down_crt = crt_sweep(csr, own)
        return node_tables, crt_tables(csr, own, up_crt, down_crt, classes)

    @pytest.mark.parametrize("n,seed,n_cut", [
        (6, 0, 2),
        (15, 1, 3),
        (30, 2, 8),
        (40, 3, 4),
    ])
    def test_matches_reference(self, n, seed, n_cut):
        neighbors = random_overlay(n, seed)
        d = random_distances(n, seed + 50, quantize=True)
        node_tables, kernel = self._kernel_crt(
            neighbors, d, n_cut, self.CLASSES
        )
        assert node_tables == reference_node_info(neighbors, d, n_cut)
        expected = reference_crt(
            neighbors, node_tables, d, self.CLASSES
        )
        assert kernel == expected

    def test_space_table_matches_max_cluster_size(self):
        d = random_distances(24, seed=11, quantize=True)
        pre = CrtPrecompute(d.values)
        rng = np.random.default_rng(12)
        for _ in range(10):
            members = sorted(
                int(h) for h in
                rng.choice(24, size=int(rng.integers(1, 16)),
                           replace=False)
            )
            table = pre.table_for(tuple(members))
            local = d.restrict(members)
            for l in [0.0, 1.0, 3.5, 8.0, 15.0, 40.0]:
                assert table.max_size_for(l) == max_cluster_size(
                    local, l
                ), (members, l)

    def test_space_tables_deduplicated(self):
        d = random_distances(10, seed=1, quantize=False)
        pre = CrtPrecompute(d.values)
        first = pre.table_for((0, 2, 5))
        again = pre.table_for((0, 2, 5))
        assert first is again
        assert pre.distinct_spaces == 1

    def test_table_for_concurrent_builds_share_one_table(self):
        """Racing table_for callers all get one canonical table.

        The build runs *outside* the precompute's global lock (it is
        O(n^2) and used to serialize all executor threads); the
        double-checked insert must still guarantee a single shared
        object per space, and the table must answer correctly after
        the race.
        """
        d = random_distances(30, seed=5, quantize=False)
        pre = CrtPrecompute(d.values)
        space = tuple(range(30))
        workers = 8
        barrier = threading.Barrier(workers)
        tables: list = [None] * workers

        def worker(slot: int) -> None:
            barrier.wait()
            tables[slot] = pre.table_for(space)

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(table is tables[0] for table in tables)
        assert pre.distinct_spaces == 1
        assert tables[0].max_size_for(8.0) == max_cluster_size(
            d.restrict(list(space)), 8.0
        )

    def test_table_for_concurrent_distinct_spaces(self):
        """Distinct spaces built in parallel stay correctly keyed."""
        d = random_distances(20, seed=6, quantize=True)
        pre = CrtPrecompute(d.values)
        spaces = [tuple(range(first, 20)) for first in range(8)]
        barrier = threading.Barrier(len(spaces))
        results: dict[tuple[int, ...], int] = {}
        lock = threading.Lock()

        def worker(space: tuple[int, ...]) -> None:
            barrier.wait()
            size = pre.table_for(space).max_size_for(10.0)
            with lock:
                results[space] = size

        threads = [
            threading.Thread(target=worker, args=(space,))
            for space in spaces
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert pre.distinct_spaces == len(spaces)
        for space in spaces:
            assert results[space] == max_cluster_size(
                d.restrict(list(space)), 10.0
            )


class TestSpaceTableDiameterFallback:
    """The descending-size rescan when the prefix argmax spreads wide.

    ``max_size_for`` first tries the largest candidate set among
    eligible pairs; when that set's diameter exceeds ``l`` it must
    fall back to scanning eligible pairs by descending size — not
    give up, and not return the too-wide set's size.
    """

    @staticmethod
    def _wide_best_matrix() -> DistanceMatrix:
        # Four points: every pair at distance 4 except d(2, 3) = 9.
        # At l = 4 the scan's biggest candidate set is S*_{0,1} =
        # {0, 1, 2, 3} (size 4) — but its diameter is d(2, 3) = 9, so
        # it fails, and the true answer is the size-3 set {0, 1, 2}.
        values = np.full((4, 4), 4.0)
        values[2, 3] = values[3, 2] = 9.0
        np.fill_diagonal(values, 0.0)
        return DistanceMatrix(values)

    def test_fallback_finds_next_best_size(self):
        d = self._wide_best_matrix()
        table = CrtPrecompute(d.values).table_for((0, 1, 2, 3))
        assert table.max_size_for(4.0) == 3
        assert table.max_size_for(4.0) == max_cluster_size(d, 4.0)

    def test_fallback_caches_diameters(self):
        d = self._wide_best_matrix()
        table = CrtPrecompute(d.values).table_for((0, 1, 2, 3))
        assert table.max_size_for(4.0) == 3
        # Both the failed argmax pair and the accepted fallback pair
        # left their diameters cached; a repeat lookup must not
        # recompute (and must stay correct).
        cached_before = dict(table._diam_cache)
        assert len(cached_before) >= 2
        assert table.max_size_for(4.0) == 3
        assert table._diam_cache == cached_before

    def test_wider_constraint_accepts_full_set(self):
        d = self._wide_best_matrix()
        table = CrtPrecompute(d.values).table_for((0, 1, 2, 3))
        # At l = 9 the full set's diameter fits: no fallback needed.
        assert table.max_size_for(9.0) == 4
        assert table.max_size_for(9.0) == max_cluster_size(d, 9.0)

    @given(
        n=st.integers(min_value=2, max_value=12),
        seed=st.integers(0, 400),
        quantize=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_fallback_parity_property(self, n, seed, quantize):
        """Random non-tree metrics: table == max_cluster_size at all l.

        Quantized matrices produce heavy ties, which is where the
        biggest candidate set most often spreads wider than ``l`` and
        the fallback scan actually runs.
        """
        d = random_distances(n, seed + 5000, quantize=quantize)
        table = CrtPrecompute(d.values).table_for(tuple(range(n)))
        for l in [0.0, 2.0, 5.0, 9.0, 16.0, 40.0]:
            assert table.max_size_for(l) == max_cluster_size(d, l)


@given(
    n=st.integers(min_value=2, max_value=16),
    seed=st.integers(0, 500),
    n_cut=st.integers(min_value=1, max_value=6),
    quantize=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_kernel_fixed_point_property(n, seed, n_cut, quantize):
    """Whatever the overlay, metric, ties, and cutoff: exact equality."""
    neighbors = random_overlay(n, seed)
    d = random_distances(n, seed + 1000, quantize=quantize)
    classes = [1.0, 4.0, 10.0, 25.0]

    csr = compile_tree(neighbors, d.values)
    up, down = node_info_sweep(csr, n_cut)
    node_tables = tables_from_sweep(csr, up, down)
    assert node_tables == reference_node_info(neighbors, d, n_cut)

    spaces = clustering_spaces(csr, up, down)
    assert spaces == reference_spaces(csr, node_tables)
    pre = CrtPrecompute(d.values)
    own = pre.own_matrix(spaces, classes)
    up_crt, down_crt = crt_sweep(csr, own)
    kernel = crt_tables(csr, own, up_crt, down_crt, classes)
    assert kernel == reference_crt(neighbors, node_tables, d, classes)


@given(
    n=st.integers(min_value=3, max_value=14),
    seed=st.integers(0, 300),
    n_cut=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_kernel_matches_reference_on_tree_metrics(n, seed, n_cut):
    """Seeded random *exact tree metrics* (the paper's input class)."""
    d = random_tree_distance_matrix(n, seed=seed)
    neighbors = random_overlay(n, seed + 7)
    csr = compile_tree(neighbors, d.values)
    up, down = node_info_sweep(csr, n_cut)
    assert tables_from_sweep(csr, up, down) == reference_node_info(
        neighbors, d, n_cut
    )


class TestSubstrateKernelPath:
    """The substrate and everything layered on it vs. the paper protocol.

    The oracle is the standalone :class:`DecentralizedClusterSearch`:
    synchronous rounds of Algorithms 2 and 3 over the live framework,
    sharing no code with the sweeps, the CRT kernel or the snapshot
    derivation.
    """

    @pytest.fixture()
    def framework(self):
        dataset = hp_planetlab_like(seed=0, n=40)
        return build_framework(dataset.bandwidth, seed=1)

    @pytest.fixture()
    def oracle(self, framework, hp_classes):
        search = DecentralizedClusterSearch(framework, hp_classes, n_cut=5)
        assert search.run_aggregation().converged
        return search

    def test_substrate_snapshot_matches_round_protocol(
        self, framework, oracle
    ):
        substrate = AggregationSubstrate(framework, n_cut=5)
        substrate.ensure()
        assert substrate.snapshot() == oracle_snapshot(oracle)

    def test_snapshot_is_derived_once_per_generation(self, framework):
        substrate = AggregationSubstrate(framework, n_cut=5)
        first = substrate.snapshot()
        assert substrate.snapshot() is first
        assert substrate.adopt_view()[1] is first
        leaf = [
            host
            for host in framework.hosts
            if not framework.anchor_tree.children(host)
        ][-1]
        assert framework.remove_host(leaf) == []
        substrate.apply_leave(leaf)
        second = substrate.snapshot()
        assert second is not first
        # The published snapshot of the old generation is untouched.
        assert leaf in first
        assert leaf not in second

    def test_kernel_build_report_counts_sweeps(self, framework):
        substrate = AggregationSubstrate(framework, n_cut=5)
        report = substrate.build()
        hosts = len(framework.hosts)
        assert report.kind == "build"
        assert report.rounds == 2
        assert report.messages == 2 * (hosts - 1)
        assert report.touched_hosts == hosts

    def test_adopt_view_always_exposes_kernel(self, framework):
        substrate = AggregationSubstrate(framework, n_cut=5)
        distances, snapshot, view = substrate.adopt_view()
        assert distances is substrate.distances
        assert view.csr.size == len(framework.hosts)
        tables = {host: entry[1] for host, entry in snapshot.items()}
        assert view.spaces == reference_spaces(view.csr, tables)

    def test_compile_failure_propagates_typed(
        self, framework, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise KernelError("overlay is not a tree")

        monkeypatch.setattr(
            "repro.core.decentralized.compile_tree", refuse
        )
        substrate = AggregationSubstrate(framework, n_cut=5)
        with pytest.raises(KernelError, match="not a tree") as caught:
            substrate.adopt_view()
        assert caught.value.code == 120
        assert not substrate.built

    def test_substrate_backed_crt_and_answers_match_round_protocol(
        self, framework, hp_classes, oracle
    ):
        substrate = AggregationSubstrate(framework, n_cut=5)
        search = DecentralizedClusterSearch(
            framework, hp_classes, n_cut=5, substrate=substrate
        )
        report = search.run_aggregation()
        assert report.converged
        assert report.node_info_messages == 0
        for host in oracle.hosts:
            assert (
                search.state_of(host).aggr_crt
                == oracle.state_of(host).aggr_crt
            )
        for k in (2, 4, 9):
            for b in (20.0, 45.0, 70.0):
                for start in (0, 17, 39):
                    assert search.process_query(
                        k, b, start
                    ) == oracle.process_query(k, b, start)

    def test_substrate_backed_search_refuses_rounds(
        self, framework, hp_classes
    ):
        substrate = AggregationSubstrate(framework, n_cut=5)
        search = DecentralizedClusterSearch(
            framework, hp_classes, n_cut=5, substrate=substrate
        )
        with pytest.raises(QueryError, match="substrate-backed"):
            search.run_round()


class TestServiceKernelParity:
    def test_cold_batches_match_round_protocol(self, hp_classes):
        dataset = hp_planetlab_like(seed=2, n=40)
        framework = build_framework(dataset.bandwidth, seed=3)
        oracle = DecentralizedClusterSearch(framework, hp_classes, n_cut=5)
        oracle.run_aggregation()
        service = ClusterQueryService(framework, hp_classes, n_cut=5)
        executor = BatchExecutor(service, max_workers=4)
        queries = [
            ClusterQuery(k=k, b=b)
            for k in (2, 5)
            for b in hp_classes.bandwidths
        ]
        entry = framework.hosts[0]
        for query, result in zip(queries, executor.run(queries)):
            expected = oracle.process_query(query.k, query.b, entry)
            assert (result.cluster, result.hops) == (
                tuple(expected.cluster),
                expected.hops,
            ), query
