"""Differential tests for the kernel churn layer.

The churn kernels' whole contract is that a patched compiled stack is
*bit-identical* to recompiling from scratch: a CSR splice plus masked
re-sweep must reproduce exactly the arrays a fresh
:func:`~repro.kernels.tree.compile_tree` +
:func:`~repro.kernels.aggr.node_info_sweep` would, on every overlay —
including quantized-distance ties, where a re-sweep that recomputes
one row too few silently diverges.  Oracles are the full-recompile
pipeline, never the patch code itself, so patch bugs cannot hide
behind a shared implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decentralized import (
    AggregationSubstrate,
    DecentralizedClusterSearch,
)
from repro.core.query import BandwidthClasses
from repro.datasets.planetlab import hp_planetlab_like
from repro.exceptions import TreePatchFallback
from repro.kernels.aggr import (
    clustering_spaces,
    node_info_sweep,
    tables_from_sweep,
)
from repro.kernels.churn import resweep, splice_join, splice_leave
from repro.kernels.tree import compile_tree
from repro.predtree.framework import build_framework

from tests.core.test_kernels import (
    oracle_snapshot,
    random_distances,
    random_overlay,
    reference_spaces,
)

N_CUTS = (2, 5)


def leaf_indices(csr) -> list[int]:
    """Compact indices of non-root leaves of the compiled tree."""
    return [
        index
        for index in range(1, csr.size)
        if csr.child_start[index] == csr.child_end[index]
    ]


def drop_leaf(neighbors: dict[int, list[int]], host: int) -> dict:
    """The adjacency without leaf *host*."""
    reduced = {
        other: [n for n in adjacent if n != host]
        for other, adjacent in neighbors.items()
        if other != host
    }
    return reduced


def full_stack(neighbors, distances, n_cut, root=None):
    """Fresh compile + full sweep: the recompile oracle."""
    csr = compile_tree(neighbors, distances.values, root=root)
    up, down = node_info_sweep(csr, n_cut)
    return csr, up, down


def assert_same_fixed_point(result, neighbors, distances, n_cut):
    """The patched arrays must match a fresh recompile bit-for-bit.

    The fresh CSR is rooted at the patched CSR's root so the compact
    numberings are comparable; tables and spaces are host-keyed, so
    they are compared directly, while the raw arrays are compared
    through each CSR's own numbering.
    """
    root = int(result.csr.host_ids[0])
    fresh_csr, fresh_up, fresh_down = full_stack(
        neighbors, distances, n_cut, root=root
    )
    patched_tables = tables_from_sweep(result.csr, result.up, result.down)
    fresh_tables = tables_from_sweep(fresh_csr, fresh_up, fresh_down)
    assert patched_tables == fresh_tables
    spaces_by_host = {
        int(result.csr.host_ids[i]): space
        for i, space in enumerate(result.spaces)
    }
    fresh_spaces = reference_spaces(fresh_csr, fresh_tables)
    assert spaces_by_host == {
        int(fresh_csr.host_ids[i]): space
        for i, space in enumerate(fresh_spaces)
    }


class TestCsrPatch:
    @pytest.mark.parametrize("seed", range(4))
    def test_patch_join_structural_invariants(self, seed):
        n = 16
        neighbors = random_overlay(n, seed)
        distances = random_distances(n, seed, quantize=True)
        csr = compile_tree(neighbors, distances.values)
        victim = int(csr.host_ids[leaf_indices(csr)[-1]])
        base = compile_tree(drop_leaf(neighbors, victim), distances.values)

        anchor = neighbors[victim][0]
        patched, position = base.patch_join(
            victim, anchor, distances.values
        )
        assert patched.size == base.size + 1
        assert int(patched.host_ids[position]) == victim
        # BFS-compact invariants the sweeps rely on.
        assert int(patched.parent[0]) == -1
        for index in range(1, patched.size):
            assert 0 <= int(patched.parent[index]) < index
        assert int(patched.level_offsets[-1]) == patched.size
        # Child blocks stay consistent with the parent array.
        for index in range(patched.size):
            children = [
                c
                for c in range(patched.size)
                if int(patched.parent[c]) == index
            ]
            assert children == list(
                range(
                    int(patched.child_start[index]),
                    int(patched.child_end[index]),
                )
            )
        # The distance matrix is re-gathered for the new numbering.
        gathered = distances.values[
            np.ix_(patched.host_ids, patched.host_ids)
        ]
        assert np.array_equal(patched.dist, gathered)

    @pytest.mark.parametrize("seed", range(4))
    def test_patch_leaf_leave_structural_invariants(self, seed):
        n = 16
        neighbors = random_overlay(n, seed)
        distances = random_distances(n, seed, quantize=False)
        csr = compile_tree(neighbors, distances.values)
        position = leaf_indices(csr)[0]
        victim = int(csr.host_ids[position])

        patched, removed_at = csr.patch_leaf_leave(victim)
        assert removed_at == position
        assert patched.size == csr.size - 1
        assert victim not in set(int(h) for h in patched.host_ids)
        for index in range(1, patched.size):
            assert 0 <= int(patched.parent[index]) < index
        assert int(patched.level_offsets[-1]) == patched.size
        gathered = distances.values[
            np.ix_(patched.host_ids, patched.host_ids)
        ]
        assert np.array_equal(patched.dist, gathered)

    def test_leave_of_interior_host_falls_back(self):
        neighbors = random_overlay(10, 3)
        distances = random_distances(10, 3, quantize=False)
        csr = compile_tree(neighbors, distances.values)
        interior = next(
            index
            for index in range(csr.size)
            if csr.child_start[index] < csr.child_end[index]
        )
        with pytest.raises(TreePatchFallback):
            csr.patch_leaf_leave(int(csr.host_ids[interior]))

    def test_leave_of_root_falls_back(self):
        neighbors = {0: [1], 1: [0]}
        distances = random_distances(2, 0, quantize=False)
        csr = compile_tree(neighbors, distances.values)
        with pytest.raises(TreePatchFallback):
            csr.patch_leaf_leave(int(csr.host_ids[0]))

    def test_leave_of_unknown_host_falls_back(self):
        neighbors = random_overlay(6, 1)
        distances = random_distances(8, 1, quantize=False)
        csr = compile_tree(neighbors, distances.values)
        with pytest.raises(TreePatchFallback):
            csr.patch_leaf_leave(7)


class TestResweepDifferential:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_cut", N_CUTS)
    def test_join_resweep_matches_full_sweep(self, seed, n_cut):
        n = 18
        neighbors = random_overlay(n, seed)
        distances = random_distances(n, seed, quantize=seed % 2 == 0)
        full_csr = compile_tree(neighbors, distances.values)
        for position in leaf_indices(full_csr)[:3]:
            victim = int(full_csr.host_ids[position])
            base_csr, base_up, base_down = full_stack(
                drop_leaf(neighbors, victim), distances, n_cut
            )
            patch = splice_join(
                base_csr,
                base_up.copy(),
                base_down.copy(),
                victim,
                neighbors[victim][0],
                distances.values,
            )
            result = resweep(
                patch,
                clustering_spaces(base_csr, base_up, base_down),
                n_cut,
            )
            # Bit-identity against a full sweep of the patched CSR.
            fresh_up, fresh_down = node_info_sweep(result.csr, n_cut)
            assert np.array_equal(result.up, fresh_up)
            assert np.array_equal(result.down, fresh_down)
            assert_same_fixed_point(result, neighbors, distances, n_cut)
            assert victim in result.dirty_hosts

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_cut", N_CUTS)
    def test_leave_resweep_matches_full_sweep(self, seed, n_cut):
        n = 18
        neighbors = random_overlay(n, seed)
        distances = random_distances(n, seed, quantize=seed % 2 == 1)
        csr, up, down = full_stack(neighbors, distances, n_cut)
        spaces = clustering_spaces(csr, up, down)
        for position in leaf_indices(csr)[:3]:
            victim = int(csr.host_ids[position])
            patch = splice_leave(csr, up.copy(), down.copy(), victim)
            result = resweep(patch, list(spaces), n_cut)
            fresh_up, fresh_down = node_info_sweep(result.csr, n_cut)
            assert np.array_equal(result.up, fresh_up)
            assert np.array_equal(result.down, fresh_down)
            assert_same_fixed_point(
                result, drop_leaf(neighbors, victim), distances, n_cut
            )
            assert victim in result.dirty_hosts

    @pytest.mark.parametrize("n_cut", N_CUTS)
    def test_sustained_patch_chain_stays_identical(self, n_cut):
        # Leave + rejoin chains reuse each event's output arrays as the
        # next event's input — drift would compound, so five rounds on
        # a tie-heavy matrix must still land exactly on the recompile.
        n = 20
        neighbors = random_overlay(n, 11)
        distances = random_distances(n, 11, quantize=True)
        csr, up, down = full_stack(neighbors, distances, n_cut)
        spaces = clustering_spaces(csr, up, down)
        current = dict(neighbors)
        for round_index in range(5):
            position = leaf_indices(csr)[round_index % 2]
            victim = int(csr.host_ids[position])
            patch = splice_leave(csr, up, down, victim)
            result = resweep(patch, spaces, n_cut)
            current = drop_leaf(current, victim)
            assert_same_fixed_point(result, current, distances, n_cut)

            anchor = neighbors[victim][0]
            patch = splice_join(
                result.csr,
                result.up,
                result.down,
                victim,
                anchor,
                distances.values,
            )
            result = resweep(patch, result.spaces, n_cut)
            current = dict(current)
            current[victim] = [anchor]
            current[anchor] = current[anchor] + [victim]
            assert_same_fixed_point(result, current, distances, n_cut)
            csr, up, down = result.csr, result.up, result.down
            spaces = result.spaces


class TestHypothesisParity:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16 - 1),
        n_cut=st.sampled_from(N_CUTS),
        events=st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=5),
    )
    def test_random_event_sequences_match_recompile(
        self, seed, n_cut, events
    ):
        """Random leave/join walks: patched arrays == recompiled arrays.

        Each drawn event removes a random compiled leaf or re-adds a
        random departed host at its original attachment point, always
        through the splice + masked re-sweep; after every single event
        the entire fixed point is checked against a from-scratch
        recompile.
        """
        n = 14
        neighbors = random_overlay(n, seed)
        distances = random_distances(n, seed, quantize=True)
        csr, up, down = full_stack(neighbors, distances, n_cut)
        spaces = clustering_spaces(csr, up, down)
        current = {h: list(a) for h, a in neighbors.items()}
        departed: list[int] = []
        for event_seed in events:
            rng = np.random.default_rng(event_seed)
            if departed and (rng.random() < 0.5 or csr.size <= 3):
                victim = departed.pop(int(rng.integers(len(departed))))
                anchor = neighbors[victim][0]
                if anchor not in current:
                    # Its original anchor departed too; put it back
                    # later, once the anchor has rejoined.
                    departed.append(victim)
                    continue
                patch = splice_join(
                    csr, up, down, victim, anchor, distances.values
                )
                current[victim] = [anchor]
                current[anchor].append(victim)
            else:
                leaves = leaf_indices(csr)
                position = leaves[int(rng.integers(len(leaves)))]
                victim = int(csr.host_ids[position])
                patch = splice_leave(csr, up, down, victim)
                current = {
                    h: [x for x in a if x != victim]
                    for h, a in current.items()
                    if h != victim
                }
                departed.append(victim)
            result = resweep(patch, spaces, n_cut)
            assert_same_fixed_point(result, current, distances, n_cut)
            csr, up, down = result.csr, result.up, result.down
            spaces = result.spaces


class TestSubstrateParity:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16 - 1))
    def test_kernel_patched_substrate_matches_full_rebuild(self, seed):
        """Random churn through the substrate: patch == cold rebuild.

        Drives a random leaf leave/rejoin sequence through
        ``apply_leave``/``apply_join`` and, after every event, checks
        the full fixed point against a substrate built cold from the
        same framework — the end-to-end version of the array-level
        differential above — and against the standalone round
        protocol: its node tables, and the CRT tables and answers of a
        search layered over the patched substrate.
        """
        rng = np.random.default_rng(seed)
        dataset = hp_planetlab_like(seed=0, n=24)
        framework = build_framework(dataset.bandwidth, seed=1)
        classes = BandwidthClasses.linear(20.0, 60.0, 3)
        substrate = AggregationSubstrate(framework, n_cut=4)
        substrate.ensure()
        removed: list[int] = []
        for _ in range(4):
            if removed and rng.random() < 0.5:
                host = removed.pop(int(rng.integers(len(removed))))
                framework.add_host(host)
                substrate.apply_join(host)
            else:
                leaves = [
                    h
                    for h in framework.hosts
                    if not framework.anchor_tree.children(h)
                ]
                host = int(leaves[int(rng.integers(len(leaves)))])
                if framework.remove_host(host):
                    # Restructuring departure: outside the incremental
                    # contract, the service rebuilds instead.
                    framework.add_host(host)
                    continue
                substrate.apply_leave(host)
                removed.append(host)
            cold = AggregationSubstrate(framework, n_cut=4)
            cold.ensure()
            assert substrate.snapshot() == cold.snapshot()
            self._assert_matches_round_protocol(
                framework, classes, substrate
            )

    @staticmethod
    def _assert_matches_round_protocol(framework, classes, substrate):
        oracle = DecentralizedClusterSearch(framework, classes, n_cut=4)
        assert oracle.run_aggregation().converged
        assert substrate.snapshot() == oracle_snapshot(oracle)
        layered = DecentralizedClusterSearch(
            framework, classes, n_cut=4, substrate=substrate
        )
        layered.run_aggregation()
        hosts = framework.hosts
        for host in hosts:
            assert (
                layered.state_of(host).aggr_crt
                == oracle.state_of(host).aggr_crt
            )
        for k in (2, 4, 7):
            for b in classes.bandwidths:
                for start in (hosts[0], hosts[-1]):
                    assert layered.process_query(
                        k, b, start
                    ) == oracle.process_query(k, b, start)
