"""Differential tests for :mod:`repro.kernels.answers`.

The answer tables claim bit-identical parity with the reference
protocol: :class:`SpaceAnswers` against ``find_cluster`` /
``max_cluster_size`` on the same restricted matrices, and
:class:`AnswerTable` against a literal transcription of the Algorithm 4
walk reading the *pure-Python* reference CRT fixed point (not the
kernel one, so the test does not share a bug with the code under
test).  Hypothesis sweeps random overlays, metrics, tie patterns, and
both pair-scan orders.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.find_cluster import find_cluster, max_cluster_size
from repro.exceptions import KernelError
from repro.kernels.answers import SpaceAnswers, build_answer_table
from repro.kernels.crt import CrtPrecompute
from repro.kernels.tree import compile_tree
from repro.metrics.metric import submatrix

from tests.core.test_kernels import (
    random_distances,
    random_overlay,
    reference_crt,
    reference_node_info,
    reference_spaces,
)

LS = [0.0, 1.0, 3.5, 8.0, 15.0, 40.0]


class TestSpaceAnswers:
    @pytest.mark.parametrize("pair_order", ["nearest", "index"])
    @pytest.mark.parametrize("quantize", [False, True])
    def test_matches_find_cluster(self, pair_order, quantize):
        d = random_distances(20, seed=3, quantize=quantize)
        rng = np.random.default_rng(4)
        for _ in range(8):
            members = sorted(
                int(h)
                for h in rng.choice(
                    20, size=int(rng.integers(2, 14)), replace=False
                )
            )
            local = d.restrict(members)
            sub = submatrix(d.values, tuple(members))
            for l in LS:
                answers = SpaceAnswers(
                    tuple(members), sub, l, pair_order
                )
                assert answers.max_size == max_cluster_size(local, l), (
                    members,
                    l,
                )
                for k in range(2, answers.max_size + 3):
                    found = find_cluster(
                        local, k, l, pair_order=pair_order
                    )
                    got = answers.cluster(k)
                    if found:
                        assert got is not None
                        assert [int(h) for h in got] == sorted(
                            members[i] for i in found
                        ), (members, l, k)
                    else:
                        assert got is None, (members, l, k)

    def test_record_sizes_strictly_increase(self):
        d = random_distances(16, seed=9, quantize=True)
        sub = submatrix(d.values, tuple(range(16)))
        answers = SpaceAnswers(
            tuple(range(16)), sub, 12.0, "nearest"
        )
        sizes = answers._record_sizes
        assert (np.diff(sizes) > 0).all()
        assert answers.max_size == (
            int(sizes[-1]) if sizes.size else 1
        )

    def test_degenerate_spaces(self):
        d = random_distances(5, seed=1, quantize=False)
        for members in [(), (2,)]:
            sub = submatrix(d.values, members)
            answers = SpaceAnswers(members, sub, 10.0, "nearest")
            assert answers.max_size == len(members)
            assert answers.cluster(2) is None

    def test_unknown_pair_order_raises(self):
        d = random_distances(4, seed=1, quantize=False)
        sub = submatrix(d.values, (0, 1, 2, 3))
        with pytest.raises(KernelError):
            SpaceAnswers((0, 1, 2, 3), sub, 5.0, "sideways")


@given(
    n=st.integers(min_value=2, max_value=14),
    seed=st.integers(0, 300),
    quantize=st.booleans(),
    pair_order=st.sampled_from(["nearest", "index"]),
)
@settings(max_examples=40, deadline=None)
def test_space_answers_property(n, seed, quantize, pair_order):
    """Any metric, any ties, either scan order: member-identical."""
    d = random_distances(n, seed + 2000, quantize=quantize)
    members = tuple(range(n))
    local = d.restrict(list(members))
    sub = submatrix(d.values, members)
    for l in [1.0, 4.0, 10.0, 25.0]:
        answers = SpaceAnswers(members, sub, l, pair_order)
        assert answers.max_size == max_cluster_size(local, l)
        for k in range(2, answers.max_size + 2):
            found = find_cluster(local, k, l, pair_order=pair_order)
            got = answers.cluster(k)
            if found:
                assert got is not None
                assert [int(h) for h in got] == sorted(
                    members[i] for i in found
                )
            else:
                assert got is None


def reference_walk(neighbors, crt, spaces_by_host, d, k, l, entry, pair_order):
    """Algorithm 4 (strict=False) transcribed from the paper/reference.

    Reads the pure-Python CRT dicts and runs ``find_cluster`` at the
    answering node — the exact per-query semantics of
    ``DecentralizedClusterSearch.process_query``.
    """
    current = entry
    previous = None
    hops = 0
    while True:
        if k <= crt[current][current].get(l, 0):
            space = spaces_by_host[current]
            local = d.restrict(list(space))
            found = find_cluster(local, k, l, pair_order=pair_order)
            if found:
                return (
                    tuple(sorted(space[i] for i in found)),
                    hops,
                )
        next_host = None
        for neighbor in neighbors[current]:
            if neighbor == previous:
                continue
            if k <= crt[current].get(neighbor, {}).get(l, 0):
                next_host = neighbor
                break
        if next_host is None:
            return (), hops
        previous = current
        current = next_host
        hops += 1


def _table_and_reference(neighbors, d, n_cut, l, pair_order):
    csr = compile_tree(neighbors, d.values)
    node_tables = reference_node_info(neighbors, d, n_cut)
    spaces = reference_spaces(csr, node_tables)
    pre = CrtPrecompute(d.values)
    table = build_answer_table(
        csr, spaces, pre, neighbors, d.values, l, pair_order=pair_order
    )
    crt = reference_crt(neighbors, node_tables, d, [l])
    spaces_by_host = {
        int(csr.host_ids[i]): spaces[i] for i in range(csr.size)
    }
    return table, crt, spaces_by_host


class TestAnswerTable:
    @pytest.mark.parametrize("pair_order", ["nearest", "index"])
    @pytest.mark.parametrize(
        "n,seed,n_cut,l",
        [
            (6, 0, 2, 5.0),
            (15, 1, 3, 9.0),
            (24, 2, 6, 14.0),
            (24, 2, 6, 2.0),
        ],
    )
    def test_matches_reference_walk(self, n, seed, n_cut, l, pair_order):
        neighbors = random_overlay(n, seed)
        d = random_distances(n, seed + 50, quantize=True)
        table, crt, spaces_by_host = _table_and_reference(
            neighbors, d, n_cut, l, pair_order
        )
        ks = list(range(2, n + 3))
        for entry in {0, n // 2, n - 1}:
            got = table.answer_many(ks, entry)
            for k, (cluster, hops) in zip(ks, got):
                expected = reference_walk(
                    neighbors,
                    crt,
                    spaces_by_host,
                    d,
                    k,
                    l,
                    entry,
                    pair_order,
                )
                assert (cluster, hops) == expected, (k, entry)

    def test_answers_memoized_across_calls(self):
        neighbors = random_overlay(12, seed=4)
        d = random_distances(12, seed=40, quantize=False)
        table, crt, spaces_by_host = _table_and_reference(
            neighbors, d, 3, 9.0, "nearest"
        )
        first = table.answer_many([2, 4, 6], 0)
        again = table.answer_many([2, 4, 6], 0)
        assert first == again
        # Mixed, unsorted, and duplicated ks are allowed: results stay
        # aligned with the input order.
        mixed = table.answer_many([6, 2, 6], 0)
        assert mixed == [first[2], first[0], first[2]]

    def test_unknown_entry_raises(self):
        neighbors = random_overlay(6, seed=0)
        d = random_distances(6, seed=50, quantize=True)
        table, _, _ = _table_and_reference(
            neighbors, d, 2, 5.0, "nearest"
        )
        assert not table.covers(99)
        with pytest.raises(KernelError):
            table.answer_many([2], 99)

    def test_neighbor_map_must_cover_overlay(self):
        neighbors = random_overlay(6, seed=0)
        d = random_distances(6, seed=50, quantize=True)
        csr = compile_tree(neighbors, d.values)
        node_tables = reference_node_info(neighbors, d, 2)
        spaces = reference_spaces(csr, node_tables)
        pre = CrtPrecompute(d.values)
        partial = {
            host: list(adjacent)
            for host, adjacent in neighbors.items()
            if host != 3
        }
        with pytest.raises(KernelError):
            build_answer_table(
                csr, spaces, pre, partial, d.values, 5.0
            )

    def test_beyond_largest_breakpoint_fails_at_entry(self):
        neighbors = random_overlay(10, seed=2)
        d = random_distances(10, seed=60, quantize=True)
        table, _, _ = _table_and_reference(
            neighbors, d, 3, 9.0, "nearest"
        )
        too_big = int(table.breakpoints[-1]) + 1 if (
            table.breakpoints.size
        ) else 2
        [(cluster, hops)] = table.answer_many([too_big], 0)
        assert cluster == ()
        assert hops == 0


@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(0, 200),
    n_cut=st.integers(min_value=1, max_value=5),
    quantize=st.booleans(),
    pair_order=st.sampled_from(["nearest", "index"]),
)
@settings(max_examples=25, deadline=None)
def test_answer_table_property(n, seed, n_cut, quantize, pair_order):
    """Any overlay/metric/cutoff: gather == reference walk, all k."""
    neighbors = random_overlay(n, seed)
    d = random_distances(n, seed + 3000, quantize=quantize)
    l = float([4.0, 10.0, 25.0][seed % 3])
    table, crt, spaces_by_host = _table_and_reference(
        neighbors, d, n_cut, l, pair_order
    )
    ks = list(range(2, n + 3))
    for entry in {0, n - 1}:
        got = table.answer_many(ks, entry)
        for k, (cluster, hops) in zip(ks, got):
            assert (cluster, hops) == reference_walk(
                neighbors, crt, spaces_by_host, d, k, l, entry, pair_order
            )
