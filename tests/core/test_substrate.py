"""Tests for the shared aggregation substrate and incremental maintenance.

The substrate captures the class-independent half of the CRT (the
Algorithm 2 fixed point).  Soundness rests on two equivalences, both
checked here against cold-rebuild oracles:

* a per-class search layered over a shared substrate reaches exactly
  the fixed point a standalone search computes;
* churn maintenance (``apply_join`` / ``apply_leave``) leaves the
  substrate in exactly the state a cold rebuild over the changed
  overlay produces.
"""

import sys
import threading

import pytest

from repro.core.decentralized import (
    AggregationSubstrate,
    DecentralizedClusterSearch,
    MaintenanceReport,
)
from repro.core.query import BandwidthClasses
from repro.datasets.planetlab import hp_planetlab_like
from repro.exceptions import KernelError, QueryError, ValidationError
from repro.predtree.framework import build_framework

N_CUT = 5


@pytest.fixture()
def framework():
    dataset = hp_planetlab_like(seed=0, n=40)
    return build_framework(dataset.bandwidth, seed=1)


def anchor_leaf(framework):
    """A removable host: an anchor-tree leaf (departure displaces nobody)."""
    return [
        host
        for host in framework.hosts
        if not framework.anchor_tree.children(host)
    ][-1]


class TestSubstrateSharing:
    def test_layered_search_matches_standalone(
        self, small_framework, hp_classes
    ):
        standalone = DecentralizedClusterSearch(
            small_framework, hp_classes, n_cut=N_CUT
        )
        standalone.run_aggregation()

        substrate = AggregationSubstrate(small_framework, n_cut=N_CUT)
        substrate.ensure()
        layered = DecentralizedClusterSearch(
            small_framework, hp_classes, n_cut=N_CUT, substrate=substrate
        )
        report = layered.run_aggregation()

        assert report.converged
        # A substrate-backed pass spends zero Algorithm 2 messages.
        assert report.node_info_messages == 0
        for host in standalone.hosts:
            assert (
                standalone.state_of(host).aggr_node
                == layered.state_of(host).aggr_node
            )
            assert (
                standalone.state_of(host).aggr_crt
                == layered.state_of(host).aggr_crt
            )

    def test_one_substrate_serves_many_classes(
        self, small_framework, hp_classes
    ):
        substrate = AggregationSubstrate(small_framework, n_cut=N_CUT)
        build = substrate.ensure()
        assert build.kind == "build"
        for b in hp_classes.bandwidths:
            single = BandwidthClasses([b], transform=hp_classes.transform)
            search = DecentralizedClusterSearch(
                small_framework, single, n_cut=N_CUT, substrate=substrate
            )
            search.run_aggregation()
            oracle = DecentralizedClusterSearch(
                small_framework, single, n_cut=N_CUT
            )
            oracle.run_aggregation()
            for host in oracle.hosts:
                assert (
                    oracle.state_of(host).aggr_crt
                    == search.state_of(host).aggr_crt
                )
        # Still exactly one fixed-point build for all |L| classes.
        assert substrate.ensure().rounds == 0

    def test_ensure_is_idempotent(self, small_framework):
        substrate = AggregationSubstrate(small_framework, n_cut=N_CUT)
        first = substrate.ensure()
        second = substrate.ensure()
        assert first.kind == "build"
        assert second.kind == "noop"
        assert second.messages == 0

    def test_query_results_identical(self, small_framework, hp_classes):
        standalone = DecentralizedClusterSearch(
            small_framework, hp_classes, n_cut=N_CUT
        )
        standalone.run_aggregation()
        substrate = AggregationSubstrate(small_framework, n_cut=N_CUT)
        layered = DecentralizedClusterSearch(
            small_framework, hp_classes, n_cut=N_CUT, substrate=substrate
        )
        layered.run_aggregation()
        for start in small_framework.hosts[:5]:
            a = standalone.process_query(4, 30.0, start=start)
            b = layered.process_query(4, 30.0, start=start)
            assert a.cluster == b.cluster
            assert a.hops == b.hops
            assert a.visited == b.visited

    def test_rejects_foreign_framework(self, small_framework):
        other = build_framework(
            hp_planetlab_like(seed=3, n=20).bandwidth, seed=2
        )
        substrate = AggregationSubstrate(other, n_cut=N_CUT)
        with pytest.raises(ValidationError):
            DecentralizedClusterSearch(
                small_framework,
                BandwidthClasses([30.0]),
                n_cut=N_CUT,
                substrate=substrate,
            )

    def test_rejects_mismatched_n_cut(self, small_framework):
        substrate = AggregationSubstrate(small_framework, n_cut=N_CUT)
        with pytest.raises(ValidationError):
            DecentralizedClusterSearch(
                small_framework,
                BandwidthClasses([30.0]),
                n_cut=N_CUT + 1,
                substrate=substrate,
            )

    def test_substrate_mutation_cannot_leak_into_search(
        self, framework, hp_classes
    ):
        substrate = AggregationSubstrate(framework, n_cut=N_CUT)
        search = DecentralizedClusterSearch(
            framework, hp_classes, n_cut=N_CUT, substrate=substrate
        )
        search.run_aggregation()
        before = {
            host: dict(search.state_of(host).aggr_node)
            for host in search.hosts
        }
        victim = anchor_leaf(framework)
        assert framework.remove_host(victim) == []
        substrate.apply_leave(victim)
        # The adopted snapshot is isolated from substrate maintenance.
        for host, tables in before.items():
            assert search.state_of(host).aggr_node == tables


class TestIncrementalMaintenance:
    def test_leave_matches_cold_rebuild(self, framework):
        substrate = AggregationSubstrate(framework, n_cut=N_CUT)
        substrate.ensure()
        victim = anchor_leaf(framework)
        assert framework.remove_host(victim) == []
        report = substrate.apply_leave(victim)
        assert report.kind == "patch"

        cold = AggregationSubstrate(framework, n_cut=N_CUT)
        cold.ensure()
        assert substrate.snapshot() == cold.snapshot()

    def test_join_matches_cold_rebuild(self, framework):
        victim = anchor_leaf(framework)
        assert framework.remove_host(victim) == []
        substrate = AggregationSubstrate(framework, n_cut=N_CUT)
        substrate.ensure()

        framework.add_host(victim)
        report = substrate.apply_join(victim)
        assert report.kind == "patch"

        cold = AggregationSubstrate(framework, n_cut=N_CUT)
        cold.ensure()
        assert substrate.snapshot() == cold.snapshot()

    def test_incremental_is_cheaper_than_rebuild(self, framework):
        substrate = AggregationSubstrate(framework, n_cut=N_CUT)
        build = substrate.ensure()
        victim = anchor_leaf(framework)
        framework.remove_host(victim)
        leave = substrate.apply_leave(victim)
        framework.add_host(victim)
        join = substrate.apply_join(victim)
        assert leave.messages < build.messages
        assert join.messages < build.messages
        assert leave.touched_hosts < build.touched_hosts
        assert join.touched_hosts < build.touched_hosts

    def test_sustained_churn_stays_equivalent(self, framework):
        substrate = AggregationSubstrate(framework, n_cut=N_CUT)
        substrate.ensure()
        for _ in range(3):
            victim = anchor_leaf(framework)
            assert framework.remove_host(victim) == []
            substrate.apply_leave(victim)
            framework.add_host(victim)
            substrate.apply_join(victim)
        cold = AggregationSubstrate(framework, n_cut=N_CUT)
        cold.ensure()
        assert substrate.snapshot() == cold.snapshot()

    def test_generation_tracks_framework(self, framework):
        substrate = AggregationSubstrate(framework, n_cut=N_CUT)
        substrate.ensure()
        assert substrate.generation == framework.generation
        victim = anchor_leaf(framework)
        framework.remove_host(victim)
        substrate.apply_leave(victim)
        assert substrate.generation == framework.generation

    def test_apply_leave_requires_departed_host(self, framework):
        substrate = AggregationSubstrate(framework, n_cut=N_CUT)
        substrate.ensure()
        with pytest.raises(QueryError):
            substrate.apply_leave(framework.hosts[-1])

    def test_concurrent_adoption_under_churn_sees_whole_generations(
        self, framework
    ):
        # Adopters share one derived snapshot per generation while a
        # maintenance thread patches the arrays underneath: every
        # adoption must pair a snapshot, view and distance matrix of
        # the same overlay, never a torn mixture.
        substrate = AggregationSubstrate(framework, n_cut=N_CUT)
        substrate.ensure()
        victim = anchor_leaf(framework)
        stop = threading.Event()
        torn: list[str] = []
        adoptions = [0]

        def adopt() -> None:
            while not stop.is_set():
                distances, snapshot, view = substrate.adopt_view()
                hosts = {int(h) for h in view.csr.host_ids}
                if set(snapshot) != hosts:
                    torn.append("snapshot/view host sets differ")
                if any(
                    set(tables) != set(neighbors)
                    for neighbors, tables in snapshot.values()
                ):
                    torn.append("tables do not match neighbor lists")
                if max(hosts) >= distances.values.shape[0]:
                    torn.append("view outgrew its distance matrix")
                adoptions[0] += 1

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        workers = [threading.Thread(target=adopt) for _ in range(6)]
        try:
            for worker in workers:
                worker.start()
            for _ in range(4):
                assert framework.remove_host(victim) == []
                substrate.apply_leave(victim)
                framework.add_host(victim)
                substrate.apply_join(victim)
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=30.0)
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        assert adoptions[0] > 0
        assert torn == []
        cold = AggregationSubstrate(framework, n_cut=N_CUT)
        assert substrate.snapshot() == cold.snapshot()

    def test_apply_join_rejects_known_host(self, framework):
        substrate = AggregationSubstrate(framework, n_cut=N_CUT)
        substrate.ensure()
        with pytest.raises(QueryError):
            substrate.apply_join(framework.hosts[0])


class TestMembershipChangeRecords:
    def test_join_records_anchor(self, framework):
        victim = anchor_leaf(framework)
        framework.remove_host(victim)
        framework.add_host(victim)
        change = framework.last_change
        assert change is not None
        assert change.kind == "join"
        assert change.host == victim
        assert change.anchor == framework.anchor_tree.parent(victim)
        assert change.rejoined == ()
        assert change.generation == framework.generation

    def test_leaf_leave_records_no_rejoins(self, framework):
        victim = anchor_leaf(framework)
        former_parent = framework.anchor_tree.parent(victim)
        framework.remove_host(victim)
        change = framework.last_change
        assert change.kind == "leave"
        assert change.host == victim
        assert change.anchor == former_parent
        assert change.rejoined == ()

    def test_subtree_leave_is_one_composite_record(self, framework):
        victim = next(
            host
            for host in framework.hosts
            if framework.anchor_tree.children(host)
            and host != framework.anchor_tree.root
        )
        rejoined = framework.remove_host(victim)
        assert rejoined
        change = framework.last_change
        assert change.kind == "leave"
        assert change.host == victim
        assert change.rejoined == tuple(rejoined)
        assert change.generation == framework.generation


class TestMaintenanceLadder:
    """The two-rung patch -> rebuild ladder and its bookkeeping."""

    def test_report_fallbacks_defaults_to_zero(self):
        report = MaintenanceReport(
            kind="build", rounds=3, messages=120, touched_hosts=40
        )
        assert report.fallbacks == 0
        assert (report.kind, report.rounds, report.messages) == (
            "build", 3, 120
        )

    def test_patch_report_shape(self, framework):
        substrate = AggregationSubstrate(framework, n_cut=N_CUT)
        substrate.ensure()
        victim = anchor_leaf(framework)
        assert framework.remove_host(victim) == []
        report = substrate.apply_leave(victim)
        assert report.kind == "patch"
        assert report.fallbacks == 0
        # The masked re-sweep is closed-form: no propagation rounds,
        # messages = recomputed rows, touched = dirty-host blast radius.
        assert report.rounds == 0
        assert report.messages > 0
        assert 0 < report.touched_hosts <= len(framework.hosts)
        event = substrate.take_churn_event()
        assert event is not None
        assert event.kind == "leave"
        assert event.host == victim
        assert event.removed == victim
        assert victim in event.dirty_hosts
        assert event.generation == framework.generation
        # Consuming is destructive: a stale event can't be re-applied.
        assert substrate.take_churn_event() is None

    def test_kernel_refusal_falls_back_to_rebuild(
        self, framework, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise KernelError("forced refusal")

        monkeypatch.setattr(
            "repro.core.decentralized.splice_leave", refuse
        )
        monkeypatch.setattr(
            "repro.core.decentralized.splice_join", refuse
        )
        substrate = AggregationSubstrate(framework, n_cut=N_CUT)
        substrate.ensure()
        victim = anchor_leaf(framework)
        assert framework.remove_host(victim) == []
        leave = substrate.apply_leave(victim)
        assert leave.kind == "rebuild"
        assert leave.fallbacks == 1
        assert substrate.take_churn_event() is None
        framework.add_host(victim)
        join = substrate.apply_join(victim)
        assert join.kind == "rebuild"
        assert join.fallbacks == 1
        assert substrate.generation == framework.generation
        # The rebuild rung leaves a correct fixed point behind.
        cold = AggregationSubstrate(framework, n_cut=N_CUT)
        cold.ensure()
        assert substrate.snapshot() == cold.snapshot()
