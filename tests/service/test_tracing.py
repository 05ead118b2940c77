"""End-to-end tracing through the service, executor, and substrate.

The headline invariant: a traced ``submit_batch`` over three or more
distinct classes yields ONE span tree in which exactly one
``substrate.build`` appears, shared by every per-class group — the
whole point of the shared-substrate design, now visible per query.
"""

import pytest

from repro.core.query import BandwidthClasses, ClusterQuery
from repro.obs import NOOP_TRACER, Tracer, TraceStore
from repro.predtree.framework import build_framework
from repro.service import ClusterQueryService
from repro.sim.protocols import build_cluster_simulation
from repro.sim.query_protocol import attach_query_protocol
from repro.core.decentralized import DecentralizedClusterSearch


@pytest.fixture()
def traced_service(dataset):
    framework = build_framework(dataset.bandwidth, seed=1)
    classes = BandwidthClasses.linear(15.0, 75.0, 5)
    tracer = Tracer(store=TraceStore(slow_threshold_s=0.0))
    service = ClusterQueryService(
        framework, classes, n_cut=5, tracer=tracer
    )
    return service, tracer


BATCH = [
    ClusterQuery(3, b) for b in (15.0, 30.0, 60.0, 15.0, 75.0, 30.0)
]


class TestTracedBatch:
    @pytest.mark.parametrize("max_workers", [None, 4])
    def test_one_substrate_build_shared_by_all_groups(
        self, traced_service, max_workers
    ):
        service, tracer = traced_service
        results = service.submit_batch(BATCH, max_workers=max_workers)
        assert len(results) == len(BATCH)
        batch_traces = [
            t
            for t in tracer.store.traces()
            if t.root.name == "service.submit_batch"
        ]
        assert len(batch_traces) == 1
        root = batch_traces[0].root
        groups = root.spans_named("batch.group")
        assert len(groups) >= 3  # >= 3 distinct classes in the batch
        builds = root.spans_named("substrate.build")
        assert len(builds) == 1  # built once, shared by every group
        # Every submit span landed under some group span — no strays.
        submits = root.spans_named("service.submit")
        assert len(submits) == len(BATCH)
        grouped = [
            s for g in groups for s in g.spans_named("service.submit")
        ]
        assert len(grouped) == len(BATCH)
        # Span attributes carry the operational story.
        assert root.attributes["classes"] == len(groups)
        assert {g.attributes["snapped_b"] for g in groups} == {
            15.0, 30.0, 60.0, 75.0,
        }
        build = builds[0]
        assert build.attributes["rounds"] >= 1
        assert build.attributes["messages"] > 0

    def test_cache_outcomes_and_crt_passes_in_tree(self, traced_service):
        service, tracer = traced_service
        service.submit_batch(BATCH)
        (trace,) = [
            t
            for t in tracer.store.traces()
            if t.root.name == "service.submit_batch"
        ]
        submits = trace.root.spans_named("service.submit")
        outcomes = [s.attributes["cache"] for s in submits]
        assert outcomes.count("miss") == 4  # one per distinct class
        assert outcomes.count("hit") == 2   # the repeated constraints
        # One CRT pass per distinct class, each under a class_search.
        assert len(trace.root.spans_named("crt.pass")) == 4
        assert len(trace.root.spans_named("service.class_search")) == 4
        lookups = trace.root.spans_named("service.cache_lookup")
        assert len(lookups) == len(BATCH)

    def test_single_submit_is_its_own_trace(self, traced_service):
        service, tracer = traced_service
        result = service.submit(ClusterQuery(3, 30.0))
        assert result.found
        (trace,) = tracer.store.traces()
        assert trace.root.name == "service.submit"
        assert trace.root.attributes["snapped_b"] == 30.0
        assert trace.root.attributes["cache"] == "miss"
        assert trace.root.find("service.route") is not None

    def test_stats_links_slowest_trace(self, traced_service):
        service, tracer = traced_service
        service.submit_batch(BATCH)
        stats = service.stats()
        linked = stats.telemetry.slowest_trace_id
        assert linked is not None
        assert tracer.store.find(linked) is not None

    def test_untraced_service_records_nothing(self, service):
        assert service.tracer is NOOP_TRACER
        service.submit_batch(BATCH, max_workers=4)
        stats = service.stats()
        assert stats.telemetry.slowest_trace_id is None
        assert stats.telemetry.queries_served == len(BATCH)


class TestTracedMembership:
    def test_incremental_join_appears_in_span_tree(self, traced_service):
        service, tracer = traced_service
        service.submit(ClusterQuery(3, 30.0))  # builds the substrate
        departed = service.hosts[-1]
        service.remove_host(departed)
        service.add_host(departed)
        names = [t.root.name for t in tracer.store.traces()]
        assert "service.remove_host" in names
        assert "service.add_host" in names
        (join_trace,) = [
            t
            for t in tracer.store.traces()
            if t.root.name == "service.add_host"
        ]
        join = join_trace.root.find("substrate.apply_join")
        assert join is not None
        assert join.attributes["kind"] in ("patch", "rebuild")


class TestTracedSimulation:
    def test_hops_nest_under_await(self, small_framework, hp_classes):
        engine, observer = build_cluster_simulation(
            small_framework, hp_classes, n_cut=5
        )
        engine.run(max_rounds=60)
        assert observer.converged
        reference = DecentralizedClusterSearch(
            small_framework, hp_classes, n_cut=5
        )
        reference.run_aggregation()
        tracer = Tracer(store=TraceStore(slow_threshold_s=0.0))
        client = attach_query_protocol(engine, reference, tracer=tracer)
        start = small_framework.hosts[3]
        query_id = client.submit(8, 60.0, start=start)
        reply = client.await_result(start, query_id)
        awaits = [
            t
            for t in tracer.store.traces()
            if t.root.name == "sim.await"
        ]
        assert len(awaits) == 1
        root = awaits[0].root
        assert root.attributes["query_id"] == query_id
        hops = root.spans_named("sim.hop")
        # One hop span per message leg: hops + the injection delivery.
        assert len(hops) >= reply.hops + 1
        outcomes = [h.attributes["outcome"] for h in hops]
        assert outcomes.count("answered") + outcomes.count(
            "unsatisfied"
        ) == 1
        assert all(
            o in ("answered", "forwarded", "unsatisfied")
            for o in outcomes
        )
