"""Service scaling: shared substrate, per-class CRT split, incremental churn.

The tentpole claim of the shared-substrate refactor, measured: a warm
multi-class batch over ``m`` classes pays for exactly ONE Algorithm 2
node-info fixed point (the class-independent substrate) plus ``m``
cheap per-class CRT passes, where the pre-split service paid the full
fixed point ``m`` times.  Membership churn rides the same machinery:
an anchor-leaf ``add_host`` is absorbed by seeded propagation instead
of a full rebuild.

Three measurements, all asserted from telemetry (not timing alone, so
the shape survives noisy CI boxes):

* cold vs warm batch latency over all |L| classes;
* aggregation-build counts: ``substrate_builds == 1`` however many
  classes a batch spans, with per-class CRT passes scaling as |L|;
* incremental ``add_host`` vs a cold substrate build at the same n.
"""

import time

from benchmarks.conftest import bench_scale, emit
from repro.core.decentralized import AggregationSubstrate
from repro.core.query import BandwidthClasses, ClusterQuery
from repro.datasets.planetlab import hp_planetlab_like
from repro.experiments.report import format_table
from repro.predtree.framework import build_framework
from repro.service import ClusterQueryService

N_CUT = 8


def _sizes() -> tuple[int, ...]:
    return (60, 120) if bench_scale() == "quick" else (100, 200, 400)


def _multi_class_batch(classes: BandwidthClasses) -> list[ClusterQuery]:
    return [ClusterQuery(k=4, b=b) for b in classes.bandwidths]


def _build_service(n: int) -> ClusterQueryService:
    dataset = hp_planetlab_like(seed=0, n=n)
    framework = build_framework(dataset.bandwidth, seed=1)
    classes = BandwidthClasses.linear(15.0, 75.0, 7)
    return ClusterQueryService(framework, classes, n_cut=N_CUT)


def test_shared_substrate_scaling(benchmark):
    rows = []
    checked = {}

    def run():
        for n in _sizes():
            service = _build_service(n)
            batch = _multi_class_batch(service.classes)
            began = time.perf_counter()
            service.submit_batch(batch, max_workers=4)
            cold_s = time.perf_counter() - began
            # Same classes, fresh (k, b) pairs: the result cache misses
            # but the substrate and per-class CRT layers are warm.
            warm_batch = [
                ClusterQuery(k=5, b=b) for b in service.classes.bandwidths
            ]
            began = time.perf_counter()
            service.submit_batch(warm_batch, max_workers=4)
            warm_s = time.perf_counter() - began
            snapshot = service.telemetry.snapshot()
            checked[n] = snapshot
            rows.append([
                n,
                f"{cold_s * 1e3:.1f}",
                f"{warm_s * 1e3:.1f}",
                snapshot.substrate_builds,
                snapshot.aggregation_builds,
            ])

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["n", "cold batch (ms)", "warm batch (ms)",
         "substrate builds", "CRT passes"],
        rows,
        title="shared substrate: one fixed point per generation",
    )
    emit("service_scaling_substrate", table)
    for n, snapshot in checked.items():
        # The tentpole invariant: however many classes the batches
        # spanned, the Algorithm 2 fixed point was computed once.
        assert snapshot.substrate_builds == 1, (
            f"n={n}: expected 1 substrate build, "
            f"got {snapshot.substrate_builds}"
        )
        assert snapshot.aggregation_builds == 7, (
            f"n={n}: expected one CRT pass per class, "
            f"got {snapshot.aggregation_builds}"
        )


def test_incremental_add_host_vs_rebuild(benchmark):
    n = 120 if bench_scale() == "quick" else 200
    rows = []
    report = {}

    def run():
        service = _build_service(n)
        framework = service.framework
        leaf = [
            host
            for host in framework.hosts
            if not framework.anchor_tree.children(host)
        ][-1]
        service.submit(ClusterQuery(k=4, b=30.0))
        build_snapshot = service.telemetry.snapshot()

        service.remove_host(leaf)
        began = time.perf_counter()
        service.add_host(leaf)
        join_s = time.perf_counter() - began
        churn_snapshot = service.telemetry.snapshot()

        began = time.perf_counter()
        cold = AggregationSubstrate(framework, n_cut=N_CUT)
        cold_report = cold.build()
        rebuild_s = time.perf_counter() - began

        report["builds"] = churn_snapshot.substrate_builds
        report["patches"] = (
            churn_snapshot.kernel_patches - build_snapshot.kernel_patches
        )
        report["fallbacks"] = (
            churn_snapshot.patch_fallbacks - build_snapshot.patch_fallbacks
        )
        report["speedup"] = rebuild_s / max(join_s, 1e-9)
        rows.append([
            n,
            f"{join_s * 1e3:.2f}",
            f"{rebuild_s * 1e3:.2f}",
            cold_report.messages,
            f"{report['speedup']:.1f}x",
        ])

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["n", "incremental join (ms)", "cold rebuild (ms)",
         "rebuild msgs", "speedup"],
        rows,
        title="incremental maintenance vs cold substrate rebuild",
    )
    emit("service_scaling_incremental", table)
    # Leaf churn must ride the kernel patch: remove + add are two
    # patches on the one substrate built for the first query — no
    # declined patch, no extra full build.
    assert report["builds"] == 1, (
        f"leaf churn triggered a full rebuild ({report['builds']} builds)"
    )
    assert report["patches"] == 2
    assert report["fallbacks"] == 0
