"""Wire benchmark of the cluster-query service.

Run from the repository root::

    python3 wirebench/run.py --workload hot_n200 --seed 0 --seconds 10 --trace 0
    python3 wirebench/run.py --workload all

A run starts a server subprocess (``server.py``) built from a
``repro.net.ServiceSpec`` and drives it over TCP from this process,
both pinned to one shared CPU.  With ``--trace 0`` it reports the
end-to-end metrics named in ``BENCHMARK.json``, every time scaled to a
reference CPU speed by the speed probe of ``speed.py``; with
``--trace 1`` it also replays the same requests against an in-process
twin with spans around each layer and reports the per-layer metrics.  Every wire
answer is checked against an in-process twin; a mismatch makes the
run exit 1.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import signal
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from speed import SpeedProbe
    from stats import Tail
    from traffic import Op, Traffic
    from wire import Connection, Generator, Outcome, ServerProcess

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".wirebench_out"

#: Cold starts per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Speed probes taken right before and right after each cold start
#: (it also probes while it waits for the server).
SETUP_PROBES = 3
#: Seconds between opening the timed phase and its first due time.
OPEN_LEAD_S = 0.05


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def _pin() -> int:
    """Pin this process (and so its children) to one CPU; return it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _metrics_spec(trace: bool) -> tuple[dict[str, str], list[str]]:
    """Units of all metrics in ``BENCHMARK.json``, and the names one run reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for section in ("end_to_end", "per_layer")
        for metric in spec[section]
    }
    section = spec["per_layer" if trace else "end_to_end"]
    return units, [metric["name"] for metric in section]


def _tail_note(tail: Tail) -> str:
    return (
        f"p{tail.percentile:.2f} per block, median of {tail.blocks} "
        f"block(s), n={tail.count}"
    )


def _cold_start(
    server: ServerProcess, probe: Op, speed: SpeedProbe
) -> tuple[float, float, Outcome, Connection]:
    """Start *server* and time its first answer; return the open connection.

    Returns the wall seconds from spawn to first answer, the same at the
    reference speed (probed before, during and after), the answer and
    the connection.
    """
    from wire import Connection, Generator

    for _ in range(SETUP_PROBES):
        speed.probe()
    began = time.perf_counter()
    server.start(speed)
    read = Connection(server.port)
    generator = Generator(read)
    try:
        (outcome,) = generator.run_closed([probe])
    finally:
        generator.close()
    for _ in range(SETUP_PROBES):
        speed.probe()
    return outcome.done - began, speed.scaled(began, outcome.done), outcome, read


class Run:
    """One workload run: wire phase, answer check, optional traced replay."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, cpu: int) -> None:
        from traffic import WORKLOADS

        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.cpu = cpu
        self.workload = WORKLOADS[name]
        self.report: list[str] = []
        self.metrics: dict[str, float] = {}
        self.raw: dict[str, float] = {}
        self.counts: dict[str, str] = {}

    def _timed_phase(
        self, generator: Generator, traffic: Traffic
    ) -> tuple[list[tuple[str, Outcome]], list[tuple[float, float]]]:
        """Send every round; return the outcomes in send order, and the read windows.

        Each outcome is tagged ``"read"``, ``"event"`` or ``"warm"`` (the
        warm-up repeated after a closed loop's events).
        """
        from traffic import CHURN_EVENT_GAP, CHURN_FIRST_EVENT_S

        sent: list[tuple[str, Outcome]] = []
        windows: list[tuple[float, float]] = []
        for index, ops in enumerate(traffic.rounds):
            if self.workload.open_loop:
                began = time.perf_counter() + OPEN_LEAD_S
                outcomes = generator.run_open(
                    ops, began, traffic.beside, CHURN_FIRST_EVENT_S, CHURN_EVENT_GAP
                )
            else:
                began = time.perf_counter()
                share = self.seconds / len(traffic.rounds)
                until = None if self.workload.fixed_work else began + share
                outcomes = generator.run_closed(ops, until=until)
            sent += [("event" if o.op.is_event else "read", o) for o in outcomes]
            windows.append(
                (began, max((o.done for o in outcomes if not o.op.is_event), default=began))
            )
            if index < len(traffic.between):
                sent += [("event", o) for o in generator.run_closed(traffic.between[index])]
                sent += [("warm", o) for o in generator.run_closed(traffic.warmup)]
        return sent, windows

    def execute(self) -> tuple[int, int, bool]:
        """Run the workload; return (attempted, failed, correct)."""
        from repro.net import ServiceSpec
        from speed import REFERENCE_PROBE_S, SpeedProbe
        from stats import median, tail
        from traffic import make_traffic
        from twin import answer_key, check_outcomes, needed_keys, traced_replay
        from wire import Connection, Generator, ServerProcess

        n = self.workload.n
        # The twin is built first: its anchor tree names the leaf hosts
        # the membership events use, and it answers the check afterwards.
        twin = ServiceSpec(n=n).build()
        anchor = twin.framework.anchor_tree
        leaves = [h for h in twin.hosts if h != anchor.root and not anchor.children(h)]
        traffic = make_traffic(
            self.name, self.seed, self.seconds, twin.classes.bandwidths, leaves
        )
        gc.collect()
        gc.freeze()

        speed = SpeedProbe()
        setups: list[tuple[float, float]] = []
        checked: list[Outcome] = []
        for _ in range(0 if self.trace else SETUP_REPEATS - 1):
            with ServerProcess(SRC, n) as server:
                wall_s, setup_s, outcome, read = _cold_start(server, traffic.probe, speed)
                read.close()
            setups.append((wall_s, setup_s))
            checked.append(outcome)

        with ServerProcess(SRC, n) as server:
            wall_s, setup_s, outcome, read = _cold_start(server, traffic.probe, speed)
            setups.append((wall_s, setup_s))
            checked.append(outcome)
            event = Connection(server.port)
            generator = Generator(read, event, speed)
            try:
                checked += generator.run_closed(traffic.warmup)
                gc.disable()
                try:
                    sent, windows = self._timed_phase(generator, traffic)
                finally:
                    gc.enable()
                peak_rss_mb = server.peak_rss_mb()
                server_cpus = sorted(os.sched_getaffinity(server.pid))
            finally:
                generator.close()
                read.close()
                event.close()

        checked += [o for _, o in sent]
        events_sent = sorted(
            (o for o in checked if o.op.is_event), key=lambda o: o.sent
        )
        answers = answer_key(
            twin,
            needed_keys([o for o in checked if not o.op.is_event and o.ok]),
            events_sent,
        )
        check_outcomes(checked, answers, twin)
        gc.unfreeze()
        del twin, answers
        gc.collect()

        reads = [o for role, o in sent if role == "read" and o.ok]
        events = [o for o in events_sent if o.ok]
        queries = sum(len(o.op.queries) for o in reads)

        def summary(latency: Callable[[Outcome], float], window: float) -> dict[str, float]:
            submits = [latency(o) for o in reads if o.op.kind == "submit"]
            batches = [latency(o) for o in reads if o.op.kind == "batch"]
            return {
                "query_p50_ms": median(submits) * 1e3,
                "query_tail_ms": tail(submits).value * 1e3,
                "batch_p50_ms": median(batches) * 1e3,
                "batch_tail_ms": tail(batches).value * 1e3,
                "qps": queries / window if window > 0 else 0.0,
                "event_p50_ms": median([latency(o) for o in events]) * 1e3,
            }

        # An open loop delivers the offered rate unless it falls behind,
        # so its qps is not rescaled; a closed loop's qps is its capacity.
        window_wall = sum(ended - began for began, ended in windows)
        window = (
            window_wall
            if self.workload.open_loop
            else sum(speed.scaled(began, ended) for began, ended in windows)
        )
        attempted = len(checked)
        failed = sum(not o.ok for o in checked)
        late = sorted(generator.late_s)
        late_p99_ms = late[int(0.99 * (len(late) - 1))] * 1e3 if late else 0.0

        self.metrics.update({
            "setup_s": median([scaled for _, scaled in setups]),
            **summary(lambda o: speed.scaled(o.due, o.done), window),
            "success_rate": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        })
        self.raw.update({
            "setup_s": median([wall_s for wall_s, _ in setups]),
            **summary(lambda o: o.latency_s, window_wall),
        })
        submits = [o for o in reads if o.op.kind == "submit"]
        batches = [o for o in reads if o.op.kind == "batch"]
        self.counts.update({
            "setup_s": f"n={len(setups)}",
            "query_p50_ms": f"n={len(submits)}",
            "query_tail_ms": _tail_note(tail([o.latency_s for o in submits])),
            "batch_p50_ms": f"n={len(batches)}",
            "batch_tail_ms": _tail_note(tail([o.latency_s for o in batches])),
            "qps": f"{queries} queries in {window_wall:.3f} s",
            "event_p50_ms": f"n={len(events)}",
            "success_rate": f"{attempted - failed}/{attempted}",
            "peak_rss_mb": "server VmHWM",
        })
        probe_ms = speed.probe_s(-math.inf, math.inf) * 1e3
        self.report += [
            f"workload {self.name} seed {self.seed} seconds {self.seconds} "
            f"trace {int(self.trace)} {'open' if self.workload.open_loop else 'closed'} loop",
            f"placement: generator pinned to cpu {self.cpu}, server affinity {server_cpus}",
            f"generator: late p99 {late_p99_ms:.3f} ms over {len(late)} sends, "
            f"stale resends {generator.stale_resends}",
            f"speed probe: median {probe_ms:.4f} ms over {speed.count} probes "
            f"(reference {REFERENCE_PROBE_S * 1e3:g} ms); times below are at the "
            "reference speed, with the wall-clock value beside each",
        ]
        problems = [p for o in checked for p in ([o.error] if o.error else []) + o.problems]
        for problem in problems[:20]:
            print(f"FAILED {problem}", file=sys.stderr)
        correct = not any(o.problems for o in checked)

        if self.trace:
            layer = traced_replay(
                n,
                traffic,
                [(role, o.op) for role, o in sent],
                OUT / f"spans-{self.name}-seed{self.seed}.json",
            )
            inproc_submit_ms = layer.pop("service.submit_ms")
            layer["service.stale_retries"] = float(generator.stale_resends)
            layer["gen.late_p99_ms"] = late_p99_ms
            layer["net.overhead_ms"] = self.raw["query_p50_ms"] - inproc_submit_ms
            self.metrics.update(layer)
        return attempted, failed, correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="hot_n200, miss_n200, churn_n500, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from traffic import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    cpu = _pin()
    units, reported = _metrics_spec(bool(args.trace))

    attempted = failed = 0
    correct = True
    metrics: dict[str, dict[str, object]] = {}
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace), cpu)
        run_attempted, run_failed, run_correct = run.execute()
        attempted += run_attempted
        failed += run_failed
        correct = correct and run_correct
        for line in run.report:
            print(line)
        for metric, value in run.metrics.items():
            notes = [f"wall {run.raw[metric]:.6g}"] if metric in run.raw else []
            notes += [run.counts[metric]] if metric in run.counts else []
            note = "; ".join(notes)
            print(f"  {metric} = {value:.6g} {units[metric]}" + (f" ({note})" if note else ""))
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric in reported:
            metrics[prefix + metric] = {"value": run.metrics[metric], "unit": units[metric]}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
