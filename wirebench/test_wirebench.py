"""Tests of the wire benchmark itself: server lifecycle, output, traffic.

Run from the repository root::

    python3 -m pytest wirebench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from speed import REFERENCE_PROBE_S, SpeedProbe  # noqa: E402
from stats import tail  # noqa: E402
from traffic import ROUNDS, WORKLOADS, Op, Traffic, make_traffic  # noqa: E402

CLASSES = [15.0, 25.0, 35.0, 45.0, 55.0, 65.0, 75.0]


def _timed(traffic: Traffic) -> list[Op]:
    return [op for ops in traffic.rounds for op in ops]


def _events(traffic: Traffic) -> list[Op]:
    return [*(op for ops in traffic.between for op in ops), *traffic.beside]


def _server_pids() -> set[int]:
    """Live processes running the benchmark's server script."""
    pids = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if str(HERE / "server.py").encode() in cmdline:
            pids.add(int(entry.name))
    return pids


def _listening_sockets() -> set[str]:
    """Inodes of listening TCP sockets (state 0A in /proc/net/tcp*)."""
    inodes = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        for line in Path(table).read_text().splitlines()[1:]:
            fields = line.split()
            if fields[3] == "0A":
                inodes.add(fields[9])
    return inodes


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "wirebench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _wait_for(predicate: Callable[[], object], timeout: float) -> bool:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.1)
    return False


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_and_leaves_nothing_behind(trace: str) -> None:
    before_servers, before_sockets = _server_pids(), _listening_sockets()
    result = _run("--workload", "hot_n200", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace == "1" else "end_to_end"
    assert set(last["metrics"]) == {m["name"] for m in spec[section]}
    assert _server_pids() <= before_servers
    assert _listening_sockets() <= before_sockets


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_interrupted_run_kills_its_server(signum: int) -> None:
    before = _server_pids()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "hot_n200", "--seconds", "30"],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        assert _wait_for(lambda: _server_pids() - before, 60.0)
        proc.send_signal(signum)
        assert proc.wait(timeout=60) != 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert _wait_for(lambda: not (_server_pids() - before), 10.0)


def test_server_is_killed_when_the_block_raises() -> None:
    from wire import ServerProcess

    with pytest.raises(RuntimeError, match="check failed"):
        with ServerProcess(ROOT / "src", 20) as server:
            server.start()
            pid = server.pid
            assert Path(f"/proc/{pid}").exists()
            raise RuntimeError("check failed")
    assert not Path(f"/proc/{pid}").exists()


def test_exits_nonzero_without_program_source(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "wirebench", ignore=shutil.ignore_patterns("__pycache__"))
    result = _run("--workload", "hot_n200", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert result.returncode != 0
    assert result.stdout.strip() == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond() -> None:
    values = [float(i) for i in range(1, 401)]
    result = tail(values)
    assert result.value == 390.0
    assert sum(v > result.value for v in values) == 10
    assert result.percentile == pytest.approx(97.5)
    assert result.blocks == 1


def test_tail_is_the_median_over_blocks() -> None:
    quiet = [1.0] * 500
    stalled = [1.0] * 480 + [50.0] * 20
    result = tail(quiet + stalled + quiet)
    assert result.blocks == 3
    assert result.value == 1.0
    assert result.percentile == pytest.approx(98.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traffic_depends_only_on_the_seed(name: str) -> None:
    leaves = list(range(1, 60))
    first = make_traffic(name, 7, 2.0, CLASSES, leaves)
    again = make_traffic(name, 7, 2.0, CLASSES, leaves)
    other = make_traffic(name, 8, 2.0, CLASSES, leaves)
    assert first == again
    assert first != other
    assert all(op.host in leaves for op in _events(first))


def test_miss_keys_are_never_repeated() -> None:
    traffic = make_traffic("miss_n200", 1, 10.0, CLASSES, list(range(1, 60)))
    asked = [
        key
        for op in (traffic.probe, *traffic.warmup, *_timed(traffic))
        for key in op.queries
    ]
    assert len(asked) == len(set(asked)) == 199 * len(CLASSES)


def test_churn_events_alternate_leave_and_rejoin() -> None:
    traffic = make_traffic("churn_n500", 2, 15.0, CLASSES, list(range(1, 300)))
    assert not any(op.is_event for op in _timed(traffic))
    assert [op.kind for op in traffic.beside] == ["leave", "join"] * 15
    assert len({op.host for op in _events(traffic)}) == 1


def test_hot_events_are_spread_between_rounds() -> None:
    traffic = make_traffic("hot_n200", 4, 6.0, CLASSES, list(range(1, 60)))
    assert len(traffic.rounds) == len(traffic.between) == ROUNDS
    assert all(traffic.rounds)
    assert not any(op.is_event for op in _timed(traffic))
    for leave, join in traffic.between:
        assert (leave.kind, join.kind) == ("leave", "join")
        assert leave.host == join.host
    assert len({leave.host for leave, _ in traffic.between}) == ROUNDS


def test_miss_events_follow_all_reads() -> None:
    traffic = make_traffic("miss_n200", 4, 6.0, CLASSES, list(range(1, 60)))
    assert len(traffic.rounds) == len(traffic.between) == 1
    assert not any(op.is_event for op in _timed(traffic))
    assert [op.kind for op in _events(traffic)] == ["leave", "join"] * ROUNDS


def _probe_at(speed: SpeedProbe, at: list[float], cpu_s: list[float]) -> SpeedProbe:
    speed._at[:] = at
    speed._cpu_s[:] = cpu_s
    return speed


def test_speed_probe_scales_by_the_probes_around_an_interval() -> None:
    ref = REFERENCE_PROBE_S
    # A slow stretch (probes twice the reference) between two fast ones.
    speed = _probe_at(
        SpeedProbe(),
        [float(t) for t in range(12)],
        [ref] * 4 + [2 * ref] * 4 + [ref] * 4,
    )
    assert speed.scaled(5.0, 6.0) == pytest.approx(0.5)
    assert speed.scaled(0.0, 1.0) == pytest.approx(1.0)
    assert speed.factor(-10.0, -9.0) == pytest.approx(1.0)


def test_speed_probe_takes_cpu_time() -> None:
    speed = SpeedProbe()
    speed.probe()
    speed.maybe_probe()
    assert speed.count == 1
    assert speed.probe_s(0.0, float("inf")) > 0.0
