"""Seeded traffic for the wire benchmark's workloads.

Everything a run sends is generated here from ``(workload, seed)``; the
server receives only these requests.  A workload is a warm-up (closed
loop, untimed), then timed rounds.  In a closed-loop workload the rounds
are reads sent one at a time (until the round's share of the run's
seconds is spent or, for fixed work, its ops are), and after a round
its leave/re-join pairs go out, followed by the warm-up again
(untimed): in hot_n200 one pair after each round, so the events are
spread over the run; in miss_n200 all of them after its one round.  An open-loop workload has one round
of reads sent on a schedule, and its membership events go out beside
them, each a multiple of the previous event's latency after it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = [
    "Op",
    "Traffic",
    "WORKLOADS",
    "Workload",
    "event_hosts",
    "make_traffic",
]

#: The popular keys of the hot and churn workloads: k x b.
POPULAR_K = (3, 5, 8)
POPULAR_B = (20.0, 40.0, 60.0, 75.0)
POPULAR = tuple((k, b) for k in POPULAR_K for b in POPULAR_B)
#: Queries per popular-key batch.
POPULAR_BATCH = 12

#: hot_n200: share of requests that are batches, and requests generated
#: per second of run (well above what one connection completes).
HOT_BATCH_SHARE = 0.25
HOT_MAX_RATE = 3000.0
#: churn_n500 offered load (requests per second, alternating a submit
#: and a batch), and the membership-event schedule: the first event at
#: CHURN_FIRST_EVENT_S, then each next one CHURN_EVENT_GAP times the
#: previous event's latency after its answer, alternating a leaf leave
#: and the re-join of that host, while reads remain to be sent.
CHURN_READ_RATE = 40.0
CHURN_FIRST_EVENT_S = 1.0
CHURN_EVENT_GAP = 3.0
#: miss_n200: after every MISS_SUBMITS_PER_BATCH single submits, one
#: batch of MISS_BATCH fresh keys (one key: as many batches as submits,
#: so that their tail has as many samples).
MISS_SUBMITS_PER_BATCH = 1
MISS_BATCH = 1
#: Timed rounds of the closed-loop workloads; one leave/re-join pair
#: follows each round (an event costs about 0.05 s at n=200).
ROUNDS = 12

Key = tuple[int, float]


@dataclass(frozen=True)
class Op:
    """One request: a submit, a batch, or a membership event.

    ``due`` is the send time in seconds after the timed phase opens;
    only open-loop phases use it.
    """

    kind: str
    queries: tuple[Key, ...] = ()
    host: int = -1
    due: float = 0.0

    @property
    def is_event(self) -> bool:
        """Whether this op changes membership."""
        return self.kind in ("leave", "join")


@dataclass(frozen=True)
class Workload:
    """A named traffic mix against a server of ``n`` hosts.

    A ``fixed_work`` workload's timed phase sends every op once however
    long that takes, instead of stopping when the run's seconds are up.
    """

    name: str
    n: int
    open_loop: bool
    fixed_work: bool = False


@dataclass(frozen=True)
class Traffic:
    """Every request one run sends, in phase order.

    ``between[i]`` holds the membership events sent after ``rounds[i]``
    in a closed-loop workload (each followed by ``warmup`` again);
    ``beside`` the events an open loop sends beside its reads, as many
    of them as its schedule reaches.
    """

    probe: Op
    warmup: tuple[Op, ...]
    rounds: tuple[tuple[Op, ...], ...]
    between: tuple[tuple[Op, ...], ...] = ()
    beside: tuple[Op, ...] = ()


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("hot_n200", 200, open_loop=False),
        Workload("miss_n200", 200, open_loop=False, fixed_work=True),
        Workload("churn_n500", 500, open_loop=True),
    )
}

#: The cold-start probe of miss_n200, kept out of its key pool.
MISS_PROBE: Key = (2, 15.0)


def _rng(name: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{name}/{seed}/{stream}")


def _fixed_rate_reads(rng: random.Random, rate: float, seconds: float) -> list[Op]:
    """Popular-key reads sent at a fixed rate, alternating submit and batch.

    Evenly spaced sends (with a seeded phase) keep the number of
    requests caught behind each membership event the same on every
    seed; alternating the two kinds in one stream keeps a submit from
    landing on a batch more often on some seeds than on others.
    """
    phase = rng.uniform(0.0, 1.0 / rate)
    reads = []
    for i in range(round(rate * seconds)):
        due = phase + i / rate
        if i % 2:
            reads.append(Op("batch", tuple(rng.choices(POPULAR, k=POPULAR_BATCH)), due=due))
        else:
            reads.append(Op("submit", (rng.choice(POPULAR),), due=due))
    return reads


def _popular_warmup() -> tuple[Op, ...]:
    return (
        *(Op("submit", (key,)) for key in POPULAR),
        Op("batch", POPULAR),
    )


def _miss_ops(
    rng: random.Random, n: int, classes: list[float]
) -> tuple[tuple[Op, ...], tuple[Op, ...]]:
    """Warm-up and timed ops of miss_n200.

    Every (k, class) key with k in 2..n is asked once: even k by single
    submits, odd k by batches of MISS_BATCH keys adjacent in (k, class)
    order.  The warm-up asks k=n singly and k=n-1 in one batch for every
    class, building each class's routing state and answer table.  The
    seed shuffles the order of the submits and of the batches, not
    their contents, so every seed measures the same requests.
    """
    warm_submits = [(n, b) for b in classes]
    warm_batch = [(n - 1, b) for b in classes]
    taken = {MISS_PROBE, *warm_submits, *warm_batch}
    submit_keys, batch_keys = (
        [
            (k, b)
            for k in range(2, n + 1)
            if k % 2 == parity
            for b in classes
            if (k, b) not in taken
        ]
        for parity in (0, 1)
    )
    submits = [Op("submit", (key,)) for key in submit_keys]
    batches = [
        Op("batch", tuple(batch_keys[i:i + MISS_BATCH]))
        for i in range(0, len(batch_keys), MISS_BATCH)
    ]
    rng.shuffle(submits)
    rng.shuffle(batches)
    timed: list[Op] = []
    while submits or batches:
        timed += submits[:MISS_SUBMITS_PER_BATCH]
        del submits[:MISS_SUBMITS_PER_BATCH]
        timed += batches[:1]
        del batches[:1]
    warmup = (*(Op("submit", (key,)) for key in warm_submits), Op("batch", tuple(warm_batch)))
    return warmup, tuple(timed)


def event_hosts(name: str, leaves: list[int], count: int) -> list[int]:
    """``count`` distinct anchor-tree leaves, the same on every seed.

    Event cost depends on where the host sits; drawing the hosts from
    the seed made ``event_p50_ms`` move by 30-50% between seeds, so the
    membership schedule is fixed per workload and the seed varies the
    reads only.
    """
    return random.Random(f"{name}/events").sample(sorted(leaves), count)


def _event_pairs(hosts: list[int], dues: list[float]) -> list[Op]:
    """A leave then a re-join of each host in turn, at *dues*."""
    ops: list[Op] = []
    for index, due in enumerate(dues):
        host = hosts[index // 2]
        ops.append(Op("leave" if index % 2 == 0 else "join", host=host, due=due))
    return ops


def make_traffic(
    name: str,
    seed: int,
    seconds: float,
    classes: list[float],
    leaves: list[int],
) -> Traffic:
    """The seeded requests of workload *name* for one run.

    *classes* are the server's bandwidth classes.  Membership events
    leave and re-join hosts drawn from *leaves*, the non-root leaves of
    the initial anchor tree: leaf churn, whose per-event cost ROADMAP
    item 2 targets.  (A departing inner host re-joins its descendants
    and drops the substrate, which moves the cost onto later queries.)
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = _rng(name, seed, "reads")
    if name == "churn_n500":
        # One host leaves and re-joins over and over beside the reads:
        # how many events the gap rule fits in depends on the host's
        # speed, and with a different host for each pair that decided
        # which hosts' events (whose costs differ by 2x) set the tails.
        # The gap rule sends at most one pair per second.
        (host,) = event_hosts(name, leaves, 1)
        pairs = math.ceil(seconds)
        return Traffic(
            Op("submit", (POPULAR[0],)),
            _popular_warmup(),
            (tuple(_fixed_rate_reads(rng, CHURN_READ_RATE, seconds)),),
            beside=tuple(_event_pairs([host] * pairs, [0.0] * 2 * pairs)),
        )
    hosts = event_hosts(name, leaves, ROUNDS)
    between = tuple(tuple(_event_pairs([host], [0.0, 0.0])) for host in hosts)
    if name == "miss_n200":
        # All the events follow the reads: the reads right after an
        # event are slow, and with events between rounds the seed
        # decided which keys those were, which moved batch_tail_ms by
        # 25% from seed to seed.
        warmup, ops = _miss_ops(rng, WORKLOADS[name].n, classes)
        events = tuple(op for pair in between for op in pair)
        return Traffic(Op("submit", (MISS_PROBE,)), warmup, (ops,), (events,))
    per_round = round(HOT_MAX_RATE * seconds / ROUNDS)
    rounds = tuple(
        tuple(
            Op("batch", tuple(rng.choices(POPULAR, k=POPULAR_BATCH)))
            if rng.random() < HOT_BATCH_SHARE
            else Op("submit", (rng.choice(POPULAR),))
            for _ in range(per_round)
        )
        for _ in range(ROUNDS)
    )
    return Traffic(Op("submit", (POPULAR[0],)), _popular_warmup(), rounds, between)
