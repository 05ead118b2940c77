"""The in-process twin: answer checks and the traced per-layer replay.

A twin is the same ``ServiceSpec`` built in the benchmark's own
process.  It serves two purposes:

* **Answer check.**  :func:`answer_key` replays the run's membership
  events in order and, at every generation the run's reads saw,
  answers every key asked at that generation.  Each wire answer is compared
  (found, cluster, snapped b) with the twin's answer at the generation
  stamped on it.
* **Per-layer split.**  :func:`traced_replay` replays the same requests
  one at a time against a second twin, with benchmark-owned spans
  around each layer's public functions.  No program code is changed
  or instrumented.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import repro.predtree.framework as predtree_framework
from repro.core.query import ClusterQuery
from repro.net import FrameDecoder, ServiceSpec, decode_response, encode_frame, encode_request
from repro.net.protocol import ResultBatchResponse, ResultResponse, encode_response
from repro.service.core import ClusterQueryService, ServiceResult
from stats import median, tail
from traffic import POPULAR, Key, Op, Traffic
from wire import Outcome, request_for

__all__ = [
    "Span",
    "SpanRecorder",
    "answer_key",
    "check_outcomes",
    "needed_keys",
    "traced_replay",
]

#: Cached submits per block, and blocks per side, of the hit probe.
PROBE_SUBMITS = 2000
PROBE_ROUNDS = 3
#: Timed ``distance_matrix`` calls; the median is reported.
DISTANCE_CALLS = 3

AnswerMap = dict[tuple[int, float], tuple[int, ...]]


def _query(key: Key) -> ClusterQuery:
    k, b = key
    return ClusterQuery(k=k, b=b)


def _answer_all(
    service: ClusterQueryService, keys: tuple[Key, ...], answers: dict[int, AnswerMap]
) -> None:
    """Answer every key at the twin's current generation.

    One single submit per class first builds that class's routing
    state, so the batch that follows takes the answer-table path.
    """
    warmed: set[float] = set()
    for key in keys:
        snapped = service.classes.snap_bandwidth(key[1])
        if snapped not in warmed:
            warmed.add(snapped)
            service.submit(_query(key))
    results = service.submit_batch([_query(key) for key in keys])
    generation = answers.setdefault(service.generation, {})
    for (k, _), result in zip(keys, results):
        generation[(k, result.snapped_b)] = result.cluster


def _apply_event(service: ClusterQueryService, outcome: Outcome) -> None:
    """Apply one wire membership event; flag a diverging generation."""
    op = outcome.op
    rejoined: tuple[int, ...] = ()
    if op.kind == "leave":
        rejoined = tuple(service.remove_host(op.host))
    else:
        service.add_host(op.host)
    generation = service.generation
    if outcome.generation != generation or outcome.rejoined != rejoined:
        outcome.problems.append(
            f"{op.kind} {op.host}: wire generation {outcome.generation} "
            f"rejoined {outcome.rejoined}, twin {generation} {rejoined}"
        )


def check_outcomes(
    outcomes: list[Outcome], answers: dict[int, AnswerMap], service: ClusterQueryService
) -> None:
    """Record a problem on every read whose answer differs from the twin."""
    for outcome in outcomes:
        if outcome.op.is_event or not outcome.answered or outcome.error:
            continue
        if len(outcome.results) != len(outcome.op.queries):
            outcome.problems.append("wrong number of results")
            continue
        for (k, b), result in zip(outcome.op.queries, outcome.results):
            snapped = service.classes.snap_bandwidth(b)
            expected = answers.get(result.generation, {}).get((k, snapped))
            if result.snapped_b != snapped:
                outcome.problems.append(
                    f"({k}, {b}): snapped to {result.snapped_b}, twin {snapped}"
                )
            elif expected is None:
                outcome.problems.append(
                    f"({k}, {b}): generation {result.generation} has no twin answer"
                )
            elif result.cluster != expected or result.found != bool(expected):
                outcome.problems.append(
                    f"({k}, {b}) at generation {result.generation}: "
                    f"wire {result.cluster}, twin {expected}"
                )


def needed_keys(reads: list[Outcome]) -> dict[int, set[Key]]:
    """The keys each generation was asked, from the generations stamped on the answers."""
    needed: dict[int, set[Key]] = {}
    for outcome in reads:
        for key, result in zip(outcome.op.queries, outcome.results):
            needed.setdefault(result.generation, set()).add(key)
    return needed


def answer_key(
    service: ClusterQueryService,
    needed: dict[int, set[Key]],
    events: list[Outcome],
) -> dict[int, AnswerMap]:
    """The twin's answer to every key asked, at the generation it was asked.

    *service* is a fresh twin; the run's answered membership *events*
    are replayed on it in the order they were sent, and at the start
    and after each event the keys *needed* at the twin's generation are
    answered.
    """
    answers: dict[int, AnswerMap] = {}

    def answer_now() -> None:
        keys = needed.get(service.generation)
        if keys:
            _answer_all(service, tuple(sorted(keys)), answers)

    answer_now()
    for outcome in events:
        if outcome.answered and outcome.error is None:
            _apply_event(service, outcome)
            answer_now()
    return answers


@dataclass
class Span:
    """One benchmark-owned span."""

    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans kept in memory and written out once the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), parent=parent, request=request)
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str, **attrs: object) -> list[float]:
        """Durations of the spans called *name* whose attrs match."""
        return [
            span.seconds
            for span in self.spans
            if span.name == name
            and all(span.attrs.get(key) == value for key, value in attrs.items())
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                [
                    {
                        "id": span.span_id,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "request": span.request,
                        **span.attrs,
                    }
                    for span in self.spans
                ]
            )
        )


@contextmanager
def _spanned(module: object, attr: str, recorder: SpanRecorder, name: str) -> Iterator[None]:
    """Temporarily wrap ``module.attr`` in a span called *name*."""
    original = getattr(module, attr)

    def wrapped(*args: object, **kwargs: object) -> object:
        with recorder.span(name):
            return original(*args, **kwargs)

    setattr(module, attr, wrapped)
    try:
        yield
    finally:
        setattr(module, attr, original)


_LAYER = {
    "submit": "service.submit",
    "batch": "service.submit_batch",
    "leave": "service.remove_host",
    "join": "service.add_host",
}


def _apply(service: ClusterQueryService, op: Op) -> tuple[ServiceResult, ...]:
    if op.kind == "submit":
        return (service.submit(_query(op.queries[0])),)
    if op.kind == "batch":
        return tuple(service.submit_batch([_query(key) for key in op.queries]))
    if op.kind == "leave":
        service.remove_host(op.host)
    else:
        service.add_host(op.host)
    return ()


def _replay(
    service: ClusterQueryService, ops: list[Op], recorder: SpanRecorder, first_id: int
) -> list[tuple[Op, tuple[ServiceResult, ...]]]:
    done = []
    for request, op in enumerate(ops, start=first_id):
        with recorder.span("replay.op", request=request):
            with recorder.span(_LAYER[op.kind], request=request) as span:
                results = _apply(service, op)
            if op.kind == "submit":
                span.attrs["cached"] = results[0].cached
        done.append((op, results))
    return done


def _hit_probe(service: ClusterQueryService, recorder: SpanRecorder) -> tuple[list[float], float]:
    """Cached submits with and without spans: hit times and span overhead."""
    queries = [_query(key) for key in POPULAR]
    for query in queries:
        service.submit(query)
    stream = [queries[i % len(queries)] for i in range(PROBE_SUBMITS)]
    ratios = []
    for _ in range(PROBE_ROUNDS):
        began = time.perf_counter()
        for query in stream:
            service.submit(query)
        untraced = time.perf_counter() - began
        began = time.perf_counter()
        for query in stream:
            with recorder.span("probe.submit"):
                service.submit(query)
        ratios.append((time.perf_counter() - began) / untraced)
    return recorder.seconds("probe.submit"), median(ratios) - 1.0


def _codec_times(
    done: list[tuple[Op, tuple[ServiceResult, ...]]]
) -> dict[str, float]:
    """Encode/decode cost and frame sizes of the replayed requests."""
    encode_s, decode_s, request_bytes, response_bytes = [], [], [], []
    for request_id, (op, results) in enumerate(done, start=1):
        request = request_for(op)
        began = time.perf_counter()
        frame = encode_frame(encode_request(request_id, request))
        encode_s.append(time.perf_counter() - began)
        request_bytes.append(len(frame))
        if op.is_event:
            continue
        response = (
            ResultResponse(result=results[0])
            if op.kind == "submit"
            else ResultBatchResponse(results=results)
        )
        reply = encode_frame(encode_response(request_id, response))
        response_bytes.append(len(reply))
        began = time.perf_counter()
        for message in FrameDecoder().feed(reply):
            decode_response(message)
        decode_s.append(time.perf_counter() - began)
    return {
        "net.encode_us": median(encode_s) * 1e6,
        "net.decode_us": median(decode_s) * 1e6,
        "net.request_bytes": statistics.fmean(request_bytes),
        "net.response_bytes": statistics.fmean(response_bytes),
    }


def _ms(values: list[float]) -> float:
    return median(values) * 1e3 if values else 0.0


def traced_replay(
    n: int, traffic: Traffic, sequence: list[tuple[str, Op]], spans_path: Path
) -> dict[str, float]:
    """Replay a run in process with spans; return the per-layer metrics.

    *sequence* is every op the run sent after its warm-up, in order,
    each tagged ``"read"`` (a timed read), ``"event"`` or ``"warm"`` (a
    warm-up repeated after an event, replayed without spans).  The
    cache hit ratio counts timed reads only.
    """
    recorder = SpanRecorder()
    with recorder.span("setup"):
        with _spanned(predtree_framework, "build_framework", recorder, "predtree.build"):
            service = ServiceSpec(n=n).build()
        with recorder.span("kernels.prepare"):
            service.prepare()
    for _ in range(DISTANCE_CALLS):
        with recorder.span("predtree.distances"):
            service.framework.tree.distance_matrix()
    for op in (traffic.probe, *traffic.warmup):
        _apply(service, op)
    before = service.stats().telemetry
    done: list[tuple[Op, tuple[ServiceResult, ...]]] = []
    hits = looked = 0
    position = 0
    while position < len(sequence):
        role = sequence[position][0]
        end = position
        while end < len(sequence) and sequence[end][0] == role:
            end += 1
        ops = [op for _, op in sequence[position:end]]
        if role == "warm":
            for op in ops:
                _apply(service, op)
        else:
            start = service.stats().telemetry
            done += _replay(service, ops, recorder, first_id=len(done) + 1)
            if role == "read":
                stop = service.stats().telemetry
                hits += stop.cache_hits - start.cache_hits
                looked += (
                    stop.cache_hits - start.cache_hits + stop.cache_misses - start.cache_misses
                )
        position = end
    after = service.stats().telemetry
    hit_s, overhead = _hit_probe(service, recorder)
    recorder.write(spans_path)

    misses = recorder.seconds("service.submit", cached=False)
    miss_tail = tail(misses)
    leave_ms = _ms(recorder.seconds("service.remove_host"))
    join_ms = _ms(recorder.seconds("service.add_host"))
    distances_ms = _ms(recorder.seconds("predtree.distances"))
    events_ms = statistics.fmean([leave_ms, join_ms])
    return {
        "predtree.build_s": sum(recorder.seconds("predtree.build")),
        "predtree.distances_ms": distances_ms,
        "predtree.distances_share": distances_ms / events_ms if events_ms else 0.0,
        "kernels.prepare_s": sum(recorder.seconds("kernels.prepare")),
        "kernels.answer_table_builds": after.answer_table_builds - before.answer_table_builds,
        "kernels.kernel_patches": after.kernel_patches - before.kernel_patches,
        "kernels.patch_fallbacks": after.patch_fallbacks - before.patch_fallbacks,
        "core.substrate_builds": after.substrate_builds - before.substrate_builds,
        "service.hit_us": median(hit_s) * 1e6,
        "service.miss_p50_ms": _ms(misses),
        "service.miss_tail_ms": miss_tail.value * 1e3 if misses else 0.0,
        "service.batch_ms": _ms(recorder.seconds("service.submit_batch")),
        "service.leave_ms": leave_ms,
        "service.join_ms": join_ms,
        "service.cache_hit_ratio": hits / looked if looked else 0.0,
        "service.submit_ms": _ms(recorder.seconds("service.submit")),
        "obs.trace_overhead": overhead,
        **_codec_times(done),
    }
