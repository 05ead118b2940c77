"""The wire side: the server subprocess and the pipelining generator.

:class:`ServerProcess` runs ``server.py`` as a child process and kills
it on every exit path.  :class:`Generator` drives one or two TCP
connections from a single thread: requests are pipelined (many in
flight per connection, matched by request id), frames for the timed
phase are encoded before it opens, and an open loop sends each request
at its due time and times it from that due time, so a stall also
charges the requests queued behind it.  The generator takes the run's
speed probes (``speed.py``) between requests and while it waits, unless
that could delay a prompt answer.
"""

from __future__ import annotations

import math
import os
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import StaleGenerationError
from repro.net import FrameDecoder, decode_response, encode_frame, encode_request
from repro.net.protocol import (
    AddHostRequest,
    ErrorResponse,
    MembershipResponse,
    RemoveHostRequest,
    Request,
    Response,
    ResultBatchResponse,
    ResultResponse,
    SubmitBatchRequest,
    SubmitRequest,
)
from repro.service.core import ServiceResult
from speed import PROBE_EVERY_S, SpeedProbe
from traffic import Op

__all__ = ["Connection", "Generator", "Outcome", "ServerProcess", "request_for"]

#: Resends allowed after a stale-generation (code 91) answer.
STALE_RESENDS = 1
#: Seconds a server may take to print its port.
START_TIMEOUT_S = 150.0
#: Seconds the generator waits for stragglers after the last send.
DRAIN_TIMEOUT_S = 30.0
#: A wait probes only when it has at least this long left.
PROBE_SLACK_S = 0.01
#: ... and nothing is in flight or the oldest request has waited this long.
STALL_S = 0.02
#: An open loop with nothing in flight sleeps through a gap longer than
#: IDLE_SLEEP_S, waking IDLE_WAKE_S before its next send.
IDLE_SLEEP_S = 0.003
IDLE_WAKE_S = 0.001

_STALE_CODE = StaleGenerationError.code
_SERVER_SCRIPT = Path(__file__).with_name("server.py")


class ServerProcess:
    """One ``server.py`` child serving a fresh overlay of ``n`` hosts.

    Use it as a context manager: leaving the block, normally or by an
    exception (a failed check, Ctrl-C, SIGTERM turned into
    ``SystemExit``), kills the child and waits for it.  The child also
    exits on its own when its stdin closes, which covers a benchmark
    killed without a chance to clean up.
    """

    def __init__(self, src: Path, n: int) -> None:
        self._src = src
        self._n = n
        self._proc: subprocess.Popen[bytes] | None = None
        self.port = 0

    @property
    def pid(self) -> int:
        """The child's process id."""
        if self._proc is None:
            raise RuntimeError("server is not started")
        return self._proc.pid

    def start(self, speed: SpeedProbe | None = None) -> int:
        """Spawn the child and return the port it listens on.

        While it waits for the port, the caller's *speed* probe (if any)
        keeps probing.
        """
        env = dict(os.environ, PYTHONPATH=str(self._src))
        self._proc = subprocess.Popen(
            [sys.executable, str(_SERVER_SCRIPT), "--n", str(self._n)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        assert self._proc.stdout is not None
        line = _read_line(self._proc.stdout.fileno(), START_TIMEOUT_S, speed)
        fields = line.split()
        if len(fields) != 2 or fields[0] != "READY":
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(fields[1])
        return self.port

    def peak_rss_mb(self) -> float:
        """The child's peak resident set (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Kill the child (if running) and wait until it has ended."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30.0)
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                stream.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def _read_line(fd: int, timeout: float, speed: SpeedProbe | None = None) -> str:
    """One line from pipe *fd*, or an error after *timeout* seconds.

    With a *speed* probe, it probes every ``PROBE_EVERY_S`` while waiting.
    """
    deadline = time.perf_counter() + timeout
    data = b""
    with selectors.DefaultSelector() as selector:
        selector.register(fd, selectors.EVENT_READ)
        while b"\n" not in data:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError("server did not report its port in time")
            if speed is not None:
                speed.maybe_probe()
                remaining = min(remaining, PROBE_EVERY_S)
            if not selector.select(remaining):
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("server exited before reporting its port")
            data += chunk
    return data.split(b"\n", 1)[0].decode()


class Connection:
    """One TCP connection and its incremental frame decoder."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder()

    def close(self) -> None:
        """Close the socket."""
        self.sock.close()


def request_for(op: Op, generation: int | None = None) -> Request:
    """The typed wire request for *op*, optionally generation-stamped."""
    if op.kind == "submit":
        (k, b), = op.queries
        return SubmitRequest(k=k, b=b, generation=generation)
    if op.kind == "batch":
        return SubmitBatchRequest(queries=op.queries, generation=generation)
    if op.kind == "leave":
        return RemoveHostRequest(host=op.host)
    if op.kind == "join":
        return AddHostRequest(host=op.host)
    raise ValueError(f"unknown op kind {op.kind!r}")


@dataclass
class Outcome:
    """What became of one op: timing, answer, and any error."""

    op: Op
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    answered: bool = False
    results: tuple[ServiceResult, ...] = ()
    generation: int | None = None
    rejoined: tuple[int, ...] = ()
    error: str | None = None
    stale_resends: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def latency_s(self) -> float:
        """Seconds from the op's due time to its final answer."""
        return self.done - self.due

    @property
    def ok(self) -> bool:
        """Answered without an error and without a failed check."""
        return self.answered and self.error is None and not self.problems


class Generator:
    """Single-threaded pipelining client over a read and an event connection.

    Reads go on ``read``; membership events on ``event`` so that a
    slow event never queues behind reads on the same socket (nor reads
    behind it).  A stale-generation answer is resent once, stamped
    with the generation the error carried, and stays timed from the
    original due time.  With a *speed* probe, the generator probes
    between requests whenever nothing is in flight.
    """

    def __init__(
        self,
        read: Connection,
        event: Connection | None = None,
        speed: SpeedProbe | None = None,
    ) -> None:
        self._read = read
        self._event = event
        self._speed = speed
        self._next_id = 1
        self._pending: dict[int, tuple[Connection, Outcome]] = {}
        self._selector = selectors.SelectSelector()
        for conn in (read, event):
            if conn is not None:
                self._selector.register(conn.sock, selectors.EVENT_READ, conn)
        self.stale_resends = 0
        self.late_s: list[float] = []

    def close(self) -> None:
        """Release the selector (the connections belong to the caller)."""
        self._selector.close()

    def _conn(self, op: Op) -> Connection:
        if op.is_event:
            if self._event is None:
                raise RuntimeError("no event connection for a membership op")
            return self._event
        return self._read

    def _frame(self, op: Op, generation: int | None = None) -> tuple[int, bytes]:
        request_id = self._next_id
        self._next_id += 1
        return request_id, encode_frame(
            encode_request(request_id, request_for(op, generation))
        )

    def _send(self, conn: Connection, request_id: int, frame: bytes, outcome: Outcome) -> None:
        self._pending[request_id] = (conn, outcome)
        conn.sock.sendall(frame)

    def _stalled(self, now: float) -> bool:
        """Whether nothing is in flight, or the oldest request has waited
        at least :data:`STALL_S` (so a probe cannot delay a prompt answer)."""
        if not self._pending:
            return True
        _, oldest = next(iter(self._pending.values()))
        return now - oldest.sent >= STALL_S

    def _pump(self, timeout: float) -> None:
        """Wait up to *timeout* s for answers and process them.

        The wait polls and yields instead of blocking: the generator
        shares its CPU with the server, and a CPU that never idles
        keeps the wake-up latency of an idle virtual CPU out of the
        measured times.  Yielding hands the CPU to the server whenever
        it has work.  With a speed probe, the wait probes instead of
        yielding when it is :meth:`_stalled` and the wait has more than
        :data:`PROBE_SLACK_S` left, so long waits (membership events and
        the reads queued behind them) are probed too.
        """
        end = time.perf_counter() + timeout
        while True:
            ready = self._selector.select(0)
            now = time.perf_counter()
            if ready or now >= end:
                break
            if (
                self._speed is not None
                and self._speed.due(now)
                and end - now > PROBE_SLACK_S
                and self._stalled(now)
            ):
                self._speed.probe()
            else:
                os.sched_yield()
        for key, _ in ready:
            conn: Connection = key.data
            data = conn.sock.recv(1 << 16)
            now = time.perf_counter()
            if not data:
                raise ConnectionError("server closed the connection")
            for message in conn.decoder.feed(data):
                request_id, response = decode_response(message)
                self._answer(request_id, response, now)

    def _answer(self, request_id: int, response: Response, now: float) -> None:
        conn, outcome = self._pending.pop(request_id)
        if (
            isinstance(response, ErrorResponse)
            and response.code == _STALE_CODE
            and not outcome.op.is_event
            and outcome.stale_resends < STALE_RESENDS
        ):
            outcome.stale_resends += 1
            self.stale_resends += 1
            resend_id, frame = self._frame(outcome.op, response.generation)
            self._send(conn, resend_id, frame, outcome)
            return
        outcome.done = now
        outcome.answered = True
        if isinstance(response, ResultResponse):
            outcome.results = (response.result,)
        elif isinstance(response, ResultBatchResponse):
            outcome.results = response.results
        elif isinstance(response, MembershipResponse):
            outcome.generation = response.generation
            outcome.rejoined = response.rejoined
        elif isinstance(response, ErrorResponse):
            outcome.error = f"code {response.code}: {response.message}"
        else:
            outcome.error = f"unexpected response {type(response).__name__}"

    def _drain(self, deadline: float) -> None:
        while self._pending:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                for _, outcome in self._pending.values():
                    outcome.error = "unanswered before the drain deadline"
                self._pending.clear()
                return
            self._pump(remaining)

    def run_closed(
        self, ops: tuple[Op, ...] | list[Op], until: float | None = None
    ) -> list[Outcome]:
        """Send *ops* one at a time, each after the previous answer.

        Stops early once ``perf_counter()`` passes *until*; returns the
        outcomes of the ops actually sent.
        """
        frames = [self._frame(op) for op in ops]
        outcomes: list[Outcome] = []
        for op, (request_id, frame) in zip(ops, frames):
            if self._speed is not None:
                self._speed.maybe_probe()
            now = time.perf_counter()
            if until is not None and now >= until:
                break
            outcome = Outcome(op, due=now, sent=now)
            outcomes.append(outcome)
            self._send(self._conn(op), request_id, frame, outcome)
            self._drain(now + DRAIN_TIMEOUT_S)
        return outcomes

    def run_open(
        self,
        ops: tuple[Op, ...],
        start: float,
        events: tuple[Op, ...] = (),
        first_event_s: float = 0.0,
        event_gap: float = 0.0,
    ) -> list[Outcome]:
        """Send each op at ``start + op.due`` whatever is still in flight.

        *events* go out one at a time beside the ops: the first at
        ``start + first_event_s``, each next one ``event_gap`` times the
        previous event's latency after that event is answered, until
        the ops are all sent.  Returns the outcomes of the ops and of
        the events sent, in due order.
        """
        frames = [self._frame(op) for op in ops]
        outcomes = [Outcome(op, due=start + op.due) for op in ops]
        event_frames = [self._frame(op) for op in events]
        sent_events: list[Outcome] = []
        next_event = start + first_event_s if events else math.inf
        position = 0
        while position < len(ops):
            now = time.perf_counter()
            while position < len(ops) and outcomes[position].due <= now:
                self._send_due(outcomes[position], frames[position])
                position += 1
            if next_event <= now:
                outcome = Outcome(events[len(sent_events)], due=next_event)
                self._send_due(outcome, event_frames[len(sent_events)])
                sent_events.append(outcome)
                next_event = math.inf
            elif sent_events and sent_events[-1].answered and len(sent_events) < len(events):
                last = sent_events[-1]
                next_event = max(last.done + event_gap * last.latency_s, now)
            if position < len(ops):
                wake = min(outcomes[position].due, next_event)
                if not self._pending and wake - time.perf_counter() > IDLE_SLEEP_S:
                    self._idle_until(wake)
                else:
                    self._pump(wake - time.perf_counter())
        self._drain(time.perf_counter() + DRAIN_TIMEOUT_S)
        return sorted(outcomes + sent_events, key=lambda outcome: outcome.due)

    def _idle_until(self, wake: float) -> None:
        """Probe if due, then sleep until :data:`IDLE_WAKE_S` before *wake*.

        With nothing in flight there is nothing to wait for.  Spinning
        through these gaps left some runs of the open loop in a mode
        where the server answered about twice as fast as in the others
        (read p50 0.36-0.46 ms against about 0.7 ms at the reference
        speed on a 2-vCPU virtual machine), so the p50 was bimodal
        across runs; sleeping through them was not.
        """
        if self._speed is not None:
            self._speed.maybe_probe()
        time.sleep(max(0.0, wake - IDLE_WAKE_S - time.perf_counter()))

    def _send_due(self, outcome: Outcome, frame: tuple[int, bytes]) -> None:
        request_id, data = frame
        self._send(self._conn(outcome.op), request_id, data, outcome)
        outcome.sent = time.perf_counter()
        self.late_s.append(outcome.sent - outcome.due)
