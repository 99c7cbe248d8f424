"""Deterministic discrete-event kernel.

Integer tick clock, a heap-ordered event queue with (fire_at, priority,
seq) ordering, and line-delimited trace emission. Every other component
runs on top of this loop. The loop draws no random numbers: the only
randomness is the request trace, which `workload.generate_requests`
seeds from (scenario, master_seed), so a run is a pure function of the
two.

The trace is the run's record of every fired event. Given a sink, the
recorder writes it there a chunk at a time while the run fires and
drops what it has written, so a run never holds more than one chunk of
its log; without one it keeps the whole log in memory for its readers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import islice
from typing import BinaryIO, Callable, Iterator
import heapq

SimTime = int


class SchedulingInPast(Exception):
    """fire_at is earlier than the current clock."""


class TraceStreamed(Exception):
    """A recorder that streams to a sink was asked for its whole log, or
    given an event after its digest."""


@dataclass(slots=True)
class Event:
    fire_at: int
    seq: int
    kind: str
    payload: dict


# built once; every trace digest depends on exactly these settings:
# default=str, ensure_ascii, ":" and "," separators, sort_keys.
# JSONEncoder.encode would build a fresh C encoder on every call.
if json.encoder.c_make_encoder is not None:
    _encode_payload = json.encoder.c_make_encoder(
        None, str, json.encoder.encode_basestring_ascii, None, ":", ",", True, False, True,
    )
else:
    _encode_payload = json.JSONEncoder(
        sort_keys=True, separators=(",", ":"), default=str,
    ).iterencode


def payload_digest(payload: dict) -> str:
    """Stable short digest of an event payload for the trace file."""
    blob = "".join(_encode_payload(payload, 0))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def trace_line(event: Event) -> str:
    return f"{event.fire_at}\t{event.seq}\t{event.kind}\t{payload_digest(event.payload)}"


class SimEngine:
    """Single-threaded event loop with deterministic ordering.

    Handlers are registered per event kind; observers see every fired
    event (metrics, trace writers). Events fire in (fire_at, priority,
    seq) order: within a tick every priority-0 event fires before any
    priority-1 event, including priority-0 events emitted while the
    tick runs, and equal priorities fire in scheduling order because
    seq strictly increases. VM provisions are the only priority-1
    events, so a tick's completions and releases free their machines
    first; what a provision emits (`vm_provision`, `dispatch`) is
    priority 0 and precedes the tick's next provision. The trace lists
    events in firing order, so seq is not monotone within a tick.
    """

    def __init__(self) -> None:
        self.clock: int = 0
        self._queue: list[tuple[int, int, int, Event]] = []  # (fire_at, priority, seq, event)
        self._next_seq = 0
        self._handlers: dict[str, Callable[[Event], None]] = {}
        self._observers: list[Callable[[Event], None]] = []

    # -- wiring -----------------------------------------------------------

    def on(self, kind: str, handler: Callable[[Event], None]) -> None:
        self._handlers[kind] = handler

    def add_observer(self, observer: Callable[[Event], None]) -> None:
        self._observers.append(observer)

    def clear_handlers(self) -> None:
        """Forget every handler, so that a handler's owner that holds this
        engine stops being a reference cycle once its run is over."""
        self._handlers.clear()

    # -- scheduling -------------------------------------------------------

    def schedule(
        self, kind: str, payload: dict | None = None, fire_at: int = 0, priority: int = 0,
    ) -> int:
        if fire_at < self.clock:
            raise SchedulingInPast(f"fire_at={fire_at} < clock={self.clock}")
        seq = self._next_seq
        self._next_seq = seq + 1
        # seq is unique, so the heap never compares two events
        heapq.heappush(
            self._queue, (fire_at, priority, seq, Event(fire_at, seq, kind, payload or {})),
        )
        return seq

    def emit(self, kind: str, payload: dict | None = None) -> int:
        """Record an observation as a same-tick event."""
        return self.schedule(kind, payload, self.clock)

    # -- execution --------------------------------------------------------

    def run_until(self, t_end: int) -> None:
        queue = self._queue
        observers = self._observers
        handler_for = self._handlers.get
        pop = heapq.heappop
        while queue and queue[0][0] <= t_end:
            event = pop(queue)[3]
            self.clock = event.fire_at
            for observer in observers:
                observer(event)
            handler = handler_for(event.kind)
            if handler is not None:
                handler(event)
        self.clock = max(self.clock, t_end)

    def drain(self) -> None:
        """Run until the queue is empty, however far past t_end that goes."""
        while self._queue:
            self.run_until(self._queue[0][0])

    @property
    def pending(self) -> int:
        return len(self._queue)


# trace lines joined, encoded, hashed and written at a time: enough to
# amortize the per-chunk calls, few enough that a streamed run holds
# little of its log
_CHUNK_LINES = 4096


class TraceRecorder:
    """The run's one event log: every fired event, in firing order.

    The trace file's lines are the rendered events, joined by newlines
    and ended by one; its digest is the sha256 of the lines joined.

    Without a sink the recorder keeps every event: `events` and
    `lines()` give the whole log, and `digest()` renders it on first
    read, a chunk at a time, keeping the digest until the log grows.
    A run that reads neither renders nothing.

    With a binary sink the recorder streams instead. Each time
    `_CHUNK_LINES` events are held it hands them to `on_chunk`, renders,
    hashes and writes them, and drops them. `digest()` writes what is
    still held and the final newline, keeps the digest and closes the
    log. Such a recorder has no whole log to give out, so `events` and
    `lines()` raise, as does recording after the digest; `held` is the
    part not yet written.
    """

    def __init__(
        self,
        sink: BinaryIO | None = None,
        on_chunk: Callable[[list[Event]], None] | None = None,
    ) -> None:
        self._sink = sink
        self._on_chunk = on_chunk
        self._held: list[Event] = []
        self._written = 0  # events rendered to the sink and dropped
        self._sha = hashlib.sha256()  # of what the sink was given, less its final newline
        self._digest: tuple[int, str] | None = None  # (events rendered, sha256)
        # a recorder without a sink only appends: the same work per event as
        # a list.  The bound `_stream` is a reference cycle until the digest
        # replaces it, so a finished streamed run is freed by reference counting
        self._record = self._held.append if sink is None else self._stream

    def __call__(self, event: Event) -> None:
        self._record(event)

    @property
    def count(self) -> int:
        """Events recorded so far, written or held."""
        return self._written + len(self._held)

    @property
    def held(self) -> list[Event]:
        """The events not yet written: the whole log without a sink."""
        return self._held

    @property
    def events(self) -> list[Event]:
        if self._sink is not None:
            raise TraceStreamed(
                f"the trace streams to its sink and holds {len(self._held)} of "
                f"{self.count} events; it has no whole log to give out"
            )
        return self._held

    def lines(self) -> Iterator[str]:
        return map(trace_line, self.events)

    def digest(self) -> str:
        if self._sink is not None:
            if self._digest is None:
                self._write(self._held)
                self._held = []
                self._sink.write(b"\n")
                self._digest = (self._written, self._sha.hexdigest())
                self._record = _refuse_after_digest
            return self._digest[1]
        # the log only grows, so its length says whether the digest is stale
        if self._digest is None or self._digest[0] != len(self._held):
            sha = hashlib.sha256()
            lines = self.lines()
            separator = b""
            while chunk := list(islice(lines, _CHUNK_LINES)):
                sha.update(separator + "\n".join(chunk).encode("utf-8"))
                separator = b"\n"
            self._digest = (len(self._held), sha.hexdigest())
        return self._digest[1]

    # -- streaming ----------------------------------------------------------

    def _stream(self, event: Event) -> None:
        held = self._held
        held.append(event)
        if len(held) >= _CHUNK_LINES:
            chunk, self._held = held, []
            if self._on_chunk is not None:
                self._on_chunk(chunk)
            self._write(chunk)

    def _write(self, events: list[Event]) -> None:
        if not events:
            return
        data = "\n".join(map(trace_line, events)).encode("utf-8")
        if self._written:
            data = b"\n" + data
        self._sha.update(data)
        self._sink.write(data)
        self._written += len(events)


def _refuse_after_digest(event: Event) -> None:
    raise TraceStreamed(
        f"{event.kind} (seq {event.seq}) recorded after the trace digest was taken"
    )
