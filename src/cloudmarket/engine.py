"""Deterministic discrete-event kernel.

Integer tick clock, a heap-ordered event queue with (fire_at, priority,
seq) ordering, and line-delimited trace emission. Every other component
runs on top of this loop. The loop draws no random numbers: the only
randomness is the request trace, which `workload.generate_requests`
seeds from (scenario, master_seed), so a run is a pure function of the
two.
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


# trace lines joined, encoded and hashed at a time: enough to amortize
# the per-chunk calls, few enough that no whole-trace string is held
_CHUNK_LINES = 4096


class TraceRecorder:
    """The run's one event log: every fired event, in firing order.

    The cross-check and the trace file read this list.  `lines()`
    renders it lazily as the trace file's lines.  `digest()` is the
    sha256 of those lines joined by newlines, rendered, encoded and
    hashed a chunk at a time; given a binary sink it also writes each
    chunk there, plus the file's final newline, so one pass yields both
    the file and its digest.  The digest is kept until the log grows.
    A run that reads neither renders nothing.
    """

    def __init__(self) -> None:
        self.events: list[Event] = []
        self._digest: tuple[int, str] | None = None  # (events rendered, sha256)

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def lines(self) -> Iterator[str]:
        return map(trace_line, self.events)

    def digest(self, sink: BinaryIO | None = None) -> str:
        # the log only grows, so its length says whether the digest is stale
        if sink is None and self._digest is not None and self._digest[0] == len(self.events):
            return self._digest[1]
        sha = hashlib.sha256()
        lines = self.lines()
        separator = b""
        while chunk := list(islice(lines, _CHUNK_LINES)):
            data = separator + "\n".join(chunk).encode("utf-8")
            separator = b"\n"
            sha.update(data)
            if sink is not None:
                sink.write(data)
        if sink is not None:
            sink.write(b"\n")
        self._digest = (len(self.events), sha.hexdigest())
        return self._digest[1]
