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
from typing import Callable
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


class TraceRecorder:
    """The run's one event log: every fired event, in firing order.

    The cross-check and the trace file read this list.  `lines()`
    renders it as the trace file's lines; `text()` joins them on first
    call and keeps the text until the log grows, and `digest()` is the
    sha256 of that text.  A run that reads neither renders nothing.
    """

    def __init__(self) -> None:
        self.events: list[Event] = []
        self._text: tuple[int, str] | None = None  # (events rendered, text)

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def lines(self) -> list[str]:
        return [trace_line(ev) for ev in self.events]

    def text(self) -> str:
        # the log only grows, so its length says whether the text is stale
        if self._text is None or self._text[0] != len(self.events):
            self._text = (len(self.events), "\n".join(self.lines()))
        return self._text[1]

    def digest(self) -> str:
        return hashlib.sha256(self.text().encode("utf-8")).hexdigest()
