"""Deterministic discrete-event kernel.

Integer tick clock, a heap-ordered event queue with (fire_at, priority,
seq) ordering, and line-delimited trace emission. Every other component
runs on top of this loop. The loop draws no random numbers: the only
randomness is the request trace, which `workload.generate_requests`
seeds from (scenario, master_seed), so a run is a pure function of the
two.

The trace is the run's record of every fired event. Given a sink, the
recorder hands it a chunk at a time, while the run fires, to one writer
process and drops what it has handed over, so a run never holds more
than one chunk of its log; without one it keeps the whole log in memory
for its readers. The writer is forked (POSIX `os.fork`) when the first
chunk is due; it renders, hashes and writes the lines to the sink's
file descriptor, so the sink must be a real binary file, and it replies
with the digest once the log ends. A writer that dies or replies
without a digest fails the run with `TraceWriterFailed`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
from dataclasses import dataclass
from itertools import chain, islice
from typing import BinaryIO, Callable, Iterator, NoReturn
import heapq

SimTime = int


class SchedulingInPast(Exception):
    """fire_at is earlier than the current clock."""


class TraceStreamed(Exception):
    """A recorder that streams to a sink was asked for its whole log, or
    given an event after its digest."""


class TraceWriterFailed(Exception):
    """The process writing a streamed trace died or replied without a digest."""


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
    return _line(event.fire_at, event.seq, event.kind, event.payload)


def _line(fire_at: int, seq: int, kind: str, payload: dict) -> str:
    """The one trace line format; the writer process renders from an
    event's fields without rebuilding the event."""
    return f"{fire_at}\t{seq}\t{kind}\t{payload_digest(payload)}"


def _rendered(lines: Iterator[str]) -> Iterator[bytes]:
    """The trace file less its final newline, `_CHUNK_LINES` lines at a
    time: each chunk's lines joined, every chunk after the first behind
    the newline that ends the line before it."""
    separator = b""
    while chunk := list(islice(lines, _CHUNK_LINES)):
        yield separator + "\n".join(chunk).encode("utf-8")
        separator = b"\n"


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
        event = None
        try:
            while queue and queue[0][0] <= t_end:
                event = pop(queue)[3]
                self.clock = event.fire_at
                for observer in observers:
                    observer(event)
                handler = handler_for(event.kind)
                if handler is not None:
                    handler(event)
        except Exception as exc:
            if event is not None:
                exc.add_note(
                    f"while handling {event.kind} (seq {event.seq}) at t={event.fire_at}"
                )
            raise
        self.clock = max(self.clock, t_end)

    def drain(self) -> None:
        """Run until the queue is empty, however far past t_end that goes."""
        while self._queue:
            self.run_until(self._queue[0][0])

    @property
    def pending(self) -> int:
        return len(self._queue)


# trace lines handed to the writer, then rendered, hashed and written, at
# a time: enough to amortize the per-chunk calls, few enough that a
# streamed run holds little of its log
_CHUNK_LINES = 4096


class TraceRecorder:
    """The run's one event log: every fired event, in firing order.

    The trace file's lines are the rendered events, joined by newlines
    and ended by one; its digest is the sha256 of the lines joined.

    Without a sink the recorder keeps every event: `events` and
    `lines()` give the whole log, and `digest()` renders it on first
    read, a chunk at a time, keeping the digest until the log grows.
    A run that reads neither renders nothing.

    With a sink, a binary file with a `fileno()`, the recorder streams
    instead. Each time `_CHUNK_LINES` events are held it hands them to
    `on_chunk`, then to its writer process, which it starts for the
    first chunk, and drops them; the writer renders, hashes and writes
    them while the run goes on. `digest()` hands over what is still
    held, waits for the writer to write it and the final newline, keeps
    the digest the writer replies with and closes the log. Such a
    recorder has no whole log to give out, so `events` and `lines()`
    raise, as does recording after the digest; `held` is the part not
    yet handed over. `close()` stops a writer that no digest has
    stopped, so a failed run leaves no process behind.
    """

    def __init__(
        self,
        sink: BinaryIO | None = None,
        on_chunk: Callable[[list[Event]], None] | None = None,
    ) -> None:
        self._sink = sink
        # the writer writes to the sink's descriptor: a sink without one
        # is refused here, not in the middle of a run
        self._sink_fd = None if sink is None else sink.fileno()
        self._on_chunk = on_chunk
        self._writer: _TraceWriter | None = None
        self._held: list[Event] = []
        self._written = 0  # events handed to the writer and dropped
        self._digest: tuple[int, str] | None = None  # (events rendered, sha256)
        # a recorder without a sink only appends: the same work per event as
        # a list.  The bound `_stream` is a reference cycle until the digest
        # replaces it, so a finished streamed run is freed by reference counting
        self._record = self._held.append if sink is None else self._stream

    def __call__(self, event: Event) -> None:
        self._record(event)

    @property
    def count(self) -> int:
        """Events recorded so far, handed to the writer or held."""
        return self._written + len(self._held)

    @property
    def held(self) -> list[Event]:
        """The events not yet handed to the writer: the whole log without a sink."""
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
                self._hand_over(self._held)
                self._held = []
                self._digest = (self._written, self._writer.finish())
                self._record = _refuse_after_digest
            return self._digest[1]
        # the log only grows, so its length says whether the digest is stale
        if self._digest is None or self._digest[0] != len(self._held):
            sha = hashlib.sha256()
            for data in _rendered(self.lines()):
                sha.update(data)
            self._digest = (len(self._held), sha.hexdigest())
        return self._digest[1]

    def close(self) -> None:
        """Stop the writer if no digest has: it writes what it was handed
        and exits, and is reaped before this returns."""
        if self._writer is not None:
            self._writer.stop()

    # -- streaming ----------------------------------------------------------

    def _stream(self, event: Event) -> None:
        held = self._held
        held.append(event)
        if len(held) >= _CHUNK_LINES:
            chunk, self._held = held, []
            if self._on_chunk is not None:
                self._on_chunk(chunk)
            self._hand_over(chunk)

    def _hand_over(self, events: list[Event]) -> None:
        if self._writer is None:
            # what the sink's own buffer holds goes ahead of the lines
            self._sink.flush()
            self._writer = _TraceWriter(self._sink_fd)
        if events:
            self._writer.send(events)
            self._written += len(events)


def _refuse_after_digest(event: Event) -> None:
    raise TraceStreamed(
        f"{event.kind} (seq {event.seq}) recorded after the trace digest was taken"
    )


# -- the writer process ---------------------------------------------------------

class _TraceWriter:
    """One forked process that renders, hashes and writes a streamed trace.

    The parent pickles each chunk's events as four columns (fire_at,
    seq, kind, payload) and sends them down one pipe behind their
    length; the worker renders them, column by column, in the format of
    `trace_line` and writes the lines to the sink's descriptor. At the
    end of its input it writes the final newline and replies on a
    second pipe with the digest, or with what went wrong, and exits.
    Either way the parent reaps it, after which the writer takes nothing
    more.
    """

    def __init__(self, sink_fd: int) -> None:
        source, self._pipe = os.pipe()
        self._reply, reply = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (source, self._pipe, self._reply, reply):
                os.close(fd)
            raise
        if self.pid == 0:
            _work(source, sink_fd, reply)
        os.close(source)
        os.close(reply)
        self._running = True

    def send(self, events: list[Event]) -> None:
        # loaded by the first chunk streamed, not by every run
        import pickle

        self._check_running()
        columns = (
            [e.fire_at for e in events], [e.seq for e in events],
            [e.kind for e in events], [e.payload for e in events],
        )
        data = pickle.dumps(columns, pickle.HIGHEST_PROTOCOL)
        # led by its length, so the worker takes the whole chunk off the
        # pipe before it unpickles any of it
        view = memoryview(len(data).to_bytes(8, "little") + data)
        try:
            while view:
                view = view[os.write(self._pipe, view):]
        except BrokenPipeError:
            # the worker has exited: its reply and its status say why
            raise self._failure(*self._end()) from None

    def finish(self) -> str:
        """End the input and return the digest the worker replies with."""
        self._check_running()
        reply, status = self._end()
        if status != 0 or len(reply) != 64:
            raise self._failure(reply, status)
        return reply.decode("ascii")

    def stop(self) -> None:
        if self._running:
            self._end()

    def _check_running(self) -> None:
        if not self._running:
            raise TraceWriterFailed(f"trace writer (pid {self.pid}) has already been reaped")

    def _end(self) -> tuple[bytes, int]:
        """Close the input, read the whole reply and reap the worker."""
        self._running = False
        os.close(self._pipe)
        try:
            parts = []
            while part := os.read(self._reply, 4096):
                parts.append(part)
        finally:
            os.close(self._reply)
            _, status = os.waitpid(self.pid, 0)
        return b"".join(parts), status

    def _failure(self, reply: bytes, status: int) -> TraceWriterFailed:
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        return TraceWriterFailed(
            f"trace writer (pid {self.pid}) {how}, replying "
            f"{reply.decode('utf-8', 'replace')!r} instead of a digest"
        )


def _work(source: int, sink_fd: int, reply: int) -> NoReturn:
    """The forked worker's whole life: serve the pipe, reply, and leave
    through `os._exit`, so it never runs the parent's exit handlers or
    flushes the parent's buffers."""
    status, answer = 1, "nothing: the writer was interrupted"
    try:
        # the inherited heap is never collected here, so its pages stay shared
        gc.disable()
        # keep only this end of each pipe and the sink: a write end held
        # here, of this run's pipe or another's, would keep its reader
        # from ever seeing the end of its input
        low = 3
        for fd in sorted({source, sink_fd, reply, os.sysconf("SC_OPEN_MAX")}):
            if fd >= low:
                os.closerange(low, fd)
                low = fd + 1
        answer = _serve(source, sink_fd)
        status = 0
    except Exception as exc:
        answer = repr(exc)
    finally:
        try:
            os.write(reply, answer.encode("utf-8"))
        finally:
            os._exit(status)


def _serve(source: int, sink_fd: int) -> str:
    """Render, hash and write each chunk the pipe brings; at its end,
    write the final newline and return the digest."""
    sha = hashlib.sha256()
    with open(source, "rb") as pipe, open(sink_fd, "wb", closefd=False) as sink:
        lines = chain.from_iterable(map(_line, *columns) for columns in _received(pipe))
        for data in _rendered(lines):
            sha.update(data)
            sink.write(data)
        sink.write(b"\n")
    return sha.hexdigest()


def _received(pipe: BinaryIO) -> Iterator[tuple[list, list, list, list]]:
    import pickle

    while header := pipe.read(8):
        yield pickle.loads(pipe.read(int.from_bytes(header, "little")))
