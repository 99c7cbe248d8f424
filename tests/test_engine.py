"""Event loop ordering, determinism, and seeded stream behavior."""

import hashlib
import io
import json
import math
import os
import random
import tracemalloc
from fractions import Fraction

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import cloudmarket.engine as engine_module
from cloudmarket.engine import (
    Event,
    SchedulingInPast,
    SimEngine,
    TraceRecorder,
    TraceStreamed,
    TraceWriterFailed,
    payload_digest,
    trace_line,
)
from cloudmarket.workload import Uniform, generate_requests, load_scenario, validate_scenario


def test_first_scheduled_event_gets_id_zero():
    engine = SimEngine()
    event_id = engine.schedule("ping", {}, fire_at=5)
    assert event_id == 0
    fired = []
    engine.on("ping", lambda ev: fired.append(ev.fire_at))
    engine.run_until(5)
    assert fired == [5]


def test_same_tick_events_fire_in_schedule_order():
    engine = SimEngine()
    seen = []
    engine.on("a", lambda ev: seen.append("a"))
    engine.on("b", lambda ev: seen.append("b"))
    engine.schedule("a", fire_at=4)
    engine.schedule("b", fire_at=4)
    engine.run_until(10)
    assert seen == ["a", "b"]


def test_scheduling_in_the_past_is_refused():
    engine = SimEngine()
    engine.run_until(7)
    with pytest.raises(SchedulingInPast):
        engine.schedule("late", fire_at=3)


def test_run_until_on_empty_queue_just_moves_the_clock():
    engine = SimEngine()
    recorder = TraceRecorder()
    engine.add_observer(recorder)
    engine.run_until(100)
    assert recorder.events == []
    assert engine.clock == 100


def test_run_until_fires_everything_due_in_order():
    engine = SimEngine()
    order = []
    engine.on("tick", lambda ev: order.append((ev.fire_at, ev.seq)))
    engine.schedule("tick", fire_at=1)
    engine.schedule("tick", fire_at=2)
    engine.schedule("tick", fire_at=1)
    engine.run_until(2)
    assert engine.pending == 0
    assert order == [(1, 0), (1, 2), (2, 1)]


def test_emit_lands_later_in_the_same_tick():
    engine = SimEngine()
    seen = []

    def on_first(ev):
        seen.append("first")
        engine.emit("second", {})

    engine.on("first", on_first)
    engine.on("second", lambda ev: seen.append("second"))
    engine.schedule("first", fire_at=3)
    engine.schedule("bystander", fire_at=3)
    engine.add_observer(lambda ev: None)
    engine.run_until(3)
    assert seen == ["first", "second"]
    assert engine.clock == 3


def test_priority_one_fires_after_the_whole_tick():
    # priority-1 events wait for every priority-0 event of their tick,
    # also those emitted while it runs; equal priorities keep seq order
    engine = SimEngine()
    fired = []

    def note(ev):
        fired.append((ev.fire_at, ev.kind, ev.seq))
        if ev.kind in ("late", "early") and ev.payload.get("emit"):
            engine.emit("echo", {})

    for kind in ("late", "early", "echo"):
        engine.on(kind, note)
    engine.schedule("late", {"emit": True}, fire_at=2, priority=1)   # seq 0
    engine.schedule("early", {"emit": True}, fire_at=2)              # seq 1
    engine.schedule("late", fire_at=2, priority=1)                   # seq 2
    engine.schedule("early", fire_at=1, priority=1)                  # seq 3
    engine.schedule("early", fire_at=2)                              # seq 4
    engine.drain()
    assert fired == [
        (1, "early", 3),
        (2, "early", 1), (2, "early", 4), (2, "echo", 5),
        (2, "late", 0), (2, "echo", 6), (2, "late", 2),
    ]


def test_drain_runs_past_follow_up_events():
    engine = SimEngine()
    hops = []

    def hop(ev):
        hops.append(engine.clock)
        if len(hops) < 4:
            engine.schedule("hop", fire_at=engine.clock + 10)

    engine.on("hop", hop)
    engine.schedule("hop", fire_at=1)
    engine.drain()
    assert hops == [1, 11, 21, 31]
    assert engine.clock == 31
    assert engine.pending == 0


def _traced_run(master_seed):
    engine = SimEngine()
    rng = random.Random(f"{master_seed}/arrivals")
    recorder = TraceRecorder()
    engine.add_observer(recorder)

    def arrival(ev):
        gap = rng.randint(1, 9)
        if ev.payload["n"] < 30:
            engine.schedule(
                "arrival", {"n": ev.payload["n"] + 1}, fire_at=engine.clock + gap
            )

    engine.on("arrival", arrival)
    engine.schedule("arrival", {"n": 0}, fire_at=0)
    engine.drain()
    return recorder


def test_identical_seed_gives_identical_trace():
    # oracle: run twice, compare byte-wise
    first = _traced_run(master_seed=11)
    second = _traced_run(master_seed=11)
    assert list(first.lines()) == list(second.lines())
    different = _traced_run(master_seed=12)
    assert list(different.lines()) != list(first.lines())


def test_trace_line_format_is_tab_separated():
    recorder = _traced_run(master_seed=5)
    line = next(recorder.lines())
    fire_at, seq, kind, digest = line.split("\t")
    assert (fire_at, seq, kind) == ("0", "0", "arrival")
    assert len(digest) == 16
    assert digest == payload_digest(recorder.events[0].payload)


def _sha256_of_lines(recorder):
    text = "\n".join(trace_line(ev) for ev in recorder.events)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_trace_digest_is_rendered_once_per_log_length_and_never_stale(monkeypatch):
    engine = SimEngine()
    recorder = TraceRecorder()
    engine.add_observer(recorder)
    renders = []
    lines = TraceRecorder.lines

    def counting_lines(self):
        renders.append(len(self.events))
        return lines(self)

    monkeypatch.setattr(TraceRecorder, "lines", counting_lines)
    engine.emit("a", {"x": 1})
    engine.drain()
    first = recorder.digest()
    assert recorder.digest() == first == _sha256_of_lines(recorder)
    assert renders == [1]
    # an event recorded after the render makes the kept digest stale
    engine.emit("b", {"y": 2})
    engine.drain()
    second = recorder.digest()
    assert recorder.digest() == second == _sha256_of_lines(recorder)
    assert second != first
    assert renders == [1, 2]


def _synthetic_log(count, sink=None, on_chunk=None):
    recorder = TraceRecorder(sink, on_chunk)
    for seq in range(count):
        recorder(Event(fire_at=seq // 7, seq=seq, kind="probe",
                       payload={"request_id": f"req{seq:06d}", "n": seq}))
    return recorder


@pytest.mark.parametrize("count", [0, 1, engine_module._CHUNK_LINES,
                                   2 * engine_module._CHUNK_LINES + 3])
def test_digest_sink_receives_the_lines_and_a_final_newline(count, tmp_path):
    path = tmp_path / "trace.log"
    with path.open("wb") as sink:
        streamed = _synthetic_log(count, sink)
        whole = _synthetic_log(count)
        digest = streamed.digest()
    expected = ("\n".join(whole.lines()) + "\n").encode("utf-8")
    assert path.read_bytes() == expected
    # the digest hashes the file less its final newline
    assert digest == hashlib.sha256(expected[:-1]).hexdigest()
    assert streamed.digest() == digest == whole.digest()
    assert streamed.count == whole.count == count
    # a second digest writes nothing more
    assert path.read_bytes() == expected


def test_a_sink_without_a_file_descriptor_is_refused():
    # the writer process writes to the sink's descriptor
    with pytest.raises(io.UnsupportedOperation):
        TraceRecorder(io.BytesIO())


def test_a_writer_that_cannot_write_fails_the_digest_and_is_reaped(tmp_path):
    path = tmp_path / "trace.log"
    path.write_bytes(b"")
    with path.open("rb") as read_only:
        recorder = _synthetic_log(3, read_only)
        with pytest.raises(TraceWriterFailed,
                           match=r"exited with status 1, replying \"OSError\(9, "):
            recorder.digest()
    recorder.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_closing_a_recorder_stops_its_writer_after_what_it_was_handed(tmp_path):
    # a failed run closes its recorder without a digest: the writer
    # writes every chunk it was handed, then is reaped
    path = tmp_path / "trace.log"
    count = 2 * engine_module._CHUNK_LINES + 3
    with path.open("wb") as sink:
        recorder = _synthetic_log(count, sink)
        recorder.close()
        recorder.close()
    lines = path.read_bytes().decode("utf-8").splitlines()
    assert lines == list(_synthetic_log(2 * engine_module._CHUNK_LINES).lines())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_digest_with_a_sink_holds_memory_flat_in_the_log_length():
    # the log is never held whole: peak memory while recording and
    # digesting a log four times longer stays within half again of the
    # shorter log's
    def peak(count):
        tracemalloc.start()
        try:
            with open(os.devnull, "wb") as sink:
                _synthetic_log(count, sink).digest()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10_000), peak(40_000)
    assert large <= 1.5 * small, (small, large)


def test_a_streaming_recorder_hands_over_each_chunk_once_and_holds_less(tmp_path):
    chunks = []
    count = 2 * engine_module._CHUNK_LINES + 3
    with (tmp_path / "trace.log").open("wb") as sink:
        recorder = TraceRecorder(sink, on_chunk=chunks.append)
        for seq in range(count):
            recorder(Event(fire_at=seq, seq=seq, kind="probe", payload={"n": seq}))
            assert len(recorder.held) < engine_module._CHUNK_LINES
            assert recorder.count == seq + 1
        assert [len(chunk) for chunk in chunks] == [engine_module._CHUNK_LINES] * 2
        # the chunks and what is still held are the log, each event once, in order
        streamed = [ev.seq for chunk in chunks for ev in chunk] + [ev.seq for ev in recorder.held]
        assert streamed == list(range(count))
        recorder.digest()
    assert recorder.held == [] and recorder.count == count


def test_a_streaming_recorder_gives_out_no_partial_log(tmp_path):
    with (tmp_path / "trace.log").open("wb") as sink:
        recorder = _synthetic_log(engine_module._CHUNK_LINES + 5, sink)
        with pytest.raises(TraceStreamed, match="no whole log"):
            recorder.events
        with pytest.raises(TraceStreamed, match="no whole log"):
            recorder.lines()
        recorder.digest()
    with pytest.raises(TraceStreamed, match="after the trace digest"):
        recorder(Event(fire_at=99, seq=99, kind="late", payload={}))
    # a recorder without a sink still gives out its whole log and takes
    # events after a digest, which it then renders again
    whole = _synthetic_log(3)
    first = whole.digest()
    whole(Event(fire_at=99, seq=99, kind="late", payload={}))
    assert len(whole.events) == 4 and whole.digest() != first


def test_payload_digest_is_key_order_insensitive():
    assert payload_digest({"a": 1, "b": 2}) == payload_digest({"b": 2, "a": 1})
    assert payload_digest({"a": 1}) != payload_digest({"a": 2})


@pytest.mark.parametrize("payload", [
    {"price": Fraction(7, 3), "sla": None},
    {"outer": {"b": [1, Fraction(1, 2), None], "a": {"z": 0, "y": "x"}}, "n": -4},
    {"items": [{"id": "req000001", "q": 3}, {"id": "req000002", "q": None}]},
    {},
    {"name": "Zürich – 東京 \U0001f600", "ctl": "tab\tnl\nnul\x00bell\x07\x7f", "q": '"\\'},
    {"yes": True, "no": False, "none": None, "list": [True, False, None]},
    {"frac": Fraction(-5, 8), "float": 0.1, "big": 1e300, "small": -2.5e-7, "int": 10**30},
    {"deep": [[1, [2, {"b": [], "a": {}}]], {"k": [{"z": "é", "y": [None]}]}]},
])
def test_payload_digest_matches_json_dumps(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    expected = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
    assert payload_digest(payload) == expected
    recorder = TraceRecorder()
    recorder(Event(fire_at=3, seq=7, kind="probe", payload=payload))
    assert list(recorder.lines()) == [f"3\t7\tprobe\t{expected}"]


def test_pure_python_encoder_renders_the_same_digest(monkeypatch):
    # without the C encoder the trace renders through JSONEncoder.iterencode
    payload = {"b": [Fraction(1, 3), None, True], "a": "ü\n", "f": 0.5}
    expected = payload_digest(payload)
    python_path = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str)
    monkeypatch.setattr(engine_module, "_encode_payload", python_path.iterencode)
    assert payload_digest(payload) == expected


def test_observers_see_events_handlers_ignore():
    engine = SimEngine()
    seen = []
    engine.add_observer(lambda ev: seen.append(ev.kind))
    engine.schedule("unhandled", fire_at=2)
    engine.run_until(2)
    assert seen == ["unhandled"]


def test_a_failed_handler_names_the_event_it_was_handling():
    engine = SimEngine()

    def boom(event):
        raise ValueError("planted")

    engine.on("boom", boom)
    engine.schedule("quiet", fire_at=1)
    engine.schedule("boom", fire_at=3)
    with pytest.raises(ValueError, match="planted") as caught:
        engine.drain()
    assert caught.value.__notes__ == ["while handling boom (seq 1) at t=3"]


# -- seeded streams -----------------------------------------------------------------
# the event loop draws nothing; `generate_requests` seeds one Random per
# request attribute, and each distribution draws from its own


def test_uniform_degenerate_support_returns_the_point():
    draw = Uniform(Fraction(0), Fraction(0)).sampler(random.Random(3))
    assert draw() == 0


def test_streams_are_isolated():
    # oracle: generate, then again with the volume and cpu_need
    # distributions changed; attributes drawn from other streams stay
    raw = yaml.safe_load(open("scenarios/smoke.yaml", encoding="utf-8"))
    base = generate_requests(validate_scenario(raw), 9)
    raw["workload"]["volume"] = {"kind": "choice", "values": [5, 500], "weights": [1, 3]}
    raw["workload"]["cpu_need"] = {"kind": "uniform_int", "low": 1, "high": 16}
    changed = generate_requests(validate_scenario(raw), 9)

    def others(r):
        return (r.request_id, r.submit_time, r.consumer_id, r.qos.mem_need)

    assert [r.workload_volume for r in changed] != [r.workload_volume for r in base]
    assert [others(r) for r in changed] == [others(r) for r in base]


def test_stream_seed_derivation_is_reproducible():
    # each stream is Random(f"{master_seed}/{name}"), whatever the others draw
    scenario = load_scenario("scenarios/smoke.yaml")  # poisson 1/10, volume 20..80
    first = generate_requests(scenario, 77)[0]
    gap = -math.log(1.0 - random.Random("77/arrival").random()) / 0.1
    assert first.submit_time == int(gap)
    assert first.workload_volume == 20 + int(random.Random("77/volume").random() * 61)


@settings(max_examples=200)
@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=50),
)
def test_firing_order_is_total_and_stable(fire_ats, t_end):
    engine = SimEngine()
    fired = []
    engine.on("e", lambda ev: fired.append((ev.fire_at, ev.seq)))
    for at in fire_ats:
        engine.schedule("e", fire_at=at)
    engine.run_until(t_end)
    due = sorted(
        ((at, seq) for seq, at in enumerate(fire_ats) if at <= t_end),
    )
    assert fired == due
    assert engine.clock == max([t_end] + [at for at, _ in fired])


def test_events_fire_in_fire_at_seq_order_without_comparing_events():
    # payloads hold None and Fraction, and events define no ordering, so
    # the heap must order entries by (fire_at, seq) alone
    with pytest.raises(TypeError):
        Event(1, 0, "e", {}) < Event(1, 1, "e", {})
    for seed in range(40):
        rng = random.Random(seed)
        engine = SimEngine()
        scheduled = []
        fired = []

        def payload():
            return {"price": Fraction(rng.randint(1, 9), rng.randint(1, 9)), "sla": None}

        def on_event(ev):
            fired.append((ev.fire_at, ev.seq))
            if len(scheduled) >= 150:
                return
            for _ in range(rng.randint(0, 2)):
                choice = rng.random()
                if choice < 0.35:
                    seq = engine.emit("e", payload())
                    scheduled.append((engine.clock, seq))
                elif choice < 0.7:
                    seq = engine.schedule("e", payload(), fire_at=engine.clock)
                    scheduled.append((engine.clock, seq))
                else:
                    at = engine.clock + rng.randint(1, 5)
                    scheduled.append((at, engine.schedule("e", payload(), fire_at=at)))

        engine.on("e", on_event)
        for _ in range(rng.randint(1, 20)):
            at = rng.randint(0, 10)
            scheduled.append((at, engine.schedule("e", payload(), fire_at=at)))
        engine.drain()
        assert fired == sorted(scheduled), seed
        assert engine.pending == 0


def test_emit_goes_through_schedule(monkeypatch):
    calls = []
    original = SimEngine.schedule

    def counting(engine, kind, payload=None, fire_at=0):
        calls.append((kind, fire_at))
        return original(engine, kind, payload, fire_at)

    monkeypatch.setattr(SimEngine, "schedule", counting)
    engine = SimEngine()
    engine.run_until(4)
    engine.emit("note", {"x": None})
    assert calls == [("note", 4)]
