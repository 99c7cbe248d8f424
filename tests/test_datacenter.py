"""Machines, VM lifecycle, and the commitment calendar."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cloudmarket.datacenter import (
    Block,
    CapacityViolation,
    Datacenter,
    InsufficientCapacity,
    MachineCalendar,
    UnknownVm,
    fleet_specs,
)
from cloudmarket.engine import SimEngine, TraceRecorder


def hosted_usage(dc, machine_id):
    """(cpu, mem) held by the VMs a machine hosts."""
    vms = [dc.vms[v] for v in dc.hosted[machine_id]]
    return sum(vm.cpu_entitlement for vm in vms), sum(vm.mem_entitlement for vm in vms)


def provision(dc, cpu, mem, at, machine_id, request_id="req000001", volume=1):
    """Start a VM that runs one request of `volume` cu-ticks."""
    return dc.provision_vm(request_id, cpu, mem, volume, at=at, machine_id=machine_id)


def make_dc(specs, boot_delay=0):
    engine = SimEngine()
    recorder = TraceRecorder(engine)
    dc = Datacenter(engine, "prov", specs, boot_delay=boot_delay)
    return engine, recorder, dc


def test_fresh_datacenter_is_idle():
    _, _, dc = make_dc([("m1", 4, 16), ("m2", 8, 32)])
    assert dc.total_cpu_capacity == 12
    assert dc.committed_cpu_at(0) == 0
    assert not dc.vms
    assert not dc.hosted["m1"]
    # the whole machine is free: a full-size VM fits, one cu more does not
    with pytest.raises(InsufficientCapacity):
        provision(dc, 5, 16, at=0, machine_id="m1")
    provision(dc, 4, 16, at=0, machine_id="m1")


def test_single_machine_placement():
    _, _, dc = make_dc([("m1", 4, 16)])
    vm_id = provision(dc, 1, 4, at=0, machine_id="m1")
    assert dc.vms[vm_id].host == "m1"
    assert dc.hosted["m1"] == {vm_id}
    assert hosted_usage(dc, "m1") == (1, 4)
    # 3 cu are left
    with pytest.raises(InsufficientCapacity):
        provision(dc, 4, 1, at=0, machine_id="m1")
    provision(dc, 3, 1, at=0, machine_id="m1")


def test_full_fleet_refuses_more_vms():
    _, _, dc = make_dc([("m1", 2, 8)])
    provision(dc, 2, 8, at=0, machine_id="m1")
    with pytest.raises(InsufficientCapacity):
        provision(dc, 1, 1, at=0, machine_id="m1")


def test_release_returns_all_capacity():
    _, _, dc = make_dc([("m1", 4, 16)])
    vm_id = provision(dc, 4, 16, at=0, machine_id="m1")
    dc.release_vm(vm_id, at=5)
    assert not dc.hosted["m1"]
    assert hosted_usage(dc, "m1") == (0, 0)
    provision(dc, 4, 16, at=5, machine_id="m1")


def test_release_then_equal_provision_same_tick():
    _, _, dc = make_dc([("m1", 4, 16)])
    first = provision(dc, 4, 16, at=0, machine_id="m1")
    dc.release_vm(first, at=3)
    second = provision(dc, 4, 16, at=3, machine_id="m1")
    assert second != first
    assert dc.hosted["m1"] == {second}
    assert hosted_usage(dc, "m1") == (4, 16)
    with pytest.raises(InsufficientCapacity):
        provision(dc, 1, 1, at=3, machine_id="m1")


def test_release_unknown_vm():
    _, _, dc = make_dc([("m1", 4, 16)])
    with pytest.raises(UnknownVm):
        dc.release_vm("prov-vm99999", at=0)


def test_double_release_is_refused():
    _, _, dc = make_dc([("m1", 4, 16)])
    vm_id = provision(dc, 1, 1, at=0, machine_id="m1")
    dc.release_vm(vm_id, at=1)
    assert vm_id not in dc.vms
    with pytest.raises(UnknownVm, match=vm_id):
        dc.release_vm(vm_id, at=2)


def test_boot_delay_gates_vm_state():
    engine, recorder, dc = make_dc([("m1", 4, 16)], boot_delay=3)
    engine.run_until(10)
    vm_id = provision(dc, 1, 1, at=10, machine_id="m1")
    assert dc.vms[vm_id].ready_at == 13
    engine.drain()
    booted = [ev for ev in recorder.events if ev.kind == "vm_booted"]
    assert [(ev.fire_at, ev.payload["vm_id"]) for ev in booted] == [(13, vm_id)]


def replay_usage(events, machine_id):
    """(cpu, mem) a machine holds after replaying vm_provision/vm_release."""
    cpu = mem = 0
    for ev in events:
        if ev.payload.get("machine") != machine_id:
            continue
        sign = {"vm_provision": 1, "vm_release": -1}.get(ev.kind, 0)
        cpu += sign * ev.payload["cpu"]
        mem += sign * ev.payload["mem"]
    return cpu, mem


def test_snapshot_matches_independent_trace_replay():
    # oracle: reduce the event trace with separate bookkeeping, then
    # compare against the live machines and VMs; a provision is refused
    # exactly when the replayed usage plus the new VM exceeds capacity
    engine, recorder, dc = make_dc(
        [("m1", 4, 16), ("m2", 8, 32)], boot_delay=2
    )
    rng = random.Random(7)
    live = []
    refused = 0
    for step in range(60):
        at = step
        engine.run_until(at)
        if rng.random() < 0.5:
            cpu, mem = rng.randint(1, 3), rng.randint(1, 8)
            machine_id = rng.choice(["m1", "m2"])
            used_cpu, used_mem = replay_usage(recorder.events, machine_id)
            m = dc.calendars[machine_id]
            overflows = used_cpu + cpu > m.cpu_capacity or used_mem + mem > m.mem_capacity
            refused += overflows
            try:
                live.append(provision(
                    dc, cpu, mem, at=at, machine_id=machine_id, request_id=f"req{step:06d}",
                ))
            except InsufficientCapacity:
                assert overflows
            else:
                assert not overflows
        elif live and rng.random() < 0.7:
            victim = live.pop(rng.randrange(len(live)))
            dc.release_vm(victim, at=at)
    engine.drain()
    now = engine.clock
    assert refused > 0
    assert live

    hosted = {machine_id: set() for machine_id in dc.calendars}
    vms = {}
    for ev in recorder.events:
        p = ev.payload
        if ev.kind == "vm_provision":
            hosted[p["machine"]].add(p["vm_id"])
            state = "Running" if now >= p["ready_at"] else "Starting"
            vms[p["vm_id"]] = {
                "host": p["machine"], "cpu": p["cpu"], "mem": p["mem"], "state": state,
            }
        elif ev.kind == "vm_release":
            hosted[p["machine"]].discard(p["vm_id"])
            del vms[p["vm_id"]]

    for machine_id, reduced in hosted.items():
        assert dc.hosted[machine_id] == reduced
        assert hosted_usage(dc, machine_id) == replay_usage(recorder.events, machine_id)

    # only the VMs never released are left, each as the trace describes it
    assert set(dc.vms) == set(vms) == set(live)
    assert {
        v: (vm.host, vm.cpu_entitlement, vm.mem_entitlement,
            "Running" if now >= vm.ready_at else "Starting")
        for v, vm in dc.vms.items()
    } == {v: (d["host"], d["cpu"], d["mem"], d["state"]) for v, d in vms.items()}


def test_dispatch_completion_arithmetic():
    # 100 cu-ticks on a 4-cu VM from t=10 finishes at t=35
    engine, recorder, dc = make_dc([("m1", 4, 16)])
    provision(dc, 4, 1, at=10, machine_id="m1", volume=100)
    engine.drain()
    completion = [ev for ev in recorder.events if ev.kind == "completion"][0]
    assert completion.fire_at == 35


def test_dispatch_rounds_partial_ticks_up():
    # 10 cu-ticks on 4 cu takes ceil(2.5) = 3 ticks
    engine, recorder, dc = make_dc([("m1", 4, 16)])
    provision(dc, 4, 1, at=0, machine_id="m1", volume=10)
    engine.drain()
    assert [ev for ev in recorder.events if ev.kind == "completion"][0].fire_at == 3


def test_dispatch_waits_for_boot():
    engine, recorder, dc = make_dc([("m1", 4, 16)], boot_delay=5)
    vm_id = provision(dc, 4, 1, at=0, machine_id="m1", volume=4)
    engine.drain()
    # the boot is scheduled before the dispatch is emitted, so seq follows
    # the order of the calls and not the order the events fire in
    assert [(ev.kind, ev.fire_at, ev.seq) for ev in recorder.events] == [
        ("vm_provision", 0, 0), ("dispatch", 0, 2), ("vm_booted", 5, 1), ("completion", 6, 3),
    ]
    dispatch = recorder.events[1].payload
    assert (dispatch["request_id"], dispatch["vm_id"]) == ("req000001", vm_id)
    assert (dispatch["start"], dispatch["completion"], dispatch["volume"]) == (5, 6, 4)
    completion = recorder.events[3].payload
    assert (completion["request_id"], completion["vm_id"], completion["start"]) == (
        "req000001", vm_id, 5,
    )


def test_fleet_specs_expand_groups():
    specs = fleet_specs("prov", [
        {"count": 2, "cpu_capacity": 4, "mem_capacity": 16},
        {"count": 1, "cpu_capacity": 8, "mem_capacity": 32},
    ])
    assert specs == [
        ("prov-m000", 4, 16), ("prov-m001", 4, 16), ("prov-m002", 8, 32),
    ]


# -- commitment calendar ---------------------------------------------------------


def test_calendar_rejects_oversubscription():
    cal = MachineCalendar(4, 16)
    cal.add(Block(0, 10, 3, 8, owner="a"))
    with pytest.raises(CapacityViolation):
        cal.add(Block(5, 15, 2, 2, owner="b"))


def test_calendar_admits_back_to_back_blocks():
    cal = MachineCalendar(4, 16)
    cal.add(Block(0, 10, 4, 16, owner="a"))
    cal.add(Block(10, 20, 4, 16, owner="b"))
    assert cal.usage_at(9) == (4, 16)
    assert cal.usage_at(10) == (4, 16)
    assert cal.usage_at(20) == (0, 0)


def _brute_force_earliest_fit(cal, earliest, latest_start, duration, cpu, mem):
    if duration <= 0 or cpu > cal.cpu_capacity or mem > cal.mem_capacity:
        return None
    for start in range(earliest, latest_start + 1):
        if all(
            cal.usage_at(t)[0] + cpu <= cal.cpu_capacity
            and cal.usage_at(t)[1] + mem <= cal.mem_capacity
            for t in range(start, start + duration)
        ):
            return start
    return None


def test_earliest_fit_matches_per_tick_scan():
    rng = random.Random(23)
    for case in range(400):
        cal = MachineCalendar(rng.randint(2, 6), rng.randint(8, 24))
        for _ in range(rng.randint(0, 8)):
            start = rng.randint(0, 40)
            end = start + rng.randint(1, 12)
            cpu = rng.randint(0, cal.cpu_capacity)
            mem = rng.randint(0, cal.mem_capacity)
            if cal.fits(start, end - start, cpu, mem):
                cal.add(Block(start, end, cpu, mem, owner=f"b{case}"))
        earliest = rng.randint(0, 20)
        latest = earliest + rng.randint(0, 30)
        duration = rng.randint(1, 10)
        cpu = rng.randint(1, cal.cpu_capacity)
        mem = rng.randint(1, cal.mem_capacity)
        got = cal.earliest_fit(earliest, latest, duration, cpu, mem)
        want = _brute_force_earliest_fit(cal, earliest, latest, duration, cpu, mem)
        assert got == want, (case, earliest, latest, duration, cpu, mem)


def test_earliest_fit_empty_window():
    cal = MachineCalendar(4, 16)
    assert cal.earliest_fit(10, 9, 5, 1, 1) is None


def test_prune_drops_only_finished_blocks():
    cal = MachineCalendar(4, 16)
    cal.add(Block(0, 5, 1, 1, owner="old"))
    cal.add(Block(0, 50, 1, 1, owner="long"))
    cal.prune(before=10)
    assert {b.owner for b in cal.blocks} == {"long"}


def test_free_cu_ticks_counts_idle_capacity():
    _, _, dc = make_dc([("m1", 4, 16)])
    dc.calendars["m1"].add(Block(0, 5, 4, 1, owner="x"))
    # [0,5) fully booked, [5,10) idle: 4 cu * 5 ticks
    assert dc.free_cu_ticks(0, 10) == 20


def _per_segment_free_cu_ticks(dc, start, end):
    # the earlier implementation: one usage_at query per boundary segment
    free = 0
    for machine_id in sorted(dc.calendars):
        cal = dc.calendars[machine_id]
        boundaries = {start, end}
        for b in cal.blocks:
            if b.end > start and b.start < end:
                boundaries.add(max(b.start, start))
                boundaries.add(min(b.end, end))
        points = sorted(boundaries)
        for lo, hi in zip(points, points[1:]):
            used, _ = cal.usage_at(lo)
            free += (cal.cpu_capacity - used) * (hi - lo)
    return free


def test_free_cu_ticks_matches_per_segment_sum():
    rng = random.Random(31)
    for case in range(300):
        specs = [(f"m{i}", rng.randint(1, 8), rng.randint(4, 32))
                 for i in range(rng.randint(1, 3))]
        _, _, dc = make_dc(specs)
        for cal in dc.calendars.values():
            for _ in range(rng.randint(0, 10)):
                start = rng.randint(0, 60)
                end = start + rng.randint(1, 20)
                cpu = rng.randint(0, cal.cpu_capacity)
                mem = rng.randint(0, cal.mem_capacity)
                if cal.fits(start, end - start, cpu, mem):
                    cal.add(Block(start, end, cpu, mem, owner=f"b{case}"))
        start = rng.randint(0, 70)
        end = start + rng.randint(0, 30)
        assert dc.free_cu_ticks(start, end) == _per_segment_free_cu_ticks(dc, start, end), case


def test_prune_makes_earlier_queries_fail_loudly():
    cal = MachineCalendar(4, 16)
    cal.add(Block(0, 20, 2, 4, owner="a"))
    cal.prune(before=10)
    assert cal.usage_at(10) == (2, 4)
    assert cal.fits(10, 5, 2, 12)
    assert cal.earliest_fit(10, 30, 5, 3, 1) == 20
    for query in (
        lambda: cal.usage_at(9),
        lambda: cal.fits(9, 5, 1, 1),
        lambda: cal.earliest_fit(9, 30, 5, 1, 1),
        lambda: cal.committed_cu_ticks(9, 12),
        lambda: cal.add(Block(9, 15, 1, 1, owner="late")),
    ):
        with pytest.raises(CapacityViolation, match="from t=9 asks for usage before t=10"):
            query()
    # a prune to an earlier point keeps the later one
    cal.prune(before=3)
    with pytest.raises(CapacityViolation, match="t=10"):
        cal.usage_at(9)
    assert [b.owner for b in cal.blocks] == ["a"]


# -- step-function calendar against the interval-sweep calendar ------------------


class ReferenceCalendar:
    """The interval-sweep calendar the step function replaced, kept as the oracle."""

    def __init__(self, cpu_capacity: int, mem_capacity: int):
        self.cpu_capacity = cpu_capacity
        self.mem_capacity = mem_capacity
        self.blocks: list[Block] = []

    def add(self, block: Block) -> None:
        if not self.fits(block.start, block.end - block.start, block.cpu, block.mem):
            raise CapacityViolation(
                f"commitment {block} exceeds capacity "
                f"({self.cpu_capacity} cu, {self.mem_capacity} MB)"
            )
        self.blocks.append(block)

    def prune(self, before: int) -> None:
        self.blocks = [b for b in self.blocks if b.end > before]

    def usage_at(self, t: int) -> tuple[int, int]:
        cpu = sum(b.cpu for b in self.blocks if b.start <= t < b.end)
        mem = sum(b.mem for b in self.blocks if b.start <= t < b.end)
        return cpu, mem

    def fits(self, start: int, duration: int, cpu: int, mem: int) -> bool:
        """True if adding (cpu, mem) over [start, start+duration) stays in capacity."""
        if cpu > self.cpu_capacity or mem > self.mem_capacity:
            return False
        if duration <= 0:
            return True
        end = start + duration
        deltas: dict[int, tuple[int, int]] = {}
        for b in self.blocks:
            lo, hi = max(b.start, start), min(b.end, end)
            if lo >= hi:
                continue
            dc, dm = deltas.get(lo, (0, 0))
            deltas[lo] = (dc + b.cpu, dm + b.mem)
            dc, dm = deltas.get(hi, (0, 0))
            deltas[hi] = (dc - b.cpu, dm - b.mem)
        used_cpu = used_mem = 0
        for t in sorted(deltas):
            dc, dm = deltas[t]
            used_cpu += dc
            used_mem += dm
            if t < end and (used_cpu + cpu > self.cpu_capacity or used_mem + mem > self.mem_capacity):
                return False
        return True

    def earliest_fit(
        self,
        earliest_start: int,
        latest_start: int,
        duration: int,
        cpu: int,
        mem: int,
    ) -> int | None:
        """Earliest start in [earliest_start, latest_start] where the slice fits.

        Usage only drops at block ends, so the answer is either
        earliest_start itself or some block's end time.  One sweep over
        the boundary points finds the first feasible span of the needed
        length; everything past the last commitment is free.
        """
        if latest_start < earliest_start or duration <= 0:
            return None
        if cpu > self.cpu_capacity or mem > self.mem_capacity:
            return None
        deltas: dict[int, list[int]] = {earliest_start: [0, 0]}
        for b in self.blocks:
            if b.end <= earliest_start:
                continue
            lo = max(b.start, earliest_start)
            d = deltas.setdefault(lo, [0, 0])
            d[0] += b.cpu
            d[1] += b.mem
            d = deltas.setdefault(b.end, [0, 0])
            d[0] -= b.cpu
            d[1] -= b.mem
        used_cpu = used_mem = 0
        run_start: int | None = earliest_start
        prev = earliest_start
        for point in sorted(deltas):
            if point > prev:
                # segment [prev, point) carries the accumulated usage
                feasible = (used_cpu + cpu <= self.cpu_capacity
                            and used_mem + mem <= self.mem_capacity)
                if feasible:
                    if run_start is None:
                        run_start = prev
                    if run_start + duration <= point:
                        return run_start if run_start <= latest_start else None
                else:
                    run_start = None
                    if prev > latest_start:
                        return None
            dc, dm = deltas[point]
            used_cpu += dc
            used_mem += dm
            prev = point
        if run_start is None:
            run_start = prev
        return run_start if run_start <= latest_start else None


def reference_free_cu_ticks(calendars, start, end):
    """Uncommitted cpu-ticks over [start, end) across the fleet."""
    free = 0
    for cal in calendars:
        free += cal.cpu_capacity * (end - start)
        for b in cal.blocks:
            overlap = min(b.end, end) - max(b.start, start)
            if overlap > 0:
                free -= b.cpu * overlap
    return free


@st.composite
def calendar_runs(draw):
    """A machine and a sequence of calendar operations on it.

    Times are offsets from the latest prune point, so no query reaches into
    the pruned past; small capacities and short spans make blocks collide
    often, and a size one past capacity is refused outright.
    """
    cpu_capacity, mem_capacity = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    offset = st.integers(0, 12)
    cpu, mem = st.integers(0, cpu_capacity + 1), st.integers(0, mem_capacity + 1)
    add = st.tuples(st.just("add"), offset, st.integers(0, 6), cpu, mem)
    ops = st.one_of(
        add, add, add,
        st.tuples(st.just("prune"), st.integers(0, 6)),
        st.tuples(st.just("fits"), offset, st.integers(-1, 8), cpu, mem),
        st.tuples(st.just("earliest_fit"), offset, st.integers(-2, 20), st.integers(-1, 8), cpu, mem),
        st.tuples(st.just("free_cu_ticks"), offset, st.integers(-1, 15)),
    )
    return cpu_capacity, mem_capacity, draw(st.lists(ops, min_size=4, max_size=40))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(run=calendar_runs())
# abutting blocks that fill the machine, the later one added first, then a
# fit right at their seam
@example(run=(2, 4, [
    ("add", 3, 3, 2, 4), ("add", 0, 3, 2, 4), ("fits", 2, 2, 1, 1),
    ("earliest_fit", 0, 10, 2, 1, 1), ("free_cu_ticks", 0, 8),
]))
# zero-cpu and zero-mem blocks: each resource alone decides
@example(run=(3, 5, [
    ("add", 1, 4, 0, 5), ("add", 2, 4, 3, 0), ("add", 2, 2, 1, 1),
    ("earliest_fit", 0, 10, 2, 1, 0), ("earliest_fit", 0, 10, 2, 0, 1),
    ("fits", 0, 3, 0, 0), ("free_cu_ticks", 0, 10),
]))
# a memory-bound machine: cpu is free but memory refuses, also on add
@example(run=(4, 4, [
    ("add", 0, 6, 1, 3), ("add", 2, 2, 1, 2), ("fits", 1, 2, 1, 2),
    ("earliest_fit", 0, 10, 3, 1, 2), ("prune", 1), ("earliest_fit", 0, 10, 3, 1, 1),
]))
# latest_start inside a busy run: refused although a slot opens after it
@example(run=(2, 2, [
    ("add", 0, 4, 2, 1), ("add", 4, 4, 2, 1), ("earliest_fit", 1, 5, 2, 1, 1),
    ("earliest_fit", 1, 7, 2, 1, 1), ("prune", 3), ("earliest_fit", 0, 4, 3, 1, 1),
    ("add", 0, 2, 1, 1), ("add", 5, 1, 1, 1), ("free_cu_ticks", 0, 12),
]))
def test_step_function_calendar_matches_interval_sweeps(run):
    cpu_capacity, mem_capacity, ops = run
    _, _, dc = make_dc([("m", cpu_capacity, mem_capacity)])
    cal, ref = dc.calendars["m"], ReferenceCalendar(cpu_capacity, mem_capacity)
    floor = 0

    def profile(calendar):
        return [calendar.usage_at(t) for t in range(floor, floor + 24)]

    for n, op in enumerate(ops):
        kind, args = op[0], op[1:]
        if kind == "add":
            offset, length, cpu, mem = args
            block = Block(floor + offset, floor + offset + length, cpu, mem, owner=f"b{n}")
            try:
                ref.add(block)
            except CapacityViolation:
                before = profile(cal)
                with pytest.raises(CapacityViolation):
                    cal.add(block)
                assert profile(cal) == before, op
            else:
                cal.add(block)
        elif kind == "prune":
            floor += args[0]
            cal.prune(floor)
            ref.prune(floor)
        elif kind == "fits":
            offset, duration, cpu, mem = args
            got = cal.fits(floor + offset, duration, cpu, mem)
            assert got == ref.fits(floor + offset, duration, cpu, mem), op
        elif kind == "earliest_fit":
            offset, span, duration, cpu, mem = args
            start = floor + offset
            got = cal.earliest_fit(start, start + span, duration, cpu, mem)
            assert got == ref.earliest_fit(start, start + span, duration, cpu, mem), op
        else:
            offset, span = args
            start = floor + offset
            got = dc.free_cu_ticks(start, start + span)
            assert got == reference_free_cu_ticks([ref], start, start + span), op
        assert cal.blocks == sorted(ref.blocks, key=lambda b: b.end), op
        assert profile(cal) == profile(ref), op
