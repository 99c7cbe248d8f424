"""Machines, VM lifecycle, and the commitment calendar."""

import random

import pytest

from cloudmarket.datacenter import (
    AlreadyStopped,
    Block,
    CapacityViolation,
    Datacenter,
    InsufficientCapacity,
    MachineCalendar,
    UnknownVm,
    VmBusy,
    fleet_specs,
)
from cloudmarket.engine import SimEngine, TraceRecorder


def hosted_usage(dc, machine_id):
    """(cpu, mem) held by the VMs a machine hosts."""
    vms = [dc.vms[v] for v in dc.machines[machine_id].hosted]
    return sum(vm.cpu_entitlement for vm in vms), sum(vm.mem_entitlement for vm in vms)


def make_dc(specs, boot_delay=0):
    engine = SimEngine()
    recorder = TraceRecorder()
    engine.add_observer(recorder)
    dc = Datacenter(engine, "prov", specs, boot_delay=boot_delay)
    return engine, recorder, dc


def test_fresh_datacenter_is_idle():
    _, _, dc = make_dc([("m1", 4, 16), ("m2", 8, 32)])
    assert dc.total_cpu_capacity == 12
    assert dc.committed_cpu_at(0) == 0
    assert not dc.vms
    assert not dc.machines["m1"].hosted
    # the whole machine is free: a full-size VM fits, one cu more does not
    with pytest.raises(InsufficientCapacity):
        dc.provision_vm(5, 16, at=0, machine_id="m1")
    dc.provision_vm(4, 16, at=0, machine_id="m1")


def test_single_machine_placement():
    _, _, dc = make_dc([("m1", 4, 16)])
    vm_id = dc.provision_vm(1, 4, at=0, machine_id="m1")
    assert dc.vms[vm_id].host == "m1"
    assert dc.machines["m1"].hosted == {vm_id}
    assert hosted_usage(dc, "m1") == (1, 4)
    # 3 cu are left
    with pytest.raises(InsufficientCapacity):
        dc.provision_vm(4, 1, at=0, machine_id="m1")
    dc.provision_vm(3, 1, at=0, machine_id="m1")


def test_full_fleet_refuses_more_vms():
    _, _, dc = make_dc([("m1", 2, 8)])
    dc.provision_vm(2, 8, at=0, machine_id="m1")
    with pytest.raises(InsufficientCapacity):
        dc.provision_vm(1, 1, at=0, machine_id="m1")


def test_release_returns_all_capacity():
    _, _, dc = make_dc([("m1", 4, 16)])
    vm_id = dc.provision_vm(4, 16, at=0, machine_id="m1")
    freed = dc.release_vm(vm_id, at=5)
    assert freed == (4, 16)
    assert not dc.machines["m1"].hosted
    assert hosted_usage(dc, "m1") == (0, 0)
    dc.provision_vm(4, 16, at=5, machine_id="m1")


def test_release_then_equal_provision_same_tick():
    _, _, dc = make_dc([("m1", 4, 16)])
    first = dc.provision_vm(4, 16, at=0, machine_id="m1")
    dc.release_vm(first, at=3)
    second = dc.provision_vm(4, 16, at=3, machine_id="m1")
    assert second != first
    assert dc.machines["m1"].hosted == {second}
    assert hosted_usage(dc, "m1") == (4, 16)
    with pytest.raises(InsufficientCapacity):
        dc.provision_vm(1, 1, at=3, machine_id="m1")


def test_release_unknown_vm():
    _, _, dc = make_dc([("m1", 4, 16)])
    with pytest.raises(UnknownVm):
        dc.release_vm("prov-vm99999", at=0)


def test_double_release_is_refused():
    _, _, dc = make_dc([("m1", 4, 16)])
    vm_id = dc.provision_vm(1, 1, at=0, machine_id="m1")
    dc.release_vm(vm_id, at=1)
    with pytest.raises(AlreadyStopped):
        dc.release_vm(vm_id, at=2)


def test_boot_delay_gates_vm_state():
    engine, recorder, dc = make_dc([("m1", 4, 16)], boot_delay=3)
    engine.run_until(10)
    vm_id = dc.provision_vm(1, 1, at=10, machine_id="m1")
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
            m = dc.machines[machine_id]
            overflows = used_cpu + cpu > m.cpu_capacity or used_mem + mem > m.mem_capacity
            refused += overflows
            try:
                live.append(dc.provision_vm(cpu, mem, at=at, machine_id=machine_id))
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

    hosted = {machine_id: set() for machine_id in dc.machines}
    vms = {}
    for ev in recorder.events:
        p = ev.payload
        if ev.kind == "vm_provision":
            hosted[p["machine"]].add(p["vm_id"])
            state = "Running" if now >= p["ready_at"] else "Starting"
            vms[p["vm_id"]] = {
                "host": p["machine"], "cpu": p["cpu"], "mem": p["mem"],
                "state": state, "assigned_request": None,
            }
        elif ev.kind == "vm_release":
            hosted[p["machine"]].discard(p["vm_id"])
            vms[p["vm_id"]]["state"] = "Stopped"

    for machine_id, reduced in hosted.items():
        assert dc.machines[machine_id].hosted == reduced
        assert hosted_usage(dc, machine_id) == replay_usage(recorder.events, machine_id)

    def state(vm):
        if vm.stopped:
            return "Stopped"
        return "Running" if now >= vm.ready_at else "Starting"

    assert {v: state(vm) for v, vm in dc.vms.items()} == {
        v: d["state"] for v, d in vms.items()
    }
    assert {v: (vm.host, vm.cpu_entitlement, vm.mem_entitlement) for v, vm in dc.vms.items()} == {
        v: (d["host"], d["cpu"], d["mem"]) for v, d in vms.items()
    }


def test_dispatch_completion_arithmetic():
    # 100 cu-ticks on a 4-cu VM from t=10 finishes at t=35
    engine, recorder, dc = make_dc([("m1", 4, 16)])
    vm_id = dc.provision_vm(4, 1, at=10, machine_id="m1")
    dc.dispatch("req000001", vm_id, at=10, workload_volume=100)
    engine.drain()
    completion = [ev for ev in recorder.events if ev.kind == "completion"][0]
    assert completion.fire_at == 35


def test_dispatch_rounds_partial_ticks_up():
    # 10 cu-ticks on 4 cu takes ceil(2.5) = 3 ticks
    engine, recorder, dc = make_dc([("m1", 4, 16)])
    vm_id = dc.provision_vm(4, 1, at=0, machine_id="m1")
    dc.dispatch("req000001", vm_id, at=0, workload_volume=10)
    engine.drain()
    assert [ev for ev in recorder.events if ev.kind == "completion"][0].fire_at == 3


def test_dispatch_waits_for_boot():
    engine, recorder, dc = make_dc([("m1", 4, 16)], boot_delay=5)
    vm_id = dc.provision_vm(4, 1, at=0, machine_id="m1")
    dc.dispatch("req000001", vm_id, at=0, workload_volume=4)
    engine.drain()
    assert [ev for ev in recorder.events if ev.kind == "dispatch"][0].payload["start"] == 5
    assert [ev for ev in recorder.events if ev.kind == "completion"][0].fire_at == 6


def test_dispatch_to_busy_vm():
    _, _, dc = make_dc([("m1", 4, 16)])
    vm_id = dc.provision_vm(4, 1, at=0, machine_id="m1")
    dc.dispatch("req000001", vm_id, at=0, workload_volume=40)
    with pytest.raises(VmBusy):
        dc.dispatch("req000002", vm_id, at=1, workload_volume=4)


def test_finish_execution_frees_the_vm_for_reuse():
    _, _, dc = make_dc([("m1", 4, 16)])
    vm_id = dc.provision_vm(4, 1, at=0, machine_id="m1")
    dc.dispatch("req000001", vm_id, at=0, workload_volume=4)
    assert dc.finish_execution(vm_id) == "req000001"
    dc.dispatch("req000002", vm_id, at=2, workload_volume=4)


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
    for machine_id in sorted(dc.machines):
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
