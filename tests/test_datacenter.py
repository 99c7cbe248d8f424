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


def make_dc(specs, boot_delay=0, placement="worst_fit"):
    engine = SimEngine()
    recorder = TraceRecorder()
    engine.add_observer(recorder)
    dc = Datacenter(engine, "prov", specs, boot_delay=boot_delay, placement=placement)
    return engine, recorder, dc


def test_fresh_datacenter_is_idle():
    _, _, dc = make_dc([("m1", 4, 16), ("m2", 8, 32)])
    assert dc.total_cpu_capacity == 12
    assert dc.committed_cpu_at(0) == 0
    assert not dc.vms
    snap = dc.vm_monitor_snapshot(0)
    assert snap["machines"]["m1"]["free_cpu"] == 4
    assert snap["vms"] == {}


def test_single_machine_placement():
    _, _, dc = make_dc([("m1", 4, 16)])
    vm_id = dc.provision_vm(1, 4, at=0)
    assert dc.vms[vm_id].host == "m1"
    assert dc.machines["m1"].free_cpu == 3


def test_worst_fit_prefers_the_emptiest_machine():
    # free cpu (2, 3, 1): a 2-cu VM must land on the 3-cu machine
    _, _, dc = make_dc([("m1", 4, 64), ("m2", 4, 64), ("m3", 4, 64)])
    dc.provision_vm(2, 1, at=0, machine_id="m1")
    dc.provision_vm(1, 1, at=0, machine_id="m2")
    dc.provision_vm(3, 1, at=0, machine_id="m3")
    assert [dc.machines[m].free_cpu for m in ("m1", "m2", "m3")] == [2, 3, 1]
    vm_id = dc.provision_vm(2, 1, at=0)
    assert dc.vms[vm_id].host == "m2"


def test_placement_is_exhaustive():
    # the chosen machine always matches direct enumeration of feasible hosts
    rng = random.Random(41)
    for _ in range(200):
        spec = [(f"m{i}", rng.randint(1, 8), rng.randint(4, 32)) for i in range(4)]
        _, _, dc = make_dc(spec)
        for _ in range(rng.randint(0, 6)):
            cpu = rng.randint(1, 4)
            mem = rng.randint(1, 8)
            feasible = [
                m for m in dc.machines.values()
                if m.free_cpu >= cpu and m.free_mem >= mem
            ]
            if not feasible:
                with pytest.raises(InsufficientCapacity):
                    dc.provision_vm(cpu, mem, at=0)
                continue
            # worst-fit: most free cpu, ties broken by machine id
            expected = min(feasible, key=lambda m: (-m.free_cpu, m.machine_id))
            vm_id = dc.provision_vm(cpu, mem, at=0)
            assert dc.vms[vm_id].host == expected.machine_id


def test_full_fleet_refuses_more_vms():
    _, _, dc = make_dc([("m1", 2, 8)])
    dc.provision_vm(2, 8, at=0)
    with pytest.raises(InsufficientCapacity):
        dc.provision_vm(1, 1, at=0)


def test_release_returns_all_capacity():
    _, _, dc = make_dc([("m1", 4, 16)])
    vm_id = dc.provision_vm(4, 16, at=0)
    freed = dc.release_vm(vm_id, at=5)
    assert freed == (4, 16)
    assert dc.machines["m1"].free_cpu == 4
    assert dc.machines["m1"].free_mem == 16


def test_release_then_equal_provision_same_tick():
    _, _, dc = make_dc([("m1", 4, 16)])
    first = dc.provision_vm(4, 16, at=0)
    dc.release_vm(first, at=3)
    second = dc.provision_vm(4, 16, at=3)
    assert second != first
    assert dc.machines["m1"].free_cpu == 0


def test_release_unknown_vm():
    _, _, dc = make_dc([("m1", 4, 16)])
    with pytest.raises(UnknownVm):
        dc.release_vm("prov-vm99999", at=0)


def test_double_release_is_refused():
    _, _, dc = make_dc([("m1", 4, 16)])
    vm_id = dc.provision_vm(1, 1, at=0)
    dc.release_vm(vm_id, at=1)
    with pytest.raises(AlreadyStopped):
        dc.release_vm(vm_id, at=2)


def test_boot_delay_gates_vm_state():
    engine, _, dc = make_dc([("m1", 4, 16)], boot_delay=3)
    vm_id = dc.provision_vm(1, 1, at=10)
    vm = dc.vms[vm_id]
    assert vm.ready_at == 13
    assert vm.state_at(12) == "Starting"
    assert vm.state_at(13) == "Running"


def test_snapshot_matches_independent_trace_replay():
    # oracle: reduce the event trace with separate bookkeeping, then
    # compare against the live snapshot
    engine, recorder, dc = make_dc(
        [("m1", 4, 16), ("m2", 8, 32)], boot_delay=2
    )
    rng = random.Random(7)
    live = []
    for step in range(60):
        at = step
        engine.run_until(at)
        if rng.random() < 0.5:
            cpu, mem = rng.randint(1, 3), rng.randint(1, 8)
            try:
                live.append(dc.provision_vm(cpu, mem, at=at))
            except InsufficientCapacity:
                pass
        elif live and rng.random() < 0.7:
            victim = live.pop(rng.randrange(len(live)))
            dc.release_vm(victim, at=at)
    engine.drain()
    now = engine.clock

    machines = {
        m.machine_id: {
            "cpu_capacity": m.cpu_capacity,
            "mem_capacity": m.mem_capacity,
            "free_cpu": m.cpu_capacity,
            "free_mem": m.mem_capacity,
            "hosted": set(),
        }
        for m in dc.machines.values()
    }
    vms = {}
    for ev in recorder.events:
        p = ev.payload
        if ev.kind == "vm_provision":
            machines[p["machine"]]["free_cpu"] -= p["cpu"]
            machines[p["machine"]]["free_mem"] -= p["mem"]
            machines[p["machine"]]["hosted"].add(p["vm_id"])
            state = "Running" if now >= p["ready_at"] else "Starting"
            vms[p["vm_id"]] = {
                "host": p["machine"], "cpu": p["cpu"], "mem": p["mem"],
                "state": state, "assigned_request": None,
            }
        elif ev.kind == "vm_release":
            machines[p["machine"]]["free_cpu"] += p["cpu"]
            machines[p["machine"]]["free_mem"] += p["mem"]
            machines[p["machine"]]["hosted"].discard(p["vm_id"])
            vms[p["vm_id"]]["state"] = "Stopped"

    snap = dc.vm_monitor_snapshot(now)
    for machine_id, reduced in machines.items():
        got = snap["machines"][machine_id]
        assert got["free_cpu"] == reduced["free_cpu"]
        assert got["free_mem"] == reduced["free_mem"]
        assert set(got["hosted"]) == reduced["hosted"]
    assert {v: d["state"] for v, d in snap["vms"].items()} == {
        v: d["state"] for v, d in vms.items()
    }


def test_dispatch_completion_arithmetic():
    # 100 cu-ticks on a 4-cu VM from t=10 finishes at t=35
    engine, recorder, dc = make_dc([("m1", 4, 16)])
    vm_id = dc.provision_vm(4, 1, at=10)
    dc.dispatch("req000001", vm_id, at=10, workload_volume=100)
    engine.drain()
    completion = [ev for ev in recorder.events if ev.kind == "completion"][0]
    assert completion.fire_at == 35


def test_dispatch_rounds_partial_ticks_up():
    # 10 cu-ticks on 4 cu takes ceil(2.5) = 3 ticks
    engine, recorder, dc = make_dc([("m1", 4, 16)])
    vm_id = dc.provision_vm(4, 1, at=0)
    dc.dispatch("req000001", vm_id, at=0, workload_volume=10)
    engine.drain()
    assert [ev for ev in recorder.events if ev.kind == "completion"][0].fire_at == 3


def test_dispatch_waits_for_boot():
    engine, recorder, dc = make_dc([("m1", 4, 16)], boot_delay=5)
    vm_id = dc.provision_vm(4, 1, at=0)
    dc.dispatch("req000001", vm_id, at=0, workload_volume=4)
    engine.drain()
    assert [ev for ev in recorder.events if ev.kind == "dispatch"][0].payload["start"] == 5
    assert [ev for ev in recorder.events if ev.kind == "completion"][0].fire_at == 6


def test_dispatch_to_busy_vm():
    _, _, dc = make_dc([("m1", 4, 16)])
    vm_id = dc.provision_vm(4, 1, at=0)
    dc.dispatch("req000001", vm_id, at=0, workload_volume=40)
    with pytest.raises(VmBusy):
        dc.dispatch("req000002", vm_id, at=1, workload_volume=4)


def test_finish_execution_frees_the_vm_for_reuse():
    _, _, dc = make_dc([("m1", 4, 16)])
    vm_id = dc.provision_vm(4, 1, at=0)
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
