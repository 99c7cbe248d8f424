"""Physical machines, VM lifecycle, and per-machine commitment calendars.

Each machine's commitment calendar is the one record of committed
capacity: admission and reservations add blocks to it, and it never
promises more than the machine has at any tick.  A VM starts only inside
its block, and the engine fires a tick's releases before its provisions,
so the VMs a machine hosts fit its capacity too.  `provision_vm` checks
that once more against the hosted VMs; a breach is a simulator bug and
fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .engine import SimEngine
from .money import ceil_div


class InsufficientCapacity(Exception):
    """No machine can host the requested entitlement."""


class UnknownVm(Exception):
    pass


class AlreadyStopped(Exception):
    pass


class VmBusy(Exception):
    """One request per VM: the VM is already executing."""


class CapacityViolation(Exception):
    """Internal invariant breach; signals a simulator bug, not bad input."""


@dataclass
class PhysicalMachine:
    machine_id: str
    cpu_capacity: int
    mem_capacity: int
    hosted: set[str] = field(default_factory=set)


@dataclass
class Vm:
    vm_id: str
    host: str
    cpu_entitlement: int
    mem_entitlement: int
    ready_at: int
    stopped: bool = False
    assigned_request: str | None = None


@dataclass(frozen=True)
class Block:
    """A committed capacity slice on one machine over [start, end)."""

    start: int
    end: int
    cpu: int
    mem: int
    owner: str


class MachineCalendar:
    """Forward commitments for one machine, queried by interval sweeps."""

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


class Datacenter:
    """One provider's fleet: machines, calendars, and the VM population.

    Lifecycle notes are emitted as same-tick events on the owning
    engine; VM boot completion and request completion are scheduled
    ahead, so the event trace alone reconstructs all state.
    """

    def __init__(
        self,
        engine: SimEngine,
        provider_id: str,
        machine_specs: list[tuple[str, int, int]],
        boot_delay: int = 0,
    ):
        self.engine = engine
        self.provider_id = provider_id
        self.boot_delay = boot_delay
        self.machines: dict[str, PhysicalMachine] = {}
        self.calendars: dict[str, MachineCalendar] = {}
        for machine_id, cpu, mem in machine_specs:
            self.machines[machine_id] = PhysicalMachine(machine_id, cpu, mem)
            self.calendars[machine_id] = MachineCalendar(cpu, mem)
        self.vms: dict[str, Vm] = {}
        self._vm_counter = 0

    # -- capacity views ----------------------------------------------------

    @property
    def total_cpu_capacity(self) -> int:
        return sum(m.cpu_capacity for m in self.machines.values())

    def committed_cpu_at(self, t: int) -> int:
        return sum(cal.usage_at(t)[0] for cal in self.calendars.values())

    def utilization_at(self, t: int) -> Fraction:
        total = self.total_cpu_capacity
        if total == 0:
            return Fraction(0)
        return Fraction(self.committed_cpu_at(t), total)

    def free_cu_ticks(self, start: int, end: int) -> int:
        """Uncommitted cpu-ticks over [start, end) across the fleet."""
        free = 0
        for cal in self.calendars.values():
            free += cal.cpu_capacity * (end - start)
            for b in cal.blocks:
                overlap = min(b.end, end) - max(b.start, start)
                if overlap > 0:
                    free -= b.cpu * overlap
        return free

    # -- lifecycle ---------------------------------------------------------

    def provision_vm(
        self,
        cpu_entitlement: int,
        mem_entitlement: int,
        at: int,
        machine_id: str,
    ) -> str:
        if cpu_entitlement <= 0:
            raise InsufficientCapacity("entitlement must be positive")
        machine = self.machines[machine_id]
        used_cpu = sum(self.vms[v].cpu_entitlement for v in machine.hosted)
        used_mem = sum(self.vms[v].mem_entitlement for v in machine.hosted)
        if (used_cpu + cpu_entitlement > machine.cpu_capacity
                or used_mem + mem_entitlement > machine.mem_capacity):
            raise InsufficientCapacity(
                f"{machine_id} lacks {cpu_entitlement} cu / {mem_entitlement} MB at t={at}: "
                f"its VMs hold {used_cpu} of {machine.cpu_capacity} cu, "
                f"{used_mem} of {machine.mem_capacity} MB"
            )
        self._vm_counter += 1
        vm_id = f"{self.provider_id}-vm{self._vm_counter:05d}"
        vm = Vm(
            vm_id=vm_id,
            host=machine_id,
            cpu_entitlement=cpu_entitlement,
            mem_entitlement=mem_entitlement,
            ready_at=at + self.boot_delay,
        )
        self.vms[vm_id] = vm
        machine.hosted.add(vm_id)
        self.engine.emit("vm_provision", {
            "provider": self.provider_id, "vm_id": vm_id, "machine": machine_id,
            "cpu": cpu_entitlement, "mem": mem_entitlement, "ready_at": vm.ready_at,
        })
        self.engine.schedule("vm_booted", {
            "provider": self.provider_id, "vm_id": vm_id,
        }, fire_at=vm.ready_at)
        return vm_id

    def release_vm(self, vm_id: str, at: int) -> tuple[int, int]:
        vm = self.vms.get(vm_id)
        if vm is None:
            raise UnknownVm(vm_id)
        if vm.stopped:
            raise AlreadyStopped(vm_id)
        vm.stopped = True
        vm.assigned_request = None
        self.machines[vm.host].hosted.discard(vm_id)
        self.engine.emit("vm_release", {
            "provider": self.provider_id, "vm_id": vm_id, "machine": vm.host,
            "cpu": vm.cpu_entitlement, "mem": vm.mem_entitlement,
        })
        return vm.cpu_entitlement, vm.mem_entitlement

    def dispatch(self, request_id: str, vm_id: str, at: int, workload_volume: int) -> int:
        """Start execution; returns the scheduled completion event id."""
        vm = self.vms.get(vm_id)
        if vm is None:
            raise UnknownVm(vm_id)
        if vm.stopped:
            raise AlreadyStopped(vm_id)
        if vm.assigned_request is not None:
            raise VmBusy(f"{vm_id} is executing {vm.assigned_request}")
        vm.assigned_request = request_id
        start = max(at, vm.ready_at)
        completion = start + ceil_div(workload_volume, vm.cpu_entitlement)
        self.engine.emit("dispatch", {
            "provider": self.provider_id, "request_id": request_id, "vm_id": vm_id,
            "start": start, "completion": completion, "volume": workload_volume,
        })
        return self.engine.schedule("completion", {
            "provider": self.provider_id, "request_id": request_id, "vm_id": vm_id,
            "start": start, "volume": workload_volume,
        }, fire_at=completion)

    def finish_execution(self, vm_id: str) -> str | None:
        vm = self.vms.get(vm_id)
        if vm is None:
            raise UnknownVm(vm_id)
        request_id = vm.assigned_request
        vm.assigned_request = None
        return request_id


def fleet_specs(provider_id: str, groups: list[dict]) -> list[tuple[str, int, int]]:
    """Expand (count, cpu_capacity, mem_capacity) groups into machine specs."""
    specs = []
    index = 0
    for group in groups:
        for _ in range(group["count"]):
            specs.append((f"{provider_id}-m{index:03d}", group["cpu_capacity"], group["mem_capacity"]))
            index += 1
    return specs
