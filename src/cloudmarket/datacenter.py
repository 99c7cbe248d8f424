"""Per-machine commitment calendars and the VM lifecycle.

Each machine's commitment calendar is the one record of its capacity
and of what is committed on it: admission and reservations add blocks
to it, and it never promises more than the machine has at any tick.
A VM starts only inside its block, and the engine fires a tick's
releases before its provisions, so the VMs a machine hosts fit its
capacity too.  `provision_vm` checks that once more against the VMs in
`Datacenter.hosted`; a breach is a simulator bug and fails the run.

A calendar keeps its committed usage as a step function over sorted
breakpoints, the availability profile of conservative backfilling, so a
capacity query bisects to its start instead of sweeping every block.
The runs prune each calendar to the current tick; after that it holds
no usage from before the prune point, and a query into that past raises
`CapacityViolation` rather than answer from the truncated profile.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter

from .engine import SimEngine
from .money import ceil_div


class InsufficientCapacity(Exception):
    """No machine can host the requested entitlement."""


class UnknownVm(Exception):
    """A release named a VM that is not running: a simulator bug."""


class CapacityViolation(Exception):
    """Internal invariant breach; signals a simulator bug, not bad input."""


@dataclass
class Vm:
    host: str
    cpu_entitlement: int
    mem_entitlement: int
    ready_at: int


@dataclass(frozen=True)
class Block:
    """A committed capacity slice on one machine over [start, end)."""

    start: int
    end: int
    cpu: int
    mem: int
    owner: str


_block_end = attrgetter("end")


class MachineCalendar:
    """Forward commitments for one machine, kept as a step function.

    `blocks` records each commitment with its owner, ordered by end.
    Beside it the calendar keeps the committed usage as a step function:
    `_times` holds the sorted breakpoints, and `_cpu[i]`, `_mem[i]` the
    usage over `[_times[i], _times[i+1])`.  Usage before the first
    breakpoint and from the last one on is 0.  `add` splits the profile
    at the block's start and end with `bisect` and adds the block's usage
    to the segments between them, so every query bisects to its start and
    walks only the segments it needs.

    `prune(before)` drops the blocks and segments that end at or before
    `before`.  The profile then holds no usage from before that point,
    so a query that starts before the latest prune point raises
    `CapacityViolation` instead of answering from the truncated profile.
    """

    def __init__(self, cpu_capacity: int, mem_capacity: int):
        self.cpu_capacity = cpu_capacity
        self.mem_capacity = mem_capacity
        self.blocks: list[Block] = []
        self._times: list[int] = []
        self._cpu: list[int] = []
        self._mem: list[int] = []
        self._pruned_to: int | None = None

    def _check_not_pruned(self, query: str, start: int) -> None:
        if self._pruned_to is not None and start < self._pruned_to:
            raise CapacityViolation(
                f"{query} from t={start} asks for usage before t={self._pruned_to}, "
                f"the point this calendar was pruned to"
            )

    def _split(self, t: int) -> int:
        """Index of the breakpoint at t, inserting it if absent."""
        times = self._times
        i = bisect_left(times, t)
        if i == len(times) or times[i] != t:
            times.insert(i, t)
            self._cpu.insert(i, self._cpu[i - 1] if i else 0)
            self._mem.insert(i, self._mem[i - 1] if i else 0)
        return i

    def add(self, block: Block) -> None:
        if not self.fits(block.start, block.end - block.start, block.cpu, block.mem):
            raise CapacityViolation(
                f"commitment {block} exceeds capacity "
                f"({self.cpu_capacity} cu, {self.mem_capacity} MB)"
            )
        insort(self.blocks, block, key=_block_end)
        lo = self._split(block.start)
        hi = self._split(block.end)
        cpus, mems = self._cpu, self._mem
        for i in range(lo, hi):
            cpus[i] += block.cpu
            mems[i] += block.mem

    def prune(self, before: int) -> None:
        if self._pruned_to is not None and before <= self._pruned_to:
            return
        self._pruned_to = before
        del self.blocks[:bisect_right(self.blocks, before, key=_block_end)]
        # keep the segment that holds `before`; drop every one ending at or before it
        drop = bisect_right(self._times, before) - 1
        if drop > 0:
            del self._times[:drop]
            del self._cpu[:drop]
            del self._mem[:drop]

    def usage_at(self, t: int) -> tuple[int, int]:
        self._check_not_pruned("usage_at", t)
        i = bisect_right(self._times, t) - 1
        if i < 0:
            return 0, 0
        return self._cpu[i], self._mem[i]

    def committed_cu_ticks(self, start: int, end: int) -> int:
        """Committed cpu-ticks over [start, end)."""
        self._check_not_pruned("committed_cu_ticks", start)
        times, cpus = self._times, self._cpu
        i = max(bisect_right(times, start) - 1, 0)
        used = 0
        for i in range(i, len(times) - 1):
            lo = max(times[i], start)
            if lo >= end:
                break
            used += cpus[i] * (min(times[i + 1], end) - lo)
        return used

    def fits(self, start: int, duration: int, cpu: int, mem: int) -> bool:
        """True if adding (cpu, mem) over [start, start+duration) stays in capacity."""
        self._check_not_pruned("fits", start)
        if cpu > self.cpu_capacity or mem > self.mem_capacity:
            return False
        if duration <= 0:
            return True
        end = start + duration
        cpu_room = self.cpu_capacity - cpu
        mem_room = self.mem_capacity - mem
        times, cpus, mems = self._times, self._cpu, self._mem
        for i in range(max(bisect_right(times, start) - 1, 0), len(times)):
            if times[i] >= end:
                break
            if cpus[i] > cpu_room or mems[i] > mem_room:
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

        Usage changes only at breakpoints, so the answer is either
        earliest_start itself or a breakpoint.  A first-fit walk over the
        segments from earliest_start finds the first feasible run of the
        needed length; the last segment is free and never ends.
        """
        self._check_not_pruned("earliest_fit", earliest_start)
        if latest_start < earliest_start or duration <= 0:
            return None
        if cpu > self.cpu_capacity or mem > self.mem_capacity:
            return None
        cpu_room = self.cpu_capacity - cpu
        mem_room = self.mem_capacity - mem
        times, cpus, mems = self._times, self._cpu, self._mem
        i = bisect_right(times, earliest_start)
        run_start: int | None = earliest_start
        if i and (cpus[i - 1] > cpu_room or mems[i - 1] > mem_room):
            run_start = None
        for point, used_cpu, used_mem in zip(
            islice(times, i, None), islice(cpus, i, None), islice(mems, i, None),
        ):
            if run_start is None:
                # every run from here on starts too late
                if point > latest_start:
                    return None
                if used_cpu <= cpu_room and used_mem <= mem_room:
                    run_start = point
            elif run_start + duration <= point:
                return run_start
            elif used_cpu > cpu_room or used_mem > mem_room:
                run_start = None
        return run_start


class Datacenter:
    """One provider's fleet: machine calendars and its running VMs.

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
        self.calendars: dict[str, MachineCalendar] = {}
        # machine_id -> ids of the VMs running on it
        self.hosted: dict[str, set[str]] = {}
        for machine_id, cpu, mem in machine_specs:
            self.calendars[machine_id] = MachineCalendar(cpu, mem)
            self.hosted[machine_id] = set()
        # the running VMs by id; a released VM leaves
        self.vms: dict[str, Vm] = {}
        self._vm_counter = 0

    # -- capacity views ----------------------------------------------------

    @property
    def total_cpu_capacity(self) -> int:
        return sum(cal.cpu_capacity for cal in self.calendars.values())

    def committed_cpu_at(self, t: int) -> int:
        return sum(cal.usage_at(t)[0] for cal in self.calendars.values())

    def utilization_at(self, t: int) -> tuple[int, int]:
        """The committed share of the fleet's cpu at t, as (committed, capacity)."""
        total = self.total_cpu_capacity
        if total == 0:
            return 0, 1
        return self.committed_cpu_at(t), total

    def free_cu_ticks(self, start: int, end: int) -> int:
        """Uncommitted cpu-ticks over [start, end) across the fleet."""
        return sum(
            cal.cpu_capacity * (end - start) - cal.committed_cu_ticks(start, end)
            for cal in self.calendars.values()
        )

    def earliest_slot(
        self, earliest: int, latest_start: int, duration: int, cpu: int, mem: int,
    ) -> tuple[str, int] | None:
        """Earliest (machine, start) able to host the block, ties by machine id."""
        best: tuple[str, int] | None = None
        for machine_id in sorted(self.calendars):
            start = self.calendars[machine_id].earliest_fit(
                earliest, latest_start, duration, cpu, mem,
            )
            if start is not None and (best is None or start < best[1]):
                best = (machine_id, start)
        return best

    # -- lifecycle ---------------------------------------------------------

    def provision_vm(
        self,
        request_id: str,
        cpu_entitlement: int,
        mem_entitlement: int,
        workload_volume: int,
        at: int,
        machine_id: str,
    ) -> str:
        """Start a VM for one request and run the request on it once booted.

        Each VM exists for exactly one request, so provisioning is dispatch.
        """
        machine = self.calendars[machine_id]
        hosted = self.hosted[machine_id]
        used_cpu = sum(self.vms[v].cpu_entitlement for v in hosted)
        used_mem = sum(self.vms[v].mem_entitlement for v in hosted)
        if (used_cpu + cpu_entitlement > machine.cpu_capacity
                or used_mem + mem_entitlement > machine.mem_capacity):
            raise InsufficientCapacity(
                f"{machine_id} lacks {cpu_entitlement} cu / {mem_entitlement} MB at t={at}: "
                f"its VMs hold {used_cpu} of {machine.cpu_capacity} cu, "
                f"{used_mem} of {machine.mem_capacity} MB"
            )
        self._vm_counter += 1
        vm_id = f"{self.provider_id}-vm{self._vm_counter:05d}"
        start = at + self.boot_delay
        self.vms[vm_id] = Vm(machine_id, cpu_entitlement, mem_entitlement, start)
        hosted.add(vm_id)
        self.engine.emit("vm_provision", {
            "provider": self.provider_id, "vm_id": vm_id, "machine": machine_id,
            "cpu": cpu_entitlement, "mem": mem_entitlement, "ready_at": start,
        })
        self.engine.schedule("vm_booted", {
            "provider": self.provider_id, "vm_id": vm_id,
        }, fire_at=start)
        completion = start + ceil_div(workload_volume, cpu_entitlement)
        self.engine.emit("dispatch", {
            "provider": self.provider_id, "request_id": request_id, "vm_id": vm_id,
            "start": start, "completion": completion, "volume": workload_volume,
        })
        self.engine.schedule("completion", {
            "provider": self.provider_id, "request_id": request_id, "vm_id": vm_id,
            "start": start, "volume": workload_volume,
        }, fire_at=completion)
        return vm_id

    def release_vm(self, vm_id: str, at: int) -> None:
        vm = self.vms.pop(vm_id, None)
        if vm is None:
            raise UnknownVm(f"{self.provider_id} runs no VM {vm_id} at t={at}")
        self.hosted[vm.host].discard(vm_id)
        self.engine.emit("vm_release", {
            "provider": self.provider_id, "vm_id": vm_id, "machine": vm.host,
            "cpu": vm.cpu_entitlement, "mem": vm.mem_entitlement,
        })


def fleet_specs(provider_id: str, groups: list[dict]) -> list[tuple[str, int, int]]:
    """Expand (count, cpu_capacity, mem_capacity) groups into machine specs."""
    specs = []
    index = 0
    for group in groups:
        for _ in range(group["count"]):
            specs.append((f"{provider_id}-m{index:03d}", group["cpu_capacity"], group["mem_capacity"]))
            index += 1
    return specs
