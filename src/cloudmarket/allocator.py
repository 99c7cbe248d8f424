"""SLA-driven admission control and pricing quotes.

The examiner either rejects a request with the most fundamental reason
that applies (deadline before budget before capacity) or accepts it and
commits a capacity block, so an accepted plan can never be invalidated
by later admissions.  A request whose block the exchange already
reserved is admitted by `admit_reserved`, which commits nothing new.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational

from .datacenter import Block, Datacenter
from .engine import SimEngine
from .money import Money, ceil_div, round_ratio

REJECT_DEADLINE = "DeadlineInfeasible"
REJECT_BUDGET = "BudgetInfeasible"
REJECT_CAPACITY = "CapacityUnavailable"


@dataclass(frozen=True, slots=True)
class QosSpec:
    deadline: int
    budget: Money
    cpu_need: int
    mem_need: int


@dataclass(frozen=True, slots=True)
class ServiceRequest:
    request_id: str
    consumer_id: str
    submit_time: int
    workload_volume: int
    qos: QosSpec

    @property
    def runtime(self) -> int:
        return ceil_div(self.workload_volume, self.qos.cpu_need)


@dataclass(frozen=True)
class AllocationPlan:
    request_id: str
    machine_id: str
    vm_start: int
    exec_start: int
    completion: int
    price: Money


@dataclass(frozen=True)
class Accept:
    plan: AllocationPlan
    accepted: bool = True


@dataclass(frozen=True)
class Reject:
    reason: str
    detail: str = ""
    accepted: bool = False


Decision = Accept | Reject


# -- pricing ----------------------------------------------------------------

@dataclass(frozen=True)
class Fixed:
    rate: Rational  # currency per cpu-tick of workload volume
    kind: str = "fixed"


@dataclass(frozen=True)
class PeakOffPeak:
    rate: Rational
    peak_multiplier: Rational
    peak_windows: tuple[tuple[int, int], ...]  # daily [start, end) tick spans
    day_length: int
    kind: str = "peak_off_peak"


@dataclass(frozen=True)
class UtilizationLinear:
    base_rate: Rational
    alpha: Rational
    kind: str = "utilization_linear"


PricingPolicy = Fixed | PeakOffPeak | UtilizationLinear


def quote(
    policy: PricingPolicy,
    volume: int,
    submit_time: int,
    utilization: tuple[int, int] = (0, 1),
) -> Money:
    """Price a request under the given policy, rounded half-up once.

    `utilization` is the share (committed, capacity) of the provider's cpu.
    """
    if isinstance(policy, UtilizationLinear):
        # base · volume · (1 + alpha · used / capacity)
        base, alpha = policy.base_rate, policy.alpha
        used, capacity = utilization
        return round_ratio(
            base.numerator * volume * (alpha.denominator * capacity + alpha.numerator * used),
            base.denominator * alpha.denominator * capacity,
        )
    n, d = policy.rate.numerator * volume, policy.rate.denominator
    if isinstance(policy, PeakOffPeak):
        tick = submit_time % policy.day_length
        if any(s <= tick < e for s, e in policy.peak_windows):
            n, d = n * policy.peak_multiplier.numerator, d * policy.peak_multiplier.denominator
    return round_ratio(n, d)


class SlaAllocator:
    """Admission examiner for one provider."""

    def __init__(
        self,
        engine: SimEngine,
        datacenter: Datacenter,
        pricing: PricingPolicy,
    ):
        self.engine = engine
        self.datacenter = datacenter
        self.pricing = pricing

    # -- admission -----------------------------------------------------------

    def examine(
        self,
        request: ServiceRequest,
        at: int,
        search_until: int | None = None,
    ) -> Decision:
        """Admit or reject a request at tick `at`.

        `search_until`, when given, replaces the deadline as the tick the
        work must end by: slots past the deadline are searched up to it and
        lateness is settled through penalties instead.
        """
        decision = self._examine_inner(request, at, search_until)
        self._emit_admission(request, decision, backed=False)
        return decision

    def admit_reserved(
        self,
        request: ServiceRequest,
        machine_id: str,
        start: int,
        price: Money,
    ) -> AllocationPlan:
        """Admit a request at its agreed `price` into the block reserved for
        it on `machine_id` from `start`, which holds exactly boot plus runtime."""
        exec_start = start + self.datacenter.boot_delay
        plan = AllocationPlan(
            request.request_id, machine_id, start, exec_start,
            exec_start + request.runtime, price,
        )
        self._emit_admission(request, Accept(plan), backed=True)
        return plan

    def _emit_admission(self, request: ServiceRequest, decision: Decision, backed: bool) -> None:
        payload = {
            "provider": self.datacenter.provider_id,
            "request_id": request.request_id,
            "accepted": decision.accepted,
            "reason": None if isinstance(decision, Accept) else decision.reason,
            "price": decision.plan.price if isinstance(decision, Accept) else None,
        }
        if isinstance(decision, Accept):
            payload.update({
                "machine": decision.plan.machine_id,
                "vm_start": decision.plan.vm_start,
                "completion": decision.plan.completion,
                "cpu": request.qos.cpu_need,
                "mem": request.qos.mem_need,
                "backed": backed,
            })
        self.engine.emit("admission", payload)

    def _examine_inner(
        self,
        request: ServiceRequest,
        at: int,
        search_until: int | None,
    ) -> Decision:
        qos = request.qos
        runtime = request.runtime
        boot = self.datacenter.boot_delay
        # fastest possible finish on an idle machine
        if search_until is None and at + boot + runtime > qos.deadline:
            return Reject(
                REJECT_DEADLINE,
                f"needs {boot + runtime} ticks from {at}, deadline {qos.deadline}",
            )
        price = quote(
            self.pricing, request.workload_volume, request.submit_time,
            self.datacenter.utilization_at(at),
        )
        if price > qos.budget:
            return Reject(REJECT_BUDGET, f"quote {price} exceeds budget {qos.budget}")

        end_by = qos.deadline if search_until is None else search_until
        latest_start = end_by - runtime - boot
        slot = self.datacenter.earliest_slot(
            at, latest_start, boot + runtime, qos.cpu_need, qos.mem_need,
        )
        if slot is None:
            return Reject(REJECT_CAPACITY, "no machine has a feasible slot")
        machine_id, vm_start = slot
        plan = AllocationPlan(
            request.request_id, machine_id, vm_start,
            vm_start + boot, vm_start + boot + runtime, price,
        )
        self.datacenter.calendars[machine_id].add(Block(
            start=vm_start, end=plan.completion,
            cpu=qos.cpu_need, mem=qos.mem_need, owner=request.request_id,
        ))
        return Accept(plan)
