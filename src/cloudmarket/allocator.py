"""SLA-driven admission control and pricing quotes.

The examiner either rejects a request with the most fundamental reason
that applies (deadline before budget before capacity) or accepts it and
commits a capacity block, so an accepted plan can never be invalidated
by later admissions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .datacenter import Block, Datacenter
from .engine import SimEngine
from .money import Money, ceil_div, round_half_up

REJECT_DEADLINE = "DeadlineInfeasible"
REJECT_BUDGET = "BudgetInfeasible"
REJECT_CAPACITY = "CapacityUnavailable"


@dataclass(frozen=True)
class QosSpec:
    deadline: int
    budget: Money
    cpu_need: int
    mem_need: int


@dataclass(frozen=True)
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
    rate: Fraction  # currency per cpu-tick of workload volume
    kind: str = "fixed"


@dataclass(frozen=True)
class PeakOffPeak:
    rate: Fraction
    peak_multiplier: Fraction
    peak_windows: tuple[tuple[int, int], ...]  # daily [start, end) tick spans
    day_length: int
    kind: str = "peak_off_peak"


@dataclass(frozen=True)
class UtilizationLinear:
    base_rate: Fraction
    alpha: Fraction
    kind: str = "utilization_linear"


PricingPolicy = Fixed | PeakOffPeak | UtilizationLinear


def quote(
    policy: PricingPolicy,
    volume: int,
    submit_time: int,
    utilization: Fraction = Fraction(0),
) -> Money:
    """Price a request under the given policy, rounded half-up once."""
    if isinstance(policy, Fixed):
        exact = policy.rate * volume
    elif isinstance(policy, PeakOffPeak):
        tick = submit_time % policy.day_length
        in_peak = any(s <= tick < e for s, e in policy.peak_windows)
        exact = policy.rate * volume * (policy.peak_multiplier if in_peak else 1)
    else:
        exact = policy.base_rate * volume * (1 + policy.alpha * utilization)
    return round_half_up(exact)


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
        backing: tuple[str, int, int] | None = None,
        agreed_price: Money | None = None,
        search_until: int | None = None,
    ) -> Decision:
        """Admit or reject a request at tick `at`.

        `backing` is (machine_id, window_start, window_end) for a request
        whose capacity was already reserved; the plan then sits inside the
        reservation and no new commitment is made.  `agreed_price`
        overrides the posted quote when a price was already negotiated.
        `search_until`, when given, replaces the deadline as the tick the
        work must end by: slots past the deadline are searched up to it and
        lateness is settled through penalties instead.
        """
        decision = self._examine_inner(request, at, backing, agreed_price, search_until)
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
                "backed": backing is not None,
            })
        self.engine.emit("admission", payload)
        return decision

    def _examine_inner(
        self,
        request: ServiceRequest,
        at: int,
        backing: tuple[str, int, int] | None,
        agreed_price: Money | None,
        search_until: int | None,
    ) -> Decision:
        qos = request.qos
        runtime = request.runtime
        boot = self.datacenter.boot_delay
        if backing is not None:
            machine_id, window_start, window_end = backing
            vm_start = max(at, window_start)
            exec_start = vm_start + boot
            completion = exec_start + runtime
            if completion > window_end:
                return Reject(REJECT_CAPACITY, "reserved window too small")
            price = agreed_price if agreed_price is not None else self._quote_now(request, at)
            return Accept(AllocationPlan(
                request.request_id, machine_id, vm_start, exec_start, completion, price,
            ))

        # fastest possible finish on an idle machine
        if search_until is None and at + boot + runtime > qos.deadline:
            return Reject(
                REJECT_DEADLINE,
                f"needs {boot + runtime} ticks from {at}, deadline {qos.deadline}",
            )
        price = agreed_price if agreed_price is not None else self._quote_now(request, at)
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

    def _quote_now(self, request: ServiceRequest, at: int) -> Money:
        return quote(
            self.pricing,
            request.workload_volume,
            request.submit_time,
            self.datacenter.utilization_at(at),
        )
