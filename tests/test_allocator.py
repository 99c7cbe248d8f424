"""Admission control and pricing quotes."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cloudmarket.allocator import (
    Accept,
    Fixed,
    PeakOffPeak,
    QosSpec,
    Reject,
    ServiceRequest,
    SlaAllocator,
    UtilizationLinear,
    quote,
    REJECT_BUDGET,
    REJECT_CAPACITY,
    REJECT_DEADLINE,
)
from cloudmarket.datacenter import Block, Datacenter, MachineCalendar
from cloudmarket.engine import SimEngine, TraceRecorder
from test_money import round_half_up


def make_allocator(specs, rate=1, boot_delay=0):
    engine = SimEngine()
    dc = Datacenter(engine, "prov", specs, boot_delay=boot_delay)
    return SlaAllocator(engine, dc, Fixed(rate=Fraction(rate)))


def request(request_id, submit, volume, cpu, deadline, budget, mem=1):
    return ServiceRequest(
        request_id, "acme", submit, volume,
        QosSpec(deadline, budget, cpu, mem),
    )


# -- pricing ------------------------------------------------------------------------


def test_fixed_quote_is_rate_times_volume():
    assert quote(Fixed(rate=Fraction(100)), 50, submit_time=0) == 5_000


def test_peak_quote_doubles_inside_the_window():
    policy = PeakOffPeak(
        rate=Fraction(100), peak_multiplier=Fraction(2),
        peak_windows=((40, 80),), day_length=100,
    )
    assert quote(policy, 50, submit_time=45) == 10_000
    assert quote(policy, 50, submit_time=10) == 5_000
    # day wraps: tick 145 sits inside the second day's window
    assert quote(policy, 50, submit_time=145) == 10_000
    # boundaries: start is in, end is out
    assert quote(policy, 50, submit_time=40) == 10_000
    assert quote(policy, 50, submit_time=80) == 5_000


def test_idle_utilization_pricing_equals_fixed():
    linear = UtilizationLinear(base_rate=Fraction(100), alpha=Fraction(1, 2))
    fixed = Fixed(rate=Fraction(100))
    for volume in (1, 7, 50):
        assert quote(linear, volume, 0, utilization=(0, 1)) == quote(
            fixed, volume, 0
        )


def test_utilization_pricing_scales_linearly():
    linear = UtilizationLinear(base_rate=Fraction(100), alpha=Fraction(1, 2))
    assert quote(linear, 10, 0, utilization=(4, 4)) == 1_500
    assert quote(linear, 10, 0, utilization=(1, 2)) == 1_250


def test_quote_rounds_half_up_once():
    # 3 * 7 * (1 + 1/3 * 1/2) = 24.5 -> 25
    linear = UtilizationLinear(base_rate=Fraction(3), alpha=Fraction(1, 3))
    assert quote(linear, 7, 0, utilization=(3, 6)) == 25


rates = st.fractions(min_value=0, max_value=10**4, max_denominator=10**6)


@st.composite
def utilizations(draw):
    capacity = draw(st.integers(min_value=1, max_value=10**4))
    return draw(st.integers(min_value=0, max_value=capacity)), capacity


@st.composite
def pricing_policies(draw):
    kind = draw(st.sampled_from(["fixed", "peak_off_peak", "utilization_linear"]))
    if kind == "fixed":
        return Fixed(rate=draw(rates))
    if kind == "utilization_linear":
        return UtilizationLinear(base_rate=draw(rates), alpha=draw(rates))
    day_length = draw(st.integers(min_value=1, max_value=200))
    bounds = st.integers(min_value=0, max_value=day_length)
    windows = tuple(sorted(tuple(sorted(w)) for w in draw(
        st.lists(st.tuples(bounds, bounds), max_size=3)
    )))
    return PeakOffPeak(
        rate=draw(rates), peak_multiplier=draw(rates),
        peak_windows=windows, day_length=day_length,
    )


def reference_quote(policy, volume, submit_time, utilization):
    """The quote as exact rational arithmetic, rounded half-up once."""
    if isinstance(policy, Fixed):
        return round_half_up(policy.rate * volume)
    if isinstance(policy, PeakOffPeak):
        tick = submit_time % policy.day_length
        in_peak = any(s <= tick < e for s, e in policy.peak_windows)
        return round_half_up(policy.rate * volume * (policy.peak_multiplier if in_peak else 1))
    share = Fraction(*utilization)
    return round_half_up(policy.base_rate * volume * (1 + policy.alpha * share))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    policy=pricing_policies(),
    volume=st.integers(min_value=0, max_value=10**6),
    submit_time=st.integers(min_value=0, max_value=10**5),
    utilization=utilizations(),
)
def test_quote_matches_the_rational_formula(policy, volume, submit_time, utilization):
    assert quote(policy, volume, submit_time, utilization) == reference_quote(
        policy, volume, submit_time, utilization,
    )


# -- admission ----------------------------------------------------------------------


def test_accepts_exactly_feasible_deadline():
    alloc = make_allocator([("m1", 4, 16)])
    req = request("req000001", 10, volume=100, cpu=4, deadline=35, budget=10_000)
    decision = alloc.examine(req, at=10)
    assert isinstance(decision, Accept)
    assert decision.plan.completion == 35
    assert decision.plan.vm_start == 10


def test_rejects_unmeetable_deadline_first():
    alloc = make_allocator([("m1", 4, 16)])
    req = request("req000001", 10, volume=100, cpu=4, deadline=20, budget=10_000)
    decision = alloc.examine(req, at=10)
    assert isinstance(decision, Reject)
    assert decision.reason == REJECT_DEADLINE


def test_rejects_over_budget_quote():
    alloc = make_allocator([("m1", 4, 16)], rate=100)
    req = request("req000001", 0, volume=50, cpu=1, deadline=100, budget=4_999)
    decision = alloc.examine(req, at=0)
    assert isinstance(decision, Reject)
    assert decision.reason == REJECT_BUDGET


def test_rejects_when_no_slot_exists():
    alloc = make_allocator([("m1", 4, 16)])
    first = request("req000001", 0, volume=40, cpu=4, deadline=10, budget=10_000)
    assert isinstance(alloc.examine(first, at=0), Accept)
    second = request("req000002", 0, volume=40, cpu=4, deadline=10, budget=10_000)
    decision = alloc.examine(second, at=0)
    assert isinstance(decision, Reject)
    assert decision.reason == REJECT_CAPACITY


def test_deadline_precedes_budget_in_rejection_order():
    alloc = make_allocator([("m1", 4, 16)], rate=100)
    # both infeasible: deadline must win
    req = request("req000001", 0, volume=100, cpu=4, deadline=5, budget=1)
    assert alloc.examine(req, at=0).reason == REJECT_DEADLINE


def test_boot_delay_counts_against_the_deadline():
    alloc = make_allocator([("m1", 4, 16)], boot_delay=5)
    req = request("req000001", 0, volume=40, cpu=4, deadline=14, budget=10_000)
    assert alloc.examine(req, at=0).reason == REJECT_DEADLINE
    req2 = request("req000002", 0, volume=40, cpu=4, deadline=15, budget=10_000)
    decision = alloc.examine(req2, at=0)
    assert isinstance(decision, Accept)
    assert decision.plan.exec_start == 5
    assert decision.plan.completion == 15


def test_queued_start_inside_the_deadline():
    # second identical request runs after the first, still in time
    alloc = make_allocator([("m1", 4, 16)])
    a = request("req000001", 0, volume=40, cpu=4, deadline=30, budget=10_000)
    b = request("req000002", 0, volume=40, cpu=4, deadline=30, budget=10_000)
    plan_a = alloc.examine(a, at=0).plan
    plan_b = alloc.examine(b, at=0).plan
    assert plan_a.completion == 10
    assert plan_b.vm_start == 10
    assert plan_b.completion == 20


def test_backed_admission_sits_inside_the_reservation():
    # a reservation occupies the calendar; an open search must steer
    # around it, while the reserved admission lands inside it
    alloc = make_allocator([("m1", 4, 16)])
    alloc.datacenter.calendars["m1"].add(Block(5, 30, 4, 4, owner="rsv000001"))
    open_search = alloc.examine(
        request("req000001", 0, volume=8, cpu=4, deadline=100, budget=10_000),
        at=5,
    )
    assert isinstance(open_search, Accept)
    assert open_search.plan.vm_start == 30  # pushed past the hold
    backed = alloc.admit_reserved(
        request("req000002", 0, volume=8, cpu=4, deadline=100, budget=10_000),
        machine_id="m1", start=5, price=1_000,
    )
    assert backed.vm_start == 5
    assert backed.completion == 7


def test_admit_reserved_emits_the_backed_admission_and_commits_nothing():
    # the reserved block is boot + runtime long; the agreed price stands
    # even above the posted quote (8 cu-ticks at 100 = 800)
    alloc = make_allocator([("m1", 4, 16)], rate=100, boot_delay=2)
    recorder = TraceRecorder(alloc.engine)
    calendar = alloc.datacenter.calendars["m1"]
    calendar.add(Block(5, 9, 4, 2, owner="rsv000001"))
    alloc.engine.run_until(3)
    plan = alloc.admit_reserved(
        request("req000001", 0, volume=8, cpu=4, deadline=20, budget=500, mem=2),
        machine_id="m1", start=5, price=1_234,
    )
    assert (plan.vm_start, plan.exec_start, plan.completion, plan.price) == (5, 7, 9, 1_234)
    assert calendar.blocks == [Block(5, 9, 4, 2, owner="rsv000001")]
    alloc.engine.drain()
    [event] = recorder.events
    assert (event.kind, event.fire_at) == ("admission", 3)
    assert list(event.payload.items()) == [
        ("provider", "prov"), ("request_id", "req000001"), ("accepted", True),
        ("reason", None), ("price", 1_234), ("machine", "m1"), ("vm_start", 5),
        ("completion", 9), ("cpu", 4), ("mem", 2), ("backed", True),
    ]


def test_relaxed_deadline_mode_queues_late_work():
    alloc = make_allocator([("m1", 4, 16)])
    a = request("req000001", 0, volume=120, cpu=4, deadline=30, budget=10_000)
    b = request("req000002", 0, volume=120, cpu=4, deadline=30, budget=10_000)
    assert alloc.examine(a, at=0).plan.completion == 30
    # the queue behind a ends at 60: a search that stops short finds no slot
    short = alloc.examine(b, at=0, search_until=59)
    assert isinstance(short, Reject) and short.reason == REJECT_CAPACITY
    relaxed = alloc.examine(b, at=0, search_until=400)
    assert isinstance(relaxed, Accept)
    assert relaxed.plan.completion == 60  # late, penalties handle it


def _replay_schedulable(accepted_plans, cpu_capacity):
    """Per-tick recomputation of machine load from the accepted plans."""
    load = {}
    for plan, cpu in accepted_plans:
        for t in range(plan.vm_start, plan.completion):
            load[t] = load.get(t, 0) + cpu
    return all(v <= cpu_capacity for v in load.values())


def test_oversubscribed_burst_admits_only_the_schedulable_subset():
    # 30 identical requests, room for 10 by the shared deadline
    alloc = make_allocator([("m1", 4, 16)])
    accepted = []
    rejected = 0
    for i in range(30):
        req = request(f"req{i:06d}", 0, volume=40, cpu=4, deadline=100, budget=9_999)
        decision = alloc.examine(req, at=0)
        if isinstance(decision, Accept):
            accepted.append((decision.plan, 4))
        else:
            rejected += 1
            assert decision.reason in (REJECT_DEADLINE, REJECT_CAPACITY)
    assert len(accepted) == 10
    assert rejected == 20
    assert _replay_schedulable(accepted, cpu_capacity=4)


def test_randomized_admissions_never_overload():
    # oracle: replay every accepted plan against per-tick capacity
    rng = random.Random(99)
    for case in range(60):
        cap = rng.randint(2, 6)
        alloc = make_allocator(
            [("m1", cap, 64), ("m2", cap, 64)], boot_delay=rng.randint(0, 2)
        )
        plans = {"m1": [], "m2": []}
        for i in range(rng.randint(5, 25)):
            at = rng.randint(0, 30)
            cpu = rng.randint(1, cap)
            req = request(
                f"req{i:06d}", at,
                volume=rng.randint(1, 60), cpu=cpu,
                deadline=at + rng.randint(1, 50), budget=10_000,
            )
            decision = alloc.examine(req, at=at)
            if isinstance(decision, Accept):
                plans[decision.plan.machine_id].append((decision.plan, cpu))
                assert decision.plan.completion <= req.qos.deadline
                assert decision.plan.vm_start >= at
        for machine_id, accepted in plans.items():
            assert _replay_schedulable(accepted, cap), (case, machine_id)
