"""End-to-end runs: determinism, conservation, and accounting identities."""

import hashlib
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from cloudmarket import simulation
from cloudmarket.datacenter import fleet_specs
from cloudmarket.exchange import WORLD
from cloudmarket.simulation import compare_modes, request_trace_digest, run_scenario
from cloudmarket.workload import dump_scenario, generate_requests, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def load(name):
    return load_scenario(str(SCENARIOS / name))


def journal_rows(result):
    return [
        (e.seq, e.at, e.debit, e.credit, e.amount, e.memo)
        for e in result.ledger.journal
    ]


@pytest.fixture(scope="module")
def smoke_market():
    return run_scenario(load("smoke.yaml"), seed=11, mode="market")


@pytest.fixture(scope="module")
def smoke_baseline():
    return run_scenario(load("smoke.yaml"), seed=11, mode="system_centric")


def test_same_seed_is_byte_identical():
    first = run_scenario(load("smoke.yaml"), seed=11, mode="market")
    second = run_scenario(load("smoke.yaml"), seed=11, mode="market")
    assert first.trace.lines() == second.trace.lines()
    assert journal_rows(first) == journal_rows(second)
    assert first.summary.to_json() == second.summary.to_json()
    assert first.request_digest == second.request_digest


def test_different_seeds_diverge():
    a = run_scenario(load("smoke.yaml"), seed=11, mode="market")
    b = run_scenario(load("smoke.yaml"), seed=12, mode="market")
    assert a.request_digest != b.request_digest
    assert a.trace.lines() != b.trace.lines()


@pytest.mark.parametrize("mode", ["market", "system_centric"])
def test_ledger_conserves_and_replays(mode, smoke_market, smoke_baseline):
    result = smoke_market if mode == "market" else smoke_baseline
    balances = result.ledger.balances
    assert sum(balances.values()) == 0
    assert result.ledger.replay() == balances
    # nobody but the world account may ever be negative
    assert all(v >= 0 for k, v in balances.items() if k != WORLD)


@pytest.mark.parametrize("mode", ["market", "system_centric"])
def test_population_identities(mode, smoke_market, smoke_baseline):
    result = smoke_market if mode == "market" else smoke_baseline
    s = result.summary
    assert s.submitted == len(result.requests) > 0
    assert s.served <= s.accepted <= s.submitted
    assert s.served + s.unserved <= s.submitted
    # every submitted request reached a terminal or rejected state by drain time
    terminal = s.served + s.unserved + sum(s.rejections.values())
    assert terminal >= s.submitted  # re-tries may reject one request repeatedly
    assert s.budget_violations == 0
    assert s.late == s.deadline_violations_served
    assert s.on_time + s.late == s.served


@pytest.mark.parametrize("mode", ["market", "system_centric"])
def test_money_identities(mode, smoke_market, smoke_baseline):
    result = smoke_market if mode == "market" else smoke_baseline
    s = result.summary
    assert s.consumer_spend >= 0
    assert all(v >= 0 for v in s.provider_revenue.values())
    served_paid = sum(
        ev.payload["consumer_paid"]
        for ev in result.trace.events if ev.kind == "request_served"
    )
    assert s.consumer_spend == served_paid
    # what consumers spent lands with providers and brokers, nowhere else
    assert s.consumer_spend == (
        sum(s.provider_revenue.values()) + sum(s.broker_net.values())
    )


def test_every_request_record_is_resolved(smoke_market):
    for record in smoke_market.collector.records.values():
        assert record.status in {"served", "unserved", "rejected"}
        if record.status == "served":
            assert record.consumer_paid <= record.budget
            assert record.completed_at is not None


def test_utilization_is_a_share(smoke_market, smoke_baseline):
    # two_class's baseline drains far past its horizon, so a share taken
    # over the horizon alone would exceed 1 there
    two_class = load("two_class.yaml")
    results = [smoke_market, smoke_baseline] + [
        run_scenario(two_class, seed=seed, mode=mode)
        for seed in range(20) for mode in ("market", "system_centric")
    ]
    for result in results:
        for value in result.summary.utilization.values():
            assert 0.0 <= value <= 1.0, (result.mode, result.seed, value)
    assert set(smoke_market.summary.utilization) == set(
        smoke_market.summary.provider_revenue)


@pytest.mark.parametrize("mode", ["market", "system_centric"])
@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("name", ["smoke.yaml", "two_class.yaml"])
def test_delivered_cpu_ticks_match_the_trace(name, seed, mode):
    # oracle: each completion delivers (fire_at - start) ticks at the cpu
    # its VM was provisioned with; utilization is that total over the
    # fleet's capacity across the whole simulated span
    scenario = load(name)
    result = run_scenario(scenario, seed=seed, mode=mode)
    events = result.trace.events
    vm_cpu = {ev.payload["vm_id"]: ev.payload["cpu"]
              for ev in events if ev.kind == "vm_provision"}
    delivered = {p.provider_id: 0 for p in scenario.providers}
    for ev in events:
        if ev.kind == "completion":
            p = ev.payload
            delivered[p["provider"]] += (ev.fire_at - p["start"]) * vm_cpu[p["vm_id"]]
    assert sum(delivered.values()) > 0
    span = max(scenario.horizon, events[-1].fire_at)
    for p in scenario.providers:
        fleet_cpu = sum(g.count * g.cpu_capacity for g in p.fleet)
        utilization = result.summary.utilization[p.provider_id]
        assert utilization == float(Fraction(delivered[p.provider_id], fleet_cpu * span))
        assert round(utilization * fleet_cpu * span) == delivered[p.provider_id]


def test_compare_modes_pairs_the_request_trace():
    market, baseline = compare_modes(load("smoke.yaml"), seed=4)
    assert market.request_digest == baseline.request_digest
    assert market.summary.submitted == baseline.summary.submitted
    assert market.mode == "market"
    assert baseline.mode == "system_centric"
    assert [r.request_id for r in market.requests] == [
        r.request_id for r in baseline.requests]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["smoke.yaml", "two_class.yaml"])
def test_compare_sides_equal_standalone_runs(name, seed, monkeypatch):
    # the baseline replays the market side's request trace instead of
    # generating its own; each side must still be the standalone run
    scenario = load(name)
    generated = []

    def counting_generate(*args):
        generated.append(args)
        return generate_requests(*args)

    monkeypatch.setattr(simulation, "generate_requests", counting_generate)
    pair = compare_modes(scenario, seed=seed)
    assert len(generated) == 1
    monkeypatch.undo()
    for side in pair:
        alone = run_scenario(replace(scenario, mode=side.mode), seed)
        assert side.summary.to_dict() == alone.summary.to_dict()
        assert side.trace_text == alone.trace_text
        assert side.collector.request_rows() == alone.collector.request_rows()
        assert journal_rows(side) == journal_rows(alone)


@pytest.mark.parametrize(
    "name", ["example.yaml", "smoke.yaml", "two_class.yaml", "util_pricing.yaml"],
)
def test_request_generation_does_not_read_the_mode(name):
    # compare_modes hands one generated trace to both sides, which is
    # sound only while generation is a function of (scenario, seed)
    scenario = load(name)
    digests = {
        request_trace_digest(generate_requests(replace(scenario, mode=mode), 0))
        for mode in ("market", "system_centric")
    }
    assert len(digests) == 1


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("mode", ["market", "system_centric"])
@pytest.mark.parametrize("name", ["smoke.yaml", "two_class.yaml", "util_pricing.yaml"])
def test_digests_read_on_demand_hash_what_they_name(name, mode):
    scenario = load(name)
    result = run_scenario(scenario, seed=0, mode=mode)
    assert result.summary.trace_digest == _sha256(result.trace_text)
    assert result.summary.scenario_digest == _sha256(dump_scenario(scenario))
    assert result.request_digest == request_trace_digest(result.requests)


def test_unknown_mode_is_refused():
    with pytest.raises(ValueError, match="mode"):
        run_scenario(load("smoke.yaml"), seed=1, mode="galactic")


def test_market_run_settles_every_dispatched_sla(smoke_market):
    # an SLA that dispatched but never settled would strand escrowed money
    settled = {
        ev.payload["sla_id"] for ev in smoke_market.trace.events
        if ev.kind == "settlement"
    }
    served = [
        ev.payload for ev in smoke_market.trace.events if ev.kind == "request_served"
    ]
    assert len(served) > 0
    assert len(settled) >= len(served)


@pytest.mark.parametrize("mode", ["market", "system_centric"])
@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize("name", ["smoke.yaml", "two_class.yaml", "util_pricing.yaml"])
def test_every_provision_fires_once_within_capacity(name, seed, mode):
    # provisions fire after the tick's releases, so none is deferred, and
    # an in-order replay of the VM lifecycle never overloads a machine
    scenario = load(name)
    result = run_scenario(scenario, seed=seed, mode=mode)
    capacity = {
        machine_id: (cpu, mem)
        for p in scenario.providers
        for machine_id, cpu, mem in fleet_specs(p.provider_id, [
            {"count": g.count, "cpu_capacity": g.cpu_capacity, "mem_capacity": g.mem_capacity}
            for g in p.fleet
        ])
    }
    used = {machine_id: [0, 0] for machine_id in capacity}
    kinds = Counter()
    for ev in result.trace.events:
        kinds[ev.kind] += 1
        assert "retries" not in ev.payload, ev
        sign = {"vm_provision": 1, "vm_release": -1}.get(ev.kind)
        if sign is None:
            continue
        machine = used[ev.payload["machine"]]
        machine[0] += sign * ev.payload["cpu"]
        machine[1] += sign * ev.payload["mem"]
        cpu_cap, mem_cap = capacity[ev.payload["machine"]]
        assert machine[0] <= cpu_cap and machine[1] <= mem_cap, ev
    assert kinds["vm_provision"] > 0
    assert kinds["provision_due"] == kinds["vm_provision"]


def _lean(scenario):
    # consumers funded with 500 each, so most submissions need a top-up
    return replace(scenario, consumers=tuple(
        replace(c, initial_funds=500) for c in scenario.consumers
    ))


@pytest.mark.parametrize("mode", ["market", "system_centric"])
@pytest.mark.parametrize("name, variant", [
    ("smoke.yaml", None), ("smoke.yaml", _lean), ("two_class.yaml", None),
], ids=["smoke", "smoke-lean", "two_class"])
def test_budget_top_ups_cover_the_budgets_in_flight(name, variant, mode):
    # oracle: replay submissions, resolutions and the journal in the order
    # the run made them; a consumer's in-flight budgets are those of its
    # submitted requests not yet served or unserved.  Each submission
    # funds exactly the shortfall of the balance against them.
    scenario = load(name) if variant is None else variant(load(name))
    seed = 0
    run_type = simulation._MarketRun if mode == "market" else simulation._BaselineRun
    run = run_type(scenario, seed, mode)
    journal = run.ledger.journal
    log = []  # (what, request_id, journal length at that moment)

    def on_fired(event):
        if event.kind == "request_submitted":
            log.append(("submitted", event.payload["request_id"], len(journal)))

    emit = run.engine.emit

    def logged_emit(kind, payload=None):
        if kind in ("request_served", "request_unserved"):
            log.append(("resolved", payload["request_id"], len(journal)))
        return emit(kind, payload)

    run.engine.add_observer(on_fired)
    run.engine.emit = logged_emit
    requests = generate_requests(scenario, seed)
    run.start()
    run.schedule_requests(requests)
    run.finish()

    by_id = {r.request_id: r for r in requests}
    in_flight = Counter()
    balance = Counter()
    replayed = 0
    expected_top_ups = []
    for what, request_id, mark in log:
        request = by_id[request_id]
        consumer = request.consumer_id
        if what == "resolved":
            in_flight[consumer] -= request.qos.budget
            continue
        for entry in journal[replayed:mark]:
            balance[entry.debit] -= entry.amount
            balance[entry.credit] += entry.amount
        replayed = mark
        in_flight[consumer] += request.qos.budget
        shortfall = in_flight[consumer] - balance[consumer]
        if shortfall > 0:
            entry = journal[mark]
            assert (entry.debit, entry.credit, entry.amount, entry.memo) == (
                WORLD, consumer, shortfall, "budget top-up"), request_id
            balance[consumer] += shortfall
            replayed = mark + 1
            expected_top_ups.append(mark)
        assert balance[consumer] >= in_flight[consumer], request_id
    top_ups = [i for i, e in enumerate(journal) if e.memo == "budget top-up"]
    assert top_ups == expected_top_ups
    assert sum(1 for what, *_ in log if what == "submitted") == len(requests)
    assert set(in_flight.values()) == {0}
    if name == "two_class.yaml" or variant is not None:
        assert top_ups


def test_served_requests_go_to_the_shortlisted_brokers():
    # each consumer shortlists its top_k brokers by margin rate, cheapest
    # first and ties by id, and spreads requests round-robin over them by
    # request number
    scenario = load("smoke.yaml")
    brokers = (
        ("broker-d", "1/10"), ("broker-c", "1/20"), ("broker-a", "1/12"),
        ("broker-b", "1/20"),
    )
    scenario = replace(
        scenario,
        brokers=tuple(
            replace(scenario.brokers[0], broker_id=broker_id, margin_rate=Fraction(margin))
            for broker_id, margin in brokers
        ),
        consumers=(
            replace(scenario.consumers[0], top_k=2),
            replace(scenario.consumers[1], top_k=9),
        ),
    )
    ranked = ["broker-b", "broker-c", "broker-a", "broker-d"]
    shortlist = {"acme": ranked[:2], "zenith": ranked}
    result = run_scenario(scenario, seed=3, mode="market")
    served = [ev.payload for ev in result.trace.events if ev.kind == "request_served"]
    consumer_of = {r.request_id: r.consumer_id for r in result.requests}
    for p in served:
        chosen = shortlist[consumer_of[p["request_id"]]]
        assert p["broker"] == chosen[int(p["request_id"][3:]) % len(chosen)], p
    assert {p["broker"] for p in served} == set(ranked)
