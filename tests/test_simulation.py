"""End-to-end runs: determinism, conservation, and accounting identities."""

import gc
import hashlib
import os
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

import cloudmarket.engine as engine_module
from cloudmarket import simulation
from cloudmarket.datacenter import fleet_specs
from cloudmarket.engine import SimEngine, TraceStreamed, _CHUNK_LINES as CHUNK_LINES
from cloudmarket.exchange import WORLD, Ledger
from cloudmarket.metrics import CrossCheckFailure, MetricsCollector
from cloudmarket.simulation import compare_modes, request_trace_digest, run_scenario
from cloudmarket.workload import (
    dump_scenario,
    generate_requests,
    load_scenario,
    validate_scenario,
)

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
    assert list(first.trace.lines()) == list(second.trace.lines())
    assert journal_rows(first) == journal_rows(second)
    assert first.summary.to_json() == second.summary.to_json()
    assert first.request_digest == second.request_digest


def test_different_seeds_diverge():
    a = run_scenario(load("smoke.yaml"), seed=11, mode="market")
    b = run_scenario(load("smoke.yaml"), seed=12, mode="market")
    assert a.request_digest != b.request_digest
    assert list(a.trace.lines()) != list(b.trace.lines())


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
        assert list(side.trace.lines()) == list(alone.trace.lines())
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
    assert result.summary.trace_digest == _sha256("\n".join(result.trace.lines()))
    assert result.summary.scenario_digest == _sha256(dump_scenario(scenario))
    assert result.request_digest == request_trace_digest(result.requests)


def _replayed(name, reverse):
    """The scenario with its seed-0 requests as a trace arrival, and its
    providers, brokers and consumers listed in reverse if asked."""
    raw = yaml.safe_load((SCENARIOS / name).read_text(encoding="utf-8"))
    raw["workload"] = {"arrival": {"kind": "trace", "requests": [
        {"consumer_id": r.consumer_id, "submit_time": r.submit_time,
         "volume": r.workload_volume, "cpu_need": r.qos.cpu_need,
         "mem_need": r.qos.mem_need, "deadline": r.qos.deadline,
         "budget": r.qos.budget}
        for r in generate_requests(load(name), 0)
    ]}}
    if reverse:
        for key in ("providers", "brokers", "consumers"):
            raw[key] = raw[key][::-1]
    return validate_scenario(raw, name)


@pytest.mark.parametrize("mode", ["market", "system_centric"])
@pytest.mark.parametrize("name", ["smoke.yaml", "two_class.yaml"])
def test_listing_order_of_parties_does_not_matter(name, mode):
    # metamorphic relation: the scenario names its parties by id, so the
    # order it lists them in must not reach any artifact
    runs = [run_scenario(_replayed(name, reverse), seed=0, mode=mode)
            for reverse in (False, True)]
    assert len({run.request_digest for run in runs}) == 1
    summaries = []
    for run in runs:
        summary = run.summary.to_dict()
        summary.pop("scenario_digest")
        summaries.append(summary)
    forward, backward = runs
    assert list(forward.trace.lines()) == list(backward.trace.lines())
    assert journal_rows(forward) == journal_rows(backward)
    assert forward.collector.request_rows() == backward.collector.request_rows()
    assert summaries[0] == summaries[1]


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


def test_a_finished_run_is_freed_without_the_cyclic_collector(monkeypatch):
    # the engine's handlers are the run's bound methods and the run holds
    # the engine; once the run is over nothing may keep that cycle, or
    # every run of a sweep waits for a full collection
    engines = []

    class RecordedEngine(simulation.SimEngine):
        def __init__(self):
            super().__init__()
            engines.append(weakref.ref(self))

    monkeypatch.setattr(simulation, "SimEngine", RecordedEngine)
    scenario = load("smoke.yaml")
    gc.collect()
    gc.disable()
    try:
        for mode in ("market", "system_centric"):
            result = run_scenario(scenario, seed=11, mode=mode)
            trace = weakref.ref(result.trace)
            del result
            assert engines[-1]() is None, mode
            assert trace() is None, mode
    finally:
        gc.enable()
    assert len(engines) == 2


@pytest.mark.parametrize("mode", ["market", "system_centric"])
def test_a_streamed_run_matches_a_run_that_keeps_its_log(mode, tmp_path):
    # two_class fires more than one chunk of events: the streamed run
    # recounts each chunk before dropping it, the other its whole log
    scenario = load("two_class.yaml")
    path = tmp_path / "trace.log"
    with path.open("wb") as sink:
        streamed = run_scenario(scenario, seed=0, mode=mode, trace_sink=sink)
    whole = run_scenario(scenario, seed=0, mode=mode)
    assert streamed.summary.events_fired == whole.summary.events_fired > CHUNK_LINES
    assert streamed.collector.recounted == whole.collector.recounted
    assert streamed.collector.recounted.events == whole.summary.events_fired
    assert path.read_bytes() == ("\n".join(whole.trace.lines()) + "\n").encode("utf-8")
    assert streamed.summary.to_json() == whole.summary.to_json()
    assert journal_rows(streamed) == journal_rows(whole)
    assert streamed.trace.held == []
    with pytest.raises(TraceStreamed):
        streamed.trace.events


def test_a_finished_streamed_run_is_freed_without_the_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        with open(os.devnull, "wb") as sink:
            result = run_scenario(load("smoke.yaml"), seed=11, trace_sink=sink)
        trace, collector = weakref.ref(result.trace), weakref.ref(result.collector)
        del result
        assert trace() is None and collector() is None
    finally:
        gc.enable()


def _one_more_submitted(monkeypatch):
    handlers = dict(MetricsCollector._HANDLERS)
    submitted = handlers["request_submitted"]

    def count_the_first_twice(self, at, p):
        submitted(self, at, p)
        if self.submitted == 1:
            self.submitted += 1

    handlers["request_submitted"] = count_the_first_twice
    monkeypatch.setattr(MetricsCollector, "_HANDLERS", handlers)


def _doctored_journal(monkeypatch):
    transfer = Ledger.transfer

    def doctor_the_first_payment(self, debit, credit, amount, at, memo=""):
        entry = transfer(self, debit, credit, amount, at, memo)
        if debit != WORLD and not any(e.debit != WORLD for e in self.journal[:-1]):
            self.journal[-1] = replace(entry, amount=amount + 1)
        return entry

    monkeypatch.setattr(Ledger, "transfer", doctor_the_first_payment)


def _mispriced_served(monkeypatch):
    emit = SimEngine.emit

    def misprice_the_first_served(self, kind, payload=None):
        if kind == "request_served" and not getattr(self, "mispriced", False):
            self.mispriced = True
            payload = dict(payload, consumer_paid=payload["consumer_paid"] + 1)
        return emit(self, kind, payload)

    monkeypatch.setattr(SimEngine, "emit", misprice_the_first_served)


@pytest.mark.parametrize("streamed", [False, True])
@pytest.mark.parametrize("tamper, message", [
    (_one_more_submitted, "submitted: log says 40, tally 41"),
    (_doctored_journal, "journal replay"),
    (_mispriced_served, "consumer spend: events say"),
])
def test_cross_check_keeps_its_teeth_in_a_streamed_run(
        monkeypatch, tmp_path, tamper, message, streamed):
    # chunks of 64 events: smoke fires about ten of them, so the fault is
    # recounted from a chunk that the streamed run has already dropped
    monkeypatch.setattr(engine_module, "_CHUNK_LINES", 64)
    tamper(monkeypatch)
    path = tmp_path / "trace.log"
    with path.open("wb") as sink:
        with pytest.raises(CrossCheckFailure, match=message):
            run_scenario(load("smoke.yaml"), seed=11, mode="market",
                         trace_sink=sink if streamed else None)
    # the failed run's writer was reaped once it had written what it was handed
    if streamed:
        assert len(path.read_bytes().splitlines()) >= 64


@pytest.mark.parametrize("name", [
    "smoke.yaml", "two_class.yaml", "util_pricing.yaml", "example.yaml",
])
def test_no_fraction_is_built_while_a_run_runs(name, monkeypatch):
    # a run computes budgets, margins, quotes, offers, penalties and posted
    # prices from integer (numerator, denominator) pairs; only validation
    # builds Fractions, and they cost a tenth of a market run when built
    # per request or per cycle
    scenario = load(name)
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if hasattr(Fraction, "_from_coprime_ints"):
        # newer Pythons build arithmetic results without __new__
        from_coprime = Fraction._from_coprime_ints.__func__

        def counting_from_coprime(cls, numerator, denominator):
            built.append((numerator, denominator))
            return from_coprime(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_from_coprime))
    # the counter sees both a construction and an arithmetic result
    Fraction(1, 2) * 3
    assert len(built) >= 2
    built.clear()
    for mode in ("market", "system_centric"):
        run_scenario(scenario, seed=42, mode=mode)
    assert len(built) == 0, built[:5]
