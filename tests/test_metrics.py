"""Collector aggregates, summary serialization, and the three-way cross check."""

import dataclasses
import json
import os
import random
from fractions import Fraction

import pytest

from cloudmarket.engine import Event, SimEngine, TraceRecorder
from cloudmarket.exchange import Ledger
from cloudmarket.metrics import (
    REQUEST_CSV_FIELDS,
    CrossCheckFailure,
    MetricsCollector,
    OutOfOrderEvent,
    report,
)


def feed(collector, events, at, kind, payload):
    """Log one event and fold it into the collector, as a chunk of one."""
    event = Event(at, len(events), kind, payload)
    events.append(event)
    collector.record([event])


def summarize(collector, events, ledger, *, providers, brokers, consumers,
              utilization=None):
    return collector.summary(
        scenario="synthetic",
        scenario_digest=lambda: "0" * 16,
        mode="market",
        seed=7,
        horizon=100,
        events_fired=len(events),
        trace_digest=lambda: "f" * 16,
        ledger=ledger,
        provider_ids=providers,
        broker_ids=brokers,
        consumer_ids=consumers,
        utilization=utilization or {},
    )


def small_run():
    """One served request, one budget rejection, consistent ledger."""
    collector = MetricsCollector()
    events = []
    ledger = Ledger()
    ledger.fund("acme", 5_000, at=0)
    ledger.open_account("alpine")

    feed(collector, events, 0, "request_submitted", {
        "request_id": "req000001", "consumer": "acme", "volume": 12,
        "cpu_need": 2, "deadline": 20, "budget": 900,
    })
    feed(collector, events, 0, "admission", {
        "request_id": "req000001", "accepted": True,
        "provider": "alpine", "price": 600,
    })
    feed(collector, events, 1, "request_submitted", {
        "request_id": "req000002", "consumer": "acme", "volume": 50,
        "cpu_need": 2, "deadline": 30, "budget": 10,
    })
    feed(collector, events, 1, "admission", {
        "request_id": "req000002", "accepted": False,
        "reason": "BudgetInfeasible",
    })
    ledger.transfer("acme", "alpine", 600, at=18, memo="invoice req000001")
    feed(collector, events, 18, "settlement", {"sla_id": "sla000001", "penalty": 0})
    feed(collector, events, 18, "request_served", {
        "request_id": "req000001", "provider": "alpine",
        "completed_at": 18, "lateness": 0,
        "consumer_paid": 600, "penalty_received": 0,
    })
    return collector, events, ledger


def small_summary():
    collector, events, ledger = small_run()
    summary = summarize(
        collector, events, ledger,
        providers=["alpine"], brokers=[], consumers=["acme"],
        utilization={"alpine": 0.25},
    )
    return collector, events, ledger, summary


def test_empty_collector_summarizes_to_zeroes():
    collector = MetricsCollector()
    ledger = Ledger()
    ledger.fund("acme", 1_000, at=0)
    summary = summarize(collector, [], ledger,
                        providers=[], brokers=[], consumers=["acme"])
    assert summary.submitted == 0
    assert summary.accepted == 0
    assert summary.served == 0
    assert summary.unserved == 0
    assert summary.rejections == {}
    assert summary.consumer_spend == 0
    assert summary.mean_turnaround is None
    assert summary.mean_price is None
    collector.cross_check([], summary, ledger)


def test_single_lifecycle_counts():
    *_, summary = small_summary()
    assert summary.submitted == 2
    assert summary.accepted == 1
    assert summary.served == 1
    assert summary.rejections == {"BudgetInfeasible": 1}
    assert summary.consumer_spend == 600
    assert summary.provider_revenue == {"alpine": 600}
    assert summary.on_time == 1 and summary.late == 0
    assert summary.mean_turnaround == 18.0
    assert summary.mean_price == 600.0


def test_funding_is_read_from_the_journal():
    # every debit of the world account is funding, top-ups included, so
    # spend and broker net count only what moved between participants
    collector, events, ledger = small_run()
    ledger.fund("acme", 400, at=18, memo="budget top-up")
    ledger.fund("broker-a", 2_000, at=0)
    ledger.transfer("broker-a", "alpine", 150, at=18, memo="trade 1")
    summary = summarize(collector, events, ledger, providers=["alpine"],
                        brokers=["broker-a"], consumers=["acme"])
    assert summary.consumer_spend == 600
    assert summary.broker_net == {"broker-a": -150}
    assert summary.provider_revenue == {"alpine": 750}
    collector.cross_check(events, summary, ledger)


def test_cross_check_accepts_consistent_run():
    collector, events, ledger, summary = small_summary()
    collector.cross_check(events, summary, ledger)


def test_cross_check_catches_tampered_tally():
    collector, events, ledger, summary = small_summary()
    summary = dataclasses.replace(summary, submitted=summary.submitted + 1)
    with pytest.raises(CrossCheckFailure, match="submitted"):
        collector.cross_check(events, summary, ledger)


def test_cross_check_catches_tampered_journal():
    collector, events, ledger, summary = small_summary()
    # live balances still agree with the summary, but the audit trail lies
    doctored = dataclasses.replace(ledger.journal[-1], amount=599)
    ledger.journal[-1] = doctored
    with pytest.raises(CrossCheckFailure, match="replay"):
        collector.cross_check(events, summary, ledger)


def test_cross_check_catches_mispriced_served_event():
    collector, events, ledger, summary = small_summary()
    for i, ev in enumerate(events):
        if ev.kind == "request_served":
            payload = dict(ev.payload, consumer_paid=601)
            events[i] = dataclasses.replace(ev, payload=payload)
    with pytest.raises(CrossCheckFailure, match="spend"):
        collector.cross_check(events, summary, ledger)


def streamed(collector, events):
    """Pass the log through a recorder that streams it in chunks of two,
    recounting each chunk before it is dropped, as a streamed run does;
    return the part short of a chunk, which the run's engine would hold."""
    handed = len(events) - len(events) % 2
    with open(os.devnull, "wb") as sink:
        recorder = TraceRecorder(SimEngine(), sink, on_chunk=collector.recount)
        for start in range(0, handed, 2):
            recorder(events[start:start + 2])
        recorder.close()
    assert handed > 2
    return events[handed:]


def served_at_601(summary, events, ledger):
    for i, ev in enumerate(events):
        if ev.kind == "request_served":
            events[i] = dataclasses.replace(ev, payload=dict(ev.payload, consumer_paid=601))
    return summary


def doctored_journal(summary, events, ledger):
    ledger.journal[-1] = dataclasses.replace(ledger.journal[-1], amount=599)
    return summary


def one_more_submitted(summary, events, ledger):
    return dataclasses.replace(summary, submitted=summary.submitted + 1)


@pytest.mark.parametrize("tamper, message", [
    (None, None),
    (one_more_submitted, "submitted"),
    (doctored_journal, "replay"),
    (served_at_601, "spend"),
])
def test_cross_check_keeps_its_teeth_when_the_log_is_streamed(tamper, message):
    # the same faults as the tests above, recounted a chunk at a time
    collector, events, ledger, summary = small_summary()
    if tamper is not None:
        summary = tamper(summary, events, ledger)
    rest = streamed(collector, events)
    if message is None:
        collector.cross_check(rest, summary, ledger)
    else:
        with pytest.raises(CrossCheckFailure, match=message):
            collector.cross_check(rest, summary, ledger)


def test_cross_check_counts_each_event_once():
    collector, events, ledger, summary = small_summary()
    rest = streamed(collector, events)
    whole = MetricsCollector()
    whole.recount(events)
    collector.recount(rest)
    assert collector.recounted == whole.recounted
    assert whole.recounted.events == len(events) == summary.events_fired
    # a part recounted twice, or never, shows as a count of events
    collector.recount(events[:1])
    with pytest.raises(CrossCheckFailure, match="events: 7 recounted, 6 fired"):
        collector.cross_check([], summary, ledger)
    with pytest.raises(CrossCheckFailure, match="events: 5 recounted, 6 fired"):
        MetricsCollector().cross_check(events[1:], summary, ledger)


def test_events_must_arrive_in_time_order():
    def trade(at, seq):
        return Event(at, seq, "trade", {"quantity": 1})

    collector = MetricsCollector()
    collector.record([trade(4, 0), trade(5, 1)])
    collector.record([trade(5, 2)])  # ties are fine, across chunks too
    with pytest.raises(OutOfOrderEvent, match="trade at 3 after seeing 5"):
        collector.record([trade(3, 3)])
    with pytest.raises(OutOfOrderEvent, match="trade at 6 after seeing 7"):
        MetricsCollector().record([trade(7, 0), trade(6, 1)])


def test_unknown_event_kinds_are_kept_but_ignored():
    engine = SimEngine()
    log = TraceRecorder(engine)
    collector = MetricsCollector()
    engine.add_observer(collector.record)
    engine.emit("provider_gossip", {"anything": True})
    engine.drain()
    assert [(ev.kind, ev.payload) for ev in log.events] == [
        ("provider_gossip", {"anything": True})]
    assert collector.submitted == 0 and collector.records == {}


def test_lateness_aggregation_and_mean_price():
    collector = MetricsCollector()
    events = []
    ledger = Ledger()
    ledger.fund("acme", 10_000, at=0)
    ledger.open_account("alpine")
    for n, (price, paid, completed, lateness) in enumerate(
        [(600, 600, 10, 0), (900, 860, 25, 3)], start=1
    ):
        rid = f"req{n:06d}"
        feed(collector, events, 0, "request_submitted", {
            "request_id": rid, "consumer": "acme", "volume": 8,
            "cpu_need": 1, "deadline": 22, "budget": 1_000,
        })
        feed(collector, events, 0, "admission", {
            "request_id": rid, "accepted": True, "provider": "alpine",
            "price": price,
        })
    feed(collector, events, 10, "request_served", {
        "request_id": "req000001", "completed_at": 10, "lateness": 0,
        "consumer_paid": 600, "penalty_received": 0,
    })
    feed(collector, events, 25, "request_served", {
        "request_id": "req000002", "completed_at": 25, "lateness": 3,
        "consumer_paid": 860, "penalty_received": 40,
    })
    ledger.transfer("acme", "alpine", 600 + 860, at=25, memo="invoices")
    summary = summarize(collector, events, ledger,
                        providers=["alpine"], brokers=[], consumers=["acme"])
    assert summary.late == 1 and summary.on_time == 1
    assert summary.total_lateness == 3
    assert summary.deadline_violations_served == 1
    assert summary.mean_turnaround == 17.5
    assert summary.mean_price == 750.0
    collector.cross_check(events, summary, ledger)


def random_stream(rng):
    """Synthetic but internally coherent event stream plus a matching ledger.

    Serves as input for recomputing every aggregate offline; the collector
    had better agree with a flat pass over the same list.
    """
    collector = MetricsCollector()
    ledger = Ledger()
    ledger.fund("acme", 10_000_000, at=0)
    ledger.open_account("alpine")
    log = []

    def feed_one(at, kind, payload):
        feed(collector, log, at, kind, payload)

    t = 0
    for n in range(1, rng.randint(5, 40)):
        t += rng.randint(0, 3)
        rid = f"req{n:06d}"
        feed_one(t, "request_submitted", {
            "request_id": rid, "consumer": "acme",
            "volume": rng.randint(1, 50), "cpu_need": rng.randint(1, 4),
            "deadline": t + rng.randint(5, 60), "budget": rng.randint(100, 2_000),
        })
        fate = rng.random()
        if fate < 0.3:
            feed_one(t, "admission", {
                "request_id": rid, "accepted": False,
                "reason": rng.choice([
                    "BudgetInfeasible", "DeadlineInfeasible", "CapacityUnavailable",
                ]),
            })
        elif fate < 0.85:
            price = rng.randint(50, 1_000)
            feed_one(t, "admission", {
                "request_id": rid, "accepted": True,
                "provider": "alpine", "price": price,
            })
            if rng.random() < 0.9:
                done = t + rng.randint(1, 40)
                feed_one(done, "settlement",
                     {"sla_id": f"sla{n:06d}", "penalty": rng.randint(0, 30)})
                ledger.transfer("acme", "alpine", price, at=done, memo=f"invoice {rid}")
                feed_one(done, "request_served", {
                    "request_id": rid, "completed_at": done,
                    "lateness": rng.choice([0, 0, 0, 2, 5]),
                    "consumer_paid": price, "penalty_received": 0,
                })
                t = done
            else:
                feed_one(t, "request_unserved", {"request_id": rid, "reason": "Expired"})
        if rng.random() < 0.3:
            feed_one(t, "trade", {"quantity": rng.randint(1, 9),
                              "price": rng.randint(1, 20)})
        if rng.random() < 0.2:
            feed_one(t, "negotiation_outcome",
                 {"result": rng.choice(["agreement", "breakdown"])})
    return collector, ledger, log


def test_aggregates_match_offline_recomputation():
    # oracle: one flat pass over the captured event list, no collector involved
    for case in range(40):
        rng = random.Random(9_100 + case)
        collector, ledger, log = random_stream(rng)
        events = [(ev.fire_at, ev.kind, ev.payload) for ev in log]
        summary = summarize(collector, log, ledger,
                            providers=["alpine"], brokers=[], consumers=["acme"])
        assert summary.submitted == sum(
            1 for _, k, _ in events if k == "request_submitted")
        assert summary.accepted == sum(
            1 for _, k, p in events if k == "admission" and p["accepted"])
        assert summary.served == sum(
            1 for _, k, _ in events if k == "request_served")
        assert summary.unserved == sum(
            1 for _, k, _ in events if k == "request_unserved")
        rejections = {}
        for _, k, p in events:
            if k == "admission" and not p["accepted"]:
                rejections[p["reason"]] = rejections.get(p["reason"], 0) + 1
        assert summary.rejections == rejections
        assert summary.trades == sum(1 for _, k, _ in events if k == "trade")
        assert summary.traded_quantity == sum(
            p["quantity"] for _, k, p in events if k == "trade")
        assert summary.penalties_paid == sum(
            p["penalty"] for _, k, p in events if k == "settlement")
        assert summary.consumer_spend == sum(
            p["consumer_paid"] for _, k, p in events if k == "request_served")
        late = [p["lateness"] for _, k, p in events
                if k == "request_served" and p["lateness"] > 0]
        assert summary.late == len(late)
        assert summary.total_lateness == sum(late)
        prices = [p["price"] for _, k, p in events if k == "admission" and p["accepted"]]
        assert summary.mean_price == (
            float(Fraction(sum(prices), len(prices))) if prices else None)
        collector.cross_check(log, summary, ledger)


def test_serialization_is_reproducible():
    *_, first = small_summary()
    *_, second = small_summary()
    assert first.to_json() == second.to_json()
    assert report(first) == report(second)
    # and the json body survives a round trip with key order intact
    body = json.loads(first.to_json())
    assert list(body) == [
        "scenario", "scenario_digest", "mode", "seed", "horizon",
        "events_fired", "trace_digest", "requests", "service", "money",
        "market", "utilization",
    ]
    # the digests are the summary's callables, read when serialized
    assert body["scenario_digest"] == "0" * 16
    assert body["trace_digest"] == "f" * 16


def test_request_rows_are_sorted_and_complete():
    collector, *_ = small_summary()
    rows = collector.request_rows()
    assert [r["request_id"] for r in rows] == ["req000001", "req000002"]
    assert all(list(r) == REQUEST_CSV_FIELDS for r in rows)
    served, rejected = rows
    assert served["status"] == "served"
    assert served["consumer_paid"] == 600
    assert served["turnaround"] == 18
    assert rejected["status"] == "rejected"
    assert rejected["reject_reason"] == "BudgetInfeasible"
    assert rejected["completed_at"] == ""


def test_report_mentions_the_headline_numbers():
    *_, summary = small_summary()
    text = report(summary)
    submitted_line = next(l for l in text.splitlines() if "submitted" in l)
    assert submitted_line.split()[-1] == "2"
    assert "BudgetInfeasible" in text
    assert "alpine" in text
