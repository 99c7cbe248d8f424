"""Run measurement: per-request records, aggregates, and consistency checks.

The collector ingests the event stream in time order and keeps
incremental aggregates and per-request records; the raw events live in
the run's one event log (engine.TraceRecorder).  After a run the
aggregates are recomputed from that log and reconciled against the
money ledger; any disagreement raises instead of reporting silently
wrong numbers.  What each account was funded with is read from the
journal's debits to the world account.  A summary's trace and scenario digests are computed
on first read, so a run whose digests nobody reads hashes nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .engine import Event
from .exchange import Ledger, WORLD
from .money import Money


class OutOfOrderEvent(Exception):
    """record() must be fed events in nondecreasing time order."""


class CrossCheckFailure(Exception):
    """Aggregates, the event log, and the ledger stopped agreeing."""


@dataclass
class RequestRecord:
    request_id: str
    consumer: str = ""
    submit_time: int = 0
    volume: int = 0
    cpu_need: int = 0
    deadline: int = 0
    budget: Money = 0
    status: str = "submitted"
    provider: str | None = None
    broker: str | None = None
    reject_reason: str | None = None
    agreed_price: Money | None = None
    completed_at: int | None = None
    lateness: int = 0
    consumer_paid: Money = 0
    penalty_received: Money = 0

    @property
    def turnaround(self) -> int | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submit_time


@dataclass
class RunSummary:
    scenario: str
    mode: str
    seed: int
    horizon: int
    events_fired: int
    submitted: int
    accepted: int
    served: int
    unserved: int
    rejections: dict[str, int]
    late: int
    on_time: int
    total_lateness: int
    mean_turnaround: float | None
    consumer_spend: Money
    provider_revenue: dict[str, Money]
    broker_net: dict[str, Money]
    penalties_paid: Money
    trades: int
    traded_quantity: int
    negotiation_agreements: int
    negotiation_breakdowns: int
    utilization: dict[str, float]
    budget_violations: int
    deadline_violations_served: int
    mean_price: float | None
    # called on first read of the digest properties below, at most once
    # each; a compare run reads neither
    digest_scenario: Callable[[], str] = field(repr=False, compare=False)
    digest_trace: Callable[[], str] = field(repr=False, compare=False)

    @cached_property
    def scenario_digest(self) -> str:
        return self.digest_scenario()

    @cached_property
    def trace_digest(self) -> str:
        return self.digest_trace()

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "scenario_digest": self.scenario_digest,
            "mode": self.mode,
            "seed": self.seed,
            "horizon": self.horizon,
            "events_fired": self.events_fired,
            "trace_digest": self.trace_digest,
            "requests": {
                "submitted": self.submitted,
                "accepted": self.accepted,
                "served": self.served,
                "unserved": self.unserved,
                "rejections": dict(sorted(self.rejections.items())),
            },
            "service": {
                "late": self.late,
                "on_time": self.on_time,
                "total_lateness": self.total_lateness,
                "mean_turnaround": self.mean_turnaround,
                "budget_violations": self.budget_violations,
                "deadline_violations_served": self.deadline_violations_served,
            },
            "money": {
                "consumer_spend": self.consumer_spend,
                "provider_revenue": dict(sorted(self.provider_revenue.items())),
                "broker_net": dict(sorted(self.broker_net.items())),
                "penalties_paid": self.penalties_paid,
                "mean_price": self.mean_price,
            },
            "market": {
                "trades": self.trades,
                "traded_quantity": self.traded_quantity,
                "negotiation_agreements": self.negotiation_agreements,
                "negotiation_breakdowns": self.negotiation_breakdowns,
            },
            "utilization": dict(sorted(self.utilization.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)


class MetricsCollector:
    """Streams events into per-request records and incremental tallies."""

    def __init__(self) -> None:
        self.records: dict[str, RequestRecord] = {}
        self._last_time: int | None = None
        self.submitted = 0
        self.accepted = 0
        self.served = 0
        self.unserved = 0
        self.rejections: dict[str, int] = {}
        self.trades = 0
        self.traded_quantity = 0
        self.negotiation_agreements = 0
        self.negotiation_breakdowns = 0
        self.penalties_paid: Money = 0
        self.price_sum: Money = 0  # over accepted admissions that name a price
        self.price_count = 0

    def observer(self, event: Event) -> None:
        self.record(event.fire_at, event.kind, event.payload)

    def record(self, at: int, kind: str, payload: dict) -> None:
        if self._last_time is not None and at < self._last_time:
            raise OutOfOrderEvent(f"{kind} at {at} after seeing {self._last_time}")
        self._last_time = at
        handler = self._HANDLERS.get(kind)
        if handler is not None:
            handler(self, at, payload)

    # -- per-kind updates -----------------------------------------------------

    def _on_request_submitted(self, at: int, p: dict) -> None:
        self.submitted += 1
        self.records[p["request_id"]] = RequestRecord(
            request_id=p["request_id"],
            consumer=p["consumer"],
            submit_time=at,
            volume=p["volume"],
            cpu_need=p["cpu_need"],
            deadline=p["deadline"],
            budget=p["budget"],
        )

    def _on_admission(self, at: int, p: dict) -> None:
        rec = self.records.get(p["request_id"])
        if not p["accepted"]:
            reason = p["reason"]
            self.rejections[reason] = self.rejections.get(reason, 0) + 1
            if rec is not None and rec.status == "submitted":
                rec.status = "rejected"
                rec.reject_reason = reason
            return
        self.accepted += 1
        if p["price"] is not None:
            self.price_sum += p["price"]
            self.price_count += 1
        if rec is not None:
            rec.status = "accepted"
            rec.provider = p["provider"]
            rec.agreed_price = p["price"]
            rec.reject_reason = None

    def _on_request_served(self, at: int, p: dict) -> None:
        self.served += 1
        rec = self.records.get(p["request_id"])
        if rec is None:
            return
        rec.status = "served"
        rec.provider = p.get("provider", rec.provider)
        rec.broker = p.get("broker")
        rec.completed_at = p["completed_at"]
        rec.lateness = p["lateness"]
        rec.consumer_paid = p["consumer_paid"]
        rec.penalty_received = p.get("penalty_received", 0)

    def _on_request_unserved(self, at: int, p: dict) -> None:
        self.unserved += 1
        rec = self.records.get(p["request_id"])
        if rec is not None:
            rec.status = "unserved"
            rec.reject_reason = p.get("reason")

    def _on_trade(self, at: int, p: dict) -> None:
        self.trades += 1
        self.traded_quantity += p["quantity"]

    def _on_negotiation_outcome(self, at: int, p: dict) -> None:
        if p["result"] == "agreement":
            self.negotiation_agreements += 1
        else:
            self.negotiation_breakdowns += 1

    def _on_settlement(self, at: int, p: dict) -> None:
        self.penalties_paid += p["penalty"]

    # event kind -> update; the kinds not listed change no tally
    _HANDLERS = {
        "request_submitted": _on_request_submitted,
        "admission": _on_admission,
        "request_served": _on_request_served,
        "request_unserved": _on_request_unserved,
        "trade": _on_trade,
        "negotiation_outcome": _on_negotiation_outcome,
        "settlement": _on_settlement,
    }

    # -- outputs ------------------------------------------------------------------

    def summary(
        self,
        scenario: str,
        scenario_digest: Callable[[], str],
        mode: str,
        seed: int,
        horizon: int,
        events_fired: int,
        trace_digest: Callable[[], str],
        ledger: Ledger,
        provider_ids: list[str],
        broker_ids: list[str],
        consumer_ids: list[str],
        utilization: dict[str, float],
    ) -> RunSummary:
        served_recs = [r for r in self.records.values() if r.status == "served"]
        late = sum(1 for r in served_recs if r.lateness > 0)
        total_lateness = sum(r.lateness for r in served_recs)
        turnarounds = [r.turnaround for r in served_recs if r.turnaround is not None]
        mean_turnaround = (
            float(Fraction(sum(turnarounds), len(turnarounds))) if turnarounds else None
        )
        funded = _funding(ledger)
        consumer_spend = sum(
            funded.get(c, 0) - ledger.balance(c) for c in consumer_ids
        )
        provider_revenue = {p: ledger.balance(p) for p in provider_ids}
        broker_net = {
            b: ledger.balance(b) - funded.get(b, 0) for b in broker_ids
        }
        budget_violations = sum(
            1 for r in served_recs if r.consumer_paid > r.budget
        )
        deadline_violations_served = sum(1 for r in served_recs if r.lateness > 0)
        mean_price = (
            float(Fraction(self.price_sum, self.price_count))
            if self.price_count else None
        )
        return RunSummary(
            scenario=scenario,
            mode=mode,
            seed=seed,
            horizon=horizon,
            events_fired=events_fired,
            submitted=self.submitted,
            accepted=self.accepted,
            served=self.served,
            unserved=self.unserved,
            rejections=dict(self.rejections),
            late=late,
            on_time=len(served_recs) - late,
            total_lateness=total_lateness,
            mean_turnaround=mean_turnaround,
            consumer_spend=consumer_spend,
            provider_revenue=provider_revenue,
            broker_net=broker_net,
            penalties_paid=self.penalties_paid,
            trades=self.trades,
            traded_quantity=self.traded_quantity,
            negotiation_agreements=self.negotiation_agreements,
            negotiation_breakdowns=self.negotiation_breakdowns,
            utilization=utilization,
            budget_violations=budget_violations,
            deadline_violations_served=deadline_violations_served,
            mean_price=mean_price,
            digest_scenario=scenario_digest,
            digest_trace=trace_digest,
        )

    def cross_check(self, events: list[Event], summary: RunSummary, ledger: Ledger,
                    consumer_ids: list[str]) -> None:
        """Recompute every aggregate from the event log and the journal.

        The incremental tallies, the event log, and the double-entry
        journal are three independent accounts of the same run; this is
        where they must all agree.
        """
        by_kind: dict[str, list[dict]] = {}
        for ev in events:
            by_kind.setdefault(ev.kind, []).append(ev.payload)
        admissions = by_kind.get("admission", [])
        served = by_kind.get("request_served", [])

        recount_submitted = len(by_kind.get("request_submitted", []))
        if recount_submitted != summary.submitted:
            raise CrossCheckFailure(
                f"submitted: log says {recount_submitted}, tally {summary.submitted}"
            )
        recount_accepted = sum(1 for p in admissions if p["accepted"])
        if recount_accepted != summary.accepted:
            raise CrossCheckFailure(
                f"accepted: log says {recount_accepted}, tally {summary.accepted}"
            )
        if len(served) != summary.served:
            raise CrossCheckFailure(
                f"served: log says {len(served)}, tally {summary.served}"
            )
        recount_unserved = len(by_kind.get("request_unserved", []))
        if recount_unserved != summary.unserved:
            raise CrossCheckFailure(
                f"unserved: log says {recount_unserved}, tally {summary.unserved}"
            )
        rejections: dict[str, int] = {}
        for p in admissions:
            if not p["accepted"]:
                rejections[p["reason"]] = rejections.get(p["reason"], 0) + 1
        if rejections != summary.rejections:
            raise CrossCheckFailure(
                f"rejections: log says {rejections}, tally {summary.rejections}"
            )
        traded = sum(p["quantity"] for p in by_kind.get("trade", []))
        if traded != summary.traded_quantity:
            raise CrossCheckFailure(
                f"traded quantity: log says {traded}, tally {summary.traded_quantity}"
            )
        penalties = sum(p["penalty"] for p in by_kind.get("settlement", []))
        if penalties != summary.penalties_paid:
            raise CrossCheckFailure(
                f"penalties: log says {penalties}, tally {summary.penalties_paid}"
            )

        replayed = ledger.replay()
        if replayed != ledger.balances:
            raise CrossCheckFailure("journal replay disagrees with live balances")
        if sum(ledger.balances.values()) != 0:
            raise CrossCheckFailure("ledger balances do not sum to zero")
        funded = _funding(ledger)
        spend = sum(funded.get(c, 0) - ledger.balance(c) for c in consumer_ids)
        if spend != summary.consumer_spend:
            raise CrossCheckFailure(
                f"consumer spend: ledger says {spend}, summary {summary.consumer_spend}"
            )
        served_paid = sum(p["consumer_paid"] for p in served)
        if served_paid != summary.consumer_spend:
            raise CrossCheckFailure(
                f"consumer spend: events say {served_paid}, "
                f"ledger {summary.consumer_spend}"
            )

    def request_rows(self) -> list[dict]:
        rows = []
        for request_id in sorted(self.records):
            r = self.records[request_id]
            rows.append({
                "request_id": r.request_id,
                "consumer": r.consumer,
                "submit_time": r.submit_time,
                "volume": r.volume,
                "cpu_need": r.cpu_need,
                "deadline": r.deadline,
                "budget": r.budget,
                "status": r.status,
                "provider": r.provider or "",
                "broker": r.broker or "",
                "reject_reason": r.reject_reason or "",
                "agreed_price": "" if r.agreed_price is None else r.agreed_price,
                "completed_at": "" if r.completed_at is None else r.completed_at,
                "lateness": r.lateness,
                "turnaround": "" if r.turnaround is None else r.turnaround,
                "consumer_paid": r.consumer_paid,
                "penalty_received": r.penalty_received,
            })
        return rows


def _funding(ledger: Ledger) -> dict[str, Money]:
    """What the world account paid into each account, from the journal."""
    funded: dict[str, Money] = {}
    for entry in ledger.journal:
        if entry.debit == WORLD:
            funded[entry.credit] = funded.get(entry.credit, 0) + entry.amount
    return funded


REQUEST_CSV_FIELDS = [
    "request_id", "consumer", "submit_time", "volume", "cpu_need", "deadline",
    "budget", "status", "provider", "broker", "reject_reason", "agreed_price",
    "completed_at", "lateness", "turnaround", "consumer_paid", "penalty_received",
]


def report(summary: RunSummary) -> str:
    """Plain-text run report for terminals and logs."""
    lines = [
        f"scenario {summary.scenario}  mode {summary.mode}  seed {summary.seed}",
        f"horizon {summary.horizon} ticks, {summary.events_fired} events, "
        f"trace {summary.trace_digest[:12]}",
        "",
        f"  requests   submitted {summary.submitted:>7}",
        f"             served    {summary.served:>7}",
        f"             unserved  {summary.unserved:>7}",
    ]
    for reason in sorted(summary.rejections):
        lines.append(f"             rejected   {summary.rejections[reason]:>6}  {reason}")
    mean_ta = "-" if summary.mean_turnaround is None else f"{summary.mean_turnaround:.2f}"
    lines += [
        "",
        f"  service    on time   {summary.on_time:>7}",
        f"             late      {summary.late:>7}  (total lateness {summary.total_lateness} ticks)",
        f"             mean turnaround {mean_ta} ticks",
        "",
        f"  money      consumer spend  {summary.consumer_spend:>12}",
    ]
    for provider, revenue in sorted(summary.provider_revenue.items()):
        lines.append(f"             revenue {provider:<12} {revenue:>10}")
    for broker, net in sorted(summary.broker_net.items()):
        lines.append(f"             broker  {broker:<12} {net:>10}")
    lines.append(f"             penalties paid  {summary.penalties_paid:>12}")
    lines += [
        "",
        f"  market     trades {summary.trades}, quantity {summary.traded_quantity} cpu-ticks",
        f"             negotiation {summary.negotiation_agreements} agreed, "
        f"{summary.negotiation_breakdowns} broke off",
    ]
    for provider, util in sorted(summary.utilization.items()):
        lines.append(f"  utilization {provider:<12} {util:6.1%}")
    return "\n".join(lines) + "\n"
