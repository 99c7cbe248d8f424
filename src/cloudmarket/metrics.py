"""Run measurement: per-request records, aggregates, and consistency checks.

The collector ingests the event stream in time order and keeps
incremental aggregates and per-request records; the raw events live in
the run's one event log (engine.TraceRecorder).  The aggregates are
recounted from that log a part at a time, each part once: every chunk a
streaming recorder writes and drops, then what it still holds when the
run ends.  A recorder without a sink hands over its whole log at the
end.  The recounts are then reconciled with the tallies and the money
ledger; any disagreement raises instead of reporting silently wrong
numbers.  What each account was funded with is read from the
journal's debits to the world account.  A summary's trace and scenario digests are computed
on first read, so a run whose digests nobody reads hashes nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterator

from .engine import Event
from .exchange import Ledger, WORLD
from .money import Money


class OutOfOrderEvent(Exception):
    """record() must be fed events in nondecreasing time order."""


class CrossCheckFailure(Exception):
    """Aggregates, the event log, and the ledger stopped agreeing."""


@dataclass(slots=True)
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


@dataclass
class Recount:
    """The aggregates recounted from the event log, for `cross_check`."""

    events: int = 0
    submitted: int = 0
    accepted: int = 0
    served: int = 0
    unserved: int = 0
    rejections: dict[str, int] = field(default_factory=dict)
    traded_quantity: int = 0
    penalties: Money = 0
    served_paid: Money = 0


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
        self.recounted = Recount()

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
            sum(turnarounds) / len(turnarounds) if turnarounds else None
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
        mean_price = (
            self.price_sum / self.price_count
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
            deadline_violations_served=late,
            mean_price=mean_price,
            digest_scenario=scenario_digest,
            digest_trace=trace_digest,
        )

    def recount(self, events: list[Event]) -> None:
        """Fold one part of the event log into `recounted`, in one loop.

        A run passes each event exactly once: a streaming recorder hands
        over every chunk before it drops it, and `cross_check` the rest.
        """
        r = self.recounted
        rejections = r.rejections
        submitted = accepted = served = unserved = traded = penalties = paid = 0
        for ev in events:
            kind = ev.kind
            if kind == "admission":
                p = ev.payload
                if p["accepted"]:
                    accepted += 1
                else:
                    rejections[p["reason"]] = rejections.get(p["reason"], 0) + 1
            elif kind == "request_served":
                served += 1
                paid += ev.payload["consumer_paid"]
            elif kind == "request_submitted":
                submitted += 1
            elif kind == "settlement":
                penalties += ev.payload["penalty"]
            elif kind == "trade":
                traded += ev.payload["quantity"]
            elif kind == "request_unserved":
                unserved += 1
        r.events += len(events)
        r.submitted += submitted
        r.accepted += accepted
        r.served += served
        r.unserved += unserved
        r.traded_quantity += traded
        r.penalties += penalties
        r.served_paid += paid

    def cross_check(self, rest: list[Event], summary: RunSummary, ledger: Ledger) -> None:
        """Recount the event log's unrecounted `rest`, then reconcile it all.

        The incremental tallies, the event log, and the double-entry
        journal are three independent accounts of the same run; this is
        where they must all agree.
        """
        self.recount(rest)
        r = self.recounted
        if r.events != summary.events_fired:
            raise CrossCheckFailure(
                f"events: {r.events} recounted, {summary.events_fired} fired"
            )
        if r.submitted != summary.submitted:
            raise CrossCheckFailure(
                f"submitted: log says {r.submitted}, tally {summary.submitted}"
            )
        if r.accepted != summary.accepted:
            raise CrossCheckFailure(
                f"accepted: log says {r.accepted}, tally {summary.accepted}"
            )
        if r.served != summary.served:
            raise CrossCheckFailure(
                f"served: log says {r.served}, tally {summary.served}"
            )
        if r.unserved != summary.unserved:
            raise CrossCheckFailure(
                f"unserved: log says {r.unserved}, tally {summary.unserved}"
            )
        if r.rejections != summary.rejections:
            raise CrossCheckFailure(
                f"rejections: log says {r.rejections}, tally {summary.rejections}"
            )
        if r.traded_quantity != summary.traded_quantity:
            raise CrossCheckFailure(
                f"traded quantity: log says {r.traded_quantity}, "
                f"tally {summary.traded_quantity}"
            )
        if r.penalties != summary.penalties_paid:
            raise CrossCheckFailure(
                f"penalties: log says {r.penalties}, tally {summary.penalties_paid}"
            )

        replayed = ledger.replay()
        if replayed != ledger.balances:
            raise CrossCheckFailure("journal replay disagrees with live balances")
        if sum(ledger.balances.values()) != 0:
            raise CrossCheckFailure("ledger balances do not sum to zero")
        if r.served_paid != summary.consumer_spend:
            raise CrossCheckFailure(
                f"consumer spend: events say {r.served_paid}, "
                f"ledger {summary.consumer_spend}"
            )

    def request_rows(self) -> list[dict]:
        return [dict(zip(REQUEST_CSV_FIELDS, row)) for row in self.iter_request_rows()]

    def iter_request_rows(self) -> Iterator[list]:
        """One CSV row per request, in id order, built as it is read: the
        `REQUEST_CSV_FIELDS` of its record, an unset one as ""."""
        for request_id in sorted(self.records):
            yield ["" if v is None else v for v in _request_values(self.records[request_id])]


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
_request_values = attrgetter(*REQUEST_CSV_FIELDS)


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
