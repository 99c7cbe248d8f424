"""End-to-end simulation drivers: the market run and the queue baseline.

Both drivers consume the same generated request trace and the same
provider fleets, so paired runs differ only in how work is admitted and
priced.  The market run trades through periodic call auctions with
bilateral negotiation as fallback; the baseline admits first-come
first-served at posted prices and pays lateness penalties when the
backlog pushes completions past deadlines.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import BinaryIO

from .allocator import Accept, ServiceRequest, SlaAllocator
from .datacenter import Datacenter, fleet_specs
from .engine import SimEngine, TraceRecorder
from .exchange import (
    ASK,
    BID,
    BrokerAction,
    BrokerRequestView,
    Ledger,
    MarketView,
    OrderBook,
    ReservationBook,
    broker_decide,
    provider_set_price,
    settle_sla,
)
from .metrics import MetricsCollector, RunSummary
from .money import Money, ratio_str, round_ratio
from .negotiation import (
    Agreement,
    BUYER,
    NegotiationTerms,
    SELLER,
    Sla,
    negotiate_price,
)
from .workload import (
    MODE_MARKET,
    MODE_SYSTEM_CENTRIC,
    ProviderSpec,
    Scenario,
    dump_scenario,
    generate_requests,
    request_row,
)

UNSERVED_DEADLINE_EXPIRED = "DeadlineExpired"
UNSERVED_NEGOTIATION_FAILED = "NegotiationFailed"
UNSERVED_HORIZON = "HorizonExhausted"


class UnexpectedCompletion(Exception):
    """A completion fired for a request that holds no open commitment."""


class UnexpectedFill(Exception):
    """The order book filled a bid for a request that is not pending."""


def scenario_digest(scenario: Scenario) -> str:
    return hashlib.sha256(dump_scenario(scenario).encode("utf-8")).hexdigest()


def request_trace_digest(requests: list[ServiceRequest]) -> str:
    rows = ("\t".join(map(str, request_row(r))) for r in requests)
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


@dataclass
class _Provider:
    spec: ProviderSpec
    datacenter: Datacenter
    allocator: SlaAllocator


@dataclass
class _Commitment:
    request: ServiceRequest
    provider_id: str
    broker_id: str | None
    sla_consumer: Sla
    sla_procure: Sla | None
    machine_id: str


@dataclass
class RunResult:
    scenario: Scenario
    seed: int
    mode: str
    summary: RunSummary
    collector: MetricsCollector
    ledger: Ledger
    trace: TraceRecorder
    requests: list[ServiceRequest]

    @cached_property
    def request_digest(self) -> str:
        return request_trace_digest(self.requests)


class _Run:
    """Shared state and handlers for one simulation run."""

    def __init__(self, scenario: Scenario, seed: int, mode: str,
                 trace_sink: BinaryIO | None = None):
        self.scenario = scenario
        self.seed = seed
        self.mode = mode
        self.engine = SimEngine()
        self.collector = MetricsCollector()
        # a streamed chunk is recounted for the cross-check before it is dropped
        self.trace = TraceRecorder(self.engine, trace_sink, on_chunk=self.collector.recount)
        self.engine.add_observer(self.collector.record)
        self.ledger = Ledger()

        self.providers: dict[str, _Provider] = {}
        for p in scenario.providers:
            dc = Datacenter(
                self.engine, p.provider_id,
                fleet_specs(p.provider_id, [
                    {"count": g.count, "cpu_capacity": g.cpu_capacity,
                     "mem_capacity": g.mem_capacity}
                    for g in p.fleet
                ]),
                boot_delay=p.boot_delay,
            )
            allocator = SlaAllocator(self.engine, dc, p.pricing)
            self.providers[p.provider_id] = _Provider(p, dc, allocator)
            self.ledger.open_account(p.provider_id)

        # each consumer's top-k brokers by advertised margin, cheapest first,
        # ties by id
        ranked = [b.broker_id for b in sorted(
            scenario.brokers,
            key=lambda b: (
                round_ratio(b.margin_rate.numerator * 10**6, b.margin_rate.denominator),
                b.broker_id,
            ),
        )]
        self.broker_shortlist = {c.consumer_id: ranked[:c.top_k] for c in scenario.consumers}
        # the summed budgets of each consumer's requests still in flight;
        # its account is topped up to cover them
        self.in_flight_budget: dict[str, Money] = {}
        # consumers are funded first, then brokers, each in id order, so the
        # journal does not depend on the order the scenario lists them in
        for c in sorted(scenario.consumers, key=lambda c: c.consumer_id):
            self.ledger.fund(c.consumer_id, c.initial_funds, 0)
            self.in_flight_budget[c.consumer_id] = 0
        for b in sorted(scenario.brokers, key=lambda b: b.broker_id):
            self.ledger.fund(b.broker_id, b.initial_funds, 0)
        self.broker_specs = {b.broker_id: b for b in scenario.brokers}
        self.broker_committed: dict[str, Money] = {
            b.broker_id: 0 for b in scenario.brokers
        }

        self.requests_by_id: dict[str, ServiceRequest] = {}
        # request_id -> (assigned broker, that broker's view of the request)
        self.pending: dict[str, tuple[str, BrokerRequestView]] = {}
        self.committed: dict[str, _Commitment] = {}
        self.delivered_cu: dict[str, int] = {p: 0 for p in self.providers}
        self._sla_counter = 0

        self.book = OrderBook()
        self.reservations = ReservationBook()
        # bid over ask quantity at the last clearing that saw orders
        self.demand_index = (1, 1)
        self.last_clearing_price: Money | None = None
        # provider_id -> its posted price per cpu-tick, reposted each cycle
        self.posted_price: dict[str, Money] = {
            provider_id: provider_set_price(prov.spec.market, (0, 1), (1, 1))
            for provider_id, prov in self.providers.items()
        }

    # -- money helpers -----------------------------------------------------------

    def _commit_budget(self, request: ServiceRequest, at: int) -> None:
        """Count the request's budget as in flight and fund what the account lacks."""
        consumer_id = request.consumer_id
        self.in_flight_budget[consumer_id] += request.qos.budget
        shortfall = self.in_flight_budget[consumer_id] - self.ledger.balance(consumer_id)
        if shortfall > 0:
            self.ledger.fund(consumer_id, shortfall, at, "budget top-up")

    def _resolve_budget(self, request: ServiceRequest) -> None:
        self.in_flight_budget[request.consumer_id] -= request.qos.budget

    def _next_sla_id(self, suffix: str) -> str:
        self._sla_counter += 1
        return f"sla{self._sla_counter:06d}-{suffix}"

    def _settle(self, sla: Sla, actual_completion: int, at: int, kind: str):
        settlement = settle_sla(self.ledger, sla, actual_completion, at)
        self.engine.emit("settlement", {
            "sla_id": sla.sla_id, "buyer": sla.buyer, "seller": sla.seller,
            "kind": kind, "base": settlement.base_amount,
            "penalty": settlement.penalty, "net": settlement.net_paid,
            "late": max(0, actual_completion - sla.promised_completion),
            "prepaid": sla.paid,
        })
        return settlement

    # -- request intake ---------------------------------------------------------

    def schedule_requests(self, requests: list[ServiceRequest]) -> None:
        for r in requests:
            self.requests_by_id[r.request_id] = r
            self.engine.schedule("request_submitted", {
                "request_id": r.request_id,
                "consumer": r.consumer_id,
                "volume": r.workload_volume,
                "cpu_need": r.qos.cpu_need,
                "mem_need": r.qos.mem_need,
                "deadline": r.qos.deadline,
                "budget": r.qos.budget,
            }, fire_at=r.submit_time)

    def assign_broker(self, request: ServiceRequest) -> str:
        """Cheapest-margin brokers first, spread round-robin among the top k."""
        chosen = self.broker_shortlist[request.consumer_id]
        index = int(request.request_id[3:])
        return chosen[index % len(chosen)]

    # -- completion path (shared by both modes) -----------------------------------

    def on_completion(self, event) -> None:
        p = event.payload
        request_id = p["request_id"]
        now = self.engine.clock
        commit = self.committed.pop(request_id, None)
        if commit is None:
            raise UnexpectedCompletion(
                f"{request_id} completed at t={now} with no open commitment"
            )
        prov = self.providers[commit.provider_id]
        request = commit.request
        self.delivered_cu[commit.provider_id] += (now - p["start"]) * request.qos.cpu_need

        consumer_settlement = self._settle(
            commit.sla_consumer, now, now, kind="consumer",
        )
        if commit.sla_procure is not None:
            self._settle(commit.sla_procure, now, now, kind="procurement")
            if not commit.sla_procure.paid and commit.broker_id is not None:
                self.broker_committed[commit.broker_id] -= commit.sla_procure.price

        prov.datacenter.release_vm(p["vm_id"], now)
        self._resolve_budget(request)

        lateness = max(0, now - request.qos.deadline)
        self.engine.emit("request_served", {
            "request_id": request_id,
            "provider": commit.provider_id,
            "broker": commit.broker_id,
            "completed_at": now,
            "lateness": lateness,
            "consumer_paid": consumer_settlement.net_paid,
            "penalty_received": consumer_settlement.penalty,
        })

    def on_provision_due(self, event) -> None:
        commit = self.committed[event.payload["request_id"]]
        now = self.engine.clock
        prov = self.providers[commit.provider_id]
        request = commit.request
        prov.datacenter.provision_vm(
            request.request_id, request.qos.cpu_need, request.qos.mem_need,
            request.workload_volume, now, machine_id=commit.machine_id,
        )

    def mark_unserved(self, request_id: str, reason: str) -> None:
        self._resolve_budget(self.requests_by_id[request_id])
        self.engine.emit("request_unserved", {
            "request_id": request_id, "reason": reason,
        })

    # -- wrap-up ------------------------------------------------------------------

    def finish(self) -> RunSummary:
        """Drain the run, then summarize and cross-check it from the one event log.

        The summary's trace and scenario digests are left to its first
        read: the trace digest is `trace.digest()`, which a streamed run
        takes as it ends and a run without a sink renders on demand.
        """
        self.engine.run_until(self.scenario.horizon)
        self.engine.drain()
        for request_id in sorted(self.pending):
            self.mark_unserved(request_id, UNSERVED_HORIZON)
        self.pending.clear()
        self.engine.drain()

        # work drained past the horizon still counts, so the share is
        # taken over the whole simulated span
        span = max(self.scenario.horizon, self.engine.clock)
        utilization = {}
        for provider_id, prov in self.providers.items():
            denom = prov.datacenter.total_cpu_capacity * span
            utilization[provider_id] = (
                self.delivered_cu[provider_id] / denom if denom else 0.0
            )
        summary = self.collector.summary(
            scenario=self.scenario.name,
            scenario_digest=partial(scenario_digest, self.scenario),
            mode=self.mode,
            seed=self.seed,
            horizon=self.scenario.horizon,
            events_fired=self.trace.count,
            trace_digest=self.trace.digest,
            ledger=self.ledger,
            provider_ids=sorted(self.providers),
            broker_ids=sorted(self.broker_specs),
            consumer_ids=sorted(self.in_flight_budget),
            utilization=utilization,
        )
        self.collector.cross_check(self.trace.held, summary, self.ledger)
        return summary


# -- queue baseline ---------------------------------------------------------------

class _BaselineRun(_Run):
    """First-come first-served at posted prices; deadlines are not enforced
    at admission, so an overloaded system serves late and pays penalties."""

    def start(self) -> None:
        self.engine.on("request_submitted", self.on_request_submitted)
        self.engine.on("provision_due", self.on_provision_due)
        self.engine.on("completion", self.on_completion)

    def on_request_submitted(self, event) -> None:
        p = event.payload
        request = self.requests_by_id[p["request_id"]]
        now = self.engine.clock
        self._commit_budget(request, now)

        first_reason: str | None = None
        for provider_id in sorted(self.providers):
            prov = self.providers[provider_id]
            for cal in prov.datacenter.calendars.values():
                cal.prune(now)
            decision = prov.allocator.examine(
                request, now, search_until=self.scenario.horizon * 4,
            )
            if isinstance(decision, Accept):
                plan = decision.plan
                sla = Sla(
                    sla_id=self._next_sla_id("fifo"),
                    buyer=request.consumer_id,
                    seller=provider_id,
                    request_id=request.request_id,
                    price=plan.price,
                    promised_completion=request.qos.deadline,
                    penalty=self.scenario.penalty,
                )
                self.committed[request.request_id] = _Commitment(
                    request, provider_id, None, sla, None, plan.machine_id,
                )
                self.engine.schedule("provision_due", {
                    "request_id": request.request_id, "provider": provider_id,
                }, fire_at=plan.vm_start, priority=1)
                return
            if first_reason is None:
                first_reason = decision.reason
        self.mark_unserved(request.request_id, first_reason or "CapacityUnavailable")


# -- market run --------------------------------------------------------------------

class _MarketRun(_Run):
    """Periodic call auctions with negotiation fallback and reservations."""

    def start(self) -> None:
        self.engine.on("request_submitted", self.on_request_submitted)
        self.engine.on("market_cycle", self.on_market_cycle)
        self.engine.on("provision_due", self.on_provision_due)
        self.engine.on("completion", self.on_completion)
        self.max_boot = self.scenario.max_boot_delay()
        period = self.scenario.auction_period
        for t in range(period, self.scenario.horizon + 1, period):
            self.engine.schedule("market_cycle", {"cycle_at": t}, fire_at=t)

    def on_request_submitted(self, event) -> None:
        p = event.payload
        request = self.requests_by_id[p["request_id"]]
        self._commit_budget(request, self.engine.clock)
        broker_id = self.assign_broker(request)
        margin_rate = self.broker_specs[broker_id].margin_rate
        # what the broker bids on is fixed for the request's life
        self.pending[request.request_id] = (broker_id, BrokerRequestView(
            request_id=request.request_id,
            willingness=request.qos.budget,
            quantity=self._needed_quantity(request, self.max_boot),
            margin=round_ratio(margin_rate.numerator * request.qos.budget, margin_rate.denominator),
        ))

    # -- one trading cycle ---------------------------------------------------

    def _needed_quantity(self, request: ServiceRequest, boot: int) -> int:
        return request.qos.cpu_need * (boot + request.runtime)

    def on_market_cycle(self, event) -> None:
        now = self.engine.clock
        window = (now + 1, now + 1 + self.scenario.auction_period)
        for prov in self.providers.values():
            for cal in prov.datacenter.calendars.values():
                cal.prune(now)

        self._expire_hopeless(now)
        self._post_provider_prices(now)
        ask_capacity = self._submit_asks(now, window)
        actions = self._submit_bids(now, window, ask_capacity)
        result = self.book.clear(now, self.ledger)
        if result.trades:
            self.last_clearing_price = result.trades[-1].unit_price
        if result.ask_quantity > 0 or result.bid_quantity > 0:
            self.demand_index = result.demand_index
        for trade in result.trades:
            self.engine.emit("trade", {
                "trade_id": trade.trade_id, "buyer": trade.buyer,
                "seller": trade.seller, "quantity": trade.quantity,
                "unit_price": trade.unit_price, "request_id": trade.request_id,
                "window_start": trade.window_start, "window_end": trade.window_end,
            })
        self._place_fills(now, result)
        self._negotiate_leftovers(now, actions)

    def _expire_hopeless(self, now: int) -> None:
        min_boot = min(p.spec.boot_delay for p in self.providers.values())
        for request_id in sorted(self.pending):
            request = self.requests_by_id[request_id]
            if now + 1 + min_boot + request.runtime > request.qos.deadline:
                self.mark_unserved(request_id, UNSERVED_DEADLINE_EXPIRED)
                del self.pending[request_id]

    def _post_provider_prices(self, now: int) -> None:
        demand_index = ratio_str(*self.demand_index)
        for provider_id in sorted(self.providers):
            prov = self.providers[provider_id]
            price = provider_set_price(
                prov.spec.market,
                prov.datacenter.utilization_at(now),
                self.demand_index,
            )
            self.posted_price[provider_id] = price
            self.engine.emit("posted_price", {
                "provider": provider_id, "price": price,
                "demand_index": demand_index,
            })

    def _submit_asks(self, now: int, window: tuple[int, int]) -> int:
        total = 0
        for provider_id in sorted(self.providers):
            prov = self.providers[provider_id]
            free = prov.datacenter.free_cu_ticks(window[0], window[1])
            if free <= 0:
                continue
            total += free
            self.book.submit(
                ASK, provider_id, free, prov.spec.market.cost_floor,
                window[0], window[1], now,
            )
        return total

    def _submit_bids(
        self, now: int, window: tuple[int, int], ask_capacity: int,
    ) -> dict[str, BrokerAction]:
        by_broker: dict[str, list[BrokerRequestView]] = {}
        for request_id in sorted(self.pending):
            broker_id, view = self.pending[request_id]
            by_broker.setdefault(broker_id, []).append(view)
        cheapest_price = min(self.posted_price.values())
        chosen: dict[str, BrokerAction] = {}
        for broker_id in sorted(by_broker):
            view = MarketView(
                cheapest_price=cheapest_price,
                last_clearing_price=self.last_clearing_price,
                procurable_quantity=ask_capacity,
                available_funds=(
                    self.ledger.balance(broker_id)
                    - self.broker_committed[broker_id]
                ),
            )
            for action in broker_decide(by_broker[broker_id], view):
                chosen[action.request_id] = action
                if action.kind == "bid":
                    self.book.submit(
                        BID, broker_id, action.quantity, action.limit_unit_price,
                        window[0], window[1], now,
                        request_id=action.request_id,
                    )
        return chosen

    def _place_fills(self, now: int, result) -> None:
        fills: dict[str, dict[str, list]] = {}
        for trade in result.trades:
            # every bid is for a pending request, and nothing leaves
            # pending between the bids and their fills
            if trade.request_id not in self.pending:
                raise UnexpectedFill(
                    f"trade {trade.trade_id} filled {trade.request_id} at t={now}, "
                    f"which is not pending"
                )
            fills.setdefault(trade.request_id, {}).setdefault(
                trade.seller, []
            ).append(trade)

        for request_id in sorted(fills):
            request = self.requests_by_id[request_id]
            broker_id, view = self.pending[request_id]
            per_provider = {
                provider_id: sum(t.quantity for t in trades)
                for provider_id, trades in fills[request_id].items()
            }
            best_provider = min(
                per_provider, key=lambda pid: (-per_provider[pid], pid),
            )
            prov = self.providers[best_provider]
            boot = prov.spec.boot_delay
            needed = self._needed_quantity(request, boot)
            placed = False
            if per_provider[best_provider] >= needed:
                placed = self._commit_reservation(
                    now, request, broker_id, view.margin, best_provider,
                    paid_amount=sum(
                        t.quantity * t.unit_price
                        for t in fills[request_id][best_provider]
                    ),
                    prepaid=True,
                )
            if placed:
                self._refund_fills(now, request_id, fills[request_id], keep=best_provider)
                del self.pending[request_id]
            else:
                self._refund_fills(now, request_id, fills[request_id], keep=None)

    def _refund_fills(
        self, now: int, request_id: str, by_provider: dict, keep: str | None,
    ) -> None:
        """Return payments for fills that did not become a reservation."""
        for provider_id in sorted(by_provider):
            if provider_id == keep:
                continue
            for trade in by_provider[provider_id]:
                amount = trade.quantity * trade.unit_price
                if amount > 0:
                    self.ledger.transfer(
                        provider_id, trade.buyer, amount, now,
                        memo=f"refund trade {trade.trade_id} ({request_id})",
                    )

    def _commit_reservation(
        self,
        now: int,
        request: ServiceRequest,
        broker_id: str,
        margin: Money,
        provider_id: str,
        paid_amount: Money,
        prepaid: bool,
    ) -> bool:
        """Reserve a machine slot and cut the two SLAs; False if no slot fits."""
        prov = self.providers[provider_id]
        boot = prov.spec.boot_delay
        duration = boot + request.runtime
        latest_start = request.qos.deadline - duration
        if latest_start < now + 1:
            return False
        slot = self.reservations.find_slot(
            prov.datacenter, now + 1, latest_start, duration,
            request.qos.cpu_need, request.qos.mem_need,
        )
        if slot is None:
            return False
        machine_id, start = slot
        end = start + duration
        reservation_id = self.reservations.reserve(
            prov.datacenter, start, end,
            request.qos.cpu_need, request.qos.mem_need, machine_id,
        )
        self.engine.emit("reservation", {
            "reservation_id": reservation_id,
            "provider": provider_id, "machine": machine_id,
            "start": start, "end": end,
            "cpu": request.qos.cpu_need, "mem": request.qos.mem_need,
            "request_id": request.request_id, "holder": broker_id,
        })
        sla_procure = Sla(
            sla_id=self._next_sla_id("bp"),
            buyer=broker_id,
            seller=provider_id,
            request_id=request.request_id,
            price=paid_amount,
            promised_completion=end,
            penalty=self.scenario.penalty,
            paid=prepaid,
        )
        if not prepaid:
            self.broker_committed[broker_id] += paid_amount
        consumer_price = min(request.qos.budget, paid_amount + margin)
        sla_consumer = Sla(
            sla_id=self._next_sla_id("cb"),
            buyer=request.consumer_id,
            seller=broker_id,
            request_id=request.request_id,
            price=consumer_price,
            promised_completion=request.qos.deadline,
            penalty=self.scenario.penalty,
        )
        prov.allocator.admit_reserved(request, machine_id, start, consumer_price)
        self.committed[request.request_id] = _Commitment(
            request, provider_id, broker_id, sla_consumer, sla_procure, machine_id,
        )
        self.engine.schedule("provision_due", {
            "request_id": request.request_id, "provider": provider_id,
        }, fire_at=start, priority=1)
        return True

    def _negotiate_leftovers(self, now: int, actions: dict[str, BrokerAction]) -> None:
        for request_id in sorted(actions):
            if request_id not in self.pending:
                continue
            request = self.requests_by_id[request_id]
            broker_id, view = self.pending[request_id]
            ceiling = request.qos.budget - view.margin
            spendable = min(
                ceiling,
                self.ledger.balance(broker_id) - self.broker_committed[broker_id],
            )
            if spendable <= 0:
                continue
            posted = self.posted_price
            provider_id = min(posted, key=lambda pid: (posted[pid], pid))
            prov = self.providers[provider_id]
            posted_price = posted[provider_id]
            needed = self._needed_quantity(request, prov.spec.boot_delay)
            neg = self.scenario.negotiation
            buyer = NegotiationTerms(
                role=BUYER,
                opening=(spendable + 1) // 2,
                reservation=spendable,
                max_rounds=neg.max_rounds,
                schedule=neg.buyer_schedule,
                party_id=broker_id,
            )
            seller = NegotiationTerms(
                role=SELLER,
                opening=max(posted_price * needed,
                            prov.spec.market.cost_floor * needed),
                reservation=prov.spec.market.cost_floor * needed,
                max_rounds=neg.max_rounds,
                schedule=neg.seller_schedule,
                party_id=provider_id,
            )
            outcome = negotiate_price(
                buyer, seller, engine=self.engine, session_id=request_id,
            )
            if isinstance(outcome, Agreement):
                placed = self._commit_reservation(
                    now, request, broker_id, view.margin, provider_id,
                    paid_amount=outcome.price, prepaid=False,
                )
                if placed:
                    del self.pending[request_id]
                else:
                    self.mark_unserved(request_id, "CapacityUnavailable")
                    del self.pending[request_id]
            else:
                self.mark_unserved(request_id, UNSERVED_NEGOTIATION_FAILED)
                del self.pending[request_id]


# -- entry points -------------------------------------------------------------------

def run_scenario(
    scenario: Scenario,
    seed: int | None = None,
    mode: str | None = None,
    requests: list[ServiceRequest] | None = None,
    trace_sink: BinaryIO | None = None,
) -> RunResult:
    """Simulate one scenario and return the full result bundle.

    `requests` is the trace that `generate_requests(scenario, seed)`
    returns; omitted, it is generated here.  Given a `trace_sink`, a
    binary file, the run's writer process writes its trace file there
    while the run fires, a chunk at a time, and has written all of it,
    final newline included, when the run returns; its `trace` then
    keeps only the digest.  Without one, `trace` keeps every event.
    Whether the run returns or raises, its writer has been reaped, and
    an exception the run raises carries a note naming its mode and seed.

    A run builds no reference cycle that outlives it: what it allocates
    is freed by reference counting.  So the cyclic collector, which
    would only walk the run's live objects again and again, is off from
    generation to return, and then back as the caller had it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        if seed is None:
            seed = scenario.master_seed if scenario.master_seed is not None else 0
        if mode is None:
            mode = scenario.mode
        if requests is None:
            requests = generate_requests(scenario, seed)
        if mode == MODE_SYSTEM_CENTRIC:
            run: _Run = _BaselineRun(scenario, seed, mode, trace_sink)
        elif mode == MODE_MARKET:
            run = _MarketRun(scenario, seed, mode, trace_sink)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        try:
            run.start()
            run.schedule_requests(requests)
            summary = run.finish()
            if trace_sink is not None:
                run.trace.digest()
        except Exception as exc:
            exc.add_note(f"in the {mode} run of seed {seed}")
            raise
        finally:
            # a writer process never outlives its run; the handlers are the
            # run's bound methods, and the run holds the engine: dropping
            # them lets reference counting free the run, finished or failed
            run.trace.close()
            run.engine.clear_handlers()
        return RunResult(
            scenario=scenario,
            seed=seed,
            mode=mode,
            summary=summary,
            collector=run.collector,
            ledger=run.ledger,
            trace=run.trace,
            requests=requests,
        )
    finally:
        if collecting:
            gc.enable()


def compare_modes(scenario: Scenario, seed: int | None = None) -> tuple[RunResult, RunResult]:
    """Run market and baseline over the identical request trace.

    The market run generates the trace and the baseline replays it;
    generation depends only on (scenario, seed), never on the mode.
    """
    market = run_scenario(replace(scenario, mode=MODE_MARKET), seed)
    baseline = run_scenario(
        replace(scenario, mode=MODE_SYSTEM_CENTRIC), market.seed, requests=market.requests,
    )
    return market, baseline
