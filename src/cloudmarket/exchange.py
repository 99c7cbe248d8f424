"""Market infrastructure: double auction, bank ledger, broker policy, reservations.

Money only moves through the double-entry ledger, whose balances sum to
zero at every instant (the designated world account absorbs funding).
The call auction clears each window group at one uniform price, so every
matched bid pays no more than its limit and every matched ask receives
no less than its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational

from .datacenter import Block, Datacenter
from .money import Money, round_ratio
from .negotiation import Sla

BID = "bid"
ASK = "ask"


class UnknownAccount(Exception):
    pass


class InsufficientFunds(Exception):
    pass


class InvalidOrder(Exception):
    pass


class InvalidPolicy(Exception):
    pass


class AlreadySettled(Exception):
    pass


class ConservationError(Exception):
    """Ledger balances stopped summing to zero; a simulator bug."""


# -- bank ledger --------------------------------------------------------------

WORLD = "world"


@dataclass(frozen=True, slots=True)
class JournalEntry:
    seq: int
    at: int
    debit: str
    credit: str
    amount: Money
    memo: str


class Ledger:
    """Double-entry book.  Only the world account may run negative."""

    def __init__(self) -> None:
        self.balances: dict[str, Money] = {WORLD: 0}
        self.journal: list[JournalEntry] = []

    def open_account(self, account_id: str) -> None:
        if account_id != WORLD:
            self.balances.setdefault(account_id, 0)

    def balance(self, account_id: str) -> Money:
        if account_id not in self.balances:
            raise UnknownAccount(account_id)
        return self.balances[account_id]

    def transfer(self, debit: str, credit: str, amount: Money, at: int, memo: str = "") -> JournalEntry:
        if debit not in self.balances:
            raise UnknownAccount(debit)
        if credit not in self.balances:
            raise UnknownAccount(credit)
        if amount <= 0:
            raise ValueError(f"transfer amount must be positive, got {amount}")
        if debit != WORLD and self.balances[debit] < amount:
            raise InsufficientFunds(
                f"{debit} holds {self.balances[debit]}, needs {amount}"
            )
        self.balances[debit] -= amount
        self.balances[credit] += amount
        entry = JournalEntry(len(self.journal), at, debit, credit, amount, memo)
        self.journal.append(entry)
        self.assert_conservation()
        return entry

    def fund(self, account_id: str, amount: Money, at: int, memo: str = "initial funding") -> JournalEntry | None:
        self.open_account(account_id)
        if amount == 0:
            return None
        return self.transfer(WORLD, account_id, amount, at, memo)

    def assert_conservation(self) -> None:
        total = sum(self.balances.values())
        if total != 0:
            raise ConservationError(f"balances sum to {total}, not 0")

    def replay(self) -> dict[str, Money]:
        """Recompute balances from the journal alone (audit oracle)."""
        balances: dict[str, Money] = {account: 0 for account in self.balances}
        for entry in self.journal:
            balances[entry.debit] -= entry.amount
            balances[entry.credit] += entry.amount
        return balances


# -- call auction ---------------------------------------------------------------

@dataclass
class Order:
    order_id: int
    side: str
    actor: str
    quantity: int  # cpu-ticks
    unit_price: Money  # limit price per cpu-tick
    window_start: int
    window_end: int
    request_id: str | None = None  # the request a bid procures for; asks have none
    filled: int = 0

    @property
    def remaining(self) -> int:
        return self.quantity - self.filled


@dataclass(frozen=True)
class Trade:
    trade_id: int
    window_start: int
    window_end: int
    buyer: str
    seller: str
    bid_order: int
    ask_order: int
    quantity: int
    unit_price: Money
    request_id: str


@dataclass
class ClearingResult:
    at: int
    trades: list[Trade]
    clearing_prices: dict[tuple[int, int], Money]
    bid_quantity: int
    ask_quantity: int

    @property
    def demand_index(self) -> tuple[int, int]:
        """Bid over ask quantity as (bids, asks); with no asks, bids over one."""
        return self.bid_quantity, self.ask_quantity or 1


class OrderBook:
    """Collects limit orders; a clearing matches them per delivery window.

    One-shot call auction: a clearing empties the book.  A cycle submits
    its orders and clears them at once, so what a clearing leaves has no
    crossing pair and could never trade later.
    """

    def __init__(self) -> None:
        self.orders: dict[int, Order] = {}
        self._order_seq = 0
        self._trade_seq = 0

    def submit(
        self,
        side: str,
        actor: str,
        quantity: int,
        unit_price: Money,
        window_start: int,
        window_end: int,
        at: int,
        request_id: str | None = None,
    ) -> int:
        if side not in (BID, ASK):
            raise InvalidOrder(f"side must be bid or ask, got {side!r}")
        if side == BID and request_id is None:
            raise InvalidOrder("a bid must name the request it procures for")
        if quantity <= 0:
            raise InvalidOrder(f"quantity must be positive, got {quantity}")
        if unit_price < 0:
            raise InvalidOrder(f"unit price must be >= 0, got {unit_price}")
        if window_end <= window_start:
            raise InvalidOrder(f"empty window [{window_start}, {window_end})")
        if window_start <= at:
            raise InvalidOrder(f"window [{window_start}, ...) must lie in the future of {at}")
        self._order_seq += 1
        order = Order(
            self._order_seq, side, actor, quantity, unit_price,
            window_start, window_end, request_id,
        )
        self.orders[order.order_id] = order
        return order.order_id

    def clear(self, at: int, ledger: Ledger | None = None) -> ClearingResult:
        """Uniform-price call double auction over each delivery window.

        Bids sort by price descending, asks ascending (ties by arrival);
        units match greedily up to the breakeven index and everything
        trades at the midpoint of the marginal matched bid and ask,
        rounded down.  Payments move buyer to seller through the ledger
        at the clearing price.
        """
        live = list(self.orders.values())
        self.orders = {}
        trades: list[Trade] = []
        prices: dict[tuple[int, int], Money] = {}
        bid_quantity = sum(o.remaining for o in live if o.side == BID)
        ask_quantity = sum(o.remaining for o in live if o.side == ASK)
        windows = sorted({(o.window_start, o.window_end) for o in live})
        for window in windows:
            group = [o for o in live if (o.window_start, o.window_end) == window]
            bids = sorted((o for o in group if o.side == BID),
                          key=lambda o: (-o.unit_price, o.order_id))
            asks = sorted((o for o in group if o.side == ASK),
                          key=lambda o: (o.unit_price, o.order_id))
            matched: list[tuple[Order, Order, int]] = []
            i = j = 0
            while i < len(bids) and j < len(asks):
                bid, ask = bids[i], asks[j]
                if bid.unit_price < ask.unit_price:
                    break
                qty = min(bid.remaining, ask.remaining)
                if qty > 0:
                    matched.append((bid, ask, qty))
                    bid.filled += qty
                    ask.filled += qty
                if bid.remaining == 0:
                    i += 1
                if ask.remaining == 0:
                    j += 1
            if not matched:
                continue
            marginal_bid = matched[-1][0].unit_price
            marginal_ask = matched[-1][1].unit_price
            clearing_price = (marginal_bid + marginal_ask) // 2
            prices[window] = clearing_price
            for bid, ask, qty in matched:
                self._trade_seq += 1
                trade = Trade(
                    self._trade_seq, window[0], window[1],
                    buyer=bid.actor, seller=ask.actor,
                    bid_order=bid.order_id, ask_order=ask.order_id,
                    quantity=qty, unit_price=clearing_price,
                    request_id=bid.request_id,
                )
                trades.append(trade)
                if ledger is not None and qty * clearing_price > 0:
                    ledger.transfer(
                        bid.actor, ask.actor, qty * clearing_price, at,
                        memo=f"trade {trade.trade_id}",
                    )
        return ClearingResult(at, trades, prices, bid_quantity, ask_quantity)


# -- provider-side market policy ---------------------------------------------------

@dataclass(frozen=True)
class VariablePrice:
    """base × (1 + a·utilization + b·excess demand), never below cost."""

    base_rate: Money
    utilization_coefficient: Rational
    demand_coefficient: Rational
    cost_floor: Money = 0


def provider_set_price(
    policy: VariablePrice,
    utilization: tuple[int, int],
    demand_index: tuple[int, int],
) -> Money:
    """Posted price per cpu-tick under current market conditions.

    `utilization` (committed, capacity) and `demand_index` (bids, asks)
    are ratios of counts, each with a positive denominator.  The demand
    term only kicks in when bids outnumber asks (index above one); slack
    markets fall back toward the base rate, never below the cost floor.
    """
    used, capacity = utilization
    bids, asks = demand_index
    if not 0 <= used <= capacity:
        raise InvalidPolicy(f"utilization {used}/{capacity} outside [0, 1]")
    if bids < 0:
        raise InvalidPolicy(f"demand_index {bids}/{asks} must be >= 0")
    # base · (1 + u_n/u_d · used/capacity + d_n/d_d · excess/asks)
    u, d = policy.utilization_coefficient, policy.demand_coefficient
    excess = max(0, bids - asks)
    u_den = u.denominator * capacity
    d_den = d.denominator * asks
    exact_n = policy.base_rate * (
        u_den * d_den + u.numerator * used * d_den + d.numerator * excess * u_den
    )
    return max(policy.cost_floor, round_ratio(exact_n, u_den * d_den))


# -- broker policy -----------------------------------------------------------------

@dataclass(frozen=True)
class BrokerRequestView:
    request_id: str
    willingness: Money  # what the consumer side will bear, total
    quantity: int  # cpu-ticks to procure
    margin: Money = 0


@dataclass(frozen=True)
class MarketView:
    cheapest_price: Money  # lowest posted price per cpu-tick
    last_clearing_price: Money | None
    procurable_quantity: int
    available_funds: Money


@dataclass(frozen=True)
class BrokerAction:
    kind: str  # "bid" or "negotiate"
    request_id: str
    quantity: int
    limit_unit_price: Money


_ENUMERATION_LIMIT = 12


def _select_requests(
    candidates: list[tuple[Money, BrokerRequestView]],
    capacity: int,
) -> list[BrokerRequestView]:
    """Utility-maximal subset under the capacity cap.

    Exact on small inputs: a depth-first include/exclude search in
    candidate order skips picks that do not fit the remaining room and
    prunes branches that cannot reach the best utility found so far.
    Ties go to the lexicographically smallest tuple of request ids, and
    picks come back in candidate order.  The pruning is exact because
    every candidate has utility > 0 and quantity > 0 (`broker_decide`
    drops the rest).  Greedy by utility (then id) beyond that, which
    stays deterministic if not provably optimal.
    """
    if len(candidates) <= _ENUMERATION_LIMIT:
        n = len(candidates)
        rest = [0] * (n + 1)  # rest[i]: summed utility of candidates[i:]
        for i in range(n - 1, -1, -1):
            rest[i] = rest[i + 1] + candidates[i][0]
        best_utility = 0
        best: tuple[str, ...] | None = None
        picks: list[int] = []
        best_picks: list[int] = []

        def search(i: int, room: int, utility: Money) -> None:
            nonlocal best_utility, best, best_picks
            if utility + rest[i] < best_utility:
                return
            if i == n:
                key = tuple(candidates[j][1].request_id for j in picks)
                if utility > best_utility or (best is not None and key < best):
                    best_utility = utility
                    best = key
                    best_picks = list(picks)
                return
            gain, view = candidates[i]
            if view.quantity <= room:
                picks.append(i)
                search(i + 1, room - view.quantity, utility + gain)
                picks.pop()
            search(i + 1, room, utility)

        search(0, capacity, 0)
        return [candidates[j][1] for j in best_picks]
    chosen: list[BrokerRequestView] = []
    used = 0
    for utility, view in sorted(candidates, key=lambda c: (-c[0], c[1].request_id)):
        if used + view.quantity <= capacity:
            chosen.append(view)
            used += view.quantity
    return chosen


def broker_decide(
    requests: list[BrokerRequestView],
    market: MarketView,
) -> list[BrokerAction]:
    """Pick the consumer subset worth serving and how to procure for it.

    Estimated utility per request is willingness minus estimated
    procurement cost (last clearing price, falling back to the cheapest
    posted price).  The chosen subset maximizes summed utility within
    procurable capacity; each pick becomes an auction bid when the
    cheapest posted price is inside its price ceiling, and a negotiation
    otherwise.
    """
    if not requests:
        return []
    unit_estimate = (
        market.last_clearing_price
        if market.last_clearing_price is not None
        else market.cheapest_price
    )
    candidates: list[tuple[Money, BrokerRequestView]] = []
    for view in requests:
        utility = view.willingness - unit_estimate * view.quantity
        if utility > 0 and view.quantity > 0:
            candidates.append((utility, view))
    chosen = _select_requests(candidates, market.procurable_quantity)
    chosen.sort(key=lambda v: v.request_id)

    actions: list[BrokerAction] = []
    funds_left = market.available_funds
    for view in chosen:
        ceiling = view.willingness - view.margin
        spendable = min(ceiling, funds_left)
        limit = spendable // view.quantity
        if limit <= 0:
            continue
        if market.cheapest_price <= limit:
            actions.append(BrokerAction("bid", view.request_id, view.quantity, limit))
            funds_left -= limit * view.quantity
        else:
            actions.append(BrokerAction("negotiate", view.request_id, view.quantity, limit))
    return actions


# -- advance reservations ------------------------------------------------------------

class ReservationBook:
    """Advance capacity holds, pinned to a specific machine's calendar.

    Granted reservations are never revoked; per-tick reserved capacity
    can never exceed the provider's, because every hold occupies a
    machine calendar that enforces it.  The calendars record every hold,
    so the book keeps only its id counter.
    """

    def __init__(self) -> None:
        self._seq = 0

    def find_slot(
        self,
        datacenter: Datacenter,
        earliest: int,
        latest_start: int,
        duration: int,
        cpu: int,
        mem: int,
    ) -> tuple[str, int] | None:
        """Earliest (machine, start) able to host the block, ties by machine id."""
        return datacenter.earliest_slot(earliest, latest_start, duration, cpu, mem)

    def reserve(
        self,
        datacenter: Datacenter,
        start: int,
        end: int,
        cpu: int,
        mem: int,
        machine_id: str,
    ) -> str:
        """Hold [start, end) on one machine; a refusal raises `CapacityViolation`."""
        reservation_id = f"rsv{self._seq + 1:06d}"
        datacenter.calendars[machine_id].add(
            Block(start, end, cpu, mem, owner=reservation_id),
        )
        self._seq += 1
        return reservation_id


# -- SLA settlement ------------------------------------------------------------------

@dataclass(frozen=True)
class Settlement:
    sla_id: str
    base_amount: Money
    penalty: Money
    net_paid: Money
    at: int


def settle_sla(
    ledger: Ledger,
    sla: Sla,
    actual_completion: int,
    at: int,
) -> Settlement:
    """Move money for a finished SLA, once.

    The buyer pays the full price; lateness then refunds the penalty
    schedule back, capped so the seller never pays out more than it was
    paid.  Pre-paid SLAs (auction trades) only settle the penalty leg.
    Both movements are separate journal entries tagged with the sla_id.
    """
    if sla.settled:
        raise AlreadySettled(sla.sla_id)
    base = sla.price
    ticks_late = max(0, actual_completion - sla.promised_completion)
    penalty = min(sla.penalty.penalty_for(ticks_late), base)
    if not sla.paid and base > 0:
        ledger.transfer(sla.buyer, sla.seller, base, at, memo=f"sla {sla.sla_id} price")
    if penalty > 0:
        ledger.transfer(sla.seller, sla.buyer, penalty, at, memo=f"sla {sla.sla_id} penalty")
    sla.settled = True
    net = (0 if sla.paid else base) - penalty
    return Settlement(sla.sla_id, base, penalty, net, at)
