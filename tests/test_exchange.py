"""Ledger, call auction, broker policy, reservations, settlement."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from cloudmarket.datacenter import CapacityViolation, Datacenter
from cloudmarket.engine import SimEngine
from cloudmarket.exchange import (
    ASK,
    BID,
    AlreadySettled,
    BrokerRequestView,
    InsufficientFunds,
    InvalidOrder,
    InvalidPolicy,
    Ledger,
    MarketView,
    OrderBook,
    ReservationBook,
    VariablePrice,
    WORLD,
    _select_requests,
    broker_decide,
    provider_set_price,
    settle_sla,
)
from cloudmarket.negotiation import PenaltySchedule, Sla


# -- ledger --------------------------------------------------------------------------


def funded_ledger(**balances):
    ledger = Ledger()
    for account, amount in balances.items():
        ledger.open_account(account)
        ledger.fund(account, amount, at=0)
    return ledger


def test_transfer_moves_and_conserves():
    ledger = funded_ledger(a=500, b=0)
    ledger.transfer("a", "b", 100, at=1)
    assert ledger.balance("a") == 400
    assert ledger.balance("b") == 100
    assert sum(ledger.balances.values()) == 0


def test_overdraft_is_refused():
    ledger = funded_ledger(a=500, b=0)
    with pytest.raises(InsufficientFunds):
        ledger.transfer("a", "b", 600, at=1)
    assert ledger.balance("a") == 500


def test_world_account_may_go_negative():
    ledger = funded_ledger(a=0)
    ledger.fund("a", 1_000, at=0)
    assert ledger.balance(WORLD) < 0
    assert sum(ledger.balances.values()) == 0


def test_journal_replay_reproduces_balances():
    # oracle: re-derive every balance from the journal alone
    rng = random.Random(13)
    ledger = funded_ledger(a=10_000, b=10_000, c=10_000)
    accounts = ["a", "b", "c"]
    for at in range(200):
        src, dst = rng.sample(accounts, 2)
        amount = rng.randint(0, ledger.balance(src))
        if amount:
            ledger.transfer(src, dst, amount, at=at)
    assert ledger.replay() == ledger.balances


def test_zero_and_negative_transfers_are_refused():
    ledger = funded_ledger(a=500, b=0)
    with pytest.raises(ValueError):
        ledger.transfer("a", "b", -5, at=0)


# -- call double auction ----------------------------------------------------------------


def submit_book(entries, at=0, window=(10, 20)):
    """entries: (side, actor, qty, price) tuples."""
    book = OrderBook()
    ids = [
        book.submit(side, actor, qty, price, window[0], window[1], at=at)
        for side, actor, qty, price in entries
    ]
    return book, ids


def test_submitted_bid_rests_in_the_book():
    book, (order_id,) = submit_book([(BID, "broker-a", 4, 9)])
    assert list(book.orders) == [order_id]
    assert book.orders[order_id].remaining == 4


def test_zero_quantity_is_invalid():
    book = OrderBook()
    with pytest.raises(InvalidOrder):
        book.submit(BID, "broker-a", 0, 9, 10, 20, at=0)


def test_window_must_lie_ahead():
    book = OrderBook()
    with pytest.raises(InvalidOrder):
        book.submit(BID, "broker-a", 1, 9, 3, 8, at=5)


def test_textbook_clearing():
    # bids (10, 8, 6) and asks (5, 7, 9): two units trade at (8+7)//2 = 7
    book, _ = submit_book([
        (BID, "b1", 1, 10), (BID, "b2", 1, 8), (BID, "b3", 1, 6),
        (ASK, "s1", 1, 5), (ASK, "s2", 1, 7), (ASK, "s3", 1, 9),
    ])
    result = book.clear(at=1)
    assert sum(t.quantity for t in result.trades) == 2
    assert result.clearing_prices == {(10, 20): 7}
    pairs = {(t.buyer, t.seller) for t in result.trades}
    assert pairs == {("b1", "s1"), ("b2", "s2")}


def test_crossing_fails_when_bid_under_ask():
    book, _ = submit_book([(BID, "b1", 1, 5), (ASK, "s1", 1, 9)])
    result = book.clear(at=1)
    assert result.trades == []
    assert result.clearing_prices == {}


def test_empty_book_clears_to_nothing():
    book = OrderBook()
    result = book.clear(at=0)
    assert result.trades == []
    assert result.bid_quantity == result.ask_quantity == 0
    assert result.demand_index == 0


def test_windows_clear_independently():
    book = OrderBook()
    book.submit(BID, "b1", 1, 10, 10, 20, at=0)
    book.submit(ASK, "s1", 1, 2, 30, 40, at=0)  # different goods
    result = book.clear(at=1)
    assert result.trades == []


def test_clearing_settles_through_the_ledger():
    ledger = funded_ledger(**{"b1": 1_000, "s1": 0})
    book, _ = submit_book([(BID, "b1", 4, 10), (ASK, "s1", 4, 6)])
    result = book.clear(at=1, ledger=ledger)
    price = result.clearing_prices[(10, 20)]
    assert price == 8
    assert ledger.balance("b1") == 1_000 - 4 * price
    assert ledger.balance("s1") == 4 * price


def test_clearing_empties_the_book():
    # one-shot call auction: an unfilled order does not rest into the
    # next clearing, even one before its window starts
    book, _ = submit_book([(BID, "b1", 3, 0)], window=(1, 2))
    assert book.clear(at=0).bid_quantity == 3
    assert book.orders == {}
    assert book.clear(at=1).bid_quantity == 0


def _brute_force_max_quantity(bids, asks):
    """Maximum feasible uniform-price trade volume, checked per quantity.

    Tries every volume q from the largest down; q is feasible when the q
    best bid units can each cover one of the q cheapest ask units (the
    sorted pairing dominates any other assignment, so checking it decides
    feasibility for all assignments).
    """
    bid_units = sorted((p for p, q in bids for _ in range(q)), reverse=True)
    ask_units = sorted(p for p, q in asks for _ in range(q))
    for q in range(min(len(bid_units), len(ask_units)), 0, -1):
        if all(bid_units[i] >= ask_units[i] for i in range(q)):
            return q
    return 0


def test_clearing_volume_matches_brute_force():
    rng = random.Random(31)
    for case in range(500):
        bids = [(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))]
        asks = [(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))]
        book = OrderBook()
        limits = {}
        for price, qty in bids:
            oid = book.submit(BID, "b", qty, price, 10, 20, at=0)
            limits[oid] = price
        for price, qty in asks:
            oid = book.submit(ASK, "s", qty, price, 10, 20, at=0)
            limits[oid] = price
        result = book.clear(at=1)
        traded = sum(t.quantity for t in result.trades)
        expected = _brute_force_max_quantity(
            [(p, q) for p, q in bids], [(p, q) for p, q in asks]
        )
        assert traded == expected, (case, bids, asks)
        for trade in result.trades:
            assert limits[trade.ask_order] <= trade.unit_price <= limits[trade.bid_order]


def test_demand_index_reflects_book_imbalance():
    book, _ = submit_book([
        (BID, "b1", 6, 10), (BID, "b2", 2, 9), (ASK, "s1", 4, 5),
    ])
    result = book.clear(at=1)
    assert result.demand_index == Fraction(8, 4)


# -- provider pricing and venue choice ---------------------------------------------------


def test_fixed_price_never_drops_below_floor():
    # zero coefficients make the price fixed at the base rate
    policy = VariablePrice(
        base_rate=3, utilization_coefficient=Fraction(0),
        demand_coefficient=Fraction(0), cost_floor=5,
    )
    assert provider_set_price(policy, Fraction(1), Fraction(3)) == 5


def test_neutral_market_charges_base_rate():
    policy = VariablePrice(
        base_rate=100, utilization_coefficient=Fraction(1, 2),
        demand_coefficient=Fraction(1, 4), cost_floor=1,
    )
    assert provider_set_price(policy, Fraction(0), Fraction(1)) == 100


def test_full_utilization_marks_up_by_alpha():
    policy = VariablePrice(
        base_rate=100, utilization_coefficient=Fraction(1, 2),
        demand_coefficient=Fraction(1, 4), cost_floor=1,
    )
    assert provider_set_price(policy, Fraction(1), Fraction(1)) == 150


def test_excess_demand_raises_the_price():
    policy = VariablePrice(
        base_rate=100, utilization_coefficient=Fraction(1, 2),
        demand_coefficient=Fraction(1, 4), cost_floor=1,
    )
    # demand index 3 -> excess 2 -> 100 * (1 + 0 + 1/2)
    assert provider_set_price(policy, Fraction(0), Fraction(3)) == 150


def test_slack_demand_never_discounts_below_base():
    policy = VariablePrice(
        base_rate=100, utilization_coefficient=Fraction(0),
        demand_coefficient=Fraction(1), cost_floor=1,
    )
    assert provider_set_price(policy, Fraction(0), Fraction(1, 2)) == 100


def test_price_respects_the_floor_everywhere():
    rng = random.Random(3)
    for _ in range(300):
        policy = VariablePrice(
            base_rate=rng.randint(0, 50),
            utilization_coefficient=Fraction(rng.randint(0, 4), 4),
            demand_coefficient=Fraction(rng.randint(0, 4), 4),
            cost_floor=rng.randint(0, 60),
        )
        price = provider_set_price(
            policy,
            Fraction(rng.randint(0, 8), 8),
            Fraction(rng.randint(0, 30), 10),
        )
        assert price >= policy.cost_floor


def test_utilization_outside_unit_interval_is_invalid():
    policy = VariablePrice(
        base_rate=1, utilization_coefficient=Fraction(0),
        demand_coefficient=Fraction(0),
    )
    with pytest.raises(InvalidPolicy):
        provider_set_price(policy, Fraction(3, 2), Fraction(1))


# -- broker policy ---------------------------------------------------------------------


def market_view(cheapest_price, last=None, capacity=100, funds=10**9):
    return MarketView(cheapest_price, last, capacity, funds)


def test_profitable_request_is_engaged():
    view = BrokerRequestView("req000001", willingness=10_000, quantity=1)
    actions = broker_decide([view], market_view(7_000))
    assert len(actions) == 1
    assert actions[0].request_id == "req000001"


def test_capacity_forces_the_higher_utility_pick():
    # oracle: enumerate both choices; 5_000 beats 3_000
    cheap = BrokerRequestView("req000001", willingness=8_000, quantity=10)
    rich = BrokerRequestView("req000002", willingness=10_000, quantity=10)
    # unit estimate 500 -> utilities 3_000 and 5_000
    actions = broker_decide(
        [cheap, rich],
        market_view(500, capacity=10),
    )
    assert [a.request_id for a in actions] == ["req000002"]


def test_unprofitable_requests_are_ignored():
    view = BrokerRequestView("req000001", willingness=100, quantity=1)
    actions = broker_decide([view], market_view(7_000))
    assert actions == []


def test_posted_hint_inside_limit_means_bid():
    view = BrokerRequestView("req000001", willingness=10_000, quantity=10)
    actions = broker_decide([view], market_view(100))
    assert actions[0].kind == "bid"
    assert actions[0].limit_unit_price == 1_000


def test_no_affordable_hint_means_negotiate():
    view = BrokerRequestView(
        "req000001", willingness=10_000, quantity=10, margin=9_500,
    )
    # the cheapest posted price, 80, is above the limit of 50
    actions = broker_decide([view], market_view(80))
    assert actions[0].kind == "negotiate"
    assert actions[0].limit_unit_price == 50


def test_last_clearing_price_overrides_hints_for_estimation():
    view = BrokerRequestView("req000001", willingness=5_000, quantity=10)
    # the posted price says cheap, but the last clearing says the market costs 600/unit
    actions = broker_decide(
        [view], market_view(10, last=600),
    )
    assert actions == []  # 5_000 - 600*10 < 0


def test_funds_cap_the_bid_limit():
    view = BrokerRequestView("req000001", willingness=10_000, quantity=10)
    actions = broker_decide(
        [view], market_view(100, funds=4_000),
    )
    assert actions[0].limit_unit_price == 400


def test_broker_subset_matches_exhaustive_search():
    # oracle: enumerate all subsets under the capacity cap
    rng = random.Random(17)
    for case in range(120):
        views = [
            BrokerRequestView(
                f"req{i:06d}",
                willingness=rng.randint(0, 4_000),
                quantity=rng.randint(1, 6),
            )
            for i in range(rng.randint(1, 7))
        ]
        unit = rng.randint(50, 500)
        capacity = rng.randint(1, 12)
        actions = broker_decide(
            views,
            market_view(unit, capacity=capacity),
        )
        utility = {
            v.request_id: v.willingness - unit * v.quantity
            for v in views
        }
        chosen = {a.request_id for a in actions}
        best = 0
        for size in range(len(views) + 1):
            for combo in combinations(views, size):
                if sum(v.quantity for v in combo) > capacity:
                    continue
                if any(utility[v.request_id] <= 0 for v in combo):
                    continue
                best = max(best, sum(utility[v.request_id] for v in combo))
        got = sum(utility[r] for r in chosen)
        assert got == best, (case, utility, capacity, chosen)


def _select_by_enumeration(candidates, capacity):
    # reference: the exact branch as it was, every subset enumerated
    best_utility = 0
    best: tuple[str, ...] | None = None
    best_views: list[BrokerRequestView] = []
    for size in range(len(candidates), 0, -1):
        for combo in combinations(candidates, size):
            if sum(v.quantity for _, v in combo) > capacity:
                continue
            utility = sum(u for u, _ in combo)
            key = tuple(v.request_id for _, v in combo)
            if utility > best_utility or (utility == best_utility and best is not None and key < best):
                best_utility = utility
                best = key
                best_views = [v for _, v in combo]
    return best_views


def _candidates(rng, n, utilities, max_quantity):
    # ids in shuffled order, so candidate order is not id order
    ids = rng.sample(range(1, 1_000), n)
    return [
        (rng.choice(utilities), BrokerRequestView(f"req{ids[i]:06d}", 0, rng.randint(1, max_quantity)))
        for i in range(n)
    ]


def test_exact_selection_matches_subset_enumeration():
    rng = random.Random(2024)
    ties = 0
    for n in range(0, 13):
        for case in range(60):
            # few distinct utilities, so equal-utility subsets are common
            utilities = [1, 2, 3] if case % 2 else [rng.randint(1, 400) for _ in range(6)]
            candidates = _candidates(rng, n, utilities, max_quantity=8)
            capacity = rng.choice([0, rng.randint(1, 12), rng.randint(8, 40), 100])
            expected = _select_by_enumeration(candidates, capacity)
            assert _select_requests(candidates, capacity) == expected, (n, case, candidates, capacity)
            if n <= 8:
                best = sum(u for u, v in candidates if v in expected)
                optima = [
                    combo for size in range(1, n + 1) for combo in combinations(candidates, size)
                    if sum(v.quantity for _, v in combo) <= capacity
                    and sum(u for u, _ in combo) == best
                ]
                ties += len(optima) > 1
    assert ties >= 20  # the id tie-break decided these cases


@pytest.mark.parametrize("capacity, quantities, expected", [
    (0, [1, 2, 3], []),                                       # nothing fits
    (100, [1, 2, 3], ["req000003", "req000001", "req000002"]),  # everything fits
    (4, [5, 9, 4], ["req000002"]),                            # only the third fits
    (2, [3, 7, 9], []),                                       # every single pick too big
])
def test_exact_selection_edge_capacities(capacity, quantities, expected):
    ids = ["req000003", "req000001", "req000002"]
    candidates = [
        (10, BrokerRequestView(rid, 0, q)) for rid, q in zip(ids, quantities)
    ]
    chosen = _select_requests(candidates, capacity)
    assert [v.request_id for v in chosen] == expected
    assert chosen == _select_by_enumeration(candidates, capacity)


def test_equal_utility_goes_to_the_smallest_id_tuple():
    a, b = BrokerRequestView("req000001", 0, 1), BrokerRequestView("req000002", 0, 1)
    c = BrokerRequestView("req000003", 0, 2)
    # {a, b} and {c} both reach 6 in 2 units of room
    assert _select_requests([(3, a), (3, b), (6, c)], 2) == [a, b]
    # {d, a} and {b, c} both reach 6 in 4 units; the ids are compared in
    # candidate order, ("req000002", "req000003") < ("req000004", "req000001")
    b, c = BrokerRequestView("req000002", 0, 2), BrokerRequestView("req000003", 0, 2)
    d = BrokerRequestView("req000004", 0, 3)
    assert _select_requests([(5, d), (3, b), (3, c), (1, a)], 4) == [b, c]


def test_greedy_above_twelve_candidates_is_unchanged():
    # utility order, then id, while it fits: the 10-unit pick first,
    # then the two smallest ids; the exact optimum would be twelve 9s
    big = BrokerRequestView("req000099", 0, 10)
    small = [BrokerRequestView(f"req{i:06d}", 0, 1) for i in range(12, 0, -1)]
    candidates = [(9, v) for v in small] + [(10, big)]
    chosen = _select_requests(candidates, 12)
    assert [v.request_id for v in chosen] == ["req000099", "req000001", "req000002"]


# -- advance reservations -----------------------------------------------------------------


def make_datacenter(cpu=4, mem=16, machines=1):
    engine = SimEngine()
    specs = [(f"m{i}", cpu, mem) for i in range(machines)]
    return Datacenter(engine, "prov", specs)


def test_reservation_within_capacity_is_granted():
    dc = make_datacenter(cpu=4)
    book = ReservationBook()
    assert book.reserve(dc, 10, 20, 4, 1, machine_id="m0") == "rsv000001"
    assert dc.calendars["m0"].usage_at(15) == (4, 1)
    assert [b.owner for b in dc.calendars["m0"].blocks] == ["rsv000001"]


def test_overlapping_reservation_conflicts():
    dc = make_datacenter(cpu=4)
    book = ReservationBook()
    book.reserve(dc, 10, 20, 4, 1, machine_id="m0")
    with pytest.raises(CapacityViolation):
        book.reserve(dc, 15, 25, 1, 1, machine_id="m0")
    # a refused hold leaves no block and uses up no reservation id
    assert len(dc.calendars["m0"].blocks) == 1
    assert book.reserve(dc, 20, 25, 1, 1, machine_id="m0") == "rsv000002"


def test_reservation_before_the_prune_point_fails_loudly():
    dc = make_datacenter(cpu=4)
    book = ReservationBook()
    dc.calendars["m0"].prune(10)
    with pytest.raises(CapacityViolation, match="before t=10"):
        book.reserve(dc, 5, 8, 1, 1, machine_id="m0")
    assert dc.calendars["m0"].blocks == []
    assert book.reserve(dc, 10, 12, 1, 1, machine_id="m0") == "rsv000001"


def test_random_reservations_never_oversubscribe():
    # oracle: per-tick summation across granted reservations
    rng = random.Random(71)
    for case in range(40):
        cpu_cap = rng.randint(2, 6)
        dc = make_datacenter(cpu=cpu_cap, mem=64, machines=2)
        book = ReservationBook()
        granted = []  # (machine_id, start, end, cpu)
        for i in range(30):
            start = rng.randint(0, 40)
            end = start + rng.randint(1, 10)
            cpu = rng.randint(1, cpu_cap)
            slot = book.find_slot(dc, start, start, end - start, cpu, 1)
            # a pinned reservation on a machine that is full must conflict
            machine_id = slot[0] if slot is not None else rng.choice(sorted(dc.calendars))
            try:
                book.reserve(dc, start, end, cpu, 1, machine_id=machine_id)
            except CapacityViolation:
                assert slot is None, (case, i)
            else:
                granted.append((machine_id, start, end, cpu))
        for machine_id in dc.calendars:
            for t in range(0, 55):
                load = sum(
                    c for m, s, e, c in granted
                    if m == machine_id and s <= t < e
                )
                assert load <= cpu_cap, (case, machine_id, t)


def test_find_slot_prefers_the_earliest_then_lowest_id():
    dc = make_datacenter(cpu=4, machines=2)
    book = ReservationBook()
    book.reserve(dc, 0, 10, 4, 1, machine_id="m0")
    slot = book.find_slot(dc, earliest=0, latest_start=50, duration=5, cpu=4, mem=1)
    assert slot == ("m1", 0)


# -- settlement -----------------------------------------------------------------------


def make_sla(price=1_000, promised=50, rate=20, cap=None, paid=False):
    return Sla(
        "sla000001", "broker-a", "alpine", "req000001",
        price=price, promised_completion=promised,
        penalty=PenaltySchedule(rate=Fraction(rate), cap=cap), paid=paid,
    )


def test_on_time_settlement_pays_in_full():
    ledger = funded_ledger(**{"broker-a": 5_000, "alpine": 0})
    settlement = settle_sla(ledger, make_sla(), actual_completion=50, at=50)
    assert settlement.penalty == 0
    assert settlement.net_paid == 1_000
    assert ledger.balance("alpine") == 1_000


def test_late_settlement_refunds_the_penalty():
    ledger = funded_ledger(**{"broker-a": 5_000, "alpine": 0})
    settlement = settle_sla(ledger, make_sla(), actual_completion=60, at=60)
    assert settlement.penalty == 200
    assert settlement.net_paid == 800
    assert ledger.balance("alpine") == 800
    assert ledger.balance("broker-a") == 4_200


def test_penalty_cap_keeps_the_seller_net_at_zero():
    ledger = funded_ledger(**{"broker-a": 5_000, "alpine": 0})
    settlement = settle_sla(
        ledger, make_sla(cap=1_000), actual_completion=550, at=550
    )
    assert settlement.penalty == 1_000
    assert settlement.net_paid == 0
    assert ledger.balance("alpine") == 0


def test_uncapped_penalty_still_stops_at_the_price():
    ledger = funded_ledger(**{"broker-a": 5_000, "alpine": 0})
    settlement = settle_sla(ledger, make_sla(), actual_completion=1_050, at=1_050)
    assert settlement.penalty == 1_000  # 20_000 clamped to the base
    assert settlement.net_paid == 0


def test_prepaid_sla_settles_only_the_penalty_leg():
    ledger = funded_ledger(**{"broker-a": 5_000, "alpine": 5_000})
    settlement = settle_sla(ledger, make_sla(paid=True), actual_completion=55, at=55)
    assert settlement.penalty == 100
    assert settlement.net_paid == -100
    assert ledger.balance("alpine") == 4_900
    assert ledger.balance("broker-a") == 5_100


def test_settlement_happens_once():
    ledger = funded_ledger(**{"broker-a": 5_000, "alpine": 0})
    sla = make_sla()
    settle_sla(ledger, sla, actual_completion=50, at=50)
    with pytest.raises(AlreadySettled):
        settle_sla(ledger, sla, actual_completion=50, at=50)


def test_seller_net_stays_within_price_bounds():
    rng = random.Random(5)
    for _ in range(300):
        price = rng.randint(0, 3_000)
        sla = make_sla(
            price=price, promised=rng.randint(0, 40),
            rate=rng.randint(0, 60),
            cap=rng.choice([None, rng.randint(0, 2_000)]),
        )
        ledger = funded_ledger(**{"broker-a": 10_000, "alpine": 10_000})
        settlement = settle_sla(
            ledger, sla, actual_completion=rng.randint(0, 120), at=200
        )
        assert 0 <= settlement.net_paid <= price
        assert sum(ledger.balances.values()) == 0
