"""Release gate: ten checks, one printed verdict line each.

Every check recomputes its expectation from scratch (brute force,
replay, or closed form) instead of trusting the module under test.
The shared hundred-run fixture drives both allocation pipelines over
the contended two-class scenario so conservation, capacity, and
settlement checks see real load, lateness, and penalties.
"""

import copy
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from cloudmarket.allocator import (
    Accept,
    Fixed,
    PeakOffPeak,
    QosSpec,
    Reject,
    ServiceRequest,
    SlaAllocator,
    quote,
)
from cloudmarket.cli import main
from cloudmarket.datacenter import Datacenter, fleet_specs
from cloudmarket.engine import SimEngine
from cloudmarket.exchange import WORLD, OrderBook
from cloudmarket.money import ceil_div
from cloudmarket.negotiation import (
    BUYER,
    SELLER,
    Agreement,
    BrokeOff,
    ConcessionSchedule,
    NegotiationSession,
    NegotiationTerms,
)
from cloudmarket.simulation import compare_modes, run_scenario
from cloudmarket.workload import (
    generate_requests,
    load_scenario,
    scenario_to_dict,
    validate_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

REJECT_REASONS = {"DeadlineInfeasible", "BudgetInfeasible", "CapacityUnavailable"}


@pytest.fixture
def verdict(capsys):
    """Print the criterion outcome on the real terminal, capture or not."""
    @contextmanager
    def _verdict(number, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number:2d} ({label}): FAIL")
            raise
        with capsys.disabled():
            print(f"criterion {number:2d} ({label}): PASS")
    return _verdict


# -- shared hundred-run fixture----------------------------------------------------


@dataclass
class RunExtract:
    seed: int
    mode: str
    journal: list
    balances: dict
    vm_events: list          # (kind, machine, cpu, mem) in firing order
    reservations: list       # (provider, machine, start, end, cpu, mem)
    settlements: list        # settlement payloads in firing order
    machine_caps: dict       # machine id -> (cpu, mem)
    provider_cpu: dict       # provider id -> total cpu


@pytest.fixture(scope="module")
def hundred_runs():
    scenario = load_scenario(str(SCENARIOS / "two_class.yaml"))
    machine_caps = {}
    provider_cpu = {}
    for p in scenario.providers:
        groups = [
            {"count": g.count, "cpu_capacity": g.cpu_capacity,
             "mem_capacity": g.mem_capacity}
            for g in p.fleet
        ]
        for machine_id, cpu, mem in fleet_specs(p.provider_id, groups):
            machine_caps[machine_id] = (cpu, mem)
        provider_cpu[p.provider_id] = sum(
            g.count * g.cpu_capacity for g in p.fleet)
    extracts = []
    for seed in range(100):
        mode = "market" if seed % 2 == 0 else "system_centric"
        result = run_scenario(scenario, seed=seed, mode=mode)
        vm_events = []
        reservations = []
        settlements = []
        for kind, p in ((ev.kind, ev.payload) for ev in result.trace.events):
            if kind in ("vm_provision", "vm_release"):
                vm_events.append((kind, p["machine"], p["cpu"], p["mem"]))
            elif kind == "reservation":
                reservations.append((p["provider"], p["machine"], p["start"],
                                     p["end"], p["cpu"], p["mem"]))
            elif kind == "settlement":
                settlements.append(p)
        extracts.append(RunExtract(
            seed=seed,
            mode=mode,
            journal=list(result.ledger.journal),
            balances=dict(result.ledger.balances),
            vm_events=vm_events,
            reservations=reservations,
            settlements=settlements,
            machine_caps=machine_caps,
            provider_cpu=provider_cpu,
        ))
    return extracts


# -- criterion 1 -------------------------------------------------------------------


def test_criterion_01_determinism_and_speed(tmp_path, capsys, verdict):
    with verdict(1, "determinism"):
        out = tmp_path / "out"
        scenario_path = str(SCENARIOS / "example.yaml")
        argv = ["--scenario", scenario_path, "--out", str(out), "--seed", "42"]
        started = time.perf_counter()
        assert main(argv) == 0
        elapsed = time.perf_counter() - started
        capsys.readouterr()

        names = ["trace_seed42.log", "journal_seed42.csv",
                 "metrics_seed42.csv", "summary_seed42.json"]
        first = {n: (out / n).read_bytes() for n in names}
        summary = json.loads(first["summary_seed42.json"])
        assert summary["requests"]["submitted"] == 10_000
        assert elapsed < 10.0, f"run took {elapsed:.1f}s"

        # second run into the same directory must rewrite identical bytes
        assert main(argv) == 0
        capsys.readouterr()
        for name in names:
            assert (out / name).read_bytes() == first[name], name


# -- criterion 2 -------------------------------------------------------------------


def test_criterion_02_money_conservation(hundred_runs, verdict):
    with verdict(2, "money conservation, 100 seeds"):
        assert len(hundred_runs) == 100
        for run in hundred_runs:
            balances = {account: 0 for account in run.balances}
            for entry in run.journal:
                assert entry.amount > 0
                balances[entry.debit] -= entry.amount
                balances[entry.credit] += entry.amount
                # exact zero after every journal entry, settlements included
                assert sum(balances.values()) == 0, (run.seed, entry)
                overdrawn = [a for a, v in balances.items()
                             if v < 0 and a != WORLD]
                assert not overdrawn, (run.seed, entry, overdrawn)
            assert balances == run.balances, run.seed
            assert sum(run.balances.values()) == 0, run.seed


# -- criterion 3 -------------------------------------------------------------------


def test_criterion_03_capacity_safety(hundred_runs, verdict):
    with verdict(3, "capacity safety, 100 seeds"):
        total_vms = total_reservations = 0
        for run in hundred_runs:
            # per-machine entitlements, replayed in event order
            cpu_used = {m: 0 for m in run.machine_caps}
            mem_used = {m: 0 for m in run.machine_caps}
            for kind, machine, cpu, mem in run.vm_events:
                sign = 1 if kind == "vm_provision" else -1
                cpu_used[machine] += sign * cpu
                mem_used[machine] += sign * mem
                cap_cpu, cap_mem = run.machine_caps[machine]
                assert 0 <= cpu_used[machine] <= cap_cpu, (run.seed, machine)
                assert 0 <= mem_used[machine] <= cap_mem, (run.seed, machine)
                total_vms += kind == "vm_provision"

            # per-provider per-tick reservations, summed at every boundary
            by_provider = {}
            for provider, _m, start, end, cpu, _mem in run.reservations:
                by_provider.setdefault(provider, []).append((start, end, cpu))
                total_reservations += 1
            for provider, holds in by_provider.items():
                cap = run.provider_cpu[provider]
                for tick in sorted({s for s, _, _ in holds}):
                    load = sum(c for s, e, c in holds if s <= tick < e)
                    assert load <= cap, (run.seed, provider, tick, load, cap)
        assert total_vms > 1_000          # the gate must not pass vacuously
        assert total_reservations > 1_000


# -- criterion 4 -------------------------------------------------------------------


def brute_force_max_quantity(bids, asks):
    """Largest q for which some assignment of bid units to ask units trades.

    Expands orders into single units; sorted pairing dominates any other
    assignment, so q is feasible iff the i-th highest bid unit meets the
    i-th lowest ask unit for every i < q.  Tries q from the top down.
    """
    bid_units = sorted((p for p, q in bids for _ in range(q)), reverse=True)
    ask_units = sorted(p for p, q in asks for _ in range(q))
    for q in range(min(len(bid_units), len(ask_units)), -1, -1):
        if all(bid_units[i] >= ask_units[i] for i in range(q)):
            return q
    return 0


def test_criterion_04_auction_matches_brute_force(verdict):
    with verdict(4, "auction oracle, 10000 books"):
        rng = random.Random(776_001)
        window = (5, 15)
        for case in range(10_000):
            bids = [(rng.randint(1, 12), rng.randint(1, 3))
                    for _ in range(rng.randint(0, 5))]
            asks = [(rng.randint(1, 12), rng.randint(1, 3))
                    for _ in range(rng.randint(0, 5))]
            book = OrderBook()
            limits = {}  # clearing purges filled orders, so snapshot first
            for i, (price, qty) in enumerate(bids):
                order_id = book.submit("bid", "b", qty, price, *window, at=0, request_id=f"req{i}")
                limits[order_id] = price
            for price, qty in asks:
                limits[book.submit("ask", "s", qty, price, *window, at=0)] = price
            result = book.clear(at=5)
            traded = sum(t.quantity for t in result.trades)
            assert traded == brute_force_max_quantity(bids, asks), (case, bids, asks)
            for trade in result.trades:
                assert limits[trade.ask_order] <= trade.unit_price, (case, trade)
                assert trade.unit_price <= limits[trade.bid_order], (case, trade)


# -- criterion 5 -------------------------------------------------------------------


def fresh_allocator(specs, rate, boot_delay):
    engine = SimEngine()
    dc = Datacenter(engine, "prov", specs, boot_delay=boot_delay)
    return SlaAllocator(engine, dc, Fixed(rate=Fraction(rate)))


def make_request(n, submit, volume, cpu, deadline, budget, mem=1):
    return ServiceRequest(
        f"req{n:06d}", "acme", submit, volume,
        QosSpec(deadline, budget, cpu, mem),
    )


def replay_accepts(specs, boot_delay, accepted):
    """Re-run every accepted plan against raw machine capacity.

    The promise set alone must fit: at each interval boundary the summed
    entitlements per machine stay within its capacity, and each plan's
    completion equals boot plus the recomputed execution span.
    """
    caps = {m: (cpu, mem) for m, cpu, mem in specs}
    for req, plan in accepted:
        assert plan.exec_start == plan.vm_start + boot_delay
        assert plan.completion == plan.exec_start + ceil_div(
            req.workload_volume, req.qos.cpu_need)
        assert plan.completion <= req.qos.deadline
    for tick in sorted({p.vm_start for _, p in accepted}):
        for machine, (cap_cpu, cap_mem) in caps.items():
            live = [(r, p) for r, p in accepted
                    if p.machine_id == machine and p.vm_start <= tick < p.completion]
            assert sum(r.qos.cpu_need for r, _ in live) <= cap_cpu, (machine, tick)
            assert sum(r.qos.mem_need for r, _ in live) <= cap_mem, (machine, tick)


def test_criterion_05_admission_soundness(verdict):
    with verdict(5, "admission soundness, 1000 instances"):
        rng = random.Random(551_212)
        instances = 0
        case = 0
        while instances < 1_000:
            case += 1
            rng_case = random.Random(rng.getrandbits(32))
            machines = rng_case.randint(1, 3)
            specs = [
                (f"m{i}", rng_case.choice([2, 4, 8]), rng_case.choice([8, 16, 32]))
                for i in range(machines)
            ]
            boot = rng_case.randint(0, 3)
            alloc = fresh_allocator(specs, rate=2, boot_delay=boot)
            accepted = []
            at = 0
            for n in range(rng_case.randint(12, 20)):
                at += rng_case.randint(0, 4)
                volume = rng_case.randint(4, 60)
                cpu = rng_case.choice([1, 2, 4])
                request = make_request(
                    n, at, volume, cpu,
                    deadline=at + boot + rng_case.randint(2, 40),
                    budget=rng_case.randint(1, 200),
                    mem=rng_case.choice([1, 2, 8]),
                )
                decision = alloc.examine(request, at=at)
                instances += 1
                if isinstance(decision, Accept):
                    assert decision.plan.vm_start >= at
                    accepted.append((request, decision.plan))
                    # replay against every commitment standing at accept time
                    replay_accepts(specs, boot, accepted)
                else:
                    assert decision.reason in REJECT_REASONS

        # doubled load must be turned away with the documented reasons
        alloc = fresh_allocator([("m0", 4, 16)], rate=1, boot_delay=0)
        overload_rng = random.Random(990_013)
        decisions = []
        for n in range(48):  # ~1920 cpu-ticks of demand vs 960 of capacity
            at = overload_rng.randint(0, 119)
            budget = 1 if n % 7 == 0 else 200
            request = make_request(
                n, at, volume=40, cpu=2, deadline=at + 50, budget=budget)
            decisions.append(alloc.examine(request, at=at))
        rejects = [d for d in decisions if isinstance(d, Reject)]
        assert len(rejects) > 0
        assert {d.reason for d in rejects} <= REJECT_REASONS


# -- criterion 6 -------------------------------------------------------------------


def test_criterion_06_sla_settlement(hundred_runs, verdict):
    with verdict(6, "settlement invariants, 100 seeds"):
        late_seen = on_time_seen = 0
        for run in hundred_runs:
            legs = {}
            for entry in run.journal:
                if entry.memo.startswith("sla "):
                    _, sla_id, leg = entry.memo.split(" ")
                    legs[(sla_id, leg, entry.at)] = entry.amount
            seen = set()
            for p in run.settlements:
                assert p["sla_id"] not in seen, (run.seed, p)  # settles once
                seen.add(p["sla_id"])
                assert 0 <= p["penalty"] <= p["base"], (run.seed, p)
                # penalty exactly when the completion missed the promise
                if p["base"] > 0:
                    assert (p["penalty"] > 0) == (p["late"] > 0), (run.seed, p)
                else:
                    assert p["penalty"] == 0, (run.seed, p)
                # seller keeps the price minus the penalty, never less
                lifetime_net = p["base"] - p["penalty"]
                assert 0 <= lifetime_net <= p["base"], (run.seed, p)
                if p["prepaid"]:
                    assert p["net"] == -p["penalty"], (run.seed, p)
                else:
                    assert p["net"] == lifetime_net, (run.seed, p)
                # each settlement leg is backed by a journal entry
                if p["base"] > 0 and not p["prepaid"]:
                    amount = [v for (sid, leg, _at), v in legs.items()
                              if sid == p["sla_id"] and leg == "price"]
                    assert amount == [p["base"]], (run.seed, p)
                if p["penalty"] > 0:
                    amount = [v for (sid, leg, _at), v in legs.items()
                              if sid == p["sla_id"] and leg == "penalty"]
                    assert amount == [p["penalty"]], (run.seed, p)
                late_seen += p["late"] > 0
                on_time_seen += p["late"] == 0
        assert late_seen > 1_000      # both sides of the iff were exercised
        assert on_time_seen > 1_000


# -- criterion 7 -------------------------------------------------------------------


def random_schedule(rng):
    if rng.random() < 0.5:
        return ConcessionSchedule()
    return ConcessionSchedule("poly", rng.randint(1, 3))


def test_criterion_07_negotiation_outcomes(verdict):
    with verdict(7, "negotiation, 1000 term pairs"):
        rng = random.Random(707_707)
        agreements = breakdowns = 0
        for case in range(1_000):
            overlap = case % 2 == 0
            seller_res = rng.randint(1_000, 9_000)
            buyer_res = (rng.randint(seller_res, 12_000) if overlap
                         else rng.randint(0, seller_res - 1))
            buyer = NegotiationTerms(
                BUYER, rng.randint(0, buyer_res), buyer_res,
                rng.randint(1, 8), random_schedule(rng), party_id="b",
            )
            seller = NegotiationTerms(
                SELLER, rng.randint(seller_res, 15_000), seller_res,
                rng.randint(1, 8), random_schedule(rng), party_id="s",
            )
            session = NegotiationSession(buyer, seller)
            outcome = session.run_to_completion()
            if overlap:
                assert isinstance(outcome, Agreement), (case, outcome)
                assert seller_res <= outcome.price <= buyer_res, (case, outcome)
                assert len(session.transcript) <= session.effective_rounds + 1
                agreements += 1
            else:
                assert isinstance(outcome, BrokeOff), (case, outcome)
                breakdowns += 1
        assert agreements == breakdowns == 500


# -- criterion 8 -------------------------------------------------------------------


def util_variant(base_dict, interval):
    variant = copy.deepcopy(base_dict)
    variant["workload"]["arrival"]["interval"] = interval
    return validate_scenario(variant)


def test_criterion_08_pricing_tracks_demand(verdict):
    with verdict(8, "demand and peak pricing"):
        base = scenario_to_dict(load_scenario(str(SCENARIOS / "util_pricing.yaml")))
        crowded = util_variant(base, 2)    # 2x demand
        quiet = util_variant(base, 16)     # 0.25x demand
        for seed in range(20):
            dense = generate_requests(crowded, seed)
            sparse = generate_requests(quiet, seed)
            assert len(dense) == len(sparse) == 120
            for a, b in zip(dense, sparse):
                assert a.workload_volume == b.workload_volume
                assert a.qos.cpu_need == b.qos.cpu_need
                assert a.qos.budget == b.qos.budget
                assert a.qos.deadline - a.submit_time == b.qos.deadline - b.submit_time
            high = run_scenario(crowded, seed=seed).summary.mean_price
            low = run_scenario(quiet, seed=seed).summary.mean_price
            assert high is not None and low is not None
            assert high >= low, (seed, high, low)

        policy = PeakOffPeak(
            rate=Fraction(5), peak_multiplier=Fraction(2),
            peak_windows=((60, 120),), day_length=240,
        )
        rng = random.Random(8)
        for _ in range(200):
            volume = rng.randint(1, 500)
            off = quote(policy, volume, submit_time=rng.randint(0, 59))
            peak = quote(policy, volume, submit_time=rng.randint(60, 119))
            assert peak == 2 * off, volume


# -- criterion 9 -------------------------------------------------------------------


def test_criterion_09_market_beats_fifo_on_two_classes(verdict):
    with verdict(9, "market vs baseline revenue, 20 seeds"):
        scenario = load_scenario(str(SCENARIOS / "two_class.yaml"))
        deltas = []
        for seed in range(20):
            market, baseline = compare_modes(scenario, seed)
            market_revenue = sum(market.summary.provider_revenue.values())
            baseline_revenue = sum(baseline.summary.provider_revenue.values())
            deltas.append(market_revenue - baseline_revenue)
        wins = sum(1 for d in deltas if d >= 0)
        assert wins >= 18, (wins, deltas)
        assert sum(deltas) > 0, deltas


# -- criterion 10 ------------------------------------------------------------------


def test_criterion_10_cli_contract(tmp_path, capsys, verdict):
    with verdict(10, "command line contract"):
        smoke = str(SCENARIOS / "smoke.yaml")
        assert main(["--scenario", smoke, "--mode", "validate"]) == 0
        assert main(["--scenario", str(tmp_path / "absent.yaml"),
                     "--mode", "validate"]) == 2
        raw = scenario_to_dict(load_scenario(smoke))
        raw["horizon"] = -5
        broken = tmp_path / "broken.yaml"
        broken.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert main(["--scenario", str(broken), "--mode", "validate"]) == 3

        out = tmp_path / "artifacts"
        assert main(["--scenario", smoke, "--out", str(out), "--seed", "7"]) == 0
        for name in ("summary_seed7.json", "metrics_seed7.csv",
                     "journal_seed7.csv", "trace_seed7.log"):
            assert (out / name).is_file(), name

        cmp_out = tmp_path / "cmp"
        assert main(["--scenario", smoke, "--out", str(cmp_out),
                     "--mode", "compare", "--seeds", "1..3"]) == 0
        rows = (cmp_out / "compare.csv").read_text(encoding="utf-8").splitlines()
        header = rows[0].split(",")
        match_col = header.index("request_digest_match")
        assert len(rows) == 4
        assert all(r.split(",")[match_col] == "True" for r in rows[1:])
        capsys.readouterr()
