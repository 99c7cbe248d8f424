"""Each output check passes on a real small run and fails on a corrupted copy.

Run from the repository root:  python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from cloudmarket.cli import main as cli_main  # noqa: E402

SMOKE = ROOT / "scenarios" / "smoke.yaml"
SEED = 7


def _run(tmp_path: Path, mode: str) -> tuple[checks.RunArtifacts, checks.ScenarioFacts]:
    scenario = tmp_path / f"smoke_{mode}.yaml"
    scenario.write_text(
        SMOKE.read_text(encoding="utf-8").replace("\nmode: market\n", f"\nmode: {mode}\n"),
        encoding="utf-8",
    )
    out = tmp_path / mode
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["--scenario", str(scenario), "--out", str(out), "--seed", str(SEED)])
    assert code == 0
    return checks.load_run(out, SEED), checks.ScenarioFacts.from_yaml(scenario)


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("market"), "market")


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("baseline"), "system_centric")


def _served(art: checks.RunArtifacts) -> list[dict]:
    return [r for r in art.rows if r["status"] == "served"]


def test_intact_runs_pass(market, baseline):
    for (art, facts), mode in ((market, "market"), (baseline, "system_centric")):
        assert _served(art), "the smoke run serves requests"
        checks.check_run(art, facts, mode)
        assert checks.utilization_out_of_range(art.summary) == []
    checks.check_sweep_pair(SEED, market[0].summary, baseline[0].summary)


def test_overlapping_execution_fails_capacity(market):
    art, facts = copy.deepcopy(market)
    # every served request now executes over the same ticks on one provider
    for r in _served(art):
        r["provider"] = "alpine"
        r["completed_at"] = "1000"
    with pytest.raises(checks.CheckFailure, match="capacity"):
        checks.check_capacity(art.rows, facts.fleet_cpu)


def test_one_request_too_many_fails_capacity(market):
    art, facts = copy.deepcopy(market)
    fleet = facts.fleet_cpu["birch"]
    extra = dict(_served(art)[0], provider="birch", cpu_need=str(fleet + 1),
                 volume=str(fleet + 1))
    art.rows.append(extra)
    with pytest.raises(checks.CheckFailure, match="capacity"):
        checks.check_capacity(art.rows, facts.fleet_cpu)


def test_wrong_lateness_fails(baseline):
    art, _ = copy.deepcopy(baseline)
    row = _served(art)[0]
    row["lateness"] = str(int(row["lateness"]) + 1)
    with pytest.raises(checks.CheckFailure, match="lateness"):
        checks.check_lateness(art.rows)


def test_dropped_row_fails_request_count(market):
    art, facts = copy.deepcopy(market)
    del art.rows[0]
    with pytest.raises(checks.CheckFailure, match="request count"):
        checks.check_request_count(art, facts.request_count)


def test_unresolved_request_fails_request_count(market):
    art, facts = copy.deepcopy(market)
    art.rows[0]["status"] = "accepted"
    with pytest.raises(checks.CheckFailure, match="never resolved"):
        checks.check_request_count(art, facts.request_count)


def test_dropped_funding_row_fails_journal(market):
    art, _ = copy.deepcopy(market)
    funding = next(i for i, e in enumerate(art.journal) if e[2] == checks.WORLD)
    del art.journal[funding]
    art.journal = [(i,) + e[1:] for i, e in enumerate(art.journal)]
    with pytest.raises(checks.CheckFailure, match="journal"):
        checks.replay_journal(art.journal)


def test_dropped_provider_payment_fails_revenue(market):
    art, facts = copy.deepcopy(market)
    providers = set(facts.fleet_cpu)
    # the last payment into a provider: dropping it leaves no later entry short of funds
    payment = max(i for i, e in enumerate(art.journal) if e[3] in providers)
    del art.journal[payment]
    art.journal = [(i,) + e[1:] for i, e in enumerate(art.journal)]
    balances, _ = checks.replay_journal(art.journal)
    with pytest.raises(checks.CheckFailure, match="revenue"):
        checks.check_revenue(art.summary, balances)


def test_altered_revenue_fails(market):
    art, _ = copy.deepcopy(market)
    art.summary["money"]["provider_revenue"]["alpine"] += 1
    balances, _ = checks.replay_journal(art.journal)
    with pytest.raises(checks.CheckFailure, match="revenue"):
        checks.check_revenue(art.summary, balances)


def test_altered_spend_fails(baseline):
    art, facts = copy.deepcopy(baseline)
    _served(art)[0]["consumer_paid"] = str(int(_served(art)[0]["consumer_paid"]) + 1)
    balances, funded = checks.replay_journal(art.journal)
    with pytest.raises(checks.CheckFailure, match="consumer spend"):
        checks.check_spend(art, balances, funded, facts.consumers)


def test_late_market_request_fails(market):
    art, _ = copy.deepcopy(market)
    row = _served(art)[0]
    row["completed_at"] = str(int(row["deadline"]) + 5)
    row["lateness"] = "5"
    with pytest.raises(checks.CheckFailure, match="market deadlines"):
        checks.check_market_deadlines(art)
    checks.check_lateness(art.rows)  # the corruption is self-consistent


def test_late_baseline_request_is_allowed(baseline):
    art, _ = copy.deepcopy(baseline)
    row = _served(art)[0]
    row["completed_at"] = str(int(row["deadline"]) + 5)
    checks.check_market_deadlines(art)


def test_sweep_pair_mismatch_fails(market, baseline):
    m, b = copy.deepcopy(market[0].summary), copy.deepcopy(baseline[0].summary)
    m["requests"]["submitted"] += 1
    with pytest.raises(checks.CheckFailure, match="submitted"):
        checks.check_sweep_pair(SEED, m, b)
    m, b = copy.deepcopy(market[0].summary), copy.deepcopy(baseline[0].summary)
    b["money"]["consumer_spend"] += 1
    with pytest.raises(checks.CheckFailure, match="baseline revenue"):
        checks.check_sweep_pair(SEED, m, b)


def test_compare_table_digest_mismatch_fails(tmp_path):
    table = tmp_path / "compare.csv"
    table.write_text("seed,request_digest_match\n0,True\n1,False\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailure, match="digests differ"):
        checks.check_compare_table(table, [0, 1])
    with pytest.raises(checks.CheckFailure, match="covers seeds"):
        checks.check_compare_table(table, [0, 1, 2])


def test_utilization_above_one_is_reported(market):
    summary = copy.deepcopy(market[0].summary)
    summary["utilization"]["alpine"] = 1.5
    assert checks.utilization_out_of_range(summary) == ["alpine"]
