"""Output checks that recompute each claim from a run's artifacts.

Nothing here calls into cloudmarket.  The checks read the per-request
rows, the ledger journal and the summary a run wrote, and the scenario
YAML for the facts a run must respect (fleet size, consumers, request
count).  Each check raises CheckFailure naming what disagreed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import yaml

WORLD = "world"
MARKET = "market"


class CheckFailure(Exception):
    pass


@dataclass
class RunArtifacts:
    """What one simulated run wrote: summary dict, request rows, journal."""

    summary: dict
    rows: list[dict]
    journal: list[tuple]  # (seq, at, debit, credit, amount, memo)


@dataclass(frozen=True)
class ScenarioFacts:
    """What the scenario file says, read without the program's parser."""

    fleet_cpu: dict[str, int]
    consumers: tuple[str, ...]
    request_count: int | None

    @classmethod
    def from_yaml(cls, path: str | Path) -> "ScenarioFacts":
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        fleet_cpu = {
            p["provider_id"]: sum(g["count"] * g["cpu_capacity"] for g in p["fleet"])
            for p in raw["providers"]
        }
        consumers = tuple(c["consumer_id"] for c in raw["consumers"])
        return cls(fleet_cpu, consumers, raw["workload"].get("count"))


def load_run(out_dir: str | Path, seed: int) -> RunArtifacts:
    """Read the summary, metrics and journal files of one CLI run."""
    out = Path(out_dir)
    summary = json.loads((out / f"summary_seed{seed}.json").read_text(encoding="utf-8"))
    with (out / f"metrics_seed{seed}.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    with (out / f"journal_seed{seed}.csv").open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        journal = [(int(s), int(at), d, c, int(amount), memo)
                   for s, at, d, c, amount, memo in reader]
    return RunArtifacts(summary, rows, journal)


def _served(rows: list[dict]) -> list[dict]:
    return [r for r in rows if r["status"] == "served"]


def _runtime(row: dict) -> int:
    volume, cpu = int(row["volume"]), int(row["cpu_need"])
    return -(-volume // cpu)


# -- the checks ----------------------------------------------------------------------

def check_capacity(rows: list[dict], fleet_cpu: dict[str, int]) -> None:
    """At every tick the cpu executing on a provider fits in its fleet."""
    steps: dict[str, list[tuple[int, int]]] = {}
    for r in _served(rows):
        end = int(r["completed_at"])
        cpu = int(r["cpu_need"])
        points = steps.setdefault(r["provider"], [])
        points.append((end - _runtime(r), cpu))
        points.append((end, -cpu))
    for provider, points in steps.items():
        if provider not in fleet_cpu:
            raise CheckFailure(f"capacity: rows name unknown provider {provider!r}")
        used = 0
        # releases sort before starts at the same tick: intervals are half-open
        for tick, delta in sorted(points):
            used += delta
            if used > fleet_cpu[provider]:
                raise CheckFailure(
                    f"capacity: {provider} runs {used} cpu at tick {tick}, "
                    f"fleet has {fleet_cpu[provider]}"
                )


def check_lateness(rows: list[dict]) -> None:
    for r in _served(rows):
        expected = max(0, int(r["completed_at"]) - int(r["deadline"]))
        if int(r["lateness"]) != expected:
            raise CheckFailure(
                f"lateness: {r['request_id']} reports {r['lateness']}, "
                f"completion and deadline give {expected}"
            )


def check_request_count(art: RunArtifacts, expected: int | None) -> None:
    rows, req = art.rows, art.summary["requests"]
    open_rows = [r["request_id"] for r in rows if r["status"] not in ("served", "unserved")]
    if open_rows:
        raise CheckFailure(f"request count: {len(open_rows)} request(s) never resolved, "
                           f"first {open_rows[0]}")
    served = len(_served(rows))
    if (len(rows), served, len(rows) - served) != (
            req["submitted"], req["served"], req["unserved"]):
        raise CheckFailure(
            f"request count: rows give {len(rows)} submitted / {served} served, "
            f"summary {req['submitted']} / {req['served']} / {req['unserved']} unserved"
        )
    if expected is not None and len(rows) != expected:
        raise CheckFailure(f"request count: {len(rows)} submitted, scenario says {expected}")


def replay_journal(journal: list[tuple]) -> tuple[dict[str, int], dict[str, int]]:
    """Balances and world funding per account; no account but world may dip below 0."""
    balances: dict[str, int] = {}
    funded: dict[str, int] = {}
    for index, (seq, _at, debit, credit, amount, _memo) in enumerate(journal):
        if seq != index:
            raise CheckFailure(f"journal: row {index} carries seq {seq}")
        if amount <= 0:
            raise CheckFailure(f"journal: entry {seq} moves {amount}")
        balances[debit] = balances.get(debit, 0) - amount
        balances[credit] = balances.get(credit, 0) + amount
        if debit != WORLD and balances[debit] < 0:
            raise CheckFailure(f"journal: {debit} is at {balances[debit]} after entry {seq}")
        if debit == WORLD:
            funded[credit] = funded.get(credit, 0) + amount
    return balances, funded


def check_revenue(summary: dict, balances: dict[str, int]) -> None:
    for provider, revenue in summary["money"]["provider_revenue"].items():
        if revenue != balances.get(provider, 0):
            raise CheckFailure(
                f"revenue: summary gives {provider} {revenue}, "
                f"journal replay {balances.get(provider, 0)}"
            )


def check_spend(art: RunArtifacts, balances: dict[str, int], funded: dict[str, int],
                consumers: tuple[str, ...]) -> None:
    spend = art.summary["money"]["consumer_spend"]
    paid = sum(int(r["consumer_paid"]) for r in _served(art.rows))
    replayed = sum(funded.get(c, 0) - balances.get(c, 0) for c in consumers)
    if not spend == paid == replayed:
        raise CheckFailure(
            f"consumer spend: summary {spend}, served rows paid {paid}, "
            f"journal replay {replayed}"
        )


def check_market_deadlines(art: RunArtifacts) -> None:
    if art.summary["mode"] != MARKET:
        return
    late = [r["request_id"] for r in _served(art.rows)
            if int(r["completed_at"]) > int(r["deadline"])]
    if late:
        raise CheckFailure(f"market deadlines: {len(late)} served late, first {late[0]}")


def check_run(art: RunArtifacts, facts: ScenarioFacts, expected_mode: str) -> None:
    """Every per-run check, in the order listed in the README."""
    if art.summary["mode"] != expected_mode:
        raise CheckFailure(f"mode: ran {art.summary['mode']}, expected {expected_mode}")
    check_capacity(art.rows, facts.fleet_cpu)
    check_lateness(art.rows)
    check_request_count(art, facts.request_count)
    balances, funded = replay_journal(art.journal)
    check_revenue(art.summary, balances)
    check_spend(art, balances, funded, facts.consumers)
    check_market_deadlines(art)


def check_sweep_pair(seed: int, market: dict, baseline: dict) -> None:
    """Paired runs of one seed: same requests; the baseline pays only providers."""
    if market["requests"]["submitted"] != baseline["requests"]["submitted"]:
        raise CheckFailure(
            f"sweep seed {seed}: market submitted {market['requests']['submitted']}, "
            f"baseline {baseline['requests']['submitted']}"
        )
    revenue = sum(baseline["money"]["provider_revenue"].values())
    if revenue != baseline["money"]["consumer_spend"]:
        raise CheckFailure(
            f"sweep seed {seed}: baseline revenue {revenue}, "
            f"spend {baseline['money']['consumer_spend']}"
        )


def check_compare_table(path: str | Path, seeds: list[int]) -> None:
    with Path(path).open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if [int(r["seed"]) for r in rows] != seeds:
        raise CheckFailure(f"sweep: compare table covers seeds {[r['seed'] for r in rows]}")
    unmatched = [r["seed"] for r in rows if r["request_digest_match"] != "True"]
    if unmatched:
        raise CheckFailure(f"sweep: request digests differ on seed(s) {unmatched}")


def utilization_out_of_range(summary: dict) -> list[str]:
    """Providers whose reported utilization is not a share in [0, 1]."""
    return [p for p, u in sorted(summary["utilization"].items()) if not 0 <= u <= 1]
