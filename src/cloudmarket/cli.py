"""Command line front end.

Exit codes: 0 success, 2 argument/parse problems, 3 scenario validation
failures, 4 internal invariant violations (capacity or money safety).
Validation failures write no artifact files.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .datacenter import CapacityViolation, InsufficientCapacity, UnknownVm
from .engine import SchedulingInPast, TraceStreamed, TraceWriterFailed
from .exchange import (
    AlreadySettled, ConservationError, InsufficientFunds, InvalidOrder, InvalidPolicy,
    UnknownAccount,
)
from .metrics import CrossCheckFailure, OutOfOrderEvent, REQUEST_CSV_FIELDS, report
from .negotiation import InvalidTerms, SessionTerminated
from .simulation import (
    RunResult,
    UnexpectedCompletion,
    UnexpectedFill,
    compare_modes,
    run_scenario,
)
from .workload import (
    TRACE_KEYS,
    ParseError,
    Scenario,
    ValidationError,
    generate_requests,
    load_scenario,
    request_row,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INVARIANT = 4

OUT_DIR_ENV = "CLOUDMARKET_OUT"

# every exception the simulator raises is a fault of the run, not of its input
INVARIANT_ERRORS = (
    CapacityViolation, InsufficientCapacity, UnknownVm, SchedulingInPast,
    UnknownAccount, InsufficientFunds, AlreadySettled, InvalidOrder,
    InvalidPolicy, ConservationError, CrossCheckFailure, OutOfOrderEvent,
    InvalidTerms, SessionTerminated, UnexpectedCompletion, UnexpectedFill,
    TraceStreamed, TraceWriterFailed,
)


def _parse_seed_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    try:
        start, end = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in A..B, got {text!r}")
    if end < start:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(start, end + 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudmarket",
        description="Simulate market-oriented cloud resource allocation.",
    )
    parser.add_argument("--scenario", required=True, help="scenario YAML path")
    parser.add_argument(
        "--out",
        default=None,
        help=f"output directory (default ${OUT_DIR_ENV} or ./out)",
    )
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=None, help="seed override")
    seeds.add_argument(
        "--seeds", type=_parse_seed_range, default=None, metavar="A..B",
        help="inclusive seed sweep; one run per seed plus an aggregate table",
    )
    parser.add_argument(
        "--mode", choices=("run", "validate", "compare", "generate"), default="run",
    )
    parser.add_argument("--trace", choices=("on", "off"), default="on")
    return parser


def _out_dir(args) -> Path:
    raw = args.out or os.environ.get(OUT_DIR_ENV) or "out"
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _seeds(args, scenario: Scenario) -> list[int]:
    if args.seeds is not None:
        return args.seeds
    if args.seed is not None:
        return [args.seed]
    return [scenario.master_seed if scenario.master_seed is not None else 0]


def _config_echo(args, seed: int) -> dict:
    return {
        "scenario_path": args.scenario,
        "out_dir": str(_out_dir(args)),
        "seed": seed,
        "mode": args.mode,
        "trace": args.trace,
    }


def _run_seed(out: Path, args, scenario: Scenario, seed: int) -> RunResult:
    """Run one seed, writing its trace file while the events fire.

    The file is written under a temporary name and renamed once the run
    has passed its cross-check, so a failed run leaves no trace file:
    by the time the run raises, its writer process has been reaped.
    With the trace off the lines go to the null device, so the run still
    holds one chunk of its log at most and the digest is the same.
    """
    if args.trace == "off":
        with open(os.devnull, "wb") as sink:
            return run_scenario(scenario, seed, trace_sink=sink)
    path = out / f"trace_seed{seed}.log"
    partial = path.with_name(f"{path.name}.partial")
    try:
        with partial.open("wb") as sink:
            result = run_scenario(scenario, seed, trace_sink=sink)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    partial.replace(path)
    return result


def _write_artifacts(out: Path, args, result: RunResult) -> None:
    seed = result.seed
    summary_path = out / f"summary_seed{seed}.json"
    payload = {"config": _config_echo(args, seed)}
    payload.update(result.summary.to_dict())
    summary_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    metrics_path = out / f"metrics_seed{seed}.csv"
    with metrics_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(REQUEST_CSV_FIELDS)
        writer.writerows(result.collector.iter_request_rows())

    journal_path = out / f"journal_seed{seed}.csv"
    with journal_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["seq", "at", "debit", "credit", "amount", "memo"])
        for e in result.ledger.journal:
            writer.writerow([e.seq, e.at, e.debit, e.credit, e.amount, e.memo])


_AGGREGATE_FIELDS = [
    "seed", "mode", "submitted", "accepted", "served", "unserved", "late",
    "consumer_spend", "provider_revenue", "penalties_paid", "trades",
    "trace_digest",
]


def _aggregate_row(result: RunResult) -> dict:
    s = result.summary
    return {
        "seed": s.seed,
        "mode": s.mode,
        "submitted": s.submitted,
        "accepted": s.accepted,
        "served": s.served,
        "unserved": s.unserved,
        "late": s.late,
        "consumer_spend": s.consumer_spend,
        "provider_revenue": sum(s.provider_revenue.values()),
        "penalties_paid": s.penalties_paid,
        "trades": s.trades,
        "trace_digest": s.trace_digest,
    }


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(f"ok: {args.scenario} ({scenario.name})")
    return EXIT_OK


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args)
    seeds = _seeds(args, scenario)
    rows = []
    for seed in seeds:
        result = _run_seed(out, args, scenario, seed)
        _write_artifacts(out, args, result)
        rows.append(_aggregate_row(result))
        print(report(result.summary))
    if len(seeds) > 1:
        aggregate = out / "aggregate.csv"
        with aggregate.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=_AGGREGATE_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
        print(f"aggregate table: {aggregate}")
    return EXIT_OK


_COMPARE_FIELDS = [
    "seed", "request_digest_match",
    "market_served", "baseline_served",
    "market_unserved", "baseline_unserved",
    "market_late", "baseline_late",
    "market_revenue", "baseline_revenue", "revenue_delta",
    "market_spend", "baseline_spend",
    "market_penalties", "baseline_penalties",
]


def cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args)
    seeds = _seeds(args, scenario)
    rows = []
    deltas = []
    for seed in seeds:
        market, baseline = compare_modes(scenario, seed)
        m, b = market.summary, baseline.summary
        m_rev = sum(m.provider_revenue.values())
        b_rev = sum(b.provider_revenue.values())
        deltas.append(m_rev - b_rev)
        rows.append({
            "seed": seed,
            "request_digest_match": market.request_digest == baseline.request_digest,
            "market_served": m.served,
            "baseline_served": b.served,
            "market_unserved": m.unserved,
            "baseline_unserved": b.unserved,
            "market_late": m.late,
            "baseline_late": b.late,
            "market_revenue": m_rev,
            "baseline_revenue": b_rev,
            "revenue_delta": m_rev - b_rev,
            "market_spend": m.consumer_spend,
            "baseline_spend": b.consumer_spend,
            "market_penalties": m.penalties_paid,
            "baseline_penalties": b.penalties_paid,
        })
    compare_path = out / "compare.csv"
    with compare_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=_COMPARE_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    header = "  ".join(f"{f:>18}" for f in _COMPARE_FIELDS[:11])
    print(header)
    for row in rows:
        print("  ".join(f"{str(row[f]):>18}" for f in _COMPARE_FIELDS[:11]))
    mean_delta = sum(deltas) / len(deltas)
    wins = sum(1 for d in deltas if d >= 0)
    print(f"mean revenue delta (market - baseline): {mean_delta:.1f} "
          f"over {len(deltas)} seed(s), market ahead or even in {wins}")
    print(f"comparison table: {compare_path}")
    return EXIT_OK


def cmd_generate(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args)
    seeds = _seeds(args, scenario)
    for seed in seeds:
        requests = generate_requests(scenario, seed)
        path = out / f"requests_seed{seed}.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            # the generated CSV names its consumer column `consumer`
            writer.writerow(("request_id", "consumer", *TRACE_KEYS[1:]))
            writer.writerows(map(request_row, requests))
        print(f"wrote {len(requests)} request(s): {path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.mode == "validate":
            return cmd_validate(args)
        if args.mode == "run":
            return cmd_run(args)
        if args.mode == "compare":
            return cmd_compare(args)
        return cmd_generate(args)
    except FileNotFoundError as exc:
        print(f"error: cannot read {exc.filename or args.scenario}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except INVARIANT_ERRORS as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        for note in getattr(exc, "__notes__", ()):
            print(f"  {note}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
