"""Benchmark for cloudmarket: three workloads, timed end to end or per layer.

Run from the repository root:

    python3 bench/run.py --workload market-10k --seed 0 --seconds 35 --trace 0

Workloads (see bench/README.md for why each was chosen):

  market-10k       scenarios/example.yaml as shipped, market mode, seed 42,
                   one CLI run with the trace file on
  baseline-10k     the same scenario and seed in system_centric mode; too
                   unsteady on a shared host to gate, kept for tracing
  two_class-sweep  scenarios/two_class.yaml, `--mode compare --seeds 0..19`

With --trace 0 the run loads the scenario once (setup_s, timed from the
process's start), then repeats the workload at least MIN_REPEATS times
and until --seconds of measured time have passed, and reports the
fastest repeat as run_s, with the process's peak RSS.  With --trace 1 it makes one untraced repeat and one
traced repeat, fails if their artifacts differ, and reports the
per-layer metrics of the traced one.

Every repeat's outputs are checked (bench/checks.py), and all repeats
must write byte-identical artifacts.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The simulator seeds are part of each workload's definition, so --seed
does not change the inputs.
"""

from __future__ import annotations

import os
import time

_SCRIPT_START = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, from /proc where it is readable."""
    try:
        with open("/proc/self/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _SCRIPT_START


import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT_ROOT = Path(".bench_out")
EXAMPLE = Path("scenarios/example.yaml")
TWO_CLASS = Path("scenarios/two_class.yaml")
EXAMPLE_SEED = 42
SWEEP_SEEDS = list(range(20))
# The host's slow phases often outlast one repeat of 13-18 s; a third
# repeat gives the fastest-repeat estimate another chance to land in a
# quiet phase.
MIN_REPEATS = 3


def _import_program():
    """Import cloudmarket from ./src of the checkout, never from elsewhere."""
    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    import cloudmarket
    if src not in Path(cloudmarket.__file__).resolve().parents:
        raise SystemExit(f"cloudmarket imported from {cloudmarket.__file__}, not {src}")
    import cloudmarket.cli
    import cloudmarket.simulation
    import cloudmarket.workload
    return cloudmarket


@dataclass
class Repeat:
    seconds: float
    fingerprint: dict[str, str]
    failed: list[str]  # operations whose summary is wrong, one line each
    bytes_written: int


class Workload:
    """One benchmark workload: a fixed CLI invocation and its checks."""

    def __init__(self, name: str, scenario: Path, argv: list[str], mode: str, ops: int):
        self.name = name
        self.scenario = scenario
        self.argv = argv
        self.mode = mode
        self.ops = ops
        self.work = OUT_ROOT / name
        self.out = self.work / "out"

    def prepare(self, program) -> None:
        """The timed set-up: load and validate the scenario."""
        self.work.mkdir(parents=True, exist_ok=True)
        program.workload.load_scenario(str(self.scenario))

    def run_once(self, program, main, tracer: Tracer | None = None) -> Repeat:
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)
        gc.collect()
        argv = ["--scenario", str(self.scenario), "--out", str(self.out)] + self.argv
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = main(argv)
            seconds = time.perf_counter() - start
        if code != 0:
            raise checks.CheckFailure(f"{self.name}: cloudmarket exited with code {code}")
        gc.collect()
        return self.verify(seconds)

    def verify(self, seconds: float) -> Repeat:
        facts = checks.ScenarioFacts.from_yaml(self.scenario)
        art = checks.load_run(self.out, EXAMPLE_SEED)
        checks.check_run(art, facts, self.mode)
        failed = checks.utilization_out_of_range(art.summary)
        return Repeat(seconds, _fingerprint(self.out),
                      [f"{self.mode} seed {EXAMPLE_SEED}: utilization {failed}"] if failed else [],
                      _bytes(self.out))


class BaselineWorkload(Workload):
    """example.yaml with its top-level mode switched to system_centric."""

    def prepare(self, program) -> None:
        text = EXAMPLE.read_text(encoding="utf-8")
        derived = text.replace("\nmode: market\n", "\nmode: system_centric\n")
        if derived.count("\nmode: system_centric\n") != 1:
            raise SystemExit(f"{EXAMPLE} has no top-level 'mode: market' line")
        self.work.mkdir(parents=True, exist_ok=True)
        self.scenario.write_text(derived, encoding="utf-8")
        super().prepare(program)


class SweepWorkload(Workload):
    """`--mode compare --seeds 0..19`; each paired run is checked as it finishes.

    The CLI writes only compare.csv here, so the runs are seen through a
    wrapper on `cloudmarket.cli.compare_modes`.  The wrapper checks each
    pair and keeps only digests; the time it spends checking is taken
    out of the repeat's time.
    """

    def run_once(self, program, main, tracer: Tracer | None = None) -> Repeat:
        cli = program.cli
        real = cli.compare_modes
        facts = checks.ScenarioFacts.from_yaml(self.scenario)
        state = {"paused": 0.0, "digests": {}, "failed": []}
        # a span of its own keeps the checking out of the CLI's self time
        check = self._check_pair if tracer is None else tracer.span("bench.check", self._check_pair)

        def compare_and_check(scenario, seed=None):
            market, baseline = real(scenario, seed)
            t = time.perf_counter()
            check(seed, market, baseline, facts, state)
            state["paused"] += time.perf_counter() - t
            return market, baseline

        cli.compare_modes = compare_and_check
        try:
            repeat = super().run_once(program, main)
        finally:
            cli.compare_modes = real
        repeat.seconds -= state["paused"]
        repeat.fingerprint.update(state["digests"])
        repeat.failed = state["failed"]
        return repeat

    def _check_pair(self, seed, market, baseline, facts, state) -> None:
        summaries = {}
        for result in (market, baseline):
            art = checks.RunArtifacts(
                result.summary.to_dict(),
                result.collector.request_rows(),
                [(e.seq, e.at, e.debit, e.credit, e.amount, e.memo)
                 for e in result.ledger.journal],
            )
            checks.check_run(art, facts, result.mode)
            summaries[result.mode] = art.summary
            state["digests"][f"{result.mode}_seed{seed}"] = hashlib.sha256(
                json.dumps([art.summary, art.rows, art.journal]).encode()
            ).hexdigest()
            failed = checks.utilization_out_of_range(art.summary)
            if failed:
                state["failed"].append(f"{result.mode} seed {seed}: utilization {failed}")
        checks.check_sweep_pair(seed, summaries["market"], summaries["system_centric"])

    def verify(self, seconds: float) -> Repeat:
        checks.check_compare_table(self.out / "compare.csv", SWEEP_SEEDS)
        return Repeat(seconds, _fingerprint(self.out), [], _bytes(self.out))


def _fingerprint(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


def _bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir())


WORKLOADS = {
    "market-10k": lambda: Workload(
        "market-10k", EXAMPLE, ["--seed", str(EXAMPLE_SEED)], "market", 1),
    "baseline-10k": lambda: BaselineWorkload(
        "baseline-10k", OUT_ROOT / "baseline-10k" / "example_system_centric.yaml",
        ["--seed", str(EXAMPLE_SEED)], "system_centric", 1),
    "two_class-sweep": lambda: SweepWorkload(
        "two_class-sweep", TWO_CLASS,
        ["--mode", "compare", "--seeds", f"{SWEEP_SEEDS[0]}..{SWEEP_SEEDS[-1]}"],
        "compare", 2 * len(SWEEP_SEEDS)),
}


# -- metrics ---------------------------------------------------------------------------

HANDLER_KINDS = ("request_submitted", "market_cycle", "provision_due", "completion")
CALENDAR_QUERIES = ("fits", "earliest_fit", "usage_at", "prune", "free_cu_ticks")


def layer_metrics(tr: Tracer, bytes_written: int, overhead_s: float) -> dict:
    """Per-layer metrics of one traced repeat: name -> (value, unit)."""
    c = tr.counts
    m = {
        "engine.events_fired": (c["engine.events_fired"], "count"),
        "engine.schedule_calls": (c["engine.schedule"], "count"),
        "engine.loop_s": (tr.self_s("engine.loop"), "s"),
        "engine.trace_observe_s": (tr.self_s("engine.trace_observe"), "s"),
        "engine.trace_render_calls": (tr.calls("engine.trace_lines"), "count"),
        "engine.trace_render_s": (
            tr.self_s("engine.trace_lines") + tr.self_s("engine.trace_digest"), "s"),
        "simulation.runs": (tr.calls("simulation.run"), "count"),
        "simulation.wiring_s": (tr.self_s("simulation.run"), "s"),
    }
    for kind in HANDLER_KINDS:
        m[f"simulation.{kind}_s"] = (tr.self_s(f"simulation.{kind}"), "s")
        m[f"simulation.{kind}_calls"] = (tr.calls(f"simulation.{kind}"), "count")
    due = tr.calls("simulation.provision_due")
    m["simulation.provision_useful_ratio"] = (
        c["datacenter.provision_vm"] / due if due else 0.0, "ratio")
    for query in CALENDAR_QUERIES:
        m[f"datacenter.{query}_calls"] = (tr.calls(f"datacenter.{query}"), "count")
        m[f"datacenter.{query}_s"] = (tr.self_s(f"datacenter.{query}"), "s")
    m.update({
        "datacenter.blocks_scanned": (c["datacenter.blocks_scanned"], "count"),
        "datacenter.provision_vm_calls": (c["datacenter.provision_vm"], "count"),
        "allocator.examine_calls": (tr.calls("allocator.examine"), "count"),
        "allocator.examine_s": (tr.self_s("allocator.examine"), "s"),
        "allocator.accepted": (c["allocator.accepted"], "count"),
        "exchange.clear_calls": (tr.calls("exchange.clear"), "count"),
        "exchange.clear_s": (tr.self_s("exchange.clear"), "s"),
        "exchange.trades": (c["exchange.trades"], "count"),
        "exchange.broker_decide_calls": (tr.calls("exchange.broker_decide"), "count"),
        "exchange.broker_decide_s": (tr.self_s("exchange.broker_decide"), "s"),
        "exchange.broker_candidates": (c["exchange.broker_candidates"], "count"),
        "exchange.broker_greedy_calls": (c["exchange.broker_greedy"], "count"),
        "exchange.find_slot_calls": (tr.calls("exchange.find_slot"), "count"),
        "exchange.find_slot_hits": (c["exchange.find_slot_hits"], "count"),
        "exchange.find_slot_s": (tr.self_s("exchange.find_slot"), "s"),
        "exchange.transfer_calls": (tr.calls("exchange.transfer"), "count"),
        "exchange.transfer_s": (tr.self_s("exchange.transfer"), "s"),
        "exchange.settle_s": (tr.self_s("exchange.settle"), "s"),
        "negotiation.sessions": (tr.calls("negotiation.negotiate"), "count"),
        "negotiation.agreements": (c["negotiation.agreements"], "count"),
        "negotiation.negotiate_s": (tr.self_s("negotiation.negotiate"), "s"),
        "workload.load_s": (tr.self_s("workload.load"), "s"),
        "workload.generate_s": (tr.self_s("workload.generate"), "s"),
        "workload.requests": (c["workload.requests"], "count"),
        "workload.dump_s": (tr.self_s("workload.dump"), "s"),
        "metrics.record_calls": (tr.calls("metrics.record"), "count"),
        "metrics.record_s": (tr.self_s("metrics.record"), "s"),
        "metrics.summary_s": (tr.self_s("metrics.summary"), "s"),
        "metrics.cross_check_s": (tr.self_s("metrics.cross_check"), "s"),
        "cli.write_s": (tr.self_s("cli.main"), "s"),
        "cli.bytes_written": (bytes_written, "B"),
        "tracing.overhead_s": (overhead_s, "s"),
    })
    return m


# -- measurement -------------------------------------------------------------------------

def _check_same(first: Repeat, other: Repeat, what: str) -> None:
    if other.fingerprint != first.fingerprint:
        differ = sorted(k for k in first.fingerprint.keys() | other.fingerprint.keys()
                        if first.fingerprint.get(k) != other.fingerprint.get(k))
        raise checks.CheckFailure(f"determinism: {what} wrote different {differ}")


def measure(workload: Workload, program, seconds: float) -> tuple[list[Repeat], dict]:
    """Repeat the untraced workload at least MIN_REPEATS times and for `seconds` of measured time."""
    repeats = [workload.run_once(program, program.cli.main)]
    while len(repeats) < MIN_REPEATS or sum(r.seconds for r in repeats) < seconds:
        repeats.append(workload.run_once(program, program.cli.main))
        _check_same(repeats[0], repeats[-1], f"repeat {len(repeats)}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return repeats, {"run_s": (min(r.seconds for r in repeats), "s"),
                     "peak_rss_mb": (rss_mb, "MB")}


def trace(workload: Workload, program) -> tuple[list[Repeat], dict]:
    """One untraced repeat, then one traced repeat that must write the same bytes."""
    plain = workload.run_once(program, program.cli.main)
    tr = Tracer()
    tr.install()
    try:
        traced = workload.run_once(program, tr.span("cli.main", program.cli.main), tr)
    finally:
        tr.uninstall()
    _check_same(plain, traced, "the traced repeat")
    return [plain, traced], layer_metrics(tr, traced.bytes_written,
                                          traced.seconds - plain.seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    program = _import_program()
    workload.prepare(program)
    setup_s = _process_age()

    try:
        if args.trace:
            repeats, metrics = trace(workload, program)
        else:
            repeats, metrics = measure(workload, program, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
        correct = True
    except checks.CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        repeats, metrics, correct = [], {}, False

    failed = repeats[0].failed if repeats else []
    attempted = workload.ops
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"repeats {[round(r.seconds, 3) for r in repeats]}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  operations: {attempted} attempted, {len(failed)} failed")
    for reason in failed:
        print(f"    failed: {reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
