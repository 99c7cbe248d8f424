"""Command-line contract: exit codes, artifacts, and sweep tables."""

import csv
import hashlib
import json
import mmap
import os
import signal
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from cloudmarket import engine, simulation
from cloudmarket.cli import main
from cloudmarket.datacenter import Datacenter
from cloudmarket.engine import SimEngine
from cloudmarket.exchange import OrderBook, ReservationBook
from cloudmarket.simulation import UnexpectedFill
from make_golden_digests import GOLDEN

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SMOKE = str(SCENARIOS / "smoke.yaml")
TWO_CLASS = str(SCENARIOS / "two_class.yaml")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def assert_names_the_event(err, event, mode="market", seed=5):
    """A run that exits 4 names the event it was handling, then its run."""
    assert f"\n  while handling {event}\n  in the {mode} run of seed {seed}\n" in err, err


def test_validate_ok_exits_zero(capsys):
    assert main(["--scenario", SMOKE, "--mode", "validate"]) == 0
    assert "ok:" in capsys.readouterr().out


def test_missing_scenario_file_exits_two(capsys):
    code = main(["--scenario", "/nonexistent/nope.yaml", "--mode", "validate"])
    assert code == 2
    assert "/nonexistent/nope.yaml" in capsys.readouterr().err


def test_unparseable_yaml_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("{ not: [valid", encoding="utf-8")
    assert main(["--scenario", str(bad), "--mode", "validate"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_invalid_field_exits_three_and_names_it(tmp_path, capsys):
    raw = yaml.safe_load(Path(SMOKE).read_text(encoding="utf-8"))
    raw["providers"][0]["fleet"][0]["cpu_capacity"] = -4
    broken = tmp_path / "broken.yaml"
    broken.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["--scenario", str(broken), "--mode", "validate"]) == 3
    assert "cpu_capacity" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["run", "compare"])
@pytest.mark.parametrize("section, key, value, path", [
    (None, "brokers", [], "brokers"),
    ("workload", "cpu_need", {"kind": "choice", "values": [1, 2, 4], "weights": [0, 0, 0]},
     "workload.cpu_need.weights"),
    ("workload", "mem_need", {"kind": "constant", "value": -5}, "workload.mem_need.value"),
    # generation would floor a volume of 5/2 to 2
    ("workload", "volume", {"kind": "constant", "value": "5/2"}, "workload.volume.value"),
], ids=["no-brokers", "zero-weights", "negative-mem", "fractional-volume"])
def test_unrunnable_scenario_exits_three_before_any_run(
    tmp_path, capsys, mode, section, key, value, path,
):
    raw = yaml.safe_load(Path(SMOKE).read_text(encoding="utf-8"))
    (raw if section is None else raw[section])[key] = value
    broken = tmp_path / "broken.yaml"
    broken.write_text(yaml.safe_dump(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--scenario", str(broken), "--out", str(out), "--mode", mode]) == 3
    assert f"{path}:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("key, value, path", [
    ("volume", {"kind": "constant", "value": 0}, "workload.volume.value"),
    ("cpu_need", {"kind": "constant", "value": -3}, "workload.cpu_need.value"),
    ("deadline_slack", {"kind": "constant", "value": "1/2"}, "workload.deadline_slack.value"),
], ids=["zero-volume", "negative-cpu", "half-slack"])
def test_draws_below_one_exit_three_before_generating(tmp_path, capsys, key, value, path):
    raw = yaml.safe_load(Path(SMOKE).read_text(encoding="utf-8"))
    raw["workload"][key] = value
    broken = tmp_path / "broken.yaml"
    broken.write_text(yaml.safe_dump(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--scenario", str(broken), "--out", str(out), "--mode", "generate"]) == 3
    assert f"{path}:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_negative_penalty_rate_exits_three_before_any_run(tmp_path, capsys):
    # past validation, settlement would count a negative penalty it never moves
    raw = yaml.safe_load((SCENARIOS / "two_class.yaml").read_text(encoding="utf-8"))
    raw["mode"] = "system_centric"
    raw["penalty"]["rate"] = -3
    broken = tmp_path / "broken.yaml"
    broken.write_text(yaml.safe_dump(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--scenario", str(broken), "--out", str(out), "--seed", "0"]) == 3
    assert "penalty.rate:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_negative_margin_rate_exits_three_before_any_run(tmp_path, capsys):
    # past validation, a negative margin would price SLAs below cost
    raw = yaml.safe_load(Path(SMOKE).read_text(encoding="utf-8"))
    raw["brokers"][0]["margin_rate"] = "-1/2"
    broken = tmp_path / "broken.yaml"
    broken.write_text(yaml.safe_dump(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--scenario", str(broken), "--out", str(out), "--seed", "0"]) == 3
    assert "brokers[0].margin_rate:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_bad_flag_exits_two(capsys):
    assert main(["--scenario", SMOKE, "--mode", "interpretive_dance"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_run_writes_all_four_artifacts(tmp_path, capsys, renders):
    out = tmp_path / "out"
    code = main(["--scenario", SMOKE, "--out", str(out), "--seed", "5"])
    assert code == 0
    report = capsys.readouterr().out
    assert (out / "summary_seed5.json").is_file()
    assert (out / "metrics_seed5.csv").is_file()
    assert (out / "journal_seed5.csv").is_file()
    assert (out / "trace_seed5.log").is_file()
    assert sorted(p.name for p in out.iterdir()) == [
        "journal_seed5.csv", "metrics_seed5.csv", "summary_seed5.json", "trace_seed5.log"]

    summary = json.loads((out / "summary_seed5.json").read_text(encoding="utf-8"))
    # the summary, the report line and the trace file share one render
    assert renders() == {"trace": summary["events_fired"], "scenario": 1}
    assert summary["seed"] == 5
    assert summary["config"]["scenario_path"] == SMOKE
    assert summary["requests"]["submitted"] > 0

    rows = read_csv(out / "metrics_seed5.csv")
    assert len(rows) == summary["requests"]["submitted"]

    journal = read_csv(out / "journal_seed5.csv")
    assert [r["seq"] for r in journal] == [str(i) for i in range(len(journal))]

    trace = (out / "trace_seed5.log").read_text(encoding="utf-8")
    assert trace.endswith("\n")
    body = trace[:-1].encode("utf-8")
    assert hashlib.sha256(body).hexdigest() == summary["trace_digest"]
    assert f"trace {summary['trace_digest'][:12]}" in report


@pytest.fixture
def renders(monkeypatch):
    """Count rendered trace lines (one payload digest each) and scenario
    dumps, the work behind the digests; calling the fixture's value
    gives the counts so far.

    A streamed run renders in its writer process, a fork of this one, so
    the counts live in an anonymous shared mapping that both write to.
    """
    shared = mmap.mmap(-1, 16)
    slots = memoryview(shared).cast("q")
    digest, dump = engine.payload_digest, simulation.dump_scenario

    def counting_digest(payload):
        slots[0] += 1
        return digest(payload)

    def counting_dump(scenario):
        slots[1] += 1
        return dump(scenario)

    monkeypatch.setattr(engine, "payload_digest", counting_digest)
    monkeypatch.setattr(simulation, "dump_scenario", counting_dump)
    yield lambda: +Counter(trace=slots[0], scenario=slots[1])
    slots.release()
    shared.close()


def test_compare_renders_no_trace_and_dumps_no_scenario(tmp_path, capsys, renders):
    out = tmp_path / "cmp"
    code = main(["--scenario", TWO_CLASS, "--out", str(out), "--mode", "compare",
                 "--seeds", "0..1"])
    assert code == 0
    capsys.readouterr()
    assert len(read_csv(out / "compare.csv")) == 2
    assert renders() == {}


def test_vm_released_twice_exits_four_and_names_the_vm(tmp_path, monkeypatch, capsys):
    real_release = Datacenter.release_vm
    released = []

    def release_first_vm_twice(self, vm_id, at):
        freed = real_release(self, vm_id, at)
        if not released:
            released.append(vm_id)
            real_release(self, vm_id, at)
        return freed

    monkeypatch.setattr(Datacenter, "release_vm", release_first_vm_twice)
    code = main(["--scenario", SMOKE, "--out", str(tmp_path / "out"), "--seed", "5"])
    assert code == 4
    err = capsys.readouterr().err
    assert released and f"runs no VM {released[0]} at t=" in err
    assert_names_the_event(err, "completion (seq 117) at t=50")


@pytest.mark.parametrize("mode", ["market", "system_centric"])
def test_duplicate_completion_exits_four_and_names_the_request(
        tmp_path, monkeypatch, capsys, mode):
    real_schedule = SimEngine.schedule
    doubled = []

    def schedule_first_completion_twice(self, kind, payload=None, *args, **kwargs):
        if kind == "completion" and not doubled:
            doubled.append(payload["request_id"])
            real_schedule(self, kind, dict(payload), *args, **kwargs)
        return real_schedule(self, kind, payload, *args, **kwargs)

    monkeypatch.setattr(SimEngine, "schedule", schedule_first_completion_twice)
    raw = yaml.safe_load(Path(SMOKE).read_text(encoding="utf-8"))
    raw["mode"] = mode
    scenario = tmp_path / "smoke.yaml"
    scenario.write_text(yaml.safe_dump(raw), encoding="utf-8")
    code = main(["--scenario", str(scenario), "--out", str(tmp_path / "out"), "--seed", "5"])
    assert code == 4
    err = capsys.readouterr().err
    assert doubled and f"{doubled[0]} completed at t=" in err
    assert_names_the_event(err, {"market": "completion (seq 80) at t=56",
                                 "system_centric": "completion (seq 46) at t=36"}[mode], mode)


def test_fill_for_a_request_not_pending_exits_four_and_names_it(
        tmp_path, monkeypatch, capsys):
    real_clear = OrderBook.clear

    def clear_with_a_stray_fill(self, at, ledger=None):
        result = real_clear(self, at, ledger)
        if result.trades:
            result.trades[0] = replace(result.trades[0], request_id="req999999")
        return result

    monkeypatch.setattr(OrderBook, "clear", clear_with_a_stray_fill)
    code = main(["--scenario", SMOKE, "--out", str(tmp_path / "out"), "--seed", "5"])
    assert code == 4
    err = capsys.readouterr().err
    assert "filled req999999 at t=" in err and "not pending" in err
    assert_names_the_event(err, "market_cycle (seq 0) at t=20")


def test_query_before_the_prune_point_exits_four_and_names_it(
        tmp_path, monkeypatch, capsys):
    real_find_slot = ReservationBook.find_slot

    def find_slot_in_the_past(self, datacenter, earliest, *args):
        return real_find_slot(self, datacenter, earliest - 2, *args)

    monkeypatch.setattr(ReservationBook, "find_slot", find_slot_in_the_past)
    code = main(["--scenario", SMOKE, "--out", str(tmp_path / "out"), "--seed", "5"])
    assert code == 4
    err = capsys.readouterr().err
    assert "earliest_fit from t=" in err and "before t=" in err
    assert_names_the_event(err, "market_cycle (seq 0) at t=20")


def test_hold_before_the_prune_point_exits_four_and_names_it(
        tmp_path, monkeypatch, capsys):
    real_find_slot = ReservationBook.find_slot

    def slot_in_the_past(self, datacenter, earliest, *args):
        slot = real_find_slot(self, datacenter, earliest, *args)
        # the runs search from one tick after the prune point
        return None if slot is None else (slot[0], earliest - 2)

    monkeypatch.setattr(ReservationBook, "find_slot", slot_in_the_past)
    code = main(["--scenario", SMOKE, "--out", str(tmp_path / "out"), "--seed", "5"])
    assert code == 4
    err = capsys.readouterr().err
    assert "fits from t=" in err and "before t=" in err
    assert_names_the_event(err, "market_cycle (seq 0) at t=20")


def test_trace_off_suppresses_the_log(tmp_path, capsys, renders):
    out = tmp_path / "out"
    code = main(["--scenario", SMOKE, "--out", str(out), "--seed", "5",
                 "--trace", "off"])
    assert code == 0
    capsys.readouterr()
    # the summary still carries both digests
    summary = json.loads((out / "summary_seed5.json").read_text(encoding="utf-8"))
    assert renders() == {"trace": summary["events_fired"], "scenario": 1}
    assert not (out / "trace_seed5.log").exists()
    assert not any(p.name.startswith("trace") for p in out.iterdir())


def test_trace_file_and_both_digests_come_from_one_render(tmp_path, capsys, renders):
    on, off = tmp_path / "on", tmp_path / "off"
    assert main(["--scenario", SMOKE, "--out", str(on), "--seed", "5"]) == 0
    fired = json.loads((on / "summary_seed5.json").read_text(encoding="utf-8"))["events_fired"]
    assert renders() == {"trace": fired, "scenario": 1}
    assert main(["--scenario", SMOKE, "--out", str(off), "--seed", "5",
                 "--trace", "off"]) == 0
    capsys.readouterr()
    trace = (on / "trace_seed5.log").read_bytes()
    assert trace.endswith(b"\n")
    digests = {
        hashlib.sha256(trace[:-1]).hexdigest(),
        *(json.loads((out / "summary_seed5.json").read_text(encoding="utf-8"))["trace_digest"]
          for out in (on, off)),
    }
    assert len(digests) == 1


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["--scenario", SMOKE, "--out", str(out), "--seed", "5"]) == 0
    capsys.readouterr()
    for name in ("metrics_seed5.csv", "journal_seed5.csv", "trace_seed5.log"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # summaries echo the out dir, so compare them with the config stripped
    summaries = []
    for out in (out_a, out_b):
        body = json.loads((out / "summary_seed5.json").read_text(encoding="utf-8"))
        body.pop("config")
        summaries.append(body)
    assert summaries[0] == summaries[1]


def test_seed_sweep_writes_one_run_per_seed_plus_aggregate(tmp_path, capsys, renders):
    out = tmp_path / "sweep"
    code = main(["--scenario", SMOKE, "--out", str(out), "--seeds", "3..5"])
    assert code == 0
    capsys.readouterr()
    fired = sum(
        json.loads((out / f"summary_seed{seed}.json").read_text(encoding="utf-8"))["events_fired"]
        for seed in (3, 4, 5)
    )
    assert renders() == {"trace": fired, "scenario": 3}
    rows = read_csv(out / "aggregate.csv")
    assert [r["seed"] for r in rows] == ["3", "4", "5"]
    assert all(r["mode"] == "market" for r in rows)
    assert all(len(r["trace_digest"]) == 64 for r in rows)


def test_backwards_seed_range_exits_two(capsys):
    assert main(["--scenario", SMOKE, "--seeds", "5..3"]) == 2
    capsys.readouterr()


def test_seed_with_seeds_exits_two_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--scenario", SMOKE, "--out", str(out), "--seed", "5",
                 "--seeds", "1..2"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_compare_writes_paired_rows(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["--scenario", SMOKE, "--out", str(out), "--mode", "compare",
                 "--seeds", "1..3"])
    assert code == 0
    capsys.readouterr()
    rows = read_csv(out / "compare.csv")
    assert len(rows) == 3
    for row in rows:
        assert row["request_digest_match"] == "True"
        delta = int(row["market_revenue"]) - int(row["baseline_revenue"])
        assert int(row["revenue_delta"]) == delta


def test_generate_writes_the_request_table(tmp_path, capsys):
    out = tmp_path / "gen"
    code = main(["--scenario", SMOKE, "--out", str(out), "--mode", "generate",
                 "--seed", "9"])
    assert code == 0
    capsys.readouterr()
    rows = read_csv(out / "requests_seed9.csv")
    assert len(rows) > 0
    assert rows[0]["request_id"] == "req000001"
    times = [int(r["submit_time"]) for r in rows]
    assert times == sorted(times)


def test_out_dir_env_variable_is_honoured(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CLOUDMARKET_OUT", str(tmp_path / "from_env"))
    assert main(["--scenario", SMOKE, "--seed", "2"]) == 0
    capsys.readouterr()
    assert (tmp_path / "from_env" / "summary_seed2.json").is_file()


def _scenario_in_mode(tmp_path, name, mode, horizon_scale=1):
    raw = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text(encoding="utf-8"))
    raw["mode"] = mode
    raw["horizon"] *= horizon_scale
    path = tmp_path / f"{name}_{mode}_x{horizon_scale}.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("case", sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))))
def test_streamed_trace_matches_the_golden_digest(tmp_path, capsys, case):
    # the goldens hash the lines of a run that keeps its whole log; a CLI
    # run streams its trace while it fires and must give the same bytes
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]["trace"]
    name, mode, seed = case.split("/")
    scenario = _scenario_in_mode(tmp_path, name, mode)
    for trace in ("on", "off"):
        out = tmp_path / trace
        assert main(["--scenario", scenario, "--out", str(out), "--seed", seed[len("seed"):],
                     "--trace", trace]) == 0
        summary = json.loads(
            (out / f"summary_{seed}.json").read_text(encoding="utf-8"))
        assert summary["trace_digest"] == expected, trace
    capsys.readouterr()
    body = (tmp_path / "on" / f"trace_{seed}.log").read_bytes()
    assert body.endswith(b"\n")
    assert hashlib.sha256(body[:-1]).hexdigest() == expected
    assert not (tmp_path / "off" / f"trace_{seed}.log").exists()


def test_failed_run_leaves_no_trace_file(tmp_path, monkeypatch, capsys):
    # seed 1 fails once its recorder has handed a chunk to the writer; the
    # finished seed 0 keeps its artifacts, seed 1 leaves no trace file,
    # whole or partial, and no writer process outlives the run
    out = tmp_path / "out"
    real_cycle = simulation._MarketRun.on_market_cycle
    handed_over = []

    def fail_after_a_chunk(self, event):
        if self.seed == 1 and self.trace.count > engine._CHUNK_LINES:
            assert (out / "trace_seed1.log.partial").is_file()
            handed_over.append(self.trace.count - len(self.trace.held))
            raise UnexpectedFill(f"planted fault at t={event.fire_at}")
        return real_cycle(self, event)

    monkeypatch.setattr(simulation._MarketRun, "on_market_cycle", fail_after_a_chunk)
    code = main(["--scenario", TWO_CLASS, "--out", str(out), "--seeds", "0..1"])
    assert code == 4
    assert "planted fault at t=" in capsys.readouterr().err
    assert handed_over and handed_over[0] >= engine._CHUNK_LINES
    assert sorted(p.name for p in out.iterdir()) == [
        "journal_seed0.csv", "metrics_seed0.csv", "summary_seed0.json", "trace_seed0.log"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_killed_trace_writer_exits_four_and_names_its_status(tmp_path, monkeypatch, capsys):
    # the first market cycle after the writer starts kills it: the run
    # fails loudly with the writer's status, and leaves no file behind
    out = tmp_path / "out"
    real_cycle = simulation._MarketRun.on_market_cycle
    killed = []

    def kill_the_writer(self, event):
        if self.trace._writer is not None and not killed:
            killed.append(self.trace._writer.pid)
            os.kill(killed[0], signal.SIGKILL)
        return real_cycle(self, event)

    monkeypatch.setattr(simulation._MarketRun, "on_market_cycle", kill_the_writer)
    code = main(["--scenario", TWO_CLASS, "--out", str(out), "--seed", "0"])
    assert code == 4
    err = capsys.readouterr().err
    assert killed
    assert f"trace writer (pid {killed[0]}) was killed by signal {int(signal.SIGKILL)}," in err
    assert "  in the market run of seed 0\n" in err
    assert list(out.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_run_holds_one_chunk_of_its_log_at_most(tmp_path, capsys):
    # two_class fires more than one chunk of events at its own horizon
    # (about 630 requests) and at four times it (about 2,500).  Held
    # whole, the event log takes the longer run's peak to about 3.4 times
    # the shorter's; streamed, what still grows is the journal, the
    # request records and the generated requests, about 1 KB a request,
    # and the peak is about 1.8 times
    def peak(scale):
        scenario = _scenario_in_mode(tmp_path, "two_class", "market", scale)
        out = tmp_path / f"x{scale}"
        tracemalloc.start()
        try:
            assert main(["--scenario", scenario, "--out", str(out), "--seed", "0"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        summary = json.loads((out / "summary_seed0.json").read_text(encoding="utf-8"))
        assert summary["events_fired"] > engine._CHUNK_LINES
        return peak

    peak(1)  # one-time allocations (caches, lazy imports) stay out of the measured pair
    small, large = peak(1), peak(4)
    capsys.readouterr()
    assert large <= 2 * small, (small, large)
