"""Command-line contract: exit codes, artifacts, and sweep tables."""

import csv
import hashlib
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from cloudmarket import simulation
from cloudmarket.cli import main
from cloudmarket.datacenter import Datacenter
from cloudmarket.engine import SimEngine, TraceRecorder
from cloudmarket.exchange import OrderBook, ReservationBook

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SMOKE = str(SCENARIOS / "smoke.yaml")
TWO_CLASS = str(SCENARIOS / "two_class.yaml")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


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
    # the summary, the report line and the trace file share one render
    assert renders == {"trace": 1, "scenario": 1}
    report = capsys.readouterr().out
    assert (out / "summary_seed5.json").is_file()
    assert (out / "metrics_seed5.csv").is_file()
    assert (out / "journal_seed5.csv").is_file()
    assert (out / "trace_seed5.log").is_file()

    summary = json.loads((out / "summary_seed5.json").read_text(encoding="utf-8"))
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
    """Count trace renders and scenario dumps, the work behind the digests."""
    counts = Counter()
    lines, dump = TraceRecorder.lines, simulation.dump_scenario

    def counting_lines(recorder):
        counts["trace"] += 1
        return lines(recorder)

    def counting_dump(scenario):
        counts["scenario"] += 1
        return dump(scenario)

    monkeypatch.setattr(TraceRecorder, "lines", counting_lines)
    monkeypatch.setattr(simulation, "dump_scenario", counting_dump)
    return counts


def test_compare_renders_no_trace_and_dumps_no_scenario(tmp_path, capsys, renders):
    out = tmp_path / "cmp"
    code = main(["--scenario", TWO_CLASS, "--out", str(out), "--mode", "compare",
                 "--seeds", "0..1"])
    assert code == 0
    capsys.readouterr()
    assert len(read_csv(out / "compare.csv")) == 2
    assert renders == {}


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


def test_trace_off_suppresses_the_log(tmp_path, capsys, renders):
    out = tmp_path / "out"
    code = main(["--scenario", SMOKE, "--out", str(out), "--seed", "5",
                 "--trace", "off"])
    assert code == 0
    capsys.readouterr()
    # the summary still carries both digests
    assert renders == {"trace": 1, "scenario": 1}
    assert (out / "summary_seed5.json").is_file()
    assert not (out / "trace_seed5.log").exists()


def test_trace_file_and_both_digests_come_from_one_render(tmp_path, capsys, renders):
    on, off = tmp_path / "on", tmp_path / "off"
    assert main(["--scenario", SMOKE, "--out", str(on), "--seed", "5"]) == 0
    assert renders == {"trace": 1, "scenario": 1}
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
    assert renders == {"trace": 3, "scenario": 3}
    for seed in (3, 4, 5):
        assert (out / f"summary_seed{seed}.json").is_file()
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
