"""Scenario parsing, validation, and request generation."""

import dataclasses
import hashlib
import math
from fractions import Fraction

import pytest
import yaml

from cloudmarket.allocator import Fixed, PeakOffPeak, UtilizationLinear
from cloudmarket.exchange import VariablePrice
from cloudmarket.negotiation import ConcessionSchedule, PenaltySchedule
from cloudmarket.simulation import _Run, request_trace_digest, scenario_digest
from cloudmarket.workload import (
    Choice,
    Constant,
    ParseError,
    Periodic,
    Poisson,
    Uniform,
    UniformInt,
    ValidationError,
    dump_scenario,
    generate_requests,
    load_scenario,
    scenario_to_dict,
    validate_scenario,
)


def minimal_raw():
    return {
        "format_version": 1,
        "name": "minimal",
        "horizon": 100,
        "providers": [{
            "provider_id": "alpine",
            "boot_delay": 0,
            "fleet": [{"count": 1, "cpu_capacity": 4, "mem_capacity": 16}],
            "pricing": {"kind": "fixed", "rate": 2},
            "market": {
                "base_rate": 2, "cost_floor": 1,
                "utilization_coefficient": "1/2", "demand_coefficient": "1/4",
            },
        }],
        "brokers": [
            {"broker_id": "broker-a", "initial_funds": 10_000, "margin_rate": "1/20"},
        ],
        "consumers": [{"consumer_id": "acme", "initial_funds": 5_000, "top_k": 1}],
        "workload": {
            "arrival": {"kind": "poisson", "rate": "1/10"},
            "volume": {"kind": "constant", "value": 8},
            "cpu_need": {"kind": "constant", "value": 1},
            "mem_need": {"kind": "constant", "value": 1},
            "deadline_slack": {"kind": "constant", "value": 3},
            "budget_factor": {"kind": "constant", "value": 2},
            "reference_rate": 4,
        },
        "negotiation": {
            "max_rounds": 4,
            "buyer_schedule": {"kind": "linear"},
            "seller_schedule": {"kind": "linear"},
        },
        "penalty": {"rate": 1, "cap": 100},
    }


def test_minimal_document_validates():
    scenario = validate_scenario(minimal_raw())
    assert scenario.name == "minimal"
    assert scenario.providers[0].provider_id == "alpine"
    assert scenario.mode == "market"  # default


def test_negative_capacity_names_the_field():
    raw = minimal_raw()
    raw["providers"][0]["fleet"][0]["cpu_capacity"] = -4
    with pytest.raises(ValidationError) as exc:
        validate_scenario(raw)
    assert "cpu_capacity" in str(exc.value)


def test_unknown_top_level_key_is_refused():
    raw = minimal_raw()
    raw["surprise"] = True
    with pytest.raises(ValidationError) as exc:
        validate_scenario(raw)
    assert "surprise" in str(exc.value)


def test_unknown_nested_key_is_refused():
    raw = minimal_raw()
    raw["workload"]["burstiness"] = 3
    with pytest.raises(ValidationError):
        validate_scenario(raw)


def test_missing_section_is_refused():
    raw = minimal_raw()
    del raw["penalty"]
    with pytest.raises(ValidationError) as exc:
        validate_scenario(raw)
    assert "penalty" in str(exc.value)


def test_duplicate_participant_ids_are_refused():
    raw = minimal_raw()
    raw["consumers"].append(dict(raw["consumers"][0]))
    with pytest.raises(ValidationError):
        validate_scenario(raw)


def test_bad_yaml_is_a_parse_error():
    with pytest.raises(ParseError):
        load_scenario("scenarios/does-not-exist.yaml") if False else None
        import io

        load_scenario(io.StringIO("providers: [unclosed"))


def test_peak_windows_must_fit_the_day():
    raw = minimal_raw()
    raw["day_length"] = 50
    raw["providers"][0]["pricing"] = {
        "kind": "peak_off_peak", "rate": 2, "peak_multiplier": 2,
        "peak_windows": [[40, 60]], "day_length": 50,
    }
    with pytest.raises(ValidationError):
        validate_scenario(raw)


def test_overlapping_peak_windows_are_invalid():
    raw = minimal_raw()
    raw["providers"][0]["pricing"] = {
        "kind": "peak_off_peak", "rate": 1, "peak_multiplier": 2,
        "peak_windows": [[0, 50], [40, 60]], "day_length": 100,
    }
    with pytest.raises(ValidationError) as exc:
        validate_scenario(raw)
    assert exc.value.field_path == "providers[0].pricing.peak_windows"


def test_pricing_is_validated_into_policy_objects():
    raw = minimal_raw()
    raw["providers"][0]["pricing"] = {"kind": "fixed", "rate": "5/2"}
    pricing = validate_scenario(raw).providers[0].pricing
    assert pricing == Fixed(rate=Fraction(5, 2))
    raw["providers"][0]["pricing"] = {
        "kind": "peak_off_peak", "rate": 4, "peak_multiplier": 2,
        "peak_windows": [[60, 80], [10, 20]], "day_length": 100,
    }
    pricing = validate_scenario(raw).providers[0].pricing
    assert isinstance(pricing, PeakOffPeak)
    assert pricing.peak_windows == ((10, 20), (60, 80))
    raw["providers"][0]["pricing"] = {"kind": "surge"}
    with pytest.raises(ValidationError) as exc:
        validate_scenario(raw)
    assert exc.value.field_path == "providers[0].pricing.kind"


def test_validated_scenario_holds_the_runtime_types():
    raw = minimal_raw()
    raw["negotiation"]["seller_schedule"] = {"kind": "poly", "exponent": 2}
    raw["penalty"] = {"rate": "3/2"}
    scenario = validate_scenario(raw)
    provider = scenario.providers[0]
    assert provider.pricing == Fixed(rate=Fraction(2))
    assert provider.market == VariablePrice(
        base_rate=2, utilization_coefficient=Fraction(1, 2),
        demand_coefficient=Fraction(1, 4), cost_floor=1,
    )
    assert scenario.negotiation.buyer_schedule == ConcessionSchedule()
    assert scenario.negotiation.seller_schedule == ConcessionSchedule("poly", 2)
    assert scenario.penalty == PenaltySchedule(rate=Fraction(3, 2), cap=None)
    raw["providers"][0]["pricing"] = {"kind": "utilization_linear", "base_rate": 3, "alpha": "1/2"}
    assert validate_scenario(raw).providers[0].pricing == UtilizationLinear(
        base_rate=Fraction(3), alpha=Fraction(1, 2),
    )
    assert scenario.workload.arrival == Poisson(Fraction(1, 10))
    assert scenario.workload.deadline_slack == Constant(Fraction(3))
    raw["workload"].update({
        "arrival": {"kind": "periodic", "interval": 5},
        "volume": {"kind": "uniform_int", "low": 2, "high": 9},
        "cpu_need": {"kind": "choice", "values": [1, 4]},
        "mem_need": {"kind": "choice", "values": [0, 2], "weights": [1, "1/2"]},
        "budget_factor": {"kind": "uniform", "low": 2, "high": "7/2"},
    })
    workload = validate_scenario(raw).workload
    assert workload.arrival == Periodic(5)
    assert workload.volume == UniformInt(2, 9)
    assert workload.cpu_need == Choice((1, 4))
    assert workload.mem_need == Choice((0, 2), (Fraction(1), Fraction(1, 2)))
    assert workload.budget_factor == Uniform(Fraction(2), Fraction(7, 2))


@pytest.mark.parametrize("section, value, path", [
    ("pricing", {"kind": "fixed", "rate": -4}, "providers[0].pricing.rate"),
    ("pricing", {"kind": "peak_off_peak", "rate": "-1/2", "peak_multiplier": 2,
                 "peak_windows": [[0, 10]], "day_length": 100}, "providers[0].pricing.rate"),
    ("pricing", {"kind": "peak_off_peak", "rate": 1, "peak_multiplier": -2,
                 "peak_windows": [[0, 10]], "day_length": 100},
     "providers[0].pricing.peak_multiplier"),
    ("pricing", {"kind": "utilization_linear", "base_rate": -1, "alpha": 1},
     "providers[0].pricing.base_rate"),
    ("pricing", {"kind": "utilization_linear", "base_rate": 1, "alpha": "-1/4"},
     "providers[0].pricing.alpha"),
    ("penalty", {"rate": -3}, "penalty.rate"),
    ("brokers", [{"broker_id": "broker-a", "initial_funds": 10_000, "margin_rate": "-1/2"}],
     "brokers[0].margin_rate"),
], ids=["fixed-rate", "peak-rate", "peak-multiplier", "base-rate", "alpha", "penalty-rate",
        "margin-rate"])
def test_negative_rates_are_refused(section, value, path):
    # a negative price, penalty or margin would move money the wrong way
    # at settlement
    raw = minimal_raw()
    if section == "pricing":
        raw["providers"][0]["pricing"] = value
    else:
        raw[section] = value
    with pytest.raises(ValidationError) as exc:
        validate_scenario(raw)
    assert exc.value.field_path == path


def test_poisson_arrival_with_zero_rate_is_invalid():
    raw = minimal_raw()
    raw["workload"]["arrival"] = {"kind": "poisson", "rate": 0}
    with pytest.raises(ValidationError) as exc:
        validate_scenario(raw)
    assert exc.value.field_path == "workload.arrival.rate"


def test_zero_brokers_are_refused():
    raw = minimal_raw()
    raw["brokers"] = []
    with pytest.raises(ValidationError) as exc:
        validate_scenario(raw)
    assert exc.value.field_path == "brokers"


@pytest.mark.parametrize("weights, path", [
    ([0, 0, 0], "workload.cpu_need.weights"),
    ([1, -1, 0], "workload.cpu_need.weights[1]"),
    ([3, -1, 0], "workload.cpu_need.weights[1]"),
])
def test_choice_weights_must_be_non_negative_and_not_all_zero(weights, path):
    raw = minimal_raw()
    raw["workload"]["cpu_need"] = {"kind": "choice", "values": [1, 2, 4], "weights": weights}
    with pytest.raises(ValidationError) as exc:
        validate_scenario(raw)
    assert exc.value.field_path == path


@pytest.mark.parametrize("dist, path", [
    ({"kind": "constant", "value": -5}, "workload.mem_need.value"),
    ({"kind": "uniform_int", "low": -2, "high": 4}, "workload.mem_need.low"),
    ({"kind": "choice", "values": [2, -1]}, "workload.mem_need.values[1]"),
])
def test_negative_mem_need_is_refused(dist, path):
    # trace requests already require mem_need >= 0
    raw = minimal_raw()
    raw["workload"]["mem_need"] = dist
    with pytest.raises(ValidationError) as exc:
        validate_scenario(raw)
    assert exc.value.field_path == path


@pytest.mark.parametrize("key, value, path", [
    ("budget_factor", {"kind": "constant", "value": -1}, "workload.budget_factor.value"),
    ("budget_factor", {"kind": "uniform", "low": -4, "high": -2}, "workload.budget_factor.low"),
    ("budget_factor", {"kind": "choice", "values": [1, -3]}, "workload.budget_factor.values[1]"),
    ("reference_rate", -4, "workload.reference_rate"),
])
def test_negative_budget_factor_is_refused(key, value, path):
    # a generated budget is factor x reference rate x volume; trace
    # requests already require budget >= 0
    raw = minimal_raw()
    raw["workload"][key] = value
    with pytest.raises(ValidationError) as exc:
        validate_scenario(raw)
    assert exc.value.field_path == path


@pytest.mark.parametrize("key, dist, path", [
    ("volume", {"kind": "constant", "value": 0}, "workload.volume.value"),
    ("volume", {"kind": "uniform_int", "low": 0, "high": 5}, "workload.volume.low"),
    ("cpu_need", {"kind": "constant", "value": -3}, "workload.cpu_need.value"),
    ("cpu_need", {"kind": "choice", "values": [1, 0]}, "workload.cpu_need.values[1]"),
    ("deadline_slack", {"kind": "constant", "value": "1/2"}, "workload.deadline_slack.value"),
    ("deadline_slack", {"kind": "uniform", "low": "1/2", "high": 3}, "workload.deadline_slack.low"),
])
def test_draws_below_one_are_refused(key, dist, path):
    # a request needs volume and cpu_need >= 1, and a deadline slack
    # below 1 would set a deadline no execution can meet
    raw = minimal_raw()
    raw["workload"][key] = dist
    with pytest.raises(ValidationError) as exc:
        validate_scenario(raw)
    assert exc.value.field_path == path


def test_draws_of_exactly_one_are_kept():
    raw = minimal_raw()
    raw["workload"]["count"] = 5
    for key in ("volume", "cpu_need", "deadline_slack"):
        raw["workload"][key] = {"kind": "constant", "value": 1}
    requests = generate_requests(validate_scenario(raw), master_seed=3)
    assert len(requests) == 5
    for req in requests:
        assert (req.workload_volume, req.qos.cpu_need) == (1, 1)
        assert req.qos.deadline == req.submit_time + 1


@pytest.mark.parametrize("key, value", [
    ("volume", "5/2"),
    ("cpu_need", "3/2"),
    ("mem_need", "1/2"),
])
def test_fractional_constant_for_an_integer_field_is_refused(key, value):
    # generation would floor the draw: volume 5/2 would run as 2
    raw = minimal_raw()
    raw["workload"][key] = {"kind": "constant", "value": value}
    with pytest.raises(ValidationError) as exc:
        validate_scenario(raw)
    assert exc.value.field_path == f"workload.{key}.value"


@pytest.mark.parametrize("value", [5, "5", "10/2"])
def test_whole_constant_for_an_integer_field_is_kept(value):
    raw = minimal_raw()
    raw["workload"]["count"] = 3
    raw["workload"]["volume"] = {"kind": "constant", "value": value}
    scenario = validate_scenario(raw)
    assert scenario.workload.volume == Constant(Fraction(5))
    requests = generate_requests(scenario, master_seed=3)
    assert [r.workload_volume for r in requests] == [5, 5, 5]


def test_fractional_constant_stays_allowed_for_real_fields():
    raw = minimal_raw()
    raw["workload"]["deadline_slack"] = {"kind": "constant", "value": "5/2"}
    raw["workload"]["budget_factor"] = {"kind": "constant", "value": "1/2"}
    scenario = validate_scenario(raw)
    assert scenario.workload.deadline_slack == Constant(Fraction(5, 2))
    assert scenario.workload.budget_factor == Constant(Fraction(1, 2))


def policy_variant():
    # smoke.yaml with every non-default policy kind: unsorted peak
    # windows, utilization pricing, a poly schedule, an uncapped penalty
    raw = yaml.safe_load(open("scenarios/smoke.yaml", encoding="utf-8"))
    raw["providers"][0]["pricing"] = {
        "kind": "peak_off_peak", "rate": "7/2", "peak_multiplier": "3/2",
        "peak_windows": [[120, 180], [20, 60]], "day_length": 200,
    }
    raw["providers"][1]["pricing"] = {"kind": "utilization_linear", "base_rate": 5, "alpha": "1/2"}
    raw["negotiation"]["buyer_schedule"] = {"kind": "poly", "exponent": 3}
    raw["penalty"] = {"rate": "5/2"}
    return validate_scenario(raw)


def test_round_trip_is_identity():
    # oracle: load -> dump -> load lands on the same scenario
    scenarios = [
        load_scenario(f"scenarios/{name}.yaml")
        for name in ("smoke", "example", "two_class", "util_pricing")
    ]
    for scenario in scenarios + [policy_variant()]:
        dumped = dump_scenario(scenario)
        again = validate_scenario(yaml.safe_load(dumped))
        assert again == scenario
        assert dump_scenario(again) == dumped


def test_policy_variant_dump_is_pinned():
    # every policy kind keeps its normalized form: a moved dump would
    # move the scenario_digest of every run summary
    digest = hashlib.sha256(dump_scenario(policy_variant()).encode("utf-8")).hexdigest()
    assert digest == "01b8b037aea6871f4ac0b00b3a152d3f3f3abb8f7d6eeb12b952b0f2526f2ed0"


def every_type_scenarios():
    """Scenarios that between them hold every validated type and kind."""
    raw = yaml.safe_load(open("scenarios/smoke.yaml", encoding="utf-8"))
    raw["providers"][1]["pricing"] = {
        "kind": "peak_off_peak", "rate": "7/2", "peak_multiplier": "3/2",
        "peak_windows": [[20, 60], [120, 180]], "day_length": 200,
    }
    raw["providers"].append(dict(
        raw["providers"][0], provider_id="cedar", reliability_class=1, security_class=2,
        pricing={"kind": "utilization_linear", "base_rate": 5, "alpha": "1/2"},
    ))
    raw["workload"].update(
        cpu_need={"kind": "choice", "values": [1, 2, 4], "weights": [2, "1/2", 1]},
        budget_factor={"kind": "constant", "value": "5/2"},
        reference_rate="13/2",
    )
    raw["negotiation"]["buyer_schedule"] = {"kind": "poly", "exponent": 3}
    scenario = validate_scenario(raw)
    periodic = dataclasses.replace(
        scenario,
        workload=dataclasses.replace(scenario.workload, arrival=Periodic(7)),
        penalty=PenaltySchedule(Fraction(5, 2)),
    )
    return {"poisson": scenario, "periodic": periodic, "trace": validate_scenario(trace_raw())}


def _bumped(value):
    """Another value for a leaf of the scenario tree."""
    if value is None:
        return 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return value + value[:1]
    return value + 1


def _leaf_variants(node, path=""):
    """(path, a copy of `node` with that one leaf changed), for every leaf."""
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        here = f"{path}.{f.name}" if path else f.name
        if dataclasses.is_dataclass(value):
            for leaf, changed in _leaf_variants(value, here):
                yield leaf, dataclasses.replace(node, **{f.name: changed})
        elif isinstance(value, tuple) and value and dataclasses.is_dataclass(value[0]):
            for i, item in enumerate(value):
                for leaf, changed in _leaf_variants(item, f"{here}[{i}]"):
                    items = value[:i] + (changed,) + value[i + 1:]
                    yield leaf, dataclasses.replace(node, **{f.name: items})
        else:
            yield here, dataclasses.replace(node, **{f.name: _bumped(value)})


@pytest.mark.parametrize("name", ["poisson", "periodic", "trace"])
def test_every_validated_field_reaches_the_digest(name):
    # the dump walks the types' fields, so a field it misses would leave
    # the digest and the round trip blind to that field
    scenario = every_type_scenarios()[name]
    assert validate_scenario(scenario_to_dict(scenario)) == scenario
    digest = scenario_digest(scenario)
    for leaf, changed in _leaf_variants(scenario):
        # validation derives a trace request's id from its position
        if not leaf.endswith(".request_id"):
            assert scenario_digest(changed) != digest, leaf


def test_shipped_scenarios_all_validate():
    for name in ("smoke", "example", "two_class", "util_pricing"):
        scenario = load_scenario(f"scenarios/{name}.yaml")
        assert scenario.horizon > 0


# -- generation ------------------------------------------------------------------------


def test_empty_trace_generates_nothing():
    raw = minimal_raw()
    raw["workload"] = {"arrival": {"kind": "trace", "requests": []}}
    scenario = validate_scenario(raw)
    assert generate_requests(scenario, 1) == []


def test_fixed_trace_passes_through_in_order():
    raw = minimal_raw()
    entries = [
        {"consumer_id": "acme", "submit_time": 2, "volume": 8,
         "cpu_need": 1, "mem_need": 1, "deadline": 30, "budget": 500},
        {"consumer_id": "acme", "submit_time": 5, "volume": 4,
         "cpu_need": 2, "mem_need": 1, "deadline": 40, "budget": 300},
        {"consumer_id": "acme", "submit_time": 9, "volume": 6,
         "cpu_need": 1, "mem_need": 1, "deadline": 50, "budget": 400},
    ]
    raw["workload"] = {"arrival": {"kind": "trace", "requests": entries}}
    scenario = validate_scenario(raw)
    requests = generate_requests(scenario, 1)
    assert [r.request_id for r in requests] == ["req000001", "req000002", "req000003"]
    assert [r.submit_time for r in requests] == [2, 5, 9]
    assert requests[1].qos.cpu_need == 2
    # the trace is literal: seeds do not perturb it
    assert generate_requests(scenario, 99) == requests


def test_unsorted_trace_is_invalid():
    raw = minimal_raw()
    raw["workload"] = {"arrival": {"kind": "trace", "requests": [
        {"consumer_id": "acme", "submit_time": 9, "volume": 8,
         "cpu_need": 1, "mem_need": 1, "deadline": 30, "budget": 500},
        {"consumer_id": "acme", "submit_time": 2, "volume": 8,
         "cpu_need": 1, "mem_need": 1, "deadline": 30, "budget": 500},
    ]}}
    with pytest.raises(ValidationError):
        validate_scenario(raw)


def test_trace_consumer_must_exist():
    raw = minimal_raw()
    raw["workload"] = {"arrival": {"kind": "trace", "requests": [
        {"consumer_id": "ghost", "submit_time": 2, "volume": 8,
         "cpu_need": 1, "mem_need": 1, "deadline": 30, "budget": 500},
    ]}}
    with pytest.raises(ValidationError):
        validate_scenario(raw)


def test_same_seed_same_trace():
    scenario = load_scenario("scenarios/smoke.yaml")
    assert generate_requests(scenario, 7) == generate_requests(scenario, 7)
    assert generate_requests(scenario, 7) != generate_requests(scenario, 8)


def test_request_ids_are_sequential_and_times_sorted():
    scenario = load_scenario("scenarios/smoke.yaml")
    requests = generate_requests(scenario, 3)
    assert [r.request_id for r in requests] == [
        f"req{i + 1:06d}" for i in range(len(requests))
    ]
    times = [r.submit_time for r in requests]
    assert times == sorted(times)
    assert all(0 <= t < scenario.horizon for t in times)


def test_poisson_count_tracks_the_rate():
    # lambda 0.1 over 10_000 ticks: mean 1_000, sigma ~31.6
    raw = minimal_raw()
    raw["horizon"] = 10_000
    raw["workload"]["arrival"] = {"kind": "poisson", "rate": "1/10"}
    scenario = validate_scenario(raw)
    counts = [len(generate_requests(scenario, seed)) for seed in range(100)]
    mean = 1_000
    sigma = math.sqrt(mean)
    for count in counts:
        assert abs(count - mean) <= 3 * sigma
    grand_mean = sum(counts) / len(counts)
    assert abs(grand_mean - mean) <= 3 * sigma / math.sqrt(len(counts))


def test_budget_scales_with_volume_and_factor():
    raw = minimal_raw()
    raw["workload"]["arrival"] = {"kind": "periodic", "interval": 10}
    raw["workload"]["count"] = 5
    scenario = validate_scenario(raw)
    for r in generate_requests(scenario, 1):
        # constant factor 2, reference rate 4, volume 8
        assert r.qos.budget == 2 * 4 * 8
        assert r.workload_volume == 8


def test_attribute_streams_are_independent_of_arrival_spacing():
    # same jobs whether they arrive densely or sparsely
    raw = minimal_raw()
    raw["horizon"] = 10_000
    raw["workload"]["count"] = 30
    raw["workload"]["volume"] = {"kind": "uniform_int", "low": 5, "high": 50}
    raw["workload"]["arrival"] = {"kind": "periodic", "interval": 2}
    dense = generate_requests(validate_scenario(raw), 11)
    raw["workload"]["arrival"] = {"kind": "periodic", "interval": 100}
    sparse = generate_requests(validate_scenario(raw), 11)
    assert len(dense) == len(sparse) == 30
    for a, b in zip(dense, sparse):
        assert a.workload_volume == b.workload_volume
        assert a.qos.budget == b.qos.budget


def constant_periodic_raw():
    # every draw constant, slack and budget factor non-integer
    raw = yaml.safe_load(open("scenarios/smoke.yaml", encoding="utf-8"))
    raw["workload"] = {
        "arrival": {"kind": "periodic", "interval": 7},
        "volume": {"kind": "constant", "value": 30},
        "cpu_need": {"kind": "constant", "value": 2},
        "mem_need": {"kind": "constant", "value": 4},
        "deadline_slack": {"kind": "constant", "value": "5/2"},
        "budget_factor": {"kind": "constant", "value": "3/2"},
        "reference_rate": "13/2",
    }
    return raw


def trace_raw():
    raw = yaml.safe_load(open("scenarios/smoke.yaml", encoding="utf-8"))
    raw["workload"] = {"arrival": {"kind": "trace", "requests": [
        {"consumer_id": "zenith", "submit_time": 0, "volume": 40, "cpu_need": 4,
         "mem_need": 8, "deadline": 30, "budget": 900},
        {"consumer_id": "acme", "submit_time": 0, "volume": 12, "cpu_need": 1,
         "mem_need": 0, "deadline": 25, "budget": 0},
        {"consumer_id": "acme", "submit_time": 17, "volume": 60, "cpu_need": 2,
         "mem_need": 2, "deadline": 140, "budget": 2400},
    ]}}
    return raw


@pytest.mark.parametrize("make_raw, count, digests", [
    (constant_periodic_raw, 86, {
        0: "11ca9afe55e4238a47297773f93692b4186136110cda6eaf7db4fc9c79e3025b",
        5: "bbf541700fd07556745560911986d6a0e625f810810ba41f2eb8a1ceee491558",
    }),
    (trace_raw, 3, {
        0: "38cdac97b6f1da8bc108e6df163b0d1e7d2803166d41ec498af15331d2aa7620",
        5: "38cdac97b6f1da8bc108e6df163b0d1e7d2803166d41ec498af15331d2aa7620",
    }),
], ids=["constant_periodic", "trace"])
def test_generation_is_pinned_for_kinds_no_shipped_scenario_draws(make_raw, count, digests):
    # the golden digests draw only poisson, uniform, uniform_int and
    # choice; these pin constant draws, periodic arrival and a trace
    scenario = validate_scenario(make_raw())
    for seed, digest in digests.items():
        requests = generate_requests(scenario, seed)
        assert len(requests) == count
        assert request_trace_digest(requests) == digest


# -- consumer-side broker choice -------------------------------------------------------
#
# A run shortlists each consumer's top_k brokers by margin rate, cheapest
# first, ties by id.


def broker_shortlist(margins, top_k):
    raw = minimal_raw()
    raw["brokers"] = [
        {"broker_id": broker_id, "initial_funds": 1_000, "margin_rate": margin}
        for broker_id, margin in margins
    ]
    raw["consumers"][0]["top_k"] = top_k
    return _Run(validate_scenario(raw), 0, "market").broker_shortlist["acme"]


def test_single_broker_is_chosen():
    assert broker_shortlist([("broker-a", "9/100")], top_k=1) == ["broker-a"]


def test_cheapest_two_of_three():
    margins = [("broker-a", "9/100"), ("broker-b", "7/100"), ("broker-c", "8/100")]
    assert broker_shortlist(margins, top_k=2) == ["broker-b", "broker-c"]


def test_price_ties_break_by_id():
    margins = [("broker-b", "7/100"), ("broker-a", "7/100")]
    assert broker_shortlist(margins, top_k=1) == ["broker-a"]
