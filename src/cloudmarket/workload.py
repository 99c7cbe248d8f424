"""Scenario files and request generation.

Scenarios are YAML with strict validation: unknown fields are rejected
by name, and loading then re-dumping a file yields an identical
normalized form (rationals canonicalized to "p/q" strings).  The dump
walks the validated dataclasses field by field, so each field a type
gains reaches the dump and the scenario digest without a second copy of
its layout.  `request_row` is the one layout of a request: the generated
CSV, the request digest and a trace's dump all read it.
"""

from __future__ import annotations

import io
from bisect import bisect_right
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import accumulate, count
from math import ceil, log
from random import Random
from typing import Callable

import yaml

from .allocator import (
    Fixed, PeakOffPeak, PricingPolicy, QosSpec, ServiceRequest, UtilizationLinear,
)
from .exchange import VariablePrice
from .money import Money, as_fraction, ceil_div, frac_str, limit_ratio, round_ratio
from .negotiation import ConcessionSchedule, PenaltySchedule

FORMAT_VERSION = 1

GENERATOR_STREAMS = (
    "arrival", "volume", "cpu_need", "mem_need",
    "deadline", "budget", "consumer",
)

# what a trace request is written with, in `request_row` order after its id
TRACE_KEYS = (
    "consumer_id", "submit_time", "volume", "cpu_need",
    "mem_need", "deadline", "budget",
)


def request_row(r: ServiceRequest) -> tuple:
    """A request's id, then its values under `TRACE_KEYS`."""
    q = r.qos
    return (r.request_id, r.consumer_id, r.submit_time, r.workload_volume,
            q.cpu_need, q.mem_need, q.deadline, q.budget)


class ParseError(Exception):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{where}")


class ValidationError(Exception):
    def __init__(self, message: str, field_path: str = ""):
        self.field_path = field_path
        prefix = f"{field_path}: " if field_path else ""
        super().__init__(f"{prefix}{message}")


# -- field checkers ------------------------------------------------------------

def _as_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"expected a mapping, got {type(value).__name__}", path)
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"expected a list, got {type(value).__name__}", path)
    return value


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"expected an integer, got {value!r}", path)
    if minimum is not None and value < minimum:
        raise ValidationError(f"must be >= {minimum}, got {value}", path)
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"expected a non-empty string, got {value!r}", path)
    return value


def _as_rational(value, path: str, minimum: int | None = None) -> Fraction:
    try:
        out = as_fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational number: {value!r} ({exc})", path)
    if minimum is not None and out < minimum:
        raise ValidationError(f"must be >= {minimum}, got {value!r}", path)
    return out


def _check_keys(mapping: dict, path: str, required: set[str], optional: set[str] = frozenset()) -> None:
    for key in mapping:
        if key not in required and key not in optional:
            raise ValidationError(f"unknown field {key!r}", path)
    for key in required:
        if key not in mapping:
            raise ValidationError(f"missing required field {key!r}", path)


# -- workload distributions ------------------------------------------------------
#
# Validation builds one of these per workload field.  Each keeps the exact
# rationals the dump writes, and `sampler(rng)` binds their float form once
# and returns a zero-argument draw from `rng`.

@dataclass(frozen=True)
class Constant:
    value: Fraction
    kind: str = "constant"

    def sampler(self, rng: Random) -> Callable[[], Fraction]:
        value = self.value
        return lambda: value


@dataclass(frozen=True)
class Uniform:
    low: Fraction
    high: Fraction
    kind: str = "uniform"

    def sampler(self, rng: Random) -> Callable[[], float]:
        low, draw = float(self.low), rng.random
        span = float(self.high) - low
        return lambda: low + span * draw()


@dataclass(frozen=True)
class UniformInt:
    low: int
    high: int
    kind: str = "uniform_int"

    def sampler(self, rng: Random) -> Callable[[], int]:
        low, draw = self.low, rng.random
        span = self.high - low + 1
        return lambda: low + min(span - 1, int(draw() * span))


@dataclass(frozen=True)
class Choice:
    values: tuple
    weights: tuple[Fraction, ...] | None = None
    kind: str = "choice"

    def sampler(self, rng: Random) -> Callable[[], object]:
        values, draw = self.values, rng.random
        n = len(values)
        last = n - 1
        if self.weights is None:
            return lambda: values[min(last, int(draw() * n))]
        weights = [float(w) for w in self.weights]
        total = sum(weights)
        running = list(accumulate(weights))
        # the first value whose running weight exceeds the scaled draw
        return lambda: values[min(last, bisect_right(running, draw() * total))]


@dataclass(frozen=True)
class Poisson:
    """Arrivals with exponential gaps; submit times truncate the float clock."""

    rate: Fraction
    kind: str = "poisson"

    def sampler(self, rng: Random) -> Callable[[], int]:
        rate, draw = float(self.rate), rng.random

        def submit_times():
            clock = 0.0
            while True:
                clock += -log(1.0 - draw()) / rate
                yield int(clock)
        return submit_times().__next__


@dataclass(frozen=True)
class Periodic:
    interval: int
    kind: str = "periodic"

    def sampler(self, rng: Random) -> Callable[[], int]:
        return count(0, self.interval).__next__


@dataclass(frozen=True)
class TraceArrival:
    """A literal request list, replayed as is under every seed."""

    requests: tuple[ServiceRequest, ...]
    kind: str = "trace"


_DIST_PARAMS = {
    "constant": ({"value"}, set()),
    "uniform": ({"low", "high"}, set()),
    "uniform_int": ({"low", "high"}, set()),
    "choice": ({"values"}, {"weights"}),
    "poisson": ({"rate"}, set()),
    "periodic": ({"interval"}, set()),
}


def _at_least(value, minimum: int | None, path: str):
    if minimum is not None and value < minimum:
        raise ValidationError(f"must be >= {minimum}, got {value}", path)
    return value


def _validate_dist(
    value, path: str, kinds: set[str], minimum: int | None = None,
) -> IntDistribution | RealDistribution | Poisson | Periodic:
    """Build a distribution from its config; `minimum` bounds every value it can draw."""
    mapping = _as_mapping(value, path)
    kind = mapping.get("kind")
    if kind not in kinds:
        raise ValidationError(
            f"kind must be one of {sorted(kinds)}, got {kind!r}", f"{path}.kind"
        )
    required, optional = _DIST_PARAMS[kind]
    _check_keys(mapping, path, required | {"kind"}, optional)
    if kind == "constant":
        value = _as_rational(mapping["value"], f"{path}.value")
        # an integer field (one that may draw uniform_int) takes a whole constant
        if "uniform_int" in kinds and value.denominator != 1:
            raise ValidationError(
                f"expected an integer, got {mapping['value']!r}", f"{path}.value",
            )
        return Constant(_at_least(value, minimum, f"{path}.value"))
    if kind == "poisson":
        rate = _as_rational(mapping["rate"], f"{path}.rate")
        if rate <= 0:
            raise ValidationError("rate must be positive", f"{path}.rate")
        return Poisson(rate)
    if kind == "periodic":
        return Periodic(_as_int(mapping["interval"], f"{path}.interval", minimum=1))
    if kind in ("uniform", "uniform_int"):
        bound = _as_int if kind == "uniform_int" else _as_rational
        low = bound(mapping["low"], f"{path}.low")
        high = bound(mapping["high"], f"{path}.high")
        if low > high:
            raise ValidationError("low must not exceed high", f"{path}.low")
        _at_least(low, minimum, f"{path}.low")
        return (UniformInt if kind == "uniform_int" else Uniform)(low, high)
    # choice
    values = _as_list(mapping["values"], f"{path}.values")
    if not values:
        raise ValidationError("values must be non-empty", f"{path}.values")
    values = tuple(
        _as_int(v, f"{path}.values[{i}]", minimum=minimum) for i, v in enumerate(values)
    )
    if "weights" not in mapping:
        return Choice(values)
    raw_weights = _as_list(mapping["weights"], f"{path}.weights")
    if len(raw_weights) != len(values):
        raise ValidationError("weights must match values", f"{path}.weights")
    weights = tuple(
        _at_least(_as_rational(w, f"{path}.weights[{i}]"), 0, f"{path}.weights[{i}]")
        for i, w in enumerate(raw_weights)
    )
    if sum(weights) == 0:
        raise ValidationError("weights must not all be zero", f"{path}.weights")
    return Choice(values, weights)


# -- scenario model ------------------------------------------------------------

@dataclass(frozen=True)
class FleetGroup:
    count: int
    cpu_capacity: int
    mem_capacity: int


@dataclass(frozen=True)
class ProviderSpec:
    provider_id: str
    boot_delay: int
    fleet: tuple[FleetGroup, ...]
    pricing: PricingPolicy
    market: VariablePrice
    reliability_class: int = 0
    security_class: int = 0


@dataclass(frozen=True)
class BrokerSpec:
    broker_id: str
    initial_funds: Money
    margin_rate: Fraction


@dataclass(frozen=True)
class ConsumerSpec:
    consumer_id: str
    initial_funds: Money
    top_k: int


IntDistribution = Constant | UniformInt | Choice
RealDistribution = Constant | Uniform | Choice


@dataclass(frozen=True)
class WorkloadSpec:
    arrival: Poisson | Periodic | TraceArrival
    count: int | None = None
    volume: IntDistribution | None = None
    cpu_need: IntDistribution | None = None
    mem_need: IntDistribution | None = None
    deadline_slack: RealDistribution | None = None
    budget_factor: RealDistribution | None = None
    reference_rate: Fraction | None = None


@dataclass(frozen=True)
class NegotiationSpec:
    max_rounds: int
    buyer_schedule: ConcessionSchedule
    seller_schedule: ConcessionSchedule


MODE_MARKET = "market"
MODE_SYSTEM_CENTRIC = "system_centric"


@dataclass(frozen=True)
class Scenario:
    format_version: int
    name: str
    horizon: int
    day_length: int
    auction_period: int
    providers: tuple[ProviderSpec, ...]
    brokers: tuple[BrokerSpec, ...]
    consumers: tuple[ConsumerSpec, ...]
    workload: WorkloadSpec
    negotiation: NegotiationSpec
    penalty: PenaltySchedule
    mode: str = MODE_MARKET
    master_seed: int | None = None

    def max_boot_delay(self) -> int:
        return max((p.boot_delay for p in self.providers), default=0)


_PRICING_FIELDS = {
    "fixed": {"kind", "rate"},
    "peak_off_peak": {"kind", "rate", "peak_multiplier", "peak_windows", "day_length"},
    "utilization_linear": {"kind", "base_rate", "alpha"},
}


def _validate_pricing(value, path: str) -> PricingPolicy:
    mapping = _as_mapping(value, path)
    kind = mapping.get("kind")
    if kind not in _PRICING_FIELDS:
        raise ValidationError(
            f"kind must be one of {sorted(_PRICING_FIELDS)}, got {kind!r}", f"{path}.kind"
        )
    _check_keys(mapping, path, _PRICING_FIELDS[kind])
    # a negative rate or factor would quote a negative price
    rates = {
        key: _as_rational(mapping[key], f"{path}.{key}", minimum=0)
        for key in ("rate", "peak_multiplier", "base_rate", "alpha") if key in mapping
    }
    if kind == "fixed":
        return Fixed(**rates)
    if kind == "utilization_linear":
        return UtilizationLinear(**rates)
    day_length = _as_int(mapping["day_length"], f"{path}.day_length", minimum=1)
    raw_windows = _as_list(mapping["peak_windows"], f"{path}.peak_windows")
    if not raw_windows:
        raise ValidationError("peak_windows must be non-empty", f"{path}.peak_windows")
    windows = []
    for i, pair in enumerate(raw_windows):
        wpath = f"{path}.peak_windows[{i}]"
        pair = _as_list(pair, wpath)
        if len(pair) != 2:
            raise ValidationError(f"expected [start, end], got {pair!r}", wpath)
        start = _as_int(pair[0], f"{wpath}[0]", minimum=0)
        end = _as_int(pair[1], f"{wpath}[1]", minimum=1)
        if not start < end <= day_length:
            raise ValidationError("need start < end <= day_length", wpath)
        windows.append((start, end))
    windows.sort()
    for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
        if next_start < prev_end:
            raise ValidationError("peak windows overlap", f"{path}.peak_windows")
    return PeakOffPeak(peak_windows=tuple(windows), day_length=day_length, **rates)


def _validate_provider(value, path: str) -> ProviderSpec:
    mapping = _as_mapping(value, path)
    _check_keys(
        mapping, path, {"provider_id", "fleet", "pricing"},
        {"boot_delay", "market", "reliability_class", "security_class"},
    )
    provider_id = _as_str(mapping["provider_id"], f"{path}.provider_id")
    boot_delay = _as_int(mapping.get("boot_delay", 0), f"{path}.boot_delay", minimum=0)
    reliability = _as_int(mapping.get("reliability_class", 0), f"{path}.reliability_class", minimum=0)
    security = _as_int(mapping.get("security_class", 0), f"{path}.security_class", minimum=0)
    fleet_raw = _as_list(mapping["fleet"], f"{path}.fleet")
    if not fleet_raw:
        raise ValidationError("fleet must be non-empty", f"{path}.fleet")
    fleet = []
    for i, group in enumerate(fleet_raw):
        gpath = f"{path}.fleet[{i}]"
        gmap = _as_mapping(group, gpath)
        _check_keys(gmap, gpath, {"count", "cpu_capacity", "mem_capacity"})
        fleet.append(FleetGroup(
            count=_as_int(gmap["count"], f"{gpath}.count", minimum=1),
            cpu_capacity=_as_int(gmap["cpu_capacity"], f"{gpath}.cpu_capacity", minimum=1),
            mem_capacity=_as_int(gmap["mem_capacity"], f"{gpath}.mem_capacity", minimum=1),
        ))
    pricing = _validate_pricing(mapping["pricing"], f"{path}.pricing")
    market_raw = mapping.get("market", {
        "base_rate": 1, "cost_floor": 1,
        "utilization_coefficient": 0, "demand_coefficient": 0,
    })
    mpath = f"{path}.market"
    mmap = _as_mapping(market_raw, mpath)
    _check_keys(mmap, mpath, {"base_rate", "cost_floor", "utilization_coefficient", "demand_coefficient"})
    market = VariablePrice(
        base_rate=_as_int(mmap["base_rate"], f"{mpath}.base_rate", minimum=0),
        cost_floor=_as_int(mmap["cost_floor"], f"{mpath}.cost_floor", minimum=0),
        utilization_coefficient=_as_rational(mmap["utilization_coefficient"], f"{mpath}.utilization_coefficient"),
        demand_coefficient=_as_rational(mmap["demand_coefficient"], f"{mpath}.demand_coefficient"),
    )
    return ProviderSpec(
        provider_id, boot_delay, tuple(fleet), pricing, market,
        reliability_class=reliability, security_class=security,
    )


def _validate_trace(mapping: dict, path: str) -> TraceArrival:
    _check_keys(mapping, path, {"kind", "requests"})
    requests = []
    for i, item in enumerate(_as_list(mapping["requests"], f"{path}.requests")):
        epath = f"{path}.requests[{i}]"
        emap = _as_mapping(item, epath)
        _check_keys(emap, epath, set(TRACE_KEYS))
        requests.append(ServiceRequest(
            request_id=f"req{i + 1:06d}",
            consumer_id=_as_str(emap["consumer_id"], f"{epath}.consumer_id"),
            submit_time=_as_int(emap["submit_time"], f"{epath}.submit_time", minimum=0),
            workload_volume=_as_int(emap["volume"], f"{epath}.volume", minimum=1),
            qos=QosSpec(
                cpu_need=_as_int(emap["cpu_need"], f"{epath}.cpu_need", minimum=1),
                mem_need=_as_int(emap["mem_need"], f"{epath}.mem_need", minimum=0),
                deadline=_as_int(emap["deadline"], f"{epath}.deadline", minimum=0),
                budget=_as_int(emap["budget"], f"{epath}.budget", minimum=0),
            ),
        ))
    submits = [r.submit_time for r in requests]
    if submits != sorted(submits):
        raise ValidationError("requests must be sorted by submit_time", f"{path}.requests")
    return TraceArrival(tuple(requests))


def validate_scenario(raw, source: str = "<scenario>") -> Scenario:
    root = _as_mapping(raw, "")
    _check_keys(
        root, "",
        {"format_version", "name", "horizon", "providers", "brokers",
         "consumers", "workload", "negotiation", "penalty"},
        {"day_length", "auction_period", "mode", "master_seed"},
    )
    version = _as_int(root["format_version"], "format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported format_version {version}, expected {FORMAT_VERSION}",
            "format_version",
        )
    name = _as_str(root["name"], "name")
    horizon = _as_int(root["horizon"], "horizon", minimum=1)
    day_length = _as_int(root.get("day_length", 1440), "day_length", minimum=1)
    auction_period = _as_int(root.get("auction_period", 20), "auction_period", minimum=1)
    mode = root.get("mode", MODE_MARKET)
    if mode not in (MODE_MARKET, MODE_SYSTEM_CENTRIC):
        raise ValidationError(
            f"mode must be {MODE_MARKET!r} or {MODE_SYSTEM_CENTRIC!r}, got {mode!r}",
            "mode",
        )
    master_seed = (None if "master_seed" not in root
                   else _as_int(root["master_seed"], "master_seed", minimum=0))

    providers = tuple(
        _validate_provider(p, f"providers[{i}]")
        for i, p in enumerate(_as_list(root["providers"], "providers"))
    )
    if not providers:
        raise ValidationError("at least one provider is required", "providers")
    seen: set[str] = set()
    for i, p in enumerate(providers):
        if p.provider_id in seen:
            raise ValidationError(f"duplicate provider_id {p.provider_id!r}", f"providers[{i}]")
        seen.add(p.provider_id)

    brokers = []
    for i, b in enumerate(_as_list(root["brokers"], "brokers")):
        bpath = f"brokers[{i}]"
        bmap = _as_mapping(b, bpath)
        _check_keys(bmap, bpath, {"broker_id", "initial_funds"}, {"margin_rate"})
        brokers.append(BrokerSpec(
            broker_id=_as_str(bmap["broker_id"], f"{bpath}.broker_id"),
            initial_funds=_as_int(bmap["initial_funds"], f"{bpath}.initial_funds", minimum=0),
            margin_rate=_as_rational(
                bmap.get("margin_rate", 0), f"{bpath}.margin_rate", minimum=0,
            ),
        ))
    if not brokers:
        raise ValidationError("at least one broker is required", "brokers")

    consumers = []
    for i, c in enumerate(_as_list(root["consumers"], "consumers")):
        cpath = f"consumers[{i}]"
        cmap = _as_mapping(c, cpath)
        _check_keys(cmap, cpath, {"consumer_id", "initial_funds"}, {"top_k"})
        consumers.append(ConsumerSpec(
            consumer_id=_as_str(cmap["consumer_id"], f"{cpath}.consumer_id"),
            initial_funds=_as_int(cmap["initial_funds"], f"{cpath}.initial_funds", minimum=0),
            top_k=_as_int(cmap.get("top_k", 2), f"{cpath}.top_k", minimum=1),
        ))
    if not consumers:
        raise ValidationError("at least one consumer is required", "consumers")

    # participant ids share one ledger namespace, so they must not collide
    # across roles either; "world" is the ledger's external account
    for role, ids in (
        ("brokers", [b.broker_id for b in brokers]),
        ("consumers", [c.consumer_id for c in consumers]),
    ):
        for i, pid in enumerate(ids):
            if ids.index(pid) != i:
                raise ValidationError(f"duplicate id {pid!r}", f"{role}[{i}]")
    all_ids = ([p.provider_id for p in providers]
               + [b.broker_id for b in brokers]
               + [c.consumer_id for c in consumers])
    if len(set(all_ids)) != len(all_ids):
        shared = sorted({x for x in all_ids if all_ids.count(x) > 1})
        raise ValidationError(f"participant id used by two roles: {shared[0]!r}")
    if "world" in all_ids:
        raise ValidationError("'world' is reserved for the settlement ledger")

    wpath = "workload"
    wmap = _as_mapping(root["workload"], wpath)
    arrival_map = _as_mapping(wmap.get("arrival"), f"{wpath}.arrival")
    if arrival_map.get("kind") == "trace":
        _check_keys(wmap, wpath, {"arrival"})
        workload = WorkloadSpec(arrival=_validate_trace(arrival_map, f"{wpath}.arrival"))
        consumer_ids = {c.consumer_id for c in consumers}
        for i, request in enumerate(workload.arrival.requests):
            if request.consumer_id not in consumer_ids:
                raise ValidationError(
                    f"unknown consumer {request.consumer_id!r}",
                    f"{wpath}.arrival.requests[{i}].consumer_id",
                )
    else:
        _check_keys(
            wmap, wpath,
            {"arrival", "volume", "cpu_need", "mem_need", "deadline_slack",
             "budget_factor", "reference_rate"},
            {"count"},
        )
        workload = WorkloadSpec(
            arrival=_validate_dist(wmap["arrival"], f"{wpath}.arrival", {"poisson", "periodic"}),
            count=(None if "count" not in wmap
                   else _as_int(wmap["count"], f"{wpath}.count", minimum=0)),
            volume=_validate_dist(wmap["volume"], f"{wpath}.volume", {"constant", "uniform_int", "choice"}, minimum=1),
            cpu_need=_validate_dist(wmap["cpu_need"], f"{wpath}.cpu_need", {"constant", "uniform_int", "choice"}, minimum=1),
            mem_need=_validate_dist(wmap["mem_need"], f"{wpath}.mem_need", {"constant", "uniform_int", "choice"}, minimum=0),
            deadline_slack=_validate_dist(wmap["deadline_slack"], f"{wpath}.deadline_slack", {"constant", "uniform", "choice"}, minimum=1),
            budget_factor=_validate_dist(wmap["budget_factor"], f"{wpath}.budget_factor", {"constant", "uniform", "choice"}, minimum=0),
            reference_rate=_as_rational(wmap["reference_rate"], f"{wpath}.reference_rate", minimum=0),
        )

    npath = "negotiation"
    nmap = _as_mapping(root["negotiation"], npath)
    _check_keys(nmap, npath, {"max_rounds"}, {"buyer_schedule", "seller_schedule"})
    def _schedule(key: str) -> ConcessionSchedule:
        if key not in nmap:
            return ConcessionSchedule()
        spath = f"{npath}.{key}"
        smap = _as_mapping(nmap[key], spath)
        _check_keys(smap, spath, {"kind"}, {"exponent"})
        kind = smap["kind"]
        if kind not in ("linear", "poly"):
            raise ValidationError(f"kind must be linear or poly, got {kind!r}", f"{spath}.kind")
        exponent = _as_int(smap.get("exponent", 1), f"{spath}.exponent", minimum=1)
        return ConcessionSchedule(kind, exponent)
    negotiation = NegotiationSpec(
        max_rounds=_as_int(nmap["max_rounds"], f"{npath}.max_rounds", minimum=0),
        buyer_schedule=_schedule("buyer_schedule"),
        seller_schedule=_schedule("seller_schedule"),
    )

    ppath = "penalty"
    pmap = _as_mapping(root["penalty"], ppath)
    _check_keys(pmap, ppath, {"rate"}, {"cap"})
    cap_raw = pmap.get("cap")
    penalty = PenaltySchedule(
        rate=_as_rational(pmap["rate"], f"{ppath}.rate", minimum=0),
        cap=None if cap_raw is None else _as_int(cap_raw, f"{ppath}.cap", minimum=0),
    )

    return Scenario(
        version, name, horizon, day_length, auction_period,
        providers, tuple(brokers), tuple(consumers),
        workload, negotiation, penalty,
        mode=mode, master_seed=master_seed,
    )


def load_scenario(source: str | io.TextIOBase, source_name: str = "<scenario>") -> Scenario:
    """Parse YAML text (or a path ending in .yaml/.yml) into a Scenario."""
    if isinstance(source, str) and (source.endswith(".yaml") or source.endswith(".yml")):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
        source_name = source
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ParseError(str(getattr(exc, "problem", exc)), mark.line + 1, mark.column + 1)
        raise ParseError(str(exc))
    if raw is None:
        raise ParseError("empty document")
    return validate_scenario(raw, source_name)


# -- normalization ---------------------------------------------------------------

def _num(value: Fraction | int) -> int | str:
    frac = Fraction(value)
    if frac.denominator == 1:
        return int(frac)
    return frac_str(frac)


def _plain(value):
    """Plain-data form of a validated value: a dataclass as its fields, an
    optional field left unset omitted, tuples as lists, exact rationals."""
    if isinstance(value, ServiceRequest):
        # a trace request keeps the scenario's own keys; its id is derived
        # from its position when the trace is read back
        return dict(zip(TRACE_KEYS, request_row(value)[1:]))
    if is_dataclass(value):
        return {
            f.name: _plain(getattr(value, f.name)) for f in fields(value)
            # an uncapped penalty still writes `cap: null`
            if getattr(value, f.name) is not None or isinstance(value, PenaltySchedule)
        }
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, Fraction):
        return _num(value)
    return value


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical plain-data form; dump + reload gives the same Scenario."""
    return _plain(s)


def dump_scenario(s: Scenario) -> str:
    return yaml.safe_dump(scenario_to_dict(s), sort_keys=True, default_flow_style=False)


# -- request generation -----------------------------------------------------------

def generate_requests(scenario: Scenario, master_seed: int) -> list[ServiceRequest]:
    """Deterministically draw the request trace for a scenario and seed.

    Every attribute draws from its own stream, seeded from the master
    seed and the stream's name, so adding a new attribute or consumer
    never disturbs the arrival process.
    """
    w = scenario.workload
    if isinstance(w.arrival, TraceArrival):
        return list(w.arrival.requests)

    rng = {stream: Random(f"{master_seed}/{stream}") for stream in GENERATOR_STREAMS}
    next_submit = w.arrival.sampler(rng["arrival"])
    draw_volume = w.volume.sampler(rng["volume"])
    draw_cpu = w.cpu_need.sampler(rng["cpu_need"])
    draw_mem = w.mem_need.sampler(rng["mem_need"])
    draw_slack = w.deadline_slack.sampler(rng["deadline"])
    draw_budget = w.budget_factor.sampler(rng["budget"])
    draw_consumer = Choice(tuple(c.consumer_id for c in scenario.consumers)).sampler(
        rng["consumer"],
    )
    boot_allowance = scenario.max_boot_delay()
    rate_n, rate_d = w.reference_rate.numerator, w.reference_rate.denominator
    requests: list[ServiceRequest] = []
    index = 0
    while True:
        submit = next_submit()
        if submit >= scenario.horizon:
            break
        if w.count is not None and index >= w.count:
            break
        index += 1
        # validation keeps volume, cpu_need and mem_need draws whole, and
        # volume, cpu_need and slack draws at 1 or more
        volume = int(draw_volume())
        cpu_need = int(draw_cpu())
        mem_need = int(draw_mem())
        slack = float(draw_slack())
        budget_factor = float(draw_budget())
        consumer = draw_consumer()
        ideal_runtime = ceil_div(volume, cpu_need)
        deadline = submit + boot_allowance + int(ceil(slack * ideal_runtime))
        # the factor's nearest ratio with a denominator up to 10**6, times
        # the reference rate and the volume
        factor_n, factor_d = limit_ratio(*budget_factor.as_integer_ratio(), 10**6)
        budget = round_ratio(factor_n * rate_n * volume, factor_d * rate_d)
        requests.append(ServiceRequest(
            request_id=f"req{index:06d}",
            consumer_id=consumer,
            submit_time=submit,
            workload_volume=volume,
            qos=QosSpec(
                deadline=deadline,
                budget=budget,
                cpu_need=cpu_need,
                mem_need=mem_need,
            ),
        ))
    return requests

