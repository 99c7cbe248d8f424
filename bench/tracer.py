"""Per-layer spans and counters around cloudmarket's public functions.

`install()` replaces functions and methods of the simulator with thin
wrappers that time each call and count what it did, and `uninstall()`
puts the originals back.  Module-level functions are patched where their
caller looks them up (`cloudmarket.simulation.broker_decide`, not
`cloudmarket.exchange.broker_decide`); methods are patched on their
class.  Engine handlers and observers are wrapped as they are registered,
through `SimEngine.on` and `SimEngine.add_observer`, so each event kind
gets its own span.

Spans are kept in memory as per-name totals: calls and self time.  A
span's self time is its time minus the time of the spans it called, so
the self times of nested layers add up instead of counting the same
interval twice.  Wrappers change no argument and no
result; the benchmark checks that a traced run writes the same bytes as
an untraced one.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# broker_decide enumerates subsets up to this many candidates and falls
# back to a greedy pick above it
GREEDY_ABOVE = 12


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, self_s]
        self.counts: Counter = Counter()
        self.skipped: list[str] = []
        self._children = [0.0]  # child time of each open span, root first
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; before(args) and after(args, result) may count."""
        totals = self.spans.setdefault(name, [0, 0.0])
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = children.pop()
                children[-1] += elapsed
                totals[0] += 1
                totals[1] += elapsed - child
            if after is not None:
                after(args, result)
            return result

        return traced

    def counter(self, name, fn, before=None):
        """Wrap fn to count its calls (and whatever before(args) adds)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, make) -> None:
        """Replace owner.attr with make(original); skip names that are gone."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.skipped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- results -----------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0])[1]

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        import cloudmarket.cli as cli
        import cloudmarket.exchange as exchange
        import cloudmarket.simulation as simulation
        from cloudmarket.allocator import Accept, SlaAllocator
        from cloudmarket.datacenter import Datacenter, MachineCalendar
        from cloudmarket.engine import SimEngine, TraceRecorder
        from cloudmarket.exchange import Ledger, OrderBook, ReservationBook
        from cloudmarket.metrics import MetricsCollector
        from cloudmarket.negotiation import Agreement

        counts = self.counts
        span = self.span

        # engine: the loop, scheduling, handlers per kind, observers, trace
        self.patch(SimEngine, "run_until", lambda f: span("engine.loop", f))
        self.patch(SimEngine, "schedule", lambda f: self.counter("engine.schedule", f))

        def on(original):
            def wrapped_on(engine, kind, handler):
                return original(engine, kind, span(f"simulation.{kind}", handler))
            return wrapped_on

        def add_observer(original):
            def wrapped_add(engine, observer):
                name = ("engine.trace_observe" if isinstance(observer, TraceRecorder)
                        else "engine.observer")
                return original(engine, span(name, observer))
            return wrapped_add

        self.patch(SimEngine, "on", on)
        self.patch(SimEngine, "add_observer", add_observer)
        self.patch(TraceRecorder, "lines", lambda f: span("engine.trace_lines", f))
        self.patch(TraceRecorder, "digest", lambda f: span("engine.trace_digest", f))

        # simulation: one span per run, wherever run_scenario is looked up
        def count_run(args, result):
            counts["engine.events_fired"] += result.summary.events_fired

        run_span = span("simulation.run", simulation.run_scenario, after=count_run)
        self.patch(simulation, "run_scenario", lambda f: run_span)
        self.patch(cli, "run_scenario", lambda f: run_span)

        # datacenter: calendar queries and the blocks they walk over
        def calendar_len(args):
            counts["datacenter.blocks_scanned"] += len(args[0].blocks)

        def fleet_len(args):
            counts["datacenter.blocks_scanned"] += sum(
                len(cal.blocks) for cal in args[0].calendars.values()
            )

        for name in ("fits", "earliest_fit", "usage_at", "prune"):
            self.patch(MachineCalendar, name,
                       lambda f, n=name: span(f"datacenter.{n}", f, before=calendar_len))
        self.patch(Datacenter, "free_cu_ticks",
                   lambda f: span("datacenter.free_cu_ticks", f, before=fleet_len))
        self.patch(Datacenter, "provision_vm",
                   lambda f: self.counter("datacenter.provision_vm", f))

        # allocator
        def count_accept(args, result):
            counts["allocator.accepted"] += isinstance(result, Accept)

        self.patch(SlaAllocator, "examine",
                   lambda f: span("allocator.examine", f, after=count_accept))

        # exchange: clearing, broker choice, reservations, ledger, settlement
        def count_trades(args, result):
            counts["exchange.trades"] += len(result.trades)

        def count_candidates(args):
            counts["exchange.broker_candidates"] += len(args[0])
            counts["exchange.broker_greedy"] += len(args[0]) > GREEDY_ABOVE

        def count_hit(args, result):
            counts["exchange.find_slot_hits"] += result is not None

        self.patch(OrderBook, "clear", lambda f: span("exchange.clear", f, after=count_trades))
        self.patch(simulation, "broker_decide", lambda f: span("exchange.broker_decide", f))
        self.patch(exchange, "_select_requests",
                   lambda f: self.counter("exchange.select_requests", f, before=count_candidates))
        self.patch(ReservationBook, "find_slot",
                   lambda f: span("exchange.find_slot", f, after=count_hit))
        self.patch(Ledger, "transfer", lambda f: span("exchange.transfer", f))
        self.patch(simulation, "settle_sla", lambda f: span("exchange.settle", f))

        # negotiation
        def count_agreement(args, result):
            counts["negotiation.agreements"] += isinstance(result, Agreement)

        self.patch(simulation, "negotiate_price",
                   lambda f: span("negotiation.negotiate", f, after=count_agreement))

        # workload: loading, generation, the scenario digest
        def count_requests(args, result):
            counts["workload.requests"] += len(result)

        self.patch(cli, "load_scenario", lambda f: span("workload.load", f))
        self.patch(simulation, "generate_requests",
                   lambda f: span("workload.generate", f, after=count_requests))
        self.patch(simulation, "dump_scenario", lambda f: span("workload.dump", f))

        # metrics
        self.patch(MetricsCollector, "record", lambda f: span("metrics.record", f))
        self.patch(MetricsCollector, "summary", lambda f: span("metrics.summary", f))
        self.patch(MetricsCollector, "cross_check", lambda f: span("metrics.cross_check", f))

        if self.skipped:
            print(f"tracer: not found, left unwrapped: {', '.join(self.skipped)}",
                  file=sys.stderr)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
