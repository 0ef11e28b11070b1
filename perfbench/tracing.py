"""Layer tracing for the benchmark's traced run.

The tracer wraps edgeorch's functions from outside: while `installed()` is
active, module attributes and class methods are replaced by timing wrappers,
and the originals are put back on exit, so untraced rounds run the program
unchanged.  Coarse calls (workload generation, replays, coarse slots,
placement passes, oracles, CSV writers, suites) record one span each with a
link to the enclosing span.  Per-request calls (transport table, resolver
lookups, config selection, admission, ledger operations) only add to timers
and counters, so the trace stays small enough to keep in memory.

A wrapped call's self time is its duration minus the time of the wrapped
calls made inside it.
"""

import json
import os
import statistics
from collections import defaultdict
from time import perf_counter_ns

from edgeorch import allocator, cli, model, orchestrator, placement, \
    simulator, verification
from refclock import patched

# (owner, dotted path, layer name, records a span)
TARGETS = [
    (simulator, "generate_workload", "simulator.generate", True),
    (cli, "generate_workload", "simulator.generate", True),
    (verification, "generate_workload", "simulator.generate", True),
    (simulator, "run_policy", "simulator.replay", True),
    (cli, "run_policy", "simulator.replay", True),
    (verification, "run_policy", "simulator.replay", True),
    (simulator, "run_coarse_slot", "orchestrator.slot", True),
    (simulator, "greedy_place", "placement.greedy", True),
    (verification, "greedy_place", "placement.greedy", True),
    (verification, "brute_force_place", "placement.brute_force", True),
    (verification, "lookahead_oracle", "simulator.oracle", True),
    (cli, "write_slots_csv", "cli.csv", True),
    (cli, "write_decisions_csv", "cli.csv", True),
    (cli, "write_placements_csv", "cli.csv", True),
    (verification, "run_suite", "verification.suite", True),
    (allocator, "unit_transport_costs", "model.transport_table", False),
    (simulator, "unit_transport_costs", "model.transport_table", False),
    (allocator, "OnlineAllocator.select_config", "allocator.select", False),
    (allocator, "OnlineAllocator.admit", "allocator.admit", False),
    (allocator, "OnlineAllocator.advance_fine_slot", "allocator.advance", False),
    (model, "ResourceState.fits", "model.ledger_fits", False),
    (model, "ResourceState.lease", "model.ledger_lease", False),
    (model, "ResourceState.advance", "model.ledger_advance", False),
    (orchestrator, "aggregate_demand", "placement.aggregate", False),
    (simulator, "aggregate_demand", "placement.aggregate", False),
    (simulator, "top_popularity_place", "placement.popularity", False),
    (placement, "placement_cost", "placement.cost", False),
    (simulator, "placement_cost", "placement.cost", False),
    (verification, "placement_cost", "placement.cost", False),
]

# per-layer metric -> (unit, how to read it from the tracer)
METRICS = {
    "simulator.generate_ms": ("ms", lambda t: t.total_ms("simulator.generate")),
    "simulator.requests": ("count", lambda t: t.counts["requests"]),
    "simulator.private_objects": ("count", lambda t: t.counts["private_objects"]),
    "model.transport_table_ms": ("ms", lambda t: t.total_ms("model.transport_table")),
    "model.transport_table_calls": ("count", lambda t: t.calls["model.transport_table"]),
    "model.resolver_lookups": ("count", lambda t: t.counts["resolver_lookups"]),
    "model.resolver_memo_hits": ("count", lambda t: t.counts["resolver_memo_hits"]),
    "allocator.select_self_ms": ("ms", lambda t: t.self_ms("allocator.select")),
    "allocator.admit_ms": ("ms", lambda t: t.self_ms("allocator.admit")),
    "allocator.advance_ms": ("ms", lambda t: t.self_ms("allocator.advance")),
    "allocator.accepted": ("count", lambda t: t.counts["accepted"]),
    "allocator.rejected_price_ceiling": ("count", lambda t: t.counts["price_ceiling"]),
    "allocator.rejected_negative_objective": (
        "count", lambda t: t.counts["negative_objective"]),
    "allocator.rejected_no_feasible_config": (
        "count", lambda t: t.counts["no_feasible_config"]),
    "model.ledger_fits_ms": ("ms", lambda t: t.total_ms("model.ledger_fits")),
    "model.ledger_fits_calls": ("count", lambda t: t.calls["model.ledger_fits"]),
    "model.ledger_lease_ms": ("ms", lambda t: t.total_ms("model.ledger_lease")),
    "model.ledger_advance_ms": ("ms", lambda t: t.total_ms("model.ledger_advance")),
    "placement.aggregate_ms": ("ms", lambda t: t.total_ms("placement.aggregate")),
    "placement.greedy_ms": ("ms", lambda t: t.total_ms("placement.greedy")),
    "placement.greedy_rounds": ("count", lambda t: t.counts["greedy_rounds"]),
    "placement.popularity_ms": ("ms", lambda t: t.total_ms("placement.popularity")),
    "placement.cost_ms": ("ms", lambda t: t.total_ms("placement.cost")),
    "placement.brute_force_ms": ("ms", lambda t: t.total_ms("placement.brute_force")),
    "simulator.oracle_ms": ("ms", lambda t: t.total_ms("simulator.oracle")),
    "verification.prop2_ms": ("ms", lambda t: t.suite_ms("prop2")),
    "verification.theorem1_ms": ("ms", lambda t: t.suite_ms("theorem1")),
    "orchestrator.slot_self_ms": ("ms", lambda t: t.self_ms("orchestrator.slot")),
    "orchestrator.slot_p50_ms": ("ms", lambda t: t.slot_percentile(50)),
    "orchestrator.slot_p90_ms": ("ms", lambda t: t.slot_percentile(90)),
    "simulator.replay_self_ms": ("ms", lambda t: t.self_ms("simulator.replay")),
    "cli.csv_ms": ("ms", lambda t: t.total_ms("cli.csv")),
    "cli.csv_bytes": ("bytes", lambda t: t.counts["csv_bytes"]),
}


def _after_generate(tracer, result, args, kwargs):
    scenario = args[1] if len(args) > 1 else kwargs["scenario"]
    tracer.counts["requests"] += len(result.requests)
    tracer.counts["private_objects"] += (len(result.catalog.sizes)
                                        - len(scenario.catalog.sizes))


def _after_admit(tracer, result, args, kwargs):
    tracer.counts[result.reason or "accepted"] += 1


def _after_greedy(tracer, result, args, kwargs):
    tracer.counts["greedy_rounds"] += len(result.rounds)


def _after_csv(tracer, result, args, kwargs):
    tracer.counts["csv_bytes"] += os.path.getsize(args[0])


AFTER = {
    "simulator.generate": _after_generate,
    "allocator.admit": _after_admit,
    "placement.greedy": _after_greedy,
    "cli.csv": _after_csv,
}


class Tracer:
    """Spans, per-layer timers and counters of one traced section."""

    def __init__(self):
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []       # [id, parent id, name, start ns, end ns]
        self._stack = []      # open wrapped calls: [child ns, span id]

    def total_ms(self, name):
        return self.total_ns[name] / 1e6

    def self_ms(self, name):
        return self.self_ns[name] / 1e6

    def suite_ms(self, suite):
        return sum(end - start for _, _, name, start, end in self.spans
                   if name == f"verification.{suite}") / 1e6

    def slot_percentile(self, pct):
        slots = sorted((end - start) / 1e6 for _, _, name, start, end
                       in self.spans if name == "orchestrator.slot")
        if len(slots) < 2:
            return slots[0] if slots else 0.0
        return statistics.quantiles(slots, n=100, method="inclusive")[pct - 1]

    def wrap(self, fn, name, span):
        after = AFTER.get(name)
        stack = self._stack

        def wrapped(*args, **kwargs):
            frame = [0, None]
            label = name
            if span:
                if name == "verification.suite":
                    label = f"verification.{args[0]}"
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), None)
                frame[1] = len(self.spans)
                record = [frame[1], parent, label, 0, 0]
                self.spans.append(record)
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                self.total_ns[name] += elapsed
                self.self_ns[name] += elapsed - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    record[3], record[4] = start, end
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return wrapped

    def _count_lookup(self, fn):
        counts = self.counts

        def lookup(resolver, i, obj_id, ingress=None):
            counts["resolver_lookups"] += 1
            if (i, obj_id) in resolver._memo:
                counts["resolver_memo_hits"] += 1
            return fn(resolver, i, obj_id, ingress)

        return lookup

    def installed(self):
        """Swap the wrappers in for the duration of a with-block.  A target
        the program no longer defines is left out, and its layer reads 0."""
        return patched(
            [(owner, path, lambda fn, name=name, span=span:
              self.wrap(fn, name, span))
             for owner, path, name, span in TARGETS]
            + [(model, "NearestResolver.lookup", self._count_lookup)])

    def metrics(self, overhead_s):
        out = {name: {"value": float(read(self)), "unit": unit}
               for name, (unit, read) in METRICS.items()}
        out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
        return out

    def write(self, path, metrics):
        """Write the spans, timers and counters kept in memory as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "spans": [dict(zip(("id", "parent", "name", "start_ns",
                                    "end_ns"), s)) for s in self.spans],
                "total_ns": dict(self.total_ns),
                "self_ns": dict(self.self_ns),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "metrics": metrics,
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")
