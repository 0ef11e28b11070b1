"""Output checks for the edgeorch benchmark, computed apart from the program.

Every check works from the scenario JSON file, the generated request stream
and what a run reports or writes to disk.  It recomputes revenue, transport
cost, capacity occupancy and the virtual queue with its own arithmetic, and
tests properties the mechanism must have (the dual/primal increment
identity, the myopic per-slot budget cap, public-only caches that fit).

The entry points return a list of error strings, each prefixed with the
name of the check that produced it ("coverage:", "transport:", ...), so an
empty list means the output passed.
"""

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

E_RATIO = math.e / (math.e - 1.0)
# counters the program raises when one of its own invariants breaks;
# "scaling_warnings" flags a proof precondition, not a broken invariant
VIOLATION_COUNTERS = ("identity_violations", "accounting_violations",
                      "queue_replay_violations", "dual_violations",
                      "ledger_violations", "beta_clamped")
MAX_ERRORS_PER_CHECK = 5


def close(a, b, rel=1e-9, abs_tol=1e-6):
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


class System:
    """The fixed system of one scenario file, read straight from its JSON."""

    def __init__(self, data):
        self.latency = [[float(x) for x in row] for row in data["latency"]]
        self.origin = [float(x) for x in data["origin_latency"]]
        self.n_clouds = len(self.latency)
        self.recipes = [[float(x) for x in g] for g in data["recipes"]]
        scale = float(data.get("price_scale", 1.0))
        self.prices = [float(p) * scale for p in data["prices"]]
        self.capacity = [[float(x) for x in row] for row in data["capacity"]]
        self.cache_size = [float(x) for x in data["cache_size"]]
        self.public = {o: float(s) for o, s in data["objects"].items()}
        self.budget = float(data["budget"])
        self.fine_per_coarse = int(data["fine_per_coarse"])
        c_max = float(data.get("c_max", 0.0)) or (
            3.0 * self.budget if self.budget else 1.0)
        self.drift_bound = max(c_max ** 2, self.budget ** 2) / 2.0
        self.v_weight = float(data["v_weight"])

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))

    def fetch_latency(self, cloud, obj, placement, ingress):
        """Unit latency under the checker's own nearest-replica rule."""
        if obj not in self.public:
            return self.latency[cloud][ingress]
        if obj in placement.get(cloud, ()):
            return 0.0
        holders = [j for j, content in placement.items() if obj in content]
        if not holders:
            return self.origin[cloud]
        return min(self.latency[cloud][j] for j in holders)


@dataclass
class Dec:
    req_id: int
    slot: int
    arrival: int
    duration: int
    verdict: str
    reason: str
    assignment: dict          # VM type -> cloud, empty when rejected
    objective: float
    revenue: float
    transport_cost: float
    primal_delta: float = None
    dual_delta: float = None


@dataclass
class SlotRow:
    slot: int
    revenue: float
    cost: float
    queue: float
    arrivals: int
    accepted: int


@dataclass
class Replay:
    """One policy replay in a form both a RunReport and CSVs convert to."""

    policy: str
    horizon: int
    decisions: list
    slots: list
    placements: list          # per coarse slot: {cloud: tuple of objects}
    counters: dict = field(default_factory=dict)
    queue_trace: list = None


def replay_from_report(report):
    decisions = [Dec(d.req_id, d.slot, d.arrival, d.duration, d.verdict,
                     d.reason or "",
                     dict(d.config.assignment) if d.config is not None else {},
                     d.objective, d.revenue, d.transport_cost,
                     d.primal_delta, d.dual_delta)
                 for d in report.decisions]
    slots = [SlotRow(s.slot, s.revenue, s.cost, s.queue, s.arrivals, s.accepted)
             for s in report.slots]
    placements = [{int(i): tuple(objs) for i, objs in cached.items()}
                  for _, cached, _, _ in report.placements]
    return Replay(report.policy, report.horizon_coarse, decisions, slots,
                  placements, dict(report.counters), list(report.queue_trace))


def _parse_assignment(text):
    if not text:
        return {}
    out = {}
    for part in text.split("|"):
        k, i = part.split("@")
        out[int(k)] = int(i)
    return out


def replay_from_artifacts(out_dir, key, policy, horizon):
    """Read back the three CSVs `edgeorch run` writes for one cell."""
    out_dir = Path(out_dir)
    with open(out_dir / f"{key}_decisions.csv", newline="") as fh:
        decisions = [Dec(int(r["req_id"]), int(r["slot"]), int(r["arrival"]),
                         int(r["duration"]), r["verdict"], r["reason"],
                         _parse_assignment(r["config"]), float(r["objective"]),
                         float(r["revenue"]), float(r["transport_cost"]))
                     for r in csv.DictReader(fh)]
    with open(out_dir / f"{key}_slots.csv", newline="") as fh:
        slots = [SlotRow(int(r["slot"]), float(r["revenue"]), float(r["cost"]),
                         float(r["queue"]), int(r["arrivals"]),
                         int(r["accepted"]))
                 for r in csv.DictReader(fh)]
    placements = [{} for _ in range(horizon)]
    with open(out_dir / f"{key}_placements.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            content = tuple(r["content"].split("|")) if r["content"] else ()
            placements[int(r["slot"])][int(r["cloud"])] = content
    return Replay(policy, horizon, decisions, slots, placements)


class _Errors:
    def __init__(self):
        self.lines = []
        self._per_check = Counter()

    def add(self, check, message):
        self._per_check[check] += 1
        if self._per_check[check] <= MAX_ERRORS_PER_CHECK:
            self.lines.append(f"{check}: {message}")


def check_replay(system, requests, sizes, replay):
    """All replay checks; requests are the generated stream, sizes maps
    every object id (public and private) to its size."""
    errors = _Errors()
    fpc = system.fine_per_coarse
    in_horizon = {r.req_id: r for r in requests
                  if r.arrival < replay.horizon * fpc}
    _check_coverage(errors, in_horizon, replay, fpc)
    _check_money(errors, system, in_horizon, sizes, replay)
    _check_occupancy(errors, system, in_horizon, replay)
    _check_queue(errors, system, replay)
    _check_placements(errors, system, sizes, replay)
    if replay.policy == "proposed":
        _check_identity(errors, replay)
    else:
        for s in replay.slots:
            if s.cost > system.budget + 1e-6:
                errors.add("budget", f"slot {s.slot} spends {s.cost} over "
                                     f"the per-slot cap {system.budget}")
    return errors.lines


def _check_coverage(errors, in_horizon, replay, fpc):
    seen = Counter(d.req_id for d in replay.decisions)
    for req_id, n in seen.items():
        if req_id not in in_horizon:
            errors.add("coverage", f"decision for request {req_id} outside "
                                   "the horizon")
        elif n != 1:
            errors.add("coverage", f"request {req_id} has {n} decisions")
    for req_id in in_horizon:
        if req_id not in seen:
            errors.add("coverage", f"request {req_id} has no decision")
    for d in replay.decisions:
        req = in_horizon.get(d.req_id)
        if req is None:
            continue
        if (d.arrival, d.duration) != (req.arrival, req.duration) \
                or d.slot != req.arrival // fpc:
            errors.add("coverage", f"decision {d.req_id} misstates its "
                                   "request's timing")
        if d.verdict == "accepted":
            groups = sorted(k for k, (n, _) in req.demand.items() if n > 0)
            if sorted(d.assignment) != groups or d.reason:
                errors.add("coverage", f"accept of {d.req_id} does not place "
                                       "every VM group")
        elif d.verdict != "rejected" or not d.reason or d.assignment:
            errors.add("coverage", f"decision {d.req_id} is malformed")
    if [s.slot for s in replay.slots] != list(range(replay.horizon)):
        errors.add("coverage", "slot reports do not cover the horizon in order")


def _check_money(errors, system, in_horizon, sizes, replay):
    """Revenue and transport per decision and per slot, recomputed."""
    revenue = [0.0] * replay.horizon
    cost = [0.0] * replay.horizon
    arrivals = [0] * replay.horizon
    accepted = [0] * replay.horizon
    for d in replay.decisions:
        req = in_horizon.get(d.req_id)
        if req is None or not 0 <= d.slot < replay.horizon:
            continue
        arrivals[d.slot] += 1
        if d.verdict != "accepted":
            if d.revenue != 0.0 or d.transport_cost != 0.0:
                errors.add("revenue", f"reject {d.req_id} books money")
            continue
        accepted[d.slot] += 1
        placement = replay.placements[d.slot - 1] if d.slot > 0 else {}
        rev = 0.0
        fetch = 0.0
        for k, i in d.assignment.items():
            count, objects = req.demand[k]
            rev += system.prices[k] * count
            per_vm = 0.0
            for o in objects:
                per_vm += sizes[o] * system.fetch_latency(i, o, placement,
                                                          req.ingress)
            fetch += count * per_vm
        rev *= req.duration
        if not close(rev, d.revenue):
            errors.add("revenue", f"decision {d.req_id} books {d.revenue}, "
                                  f"expected {rev}")
        if not close(fetch, d.transport_cost):
            errors.add("transport", f"decision {d.req_id} costs "
                                    f"{d.transport_cost}, expected {fetch}")
        revenue[d.slot] += rev
        cost[d.slot] += fetch
    for s in replay.slots:
        if not 0 <= s.slot < replay.horizon:
            continue
        if not close(revenue[s.slot], s.revenue):
            errors.add("revenue", f"slot {s.slot} books {s.revenue}, "
                                  f"expected {revenue[s.slot]}")
        if not close(cost[s.slot], s.cost):
            errors.add("transport", f"slot {s.slot} costs {s.cost}, "
                                    f"expected {cost[s.slot]}")
        if (s.arrivals, s.accepted) != (arrivals[s.slot], accepted[s.slot]):
            errors.add("coverage", f"slot {s.slot} counts do not match its "
                                   "decisions")


def _check_occupancy(errors, system, in_horizon, replay):
    used = {}
    for d in replay.decisions:
        req = in_horizon.get(d.req_id)
        if d.verdict != "accepted" or req is None:
            continue
        for k, i in d.assignment.items():
            count = req.demand[k][0]
            for r, per_vm in enumerate(system.recipes[k]):
                units = count * per_vm
                if units <= 0:
                    continue
                for t in range(req.arrival, req.arrival + req.duration):
                    key = (i, r, t)
                    used[key] = used.get(key, 0.0) + units
    for (i, r, t), units in sorted(used.items()):
        if units > system.capacity[i][r] + 1e-6:
            errors.add("capacity", f"cloud {i} resource {r} slot {t} holds "
                                   f"{units} of {system.capacity[i][r]}")


def _check_queue(errors, system, replay):
    q = 0.0
    for s in replay.slots:
        if not close(q, s.queue, abs_tol=1e-9):
            errors.add("queue", f"slot {s.slot} used queue {s.queue}, "
                                f"recursion gives {q}")
        q = max(q + s.cost - system.budget, 0.0)
    if replay.queue_trace is not None \
            and replay.queue_trace != [s.queue for s in replay.slots]:
        errors.add("queue", "queue trace disagrees with the slot reports")
    t = len(replay.slots)
    if t:
        avg_cost = sum(s.cost for s in replay.slots) / t
        if avg_cost - system.budget > q / t + 1e-9:
            errors.add("queue", f"avg cost {avg_cost} - budget exceeds "
                                f"Q(T)/T {q / t}")


def _check_placements(errors, system, sizes, replay):
    if len(replay.placements) != replay.horizon:
        errors.add("cache", "placement log does not cover the horizon")
    for slot, placement in enumerate(replay.placements):
        if sorted(placement) != list(range(system.n_clouds)):
            errors.add("cache", f"slot {slot} placement misses clouds")
        for i, content in placement.items():
            if any(o not in system.public for o in content):
                errors.add("cache", f"slot {slot} cloud {i} caches private "
                                    "or unknown data")
                continue
            if sum(sizes[o] for o in content) > system.cache_size[i] + 1e-9:
                errors.add("cache", f"slot {slot} cloud {i} overfills its "
                                    "cache")


def _check_identity(errors, replay):
    for name in VIOLATION_COUNTERS:
        if replay.counters.get(name, 0):
            errors.add("counters", f"{name} = {replay.counters[name]}")
    for d in replay.decisions:
        if d.verdict == "accepted":
            if d.objective < 0.0:
                errors.add("identity", f"accept {d.req_id} has negative "
                                       "objective")
            expected = E_RATIO * d.primal_delta
            scale = max(abs(d.dual_delta), abs(expected), 1e-12)
            if abs(d.dual_delta - expected) > 1e-9 * scale:
                errors.add("identity", f"accept {d.req_id}: dual delta "
                                       f"{d.dual_delta}, expected {expected}")
        elif (d.reason == "negative_objective") != (d.objective < 0.0):
            errors.add("identity", f"reject {d.req_id} reason {d.reason} "
                                   f"disagrees with objective {d.objective}")


def check_summary(out_dir, keys, stream_hash):
    """summary.json totals must match what the CSVs of each cell parse to."""
    errors = _Errors()
    with open(Path(out_dir) / "summary.json") as fh:
        runs = json.load(fh)["runs"]
    if sorted(runs) != sorted(keys):
        errors.add("artifacts", f"summary lists {sorted(runs)}, "
                                f"expected {sorted(keys)}")
    for key, (policy, replay) in keys.items():
        s = runs.get(key)
        if s is None:
            continue
        rows = replay.slots
        expect = {
            "policy": policy,
            "horizon_coarse": replay.horizon,
            "arrivals": len(replay.decisions),
            "accepted": sum(d.verdict == "accepted" for d in replay.decisions),
            "total_revenue": sum(r.revenue for r in rows),
            "total_cost": sum(r.cost for r in rows),
            "final_queue": rows[-1].queue if rows else 0.0,
            "stream_hash": stream_hash,
        }
        for name, value in expect.items():
            got = s.get(name)
            same = close(got, value) if isinstance(value, float) \
                and isinstance(got, (int, float)) else got == value
            if not same:
                errors.add("artifacts", f"{key} {name} is {got}, CSVs give "
                                        f"{value}")
    return errors.lines


def check_suites(system, prop2, theorem1, n_prop2=200, n_theorem1=20):
    """Both oracle suites pass at full size; theorem1's bound is recomputed
    from the tiny scenario file."""
    errors = _Errors()
    if not prop2.passed:
        errors.add("prop2", "suite failed: " + "; ".join(prop2.lines))
    if not prop2.lines or not prop2.lines[0].startswith(f"{n_prop2} random"):
        errors.add("prop2", f"did not run {n_prop2} instances")
    if prop2.data.get("half_failures") or prop2.data.get("super_failures"):
        errors.add("prop2", "greedy or supermodularity failures reported")
    if not 0.5 - 1e-9 <= prop2.data.get("worst_ratio", 0.0) <= 1.0 + 1e-9:
        errors.add("prop2", f"worst ratio {prop2.data.get('worst_ratio')}")
    if not theorem1.passed:
        errors.add("theorem1", "suite failed: " + "; ".join(theorem1.lines))
    rows = theorem1.data.get("rows", [])
    if len(rows) != n_theorem1:
        errors.add("theorem1", f"{len(rows)} instances, expected {n_theorem1}")
    n_frame = 2
    for row in rows:
        oracle = row["oracle"]
        rhs = (1.0 - 1.0 / math.e) * (sum(oracle) / len(oracle)
                                      - system.drift_bound * n_frame
                                      / system.v_weight)
        if not close(rhs, row["rhs"]) or row["lhs"] < rhs - 1e-9:
            errors.add("theorem1", f"seed {row['seed']}: lhs {row['lhs']} "
                                   f"vs recomputed bound {rhs}")
    return errors.lines
