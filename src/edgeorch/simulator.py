"""Deterministic discrete-event simulation of the orchestration loop.

A workload is generated once from a seed (Poisson arrivals whose rate is
redrawn per regime, Zipf-ranked public reads, per-request private data) and
then replayed identically under each policy so comparisons share the exact
request stream.

Policies, each an (admission rule, placement rule) pair driven through
orchestrator.run_coarse_slot:
  proposed      online primal-dual admission + queue-coupled scoring +
                greedy cooperative placement
  myopic_coop   cheapest feasible bundle, hard per-slot budget, greedy
                cooperative placement
  myopic_nocoop same admission, but each cloud caches its own hottest
                objects with no coordination
"""

import hashlib
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .allocator import (MyopicAllocator, OnlineAllocator,
                        dual_feasibility_violations)
from .model import (PlacementProfile, Request, ResourceState, config_usage,
                    enumerate_configs, fetch_latencies, ordered_sum,
                    transport_matrix)
from .orchestrator import OrchestratorState, run_coarse_slot, update_virtual_queue
from .placement import (DemandMatrix, PlacementSolution, feasible_content_sets,
                        greedy_place, placement_cost, top_popularity_place)

POLICIES = ("proposed", "myopic_coop", "myopic_nocoop")


@dataclass
class WorkloadConfig:
    seed: int = 0
    lambda_range: tuple = (0.0, 10.0)   # requests per fine slot
    regime_length: int = 25             # fine slots between rate redraws
    vm_mix: tuple = ()                  # defaults to uniform over types
    lifetime: tuple = (1, 5)            # fine slots, inclusive
    zipf_exponent: float = 0.6
    objects_per_vm: tuple = (1, 3)      # public objects, inclusive
    private_ratio: float = 2.0          # private:public volume per request
    error_mean: float = 0.0             # demand estimation error rate

    @classmethod
    def from_dict(cls, data):
        known = {}
        for name in cls.__dataclass_fields__:
            if name in data:
                value = data[name]
                if isinstance(value, list):
                    value = tuple(value)
                known[name] = value
        extra = set(data) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown workload fields: {sorted(extra)}")
        return cls(**known)

    def to_dict(self):
        out = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out


def zipf_probabilities(n, exponent):
    """Rank popularity: p(rank) proportional to 1/rank**exponent."""
    if n <= 0:
        raise ValueError("need at least one object")
    weights = np.array([1.0 / (rank ** exponent) for rank in range(1, n + 1)])
    return weights / weights.sum()


@dataclass
class Workload:
    requests: list
    catalog: object           # scenario catalog plus this stream's private objects
    config: WorkloadConfig
    horizon_fine: int
    lambda_schedule: list     # (first fine slot, rate)
    stream_hash: str

    def by_fine_slot(self):
        slots = {}
        for req in self.requests:
            slots.setdefault(req.arrival, []).append(req)
        return slots


def generate_workload(cfg, scenario, horizon_fine):
    """Draw the full request stream for one run; identical for every policy."""
    rng = np.random.default_rng(cfg.seed)
    catalog = type(scenario.catalog)(dict(scenario.catalog.sizes),
                                     dict(scenario.catalog.visibility))
    publics = scenario.catalog.public_objects()
    probs = zipf_probabilities(len(publics), cfg.zipf_exponent)
    n_types = scenario.vms.n_types
    mix = np.array(cfg.vm_mix if cfg.vm_mix else [1.0 / n_types] * n_types,
                   dtype=float)
    if not (np.isfinite(mix).all() and (mix >= 0).all()):
        raise ValueError("vm_mix probabilities must be finite and non-negative")
    if len(mix) != n_types or abs(mix.sum() - 1.0) > 1e-9:
        raise ValueError("vm_mix must give one probability per VM type")
    # rng.choice(n, p=p) is cdf.searchsorted(rng.random(), side="right")
    # over this cdf; drawing it directly keeps the stream and skips
    # choice's per-call argument checks
    type_cdf = mix.cumsum()
    type_cdf /= type_cdf[-1]
    rank_cdf = probs.cumsum()
    rank_cdf /= rank_cdf[-1]
    n_clouds = scenario.topology.n_clouds
    requests = []
    schedule = []
    rate = 0.0
    req_id = 0
    for t in range(horizon_fine):
        if t % cfg.regime_length == 0:
            rate = float(rng.uniform(*cfg.lambda_range))
            schedule.append((t, rate))
        for _ in range(int(rng.poisson(rate))):
            k = int(type_cdf.searchsorted(rng.random(), side="right"))
            life = int(rng.integers(cfg.lifetime[0], cfg.lifetime[1] + 1))
            n_obj = int(rng.integers(cfg.objects_per_vm[0], cfg.objects_per_vm[1] + 1))
            picks = rank_cdf.searchsorted(rng.random(n_obj), side="right")
            objects = sorted({publics[i] for i in picks})
            volume = sum(catalog.size(o) for o in objects)
            want = cfg.private_ratio * volume
            n_priv = int(want) + (1 if rng.random() < want - int(want) else 0)
            private = []
            for j in range(n_priv):
                pid = f"p{req_id}-{j}"
                catalog.add(pid, 1, visibility="private")
                private.append(pid)
            req = Request(
                req_id=req_id,
                arrival=t,
                duration=life,
                ingress=int(rng.integers(n_clouds)),
                demand={k: (1, tuple(objects + private))},
                service=f"svc{k}",
            )
            req.validate(catalog, n_types, n_clouds)
            requests.append(req)
            req_id += 1
    digest = hashlib.sha256()
    for req in requests:
        digest.update(repr((req.req_id, req.arrival, req.duration, req.ingress,
                            sorted(req.demand.items()))).encode())
    return Workload(requests, catalog, cfg, horizon_fine, schedule,
                    digest.hexdigest())


def perturb_demand(demand, error_mean, rng, shape=10):
    """Placement's noisy view of demand.

    The per-slot error rate is a Poisson-derived fraction min(1, X/shape)
    with X ~ Poisson(error_mean * shape), so its mean tracks error_mean.
    Each object in the set carrying the top half of total traffic loses all
    its demand entries with that probability.  Accounting keeps true costs.
    """
    if error_mean <= 0 or not demand.entries:
        return demand.copy(), 0.0, ()
    eps = min(1.0, float(rng.poisson(error_mean * shape)) / shape)
    totals = demand.total_by_object()
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    grand = ordered_sum(totals.values())
    top = []
    running = 0.0
    for o, d in ranked:
        top.append(o)
        running += d
        if running >= 0.5 * grand:
            break
    zeroed = tuple(o for o in top if rng.random() < eps)
    gone = set(zeroed)
    entries = {key: d for key, d in demand.entries.items() if key[1] not in gone}
    return DemandMatrix(demand.slot, entries), eps, zeroed


@dataclass
class RunReport:
    policy: str
    scenario_name: str
    seed: int
    horizon_coarse: int
    slots: list
    decisions: list
    placements: list          # (slot, {cloud: sorted content}, objective, savings)
    queue_trace: list
    totals: dict
    counters: dict
    stream_hash: str
    wallclock: float
    high_water: dict = field(default_factory=dict)   # (cloud, resource) -> peak units

    @property
    def time_avg_revenue(self):
        return self.totals["revenue"] / max(self.horizon_coarse, 1)

    @property
    def time_avg_cost(self):
        return self.totals["cost"] / max(self.horizon_coarse, 1)

    @property
    def acceptance_rate(self):
        return self.totals["accepted"] / max(self.totals["arrivals"], 1)

    @property
    def final_queue(self):
        return self.queue_trace[-1] if self.queue_trace else 0.0

    def summary(self):
        return {
            "policy": self.policy,
            "scenario": self.scenario_name,
            "seed": self.seed,
            "horizon_coarse": self.horizon_coarse,
            "arrivals": self.totals["arrivals"],
            "accepted": self.totals["accepted"],
            "acceptance_rate": self.acceptance_rate,
            "total_revenue": self.totals["revenue"],
            "total_cost": self.totals["cost"],
            "time_avg_revenue": self.time_avg_revenue,
            "time_avg_cost": self.time_avg_cost,
            "final_queue": self.final_queue,
            "counters": dict(self.counters),
            "stream_hash": self.stream_hash,
            "wallclock_s": round(self.wallclock, 3),
        }


def _arrivals_grid(workload, scenario, horizon_coarse):
    per_slot = workload.by_fine_slot()
    grid = []
    for big in range(horizon_coarse):
        base = big * scenario.fine_per_coarse
        grid.append([per_slot.get(base + off, [])
                     for off in range(scenario.fine_per_coarse)])
    return grid

def _check_accounting(slots, decisions, budget, counters):
    """Slot accumulators must replay from the decision log, and the queue
    trace from the cost series."""
    by_slot_rev = {}
    by_slot_cost = {}
    for d in decisions:
        if d.accepted:
            slot = d.slot
            by_slot_rev[slot] = by_slot_rev.get(slot, 0.0) + d.revenue
            by_slot_cost[slot] = by_slot_cost.get(slot, 0.0) + d.transport_cost
    q = 0.0
    for rep in slots:
        if abs(by_slot_rev.get(rep.slot, 0.0) - rep.revenue) > 1e-6:
            counters["accounting_violations"] += 1
        if abs(by_slot_cost.get(rep.slot, 0.0) - rep.cost) > 1e-6:
            counters["accounting_violations"] += 1
        if abs(q - rep.queue) > 1e-6:
            counters["queue_replay_violations"] += 1
        q = update_virtual_queue(q, rep.cost, budget)


def run_policy(policy, scenario, workload, horizon_coarse,
               lemma5_windows=None):
    """Replay one workload under one policy; returns a RunReport.

    lemma5_windows: optional set of fine slots; when such a pricing window
    closes, every seen request is replayed config-by-config against the
    current duals and violations of the admission constraints are counted.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    started = time.perf_counter()
    counters = {"accounting_violations": 0, "queue_replay_violations": 0,
                "dual_violations": 0, "ledger_violations": 0,
                "replayed_windows": 0}
    catalog = workload.catalog
    resources = ResourceState(scenario.capacity)
    if policy == "proposed":
        allocator = OnlineAllocator(scenario, resources)
    else:
        allocator = MyopicAllocator(scenario, resources)
    cooperative = policy != "myopic_nocoop"
    perturb_rng = np.random.default_rng([workload.config.seed, 101])

    def place(demand):
        view, _, _ = perturb_demand(demand, workload.config.error_mean,
                                    perturb_rng)
        if cooperative:
            return greedy_place(view, scenario.cache_size, scenario.topology,
                                catalog)
        profile = top_popularity_place(view, scenario.cache_size, catalog)
        return PlacementSolution(
            profile, placement_cost(profile, view, scenario.topology), 0.0, [])

    hook = None
    if lemma5_windows:
        def hook(t, seen, tables, q_eff):
            if t in lemma5_windows:
                counters["replayed_windows"] += 1
                counters["dual_violations"] += dual_feasibility_violations(
                    allocator, seen, tables, q_eff)

    state = OrchestratorState()
    placement = PlacementProfile.empty(scenario.topology.n_clouds,
                                       scenario.cache_size)
    grid = _arrivals_grid(workload, scenario, horizon_coarse)
    slots, decisions, placements = [], [], []
    for big in range(horizon_coarse):
        report, placement, slot_decs, _ = run_coarse_slot(
            state, grid[big], allocator, place, placement, catalog,
            scenario, window_hook=hook)
        slots.append(report)
        decisions.extend(slot_decs)
        placements.append((big, {i: sorted(placement.cached[i])
                                 for i in sorted(placement.cached)},
                           report.placement_objective,
                           report.placement_savings))
    try:
        resources.audit()
    except AssertionError:
        counters["ledger_violations"] += 1
    counters.update(allocator.counters)
    totals = {
        "revenue": ordered_sum(rep.revenue for rep in slots),
        "cost": ordered_sum(rep.cost for rep in slots),
        "arrivals": sum(rep.arrivals for rep in slots),
        "accepted": sum(rep.accepted for rep in slots),
    }
    _check_accounting(slots, decisions, scenario.budget, counters)
    return RunReport(
        policy=policy,
        scenario_name=scenario.name,
        seed=workload.config.seed,
        horizon_coarse=horizon_coarse,
        slots=slots,
        decisions=decisions,
        placements=placements,
        queue_trace=state.queue_trace,
        totals=totals,
        counters=counters,
        stream_hash=workload.stream_hash,
        wallclock=time.perf_counter() - started,
        high_water=dict(resources.high_water),
    )


def lookahead_oracle(scenario, workload, n_frame, frame_index,
                     max_requests=16, profile_cap=100_000):
    """Clairvoyant optimum of one frame of n_frame coarse slots.

    Exhausts every accept/config combination, checks capacity, and lets each
    slot pick its own cost-minimal placement (slots' placements are
    independent once bundles are fixed).  Frame-total transport cost must
    stay within n_frame times the budget.  Returns the frame's per-slot
    average revenue and the best assignment found.
    """
    fpc = scenario.fine_per_coarse
    lo = frame_index * n_frame * fpc
    hi = (frame_index + 1) * n_frame * fpc
    frame_reqs = [r for r in workload.requests if lo <= r.arrival < hi]
    if len(frame_reqs) > max_requests:
        raise ValueError(
            f"frame has {len(frame_reqs)} requests, oracle cap is {max_requests}")
    catalog = workload.catalog
    topo = scenario.topology
    demanded = sorted({o for r in frame_reqs for _, objs in r.demand.values()
                       for o in objs if catalog.is_public(o)})
    clouds = sorted(scenario.cache_size)
    per_cloud_sets = [feasible_content_sets(demanded, catalog,
                                            scenario.cache_size[i])
                      for i in clouds]
    space = 1
    for sets in per_cloud_sets:
        space *= len(sets)
    if space > profile_cap:
        raise ValueError(f"profile space {space} exceeds cap {profile_cap}")
    # one transport matrix per candidate profile, over the frame's requests
    matrices = [transport_matrix(
                    frame_reqs,
                    fetch_latencies(PlacementProfile(dict(zip(clouds, combo)),
                                                     scenario.cache_size),
                                    topo, demanded),
                    topo, catalog)
                for combo in itertools.product(*per_cloud_sets)]

    options = []   # per request: list of (config or None, revenue, usage)
    for req in frame_reqs:
        opts = [(None, 0.0, {})]
        for config in enumerate_configs(req, topo):
            rev = req.duration * ordered_sum(
                scenario.vms.price(k) * req.demand[k][0]
                for k in config.assignment)
            opts.append((config, rev, config_usage(req, config, scenario.vms)))
        options.append(opts)

    def slot_of(req):
        return (req.arrival // fpc) - frame_index * n_frame

    def cost_under(n, config, tables):
        req, table = frame_reqs[n], tables[n]
        return ordered_sum(req.demand[k][0] * table[k][i]
                           for k, i in config.assignment.items())

    best = (0.0, None)   # any frame admits the all-reject solution
    budget = n_frame * scenario.budget
    for combo in itertools.product(*[range(len(o)) for o in options]):
        revenue = 0.0
        committed = {}
        feasible = True
        for n, (req, pick) in enumerate(zip(frame_reqs, combo)):
            config, rev, usage = options[n][pick]
            if config is None:
                continue
            revenue += rev
            for (i, r), units in usage.items():
                for t in range(req.arrival, req.arrival + req.duration):
                    key = (i, r, t)
                    committed[key] = committed.get(key, 0.0) + units
                    if committed[key] > scenario.capacity[(i, r)] + 1e-9:
                        feasible = False
                        break
                if not feasible:
                    break
            if not feasible:
                break
        if not feasible or revenue <= best[0]:
            continue
        total_cost = 0.0
        for s in range(n_frame):
            slot_accepted = [(n, options[n][pick][0])
                             for n, (req, pick) in enumerate(zip(frame_reqs, combo))
                             if options[n][pick][0] is not None and slot_of(req) == s]
            if not slot_accepted:
                continue
            slot_best = None
            for tables in matrices:
                c = ordered_sum(cost_under(n, config, tables)
                                for n, config in slot_accepted)
                if slot_best is None or c < slot_best:
                    slot_best = c
            total_cost += slot_best
        if total_cost <= budget + 1e-9:
            best = (revenue, combo)
    return best[0] / n_frame, best[1]


def theorem1_check(report, oracle_values, bound_b, n_frame, v_weight):
    """Long-run guarantee: achieved per-slot revenue is at least
    (1 - 1/e) * (oracle per-slot average - B*N/V)."""
    z = len(oracle_values)
    lhs = report.totals["revenue"] / max(report.horizon_coarse, 1)
    rhs = (1.0 - 1.0 / math.e) * (ordered_sum(oracle_values) / z
                                  - bound_b * n_frame / v_weight)
    return lhs >= rhs - 1e-9, lhs, rhs
