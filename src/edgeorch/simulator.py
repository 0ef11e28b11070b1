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

import bisect
import hashlib
import itertools
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .allocator import (DecisionLog, MyopicAllocator, OnlineAllocator,
                        dual_feasibility_violations)
from .model import (DataCatalog, PackedRows, PlacementProfile, Request,
                    ResourceState, _draws, ordered_sum, transport_rows)
from .orchestrator import run_coarse_slot, update_virtual_queue
from .placement import (DemandMatrix, aggregate_demand, brute_force_place,
                        greedy_place, top_popularity_place)

POLICIES = ("proposed", "myopic_coop", "myopic_nocoop")
# the most requests one lookahead_oracle frame may hold
ORACLE_MAX_REQUESTS = 16


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

    def __post_init__(self):
        """Reject numbers the draw cannot use; draws nothing."""
        if not all(isinstance(xs, (tuple, list)) for xs in (
                self.lambda_range, self.lifetime, self.objects_per_vm,
                self.vm_mix)):
            raise ValueError("workload lambda_range, lifetime, objects_per_vm "
                             "and vm_mix must be lists")
        ints = (self.regime_length, *self.lifetime, *self.objects_per_vm)
        reals = (*self.lambda_range, self.zipf_exponent, self.private_ratio,
                 self.error_mean, *self.vm_mix)
        if any(isinstance(x, bool) or not isinstance(x, kind)
               for xs, kind in ((ints, int), (reals, (int, float)))
               for x in xs):
            raise ValueError("workload regime_length, lifetime and "
                             "objects_per_vm must be integers, the rest numbers")
        for name, pair, floor in (("lambda_range", self.lambda_range, 0),
                                  ("lifetime", self.lifetime, 1),
                                  ("objects_per_vm", self.objects_per_vm, 0)):
            if len(pair) != 2 or not floor <= pair[0] <= pair[1] < math.inf:
                raise ValueError(f"workload {name} must be a finite (low, "
                                 f"high) pair with {floor} <= low <= high")
        for name, value, floor in (("regime_length", self.regime_length, 1),
                                   ("zipf_exponent", self.zipf_exponent, 0),
                                   ("private_ratio", self.private_ratio, 0),
                                   ("error_mean", self.error_mean, 0)):
            if not floor <= value < math.inf:   # also false for NaN
                raise ValueError(f"workload {name} must be finite and at "
                                 f"least {floor}")
        if not all(0 <= x < math.inf for x in self.vm_mix) or (
                self.vm_mix and abs(math.fsum(self.vm_mix) - 1.0) > 1e-9):
            raise ValueError("workload vm_mix must hold finite, non-negative "
                             "probabilities that sum to 1")

    @classmethod
    def from_dict(cls, data):
        extra = set(data) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown workload fields: {sorted(extra)}")
        return cls(**{name: tuple(value) if isinstance(value, list) else value
                      for name, value in data.items()})


def zipf_probabilities(n, exponent):
    """Rank popularity: p(rank) proportional to 1/rank**exponent."""
    if n <= 0:
        raise ValueError("need at least one object")
    try:
        weights = np.array([1.0 / (rank ** exponent)
                            for rank in range(1, n + 1)])
    except OverflowError:
        raise ValueError(f"zipf_exponent {exponent!r} overflows the rank "
                         f"weights of {n} objects") from None
    return weights / weights.sum()


@dataclass
class Workload:
    requests: list            # in arrival order
    catalog: object           # public objects plus this stream's private ones
    config: WorkloadConfig
    stream_hash: str
    rows: PackedRows          # the requests' object reads, packed in order

    def __post_init__(self):
        if any(a.arrival > b.arrival
               for a, b in itertools.pairwise(self.requests)):
            raise ValueError("workload requests must come in arrival order")

    def span(self, start, stop):
        """Positions lo, hi of the requests arriving in fine slots
        start..stop-1: requests[lo:hi] and rows.take(lo, hi)."""
        arrival = operator.attrgetter("arrival")
        return (bisect.bisect_left(self.requests, start, key=arrival),
                bisect.bisect_left(self.requests, stop, key=arrival))


def generate_workload(cfg, scenario, horizon_fine):
    """Draw the full request stream for one run; identical for every policy.

    The stream is packed as it is drawn: each request is one row whose
    entries are its public reads, by index in the sorted public object
    list, then its private reads, from its ingress.
    """
    # the scenario's public objects; the stream's private ones join below
    publics = scenario.catalog.public_objects()
    public_sizes = [scenario.catalog.sizes[o] for o in publics]
    catalog = DataCatalog(dict(zip(publics, public_sizes)))
    probs = zipf_probabilities(len(publics), cfg.zipf_exponent)
    n_types = scenario.vms.n_types
    mix = np.array(cfg.vm_mix if cfg.vm_mix else [1.0 / n_types] * n_types,
                   dtype=float)
    if len(mix) != n_types:
        raise ValueError("vm_mix must give one probability per VM type")
    # rng.choice(n, p=p) is cdf.searchsorted(rng.random(), side="right")
    # over this cdf, which bisect_right finds on the cdf as a list; drawing
    # it directly keeps the stream and skips choice's per-call checks
    type_cdf = mix.cumsum()
    type_cdf = (type_cdf / type_cdf[-1]).tolist()
    rank_cdf = probs.cumsum()
    rank_cdf = (rank_cdf / rank_cdf[-1]).tolist()
    draws = _draws(np.random.default_rng(cfg.seed))
    double, integer, poisson = draws.double, draws.integer, draws.poisson
    life_lo, life_hi = cfg.lifetime
    obj_lo, obj_hi = cfg.objects_per_vm
    n_public = len(publics)
    n_clouds = scenario.topology.n_clouds
    requests = []
    digest = hashlib.sha256()
    # one packed row per request; kind_of numbers the types drawn in order
    kind_of, kinds, lengths, sources = {}, [], [], []
    req_id = 0
    for t in range(horizon_fine):
        if t % cfg.regime_length == 0:
            rate = draws.uniform(*cfg.lambda_range)
        drawn, private_ids, texts = [], [], []
        for _ in range(poisson(rate)):
            k = bisect.bisect_right(type_cdf, double())
            life = integer(life_lo, life_hi)
            n_obj = integer(obj_lo, obj_hi)
            # publics is sorted, so ascending indices give the names sorted
            columns = sorted({bisect.bisect_right(rank_cdf, double())
                              for _ in range(n_obj)})
            want = cfg.private_ratio * sum([public_sizes[j] for j in columns])
            n_priv = int(want) + (1 if double() < want - int(want) else 0)
            private = [f"p{req_id}-{j}" for j in range(n_priv)]
            ingress = integer(0, n_clouds - 1)
            objects = tuple([publics[j] for j in columns] + private)
            drawn.append(Request(req_id, t, life, ingress, {k: (1, objects)}))
            # the repr of (id, arrival, duration, ingress, sorted demand items)
            texts.append(f"({req_id}, {t}, {life}, {ingress}, "
                         f"[({k}, (1, {objects!r}))])")
            private_ids += private
            kinds.append(kind_of.setdefault(k, len(kind_of)))
            lengths.append(len(columns) + n_priv)
            sources += columns + [n_public + ingress] * n_priv
            req_id += 1
        digest.update("".join(texts).encode())
        catalog.add_many(private_ids, 1)
        for req in drawn:
            req.validate(catalog, n_types, n_clouds)
        requests += drawn
    source = np.asarray(sources, dtype=np.int32)
    # every private object has size 1
    source_size = np.concatenate([public_sizes, np.ones(n_clouds)])
    rows = PackedRows.from_lists(publics, n_clouds,
                                 [((k, 1),) for k in kind_of], kinds,
                                 np.arange(len(requests) + 1), lengths,
                                 source, source_size[source])
    return Workload(requests, catalog, cfg, digest.hexdigest(), rows)


def perturb_demand(demand, error_mean, rng):
    """Placement's noisy view of demand.

    The per-slot error rate is a Poisson-derived fraction min(1, X/10)
    with X ~ Poisson(error_mean * 10), so its mean tracks error_mean.
    Each object in the set carrying the top half of total traffic loses all
    its demand entries with that probability.  Accounting keeps true costs.
    """
    if error_mean <= 0 or not demand.entries:
        return DemandMatrix(dict(demand.entries))
    eps = min(1.0, float(rng.poisson(error_mean * 10)) / 10)
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
    gone = {o for o in top if rng.random() < eps}
    entries = {key: d for key, d in demand.entries.items() if key[1] not in gone}
    return DemandMatrix(entries)


@dataclass
class RunReport:
    policy: str
    scenario_name: str
    seed: int
    horizon_coarse: int
    slots: list
    decisions: DecisionLog
    placements: list          # (slot, {cloud: sorted content}, objective, savings)
    queue_trace: list
    totals: dict
    counters: dict
    stream_hash: str
    wallclock: float

    @property
    def acceptance_rate(self):
        return self.totals["accepted"] / max(self.totals["arrivals"], 1)

    def summary(self):
        slots = max(self.horizon_coarse, 1)
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
            "time_avg_revenue": self.totals["revenue"] / slots,
            "time_avg_cost": self.totals["cost"] / slots,
            "final_queue": self.queue_trace[-1] if self.queue_trace else 0.0,
            "counters": dict(self.counters),
            "stream_hash": self.stream_hash,
            "wallclock_s": round(self.wallclock, 3),
        }


def _check_accounting(slots, log, budget, counters):
    """Slot accumulators must replay from the decision log, and the queue
    trace from the cost series."""
    by_slot_rev = {}
    by_slot_cost = {}
    for slot, reason, revenue, cost in zip(log.slot, log.reason, log.revenue,
                                           log.transport_cost):
        if reason is None:
            by_slot_rev[slot] = by_slot_rev.get(slot, 0.0) + revenue
            by_slot_cost[slot] = by_slot_cost.get(slot, 0.0) + cost
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
    workload.rows.check(scenario.catalog.public_objects(),
                        scenario.topology.n_clouds)
    started = time.perf_counter()
    counters = {"accounting_violations": 0, "queue_replay_violations": 0,
                "dual_violations": 0, "ledger_violations": 0,
                "replayed_windows": 0}
    resources = ResourceState(scenario.capacity)
    allocator = (OnlineAllocator if policy == "proposed"
                 else MyopicAllocator)(scenario, resources)
    popularity = policy == "myopic_nocoop"
    perturb_rng = np.random.default_rng([workload.config.seed, 101])

    def place(accepted):
        view = perturb_demand(aggregate_demand(accepted, workload.catalog),
                              workload.config.error_mean, perturb_rng)
        # module globals, looked up at each call: a wrapper set here fires
        rule = top_popularity_place if popularity else greedy_place
        return rule(view, scenario.cache_size, scenario.topology,
                    workload.catalog)

    hook = None
    if lemma5_windows:
        def hook(t, seen, scores):
            if t in lemma5_windows:
                counters["replayed_windows"] += 1
                counters["dual_violations"] += dual_feasibility_violations(
                    allocator, seen, scores)

    queue = 0.0
    placement = PlacementProfile.empty(scenario.topology.n_clouds,
                                       scenario.cache_size)
    slots, decisions, placements = [], DecisionLog(), []
    for big in range(horizon_coarse):
        lo, hi = workload.span(big * scenario.fine_per_coarse,
                               (big + 1) * scenario.fine_per_coarse)
        report, placement = run_coarse_slot(
            big, queue, workload.requests[lo:hi], workload.rows.take(lo, hi),
            allocator, place, placement, decisions, window_hook=hook)
        queue = update_virtual_queue(queue, report.cost, scenario.budget)
        slots.append(report)
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
        queue_trace=[s.queue for s in slots],
        totals=totals,
        counters=counters,
        stream_hash=workload.stream_hash,
        wallclock=time.perf_counter() - started,
    )


def lookahead_oracle(rule, workload, n_frame, frame_index):
    """Clairvoyant optimum of one frame of n_frame coarse slots.

    Exhausts every accept/config combination that fits a fresh capacity
    ledger, lease by lease as the hard guard admits, and whose frame-total
    transport cost stays within n_frame times the budget.  Each slot pays
    the brute-force optimal placement of the public reads it accepted
    (slots' placements are independent once bundles are fixed) plus their
    private streams.  Returns the frame's per-slot average revenue and the
    best assignment found.

    rule: an allocator._AdmissionRule, which values the frame's configs
    under its own scenario; the frames of one caller share its shape cache.
    """
    scenario = rule.scenario
    fpc = scenario.fine_per_coarse
    first = frame_index * n_frame
    topo = scenario.topology
    workload.rows.check(scenario.catalog.public_objects(), topo.n_clouds)
    lo, hi = workload.span(first * fpc, (first + n_frame) * fpc)
    frame_reqs = workload.requests[lo:hi]
    if len(frame_reqs) > ORACLE_MAX_REQUESTS:
        raise ValueError(f"frame has {len(frame_reqs)} requests, oracle cap "
                         f"is {ORACLE_MAX_REQUESTS}")
    catalog = workload.catalog
    # caching every public object everywhere prices each public read at
    # the zero diagonal, 0.0, leaving only the private streams in the spend
    rows = workload.rows.take(lo, hi)
    private = transport_rows(rows, PlacementProfile(
        dict.fromkeys(topo.clouds, rows.publics), {}), topo)

    options = []   # per request: (config or None, revenue, usage, private cost)
    for req, (group, m) in zip(frame_reqs, rule.score_matrix(
            frame_reqs, rows, private, 0.0)):
        options.append([(None, 0.0, {}, 0.0)] + [
            (shape.config, req.duration * shape.revenue_rate, shape.usage,
             cost) for shape, cost in zip(group.shapes,
                                          group.spend[m].tolist())])

    best = (0.0, None)   # any frame admits the all-reject solution
    budget = n_frame * scenario.budget
    placed = {}   # a slot's accepted (request, option) pairs -> their cost
    for combo in itertools.product(*[range(len(o)) for o in options]):
        picked = [(n, pick, frame_reqs[n], *options[n][pick])
                  for n, pick in enumerate(combo) if pick]
        revenue = ordered_sum(p[4] for p in picked)
        if revenue <= best[0]:
            continue
        ledger = ResourceState(scenario.capacity)
        for _, _, req, _, _, usage, _ in picked:
            span = (req.arrival, req.arrival + req.duration)
            if not ledger.fits(usage, *span):
                break
            ledger.lease(req.req_id, usage, *span)
        else:
            total_cost = 0.0
            # requests come in arrival order, so a slot's picks are one run
            for _, run in itertools.groupby(
                    picked, lambda p: p[2].arrival // fpc):
                run = list(run)
                key = tuple(p[:2] for p in run)
                if key not in placed:
                    _, public = brute_force_place(
                        aggregate_demand([p[2:4] for p in run], catalog),
                        scenario.cache_size, topo, catalog)
                    placed[key] = public + ordered_sum(p[6] for p in run)
                total_cost += placed[key]
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
