"""Online primal-dual admission of VM-bundle requests.

Each fine slot runs a fresh packing problem: capacities are re-baselined to
the units still free, shadow prices (beta) restart at zero, and requests
arriving in the slot are priced one by one.  Accepting a bundle multiplies
the prices of the capacity it touches and adds a revenue-proportional bonus,
so heavily demanded slots price themselves out; a request is turned away
when its priced-out objective goes negative or any touched price exceeds 1.

Every decision also maintains a feasible dual solution (alpha per request,
beta per capacity triple).  On accept, the dual objective provably grows by
exactly e/(e-1) times the primal objective; the allocator checks that
identity on every acceptance and counts violations.

The myopic baselines admit through MyopicAllocator instead: the cheapest
bundle that fits, behind a hard per-coarse-slot transport budget.
"""

import math
from dataclasses import dataclass, field

from .model import config_usage, enumerate_configs, unit_transport_costs

E_RATIO = math.e / (math.e - 1.0)
BONUS_SCALE = 1.0 / (math.e - 1.0)

REJECT_NEGATIVE = "negative_objective"
REJECT_CEILING = "price_ceiling"
REJECT_CAPACITY = "no_feasible_config"
REJECT_SLOT_BUDGET = "slot_budget"


class DualState:
    """Shadow prices for the current fine slot's packing problem."""

    def __init__(self):
        self.beta = {}        # (cloud, resource, fine slot) -> price
        self.baseline = {}    # (cloud, resource, fine slot) -> capacity at window start
        self.alpha = {}       # request id -> dual value of its admission constraint

    def price(self, key):
        return self.beta.get(key, 0.0)

    def capacity_at_window_start(self, key, resources):
        cap = self.baseline.get(key)
        if cap is None:
            cap = resources.free(*key)
            self.baseline[key] = cap
        return cap

    def advance(self):
        self.beta.clear()
        self.baseline.clear()


@dataclass
class ScoredConfig:
    config: object
    objective: float          # L * adjusted revenue - shadow-price charge
    adjusted_revenue: float   # sum of the per-cloud values below
    per_cloud: dict           # cloud -> adjusted revenue earned there
    revenue: float            # realized revenue if accepted (price * count * L)
    transport_cost: float     # one-shot transport cost at current placement


@dataclass
class Decision:
    req_id: int
    arrival: int
    duration: int
    verdict: str              # "accepted" | "rejected"
    reason: str | None
    config: object | None
    objective: float
    primal_delta: float
    dual_delta: float
    revenue: float
    transport_cost: float
    per_cloud: dict
    q_eff: float
    slot: int = -1            # coarse slot, stamped by run_coarse_slot

    @property
    def accepted(self):
        return self.verdict == "accepted"


class _AdmissionRule:
    """Ledger and per-shape config cache shared by both admission rules."""

    def __init__(self, scenario, catalog, resources):
        self.scenario = scenario
        self.vms = scenario.vms
        self.topo = scenario.topology
        self.catalog = catalog
        self.resources = resources
        self.counters = {}
        self._config_cache = {}

    def _configs_for(self, req):
        key = tuple(req.groups())
        cached = self._config_cache.get(key)
        if cached is None:
            cached = enumerate_configs(req, self.topo)
            self._config_cache[key] = cached
        return cached


class OnlineAllocator(_AdmissionRule):
    """Prices and admits requests against one ResourceState."""

    def __init__(self, scenario, catalog, resources):
        super().__init__(scenario, catalog, resources)
        self.dual = DualState()
        self.counters = {"identity_violations": 0, "scaling_warnings": 0,
                         "beta_clamped": 0}

    def queue_weight(self, queue):
        """Weight of transport cost in the score for a virtual queue length."""
        if self.scenario.score_mode == "q_coupled":
            return max(queue, 1.0)
        return 1.0

    def advance_fine_slot(self, now):
        """Expire leases, then restart prices against the units still free."""
        self.resources.advance(now)
        self.dual.advance()

    def _score_one(self, req, config, table, q_eff):
        """Revenue per unit time net of cost-weighted transport, by cloud."""
        v = self.scenario.v_weight
        per_cloud = {}
        cost = 0.0
        revenue_rate = 0.0
        for k, i in config.assignment.items():
            count = req.demand[k][0]
            unit = table[(k, i)]
            cost += count * unit
            revenue_rate += count * self.vms.price(k)
            value = count * (v * self.vms.price(k) - q_eff * unit / req.duration)
            per_cloud[i] = per_cloud.get(i, 0.0) + value
        total = 0.0
        for i in sorted(per_cloud):
            total += per_cloud[i]
        return total, per_cloud, cost, req.duration * revenue_rate

    def _charge(self, req, config):
        if not self.dual.beta:
            return 0.0
        usage = config_usage(req, config, self.vms)
        total = 0.0
        for key in sorted(usage):
            units = usage[key]
            for t in range(req.arrival, req.arrival + req.duration):
                total += units * self.dual.price((key[0], key[1], t))
        return total

    def select_config(self, req, fetch, q_eff):
        """Highest priced-out objective across all configs; first wins ties."""
        table = unit_transport_costs(req, fetch, self.topo, self.catalog)
        best = None
        for config in self._configs_for(req):
            total, per_cloud, cost, revenue = self._score_one(req, config, table, q_eff)
            objective = req.duration * total - self._charge(req, config)
            if best is None or objective > best.objective:
                best = ScoredConfig(config, objective, total, per_cloud,
                                    revenue, cost)
        return best

    def admit(self, req, scored, q_eff):
        """Apply the accept/reject rule to the chosen config and settle duals."""
        config = scored.config
        if scored.objective < 0.0:
            return self._reject(req, scored, REJECT_NEGATIVE, q_eff)

        usage = config_usage(req, config, self.vms)
        span = range(req.arrival, req.arrival + req.duration)
        for key in sorted(usage):
            for t in span:
                triple = (key[0], key[1], t)
                if self.dual.price(triple) > 1.0:
                    return self._reject(req, scored, REJECT_CEILING, q_eff)
                if self.dual.capacity_at_window_start(triple, self.resources) <= 0.0:
                    # nothing was free when this window's prices were set
                    return self._reject(req, scored, REJECT_CEILING, q_eff)

        if self.scenario.hard_capacity_guard and not self.resources.fits(
                usage, req.arrival, req.arrival + req.duration):
            return self._reject(req, scored, REJECT_CAPACITY, q_eff)

        # resources per cloud this config actually prices; the bonus is
        # amortized over them so the dual increment telescopes exactly
        dims = {}
        for (i, r) in usage:
            dims[i] = dims.get(i, 0) + 1

        charge = 0.0
        bonus_total = 0.0
        for key in sorted(usage):
            i, r = key
            units = usage[key]
            share = scored.per_cloud.get(i, 0.0) / dims[i]
            for t in span:
                triple = (i, r, t)
                pre = self.dual.price(triple)
                cap = self.dual.capacity_at_window_start(triple, self.resources)
                charge += units * pre
                bonus = BONUS_SCALE * share / cap
                post = pre * (1.0 + units / cap) + bonus
                if post < 0.0:
                    post = 0.0
                    self.counters["beta_clamped"] += 1
                self.dual.beta[triple] = post
                bonus_total += cap * bonus

        self.resources.lease(req.req_id, usage, req.arrival, req.arrival + req.duration)

        alpha = max(0.0, req.duration * scored.adjusted_revenue - charge)
        self.dual.alpha[req.req_id] = alpha
        primal_delta = req.duration * scored.adjusted_revenue
        dual_delta = alpha + charge + bonus_total

        expected = E_RATIO * primal_delta
        scale = max(abs(dual_delta), abs(expected), 1e-12)
        if abs(dual_delta - expected) > 1e-9 * scale:
            self.counters["identity_violations"] += 1
        self.counters["scaling_warnings"] += len(
            check_price_scaling(scored, usage, dims))

        return Decision(
            req_id=req.req_id, arrival=req.arrival, duration=req.duration,
            verdict="accepted", reason=None, config=config,
            objective=scored.objective, primal_delta=primal_delta,
            dual_delta=dual_delta, revenue=scored.revenue,
            transport_cost=scored.transport_cost, per_cloud=dict(scored.per_cloud),
            q_eff=q_eff,
        )

    def _reject(self, req, scored, reason, q_eff):
        # keep the dual feasible for rejected requests too: their constraint
        # is covered by the best objective seen at decision time
        alpha = max(0.0, scored.objective)
        self.dual.alpha[req.req_id] = alpha
        return Decision(
            req_id=req.req_id, arrival=req.arrival, duration=req.duration,
            verdict="rejected", reason=reason, config=None,
            objective=scored.objective, primal_delta=0.0, dual_delta=alpha,
            revenue=0.0, transport_cost=0.0, per_cloud=dict(scored.per_cloud),
            q_eff=q_eff,
        )

    def decide(self, req, fetch, q_eff):
        return self.admit(req, self.select_config(req, fetch, q_eff), q_eff)


class MyopicAllocator(_AdmissionRule):
    """Cheapest feasible bundle behind a hard per-coarse-slot budget.

    The myopic baselines read the transport budget as a per-slot cap: once
    a slot's spend would cross it, further requests are turned away.  They
    keep no prices and never weigh transport against the virtual queue.
    """

    def __init__(self, scenario, catalog, resources):
        super().__init__(scenario, catalog, resources)
        self.slot_spend = 0.0

    def queue_weight(self, queue):
        return 0.0

    def advance_fine_slot(self, now):
        """Expire leases; a new coarse slot starts with nothing spent."""
        self.resources.advance(now)
        if now % self.scenario.fine_per_coarse == 0:
            self.slot_spend = 0.0

    def decide(self, req, fetch, q_eff):
        table = unit_transport_costs(req, fetch, self.topo, self.catalog)
        # a stable sort: equal costs keep the enumeration order
        ranked = sorted(((sum(req.demand[k][0] * table[(k, i)]
                              for k, i in config.assignment.items()), config)
                         for config in self._configs_for(req)),
                        key=lambda item: item[0])
        expiry = req.arrival + req.duration
        for cost, config in ranked:
            usage = config_usage(req, config, self.vms)
            if self.resources.fits(usage, req.arrival, expiry):
                break
        else:
            return self._decision(req, REJECT_CAPACITY, None, 0.0, 0.0, 0.0)
        if self.slot_spend + cost > self.scenario.budget + 1e-9:
            return self._decision(req, REJECT_SLOT_BUDGET, None, -cost, 0.0, 0.0)
        self.resources.lease(req.req_id, usage, req.arrival, expiry)
        revenue = req.duration * sum(self.vms.price(k) * req.demand[k][0]
                                     for k in config.assignment)
        self.slot_spend += cost
        return self._decision(req, None, config, -cost, revenue, cost)

    def _decision(self, req, reason, config, objective, revenue, cost):
        return Decision(
            req_id=req.req_id, arrival=req.arrival, duration=req.duration,
            verdict="rejected" if reason else "accepted", reason=reason,
            config=config, objective=objective, primal_delta=0.0,
            dual_delta=0.0, revenue=revenue, transport_cost=cost,
            per_cloud={}, q_eff=0.0)


def dual_feasibility_violations(allocator, requests, fetch, q_eff, tol=1e-7):
    """Replay every config of the given requests against the current duals.

    Covered means alpha plus the config's charge at today's prices reaches
    its time-extended adjusted revenue.  Prices only grow within a window
    and alpha is settled at decision time, so the count should be zero.
    """
    bad = 0
    for req in requests:
        alpha = allocator.dual.alpha.get(req.req_id, 0.0)
        table = unit_transport_costs(req, fetch, allocator.topo,
                                     allocator.catalog)
        for config in allocator._configs_for(req):
            total, _, _, _ = allocator._score_one(req, config, table, q_eff)
            slack = alpha + allocator._charge(req, config) - req.duration * total
            if slack < -tol:
                bad += 1
    return bad


def check_price_scaling(scored, usage, dims):
    """Flag clouds whose adjusted revenue is too small for the price growth
    argument: below (priced dims) * (units used) on some resource there."""
    warnings = []
    for (i, r), units in usage.items():
        if scored.per_cloud.get(i, 0.0) < dims[i] * units - 1e-9:
            warnings.append((i, r, units))
    return warnings
