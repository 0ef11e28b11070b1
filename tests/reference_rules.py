"""Plain scalar rules kept as differential oracles for the array fast paths.

`unit_transport_costs` prices one request at a time, the way every request
was priced before the per-slot transport matrix.  `ReferenceAllocator` is
the primal-dual admission rule as it was before the per-shape usage cache:
it rebuilds each config's usage dict, walks the price dict with a 0.0
default, and scores against `unit_transport_costs` tables.
"""

from edgeorch.allocator import (BONUS_SCALE, E_RATIO, REJECT_CAPACITY,
                                REJECT_CEILING, REJECT_NEGATIVE, Decision,
                                OnlineAllocator, ScoredConfig,
                                check_price_scaling)
from edgeorch.model import config_usage, enumerate_configs


def unit_transport_costs(req, fetch, topo, catalog):
    """Per-VM transport cost table: {(k, i): cost of hosting one type-k VM at i}.

    Public objects come at their fetch-table latency times object size.  An
    object the table lacks is private and streams from the request's ingress
    cloud; an unknown id raises ValueError.
    """
    table = {}
    for k in req.groups():
        _, objects = req.demand[k]
        for i in topo.clouds:
            row = fetch[i]
            stream = topo.w[i][req.ingress]
            total = 0.0
            for o in objects:
                total += row.get(o, stream) * catalog.size(o)
            table[(k, i)] = total
    return table


class ReferenceAllocator(OnlineAllocator):
    """The scalar admission rule; decide() takes the slot's fetch table."""

    def __init__(self, scenario, catalog, resources):
        super().__init__(scenario, resources)
        self.catalog = catalog
        self._config_cache = {}

    def _configs_for(self, req):
        key = tuple(req.groups())
        cached = self._config_cache.get(key)
        if cached is None:
            cached = enumerate_configs(req, self.topo)
            self._config_cache[key] = cached
        return cached

    def _price(self, key):
        return self.dual.beta.get(key, 0.0)

    def _capacity_at_window_start(self, key):
        cap = self.dual.baseline.get(key)
        if cap is None:
            cap = self.resources.free(*key)
            self.dual.baseline[key] = cap
        return cap

    def _score_one(self, req, config, table, q_eff):
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
                total += units * self._price((key[0], key[1], t))
        return total

    def select_config(self, req, fetch, q_eff):
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
        config = scored.config
        if scored.objective < 0.0:
            return self._reject(req, scored, REJECT_NEGATIVE, q_eff)

        usage = config_usage(req, config, self.vms)
        span = range(req.arrival, req.arrival + req.duration)
        for key in sorted(usage):
            for t in span:
                triple = (key[0], key[1], t)
                if self._price(triple) > 1.0:
                    return self._reject(req, scored, REJECT_CEILING, q_eff)
                if self._capacity_at_window_start(triple) <= 0.0:
                    return self._reject(req, scored, REJECT_CEILING, q_eff)

        if self.scenario.hard_capacity_guard and not self.resources.fits(
                usage, req.arrival, req.arrival + req.duration):
            return self._reject(req, scored, REJECT_CAPACITY, q_eff)

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
                pre = self._price(triple)
                cap = self._capacity_at_window_start(triple)
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

    def decide(self, req, fetch, q_eff):
        return self.admit(req, self.select_config(req, fetch, q_eff), q_eff)
