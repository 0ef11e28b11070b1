"""Plain scalar rules kept as differential oracles for the fast paths.

`unit_transport_costs` prices one request at a time, the way every request
was priced before the per-slot transport matrix.  `ReferenceAllocator` is
the primal-dual admission rule as it was before the per-shape usage cache
and the window rows: it rebuilds each config's usage dict, keeps prices and
baselines in dicts keyed by (cloud, resource, fine slot), walks them with a
0.0 default, and scores against `unit_transport_costs` tables.
`ReferenceResourceState` is the capacity ledger keyed by the same triples,
`reference_greedy_place` the greedy placement that recomputes every
candidate's savings and knapsack in every round, and
`reference_brute_force_place` the exhaustive placement search as a scalar
loop over profiles, demand pairs and clouds.  `nearest_replica` resolves one
(cloud, object) read at a time, and `reference_placement_cost` prices a
demand matrix through it, the way placements were priced before the fetch
table.
"""

import itertools

from edgeorch.allocator import (BONUS_SCALE, E_RATIO, REJECT_CAPACITY,
                                REJECT_CEILING, REJECT_NEGATIVE, Decision,
                                OnlineAllocator, ScoredConfig,
                                check_price_scaling)
from edgeorch.model import (Lease, PlacementProfile, config_usage,
                            enumerate_configs)
from edgeorch.placement import (PlacementSolution, _best_content,
                                _integer_sizes, feasible_content_sets)

ORIGIN = "origin"  # sentinel source for objects cached nowhere


def nearest_replica(i, obj_id, placement, topo):
    """Resolve where cloud i fetches a public object from: (source, unit latency).

    Local hits are free; misses go to the cheapest caching cloud (ties to the
    lowest id) and fall back to the origin when nobody caches.
    """
    if obj_id in placement.cached.get(i, ()):
        return i, 0.0
    best = None
    for j in sorted(placement.cached):
        if obj_id not in placement.cached[j]:
            continue
        lat = topo.w[i][j]
        if best is None or lat < best[1]:
            best = (j, lat)
    if best is None:
        return ORIGIN, topo.origin[i]
    return best


def reference_placement_cost(placement, demand, topo):
    """Total fetch cost of a demand matrix, one nearest-replica lookup per
    entry, in sorted (cloud, object) order."""
    total = 0.0
    for key in sorted(demand.entries):
        i, o = key
        total += demand.entries[key] * nearest_replica(i, o, placement, topo)[1]
    return total


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


class TripleDualState:
    """Window prices and baselines keyed by (cloud, resource, fine slot)."""

    def __init__(self):
        self.beta = {}
        self.baseline = {}
        self.alpha = {}

    def advance(self, now):
        self.beta.clear()
        self.baseline.clear()


class ReferenceAllocator(OnlineAllocator):
    """The scalar admission rule; decide() takes the slot's fetch table."""

    def __init__(self, scenario, catalog, resources):
        super().__init__(scenario, resources)
        self.dual = TripleDualState()
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
                                    revenue, cost, None)
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


class ReferenceResourceState:
    """The capacity ledger keyed by (cloud, resource, fine slot) triples,
    which scans every key on each advance."""

    def __init__(self, capacity):
        self.capacity = {k: float(v) for k, v in capacity.items()}
        self.committed = {}   # (i, r, t) -> units
        self.leases = {}      # req_id -> Lease
        self.now = 0
        self.high_water = {}  # (i, r) -> max commitment ever seen

    def free(self, i, r, t):
        return self.capacity[(i, r)] - self.committed.get((i, r, t), 0.0)

    def fits(self, usage, start, expiry, slack=1e-9):
        for (i, r), units in usage.items():
            for t in range(start, expiry):
                if self.free(i, r, t) + slack < units:
                    return False
        return True

    def lease(self, req_id, usage, start, expiry):
        if expiry <= start:
            raise ValueError("lease must cover at least one fine slot")
        if start < self.now:
            raise ValueError("lease cannot start in the past")
        if req_id in self.leases:
            raise ValueError(f"request {req_id} already holds a lease")
        for (i, r), units in usage.items():
            for t in range(start, expiry):
                level = self.committed.get((i, r, t), 0.0) + units
                self.committed[(i, r, t)] = level
                if level > self.high_water.get((i, r), 0.0):
                    self.high_water[(i, r)] = level
        self.leases[req_id] = Lease(req_id, start, expiry, dict(usage))

    def advance(self, now):
        if now < self.now:
            raise ValueError("time cannot run backwards")
        self.now = now
        expired = [l for l in self.leases.values() if l.expiry <= now]
        for l in expired:
            del self.leases[l.req_id]
        for key in [k for k in self.committed if k[2] < now]:
            del self.committed[key]

    def audit(self):
        fresh = {}
        for l in self.leases.values():
            for (i, r), units in l.usage.items():
                for t in range(max(l.start, self.now), l.expiry):
                    fresh[(i, r, t)] = fresh.get((i, r, t), 0.0) + units
        live = {k: v for k, v in self.committed.items() if k[2] >= self.now and v != 0}
        for key in set(fresh) | set(live):
            if abs(fresh.get(key, 0.0) - live.get(key, 0.0)) > 1e-6:
                raise AssertionError(f"commitment ledger mismatch at {key}")


class _ReferenceSavingsTracker:
    """Current fetch latencies, keyed by (cloud, object)."""

    def __init__(self, demand, topo):
        self.topo = topo
        self.by_object = {}   # o -> list of (cloud, demand)
        for (i, o), d in sorted(demand.entries.items()):
            if d > 0:
                self.by_object.setdefault(o, []).append((i, d))
        self.current = {}     # (cloud, o) -> latency paid right now
        for o, pairs in self.by_object.items():
            for i, _ in pairs:
                self.current[(i, o)] = topo.origin[i]

    def marginal_savings(self, candidate):
        sav = {}
        for o, pairs in self.by_object.items():
            gain = 0.0
            for j, d in pairs:
                cur = self.current[(j, o)]
                after = 0.0 if j == candidate else min(cur, self.topo.w[j][candidate])
                if cur > after:
                    gain += d * (cur - after)
            if gain > 0.0:
                sav[o] = gain
        return sav

    def fix(self, cloud, content):
        for o in content:
            for j, _ in self.by_object.get(o, ()):
                if j == cloud:
                    self.current[(j, o)] = 0.0
                else:
                    lat = self.topo.w[j][cloud]
                    if lat < self.current[(j, o)]:
                        self.current[(j, o)] = lat


def reference_greedy_place(demand, cache_size, topo, catalog):
    """Greedy placement that recomputes every unfixed cloud's savings and
    knapsack in every round."""
    sizes = _integer_sizes(demand.objects(), catalog)
    tracker = _ReferenceSavingsTracker(demand, topo)
    unfixed = sorted(cache_size)
    cached = {}
    rounds = []
    while unfixed:
        best = None
        for cloud in unfixed:
            sav = tracker.marginal_savings(cloud)
            items = [(o, sizes[o], sav[o]) for o in sorted(sav)]
            content, value = _best_content(items, cache_size[cloud])
            if best is None or value > best[1] + 1e-12:
                best = (cloud, value, content)
        cloud, value, content = best
        cached[cloud] = content
        tracker.fix(cloud, content)
        rounds.append((cloud, value, content))
        unfixed.remove(cloud)
    profile = PlacementProfile(cached, cache_size)
    profile.validate(catalog)
    objective = reference_placement_cost(profile, demand, topo)
    empty = PlacementProfile.empty(len(cache_size), cache_size)
    return PlacementSolution(
        profile, objective,
        reference_placement_cost(empty, demand, topo) - objective, rounds)


def reference_brute_force_place(demand, cache_size, topo, catalog, cap=2_000_000):
    """Exhaustive minimum-cost placement over demanded objects.

    Only objects with positive demand are considered; caching anything else
    can never lower the cost.  Raises when the product of per-cloud feasible
    sets exceeds the cap.
    """
    objects = demand.objects()
    clouds = sorted(cache_size)
    per_cloud = [feasible_content_sets(objects, catalog, cache_size[i]) for i in clouds]
    space = 1
    for sets in per_cloud:
        space *= len(sets)
    if space > cap:
        raise ValueError(f"brute force search space {space} exceeds cap {cap}")
    pairs = [(i, o, d) for (i, o), d in sorted(demand.entries.items()) if d > 0]
    w, origin = topo.w, topo.origin
    best = None
    for combo in itertools.product(*per_cloud):
        cost = 0.0
        for i, o, d in pairs:
            row = w[i]
            lat = origin[i]
            for n, content in enumerate(combo):
                if o in content:
                    if clouds[n] == i:
                        lat = 0.0
                        break
                    cand = row[clouds[n]]
                    if cand < lat:
                        lat = cand
            cost += d * lat
        if best is None or cost < best[0] - 1e-12:
            best = (cost, combo)
    profile = PlacementProfile(dict(zip(clouds, best[1])), cache_size)
    return profile, best[0]
