"""Plain scalar rules kept as differential oracles for the fast paths.

`unit_transport_costs` prices one request at a time, the way every request
was priced before the per-slot transport matrix, and `cost_tables` cuts the
same per-request tables from a slot's transport rows.  `pack_requests`
packs hand-made requests by object name into the rows that
`generate_workload` packs while it draws.  `reference_score_one`
values one config of one request in scalar arithmetic, the way the online
allocator did before the score matrix became its only valuation, and
`reference_select_config` is the online allocator's config selection as it
was before the per-slot score matrix: it scores every config with
`reference_score_one`.  `ReferenceAllocator` is
the primal-dual admission rule as it was before the per-shape usage cache
and the window rows: it rebuilds each config's usage dict, keeps prices and
baselines in dicts keyed by (cloud, resource, fine slot), walks them with a
0.0 default, and scores against `unit_transport_costs` tables.
`ReferenceResourceState` is the capacity ledger keyed by the same triples,
`reference_best_content` the knapsack as a full DP over every candidate,
`reference_decide_window` and `reference_coarse_slot` the per-request
window loop and coarse slot that built one `Decision` per arrival,
`reference_greedy_place` the greedy placement that recomputes every
candidate's savings and knapsack in every round, and
`reference_brute_force_place` the exhaustive placement search as a scalar
loop over profiles, demand pairs and clouds.  `nearest_replica` resolves one
(cloud, object) read at a time; `reference_placement_cost` prices a demand
matrix through it, the way placements were priced before the fetch table,
and `reference_fetch_latencies` tabulates it per cloud, the table the
scalar transport rules read.  `reference_lookahead_oracle` is the frame
oracle with its own placement enumeration, capacity dict and per-profile
transport tables.
"""

import itertools

from edgeorch.allocator import (BONUS_SCALE, E_RATIO, REJECT_CAPACITY,
                                REJECT_CEILING, REJECT_NEGATIVE, Decision,
                                OnlineAllocator, Outcome, ScoredConfig,
                                check_price_scaling)
from edgeorch.model import (Lease, PackedRows, PlacementProfile,
                            config_usage, enumerate_configs, ordered_sum,
                            transport_rows)
from edgeorch.orchestrator import SlotReport, drift_plus_penalty_value
from edgeorch.placement import (PlacementSolution, _integer_sizes,
                                feasible_content_sets)

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


def reference_fetch_latencies(placement, topo, objects):
    """Unit latency at which each cloud reads each public object from its
    nearest replica: fetch[i][o]."""
    return [{o: nearest_replica(i, o, placement, topo)[1] for o in objects}
            for i in topo.clouds]


def unit_transport_costs(req, fetch, topo, catalog):
    """Per-VM transport cost table: {(k, i): cost of hosting one type-k VM at i}.

    Public objects come at their latency in the fetch table, a
    reference_fetch_latencies table, times object size.  An object the
    table lacks is private and streams from the request's ingress
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


def cost_tables(requests, costs):
    """Each request's transport table, {k: [cost of hosting one type-k VM
    at cloud i, for each cloud i]}, cut from its rows of transport_rows."""
    rows = iter(costs.tolist())
    return [{k: next(rows) for k in req.groups()} for req in requests]


def pack_requests(requests, publics, n_clouds, catalog):
    """Pack requests by object name, as generate_workload packs them while
    drawing; an unknown id raises ValueError."""
    column = {o: j for j, o in enumerate(publics)}
    sizes = catalog.sizes
    kind_of, kinds, starts, lengths, sources, weights = {}, [], [0], [], [], []
    try:
        for req in requests:
            kinds.append(kind_of.setdefault(req.key(), len(kind_of)))
            stream = len(column) + req.ingress
            groups = req.groups()
            for k in groups:
                objects = req.demand[k][1]
                lengths.append(len(objects))
                sources += [column.get(o, stream) for o in objects]
                weights += [sizes[o] for o in objects]
            starts.append(starts[-1] + len(groups))
    except KeyError as exc:
        raise ValueError(f"unknown object id {exc.args[0]!r}") from None
    return PackedRows.from_lists(publics, n_clouds, kind_of, kinds, starts,
                                 lengths, sources, weights)


def reference_score_one(allocator, req, shape, table, q_eff):
    """One config's (adjusted revenue, per-cloud adjusted revenue,
    transport cost, revenue): revenue per unit time net of cost-weighted
    transport, by cloud.  table is the request's entry of cost_tables."""
    v = allocator.scenario.v_weight
    duration = req.duration
    per_cloud = {}
    cost = 0.0
    for k, i, count, price in shape.terms:
        unit = table[k][i]
        cost += count * unit
        value = count * (v * price - q_eff * unit / duration)
        per_cloud[i] = per_cloud.get(i, 0.0) + value
    total = 0.0
    for i in shape.clouds:
        total += per_cloud[i]
    return total, per_cloud, cost, duration * shape.revenue_rate


def reference_select_config(self, req, table, q_eff):
    """Highest priced-out objective across all configs; first wins ties."""
    # a config on clouds without a price row is charged 0.0
    priced = self.dual.priced
    best = None
    for shape in self._shapes_for(req):
        scored = reference_score_one(self, req, shape, table, q_eff)
        charge = (0.0 if priced.isdisjoint(shape.clouds)
                  else self._charge(req, shape.rows))
        objective = req.duration * scored[0] - charge
        if best is None or objective > best[1]:
            best = (shape, objective, scored)
    shape, objective, (total, per_cloud, cost, revenue) = best
    return ScoredConfig(shape.config, objective, total, per_cloud, revenue,
                        cost, shape)


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
    """The scalar admission rule; decide() takes the slot's
    reference_fetch_latencies table."""

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
            revenue_rate += count * self.vms.prices[k]
            value = count * (v * self.vms.prices[k] - q_eff * unit / req.duration)
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

    def admit(self, req, scored):
        config = scored.config
        if scored.objective < 0.0:
            return self._reject(req, scored, REJECT_NEGATIVE)

        usage = config_usage(req, config, self.vms)
        span = range(req.arrival, req.arrival + req.duration)
        for key in sorted(usage):
            for t in span:
                triple = (key[0], key[1], t)
                if self._price(triple) > 1.0:
                    return self._reject(req, scored, REJECT_CEILING)
                if self._capacity_at_window_start(triple) <= 0.0:
                    return self._reject(req, scored, REJECT_CEILING)

        if self.scenario.hard_capacity_guard and not self.resources.fits(
                usage, req.arrival, req.arrival + req.duration):
            return self._reject(req, scored, REJECT_CAPACITY)

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

        return Outcome(None, scored.objective, config, scored.revenue,
                       scored.transport_cost, primal_delta, dual_delta)

    def decide(self, req, fetch, q_eff):
        return self.admit(req, self.select_config(req, fetch, q_eff))


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

    def free_row(self, key, start, stop):
        row = []
        for t in range(start, stop):
            row.append(self.free(*key, t))
        return row

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


def reference_best_content(items, capacity):
    """The exact 0/1 knapsack as a full DP over every candidate, with the
    capacity clamped to the total weight; among optima, the
    lexicographically least set.  Returns (chosen ids tuple, total value)."""
    n = len(items)
    cap = int(capacity)
    if cap > n:
        cap = min(cap, sum(w for _, w, _ in items))
    if n == 0 or cap <= 0:
        return (), 0.0
    best = [[0.0] * (cap + 1) for _ in range(n + 1)]
    for j in range(n - 1, -1, -1):
        _, w, v = items[j]
        row, nxt = best[j], best[j + 1]
        for c in range(cap + 1):
            keep = nxt[c]
            if w <= c:
                cand = v + nxt[c - w]
                if cand > keep:
                    keep = cand
            row[c] = keep
    chosen = []
    c = cap
    for j in range(n):
        o, w, v = items[j]
        if w <= c and v + best[j + 1][c - w] >= best[j][c] - 1e-12:
            chosen.append(o)
            c -= w
    return tuple(chosen), best[0][cap]


def reference_decide_window(allocator, requests, scores, slot):
    """One fine slot's arrivals decided one by one, one Decision each, as
    the window loop did before the decision log.  Under the online rule a
    request arriving elsewhere than the window start raises ValueError
    before any is decided, and while nothing is priced an arrival with a
    negative top is a negative-objective reject with alpha 0.0, read from
    its top; every other arrival goes to decide."""
    online = isinstance(allocator, OnlineAllocator)
    if online and any(req.arrival != allocator.dual.start
                      for req in requests):
        raise ValueError(f"window {allocator.dual.start} takes only its "
                         f"arrivals")
    decisions = []
    for req, (group, m) in zip(requests, scores):
        if online and not allocator.dual.priced and group.top[m] < 0.0:
            allocator.dual.alpha[req.req_id] = 0.0
            out = Outcome(REJECT_NEGATIVE, group.top[m])
        else:
            out = allocator.decide(req, (group, m))
        decisions.append(Decision(
            req.req_id, req.arrival, req.duration,
            "rejected" if out.reason else "accepted", out.reason, out.config,
            out.objective, out.primal_delta, out.dual_delta, out.revenue,
            out.transport_cost, slot))
    return decisions


def reference_coarse_slot(slot, queue, requests, rows, allocator, place,
                          placement):
    """One coarse slot as run_coarse_slot ran it before the decision log:
    each busy fine slot through reference_decide_window, then the accepted
    bundles' revenue, cost and placement in decision order.  Returns
    (SlotReport, new placement, decisions)."""
    scenario = allocator.scenario
    base = slot * scenario.fine_per_coarse
    q_eff = allocator.queue_weight(queue)
    scores = []
    if requests:
        scores = allocator.score_matrix(requests, rows, transport_rows(
            rows, placement, scenario.topology), q_eff)
    decisions, accepted = [], []
    revenue = cost = 0.0
    first = 0
    for t in range(base, base + scenario.fine_per_coarse):
        allocator.advance_fine_slot(t)
        stop = first
        while stop < len(requests) and requests[stop].arrival == t:
            stop += 1
        if stop == first:
            continue
        for n, d in zip(range(first, stop), reference_decide_window(
                allocator, requests[first:stop], scores[first:stop], slot)):
            decisions.append(d)
            if d.accepted:
                revenue += d.revenue
                cost += d.transport_cost
                accepted.append((requests[n], d.config))
        first = stop
    solution = place(accepted)
    report = SlotReport(slot, revenue, cost, queue, q_eff, len(requests),
                        len(accepted), drift_plus_penalty_value(
                            scenario.v_weight, revenue, queue, cost,
                            scenario.budget),
                        solution.objective, solution.savings)
    return report, solution.profile, decisions


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
            content, value = reference_best_content(items, cache_size[cloud])
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


def reference_lookahead_oracle(scenario, workload, n_frame, frame_index,
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
                       for o in objs if o in catalog.public})
    clouds = sorted(scenario.cache_size)
    per_cloud_sets = [feasible_content_sets(demanded, catalog,
                                            scenario.cache_size[i])
                      for i in clouds]
    space = 1
    for sets in per_cloud_sets:
        space *= len(sets)
    if space > profile_cap:
        raise ValueError(f"profile space {space} exceeds cap {profile_cap}")
    # one set of transport tables per candidate profile, over the frame's
    # requests
    fetches = [reference_fetch_latencies(
        PlacementProfile(dict(zip(clouds, combo)), scenario.cache_size), topo,
        demanded)
               for combo in itertools.product(*per_cloud_sets)]
    matrices = [[unit_transport_costs(req, fetch, topo, catalog)
                 for req in frame_reqs] for fetch in fetches]

    options = []   # per request: list of (config or None, revenue, usage)
    for req in frame_reqs:
        opts = [(None, 0.0, {})]
        for config in enumerate_configs(req, topo):
            rev = req.duration * ordered_sum(
                scenario.vms.prices[k] * req.demand[k][0]
                for k in config.assignment)
            opts.append((config, rev, config_usage(req, config, scenario.vms)))
        options.append(opts)

    def slot_of(req):
        return (req.arrival // fpc) - frame_index * n_frame

    def cost_under(n, config, tables):
        req, table = frame_reqs[n], tables[n]
        return ordered_sum(req.demand[k][0] * table[(k, i)]
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
