"""Periodic public-data placement driven by last slot's demand.

The cost of a placement is the volume-weighted latency every cloud pays to
fetch the public objects its tenants read.  Replicas help everyone (clouds
fetch from the nearest cache), which makes the cost function supermodular in
the set of (cloud, content) choices and the savings function submodular, so
a greedy pass that repeatedly fixes the cloud with the largest marginal
saving is within half of the optimal saving.

Each greedy round solves one exact 0/1 knapsack per still-unfixed cloud:
object sizes are the weights and the current marginal savings the values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import PlacementProfile, fetch_latencies


@dataclass
class DemandMatrix:
    slot: int
    entries: dict             # (cloud, object id) -> size-weighted demand

    def objects(self):
        return sorted({o for _, o in self.entries})

    def total_by_object(self):
        totals = {}
        for (_, o), d in self.entries.items():
            totals[o] = totals.get(o, 0.0) + d
        return totals

    def copy(self):
        return DemandMatrix(self.slot, dict(self.entries))


def aggregate_demand(accepted, catalog, slot):
    """Size-weighted public-object demand per cloud from accepted bundles.

    An object counts whether or not it was cached when the request was
    admitted: the matrix measures what tenants read, not what they missed.
    """
    entries = {}
    for req, config in accepted:
        for k, i in config.assignment.items():
            count, objects = req.demand[k]
            if count <= 0:
                continue
            for o in objects:
                if not catalog.is_public(o):
                    continue
                key = (i, o)
                entries[key] = entries.get(key, 0.0) + count * catalog.size(o)
    return DemandMatrix(slot, entries)


def placement_cost(placement, demand, topo):
    """Total fetch cost of a demand matrix under a placement profile, summed
    in sorted (cloud, object) order from 0.0."""
    fetch = fetch_latencies(placement, topo, {o for _, o in demand.entries})
    total = 0.0
    for (i, o), d in sorted(demand.entries.items()):
        total += d * fetch[i][o]
    return total


@dataclass
class PlacementSolution:
    profile: PlacementProfile
    objective: float          # placement cost of the final profile
    savings: float            # cost with empty caches minus objective
    rounds: list              # (cloud fixed, marginal saving, content tuple)


def _integer_sizes(objects, catalog):
    sizes = {}
    for o in objects:
        s = catalog.size(o)
        if int(s) != s:
            raise ValueError(f"placement needs integer object sizes, got {s!r} for {o!r}")
        sizes[o] = int(s)
    return sizes


def _best_content(items, capacity):
    """Exact 0/1 knapsack; among optima, the lexicographically least set.

    items: (object id, weight, value) sorted by id, all values positive.
    Returns (chosen ids tuple, total value).
    """
    n = len(items)
    cap = int(capacity)
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


class _SavingsTracker:
    """Current fetch latencies while the greedy fixes clouds one by one.

    Unfixed clouds count as empty: their tenants fetch from origin or from
    replicas fixed in earlier rounds.
    """

    def __init__(self, demand, topo):
        self.w = topo.w
        self.by_object = {}   # o -> list of (cloud, demand)
        for (i, o), d in sorted(demand.entries.items()):
            if d > 0:
                self.by_object.setdefault(o, []).append((i, d))
        self.current = {}     # o -> latency each of its clouds pays right now
        for o, pairs in self.by_object.items():
            self.current[o] = [topo.origin[i] for i, _ in pairs]

    def saving(self, o, candidate):
        """Saving of caching object o at the candidate cloud."""
        gain = 0.0
        for (j, d), cur in zip(self.by_object[o], self.current[o]):
            after = 0.0 if j == candidate else min(cur, self.w[j][candidate])
            if cur > after:
                gain += d * (cur - after)
        return gain

    def marginal_savings(self, candidate):
        """Per-object saving of caching each object at the candidate cloud."""
        sav = {}
        for o in self.by_object:
            gain = self.saving(o, candidate)
            if gain > 0.0:
                sav[o] = gain
        return sav

    def fix(self, cloud, content):
        for o in content:
            current = self.current[o]
            for n, (j, _) in enumerate(self.by_object[o]):
                if j == cloud:
                    current[n] = 0.0
                elif self.w[j][cloud] < current[n]:
                    current[n] = self.w[j][cloud]


def greedy_place(demand, cache_size, topo, catalog):
    """Fix one cloud per round, always the one whose best cache content
    (an exact knapsack over marginal savings) saves the most.

    Fixing a cloud's content changes the latencies of those objects only,
    so after each round only their savings are recomputed, and only the
    clouds whose savings changed solve their knapsack again."""
    sizes = _integer_sizes(demand.objects(), catalog)
    tracker = _SavingsTracker(demand, topo)
    unfixed = sorted(cache_size)
    savings = {cloud: tracker.marginal_savings(cloud) for cloud in unfixed}

    def solve(cloud):
        sav = savings[cloud]
        return _best_content([(o, sizes[o], sav[o]) for o in sorted(sav)],
                             cache_size[cloud])

    best = {cloud: solve(cloud) for cloud in unfixed}
    cached = {}
    rounds = []
    while unfixed:
        pick = None
        for cloud in unfixed:
            content, value = best[cloud]
            if pick is None or value > pick[1] + 1e-12:
                pick = (cloud, value, content)
        fixed, value, content = pick
        cached[fixed] = content
        tracker.fix(fixed, content)
        rounds.append(pick)
        unfixed.remove(fixed)
        for cloud in unfixed:
            sav = savings[cloud]
            changed = False
            for o in content:
                gain = tracker.saving(o, cloud)
                if gain > 0.0:
                    changed |= sav.get(o) != gain
                    sav[o] = gain
                elif o in sav:
                    del sav[o]
                    changed = True
            if changed:
                best[cloud] = solve(cloud)
    profile = PlacementProfile(cached, cache_size)
    profile.validate(catalog)
    # the tracker now holds each positive entry's latency under the final
    # profile; demand is never negative and zero entries add nothing
    final = {(i, o): lat for o, pairs in tracker.by_object.items()
             for (i, _), lat in zip(pairs, tracker.current[o])}
    objective = empty = 0.0
    for (i, o), d in sorted(demand.entries.items()):
        if (i, o) in final:
            objective += d * final[(i, o)]
            empty += d * topo.origin[i]
    return PlacementSolution(profile, objective, empty - objective, rounds)


def feasible_content_sets(objects, catalog, capacity):
    """All subsets of the given objects that fit in a cache, sorted."""
    sizes = _integer_sizes(objects, catalog)
    objs = sorted(objects)
    sets = []

    def walk(idx, room, acc):
        sets.append(tuple(acc))
        for j in range(idx, len(objs)):
            o = objs[j]
            if sizes[o] <= room:
                acc.append(o)
                walk(j + 1, room - sizes[o], acc)
                acc.pop()

    walk(0, int(capacity), [])
    return sorted(sets)


def _scan_best(costs):
    """Index a left-to-right scan keeps as its best: start at 0, then move
    to the first later cost more than 1e-12 below the current best's.

    Every move lands on a strict prefix minimum, so only those are scanned.
    """
    prefix = np.minimum.accumulate(costs)
    records = np.flatnonzero(costs[1:] < prefix[:-1]) + 1
    best, best_cost = 0, float(costs[0])
    for j, cost in zip(records.tolist(), costs[records].tolist()):
        if cost < best_cost - 1e-12:
            best, best_cost = j, cost
    return best


def brute_force_place(demand, cache_size, topo, catalog, cap=2_000_000):
    """Exhaustive minimum-cost placement over demanded objects.

    Only objects with positive demand are considered; caching anything else
    can never lower the cost.  Raises when the product of per-cloud feasible
    sets exceeds the cap.

    Every profile is scored in one array pass.  Axis n of the cost array
    runs over cloud n's content sets, so its flat order is the order of
    itertools.product.  Each positive demand pair's latency is broadcast
    from per-cloud membership vectors, and each profile's cost adds the
    pairs in sorted key order from 0.0, as a scalar loop over profiles would.
    """
    objects = demand.objects()
    clouds = sorted(cache_size)
    per_cloud = [feasible_content_sets(objects, catalog, cache_size[i]) for i in clouds]
    shape = tuple(len(sets) for sets in per_cloud)
    space = math.prod(shape)
    if space > cap:
        raise ValueError(f"brute force search space {space} exceeds cap {cap}")
    held = []   # per cloud: o -> which of its content sets hold o, on its axis
    for n, sets in enumerate(per_cloud):
        member = {}
        for k, content in enumerate(sets):
            for o in content:
                member.setdefault(o, np.zeros(len(sets), dtype=bool))[k] = True
        axis = [-1 if m == n else 1 for m in range(len(shape))]
        held.append({o: m.reshape(axis) for o, m in member.items()})
    pairs = [(i, o, d) for (i, o), d in sorted(demand.entries.items()) if d > 0]
    cost = np.zeros(shape)
    for i, o, d in pairs:
        lat = topo.origin[i]
        own = None
        for n, c in enumerate(clouds):
            mask = held[n].get(o)
            if mask is None:
                continue
            if c == i:
                own = mask
            else:
                lat = np.minimum(lat, np.where(mask, topo.w[i][c], np.inf))
        if own is not None:
            lat = np.where(own, 0.0, lat)
        cost += float(d) * lat
    costs = cost.ravel()
    best = _scan_best(costs)
    combo = np.unravel_index(best, shape)
    profile = PlacementProfile({c: sets[k] for c, sets, k
                                in zip(clouds, per_cloud, combo)}, cache_size)
    return profile, float(costs[best])


def random_placement_instance(rng, max_space=20_000):
    """Small random instance for cross-checking greedy against brute force.

    Up to 3 clouds and 8 objects with integer sizes up to 3.  Redraws any
    instance whose exhaustive search space would exceed max_space so a batch
    of cross-checks stays cheap.
    """
    from .model import DataCatalog, Topology
    while True:
        n_clouds = int(rng.integers(2, 4))
        n_objects = int(rng.integers(2, 9))
        w = [[0.0] * n_clouds for _ in range(n_clouds)]
        for i in range(n_clouds):
            for j in range(i + 1, n_clouds):
                w[i][j] = w[j][i] = round(float(rng.uniform(20, 50)), 1)
        origin = [round(float(rng.uniform(100, 200)), 1) for _ in range(n_clouds)]
        local = [round(float(rng.uniform(5, 10)), 1) for _ in range(n_clouds)]
        topo = Topology(w, origin, local)
        catalog = DataCatalog({f"o{j}": int(rng.integers(1, 4))
                               for j in range(n_objects)})
        cache = {i: float(rng.integers(1, 5)) for i in range(n_clouds)}
        entries = {}
        for i in range(n_clouds):
            for o in sorted(catalog.sizes):
                if rng.random() < 0.6:
                    entries[(i, o)] = float(rng.integers(1, 11))
        demand = DemandMatrix(0, entries)
        space = 1
        for i in range(n_clouds):
            space *= len(feasible_content_sets(demand.objects(), catalog,
                                               cache[i]))
        if entries and space <= max_space:
            return demand, cache, topo, catalog


def top_popularity_place(demand, cache_size, catalog):
    """Each cloud independently caches its own hottest objects by demand
    density until its cache is full.  No coordination across clouds."""
    sizes = _integer_sizes(demand.objects(), catalog)
    per_cloud = {}
    for (i, o), d in demand.entries.items():
        if d > 0:
            per_cloud.setdefault(i, []).append((d / sizes[o], o))
    cached = {i: () for i in cache_size}
    for i, scored in per_cloud.items():
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        room = int(cache_size.get(i, 0))
        chosen = []
        for _, o in scored:
            if sizes[o] <= room:
                chosen.append(o)
                room -= sizes[o]
        cached[i] = tuple(chosen)
    profile = PlacementProfile(cached, cache_size)
    profile.validate(catalog)
    return profile
