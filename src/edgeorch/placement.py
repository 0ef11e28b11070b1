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

import itertools
from dataclasses import dataclass

from .model import PlacementProfile, nearest_replica


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
    """Total fetch cost of a demand matrix under a placement profile."""
    total = 0.0
    for key in sorted(demand.entries):
        i, o = key
        total += demand.entries[key] * nearest_replica(i, o, placement, topo)[1]
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
        """Per-object saving of caching each object at the candidate cloud."""
        sav = {}
        for o, pairs in self.by_object.items():
            gain = 0.0
            for j, d in pairs:
                cur = self.current[(j, o)]
                after = 0.0 if j == candidate else min(cur, self.topo.latency(j, candidate))
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
                    lat = self.topo.latency(j, cloud)
                    if lat < self.current[(j, o)]:
                        self.current[(j, o)] = lat


def greedy_place(demand, cache_size, topo, catalog):
    """Fix one cloud per round, always the one whose best cache content
    (an exact knapsack over marginal savings) saves the most."""
    sizes = _integer_sizes(demand.objects(), catalog)
    tracker = _SavingsTracker(demand, topo)
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
    objective = placement_cost(profile, demand, topo)
    empty = PlacementProfile.empty(len(cache_size), cache_size)
    return PlacementSolution(profile, objective,
                             placement_cost(empty, demand, topo) - objective,
                             rounds)


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


def brute_force_place(demand, cache_size, topo, catalog, cap=2_000_000):
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
