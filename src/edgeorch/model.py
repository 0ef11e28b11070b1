"""Shared system model: clouds, VM flavors, data objects, requests, leases.

Conventions used throughout the package:
  * clouds are integers 0..n-1, fine-grained time slots are integers
  * latencies double as unit transport prices (cost = latency * volume)
  * a request leases one bundle of VMs for a contiguous span of fine slots
"""

import itertools
from dataclasses import dataclass, field

ORIGIN = "origin"  # sentinel source for objects cached nowhere


class Topology:
    """Inter-cloud latency matrix plus per-cloud origin (backhaul) latency."""

    def __init__(self, latency, origin_latency, local_latency=None):
        self.w = [list(map(float, row)) for row in latency]
        self.origin = [float(x) for x in origin_latency]
        self.local = list(local_latency) if local_latency else [0.0] * len(self.w)
        self.n_clouds = len(self.w)
        self._validate()

    def _validate(self):
        n = self.n_clouds
        if n == 0:
            raise ValueError("topology has no clouds")
        for i, row in enumerate(self.w):
            if len(row) != n:
                raise ValueError("latency matrix is not square")
            if row[i] != 0.0:
                raise ValueError("latency diagonal must be zero")
            for j in range(n):
                if row[j] < 0:
                    raise ValueError("negative latency")
                if abs(row[j] - self.w[j][i]) > 1e-9:
                    raise ValueError("latency matrix must be symmetric")
        if len(self.origin) != n:
            raise ValueError("origin latency vector length mismatch")
        for i in range(n):
            peers = max(self.w[i][j] for j in range(n))
            if self.origin[i] < peers:
                raise ValueError("origin latency must dominate inter-cloud latency")

    @property
    def clouds(self):
        return range(self.n_clouds)

    def latency(self, i, j):
        return self.w[i][j]


class VMCatalog:
    """VM flavors: per-resource footprints g[k][r] and unit-time prices p[k]."""

    def __init__(self, recipes, prices, resources=None, price_scale=1.0):
        self.recipes = [list(map(float, g)) for g in recipes]
        self.base_prices = [float(p) for p in prices]
        self.n_resources = len(self.recipes[0]) if self.recipes else 0
        self.resources = list(resources) if resources else [f"r{r}" for r in range(self.n_resources)]
        self.price_scale = float(price_scale)
        if len(self.recipes) != len(self.base_prices):
            raise ValueError("recipes and prices length mismatch")
        for g in self.recipes:
            if len(g) != self.n_resources:
                raise ValueError("ragged recipe matrix")
            if any(x < 0 for x in g):
                raise ValueError("negative resource footprint")
            if not any(x > 0 for x in g):
                raise ValueError("recipe must occupy at least one resource")
        if any(p <= 0 for p in self.base_prices):
            raise ValueError("prices must be positive")
        if self.price_scale <= 0:
            raise ValueError("price scale must be positive")

    @property
    def n_types(self):
        return len(self.recipes)

    def footprint(self, k, r):
        return self.recipes[k][r]

    def price(self, k):
        return self.base_prices[k] * self.price_scale


class DataCatalog:
    """Object sizes and visibility. Private objects belong to a single request."""

    def __init__(self, sizes=None, visibility=None):
        self.sizes = dict(sizes) if sizes else {}
        self.visibility = dict(visibility) if visibility else {}
        for o in self.sizes:
            if self.sizes[o] <= 0:
                raise ValueError(f"object {o!r} must have positive size")
            self.visibility.setdefault(o, "public")

    def add(self, obj_id, size, visibility="public"):
        if obj_id in self.sizes:
            raise ValueError(f"duplicate object id {obj_id!r}")
        if size <= 0:
            raise ValueError(f"object {obj_id!r} must have positive size")
        self.sizes[obj_id] = size
        self.visibility[obj_id] = visibility

    def size(self, obj_id):
        try:
            return self.sizes[obj_id]
        except KeyError:
            raise ValueError(f"unknown object id {obj_id!r}") from None

    def is_public(self, obj_id):
        try:
            return self.visibility[obj_id] == "public"
        except KeyError:
            raise ValueError(f"unknown object id {obj_id!r}") from None

    def public_objects(self):
        return sorted(o for o, v in self.visibility.items() if v == "public")


@dataclass
class Request:
    """One VM-bundle request: per-type counts and the data each VM type reads."""

    req_id: int
    arrival: int          # fine slot
    duration: int         # fine slots held
    ingress: int          # cloud where the request (and its private data) enters
    demand: dict          # type k -> (count, tuple of object ids)
    service: str = ""

    def validate(self, catalog, n_types, n_clouds):
        if self.duration < 1:
            raise ValueError("request duration must be at least one fine slot")
        if not (0 <= self.ingress < n_clouds):
            raise ValueError("ingress cloud out of range")
        positive = 0
        for k, (count, objects) in self.demand.items():
            if not (0 <= k < n_types):
                raise ValueError(f"unknown VM type {k}")
            if count < 0:
                raise ValueError("negative VM count")
            if count > 0:
                positive += 1
            for o in objects:
                catalog.size(o)  # raises on unknown ids
        if positive == 0:
            raise ValueError("request demands no VMs")

    def groups(self):
        """Positive-count type groups in ascending type order."""
        return sorted(k for k, (n, _) in self.demand.items() if n > 0)


@dataclass
class AllocationConfig:
    """One feasible shape of a request: each type group pinned to one cloud."""

    assignment: dict      # type k -> cloud i, for positive-count types only


def enumerate_configs(req, topo):
    """All whole-group-to-one-cloud assignments, clouds ascending per type.

    The group for type k (all its VMs plus the data they read) is never split
    across clouds, so a request with G positive types has n_clouds**G configs.
    """
    if topo.n_clouds == 0:
        raise ValueError("topology has no clouds")
    groups = req.groups()
    if not groups:
        raise ValueError("request demands no VMs")
    configs = []
    for combo in itertools.product(range(topo.n_clouds), repeat=len(groups)):
        configs.append(AllocationConfig(dict(zip(groups, combo))))
    return configs


class PlacementProfile:
    """Which public objects each cloud caches right now."""

    def __init__(self, cached, cache_size):
        self.cached = {i: frozenset(objs) for i, objs in cached.items()}
        self.cache_size = dict(cache_size)

    @classmethod
    def empty(cls, n_clouds, cache_size):
        return cls({i: frozenset() for i in range(n_clouds)}, cache_size)

    def holds(self, i, obj_id):
        return obj_id in self.cached.get(i, ())

    def holders(self, obj_id):
        return [i for i in sorted(self.cached) if obj_id in self.cached[i]]

    def validate(self, catalog):
        for i, objs in self.cached.items():
            used = 0
            for o in objs:
                if not catalog.is_public(o):
                    raise ValueError(f"private object {o!r} cached at cloud {i}")
                used += catalog.size(o)
            if used > self.cache_size.get(i, 0) + 1e-9:
                raise ValueError(f"cache capacity exceeded at cloud {i}")


def nearest_replica(i, obj_id, placement, topo):
    """Resolve where cloud i fetches a public object from: (source, unit latency).

    Local hits are free; misses go to the cheapest caching cloud (ties to the
    lowest id) and fall back to the origin when nobody caches. Private
    objects stream from their request's ingress; NearestResolver handles them.
    """
    if placement.holds(i, obj_id):
        return i, 0.0
    best = None
    for j in placement.holders(obj_id):
        lat = topo.latency(i, j)
        if best is None or lat < best[1]:
            best = (j, lat)
    if best is None:
        return ORIGIN, topo.origin[i]
    return best


class NearestResolver:
    """Memoized nearest_replica for one placement profile.

    Profiles are swapped atomically at coarse-slot boundaries, so a resolver
    is valid for exactly one coarse slot.
    """

    def __init__(self, placement, topo, catalog):
        self.placement = placement
        self.topo = topo
        self.catalog = catalog
        self._memo = {}

    def lookup(self, i, obj_id, ingress=None):
        # private objects stream from the ingress cloud; not memoized, since
        # each (cloud, private object) pair is looked up once per request
        if not self.catalog.is_public(obj_id):
            if ingress is None:
                raise ValueError(f"private object {obj_id!r} needs its request ingress")
            return ingress, self.topo.latency(i, ingress)
        key = (i, obj_id)
        hit = self._memo.get(key)
        if hit is None:
            hit = nearest_replica(i, obj_id, self.placement, self.topo)
            self._memo[key] = hit
        return hit


def unit_transport_costs(req, resolver, catalog):
    """Per-VM transport cost table: {(k, i): cost of hosting one type-k VM at i}.

    Public objects already cached at the hosting cloud are free; everything
    else is fetched at nearest-replica (or origin) latency times object size.
    Private objects stream from the request's ingress cloud.
    """
    table = {}
    for k in req.groups():
        _, objects = req.demand[k]
        for i in resolver.topo.clouds:
            total = 0.0
            for o in objects:
                src, lat = resolver.lookup(i, o, ingress=req.ingress)
                total += lat * catalog.size(o)
            table[(k, i)] = total
    return table


def config_usage(req, config, vm_catalog):
    """Resource units the config occupies: {(i, r): units} for positive usage."""
    usage = {}
    for k, i in config.assignment.items():
        count = req.demand[k][0]
        for r in range(vm_catalog.n_resources):
            units = count * vm_catalog.footprint(k, r)
            if units > 0:
                usage[(i, r)] = usage.get((i, r), 0.0) + units
    return usage


@dataclass
class Lease:
    req_id: int
    start: int
    expiry: int           # first fine slot no longer held
    usage: dict           # (i, r) -> units


class ResourceState:
    """Per-cloud, per-resource, per-fine-slot capacity ledger.

    Commitments are indexed by the fine slots a lease covers, so forward
    availability (free units in a future slot) accounts for scheduled
    expirations without any explicit event processing.
    """

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
        """Recompute commitments from the lease list; raise on any mismatch."""
        fresh = {}
        for l in self.leases.values():
            for (i, r), units in l.usage.items():
                for t in range(max(l.start, self.now), l.expiry):
                    fresh[(i, r, t)] = fresh.get((i, r, t), 0.0) + units
        live = {k: v for k, v in self.committed.items() if k[2] >= self.now and v != 0}
        for key in set(fresh) | set(live):
            if abs(fresh.get(key, 0.0) - live.get(key, 0.0)) > 1e-6:
                raise AssertionError(f"commitment ledger mismatch at {key}")
