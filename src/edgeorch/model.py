"""Shared system model: clouds, VM flavors, data objects, requests, leases.

Conventions used throughout the package:
  * clouds are integers 0..n-1, fine-grained time slots are integers
  * latencies double as unit transport prices (cost = latency * volume)
  * a request leases one bundle of VMs for a contiguous span of fine slots
"""

import itertools
from dataclasses import dataclass

import numpy as np


def ordered_sum(values):
    """Float sum from 0.0, strictly left to right.  Builtin sum() matches it
    through Python 3.11 but compensates its rounding from 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


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

    def validate(self, catalog):
        for i, objs in self.cached.items():
            used = 0
            for o in objs:
                if not catalog.is_public(o):
                    raise ValueError(f"private object {o!r} cached at cloud {i}")
                used += catalog.size(o)
            if used > self.cache_size.get(i, 0) + 1e-9:
                raise ValueError(f"cache capacity exceeded at cloud {i}")


def fetch_latencies(placement, topo, objects):
    """Unit latency at which each cloud gets each public object: fetch[i][o].

    A cloud pays the latency to the nearest caching cloud, itself included
    at the zero diagonal, and the origin latency when nobody caches.
    Profiles are swapped atomically at coarse-slot boundaries, so one table
    prices every public read of a coarse slot.
    """
    holders = {o: [j for j, objs in placement.cached.items() if o in objs]
               for o in objects}
    return [{o: min([w[j] for j in held]) if held else origin
             for o, held in holders.items()}
            for w, origin in zip(topo.w, topo.origin)]


def transport_matrix(requests, fetch, topo, catalog):
    """Per-VM transport costs of every request in a batch, from one array.

    Returns one table per request, {k: [cost of hosting one type-k VM at
    cloud i, for each cloud i]}, cut from a single float array with one row
    per (request, positive type group) and one column per cloud.  Public
    objects come at their fetch-table latency times object size.  An object
    the table lacks is private and streams from the request's ingress
    cloud; an unknown id raises ValueError.  Each entry equals the scalar
    sum from 0.0 over its objects in order, bit for bit.
    """
    n = topo.n_clouds
    public = list(fetch[0])
    column = {o: j for j, o in enumerate(public)}
    # latency rows by source: one per public object, one per ingress cloud,
    # and a zero row for padding
    latency = np.array([[row[o] for row in fetch] for o in public]
                       + [list(col) for col in zip(*topo.w)] + [[0.0] * n])
    sizes = catalog.sizes
    groups, lengths, sources, weights = [], [], [], []
    try:
        for req in requests:
            keys = req.groups()
            groups.append(keys)
            stream = len(public) + req.ingress
            for k in keys:
                objects = req.demand[k][1]
                lengths.append(len(objects))
                sources += [column.get(o, stream) for o in objects]
                weights += [sizes[o] for o in objects]
    except KeyError as exc:
        raise ValueError(f"unknown object id {exc.args[0]!r}") from None
    lengths = np.array(lengths, dtype=np.intp)
    depth = int(lengths.max(initial=0))
    # position 0 and the tail past a row's objects are 0.0 terms, so every
    # row starts from 0.0 and pads with exact no-op additions
    source = np.full((len(lengths), depth + 1), len(latency) - 1, dtype=np.intp)
    size = np.zeros((len(lengths), depth + 1))
    # row-major order of the mask is the order objects were packed in
    filled = np.arange(1, depth + 1) <= lengths[:, None]
    source[:, 1:][filled] = sources
    size[:, 1:][filled] = weights
    # accumulate adds the terms strictly left to right
    terms = latency[source] * size[:, :, None]
    rows = iter(np.add.accumulate(terms, axis=1)[:, -1].tolist())
    return [{k: next(rows) for k in keys} for keys in groups]


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

    Commitments are kept as one {fine slot: units} row per (cloud,
    resource), indexed by the fine slots a lease covers, so forward
    availability (free units in a future slot) accounts for scheduled
    expirations without any explicit event processing.
    """

    def __init__(self, capacity):
        self.capacity = {k: float(v) for k, v in capacity.items()}
        self.committed = {k: {} for k in self.capacity}  # (i, r) -> {t: units}
        self.leases = {}      # req_id -> Lease
        self.now = 0
        self.end = 0          # first fine slot after every lease
        self.high_water = {}  # (i, r) -> max commitment ever seen

    def free_row(self, key, start, stop):
        """Free units of one (cloud, resource) in fine slots start..stop-1."""
        cap = self.capacity[key]
        get = self.committed[key].get
        return [cap - get(t, 0.0) for t in range(start, stop)]

    def fits(self, usage, start, expiry, slack=1e-9):
        capacity, committed = self.capacity, self.committed
        for key, units in usage.items():
            cap = capacity[key]
            get = committed[key].get
            for t in range(start, expiry):
                if cap - get(t, 0.0) + slack < units:
                    return False
        return True

    def lease(self, req_id, usage, start, expiry):
        if expiry <= start:
            raise ValueError("lease must cover at least one fine slot")
        if start < self.now:
            raise ValueError("lease cannot start in the past")
        if req_id in self.leases:
            raise ValueError(f"request {req_id} already holds a lease")
        high_water = self.high_water
        for key, units in usage.items():
            row = self.committed.setdefault(key, {})
            get = row.get
            peak = 0.0
            for t in range(start, expiry):
                level = row[t] = get(t, 0.0) + units
                if level > peak:
                    peak = level
            if peak > high_water.get(key, 0.0):
                high_water[key] = peak
        self.leases[req_id] = Lease(req_id, start, expiry, dict(usage))
        if expiry > self.end:
            self.end = expiry

    def advance(self, now):
        if now < self.now:
            raise ValueError("time cannot run backwards")
        # every commitment lies in [previous now, end): drop the slots passed
        passed = range(self.now, min(now, self.end))
        self.now = now
        expired = [l for l in self.leases.values() if l.expiry <= now]
        for l in expired:
            del self.leases[l.req_id]
        rows = self.committed.values()
        for t in passed:
            for row in rows:
                row.pop(t, None)

    def audit(self):
        """Recompute commitments from the lease list; raise on any mismatch."""
        fresh = {}
        for l in self.leases.values():
            for (i, r), units in l.usage.items():
                for t in range(max(l.start, self.now), l.expiry):
                    fresh[(i, r, t)] = fresh.get((i, r, t), 0.0) + units
        live = {(i, r, t): v for (i, r), row in self.committed.items()
                for t, v in row.items() if t >= self.now and v != 0}
        for key in set(fresh) | set(live):
            if abs(fresh.get(key, 0.0) - live.get(key, 0.0)) > 1e-6:
                raise AssertionError(f"commitment ledger mismatch at {key}")
