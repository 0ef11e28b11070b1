"""Shared system model: clouds, VM flavors, data objects, requests, leases.

Conventions used throughout the package:
  * clouds are integers 0..n-1, fine-grained time slots are integers
  * latencies double as unit transport prices (cost = latency * volume)
  * a request leases one bundle of VMs for a contiguous span of fine slots
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def ordered_sum(values):
    """Float sum from 0.0, strictly left to right.  Builtin sum() matches it
    through Python 3.11 but compensates its rounding from 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


class _draws:
    """double(), integer(lo, hi), uniform(lo, hi) and poisson(lam): a PCG64
    Generator's random(), integers(lo, hi + 1), uniform and poisson, bit for
    bit, decoded from blocks of raw 64-bit outputs, each once into numpy's
    double and the low and high 32-bit halves PCG64 hands out in turn.  The
    generator runs ahead by a block, so only the decoder draws from it; for
    any other draw, numpy() rewinds it to the decoded position."""

    def __init__(self, rng):
        self._rng, self._size = rng, 64   # blocks double up to 4096 outputs
        self._i = self._n = self._has = 0  # block read to i of n; no half

    def _refill(self):
        bits = self._rng.bit_generator
        self._start = start = bits.state
        if not self._n:          # no block was out: the generator's buffer
            self._has, self._half = start["has_uint32"], start["uinteger"]
        raw = bits.random_raw(self._size)
        self._size = min(2 * self._size, 4096)
        self._doubles = ((raw >> 11) * 2.0**-53).tolist()
        self._low, self._high = (raw & 0xFFFFFFFF).tolist(), (raw >> 32).tolist()
        self._i, self._n = 0, len(raw)

    def numpy(self):
        """The Generator at the decoded position; a new block follows."""
        if self._n:
            bits = self._rng.bit_generator
            bits.state = self._start
            bits.state = {**bits.advance(self._i).state,
                          "has_uint32": self._has, "uinteger": self._half}
            # the generator holds the buffer; blocks start small again
            self._i, self._n, self._has, self._size = 0, 0, 0, 64
        return self._rng

    def double(self):
        i = self._i
        if i == self._n:
            self._refill()
            i = 0
        self._i = i + 1
        return self._doubles[i]

    def _uint32(self):
        if self._has:
            self._has = 0
            return self._half
        i = self._i
        if i == self._n:
            self._refill()
            return self._uint32()   # the generator may have buffered a half
        self._i, self._has, self._half = i + 1, 1, self._high[i]
        return self._low[i]

    def integer(self, lo, hi):
        excl = hi - lo + 1
        if not 1 < excl < 2**32:     # numpy draws nothing for a single value
            return lo if excl == 1 else int(self.numpy().integers(lo, hi + 1))
        m = self._uint32() * excl    # numpy's Lemire rejection
        if m & 0xFFFFFFFF < excl:
            threshold = (0x100000000 - excl) % excl   # 2**32 mod excl
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * excl
        return lo + (m >> 32)

    def uniform(self, lo, hi):
        return float(lo) + (float(hi) - float(lo)) * self.double()

    def poisson(self, lam):
        if not 0 < lam < 10:     # numpy draws nothing at 0
            return 0 if lam == 0 else int(self.numpy().poisson(lam))
        # numpy's multiplication method for small means
        count, prod, limit = 0, self.double(), math.exp(-lam)
        while prod > limit:
            count += 1
            prod *= self.double()
        return count


class Topology:
    """Inter-cloud latency matrix plus per-cloud origin (backhaul) latency."""

    def __init__(self, latency, origin_latency):
        self.w = [list(map(float, row)) for row in latency]
        self.origin = [float(x) for x in origin_latency]
        self.n_clouds = n = len(self.w)
        if n == 0:
            raise ValueError("topology has no clouds")
        for i, row in enumerate(self.w):
            if len(row) != n:
                raise ValueError("latency matrix is not square")
            if row[i] != 0.0:
                raise ValueError("latency diagonal must be zero")
            for j in range(n):
                if not 0 <= row[j] < math.inf:    # also false for NaN
                    raise ValueError("latency must be finite and non-negative")
                if abs(row[j] - self.w[j][i]) > 1e-9:
                    raise ValueError("latency matrix must be symmetric")
        if len(self.origin) != n:
            raise ValueError("origin latency vector length mismatch")
        for i in range(n):
            peers = max(self.w[i][j] for j in range(n))
            if not peers <= self.origin[i] < math.inf:
                raise ValueError("origin latency must be finite and dominate "
                                 "inter-cloud latency")

    @property
    def clouds(self):
        return range(self.n_clouds)


class VMCatalog:
    """VM flavors: per-resource footprints g[k][r] and unit-time prices p[k]."""

    def __init__(self, recipes, prices, resources=None):
        self.recipes = [list(map(float, g)) for g in recipes]
        if not self.recipes:
            raise ValueError("a VM catalog needs at least one VM type")
        self.prices = [float(p) for p in prices]
        self.n_resources = len(self.recipes[0])
        self.resources = list(resources) if resources else [f"r{r}" for r in range(self.n_resources)]
        if len(self.recipes) != len(self.prices):
            raise ValueError("recipes and prices length mismatch")
        for g in self.recipes:
            if len(g) != self.n_resources:
                raise ValueError("ragged recipe matrix")
            if not all(0 <= x < math.inf for x in g):
                raise ValueError("resource footprints must be finite and "
                                 "non-negative")
            if not any(x > 0 for x in g):
                raise ValueError("recipe must occupy at least one resource")
        if not all(0 < p < math.inf for p in self.prices):
            raise ValueError("prices must be finite and positive")

    @property
    def n_types(self):
        return len(self.recipes)


class DataCatalog:
    """Object sizes.  The objects a catalog is built with are public; those
    added later are private, each read by a single request."""

    def __init__(self, sizes=None):
        self.sizes = dict(sizes) if sizes else {}
        for o in self.sizes:
            if not 0 < self.sizes[o] < math.inf:
                raise ValueError(f"object {o!r} must have a finite positive size")
        self.public = frozenset(self.sizes)

    def add_many(self, obj_ids, size):
        """Insert private objects of one size, all under new ids."""
        if not 0 < size < math.inf:
            raise ValueError("objects must have a finite positive size")
        fresh = dict.fromkeys(obj_ids, size)
        if len(fresh) < len(obj_ids) or not self.sizes.keys().isdisjoint(fresh):
            taken = next(o for j, o in enumerate(obj_ids)
                         if o in self.sizes or o in obj_ids[:j])
            raise ValueError(f"duplicate object id {taken!r}")
        self.sizes.update(fresh)

    def size(self, obj_id):
        try:
            return self.sizes[obj_id]
        except KeyError:
            raise ValueError(f"unknown object id {obj_id!r}") from None

    def public_objects(self):
        return sorted(self.public)


@dataclass
class Request:
    """One VM-bundle request: per-type counts and the data each VM type reads."""

    req_id: int
    arrival: int          # fine slot
    duration: int         # fine slots held
    ingress: int          # cloud where the request (and its private data) enters
    demand: dict          # type k -> (count, tuple of object ids)

    def validate(self, catalog, n_types, n_clouds):
        if self.duration < 1:
            raise ValueError("request duration must be at least one fine slot")
        if not (0 <= self.ingress < n_clouds):
            raise ValueError("ingress cloud out of range")
        known = catalog.sizes
        positive = 0
        for k, (count, objects) in self.demand.items():
            if not (0 <= k < n_types):
                raise ValueError(f"unknown VM type {k}")
            if count < 0:
                raise ValueError("negative VM count")
            if count > 0:
                positive += 1
            for o in objects:
                if o not in known:
                    raise ValueError(f"unknown object id {o!r}")
        if positive == 0:
            raise ValueError("request demands no VMs")

    def groups(self):
        """Positive-count type groups in ascending type order."""
        return sorted(k for k, (n, _) in self.demand.items() if n > 0)

    def key(self):
        """Its (type, count) pairs, in demand order: what its configs use."""
        return tuple([(k, group[0]) for k, group in self.demand.items()])


@dataclass
class AllocationConfig:
    """One feasible shape of a request: each type group pinned to one cloud."""

    assignment: dict      # type k -> cloud i, for positive-count types only


def enumerate_configs(req, topo):
    """All whole-group-to-one-cloud assignments, clouds ascending per type.

    The group for type k (all its VMs plus the data they read) is never split
    across clouds, so a request with G positive types has n_clouds**G configs.
    """
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
                if o not in catalog.public:
                    raise ValueError(f"non-public object {o!r} cached at cloud {i}")
                used += catalog.size(o)
            if used > self.cache_size.get(i, 0) + 1e-9:
                raise ValueError(f"cache capacity exceeded at cloud {i}")


class PackedRows(NamedTuple):
    """The object reads of a request list as flat arrays, in list order.

    There is one row per (request, positive type group), groups ascending:
    request n owns rows starts[n]..starts[n+1]-1, and row m owns entries
    offsets[m]..offsets[m+1]-1.  An entry is one object read, in the order
    the group lists its objects: a source column and the object's size.  A
    public object's source is its index in `publics`; any other object is
    private and streams from the request's ingress, source len(publics) +
    ingress.  Request n is of kind kinds[n], and keys[kinds[n]] is its
    Request.key(); keys are numbered in order of first appearance.
    """

    publics: tuple            # public object ids the sources index
    n_clouds: int             # clouds the ingress sources cover
    keys: tuple               # Request.key() of each kind
    kinds: np.ndarray         # int32, per request
    starts: np.ndarray
    offsets: np.ndarray
    source: np.ndarray        # int32: room for any object and cloud count
    size: np.ndarray

    @classmethod
    def from_lists(cls, publics, n_clouds, keys, kinds, starts, lengths,
                   sources, sizes):
        """Rows from kind keys, per-request kinds and row starts, per-row
        entry counts and the entries' sources and sizes, in order."""
        offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        return cls(tuple(publics), n_clouds, tuple(keys),
                   np.asarray(kinds, dtype=np.int32),
                   np.asarray(starts, dtype=np.intp), offsets,
                   np.asarray(sources, dtype=np.int32),
                   np.asarray(sizes, dtype=float))

    def take(self, lo, hi):
        """The rows of requests lo..hi-1, renumbered from 0."""
        starts = self.starts[lo:hi + 1]
        offsets = self.offsets[starts[0]:starts[-1] + 1]
        first, last = offsets[0], offsets[-1]
        return self._replace(kinds=self.kinds[lo:hi], starts=starts - starts[0],
                             offsets=offsets - first,
                             source=self.source[first:last],
                             size=self.size[first:last])

    def check(self, publics, n_clouds):
        """Raise ValueError unless the rows index this public object list
        and this many clouds."""
        if self.publics != tuple(publics):
            raise ValueError("the stream was packed against another public "
                             "object list than the scenario's")
        if self.n_clouds != n_clouds:
            raise ValueError(f"the stream was packed for {self.n_clouds} "
                             f"clouds, the scenario has {n_clouds}")


def latency_rows(objects, cached, topo, rows=None):
    """The nearest-replica rule: cloud i reads object o at w[i][j] from the
    nearest cloud j that caches o, itself included, or at origin[i] when
    none does.  Returns `rows` (object -> one latency per cloud), by default
    new ones for `objects` at origin, lowered in place for the placement
    `cached` (cloud -> its objects); an object without a row is skipped."""
    if rows is None:
        rows = {o: list(topo.origin) for o in objects}
    for j, content in cached.items():
        column = [w_i[j] for w_i in topo.w]
        for o in content:
            row = rows.get(o)
            if row is not None:
                for i, lat in enumerate(column):
                    if lat < row[i]:
                        row[i] = lat
    return rows


def transport_rows(rows, placement, topo):
    """Per-VM transport cost of every packed row at every cloud: a (row,
    cloud) array.  Cloud i reads a public object at its latency_rows entry
    under the placement, and a private one at the latency from the
    request's ingress; each read costs its latency times its size.  Each
    entry equals the scalar sum from 0.0 over the row's objects, bit for bit.
    """
    n = topo.n_clouds
    # rows by source: one per public object, one per ingress cloud j (each
    # cloud's latency to j), zero padding
    public = latency_rows(rows.publics, placement.cached, topo)
    latency = np.fromiter(
        itertools.chain(*public.values(), *zip(*topo.w), [0.0] * n), float,
        (len(public) + n + 1) * n).reshape(-1, n)
    lengths = np.diff(rows.offsets)
    depth = int(lengths.max(initial=0))
    # the tail past a row's objects holds 0.0 terms: exact no-op additions
    source = np.full((len(lengths), depth), len(latency) - 1, dtype=np.intp)
    size = np.zeros((len(lengths), depth))
    # row-major order of the mask is the order the entries were packed in
    filled = np.arange(depth) < lengths[:, None]
    source[filled] = rows.source
    size[filled] = rows.size
    total = np.zeros((len(lengths), n))
    for j in range(depth):
        total += latency[source[:, j]] * size[:, j, None]
    return total


def config_usage(req, config, vm_catalog):
    """Resource units the config occupies: {(i, r): units} for positive usage."""
    usage = {}
    for k, i in config.assignment.items():
        count = req.demand[k][0]
        for r in range(vm_catalog.n_resources):
            units = count * vm_catalog.recipes[k][r]
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
    expirations without any explicit event processing.  Each row's peak
    bounds every commitment in it: leases raise it, nothing lowers it.
    """

    def __init__(self, capacity):
        self.capacity = {k: float(v) for k, v in capacity.items()}
        self.committed = {k: {} for k in self.capacity}  # (i, r) -> {t: units}
        self.peak = dict.fromkeys(self.capacity, 0.0)    # (i, r) -> bound
        self.leases = {}      # req_id -> Lease
        self.expiring = {}    # expiry -> req_ids of the leases ending there
        self.now = 0
        self.end = 0          # first fine slot after every lease

    def free_row(self, key, start, stop):
        """Free units of one (cloud, resource) in fine slots start..stop-1."""
        cap = self.capacity[key]
        get = self.committed[key].get
        return [cap - get(t, 0.0) for t in range(start, stop)]

    def fits(self, usage, start, expiry):
        capacity, committed, peak = self.capacity, self.committed, self.peak
        for key, units in usage.items():
            cap = capacity[key]
            # rounding is monotone: a row whose peak leaves room has room
            # in every slot
            if cap - peak[key] + 1e-9 >= units:
                continue
            get = committed[key].get
            for t in range(start, expiry):
                if cap - get(t, 0.0) + 1e-9 < units:
                    return False
        return True

    def lease(self, req_id, usage, start, expiry):
        if expiry <= start:
            raise ValueError("lease must cover at least one fine slot")
        if start < self.now:
            raise ValueError("lease cannot start in the past")
        if req_id in self.leases:
            raise ValueError(f"request {req_id} already holds a lease")
        for key, units in usage.items():
            row = self.committed.setdefault(key, {})
            get = row.get
            peak = self.peak.get(key, 0.0)
            for t in range(start, expiry):
                row[t] = level = get(t, 0.0) + units
                if level > peak:
                    peak = level
            self.peak[key] = peak
        self.leases[req_id] = Lease(req_id, start, expiry, dict(usage))
        self.expiring.setdefault(expiry, []).append(req_id)
        if expiry > self.end:
            self.end = expiry

    def advance(self, now):
        if now < self.now:
            raise ValueError("time cannot run backwards")
        # every commitment lies in [previous now, end), and every lease
        # expires in (previous now, end]: drop the slots passed and the
        # leases that end after them
        passed = range(self.now, min(now, self.end))
        self.now = now
        leases, expiring = self.leases, self.expiring
        rows = self.committed.values()
        for t in passed:
            for req_id in expiring.pop(t + 1, ()):
                del leases[req_id]
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
