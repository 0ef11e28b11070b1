"""Scenario definition: one frozen system (topology, catalogs, control knobs).

Scenarios are plain JSON so experiment inputs can be diffed and pinned.
Latencies are drawn once by a builder and frozen into the file; loading the
same file always yields the identical system.
"""

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .model import DataCatalog, Topology, VMCatalog


class ScenarioError(ValueError):
    """Raised when a scenario or experiment file fails validation."""


@dataclass
class Scenario:
    name: str
    topology: Topology
    vms: VMCatalog
    catalog: DataCatalog
    capacity: dict               # (cloud, resource index) -> units
    cache_size: dict             # cloud -> units
    fine_per_coarse: int
    budget: float                # time-average transport budget per coarse slot
    v_weight: float              # revenue weight in the drift-plus-penalty score
    c_max: float = 0.0           # worst-case per-slot transport cost bound
    score_mode: str = "q_coupled"
    hard_capacity_guard: bool = True
    # set when c_max was omitted (0) and derived from the budget
    c_max_derived: bool = field(default=False, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        if self.fine_per_coarse < 1:
            raise ScenarioError("fine_per_coarse must be at least 1")
        if self.budget < 0 or self.v_weight < 0:
            raise ScenarioError("budget and v_weight must be non-negative")
        if self.score_mode not in ("q_coupled", "paper"):
            raise ScenarioError(f"unknown score_mode {self.score_mode!r}")
        self.c_max_derived = not self.c_max
        if self.c_max_derived:
            self.c_max = 3.0 * self.budget if self.budget else 1.0
        for i in self.topology.clouds:
            for r in range(self.vms.n_resources):
                if (i, r) not in self.capacity:
                    raise ScenarioError(f"missing capacity for cloud {i} resource {r}")
            if i not in self.cache_size:
                raise ScenarioError(f"missing cache size for cloud {i}")

    def with_changes(self, **changes):
        """A validated copy with fields replaced; a derived c_max is derived
        again from the new budget, an explicit one is kept."""
        if self.c_max_derived:
            changes.setdefault("c_max", 0.0)
        return replace(self, **changes)

    @property
    def drift_bound(self):
        """Constant B in the one-slot drift inequality."""
        return max(self.c_max ** 2, self.budget ** 2) / 2.0

    def to_dict(self):
        n = self.topology.n_clouds
        return {
            "name": self.name,
            "latency": self.topology.w,
            "origin_latency": self.topology.origin,
            "local_latency": self.topology.local,
            "resources": self.vms.resources,
            "recipes": self.vms.recipes,
            "prices": self.vms.base_prices,
            "price_scale": self.vms.price_scale,
            "objects": {o: self.catalog.sizes[o] for o in self.catalog.public_objects()},
            "capacity": [[self.capacity[(i, r)] for r in range(self.vms.n_resources)]
                         for i in range(n)],
            "cache_size": [self.cache_size[i] for i in range(n)],
            "fine_per_coarse": self.fine_per_coarse,
            "budget": self.budget,
            "v_weight": self.v_weight,
            "c_max": self.c_max,
            "score_mode": self.score_mode,
            "hard_capacity_guard": self.hard_capacity_guard,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _require(data, key, kind):
    if key not in data:
        raise ScenarioError(f"scenario is missing {key!r}")
    value = data[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ScenarioError(f"scenario field {key!r} has the wrong type")
    return value


def scenario_from_dict(data):
    try:
        latency = _require(data, "latency", list)
        origin = _require(data, "origin_latency", list)
        topo = Topology(latency, origin, data.get("local_latency"))
        vms = VMCatalog(
            _require(data, "recipes", list),
            _require(data, "prices", list),
            data.get("resources"),
            data.get("price_scale", 1.0),
        )
        objects = _require(data, "objects", dict)
        catalog = DataCatalog({o: s for o, s in objects.items()})
        cap_rows = _require(data, "capacity", list)
        if len(cap_rows) != topo.n_clouds:
            raise ScenarioError("capacity rows must match cloud count")
        capacity = {}
        for i, row in enumerate(cap_rows):
            if len(row) != vms.n_resources:
                raise ScenarioError("capacity columns must match resource count")
            for r, units in enumerate(row):
                capacity[(i, r)] = float(units)
        cache_row = _require(data, "cache_size", list)
        if len(cache_row) != topo.n_clouds:
            raise ScenarioError("cache_size must list one entry per cloud")
        cache_size = {i: float(s) for i, s in enumerate(cache_row)}
        return Scenario(
            name=data.get("name", "scenario"),
            topology=topo,
            vms=vms,
            catalog=catalog,
            capacity=capacity,
            cache_size=cache_size,
            fine_per_coarse=int(_require(data, "fine_per_coarse", int)),
            budget=float(_require(data, "budget", float)),
            v_weight=float(_require(data, "v_weight", float)),
            c_max=float(data.get("c_max", 0.0)),
            score_mode=data.get("score_mode", "q_coupled"),
            hard_capacity_guard=bool(data.get("hard_capacity_guard", True)),
        )
    except (TypeError, KeyError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def load_scenario(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario {path} must be a JSON object")
    return scenario_from_dict(data)


def _draw_topology(rng, n_clouds, inter=(20.0, 50.0), origin=(100.0, 200.0),
                   local=(5.0, 10.0)):
    w = [[0.0] * n_clouds for _ in range(n_clouds)]
    for i in range(n_clouds):
        for j in range(i + 1, n_clouds):
            w[i][j] = w[j][i] = round(float(rng.uniform(*inter)), 3)
    origin_lat = [round(float(rng.uniform(*origin)), 3) for _ in range(n_clouds)]
    local_lat = [round(float(rng.uniform(*local)), 3) for _ in range(n_clouds)]
    return Topology(w, origin_lat, local_lat)


def make_desk_scenario(seed=20230, n_clouds=5, n_objects=50, capacity=500.0,
                       cache_ratio=0.4, fine_per_coarse=50, budget=12000.0,
                       v_weight=50000.0, c_max=100000.0, name="desk"):
    """Down-scaled default system: small enough to iterate on in seconds.

    Capacities, slot widths, arrival rates and weights are all one decade
    below the full-size configuration while keeping their ratios.
    """
    rng = np.random.default_rng(seed)
    topo = _draw_topology(rng, n_clouds)
    vms = VMCatalog(
        recipes=[[10.0, 20.0, 30.0], [30.0, 20.0, 10.0]],
        prices=[10.0, 20.0],
        resources=["cpu", "memory", "storage"],
    )
    catalog = DataCatalog({f"o{n:03d}": 1 for n in range(n_objects)})
    universal = sum(catalog.sizes.values())
    per_cloud = (cache_ratio * universal) / n_clouds
    return Scenario(
        name=name,
        topology=topo,
        vms=vms,
        catalog=catalog,
        capacity={(i, r): capacity for i in range(n_clouds) for r in range(3)},
        cache_size={i: float(int(per_cloud)) for i in range(n_clouds)},
        fine_per_coarse=fine_per_coarse,
        budget=budget,
        v_weight=v_weight,
        c_max=c_max,
    )


def make_paper_scale_scenario(seed=20230, name="paper_scale"):
    """Full-size configuration; runtimes are long, ship it for completeness."""
    return make_desk_scenario(
        seed=seed, n_clouds=5, n_objects=500, capacity=5000.0,
        cache_ratio=0.4, fine_per_coarse=500, budget=35000.0,
        v_weight=100000.0, c_max=1000000.0, name=name,
    )


def make_stress_scenario(seed=20230, capacity=90.0, v_weight=100.0, name="stress"):
    """Tight capacities and a slack budget: exercises the admission prices.

    The budget never binds, the weight is high enough that every accepted
    bundle clears the price-growth precondition with real margin, and
    capacity pressure comes fast, which is what the overshoot bound needs
    to be tested against.
    """
    scn = make_desk_scenario(seed=seed, capacity=capacity, budget=1e9,
                             v_weight=v_weight, name=name)
    scn.c_max = 1e9
    return scn


def make_tiny_scenario(seed=11, n_objects=3, cache_size=1.0, budget=60.0,
                       v_weight=2000.0, fine_per_coarse=4, name="tiny"):
    """Two clouds and a coarse slot of four fine slots: small enough that a
    clairvoyant frame optimum can be found by exhaustive search."""
    rng = np.random.default_rng(seed)
    topo = _draw_topology(rng, 2)
    vms = VMCatalog(
        recipes=[[10.0, 20.0, 30.0], [30.0, 20.0, 10.0]],
        prices=[10.0, 20.0],
        resources=["cpu", "memory", "storage"],
    )
    catalog = DataCatalog({f"o{n:03d}": 1 for n in range(n_objects)})
    return Scenario(
        name=name,
        topology=topo,
        vms=vms,
        catalog=catalog,
        capacity={(i, r): 400.0 for i in range(2) for r in range(3)},
        cache_size={0: cache_size, 1: cache_size},
        fine_per_coarse=fine_per_coarse,
        budget=budget,
        v_weight=v_weight,
    )
