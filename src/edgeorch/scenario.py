"""Scenario definition: one frozen system (topology, catalogs, control knobs).

Scenarios are plain JSON so experiment inputs can be diffed and pinned.
The bundled files in DATA_DIR (desk, stress, tiny, paper_scale) are the
only definition of each system; loading the same file always yields the
identical system.
"""

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .model import DataCatalog, Topology, VMCatalog

DATA_DIR = Path(__file__).parent / "data"


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
    c_max: float = 0.0           # worst-case per-slot transport cost bound;
                                 # 0 means 3 x the budget in force
    hard_capacity_guard: bool = True

    def __post_init__(self):
        if self.fine_per_coarse < 1:
            raise ScenarioError("fine_per_coarse must be at least 1")
        numbers = [self.budget, self.v_weight, self.c_max,
                   *self.capacity.values(), *self.cache_size.values()]
        if not all(0 <= x < math.inf for x in numbers):   # also false for NaN
            raise ScenarioError("budget, v_weight, c_max, capacity and "
                                "cache_size must be finite and non-negative")
        for i in self.topology.clouds:
            for r in range(self.vms.n_resources):
                if (i, r) not in self.capacity:
                    raise ScenarioError(f"missing capacity for cloud {i} resource {r}")
            if i not in self.cache_size:
                raise ScenarioError(f"missing cache size for cloud {i}")

    @property
    def drift_bound(self):
        """Constant B in the one-slot drift inequality."""
        c_max = self.c_max or (3.0 * self.budget if self.budget else 1.0)
        return max(c_max ** 2, self.budget ** 2) / 2.0

    def to_dict(self):
        n = self.topology.n_clouds
        return {
            "name": self.name,
            "latency": self.topology.w,
            "origin_latency": self.topology.origin,
            "resources": self.vms.resources,
            "recipes": self.vms.recipes,
            "prices": self.vms.prices,
            "objects": {o: self.catalog.sizes[o] for o in self.catalog.public_objects()},
            "capacity": [[self.capacity[(i, r)] for r in range(self.vms.n_resources)]
                         for i in range(n)],
            "cache_size": [self.cache_size[i] for i in range(n)],
            "fine_per_coarse": self.fine_per_coarse,
            "budget": self.budget,
            "v_weight": self.v_weight,
            "c_max": self.c_max,
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
    # by type, as a bool is an int to isinstance
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise ScenarioError(f"scenario field {key!r} has the wrong type")
    if kind in (list, dict) and not _numbers_only(value):
        raise ScenarioError(f"scenario field {key!r} must hold only numbers")
    return value


def _numbers_only(value):
    """Whether every leaf of a JSON list or object is an int or a float."""
    if isinstance(value, (list, dict)):
        return all(map(_numbers_only, (value.values()
                                       if isinstance(value, dict) else value)))
    return type(value) in (int, float)   # by type: a bool is an int


SCENARIO_KEYS = {"name", "latency", "origin_latency", "resources", "recipes",
                 "prices", "objects", "capacity", "cache_size",
                 "fine_per_coarse", "budget", "v_weight", "c_max",
                 "hard_capacity_guard"}


def scenario_from_dict(data):
    unknown = set(data) - SCENARIO_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    data = {"name": "scenario", "c_max": 0.0, "hard_capacity_guard": True,
            **data}
    try:
        latency = _require(data, "latency", list)
        origin = _require(data, "origin_latency", list)
        topo = Topology(latency, origin)
        names = data.get("resources")
        vms = VMCatalog(
            _require(data, "recipes", list),
            _require(data, "prices", list),
            names,
        )
        if names is not None and not (
                type(names) is list and len(names) == vms.n_resources
                and all(type(r) is str for r in names)):
            raise ScenarioError("scenario resources must list one name per "
                                "resource")
        objects = _require(data, "objects", dict)
        if not objects:
            raise ScenarioError("scenario objects must name at least one "
                                "public object")
        # the workload names private objects p<request id>-<index>
        private = [o for o in objects if re.fullmatch("p[0-9]+-[0-9]+", o)]
        if private:
            raise ScenarioError(f"scenario object {private[0]!r} is named "
                                "like a private object")
        catalog = DataCatalog({o: s for o, s in objects.items()})
        # caches and placement count whole units
        if any(s % 1 for s in objects.values()):
            raise ScenarioError("scenario object sizes must be whole numbers")
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
            name=_require(data, "name", str),
            topology=topo,
            vms=vms,
            catalog=catalog,
            capacity=capacity,
            cache_size=cache_size,
            fine_per_coarse=int(_require(data, "fine_per_coarse", int)),
            budget=float(_require(data, "budget", float)),
            v_weight=float(_require(data, "v_weight", float)),
            c_max=_require(data, "c_max", float),
            hard_capacity_guard=_require(data, "hard_capacity_guard", bool),
        )
    except (TypeError, KeyError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def load_scenario(path, overrides=None):
    """The scenario a JSON file defines, with any fields of overrides put
    in place of the file's before it is checked."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario {path} must be a JSON object")
    return scenario_from_dict({**data, **(overrides or {})})


def make_stress_scenario():
    """The bundled stress system, loaded from stress.json.  Kept only for
    perfbench/test_checker.py, which imports it; load_scenario is the way
    to read any bundled system."""
    return load_scenario(DATA_DIR / "stress.json")
