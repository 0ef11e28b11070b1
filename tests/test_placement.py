import json

import numpy as np
import pytest

from edgeorch import simulator
from edgeorch.cli import resolve_data
from edgeorch.model import (AllocationConfig, DataCatalog, PlacementProfile,
                            Request, Topology, fetch_latencies)
from edgeorch.placement import (DemandMatrix, _best_content, _scan_best,
                                aggregate_demand, brute_force_place,
                                feasible_content_sets,
                                greedy_place, placement_cost,
                                random_placement_instance,
                                top_popularity_place)
from edgeorch.scenario import load_scenario
from reference_rules import (nearest_replica, reference_brute_force_place,
                             reference_greedy_place, reference_placement_cost)


def pair_topo(origin=(100.0, 110.0)):
    return Topology([[0.0, 20.0], [20.0, 0.0]], list(origin), [5.0, 5.0])


def test_aggregate_demand_counts_public_reads():
    catalog = DataCatalog({"o1": 2, "o2": 1, "p1": 3},
                          visibility={"p1": "private"})
    req1 = Request(1, 0, 1, 0, {0: (2, ("o1", "p1"))})
    req2 = Request(2, 0, 1, 0, {0: (1, ("o1",)), 1: (1, ("o2",))})
    accepted = [
        (req1, AllocationConfig({0: 0})),
        (req2, AllocationConfig({0: 1, 1: 0})),
    ]
    demand = aggregate_demand(accepted, catalog, slot=3)
    assert demand.slot == 3
    assert demand.entries == {(0, "o1"): 4.0, (1, "o1"): 2.0, (0, "o2"): 1.0}
    assert demand.objects() == ["o1", "o2"]
    assert demand.total_by_object() == {"o1": 6.0, "o2": 1.0}


def test_aggregate_demand_skips_zero_count_groups():
    catalog = DataCatalog({"o1": 1})
    req = Request(1, 0, 1, 0, {0: (0, ("o1",)), 1: (1, ())})
    demand = aggregate_demand([(req, AllocationConfig({0: 0, 1: 0}))],
                              catalog, slot=0)
    assert demand.entries == {}


def test_fetch_latency_and_cost():
    topo = pair_topo()
    profile = PlacementProfile({0: ("o1",), 1: ()}, {0: 1.0, 1: 1.0})
    assert placement_cost(profile, DemandMatrix(0, {(0, "o1"): 1.0}), topo) == 0.0
    assert placement_cost(profile, DemandMatrix(0, {(1, "o1"): 1.0}), topo) == 20.0
    assert placement_cost(profile, DemandMatrix(0, {(1, "o2"): 1.0}), topo) == 110.0
    demand = DemandMatrix(0, {(0, "o1"): 10.0, (1, "o2"): 5.0})
    assert placement_cost(profile, demand, topo) == 550.0


def test_fetch_table_and_costs_match_nearest_replica_oracle():
    """The fetch table, placement_cost and greedy's own objective and
    savings equal the one-lookup-at-a-time nearest-replica rule, bit for
    bit, on random profiles."""
    rng = np.random.default_rng(41)
    for _ in range(300):
        demand, cache, topo, catalog = random_placement_instance(rng)
        objects = sorted(catalog.sizes)
        if rng.random() < 0.3:     # a zero entry must add nothing
            demand.entries.setdefault((0, objects[-1]), 0.0)
        # entries arrive sorted; both costs must sort them themselves
        keys = list(demand.entries)
        demand = DemandMatrix(0, {keys[n]: demand.entries[keys[n]]
                                  for n in rng.permutation(len(keys))})
        profile = PlacementProfile(
            {i: [o for o in objects if rng.random() < 0.4] for i in cache},
            cache)
        assert fetch_latencies(profile, topo, objects) == [
            {o: nearest_replica(i, o, profile, topo)[1] for o in objects}
            for i in topo.clouds]
        assert placement_cost(profile, demand, topo) == \
            reference_placement_cost(profile, demand, topo)
        sol = greedy_place(demand, cache, topo, catalog)
        empty = PlacementProfile.empty(len(cache), cache)
        objective = reference_placement_cost(sol.profile, demand, topo)
        assert sol.objective == objective
        assert sol.savings == \
            reference_placement_cost(empty, demand, topo) - objective


def test_best_content_knapsack():
    assert _best_content([("a", 2, 3.0), ("b", 1, 2.0), ("c", 1, 2.0)], 2) == \
        (("b", "c"), 4.0)
    # among equal-value optima the earliest ids win
    assert _best_content([("a", 1, 2.0), ("b", 1, 2.0), ("c", 1, 2.0)], 2) == \
        (("a", "b"), 4.0)
    assert _best_content([("a", 3, 9.0)], 2) == ((), 0.0)
    assert _best_content([], 4) == ((), 0.0)


def test_greedy_example_fills_both_caches():
    topo = pair_topo()
    catalog = DataCatalog({"o1": 1, "o2": 1})
    demand = DemandMatrix(0, {(0, "o1"): 10.0, (1, "o2"): 5.0})
    sol = greedy_place(demand, {0: 1.0, 1: 1.0}, topo, catalog)
    assert sol.profile.cached == {0: frozenset({"o1"}), 1: frozenset({"o2"})}
    assert sol.objective == 0.0
    assert sol.savings == 1550.0
    assert sol.rounds == [(0, 1000.0, ("o1",)), (1, 550.0, ("o2",))]

    profile, cost = brute_force_place(demand, {0: 1.0, 1: 1.0}, topo, catalog)
    assert cost == 0.0
    assert profile.cached == sol.profile.cached


def test_greedy_tie_breaks_to_lowest_cloud():
    topo = pair_topo(origin=(100.0, 100.0))
    catalog = DataCatalog({"o1": 1, "o2": 1})
    demand = DemandMatrix(0, {(0, "o1"): 10.0, (1, "o2"): 10.0})
    sol = greedy_place(demand, {0: 1.0, 1: 1.0}, topo, catalog)
    assert sol.rounds[0][0] == 0


def test_greedy_leaves_pointless_cache_empty():
    topo = pair_topo()
    catalog = DataCatalog({"o1": 1})
    demand = DemandMatrix(0, {(0, "o1"): 10.0})
    sol = greedy_place(demand, {0: 1.0, 1: 1.0}, topo, catalog)
    assert sol.profile.cached[0] == frozenset({"o1"})
    # nothing cloud 1 could cache saves anyone anything
    assert sol.profile.cached[1] == frozenset()


def test_greedy_rejects_fractional_sizes():
    topo = pair_topo()
    catalog = DataCatalog({"o1": 1.5})
    demand = DemandMatrix(0, {(0, "o1"): 10.0})
    with pytest.raises(ValueError):
        greedy_place(demand, {0: 2.0, 1: 2.0}, topo, catalog)


def test_feasible_content_sets():
    catalog = DataCatalog({"a": 1, "b": 2, "c": 1})
    sets = feasible_content_sets(["a", "b", "c"], catalog, 2)
    assert sets == [(), ("a",), ("a", "c"), ("b",), ("c",)]


def test_brute_force_space_cap():
    topo = pair_topo()
    catalog = DataCatalog({f"o{j}": 1 for j in range(8)})
    entries = {(i, f"o{j}"): 1.0 for i in range(2) for j in range(8)}
    demand, cache = DemandMatrix(0, entries), {0: 4.0, 1: 4.0}
    with pytest.raises(ValueError):
        brute_force_place(demand, cache, topo, catalog, cap=10)
    # 1 + 8 + 28 + 56 + 70 = 163 content sets per cloud
    space = 163 * 163
    profile, cost = brute_force_place(demand, cache, topo, catalog, cap=space)
    assert (profile.cached, cost) == _unpack(
        reference_brute_force_place(demand, cache, topo, catalog))
    with pytest.raises(ValueError, match=f"space {space} exceeds cap {space - 1}"):
        brute_force_place(demand, cache, topo, catalog, cap=space - 1)


def _unpack(placed):
    profile, cost = placed
    return profile.cached, cost


def hand_built_placements():
    """(name, demand, cache sizes, topology, catalog) edge cases."""
    tri = Topology([[0.0, 20.0, 30.0], [20.0, 0.0, 25.0], [30.0, 25.0, 0.0]],
                   [100.0, 120.0, 140.0])
    flat = Topology([[0.0, 20.0, 20.0], [20.0, 0.0, 20.0], [20.0, 20.0, 0.0]],
                    [100.0, 100.0, 100.0])
    four = DataCatalog({f"o{j}": 1 for j in range(4)})
    many = [f"o{j:02d}" for j in range(70)]
    yield ("exact ties",
           DemandMatrix(0, {(i, f"o{j}"): 2.0 for i in range(3) for j in range(4)}),
           {0: 1.0, 1: 1.0, 2: 2.0}, flat, four)
    yield ("demand at a cloud without a cache",
           DemandMatrix(0, {(2, "o0"): 5.0, (2, "o1"): 3.0, (0, "o2"): 1.0}),
           {0: 1.0, 1: 1.0}, tri, four)
    yield ("zero-demand entries",
           DemandMatrix(0, {(0, "o0"): 0.0, (1, "o1"): 4.0, (2, "o0"): 0.0,
                            (2, "o3"): 7}),
           {0: 2.0, 1: 1.0, 2: 1.0}, tri, four)
    yield ("empty demand", DemandMatrix(0, {}), {0: 1.0, 1: 1.0, 2: 1.0},
           tri, four)
    yield ("70 objects at capacity 1 on 2 clouds",
           DemandMatrix(0, {(j % 2, o): float(1 + j % 5) for j, o in enumerate(many)}),
           {0: 1.0, 1: 1.0}, pair_topo(), DataCatalog({o: 1 for o in many}))


def test_brute_force_matches_reference():
    """The array pass picks the scalar loop's profile at the same cost, bit
    for bit: on the prop2 stream and three more, and on edge cases."""
    instances = list(hand_built_placements())
    for seed in (77, 12, 5, 99):
        rng = np.random.default_rng(seed)
        instances += [(seed, *random_placement_instance(rng)) for _ in range(200)]
    for name, demand, cache, topo, catalog in instances:
        got = _unpack(brute_force_place(demand, cache, topo, catalog))
        want = _unpack(reference_brute_force_place(demand, cache, topo, catalog))
        assert got == want, name


def scalar_scan(costs):
    best = 0
    for j, cost in enumerate(costs):
        if cost < costs[best] - 1e-12:
            best = j
    return best


@pytest.mark.parametrize("costs", [
    [5.0],
    [3.0, 3.0, 3.0],
    [2.0, 1.0, 1.0 - 5e-13, 0.5, 0.5 - 2e-12, 0.7],
    [4.0, 3.0, 2.0, 1.0, 0.0],
    [0.0, 1.0, 2.0],
])
def test_scan_best_keeps_the_near_tie_rule(costs):
    assert _scan_best(np.array(costs)) == scalar_scan(costs)


def test_scan_best_is_not_argmin():
    costs = np.array([1.0, 1.0 - 1.5e-12, 1.0 - 2e-12])
    assert _scan_best(costs) == 1
    assert int(np.argmin(costs)) == 2


def test_scan_best_on_random_near_ties():
    rng = np.random.default_rng(3)
    for _ in range(200):
        costs = 1.0 + rng.integers(-4, 5, size=int(rng.integers(1, 40))) * 5e-13
        assert _scan_best(costs) == scalar_scan(costs.tolist())


def test_top_popularity_ranks_by_density():
    catalog = DataCatalog({"big": 3, "small": 1})
    demand = DemandMatrix(0, {(0, "big"): 9.0, (0, "small"): 4.0})
    profile = top_popularity_place(demand, {0: 3.0, 1: 3.0}, catalog)
    # small wins on per-unit demand, after which big no longer fits
    assert profile.cached[0] == frozenset({"small"})
    assert profile.cached[1] == frozenset()


def test_greedy_within_half_of_optimal_savings():
    rng = np.random.default_rng(12)
    for _ in range(25):
        demand, cache, topo, catalog = random_placement_instance(rng)
        sol = greedy_place(demand, cache, topo, catalog)
        _, opt_cost = brute_force_place(demand, cache, topo, catalog)
        empty = PlacementProfile.empty(len(cache), cache)
        opt_savings = placement_cost(empty, demand, topo) - opt_cost
        assert sol.savings >= 0.5 * opt_savings - 1e-9
        assert sol.objective == pytest.approx(
            placement_cost(sol.profile, demand, topo))
        assert sol.savings == pytest.approx(
            placement_cost(empty, demand, topo) - sol.objective)
        sol.profile.validate(catalog)


def test_cost_function_is_supermodular():
    """Union plus intersection never saves more than the parts separately."""
    rng = np.random.default_rng(31)
    for _ in range(50):
        demand, cache, topo, catalog = random_placement_instance(rng)
        objects = demand.objects()
        loose = {i: 1e6 for i in cache}

        def draw():
            return {i: frozenset(o for o in objects if rng.random() < 0.4)
                    for i in cache}

        a, b = draw(), draw()
        union = {i: a[i] | b[i] for i in cache}
        inter = {i: a[i] & b[i] for i in cache}
        costs = [placement_cost(PlacementProfile(s, loose), demand, topo)
                 for s in (union, inter, a, b)]
        assert costs[0] + costs[1] >= costs[2] + costs[3] - 1e-9


def assert_greedy_matches_reference(demand, cache, topo, catalog):
    got = greedy_place(demand, cache, topo, catalog)
    want = reference_greedy_place(demand, cache, topo, catalog)
    assert got.profile.cached == want.profile.cached
    assert got.profile.cache_size == want.profile.cache_size
    assert got.rounds == want.rounds
    assert got.objective == want.objective
    assert got.savings == want.savings
    return got


def test_greedy_matches_recompute_every_round_reference():
    """Incremental savings and knapsack reuse against the greedy that
    recomputes everything in every round, on random small instances."""
    rng = np.random.default_rng(29)
    for _ in range(300):
        assert_greedy_matches_reference(*random_placement_instance(rng))


@pytest.mark.parametrize("workload", ["workload_default.json",
                                      "workload_error03.json"])
def test_greedy_matches_reference_on_desk_replay(workload, monkeypatch):
    """The same, on every demand matrix a 150-slot desk replay places."""
    scenario = load_scenario(resolve_data("desk.json"))
    with open(resolve_data(workload)) as fh:
        cfg = simulator.WorkloadConfig.from_dict({**json.load(fh), "seed": 0})
    stream = simulator.generate_workload(cfg, scenario,
                                         150 * scenario.fine_per_coarse)
    placed = []

    def checked(demand, cache, topo, catalog):
        placed.append(demand.entries != {})
        return assert_greedy_matches_reference(demand, cache, topo, catalog)

    monkeypatch.setattr(simulator, "greedy_place", checked)
    simulator.run_policy("proposed", scenario, stream, 150)
    assert len(placed) == 150 and sum(placed) > 140
