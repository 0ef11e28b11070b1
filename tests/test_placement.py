import numpy as np
import pytest

from edgeorch.model import (AllocationConfig, DataCatalog, PlacementProfile,
                            Request, Topology)
from edgeorch.placement import (DemandMatrix, _best_content, aggregate_demand,
                                brute_force_place, feasible_content_sets,
                                greedy_place, placement_cost,
                                random_placement_instance,
                                top_popularity_place)


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
    with pytest.raises(ValueError):
        brute_force_place(DemandMatrix(0, entries), {0: 4.0, 1: 4.0},
                          topo, catalog, cap=10)


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
