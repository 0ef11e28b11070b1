import hashlib
import json
import math
import sys

import numpy as np
import pytest

from edgeorch import placement, simulator
from edgeorch.cli import resolve_data
from edgeorch.model import (AllocationConfig, DataCatalog, PlacementProfile,
                            Request, Topology, _draws, latency_rows)
from edgeorch.placement import (DemandMatrix, _best_content, _scan_best,
                                aggregate_demand, brute_force_place,
                                count_content_sets, feasible_content_sets,
                                greedy_place, placement_cost,
                                random_placement_instance,
                                top_popularity_place)
from edgeorch.scenario import load_scenario
from reference_rules import (nearest_replica, reference_best_content,
                             reference_brute_force_place,
                             reference_greedy_place, reference_placement_cost)


def pair_topo(origin=(100.0, 110.0)):
    return Topology([[0.0, 20.0], [20.0, 0.0]], list(origin))


def test_aggregate_demand_counts_public_reads():
    catalog = DataCatalog({"o1": 2, "o2": 1})
    catalog.add_many(["p1"], 3)
    req1 = Request(1, 0, 1, 0, {0: (2, ("o1", "p1"))})
    req2 = Request(2, 0, 1, 0, {0: (1, ("o1",)), 1: (1, ("o2",))})
    accepted = [
        (req1, AllocationConfig({0: 0})),
        (req2, AllocationConfig({0: 1, 1: 0})),
    ]
    demand = aggregate_demand(accepted, catalog)
    assert demand.entries == {(0, "o1"): 4.0, (1, "o1"): 2.0, (0, "o2"): 1.0}
    assert demand.objects() == ["o1", "o2"]
    assert demand.total_by_object() == {"o1": 6.0, "o2": 1.0}


def test_aggregate_demand_skips_zero_count_groups():
    catalog = DataCatalog({"o1": 1})
    req = Request(1, 0, 1, 0, {0: (0, ("o1",)), 1: (1, ())})
    demand = aggregate_demand([(req, AllocationConfig({0: 0, 1: 0}))],
                              catalog)
    assert demand.entries == {}


def test_aggregate_demand_refuses_unknown_ids():
    catalog = DataCatalog({"o1": 1})
    catalog.add_many(["p1"], 1)
    for objects in (("o1", "zz"), ("p1", "zz")):
        req = Request(1, 0, 1, 0, {0: (1, objects)})
        with pytest.raises(ValueError, match="unknown object id 'zz'"):
            aggregate_demand([(req, AllocationConfig({0: 0}))], catalog)


def test_fetch_latency_and_cost():
    topo = pair_topo()
    profile = PlacementProfile({0: ("o1",), 1: ()}, {0: 1.0, 1: 1.0})
    assert placement_cost(profile, DemandMatrix({(0, "o1"): 1.0}), topo) == 0.0
    assert placement_cost(profile, DemandMatrix({(1, "o1"): 1.0}), topo) == 20.0
    assert placement_cost(profile, DemandMatrix({(1, "o2"): 1.0}), topo) == 110.0
    demand = DemandMatrix({(0, "o1"): 10.0, (1, "o2"): 5.0})
    assert placement_cost(profile, demand, topo) == 550.0


def test_placement_cost_skips_unread_objects_and_zero_entries():
    """Objects cached where nobody reads them change no latency, and a
    zero demand entry adds nothing: placement_cost equals the
    nearest-replica rule and the sorted sum, bit for bit."""
    topo = pair_topo()
    # o3 and o4 are cached but have no positive demand
    profile = PlacementProfile({0: ("o1", "o3"), 1: ("o2", "o4")},
                               {0: 2.0, 1: 2.0})
    demand = DemandMatrix({(1, "o2"): 3.0, (1, "o1"): 0.7, (1, "o3"): 0.0,
                           (0, "o5"): 0.2, (0, "o2"): 0.1})
    assert placement_cost(profile, demand, topo) == \
        reference_placement_cost(profile, demand, topo) == \
        0.1 * 20.0 + 0.2 * 100.0 + 0.7 * 20.0 + 3.0 * 0.0 + 0.0 * 20.0
    empty = PlacementProfile.empty(2, {0: 2.0, 1: 2.0})
    assert placement_cost(empty, demand, topo) == \
        reference_placement_cost(empty, demand, topo)


def test_fetch_table_and_costs_match_nearest_replica_oracle():
    """latency_rows, placement_cost and the greedy's and the popularity
    baseline's own objectives and savings equal the one-lookup-at-a-time
    nearest-replica rule, bit for bit, on random profiles and the empty
    one.  Rows lowered one cloud at a time equal rows built from the whole
    profile, and a cached object nobody reads gets no row."""
    draws = _draws(np.random.default_rng(41))
    seen = {"two_holders": 0, "unread_cached": 0}
    for _ in range(300):
        demand, cache, topo, catalog = random_placement_instance(draws)
        objects = sorted(catalog.sizes)
        if draws.double() < 0.3:     # a zero entry must add nothing
            demand.entries.setdefault((0, objects[-1]), 0.0)
        # entries arrive sorted; both costs must sort them themselves
        keys = list(demand.entries)
        order = draws.numpy().permutation(len(keys))
        demand = DemandMatrix({keys[n]: demand.entries[keys[n]]
                               for n in order})
        profile = PlacementProfile(
            {i: [o for o in objects if draws.double() < 0.4] for i in cache},
            cache)
        assert placement_cost(profile, demand, topo) == \
            reference_placement_cost(profile, demand, topo)
        empty = PlacementProfile.empty(len(cache), cache)
        for prof in (profile, empty):
            assert latency_rows(objects, prof.cached, topo) == {
                o: [nearest_replica(i, o, prof, topo)[1] for i in topo.clouds]
                for o in objects}
        read = sorted({o for (_, o), d in demand.entries.items() if d > 0})
        stepwise = latency_rows(read, {}, topo)
        for cloud, content in profile.cached.items():
            latency_rows((), {cloud: content}, topo, stepwise)
        assert list(stepwise) == read
        assert stepwise == latency_rows(read, profile.cached, topo)
        holders = [o for content in profile.cached.values() for o in content]
        seen["two_holders"] += any(holders.count(o) >= 2 for o in objects)
        seen["unread_cached"] += any(o not in read for o in holders)
        for rule in (greedy_place, top_popularity_place):
            sol = rule(demand, cache, topo, catalog)
            objective = reference_placement_cost(sol.profile, demand, topo)
            assert sol.objective == objective
            assert sol.savings == \
                reference_placement_cost(empty, demand, topo) - objective
    assert all(count > 0 for count in seen.values()), seen


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
    demand = DemandMatrix({(0, "o1"): 10.0, (1, "o2"): 5.0})
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
    demand = DemandMatrix({(0, "o1"): 10.0, (1, "o2"): 10.0})
    sol = greedy_place(demand, {0: 1.0, 1: 1.0}, topo, catalog)
    assert sol.rounds[0][0] == 0


def test_greedy_leaves_pointless_cache_empty():
    topo = pair_topo()
    catalog = DataCatalog({"o1": 1})
    demand = DemandMatrix({(0, "o1"): 10.0})
    sol = greedy_place(demand, {0: 1.0, 1: 1.0}, topo, catalog)
    assert sol.profile.cached[0] == frozenset({"o1"})
    # nothing cloud 1 could cache saves anyone anything
    assert sol.profile.cached[1] == frozenset()


def test_greedy_rejects_fractional_sizes():
    topo = pair_topo()
    catalog = DataCatalog({"o1": 1.5})
    demand = DemandMatrix({(0, "o1"): 10.0})
    with pytest.raises(ValueError):
        greedy_place(demand, {0: 2.0, 1: 2.0}, topo, catalog)


def test_feasible_content_sets():
    catalog = DataCatalog({"a": 1, "b": 2, "c": 1})
    sets = feasible_content_sets(["a", "b", "c"], catalog, 2)
    assert sets == [(), ("a",), ("a", "c"), ("b",), ("c",)]


def test_count_content_sets_matches_the_listed_sets():
    rng = np.random.default_rng(8)
    for _ in range(300):
        catalog = DataCatalog({f"o{j}": int(rng.integers(1, 5))
                               for j in range(int(rng.integers(0, 9)))})
        objects = [o for o in sorted(catalog.sizes) if rng.random() < 0.7]
        capacity = float(rng.uniform(-1.5, 12))
        assert count_content_sets(objects, catalog, capacity) == len(
            feasible_content_sets(objects, catalog, capacity))


def test_brute_force_space_cap(monkeypatch):
    topo = pair_topo()
    catalog = DataCatalog({f"o{j}": 1 for j in range(8)})
    entries = {(i, f"o{j}"): 1.0 for i in range(2) for j in range(8)}
    demand, cache = DemandMatrix(entries), {0: 4.0, 1: 4.0}
    monkeypatch.setattr(placement, "BRUTE_FORCE_CAP", 10)
    with pytest.raises(ValueError):
        brute_force_place(demand, cache, topo, catalog)
    # 1 + 8 + 28 + 56 + 70 = 163 content sets per cloud
    space = 163 * 163
    monkeypatch.setattr(placement, "BRUTE_FORCE_CAP", space)
    profile, cost = brute_force_place(demand, cache, topo, catalog)
    assert (profile.cached, cost) == _unpack(
        reference_brute_force_place(demand, cache, topo, catalog))
    monkeypatch.setattr(placement, "BRUTE_FORCE_CAP", space - 1)
    with pytest.raises(ValueError, match=f"space {space} exceeds cap {space - 1}"):
        brute_force_place(demand, cache, topo, catalog)


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
           DemandMatrix({(i, f"o{j}"): 2.0 for i in range(3) for j in range(4)}),
           {0: 1.0, 1: 1.0, 2: 2.0}, flat, four)
    yield ("demand at a cloud without a cache",
           DemandMatrix({(2, "o0"): 5.0, (2, "o1"): 3.0, (0, "o2"): 1.0}),
           {0: 1.0, 1: 1.0}, tri, four)
    yield ("zero-demand entries",
           DemandMatrix({(0, "o0"): 0.0, (1, "o1"): 4.0, (2, "o0"): 0.0,
                            (2, "o3"): 7}),
           {0: 2.0, 1: 1.0, 2: 1.0}, tri, four)
    yield ("empty demand", DemandMatrix({}), {0: 1.0, 1: 1.0, 2: 1.0},
           tri, four)
    yield ("70 objects at capacity 1 on 2 clouds",
           DemandMatrix({(j % 2, o): float(1 + j % 5) for j, o in enumerate(many)}),
           {0: 1.0, 1: 1.0}, pair_topo(), DataCatalog({o: 1 for o in many}))


def test_prop2_instance_stream_is_pinned():
    """The first 400 instances prop2 draws from seed 77: their demand,
    caches, latencies and object sizes."""
    draws = _draws(np.random.default_rng(77))
    digest = hashlib.sha256()
    for _ in range(400):
        demand, cache, topo, catalog = random_placement_instance(draws)
        digest.update(repr((sorted(demand.entries.items()),
                            sorted(cache.items()), topo.w, topo.origin,
                            sorted(catalog.sizes.items()))).encode())
    assert digest.hexdigest() == \
        "1818ad5b75f8c727a2cf252ff27b01d515f3b0b9a42232c19c9cc61de38ad1d8"


def test_brute_force_matches_reference():
    """The array pass picks the scalar loop's profile at the same cost, bit
    for bit: on the prop2 stream and three more, and on edge cases."""
    instances = list(hand_built_placements())
    for seed in (77, 12, 5, 99):
        draws = _draws(np.random.default_rng(seed))
        instances += [(seed, *random_placement_instance(draws))
                      for _ in range(200)]
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
    demand = DemandMatrix({(0, "big"): 9.0, (0, "small"): 4.0})
    profile = top_popularity_place(demand, {0: 3.0, 1: 3.0}, pair_topo(),
                                   catalog).profile
    # small wins on per-unit demand, after which big no longer fits
    assert profile.cached[0] == frozenset({"small"})
    assert profile.cached[1] == frozenset()


def test_top_popularity_solution_prices_its_profile():
    """The popularity baseline's objective is placement_cost of its profile,
    replicas at other clouds included, and its savings the empty-cache
    cost, summed in sorted (cloud, object) order, minus that objective;
    both bit for bit, with no greedy rounds."""
    topo = pair_topo()
    catalog = DataCatalog({"big": 3, "mid": 2, "small": 1})
    # unsorted, with sums whose rounding depends on their order
    demand = DemandMatrix({(1, "small"): 0.3, (1, "big"): 6.1,
                           (0, "small"): 4.7, (0, "big"): 9.3,
                           (1, "mid"): 0.1})
    sol = top_popularity_place(demand, {0: 3.0, 1: 0.0}, topo, catalog)
    # cloud 0 keeps small, the densest, after which big no longer fits;
    # cloud 1 has no room and reads small from cloud 0
    assert sol.profile.cached == {0: frozenset({"small"}), 1: frozenset()}
    assert sol.objective == placement_cost(sol.profile, demand, topo)
    assert sol.objective == 9.3 * 100.0 + 0.0 + 6.1 * 110.0 + 0.1 * 110.0 \
        + 0.3 * 20.0
    empty = 0.0
    for (i, _), d in sorted(demand.entries.items()):
        empty += d * topo.origin[i]
    assert sol.savings == empty - sol.objective
    assert sol.rounds == []


def test_best_content_past_the_total_weight_chooses_as_the_total():
    """Any capacity at or above the items' total weight, however large,
    gives the knapsack of exactly that total, ties and all."""
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        # few distinct values, so equal-value optima are common
        items = [(f"o{j:02d}", int(rng.integers(1, 4)),
                  float(rng.integers(1, 4)) / 2) for j in range(n)]
        total = sum(w for _, w, _ in items)
        want = _best_content(items, total)
        for capacity in (total + 1, total + 3, total + 17,
                         float(sys.maxsize) * 2, 1e300):
            assert _best_content(items, capacity) == want


def test_greedy_within_half_of_optimal_savings():
    draws = _draws(np.random.default_rng(12))
    for _ in range(25):
        demand, cache, topo, catalog = random_placement_instance(draws)
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
    draws = _draws(np.random.default_rng(31))
    for _ in range(50):
        demand, cache, topo, catalog = random_placement_instance(draws)
        objects = demand.objects()
        loose = {i: 1e6 for i in cache}

        def draw():
            return {i: frozenset(o for o in objects if draws.double() < 0.4)
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
    draws = _draws(np.random.default_rng(29))
    for _ in range(300):
        assert_greedy_matches_reference(*random_placement_instance(draws))


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


def assert_knapsack_matches_reference(items, capacity):
    """The same chosen set and the same float value as the full DP."""
    got = _best_content(items, capacity)
    want = reference_best_content(items, capacity)
    assert got[0] == want[0]
    assert repr(got[1]) == repr(want[1])
    return got


def unit_items(values):
    return [(f"o{j:03d}", 1, v) for j, v in enumerate(values)]


@pytest.mark.parametrize("values, capacity, chosen", [
    # one ulp below the cap-th largest, at the smaller id: the full DP's
    # backtrack takes it within its 1e-12 slack
    ([math.nextafter(5.0, 0.0), 5.0, 1.0], 1, ("o000",)),
    ([3.0, math.nextafter(5.0, 0.0), 5.0, 5.0], 2, ("o001", "o002")),
    # exact ties at the cap-th largest, lowest ids first
    ([2.0, 7.0, 2.0, 2.0], 2, ("o000", "o001")),
    # a tiny value beside large ones is never worth a slot
    ([1e-12, 1e5, 1e5, 1e-12], 2, ("o001", "o002")),
], ids=["ulp_tie_cap1", "ulp_tie_cap2", "exact_ties", "tiny_beside_large"])
def test_pruned_knapsack_on_hand_made_ties(values, capacity, chosen):
    assert assert_knapsack_matches_reference(unit_items(values),
                                             capacity)[0] == chosen


def test_pruned_knapsack_matches_the_full_dp_on_fuzzed_unit_weights():
    """Unit weights with exact ties, ties one ulp apart, values of 1e-12
    beside 1e5, at capacities 0, 1, n-1, n and n+1."""
    rng = np.random.default_rng(41)
    pruned = 0
    for _ in range(3000):
        n = int(rng.integers(1, 25))
        kind = int(rng.integers(4))
        if kind == 0:      # few distinct values: exact ties
            values = [float(rng.integers(1, 4)) for _ in range(n)]
        elif kind == 1:    # ties one ulp apart
            base = float(rng.uniform(0.5, 50.0))
            values = [base] * n
            for j in rng.choice(n, size=int(rng.integers(0, n + 1)),
                                replace=False):
                values[j] = math.nextafter(base, rng.choice([0.0, math.inf]))
        elif kind == 2:    # 1e-12 beside 1e5
            values = [float(rng.choice([1e-12, 2e-12, 1e5, 1e5 + 1.0]))
                      for _ in range(n)]
        else:
            values = rng.uniform(0.0, 10.0, n).tolist()
        values = [v for v in values if v > 0.0] or [1.0]
        n = len(values)
        for capacity in {0, 1, max(n - 1, 0), n, n + 1,
                         int(rng.integers(1, n + 1))}:
            assert_knapsack_matches_reference(unit_items(values), capacity)
            pruned += n > capacity > 0
    assert pruned > 1000


def test_weighted_knapsacks_keep_the_full_dp(monkeypatch):
    """prop2's instances have object sizes 1-3: a knapsack whose items
    are not all of weight 1 never goes through the prune, and the greedy
    still matches the full-DP reference on them."""
    seen = []
    prune = placement._unit_candidates

    def spied(items, cap):
        seen.append(items)
        return prune(items, cap)

    monkeypatch.setattr(placement, "_unit_candidates", spied)
    weighted = 0
    draws = _draws(np.random.default_rng(12))
    for _ in range(100):
        demand, cache, topo, catalog = random_placement_instance(draws)
        weighted += any(catalog.sizes[o] != 1 for o in demand.objects())
        assert_greedy_matches_reference(demand, cache, topo, catalog)
    assert weighted > 50
    assert all(w == 1 for items in seen for _, w, _ in items)


@pytest.mark.parametrize("name, slots", [("desk", 150), ("paper_scale", 10)])
def test_pruned_knapsack_matches_the_full_dp_on_recorded_calls(name, slots,
                                                               monkeypatch):
    """Every knapsack a proposed replay solves, recorded and solved again
    by the full DP: the same set and the same float value."""
    calls = []
    solve = placement._best_content

    def recorded(items, capacity):
        calls.append((list(items), capacity))
        return solve(items, capacity)

    monkeypatch.setattr(placement, "_best_content", recorded)
    scenario = load_scenario(resolve_data(f"{name}.json"))
    stream = simulator.generate_workload(simulator.WorkloadConfig(seed=0),
                                         scenario,
                                         slots * scenario.fine_per_coarse)
    simulator.run_policy("proposed", scenario, stream, slots)
    monkeypatch.undo()
    pruned = 0
    for items, capacity in calls:
        assert_knapsack_matches_reference(items, capacity)
        pruned += len(items) > int(capacity) > 0
    assert pruned > 0
