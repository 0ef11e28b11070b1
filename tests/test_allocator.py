from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from edgeorch.allocator import (BONUS_SCALE, E_RATIO, OnlineAllocator,
                                ScoredConfig, check_price_scaling,
                                dual_feasibility_violations)
from edgeorch.model import (DataCatalog, PlacementProfile, Request,
                            ResourceState, Topology, VMCatalog, config_usage,
                            fetch_latencies, transport_matrix)
from edgeorch.scenario import DATA_DIR, Scenario, load_scenario
from reference_rules import ReferenceAllocator, ReferenceResourceState


def one_cloud_scenario():
    """Single cloud, one VM type touching two resources at 10 units each."""
    return Scenario(
        name="unit",
        topology=Topology([[0.0]], [100.0], [5.0]),
        vms=VMCatalog(recipes=[[10.0, 10.0]], prices=[50.0],
                      resources=["cpu", "memory"]),
        catalog=DataCatalog({"o1": 1}),
        capacity={(0, 0): 100.0, (0, 1): 100.0},
        cache_size={0: 0.0},
        fine_per_coarse=4,
        budget=100.0,
        v_weight=1.0,
    )


def two_cloud_scenario():
    return Scenario(
        name="pair",
        topology=Topology([[0.0, 20.0], [20.0, 0.0]], [100.0, 120.0]),
        vms=VMCatalog(recipes=[[1.0]], prices=[10.0]),
        catalog=DataCatalog({"o1": 2}),
        capacity={(0, 0): 50.0, (1, 0): 50.0},
        cache_size={0: 4.0, 1: 4.0},
        fine_per_coarse=4,
        budget=100.0,
        v_weight=10.0,
    )


def fresh(scenario):
    resources = ResourceState(dict(scenario.capacity))
    return OnlineAllocator(scenario, resources)


def poke(alloc, i, r, t, price):
    """Set one window price, creating its rows as an admission would."""
    prices, _ = alloc.dual.rows((i, r), t - alloc.dual.start + 1,
                                alloc.resources)
    prices[t - alloc.dual.start] = price


def window_prices(alloc):
    """Every entry of the window's price rows: {(cloud, resource, t): price}."""
    start = alloc.dual.start
    return {(i, r, start + d): price
            for (i, r), prices in alloc.dual.beta.items()
            for d, price in enumerate(prices)}


def slot_fetch(scenario, placement):
    return fetch_latencies(placement, scenario.topology,
                           scenario.catalog.public_objects())


def cost_table(scenario, fetch, req):
    """The request's row of a transport matrix over the fetch table."""
    return transport_matrix([req], fetch, scenario.topology,
                            scenario.catalog)[0]


def test_scoring_prefers_the_cached_cloud():
    scn = two_cloud_scenario()
    alloc = fresh(scn)
    placement = PlacementProfile({0: (), 1: ("o1",)}, dict(scn.cache_size))
    fetch = slot_fetch(scn, placement)
    req = Request(1, 0, 4, 0, {0: (1, ("o1",))})

    shape0, shape1 = alloc._shapes_for(req)
    assert shape0.config.assignment == {0: 0}
    table = cost_table(scn, fetch, req)
    total, per_cloud, cost, revenue = alloc._score_one(req, shape0, table, 1.0)
    # hosting at cloud 0 hauls o1 over the 20-latency link: 10*10 - 40/4
    assert total == 90.0
    assert per_cloud == {0: 90.0}
    assert cost == 40.0
    assert revenue == 40.0

    scored = alloc.select_config(req, table, 1.0)
    assert scored.config.assignment == {0: 1}
    assert scored.objective == 400.0
    assert scored.adjusted_revenue == 100.0
    assert scored.objective == req.duration * scored.adjusted_revenue
    assert scored.transport_cost == 0.0


def test_accept_updates_prices_and_duals():
    scn = one_cloud_scenario()
    alloc = fresh(scn)
    req = Request(1, 0, 2, 0, {0: (1, ())})
    shape = alloc._shapes_for(req)[0]
    config = shape.config
    scored = ScoredConfig(config=config, objective=100.0,
                          adjusted_revenue=50.0, per_cloud={0: 50.0},
                          revenue=100.0, transport_cost=0.0, shape=shape)

    d = alloc.admit(req, scored, q_eff=1.0)
    assert d.accepted
    assert d.primal_delta == 100.0
    # alpha 100 plus four capacity triples each granting cap * bonus
    assert alloc.dual.alpha[1] == 100.0
    assert d.dual_delta == pytest.approx(158.19767068693265, rel=1e-12)
    assert d.dual_delta == pytest.approx(E_RATIO * d.primal_delta, rel=1e-12)
    assert alloc.counters["identity_violations"] == 0
    assert alloc.counters["scaling_warnings"] == 0

    bonus = BONUS_SCALE * 25.0 / 100.0
    assert set(alloc.dual.beta) == {(0, 0), (0, 1)}
    for (i, r) in ((0, 0), (0, 1)):
        for t in (0, 1):
            assert alloc.dual.beta[(i, r)][t] == pytest.approx(
                0.14549417671733162, rel=1e-12)
            assert alloc.dual.beta[(i, r)][t] == bonus
        assert alloc.dual.baseline[(i, r)] == [100.0, 100.0]

    # a second identical bundle is now charged at the fresh prices
    req2 = Request(2, 0, 2, 0, {0: (1, ())})
    rows = sorted(config_usage(req2, config, scn.vms).items())
    assert alloc._charge(req2, rows) == pytest.approx(5.819767068693265,
                                                      rel=1e-12)


def test_reject_negative_objective():
    scn = two_cloud_scenario()
    alloc = fresh(scn)
    placement = PlacementProfile.empty(2, dict(scn.cache_size))
    req = Request(7, 0, 4, 0, {0: (1, ("o1",))})
    # q_eff 10 prices uncached o1 far above the 100-per-slot revenue
    d = alloc.decide(req, cost_table(scn, slot_fetch(scn, placement), req),
                     q_eff=10.0)
    assert not d.accepted
    assert d.reason == "negative_objective"
    assert d.objective == -1600.0
    assert alloc.dual.alpha[7] == 0.0
    assert d.dual_delta == 0.0


def test_reject_price_ceiling_and_alpha_cover():
    scn = one_cloud_scenario()
    alloc = fresh(scn)
    poke(alloc, 0, 0, 0, 1.5)
    req = Request(3, 0, 1, 0, {0: (1, ())})
    shape = alloc._shapes_for(req)[0]
    scored = ScoredConfig(config=shape.config, objective=10.0,
                          adjusted_revenue=10.0, per_cloud={0: 10.0},
                          revenue=50.0, transport_cost=0.0, shape=shape)
    d = alloc.admit(req, scored, q_eff=1.0)
    assert d.reason == "price_ceiling"
    # the rejected request's constraint stays covered by its best objective
    assert alloc.dual.alpha[3] == 10.0


def test_reject_when_window_started_full():
    scn = one_cloud_scenario()
    alloc = fresh(scn)
    alloc.resources.lease("filler", {(0, 0): 100.0}, 0, 1)
    req = Request(4, 0, 1, 0, {0: (1, ())})
    shape = alloc._shapes_for(req)[0]
    scored = ScoredConfig(config=shape.config, objective=10.0,
                          adjusted_revenue=10.0, per_cloud={0: 10.0},
                          revenue=50.0, transport_cost=0.0, shape=shape)
    d = alloc.admit(req, scored, q_eff=1.0)
    assert d.reason == "price_ceiling"


def test_reject_no_feasible_config():
    scn = one_cloud_scenario()
    alloc = fresh(scn)
    alloc.resources.lease("filler", {(0, 0): 96.0}, 0, 1)
    req = Request(5, 0, 1, 0, {0: (1, ())})
    shape = alloc._shapes_for(req)[0]
    scored = ScoredConfig(config=shape.config, objective=10.0,
                          adjusted_revenue=10.0, per_cloud={0: 10.0},
                          revenue=50.0, transport_cost=0.0, shape=shape)
    d = alloc.admit(req, scored, q_eff=1.0)
    assert d.reason == "no_feasible_config"


def test_advance_fine_slot_restarts_window():
    scn = one_cloud_scenario()
    alloc = fresh(scn)
    req = Request(1, 0, 2, 0, {0: (1, ())})
    alloc.admit(req, alloc_scored(alloc, req), q_eff=1.0)
    assert alloc.dual.beta
    alloc.advance_fine_slot(1)
    assert alloc.dual.beta == {}
    assert alloc.dual.baseline == {}
    assert alloc.resources.now == 1
    # alpha persists: it belongs to the request, not the window
    assert 1 in alloc.dual.alpha


def alloc_scored(alloc, req):
    shape = alloc._shapes_for(req)[0]
    return ScoredConfig(config=shape.config, objective=100.0,
                        adjusted_revenue=50.0, per_cloud={0: 50.0},
                        revenue=100.0, transport_cost=0.0, shape=shape)


def test_price_scaling_check():
    scored = ScoredConfig(config=None, objective=0.0, adjusted_revenue=5.0,
                          per_cloud={0: 5.0}, revenue=0.0, transport_cost=0.0,
                          shape=None)
    assert check_price_scaling(scored, {(0, 0): 10.0}, {0: 1}) == [(0, 0, 10.0)]
    rich = ScoredConfig(config=None, objective=0.0, adjusted_revenue=50.0,
                        per_cloud={0: 50.0}, revenue=0.0, transport_cost=0.0,
                        shape=None)
    assert check_price_scaling(rich, {(0, 0): 10.0}, {0: 1}) == []


def test_random_streams_keep_duals_feasible():
    """Replaying every config of every seen request against the final window
    prices must leave no dual constraint uncovered, and the accept-side
    dual-to-primal ratio must hold exactly on every acceptance."""
    scn = load_scenario(DATA_DIR / "tiny.json")
    rng = np.random.default_rng(3)
    objects = scn.catalog.public_objects()
    for trial in range(6):
        resources = ResourceState(dict(scn.capacity))
        alloc = OnlineAllocator(scn, resources)
        placement = PlacementProfile({0: (objects[0],), 1: ()},
                                     dict(scn.cache_size))
        fetch = slot_fetch(scn, placement)
        seen = []
        accepted = 0
        for n in range(int(rng.integers(8, 20))):
            duration = int(rng.integers(1, 4))
            demand = {}
            for k in range(scn.vms.n_types):
                if k == 0 or rng.random() < 0.5:
                    objs = tuple(rng.choice(objects,
                                            size=int(rng.integers(1, 3)),
                                            replace=False))
                    demand[k] = (int(rng.integers(1, 3)), objs)
            req = Request(1000 * trial + n, 0, duration,
                          int(rng.integers(2)), demand)
            seen.append(req)
            d = alloc.decide(req, cost_table(scn, fetch, req), q_eff=1.0)
            accepted += d.accepted
        assert alloc.counters["identity_violations"] == 0
        tables = transport_matrix(seen, fetch, scn.topology, scn.catalog)
        assert dual_feasibility_violations(alloc, seen, tables, 1.0) == 0
        assert accepted > 0
        assert all(v >= 0 for v in window_prices(alloc).values())


def test_prices_never_fall_within_a_window():
    scn = load_scenario(DATA_DIR / "tiny.json")
    rng = np.random.default_rng(9)
    objects = scn.catalog.public_objects()
    resources = ResourceState(dict(scn.capacity))
    alloc = OnlineAllocator(scn, resources)
    fetch = slot_fetch(scn, PlacementProfile.empty(2, dict(scn.cache_size)))
    floor = {}
    for n in range(25):
        objs = tuple(rng.choice(objects, size=1))
        req = Request(n, 0, int(rng.integers(1, 4)), int(rng.integers(2)),
                      {int(rng.integers(2)): (int(rng.integers(1, 3)), objs)})
        alloc.decide(req, cost_table(scn, fetch, req), q_eff=1.0)
        prices = window_prices(alloc)
        assert set(floor) <= set(prices)
        for key, price in prices.items():
            assert price >= floor.get(key, 0.0) - 1e-12
            floor[key] = price


def test_admission_matches_scalar_reference():
    """The per-shape, matrix-fed, row-priced admission path against the
    scalar rule it replaced: equal decisions, and after every pricing window
    equal prices and baselines on every triple the reference touched, 0.0
    at every other price entry, and equal alphas, counters and ledger.  The windows mix one- and
    two-type requests (5 and 25 configs), public and private reads, queue
    weights that drive objectives negative, exact ties, a poked price above
    the ceiling and a resource with no capacity at all."""
    base = load_scenario(DATA_DIR / "desk.json")
    publics = base.catalog.public_objects()
    catalog = DataCatalog(dict(base.catalog.sizes))
    privates = [f"p{j}" for j in range(8)]
    for j, o in enumerate(privates):
        catalog.add(o, 1 + j % 3, visibility="private")
    tight = {(i, r): 120.0 for i in range(5) for r in range(3)}
    rng = np.random.default_rng(17)
    seen = Counter()
    for capacity, guard in ((tight, True), (tight, False),
                            ({**tight, (2, 1): 0.0}, True)):
        scn = replace(base, capacity=capacity, hard_capacity_guard=guard)
        new = OnlineAllocator(scn, ResourceState(dict(capacity)))
        ref = ReferenceAllocator(scn, catalog,
                                 ReferenceResourceState(dict(capacity)))
        req_id = 0
        for t in range(12):
            placement = PlacementProfile(
                {i: [o for o in publics if rng.random() < 0.08]
                 for i in range(5)}, dict(scn.cache_size))
            fetch = fetch_latencies(placement, scn.topology, publics)
            batch = []
            for n in range(int(rng.integers(3, 9))):
                demand = {}
                for k in (0, 1):
                    if k == 0 or rng.random() < 0.5:
                        objs = []
                        if n > 0:   # the first request of a window ties
                            objs += [publics[m] for m in rng.choice(
                                len(publics), size=int(rng.integers(0, 4)),
                                replace=False)]
                            objs += privates[:int(rng.integers(0, 3))]
                        demand[k] = (int(rng.integers(1, 4)), tuple(objs))
                if rng.random() < 0.5 and len(demand) == 2:
                    del demand[int(rng.integers(2))]
                batch.append(Request(req_id, t, int(rng.integers(1, 5)),
                                     int(rng.integers(5)), demand))
                req_id += 1
            tables = transport_matrix(batch, fetch, scn.topology, catalog)
            for alloc in (new, ref):
                alloc.advance_fine_slot(t)
            if t == 5:
                for i in range(5):
                    poke(new, i, 0, t, 1.5)
                    ref.dual.beta[(i, 0, t)] = 1.5
            for n, (req, table) in enumerate(zip(batch, tables)):
                q_eff = float(rng.choice([1.0, 250.0, 4000.0]))
                got = new.decide(req, table, q_eff)
                want = ref.decide(req, fetch, q_eff)
                assert got == want
                seen[got.reason or "accepted"] += 1
                seen["two_types"] += len(req.groups()) == 2
                if n == 0 and t != 5 and got.accepted:
                    assert set(got.config.assignment.values()) == {0}
                    seen["ties"] += 1
            prices = window_prices(new)
            assert set(ref.dual.beta) <= set(prices)
            for triple, price in prices.items():
                assert price == ref.dual.beta.get(triple, 0.0)
            for (i, r, t), cap in ref.dual.baseline.items():
                assert new.dual.baseline[(i, r)][t - new.dual.start] == cap
            assert new.dual.alpha == ref.dual.alpha
            assert new.counters == ref.counters
            assert {(i, r, t): units
                    for (i, r), row in new.resources.committed.items()
                    for t, units in row.items()} == ref.resources.committed
    for what in ("accepted", "price_ceiling", "negative_objective",
                 "no_feasible_config", "two_types", "ties"):
        assert seen[what] > 0, seen
