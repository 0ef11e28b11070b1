import struct
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from edgeorch.allocator import (BONUS_SCALE, E_RATIO, REJECT_NEGATIVE,
                                Decision, DecisionLog, MyopicAllocator,
                                OnlineAllocator, ScoredConfig, ShapeScores,
                                check_price_scaling,
                                dual_feasibility_violations)
from edgeorch.model import (DataCatalog, PlacementProfile, Request,
                            ResourceState, Topology, VMCatalog, config_usage,
                            transport_rows)
from edgeorch.orchestrator import run_coarse_slot, update_virtual_queue
from edgeorch.placement import (aggregate_demand, greedy_place,
                                top_popularity_place)
from edgeorch.scenario import DATA_DIR, Scenario, load_scenario
from edgeorch.simulator import WorkloadConfig, generate_workload, run_policy
from reference_rules import (ReferenceAllocator, ReferenceResourceState,
                             cost_tables, pack_requests,
                             reference_coarse_slot, reference_fetch_latencies,
                             reference_score_one, reference_select_config)


def one_cloud_scenario():
    """Single cloud, one VM type touching two resources at 10 units each."""
    return Scenario(
        name="unit",
        topology=Topology([[0.0]], [100.0]),
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


def bits(x):
    return struct.pack("<d", x)


def check_selection(scored, want):
    """select_config's pick against want, the reference's pick: equal field
    for field, and the objective bit for bit."""
    assert scored == want
    assert bits(scored.objective) == bits(want.objective)


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


def slot_rows(scenario, requests, catalog=None):
    """The requests' model.PackedRows over the scenario's public objects."""
    return pack_requests(requests, scenario.catalog.public_objects(),
                         scenario.topology.n_clouds,
                         catalog or scenario.catalog)


def slot_costs(scenario, placement, requests, catalog=None):
    """The requests' model.transport_rows under the placement."""
    return transport_rows(slot_rows(scenario, requests, catalog), placement,
                          scenario.topology)


def slot_scores(alloc, scenario, placement, requests, q_eff, catalog=None):
    """The requests' score_matrix under the placement."""
    rows = slot_rows(scenario, requests, catalog)
    return alloc.score_matrix(requests, rows, transport_rows(
        rows, placement, scenario.topology), q_eff)


def cost_table(scenario, placement, req):
    """The request's transport table under the placement."""
    return cost_tables([req], slot_costs(scenario, placement, [req]))[0]


def decide_rows(alloc, requests, scores, slot=0):
    """decide_window on the requests as the rows of a fresh DecisionLog,
    opened for coarse slot `slot`; returns the log's rows."""
    log = DecisionLog()
    log.open(slot, requests)
    alloc.decide_window(requests, scores, log, 0)
    return list(log)


def decide(alloc, scenario, placement, req, q_eff):
    """Price and score one request on its own under q_eff, then decide it."""
    return alloc.decide(req, slot_scores(alloc, scenario, placement, [req],
                                         q_eff)[0])


def test_scoring_prefers_the_cached_cloud():
    scn = two_cloud_scenario()
    alloc = fresh(scn)
    placement = PlacementProfile({0: (), 1: ("o1",)}, dict(scn.cache_size))
    req = Request(1, 0, 4, 0, {0: (1, ("o1",))})

    shape0, shape1 = alloc._shapes_for(req)
    assert shape0.config.assignment == {0: 0}
    table = cost_table(scn, placement, req)
    total, per_cloud, cost, revenue = reference_score_one(alloc, req, shape0,
                                                          table, 1.0)
    # hosting at cloud 0 hauls o1 over the 20-latency link: 10*10 - 40/4
    assert total == 90.0
    assert per_cloud == {0: 90.0}
    assert cost == 40.0
    assert revenue == 40.0

    entry = slot_scores(alloc, scn, placement, [req], 1.0)[0]
    group, m = entry
    assert group.shapes == [shape0, shape1]
    assert group.values[m].tolist() == [360.0, 400.0]
    assert group.spend[m].tolist() == [40.0, 0.0]
    # adjusted revenue at clouds 0 and 1, then the total
    assert group.adjusted[m].tolist() == [[90.0, 0.0, 90.0],
                                          [0.0, 100.0, 100.0]]
    # the highest value
    assert group.top[m] == 400.0
    scored = alloc.select_config(req, entry)
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

    d = alloc.admit(req, scored)
    assert d.reason is None
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
    d = decide(alloc, scn, placement, req, q_eff=10.0)
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
    d = alloc.admit(req, scored)
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
    d = alloc.admit(req, scored)
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
    d = alloc.admit(req, scored)
    assert d.reason == "no_feasible_config"


def test_advance_fine_slot_restarts_window():
    scn = one_cloud_scenario()
    alloc = fresh(scn)
    req = Request(1, 0, 2, 0, {0: (1, ())})
    alloc.admit(req, alloc_scored(alloc, req))
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
            d = decide(alloc, scn, placement, req, q_eff=1.0)
            accepted += d.reason is None
        assert alloc.counters["identity_violations"] == 0
        costs = slot_costs(scn, placement, seen)
        scores = slot_scores(alloc, scn, placement, seen, 1.0)
        assert dual_feasibility_violations(alloc, seen, scores) == 0
        # the same count from the scalar valuation of every config
        uncovered = 0
        for req, table in zip(seen, cost_tables(seen, costs)):
            alpha = alloc.dual.alpha.get(req.req_id, 0.0)
            for shape in alloc._shapes_for(req):
                total = reference_score_one(alloc, req, shape, table, 1.0)[0]
                uncovered += (alpha + alloc._charge(req, shape.rows)
                              - req.duration * total < -1e-7)
        assert uncovered == 0
        assert accepted > 0
        assert all(v >= 0 for v in window_prices(alloc).values())


def test_prices_never_fall_within_a_window():
    scn = load_scenario(DATA_DIR / "tiny.json")
    rng = np.random.default_rng(9)
    objects = scn.catalog.public_objects()
    resources = ResourceState(dict(scn.capacity))
    alloc = OnlineAllocator(scn, resources)
    placement = PlacementProfile.empty(2, dict(scn.cache_size))
    floor = {}
    for n in range(25):
        objs = tuple(rng.choice(objects, size=1))
        req = Request(n, 0, int(rng.integers(1, 4)), int(rng.integers(2)),
                      {int(rng.integers(2)): (int(rng.integers(1, 3)), objs)})
        decide(alloc, scn, placement, req, q_eff=1.0)
        prices = window_prices(alloc)
        assert set(floor) <= set(prices)
        for key, price in prices.items():
            assert price >= floor.get(key, 0.0) - 1e-12
            floor[key] = price


def test_admission_matches_scalar_reference():
    """The per-shape, matrix-fed, row-priced admission path against the
    scalar rule it replaced: the selection from the score matrix equals the
    selection that scores every config with reference_score_one, priced clouds
    included; equal decisions, and after every pricing window
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
        catalog.add_many([o], 1 + j % 3)
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
            costs = slot_costs(scn, placement, batch, catalog)
            tables = cost_tables(batch, costs)
            for alloc in (new, ref):
                alloc.advance_fine_slot(t)
            if t == 5:
                for i in range(5):
                    poke(new, i, 0, t, 1.5)
                    ref.dual.beta[(i, 0, t)] = 1.5
            for n, (req, table) in enumerate(zip(batch, tables)):
                q_eff = float(rng.choice([1.0, 250.0, 4000.0]))
                entry = slot_scores(new, scn, placement, batch, q_eff,
                                    catalog)[n]
                scored = new.select_config(req, entry)
                check_selection(scored, reference_select_config(new, req, table,
                                                                q_eff))
                seen["priced"] += not new.dual.priced.isdisjoint(
                    scored.shape.clouds)
                got = new.admit(req, scored)
                want = ref.decide(req, reference_fetch_latencies(
                    placement, scn.topology, publics), q_eff)
                assert got == want
                seen[got.reason or "accepted"] += 1
                seen["two_types"] += len(req.groups()) == 2
                if n == 0 and t != 5 and got.reason is None:
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
                 "no_feasible_config", "two_types", "ties", "priced"):
        assert seen[what] > 0, seen


def test_score_matrix_matches_scalar_scores():
    """Each part of a slot's score matrix equals, bit for bit, what the
    scalar reference_score_one gives the config: the value is duration
    times its total, the spend is its transport cost, and the adjusted
    row holds its per-cloud values on the clouds the config uses, 0.0 at
    the others, and then its total.  The myopic rule's matrix holds the
    same spend and nothing else.  The batches mix bundles of one, two and
    three type groups (5, 25 and 125 configs), some with a zero-count type
    in their demand, with public and private reads.  Each request's
    ShapeScores holds the Shapes _shapes_for caches under its key."""
    base = load_scenario(DATA_DIR / "desk.json")
    scn = replace(base, vms=VMCatalog(
        recipes=base.vms.recipes + [[5.0, 5.0, 5.0]],
        prices=base.vms.prices + [7.5]))
    publics = scn.catalog.public_objects()
    catalog = DataCatalog(dict(scn.catalog.sizes))
    for j in range(6):
        catalog.add_many([f"p{j}"], 1 + j % 3)
    ids = publics + [f"p{j}" for j in range(6)]
    rng = np.random.default_rng(23)
    online = OnlineAllocator(scn, ResourceState(dict(scn.capacity)))
    myopic = MyopicAllocator(scn, ResourceState(dict(scn.capacity)))
    groups = Counter()
    for trial in range(8):
        placement = PlacementProfile(
            {i: [o for o in publics if rng.random() < 0.1] for i in range(5)},
            dict(scn.cache_size))
        batch = []
        for n in range(12):
            demand = {}
            for k in rng.permutation(3)[:int(rng.integers(1, 4))]:
                picks = rng.choice(len(ids), size=int(rng.integers(0, 5)),
                                   replace=False)
                demand[int(k)] = (int(rng.integers(1, 4)),
                                  tuple(ids[m] for m in sorted(picks)))
            if n % 3 == 2 and len(demand) < 3:   # a zero-count type, last
                demand[min({0, 1, 2} - set(demand))] = (0, ())
            batch.append(Request(n, 0, int(rng.integers(1, 6)),
                                 int(rng.integers(5)), demand))
            groups[len(batch[-1].groups()), len(demand)] += 1
        costs = slot_costs(scn, placement, batch, catalog)
        tables = cost_tables(batch, costs)
        q_eff = float(rng.choice([1.0, 37.5, 4000.0]))
        scores = slot_scores(online, scn, placement, batch, q_eff, catalog)
        spend = slot_scores(myopic, scn, placement, batch, q_eff, catalog)
        for req, table, (group, m), (bare, b) in zip(batch, tables, scores,
                                                     spend):
            shapes = online._shapes_for(req)
            scalar = [reference_score_one(online, req, shape, table, q_eff)
                      for shape in shapes]
            values = [req.duration * total for total, _, _, _ in scalar]
            # grouped by kind: the Shapes cached under the request's key
            assert group.shapes is shapes
            assert group.values[m].tolist() == values
            assert group.spend[m].tolist() == [cost for _, _, cost, _ in scalar]
            assert group.adjusted[m].shape == (len(shapes),
                                               scn.topology.n_clouds + 1)
            for shape, (*cloud_row, total), (want, per_cloud, _, _) in zip(
                    shapes, group.adjusted[m].tolist(), scalar):
                assert total == want
                assert {i: cloud_row[i] for i in shape.clouds} == per_cloud
                assert all(cloud_row[i] == 0.0 for i in scn.topology.clouds
                           if i not in per_cloud)
            assert group.top[m] == max(values)
            assert bare.shapes == shapes
            assert bare.spend[b].tolist() == group.spend[m].tolist()
            assert bare[2:] == (None,) * 4
    # 1, 2 and 3 groups, and 1 and 2 groups with a zero-count type
    assert all(groups[g, g] > 0 for g in (1, 2, 3)), groups
    assert all(groups[g, g + 1] > 0 for g in (1, 2)), groups


def replay_checking_selections(monkeypatch, scn, wl, horizon):
    """Replay the stream under proposed, checking every decision against
    reference_select_config, which scores every config with
    reference_score_one.  A selection from the score matrix equals the
    reference's pick.  A window's leading arrivals whose reference
    objective is negative, while nothing is priced, are rejected without
    a selection: each carries the reference's objective, bit for bit, and
    alpha 0.0.  Returns the replay and counts of what the decisions met."""
    select = OnlineAllocator.select_config
    score_matrix = OnlineAllocator.score_matrix
    decide_window = OnlineAllocator.decide_window
    priced = {}   # req_id -> (its cost table, the slot's q_eff)
    entries = {}  # req_id -> its score_matrix entry
    seen = Counter()

    def scoring(self, requests, rows, costs, q_eff):
        scores = score_matrix(self, requests, rows, costs, q_eff)
        for req, table, entry in zip(requests, cost_tables(requests, costs),
                                     scores):
            priced[req.req_id] = (table, q_eff)
            entries[req.req_id] = entry
        return scores

    def checked(self, req, scores):
        group, m = entries[req.req_id]
        assert scores[0] is group and scores[1] == m
        scored = select(self, req, scores)
        check_selection(scored, reference_select_config(
            self, req, *priced[req.req_id]))
        seen["selections"] += 1
        seen["priced"] += bool(self.dual.priced)
        seen["won_on_priced"] += not self.dual.priced.isdisjoint(
            scored.shape.clouds)
        return scored

    def windowed(self, requests, scores, log, first):
        prefix = []   # the reference's picks of the unpriced negative prefix
        if not self.dual.priced:
            for req in requests:
                want = reference_select_config(self, req, *priced[req.req_id])
                if want.objective >= 0.0:
                    break
                prefix.append(want)
        before = seen["selections"]
        decide_window(self, requests, scores, log, first)
        assert seen["selections"] - before == len(requests) - len(prefix)
        for n, want in enumerate(prefix, first):
            assert (log.reason[n], log.config[n], log.dual_delta[n]) == (
                REJECT_NEGATIVE, None, 0.0)
            assert bits(log.objective[n]) == bits(want.objective)
            assert self.dual.alpha[log.req_id[n]] == 0.0
        seen["prefix_rejects"] += len(prefix)

    monkeypatch.setattr(OnlineAllocator, "score_matrix", scoring)
    monkeypatch.setattr(OnlineAllocator, "select_config", checked)
    monkeypatch.setattr(OnlineAllocator, "decide_window", windowed)
    report = run_policy("proposed", scn, wl, horizon)
    assert (seen["selections"] + seen["prefix_rejects"]
            == len(report.decisions) > 0)
    return report, seen


def test_selection_matches_reference_on_a_desk_stream(monkeypatch):
    """Over a generated desk stream, where shadow prices build up on every
    cloud, each selection from the score matrix equals the selection that
    scores every config with reference_score_one, and each reject of a
    window's unpriced prefix carries the reference's objective."""
    scn = load_scenario(DATA_DIR / "desk.json")
    wl = generate_workload(WorkloadConfig(seed=3), scn,
                           12 * scn.fine_per_coarse)
    _, seen = replay_checking_selections(monkeypatch, scn, wl, 12)
    assert seen["priced"] > seen["selections"] / 2, seen
    assert seen["won_on_priced"] > 0, seen
    assert seen["prefix_rejects"] > 0, seen


def test_selection_matches_reference_on_paper_scale_slots(monkeypatch):
    """The same check over whole paper_scale slots, where most decisions
    meet a window with no price row, rejects and accepts among them."""
    scn = load_scenario(DATA_DIR / "paper_scale.json")
    wl = generate_workload(WorkloadConfig(seed=1), scn,
                           2 * scn.fine_per_coarse)
    report, seen = replay_checking_selections(monkeypatch, scn, wl, 2)
    unpriced = seen["selections"] - seen["priced"]
    assert 0 < unpriced < seen["prefix_rejects"], seen
    assert seen["won_on_priced"] > 0, seen
    assert report.totals["accepted"] > 0


def hand_group(alloc, req, rows):
    """ShapeScores of the request's shape with hand-made values, one row
    per request of that shape, and each row's pick by a plain loop with a
    strict >.  A row's adjusted revenue is its value over the duration, all
    of it at the first cloud of the picked config."""
    shapes = alloc._shapes_for(req)
    wants = []
    for row in rows:
        want = None
        for c, value in enumerate(row):
            if want is None or value > row[want]:
                want = c
        wants.append(want)
    values = np.array(rows)
    adjusted = np.zeros(values.shape + (alloc.topo.n_clouds + 1,))
    adjusted[:, :, -1] = values / req.duration
    for m, c in enumerate(wants):
        adjusted[m, c, shapes[c].clouds[0]] = values[m, c] / req.duration
    # top and order as OnlineAllocator._values takes them
    return ShapeScores(shapes, np.ones(values.shape), values, adjusted,
                       values.max(axis=1).tolist(),
                       np.argsort(-values, axis=1, kind="stable").tolist()
                       ), wants


@pytest.mark.parametrize("rows", [
    [[1.0, 3.0, 2.0, 3.0, 3.0], [2.0, 2.0, 2.0, 2.0, 2.0],
     [0.5, 0.25, 0.5, 0.125, 0.5]],
    [[-0.0, 0.0, 0.0, -0.0, -1.0], [0.0, -0.0, -0.0, 0.0, -1.0],
     [-1.0, -0.0, -2.0, 0.0, -0.0], [-0.0, 0.0, -1.0, -1.0, -1.0],
     [0.0, -0.0, -1.0, -1.0, -1.0]],
    [[-3.0, -1.0, -2.0, -1.0, -5.0], [-1e-300, -1e300, -2e-300, -1.0, -1.0],
     [-4.0, -4.0, -4.0, -4.0, -4.0]],
], ids=["ties", "signed_zeros", "all_negative"])
def test_first_argmax_on_hand_made_rows(rows):
    """select_config on hand-made values, in a window with no price row
    and in one whose only price row is on a cloud no config uses (so every
    charge is skipped), against a plain loop with a strict >: the same
    pick, and the same objective bit for bit.  Decided as a window of its
    own, a row with a negative top is a reject that carries it alone."""
    scn = load_scenario(DATA_DIR / "desk.json")
    alloc = fresh(scn)
    req = Request(0, 0, 2, 0, {0: (1, ())})
    shapes = alloc._shapes_for(req)
    group, wants = hand_group(alloc, req, rows)
    for m, (row, want) in enumerate(zip(rows, wants)):
        alloc.dual.priced.clear()
        unpriced = alloc.select_config(req, (group, m))
        alloc.dual.priced.add(scn.topology.n_clouds)
        skipped = alloc.select_config(req, (group, m))
        assert unpriced == skipped
        assert unpriced.config == shapes[want].config
        assert (bits(unpriced.objective) == bits(skipped.objective)
                == bits(row[want]))
        if row[want] < 0.0:
            assert bits(group.top[m]) == bits(row[want])
            alone = fresh(scn)
            [d] = decide_rows(alone, [req], [(group, m)])
            assert d == Decision(0, 0, 2, "rejected", REJECT_NEGATIVE, None,
                                 row[want], 0.0, 0.0, 0.0, 0.0, 0)
            assert bits(d.objective) == bits(row[want])
            assert alone.dual.alpha == {0: 0.0}


def test_pruned_selection_matches_a_plain_loop():
    """select_config walks a request's configs by descending value and
    stops at the first whose value is below the best score.  Against a
    plain loop over every config with a strict > on value minus _charge,
    it picks the same config, with the same objective bit for bit.  The
    seeded value rows hold many exact ties, signed zeros and all-negative
    rows.  Each window holds price rows on random clouds.  Values and
    charges are multiples of 0.625, so a charged config often ties with
    one of lower value and lower index, which must then win.  Some
    selections stop early and some visit every config.  The order that
    score_matrix builds is each row's stable sort by descending value."""
    scn = load_scenario(DATA_DIR / "desk.json")
    rng = np.random.default_rng(41)
    seen = Counter()
    visited = set()

    class Visits(list):
        """A shape list that records the configs read from it."""

        def __getitem__(self, c):
            visited.add(c)
            return list.__getitem__(self, c)

    for trial in range(80):
        alloc = fresh(scn)
        demand = {0: (int(rng.integers(1, 3)), ())}
        if trial % 2:
            demand[1] = (int(rng.integers(1, 3)), ())
        req = Request(trial, 0, int(rng.integers(1, 3)), 0, demand)
        shapes = alloc._shapes_for(req)
        clouds = rng.permutation(scn.topology.n_clouds)
        for i in clouds[:int(rng.integers(0, len(clouds) + 1))].tolist():
            for r in range(len(scn.vms.resources)):
                for t in range(req.duration):
                    poke(alloc, i, r, t,
                         float(rng.choice([0.0, 0.0, 0.0, 1 / 16])))
        rows = []
        for m in range(20):
            row = rng.integers(-16, 17, size=len(shapes)) * 0.625
            if m % 4 == 1:
                row = rng.choice([0.0, -0.0, 0.625, -0.625, 1.25],
                                 size=len(shapes))
            elif m % 4 == 2:
                row = -np.abs(row) - 0.625
            rows.append(row.tolist())
        group, _ = hand_group(alloc, req, rows)
        group = group._replace(shapes=Visits(shapes))
        for m, row in enumerate(rows):
            scores = [value - alloc._charge(req, shape.rows)
                      for value, shape in zip(row, shapes)]
            want = None
            for c, score in enumerate(scores):
                if want is None or score > scores[want]:
                    want = c
            visited.clear()
            scored = alloc.select_config(req, (group, m))
            assert scored.shape is shapes[want]
            assert bits(scored.objective) == bits(scores[want])
            seen["early" if len(visited) < len(shapes) else "full"] += 1
            # a config visited before the winner that ties with it
            seen["tie_won_later"] += any(
                score == scores[want] and row[c] > row[want]
                for c, score in enumerate(scores[want + 1:], want + 1))
            seen["zero"] += scores[want] == 0.0
            seen["negative"] += max(row) < 0.0
    assert all(seen[what] > 0 for what in ("early", "full", "tie_won_later",
                                            "zero", "negative")), seen

    publics = scn.catalog.public_objects()
    batch = [Request(n, 0, int(rng.integers(1, 4)), int(rng.integers(5)),
                     {0: (1, tuple(publics[:n % 3])), 1: (n % 2, ())})
             for n in range(12)]
    for placement in (PlacementProfile.empty(5, scn.cache_size),
                      PlacementProfile({0: publics[:2]}, scn.cache_size)):
        for group, m in slot_scores(fresh(scn), scn, placement, batch, 37.5):
            values = group.values[m].tolist()
            assert group.order[m] == sorted(range(len(values)),
                                            key=lambda c: -values[c])


def test_unpriced_selection_matches_reference_on_bundles():
    """Requests of one, two and three type groups (5, 25 and 125 configs)
    are selected and admitted one by one; each window starts with no price
    row, so its first requests are charged nothing.  Every selection
    matches reference_select_config (see check_selection), and windows
    with and without a price row meet accepts and rejects on every group
    count."""
    base = load_scenario(DATA_DIR / "desk.json")
    scn = replace(base, vms=VMCatalog(
        recipes=base.vms.recipes + [[5.0, 5.0, 5.0]],
        prices=base.vms.prices + [7.5]))
    publics = scn.catalog.public_objects()
    rng = np.random.default_rng(31)
    alloc = fresh(scn)
    seen = Counter()
    for t in range(60):
        alloc.advance_fine_slot(t)
        placement = PlacementProfile(
            {i: [o for o in publics if rng.random() < 0.1] for i in range(5)},
            dict(scn.cache_size))
        batch = []
        for n in range(4):
            demand = {}
            for k in rng.permutation(3)[:1 + t % 3]:
                picks = rng.choice(len(publics), size=int(rng.integers(0, 4)),
                                   replace=False)
                demand[int(k)] = (int(rng.integers(1, 4)),
                                  tuple(publics[j] for j in sorted(picks)))
            batch.append(Request(100 * t + n, t, int(rng.integers(1, 4)),
                                 int(rng.integers(5)), demand))
        costs = slot_costs(scn, placement, batch)
        q_eff = float(rng.choice([1.0, 4000.0, 1e5]))
        for req, table, entry in zip(batch, cost_tables(batch, costs),
                                     slot_scores(alloc, scn, placement, batch,
                                                 q_eff)):
            unpriced = not alloc.dual.priced
            scored = alloc.select_config(req, entry)
            check_selection(scored, reference_select_config(alloc, req, table,
                                                            q_eff))
            decision = alloc.admit(req, scored)
            seen[(len(req.groups()), unpriced, decision.reason is None)] += 1
    assert alloc.counters["identity_violations"] == 0
    for groups in (1, 2, 3):
        for unpriced in (True, False):
            for accepted in (True, False):
                assert seen[(groups, unpriced, accepted)] > 0, seen


def counting_selections(alloc):
    """Count the allocator's select_config calls in a Counter it returns."""
    calls = Counter()
    select = alloc.select_config

    def counted(req, scores):
        calls["selections"] += 1
        return select(req, scores)

    alloc.select_config = counted
    return calls


def test_hand_made_windows():
    """decide_window on hand-made rows, each window on a fresh allocator.
    An all-negative window is rejected from its tops alone, with alpha
    0.0 and no selection.  A negative top after a non-negative one goes
    through decide, because the first admission prices its rows.  A -0.0
    top is no reject, and an empty window decides nothing."""
    scn = load_scenario(DATA_DIR / "desk.json")
    rows = [[-3.0, -1.0, -2.0, -1.0, -5.0], [-1e-300, -2.0, -1.0, -1.0, -4.0],
            [10.0, 30.0, 20.0, 30.0, 5.0], [-6.0, -7.0, -5.0, -8.0, -9.0],
            [-0.0, -1.0, -2.0, -0.0, -1.0]]
    requests = [Request(n, 0, 2, 0, {0: (1, ())}) for n in range(len(rows))]
    group, _ = hand_group(fresh(scn), requests[0], rows)

    def window(*picks):
        alloc = fresh(scn)
        calls = counting_selections(alloc)
        decisions = decide_rows(alloc, [requests[m] for m in picks],
                                [(group, m) for m in picks])
        return alloc, decisions, calls["selections"]

    alloc, decisions, selections = window(0, 1)
    assert selections == 0
    assert decisions == [Decision(m, 0, 2, "rejected", REJECT_NEGATIVE, None,
                                  group.top[m], 0.0, 0.0, 0.0, 0.0, 0)
                         for m in (0, 1)]
    assert [bits(d.objective) for d in decisions] == [bits(-1.0),
                                                       bits(-1e-300)]
    assert alloc.dual.alpha == {0: 0.0, 1: 0.0}

    alloc, (first, then), selections = window(2, 3)
    assert selections == 2 and first.accepted
    assert alloc.dual.priced
    assert then.reason == REJECT_NEGATIVE and then.objective <= -5.0
    assert alloc.dual.alpha[3] == 0.0

    alloc, [d], selections = window(4)
    assert bits(group.top[4]) in (bits(0.0), bits(-0.0))
    assert selections == 1 and d.reason != REJECT_NEGATIVE
    assert bits(d.objective) == bits(-0.0)

    alloc, decisions, selections = window()
    assert (decisions, selections, alloc.dual.alpha) == ([], 0, {})


def test_window_refuses_a_request_from_another_fine_slot():
    """decide_window prices only the arrivals of its own fine slot: a
    window holding a later arrival, or an earlier one whose negative top
    would be rejected unpriced, raises ValueError and decides nothing."""
    scn = load_scenario(DATA_DIR / "desk.json")
    here, later, earlier = (Request(n, t, 2, 0, {0: (1, ())})
                            for n, t in enumerate((3, 4, 2)))
    group, _ = hand_group(fresh(scn), here, [[10.0, 30.0, 20.0, 30.0, 5.0],
                                             [-3.0, -1.0, -2.0, -1.0, -5.0]])
    for window in ([(here, 0), (later, 0)], [(earlier, 1)]):
        alloc = fresh(scn)
        alloc.advance_fine_slot(3)
        calls = counting_selections(alloc)
        requests = [req for req, _ in window]
        log = DecisionLog()
        log.open(0, requests)
        opened = list(log)
        with pytest.raises(ValueError, match="window 3"):
            alloc.decide_window(requests, [(group, m) for _, m in window],
                                log, 0)
        assert calls["selections"] == 0
        assert (alloc.dual.alpha, alloc.dual.priced) == ({}, set())
        assert repr(list(log)) == repr(opened)


def replay_slots(policy, scn, wl, n_slots, plain):
    """The first n_slots coarse slots of the stream under a fresh allocator
    of the policy's rule and its placement rule, through run_coarse_slot
    and one DecisionLog, or, if plain, through the per-request
    reference_coarse_slot.  Returns the allocator, the decisions as rows,
    the slot reports and the allocator's select_config calls."""
    resources = ResourceState(dict(scn.capacity))
    alloc = (OnlineAllocator if policy == "proposed"
             else MyopicAllocator)(scn, resources)
    rule = (top_popularity_place if policy == "myopic_nocoop"
            else greedy_place)
    calls = (counting_selections(alloc) if policy == "proposed"
             else Counter())
    queue = 0.0
    placement = PlacementProfile.empty(scn.topology.n_clouds, scn.cache_size)
    log, decisions, reports = DecisionLog(), [], []
    for big in range(n_slots):
        lo, hi = wl.span(big * scn.fine_per_coarse,
                         (big + 1) * scn.fine_per_coarse)
        args = (big, queue, wl.requests[lo:hi], wl.rows.take(lo, hi), alloc,
                lambda accepted: rule(
                    aggregate_demand(accepted, wl.catalog), scn.cache_size,
                    scn.topology, wl.catalog),
                placement)
        if plain:
            report, placement, slot_decisions = reference_coarse_slot(*args)
            decisions += slot_decisions
        else:
            report, placement = run_coarse_slot(*args, log)
        queue = update_virtual_queue(queue, report.cost, scn.budget)
        reports.append(report)
    return alloc, decisions if plain else list(log), reports, calls[
        "selections"]


@pytest.mark.parametrize("policy", ["proposed", "myopic_coop",
                                    "myopic_nocoop"])
@pytest.mark.parametrize("name, slots", [("desk", 12), ("paper_scale", 2)])
def test_window_decisions_match_a_per_request_replay(name, slots, policy):
    """The decision log of whole slots against the per-request replay
    that builds one Decision per arrival, on a fresh allocator each: equal
    rows and slot reports, field for field and float for float (repr
    tells -0.0 from 0.0), equal alphas and counters.  Under the online
    rule the windows reject their unpriced negative prefixes without a
    selection, and decide the rest."""
    scn = load_scenario(DATA_DIR / f"{name}.json")
    wl = generate_workload(WorkloadConfig(seed=2), scn,
                           slots * scn.fine_per_coarse)
    fast, got, got_reports, selected = replay_slots(policy, scn, wl, slots,
                                                    False)
    plain, want, want_reports, plain_selected = replay_slots(
        policy, scn, wl, slots, True)
    assert len(got) == len(want) == len(wl.requests) > 0
    # row by row, so a failure names the first row that differs
    assert [repr(d) for d in got] == [repr(d) for d in want]
    assert [repr(r) for r in got_reports] == [repr(r) for r in want_reports]
    assert sum(d.accepted for d in got) > 0
    assert fast.counters == plain.counters
    if policy == "proposed":
        assert [repr(a) for a in sorted(fast.dual.alpha.items())] == [
            repr(a) for a in sorted(plain.dual.alpha.items())]
        assert selected == plain_selected
        prefix = len(got) - selected
        assert 0 < prefix <= sum(d.reason == REJECT_NEGATIVE for d in got)
        assert selected > sum(d.accepted for d in got)


def test_empty_slot_scores_nothing():
    """A slot without requests has no score_matrix entries, under either
    rule."""
    scn = load_scenario(DATA_DIR / "tiny.json")
    rows = pack_requests([], scn.catalog.public_objects(),
                         scn.topology.n_clouds, scn.catalog)
    costs = np.zeros((0, scn.topology.n_clouds))
    for rule in (fresh(scn), MyopicAllocator(scn, ResourceState(
            dict(scn.capacity)))):
        assert rule.score_matrix([], rows, costs, 1.0) == []
        assert decide_rows(rule, [], []) == []
