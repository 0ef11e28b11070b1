import numpy as np
import pytest

from edgeorch.model import (DataCatalog, PlacementProfile, Request,
                            ResourceState, Topology, VMCatalog, config_usage,
                            enumerate_configs, fetch_latencies,
                            transport_matrix)
from edgeorch.placement import random_placement_instance
from reference_rules import (ORIGIN, ReferenceResourceState, nearest_replica,
                             unit_transport_costs)


def two_cloud_topo():
    return Topology([[0.0, 20.0], [20.0, 0.0]], [100.0, 120.0], [5.0, 6.0])


def small_catalog():
    return DataCatalog({"o1": 2, "o2": 1, "p1": 1},
                       visibility={"p1": "private"})


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology([[0.0, 1.0]], [100.0], [5.0])          # not square
    with pytest.raises(ValueError):
        Topology([[0.0, 1.0], [2.0, 0.0]], [100.0, 100.0], [5.0, 5.0])
    with pytest.raises(ValueError):
        Topology([[1.0, 1.0], [1.0, 0.0]], [100.0, 100.0], [5.0, 5.0])
    with pytest.raises(ValueError):
        # origin must dominate any inter-cloud hop
        Topology([[0.0, 50.0], [50.0, 0.0]], [40.0, 100.0], [5.0, 5.0])


def test_vm_catalog_rejects_empty_recipe():
    with pytest.raises(ValueError):
        VMCatalog(recipes=[[0.0, 0.0]], prices=[10.0])


def test_vm_catalog_price_scale():
    vms = VMCatalog(recipes=[[1.0], [2.0]], prices=[10.0, 20.0], price_scale=1.5)
    assert vms.price(0) == 15.0
    assert vms.price(1) == 30.0


def test_request_validation():
    catalog = small_catalog()
    req = Request(1, 0, 2, 0, {0: (1, ("o1",))})
    req.validate(catalog, n_types=1, n_clouds=2)
    with pytest.raises(ValueError):
        Request(1, 0, 0, 0, {0: (1, ())}).validate(catalog, 1, 2)
    with pytest.raises(ValueError):
        Request(1, 0, 1, 5, {0: (1, ())}).validate(catalog, 1, 2)
    with pytest.raises(ValueError):
        Request(1, 0, 1, 0, {3: (1, ())}).validate(catalog, 1, 2)
    with pytest.raises(ValueError):
        Request(1, 0, 1, 0, {0: (0, ())}).validate(catalog, 1, 2)
    with pytest.raises(ValueError):
        Request(1, 0, 1, 0, {0: (1, ("nope",))}).validate(catalog, 1, 2)


def test_enumerate_configs_counts():
    topo = two_cloud_topo()
    req = Request(1, 0, 1, 0, {0: (1, ()), 1: (2, ())})
    configs = enumerate_configs(req, topo)
    assert len(configs) == 4                      # 2 clouds ^ 2 type groups
    assert configs[0].assignment == {0: 0, 1: 0}  # ascending cloud order
    single = Request(2, 0, 1, 0, {1: (1, ())})
    assert len(enumerate_configs(single, topo)) == 2
    with pytest.raises(ValueError):
        enumerate_configs(Request(3, 0, 1, 0, {0: (0, ())}), topo)


def test_nearest_replica_resolution():
    topo = two_cloud_topo()
    placement = PlacementProfile({0: (), 1: ("o1",)}, {0: 4.0, 1: 4.0})
    # cached remotely: nearest holder
    assert nearest_replica(0, "o1", placement, topo) == (1, 20.0)
    # cached locally: free
    assert nearest_replica(1, "o1", placement, topo) == (1, 0.0)
    # cached nowhere: origin
    assert nearest_replica(0, "o2", placement, topo) == (ORIGIN, 100.0)


def test_unit_transport_costs_table():
    topo = two_cloud_topo()
    catalog = small_catalog()
    placement = PlacementProfile({0: (), 1: ("o1",)}, {0: 4.0, 1: 4.0})
    fetch = fetch_latencies(placement, topo, catalog.public_objects())
    req = Request(1, 0, 4, 0, {0: (1, ("o1", "p1"))})
    [table] = transport_matrix([req], fetch, topo, catalog)
    # at cloud 0: o1 from cloud 1 (20 * size 2), p1 at ingress, free
    assert table[0][0] == 40.0
    # at cloud 1: o1 local, p1 hauled from ingress 0 (20 * size 1)
    assert table[0][1] == 20.0


def test_request_cost_and_revenue():
    topo = two_cloud_topo()
    catalog = small_catalog()
    vms = VMCatalog(recipes=[[2.0]], prices=[10.0])
    placement = PlacementProfile.empty(2, {0: 4.0, 1: 4.0})
    req = Request(1, 0, 4, 0, {0: (2, ("o2",))})
    config = enumerate_configs(req, topo)[1]      # host both VMs at cloud 1
    [table] = transport_matrix(
        [req], fetch_latencies(placement, topo, catalog.public_objects()), topo,
        catalog)
    # o2 uncached: origin fetch at 120 from cloud 1, size 1, two VMs
    assert sum(req.demand[k][0] * table[k][i]
               for k, i in config.assignment.items()) == 240.0
    # 4 slots * 10 * 2
    assert req.duration * sum(vms.price(k) * req.demand[k][0]
                              for k in config.assignment) == 80.0


def reference_transport_costs(req, placement, topo, catalog):
    """The per-lookup rule the fetch table replaces: nearest replica for
    public objects, the request's ingress for private ones."""
    table = {}
    for k in req.groups():
        for i in topo.clouds:
            total = 0.0
            for o in req.demand[k][1]:
                if catalog.is_public(o):
                    lat = nearest_replica(i, o, placement, topo)[1]
                else:
                    lat = topo.w[i][req.ingress]
                total += lat * catalog.size(o)
            table[(k, i)] = total
    return table


def test_transport_costs_match_reference_rule():
    """Every entry of the batched matrix equals, bit for bit, both the
    per-lookup rule and the scalar per-request sum it replaced."""
    rng = np.random.default_rng(11)
    seen = {"two_groups": 0, "private": 0, "public_only": 0}
    for trial in range(60):
        _, cache, topo, catalog = random_placement_instance(rng)
        publics = catalog.public_objects()
        for j in range(int(rng.integers(1, 6))):
            catalog.add(f"p{j}", int(rng.integers(1, 4)), visibility="private")
        ids = publics + [o for o in catalog.sizes if o not in publics]
        placement = PlacementProfile(
            {i: [o for o in publics if rng.random() < 0.4] for i in cache},
            cache)
        fetch = fetch_latencies(placement, topo, publics)
        requests = []
        for n in range(5):
            demand = {}
            for k in range(3):
                if k == 0 or rng.random() < 0.5:
                    picks = rng.choice(len(ids), size=int(rng.integers(0, 4)),
                                       replace=False)
                    demand[k] = (int(rng.integers(1, 3)),
                                 tuple(ids[m] for m in sorted(picks)))
            requests.append(
                Request(n, 0, 1, int(rng.integers(topo.n_clouds)), demand))
        tables = transport_matrix(requests, fetch, topo, catalog)
        assert len(tables) == len(requests)
        for req, table in zip(requests, tables):
            reference = reference_transport_costs(req, placement, topo, catalog)
            assert unit_transport_costs(req, fetch, topo, catalog) == reference
            entries = {(k, i): cost for k, row in table.items()
                       for i, cost in enumerate(row)}
            assert entries == reference
            objects = [o for _, objs in req.demand.values() for o in objs]
            seen["two_groups"] += len(req.groups()) >= 2
            if any(o not in publics for o in objects):
                seen["private"] += 1
            else:
                seen["public_only"] += 1
        unknown = Request(99, 0, 1, 0, {0: (1, (publics[0], "nope"))})
        with pytest.raises(ValueError, match="nope"):
            transport_matrix(requests + [unknown], fetch, topo, catalog)
    assert all(count > 0 for count in seen.values()), seen


def test_config_usage_drops_zero_rows():
    vms = VMCatalog(recipes=[[10.0, 0.0], [0.0, 5.0]], prices=[1.0, 1.0])
    req = Request(1, 0, 1, 0, {0: (2, ()), 1: (1, ())})
    topo = two_cloud_topo()
    config = enumerate_configs(req, topo)[0]
    usage = config_usage(req, config, vms)
    assert usage == {(0, 0): 20.0, (0, 1): 5.0}


def test_resource_state_lease_cycle():
    state = ResourceState({(0, 0): 10.0})
    assert state.free_row((0, 0), 3, 4) == [10.0]
    state.lease("r1", {(0, 0): 4.0}, start=0, expiry=3)
    assert state.free_row((0, 0), 2, 3) == [6.0]
    assert state.free_row((0, 0), 3, 4) == [10.0]   # lease ends before slot 3
    assert state.fits({(0, 0): 6.0}, 0, 3)
    assert not state.fits({(0, 0): 7.0}, 0, 3)
    with pytest.raises(ValueError):
        state.lease("r1", {(0, 0): 1.0}, 0, 1)    # duplicate id
    state.advance(3)
    assert "r1" not in state.leases
    assert state.free_row((0, 0), 0, 5) == [10.0] * 5
    with pytest.raises(ValueError):
        state.advance(1)


def test_resource_state_audit_detects_drift():
    state = ResourceState({(0, 0): 10.0})
    state.lease("r1", {(0, 0): 4.0}, 0, 2)
    state.audit()
    state.committed[(0, 0)][1] = 9.0              # corrupt the ledger
    with pytest.raises(AssertionError):
        state.audit()


def test_resource_state_random_leases_match_recount():
    rng = np.random.default_rng(4)
    for _ in range(30):
        state = ResourceState({(i, r): 100.0 for i in range(2) for r in range(2)})
        expect = {}
        for n in range(int(rng.integers(1, 12))):
            usage = {(int(rng.integers(2)), int(rng.integers(2))):
                     float(rng.integers(1, 9))}
            start = int(rng.integers(0, 4))
            expiry = start + int(rng.integers(1, 4))
            state.lease(f"r{n}", usage, start, expiry)
            for key, units in usage.items():
                for t in range(start, expiry):
                    expect[key + (t,)] = expect.get(key + (t,), 0.0) + units
        assert {(i, r, t): units for (i, r), row in state.committed.items()
                for t, units in row.items()} == expect
        state.audit()


def test_resource_state_matches_triple_reference():
    """The row ledger against the triple-keyed ledger it replaced, on seeded
    random runs of lease, fits and advance: jumps of several slots, leases
    past capacity with no guard, and leases ending exactly at now."""
    rng = np.random.default_rng(23)
    keys = [(i, r) for i in range(3) for r in range(2)]
    seen = {"jump": 0, "overcommit": 0, "ends_at_now": 0, "no_fit": 0}
    for _ in range(40):
        capacity = {key: float(rng.integers(5, 20)) for key in keys}
        new, ref = ResourceState(capacity), ReferenceResourceState(capacity)
        n = 0
        for _ in range(int(rng.integers(20, 60))):
            op = rng.random()
            if op < 0.2:
                step = int(rng.choice([0, 1, 1, 2, 3, 7]))
                now = new.now + step
                seen["jump"] += step > 1
                seen["ends_at_now"] += any(l.expiry == now
                                           for l in ref.leases.values())
                new.advance(now)
                ref.advance(now)
            else:
                usage = {keys[m]: float(rng.integers(1, 9))
                         for m in rng.choice(len(keys),
                                             size=int(rng.integers(1, 3)),
                                             replace=False)}
                start = new.now + int(rng.integers(0, 4))
                expiry = start + int(rng.integers(1, 5))
                fits = new.fits(usage, start, expiry)
                assert fits == ref.fits(usage, start, expiry)
                seen["no_fit"] += not fits
                if fits or op < 0.5:   # no guard: some leases overcommit
                    seen["overcommit"] += not fits
                    new.lease(n, usage, start, expiry)
                    ref.lease(n, usage, start, expiry)
                    n += 1
            for (i, r) in keys:
                assert new.free_row((i, r), new.now, new.now + 12) == [
                    ref.free(i, r, t) for t in range(new.now, new.now + 12)]
            assert new.now == ref.now
            assert {(i, r, t): units for (i, r), row in new.committed.items()
                    for t, units in row.items()} == ref.committed
            assert new.high_water == ref.high_water
            assert new.leases == ref.leases
            assert new.audit() == ref.audit() is None
    assert all(count > 0 for count in seen.values()), seen


def test_high_water_tracks_peaks_across_advances():
    state = ResourceState({(0, 0): 10.0})
    state.lease("a", {(0, 0): 7.0}, 0, 2)
    state.advance(2)
    state.lease("b", {(0, 0): 3.0}, 2, 3)
    assert state.high_water[(0, 0)] == 7.0


def test_data_catalog():
    catalog = small_catalog()
    assert catalog.public_objects() == ["o1", "o2"]
    assert not catalog.is_public("p1")
    assert catalog.size("o1") == 2
    with pytest.raises(ValueError):
        catalog.size("missing")
    catalog.add("o3", 3)
    assert "o3" in catalog.public_objects()
