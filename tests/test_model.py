import numpy as np
import pytest

from edgeorch.model import (ORIGIN, DataCatalog, NearestResolver,
                            PlacementProfile, Request, ResourceState, Topology,
                            VMCatalog, config_usage, enumerate_configs,
                            nearest_replica, unit_transport_costs)


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
    catalog = small_catalog()
    placement = PlacementProfile({0: (), 1: ("o1",)}, {0: 4.0, 1: 4.0})
    # cached remotely: nearest holder
    assert nearest_replica(0, "o1", placement, topo) == (1, 20.0)
    # cached locally: free
    assert nearest_replica(1, "o1", placement, topo) == (1, 0.0)
    # cached nowhere: origin
    assert nearest_replica(0, "o2", placement, topo) == (ORIGIN, 100.0)
    # private objects always come from the ingress cloud
    resolver = NearestResolver(placement, topo, catalog)
    assert resolver.lookup(0, "p1", ingress=0) == (0, 0.0)
    assert resolver.lookup(1, "p1", ingress=0) == (0, 20.0)


def test_private_lookup_needs_ingress():
    topo = two_cloud_topo()
    catalog = small_catalog()
    placement = PlacementProfile.empty(2, {0: 4.0, 1: 4.0})
    with pytest.raises(ValueError, match="ingress"):
        NearestResolver(placement, topo, catalog).lookup(0, "p1")


def test_unit_transport_costs_table():
    topo = two_cloud_topo()
    catalog = small_catalog()
    placement = PlacementProfile({0: (), 1: ("o1",)}, {0: 4.0, 1: 4.0})
    resolver = NearestResolver(placement, topo, catalog)
    req = Request(1, 0, 4, 0, {0: (1, ("o1", "p1"))})
    table = unit_transport_costs(req, resolver, catalog)
    # at cloud 0: o1 from cloud 1 (20 * size 2), p1 at ingress, free
    assert table[(0, 0)] == 40.0
    # at cloud 1: o1 local, p1 hauled from ingress 0 (20 * size 1)
    assert table[(0, 1)] == 20.0


def test_request_cost_and_revenue():
    topo = two_cloud_topo()
    catalog = small_catalog()
    vms = VMCatalog(recipes=[[2.0]], prices=[10.0])
    placement = PlacementProfile.empty(2, {0: 4.0, 1: 4.0})
    req = Request(1, 0, 4, 0, {0: (2, ("o2",))})
    config = enumerate_configs(req, topo)[1]      # host both VMs at cloud 1
    table = unit_transport_costs(req, NearestResolver(placement, topo, catalog),
                                 catalog)
    # o2 uncached: origin fetch at 120 from cloud 1, size 1, two VMs
    assert sum(req.demand[k][0] * table[(k, i)]
               for k, i in config.assignment.items()) == 240.0
    # 4 slots * 10 * 2
    assert req.duration * sum(vms.price(k) * req.demand[k][0]
                              for k in config.assignment) == 80.0


def test_config_usage_drops_zero_rows():
    vms = VMCatalog(recipes=[[10.0, 0.0], [0.0, 5.0]], prices=[1.0, 1.0])
    req = Request(1, 0, 1, 0, {0: (2, ()), 1: (1, ())})
    topo = two_cloud_topo()
    config = enumerate_configs(req, topo)[0]
    usage = config_usage(req, config, vms)
    assert usage == {(0, 0): 20.0, (0, 1): 5.0}


def test_resource_state_lease_cycle():
    state = ResourceState({(0, 0): 10.0})
    assert state.free(0, 0, 3) == 10.0
    state.lease("r1", {(0, 0): 4.0}, start=0, expiry=3)
    assert state.free(0, 0, 2) == 6.0
    assert state.free(0, 0, 3) == 10.0            # lease ends before slot 3
    assert state.fits({(0, 0): 6.0}, 0, 3)
    assert not state.fits({(0, 0): 7.0}, 0, 3)
    with pytest.raises(ValueError):
        state.lease("r1", {(0, 0): 1.0}, 0, 1)    # duplicate id
    state.advance(3)
    assert "r1" not in state.leases
    assert state.free(0, 0, 3) == 10.0
    with pytest.raises(ValueError):
        state.advance(1)


def test_resource_state_audit_detects_drift():
    state = ResourceState({(0, 0): 10.0})
    state.lease("r1", {(0, 0): 4.0}, 0, 2)
    state.audit()
    state.committed[(0, 0, 1)] = 9.0              # corrupt the ledger
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
        assert state.committed == expect
        state.audit()


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
