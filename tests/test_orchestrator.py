import pytest

from edgeorch import orchestrator
from edgeorch.allocator import DecisionLog, MyopicAllocator, OnlineAllocator
from edgeorch.model import PlacementProfile, Request, ResourceState
from edgeorch.orchestrator import (SlotReport, drift_plus_penalty_value,
                                   run_coarse_slot, update_virtual_queue)
from edgeorch.placement import (PlacementSolution, aggregate_demand,
                                greedy_place)
from edgeorch.scenario import DATA_DIR, load_scenario
from reference_rules import pack_requests


def test_update_virtual_queue():
    assert update_virtual_queue(0.0, 50.0, 60.0) == 0.0
    assert update_virtual_queue(0.0, 90.0, 60.0) == 30.0
    assert update_virtual_queue(30.0, 90.0, 60.0) == 60.0
    assert update_virtual_queue(10.0, 0.0, 60.0) == 0.0


def test_drift_plus_penalty_value():
    assert drift_plus_penalty_value(100.0, 0.0, 1e4, 200.0, 100.0) == -1e6
    assert drift_plus_penalty_value(2.0, 50.0, 5.0, 80.0, 100.0) == 200.0


def test_slot_report_acceptance():
    empty = SlotReport(0, 0.0, 0.0, 0.0, 1.0, 0, 0, 0.0, 0.0, 0.0)
    assert empty.acceptance == 1.0
    half = SlotReport(0, 0.0, 0.0, 0.0, 1.0, 4, 2, 0.0, 0.0, 0.0)
    assert half.acceptance == 0.5


def test_effective_queue_modes():
    scn = load_scenario(DATA_DIR / "tiny.json")
    resources = ResourceState(dict(scn.capacity))
    proposed = OnlineAllocator(scn, resources)
    myopic = MyopicAllocator(scn, resources)
    assert proposed.queue_weight(0.0) == 1.0
    assert proposed.queue_weight(42.0) == 42.0
    assert myopic.queue_weight(42.0) == 0.0


def packed(scenario, requests):
    """The requests' rows, packed by name."""
    return pack_requests(requests, scenario.catalog.public_objects(),
                         scenario.topology.n_clouds, scenario.catalog)


def run_one_slot(scenario, requests, slot=0, queue=0.0):
    """run_coarse_slot's report and placement under the proposed rule and
    greedy placement, with the rows it wrote to a fresh DecisionLog, and
    the demand matrix of each list of accepted (request, config) pairs its
    place callable received."""
    resources = ResourceState(dict(scenario.capacity))
    allocator = OnlineAllocator(scenario, resources)
    placement = PlacementProfile.empty(scenario.topology.n_clouds,
                                       dict(scenario.cache_size))
    demands = []

    def place(accepted):
        demands.append(aggregate_demand(accepted, scenario.catalog))
        return greedy_place(demands[-1], scenario.cache_size,
                            scenario.topology, scenario.catalog)

    log = DecisionLog()
    report, profile = run_coarse_slot(slot, queue, requests,
                                      packed(scenario, requests), allocator,
                                      place, placement, log)
    return (report, profile, list(log)), demands


def test_single_slot_accounting():
    scn = load_scenario(DATA_DIR / "tiny.json")
    reqs = [Request(1, 0, 2, 0, {0: (1, ("o000",))}),
            Request(2, 1, 1, 1, {1: (1, ("o001",))})]
    (report, new_placement, decisions), [demand] = run_one_slot(scn, reqs)

    assert report.slot == 0
    assert report.queue == 0.0
    assert report.q_eff == 1.0
    assert report.arrivals == 2
    assert [d.req_id for d in decisions] == [1, 2]
    accepted = [d for d in decisions if d.accepted]
    assert report.accepted == len(accepted)
    assert report.revenue == sum(d.revenue for d in accepted)
    assert report.cost == sum(d.transport_cost for d in accepted)
    assert report.dpp == scn.v_weight * report.revenue
    # both objects were read, so both appear in the demand matrix
    assert set(demand.entries) == {(d.config.assignment[k], o)
                                   for d in accepted
                                   for k in d.config.assignment
                                   for o in reqs[d.req_id - 1].demand[k][1]}
    new_placement.validate(scn.catalog)


@pytest.mark.parametrize("queue", [0.0, 0.5, 40.0, 1234.5])
def test_slot_reports_the_queue_it_is_given(queue):
    """The slot decides under the queue it is handed, and the rule's
    weight of it, whatever slot it is; it updates no queue itself."""
    scn = load_scenario(DATA_DIR / "tiny.json")
    reqs = [Request(1, 4, 2, 0, {0: (1, ("o000",))}),
            Request(2, 6, 1, 1, {1: (1, ("o001",))})]
    (report, _, decisions), _ = run_one_slot(scn, reqs, slot=1, queue=queue)
    assert report.slot == 1 and [d.slot for d in decisions] == [1, 1]
    assert report.queue == queue
    assert report.q_eff == max(queue, 1.0)
    assert report.dpp == drift_plus_penalty_value(
        scn.v_weight, report.revenue, queue, report.cost, scn.budget)


def test_place_receives_the_slot_demand():
    """place gets the slot's accepted pairs, whose demand matrix holds the
    size-weighted public reads of its accepted requests, at the clouds
    their configs chose."""
    scn = load_scenario(DATA_DIR / "tiny.json")
    reqs = [Request(1, 0, 1, 0, {0: (2, ("o000", "o001"))}),
            Request(2, 1, 1, 1, {1: (1, ("o001",))})]
    (_, _, decisions), [demand] = run_one_slot(scn, reqs)
    want = {}
    for d in decisions:
        if d.accepted:
            for k, i in d.config.assignment.items():
                count, objects = reqs[d.req_id - 1].demand[k]
                for o in objects:
                    want[(i, o)] = (want.get((i, o), 0.0)
                                    + count * scn.catalog.sizes[o])
    assert want and demand.entries == want


def test_window_hook_sees_each_busy_fine_slot():
    scn = load_scenario(DATA_DIR / "tiny.json")
    calls = []

    def hook(t, batch, scores):
        calls.append((t, [r.req_id for r in batch],
                      [group.shapes == allocator._shapes_for(r)
                       for r, (group, _) in zip(batch, scores)]))

    resources = ResourceState(dict(scn.capacity))
    allocator = OnlineAllocator(scn, resources)
    placement = PlacementProfile.empty(2, dict(scn.cache_size))
    requests = [Request(1, 0, 1, 0, {0: (1, ())}),
                Request(2, 2, 1, 0, {0: (1, ())}),
                Request(3, 2, 1, 1, {1: (1, ())})]
    run_coarse_slot(0, 0.0, requests, packed(scn, requests), allocator,
                    lambda accepted: PlacementSolution(placement, 0.0, 0.0,
                                                       []),
                    placement, DecisionLog(), window_hook=hook)
    assert calls == [(0, [1], [True]), (2, [2, 3], [True, True])]


def test_placement_swap_is_returned_not_applied():
    scn = load_scenario(DATA_DIR / "tiny.json")
    sentinel = PlacementProfile({0: ("o000",), 1: ()}, dict(scn.cache_size))
    resources = ResourceState(dict(scn.capacity))
    allocator = OnlineAllocator(scn, resources)
    placement = PlacementProfile.empty(2, dict(scn.cache_size))
    report, new_placement = run_coarse_slot(
        0, 0.0, [], packed(scn, []), allocator,
        lambda accepted: PlacementSolution(sentinel, 0.0, 0.0, []),
        placement, DecisionLog())
    assert new_placement is sentinel
    assert report.placement_objective == 0.0
    assert report.placement_savings == 0.0


def test_empty_slot_prices_nothing_but_still_advances(monkeypatch):
    """A slot without arrivals builds no cost rows or score matrix, but
    advances every fine slot, reports its queue and places."""
    def unused(*args):
        raise AssertionError("priced an empty slot")

    monkeypatch.setattr(orchestrator, "transport_rows", unused)
    monkeypatch.setattr(OnlineAllocator, "score_matrix", unused)
    advanced = []
    advance = OnlineAllocator.advance_fine_slot
    monkeypatch.setattr(OnlineAllocator, "advance_fine_slot",
                        lambda self, t: advanced.append(t) or advance(self, t))
    scn = load_scenario(DATA_DIR / "tiny.json")
    (report, placement, decisions), [demand] = run_one_slot(
        scn, [], slot=1, queue=40.0)
    assert advanced == [4, 5, 6, 7]
    assert report.queue == 40.0 and report.arrivals == 0 and decisions == []
    assert demand.entries == {}
    placement.validate(scn.catalog)


@pytest.mark.parametrize("arrivals", [(5, 4), (4, 8), (7, 8), (3, 5)],
                         ids=["out_of_order", "past_the_slot", "next_slot",
                              "previous_slot"])
def test_requests_out_of_order_or_outside_the_slot_raise(arrivals,
                                                         monkeypatch):
    """Slot 1 spans fine slots 4..7; a request out of arrival order or
    from another slot is refused before a fine slot moves."""
    advanced = []
    monkeypatch.setattr(OnlineAllocator, "advance_fine_slot",
                        lambda self, t: advanced.append(t))
    scn = load_scenario(DATA_DIR / "tiny.json")
    requests = [Request(n, t, 1, 0, {0: (1, ("o000",))})
                for n, t in enumerate(arrivals)]
    with pytest.raises(ValueError, match="arrival order from fine slots 4 to 7"):
        run_one_slot(scn, requests, slot=1, queue=40.0)
    assert advanced == []
