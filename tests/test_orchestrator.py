import pytest

from edgeorch import orchestrator
from edgeorch.allocator import MyopicAllocator, OnlineAllocator
from edgeorch.model import (PlacementProfile, Request, ResourceState,
                            pack_requests)
from edgeorch.orchestrator import (OrchestratorState, SlotReport,
                                   drift_plus_penalty_value, run_coarse_slot,
                                   update_virtual_queue)
from edgeorch.placement import PlacementSolution, greedy_place
from edgeorch.scenario import DATA_DIR, load_scenario


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


def run_one_slot(scenario, requests, state=None):
    state = state or OrchestratorState()
    resources = ResourceState(dict(scenario.capacity))
    allocator = OnlineAllocator(scenario, resources)
    placement = PlacementProfile.empty(scenario.topology.n_clouds,
                                       dict(scenario.cache_size))

    def place(demand):
        return greedy_place(demand, scenario.cache_size, scenario.topology,
                            scenario.catalog)

    return run_coarse_slot(state, requests, packed(scenario, requests),
                           allocator, place, placement, scenario.catalog,
                           scenario), state


def test_single_slot_accounting():
    scn = load_scenario(DATA_DIR / "tiny.json")
    reqs = [Request(1, 0, 2, 0, {0: (1, ("o000",))}),
            Request(2, 1, 1, 1, {1: (1, ("o001",))})]
    (report, new_placement, decisions, demand), state = run_one_slot(scn, reqs)

    assert report.slot == 0
    assert report.queue == 0.0          # no update before the first slot
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
    assert state.slot_index == 1
    assert state.prev_cost == report.cost
    assert state.queue_trace == [0.0]
    new_placement.validate(scn.catalog)


def test_queue_updates_at_slot_start():
    scn = load_scenario(DATA_DIR / "tiny.json")
    state = OrchestratorState(queue=0.0, slot_index=1, prev_cost=100.0)
    (report, _, _, _), state = run_one_slot(scn, [], state)
    # 100 spent against a budget of 60 leaves a backlog of 40
    assert report.queue == 40.0
    assert report.q_eff == 40.0
    assert state.queue_trace[-1] == 40.0


def test_window_hook_sees_each_busy_fine_slot():
    scn = load_scenario(DATA_DIR / "tiny.json")
    calls = []

    def hook(t, batch, scores):
        calls.append((t, [r.req_id for r in batch],
                      [group.shapes == allocator._shapes_for(r)
                       for r, (group, _) in zip(batch, scores)]))

    state = OrchestratorState()
    resources = ResourceState(dict(scn.capacity))
    allocator = OnlineAllocator(scn, resources)
    placement = PlacementProfile.empty(2, dict(scn.cache_size))
    requests = [Request(1, 0, 1, 0, {0: (1, ())}),
                Request(2, 2, 1, 0, {0: (1, ())}),
                Request(3, 2, 1, 1, {1: (1, ())})]
    run_coarse_slot(state, requests, packed(scn, requests), allocator,
                    lambda demand: PlacementSolution(placement, 0.0, 0.0, []),
                    placement,
                    scn.catalog, scn, window_hook=hook)
    assert calls == [(0, [1], [True]), (2, [2, 3], [True, True])]


def test_placement_swap_is_returned_not_applied():
    scn = load_scenario(DATA_DIR / "tiny.json")
    sentinel = PlacementProfile({0: ("o000",), 1: ()}, dict(scn.cache_size))
    state = OrchestratorState()
    resources = ResourceState(dict(scn.capacity))
    allocator = OnlineAllocator(scn, resources)
    placement = PlacementProfile.empty(2, dict(scn.cache_size))
    (report, new_placement, _, _) = run_coarse_slot(
        state, [], packed(scn, []), allocator,
        lambda demand: PlacementSolution(sentinel, 0.0, 0.0, []), placement,
        scn.catalog, scn)
    assert new_placement is sentinel
    assert report.placement_objective == 0.0
    assert report.placement_savings == 0.0


def test_empty_slot_prices_nothing_but_still_advances(monkeypatch):
    """A slot without arrivals builds no fetch table, cost rows or score
    matrix, but advances every fine slot, updates the queue and places."""
    def unused(*args):
        raise AssertionError("priced an empty slot")

    for name in ("fetch_latencies", "transport_rows"):
        monkeypatch.setattr(orchestrator, name, unused)
    monkeypatch.setattr(OnlineAllocator, "score_matrix", unused)
    advanced = []
    advance = OnlineAllocator.advance_fine_slot
    monkeypatch.setattr(OnlineAllocator, "advance_fine_slot",
                        lambda self, t: advanced.append(t) or advance(self, t))
    scn = load_scenario(DATA_DIR / "tiny.json")
    state = OrchestratorState(queue=0.0, slot_index=1, prev_cost=100.0)
    (report, placement, decisions, demand), state = run_one_slot(
        scn, [], state)
    assert advanced == [4, 5, 6, 7]
    assert report.queue == 40.0 and report.arrivals == 0 and decisions == []
    assert demand.entries == {} and demand.slot == 1
    placement.validate(scn.catalog)


@pytest.mark.parametrize("arrivals", [(5, 4), (4, 8), (7, 8), (3, 5)],
                         ids=["out_of_order", "past_the_slot", "next_slot",
                              "previous_slot"])
def test_requests_out_of_order_or_outside_the_slot_raise(arrivals,
                                                         monkeypatch):
    """Slot 1 spans fine slots 4..7; a request out of arrival order or
    from another slot is refused before the queue or a fine slot moves."""
    advanced = []
    monkeypatch.setattr(OnlineAllocator, "advance_fine_slot",
                        lambda self, t: advanced.append(t))
    scn = load_scenario(DATA_DIR / "tiny.json")
    requests = [Request(n, t, 1, 0, {0: (1, ("o000",))})
                for n, t in enumerate(arrivals)]
    state = OrchestratorState(queue=0.0, slot_index=1, prev_cost=100.0)
    with pytest.raises(ValueError, match="arrival order from fine slots 4 to 7"):
        run_one_slot(scn, requests, state)
    assert state == OrchestratorState(queue=0.0, slot_index=1, prev_cost=100.0)
    assert advanced == []
