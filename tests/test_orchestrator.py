import pytest

from edgeorch.allocator import MyopicAllocator, OnlineAllocator
from edgeorch.model import PlacementProfile, Request, ResourceState
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
    scn.score_mode = "paper"
    assert proposed.queue_weight(0.0) == 1.0
    assert proposed.queue_weight(42.0) == 1.0


def run_one_slot(scenario, arrivals, state=None):
    state = state or OrchestratorState()
    resources = ResourceState(dict(scenario.capacity))
    allocator = OnlineAllocator(scenario, resources)
    placement = PlacementProfile.empty(scenario.topology.n_clouds,
                                       dict(scenario.cache_size))

    def place(demand):
        return greedy_place(demand, scenario.cache_size, scenario.topology,
                            scenario.catalog)

    return run_coarse_slot(state, arrivals, allocator, place, placement,
                           scenario.catalog, scenario), state


def test_single_slot_accounting():
    scn = load_scenario(DATA_DIR / "tiny.json")
    reqs = [Request(1, 0, 2, 0, {0: (1, ("o000",))}),
            Request(2, 1, 1, 1, {1: (1, ("o001",))})]
    arrivals = [[reqs[0]], [reqs[1]], [], []]
    (report, new_placement, decisions, demand), state = run_one_slot(scn, arrivals)

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
    (report, _, _, _), state = run_one_slot(scn, [[], [], [], []], state)
    # 100 spent against a budget of 60 leaves a backlog of 40
    assert report.queue == 40.0
    assert report.q_eff == 40.0
    assert state.queue_trace[-1] == 40.0


def test_paper_mode_prices_without_queue():
    scn = load_scenario(DATA_DIR / "tiny.json")
    scn.score_mode = "paper"
    state = OrchestratorState(queue=0.0, slot_index=1, prev_cost=500.0)
    (report, _, _, _), _ = run_one_slot(scn, [[], [], [], []], state)
    assert report.queue == 440.0
    assert report.q_eff == 1.0


def test_window_hook_sees_each_busy_fine_slot():
    scn = load_scenario(DATA_DIR / "tiny.json")
    calls = []

    def hook(t, batch, tables, q_eff):
        calls.append((t, [r.req_id for r in batch], q_eff))

    state = OrchestratorState()
    resources = ResourceState(dict(scn.capacity))
    allocator = OnlineAllocator(scn, resources)
    placement = PlacementProfile.empty(2, dict(scn.cache_size))
    arrivals = [[Request(1, 0, 1, 0, {0: (1, ())})], [],
                [Request(2, 2, 1, 0, {0: (1, ())})], []]
    run_coarse_slot(state, arrivals, allocator,
                    lambda demand: PlacementSolution(placement, 0.0, 0.0, []),
                    placement,
                    scn.catalog, scn, window_hook=hook)
    assert calls == [(0, [1], 1.0), (2, [2], 1.0)]


def test_placement_swap_is_returned_not_applied():
    scn = load_scenario(DATA_DIR / "tiny.json")
    sentinel = PlacementProfile({0: ("o000",), 1: ()}, dict(scn.cache_size))
    state = OrchestratorState()
    resources = ResourceState(dict(scn.capacity))
    allocator = OnlineAllocator(scn, resources)
    placement = PlacementProfile.empty(2, dict(scn.cache_size))
    (report, new_placement, _, _) = run_coarse_slot(
        state, [[], [], [], []], allocator,
        lambda demand: PlacementSolution(sentinel, 0.0, 0.0, []), placement,
        scn.catalog, scn)
    assert new_placement is sentinel
    assert report.placement_objective == 0.0
    assert report.placement_savings == 0.0
