"""The benchmark's output checker passes real replays and fails each kind
of corruption it is meant to catch."""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edgeorch import cli  # noqa: E402
from edgeorch.scenario import load_scenario, make_stress_scenario  # noqa: E402
from edgeorch.simulator import (WorkloadConfig, generate_workload,  # noqa: E402
                                run_policy)

import checker  # noqa: E402


def _replay(scenario_path, horizon, seed=3):
    scenario = load_scenario(scenario_path)
    stream = generate_workload(WorkloadConfig(seed=seed), scenario,
                               horizon * scenario.fine_per_coarse)
    report = run_policy("proposed", scenario, stream, horizon)
    return (checker.System.from_file(scenario_path), stream,
            checker.replay_from_report(report))


@pytest.fixture(scope="module")
def desk():
    return _replay(cli.resolve_data("desk.json"), 4)


@pytest.fixture(scope="module")
def stress(tmp_path_factory):
    """Tight capacities, so most fine slots run near full."""
    path = tmp_path_factory.mktemp("stress") / "stress.json"
    make_stress_scenario().save(path)
    return _replay(path, 4)


def _errors(case, replay):
    system, stream, _ = case
    return checker.check_replay(system, stream.requests, stream.catalog.sizes,
                                replay)


def _checks(errors):
    return {line.split(":")[0] for line in errors}


def _first_accept(replay):
    return next(d for d in replay.decisions if d.verdict == "accepted")


def test_clean_replays_pass(desk, stress):
    assert _errors(desk, desk[2]) == []
    assert _errors(stress, stress[2]) == []


def test_clean_artifacts_pass(tmp_path):
    spec = {"name": "t", "scenario": "desk.json",
            "workload": "workload_default.json", "horizon": 3, "seeds": [2],
            "policies": ["myopic_coop", "myopic_nocoop"], "sweep": None,
            "overrides": {}, "lookahead": None}
    assert cli.run_experiment(spec, tmp_path) == 0
    path = cli.resolve_data("desk.json")
    system = checker.System.from_file(path)
    stream = generate_workload(WorkloadConfig(seed=2), load_scenario(path),
                               3 * system.fine_per_coarse)
    replays = {}
    for policy in spec["policies"]:
        key = f"{policy}_s2"
        replays[key] = (policy, checker.replay_from_artifacts(
            tmp_path, key, policy, 3))
        assert checker.check_replay(system, stream.requests,
                                    stream.catalog.sizes,
                                    replays[key][1]) == []
    assert checker.check_summary(tmp_path, replays, stream.stream_hash) == []

    summary = json.loads((tmp_path / "summary.json").read_text())
    summary["runs"]["myopic_coop_s2"]["total_cost"] += 1.0
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    errors = checker.check_summary(tmp_path, replays, stream.stream_hash)
    assert _checks(errors) == {"artifacts"}


def test_nudged_transport_cost_fails(desk):
    replay = copy.deepcopy(desk[2])
    accept = next(d for d in replay.decisions
                  if d.verdict == "accepted" and d.slot > 0)
    accept.transport_cost += 0.5
    assert _checks(_errors(desk, replay)) == {"transport"}


def test_lease_pushed_over_capacity_fails(stress):
    system, stream, clean = stress
    by_id = {r.req_id: r for r in stream.requests}
    used = {}
    for d in clean.decisions:
        if d.verdict != "accepted":
            continue
        req = by_id[d.req_id]
        for k, i in d.assignment.items():
            for r, units in enumerate(system.recipes[k]):
                for t in range(req.arrival, req.arrival + req.duration):
                    used[(i, r, t)] = used.get((i, r, t), 0.0) + units

    def overflow_target(d):
        req = by_id[d.req_id]
        (k, home), = d.assignment.items()
        for cloud in range(system.n_clouds):
            if cloud == home:
                continue
            for r, units in enumerate(system.recipes[k]):
                if used.get((cloud, r, req.arrival), 0.0) + units \
                        > system.capacity[cloud][r]:
                    return cloud
        return None

    replay = copy.deepcopy(clean)
    moved = next(d for d in replay.decisions if d.verdict == "accepted"
                 and len(d.assignment) == 1 and overflow_target(d) is not None)
    (k, _), = moved.assignment.items()
    moved.assignment = {k: overflow_target(moved)}
    assert "capacity" in _checks(_errors(stress, replay))


def test_dropped_decision_fails(desk):
    replay = copy.deepcopy(desk[2])
    replay.decisions.remove(_first_accept(replay))
    assert "coverage" in _checks(_errors(desk, replay))


def test_altered_queue_entry_fails(desk):
    replay = copy.deepcopy(desk[2])
    replay.slots[2].queue += 1.0
    assert "queue" in _checks(_errors(desk, replay))
