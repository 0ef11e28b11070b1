import json
import math
import time
from dataclasses import replace

import pytest

from edgeorch import verification
from edgeorch.model import DataCatalog, Topology, config_usage, ordered_sum
from edgeorch.placement import DemandMatrix
from edgeorch.scenario import DATA_DIR, load_scenario
from edgeorch.simulator import WorkloadConfig, generate_workload, run_policy
from edgeorch.verification import SUITE_NAMES, run_suite, tiny_instances
from reference_rules import ReferenceResourceState


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("lemma99")


def test_suite_result_shape():
    result = run_suite("prop2", n_instances=25)
    assert result.name == "prop2"
    assert result.passed
    assert result.lines
    assert result.wallclock > 0.0
    assert result.data["half_failures"] == 0
    assert result.data["worst_ratio"] >= 0.5


def test_prop2_stores_the_ratio_it_prints_when_nothing_can_be_saved(monkeypatch):
    def nothing_fits(draws):
        # the only demanded object is larger than either cache
        return (DemandMatrix({(0, "o1"): 5.0}), {0: 1.0, 1: 1.0},
                Topology([[0.0, 20.0], [20.0, 0.0]], [100.0, 110.0]),
                DataCatalog({"o1": 3}))

    monkeypatch.setattr(verification, "random_placement_instance", nothing_fits)
    result = run_suite("prop2", n_instances=5)
    assert result.passed
    assert result.data["worst_ratio"] == 1.0
    assert result.lines[0].endswith("worst greedy/optimal savings ratio 1.000")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lemma7_peaks_match_a_reference_ledger(seed):
    """lemma7 sums its peaks from the accepted decisions.  Leasing those
    decisions, in order, into the triple-keyed reference ledger gives a
    high water whose largest excess over capacity is lemma7's worst
    overshoot, bit for bit."""
    scenario = replace(load_scenario(DATA_DIR / "stress.json"),
                       hard_capacity_guard=False)
    cfg = WorkloadConfig(seed=seed, objects_per_vm=(1, 2), private_ratio=1.0)
    workload = generate_workload(cfg, scenario, 10 * scenario.fine_per_coarse)
    report = run_policy("proposed", scenario, workload, 10)
    by_req = {r.req_id: r for r in workload.requests}
    ledger = ReferenceResourceState(scenario.capacity)
    for d in report.decisions:
        if d.accepted:
            req = by_req[d.req_id]
            ledger.lease(req.req_id, config_usage(req, d.config, scenario.vms),
                         req.arrival, req.arrival + req.duration)
    worst = max(high - scenario.capacity[key]
                for key, high in ledger.high_water.items())
    assert worst > 0.0
    assert verification._lemma7_one(seed)[2] == worst


def test_tiny_instance_seeds_respect_cap():
    instances = tiny_instances(n=5, n_frame=2, z=3)
    seeds = [seed for seed, _ in instances]
    assert len(seeds) == 5
    assert seeds == sorted(seeds)
    scenario = load_scenario(DATA_DIR / "tiny.json")
    frame_fine = 2 * scenario.fine_per_coarse
    for seed, wl in instances:
        cfg = WorkloadConfig(seed=seed, lambda_range=(0.0, 0.5),
                             regime_length=4, objects_per_vm=(1, 2),
                             private_ratio=1.0)
        assert wl.stream_hash == generate_workload(cfg, scenario,
                                                   3 * frame_fine).stream_hash
        counts = [0, 0, 0]
        for req in wl.requests:
            counts[req.arrival // frame_fine] += 1
        assert max(counts) <= 4


def test_theorem1_generates_each_workload_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return generate_workload(*args, **kwargs)

    monkeypatch.setattr(verification, "generate_workload", counting)
    result = run_suite("theorem1", n_instances=3)
    assert result.passed
    # one generation per screened seed: the chosen ones are not drawn again
    assert len(calls) == result.data["rows"][-1]["seed"] + 1


def test_lemma5_generates_its_stream_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return generate_workload(*args, **kwargs)

    monkeypatch.setattr(verification, "generate_workload", counting)
    monkeypatch.setattr(verification, "_exp1_cache", {})
    result = verification.suite_lemma5(horizon=20)
    assert result.data["replayed"] > 0
    # the window picks and the replay share one draw of the stream
    assert len(calls) == 1


def test_desk_suites_share_one_replay(monkeypatch):
    """lemma1, lemma5 and lemma6 at one horizon read one draw and one
    windowed replay of the desk stream."""
    calls = {"generate_workload": 0, "run_policy": 0}

    def counting(name):
        original = getattr(verification, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(verification, name, counting(name))
    monkeypatch.setattr(verification, "_exp1_cache", {})
    results = [run_suite(name, horizon=20)
               for name in ("lemma1", "lemma5", "lemma6")]
    assert all(result.lines for result in results)
    assert results[1].data["replayed"] > 0
    assert calls == {"generate_workload": 1, "run_policy": 1}


def test_lemma6_counts_its_run_once(monkeypatch):
    monkeypatch.setattr(verification, "_exp1_cache", {})
    started = time.perf_counter()
    result = verification.suite_lemma6(horizon=20)
    wall = time.perf_counter() - started
    assert 0.0 < result.data["elapsed"] <= wall


def test_suites_read_their_system_from_the_bundled_file(tmp_path, monkeypatch):
    """theorem1's bound follows tiny.json: no second definition of the
    system can disagree with the file."""
    data = json.loads((DATA_DIR / "tiny.json").read_text())
    data["c_max"] = 2 * data["c_max"]
    (tmp_path / "tiny.json").write_text(json.dumps(data))
    monkeypatch.setattr(verification, "DATA_DIR", tmp_path)
    [row] = run_suite("theorem1", n_instances=1).data["rows"]
    drift_bound = data["c_max"] ** 2 / 2.0     # c_max is above the budget
    n_frame, frames = 2, 3
    assert row["rhs"] == pytest.approx(
        (1.0 - 1.0 / math.e) * (ordered_sum(row["oracle"]) / frames
                                - drift_bound * n_frame / data["v_weight"]),
        rel=1e-12)


def test_suite_names_cover_dispatch():
    assert SUITE_NAMES == ("lemma1", "lemma5", "lemma6", "lemma7", "prop2",
                           "theorem1")
