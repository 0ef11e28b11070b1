import time

import pytest

from edgeorch import verification
from edgeorch.scenario import make_tiny_scenario
from edgeorch.simulator import WorkloadConfig, generate_workload
from edgeorch.verification import SUITE_NAMES, run_suite, tiny_instances


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


def test_tiny_instance_seeds_respect_cap():
    instances = tiny_instances(n=5, per_frame_cap=4, n_frame=2, z=3)
    seeds = [seed for seed, _ in instances]
    assert len(seeds) == 5
    assert seeds == sorted(seeds)
    scenario = make_tiny_scenario()
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


def test_lemma6_counts_its_run_once(monkeypatch):
    monkeypatch.setattr(verification, "_exp1_cache", {})
    started = time.perf_counter()
    result = verification.suite_lemma6(horizon=20)
    wall = time.perf_counter() - started
    assert 0.0 < result.data["elapsed"] <= wall


def test_suite_names_cover_dispatch():
    assert SUITE_NAMES == ("lemma1", "lemma5", "lemma6", "lemma7", "prop2",
                           "theorem1")
