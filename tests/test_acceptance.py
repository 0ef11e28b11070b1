"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints one summary line, so a verbose run reads as a checklist.
The experiment grids behind the ordering and sweep checks are expensive;
they run once in a session fixture and are shared.
"""

import json
import math
import os

import pytest
import scipy.stats

from edgeorch.cli import load_experiment, main, run_experiment
from edgeorch.scenario import DATA_DIR, load_scenario
from edgeorch.simulator import WorkloadConfig, generate_workload
from edgeorch.verification import run_suite

WORKERS = min(8, os.cpu_count() or 1)


def check(ok, line):
    print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


@pytest.fixture(scope="session")
def experiments(tmp_path_factory):
    """Run the bundled experiment grids once; return their run summaries."""
    out = {}
    for name in ("exp1_dynamics", "exp2_popularity", "exp3_cache_size",
                 "exp4_data_ratio", "exp6_v_budget"):
        spec = load_experiment(name)
        out_dir = tmp_path_factory.mktemp(name)
        assert run_experiment(spec, out_dir, workers=WORKERS) == 0
        out[name] = json.loads((out_dir / "summary.json").read_text())["runs"]
    return out


def test_01_accept_identity_ratio():
    result = run_suite("lemma6")
    check(result.passed, "accept-side dual growth is exactly e/(e-1) "
          f"times the primal: {'; '.join(result.lines)}")


def test_02_window_dual_feasibility():
    result = run_suite("lemma5")
    check(result.passed,
          f"replayed pricing windows stay dual-feasible: {'; '.join(result.lines)}")


def test_03_unguarded_overshoot_bound():
    result = run_suite("lemma7")
    check(result.passed, "unguarded capacity overshoot within one accepted "
          f"bundle: {'; '.join(result.lines)}")


def test_04_greedy_half_optimum():
    result = run_suite("prop2")
    check(result.passed,
          f"greedy placement holds half the optimum: {'; '.join(result.lines)}")


def test_05_budget_and_queue_stability():
    result = run_suite("lemma1")
    check(result.passed,
          f"transport budget and queue stability: {'; '.join(result.lines)}")


def test_06_proposed_beats_myopics(experiments):
    parts = []
    ok = True
    for name in ("exp1_dynamics", "exp2_popularity"):
        runs = experiments[name]
        wins = 0
        for seed in range(10):
            rev = {p: runs[f"{p}_s{seed}"]["time_avg_revenue"]
                   for p in ("proposed", "myopic_coop", "myopic_nocoop")}
            if rev["proposed"] >= rev["myopic_coop"] and \
                    rev["proposed"] >= rev["myopic_nocoop"]:
                wins += 1
        ok = ok and wins >= 9
        parts.append(f"{name} {wins}/10 seeds")
    check(ok, "proposed out-earns both myopic baselines: " + ", ".join(parts))


def test_07_cacheability_sweeps_monotone(experiments):
    bad = []
    runs = experiments["exp3_cache_size"]
    for seed in range(5):
        revs = [runs[f"proposed_s{seed}_cache_ratio{v:g}"]["time_avg_revenue"]
                for v in (0.1, 0.5, 0.9)]
        if any(a > b + 1e-9 for a, b in zip(revs, revs[1:])):
            bad.append(("cache_ratio", seed, revs))
    runs = experiments["exp4_data_ratio"]
    for seed in range(5):
        revs = [runs[f"proposed_s{seed}_private_ratio{v:g}"]["time_avg_revenue"]
                for v in (3.5, 2.0, 0.5)]
        if any(a > b + 1e-9 for a, b in zip(revs, revs[1:])):
            bad.append(("private_ratio", seed, revs))
    check(not bad, "revenue non-decreasing in cacheability on 5+5 seeds"
          if not bad else f"non-monotone sweeps: {bad}")


def test_08_v_weight_tradeoff(experiments):
    runs = experiments["exp6_v_budget"]
    bad = []
    for seed in range(5):
        lo = runs[f"proposed_s{seed}_v_weight60000"]
        hi = runs[f"proposed_s{seed}_v_weight180000"]
        if hi["time_avg_cost"] < lo["time_avg_cost"] - 1e-9:
            bad.append(("cost", seed))
        if hi["acceptance_rate"] < lo["acceptance_rate"] - 1e-9:
            bad.append(("acceptance", seed))
    check(not bad, "larger revenue weight raises both transport cost and "
          "acceptance on 5 seeds" if not bad else f"tradeoff violated: {bad}")


def test_09_lookahead_bound():
    result = run_suite("theorem1")
    check(result.passed, "achieved revenue meets the clairvoyant frame "
          f"bound: {'; '.join(result.lines)}")


def test_10_byte_identical_artifacts(tmp_path):
    dirs = (tmp_path / "a", tmp_path / "b")
    for out in dirs:
        assert main(["run", "exp1_dynamics", "--seed", "0", "--horizon", "10",
                     "--out", str(out)]) == 0
    names = sorted(p.name for p in dirs[0].glob("*.csv"))
    assert names
    same = all((dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
               for n in names)
    check(same, f"double run produced {len(names)} byte-identical CSV files")


def test_11_workload_statistics():
    scn = load_scenario(DATA_DIR / "desk.json")
    cfg = WorkloadConfig(seed=101, lambda_range=(10.0, 10.0),
                         zipf_exponent=0.0, objects_per_vm=(1, 1),
                         private_ratio=0.0)
    horizon = 10000
    wl = generate_workload(cfg, scn, horizon)
    n = len(wl.requests)

    reads = {}
    durations = [0] * 5
    types = [0] * scn.vms.n_types
    for req in wl.requests:
        (_, objects), = req.demand.values()
        for o in objects:
            reads[o] = reads.get(o, 0) + 1
        durations[req.duration - 1] += 1
        types[list(req.demand)[0]] += 1

    expect = 10.0 * horizon
    rate_ok = abs(n - expect) <= 3.0 * math.sqrt(expect)

    p_obj = 1.0 / 50.0
    band = 3.0 * math.sqrt(n * p_obj * (1.0 - p_obj))
    worst = max(abs(reads.get(o, 0) - n * p_obj)
                for o in scn.catalog.public_objects())
    zipf_ok = worst <= band

    chi = scipy.stats.chisquare(durations)
    life_ok = chi.pvalue > 0.01

    p_type = 1.0 / scn.vms.n_types
    mix_band = 3.0 * math.sqrt(n * p_type * (1.0 - p_type))
    mix_ok = all(abs(c - n * p_type) <= mix_band for c in types)

    check(rate_ok and zipf_ok and life_ok and mix_ok,
          f"workload statistics at {n} samples: rate dev "
          f"{abs(n - expect):.0f} (limit {3 * math.sqrt(expect):.0f}), "
          f"worst flat-rank dev {worst:.0f} (limit {band:.0f}), "
          f"lifetime chi-square p {chi.pvalue:.2f}, mix within 3 sigma")
