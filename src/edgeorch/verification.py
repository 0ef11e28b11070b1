"""Proof-backed invariant suites.

Each suite replays the mechanism under conditions where one of its formal
guarantees has to hold exactly, and reports pass/fail with the measured
numbers.  They back both `edgeorch verify <suite>` and the test suite.
"""

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .model import PlacementProfile, config_usage
from .orchestrator import update_virtual_queue
from .placement import (brute_force_place, greedy_place, placement_cost,
                        random_placement_instance)
from .scenario import DATA_DIR, load_scenario
from .simulator import (WorkloadConfig, generate_workload, lookahead_oracle,
                        run_policy, theorem1_check)

log = logging.getLogger(__name__)

SUITE_NAMES = ("lemma1", "lemma5", "lemma6", "lemma7", "prop2", "theorem1")


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list
    data: dict = field(default_factory=dict)
    wallclock: float = 0.0


_stream_cache = {}   # (seed, horizon) -> (scenario, workload)
_exp1_cache = {}     # (seed, horizon, windows) -> (scenario, workload, report)


def _exp1_stream(seed, horizon):
    """The desk scenario and its request stream, drawn once per (seed, horizon)."""
    key = (seed, horizon)
    if key not in _stream_cache:
        scenario = load_scenario(DATA_DIR / "desk.json")
        workload = generate_workload(WorkloadConfig(seed=seed), scenario,
                                     horizon * scenario.fine_per_coarse)
        _stream_cache[key] = (scenario, workload)
    return _stream_cache[key]


def _exp1_run(seed=0, horizon=150, windows=None):
    """The shared reference run: desk scenario, stream seed, proposed policy."""
    key = (seed, horizon, tuple(sorted(windows)) if windows else None)
    if key not in _exp1_cache:
        scenario, workload = _exp1_stream(seed, horizon)
        report = run_policy("proposed", scenario, workload, horizon,
                            lemma5_windows=windows)
        _exp1_cache[key] = (scenario, workload, report)
    return _exp1_cache[key]


def suite_lemma1(seed=0, horizon=150):
    """Queue recursion replay plus the telescoped budget bound."""
    scenario, _, report = _exp1_run(seed, horizon)
    budget = scenario.budget
    q = 0.0
    replay_ok = True
    for rep in report.slots:
        if abs(q - rep.queue) > 1e-9:
            replay_ok = False
        q = update_virtual_queue(q, rep.cost, budget)
    final_q = q                      # after the last slot's arithmetic
    t = report.horizon_coarse
    avg_cost = report.totals["cost"] / t
    bound_ok = avg_cost - budget <= final_q / t + 1e-9
    stable_ok = final_q / t <= 0.05 * budget
    avg_ok = avg_cost <= 1.05 * budget
    lines = [
        f"queue recursion replayed over {t} slots: {'exact' if replay_ok else 'MISMATCH'}",
        f"avg cost {avg_cost:.1f} vs budget {budget:.1f}, Q(T)/T {final_q / t:.1f}",
        f"telescoped bound avg-cost - budget <= Q(T)/T: {'holds' if bound_ok else 'VIOLATED'}",
        f"avg cost within 5% of budget: {'yes' if avg_ok else 'NO'}",
        f"Q(T)/T below 5% of budget: {'yes' if stable_ok else 'NO'}",
    ]
    passed = replay_ok and bound_ok and avg_ok and stable_ok
    return SuiteResult("lemma1", passed, lines,
                       {"avg_cost": avg_cost, "final_q": final_q,
                        "budget": budget, "horizon": t})


def suite_lemma5(seed=0, horizon=150, n_windows=100):
    """Replay every config of every request in sampled pricing windows
    against the duals the window closed with; count uncovered constraints."""
    _, workload = _exp1_stream(seed, horizon)
    occupied = sorted(workload.by_fine_slot())
    rng = np.random.default_rng(seed + 7)
    picks = rng.choice(len(occupied), size=min(n_windows, len(occupied)),
                       replace=False)
    windows = {occupied[i] for i in picks}
    _, _, report = _exp1_run(seed, horizon, windows=frozenset(windows))
    replayed = report.counters["replayed_windows"]
    violations = report.counters["dual_violations"]
    lines = [
        f"replayed {replayed} pricing windows against closing duals",
        f"admission constraints uncovered by (alpha, beta): {violations}",
    ]
    passed = replayed == len(windows) and violations == 0
    return SuiteResult("lemma5", passed, lines,
                       {"replayed": replayed, "violations": violations})


def suite_lemma6(seed=0, horizon=150):
    """Every acceptance must move the dual objective by exactly e/(e-1)
    times the primal objective; the allocator checks this inline."""
    _, _, report = _exp1_run(seed, horizon)
    accepted = report.totals["accepted"]
    violations = report.counters["identity_violations"]
    lines = [
        f"{accepted} accepted decisions across {report.horizon_coarse} slots",
        f"dual/primal increment identity violations (1e-9 relative): {violations}",
        f"run wallclock {report.wallclock:.1f}s",
    ]
    passed = accepted >= 500 and violations == 0 and report.wallclock < 30.0
    return SuiteResult("lemma6", passed, lines,
                       {"accepted": accepted, "violations": violations,
                        "elapsed": report.wallclock})


def _lemma7_one(seed):
    scenario = replace(load_scenario(DATA_DIR / "stress.json"),
                       hard_capacity_guard=False)
    cfg = WorkloadConfig(seed=seed, objects_per_vm=(1, 2), private_ratio=1.0)
    workload = generate_workload(cfg, scenario, 10 * scenario.fine_per_coarse)
    report = run_policy("proposed", scenario, workload, 10)
    by_req = {r.req_id: r for r in workload.requests}
    bundle_peak = {}
    for d in report.decisions:
        if d.accepted:
            usage = config_usage(by_req[d.req_id], d.config, scenario.vms)
            for (i, r), units in usage.items():
                bundle_peak[r] = max(bundle_peak.get(r, 0.0), units)
    worst = 0.0
    ok = True
    for (i, r), peak in report.high_water.items():
        over = peak - scenario.capacity[(i, r)]
        worst = max(worst, over)
        if over > bundle_peak.get(r, 0.0) + 1e-9:
            ok = False
    return seed, ok, worst, report.counters["scaling_warnings"]


def suite_lemma7(n_runs=50, workers=None):
    """With the hard guard off, capacity overshoot in any (cloud, resource,
    slot) stays within one accepted bundle's footprint."""
    seeds = list(range(n_runs))
    if workers is None:
        import os
        workers = min(8, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(workers) as ex:
            rows = list(ex.map(_lemma7_one, seeds))
    else:
        rows = [_lemma7_one(s) for s in seeds]
    bad = [seed for seed, ok, _, _ in rows if not ok]
    worst = max(w for _, _, w, _ in rows)
    warned = sum(w for _, _, _, w in rows)
    lines = [
        f"{n_runs} guard-off stress runs, worst overshoot {worst:.1f} units",
        f"per-run bundle-footprint bound respected in {n_runs - len(bad)}/{n_runs}",
        f"price-scaling precondition warnings: {warned}",
    ]
    if bad:
        lines.append(f"violating seeds: {bad}")
    passed = not bad and warned == 0 and worst > 0.0
    return SuiteResult("lemma7", passed, lines,
                       {"worst": worst, "warnings": warned, "bad_seeds": bad})


def suite_prop2(n_instances=200, seed=77):
    """Greedy placement keeps at least half the optimum's savings, and the
    cost function it exploits is supermodular."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    ratios = []
    half_failures = 0
    super_failures = 0
    for _ in range(n_instances):
        demand, cache, topo, catalog = random_placement_instance(rng)
        sol = greedy_place(demand, cache, topo, catalog)
        _, opt_cost = brute_force_place(demand, cache, topo, catalog)
        empty = placement_cost(PlacementProfile.empty(topo.n_clouds, cache),
                               demand, topo)
        opt_savings = empty - opt_cost
        if opt_savings > 1e-12:
            ratios.append(sol.savings / opt_savings)
            if sol.savings < 0.5 * opt_savings - 1e-9:
                half_failures += 1
        elif sol.savings > 1e-9:
            half_failures += 1       # greedy claims savings the optimum lacks

    def random_profile(demand, cache, catalog):
        cached = {}
        for i in sorted(cache):
            room = cache[i]
            chosen = []
            for o in sorted(demand.objects(), key=lambda _: rng.random()):
                if catalog.size(o) <= room:
                    chosen.append(o)
                    room -= catalog.size(o)
            cached[i] = frozenset(chosen)
        return cached

    # supermodularity of the cost: f(A|B) + f(A&B) >= f(A) + f(B)
    for _ in range(200):
        demand, cache, topo, catalog = random_placement_instance(rng)
        a = random_profile(demand, cache, catalog)
        b = random_profile(demand, cache, catalog)

        def cost(cached):
            return placement_cost(PlacementProfile(cached, cache), demand, topo)

        union = {i: a[i] | b[i] for i in a}
        inter = {i: a[i] & b[i] for i in a}
        if cost(union) + cost(inter) < cost(a) + cost(b) - 1e-9:
            super_failures += 1
    elapsed = time.perf_counter() - started
    worst_ratio = min(ratios, default=1.0)   # nothing to save: nothing lost
    lines = [
        f"{n_instances} random instances: worst greedy/optimal savings ratio "
        f"{worst_ratio:.3f}",
        f"half-of-optimum guarantee failures: {half_failures}",
        f"cost supermodularity spot-check failures: {super_failures}",
        f"elapsed {elapsed:.1f}s",
    ]
    passed = half_failures == 0 and super_failures == 0 and elapsed < 60.0
    return SuiteResult("prop2", passed, lines,
                       {"worst_ratio": worst_ratio, "elapsed": elapsed,
                        "half_failures": half_failures,
                        "super_failures": super_failures})


def tiny_instances(n=20, per_frame_cap=4, n_frame=2, z=3, start=0):
    """(seed, workload) for the first n workload seeds whose tiny streams
    keep every frame at or under the per-frame request cap, so the oracle's
    search stays exhaustive at the intended size."""
    scenario = load_scenario(DATA_DIR / "tiny.json")
    cfg_base = dict(lambda_range=(0.0, 0.5), regime_length=4,
                    objects_per_vm=(1, 2), private_ratio=1.0)
    chosen = []
    seed = start
    frame_fine = n_frame * scenario.fine_per_coarse
    while len(chosen) < n and seed < start + 500:
        cfg = WorkloadConfig(seed=seed, **cfg_base)
        wl = generate_workload(cfg, scenario, z * frame_fine)
        counts = [0] * z
        for req in wl.requests:
            counts[req.arrival // frame_fine] += 1
        if max(counts, default=0) <= per_frame_cap:
            chosen.append((seed, wl))
        seed += 1
    return chosen


def suite_theorem1(n_instances=20, n_frame=2, z=3):
    """Achieved per-slot revenue against the exhaustive frame oracle."""
    started = time.perf_counter()
    scenario = load_scenario(DATA_DIR / "tiny.json")
    instances = tiny_instances(n_instances, n_frame=n_frame, z=z)
    rows = []
    for seed, workload in instances:
        report = run_policy("proposed", scenario, workload, z * n_frame)
        oracle = [lookahead_oracle(scenario, workload, n_frame, f)[0]
                  for f in range(z)]
        ok, lhs, rhs = theorem1_check(report, oracle, scenario.drift_bound,
                                      n_frame, scenario.v_weight)
        rows.append({"seed": seed, "lhs": lhs, "rhs": rhs, "ok": ok,
                     "oracle": oracle})
    failures = [r for r in rows if not r["ok"]]
    margins = [r["lhs"] - r["rhs"] for r in rows]
    elapsed = time.perf_counter() - started
    lines = [
        f"{len(instances)} tiny instances against the {n_frame}-slot oracle",
        f"guarantee violations: {len(failures)}",
        f"smallest margin lhs-rhs: {min(margins):.2f}",
        f"elapsed {elapsed:.1f}s",
    ]
    if failures:
        lines.append("failing seeds: "
                     + str([r["seed"] for r in failures]))
    passed = not failures and len(instances) == n_instances and elapsed < 300.0
    return SuiteResult("theorem1", passed, lines,
                       {"rows": rows, "margins": margins, "elapsed": elapsed})


def run_suite(name, **kwargs):
    table = {
        "lemma1": suite_lemma1,
        "lemma5": suite_lemma5,
        "lemma6": suite_lemma6,
        "lemma7": suite_lemma7,
        "prop2": suite_prop2,
        "theorem1": suite_theorem1,
    }
    if name not in table:
        raise ValueError(f"unknown suite {name!r}, expected one of {SUITE_NAMES}")
    started = time.perf_counter()
    result = table[name](**kwargs)
    result.wallclock = time.perf_counter() - started
    return result
