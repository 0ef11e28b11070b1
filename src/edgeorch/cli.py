"""Command-line front end.

    edgeorch run <experiment>   replay an experiment spec, write CSV/JSON
    edgeorch verify <suite>     run one invariant suite (or "all")

Experiment specs, scenarios and workload configs are JSON.  Names without a
path separator resolve against the bundled data directory, so
`edgeorch run exp1_dynamics` works out of the box.

Exit codes: 0 success, 1 run or suite failure, 2 bad input.
"""

import argparse
import csv
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .scenario import DATA_DIR, ScenarioError, load_scenario
from .simulator import (POLICIES, WorkloadConfig, generate_workload,
                        run_policy)
from .verification import SUITE_NAMES, run_suite

log = logging.getLogger(__name__)

EXPERIMENT_KEYS = {"name", "scenario", "workload", "horizon", "seeds",
                   "policies", "sweep", "overrides", "lookahead"}
SWEEP_KEYS = {"axis", "values"}
LOOKAHEAD_KEYS = {"instances", "n_frame", "frames"}


def resolve_data(name, kind=""):
    """A bare name means a bundled file; anything with a path stays a path.

    A file of that bare name in the current directory still wins, with a
    warning that it shadows the bundled one.
    """
    p = Path(name)
    bundled = None
    if "/" not in str(name):
        bundled = next((c for c in (DATA_DIR / name, DATA_DIR / f"{name}.json")
                        if c.exists()), None)
    if p.exists():
        if bundled is not None:
            log.warning("%s %s in the current directory shadows bundled %s",
                        kind or "file", p.resolve(), bundled)
        return p
    if bundled is not None:
        return bundled
    raise FileNotFoundError(f"cannot resolve {kind or 'file'} {name!r}")


def load_experiment(name):
    path = resolve_data(name, "experiment")
    with open(path) as fh:
        spec = json.load(fh)
    for field in ("name", "scenario", "workload", "horizon", "seeds"):
        if field not in spec:
            raise ScenarioError(f"experiment spec missing {field!r}")
    for where, part, keys in (("experiment", spec, EXPERIMENT_KEYS),
                              ("sweep", spec.get("sweep") or {}, SWEEP_KEYS),
                              ("lookahead", spec.get("lookahead") or {},
                               LOOKAHEAD_KEYS)):
        unknown = set(part) - keys
        if unknown:
            raise ScenarioError(f"unknown {where} keys: {sorted(unknown)}")
    spec.setdefault("policies", list(POLICIES))
    spec.setdefault("sweep", None)
    spec.setdefault("overrides", {})
    spec.setdefault("lookahead", None)
    return spec


def adjust_cache_ratio(scenario, ratio):
    universal = sum(scenario.catalog.sizes[o]
                    for o in scenario.catalog.public_objects())
    per_cloud = float(int(ratio * universal / scenario.topology.n_clouds))
    scenario.cache_size = {i: per_cloud for i in scenario.cache_size}


def _build_cell(spec, scenario_path, axis, value, seed):
    """Scenario and workload config for one run cell, sweeps applied."""
    try:
        # with_changes() reruns Scenario.__post_init__, which rejects bad values
        scenario = load_scenario(scenario_path).with_changes(**spec["overrides"])
    except TypeError as exc:
        raise ScenarioError(f"bad scenario override: {exc}") from exc
    with open(resolve_data(spec["workload"], "workload")) as fh:
        cfg = WorkloadConfig.from_dict({**json.load(fh), "seed": seed})
    if axis == "cache_ratio":
        adjust_cache_ratio(scenario, value)
    elif axis == "private_ratio":
        cfg = replace(cfg, private_ratio=value)
    elif axis in ("v_weight", "budget"):
        scenario = scenario.with_changes(**{axis: value})
    elif axis is not None:
        raise ScenarioError(f"unknown sweep axis {axis!r}")
    return scenario, cfg


def _cell_key(policy, seed, axis, value):
    tag = f"{policy}_s{seed}"
    if axis is not None:
        tag += f"_{axis}{value:g}"
    return tag


def _run_stream(args):
    """Replay one drawn stream under each of its cells; (key, report) pairs.

    The cells share a seed and a private_ratio, the only sweep axis that
    changes the draw, so the first cell's stream serves them all.
    """
    spec, scenario_path, seed, horizon, cells = args
    workload = None
    results = []
    for axis, value, policy in cells:
        scenario, cfg = _build_cell(spec, scenario_path, axis, value, seed)
        if workload is None:
            workload = generate_workload(cfg, scenario,
                                         horizon * scenario.fine_per_coarse)
        results.append((_cell_key(policy, seed, axis, value),
                        run_policy(policy, scenario, workload, horizon)))
    return results


def _fmt_config(config):
    if config is None:
        return ""
    return "|".join(f"{k}@{i}" for k, i in sorted(config.assignment.items()))


def write_slots_csv(path, report):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["slot", "revenue", "cost", "queue", "q_eff", "arrivals",
                      "accepted", "acceptance", "dpp", "placement_objective",
                      "placement_savings"])
        for s in report.slots:
            out.writerow([s.slot, s.revenue, s.cost, s.queue, s.q_eff,
                          s.arrivals, s.accepted, s.acceptance, s.dpp,
                          s.placement_objective, s.placement_savings])


def write_decisions_csv(path, report):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["req_id", "slot", "arrival", "duration", "verdict",
                      "reason", "config", "objective", "revenue",
                      "transport_cost", "q_eff"])
        for d in report.decisions:
            out.writerow([d.req_id, d.slot, d.arrival, d.duration, d.verdict,
                          d.reason or "", _fmt_config(d.config), d.objective,
                          d.revenue, d.transport_cost, d.q_eff])


def write_placements_csv(path, report):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["slot", "cloud", "content", "objective", "savings"])
        for slot, cached, objective, savings in report.placements:
            for cloud in sorted(cached):
                out.writerow([slot, cloud, "|".join(cached[cloud]),
                              objective, savings])


def svg_line_chart(path, series, title, x_label="coarse slot"):
    """Minimal multi-series line chart; series is {label: [values]}."""
    width, height, pad = 800, 320, 45
    colors = ["#1f6f8b", "#c0582b", "#5a8f29", "#7b4b94", "#9c9c2e"]
    points = [v for vals in series.values() for v in vals]
    lo, hi = min(points, default=0.0), max(points, default=1.0)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    n = max((len(v) for v in series.values()), default=2)

    def sx(idx):
        return pad + (width - 2 * pad) * idx / max(n - 1, 1)

    def sy(val):
        return height - pad - (height - 2 * pad) * (val - lo) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{x_label}</text>',
        f'<text x="12" y="{pad - 8}" font-family="sans-serif" '
        f'font-size="11">{hi:.1f}</text>',
        f'<text x="12" y="{height - pad + 4}" font-family="sans-serif" '
        f'font-size="11">{lo:.1f}</text>',
    ]
    for idx, (label, vals) in enumerate(sorted(series.items())):
        color = colors[idx % len(colors)]
        pts = " ".join(f"{sx(i):.1f},{sy(v):.1f}" for i, v in enumerate(vals))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 14 * idx + 10}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def run_lookahead_experiment(spec, out_dir):
    cfg = spec["lookahead"]
    result = run_suite("theorem1", n_instances=int(cfg.get("instances", 20)),
                       n_frame=int(cfg.get("n_frame", 2)),
                       z=int(cfg.get("frames", 3)))
    with open(out_dir / "lookahead.csv", "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["seed", "achieved", "bound", "margin", "ok"])
        for row in result.data["rows"]:
            out.writerow([row["seed"], row["lhs"], row["rhs"],
                          row["lhs"] - row["rhs"], int(row["ok"])])
    summary = {"name": spec["name"], "passed": result.passed,
               "lines": result.lines}
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for line in result.lines:
        print(line)
    return 0 if result.passed else 1


def run_experiment(spec, out_dir, seed_override=None, horizon_override=None,
                   scenario_override=None, svg=False, workers=1):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if spec["lookahead"]:
        return run_lookahead_experiment(spec, out_dir)

    scenario_path = resolve_data(scenario_override or spec["scenario"],
                                 "scenario")
    horizon = int(horizon_override or spec["horizon"])
    seeds = [seed_override] if seed_override is not None else spec["seeds"]
    sweep = spec["sweep"]
    points = [(sweep["axis"], v) for v in sweep["values"]] if sweep else [(None, None)]

    streams = {}    # (seed, private_ratio point or None) -> its cells
    for axis, value in points:
        draw = value if axis == "private_ratio" else None
        for policy in spec["policies"]:
            for seed in seeds:
                streams.setdefault((seed, draw), []).append(
                    (axis, value, policy))
    tasks = [(spec, scenario_path, seed, horizon, cells)
             for (seed, _), cells in streams.items()]
    log.info("experiment %s: %d cells over %d streams", spec["name"],
             sum(len(cells) for cells in streams.values()), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(workers) as ex:
            per_stream = list(ex.map(_run_stream, tasks))
    else:
        per_stream = [_run_stream(task) for task in tasks]
    results = [pair for pairs in per_stream for pair in pairs]

    summaries = {}
    for key, report in results:
        write_slots_csv(out_dir / f"{key}_slots.csv", report)
        write_decisions_csv(out_dir / f"{key}_decisions.csv", report)
        write_placements_csv(out_dir / f"{key}_placements.csv", report)
        summaries[key] = report.summary()
    (out_dir / "summary.json").write_text(
        json.dumps({"name": spec["name"], "horizon": horizon,
                    "runs": summaries}, indent=2, sort_keys=True) + "\n")

    if svg:
        by_metric = {"revenue": {}, "cost": {}, "queue": {}}
        for key, report in results:
            by_metric["revenue"][key] = [s.revenue for s in report.slots]
            by_metric["cost"][key] = [s.cost for s in report.slots]
            by_metric["queue"][key] = [s.queue for s in report.slots]
        for metric, series in by_metric.items():
            svg_line_chart(out_dir / f"chart_{metric}.svg", series,
                           f"{spec['name']}: per-slot {metric}")

    for key in sorted(summaries):
        s = summaries[key]
        print(f"{key}: revenue/slot {s['time_avg_revenue']:.1f}, "
              f"cost/slot {s['time_avg_cost']:.1f}, "
              f"acceptance {s['acceptance_rate']:.3f}")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_run(args):
    spec = load_experiment(args.experiment)
    out_dir = args.out or Path("runs") / spec["name"]
    return run_experiment(spec, out_dir, seed_override=args.seed,
                          horizon_override=args.horizon,
                          scenario_override=args.scenario,
                          svg=args.svg, workers=args.workers)


def cmd_verify(args):
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    failed = False
    for name in names:
        result = run_suite(name)
        print(f"[{'PASS' if result.passed else 'FAIL'}] {name} "
              f"({result.wallclock:.1f}s)")
        for line in result.lines:
            print("   ", line)
        failed = failed or not result.passed
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="edgeorch",
        description="Online VM admission and data placement across edge clouds")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec")
    p_run.add_argument("experiment",
                       help="bundled experiment name or path to a spec JSON")
    p_run.add_argument("--out", help="output directory (default runs/<name>)")
    p_run.add_argument("--seed", type=int, help="single seed override")
    p_run.add_argument("--horizon", type=int, help="coarse-slot horizon override")
    p_run.add_argument("--scenario",
                       help="scenario file override, e.g. paper_scale")
    p_run.add_argument("--svg", action="store_true",
                       help="also emit per-metric SVG charts")
    p_run.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run an invariant suite")
    p_verify.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ScenarioError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
