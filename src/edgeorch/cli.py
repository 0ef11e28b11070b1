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
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .scenario import DATA_DIR, SCENARIO_KEYS, ScenarioError, load_scenario
from .simulator import (POLICIES, WorkloadConfig, generate_workload,
                        run_policy, zipf_probabilities)
from .verification import SUITE_NAMES, run_suite

log = logging.getLogger(__name__)

GRID_KEYS = {"scenario", "workload", "horizon", "seeds", "policies", "sweep",
             "overrides"}
EXPERIMENT_KEYS = GRID_KEYS | {"name", "lookahead"}
SWEEP_KEYS = {"axis", "values"}
SWEEP_AXES = ("cache_ratio", "private_ratio", "v_weight", "budget")
LOOKAHEAD_KEYS = {"instances", "n_frame", "frames"}


def resolve_data(name, kind=""):
    """A bare name means a bundled file; anything with a path stays a path.

    A file of that bare name in the current directory still wins, with a
    warning that it shadows the bundled one.  Only files resolve.
    """
    p = Path(name)
    bundled = None
    if "/" not in str(name):
        bundled = next((c for c in (DATA_DIR / name, DATA_DIR / f"{name}.json")
                        if c.is_file()), None)
    if p.is_file():
        if bundled is not None:
            log.warning("%s %s in the current directory shadows bundled %s",
                        kind or "file", p.resolve(), bundled)
        return p
    if bundled is not None:
        return bundled
    raise FileNotFoundError(f"cannot resolve {kind or 'file'} {name!r}")


def load_experiment(name):
    """The experiment spec a JSON file holds, its grid checked before any
    stream is drawn."""
    with open(resolve_data(name, "experiment")) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ScenarioError(f"experiment {name} must be a JSON object")
    for where, part, keys in (("experiment", spec, EXPERIMENT_KEYS),
                              ("sweep", spec.get("sweep"), SWEEP_KEYS),
                              ("lookahead", spec.get("lookahead"),
                               LOOKAHEAD_KEYS),
                              ("override", spec.get("overrides"),
                               SCENARIO_KEYS)):
        if part is not None and not isinstance(part, dict):
            raise ScenarioError(f"{where} must be a JSON object")
        unknown = set(part or ()) - keys
        if unknown:
            raise ScenarioError(f"unknown {where} keys: {sorted(unknown)}")
    # the lookahead suite draws its own instances, so it reads no grid key
    lookahead = spec.get("lookahead") is not None
    if lookahead and GRID_KEYS & set(spec):
        raise ScenarioError("lookahead specs take no grid keys: "
                            f"{sorted(GRID_KEYS & set(spec))}")
    for field in ("name",) if lookahead else (
            "name", "scenario", "workload", "horizon", "seeds"):
        if field not in spec:
            raise ScenarioError(f"experiment spec missing {field!r}")
    for field in ("name", "scenario", "workload"):
        if not isinstance(spec.get(field, ""), str):
            raise ScenarioError(f"experiment {field} must be a string, got "
                                f"{spec[field]!r}")
    # runs/<name> is the default output directory, which a name must not leave
    if spec["name"] in ("", ".", "..") or "/" in spec["name"]:
        raise ScenarioError("experiment name must be a single path "
                            f"component, got {spec['name']!r}")
    spec.setdefault("policies", list(POLICIES))
    spec.setdefault("sweep", None)
    spec.setdefault("overrides", {})
    spec.setdefault("lookahead", None)
    for key, value in (spec["lookahead"] or {}).items():
        if type(value) is not int or value < 1:
            raise ScenarioError(f"lookahead {key} must be a positive integer, "
                                f"got {value!r}")
    policies, sweep = spec["policies"], spec["sweep"]
    if not (isinstance(policies, list) and policies
            and all(p in POLICIES for p in policies)):
        raise ScenarioError("policies must be a non-empty list drawn from "
                            f"{list(POLICIES)}, got {policies!r}")
    if sweep is not None:
        axis, values = sweep.get("axis"), sweep.get("values")
        if axis not in SWEEP_AXES:
            raise ScenarioError(f"unknown sweep axis {axis!r}")
        if not (isinstance(values, list) and values
                and all(type(v) in (int, float) and math.isfinite(v)
                        for v in values)
                and (axis != "cache_ratio" or min(values) >= 0)):
            raise ScenarioError("sweep values must be a non-empty list of "
                                "finite numbers, non-negative for "
                                f"cache_ratio, got {values!r}")
    return spec


def adjust_cache_ratio(scenario, ratio):
    universal = sum(scenario.catalog.sizes[o]
                    for o in scenario.catalog.public_objects())
    per_cloud = ratio * universal / scenario.topology.n_clouds
    if per_cloud == math.inf:
        raise ScenarioError(f"cache_ratio {ratio:g} overflows the cache size")
    per_cloud = float(int(per_cloud))
    scenario.cache_size = {i: per_cloud for i in scenario.cache_size}


def _build_point(spec, scenario_path, axis, value):
    """Scenario and seed-0 workload config for one sweep point, the point
    applied; the scenario checks see the overrides and budget or v_weight
    points.  The point's seeds share the scenario."""
    overrides = dict(spec["overrides"])
    if axis in ("v_weight", "budget"):
        overrides[axis] = value
    scenario = load_scenario(scenario_path, overrides)
    with open(resolve_data(spec["workload"], "workload")) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ScenarioError(f"workload {spec['workload']!r} must be a JSON "
                            "object")
    if "seed" in data:
        raise ScenarioError(f"workload {spec['workload']!r} names a seed; "
                            "the spec's seeds choose it")
    cfg = WorkloadConfig.from_dict(data)
    if cfg.vm_mix and len(cfg.vm_mix) != scenario.vms.n_types:
        raise ScenarioError(f"workload vm_mix gives {len(cfg.vm_mix)} "
                            f"probabilities for {scenario.vms.n_types} VM types")
    # raises on rank weights that overflow, before any draw
    zipf_probabilities(len(scenario.catalog.public), cfg.zipf_exponent)
    if axis == "cache_ratio":
        adjust_cache_ratio(scenario, value)
    elif axis == "private_ratio":
        cfg = replace(cfg, private_ratio=value)
    return scenario, cfg


def _cell_key(policy, seed, axis, value):
    tag = f"{policy}_s{seed}"
    if axis is not None:
        tag += f"_{axis}{value:g}"
    return tag


def _run_stream(args):
    """Replay one drawn stream under each of its cells and write each cell's
    CSVs into out_dir; (key, summary, per-slot series) triples, no report.

    The cells share a seed and a private_ratio, the only sweep axis that
    changes the draw, so the first cell's stream serves them all.
    """
    out_dir, horizon, cells = args
    workload = None
    results = []
    for key, policy, scenario, cfg in cells:
        if workload is None:
            workload = generate_workload(cfg, scenario,
                                         horizon * scenario.fine_per_coarse)
        report = run_policy(policy, scenario, workload, horizon)
        write_slots_csv(out_dir / f"{key}_slots.csv", report)
        write_decisions_csv(out_dir / f"{key}_decisions.csv", report)
        write_placements_csv(out_dir / f"{key}_placements.csv", report)
        results.append((key, report.summary(), {
            metric: [getattr(s, metric) for s in report.slots]
            for metric in ("revenue", "cost", "queue")}))
        del report      # not held while the next cell replays
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
    q_eff = [s.q_eff for s in report.slots]   # a decision's is its slot's
    log = report.decisions
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["req_id", "slot", "arrival", "duration", "verdict",
                      "reason", "config", "objective", "revenue",
                      "transport_cost", "q_eff"])
        out.writerows(
            [req_id, slot, arrival, duration,
             "rejected" if reason else "accepted", reason or "",
             _fmt_config(config), objective, revenue, cost, q_eff[slot]]
            for (req_id, slot, arrival, duration, reason, config, objective,
                 revenue, cost, _, _) in zip(*log.columns()))


def write_placements_csv(path, report):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["slot", "cloud", "content", "objective", "savings"])
        for slot, cached, objective, savings in report.placements:
            for cloud in sorted(cached):
                out.writerow([slot, cloud, "|".join(cached[cloud]),
                              objective, savings])


def _svg_text(text):
    """text as SVG character data: &, < and > escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_line_chart(path, series, title):
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
        f'font-family="sans-serif" font-size="14">{_svg_text(title)}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 8}" text-anchor="middle" '
        'font-family="sans-serif" font-size="11">coarse slot</text>',
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
                     f'fill="{color}">{_svg_text(label)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def run_lookahead_experiment(spec, out_dir):
    cfg = spec["lookahead"]
    result = run_suite("theorem1", n_instances=cfg.get("instances", 20),
                       n_frame=cfg.get("n_frame", 2), z=cfg.get("frames", 3))
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
    if type(workers) is not int or workers < 1:
        raise ScenarioError(f"workers must be a positive integer, got {workers!r}")
    # the lookahead suite draws its own instances on tiny.json
    lookahead = spec["lookahead"] is not None
    if lookahead and (svg or (seed_override, horizon_override,
                              scenario_override) != (None,) * 3):
        raise ScenarioError("lookahead specs take no --seed, --horizon, "
                            "--scenario or --svg")
    out_dir = Path(out_dir)
    if any(p.exists() and not p.is_dir() for p in (out_dir, *out_dir.parents)):
        raise ScenarioError(f"output {out_dir} or a parent of it exists and "
                            "is not a directory")
    if lookahead:
        out_dir.mkdir(parents=True, exist_ok=True)
        return run_lookahead_experiment(spec, out_dir)

    scenario_path = resolve_data(scenario_override or spec["scenario"],
                                 "scenario")
    horizon = spec["horizon"] if horizon_override is None else horizon_override
    seeds = [seed_override] if seed_override is not None else spec["seeds"]
    if type(horizon) is not int or horizon < 1:
        raise ScenarioError(f"horizon must be a positive integer, got {horizon!r}")
    if not (isinstance(seeds, list) and seeds
            and all(type(s) is int and s >= 0 for s in seeds)):
        raise ScenarioError("seeds must be a non-empty list of non-negative "
                            f"integers, got {seeds!r}")
    sweep = spec["sweep"]
    points = [(sweep["axis"], v) for v in sweep["values"]] if sweep else [(None, None)]

    # every point is built, so its inputs are checked, before any draw
    streams = {}    # (seed, private_ratio point or None) -> its cells
    keys = {}       # a cell's key, which names its artifacts -> its value
    for axis, value in points:
        draw = value if axis == "private_ratio" else None
        scenario, cfg = _build_point(spec, scenario_path, axis, value)
        for seed in seeds:
            seeded = replace(cfg, seed=seed)
            for policy in spec["policies"]:
                key = _cell_key(policy, seed, axis, value)
                if key in keys:
                    raise ScenarioError(
                        f"two run cells share the key {key!r}: " + (
                            "repeated seeds, policies or sweep values"
                            if keys[key] == value else f"{axis} values "
                            f"{keys[key]!r} and {value!r} both format to it"))
                keys[key] = value
                streams.setdefault((seed, draw), []).append(
                    (key, policy, scenario, seeded))
    # every input is checked, so the output directory is made now; a
    # summary.json marks a finished run of this spec: none is left from
    # an earlier one
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").unlink(missing_ok=True)
    tasks = [(out_dir, horizon, cells) for cells in streams.values()]
    log.info("experiment %s: %d cells over %d streams", spec["name"],
             sum(len(cells) for cells in streams.values()), len(tasks))
    # a pool forks all its processes at once, so it gets no more than streams
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(workers) as ex:
            per_stream = list(ex.map(_run_stream, tasks))
    else:
        per_stream = [_run_stream(task) for task in tasks]
    results = [cell for cells in per_stream for cell in cells]

    if svg:
        for metric in ("revenue", "cost", "queue"):
            svg_line_chart(out_dir / f"chart_{metric}.svg",
                           {key: series[metric] for key, _, series in results},
                           f"{spec['name']}: per-slot {metric}")
    # written last, so a summary.json marks a finished run
    summaries = {key: summary for key, summary, _ in results}
    (out_dir / "summary.json").write_text(
        json.dumps({"name": spec["name"], "horizon": horizon,
                    "runs": summaries}, indent=2, sort_keys=True) + "\n")

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
