"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload paper_scale \\
        --seed 0 --pairs 10

Each pair runs `perfbench/run.py --trace 0` once in each checkout, with
the run_seconds of CHANGE's BENCHMARK.json, and alternates which side runs
first.  For every end-to-end metric it prints each side's median and
quartiles, the change of the medians in percent, the pairs the change won
(ties count for neither) and whether a gain can be claimed: the change won
at least nine tenths of the pairs and the medians lie further apart than
the parent's quartiles do.  It exits 1 when any run is not correct with 0
failed operations.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values):
    """(lower quartile, median, upper quartile) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def summarize(parent, change, better):
    """One metric over pairs: parent[k] and change[k] are the k-th pair's
    values, and better is "lower" or "higher".  Returns a dict of each
    side's quartiles, the change of the medians in percent, the pairs the
    change won and whether a gain can be claimed."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one value per side for every pair")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p_low, p_mid, p_high = quartiles(parent)
    c_low, c_mid, c_high = quartiles(change)
    return {
        "parent": (p_low, p_mid, p_high),
        "change": (c_low, c_mid, c_high),
        "percent": 100.0 * (c_mid - p_mid) / p_mid if p_mid else float("nan"),
        "wins": wins,
        "pairs": len(parent),
        "gain": (10 * wins >= 9 * len(parent)
                 and sign * (c_mid - p_mid) > p_high - p_low),
    }


def run_once(checkout, workload, seed, seconds):
    """The JSON result of one benchmark run in the checkout."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "metrics": {},
                "error": out.stderr.strip()[-400:]}
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    bad = 0
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.seed,
                              bench["run_seconds"])
            runs[side].append(result)
            ok = result["correct"] is True and result["failed"] == 0
            bad += not ok
            values = " ".join(f"{name}={m['value']:.6g}" for name, m
                              in result["metrics"].items())
            print(f"pair {k + 1} {side}: {'ok' if ok else 'FAILED'} {values}"
                  f"{' ' + result['error'] if 'error' in result else ''}",
                  flush=True)
    for metric in bench["end_to_end"]:
        name = metric["name"]
        if not all(name in r["metrics"] for side in runs for r in runs[side]):
            print(f"{name}: missing from some runs")
            continue
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in runs}
        s = summarize(values["parent"], values["change"], metric["better"])
        print(f"{name} ({metric['better']} is better): "
              f"parent {s['parent'][1]:.6g} [{s['parent'][0]:.6g}, "
              f"{s['parent'][2]:.6g}], change {s['change'][1]:.6g} "
              f"[{s['change'][0]:.6g}, {s['change'][2]:.6g}], "
              f"{s['percent']:+.1f}%, change won {s['wins']} of "
              f"{s['pairs']}, gain {'holds' if s['gain'] else 'not shown'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
