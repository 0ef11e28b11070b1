"""Steadiness check: run one workload once per seed and report the spread.

    python3 perfbench/steady.py --workload paper_scale --seeds 0-9 --tag A

Runs `perfbench/run.py` in a fresh process per seed, one after another, and
prints, for each end-to-end metric, the median and the distance between the
first and third quartiles as a share of the median (the spread that
BENCHMARK.json's bounds are set against).  The per-run results and the
summary are written to perfbench/out/steady-<workload>-<tag>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--tag", default="A")
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["process_s"] = time.perf_counter() - start
        runs.append(result)
        print(json.dumps(result), flush=True)

    summary = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        median, share = spread([r["metrics"][name]["value"] for r in runs])
        summary[name] = {"median": median, "iqr_share": share,
                         "bound": metric["bound"]}
        print(f"{name:16s} median {median:12.4f}  spread {share:.4f}  "
              f"bound {metric['bound']}")
    failed = [r["failed"] / r["attempted"] for r in runs]
    print(f"failed share per run: {sorted(set(failed))}; "
          f"process time {sum(r['process_s'] for r in runs):.0f}s")
    out = BENCH / "out" / f"steady-{args.workload}-{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "runs": runs,
                               "summary": summary}, indent=1) + "\n")


if __name__ == "__main__":
    main()
