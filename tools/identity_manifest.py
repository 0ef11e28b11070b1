"""Print sha256 digests of every deterministic output, as one JSON object.

    python3 tools/identity_manifest.py > manifest.json

Run it on two checkouts and `diff` the outputs: equal lines mean equal
outputs.  It covers

  * the data and lines of the six invariant suites, less elapsed times;
  * the 54 desk CSVs of exp1_dynamics and exp2_popularity (three policies,
    seeds 0-2, 150 coarse slots);
  * the 27 CSVs of the seed-0 cells of the exp3_cache_size,
    exp4_data_ratio and exp6_v_budget sweeps (cache ratio, private ratio
    and v_weight points, 150 coarse slots);
  * the three charts of exp1_dynamics, which is run with svg=True, so the
    per-slot series that cross back from the workers are covered;
  * each of those five experiments' summary.json, less wallclock_s;
  * the stream_hash of every run cell;
  * the streams drawn for the desk, tiny, stress and paper_scale
    scenarios (default workload, seeds 0-2, 10 coarse slots): each one's
    stream_hash, its packed rows, its packed request kinds with the keys
    they index, its catalog's object sizes and its catalog's public
    object list;
  * the replays of the paper_scale streams of seed 0 under proposed and
    myopic_coop, and of seeds 1 and 2 under proposed: their decisions,
    slot reports, placements and counters.  Each decision is hashed as the
    tuple of its fields other than q_eff, which older decisions carried
    as a copy of their slot's; the slot digests cover q_eff.

It imports edgeorch from the src/ directory next to it, writes its CSVs to
a temporary directory that it removes, and takes about half a minute with
its two experiment worker processes on 2 cores.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from edgeorch.cli import (load_experiment, resolve_data,  # noqa: E402
                          run_experiment)
from edgeorch.scenario import load_scenario  # noqa: E402
from edgeorch.simulator import (WorkloadConfig, generate_workload,  # noqa: E402
                                run_policy)
from edgeorch.verification import SUITE_NAMES, run_suite  # noqa: E402

SEEDS = [0, 1, 2]
# experiment -> the seeds it is run with
EXPERIMENTS = {"exp1_dynamics": SEEDS, "exp2_popularity": SEEDS,
               "exp3_cache_size": [0], "exp4_data_ratio": [0],
               "exp6_v_budget": [0]}
# experiments also run with svg=True, their charts hashed
SVG_EXPERIMENTS = ("exp1_dynamics",)
WORKERS = 2
STREAM_SCENARIOS = ("desk", "tiny", "stress", "paper_scale")
STREAM_SLOTS = 10
ROW_COLUMNS = ("starts", "offsets", "source", "size")
# (seed, policy) pairs replayed on the paper_scale stream
REPLAYS = ((0, "proposed"), (0, "myopic_coop"), (1, "proposed"),
           (2, "proposed"))
TIMING_LINE = re.compile(r"elapsed|wallclock")


def digest(data):
    return hashlib.sha256(data).hexdigest()


def suite_digests():
    out = {}
    for name in SUITE_NAMES:
        result = run_suite(name)
        data = {k: v for k, v in sorted(result.data.items()) if k != "elapsed"}
        lines = [line for line in result.lines if not TIMING_LINE.search(line)]
        out[f"{name}.data"] = digest(repr(data).encode())
        out[f"{name}.lines"] = digest(repr((result.passed, lines)).encode())
    return out


def experiment_digests():
    files, stream_hashes = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, seeds in EXPERIMENTS.items():
            spec = {**load_experiment(name), "seeds": seeds}
            out_dir = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):   # its report lines
                run_experiment(spec, out_dir, svg=name in SVG_EXPERIMENTS,
                               workers=WORKERS)
            for path in sorted(out_dir.glob("*.csv")) + sorted(
                    out_dir.glob("*.svg")):
                files[f"{name}/{path.name}"] = digest(path.read_bytes())
            summary = json.loads((out_dir / "summary.json").read_text())
            for key, run in sorted(summary["runs"].items()):
                stream_hashes[f"{name}/{key}"] = run["stream_hash"]
                del run["wallclock_s"]
            files[f"{name}/summary.json"] = digest(
                json.dumps(summary, sort_keys=True).encode())
    return files, stream_hashes


def default_stream(scenario, seed):
    """The default workload's stream over STREAM_SLOTS coarse slots."""
    with open(resolve_data("workload_default", "workload")) as fh:
        base = json.load(fh)
    return generate_workload(WorkloadConfig.from_dict({**base, "seed": seed}),
                             scenario, STREAM_SLOTS * scenario.fine_per_coarse)


def stream_digests():
    out = {}
    for name in STREAM_SCENARIOS:
        scenario = load_scenario(resolve_data(name, "scenario"))
        for seed in SEEDS:
            stream = default_stream(scenario, seed)
            key = f"{name}/seed{seed}"
            out[f"{key}.stream_hash"] = stream.stream_hash
            rows = stream.rows
            columns = [getattr(rows, c) for c in ROW_COLUMNS]
            out[f"{key}.rows"] = digest(repr(
                (rows.publics, rows.n_clouds,
                 [(a.dtype.str, a.shape, digest(a.tobytes())) for a in columns])
            ).encode())
            out[f"{key}.kinds"] = digest(repr(
                (rows.keys, rows.kinds.dtype.str, rows.kinds.shape,
                 digest(rows.kinds.tobytes()))).encode())
            out[f"{key}.catalog_sizes"] = digest(
                repr(sorted(stream.catalog.sizes.items())).encode())
            out[f"{key}.public_objects"] = digest(
                repr(stream.catalog.public_objects()).encode())
    return out


def replay_digests():
    out = {}
    scenario = load_scenario(resolve_data("paper_scale", "scenario"))
    streams = {}
    for seed, policy in REPLAYS:
        if seed not in streams:
            streams[seed] = default_stream(scenario, seed)
        report = run_policy(policy, scenario, streams[seed], STREAM_SLOTS)
        key = f"paper_scale/seed{seed}/{policy}"
        out[f"{key}.decisions"] = digest(repr([
            tuple(getattr(d, f.name) for f in dataclasses.fields(d)
                  if f.name != "q_eff")
            for d in report.decisions]).encode())
        for part in ("slots", "placements"):
            out[f"{key}.{part}"] = digest(
                repr(getattr(report, part)).encode())
        out[f"{key}.counters"] = digest(
            repr(sorted(report.counters.items())).encode())
    return out


def main():
    files, stream_hashes = experiment_digests()
    manifest = {"suites": suite_digests(), "files": files,
                "stream_hash": stream_hashes, "streams": stream_digests(),
                "replays": replay_digests()}
    print(json.dumps(manifest, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
