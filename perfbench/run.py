"""Benchmark for edgeorch: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload desk_proposed --seed 0 --seconds 15 --trace 0

Every time is taken in reference seconds (see refclock.py), so that the
host's changing speed cancels out.  Set-up (a fresh import of the
program's modules, scenario load and, where the workload replays one
stream, workload generation) is repeated and its median reported as
setup_s.  The timed section then repeats whole
rounds of the workload's operations until their summed wall time reaches
--seconds.  Rounds are deterministic and cut at the same call sites, so
run_s sums each segment's median length across rounds, and
decisions_per_s is the round's decisions over run_s.  After timing, the
first round's outputs are checked against independent recomputation
(checker.py) and every later round must reproduce them exactly; an
operation whose output fails counts as failed.  The last line of stdout is
one JSON object with correct, attempted, failed and metrics.

With --trace 1 the same untraced rounds run first, then one more round
(with one set-up generation, where set-up generates) runs under the layer
tracer.  The per-layer metrics come from that round; trace.overhead_s is
its wall time minus the untraced rounds' median wall time, and the spans
are written to perfbench/out/trace-<workload>-s<seed>.json.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from refclock import ReferenceClock, patched

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"

# the program is imported from this checkout's sources and nowhere else
if not (SRC / "edgeorch" / "__init__.py").is_file():
    sys.exit(f"error: no edgeorch sources under {SRC}")
sys.path.insert(0, str(SRC))
import edgeorch  # noqa: E402

if Path(edgeorch.__file__).resolve().parent != (SRC / "edgeorch").resolve():
    sys.exit(f"error: edgeorch imported from {edgeorch.__file__}")
from edgeorch import (allocator, cli, model, scenario, simulator,  # noqa: E402
                      verification)

import checker  # noqa: E402

# Where rounds are cut (see refclock.py).  Some sites name internals of
# the program: one it renames or inlines is skipped, and its rounds are
# then cut into fewer, longer segments until the site is updated here.
# Workload generation validates every request it draws.
GENERATION_SITES = ((model, "Request.validate", 1024),)


def reimport_program():
    """Import the program's modules afresh, as a new process would, and
    put back the ones in use: the fresh copies are only timed.  Python,
    numpy and the standard library are imported once per process."""
    def program_modules():
        return [name for name in sys.modules
                if name == "edgeorch" or name.startswith("edgeorch.")]

    kept = {name: sys.modules.pop(name) for name in program_modules()}
    try:
        for name in kept:
            importlib.import_module(name)
    finally:
        for name in program_modules():
            del sys.modules[name]
        sys.modules.update(kept)


class Workload:
    """One named workload: set-up, a round of operations, and its checks."""

    scenario_file = ""
    horizon = 0
    generates_in_setup = False
    setup_repeats = 7
    segment_sites = ()        # (owner, dotted path, every) cuts of a round

    def __init__(self, seed):
        self.seed = seed
        self.system = checker.System.from_file(
            cli.resolve_data(self.scenario_file))

    def workload_config(self):
        with open(cli.resolve_data("workload_default.json")) as fh:
            return simulator.WorkloadConfig.from_dict(
                {**json.load(fh), "seed": self.seed})

    def generate(self):
        return simulator.generate_workload(
            self.workload_config(), self.scenario,
            self.horizon * self.scenario.fine_per_coarse)

    def setup(self):
        reimport_program()
        self.scenario = scenario.load_scenario(
            cli.resolve_data(self.scenario_file))
        if self.generates_in_setup:
            # drop the last stream first, so only one is ever held
            self.stream = None
            self.stream = self.generate()

    def round(self):
        """Run one round of operations and return their outputs."""
        raise NotImplementedError

    def fingerprints(self, outputs):
        """One digest per operation; equal digests mean equal outputs."""
        raise NotImplementedError

    def check(self, outputs):
        """One list of errors per operation of a round."""
        raise NotImplementedError

    def decisions(self, outputs):
        """Admission decisions the round made."""
        raise NotImplementedError

    def release(self, outputs):
        """Drop what a round left behind."""


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


class ReplayWorkload(Workload):
    """run_policy("proposed") on a stream generated in set-up."""

    generates_in_setup = True
    setup_repeats = 3

    def round(self):
        return [simulator.run_policy("proposed", self.scenario, self.stream,
                                     self.horizon)]

    def fingerprints(self, outputs):
        report = outputs[0]
        return [_digest(
            [(d.req_id, d.slot, d.verdict, d.reason,
              sorted(d.config.assignment.items()) if d.config else None,
              d.objective, d.revenue, d.transport_cost, d.primal_delta,
              d.dual_delta) for d in report.decisions],
            [(s.slot, s.revenue, s.cost, s.queue, s.arrivals, s.accepted,
              s.placement_objective, s.placement_savings)
             for s in report.slots],
            report.placements, sorted(report.counters.items()))]

    def check(self, outputs):
        replay = checker.replay_from_report(outputs[0])
        return [checker.check_replay(self.system, self.stream.requests,
                                     self.stream.catalog.sizes, replay)]

    def decisions(self, outputs):
        return len(outputs[0].decisions)


class DeskProposed(ReplayWorkload):
    scenario_file = "desk.json"
    horizon = 150
    segment_sites = ((allocator, "OnlineAllocator.advance_fine_slot", 100),)


class PaperScale(ReplayWorkload):
    scenario_file = "paper_scale.json"
    horizon = 10
    segment_sites = ((allocator, "OnlineAllocator.advance_fine_slot", 50),)


class DeskBaselines(Workload):
    """Both myopic policies through `edgeorch run`'s entry point."""

    scenario_file = "desk.json"
    horizon = 150
    policies = ("myopic_coop", "myopic_nocoop")
    segment_sites = GENERATION_SITES + ((cli, "run_policy", 1),
                                        (model, "ResourceState.advance", 100),
                                        (cli, "write_slots_csv", 1),
                                        (cli, "write_decisions_csv", 1),
                                        (cli, "write_placements_csv", 1))

    def keys(self):
        return [f"{policy}_s{self.seed}" for policy in self.policies]

    def round(self):
        spec = {"name": "desk_baselines", "scenario": self.scenario_file,
                "workload": "workload_default.json", "horizon": self.horizon,
                "seeds": [self.seed], "policies": list(self.policies),
                "sweep": None, "overrides": {}, "lookahead": None}
        out_dir = Path(tempfile.mkdtemp(prefix="artifacts-", dir=OUT))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run_experiment(spec, out_dir, workers=1)
        return [(out_dir, code, key) for key in self.keys()]

    def fingerprints(self, outputs):
        out_dir = outputs[0][0]
        with open(out_dir / "summary.json") as fh:
            runs = json.load(fh)["runs"]
        digests = []
        for _, code, key in outputs:
            files = [(out_dir / f"{key}_{part}.csv").read_bytes()
                     for part in ("slots", "decisions", "placements")]
            summary = {k: v for k, v in runs.get(key, {}).items()
                       if k != "wallclock_s"}
            digests.append(_digest(code, files, sorted(summary.items())))
        return digests

    def check(self, outputs):
        stream = self.generate()
        out_dir = outputs[0][0]
        replays = {}
        errors = []
        for (_, code, key), policy in zip(outputs, self.policies):
            replay = checker.replay_from_artifacts(out_dir, key, policy,
                                                   self.horizon)
            replays[key] = (policy, replay)
            errors.append(checker.check_replay(
                self.system, stream.requests, stream.catalog.sizes, replay)
                + ([] if code == 0 else [f"exit: run_experiment gave {code}"]))
        summary = checker.check_summary(out_dir, replays, stream.stream_hash)
        return [op_errors + summary for op_errors in errors]

    def decisions(self, outputs):
        with open(outputs[0][0] / "summary.json") as fh:
            runs = json.load(fh)["runs"]
        return sum(run["arrivals"] for run in runs.values())

    def release(self, outputs):
        shutil.rmtree(outputs[0][0], ignore_errors=True)


class VerifyOracles(Workload):
    """The greedy-vs-brute-force and mechanism-vs-oracle suites.

    The suites run at their own fixed seeds, as `edgeorch verify` runs
    them, so --seed does not change this workload's inputs.
    """

    scenario_file = "tiny.json"
    segment_sites = ((verification, "random_placement_instance", 10),
                     (verification, "generate_workload", 5),
                     (verification, "lookahead_oracle", 5))

    def round(self):
        return [verification.run_suite("prop2", n_instances=200),
                verification.run_suite("theorem1", n_instances=20)]

    def fingerprints(self, outputs):
        # the last line of each suite reports its own elapsed time
        return [_digest(out.passed, out.lines[:-1]) for out in outputs]

    def check(self, outputs):
        errors = checker.check_suites(self.system, *outputs)
        return [[e for e in errors if e.startswith("prop2")],
                [e for e in errors if not e.startswith("prop2")]]

    def decisions(self, outputs):
        """Replay theorem1 once more, keeping its reports: every request in
        a replay's horizon gets exactly one decision."""
        reports = []
        original = verification.run_policy

        def keep(*args, **kwargs):
            reports.append(original(*args, **kwargs))
            return reports[-1]

        with patched([(verification, "run_policy", lambda fn: keep)]):
            again = verification.run_suite("theorem1", n_instances=20)
        if not reports:
            raise RuntimeError("theorem1 no longer replays through "
                               "verification.run_policy: update decisions()")
        if again.data["rows"] != outputs[1].data["rows"]:
            raise RuntimeError("theorem1 rows differ between two runs")
        return sum(r.totals["arrivals"] for r in reports)


WORKLOADS = {"desk_proposed": DeskProposed,
             "desk_baselines": DeskBaselines,
             "paper_scale": PaperScale,
             "verify_oracles": VerifyOracles}


def run_rounds(work, seconds):
    """Untraced rounds until their summed wall time reaches `seconds`.

    The first round is checked in full; later rounds must reproduce its
    outputs.  Returns the rounds' wall times, their segments in reference
    seconds, the peak memory after the first round, the decisions of one
    round, and per operation the number of rounds it failed in.
    """
    clock = ReferenceClock(work.segment_sites)
    walls, segments = [], []
    while not walls or sum(walls) < seconds:
        gc.collect()
        outputs, wall, cuts = clock.measure(work.round)
        walls.append(wall)
        segments.append(cuts)
        digests = work.fingerprints(outputs)
        if len(walls) == 1:
            # later rounds free the previous one first, so this is the peak
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            reference = digests
            errors = work.check(outputs)
            decisions = work.decisions(outputs)
            for line in itertools.chain(*errors):
                print(line, file=sys.stderr)
            failed = [int(bool(op_errors)) for op_errors in errors]
        else:
            for n, (got, want) in enumerate(zip(digests, reference)):
                # an output that failed its checks fails again when reproduced
                if got != want or errors[n]:
                    failed[n] += 1
                if got != want:
                    print(f"determinism: operation {n} of round {len(walls)} "
                          "differs from the first round", file=sys.stderr)
        work.release(outputs)
    if len({len(cuts) for cuts in segments}) != 1:
        raise RuntimeError("rounds were cut into different numbers of segments")
    return walls, segments, peak_rss_mb, decisions, failed


def traced_round(work):
    from tracing import Tracer
    tracer = Tracer()
    with tracer.installed():
        if work.generates_in_setup:
            work.setup()
        gc.collect()
        start = time.perf_counter()
        outputs = work.round()
        elapsed = time.perf_counter() - start
    work.release(outputs)
    return tracer, elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)

    work = WORKLOADS[args.workload](args.seed)
    setups = []
    clock = ReferenceClock(GENERATION_SITES)
    for _ in range(work.setup_repeats):
        # frees the last set-up's fresh modules, which hold reference
        # cycles, so that no more than one copy is alive at a time
        gc.collect()
        _, _, cuts = clock.measure(work.setup)
        setups.append(sum(cuts))

    walls, segments, peak_rss_mb, decisions, failed = run_rounds(
        work, args.seconds)
    run_s = sum(statistics.median(column) for column in zip(*segments))
    attempted = len(walls) * len(failed)
    failed = sum(failed)

    if args.trace:
        tracer, traced_s = traced_round(work)
        metrics = tracer.metrics(traced_s - statistics.median(walls))
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.json", metrics)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups),
                        "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "decisions_per_s": {"value": decisions / run_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
