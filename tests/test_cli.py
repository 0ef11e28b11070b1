import csv
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

from edgeorch import cli
from edgeorch.cli import (DATA_DIR, _cell_key, _fmt_config,
                          adjust_cache_ratio, load_experiment, main,
                          resolve_data, run_experiment, svg_line_chart)
from edgeorch.model import AllocationConfig
from edgeorch.scenario import ScenarioError, load_scenario
from edgeorch.simulator import POLICIES


def test_resolve_data():
    assert resolve_data("desk") == DATA_DIR / "desk.json"
    assert resolve_data("desk.json") == DATA_DIR / "desk.json"
    direct = DATA_DIR / "tiny.json"
    assert resolve_data(str(direct)) == direct
    with pytest.raises(FileNotFoundError):
        resolve_data("no_such_thing")
    with pytest.raises(FileNotFoundError):
        resolve_data(str(DATA_DIR))


def test_resolve_data_warns_when_a_local_file_shadows_bundled(
        tmp_path, monkeypatch, caplog):
    (tmp_path / "desk.json").write_text("{}")
    monkeypatch.chdir(tmp_path)
    with caplog.at_level("WARNING", logger="edgeorch.cli"):
        assert resolve_data("desk.json", "scenario") == Path("desk.json")
    assert str((tmp_path / "desk.json").resolve()) in caplog.text
    assert str(DATA_DIR / "desk.json") in caplog.text
    caplog.clear()
    with caplog.at_level("WARNING", logger="edgeorch.cli"):
        assert resolve_data("tiny") == DATA_DIR / "tiny.json"
    assert caplog.text == ""


def test_load_experiment_defaults():
    spec = load_experiment("exp1_dynamics")
    assert spec["name"] == "exp1_dynamics"
    assert spec["policies"] == ["proposed", "myopic_coop", "myopic_nocoop"]
    assert spec["overrides"] == {}
    assert spec["lookahead"] is None


def test_load_experiment_missing_field(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"name": "x", "scenario": "tiny",
                                "workload": "workload_default",
                                "seeds": [0]}))
    with pytest.raises(ScenarioError):
        load_experiment(str(path))


def test_adjust_cache_ratio():
    scn = load_scenario(DATA_DIR / "desk.json")
    adjust_cache_ratio(scn, 0.9)
    assert scn.cache_size == {i: 9.0 for i in range(5)}
    adjust_cache_ratio(scn, 0.1)
    assert scn.cache_size == {i: 1.0 for i in range(5)}


def test_cell_key_and_config_format():
    assert _cell_key("proposed", 3, None, None) == "proposed_s3"
    assert _cell_key("proposed", 3, "cache_ratio", 0.5) == \
        "proposed_s3_cache_ratio0.5"
    assert _fmt_config(None) == ""
    assert _fmt_config(AllocationConfig({1: 0, 0: 2})) == "0@2|1@0"


def mini_spec(tmp_path, **extra):
    spec = {"name": "mini", "scenario": "tiny",
            "workload": "workload_default", "horizon": 2, "seeds": [0],
            "policies": ["proposed", "myopic_coop"]}
    spec.update(extra)
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(spec))
    return path


def test_run_experiment_end_to_end(tmp_path, capsys):
    spec = mini_spec(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 0
    for key in ("proposed_s0", "myopic_coop_s0"):
        for suffix in ("slots", "decisions", "placements"):
            assert (out / f"{key}_{suffix}.csv").exists()
    with open(out / "proposed_s0_slots.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["slot", "revenue", "cost", "queue"]
    assert len(rows) == 3                      # header + 2 coarse slots
    summary = json.loads((out / "summary.json").read_text())
    assert summary["name"] == "mini"
    assert summary["horizon"] == 2
    assert set(summary["runs"]) == {"proposed_s0", "myopic_coop_s0"}
    assert capsys.readouterr().out.count("revenue/slot") == 2


def test_rerun_is_byte_identical(tmp_path):
    spec = mini_spec(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(spec), "--out", str(out1)]) == 0
    assert main(["run", str(spec), "--out", str(out2)]) == 0
    for p1 in sorted(out1.glob("*.csv")):
        p2 = out2 / p1.name
        assert p1.read_bytes() == p2.read_bytes()


def test_run_with_svg_and_overrides(tmp_path):
    spec = mini_spec(tmp_path, policies=["proposed"])
    out = tmp_path / "svg"
    assert main(["run", str(spec), "--out", str(out), "--horizon", "1",
                 "--svg"]) == 0
    chart = (out / "chart_revenue.svg").read_text()
    assert chart.startswith("<svg")
    assert "<polyline" in chart
    assert (out / "chart_queue.svg").exists()
    with open(out / "proposed_s0_slots.csv") as fh:
        assert len(list(csv.reader(fh))) == 2  # horizon override applied


def test_decision_rows_carry_their_slot_q_eff(tmp_path):
    """Each decisions CSV row carries the q_eff its slot's row of the
    slots CSV shows: the proposed rule's queue weight, which moves from
    slot to slot, and the myopic rule's 0.0."""
    out = tmp_path / "out"
    assert main(["run", str(mini_spec(tmp_path, horizon=4)),
                 "--out", str(out)]) == 0
    seen = {}
    for key in ("proposed_s0", "myopic_coop_s0"):
        with open(out / f"{key}_slots.csv") as fh:
            q_eff = {row["slot"]: row["q_eff"] for row in csv.DictReader(fh)}
        with open(out / f"{key}_decisions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(row["q_eff"] == q_eff[row["slot"]]
                            for row in rows)
        seen[key] = {row["q_eff"] for row in rows}
    assert len(seen["proposed_s0"]) > 2
    assert seen["myopic_coop_s0"] == {"0.0"}


def test_failed_rerun_leaves_no_summary(tmp_path, monkeypatch):
    """A summary.json marks a finished run of this spec: one that an
    earlier run left is removed before the first draw, so a rerun that
    fails on its second cell leaves none."""
    out = tmp_path / "out"
    assert main(["run", str(mini_spec(tmp_path)), "--out", str(out)]) == 0
    assert (out / "summary.json").exists()
    runs = []
    real = cli.run_policy

    def failing(policy, *args):
        runs.append(policy)
        if len(runs) == 2:
            raise RuntimeError("the second cell fails")
        return real(policy, *args)

    monkeypatch.setattr(cli, "run_policy", failing)
    with pytest.raises(RuntimeError, match="the second cell fails"):
        main(["run", str(mini_spec(tmp_path, horizon=3)), "--out", str(out)])
    assert runs == ["proposed", "myopic_coop"]
    assert (out / "proposed_s0_slots.csv").exists()
    assert not (out / "summary.json").exists()


def test_sweep_axis_names_cells(tmp_path):
    spec = mini_spec(tmp_path, policies=["proposed"],
                     sweep={"axis": "v_weight", "values": [1000.0, 2000.0]})
    out = tmp_path / "sweep"
    assert main(["run", str(spec), "--out", str(out)]) == 0
    assert (out / "proposed_s0_v_weight1000_slots.csv").exists()
    assert (out / "proposed_s0_v_weight2000_slots.csv").exists()


def count_draws(monkeypatch):
    """Record the (seed, private_ratio) of every stream run_experiment draws."""
    draws = []
    real = cli.generate_workload

    def counting(cfg, scenario, horizon_fine):
        draws.append((cfg.seed, cfg.private_ratio))
        return real(cfg, scenario, horizon_fine)

    monkeypatch.setattr(cli, "generate_workload", counting)
    return draws


def test_cells_that_share_a_draw_share_one_stream(tmp_path, monkeypatch):
    draws = count_draws(monkeypatch)
    # 2 policies x 2 seeds x 2 cache ratios: 8 cells over 2 streams
    spec = load_experiment(str(mini_spec(
        tmp_path, seeds=[0, 1],
        sweep={"axis": "cache_ratio", "values": [0.5, 0.9]})))
    loads = []
    real_load = cli.load_scenario
    monkeypatch.setattr(cli, "load_scenario",
                        lambda *args: loads.append(args) or real_load(*args))
    assert run_experiment(spec, tmp_path / "cache") == 0
    assert len(list((tmp_path / "cache").glob("*_slots.csv"))) == 8
    assert sorted(draws) == [(0, 2.0), (1, 2.0)]
    # one scenario per point, which its seeds share
    assert len(loads) == 2
    # nothing outlives the call: a second run draws again
    assert run_experiment(spec, tmp_path / "again") == 0
    assert len(draws) == 4
    # a private_ratio point changes the draw: 2 values x 2 seeds
    del draws[:]
    spec = load_experiment(str(mini_spec(
        tmp_path, seeds=[0, 1],
        sweep={"axis": "private_ratio", "values": [0.5, 3.5]})))
    assert run_experiment(spec, tmp_path / "private") == 0
    assert sorted(draws) == [(0, 0.5), (0, 3.5), (1, 0.5), (1, 3.5)]


def test_workers_write_the_same_artifacts(tmp_path):
    spec = load_experiment(str(mini_spec(
        tmp_path, seeds=[0, 1],
        sweep={"axis": "cache_ratio", "values": [0.5, 0.9]})))
    one, two = tmp_path / "one", tmp_path / "two"
    assert run_experiment(spec, one, svg=True, workers=1) == 0
    assert run_experiment(spec, two, svg=True, workers=2) == 0

    def artifacts(out, suffix):
        return sorted(p.name for p in out.glob(f"*.{suffix}"))

    names = artifacts(one, "csv")
    assert len(names) == 24
    charts = artifacts(one, "svg")
    assert charts == ["chart_cost.svg", "chart_queue.svg", "chart_revenue.svg"]
    assert names == artifacts(two, "csv") and charts == artifacts(two, "svg")
    for name in names + charts:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name

    def runs(out):
        summary = json.loads((out / "summary.json").read_text())
        for run in summary["runs"].values():
            del run["wallclock_s"]
        return summary

    assert runs(one) == runs(two)


def test_run_stream_writes_its_cells_and_returns_no_report(tmp_path):
    spec = {"workload": "workload_default", "overrides": {}}
    scenario, cfg = cli._build_point(spec, DATA_DIR / "desk.json", None, None)
    cfg = replace(cfg, seed=0)
    cells = [(f"{policy}_s0", policy, scenario, cfg) for policy in POLICIES]
    results = cli._run_stream((tmp_path, 20, cells))
    assert [key for key, _, _ in results] == [key for key, _, _, _ in cells]
    assert len(list(tmp_path.glob("*.csv"))) == 3 * len(cells)
    for key, summary, series in results:
        assert type(summary) is dict and summary["horizon_coarse"] == 20
        assert sorted(series) == ["cost", "queue", "revenue"]
        with open(tmp_path / f"{key}_slots.csv") as fh:
            rows = list(csv.DictReader(fh))
        for metric, values in series.items():
            assert [repr(v) for v in values] == [row[metric] for row in rows]
    # only summaries and series cross back from a worker: a few KB
    data = pickle.dumps(results)
    assert b"RunReport" not in data
    assert len(data) < 8 * 1024


def test_no_more_worker_processes_than_streams(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size and maps
        in-process, so no process starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    # two seeds draw two streams
    spec = load_experiment(str(mini_spec(tmp_path, seeds=[0, 1])))
    assert run_experiment(spec, tmp_path / "two", workers=8) == 0
    assert sizes == [2]
    assert len(list((tmp_path / "two").glob("*_slots.csv"))) == 4
    # one stream runs in-process
    spec = load_experiment(str(mini_spec(tmp_path)))
    assert run_experiment(spec, tmp_path / "one", workers=8) == 0
    assert sizes == [2]
    assert (tmp_path / "one" / "summary.json").exists()


def test_unknown_inputs_exit_2(tmp_path):
    assert main(["run", "no_such_experiment"]) == 2
    spec = mini_spec(tmp_path, sweep={"axis": "nonsense", "values": [1]})
    assert main(["run", str(spec), "--out", str(tmp_path / "x")]) == 2
    spec = mini_spec(tmp_path, overrides={"bogus_field": 1.0})
    assert main(["run", str(spec), "--out", str(tmp_path / "y")]) == 2


@pytest.mark.parametrize("extra", [
    {"sweeps": {"axis": "budget", "values": [1.0, 2.0]}},
    {"sweep": {"axis": "budget", "value": [1.0]}},
    {"lookahead": {"instances": 1, "frame": 3}},
])
def test_unknown_spec_keys_exit_2(tmp_path, capsys, extra):
    spec = mini_spec(tmp_path, **extra)
    with pytest.raises(ScenarioError):
        load_experiment(str(spec))
    assert main(["run", str(spec), "--out", str(tmp_path / "z")]) == 2
    assert "unknown" in capsys.readouterr().err
    assert not (tmp_path / "z").exists()


# a misspelt key, then keys that scenarios no longer take
UNKNOWN_KEYS = {"hard_capacity_gaurd": False, "score_mode": "q_coupled",
                "local_latency": [0.0] * 5, "price_scale": 1.0}


@pytest.mark.parametrize("key", list(UNKNOWN_KEYS))
def test_unknown_scenario_key_exits_2(tmp_path, capsys, key):
    data = json.loads((DATA_DIR / "desk.json").read_text())
    data[key] = UNKNOWN_KEYS[key]
    (tmp_path / "desk.json").write_text(json.dumps(data))
    spec = mini_spec(tmp_path, scenario=str(tmp_path / "desk.json"))
    assert main(["run", str(spec), "--out", str(tmp_path / "z")]) == 2
    assert key in capsys.readouterr().err


# (path into the scenario JSON, value) edits that make a number bad
BAD_NUMBERS = {
    "nan_budget": [(("budget",), math.nan)],
    "inf_v_weight": [(("v_weight",), math.inf)],
    "nan_c_max": [(("c_max",), math.nan)],
    "nan_latency_pair": [(("latency", 0, 1), math.nan),
                         (("latency", 1, 0), math.nan)],
    "inf_origin": [(("origin_latency", 2), math.inf)],
    "nan_price": [(("prices", 0), math.nan)],
    "nan_recipe": [(("recipes", 1, 0), math.nan)],
    "nan_object_size": [(("objects", "o000"), math.nan)],
    "negative_capacity": [(("capacity", 0, 0), -1.0)],
    "inf_capacity": [(("capacity", 4, 2), math.inf)],
    "negative_cache_size": [(("cache_size", 3), -4.0)],
}


@pytest.mark.parametrize("case", list(BAD_NUMBERS))
def test_bad_scenario_numbers_exit_2(tmp_path, capsys, case):
    data = json.loads((DATA_DIR / "desk.json").read_text())
    for path, value in BAD_NUMBERS[case]:
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    (tmp_path / "bad.json").write_text(json.dumps(data))
    spec = mini_spec(tmp_path, scenario=str(tmp_path / "bad.json"))
    assert main(["run", str(spec), "--out", str(tmp_path / "z")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("z/*.csv"))


def test_workload_file_with_a_seed_exits_2(tmp_path, capsys):
    data = json.loads((DATA_DIR / "workload_default.json").read_text())
    data["seed"] = 7
    (tmp_path / "seeded.json").write_text(json.dumps(data))
    spec = mini_spec(tmp_path, workload=str(tmp_path / "seeded.json"))
    assert main(["run", str(spec), "--out", str(tmp_path / "z")]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    {"overrides": {"budget": math.nan}},
    {"overrides": {"budget": -5.0}},
    {"sweep": {"axis": "budget", "values": [-5.0]}},
])
def test_bad_override_values_exit_2(tmp_path, capsys, extra):
    spec = mini_spec(tmp_path, **extra)
    assert main(["run", str(spec), "--out", str(tmp_path / "z")]) == 2
    assert "error:" in capsys.readouterr().err


def test_budget_overrides_rederive_only_an_omitted_c_max(tmp_path):
    data = json.loads((DATA_DIR / "desk.json").read_text())
    data["budget"] = 100.0
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps(data))
    del data["c_max"]
    omitted = tmp_path / "omitted.json"
    omitted.write_text(json.dumps(data))
    spec = {"workload": "workload_default", "overrides": {}}

    def drift(path, axis=None, value=None, **overrides):
        cell = {**spec, "overrides": overrides}
        return cli._build_point(cell, path, axis, value)[0].drift_bound

    # B = max(c_max, budget)**2 / 2, where an omitted c_max is 3 x the
    # budget in force, however it is set
    assert drift(omitted) == 300.0 ** 2 / 2
    assert drift(omitted, "budget", 1000.0) == 3000.0 ** 2 / 2
    assert drift(omitted, budget=500.0) == 1500.0 ** 2 / 2
    assert drift(omitted, "budget", 1000.0, budget=500.0) == 3000.0 ** 2 / 2
    assert drift(omitted, "v_weight", 7.0) == 300.0 ** 2 / 2
    # an explicit one, from the file or an override, is kept
    assert drift(explicit, "budget", 1000.0) == 100000.0 ** 2 / 2
    assert drift(explicit, budget=500.0) == 100000.0 ** 2 / 2
    assert drift(omitted, "budget", 1000.0, c_max=42.0) == 1000.0 ** 2 / 2


def test_verify_command(capsys):
    assert main(["verify", "prop2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] prop2" in out


def test_lookahead_experiment(tmp_path):
    out = tmp_path / "look"
    assert main(["run", "exp5_lookahead", "--out", str(out)]) == 0
    with open(out / "lookahead.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed", "achieved", "bound", "margin", "ok"]
    assert len(rows) > 1
    assert all(row[4] == "1" for row in rows[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True


@pytest.mark.parametrize("flags", [
    ["--seed", "3"], ["--horizon", "9"], ["--scenario", "desk"], ["--svg"],
])
def test_lookahead_overrides_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "look"
    assert main(["run", "exp5_lookahead", "--out", str(out), *flags]) == 2
    assert "lookahead" in capsys.readouterr().err
    assert not out.exists()


GRID_VALUES = {"scenario": "desk.json", "workload": "workload_default",
               "horizon": 6, "seeds": [5], "policies": ["proposed"],
               "sweep": None, "overrides": {"budget": 1.0}}
LOOK = {"instances": 1, "n_frame": 2, "frames": 3}

# (spec edits, workload-file edits, command-line flags) of runs that must
# exit 2; edits that name "lookahead" start from a bare lookahead spec,
# the others from mini_spec, edits that are a path are the experiment
# itself, and edits that are not a JSON object are the whole spec or
# workload file; {tmp} in a flag is the test's directory
BAD_RUNS = {
    **{f"{part}_file_{name}": (value, {}, []) if part == "spec" else
       ({}, value, [])
       for part, cases in (("spec", (("a_list", []), ("a_number", 5),
                                     ("null", None), ("a_string", "x"))),
                           ("workload", (("a_list", []), ("a_number", 5),
                                         ("null", None), ("true", True))))
       for name, value in cases},
    **{f"{field}_{name}": ({field: value}, {}, [])
       for field in ("scenario", "workload")
       for name, value in (("a_number", 3), ("null", None),
                           ("a_list", ["tiny"]))},
    **{f"{field}_a_directory": ({field: str(DATA_DIR)}, {}, [])
       for field in ("scenario", "workload")},
    "scenario_dot": ({"scenario": "."}, {}, []),
    "experiment_a_directory": (DATA_DIR, {}, []),
    "scenario_flag_a_directory": ({}, {}, ["--scenario", str(DATA_DIR)]),
    "out_flag_an_existing_file": ({}, {}, ["--out", "{tmp}/wl.json"]),
    "out_flag_under_a_file": ({}, {}, ["--out", "{tmp}/wl.json/z"]),
    "name_a_number": ({"name": 5}, {}, []),
    "name_a_list": ({"name": ["mini"]}, {}, []),
    # without --out a run writes to runs/<name>, which a name must not leave
    "name_a_path": ({"name": "../escaped"}, {}, []),
    "name_empty": ({"name": ""}, {}, []),
    "name_dotdot": ({"name": ".."}, {}, []),
    **{f"lookahead_with_{key}": ({"lookahead": LOOK, key: value}, {}, [])
       for key, value in GRID_VALUES.items()},
    "lookahead_with_every_grid_key": ({"lookahead": LOOK, **GRID_VALUES},
                                      {}, []),
    "empty_lookahead_with_every_grid_key": ({"lookahead": {}, **GRID_VALUES},
                                            {}, []),
    **{f"lookahead_{key}_{name}": ({"lookahead": {key: value}}, {}, [])
       for key, name, value in (
           ("n_frame", "zero", 0), ("frames", "zero", 0),
           ("instances", "negative", -1), ("instances", "a_bool", True),
           ("instances", "a_string", "2"), ("n_frame", "fraction", 2.5))},
    "horizon_flag_zero": ({}, {}, ["--horizon", "0"]),
    "horizon_flag_negative": ({}, {}, ["--horizon", "-3"]),
    "workers_flag_zero": ({}, {}, ["--workers", "0"]),
    "workers_flag_negative": ({}, {}, ["--workers", "-2"]),
    "horizon_fraction": ({"horizon": 2.7}, {}, []),
    "seeds_empty": ({"seeds": []}, {}, []),
    "regime_length_zero": ({}, {"regime_length": 0}, []),
    "negative_private_ratio": ({}, {"private_ratio": -1.0}, []),
    "negative_error_mean": ({}, {"error_mean": -0.3}, []),
    "nan_zipf_exponent": ({}, {"zipf_exponent": math.nan}, []),
    "reversed_lambda_range": ({}, {"lambda_range": [5.0, 1.0]}, []),
    "zero_lifetime": ({}, {"lifetime": [0, 3]}, []),
    "lifetime_a_number": ({}, {"lifetime": 3}, []),
    "vm_mix_bools": ({}, {"vm_mix": [True, False]}, []),
    "vm_mix_strings": ({}, {"vm_mix": ["0.5", "0.5"]}, []),
    "vm_mix_null_entry": ({}, {"vm_mix": [None, 1.0]}, []),
    "vm_mix_null": ({}, {"vm_mix": None}, []),
    "vm_mix_off_sum": ({}, {"vm_mix": [0.9, 0.2]}, []),
    "vm_mix_negative": ({}, {"vm_mix": [1.2, -0.2]}, []),
    # tiny has two VM types
    "vm_mix_wrong_length": ({}, {"vm_mix": [0.2, 0.3, 0.5]}, []),
    "negative_private_ratio_point": (
        {"sweep": {"axis": "private_ratio", "values": [0.5, -1.0]}}, {}, []),
    # tiny's per-cloud cache of 1e308 times its 3 units overflows
    "cache_ratio_overflow": (
        {"sweep": {"axis": "cache_ratio", "values": [1e308]}}, {}, []),
    "no_vm_types": ({"overrides": {"recipes": [], "prices": [],
                                   "capacity": [[], []]}}, {}, []),
    # tiny has three resources
    **{f"resources_{name}": ({"overrides": {"resources": value}}, {}, [])
       for name, value in (("a_string", "abc"), ("too_few", ["a"]),
                           ("numbers", [1, 2, 3]))},
    "scenario_name_a_number": ({"overrides": {"name": 5}}, {}, []),
    "fractional_object_size": ({"overrides": {"objects": {
        "o000": 1.5, "o001": 1, "o002": 1}}}, {}, []),
    "no_public_objects": ({"overrides": {"objects": {}}}, {}, []),
    # the workload names the private reads of request 0 p0-0, p0-1, ...
    "public_name_like_a_private_id": ({"overrides": {"objects": {
        "o000": 1, "p0-0": 1, "o002": 1}}}, {}, []),
    # 3 ** 1000 passes the float range
    "zipf_exponent_overflow": ({}, {"zipf_exponent": 1000}, []),
}


@pytest.mark.parametrize("case", list(BAD_RUNS))
def test_bad_runs_exit_2(tmp_path, capsys, monkeypatch, case):
    edits, workload, flags = BAD_RUNS[case]
    draws = count_draws(monkeypatch)
    if isinstance(edits, Path):
        spec = edits
    elif not isinstance(edits, dict):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(edits))
    elif "lookahead" in edits:
        spec = tmp_path / "look.json"
        spec.write_text(json.dumps({"name": "look", **edits}))
    else:
        if isinstance(workload, dict):
            data = json.loads((DATA_DIR / "workload_default.json").read_text())
            workload = {**data, **workload}
        (tmp_path / "wl.json").write_text(json.dumps(workload))
        spec = mini_spec(tmp_path, **{"workload": str(tmp_path / "wl.json"),
                                      **edits})
    out = tmp_path / "z"
    assert main(["run", str(spec), "--out", str(out),
                 *[flag.format(tmp=tmp_path) for flag in flags]]) == 2
    assert "error:" in capsys.readouterr().err
    assert draws == []
    assert not out.exists()


def test_cache_past_the_demand_runs_as_a_full_cache(tmp_path):
    """A cache far larger than tiny's three unit objects, past what a
    knapsack table could index, writes the CSVs a cache holding all three
    writes."""
    got = {}
    for cache in (1e300, 3):
        out = tmp_path / f"cache{cache:g}"
        spec = mini_spec(tmp_path, horizon=4, seeds=[0, 1],
                         policies=list(POLICIES),
                         overrides={"cache_size": [cache, cache]})
        assert main(["run", str(spec), "--out", str(out)]) == 0
        got[cache] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert len(got[3]) == 18
    assert got[1e300] == got[3]


# spec edits that give two run cells one key, that key and what the message
# says of it: the cells would write the same artifact files and summary entry
COLLIDING_CELLS = {
    "repeated_seed": ({"seeds": [0, 0]}, "proposed_s0", "repeated seeds"),
    "repeated_policy": ({"policies": ["proposed", "myopic_coop",
                                      "proposed"]}, "proposed_s0",
                        "repeated seeds"),
    "sweep_values_equal_under_g": (
        {"policies": ["proposed"],
         "sweep": {"axis": "v_weight", "values": [1000.0, 1000.0000001]}},
        "proposed_s0_v_weight1000",
        "v_weight values 1000.0 and 1000.0000001 both format to it"),
    "budgets_equal_under_g": (
        {"policies": ["proposed"],
         "sweep": {"axis": "budget", "values": [1234567.0, 1234568.0]}},
        "proposed_s0_budget1.23457e+06",
        "budget values 1234567.0 and 1234568.0 both format to it"),
}


@pytest.mark.parametrize("case", list(COLLIDING_CELLS))
def test_colliding_cell_keys_exit_2_before_any_run(tmp_path, capsys,
                                                   monkeypatch, case):
    edits, key, why = COLLIDING_CELLS[case]
    draws = count_draws(monkeypatch)
    out = tmp_path / "z"
    assert main(["run", str(mini_spec(tmp_path, **edits)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"two run cells share the key {key!r}: {why}" in err
    assert draws == []
    assert not list(out.glob("*"))


# spec edits whose grid fields or overrides are bad: each is refused
# before any stream is drawn
BAD_GRIDS = {
    "sweep_not_an_object": {"sweep": ["budget", [1.0]]},
    "sweep_without_values": {"sweep": {"axis": "budget"}},
    "sweep_without_axis": {"sweep": {"values": [1.0]}},
    "sweep_values_a_number": {"sweep": {"axis": "budget", "values": 5}},
    "sweep_value_a_list": {"sweep": {"axis": "budget", "values": [[1]]}},
    "sweep_values_empty": {"sweep": {"axis": "budget", "values": []}},
    "sweep_value_nan": {"sweep": {"axis": "v_weight", "values": [math.nan]}},
    "sweep_value_a_bool": {"sweep": {"axis": "budget", "values": [True]}},
    "negative_cache_ratio": {"sweep": {"axis": "cache_ratio",
                                       "values": [0.5, -0.5]}},
    "policies_empty": {"policies": []},
    "policies_a_string": {"policies": "proposed"},
    "unknown_policy": {"policies": ["proposed", "clairvoyant"]},
    "overrides_a_list": {"overrides": [["budget", 1.0]]},
    "cache_size_for_two_of_five_clouds": {"scenario": "desk",
                                          "overrides": {"cache_size": [1, 1]}},
    "fractional_fine_per_coarse": {"overrides": {"fine_per_coarse": 2.5}},
    "guard_a_string": {"overrides": {"hard_capacity_guard": "no"}},
    **{f"{key}_a_bool": {"overrides": {key: True}}
       for key in ("budget", "v_weight", "c_max", "fine_per_coarse")},
    "bools_in_capacity_and_cache_size": {"overrides": {
        "capacity": [[True, True, True], [True, True, True]],
        "cache_size": [True, False]}},
    # a bad point after a good one, and after a good seed, is found before
    # the good cells are drawn
    **{f"{axis}_point_negative": {"seeds": [0, 1], "sweep": {
        "axis": axis, "values": [0.5, -5.0]}}
       for axis in ("budget", "v_weight", "private_ratio")},
}


@pytest.mark.parametrize("case", list(BAD_GRIDS))
def test_bad_grid_fields_exit_2_before_any_draw(tmp_path, capsys,
                                                monkeypatch, case):
    draws = count_draws(monkeypatch)
    out = tmp_path / "z"
    assert main(["run", str(mini_spec(tmp_path, **BAD_GRIDS[case])),
                 "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert draws == []
    assert not list(out.glob("*.csv"))


def test_svg_chart_is_deterministic(tmp_path):
    series = {"a": [1.0, 2.0, 1.5], "b": [0.5, 0.4, 0.9]}
    p1, p2 = tmp_path / "c1.svg", tmp_path / "c2.svg"
    svg_line_chart(p1, series, "title")
    svg_line_chart(p2, series, "title")
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.count("<polyline") == 2
    assert text.rstrip().endswith("</svg>")


def svg_texts(path):
    """The contents of a chart's text elements, in document order."""
    return [node.text for node in ET.parse(path).getroot().iter(
        "{http://www.w3.org/2000/svg}text")]


def test_svg_charts_escape_their_title_and_labels(tmp_path):
    """Every chart of a run whose name holds XML markup parses and reads
    back that name in its title; a series label with markup reads back
    the same."""
    name = "R&D <cache>"
    spec = mini_spec(tmp_path, name=name, policies=["proposed"])
    out = tmp_path / "svg"
    assert main(["run", str(spec), "--out", str(out), "--horizon", "1",
                 "--svg"]) == 0
    for metric in ("revenue", "cost", "queue"):
        texts = svg_texts(out / f"chart_{metric}.svg")
        assert texts[0] == f"{name}: per-slot {metric}"
        assert texts[-1] == "proposed_s0"
    chart = tmp_path / "labels.svg"
    svg_line_chart(chart, {"a<b & c>": [1.0, 2.0]}, "t")
    assert svg_texts(chart)[-1] == "a<b & c>"


# sha256 of every CSV that `run_experiment` writes for desk.json and
# workload_default.json, seeds 0-2, 20 coarse slots.  The myopic slots
# digests changed once, when the myopic baselines moved onto the shared
# control loop and their `dpp` column began to carry the drift-plus-penalty
# value instead of a 0.0 placeholder.  The myopic_nocoop slots and
# placements digests changed once more, when the popularity baseline began
# to return its own placement solution and their savings columns began to
# carry the empty-cache cost minus the objective instead of a 0.0
# placeholder; every other digest dates from before.
PINNED_DIGESTS = {
    "myopic_coop_s0_decisions.csv":
        "d2eb965c1b1c1b42420eeeb024d0e81b5650686a62f4d2d1014e5070c4484a70",
    "myopic_coop_s0_placements.csv":
        "20655063b616f920418595ebd2c8ffa42b0c836d7ac951e2e8bc0efca1317084",
    "myopic_coop_s0_slots.csv":
        "f7f6be6243a5f2c5df0e598f687316b1972dad3ffad5f8c66982fa8bf8c6009f",
    "myopic_coop_s1_decisions.csv":
        "e7d6d85bf168b39ab8bbf2d083cb6246cb77f6df958830e57808255049e750d4",
    "myopic_coop_s1_placements.csv":
        "92f0ddaf88837627e4a5a9b5d301e89d5c710b9ad42be22dc574bcc7994d840e",
    "myopic_coop_s1_slots.csv":
        "c8c3cfb0ba107c4c098e13b50edaa275aeb51a0e792f79a0171e45342116b145",
    "myopic_coop_s2_decisions.csv":
        "c0b8376272c98badf5060fd1bbc16800597c87ec1629c64cc7eb2ce3b896b3ce",
    "myopic_coop_s2_placements.csv":
        "bf36fadb914708c83fdf38d8a77e13b12aeea2f8453f36bedbf00e3a01772278",
    "myopic_coop_s2_slots.csv":
        "742a67c3be441e9c10b3efd45279d72dc29dc32eb56e5884b41070fca64b0a30",
    "myopic_nocoop_s0_decisions.csv":
        "f3f268c291be34c5a8adb470b6edfa2a150456425bfd81718a6610d68e4db319",
    "myopic_nocoop_s0_placements.csv":
        "d67693bb7d77c238ba3bc352abf495e3dcba0cc7b3b8608b7551b675cdfb845b",
    "myopic_nocoop_s0_slots.csv":
        "e6531bc155bdb9008e4bbb534b53b7e9dcd9992fb70ed40495760f8a8b29de93",
    "myopic_nocoop_s1_decisions.csv":
        "aa15e1bea68f1e6fc490e2dd4524490490f58ed50516e79541cf8952e739f151",
    "myopic_nocoop_s1_placements.csv":
        "890c656a0d31f29e1e0943d6113dc768075f2c8e1d5c744c3a1f1597170f6f21",
    "myopic_nocoop_s1_slots.csv":
        "8460b2d52f414273954c11e90b485d6e54809e2a5481ecfce607d525f43d5c1a",
    "myopic_nocoop_s2_decisions.csv":
        "f1a8acd50c577c5a12477fc90299ba71b936bff10c9a5594b06b535eabfa4d69",
    "myopic_nocoop_s2_placements.csv":
        "f204bd32c318af07221e3aaf3560ce7d8a02bbaa39c3becc24002788011c9e64",
    "myopic_nocoop_s2_slots.csv":
        "c8e0beab22b46b7b135aa6cbb829925b81e35fed763ee1413dd356a83125b7c1",
    "proposed_s0_decisions.csv":
        "65ce16d6d7157b759647b87518998479741ccb4314a4f1ea8cd96e099238de56",
    "proposed_s0_placements.csv":
        "af8239fde1db5a82bd498c49bf9ab277f273ec0e2b81021fe99c11d0a2b1b0f3",
    "proposed_s0_slots.csv":
        "cfa997972158da7715cfe4e2881453f99d6d6de1f040fd499e1f462313d59d00",
    "proposed_s1_decisions.csv":
        "255a3832a6de5be3700f8689ac9c8bce1ae4a2f6054a8a11488f6921f800ddf3",
    "proposed_s1_placements.csv":
        "cce929847e773743e74e709d44b6c1d8182fe4ef28dca127f7e577f399e60f03",
    "proposed_s1_slots.csv":
        "857f04d1d2111fb0aeed9afab8455675ea2bf232c81cdbde65237b6f09c83aee",
    "proposed_s2_decisions.csv":
        "86878b70a3fe878c9e660ec70486a4e047fe0093c3db335235b5e7e719f98a81",
    "proposed_s2_placements.csv":
        "1a16bec422de46e0ab22eb5cc36c5c078e39705d95a32436661078fa2a304c21",
    "proposed_s2_slots.csv":
        "045f3c762c43e7f72ba83785399df958fac935711af40097cc109ada3e55622d",
}


def test_outputs_match_pinned_digests(tmp_path):
    spec = {"name": "pin", "scenario": "desk.json",
            "workload": "workload_default.json", "horizon": 20,
            "seeds": [0, 1, 2],
            "policies": ["proposed", "myopic_coop", "myopic_nocoop"],
            "sweep": None, "overrides": {}, "lookahead": None}
    assert run_experiment(spec, tmp_path) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.glob("*.csv")}
    assert got == PINNED_DIGESTS


# sha256 of the CSVs of 2-coarse-slot replays of paper_scale.json and
# workload_default.json under each policy, seed 0: 500-slot pricing windows,
# 5000-unit capacities and 40-object caches, which the desk run does not
# reach.
PINNED_PAPER_SCALE_DIGESTS = {
    "myopic_coop_s0_decisions.csv":
        "1f082a507ebedd234da2fbc6870f32b94b72db107fad7384cb11d34154419817",
    "myopic_coop_s0_placements.csv":
        "cb34805cfce2a4c15b09d179c703627c4742d14a3f62b3a0f5bb91674d71e630",
    "myopic_coop_s0_slots.csv":
        "0469edd03de5949547b919aa87e95b231f80e4ee749c44fe95c68a1fb5adc230",
    "myopic_nocoop_s0_decisions.csv":
        "b3aeb9c8549b24ef3f17185bd56d7e194574bf96aebfae8bb79f48071047ad1f",
    "myopic_nocoop_s0_placements.csv":
        "98c72f3aad776c92d9b4a0f81f07efc1db3a36a90001e5b0aeca62d6133c2967",
    "myopic_nocoop_s0_slots.csv":
        "94178bc4ea199abde20305a8ccb97326a71261b99c71ca59ae80d248c82db9b3",
    "proposed_s0_decisions.csv":
        "d405eedf67cd781e053aad9cd911b863f6040cf18ef9dfa732bc957ccbd46ef9",
    "proposed_s0_placements.csv":
        "7dfb4ff703acebb1355ae6a928012245cdcdf2be92160b1223f253b8d3c8e9dd",
    "proposed_s0_slots.csv":
        "14f8b7616500b0915560e34d8911e91df3da291939d7255e477fa44ccb32b339",
}


def test_paper_scale_outputs_match_pinned_digests(tmp_path):
    spec = {"name": "pin", "scenario": "paper_scale.json",
            "workload": "workload_default.json", "horizon": 2, "seeds": [0],
            "policies": ["proposed", "myopic_coop", "myopic_nocoop"],
            "sweep": None, "overrides": {}, "lookahead": None}
    assert run_experiment(spec, tmp_path) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.glob("*.csv")}
    assert got == PINNED_PAPER_SCALE_DIGESTS


RUNTIME_PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import edgeorch
for module in pkgutil.iter_modules(edgeorch.__path__):
    importlib.import_module("edgeorch." + module.name)
print(json.dumps(sorted({name.partition(".")[0]
                         for name in set(sys.modules) - before})))
"""


def test_runtime_needs_only_numpy_beyond_the_standard_library():
    """Importing every edgeorch module in a fresh interpreter loads no
    top-level module outside the standard library but edgeorch and numpy.
    Names starting with _ are skipped: multiprocessing adds __mp_main__."""
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", RUNTIME_PROBE],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert {name for name in loaded if not name.startswith("_")
            and name not in sys.stdlib_module_names} == {"edgeorch", "numpy"}

