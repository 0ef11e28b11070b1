import csv
import hashlib
import json
from pathlib import Path

import pytest

from edgeorch import cli
from edgeorch.cli import (DATA_DIR, _cell_key, _fmt_config,
                          adjust_cache_ratio, load_experiment, main,
                          resolve_data, run_experiment, svg_line_chart)
from edgeorch.model import AllocationConfig
from edgeorch.scenario import ScenarioError, load_scenario


def test_resolve_data():
    assert resolve_data("desk") == DATA_DIR / "desk.json"
    assert resolve_data("desk.json") == DATA_DIR / "desk.json"
    direct = DATA_DIR / "tiny.json"
    assert resolve_data(str(direct)) == direct
    with pytest.raises(FileNotFoundError):
        resolve_data("no_such_thing")


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
    assert run_experiment(spec, tmp_path / "cache") == 0
    assert len(list((tmp_path / "cache").glob("*_slots.csv"))) == 8
    assert sorted(draws) == [(0, 2.0), (1, 2.0)]
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
    assert run_experiment(spec, one, workers=1) == 0
    assert run_experiment(spec, two, workers=2) == 0
    names = sorted(p.name for p in one.glob("*.csv"))
    assert len(names) == 24
    assert names == sorted(p.name for p in two.glob("*.csv"))
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name

    def runs(out):
        summary = json.loads((out / "summary.json").read_text())
        for run in summary["runs"].values():
            del run["wallclock_s"]
        return summary

    assert runs(one) == runs(two)


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


def test_unknown_scenario_key_exits_2(tmp_path, capsys):
    data = json.loads((DATA_DIR / "desk.json").read_text())
    data["hard_capacity_gaurd"] = False
    (tmp_path / "desk.json").write_text(json.dumps(data))
    spec = mini_spec(tmp_path, scenario=str(tmp_path / "desk.json"))
    assert main(["run", str(spec), "--out", str(tmp_path / "z")]) == 2
    assert "hard_capacity_gaurd" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    {"overrides": {"score_mode": "q_copuled"}},
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

    def c_max(path, axis=None, value=None, **overrides):
        cell = {**spec, "overrides": overrides}
        return cli._build_cell(cell, path, axis, value, 0)[0].c_max

    # an omitted c_max is 3 x the budget in force, however it is set
    assert c_max(omitted) == 300.0
    assert c_max(omitted, "budget", 1000.0) == 3000.0
    assert c_max(omitted, budget=500.0) == 1500.0
    assert c_max(omitted, "budget", 1000.0, budget=500.0) == 3000.0
    assert c_max(omitted, "v_weight", 7.0) == 300.0
    # an explicit one, from the file or an override, is kept
    assert c_max(explicit, "budget", 1000.0) == 100000.0
    assert c_max(explicit, budget=500.0) == 100000.0
    assert c_max(omitted, "budget", 1000.0, c_max=42.0) == 42.0


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


def test_svg_chart_is_deterministic(tmp_path):
    series = {"a": [1.0, 2.0, 1.5], "b": [0.5, 0.4, 0.9]}
    p1, p2 = tmp_path / "c1.svg", tmp_path / "c2.svg"
    svg_line_chart(p1, series, "title")
    svg_line_chart(p2, series, "title")
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.count("<polyline") == 2
    assert text.rstrip().endswith("</svg>")


# sha256 of every CSV that `run_experiment` writes for desk.json and
# workload_default.json, seeds 0-2, 20 coarse slots.  The myopic slots
# digests changed once, when the myopic baselines moved onto the shared
# control loop and their `dpp` column began to carry the drift-plus-penalty
# value instead of a 0.0 placeholder; every other digest dates from before.
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
        "f49a0932513df051c64bdd8de4f0417a67c9d39dfd1faafaa6c4a5a9e8aa8c39",
    "myopic_nocoop_s0_slots.csv":
        "7c0b52412419a3a2b412a3fdf248252140d2fc086c0d74b30d59429708d68961",
    "myopic_nocoop_s1_decisions.csv":
        "aa15e1bea68f1e6fc490e2dd4524490490f58ed50516e79541cf8952e739f151",
    "myopic_nocoop_s1_placements.csv":
        "33b4727a60a790991abbb190b3ee82563b4bf998d678dd4c61330116bf566717",
    "myopic_nocoop_s1_slots.csv":
        "344efe69680f76d07d6d24e200f3af2f133790f306c9f28074e7f9090e763036",
    "myopic_nocoop_s2_decisions.csv":
        "f1a8acd50c577c5a12477fc90299ba71b936bff10c9a5594b06b535eabfa4d69",
    "myopic_nocoop_s2_placements.csv":
        "f6b2e3c62e745cc1bd77a17a3765e34b8f62e50113950d0c9ad459a2f46aeb1a",
    "myopic_nocoop_s2_slots.csv":
        "b1a1d8185eae555a90879a358f1dc737451df21eb0cba7369a5c32c2d001f508",
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


# sha256 of the CSVs of a 2-coarse-slot `proposed` replay of paper_scale.json
# and workload_default.json, seed 0: 500-slot pricing windows, 5000-unit
# capacities and 40-object caches, which the desk run does not reach.
PINNED_PAPER_SCALE_DIGESTS = {
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
            "policies": ["proposed"], "sweep": None, "overrides": {},
            "lookahead": None}
    assert run_experiment(spec, tmp_path) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.glob("*.csv")}
    assert got == PINNED_PAPER_SCALE_DIGESTS
