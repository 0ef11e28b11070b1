import csv
import hashlib
import json

import pytest

from edgeorch.cli import (DATA_DIR, _cell_key, _fmt_config,
                          adjust_cache_ratio, load_experiment, main,
                          resolve_data, run_experiment, svg_line_chart)
from edgeorch.model import AllocationConfig
from edgeorch.scenario import ScenarioError, make_desk_scenario


def test_resolve_data():
    assert resolve_data("desk") == DATA_DIR / "desk.json"
    assert resolve_data("desk.json") == DATA_DIR / "desk.json"
    direct = DATA_DIR / "tiny.json"
    assert resolve_data(str(direct)) == direct
    with pytest.raises(FileNotFoundError):
        resolve_data("no_such_thing")


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
    scn = make_desk_scenario()
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


def test_unknown_inputs_exit_2(tmp_path):
    assert main(["run", "no_such_experiment"]) == 2
    spec = mini_spec(tmp_path, sweep={"axis": "nonsense", "values": [1]})
    assert main(["run", str(spec), "--out", str(tmp_path / "x")]) == 2
    spec = mini_spec(tmp_path, overrides={"bogus_field": 1.0})
    assert main(["run", str(spec), "--out", str(tmp_path / "y")]) == 2


@pytest.mark.parametrize("extra", [
    {"overrides": {"score_mode": "q_copuled"}},
    {"overrides": {"budget": -5.0}},
    {"sweep": {"axis": "budget", "values": [-5.0]}},
])
def test_bad_override_values_exit_2(tmp_path, capsys, extra):
    spec = mini_spec(tmp_path, **extra)
    assert main(["run", str(spec), "--out", str(tmp_path / "z")]) == 2
    assert "error:" in capsys.readouterr().err


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
