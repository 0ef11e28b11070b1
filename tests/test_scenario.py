import json

import pytest

from edgeorch.scenario import (DATA_DIR, SCENARIO_KEYS, Scenario,
                               ScenarioError, load_scenario,
                               scenario_from_dict)


def test_desk_builder_shape():
    scn = load_scenario(DATA_DIR / "desk.json")
    assert scn.topology.n_clouds == 5
    assert scn.vms.n_types == 2
    assert len(scn.catalog.public_objects()) == 50
    # 40% of a 50-unit universe split over 5 clouds, floored
    assert scn.cache_size == {i: 4.0 for i in range(5)}
    assert scn.capacity[(3, 2)] == 500.0
    assert scn.drift_bound == scn.c_max ** 2 / 2.0


def test_save_load_round_trip(tmp_path):
    scn = load_scenario(DATA_DIR / "tiny.json")
    path = tmp_path / "tiny.json"
    scn.save(path)
    again = load_scenario(path)
    assert again.to_dict() == scn.to_dict()
    assert again.drift_bound == scn.drift_bound


def test_load_rejects_bad_files(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(path)
    path.write_text("[1, 2]")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_from_dict_field_checks():
    base = load_scenario(DATA_DIR / "tiny.json").to_dict()
    for key in ("latency", "recipes", "budget", "fine_per_coarse"):
        data = dict(base)
        del data[key]
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)
    data = dict(base)
    data["capacity"] = data["capacity"][:1]
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)
    data = dict(base)
    data["budget"] = "lots"
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_unknown_scenario_keys_are_rejected(tmp_path):
    data = load_scenario(DATA_DIR / "desk.json").to_dict()
    assert set(data) == SCENARIO_KEYS
    data["hard_capacity_gaurd"] = False      # misspelt: must not be ignored
    with pytest.raises(ScenarioError, match="hard_capacity_gaurd"):
        scenario_from_dict(data)
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match="hard_capacity_gaurd"):
        load_scenario(path)


def test_scenario_post_init_checks():
    scn = load_scenario(DATA_DIR / "tiny.json")
    with pytest.raises(ScenarioError):
        Scenario(name="x", topology=scn.topology, vms=scn.vms,
                 catalog=scn.catalog, capacity=scn.capacity,
                 cache_size=scn.cache_size, fine_per_coarse=0,
                 budget=10.0, v_weight=1.0)
    with pytest.raises(ScenarioError):
        Scenario(name="x", topology=scn.topology, vms=scn.vms,
                 catalog=scn.catalog, capacity=scn.capacity,
                 cache_size={0: 1.0}, fine_per_coarse=4,
                 budget=10.0, v_weight=1.0)
    with pytest.raises(ScenarioError):
        Scenario(name="x", topology=scn.topology, vms=scn.vms,
                 catalog=scn.catalog, capacity=scn.capacity,
                 cache_size=scn.cache_size, fine_per_coarse=4,
                 budget=10.0, v_weight=1.0, score_mode="mystery")


def test_default_c_max_backfill():
    scn = load_scenario(DATA_DIR / "tiny.json")
    data = scn.to_dict()
    data.pop("c_max")
    loaded = scenario_from_dict(data)
    assert loaded.c_max == 3.0 * loaded.budget


def test_stress_scenario_has_slack_budget():
    scn = load_scenario(DATA_DIR / "stress.json")
    assert scn.budget == 1e9
    assert scn.capacity[(0, 0)] == 90.0


def test_bundled_scenarios_parse():
    for name in ("desk", "paper_scale", "stress", "tiny"):
        scn = load_scenario(DATA_DIR / f"{name}.json")
        assert scn.name == name
        assert scn.fine_per_coarse >= 4


def test_saved_json_is_stable(tmp_path):
    scn = load_scenario(DATA_DIR / "desk.json")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    scn.save(p1)
    scn.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["name"] == "desk"
