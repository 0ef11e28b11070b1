import hashlib
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from edgeorch import simulator
from edgeorch.allocator import _AdmissionRule
from edgeorch.cli import resolve_data
from edgeorch.model import (DataCatalog, Request, Topology, VMCatalog,
                            ordered_sum)
from edgeorch.orchestrator import update_virtual_queue
from edgeorch.placement import DemandMatrix
from edgeorch.scenario import DATA_DIR, Scenario, load_scenario
from edgeorch.simulator import (POLICIES, RunReport, Workload, WorkloadConfig,
                                _check_accounting, generate_workload,
                                lookahead_oracle, perturb_demand, run_policy,
                                theorem1_check, zipf_probabilities)
from edgeorch.verification import _exp1_run, tiny_instances
from reference_rules import pack_requests, reference_lookahead_oracle


def test_workload_config_round_trip():
    cfg = WorkloadConfig.from_dict({"seed": 3, "lambda_range": [1.0, 2.0],
                                    "private_ratio": 0.5})
    assert cfg.lambda_range == (1.0, 2.0)
    assert cfg.regime_length == 25
    with pytest.raises(ValueError):
        WorkloadConfig.from_dict({"seed": 1, "bogus": True})


def test_zipf_probabilities():
    probs = zipf_probabilities(3, 1.0)
    assert probs.sum() == pytest.approx(1.0)
    assert probs[0] > probs[1] > probs[2]
    assert probs[0] == pytest.approx(6.0 / 11.0)
    flat = zipf_probabilities(4, 0.0)
    assert np.allclose(flat, 0.25)
    with pytest.raises(ValueError):
        zipf_probabilities(0, 1.0)
    # rank ** exponent past the float range: 50 ** 182 and 3 ** 1000
    assert zipf_probabilities(50, 181)[-1] > 0.0
    for n, exponent in ((50, 182), (50, 182.0), (3, 1000), (3, 1e6)):
        with pytest.raises(ValueError, match="zipf_exponent"):
            zipf_probabilities(n, exponent)


def test_workload_is_deterministic():
    scn = load_scenario(DATA_DIR / "desk.json")
    cfg = WorkloadConfig(seed=5, lambda_range=(0.0, 4.0))
    a = generate_workload(cfg, scn, 100)
    b = generate_workload(cfg, scn, 100)
    assert a.stream_hash == b.stream_hash
    assert [r.req_id for r in a.requests] == [r.req_id for r in b.requests]
    c = generate_workload(WorkloadConfig(seed=6, lambda_range=(0.0, 4.0)),
                          scn, 100)
    assert c.stream_hash != a.stream_hash


def test_workload_rate_zero_is_empty():
    scn = load_scenario(DATA_DIR / "desk.json")
    wl = generate_workload(WorkloadConfig(seed=1, lambda_range=(0.0, 0.0)),
                           scn, 50)
    assert wl.requests == []
    # private catalog untouched when nothing arrives
    assert wl.catalog.public_objects() == scn.catalog.public_objects()


def test_workload_shape_and_validation():
    scn = load_scenario(DATA_DIR / "desk.json")
    cfg = WorkloadConfig(seed=2, lambda_range=(2.0, 6.0), private_ratio=2.0)
    wl = generate_workload(cfg, scn, 120)
    assert wl.requests
    for req in wl.requests:
        assert 0 <= req.arrival < 120
        assert 1 <= req.duration <= 5
        (count, objects), = req.demand.values()
        assert count == 1
        publics = [o for o in objects if o in wl.catalog.public]
        privates = [o for o in objects if o not in wl.catalog.public]
        assert 1 <= len(publics) <= 3
        # unit sizes and an integer ratio make the private count exact
        assert len(privates) == 2 * len(publics)
        assert all(p.startswith(f"p{req.req_id}-") for p in privates)
    assert [r.req_id for r in wl.requests] == list(range(len(wl.requests)))


def test_workload_vm_mix_validation():
    scn = load_scenario(DATA_DIR / "desk.json")
    with pytest.raises(ValueError):
        generate_workload(WorkloadConfig(seed=1, vm_mix=(0.9, 0.2)), scn, 10)
    with pytest.raises(ValueError):
        generate_workload(WorkloadConfig(seed=1, vm_mix=(1.0,)), scn, 10)
    # both sum to 1 (NaN even slips past the sum check), but neither is a
    # distribution
    with pytest.raises(ValueError, match="non-negative"):
        generate_workload(WorkloadConfig(seed=1, vm_mix=(1.2, -0.2)), scn, 10)
    with pytest.raises(ValueError, match="finite"):
        generate_workload(WorkloadConfig(seed=1, vm_mix=(math.nan, 1.0)),
                          scn, 10)


def reference_workload(cfg, scenario, horizon_fine):
    """The plain draw loop that generate_workload replaces: one rng.choice
    for the VM type and one for the Zipf ranks of each request."""
    rng = np.random.default_rng(cfg.seed)
    publics = scenario.catalog.public_objects()
    catalog = DataCatalog({o: scenario.catalog.sizes[o] for o in publics})
    probs = zipf_probabilities(len(publics), cfg.zipf_exponent)
    n_types = scenario.vms.n_types
    mix = np.array(cfg.vm_mix if cfg.vm_mix else [1.0 / n_types] * n_types)
    n_clouds = scenario.topology.n_clouds
    requests = []
    req_id = 0
    for t in range(horizon_fine):
        if t % cfg.regime_length == 0:
            rate = float(rng.uniform(*cfg.lambda_range))
        for _ in range(int(rng.poisson(rate))):
            k = int(rng.choice(n_types, p=mix))
            life = int(rng.integers(cfg.lifetime[0], cfg.lifetime[1] + 1))
            n_obj = int(rng.integers(cfg.objects_per_vm[0],
                                     cfg.objects_per_vm[1] + 1))
            picks = rng.choice(len(publics), size=n_obj, p=probs)
            objects = sorted({publics[i] for i in picks})
            volume = sum(catalog.size(o) for o in objects)
            want = cfg.private_ratio * volume
            n_priv = int(want) + (1 if rng.random() < want - int(want) else 0)
            private = [f"p{req_id}-{j}" for j in range(n_priv)]
            catalog.add_many(private, 1)
            requests.append(Request(
                req_id=req_id, arrival=t, duration=life,
                ingress=int(rng.integers(n_clouds)),
                demand={k: (1, tuple(objects + private))}))
            req_id += 1
    digest = hashlib.sha256()
    for req in requests:
        digest.update(repr((req.req_id, req.arrival, req.duration, req.ingress,
                            sorted(req.demand.items()))).encode())
    return requests, catalog, digest.hexdigest()


def _skewed_mix(n_types):
    weights = [9.0 ** -k for k in range(n_types)]
    return tuple(w / sum(weights) for w in weights)


DRAW_VARIANTS = {
    "as_specified": lambda n_types: {},
    "skewed_vm_mix": lambda n_types: {"vm_mix": _skewed_mix(n_types)},
    "unused_vm_type": lambda n_types: {
        "vm_mix": (1.0,) + (0.0,) * (n_types - 1)},
    "private_ratio_0": lambda n_types: {"private_ratio": 0.0},
    "private_ratio_2.7": lambda n_types: {"private_ratio": 2.7},
    "private_ratio_3.5": lambda n_types: {"private_ratio": 3.5},
    "objects_per_vm_0_0": lambda n_types: {"objects_per_vm": (0, 0)},
    "objects_per_vm_2_5": lambda n_types: {"objects_per_vm": (2, 5)},
    "zipf_1.1": lambda n_types: {"zipf_exponent": 1.1},
    # spans this wide make the integer draw reject about a quarter of its
    # 32-bit draws
    "wide_lifetime": lambda n_types: {"lifetime": (1, 3 * 2**30)},
    # rates of 10 and more are drawn by numpy's own Poisson, after the
    # decoder rewinds the generator to its position
    "lambda_8_30": lambda n_types: {"lambda_range": (8.0, 30.0)},
}


def assert_same_rows(got, want, where):
    assert ((got.publics, got.n_clouds, got.keys)
            == (want.publics, want.n_clouds, want.keys)), where
    for name in ("kinds", "starts", "offsets", "source", "size"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), (where, name)
        assert (a == b).all(), (where, name)


@pytest.mark.parametrize("scenario_name",
                         ["desk", "tiny", "stress", "paper_scale"])
def test_draw_matches_reference_choice_loop(scenario_name):
    """The draw against the plain choice loop, and the rows packed while
    drawing against the requests packed by name."""
    scn = load_scenario(resolve_data(scenario_name, "scenario"))
    for spec in ("workload_default", "workload_error03"):
        with open(resolve_data(spec, "workload")) as fh:
            base = WorkloadConfig.from_dict(json.load(fh))
        for variant, fields in DRAW_VARIANTS.items():
            for seed in (0, 1, 2):
                cfg = replace(base, seed=seed, **fields(scn.vms.n_types))
                wl = generate_workload(cfg, scn, 40)
                requests, catalog, digest = reference_workload(cfg, scn, 40)
                where = (spec, variant, seed)
                assert wl.stream_hash == digest, where
                assert wl.requests == requests, where
                assert wl.catalog.sizes == catalog.sizes, where
                assert wl.catalog.public == catalog.public, where
                assert_same_rows(wl.rows, pack_requests(
                    requests, scn.catalog.public_objects(),
                    scn.topology.n_clouds, catalog), where)


def test_desk_stream_hash_is_pinned():
    """The 150-slot desk stream at seed 0, the one the desk suites replay."""
    _, wl, _, _ = _exp1_run(150)
    assert len(wl.requests) == 36477
    assert wl.stream_hash == \
        "84e114d5a7301ad11a232493185ccf72cbfa984c381827ba173971568541ef34"


def test_workload_statistics():
    """Rates, ranks, lifetimes and the type mix track their distributions."""
    scn = load_scenario(DATA_DIR / "desk.json")
    cfg = WorkloadConfig(seed=42, lambda_range=(10.0, 10.0),
                         zipf_exponent=0.0, objects_per_vm=(1, 1),
                         private_ratio=0.0)
    horizon = 2000
    wl = generate_workload(cfg, scn, horizon)
    n = len(wl.requests)
    lam = 10.0 * horizon
    assert abs(n - lam) <= 3.0 * math.sqrt(lam)

    reads = {}
    durations = np.zeros(5)
    types = np.zeros(scn.vms.n_types)
    for req in wl.requests:
        (count, objects), = req.demand.values()
        for o in objects:
            reads[o] = reads.get(o, 0) + 1
        durations[req.duration - 1] += 1
        types[list(req.demand)[0]] += 1

    p_obj = 1.0 / 50.0
    sigma = math.sqrt(n * p_obj * (1.0 - p_obj))
    for o in scn.catalog.public_objects():
        assert abs(reads.get(o, 0) - n * p_obj) <= 4.0 * sigma

    chi = scipy.stats.chisquare(durations)
    assert chi.pvalue > 0.01

    p_type = 1.0 / scn.vms.n_types
    for k in range(scn.vms.n_types):
        assert abs(types[k] - n * p_type) <= 3.0 * math.sqrt(
            n * p_type * (1.0 - p_type))


def test_zipf_exponent_skews_reads():
    scn = load_scenario(DATA_DIR / "desk.json")
    cfg = WorkloadConfig(seed=9, lambda_range=(8.0, 8.0), zipf_exponent=0.6,
                         objects_per_vm=(1, 1), private_ratio=0.0)
    wl = generate_workload(cfg, scn, 1000)
    reads = {}
    for req in wl.requests:
        for o in req.demand[list(req.demand)[0]][1]:
            reads[o] = reads.get(o, 0) + 1
    # rank 1 is o000; it must clearly beat the median object
    counts = sorted(reads.values())
    assert reads["o000"] > 1.5 * counts[len(counts) // 2]


def test_fractional_private_ratio_tracks_volume():
    scn = load_scenario(DATA_DIR / "desk.json")
    cfg = WorkloadConfig(seed=4, lambda_range=(4.0, 8.0), private_ratio=0.5)
    wl = generate_workload(cfg, scn, 500)
    privates = publics = 0
    for req in wl.requests:
        (_, objects), = req.demand.values()
        pub = sum(1 for o in objects if o in wl.catalog.public)
        publics += pub
        privates += len(objects) - pub
    assert 0.45 < privates / publics < 0.55


class FakeRng:
    """Scripted stand-in for the perturbation rng."""

    def __init__(self, poisson_value, randoms):
        self.poisson_value = poisson_value
        self.randoms = list(randoms)

    def poisson(self, lam):
        return self.poisson_value

    def random(self):
        return self.randoms.pop(0)


def test_perturb_demand_no_error_is_identity():
    demand = DemandMatrix({(0, "A"): 10.0, (1, "C"): 1.0})
    view = perturb_demand(demand, 0.0, FakeRng(99, []))
    assert view.entries == demand.entries
    assert view.entries is not demand.entries


def test_perturb_demand_drops_hot_objects():
    demand = DemandMatrix({(0, "A"): 10.0, (0, "B"): 5.0, (1, "C"): 1.0})
    # X=4 over shape 10 gives eps 0.4; A alone carries half the traffic
    view = perturb_demand(demand, 0.3, FakeRng(4, [0.3]))
    assert view.entries == {(0, "B"): 5.0, (1, "C"): 1.0}
    view = perturb_demand(demand, 0.3, FakeRng(25, [0.99]))
    assert view.entries == {(0, "B"): 5.0, (1, "C"): 1.0}


def shared_workload(scn, seed=0, horizon_coarse=4):
    cfg = WorkloadConfig(seed=seed)
    return generate_workload(cfg, scn, horizon_coarse * scn.fine_per_coarse)


def test_policies_share_the_stream_and_balance_their_books():
    scn = load_scenario(DATA_DIR / "desk.json")
    wl = shared_workload(scn)
    reports = {p: run_policy(p, scn, wl, 4) for p in POLICIES}
    hashes = {rep.stream_hash for rep in reports.values()}
    assert len(hashes) == 1
    for rep in reports.values():
        assert rep.counters["accounting_violations"] == 0
        assert rep.counters["queue_replay_violations"] == 0
        assert rep.totals["arrivals"] == len(wl.requests)
        assert len(rep.slots) == 4
        assert len(rep.placements) == 4
        assert rep.totals["accepted"] > 0
    proposed = reports["proposed"]
    assert proposed.counters["identity_violations"] == 0
    assert proposed.counters["ledger_violations"] == 0
    for rep in (reports["myopic_coop"], reports["myopic_nocoop"]):
        for slot in rep.slots:
            assert slot.cost <= scn.budget + 1e-6
    for d in proposed.decisions:
        assert d.slot >= 0
        if d.accepted:
            assert d.config is not None


def test_run_totals_fold_slot_values_left_to_right():
    """Run totals add the slot values from 0.0 strictly in slot order.
    Builtin sum() does the same through Python 3.11 but compensates its
    rounding from 3.12 on, so this can only fail on 3.12 and later."""
    assert ordered_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert ordered_sum([0.1] * 10) == 0.9999999999999999
    scn = load_scenario(DATA_DIR / "desk.json")
    wl = shared_workload(scn, horizon_coarse=12)
    for policy in POLICIES:
        rep = run_policy(policy, scn, wl, 12)
        for name in ("revenue", "cost"):
            total = 0.0
            for slot in rep.slots:
                total += getattr(slot, name)
            assert rep.totals[name] == total
            assert rep.summary()[f"total_{name}"] == total


def test_run_policy_threads_the_queue_between_slots():
    """Slot 0 decides under an empty queue and slot k under slot k-1's
    queue updated by that slot's cost; the queue trace lists them, and
    each slot's q_eff is its rule's weight of its queue."""
    scn = load_scenario(DATA_DIR / "desk.json")
    wl = shared_workload(scn, horizon_coarse=6)
    weights = {"proposed": lambda q: max(q, 1.0), "myopic_coop": lambda q: 0.0}
    traces = {}
    for policy, weight in weights.items():
        rep = run_policy(policy, scn, wl, 6)
        assert rep.slots[0].queue == 0.0
        for prev, slot in itertools.pairwise(rep.slots):
            assert slot.queue == update_virtual_queue(prev.queue, prev.cost,
                                                      scn.budget)
        assert rep.queue_trace == [s.queue for s in rep.slots]
        assert [s.q_eff for s in rep.slots] == [weight(s.queue)
                                                for s in rep.slots]
        traces[policy] = rep.queue_trace
    assert len(set(traces["proposed"])) > 2


def test_run_policy_rejects_unknown_policy():
    scn = load_scenario(DATA_DIR / "tiny.json")
    wl = shared_workload(scn, horizon_coarse=1)
    with pytest.raises(ValueError):
        run_policy("clairvoyant", scn, wl, 1)


def test_accounting_checker_flags_tampering():
    scn = load_scenario(DATA_DIR / "tiny.json")
    wl = shared_workload(scn, seed=3, horizon_coarse=2)
    rep = run_policy("proposed", scn, wl, 2)
    counters = {"accounting_violations": 0, "queue_replay_violations": 0}
    rep.slots[0].revenue += 1.0
    _check_accounting(rep.slots, rep.decisions, scn.budget, counters)
    assert counters["accounting_violations"] >= 1
    # the same from one revenue entry of the log
    rep.slots[0].revenue -= 1.0
    counters = dict.fromkeys(counters, 0)
    _check_accounting(rep.slots, rep.decisions, scn.budget, counters)
    assert counters["accounting_violations"] == 0
    log = rep.decisions
    log.revenue[log.reason.index(None)] += 1.0
    _check_accounting(rep.slots, log, scn.budget, counters)
    assert counters["accounting_violations"] == 1


def one_cloud_scenario(cache_all=True):
    catalog = DataCatalog({f"o{n:03d}": 1 for n in range(3)})
    return Scenario(
        name="solo",
        topology=Topology([[0.0]], [100.0]),
        vms=VMCatalog(recipes=[[10.0, 20.0, 30.0], [30.0, 20.0, 10.0]],
                      prices=[10.0, 20.0]),
        catalog=catalog,
        capacity={(0, r): 1e6 for r in range(3)},
        cache_size={0: 3.0 if cache_all else 0.0},
        fine_per_coarse=10,
        budget=1e6,
        v_weight=50.0,
    )


def test_single_ample_cloud_matches_myopic_revenue():
    """With one cloud, slack capacity and budget, and every public object
    cacheable, admission has nothing to trade off: both policies accept
    everything and revenue agrees exactly."""
    scn = one_cloud_scenario()
    wl = generate_workload(WorkloadConfig(seed=8, lambda_range=(0.0, 3.0),
                                          private_ratio=0.0), scn, 30)
    assert wl.requests
    proposed = run_policy("proposed", scn, wl, 3)
    myopic = run_policy("myopic_coop", scn, wl, 3)
    assert proposed.acceptance_rate == 1.0
    assert myopic.acceptance_rate == 1.0
    assert proposed.totals["revenue"] == myopic.totals["revenue"]


def test_zero_capacity_accepts_nothing():
    scn = load_scenario(DATA_DIR / "tiny.json")
    scn.capacity = {key: 0.0 for key in scn.capacity}
    wl = generate_workload(WorkloadConfig(seed=1, lambda_range=(1.0, 3.0)),
                           scn, 8)
    assert wl.requests
    for policy in POLICIES:
        rep = run_policy(policy, scn, wl, 2)
        assert rep.totals["accepted"] == 0
        assert rep.totals["revenue"] == 0.0
        assert rep.acceptance_rate == 0.0


def hand_workload(scn, requests):
    return Workload(requests=requests, catalog=scn.catalog,
                    config=WorkloadConfig(seed=0),
                    stream_hash="hand",
                    rows=pack_requests(requests,
                                       scn.catalog.public_objects(),
                                       scn.topology.n_clouds, scn.catalog))


def test_stream_replayed_on_another_system_raises():
    """A stream indexes its scenario's public objects and clouds, so a
    scenario with other objects or another cloud count is refused."""
    desk = load_scenario(DATA_DIR / "desk.json")
    wl = generate_workload(WorkloadConfig(seed=0), desk,
                           2 * desk.fine_per_coarse)
    publics = desk.catalog.public_objects()
    fewer = replace(desk, catalog=DataCatalog(
        {o: desk.catalog.sizes[o] for o in publics[:25]}))
    narrow = replace(desk, topology=Topology(
        [row[:3] for row in desk.topology.w[:3]], desk.topology.origin[:3]))
    for scn, match in ((fewer, "public object list"), (narrow, "5 clouds")):
        for policy in POLICIES:
            with pytest.raises(ValueError, match=match):
                run_policy(policy, scn, wl, 2)
        with pytest.raises(ValueError, match=match):
            oracle(scn, wl, 1, 0)
    run_policy("proposed", desk, wl, 2)


def test_workload_refuses_requests_out_of_arrival_order():
    scn = load_scenario(DATA_DIR / "tiny.json")
    reqs = [Request(0, 1, 1, 0, {0: (1, ())}), Request(1, 0, 1, 0, {0: (1, ())})]
    with pytest.raises(ValueError, match="arrival order"):
        hand_workload(scn, reqs)


def test_private_id_taken_by_a_public_object_raises():
    tiny = load_scenario(DATA_DIR / "tiny.json")
    scn = replace(tiny, catalog=DataCatalog({**tiny.catalog.sizes, "p0-0": 1}))
    assert "p0-0" in scn.catalog.public
    cfg = WorkloadConfig(seed=0, lambda_range=(5.0, 5.0), private_ratio=1.0)
    with pytest.raises(ValueError, match="duplicate object id 'p0-0'"):
        generate_workload(cfg, scn, 4)


def test_scenario_private_objects_stay_out_of_the_stream():
    """A private object added to a scenario catalog does not become public
    in, or join, the catalog of a stream drawn over it: the stream draws
    the same requests and holds the same public list as over the bare
    scenario."""
    cfg = WorkloadConfig(seed=0, lambda_range=(5.0, 5.0), private_ratio=1.0)
    bare = generate_workload(cfg, load_scenario(DATA_DIR / "tiny.json"), 8)
    scn = load_scenario(DATA_DIR / "tiny.json")
    publics = scn.catalog.public_objects()
    scn.catalog.add_many(["p0-0", "q0"], 1)
    wl = generate_workload(cfg, scn, 8)
    assert wl.catalog.public_objects() == publics == bare.catalog.public_objects()
    assert wl.rows.publics == tuple(publics)
    # the first request reads the private object the scenario also names
    [(_, objects)] = wl.requests[0].demand.values()
    assert objects[-1] == "p0-0"
    assert "q0" not in wl.catalog.sizes
    assert wl.catalog.sizes == bare.catalog.sizes
    assert wl.stream_hash == bare.stream_hash


def oracle(scn, wl, *args, **kwargs):
    return lookahead_oracle(_AdmissionRule(scn, None), wl, *args, **kwargs)


def test_lookahead_oracle_single_request():
    scn = load_scenario(DATA_DIR / "tiny.json")
    req = Request(0, 0, 2, 0, {0: (1, ("o000",))})
    wl = hand_workload(scn, [req])
    avg, combo = oracle(scn, wl, n_frame=1, frame_index=0)
    # caching o000 anywhere makes the bundle free, so it is accepted: L * p
    assert avg == 20.0
    assert combo is not None
    empty, combo = oracle(scn, wl, n_frame=1, frame_index=1)
    assert (empty, combo) == (0.0, None)


def test_lookahead_oracle_respects_budget():
    scn = load_scenario(DATA_DIR / "tiny.json")
    # close cloud 0 so the only feasible config pays private transport
    scn.capacity = dict(scn.capacity)
    for r in range(3):
        scn.capacity[(0, r)] = 0.0
    privates = [f"q{j}" for j in range(5)]
    scn.catalog.add_many(privates, 1)
    req = Request(0, 0, 1, 0, {0: (1, tuple(privates))})
    wl = hand_workload(scn, [req])
    avg, combo = oracle(scn, wl, n_frame=1, frame_index=0)
    # five private units over the inter-cloud link cost at least 100 > 60
    assert (avg, combo) == (0.0, None)
    scn.budget = 1000.0
    avg, combo = oracle(scn, wl, n_frame=1, frame_index=0)
    assert avg == 10.0


def test_lookahead_oracle_caps_frame_size(monkeypatch):
    scn = load_scenario(DATA_DIR / "tiny.json")
    reqs = [Request(n, 0, 1, 0, {0: (1, ())}) for n in range(5)]
    wl = hand_workload(scn, reqs)
    monkeypatch.setattr(simulator, "ORACLE_MAX_REQUESTS", 4)
    with pytest.raises(ValueError, match="5 requests, oracle cap is 4"):
        oracle(scn, wl, n_frame=1, frame_index=0)
    monkeypatch.setattr(simulator, "ORACLE_MAX_REQUESTS", 5)
    assert oracle(scn, wl, n_frame=1, frame_index=0)[0] > 0.0


def tiny_frames(capacity, budget):
    """(scenario, workload, frame) for denser tiny streams, on a tiny
    system with every capacity and the budget replaced; frames of more
    than 5 requests are left out to keep the reference oracle quick."""
    scn = load_scenario(DATA_DIR / "tiny.json")
    scn.capacity = {key: capacity for key in scn.capacity}
    scn.budget = budget
    frame_fine = 2 * scn.fine_per_coarse
    for seed in range(6):
        cfg = WorkloadConfig(seed=seed, lambda_range=(0.0, 1.0),
                             regime_length=4, objects_per_vm=(1, 2),
                             private_ratio=1.0)
        wl = generate_workload(cfg, scn, 3 * frame_fine)
        for frame in range(3):
            size = sum(frame * frame_fine <= r.arrival < (frame + 1) * frame_fine
                       for r in wl.requests)
            if size <= 5:
                yield scn, wl, frame


def test_lookahead_oracle_matches_reference():
    scn = load_scenario(DATA_DIR / "tiny.json")
    shared = _AdmissionRule(scn, None)   # one rule for every frame, as
    for _, wl in tiny_instances(20):     # the theorem1 suite shares it
        for frame in range(3):
            assert (lookahead_oracle(shared, wl, 2, frame)
                    == reference_lookahead_oracle(scn, wl, 2, frame))
    # where a constraint binds, relaxing it raises the reference value
    capacity_binds = budget_binds = 0
    for capacity in (30.0, 40.0):
        for budget in (20.0, 60.0):
            for scn, wl, frame in tiny_frames(capacity, budget):
                got = oracle(scn, wl, 2, frame)
                assert got == reference_lookahead_oracle(scn, wl, 2, frame)
                roomy = replace(scn, capacity=dict.fromkeys(scn.capacity, 1e9))
                rich = replace(scn, budget=1e9)
                capacity_binds += (
                    reference_lookahead_oracle(roomy, wl, 2, frame)[0] > got[0])
                budget_binds += (
                    reference_lookahead_oracle(rich, wl, 2, frame)[0] > got[0])
    assert capacity_binds >= 5
    assert budget_binds >= 5


def test_lookahead_oracle_places_each_slot_choice_once(monkeypatch):
    """Within a frame, the oracle prices each slot's set of accepted
    (request, config) pairs once, however many combinations share it."""
    placed = []
    aggregate = simulator.aggregate_demand

    def recording(accepted, catalog):
        placed.append(tuple((req.req_id, tuple(config.assignment.items()))
                            for req, config in accepted))
        return aggregate(accepted, catalog)

    monkeypatch.setattr(simulator, "aggregate_demand", recording)
    scn = load_scenario(DATA_DIR / "tiny.json")
    rule = _AdmissionRule(scn, None)
    searches = 0
    for _, wl in tiny_instances(20):
        for frame in range(3):
            placed.clear()
            lookahead_oracle(rule, wl, 2, frame)
            assert len(placed) == len(set(placed))
            searches += len(placed)
    assert searches > 0


def stub_report(revenue, horizon):
    return RunReport(policy="proposed", scenario_name="x", seed=0,
                     horizon_coarse=horizon, slots=[], decisions=[],
                     placements=[], queue_trace=[],
                     totals={"revenue": revenue, "cost": 0.0,
                             "arrivals": 0, "accepted": 0},
                     counters={}, stream_hash="", wallclock=0.0)


def test_theorem1_check_arithmetic():
    ok, lhs, rhs = theorem1_check(stub_report(40.0, 4), [12.0, 8.0],
                                  bound_b=100.0, n_frame=2, v_weight=100.0)
    assert lhs == 10.0
    assert rhs == pytest.approx((1.0 - 1.0 / math.e) * 8.0)
    assert ok
    ok, lhs, _ = theorem1_check(stub_report(2.0, 4), [12.0, 8.0],
                                bound_b=100.0, n_frame=2, v_weight=100.0)
    assert lhs == 0.5
    assert not ok
