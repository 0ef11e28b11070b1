"""Online primal-dual admission of VM-bundle requests.

Each fine slot runs a fresh packing problem: capacities are re-baselined to
the units still free, shadow prices (beta) restart at zero, and requests
arriving in the slot are priced one by one.  Accepting a bundle multiplies
the prices of the capacity it touches and adds a revenue-proportional bonus,
so heavily demanded slots price themselves out; a request is turned away
when its priced-out objective goes negative or any touched price exceeds 1.

Every decision also maintains a feasible dual solution (alpha per request,
beta per capacity triple).  On accept, the dual objective provably grows by
exactly e/(e-1) times the primal objective; the allocator checks that
identity on every acceptance and counts violations.

The myopic baselines admit through MyopicAllocator instead: the cheapest
bundle that fits, behind a hard per-coarse-slot transport budget.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import config_usage, enumerate_configs, ordered_sum

E_RATIO = math.e / (math.e - 1.0)
BONUS_SCALE = 1.0 / (math.e - 1.0)

REJECT_NEGATIVE = "negative_objective"
REJECT_CEILING = "price_ceiling"
REJECT_CAPACITY = "no_feasible_config"
REJECT_SLOT_BUDGET = "slot_budget"


class DualState:
    """Shadow prices for the current fine slot's packing problem.

    Prices and capacity baselines are kept as one row per (cloud, resource)
    the window has touched, indexed by offset from the arrival, which is
    the window start.  An entry no admission has priced yet reads 0.0.
    """

    def __init__(self):
        self.start = 0        # the window's fine slot: its requests' arrival
        self.beta = {}        # (cloud, resource) -> [price by offset]
        self.baseline = {}    # (cloud, resource) -> [capacity at window start by offset]
        self.priced = set()   # clouds holding a price row
        self.alpha = {}       # request id -> dual value of its admission constraint

    def advance(self, now):
        self.start = now
        self.beta.clear()
        self.baseline.clear()
        self.priced.clear()

    def rows(self, key, stop, ledger):
        """The price and baseline rows of one (cloud, resource), covering
        offsets 0..stop-1.  New baseline entries are read from the ledger
        now: every lease of the window touches its rows before it commits
        units, so they still hold what was free when the window started."""
        prices = self.beta.get(key)
        if prices is None:
            self.priced.add(key[0])
            prices = self.beta[key] = []
            self.baseline[key] = []
        caps = self.baseline[key]
        have = len(prices)
        if have < stop:
            prices += [0.0] * (stop - have)
            caps += ledger.free_row(key, self.start + have, self.start + stop)
        return prices, caps


class Shape(NamedTuple):
    """One config of a request shape, with everything about it that does not
    depend on the request's data, arrival or duration."""

    config: object
    usage: dict               # (cloud, resource) -> units, as config_usage builds it
    rows: list                # usage items sorted: charge and dual-update order
    dims: dict                # cloud -> resources the config prices there
    terms: tuple              # (type, cloud, count, unit-time price) per group
    clouds: list              # clouds the config uses, ascending
    revenue_rate: float       # revenue per fine slot held


@dataclass
class ScoredConfig:
    config: object
    objective: float          # L * adjusted revenue - shadow-price charge
    adjusted_revenue: float   # sum of the per-cloud values below
    per_cloud: dict           # cloud -> adjusted revenue earned there
    revenue: float            # realized revenue if accepted (price * count * L)
    transport_cost: float     # one-shot transport cost at current placement
    shape: Shape              # the config's usage rows, which admit prices


class Outcome(NamedTuple):
    """What a rule decided on one request: accepted if reason is None."""

    reason: str | None
    objective: float
    config: object = None
    revenue: float = 0.0
    transport_cost: float = 0.0
    primal_delta: float = 0.0
    dual_delta: float = 0.0


@dataclass
class Decision:
    """One row of a DecisionLog, built only while the row is read: a copy,
    so changing it leaves the log as it is."""

    req_id: int
    arrival: int
    duration: int
    verdict: str              # "accepted" | "rejected"
    reason: str | None
    config: object | None
    objective: float
    primal_delta: float
    dual_delta: float
    revenue: float
    transport_cost: float
    slot: int                 # coarse slot

    @property
    def accepted(self):
        return self.verdict == "accepted"


class DecisionLog:
    """A run's decisions as columns, one row per arrival in arrival order.
    A slot's rows open as negative-objective rejects with objective 0.0 and
    nothing earned; the rules overwrite the rows they decide.  A row is
    accepted when its reason is None; iterating yields it as a Decision."""

    COLUMNS = ("req_id", "slot", "arrival", "duration", "reason", "config",
               "objective", "revenue", "transport_cost", "primal_delta",
               "dual_delta")

    def __init__(self):
        for name in self.COLUMNS:
            setattr(self, name, [])

    def __len__(self):
        return len(self.req_id)

    def columns(self):
        return [getattr(self, name) for name in self.COLUMNS]

    def open(self, slot, requests):
        """Append one row per request of coarse slot `slot`."""
        n = len(requests)
        for column, values in zip(self.columns(), (
                [req.req_id for req in requests], [slot] * n,
                [req.arrival for req in requests],
                [req.duration for req in requests], [REJECT_NEGATIVE] * n,
                [None] * n, *[[0.0] * n] * 5)):
            column += values

    def settle(self, n, outcome):
        """Write an Outcome into row n."""
        (self.reason[n], self.objective[n], self.config[n], self.revenue[n],
         self.transport_cost[n], self.primal_delta[n],
         self.dual_delta[n]) = outcome

    def __iter__(self):
        for (req_id, slot, arrival, duration, reason, config, objective,
             revenue, cost, primal, dual) in zip(*self.columns()):
            yield Decision(req_id, arrival, duration,
                           "rejected" if reason else "accepted", reason,
                           config, objective, primal, dual, revenue, cost,
                           slot)


class ShapeScores(NamedTuple):
    """Score arrays of a slot's requests of one shape: row m is its m-th
    request, column c the c-th config.  The myopic rule fills spend only."""

    shapes: list
    spend: np.ndarray         # transport cost at the slot's placement
    values: np.ndarray        # duration * adjusted revenue
    adjusted: np.ndarray      # (request, config, cloud + 1): adjusted revenue
                              # earned at each cloud, then the total
    top: list                 # per request: its highest value


class _AdmissionRule:
    """Ledger and per-shape config cache shared by both admission rules.

    Admission rules rank a request's configs by the rule's score_matrix,
    the only valuation of a config.
    """

    def __init__(self, scenario, resources):
        self.scenario = scenario
        self.vms = scenario.vms
        self.topo = scenario.topology
        self.resources = resources
        self.counters = {}
        self._shape_cache = {}

    def _shapes_for(self, req):
        """The request's config Shapes in enumeration order, built once per
        Request.key(), which is all they depend on."""
        key = req.key()
        shapes = self._shape_cache.get(key)
        if shapes is None:
            shapes = []
            for config in enumerate_configs(req, self.topo):
                usage = config_usage(req, config, self.vms)
                dims = {}
                for (i, r) in usage:
                    dims[i] = dims.get(i, 0) + 1
                terms = tuple((k, i, req.demand[k][0], self.vms.prices[k])
                              for k, i in config.assignment.items())
                shapes.append(Shape(
                    config, usage, sorted(usage.items()), dims, terms,
                    sorted(set(config.assignment.values())),
                    ordered_sum(count * price for _, _, count, price in terms)))
            self._shape_cache[key] = shapes
        return shapes

    def score_matrix(self, requests, rows, costs, q_eff):
        """Each request's (ShapeScores, row) entry, from one array pass per
        request kind.  rows: the requests' model.PackedRows; costs: their
        model.transport_rows, one per (request, positive type group)."""
        # a stable sort keeps each kind's requests in slot order
        order = rows.kinds.argsort(kind="stable")
        kinds = rows.kinds[order]
        cuts = np.flatnonzero(kinds[1:] != kinds[:-1]) + 1
        bounds = sorted({0, *cuts.tolist(), len(order)})   # [0] if empty
        durations = np.array([req.duration for req in requests])
        groups = []
        group, row = np.empty((2, len(order)), dtype=np.intp)
        for lo, hi in zip(bounds, bounds[1:]):
            members = order[lo:hi]
            group[members] = len(groups)
            row[members] = np.arange(hi - lo)
            shapes = self._shapes_for(requests[members[0]])
            # clouds[c, j]: the cloud config c puts group j on
            clouds = np.array([[i for _, i, _, _ in shape.terms]
                               for shape in shapes])
            terms = shapes[0].terms
            units = [costs[rows.starts[members] + j] for j in range(len(terms))]
            # transport cost per (request, config), summed from 0.0 in term
            # order as a scalar loop would
            spend = np.zeros((len(members), len(shapes)))
            for j, ((_, _, count, _), unit) in enumerate(zip(terms, units)):
                spend += count * unit[:, clouds[:, j]]
            groups.append(ShapeScores(shapes, spend, *self._values(
                terms, clouds, units, durations[members], q_eff)))
        return list(zip(map(groups.__getitem__, group.tolist()), row.tolist()))

    def _values(self, terms, clouds, units, durations, q_eff):
        """The last three parts of ShapeScores; the myopic rule reads spend
        only."""
        return (None,) * 3

    def decide_window(self, requests, scores, log, first):
        """Decide one fine slot's arrivals in order, from their entries,
        into the log's rows first, first + 1, ..."""
        for n, req, entry in zip(itertools.count(first), requests, scores):
            log.settle(n, self.decide(req, entry))


class OnlineAllocator(_AdmissionRule):
    """Prices and admits requests against one ResourceState."""

    def __init__(self, scenario, resources):
        super().__init__(scenario, resources)
        self.dual = DualState()
        self.counters = {"identity_violations": 0, "scaling_warnings": 0,
                         "beta_clamped": 0}

    def queue_weight(self, queue):
        """Weight of transport cost in the score for a virtual queue length."""
        return max(queue, 1.0)

    def advance_fine_slot(self, now):
        """Expire leases, then restart prices against the units still free."""
        self.resources.advance(now)
        self.dual.advance(now)

    def _charge(self, req, rows):
        """Shadow-price charge of sorted usage rows over the request's span.

        Unpriced entries are skipped or read 0.0: either adds units * 0.0 =
        +0.0 or nothing, which leaves a sum started at 0.0 unchanged.
        """
        get = self.dual.beta.get
        duration = req.duration
        total = 0.0
        for key, units in rows:
            prices = get(key)
            if prices is not None:
                for price in prices[:duration]:
                    total += units * price
        return total

    def _values(self, terms, clouds, units, durations, q_eff):
        """values, adjusted and top of ShapeScores.  Each group's value,
        count * (v * price - q_eff * unit / duration), is added to its
        cloud's sum, which starts from 0.0; the total adds the per-cloud
        sums, clouds ascending, to 0.0, and the value is duration * total.
        A cloud the config does not use adds its untouched 0.0, which
        cannot change a sum that started from +0.0.  A negative top is
        exact; a zero one may not carry the first argmax's sign."""
        n = self.topo.n_clouds
        v = self.scenario.v_weight
        configs = np.arange(len(clouds))
        adjusted = np.zeros((len(durations), len(clouds), n + 1))
        for j, ((_, _, count, price), unit) in enumerate(zip(terms, units)):
            value = count * (v * price - q_eff * unit / durations[:, None])
            # one entry per config: no index repeats within the addition
            adjusted[:, configs, clouds[:, j]] += value[:, clouds[:, j]]
        total = adjusted[:, :, n]   # a view: the sums land in the last column
        for i in range(n):
            total += adjusted[:, :, i]
        values = durations[:, None] * total
        return values, adjusted, values.max(axis=1).tolist()

    def select_config(self, req, scores):
        """Highest priced-out objective across all configs; first wins ties.
        scores: the request's (ShapeScores, row) entry of score_matrix."""
        (shapes, spend, values, adjusted, _), m = scores
        priced = self.dual.priced
        # a config on clouds without a price row is charged 0.0, and
        # subtracting 0.0 leaves its score as it is
        objective = None
        for c, score in enumerate(values[m].tolist()):
            shape = shapes[c]
            if not priced.isdisjoint(shape.clouds):
                score -= self._charge(req, shape.rows)
            if objective is None or score > objective:
                objective, best = score, c
        shape = shapes[best]
        row = adjusted[m, best].tolist()
        return ScoredConfig(shape.config, objective, row[-1],
                            {i: row[i] for i in shape.clouds},
                            req.duration * shape.revenue_rate,
                            spend.item(m, best), shape)

    def admit(self, req, scored):
        """Apply the accept/reject rule to the chosen config and settle duals."""
        if scored.objective < 0.0:
            return self._reject(req, scored, REJECT_NEGATIVE)

        shape = scored.shape
        usage, dims = shape.usage, shape.dims
        dual = self.dual
        span = range(req.duration)
        windows = []
        for key, units in shape.rows:
            prices, caps = dual.rows(key, req.duration, self.resources)
            # a price past 1, or nothing free when the window's prices were
            # set, turns the request away
            for d in span:
                if prices[d] > 1.0 or caps[d] <= 0.0:
                    return self._reject(req, scored, REJECT_CEILING)
            windows.append((key[0], units, prices, caps))

        if self.scenario.hard_capacity_guard and not self.resources.fits(
                usage, req.arrival, req.arrival + req.duration):
            return self._reject(req, scored, REJECT_CAPACITY)

        # dims counts the resources per cloud this config prices; the bonus
        # is amortized over them so the dual increment telescopes exactly
        charge = 0.0
        bonus_total = 0.0
        for i, units, prices, caps in windows:
            share = scored.per_cloud.get(i, 0.0) / dims[i]
            for d in span:
                pre = prices[d]
                cap = caps[d]
                charge += units * pre
                bonus = BONUS_SCALE * share / cap
                post = pre * (1.0 + units / cap) + bonus
                if post < 0.0:
                    post = 0.0
                    self.counters["beta_clamped"] += 1
                prices[d] = post
                bonus_total += cap * bonus

        self.resources.lease(req.req_id, usage, req.arrival, req.arrival + req.duration)

        alpha = max(0.0, req.duration * scored.adjusted_revenue - charge)
        self.dual.alpha[req.req_id] = alpha
        primal_delta = req.duration * scored.adjusted_revenue
        dual_delta = alpha + charge + bonus_total

        expected = E_RATIO * primal_delta
        scale = max(abs(dual_delta), abs(expected), 1e-12)
        if abs(dual_delta - expected) > 1e-9 * scale:
            self.counters["identity_violations"] += 1
        self.counters["scaling_warnings"] += len(
            check_price_scaling(scored, usage, dims))

        return Outcome(None, scored.objective, scored.config, scored.revenue,
                       scored.transport_cost, primal_delta, dual_delta)

    def _reject(self, req, scored, reason):
        # keep the dual feasible for rejected requests too: their constraint
        # is covered by the best objective seen at decision time
        alpha = max(0.0, scored.objective)
        self.dual.alpha[req.req_id] = alpha
        return Outcome(reason, scored.objective, dual_delta=alpha)

    def decide(self, req, scores):
        return self.admit(req, self.select_config(req, scores))

    def decide_window(self, requests, scores, log, first):
        """Decide one fine slot's arrivals in order; a request arriving
        elsewhere than dual.start raises ValueError before any is decided.
        While nothing is priced, the arrivals before the first non-negative
        top, whose admission prices its rows, are negative-objective
        rejects with alpha 0.0, read from their tops and written in bulk;
        the rest go to decide."""
        dual = self.dual
        for req in requests:   # a plain loop: cheaper than any() per window
            if req.arrival != dual.start:
                raise ValueError(f"window {dual.start} takes only its arrivals")
        tops = []
        if not dual.priced:
            for group, m in scores:
                top = group.top[m]
                if top >= 0.0:
                    break
                tops.append(top)
        k = len(tops)
        if k:
            log.objective[first:first + k] = tops
            dual.alpha.update(dict.fromkeys(log.req_id[first:first + k], 0.0))
        if k < len(requests):
            super().decide_window(requests[k:], scores[k:], log, first + k)


class MyopicAllocator(_AdmissionRule):
    """Cheapest feasible bundle behind a hard per-coarse-slot budget.

    The myopic baselines read the transport budget as a per-slot cap: once
    a slot's spend would cross it, further requests are turned away.  They
    keep no prices and never weigh transport against the virtual queue.
    """

    def __init__(self, scenario, resources):
        super().__init__(scenario, resources)
        self.slot_spend = 0.0

    def queue_weight(self, queue):
        return 0.0

    def advance_fine_slot(self, now):
        """Expire leases; a new coarse slot starts with nothing spent."""
        self.resources.advance(now)
        if now % self.scenario.fine_per_coarse == 0:
            self.slot_spend = 0.0

    def decide(self, req, scores):
        group, m = scores
        spend = group.spend[m].tolist()
        expiry = req.arrival + req.duration
        # a stable sort: equal costs keep the enumeration order
        for c in sorted(range(len(spend)), key=spend.__getitem__):
            shape = group.shapes[c]
            if self.resources.fits(shape.usage, req.arrival, expiry):
                break
        else:
            return Outcome(REJECT_CAPACITY, 0.0)
        cost = spend[c]
        if self.slot_spend + cost > self.scenario.budget + 1e-9:
            return Outcome(REJECT_SLOT_BUDGET, -cost)
        self.resources.lease(req.req_id, shape.usage, req.arrival, expiry)
        self.slot_spend += cost
        return Outcome(None, -cost, shape.config,
                       req.duration * shape.revenue_rate, cost)


def dual_feasibility_violations(allocator, requests, scores):
    """Replay every config of the given requests against the current duals.

    Covered means alpha plus the config's charge at today's prices reaches
    its time-extended adjusted revenue, the config's entry in values of the
    request's ShapeScores; scores holds the requests' entries of
    score_matrix.  Prices only grow within a window and alpha is settled
    at decision time, so the count should be zero (to 1e-7).
    """
    bad = 0
    for req, (group, m) in zip(requests, scores):
        alpha = allocator.dual.alpha.get(req.req_id, 0.0)
        for shape, value in zip(group.shapes, group.values[m].tolist()):
            if alpha + allocator._charge(req, shape.rows) - value < -1e-7:
                bad += 1
    return bad


def check_price_scaling(scored, usage, dims):
    """Flag clouds whose adjusted revenue is too small for the price growth
    argument: below (priced dims) * (units used) on some resource there."""
    warnings = []
    for (i, r), units in usage.items():
        if scored.per_cloud.get(i, 0.0) < dims[i] * units - 1e-9:
            warnings.append((i, r, units))
    return warnings
