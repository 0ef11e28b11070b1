"""Two-timescale control loop around the allocator and the placement engine.

A coarse slot spans a fixed number of fine slots.  The caller carries the
virtual queue, which after each slot absorbs its transport spend relative
to the budget; during a slot every arriving request goes to the admission
rule with the queue weight that rule derives from the backlog; at its end
the slot's accepted requests drive a placement refresh for the next slot.
Every policy runs through this loop: policies differ only in the admission
rule and the placement callable they pass in.

The queue update max(Q + C - budget, 0) telescopes into the usual guarantee:
time-average cost can exceed the budget by at most Q(T)/T.
"""

import bisect
from dataclasses import dataclass

from .model import transport_rows


def update_virtual_queue(queue, cost, budget):
    """Backlog of transport spend beyond the long-run budget."""
    return max(queue + cost - budget, 0.0)


def drift_plus_penalty_value(v_weight, revenue, queue, cost, budget):
    """Per-slot value the control loop steers by: V*R(T) - Q(T)*(C(T) - budget)."""
    return v_weight * revenue - queue * (cost - budget)


@dataclass
class SlotReport:
    slot: int
    revenue: float
    cost: float
    queue: float              # queue length used while deciding this slot
    q_eff: float
    arrivals: int
    accepted: int
    dpp: float
    placement_objective: float
    placement_savings: float

    @property
    def acceptance(self):
        return self.accepted / self.arrivals if self.arrivals else 1.0


def run_coarse_slot(slot, queue, requests, rows, allocator, place,
                    placement, log, window_hook=None):
    """Run coarse slot `slot` end to end under virtual queue `queue`.

    requests: the slot's arrivals, in arrival order; each is decided in
        the fine slot of its arrival.
    rows: model.PackedRows of those requests, in the same order.
    allocator: admission rule over its scenario, with queue_weight(queue),
        advance_fine_slot(t), score_matrix(requests, rows, costs, q_eff),
        one (allocator.ShapeScores, row) entry per request from the slot's
        model.transport_rows, and decide_window(requests, scores, log,
        first), which decides one fine slot's arrivals into the log rows
        from `first` on.
    place: callable(accepted [(request, config)]) -> next PlacementSolution.
    log: the run's allocator.DecisionLog; the slot's rows are appended.
    window_hook: optional callable(fine slot, requests, scores) invoked
        when the pricing window of each fine slot with arrivals closes.

    Returns (SlotReport, new placement).
    """
    scenario = allocator.scenario
    base = slot * scenario.fine_per_coarse
    span = range(base, base + scenario.fine_per_coarse)
    arrivals = [req.arrival for req in requests]
    if arrivals != sorted(arrivals) or not all(t in span for t in arrivals):
        raise ValueError(f"coarse slot {slot} takes requests in "
                         f"arrival order from fine slots {base} to {span[-1]}")
    q_eff = allocator.queue_weight(queue)
    # the placement is fixed for the slot, so every arrival's transport
    # costs, and every config's price-free score, are known now; a slot
    # without arrivals needs neither
    scores = []
    if requests:
        costs = transport_rows(rows, placement, scenario.topology)
        scores = allocator.score_matrix(requests, rows, costs, q_eff)
    offset = len(log)
    log.open(slot, requests)
    first = 0
    for t in span:
        allocator.advance_fine_slot(t)
        stop = bisect.bisect_right(arrivals, t, first)
        if stop == first:
            continue
        allocator.decide_window(requests[first:stop], scores[first:stop],
                                log, offset + first)
        if window_hook is not None:
            window_hook(t, requests[first:stop], scores[first:stop])
        first = stop

    revenue = 0.0
    cost = 0.0
    accepted_pairs = []
    for n, reason in enumerate(log.reason[offset:], offset):
        if reason is None:
            revenue += log.revenue[n]
            cost += log.transport_cost[n]
            accepted_pairs.append((requests[n - offset], log.config[n]))

    solution = place(accepted_pairs)

    report = SlotReport(
        slot=slot,
        revenue=revenue,
        cost=cost,
        queue=queue,
        q_eff=q_eff,
        arrivals=len(requests),
        accepted=len(accepted_pairs),
        dpp=drift_plus_penalty_value(scenario.v_weight, revenue, queue, cost,
                                     scenario.budget),
        placement_objective=solution.objective,
        placement_savings=solution.savings,
    )
    return report, solution.profile
