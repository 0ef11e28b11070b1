"""Two-timescale control loop around the allocator and the placement engine.

A coarse slot spans a fixed number of fine slots.  At its start the virtual
queue absorbs the previous slot's transport spend relative to the budget;
during the slot every arriving request goes to the admission rule with the
queue weight that rule derives from the backlog; at its end the slot's
demand drives a placement refresh that takes effect for the next slot.
Every policy runs through this loop: policies differ only in the admission
rule and the placement callable they pass in.

The queue update max(Q + C - budget, 0) telescopes into the usual guarantee:
time-average cost can exceed the budget by at most Q(T)/T.
"""

from dataclasses import dataclass, field

from .model import fetch_latencies, transport_matrix
from .placement import aggregate_demand


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


@dataclass
class OrchestratorState:
    queue: float = 0.0
    slot_index: int = 0
    prev_cost: float = 0.0
    queue_trace: list = field(default_factory=list)


def run_coarse_slot(state, arrivals, allocator, place, placement, catalog,
                    scenario, window_hook=None):
    """Run one coarse slot end to end.

    arrivals: one list of requests per fine slot of this coarse slot.
    allocator: admission rule with queue_weight(queue),
        advance_fine_slot(t) and decide(req, table, q_eff) -> Decision,
        where table is the request's row of the slot's
        model.transport_matrix.
    place: callable(DemandMatrix) -> PlacementSolution for the next slot.
    window_hook: optional callable(fine slot, requests, tables, q_eff)
        invoked when each fine slot's pricing window closes.

    Returns (SlotReport, new placement, decisions, demand).
    """
    if state.slot_index > 0:
        state.queue = update_virtual_queue(state.queue, state.prev_cost,
                                           scenario.budget)
    q_eff = allocator.queue_weight(state.queue)
    fetch = fetch_latencies(placement, scenario.topology,
                            scenario.catalog.public_objects())
    # the placement is fixed for the slot, so every arrival's transport
    # costs are known now: one matrix prices them all
    tables = iter(transport_matrix([req for batch in arrivals for req in batch],
                                   fetch, scenario.topology, catalog))
    base = state.slot_index * scenario.fine_per_coarse
    revenue = 0.0
    cost = 0.0
    decisions = []
    accepted_pairs = []
    n_arrivals = 0
    for offset, batch in enumerate(arrivals):
        t = base + offset
        allocator.advance_fine_slot(t)
        batch_tables = [next(tables) for _ in batch]
        for req, table in zip(batch, batch_tables):
            n_arrivals += 1
            decision = allocator.decide(req, table, q_eff)
            decision.slot = state.slot_index
            decisions.append(decision)
            if decision.accepted:
                revenue += decision.revenue
                cost += decision.transport_cost
                accepted_pairs.append((req, decision.config))
        if window_hook is not None and batch:
            window_hook(t, list(batch), batch_tables, q_eff)

    demand = aggregate_demand(accepted_pairs, catalog, state.slot_index)
    solution = place(demand)

    report = SlotReport(
        slot=state.slot_index,
        revenue=revenue,
        cost=cost,
        queue=state.queue,
        q_eff=q_eff,
        arrivals=n_arrivals,
        accepted=len(accepted_pairs),
        dpp=drift_plus_penalty_value(scenario.v_weight, revenue, state.queue,
                                     cost, scenario.budget),
        placement_objective=solution.objective,
        placement_savings=solution.savings,
    )
    state.queue_trace.append(state.queue)
    state.prev_cost = cost
    state.slot_index += 1
    return report, solution.profile, decisions, demand
