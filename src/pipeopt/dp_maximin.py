"""Backward dynamic program for the deterministic (ex-post) maximin objective.

`MaximinDP` runs the shared engine `dp_welfare.BackwardDP` with one tracked
population per first-layer node: a cell guesses one distribution per
population (a tuple of simplex-net points), and the connecting transition is
priced by the maximin step that maximizes the worst population's value
(`solve_maximin_step`, given the engine's solver for the continuation: a
breakpoint search for two populations, a double oracle over greedy matrices
for three or more, with unit or weighted costs alike, and no LP).  At the
first layer the population tuple is exact: each population sits on its own
starting node.

The step is symmetric in the populations, so a cell tracks a multiset of
net points: C(n+p-1, p) multisets for an n-point net and p populations.
This is still exponential in the first-layer size by design; the cell cap
refuses instances whose memo would not fit, not ones that run long.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from .layerlp import solve_maximin_step
from .model import Instance, SolveReport, evaluate_population_rewards
# Not used here; the traced benchmark wraps these names on this module.
from .netgrid import build_budget_grid, build_simplex_net  # noqa: F401
from .dp_welfare import BackwardDP, DEFAULT_CELLS_CAP, solve_social_welfare


class MaximinDP(BackwardDP):
    """Memoized maximin solver: one tracked population per first-layer node."""

    kind = "maximin"

    def __init__(self, instance: Instance, epsilon: float,
                 cells_cap: int = DEFAULT_CELLS_CAP):
        self.pops = instance.layer_sizes[0]
        self.step_calls = Counter()  # LayerStepResult.path -> calls
        super().__init__(instance, epsilon, cells_cap)

    def _step(self, solver, a_in, budget: float):
        res = solve_maximin_step(solver, a_in, budget)
        self.step_calls[res.path] += 1
        return res

    def _price_block(self, solver, a_in, budgets):
        # Every step is a dual or game solve that makes its matrix anyway;
        # handing them all back means no cell is solved twice.
        steps = [[self._step(solver, a, float(b)) for a in a_in]
                 for b in budgets]
        return (np.array([[s.objective for s in row] for row in steps]),
                np.array([[s.matrix for s in row] for row in steps]))

    def _solve_block(self, solver, a_in, budgets):
        return np.array([self._step(solver, a, float(b)).matrix
                         for a, b in zip(a_in, budgets)])

    def solve(self) -> tuple:
        """(memo objective, plan) starting from the exact per-node tuple."""
        return self._query(np.eye(self.pops))

    def meta(self) -> dict:
        return {
            **super().meta(),
            "population_tuples": {t: len(self._table[t]) for t in self.nets},
            "step_calls": {"dual": 0, "game": 0, **self.step_calls},
        }


def solve_expost_maximin(instance: Instance, epsilon: float,
                         cells_cap: int = DEFAULT_CELLS_CAP) -> tuple:
    """Approximately maximin-optimal deterministic intervention.

    Returns (SolveReport, InterventionPlan); the reported objective is the
    plan's exactly re-evaluated worst-population reward, with guarantee
    objective >= OPT_MM - 3*(depth-1)*epsilon*max(rewards).  A single-node
    first layer reduces to welfare maximization and is delegated.
    """
    if instance.layer_sizes[0] == 1:
        report, plan = solve_social_welfare(instance, epsilon, cells_cap=cells_cap)
        report.objective_value = float(report.per_population_rewards.min())
        report.solver_meta["delegated"] = "single-population welfare"
        return report, plan
    t0 = time.perf_counter()
    dp = MaximinDP(instance, epsilon, cells_cap=cells_cap)
    _, plan = dp.solve()
    rewards = evaluate_population_rewards(instance, plan)
    report = SolveReport(
        objective_value=float(rewards.min()),
        per_population_rewards=rewards,
        budget_used=plan.total_cost(instance),
        solver_meta={**dp.meta(), "wall_ms": (time.perf_counter() - t0) * 1e3},
    )
    return report, plan
