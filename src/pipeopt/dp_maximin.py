"""Backward dynamic program for the deterministic (ex-post) maximin objective.

Identical sweep structure to the welfare DP, but a cell tracks one guessed
distribution per starting population (a tuple of simplex-net points), and the
connecting transition is priced by the maximin step that maximizes the worst
population's value (`solve_maximin_step`: LP-free for two populations with
unit costs, an epigraph LP otherwise).  At the first layer the population
tuple is exact: each population sits on its own starting node.

The population tuple space is the net raised to the number of populations,
so this DP is exponential in the first-layer size by design; the cell cap
refuses instances outside the feasible envelope.
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np

from .errors import CapacityError
from .layerlp import solve_maximin_step
from .model import (
    Instance,
    InterventionPlan,
    SolveReport,
    evaluate_population_rewards,
)
from .netgrid import build_budget_grid, build_simplex_net, simplex_grid_size
from .dp_welfare import solve_social_welfare

DEFAULT_CELLS_CAP = 10_000_000
_GROUP_DECIMALS = 12


def maximin_dp_cell_count(instance: Instance, epsilon: float) -> int:
    grid_points = int(math.floor(instance.budget / epsilon + 1e-9)) + 1
    pops = instance.layer_sizes[0]
    cells = 0
    for t in range(1, instance.depth - 1):
        d = instance.layer_sizes[t]
        units = 1 if d == 1 else int(math.ceil(2 * (d - 1) / epsilon - 1e-9))
        cells += simplex_grid_size(d, units) ** pops * grid_points
    return max(cells, grid_points)


class MaximinDP:
    def __init__(self, instance: Instance, epsilon: float,
                 cells_cap: int = DEFAULT_CELLS_CAP,
                 net_cap: int = DEFAULT_CELLS_CAP):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.instance = instance
        self.epsilon = float(epsilon)
        self.pops = instance.layer_sizes[0]
        self.grid = build_budget_grid(instance.budget, epsilon)
        predicted = maximin_dp_cell_count(instance, epsilon)
        if predicted > cells_cap:
            raise CapacityError(
                f"maximin DP would hold {predicted} cells (cap {cells_cap})"
            )
        self._nets_by_dim = {}
        self.nets = {}
        for t in range(1, instance.depth - 1):
            d = instance.layer_sizes[t]
            if d not in self._nets_by_dim:
                self._nets_by_dim[d] = build_simplex_net(d, epsilon, cap=net_cap)
            self.nets[t] = self._nets_by_dim[d]
        self.cells_built = 0
        self.step_calls = Counter()  # LayerStepResult.path -> calls
        self._rvec = {}
        self._choice = {}
        self._groups = {}
        self._build()

    # -- population tuples ---------------------------------------------------

    def _tuple_digits(self, t: int, rank: int) -> list:
        n = len(self.nets[t])
        idx = []
        for _ in range(self.pops):
            idx.append(rank % n)
            rank //= n
        idx.reverse()  # most-significant component is population 0
        return idx

    def _canonical_rank(self, t: int, rank: int) -> int:
        """Rank of the sorted version of the tuple.

        Permuting the populations permutes the step's worst-population terms
        without changing the feasible set or objective, so permuted tuples
        share one optimal value and may share one optimal matrix; solving
        only sorted tuples keeps results deterministic and halves (or better)
        the step count.
        """
        digits = sorted(self._tuple_digits(t, rank))
        n = len(self.nets[t])
        out = 0
        for d in digits:
            out = out * n + d
        return out

    def _tuple_points(self, t: int, rank: int) -> np.ndarray:
        """Decode a tuple rank into the (pops, s_t) stacked distributions."""
        net = self.nets[t]
        return net.points[np.array(self._tuple_digits(t, rank))]

    def _a_in(self, t: int, rank: int) -> np.ndarray:
        if t == 0:
            return np.eye(self.instance.layer_sizes[0])
        return self._tuple_points(t, rank)

    def _n_tuples(self, t: int) -> int:
        return len(self.nets[t]) ** self.pops if t > 0 else 1

    # -- sweep -----------------------------------------------------------------

    def _step(self, t: int, r_out, a_in, budget: float):
        # The polish pass only reshuffles ties among optimal matrices; one
        # consistent choice everywhere keeps the memo and the reconstructed
        # plan aligned, so it stays off inside the DP.
        res = solve_maximin_step(
            r_out, a_in,
            self.instance.initial_matrices[t],
            self.instance.malleable[t],
            budget,
            self.instance.cost_model.layer_weights(t),
            polish=False,
        )
        self.step_calls[res.path] += 1
        return res

    def _scan(self, t: int, a_in, bi: int):
        inst = self.instance
        if t == inst.depth - 2:
            res = self._step(t, inst.rewards, a_in, self.grid.value(bi))
            return res.objective, 0, -1, res.matrix
        best = (-math.inf, -1, -1, None)
        for b_next in range(bi + 1):
            step_budget = self.grid.value(bi) - self.grid.value(b_next)
            for rep_cell, r_out in self._groups[t + 1][b_next]:
                res = self._step(t, r_out, a_in, step_budget)
                if res.objective > best[0]:
                    best = (res.objective, b_next, rep_cell, res.matrix)
        return best

    def _group_layer(self, t: int):
        g = len(self.grid)
        rvec = self._rvec[t]
        per_budget = []
        for bi in range(g):
            seen, reps = {}, []
            for ni in range(self._n_tuples(t)):
                cell = ni * g + bi
                key = rvec[cell].round(_GROUP_DECIMALS).tobytes()
                if key not in seen:
                    seen[key] = cell
                    reps.append((cell, rvec[cell]))
            per_budget.append(reps)
        self._groups[t] = per_budget

    def _build(self):
        inst = self.instance
        g = len(self.grid)
        for t in range(inst.depth - 2, 0, -1):
            n_tuples = self._n_tuples(t)
            rvec = np.empty((n_tuples * g, inst.layer_sizes[t]))
            choice = np.empty((n_tuples * g, 2), dtype=np.int64)
            for ni in range(n_tuples):
                canon = self._canonical_rank(t, ni)
                if canon != ni:
                    src = canon * g
                    dst = ni * g
                    rvec[dst:dst + g] = rvec[src:src + g]
                    choice[dst:dst + g] = choice[src:src + g]
                    continue
                a_in = self._a_in(t, ni)
                for bi in range(g):
                    cell = ni * g + bi
                    _, b_next, next_cell, matrix = self._scan(t, a_in, bi)
                    r_out = (inst.rewards if t == inst.depth - 2
                             else self._rvec[t + 1][next_cell])
                    rvec[cell] = r_out @ matrix
                    choice[cell] = (b_next, next_cell)
            self._rvec[t] = rvec
            self._choice[t] = choice
            self.cells_built += n_tuples * g
            self._group_layer(t)

    def solve(self) -> tuple:
        """(memo objective, plan) starting from the exact per-node tuple."""
        inst = self.instance
        top = len(self.grid) - 1
        value, b_next, next_cell, matrix = self._scan(0, self._a_in(0, 0), top)
        mats = [matrix]
        split = [self.grid.value(top) - self.grid.value(b_next)]
        t, bi = 0, top
        while t < inst.depth - 2:
            cell = next_cell
            rank = cell // len(self.grid)
            t, bi = t + 1, b_next
            b_next, next_cell = self._choice[t][cell]
            a_in = self._a_in(t, rank)
            r_out = (inst.rewards if t == inst.depth - 2
                     else self._rvec[t + 1][next_cell])
            res = self._step(t, r_out, a_in,
                             self.grid.value(bi) - self.grid.value(b_next))
            mats.append(res.matrix)
            split.append(self.grid.value(bi) - self.grid.value(b_next))
        plan = InterventionPlan(matrices=tuple(mats), budget_split=tuple(split))
        return float(value), plan

    def meta(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "budget_grid_points": len(self.grid),
            "budget_grid_top": self.grid.top,
            "net_sizes": {t: len(n) for t, n in self.nets.items()},
            "population_tuples": {t: self._n_tuples(t) for t in self.nets},
            "cells": self.cells_built,
            "step_calls": {"dual": 0, "lp": 0, **self.step_calls},
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
