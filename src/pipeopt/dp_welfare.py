"""Backward dynamic program shared by the welfare and maximin solvers.

`BackwardDP` is the engine.  A memo cell is (layer, remaining-budget grid
point, guessed distribution per tracked population), the guesses being
points of a simplex net.  Scanning a cell enumerates every (next budget,
next cell) guess, prices the connecting transition with a single-layer step,
and keeps the argmax; ties break toward the lowest budget index, then the
lowest cell index, so results are reproducible.  Only the step differs
between objectives: a subclass supplies the number of populations and two
hooks, `_price` (the step value, plus its matrix when pricing produces one)
and `_solve` (the step matrix).

Guessed continuation cells frequently share an identical value vector, in
which case the connecting step has an identical optimum; such guesses are
grouped and priced once.  The grouping changes nothing about which cell wins
(the group representative is the member the tie-break would select).

Welfare is the one-population case: a cell tracks one layer distribution and
the step is the exact welfare step.  Everything below layer 1 is independent
of the starting distribution, so one built WelfareDP serves many starting
distributions; the best-response loop of the randomized solver leans on
this.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import CapacityError
from .layerlp import WelfareStepSolver
from .model import (
    Instance,
    InterventionPlan,
    SolveReport,
    evaluate_population_rewards,
)
from .netgrid import build_budget_grid, build_simplex_net, simplex_grid_size

DEFAULT_CELLS_CAP = 10_000_000
_GROUP_DECIMALS = 12


def dp_cell_count(instance: Instance, epsilon: float, pops: int) -> int:
    """Predicted memo size of a DP tracking `pops` populations, without building."""
    grid_points = int(math.floor(instance.budget / epsilon + 1e-9)) + 1
    cells = 0
    for t in range(1, instance.depth - 1):
        d = instance.layer_sizes[t]
        units = 1 if d == 1 else int(math.ceil(2 * (d - 1) / epsilon - 1e-9))
        cells += simplex_grid_size(d, units) ** pops * grid_points
    return max(cells, grid_points)


class BackwardDP:
    """The backward sweep over (layer, budget, population tuple) cells.

    Subclasses set `pops` and `kind` before calling this constructor and
    implement `_price(t, key, r_out, a_in, budget) -> (value, matrix or
    None)` and `_solve(t, key, r_out, a_in, budget) -> matrix`.  `key`
    identifies the continuation ("terminal" or the representative cell) so
    step solvers may be cached on it; `a_in` is the (pops, s_t) stack of
    input distributions.
    """

    pops: int
    kind: str

    def __init__(self, instance: Instance, epsilon: float,
                 cells_cap: int = DEFAULT_CELLS_CAP):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.instance = instance
        self.epsilon = float(epsilon)
        self.grid = build_budget_grid(instance.budget, epsilon)
        predicted = dp_cell_count(instance, epsilon, self.pops)
        if predicted > cells_cap:
            raise CapacityError(
                f"{self.kind} DP would hold {predicted} cells (cap {cells_cap})"
            )
        nets_by_dim = {}
        self.nets = {}
        for t in range(1, instance.depth - 1):
            d = instance.layer_sizes[t]
            if d not in nets_by_dim:
                nets_by_dim[d] = build_simplex_net(d, epsilon)
            self.nets[t] = nets_by_dim[d]
        self.cells_built = 0
        self._rvec = {}     # layer -> (cells, s_t) continuation value vectors
        self._choice = {}   # layer -> (cells, 2) [next budget idx, next flat cell]
        self._groups = {}   # layer -> per budget idx: [(rep_cell, value vector)]
        self._build()

    # -- population tuples ---------------------------------------------------

    def _n_tuples(self, t: int) -> int:
        return len(self.nets[t]) ** self.pops

    def _digits(self, t: int, rank: int) -> list:
        """Net index per population; population 0 is the most significant."""
        n = len(self.nets[t])
        idx = []
        for _ in range(self.pops):
            idx.append(rank % n)
            rank //= n
        idx.reverse()
        return idx

    def _canonical_rank(self, t: int, rank: int) -> int:
        """Rank of the sorted version of the tuple.

        Permuting the populations permutes the step's worst-population terms
        without changing the feasible set or objective, so permuted tuples
        share one optimal value and may share one optimal matrix; solving
        only sorted tuples keeps results deterministic and halves (or better)
        the step count.
        """
        n = len(self.nets[t])
        out = 0
        for d in sorted(self._digits(t, rank)):
            out = out * n + d
        return out

    def _a_in(self, t: int, rank: int) -> np.ndarray:
        """Decode a tuple rank into the (pops, s_t) stacked distributions."""
        return self.nets[t].points[np.array(self._digits(t, rank))]

    # -- sweep -----------------------------------------------------------------

    def _continuation(self, t: int, cell: int):
        """(step key, value vector) of the continuation after layer t."""
        if t == self.instance.depth - 2:
            return "terminal", self.instance.rewards
        return cell, self._rvec[t + 1][cell]

    def _scan(self, t: int, a_in, bi: int):
        """Best (value, next budget idx, next cell, matrix or None) for a cell."""
        if t == self.instance.depth - 2:
            # Continuation is the identity with no budget reserved downstream,
            # so the whole remaining budget prices this transition.
            value, matrix = self._price(t, "terminal", self.instance.rewards,
                                        a_in, self.grid.value(bi))
            return value, 0, -1, matrix
        best = (-math.inf, -1, -1, None)
        for b_next in range(bi + 1):
            step_budget = self.grid.value(bi) - self.grid.value(b_next)
            for rep_cell, r_out in self._groups[t + 1][b_next]:
                value, matrix = self._price(t, rep_cell, r_out, a_in, step_budget)
                if value > best[0]:
                    best = (value, b_next, rep_cell, matrix)
        return best

    def _group_layer(self, t: int):
        """Group layer-t cells with identical value vectors, per budget index."""
        g = len(self.grid)
        rvec = self._rvec[t]
        keys = rvec.round(_GROUP_DECIMALS)
        per_budget = []
        for bi in range(g):
            seen, reps = set(), []
            for rank in range(self._n_tuples(t)):
                cell = rank * g + bi
                key = keys[cell].tobytes()
                if key not in seen:
                    seen.add(key)
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
            for rank in range(n_tuples):
                canon = self._canonical_rank(t, rank)
                if canon != rank:
                    src, dst = canon * g, rank * g
                    rvec[dst:dst + g] = rvec[src:src + g]
                    choice[dst:dst + g] = choice[src:src + g]
                    continue
                a_in = self._a_in(t, rank)
                for bi in range(g):
                    cell = rank * g + bi
                    _, b_next, next_cell, matrix = self._scan(t, a_in, bi)
                    key, r_out = self._continuation(t, next_cell)
                    if matrix is None:
                        matrix = self._solve(
                            t, key, r_out, a_in,
                            self.grid.value(bi) - self.grid.value(b_next))
                    rvec[cell] = r_out @ matrix
                    choice[cell] = (b_next, next_cell)
            self._rvec[t] = rvec
            self._choice[t] = choice
            self.cells_built += n_tuples * g
            self._group_layer(t)

    def _query(self, a_in) -> tuple:
        """(memo chain value, reconstructed plan) from first-layer inputs."""
        inst = self.instance
        g = len(self.grid)
        t, bi = 0, g - 1
        value, b_next, next_cell, matrix = self._scan(t, a_in, bi)
        mats, split = [], []
        while True:
            step_budget = self.grid.value(bi) - self.grid.value(b_next)
            if matrix is None:
                key, r_out = self._continuation(t, next_cell)
                matrix = self._solve(t, key, r_out, a_in, step_budget)
            mats.append(matrix)
            split.append(step_budget)
            if t == inst.depth - 2:
                break
            cell = next_cell
            t, bi = t + 1, b_next
            a_in = self._a_in(t, cell // g)
            b_next, next_cell = self._choice[t][cell]
            matrix = None
        plan = InterventionPlan(matrices=tuple(mats), budget_split=tuple(split))
        return float(value), plan

    def meta(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "budget_grid_points": len(self.grid),
            "budget_grid_top": self.grid.top,
            "net_sizes": {t: len(n) for t, n in self.nets.items()},
            "cells": self.cells_built,
        }


class WelfareDP(BackwardDP):
    """Memoized welfare solver; build once per (instance, epsilon), query many starts."""

    pops = 1
    kind = "welfare"

    def __init__(self, instance: Instance, epsilon: float,
                 cells_cap: int = DEFAULT_CELLS_CAP):
        self._solver_cache = {}
        super().__init__(instance, epsilon, cells_cap)

    def _solver_for(self, t: int, key, r_out) -> WelfareStepSolver:
        k = (t, key)
        s = self._solver_cache.get(k)
        if s is None:
            s = WelfareStepSolver(
                r_out,
                self.instance.initial_matrices[t],
                self.instance.malleable[t],
                self.instance.cost_model.layer_weights(t),
            )
            self._solver_cache[k] = s
        return s

    def _price(self, t, key, r_out, a_in, budget):
        # Value only: the scan never needs the losing matrices, and the
        # winner's is solved once by `_solve`.
        return self._solver_for(t, key, r_out).value(a_in[0], budget), None

    def _solve(self, t, key, r_out, a_in, budget):
        return self._solver_for(t, key, r_out).solve(a_in[0], budget).matrix

    def solve_for(self, d1) -> tuple:
        """(memo chain value, reconstructed plan) for a starting distribution.

        d1 is used exactly (it is never rounded to the net); zero entries are
        allowed here even though instances require strictly positive starts,
        because best-response queries feed arbitrary adversary distributions.
        """
        return self._query(np.asarray(d1, dtype=float)[None, :])


def solve_social_welfare(instance: Instance, epsilon: float,
                         cells_cap: int = DEFAULT_CELLS_CAP) -> tuple:
    """Approximately welfare-optimal intervention.

    Returns (SolveReport, InterventionPlan).  The reported objective is the
    plan's exactly re-evaluated welfare, never a memo value; the guarantee is
    objective >= OPT - 3*(depth-1)*epsilon*max(rewards).
    """
    t0 = time.perf_counter()
    dp = WelfareDP(instance, epsilon, cells_cap=cells_cap)
    _, plan = dp.solve_for(instance.initial_distribution)
    rewards = evaluate_population_rewards(instance, plan)
    report = SolveReport(
        objective_value=float(rewards @ instance.initial_distribution),
        per_population_rewards=rewards,
        budget_used=plan.total_cost(instance),
        solver_meta={**dp.meta(), "wall_ms": (time.perf_counter() - t0) * 1e3},
    )
    return report, plan
