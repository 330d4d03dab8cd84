"""Backward dynamic program shared by the welfare and maximin solvers.

`BackwardDP` is the engine.  A memo cell is (layer, remaining-budget grid
point, guessed distribution per tracked population), the guesses being
points of a simplex net.  A cell's value is the best, over every (next
budget, next cell) guess, of the single-layer step that connects them; ties
break toward the lowest budget index, then the lowest cell index, so results
are reproducible.  Only the step differs between objectives: a subclass
supplies the number of populations and the step hooks.

Guessed continuation cells frequently share an identical value vector, in
which case the connecting step has an identical optimum; such guesses are
grouped and priced once.  The grouping changes nothing about which cell wins
(the group representative is the member the tie-break would select).

The build sweeps each layer candidate by candidate: a candidate is one
continuation (next budget, group representative), taken in the order a cell
scan visits them, and it is priced against every (tuple, budget) cell it can
serve in one `_price_block` call.  A per-cell running best that changes only
on a strict improvement picks the same winners as the per-cell scan; the
winners' matrices then come from `_solve_block` calls per candidate,
unless pricing already handed them back.  The default block hooks call the
scalar hooks `_price` (step value, plus its matrix when pricing produces
one) and `_solve` (step matrix) per cell; the maximin DP uses them.
WelfareDP overrides them with `WelfareStepSolver.value_block`/`solve_block`:
a vectorized greedy that reproduces the scalar one bitwise for unit costs,
and a loop over the LP for weighted costs, so the memo is the same as a
per-cell scan's.  Queries (`_query`, hence every best response of the randomized
solver) keep the scalar `_scan`: a query prices one cell, and batching the
first-layer candidates gave the randomized solver no speedup.

Welfare is the one-population case: a cell tracks one layer distribution and
the step is the exact welfare step.  Everything below layer 1 is independent
of the starting distribution, so one built WelfareDP serves many starting
distributions; the best-response loop of the randomized solver leans on
this.  `meta()["profile"]` counts, per built layer, the cells, the
continuation groups and the (cell, candidate) pairs the build priced.
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
# Most tuples (pricing) or cells (solving) handed to one block call; bounds
# the working set when one candidate serves a whole layer.
_BLOCK_ROWS = 2048


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
    input distributions.  They may override `_price_block`/`_solve_block`
    with a batched step that gives the same results.
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
        self.profile = {}   # layer -> {cells, groups, priced_pairs} of the build
        self._rvec = {}     # layer -> (cells, s_t) continuation value vectors
        self._choice = {}   # layer -> (cells, 2) [next budget idx, next flat cell]
        self._groups = {}   # layer -> per budget idx: [(rep_cell, value vector)]
        self._build()

    # -- population tuples ---------------------------------------------------

    def _n_tuples(self, t: int) -> int:
        return len(self.nets[t]) ** self.pops

    def _digits(self, t: int, ranks) -> np.ndarray:
        """Net index per population, (..., pops); population 0 is the most significant."""
        shape = (len(self.nets[t]),) * self.pops
        return np.stack(np.unravel_index(ranks, shape), axis=-1)

    def _canonical_ranks(self, t: int) -> np.ndarray:
        """Rank of the sorted version of every tuple, indexed by tuple rank.

        Permuting the populations permutes the step's worst-population terms
        without changing the feasible set or objective, so permuted tuples
        share one optimal value and may share one optimal matrix; solving
        only sorted tuples keeps results deterministic and halves (or better)
        the step count.
        """
        digits = np.sort(self._digits(t, np.arange(self._n_tuples(t))), axis=1)
        return np.ravel_multi_index(tuple(digits.T), (len(self.nets[t]),) * self.pops)

    def _a_in(self, t: int, ranks) -> np.ndarray:
        """Decode tuple ranks into (..., pops, s_t) stacked distributions."""
        return self.nets[t].points[self._digits(t, ranks)]

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

    def _candidates(self, t: int) -> list:
        """(next budget idx, step key, next cell, value vector) in scan order."""
        if t == self.instance.depth - 2:
            # One candidate: the rewards, with no budget reserved downstream.
            # pts[bi] - pts[0] == pts[bi], so it prices like `_scan` does.
            return [(0, "terminal", -1, self.instance.rewards)]
        return [(b_next, rep_cell, rep_cell, r_out)
                for b_next in range(len(self.grid))
                for rep_cell, r_out in self._groups[t + 1][b_next]]

    def _price_block(self, t, key, r_out, a_in, budgets):
        """Step values of one continuation for every (budget, tuple) pair.

        a_in is the (tuples, pops, s_t) stack; returns the (budgets, tuples)
        values and the matching matrices, or None when pricing makes none.
        This default calls `_price` per pair.
        """
        values = np.empty((len(budgets), len(a_in)))
        mats = None
        for b, budget in enumerate(budgets):
            for j, a in enumerate(a_in):
                values[b, j], m = self._price(t, key, r_out, a, float(budget))
                if m is not None:
                    if mats is None:
                        mats = np.empty(values.shape + m.shape)
                    mats[b, j] = m
        return values, mats

    def _solve_block(self, t, key, r_out, a_in, budgets):
        """Step matrices for paired rows: a_in[i] at budgets[i]."""
        return np.array([self._solve(t, key, r_out, a, float(b))
                         for a, b in zip(a_in, budgets)])

    def _build(self):
        """Fill the memo one layer at a time, one candidate at a time.

        A candidate (next budget, continuation group) is priced for every
        canonical tuple and every budget index it can serve, in block calls
        of at most _BLOCK_ROWS tuples.  A per-cell running best replaced
        only on a strict `>`, with candidates in scan order, picks exactly
        the winner `_scan` picks.  The winners' matrices are then solved in
        blocks of cells that share a winning candidate.
        """
        inst = self.instance
        g = len(self.grid)
        pts = self.grid.points
        for t in range(inst.depth - 2, 0, -1):
            n_tuples = self._n_tuples(t)
            canon_of = self._canonical_ranks(t)
            canon = np.flatnonzero(canon_of == np.arange(n_tuples))
            n = len(canon)
            a_in = self._a_in(t, canon)
            candidates = self._candidates(t)
            best = np.full((g, n), -np.inf)
            winner = np.zeros((g, n), dtype=np.int64)
            kept = None  # winners' matrices, when pricing hands them back
            priced = 0
            for c, (b_next, key, _, r_out) in enumerate(candidates):
                budgets = pts[b_next:] - pts[b_next]
                for lo in range(0, n, _BLOCK_ROWS):
                    cols = slice(lo, lo + _BLOCK_ROWS)
                    values, mats = self._price_block(t, key, r_out, a_in[cols],
                                                     budgets)
                    cur = best[b_next:, cols]
                    better = values > cur
                    cur[better] = values[better]
                    winner[b_next:, cols][better] = c
                    if mats is not None:
                        if kept is None:
                            kept = np.empty(best.shape + mats.shape[2:])
                        kept[b_next:, cols][better] = mats[better]
                    priced += values.size
            # Filled at the canonical tuples, then copied to permuted ones.
            rvec = np.empty((n_tuples, g, inst.layer_sizes[t]))
            choice = np.empty((n_tuples, g, 2), dtype=np.int64)
            # Cells grouped by winning candidate, in blocks of _BLOCK_ROWS.
            flat = winner.ravel()
            by_winner = np.argsort(flat, kind="stable")
            for lo in range(0, len(by_winner), _BLOCK_ROWS):
                cells = by_winner[lo:lo + _BLOCK_ROWS]
                bounds = np.flatnonzero(np.diff(flat[cells])) + 1
                for part in np.split(cells, bounds):
                    bi, j = np.divmod(part, n)
                    b_next, key, next_cell, r_out = candidates[flat[part[0]]]
                    if kept is not None:
                        mats = kept[bi, j]
                    else:
                        mats = self._solve_block(t, key, r_out, a_in[j],
                                                 pts[bi] - pts[b_next])
                    rvec[canon[j], bi] = r_out @ mats
                    choice[canon[j], bi] = (b_next, next_cell)
            permuted = np.flatnonzero(canon_of != np.arange(n_tuples))
            rvec[permuted] = rvec[canon_of[permuted]]
            choice[permuted] = choice[canon_of[permuted]]
            self._rvec[t] = rvec.reshape(n_tuples * g, -1)
            self._choice[t] = choice.reshape(n_tuples * g, 2)
            self.cells_built += n_tuples * g
            self._group_layer(t)
            self.profile[t] = {
                "cells": n_tuples * g,
                "groups": sum(len(reps) for reps in self._groups[t]),
                "priced_pairs": priced,
            }

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
            "profile": self.profile,
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

    def _price_block(self, t, key, r_out, a_in, budgets):
        solver = self._solver_for(t, key, r_out)
        return solver.value_block(a_in[:, 0], budgets), None

    def _solve_block(self, t, key, r_out, a_in, budgets):
        return self._solver_for(t, key, r_out).solve_block(a_in[:, 0], budgets)

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
