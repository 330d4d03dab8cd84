"""Backward dynamic program shared by the welfare and maximin solvers.

`BackwardDP` is the engine.  A memo cell is (layer, remaining-budget grid
point, guessed distribution per tracked population), the guesses being
rows of a simplex net.  The budget grid (`self.grid`, ascending) and each
layer's net (`self.nets[t]`, one distribution per row) are plain arrays
from `netgrid`.  The step is symmetric in the populations, so a cell tracks
a multiset of net points: each layer's multiset table is
`netgrid.multisets(n, p)`, the sorted net-index rows in lexicographic order,
C(n+p-1, p) rows for an n-point net and p populations, from the enumerator
that also builds the nets.  Cell `row * g + budget index` pairs a row with
one of the g budget grid points.  Only the step differs between
objectives: a subclass supplies the number of populations and the step hooks.

Each built layer becomes one list of continuation candidates (next budget
index, next cell, value vector) for the layer above, in scan order: next
budget ascending, then table row ascending.  Continuation cells
that share an identical value vector have an identical connecting step, so
each such group enters the list once, through its first cell; the terminal
layer's list is the single candidate `rewards`, next cell -1, with no budget
reserved downstream.  Each (layer, next cell) gets one `WelfareStepSolver`,
built at its first step and handed to both hooks.  A cell's value is the
best step over the candidates at or below its budget index; ties break
toward the earlier candidate, so results are reproducible.  The memo stores
the winning candidate's index per cell.

There is one pricing path, `_price_layer`: a candidate is priced against
every (row, budget) cell it can serve in one `_price_block` call, and a
per-cell running best changes only on a strict improvement.  The build
prices every table row at every budget index, then solves the winners'
matrices with `_solve_block` per winning candidate, unless pricing already
handed them back.  A query (`_query`, hence every best response of the
randomized solver) prices its one first-layer cell as a one-row layer at
the top budget index, then follows the memo's winners down, solving each
step with a one-row `_solve_block`.  WelfareDP's hooks are the solver's
`value_block`/`solve_block`: a vectorized greedy that reproduces the scalar
one bitwise, for unit and weighted costs alike.  MaximinDP's hooks loop
over `solve_maximin_step` per pair.

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
from .netgrid import (budget_grid_size, build_budget_grid, build_simplex_net,
                      multisets, net_units, simplex_grid_size)

DEFAULT_CELLS_CAP = 10_000_000
_GROUP_DECIMALS = 12
# Most rows (pricing) or cells (solving) handed to one block call; bounds
# the working set when one candidate serves a whole layer.
_BLOCK_ROWS = 2048


def dp_cell_count(instance: Instance, epsilon: float, pops: int) -> int:
    """Predicted memo size of a DP tracking `pops` populations, without building."""
    grid_points = budget_grid_size(instance.budget, epsilon)
    cells = 0
    for t in range(1, instance.depth - 1):
        d = instance.layer_sizes[t]
        n = simplex_grid_size(d, net_units(d, epsilon))
        cells += math.comb(n + pops - 1, pops) * grid_points
    return max(cells, grid_points)


class BackwardDP:
    """The backward sweep over (layer, budget, population multiset) cells.

    Subclasses set `pops` and `kind` before calling this constructor and
    implement the two step hooks, which get the continuation's step solver
    from `_solver_for`.  `_price_block(solver, a_in, budgets)` returns the
    (budgets, rows) step values for every budget and every row of the
    (rows, pops, s_t) stack `a_in`, plus the matching matrices, or None
    when pricing makes none.  `_solve_block(solver, a_in, budgets)` returns
    the step matrices for paired rows, a_in[i] at budgets[i].
    """

    pops: int
    kind: str

    def __init__(self, instance: Instance, epsilon: float,
                 cells_cap: int = DEFAULT_CELLS_CAP):
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
        predicted = dp_cell_count(instance, epsilon, self.pops)
        if predicted > cells_cap:
            raise CapacityError(
                f"{self.kind} DP would hold {predicted} cells (cap {cells_cap})"
            )
        self.instance = instance
        self.epsilon = float(epsilon)
        self.grid = build_budget_grid(instance.budget, epsilon)
        nets_by_dim = {}
        self.nets = {}
        self._table = {}    # layer -> (rows, pops) multiset table
        for t in range(1, instance.depth - 1):
            d = instance.layer_sizes[t]
            if d not in nets_by_dim:
                net = build_simplex_net(d, epsilon)
                nets_by_dim[d] = net, multisets(len(net), self.pops)
            self.nets[t], self._table[t] = nets_by_dim[d]
        self.cells_built = 0
        self.profile = {}   # layer -> {cells, groups, priced_pairs} of the build
        self._rvec = {}     # layer -> (cells, s_t) continuation value vectors
        self._choice = {}   # layer -> (cells,) winning candidate index
        # layer -> candidates its cells scan:
        # [(next budget idx, next cell or -1 for the terminal, value vector)].
        self._candidates = {instance.depth - 2: [(0, -1, instance.rewards)]}
        self._solver_cache = {}  # (layer, next cell) -> WelfareStepSolver
        self._build()

    def _solver_for(self, t: int, next_cell: int, r_out) -> WelfareStepSolver:
        """The step solver of layer t against one continuation, built once."""
        solver = self._solver_cache.get((t, next_cell))
        if solver is None:
            inst = self.instance
            solver = self._solver_cache[t, next_cell] = WelfareStepSolver(
                r_out, inst.initial_matrices[t], inst.malleable[t],
                inst.cost_model.layer_weights(t))
        return solver

    # -- sweep -----------------------------------------------------------------

    def _group_layer(self, t: int):
        """Turn built layer t into the candidate list of layer t - 1.

        Per budget index, cells whose value vectors round to the same bytes
        form one group, represented by its first cell in table order.
        """
        g = len(self.grid)
        rvec = self._rvec[t]
        keys = rvec.round(_GROUP_DECIMALS).reshape(-1, g, rvec.shape[1])
        row_bytes = np.dtype((np.void, keys.itemsize * keys.shape[2]))
        candidates = []
        for b_next in range(g):
            rows = np.ascontiguousarray(keys[:, b_next]).view(row_bytes).ravel()
            _, first = np.unique(rows, return_index=True)
            for row in np.sort(first).tolist():
                cell = row * g + b_next
                candidates.append((b_next, cell, rvec[cell]))
        self._candidates[t - 1] = candidates

    def _price_layer(self, t: int, a_in, lo: int = 0) -> tuple:
        """Best step over layer t's candidates for every (budget, row) cell.

        a_in is the (rows, pops, s_t) stack; only budget indices >= lo are
        priced.  Each candidate is priced for every row and every budget
        index it can serve, in block calls of at most _BLOCK_ROWS rows, and
        a per-cell running best is replaced only on a strict `>`, so ties
        go to the earlier candidate.  Returns (best, winner, kept, priced):
        the (g - lo, rows) values and winning candidate indices, the
        winners' matrices (None when pricing hands back none) and the number
        of pairs priced.
        """
        g = len(self.grid)
        n = len(a_in)
        best = np.full((g - lo, n), -np.inf)
        winner = np.zeros((g - lo, n), dtype=np.int64)
        kept = None
        priced = 0
        for c, (b_next, next_cell, r_out) in enumerate(self._candidates[t]):
            solver = self._solver_for(t, next_cell, r_out)
            first = max(b_next, lo)
            budgets = self.grid[first:] - self.grid[b_next]
            for j in range(0, n, _BLOCK_ROWS):
                cols = slice(j, j + _BLOCK_ROWS)
                values, mats = self._price_block(solver, a_in[cols], budgets)
                priced += values.size
                cur = best[first - lo:, cols]
                better = values > cur
                if not np.count_nonzero(better):  # cheaper than .any()
                    continue
                cur[better] = values[better]
                winner[first - lo:, cols][better] = c
                if mats is not None:
                    if kept is None:
                        kept = np.empty(best.shape + mats.shape[2:])
                    kept[first - lo:, cols][better] = mats[better]
        return best, winner, kept, priced

    def _build(self):
        """Fill the memo one layer at a time with `_price_layer`.

        The winners' matrices, unless pricing kept them, are then solved in
        blocks of cells that share a winning candidate.
        """
        inst = self.instance
        g = len(self.grid)
        for t in range(inst.depth - 2, 0, -1):
            a_in = self.nets[t][self._table[t]]
            n = len(a_in)
            candidates = self._candidates[t]
            _, winner, kept, priced = self._price_layer(t, a_in)
            rvec = np.empty((n, g, inst.layer_sizes[t]))
            # Cells grouped by winning candidate, in blocks of _BLOCK_ROWS.
            flat = winner.ravel()
            by_winner = np.argsort(flat, kind="stable")
            for lo in range(0, len(by_winner), _BLOCK_ROWS):
                cells = by_winner[lo:lo + _BLOCK_ROWS]
                bounds = np.flatnonzero(np.diff(flat[cells])) + 1
                for part in np.split(cells, bounds):
                    bi, j = np.divmod(part, n)
                    b_next, next_cell, r_out = candidates[flat[part[0]]]
                    if kept is not None:
                        mats = kept[bi, j]
                    else:
                        mats = self._solve_block(
                            self._solver_for(t, next_cell, r_out), a_in[j],
                            self.grid[bi] - self.grid[b_next])
                    rvec[j, bi] = r_out @ mats
            self._rvec[t] = rvec.reshape(n * g, -1)
            self._choice[t] = winner.T.ravel()
            self.cells_built += n * g
            self._group_layer(t)
            self.profile[t] = {
                "cells": n * g,
                "groups": len(self._candidates[t - 1]),
                "priced_pairs": priced,
            }

    def _query(self, a_in) -> tuple:
        """(memo chain value, reconstructed plan) from first-layer inputs.

        The first layer is priced as a one-row layer at the top budget
        index; deeper layers follow the memo's winners.
        """
        inst = self.instance
        g = len(self.grid)
        t, bi = 0, g - 1
        best, winner, kept, _ = self._price_layer(t, a_in[None], lo=bi)
        c = winner[0, 0]
        matrix = None if kept is None else kept[0, 0]
        mats, split = [], []
        while True:
            b_next, next_cell, r_out = self._candidates[t][c]
            step_budget = float(self.grid[bi] - self.grid[b_next])
            if matrix is None:
                matrix = self._solve_block(self._solver_for(t, next_cell, r_out),
                                           a_in[None], np.array([step_budget]))[0]
            mats.append(matrix)
            split.append(step_budget)
            if t == inst.depth - 2:
                break
            t, bi = t + 1, b_next
            a_in = self.nets[t][self._table[t][next_cell // g]]
            c, matrix = self._choice[t][next_cell], None
        plan = InterventionPlan(matrices=tuple(mats), budget_split=tuple(split))
        return float(best[0, 0]), plan

    def meta(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "budget_grid_points": len(self.grid),
            "budget_grid_top": float(self.grid[-1]),
            "net_sizes": {t: len(n) for t, n in self.nets.items()},
            "cells": self.cells_built,
            "profile": self.profile,
        }


class WelfareDP(BackwardDP):
    """Memoized welfare solver; build once per (instance, epsilon), query many starts."""

    pops = 1
    kind = "welfare"

    def _price_block(self, solver, a_in, budgets):
        # Values only: the winners' matrices are solved once afterwards.
        return solver.value_block(a_in[:, 0], budgets), None

    def _solve_block(self, solver, a_in, budgets):
        return solver.solve_block(a_in[:, 0], budgets)

    def solve_for(self, d1) -> tuple:
        """(memo chain value, reconstructed plan) for a starting distribution.

        d1 is used exactly (it is never rounded to the net); zero entries are
        allowed here even though instances require strictly positive starts,
        because best-response queries feed arbitrary adversary distributions.
        d1 must be a finite, non-negative vector over the first layer.
        """
        d1 = np.asarray(d1, dtype=float)
        if (d1.shape != (self.instance.layer_sizes[0],)
                or not np.all(np.isfinite(d1)) or np.any(d1 < 0)):
            raise ValueError(
                f"d1 must be a finite, non-negative vector of length "
                f"{self.instance.layer_sizes[0]}, got {d1.tolist()}")
        return self._query(d1[None, :])


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
