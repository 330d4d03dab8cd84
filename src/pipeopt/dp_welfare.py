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

Each built layer becomes the continuation candidates (`Candidates`: next
budget index, next cell and value vector per candidate) of the layer above,
in scan order: next budget ascending, then table row ascending.  Continuation
cells that share an identical value vector have an identical connecting
step, so each such group enters once, through its first cell, and only the
groups' vectors are kept; the terminal layer's only candidate is `rewards`,
next cell -1, with no budget reserved downstream.  A cell's value is the best
step over the candidates at or below its budget index; ties break toward the
earlier candidate, so results are reproducible.  The memo stores the winning
candidate's index per cell.

There is one pricing path, `_price_layer`: consecutive candidates that share
their first priced budget index are priced against every (row, budget) cell
they can serve in `_price_block` calls of at most _BLOCK_ROWS rows and
_BLOCK_ROWS (candidate, row, budget) triples, or of one candidate when its
triples alone are more; within a block the first maximum wins, and a
per-cell running best changes only on a strict improvement.  The build prices
every table row at every budget index a candidate serves.  When pricing
hands back the winners' matrices, the build keeps them per layer;
otherwise it solves them with `_solve_block`, at most _BLOCK_ROWS cells a
call sorted by winner.  A query (`_query`, hence every best response of the
randomized solver) prices its one first-layer cell as a one-row layer at the
top budget index, so up to _BLOCK_ROWS of the first layer's candidates share
a block, then follows the memo's winners down, reading each step's matrix
from the kept ones or, when the build kept none, solving it with a one-cell
`_solve_block`.  So `_solve_block` is needed only by a DP whose pricing
makes no matrices.  Both DPs read one `SegmentTable` per layer over all its
candidates, built once.  WelfareDP's hooks are its
`value_block`/`solve_block`, a vectorized greedy that reproduces the scalar
one bitwise, for unit and weighted costs alike; its pricing makes values
only.  MaximinDP prices two populations with
`layerlp.two_population_block`, and three or more with one
`solve_maximin_step` per step on the table's `WelfareStepSolver` row of the
step's candidate; both hand back every step's matrix, so a maximin query
makes no step call below its first layer.

Welfare is the one-population case: a cell tracks one layer distribution and
the step is the exact welfare step.  Everything below layer 1 is independent
of the starting distribution, so one built WelfareDP serves many starting
distributions; the best-response loop of the randomized solver leans on
this.  `meta()["profile"]` counts, per built layer, the cells (summed in
`meta()["cells"]`), the continuation groups and the (cell, candidate) pairs
the build priced.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from .errors import CapacityError
from .layerlp import SegmentTable
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
# Most (candidate, row, budget) triples (pricing) or cells (solving) handed
# to one block call, beyond a single candidate's triples; bounds the working
# set when one candidate serves a whole layer.
_BLOCK_ROWS = 2048


class Candidates(NamedTuple):
    """One layer's continuation candidates, in scan order."""

    budget: np.ndarray  # (k,) next budget index
    cell: np.ndarray    # (k,) next cell, -1 for the terminal
    value: np.ndarray   # (k, s_{t+1}) continuation value vectors


def _first_max(values, mats):
    """The first maximum over a priced block's candidates (axis 2).

    Returns its (budget, row) candidate offsets (0 for a single candidate),
    values and matrices (None when `mats` is None).
    """
    if values.shape[2] == 1:  # argmax is slow over one candidate
        return 0, values[..., 0], None if mats is None else mats[:, :, 0]
    pick = values.argmax(axis=2)  # the first maximum
    top = np.take_along_axis(values, pick[..., None], axis=2)[..., 0]
    if mats is not None:
        mats = np.take_along_axis(mats, pick[..., None, None, None], axis=2)[:, :, 0]
    return pick, top, mats


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
    implement the two step hooks, which read layer t's steps from
    `_segments(t)`.  `_price_block(t, lo, hi, a_in, budgets)`
    prices layer t's candidates lo:hi against every row of the (rows, pops,
    s_t) stack `a_in`, candidate lo + c at budgets[b, c] (budgets is
    (nb, hi - lo)); it returns the (nb, rows, hi - lo) step values, plus the
    matching matrices or None when pricing makes none.  Only a subclass
    whose pricing makes none implements
    `_solve_block(t, which, a_in, budgets)`, the step matrices of paired
    cells, a_in[i] at budgets[i] against candidate which[i].
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
        self.profile = {}   # layer -> {cells, groups, priced_pairs} of the build
        self._choice = {}   # layer -> (cells,) winning candidate index
        # layer -> (g, rows, ...) winners' matrices, when pricing makes them.
        self._kept = {}
        # layer -> the candidates its cells scan.
        self._candidates = {instance.depth - 2: Candidates(
            np.zeros(1, dtype=np.intp), np.full(1, -1), instance.rewards[None])}
        self._steps = {}    # layer -> SegmentTable of all its candidates
        self._build()

    def _segments(self, t: int) -> SegmentTable:
        """Layer t's step segments against all its candidates, built once."""
        table = self._steps.get(t)
        if table is None:
            inst = self.instance
            table = self._steps[t] = SegmentTable(
                self._candidates[t].value, inst.initial_matrices[t],
                inst.malleable[t], inst.cost_model.layer_weights(t))
        return table

    # -- sweep -----------------------------------------------------------------

    def _group_layer(self, t: int, rvec):
        """Turn built layer t, its cells' (cells, s_t) value vectors rvec,
        into the candidates of layer t - 1.

        Per budget index, cells whose value vectors round to the same bytes
        form one group, represented by its first cell in table order.
        """
        g = len(self.grid)
        keys = rvec.round(_GROUP_DECIMALS).reshape(-1, g, rvec.shape[1])
        row_bytes = np.dtype((np.void, keys.itemsize * keys.shape[2]))
        cells = []
        for b_next in range(g):
            rows = np.ascontiguousarray(keys[:, b_next]).view(row_bytes).ravel()
            _, first = np.unique(rows, return_index=True)
            cells.append(np.sort(first) * g + b_next)
        cells = np.concatenate(cells)
        self._candidates[t - 1] = Candidates(cells % g, cells, rvec[cells])

    def _price_layer(self, t: int, a_in, lo: int = 0) -> tuple:
        """Best step over layer t's candidates for every (budget, row) cell.

        a_in is the (rows, pops, s_t) stack; only budget indices >= lo are
        priced.  Consecutive candidates that share their first priced budget
        index, max(next budget index, lo), are priced together, in block
        calls of at most _BLOCK_ROWS rows and _BLOCK_ROWS (candidate, row,
        budget) triples, or of one candidate.  Within a block
        the first maximum wins, and a per-cell running best is replaced only
        on a strict `>`, so ties go to the earlier candidate.  Returns
        (best, winner, kept, priced): the (g - lo, rows) values and winning
        candidate indices, the winners' matrices (None when pricing hands
        back none) and the number of pairs priced.
        """
        g = len(self.grid)
        n = len(a_in)
        best = np.full((g - lo, n), -np.inf)
        winner = np.zeros((g - lo, n), dtype=np.int64)
        kept = None
        priced = 0
        b_next = self._candidates[t].budget
        first = np.maximum(b_next, lo)
        bounds = [0, *(np.flatnonzero(np.diff(first)) + 1).tolist(), len(first)]
        for c0, c1 in zip(bounds, bounds[1:]):
            f = first[c0]
            per_block = max(1, _BLOCK_ROWS // (min(n, _BLOCK_ROWS) * (g - f)))
            for k0 in range(c0, c1, per_block):
                k1 = min(k0 + per_block, c1)
                budgets = self.grid[f:, None] - self.grid[b_next[k0:k1]]
                for j in range(0, n, _BLOCK_ROWS):
                    cols = slice(j, j + _BLOCK_ROWS)
                    values, mats = self._price_block(t, k0, k1, a_in[cols], budgets)
                    priced += values.size
                    pick, top, mats = _first_max(values, mats)
                    cur = best[f - lo:, cols]
                    better = top > cur
                    if not np.count_nonzero(better):  # cheaper than .any()
                        continue
                    # Masked copies, cheaper than boolean-indexed ones.
                    np.copyto(cur, top, where=better)
                    np.copyto(winner[f - lo:, cols], k0 + pick, where=better)
                    if mats is not None:
                        if kept is None:
                            kept = np.empty(best.shape + mats.shape[2:])
                        np.copyto(kept[f - lo:, cols], mats, where=better[..., None, None])
        return best, winner, kept, priced

    def _build(self):
        """Fill the memo one layer at a time with `_price_layer`.

        When pricing hands back the winners' matrices, each layer's are
        kept for queries; otherwise they are solved in blocks of at most
        _BLOCK_ROWS cells, sorted by winning candidate.
        """
        inst = self.instance
        g = len(self.grid)
        for t in range(inst.depth - 2, 0, -1):
            a_in = self.nets[t][self._table[t]]
            n = len(a_in)
            candidates = self._candidates[t]
            _, winner, kept, priced = self._price_layer(t, a_in)
            rvec = np.empty((n, g, inst.layer_sizes[t]))
            flat = winner.ravel()
            by_winner = np.argsort(flat, kind="stable")
            for lo in range(0, len(by_winner), _BLOCK_ROWS):
                cells = by_winner[lo:lo + _BLOCK_ROWS]
                bi, j = np.divmod(cells, n)
                which = flat[cells]
                if kept is not None:
                    mats = kept[bi, j]
                else:
                    mats = self._solve_block(
                        t, which, a_in[j],
                        self.grid[bi] - self.grid[candidates.budget[which]])
                # The stacked product reproduces `r_out @ m` per cell bitwise.
                rvec[j, bi] = (candidates.value[which][:, None, :] @ mats)[:, 0]
            self._choice[t] = winner.T.ravel()
            self._kept[t] = kept
            self._group_layer(t, rvec.reshape(n * g, -1))
            self.profile[t] = {
                "cells": n * g,
                "groups": len(self._candidates[t - 1].cell),
                "priced_pairs": priced,
            }

    def _query(self, a_in) -> tuple:
        """(memo chain value, reconstructed plan) from first-layer inputs.

        The first layer is priced as a one-row layer at the top budget
        index; deeper layers follow the memo's winners, whose matrices the
        build kept when pricing made them.
        """
        inst = self.instance
        g = len(self.grid)
        t, bi = 0, g - 1
        best, winner, kept, _ = self._price_layer(t, a_in[None], lo=bi)
        c, at = winner[0, 0], (0, 0)  # the cell in `kept`: the query's one row
        mats, split = [], []
        while True:
            candidates = self._candidates[t]
            b_next, next_cell = candidates.budget[c], candidates.cell[c]
            step_budget = float(self.grid[bi] - self.grid[b_next])
            if kept is None:
                matrix = self._solve_block(t, [c], a_in[None], np.array([step_budget]))[0]
            else:
                matrix = kept[at].copy()  # the plan must not alias the memo
            mats.append(matrix)
            split.append(step_budget)
            if t == inst.depth - 2:
                break
            t, bi = t + 1, b_next
            row = next_cell // g
            a_in = self.nets[t][self._table[t][row]]
            c, kept, at = self._choice[t][next_cell], self._kept[t], (bi, row)
        plan = InterventionPlan(matrices=tuple(mats), budget_split=tuple(split))
        return float(best[0, 0]), plan

    def meta(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "budget_grid_points": len(self.grid),
            "budget_grid_top": float(self.grid[-1]),
            "net_sizes": {t: len(n) for t, n in self.nets.items()},
            "cells": sum(p["cells"] for p in self.profile.values()),
            "profile": self.profile,
        }


class WelfareDP(BackwardDP):
    """Memoized welfare solver; build once per (instance, epsilon), query many starts."""

    pops = 1
    kind = "welfare"

    def _price_block(self, t, lo, hi, a_in, budgets):
        # Values only: the winners' matrices are solved once afterwards.
        return self._segments(t).value_block(a_in[:, 0], budgets, lo, hi), None

    def _solve_block(self, t, which, a_in, budgets):
        return self._segments(t).solve_block(which, a_in[:, 0], budgets)

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
