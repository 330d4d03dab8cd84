"""Single-layer subproblems: the welfare step and the maximin step.

Both steps optimize one transition matrix while everything downstream is
frozen into a value vector `r_out` (the expected continuation reward of each
target node).  The welfare step maximizes r_out^T M d_in; the maximin step
maximizes the worst population's value.  Feasibility is a per-entry box, a
column-stochasticity equality, frozen non-malleable entries, and a budget on
the (possibly weighted) total mass moved.

With unit costs the welfare step is solved by an exact greedy rather than
a generic LP solver: any feasible matrix decomposes into donor->recipient
mass moves inside columns, each unit of budget spent on a move has a fixed
gain rate, and donor capacities are independent, so filling the best rates
first is optimal (a fractional knapsack).  `WelfareStepSolver` builds every
move segment once, as one flat table sorted by column and rate, and every
reader walks that table: the scalar heap walk, the numpy replay of it in
`value_block`/`solve_block` (many (input, budget) pairs at once, bitwise
equal to the walk, which the welfare DP prices every step with), and the
two-population maximin step.  The scalar walk serves the blocks of a single
pair (a DP query's steps) and the tests, as the reference the block forms
are checked against.

The maximin step couples populations.  With two populations and unit costs
it needs no LP: by the minimax theorem its value is the smallest welfare-step
value over mixtures of the two population inputs, found exactly at a
breakpoint of the greedy order, and the optimal matrix mixes the greedy
matrices on either side of that breakpoint (`_two_population_step`).  With
three or more populations or weighted costs it solves one epigraph LP (HiGHS
via scipy), which also serves as the reference that tests check the LP-free
step against.  There is one LP assembler, `_epigraph_lp`: the weighted
welfare step is its one-population case.  Every step reports the exact
worst-population value of the matrix it returns.

Both dynamic programs build one solver per continuation (r_out and the
layer's m0, mask and weights) and price all its steps with it: the welfare
DP through the block forms, the maximin DP through `solve_maximin_step`.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

@dataclass
class LayerStepResult:
    matrix: np.ndarray
    objective: float
    # How the step was priced: "initial" (nothing to move, m0 returned),
    # "greedy", "dual" (two-population minimax) or "lp".
    path: str


class WelfareStepSolver:
    """Reusable exact solver for max r_out^T M d_in over feasible M.

    Construction cost depends only on (r_out, m0, mask, weights); `solve`
    and `value` can then be called for many (d_in, budget) pairs, which is
    what the dynamic programs do, and `value_block`/`solve_block` answer a
    whole batch of pairs in one call.  All of them read one segment table,
    built here.

    Unit costs admit the greedy: every unit of budget moves half a unit of
    mass, so gain per budget and gain per mass rank moves identically and
    each donor routes everything to the best malleable target.  Per-edge
    weights break that alignment (a donor may prefer a cheap mediocre target
    when budget binds but a pricey good one when supply binds), so the
    weighted variant goes through the one-population epigraph LP.
    """

    def __init__(self, r_out, m0, mask, weights=None):
        self.r_out = np.asarray(r_out, dtype=float)
        self.m0 = np.asarray(m0, dtype=float)
        self.mask = np.asarray(mask, dtype=bool)
        if self.m0.shape != self.mask.shape:
            raise ValueError("mask shape does not match matrix")
        if self.r_out.shape != (self.m0.shape[0],):
            raise ValueError("r_out length does not match target layer size")
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        if self.weights is not None and self.weights.shape != self.m0.shape:
            raise ValueError("weight shape does not match matrix")
        # Base column values r_out^T m0[:, u].
        self.col_base = self.r_out @ self.m0
        # Whether some column has >= 2 malleable entries, so mass can move.
        self.can_move = bool(self.mask.sum(axis=0).max() >= 2)
        if self.weights is None:
            # Every move segment, sorted by (column, decreasing rate, donor).
            # Scaling rates by d_in[u] keeps the order within a column, so one
            # table serves every input.  Each donor moves to its column's best
            # malleable target; a lone malleable entry is that target itself.
            r = self.r_out
            best = np.argmax(np.where(self.mask, r[:, None], -np.inf), axis=0)
            gain = r[best] - r[:, None]
            donor, col = np.nonzero(self.mask & (gain > 0) & (self.m0 > 0))
            rate = gain[donor, col] / 2.0
            order = np.lexsort((donor, -rate, col))
            self._rate, self._col, self._donor = rate[order], col[order], donor[order]
            self._cap = 2.0 * self.m0[self._donor, self._col]
            self._recipient = best[self._col]
            # Column u's segments are _start[u]:_start[u + 1]; a list, as
            # the heap walk reads it one offset at a time.
            offsets = np.searchsorted(self._col, np.arange(self.m0.shape[1] + 1))
            self._start = offsets.tolist()

    @functools.cached_property
    def _cross_pairs(self):
        """Segment pairs i < j in different columns: ranks that swap as inputs mix."""
        i, j = np.triu_indices(len(self._rate), k=1)
        cross = self._col[i] != self._col[j]
        return i[cross], j[cross]

    def _walk(self, d_in, budget):
        """Yield (column, segment index, budget_taken) in global greedy order."""
        if budget <= 0:
            return
        rate, cap, start = self._rate, self._cap, self._start
        heap = [(-rate[start[u]] * d_in[u], u, start[u]) for u in range(len(start) - 1)
                if start[u] < start[u + 1] and d_in[u] > 0]
        heapq.heapify(heap)
        remaining = budget
        while heap and remaining > 0:
            _, u, s = heapq.heappop(heap)
            take = min(cap[s], remaining)
            yield u, s, take
            remaining -= take
            if s + 1 < start[u + 1]:
                heapq.heappush(heap, (-rate[s + 1] * d_in[u], u, s + 1))

    def _block_walk(self, D, budgets):
        """Replay `_walk` for many inputs at once, one segment rank at a time.

        Yields (effective rate, segment index, take) per rank: the first two
        are (n,) arrays over the rows of D, which is (n, s); budgets
        broadcasts against (n,), and every take has the broadcast shape.
        Each row's segments are ranked by the heap's key (-rate * d[u], u,
        index): a stable sort of the negated effective rates over the table.
        A column with d[u] == 0 never enters the heap, so it gets zero
        capacity here.  Budget beyond the last segment, or after
        the budget is spent, is taken as 0, which adds exactly nothing; so
        per (input, budget) every sum and move happens in the order `_walk`
        yields it, with the same operands.
        """
        d = D[:, self._col]
        eff = self._rate * d
        order = np.argsort(-eff, axis=1, kind="stable")
        eff = np.take_along_axis(eff, order, axis=1)
        cap = np.take_along_axis(np.where(d > 0, self._cap, 0.0), order, axis=1)
        remaining = budgets + np.zeros(len(D))  # take shape
        for rank in range(len(self._rate)):
            if not remaining.any():
                return
            take = np.minimum(cap[:, rank], remaining)
            yield eff[:, rank], order[:, rank], take
            remaining -= take

    def value_block(self, D, budgets) -> np.ndarray:
        """`value` for every (budget, input) pair: a (len(budgets), len(D)) table.

        Bitwise equal to calling `value` per pair.  Weighted costs loop over
        `value`, which solves the LP; a single pair goes to `value` too, as
        the heap walk is cheaper than the numpy one there.
        """
        D = np.atleast_2d(np.asarray(D, dtype=float))
        budgets = np.asarray(budgets, dtype=float)
        if not np.all(budgets >= 0):
            raise ValueError(f"budget must be non-negative, got {budgets.min()}")
        if self.weights is not None:
            return np.array([[self.value(d, b) for d in D] for b in budgets])
        if D.shape[0] * budgets.size == 1:
            return np.array([[self.value(D[0], budgets[0])]])
        # The stacked product reproduces `col_base @ d` per row bitwise;
        # `D @ col_base` can differ in the last bit.
        start = (D[:, None, :] @ self.col_base[:, None])[:, 0, 0]
        values = np.repeat(start[None, :], len(budgets), axis=0)
        for eff, _, take in self._block_walk(D, budgets[:, None]):
            values += eff * take
        return values

    def solve_block(self, D, budgets) -> np.ndarray:
        """`solve(D[i], budgets[i]).matrix` for every row i, stacked (n, rows, cols).

        Bitwise equal to calling `solve` per row.  Moves touch only their own
        column, and `_walk` visits a column's segments in table order, so
        the moves are applied in table order, each only where its take is
        positive, as `_walk` yields it.  Weighted costs and a single row
        loop over `solve`.
        """
        D = np.atleast_2d(np.asarray(D, dtype=float))
        budgets = np.asarray(budgets, dtype=float)
        if not np.all(budgets >= 0):
            raise ValueError(f"budget must be non-negative, got {budgets.min()}")
        if self.weights is not None or len(D) == 1:
            return np.array([self.solve(d, b).matrix for d, b in zip(D, budgets)])
        m = np.repeat(self.m0[None], len(D), axis=0)
        takes = np.zeros((len(D), len(self._col)))
        rows = np.arange(len(D))
        for _, seg, take in self._block_walk(D, budgets):
            takes[rows, seg] = take
        for s in range(len(self._col)):
            hit = np.flatnonzero(takes[:, s] > 0)
            if not len(hit):
                continue
            mass = takes[hit, s] / 2.0
            u, dv, rv = self._col[s], self._donor[s], self._recipient[s]
            m[hit, dv, u] -= mass
            # The same cap at 1 as `solve`.
            m[hit, rv, u] = np.minimum(m[hit, rv, u] + mass, 1.0)
        return m

    def value(self, d_in, budget) -> float:
        """Optimal objective only; no matrix is materialized (unit costs)."""
        if not budget >= 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        d_in = np.asarray(d_in, dtype=float)
        if self.weights is not None:
            return self.solve(d_in, budget).objective
        obj = float(self.col_base @ d_in)
        for u, s, take in self._walk(d_in, budget):
            obj += self._rate[s] * d_in[u] * take
        return obj

    def solve(self, d_in, budget) -> LayerStepResult:
        d_in = np.asarray(d_in, dtype=float)
        if not budget >= 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        if self.weights is not None:
            return _epigraph_lp(self.r_out, d_in[None, :], self.m0, self.mask,
                                budget, self.weights)
        m = self.m0.copy()
        for u, s, take in self._walk(d_in, budget):
            mass = take / 2.0  # each unit of mass moved costs 2: out and in
            donor, recipient = self._donor[s], self._recipient[s]
            m[donor, u] -= mass
            # Input columns may sum to 1 plus an ulp; moving a whole column
            # into one entry must not leave that entry above 1.
            m[recipient, u] = min(m[recipient, u] + mass, 1.0)
        obj = float(self.r_out @ m @ d_in)
        return LayerStepResult(matrix=m, objective=obj, path="greedy")


def _repair_columns(m, m0, mask, weights, budget):
    """Restore exact stochasticity and budget feasibility after an LP solve.

    Free (malleable) entries are rescaled so each column sums to exactly 1;
    frozen entries are copied bitwise from m0.  If the rounded solution
    overspends, all deltas shrink toward m0 multiplicatively, which preserves
    stochasticity and the mask.
    """
    m = np.clip(m, 0.0, None)
    out = m0.copy()
    for u in range(m0.shape[1]):
        free = np.flatnonzero(mask[:, u])
        if len(free) <= 1:
            continue
        target = 1.0 - out[~mask[:, u], u].sum() if (~mask[:, u]).any() else 1.0
        s = m[free, u].sum()
        if s <= 0:
            out[free, u] = target / len(free)
        else:
            out[free, u] = m[free, u] * (target / s)
    diff = np.abs(out - m0)
    c = float(diff.sum() if weights is None else (weights * diff).sum())
    if c > budget and c > 0:
        out = m0 + (out - m0) * (budget / c)
    return out


# Greedy-order crossings closer than this are one breakpoint.  Equal rates in
# different columns cross at points that differ only by rounding; a midpoint
# between two of them would sit on a tie and pick the wrong side.
_CROSSING_MERGE_TOL = 1e-12


def _two_population_step(solver, a_in, budget) -> LayerStepResult:
    """Exact unit-cost maximin step for two populations, without an LP.

    The step value min_j r_out^T M a_j is bilinear in M and in the population
    weight lam, and both sets are convex and compact, so by the minimax
    theorem it equals the minimum over lam in [0, 1] of the welfare step
    W(lam) = max_M r_out^T M d(lam), d(lam) = lam a_1 + (1 - lam) a_2.  W is
    convex and piecewise linear: the greedy order, and with it the greedy
    matrix, changes only where two segments of different columns swap rank,
    so the minimum sits at 0, 1 or one of those crossings.  The greedy
    matrices of the pieces on either side of the minimizer are both optimal
    there, one favouring each population; their mix that equalizes the two
    population values attains the minimum, and it is feasible because the
    feasible set is convex.
    """
    r_out = solver.r_out
    a1, a2 = a_in
    rate, col = solver._rate, solver._col
    # Effective rate of segment s at lam: base[s] + lam * slope[s].
    base = rate * a2[col]
    slope = rate * (a1 - a2)[col]
    i, j = solver._cross_pairs
    cross = slope[i] != slope[j]
    i, j = i[cross], j[cross]
    # A subnormal input can put a crossing past the float range: inf, dropped.
    with np.errstate(over="ignore"):
        lams = (base[j] - base[i]) / (slope[i] - slope[j])
    lams = np.sort(lams[(lams > _CROSSING_MERGE_TOL)
                        & (lams < 1.0 - _CROSSING_MERGE_TOL)])
    points = [0.0]
    for lam in lams:
        if lam - points[-1] > _CROSSING_MERGE_TOL:
            points.append(float(lam))
    points.append(1.0)

    def mix(lam):
        return lam * a1 + (1.0 - lam) * a2

    k = int(np.array([solver.value(mix(lam), budget) for lam in points]).argmin())
    # Greedy matrix of each piece next to the minimizer, taken at its middle.
    pieces = points[max(k - 1, 0):k + 2]
    sides = [solver.solve(mix(0.5 * (lo + hi)), budget).matrix
             for lo, hi in zip(pieces, pieces[1:])]
    m = sides[0]
    if len(sides) == 2:
        left, right = sides
        # gap = value(population 1) - value(population 2): <= 0 on the left
        # piece and >= 0 on the right one, up to rounding.
        gap_l, gap_r = (float((r_out @ s) @ (a1 - a2)) for s in sides)
        theta = gap_r / (gap_r - gap_l) if gap_r > gap_l else 1.0
        theta = min(max(theta, 0.0), 1.0)
        # Entries both sides agree on, the frozen ones among them, stay
        # bitwise; the mix would change them in the last bit.
        m = np.where(left == right, left, theta * left + (1.0 - theta) * right)
    values = (r_out @ m) @ a_in.T
    return LayerStepResult(matrix=m, objective=float(values.min()), path="dual")


def solve_maximin_step(solver, a_in, budget_step) -> LayerStepResult:
    """Maximize min_j r_out^T M a_in[j] over the feasible M of `solver`'s step.

    a_in is a (populations, source-layer-size) array of per-population input
    distributions.  One population is the welfare step; two populations
    with unit costs take the LP-free `_two_population_step`; everything else
    is the epigraph LP.
    """
    a_in = np.asarray(a_in, dtype=float)
    # One pass over a_in: a NaN or an infinity anywhere makes the sum non-finite.
    if (a_in.shape[1:] != solver.m0.shape[1:] or not len(a_in)
            or not math.isfinite(a_in.sum())):
        raise ValueError(f"a_in must be a finite (populations, {solver.m0.shape[1]}) "
                         f"array, got {a_in.tolist()}")
    if not budget_step >= 0:
        raise ValueError(f"budget must be non-negative, got {budget_step}")
    if len(a_in) == 1:
        return solver.solve(a_in[0], budget_step)
    # Without budget, or without a column of >= 2 malleable entries, nothing
    # can move; the epigraph LP returns m0 for those steps unsolved.
    if (len(a_in) == 2 and solver.weights is None
            and budget_step > 0 and solver.can_move):
        return _two_population_step(solver, a_in, budget_step)
    return _epigraph_lp(solver.r_out, a_in, solver.m0, solver.mask, budget_step,
                        solver.weights)


def _epigraph_lp(r_out, a_in, m0, mask, budget, weights) -> LayerStepResult:
    """max v s.t. v <= r_out^T M a_in[j] for every population j, as an LP.

    Variables are the entries that can actually vary (malleable, in a column
    with >= 2 malleable entries), listed column by column, then their
    absolute changes, then v.  With one population this is the welfare step,
    which is how weighted costs solve it.  Steps with nothing to vary, or no
    budget, return m0 unsolved.
    """
    movable = np.flatnonzero(mask.sum(axis=0) >= 2)
    if budget == 0 or not len(movable):
        base_rewards = (r_out @ m0) @ a_in.T  # value per population if M = m0
        return LayerStepResult(matrix=m0.copy(), objective=float(base_rewards.min()),
                               path="initial")

    u_e, v_e = np.nonzero(mask[:, movable].T)
    u_e = movable[u_e]
    n, pops = len(v_e), a_in.shape[0]
    m0_e = m0[v_e, u_e]
    # frozen_j: contribution of all non-variable entries.
    frozen = m0.copy()
    frozen[v_e, u_e] = 0.0
    frozen_j = (r_out @ frozen) @ a_in.T

    # Rows: x_e - a_e <= m0_e and -x_e - a_e <= -m0_e per entry, interleaved;
    # the budget on sum w_e a_e; then v - sum_e r_out[v] a_in[j, u] x_e <= frozen_j.
    e = np.arange(n)
    a_ub = np.zeros((2 * n + 1 + pops, 2 * n + 1))
    a_ub[2 * e, e] = 1.0
    a_ub[2 * e + 1, e] = -1.0
    a_ub[2 * e, n + e] = -1.0
    a_ub[2 * e + 1, n + e] = -1.0
    a_ub[2 * n, n:2 * n] = 1.0 if weights is None else weights[v_e, u_e]
    a_ub[2 * n + 1:, :n] = -(r_out[v_e] * a_in[:, u_e])
    a_ub[2 * n + 1:, 2 * n] = 1.0
    b_ub = np.concatenate([np.column_stack([m0_e, -m0_e]).ravel(), [budget], frozen_j])
    # One column-sum row per movable column.  Each right-hand side sums that
    # column's frozen entries as a 1-D sum; a masked 2-D sum can round
    # differently and move the LP's optimum in the last bits.
    a_eq = np.zeros((len(movable), 2 * n + 1))
    a_eq[np.searchsorted(movable, u_e), e] = 1.0
    b_eq = np.array([1.0 - m0[~mask[:, u], u].sum() for u in movable])
    c = np.zeros(2 * n + 1)
    c[2 * n] = -1.0

    bounds = [(0.0, 1.0)] * n + [(0.0, 2.0)] * n + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"step LP failed: {res.message}")
    m = m0.copy()
    m[v_e, u_e] = res.x[:n]
    m = _repair_columns(m, m0, mask, weights, budget)
    # What the matrix attains; HiGHS's tolerance lets v overstate it by ~1e-7.
    return LayerStepResult(matrix=m, objective=float(((r_out @ m) @ a_in.T).min()),
                           path="lp")
