"""Single-layer subproblems: the welfare step and the maximin step.

Both steps optimize one transition matrix while everything downstream is
frozen into a value vector `r_out` (the expected continuation reward of each
target node).  The welfare step maximizes r_out^T M d_in; the maximin step
maximizes the worst population's value.  Feasibility is a per-entry box, a
column-stochasticity equality, frozen non-malleable entries, and a budget on
the (possibly weighted) total mass moved.

The welfare step is solved by an exact greedy rather than a generic LP
solver, for unit and per-edge weighted costs alike.  Any feasible matrix
decomposes into donor->target mass moves inside columns, so the step is the
LP relaxation of a multiple-choice knapsack with one class per donor entry:
each donor's best gain for a given spend is the upper concave hull of its
(cost, gain) options, and filling the hull edges of all donors best rate
first is optimal.  With unit costs every option costs the same, so each
donor's hull is one edge to its column's best target.  `WelfareStepSolver`
builds every edge (a move segment) once, as one flat table sorted by column
and rate, and every reader walks that table: the scalar heap walk, the numpy
replay of it in `value_block`/`solve_block` (many (input, budget) pairs at
once, bitwise equal to the walk, which the welfare DP prices every step
with), and the two-population maximin step.  The scalar walk serves the
blocks of a single pair (a DP query's steps) and the tests, as the reference
the block forms are checked against.

The maximin step couples populations, and needs no LP either.  By the
minimax theorem its value is the smallest welfare-step value over mixtures
of the population inputs.  With two populations that minimum sits exactly at
a breakpoint of the greedy order, and the optimal matrix mixes the greedy
matrices on either side of it (`_two_population_step`).  With three or more
the step is a zero-sum game between the designer's greedy matrices and the
adversary's population mix, solved by `oracle.double_oracle` (Kelley's
cutting planes, in game form: `_game_step`).  Every step reports the exact
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

# `linprog` is not called here; the traced benchmark wraps it by this name.
from .oracle import double_oracle, linprog  # noqa: F401


@dataclass
class LayerStepResult:
    matrix: np.ndarray
    objective: float
    # How the step was priced: "initial" (nothing to move, m0 returned),
    # "greedy", "dual" (two-population minimax) or "game" (three or more).
    path: str


class WelfareStepSolver:
    """Reusable exact solver for max r_out^T M d_in over feasible M.

    Construction cost depends only on (r_out, m0, mask, weights); `solve`
    and `value` can then be called for many (d_in, budget) pairs, which is
    what the dynamic programs do, and `value_block`/`solve_block` answer a
    whole batch of pairs in one call.  All of them read one segment table,
    built here.

    Weighted costs (`weights`, the per-entry cost of a unit of change) give
    each donor one segment per edge of its (cost, gain) hull, built by
    `_hull_edges`; a donor may buy a cheap mediocre target first and
    re-route that mass to a dearer, better one as the budget grows.  Unit
    costs give one segment per donor, built in closed form.  Both tables are
    walked the same way.
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
            # Every option costs 2 per unit of mass, so each donor's hull is
            # one edge, to its column's best malleable target (the first of
            # tied ones); a lone malleable entry is that target itself.
            r = self.r_out
            best = np.argmax(np.where(self.mask, r[:, None], -np.inf), axis=0)
            gain = r[best] - r[:, None]
            donor, col = np.nonzero(self.mask & (gain > 0) & (self.m0 > 0))
            rate = gain[donor, col] / 2.0
            edge, source, recipient = np.zeros_like(donor), donor, best[col]
            dc = np.full(len(donor), 2.0)
        else:
            col, rate, donor, edge, source, recipient, dc = self._hull_edges()
        # Every move segment, sorted by (column, decreasing rate, donor, edge).
        # Scaling rates by d_in[u] keeps the order within a column, so one
        # table serves every input; a donor's edges have decreasing rates,
        # so they stay in hull order.
        order = np.lexsort((edge, donor, -rate, col))
        self._rate, self._col = rate[order], col[order]
        self._source, self._recipient, self._dc = source[order], recipient[order], dc[order]
        self._cap = self.m0[donor[order], self._col] * self._dc
        # Column u's segments are _start[u]:_start[u + 1]; a list, as the
        # heap walk reads it one offset at a time.
        offsets = np.searchsorted(self._col, np.arange(self.m0.shape[1] + 1))
        self._start = offsets.tolist()

    def _hull_edges(self):
        """Per-edge costs: the edges of each donor's upper (cost, gain) hull.

        Moving a unit of mass from donor (v, u) to a malleable target (k, u)
        costs w[v, u] + w[k, u] and gains r_out[k] - r_out[v].  The donor's
        best gain for a given spend is the upper concave hull of its gaining
        options, from the origin to the best gain; the step is the LP
        relaxation of a multiple-choice knapsack with one class per donor,
        which a greedy over these edges solves exactly (Sinha & Zoltners,
        1979).  Edge e re-routes the donor's mass from hull vertex e's
        target (the donor itself for e = 0) to vertex e + 1's.  Returns the
        per-edge arrays (column, rate, donor, edge, source, recipient,
        cost step).
        """
        r, w = self.r_out, self.weights
        edges = []
        for v, u in zip(*np.nonzero(self.mask & (self.m0 > 0))):
            options = [(w[v, u] + w[k, u], r[k] - r[v], k)
                       for k in np.flatnonzero(self.mask[:, u] & (r > r[v]))]
            hull, rates = [(0.0, 0.0, v)], []   # vertices (cost, gain, target)
            # By cost, then decreasing gain, then target: a point no better
            # than the last vertex is dominated.
            for c, g, k in sorted(options, key=lambda o: (o[0], -o[1])):
                if g <= hull[-1][1]:
                    continue
                # Drop vertices on or below the new chord; comparing the
                # stored rates keeps each donor's rates strictly decreasing.
                while rates and (g - hull[-1][1]) / (c - hull[-1][0]) >= rates[-1]:
                    hull.pop()
                    rates.pop()
                rates.append((g - hull[-1][1]) / (c - hull[-1][0]))
                hull.append((c, g, k))
            for e, rate in enumerate(rates):
                (c0, _, src), (c1, _, dst) = hull[e], hull[e + 1]
                edges.append((u, rate, v, e, src, dst, c1 - c0))
        table = np.array(edges, dtype=float).reshape(-1, 7)
        col, donor, edge, source, recipient = table[:, [0, 2, 3, 4, 5]].astype(np.intp).T
        return col, table[:, 1], donor, edge, source, recipient, table[:, 6]

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

        Bitwise equal to calling `value` per pair.  A single pair goes to
        `value`, as the heap walk is cheaper than the numpy one there.
        """
        D = np.atleast_2d(np.asarray(D, dtype=float))
        budgets = np.asarray(budgets, dtype=float)
        if not np.all(budgets >= 0):
            raise ValueError(f"budget must be non-negative, got {budgets.min()}")
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
        positive, as `_walk` yields it.  A single row goes to `solve`.
        """
        D = np.atleast_2d(np.asarray(D, dtype=float))
        budgets = np.asarray(budgets, dtype=float)
        if not np.all(budgets >= 0):
            raise ValueError(f"budget must be non-negative, got {budgets.min()}")
        if len(D) == 1:
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
            u, sv, rv = self._col[s], self._source[s], self._recipient[s]
            # The same mass as `solve`.
            mass = np.minimum(takes[hit, s] / self._dc[s], m[hit, sv, u])
            m[hit, sv, u] -= mass
            # The same cap at 1 as `solve`.
            m[hit, rv, u] = np.minimum(m[hit, rv, u] + mass, 1.0)
        return m

    def value(self, d_in, budget) -> float:
        """Optimal objective only; no matrix is materialized."""
        if not budget >= 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        d_in = np.asarray(d_in, dtype=float)
        obj = float(self.col_base @ d_in)
        for u, s, take in self._walk(d_in, budget):
            obj += self._rate[s] * d_in[u] * take
        return obj

    def solve(self, d_in, budget) -> LayerStepResult:
        d_in = np.asarray(d_in, dtype=float)
        if not budget >= 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        m = self.m0.copy()
        for u, s, take in self._walk(d_in, budget):
            source, recipient = self._source[s], self._recipient[s]
            # A unit of mass moved along segment s costs _dc[s].  A full
            # segment's take / _dc[s] can exceed the source's mass by an
            # ulp (never with unit costs, where _dc is 2).
            mass = min(take / self._dc[s], m[source, u])
            m[source, u] -= mass
            # Input columns may sum to 1 plus an ulp; moving a whole column
            # into one entry must not leave that entry above 1.
            m[recipient, u] = min(m[recipient, u] + mass, 1.0)
        obj = float(self.r_out @ m @ d_in)
        return LayerStepResult(matrix=m, objective=obj, path="greedy")


# Greedy-order crossings closer than this are one breakpoint.  Equal rates in
# different columns cross at points that differ only by rounding; a midpoint
# between two of them would sit on a tie and pick the wrong side.
_CROSSING_MERGE_TOL = 1e-12


def _two_population_step(solver, a_in, budget) -> LayerStepResult:
    """Exact maximin step for two populations, without an LP.

    The step value min_j r_out^T M a_j is bilinear in M and in the population
    weight lam, and both sets are convex and compact, so by the minimax
    theorem it equals the minimum over lam in [0, 1] of the welfare step
    W(lam) = max_M r_out^T M d(lam), d(lam) = lam a_1 + (1 - lam) a_2.  W is
    convex and piecewise linear: the greedy order, and with it the greedy
    matrix, changes only where two segments of different columns swap rank
    (a column's segments all scale with its input, whatever the cost
    model), so the minimum sits at 0, 1 or one of those crossings.  The greedy
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


def _game_step(solver, a_in, budget) -> LayerStepResult:
    """Exact maximin step for any number of populations, without an LP.

    The step is a zero-sum game between feasible matrices and population
    mixes mu, bilinear in the two; the greedy matrix at mu @ a_in is a best
    response to mu, so `double_oracle` over greedy matrices, started at the
    uniform mix, solves it.  The game's mix of its matrices is feasible, as
    the feasible set is convex, and attains the game's value.
    """
    r_out = solver.r_out
    mats = {}

    def respond(mu):
        m = solver.solve(mu @ a_in, budget).matrix
        key = m.tobytes()
        mats[key] = m
        row = (r_out @ m) @ a_in.T
        return key, row, float(row @ mu)

    key, row, _ = respond(np.full(len(a_in), 1.0 / len(a_in)))
    _, lam, _, keys, *_ = double_oracle(respond, {key: row},
                                        1e-12 * float(np.abs(r_out).max()))
    stack = np.array([mats[k] for k in keys])
    # Entries every matrix agrees on, the frozen ones among them, stay
    # bitwise; the mix would change them in the last bit.
    agree = (stack == stack[0]).all(axis=0)
    m = np.where(agree, stack[0], np.tensordot(lam, stack, axes=1))
    values = (r_out @ m) @ a_in.T
    return LayerStepResult(matrix=m, objective=float(values.min()), path="game")


def solve_maximin_step(solver, a_in, budget_step) -> LayerStepResult:
    """Maximize min_j r_out^T M a_in[j] over the feasible M of `solver`'s step.

    a_in is a (populations, source-layer-size) array of per-population input
    distributions.  One population is the welfare step; without budget, or
    without a column of >= 2 malleable entries, nothing can move and m0 is
    returned; otherwise two populations take `_two_population_step` and
    three or more `_game_step`.
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
    if budget_step > 0 and solver.can_move:
        step = _two_population_step if len(a_in) == 2 else _game_step
        return step(solver, a_in, budget_step)
    m = solver.m0.copy()
    values = (solver.r_out @ m) @ a_in.T
    return LayerStepResult(matrix=m, objective=float(values.min()), path="initial")
