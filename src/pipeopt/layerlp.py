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
donor's hull is one edge to its column's best target.  `SegmentTable` builds
every edge (a move segment) of a layer's step against k continuations once,
one row per continuation sorted by column and rate, and every reader walks
that table: `value_block`/`solve_block`, a numpy replay of the greedy for
many (continuation, input, budget) triples at once, which the welfare DP
prices and solves every step with (and `two_population_block` its side
matrices); and `WelfareStepSolver`, one row's scalar heap walk, which
solves a single cell and the game step's best responses, and which the
block forms equal bitwise.

The maximin step couples populations, and needs no LP either.  By the
minimax theorem its value is the smallest welfare-step value over mixtures
of the population inputs.  With two populations that minimum sits exactly at
a breakpoint of the greedy order, and the optimal matrix mixes the greedy
matrices on either side of it (`two_population_block`, which prices many
cells at once; `solve_maximin_step` prices one as a one-cell block).  With
three or more the step is a zero-sum game between the designer's greedy
matrices and the adversary's population mix, solved by
`oracle.double_oracle` (Kelley's cutting planes, in game form:
`_game_step`).  Every step reports the exact worst-population value of the
matrix it returns.

Both dynamic programs build one table per layer over all its continuations
(their r_out and the layer's m0, mask and weights): the welfare DP prices
through its block forms; the maximin DP prices two populations through
`two_population_block`, and three or more through `solve_maximin_step` with
the table's rows (`SegmentTable.row`).
"""

from __future__ import annotations

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


def _hull_edges(r, m0, mask, w):
    """Per-edge costs: the edges of each donor's upper (cost, gain) hull.

    Moving a unit of mass from donor (v, u) to a malleable target (k, u)
    costs w[v, u] + w[k, u] and gains r[k] - r[v].  The donor's best gain
    for a given spend is the upper concave hull of its gaining options, from
    the origin to the best gain; the step is the LP relaxation of a
    multiple-choice knapsack with one class per donor, which a greedy over
    these edges solves exactly (Sinha & Zoltners, 1979).  Edge e re-routes
    the donor's mass from hull vertex e's target (the donor itself for
    e = 0) to vertex e + 1's.  Returns the per-edge arrays (column, rate,
    donor, edge, source, recipient, cost step).
    """
    edges = []
    for v, u in zip(*np.nonzero(mask & (m0 > 0))):
        options = [(w[v, u] + w[k, u], r[k] - r[v], k)
                   for k in np.flatnonzero(mask[:, u] & (r > r[v]))]
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


def _ranked_walk(eff, cap, remaining):
    """Replay the greedy's heap walk for many rows at once, one rank at a time.

    eff and cap are (..., w) effective rates and capacities of each row's
    segments in table order; remaining is the budget, an array broadcast
    against eff[..., 0] that the walk spends in place.  Yields (effective
    rate, flat index of the segment in eff, take) per rank.  Each row's
    segments are ranked by the heap's key (-rate * d[u], u, index): a
    stable sort of the negated effective rates over the table.  Budget
    beyond the last segment, or after the budget is spent, is taken as 0,
    which adds exactly nothing; so per row and budget every sum and move
    happens in the order the heap walk yields it, with the same operands.
    """
    width = eff.shape[-1]
    if not width:
        return
    # Flat indices of each row's segments in rank order.
    order = np.argsort(-eff, axis=-1, kind="stable")
    order += np.arange(0, eff.size, width).reshape(order.shape[:-1] + (1,))
    eff, cap = eff.ravel()[order], cap.ravel()[order]
    for rank in range(width):
        if not remaining.any():
            return
        take = np.minimum(cap[..., rank], remaining)
        yield eff[..., rank], order[..., rank], take
        remaining -= take


def _check_budgets(budgets) -> np.ndarray:
    budgets = np.asarray(budgets, dtype=float)
    if not np.all(budgets >= 0):
        raise ValueError(f"budget must be non-negative, got {budgets.min()}")
    return budgets


class SegmentTable:
    """The welfare step's move segments for one layer against k continuations.

    Row c holds the segments of the step against continuation R[c] (for the
    layer's m0, mask and weights), sorted by (column, decreasing rate,
    donor, edge) and padded at the end with zero-rate, zero-capacity
    segments to the longest row; `count[c]` are real.  Scaling rates by
    d_in[u] keeps the order within a column, so one row serves every input;
    a donor's hull edges have decreasing rates, so they stay in hull order.
    Unit costs are built for all continuations in one pass, weighted costs
    by `_hull_edges` per continuation.
    """

    def __init__(self, R, m0, mask, weights=None):
        self.R = np.asarray(R, dtype=float)
        # C-ordered: `col_base` below and a copy of m0 must round alike.
        self.m0 = np.ascontiguousarray(m0, dtype=float)
        self.mask = np.asarray(mask, dtype=bool)
        if self.m0.shape != self.mask.shape:
            raise ValueError("mask shape does not match matrix")
        if self.R.ndim != 2 or self.R.shape[1] != self.m0.shape[0]:
            raise ValueError("r_out length does not match target layer size")
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        if self.weights is not None and self.weights.shape != self.m0.shape:
            raise ValueError("weight shape does not match matrix")
        k = len(self.R)
        # Whether some column has >= 2 malleable entries, so mass can move.
        self.can_move = bool(self.mask.sum(axis=0).max() >= 2)
        # Base column values R[c]^T m0[:, u]; the stacked product reproduces
        # `R[c] @ m0` per row bitwise, where `R @ m0` might not.
        self.col_base = (self.R[:, None, :] @ self.m0)[:, 0]
        if self.weights is None:
            # Each donor's hull is one edge, to its column's best malleable
            # target (the first of tied ones); a lone malleable entry is
            # that target itself.
            R = self.R[:, :, None]
            top = np.where(self.mask, R, -np.inf)
            best = top.argmax(axis=1)
            gain = top.max(axis=1)[:, None, :] - R
            cand, donor, col = np.nonzero((gain > 0) & self.mask & (self.m0 > 0))
            rate = gain[cand, donor, col] / 2.0
            edge, source, recipient = np.zeros_like(donor), donor, best[cand, col]
            dc = np.full(len(donor), 2.0)
        else:
            parts = [_hull_edges(r, self.m0, self.mask, self.weights) for r in self.R]
            cand = np.repeat(np.arange(k), [len(p[0]) for p in parts])
            col, rate, donor, edge, source, recipient, dc = (
                np.concatenate(a) for a in zip(*parts))
        order = np.lexsort((edge, donor, -rate, col, cand))
        fields = [a[order] for a in
                  (rate, dc, self.m0[donor, col] * dc, col, source, recipient)]
        cand = cand[order]
        self.count = np.bincount(cand, minlength=k)
        if k == 1:  # one row needs no padding
            fields = [a[None] for a in fields]
        else:
            # Pad every row to the longest with zeros: a zero-capacity
            # segment is never taken, so never moved.
            at = cand, np.arange(len(cand)) - (np.cumsum(self.count) - self.count)[cand]
            shape = k, int(self.count.max())
            padded = [np.zeros(shape, a.dtype) for a in fields]
            for out, a in zip(padded, fields):
                out[at] = a
            fields = padded
        self.rate, self.dc, self.cap, self.col, self.source, self.recipient = fields
        self._rows = {}  # continuation -> its WelfareStepSolver, see `row`

    def row(self, c: int) -> "WelfareStepSolver":
        """The scalar solver of continuation c, reading row c, made once."""
        solver = self._rows.get(c)
        if solver is None:
            solver = self._rows[c] = WelfareStepSolver.__new__(WelfareStepSolver)
            solver._read(self, c)
        return solver

    def value_block(self, D, budgets, lo=0, hi=None) -> np.ndarray:
        """Step values of continuations lo:hi for every budget and input.

        D is (n, s) inputs; budgets is (nb, hi - lo), or broadcasts to it.
        Returns the (nb, n, hi - lo) values, value[b, i, c] being
        `value(D[i], budgets[b, c])` against continuation lo + c, bitwise.
        """
        D = np.atleast_2d(np.asarray(D, dtype=float))
        budgets = _check_budgets(budgets)
        hi = len(self.R) if hi is None else hi
        rows = slice(lo, hi)
        # Padding past the block's longest row adds nothing.
        width = int(self.count[rows].max(initial=0))
        # The stacked product reproduces `col_base @ d` per pair bitwise.
        start = (D[:, None, None, :] @ self.col_base[rows, :, None])[..., 0, 0]
        values = np.repeat(start[None], len(budgets), axis=0)
        d = D[:, self.col[rows, :width]]  # (n, k, width)
        for step_eff, _, take in _ranked_walk(
                self.rate[rows, :width] * d, np.where(d > 0, self.cap[rows, :width], 0.0),
                budgets[:, None, :] + np.zeros(start.shape)):
            values += step_eff * take
        return values

    def solve_block(self, which, D, budgets) -> np.ndarray:
        """Greedy matrices of paired cells, stacked (n, rows, cols).

        Cell i is input D[i] at budgets[i] against continuation which[i].
        Moves touch only their own column, and the heap walk visits a
        column's segments in table order, so the moves are applied in table
        order, each only where its take is positive, as the walk yields it.
        Cells that all share one continuation read its row as is, with no
        per-cell gathers.
        """
        D = np.atleast_2d(np.asarray(D, dtype=float))
        budgets = _check_budgets(budgets)
        which = np.asarray(which, dtype=np.intp)
        if len(D) == 1:
            return self.row(which[0]).solve(D[0], budgets[0]).matrix[None]
        one = bool(which.min() == which.max())
        rows = which[:1] if one else which
        width = int(self.count[rows].max())
        rate, col, cap = (a[rows, :width] for a in (self.rate, self.col, self.cap))
        source, recipient, dc = (a[rows, :width] for a in
                                 (self.source, self.recipient, self.dc))
        d = D[:, col[0]] if one else np.take_along_axis(D, col, axis=1)
        m = np.repeat(self.m0[None], len(D), axis=0)
        takes = np.zeros((len(D), width))
        for _, at, take in _ranked_walk(rate * d, np.where(d > 0, cap, 0.0),
                                        budgets + np.zeros(len(D))):
            takes.flat[at] = take
        for s in range(width):
            hit = np.flatnonzero(takes[:, s] > 0)
            if not len(hit):
                continue
            at = (0 if one else hit), s
            u, sv, rv = col[at], source[at], recipient[at]
            # The same mass as `solve`.
            mass = np.minimum(takes[hit, s] / dc[at], m[hit, sv, u])
            m[hit, sv, u] -= mass
            # The same cap at 1 as `solve`.
            m[hit, rv, u] = np.minimum(m[hit, rv, u] + mass, 1.0)
        return m


class WelfareStepSolver:
    """Reusable exact solver for max r_out^T M d_in over feasible M.

    The one-continuation case of `SegmentTable`, or a view of one of its
    rows (`SegmentTable.row`): construction cost depends only on (r_out,
    m0, mask, weights), and `solve` and `value` can then be called for many
    (d_in, budget) pairs, which is what the game step does.  Both walk the
    row with a heap, one segment at a time: the scalar greedy (a one-cell
    `solve_block` is `solve`), which the block forms equal bitwise.
    """

    def __init__(self, r_out, m0, mask, weights=None):
        r_out = np.asarray(r_out, dtype=float)
        self._read(SegmentTable(r_out[None], m0, mask, weights), 0)

    def _read(self, table, c):
        self.r_out, self.m0, self.mask, self.weights = (
            table.R[c], table.m0, table.mask, table.weights)
        self.col_base = table.col_base[c]
        self.can_move = table.can_move
        n = table.count[c]
        self._rate, self._col, self._cap = (
            table.rate[c, :n], table.col[c, :n], table.cap[c, :n])
        self._source, self._recipient, self._dc = (
            table.source[c, :n], table.recipient[c, :n], table.dc[c, :n])
        # Column u's segments are _start[u]:_start[u + 1]; a list, as the
        # heap walk reads it one offset at a time.
        offsets = np.searchsorted(self._col, np.arange(self.m0.shape[1] + 1))
        self._start = offsets.tolist()

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


# Most (cell, point, segment) entries one `two_population_block` call's
# greedy replay may span; a larger block is priced in row chunks.
_PAIR_BLOCK_ENTRIES = 1 << 20


def _merged_crossings(table, lo, hi, a1, a2):
    """The breakpoints of W for every (row, candidate).

    The breakpoints are 0, each crossing in (0, 1) that lies more than
    _CROSSING_MERGE_TOL past the previous kept one, ascending, and 1.
    Returns the (n, hi - lo, P) points, padded with more 1s (which price
    exactly as the first), and the (n, hi - lo) number of real points.  A
    crossing is kept at once when it lies that far past the previous
    crossing; that agrees with the sequential rule unless a dropped crossing
    lies that far past the last kept one, which takes a chain of drops, and
    such rows are merged sequentially.
    """
    count = table.count[lo:hi]
    w = int(count.max(initial=0))
    rate, col = table.rate[lo:hi, :w], table.col[lo:hi, :w]
    # Effective rate of segment s at lam: base[s] + lam * slope[s].
    base, slope = rate * a2[:, col], rate * (a1 - a2)[:, col]
    i, j = np.triu_indices(w, k=1)
    den = slope[..., i] - slope[..., j]
    ok = (den != 0) & (col[:, i] != col[:, j]) & (j < count[:, None])
    # A subnormal input can put a crossing past the float range: inf, dropped.
    with np.errstate(over="ignore"):
        lams = (base[..., j] - base[..., i]) / np.where(ok, den, 1.0)
    ok &= (lams > _CROSSING_MERGE_TOL) & (lams < 1.0 - _CROSSING_MERGE_TOL)
    # Dropped pairs sort last, as 2.
    lams = np.sort(np.where(ok, lams, 2.0), axis=-1)
    real = lams < 2.0
    kept = real.copy()
    kept[..., 1:] &= lams[..., 1:] - lams[..., :-1] > _CROSSING_MERGE_TOL
    dropped = real & ~kept
    if (dropped[..., 1:] & dropped[..., :-1]).any():
        # Measure each drop from the last kept crossing before it.
        last = np.maximum.accumulate(np.where(kept, np.arange(lams.shape[-1]), 0), axis=-1)
        far = dropped & (lams - np.take_along_axis(lams, last, -1) > _CROSSING_MERGE_TOL)
        for r, c in zip(*np.nonzero(far.any(axis=-1))):
            point = 0.0
            for e in np.flatnonzero(real[r, c]):
                kept[r, c, e] = lams[r, c, e] - point > _CROSSING_MERGE_TOL
                if kept[r, c, e]:
                    point = lams[r, c, e]
    inner = kept.sum(axis=-1)
    points = np.ones(kept.shape[:-1] + (int(inner.max(initial=0)) + 2,))
    points[..., 0] = 0.0
    inner_points = np.sort(np.where(kept, lams, 1.0), axis=-1)
    points[..., 1:-1] = inner_points[..., :points.shape[-1] - 2]
    return points, inner + 2


def _worst_values(rm, a_in):
    """min_j rm @ a_in[j] per cell, as `(r_out @ m) @ a_in.T` computes it."""
    return (rm[..., None, :] @ np.swapaxes(a_in, -1, -2))[..., 0, :].min(axis=-1)


def two_population_block(table, lo, hi, a_in, budgets) -> tuple:
    """The exact maximin step of two populations for many cells, without an LP.

    The step value min_j r_out^T M a_j is bilinear in M and in the population
    weight lam, and both sets are convex and compact, so by the minimax
    theorem it equals the minimum over lam in [0, 1] of the welfare step
    W(lam) = max_M r_out^T M d(lam), d(lam) = lam a_1 + (1 - lam) a_2.  W is
    convex and piecewise linear: the greedy order, and with it the greedy
    matrix, changes only where two segments of different columns swap rank
    (a column's segments all scale with its input, whatever the cost
    model), so the minimum sits at 0, 1 or one of those crossings.  The
    greedy matrices of the pieces on either side of the minimizer are both
    optimal there, one favouring each population; their mix that equalizes
    the two population values attains the minimum, and it is feasible
    because the feasible set is convex.

    Prices candidates lo:hi of the `SegmentTable` against every row of the
    (n, 2, s) stack a_in, candidate lo + c at budgets[b, c] (budgets is
    (nb, hi - lo)): W at every breakpoint in one greedy replay, the first
    minimum, the greedy matrices of the pieces on both sides of it (taken
    at their middles) in one `SegmentTable.solve_block` call (at either end
    of [0, 1] the one piece there is, the other side being solved and
    dropped), then the equalizing mix.  Returns the (nb, n, hi - lo)
    values, each the exact worst-population value of its matrix, the
    matching (nb, n, hi - lo, rows, s) matrices, and the (nb, 1, hi - lo)
    mask of the cells on the dual path; the others (no budget, or nothing
    movable) keep m0.
    """
    # Contiguous, as the DP's stacks are: BLAS may sum a strided pair in
    # another order.
    a_in = np.ascontiguousarray(a_in, dtype=float)
    s = table.m0.shape[1]
    if a_in.ndim != 3 or a_in.shape[1:] != (2, s) or not math.isfinite(a_in.sum()):
        raise ValueError(f"a_in must be a finite (rows, 2, {s}) array, "
                         f"got shape {a_in.shape}")
    budgets = _check_budgets(budgets)
    n, k, nb = len(a_in), hi - lo, len(budgets)
    w = int(table.count[lo:hi].max(initial=0))
    # A row holds at most w (w - 1) / 2 crossings, so this many rows keep
    # the replay within _PAIR_BLOCK_ENTRIES (cell, point, segment) entries.
    step = max(1, _PAIR_BLOCK_ENTRIES // (nb * k * max(w, 1) * (w * (w - 1) // 2 + 2)))
    if n > step:
        parts = [two_population_block(table, lo, hi, a_in[r:r + step], budgets)
                 for r in range(0, n, step)]
        return (np.concatenate([v for v, _, _ in parts], axis=1),
                np.concatenate([m for _, m, _ in parts], axis=1), parts[0][2])
    R = table.R[lo:hi]
    dual = ((budgets > 0) & table.can_move)[:, None, :]
    a1, a2 = a_in[:, 0], a_in[:, 1]
    points, npoints = _merged_crossings(table, lo, hi, a1, a2)
    # W at every point and budget: the replay of `SegmentTable.value_block`.
    lam = points[..., None]
    mu = 1.0 - lam
    # The stacked product reproduces `col_base @ d` per point bitwise.
    W = ((lam * a1[:, None, None] + mu * a2[:, None, None])[..., None, :]
         @ table.col_base[lo:hi, None, :, None])[..., 0, 0]
    W = np.repeat(W[None], nb, axis=0)
    rate, cap, col = (a[lo:hi, None, :w] for a in (table.rate, table.cap, table.col))
    # The points' inputs at each segment's column, mixed as above.
    d = lam * a1[:, col] + mu * a2[:, col]
    for eff, _, take in _ranked_walk(rate * d, np.where(d > 0, cap, 0.0),
                                     budgets[:, None, :, None] + np.zeros(W.shape[1:])):
        W += eff * take
    # The first minimum and the pieces on either side of it; at either end
    # of [0, 1] the step takes the one piece there is.
    kmin = W.argmin(axis=-1)
    p = points.shape[-1]
    at = np.arange(0, n * k * p, p).reshape(n, k) + kmin
    left, right = kmin > 0, kmin < npoints - 1
    flat = points.ravel()
    mids = np.empty((2,) + kmin.shape + (1,))
    mids[0, ..., 0] = 0.5 * (flat[at - left] + flat[at])
    mids[1, ..., 0] = 0.5 * (flat[at] + flat[at + right])
    which = np.empty(mids.shape[:-1], dtype=np.intp)
    which[...] = np.arange(lo, hi)
    side_budgets = np.empty(mids.shape[:-1])
    side_budgets[...] = budgets[:, None, :]
    sides = table.solve_block(
        which.ravel(), (mids * a1[:, None] + (1.0 - mids) * a2[:, None]).reshape(-1, s),
        side_budgets.ravel()).reshape(mids.shape[:-1] + table.m0.shape)
    # gap = value(population 1) - value(population 2) of each side.
    rm = (R[:, None, :] @ sides)[..., 0, :]
    g_l, g_r = (rm[..., None, :] @ (a1 - a2)[:, None, :, None])[..., 0, 0]
    up = g_r > g_l
    theta = np.where(up, g_r / np.where(up, g_r - g_l, 1.0), 1.0)
    theta = np.where(0.0 > theta, 0.0, theta)
    theta = np.where(1.0 < theta, 1.0, theta)[..., None, None]
    ml, mr = sides
    # Entries both sides agree on, the frozen ones among them, stay bitwise.
    m = np.where((left & right)[..., None, None],
                 np.where(ml == mr, ml, theta * ml + (1.0 - theta) * mr),
                 np.where(left[..., None, None], ml, mr))
    values = _worst_values((R[:, None, :] @ m)[..., 0, :], a_in[:, None])
    if not dual.all():
        # The initial path: m0, whose values `col_base` holds.
        values = np.where(dual, values, _worst_values(table.col_base[lo:hi], a_in[:, None]))
        m = np.where(dual[..., None, None], m, table.m0)
    return values, m, dual


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
    distributions.  One population is the welfare step; two are a one-cell
    `two_population_block` on a table of the solver's row; without
    budget, or without a column of >= 2 malleable entries, nothing can move
    and m0 is returned; otherwise three or more take `_game_step`.
    """
    # Contiguous: BLAS sums a strided a_in in another order, so the same
    # numbers would give other bits.
    a_in = np.ascontiguousarray(a_in, dtype=float)
    # One pass over a_in: a NaN or an infinity anywhere makes the sum non-finite.
    if (a_in.shape[1:] != solver.m0.shape[1:] or not len(a_in)
            or not math.isfinite(a_in.sum())):
        raise ValueError(f"a_in must be a finite (populations, {solver.m0.shape[1]}) "
                         f"array, got {a_in.tolist()}")
    if not budget_step >= 0:
        raise ValueError(f"budget must be non-negative, got {budget_step}")
    if len(a_in) == 1:
        return solver.solve(a_in[0], budget_step)
    if len(a_in) == 2:
        # A one-row table of its own: a row solver that kept the table it
        # reads would form a cycle with `SegmentTable.row`'s cache, and hold
        # every such table until the garbage collector runs.
        table = SegmentTable(solver.r_out[None], solver.m0, solver.mask, solver.weights)
        values, mats, dual = two_population_block(table, 0, 1, a_in[None], [[budget_step]])
        return LayerStepResult(matrix=mats[0, 0, 0], objective=float(values[0, 0, 0]),
                               path="dual" if dual[0, 0, 0] else "initial")
    if budget_step > 0 and solver.can_move:
        return _game_step(solver, a_in, budget_step)
    m = solver.m0.copy()
    values = (solver.r_out @ m) @ a_in.T
    return LayerStepResult(matrix=m, objective=float(values.min()), path="initial")
