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
first is optimal (a fractional knapsack).  The greedy is a heap walk over
per-column segment lists; `WelfareStepSolver.value_block`/`solve_block`
replay the same walk for many (input, budget) pairs at once with numpy,
bitwise equal to the walk; the welfare DP's build prices with them.
The scalar walk stays for one-off steps: DP queries, the two-population
maximin step, and the reference the block forms are tested against.

The maximin step couples populations.  With two populations and unit costs
it needs no LP: by the minimax theorem its value is the smallest welfare-step
value over mixtures of the two population inputs, found exactly at a
breakpoint of the greedy order, and the optimal matrix mixes the greedy
matrices on either side of that breakpoint (`_two_population_step`).  With
three or more populations, weighted costs, or the `polish` re-solve, it goes
through an epigraph LP (HiGHS via scipy), which also serves as the reference
that tests check the LP-free step against.  There is one LP assembler,
`_epigraph_lp`: the weighted welfare step is its one-population case.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

# LPs are solved to a looser tolerance than the model's 1e-9; matrices are
# repaired columnwise before leaving this module.
LP_TOL = 1e-7


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
    whole batch of pairs in one call.

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
        if self.weights is None:
            # Per-column move segments sorted by decreasing gain rate.
            # Scaling rates by d_in[u] preserves the within-column order, so
            # the per-column sort is reusable across inputs.
            self._segments = [
                self._column_segments(u) for u in range(self.m0.shape[1])
            ]
            self._flat = None  # flattened segments, built on the first block call

    def _column_segments(self, u):
        """List of (rate, budget_capacity, donor, recipient) for column u."""
        free = np.flatnonzero(self.mask[:, u])
        if len(free) <= 1:
            # A single malleable entry is pinned by the column-sum constraint.
            return []
        r = self.r_out
        best = free[int(np.argmax(r[free]))]
        segs = []
        for v in free:
            gain = r[best] - r[v]
            if v == best or gain <= 0 or self.m0[v, u] <= 0:
                continue
            segs.append((gain / 2.0, 2.0 * self.m0[v, u], int(v), int(best)))
        segs.sort(key=lambda s: (-s[0], s[2]))
        return segs

    def _walk(self, d_in, budget):
        """Yield (u, seg, budget_taken) in global greedy order."""
        if budget <= 0:
            return
        heap = []
        for u, segs in enumerate(self._segments):
            if segs and d_in[u] > 0:
                heap.append((-segs[0][0] * d_in[u], u, 0))
        heapq.heapify(heap)
        remaining = budget
        while heap and remaining > 0:
            neg_rate, u, pos = heapq.heappop(heap)
            seg = self._segments[u][pos]
            take = min(seg[1], remaining)
            yield u, seg, take
            remaining -= take
            if pos + 1 < len(self._segments[u]):
                nxt = self._segments[u][pos + 1]
                heapq.heappush(heap, (-nxt[0] * d_in[u], u, pos + 1))

    def _flat_segments(self):
        """Every segment as (rate, cap, column, donor, recipient, factor) arrays.

        Segments are listed in (column, pos) order; `factor` is the budget
        cost per unit of mass moved, computed as `solve` computes it.
        """
        if self._flat is None:
            flat = [(seg[0], seg[1], u, seg[2], seg[3])
                    for u, segs in enumerate(self._segments) for seg in segs]
            rate = np.array([f[0] for f in flat], dtype=float)
            cap = np.array([f[1] for f in flat], dtype=float)
            col, donor, recipient = (np.array([f[i] for f in flat], dtype=np.int64)
                                     for i in (2, 3, 4))
            factor = cap / self.m0[donor, col]
            self._flat = (rate, cap, col, donor, recipient, factor)
        return self._flat

    def _block_walk(self, D, budgets):
        """Replay `_walk` for many inputs at once, one segment rank at a time.

        Yields (effective rate, segment index, take) per rank: the first two
        are (n,) arrays over the rows of D, which is (n, s); budgets
        broadcasts against (n,), and every take has the broadcast shape.  Each row's segments are ranked by the heap's key
        (-rate * d[u], u, pos): a stable sort of the negated effective rates
        over the (column, pos) listing.  A column with d[u] == 0 never enters
        the heap, so it gets zero capacity here.  Budget beyond the last
        segment, or after the budget is spent, is taken as 0, which adds
        exactly nothing; so per (input, budget) every sum and move happens in
        the order `_walk` yields it, with the same operands.
        """
        rate, cap, col = self._flat_segments()[:3]
        eff = rate * D[:, col]
        order = np.argsort(-eff, axis=1, kind="stable")
        eff = np.take_along_axis(eff, order, axis=1)
        cap = np.take_along_axis(np.where(D[:, col] > 0, cap, 0.0), order, axis=1)
        remaining = np.maximum(budgets, 0.0) + np.zeros(len(D))  # take shape
        for rank in range(len(rate)):
            if not remaining.any():
                return
            take = np.minimum(cap[:, rank], remaining)
            yield eff[:, rank], order[:, rank], take
            remaining -= take

    def value_block(self, D, budgets) -> np.ndarray:
        """`value` for every (budget, input) pair: a (len(budgets), len(D)) table.

        Bitwise equal to calling `value` per pair.  Weighted costs loop over
        `value`, which solves the LP.
        """
        D = np.atleast_2d(np.asarray(D, dtype=float))
        budgets = np.asarray(budgets, dtype=float)
        if self.weights is not None:
            return np.array([[self.value(d, b) for d in D] for b in budgets])
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
        column, and `_walk` visits a column's segments in pos order, so the
        moves are applied in (column, pos) order, each only where its take is
        positive, as `_walk` yields it.  Weighted costs loop over `solve`.
        """
        D = np.atleast_2d(np.asarray(D, dtype=float))
        budgets = np.asarray(budgets, dtype=float)
        if np.any(budgets < 0):
            raise ValueError(f"budget must be non-negative, got {budgets.min()}")
        if self.weights is not None:
            return np.array([self.solve(d, b).matrix for d, b in zip(D, budgets)])
        m = np.repeat(self.m0[None], len(D), axis=0)
        _, _, col, donor, recipient, factor = self._flat_segments()
        takes = np.zeros((len(D), len(col)))
        rows = np.arange(len(D))
        for _, seg, take in self._block_walk(D, budgets):
            takes[rows, seg] = take
        for s in range(len(col)):
            hit = np.flatnonzero(takes[:, s] > 0)
            if not len(hit):
                continue
            mass = takes[hit, s] / factor[s]
            u, dv, rv = col[s], donor[s], recipient[s]
            m[hit, dv, u] -= mass
            # The same cap at 1 as `solve`.
            m[hit, rv, u] = np.minimum(m[hit, rv, u] + mass, 1.0)
        return m

    def value(self, d_in, budget) -> float:
        """Optimal objective only; no matrix is materialized (unit costs)."""
        d_in = np.asarray(d_in, dtype=float)
        if self.weights is not None:
            return self.solve(d_in, budget).objective
        obj = float(self.col_base @ d_in)
        for u, seg, take in self._walk(d_in, budget):
            obj += seg[0] * d_in[u] * take
        return obj

    def solve(self, d_in, budget) -> LayerStepResult:
        d_in = np.asarray(d_in, dtype=float)
        if budget < 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        if self.weights is not None:
            return _epigraph_lp(self.r_out, d_in[None, :], self.m0, self.mask,
                                budget, self.weights, polish=False)
        m = self.m0.copy()
        for u, seg, take in self._walk(d_in, budget):
            rate, cap, donor, recipient = seg
            factor = cap / self.m0[donor, u]  # cost per unit of mass moved
            mass = take / factor
            m[donor, u] -= mass
            # Input columns may sum to 1 plus an ulp; moving a whole column
            # into one entry must not leave that entry above 1.
            m[recipient, u] = min(m[recipient, u] + mass, 1.0)
        obj = float(self.r_out @ m @ d_in)
        return LayerStepResult(matrix=m, objective=obj, path="greedy")


def solve_welfare_step(r_out, d_in, m0, mask, budget_step, cost_weights=None) -> LayerStepResult:
    """One-shot welfare step; see WelfareStepSolver for the reusable form."""
    solver = WelfareStepSolver(r_out, m0, mask, weights=cost_weights)
    return solver.solve(d_in, budget_step)


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


def _two_population_step(r_out, a_in, m0, mask, budget) -> LayerStepResult:
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
    solver = WelfareStepSolver(r_out, m0, mask)
    a1, a2 = a_in
    segs = [(seg[0], u) for u, col in enumerate(solver._segments) for seg in col]
    rate = np.array([s[0] for s in segs])
    col = np.array([s[1] for s in segs], dtype=np.int64)
    # Effective rate of segment s at lam: base[s] + lam * slope[s].
    base = rate * a2[col]
    slope = rate * (a1 - a2)[col]
    i, j = np.triu_indices(len(segs), k=1)
    cross = (col[i] != col[j]) & (slope[i] != slope[j])
    i, j = i[cross], j[cross]
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

    k = int(np.argmin([solver.value(mix(lam), budget) for lam in points]))
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


def solve_maximin_step(r_out, a_in, m0, mask, budget_step, cost_weights=None,
                       polish: bool = True) -> LayerStepResult:
    """Maximize min_j r_out^T M a_in[j] over feasible M.

    a_in is a (populations, source-layer-size) array of per-population input
    distributions.  Two populations with unit costs and no `polish` take the
    LP-free `_two_population_step`; everything else is the epigraph LP.  With
    `polish` a second solve, at the optimal objective, maximizes the summed
    population values among optima; this removes gratuitous reward damage
    that an arbitrary optimal vertex might carry and keeps results
    deterministic.
    """
    r_out = np.asarray(r_out, dtype=float)
    a_in = np.atleast_2d(np.asarray(a_in, dtype=float))
    m0 = np.asarray(m0, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if budget_step < 0:
        raise ValueError(f"budget must be non-negative, got {budget_step}")
    if a_in.shape[0] == 1:
        # min over one population is the welfare step.
        return solve_welfare_step(r_out, a_in[0], m0, mask, budget_step, cost_weights)
    # Without budget, or without a column of >= 2 malleable entries, nothing
    # can move; the epigraph LP returns m0 for those steps unsolved.
    if (a_in.shape[0] == 2 and cost_weights is None and not polish
            and budget_step > 0 and mask.sum(axis=0).max() >= 2):
        return _two_population_step(r_out, a_in, m0, mask, budget_step)
    weights = None if cost_weights is None else np.asarray(cost_weights, dtype=float)
    return _epigraph_lp(r_out, a_in, m0, mask, budget_step, weights, polish)


def _epigraph_lp(r_out, a_in, m0, mask, budget, weights, polish) -> LayerStepResult:
    """max v s.t. v <= r_out^T M a_in[j] for every population j, as an LP.

    Variables are the entries that can actually vary (malleable, in a column
    with >= 2 malleable entries), their absolute changes, and v.  With one
    population this is the welfare step, which is how weighted costs solve
    it.  Steps with nothing to vary, or no budget, return m0 unsolved.
    """
    pops = a_in.shape[0]
    col_free = [np.flatnonzero(mask[:, u]) for u in range(m0.shape[1])]
    entries = [(int(v), u) for u in range(m0.shape[1]) if len(col_free[u]) >= 2
               for v in col_free[u]]
    n = len(entries)
    if n == 0 or budget == 0:
        base_rewards = (r_out @ m0) @ a_in.T  # value per population if M = m0
        return LayerStepResult(matrix=m0.copy(), objective=float(base_rewards.min()),
                               path="initial")

    ncols = m0.shape[1]
    # coef[j, e] = r_out[v] * a_in[j, u] for entry e = (v, u)
    coef = np.empty((pops, n))
    w_e = np.empty(n)
    m0_e = np.empty(n)
    for e, (v, u) in enumerate(entries):
        coef[:, e] = r_out[v] * a_in[:, u]
        w_e[e] = 1.0 if weights is None else weights[v, u]
        m0_e[e] = m0[v, u]
    # frozen_j: contribution of all non-variable entries.
    frozen = m0.copy()
    for v, u in entries:
        frozen[v, u] = 0.0
    frozen_j = (r_out @ frozen) @ a_in.T

    nvar = 2 * n + 1  # x, a, v
    iv = 2 * n
    c = np.zeros(nvar)
    c[iv] = -1.0
    rows, rhs = [], []
    for e in range(n):
        row = np.zeros(nvar)
        row[e], row[n + e] = 1.0, -1.0
        rows.append(row)
        rhs.append(m0_e[e])
        row = np.zeros(nvar)
        row[e], row[n + e] = -1.0, -1.0
        rows.append(row)
        rhs.append(-m0_e[e])
    cost_row = np.zeros(nvar)
    cost_row[n:2 * n] = w_e
    rows.append(cost_row)
    rhs.append(budget)
    for j in range(pops):
        row = np.zeros(nvar)
        row[:n] = -coef[j]
        row[iv] = 1.0
        rows.append(row)
        rhs.append(frozen_j[j])
    a_ub = np.array(rows)
    b_ub = np.array(rhs)

    eq_rows, eq_rhs = [], []
    for u in range(ncols):
        if len(col_free[u]) < 2:
            continue
        row = np.zeros(nvar)
        for e, (v, uu) in enumerate(entries):
            if uu == u:
                row[e] = 1.0
        eq_rows.append(row)
        eq_rhs.append(1.0 - m0[~mask[:, u], u].sum())
    a_eq = np.array(eq_rows)
    b_eq = np.array(eq_rhs)

    bounds = [(0.0, 1.0)] * n + [(0.0, 2.0)] * n + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"step LP failed: {res.message}")
    v_star = float(res.x[iv])
    x = res.x[:n]

    if polish:
        # Re-solve at the optimal objective, maximizing total population value.
        rows2 = [a_ub[r, : 2 * n] for r in range(2 * n + 1)]
        rhs2 = list(b_ub[: 2 * n + 1])
        for j in range(pops):
            row = np.zeros(2 * n)
            row[:n] = -coef[j]
            rows2.append(row)
            rhs2.append(frozen_j[j] - (v_star - 1e-9))
        c2 = np.zeros(2 * n)
        c2[:n] = -coef.sum(axis=0)
        res2 = linprog(c2, A_ub=np.array(rows2), b_ub=np.array(rhs2),
                       A_eq=a_eq[:, : 2 * n], b_eq=b_eq,
                       bounds=[(0.0, 1.0)] * n + [(0.0, 2.0)] * n, method="highs")
        if res2.status == 0:
            x = res2.x[:n]

    m = m0.copy()
    for e, (v, u) in enumerate(entries):
        m[v, u] = x[e]
    m = _repair_columns(m, m0, mask, weights, budget)
    return LayerStepResult(matrix=m, objective=v_star, path="lp")
