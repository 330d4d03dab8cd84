"""The scalar two-population maximin step, the reference for the block one.

pipeopt prices every two-population step with `layerlp.two_population_block`
(`solve_maximin_step` prices one as a one-cell block).  This is the same
step one cell at a time, on a `WelfareStepSolver`'s heap walk, with the
same breakpoints, pieces, equalizing mix and initial path; the tests check
that the block equals it bitwise, values and matrices alike.
"""

import numpy as np

from pipeopt.layerlp import _CROSSING_MERGE_TOL, LayerStepResult


def two_population_step(solver, a_in, budget) -> LayerStepResult:
    """Exact maximin step for two populations, one cell, without an LP.

    Without budget, or without a column of >= 2 malleable entries, nothing
    can move and m0 is returned ("initial").  Otherwise the step value is
    the minimum over lam in [0, 1] of the welfare step at
    lam a_1 + (1 - lam) a_2, which is convex and piecewise linear, with
    kinks only where two segments of different columns swap rank.  The
    greedy matrices of the pieces on either side of the minimizer, taken at
    their middles, are mixed so that the two populations' values are equal
    ("dual").
    """
    a_in = np.ascontiguousarray(a_in, dtype=float)
    r_out = solver.r_out
    if not (budget > 0 and solver.can_move):
        m = solver.m0.copy()
        values = (r_out @ m) @ a_in.T
        return LayerStepResult(matrix=m, objective=float(values.min()), path="initial")
    a1, a2 = a_in
    rate, col = solver._rate, solver._col
    # Effective rate of segment s at lam: base[s] + lam * slope[s].
    base = rate * a2[col]
    slope = rate * (a1 - a2)[col]
    # Segment pairs i < j in different columns: ranks that swap as inputs mix.
    i, j = np.triu_indices(len(rate), k=1)
    cross = (col[i] != col[j]) & (slope[i] != slope[j])
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
