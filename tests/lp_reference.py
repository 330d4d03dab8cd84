"""LP references for the LP-free game solvers, built on scipy's HiGHS.

pipeopt solves every zero-sum game without an LP (`oracle.double_oracle`);
the tests check it against these formulations:

- `epigraph_lp`, the maximin step as one LP, for `layerlp.solve_maximin_step`;
- `mixture_lp`, a matrix game as one LP, for `oracle.mixture_game`.
"""

import numpy as np
from scipy.optimize import linprog

from pipeopt.layerlp import LayerStepResult


def repair_columns(m, m0, mask, weights, budget):
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


def epigraph_lp(r_out, a_in, m0, mask, budget, weights) -> LayerStepResult:
    """max v s.t. v <= r_out^T M a_in[j] for every population j, as an LP.

    Variables are the entries that can actually vary (malleable, in a column
    with >= 2 malleable entries), listed column by column, then their
    absolute changes, then v.  Steps with nothing to vary, or no budget,
    return m0 unsolved.  The objective is what the repaired matrix attains:
    HiGHS's tolerance lets v overstate it by about 1e-7.
    """
    movable = np.flatnonzero(mask.sum(axis=0) >= 2)
    if budget == 0 or not len(movable):
        m = m0.copy()
        return LayerStepResult(matrix=m, objective=float(((r_out @ m) @ a_in.T).min()),
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
    assert res.status == 0, res.message
    m = m0.copy()
    m[v_e, u_e] = res.x[:n]
    m = repair_columns(m, m0, mask, weights, budget)
    return LayerStepResult(matrix=m, objective=float(((r_out @ m) @ a_in.T).min()),
                           path="lp")


def mixture_lp(values):
    """Optimal (lambda, mu) of the game max_lambda min_j (lambda^T values)_j
    by one LP: lambda from the primal, mu from the dual (HiGHS marginals)."""
    f, s1 = values.shape
    c = np.zeros(f + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-values.T, np.ones((s1, 1))])
    b_ub = np.zeros(s1)
    a_eq = np.zeros((1, f + 1))
    a_eq[0, :f] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.array([1.0]),
                  bounds=[(0.0, None)] * f + [(None, None)], method="highs")
    assert res.status == 0, res.message
    return res.x[:f], -res.ineqlin.marginals
