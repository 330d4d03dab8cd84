"""Single-layer steps: the exact greedy and both maximin steps against LPs."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

import pipeopt as po
from lp_reference import epigraph_lp
from pipeopt.layerlp import WelfareStepSolver, solve_maximin_step

rng = np.random.default_rng(404)

# Sums to 1 plus an ulp, as `raw / raw.sum()` columns can.
PLUS_ULP_COLUMN = np.array([[0.458927283687728], [0.2829261192379251],
                            [0.0], [0.258146597074347]])


# (r_out, m0, weights) of a weighted step whose donors (row 0, which holds
# all the mass) can buy the cheap, mediocre row 1 at 1 per unit of mass for
# a gain of 0.6, or the dear, good row 2 at 2 for a gain of 1.  The hull
# buys row 1 first (rate 0.6), then re-routes that mass to row 2 (rate 0.4).
HULL_CASE = (np.array([0.0, 0.6, 1.0]),
             np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
             np.array([[0.5, 0.5], [0.5, 0.5], [1.5, 1.5]]))


def random_step(width_out, width_in, mask_p=1.0, weighted=False):
    m0 = rng.random((width_out, width_in))
    m0 /= m0.sum(axis=0, keepdims=True)
    mask = rng.random((width_out, width_in)) < mask_p if mask_p < 1 else \
        np.ones((width_out, width_in), dtype=bool)
    r_out = rng.random(width_out)
    d_in = rng.dirichlet(np.ones(width_in))
    weights = rng.uniform(0.5, 3.0, size=(width_out, width_in)) if weighted else None
    return r_out, d_in, m0, mask, weights


def welfare_step_by_linprog(r_out, a_in, m0, mask, budget, weights=None):
    """Reference optimum via a generic LP solver (independent formulation).

    a_in is one input distribution or a (populations, cols) stack; the LP
    maximizes the worst population's value over every matrix entry, with
    frozen entries pinned by their bounds, so one input is the welfare step.
    """
    a_in = np.atleast_2d(a_in)
    rows, cols = m0.shape
    n = rows * cols
    # Variables: all entries x, auxiliary |x - m0| bounds a, then the value v.
    c = np.zeros(2 * n + 1)
    c[-1] = -1
    a_ub, b_ub = [], []
    w = np.ones_like(m0) if weights is None else weights
    for e in range(n):
        row = np.zeros(2 * n + 1)
        row[e], row[n + e] = 1, -1
        a_ub.append(row)
        b_ub.append(m0.ravel()[e])
        row = np.zeros(2 * n + 1)
        row[e], row[n + e] = -1, -1
        a_ub.append(row)
        b_ub.append(-m0.ravel()[e])
    cost = np.zeros(2 * n + 1)
    cost[n:2 * n] = w.ravel()
    a_ub.append(cost)
    b_ub.append(budget)
    for d_in in a_in:
        # v <= r_out^T M d_in
        row = np.zeros(2 * n + 1)
        row[:n] = -np.outer(r_out, d_in).ravel()
        row[-1] = 1
        a_ub.append(row)
        b_ub.append(0.0)
    a_eq, b_eq = [], []
    for u in range(cols):
        row = np.zeros(2 * n + 1)
        for v in range(rows):
            row[v * cols + u] = 1
        a_eq.append(row)
        b_eq.append(1.0)
    frozen = ~mask.ravel()
    bounds = []
    for e in range(n):
        if frozen[e]:
            bounds.append((m0.ravel()[e], m0.ravel()[e]))
        else:
            bounds.append((0.0, 1.0))
    bounds += [(0.0, 2.0)] * n + [(None, None)]
    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=bounds,
                  method="highs")
    assert res.status == 0
    return -res.fun


class TestWelfareStep:
    def test_zero_budget_returns_initial(self):
        r_out, d_in, m0, mask, _ = random_step(3, 3)
        res = WelfareStepSolver(r_out, m0, mask).solve(d_in, 0.0)
        np.testing.assert_array_equal(res.matrix, m0)
        assert res.objective == pytest.approx(float(r_out @ m0 @ d_in))

    def test_two_layer_contrast_optimum(self):
        # One layer, full budget on the heaviest population's column.
        r_out = np.array([1.0, 0.0])
        d_in = np.array([0.8, 0.1, 0.1])
        m0 = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        mask = np.ones_like(m0, dtype=bool)
        res = WelfareStepSolver(r_out, m0, mask).solve(d_in, 1.0)
        assert res.objective == pytest.approx(0.40, abs=1e-9)
        np.testing.assert_allclose(res.matrix[:, 0], [0.5, 0.5], atol=1e-9)

    def test_beats_exhaustive_column_grid(self):
        # Exhaustive search over 0.01-grid column moves can lag by at most
        # one grid cell per column.
        r_out, d_in, m0, mask, _ = random_step(2, 2)
        budget = 0.4
        res = WelfareStepSolver(r_out, m0, mask).solve(d_in, budget)
        eta = 0.01
        best = -np.inf
        steps0 = np.arange(0, m0[0, 0] / eta + 1, dtype=int)
        for a_units in range(-int(m0[0, 0] / eta), int(m0[1, 0] / eta) + 1):
            for b_units in range(-int(m0[0, 1] / eta), int(m0[1, 1] / eta) + 1):
                costu = 2 * (abs(a_units) + abs(b_units)) * eta
                if costu > budget:
                    continue
                m = m0 + eta * np.array([[a_units, b_units],
                                         [-a_units, -b_units]], dtype=float)
                if np.any(m < 0) or np.any(m > 1):
                    continue
                best = max(best, float(r_out @ m @ d_in))
        assert res.objective >= best - 1e-12
        assert res.objective <= best + 0.02

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("mask_p", [1.0, 0.6])
    def test_matches_reference_lp(self, weighted, mask_p):
        # The greedy must equal an independently formulated LP to solver
        # tolerance, across shapes, masks, weights, and budget levels.
        for trial in range(25):
            rows = int(rng.integers(2, 5))
            cols = int(rng.integers(1, 5))
            r_out, d_in, m0, mask, weights = random_step(rows, cols, mask_p, weighted)
            budget = float(rng.uniform(0, 2.5))
            res = WelfareStepSolver(r_out, m0, mask, weights).solve(d_in, budget)
            ref = welfare_step_by_linprog(r_out, d_in, m0, mask, budget, weights)
            assert res.objective == pytest.approx(ref, abs=1e-7)

    def test_budget_monotone(self):
        r_out, d_in, m0, mask, _ = random_step(3, 3)
        values = [
            WelfareStepSolver(r_out, m0, mask).solve(d_in, b).objective
            for b in np.linspace(0, 2, 9)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_output_feasibility(self):
        for _ in range(20):
            r_out, d_in, m0, mask, weights = random_step(3, 2, 0.7, True)
            budget = float(rng.uniform(0, 1.5))
            res = WelfareStepSolver(r_out, m0, mask, weights).solve(d_in, budget)
            m = res.matrix
            np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-9)
            assert np.all(m >= -1e-12) and np.all(m <= 1 + 1e-12)
            np.testing.assert_array_equal(m[~mask], m0[~mask])
            assert float((np.abs(m - m0) * weights).sum()) <= budget + 1e-7

    @pytest.mark.parametrize("budget, value, column", [
        (0.5, 0.3, [0.5, 0.5, 0.0]),   # half the mass bought at row 1
        (1.0, 0.6, [0.0, 1.0, 0.0]),   # all of it at row 1
        (1.5, 0.8, [0.0, 0.5, 0.5]),   # half re-routed to row 2
        (2.0, 1.0, [0.0, 0.0, 1.0]),   # all of it at row 2
        (3.0, 1.0, [0.0, 0.0, 1.0]),   # nothing left to buy
    ])
    def test_weighted_hull_reroutes_cheap_mass(self, budget, value, column):
        r_out, m0, weights = HULL_CASE
        solver = WelfareStepSolver(r_out, m0, np.ones_like(m0, dtype=bool), weights)
        # Column 1 gets no input, so only column 0 moves.
        res = solver.solve(np.array([1.0, 0.0]), budget)
        assert res.objective == pytest.approx(value, abs=1e-15)
        np.testing.assert_allclose(res.matrix[:, 0], column, atol=1e-15)
        np.testing.assert_array_equal(res.matrix[:, 1], m0[:, 1])
        spent = float((weights * np.abs(res.matrix - m0)).sum())
        assert spent == pytest.approx(min(budget, 2.0), abs=1e-15)
        assert res.objective == pytest.approx(welfare_step_by_linprog(
            r_out, np.array([1.0, 0.0]), m0, np.ones_like(m0, dtype=bool),
            budget, weights), abs=1e-9)

    def test_whole_column_moved_stays_at_most_one(self):
        # This column sums to 1 plus an ulp; gathering all of it into the
        # rewarded entry must still give an entry of at most 1.
        m0 = PLUS_ULP_COLUMN
        assert m0.sum() > 1.0
        solver = WelfareStepSolver(np.array([1.0, 0.0, 0.0, 0.0]), m0,
                                   np.ones_like(m0, dtype=bool))
        res = solver.solve(np.ones(1), 2.0)
        np.testing.assert_array_equal(res.matrix[:, 0], [1.0, 0.0, 0.0, 0.0])


class TestMaximinStep:
    def test_single_population_equals_welfare(self):
        r_out, d_in, m0, mask, _ = random_step(3, 3)
        a_in = d_in[None, :]
        res = solve_maximin_step(WelfareStepSolver(r_out, m0, mask), a_in, 0.5)
        ref = WelfareStepSolver(r_out, m0, mask).solve(d_in, 0.5)
        assert res.objective == pytest.approx(ref.objective, abs=1e-9)

    def test_even_split_optimum_and_uniqueness(self):
        # Every population starts on its own node; the optimum splits the
        # budget evenly and is unique, so the matrix itself is pinned.
        r_out = np.array([1.0, 0.0])
        m0 = np.array([[0.0] * 3, [1.0] * 3])
        mask = np.ones_like(m0, dtype=bool)
        a_in = np.eye(3)
        res = solve_maximin_step(WelfareStepSolver(r_out, m0, mask), a_in, 1.0)
        assert res.objective == pytest.approx(1 / 6, abs=1e-7)
        np.testing.assert_allclose(res.matrix[0], [1 / 6] * 3, atol=1e-7)
        np.testing.assert_allclose(res.matrix[1], [5 / 6] * 3, atol=1e-7)

    def test_matches_grid_oracle_two_populations(self):
        for trial in range(5):
            r_out, _, m0, mask, _ = random_step(2, 2)
            a_in = np.eye(2)
            budget = 0.5
            res = solve_maximin_step(WelfareStepSolver(r_out, m0, mask), a_in, budget)
            eta = 0.01
            best = -np.inf
            for a_units in range(-int(m0[0, 0] / eta), int(m0[1, 0] / eta) + 1):
                for b_units in range(-int(m0[0, 1] / eta), int(m0[1, 1] / eta) + 1):
                    if 2 * (abs(a_units) + abs(b_units)) * eta > budget:
                        continue
                    m = m0 + eta * np.array([[a_units, b_units],
                                             [-a_units, -b_units]], dtype=float)
                    if np.any(m < 0) or np.any(m > 1):
                        continue
                    best = max(best, min(r_out @ m @ a_in[0], r_out @ m @ a_in[1]))
            assert res.objective >= best - 1e-7
            assert res.objective <= best + 0.02

    def test_budget_zero_is_initial(self):
        r_out, _, m0, mask, _ = random_step(3, 2)
        a_in = np.eye(2)
        res = solve_maximin_step(WelfareStepSolver(r_out, m0, mask), a_in, 0.0)
        np.testing.assert_array_equal(res.matrix, m0)

    @pytest.mark.parametrize("pops", [2, 3])
    def test_budget_zero_value_is_the_returned_matrix(self, pops):
        # A Fortran-ordered m0 rounds r_out @ m0 differently from the C-ordered
        # copy returned; the value must be the returned matrix's own.
        r_out = np.array([123.71, 847.97, 258.13, 247.28])
        top = np.array([[0.309, 0.154], [0.223, 0.365], [0.079, 0.019]])
        m0 = np.asfortranarray(np.vstack([top, 1.0 - top.sum(axis=0)]))
        first = np.array([[0.85], [0.84], [0.48]])[:pops]
        a_in = np.hstack([first, 1.0 - first])
        solver = WelfareStepSolver(r_out, m0, np.ones((4, 2), dtype=bool))
        res = solve_maximin_step(solver, a_in, 0.0)
        assert res.path == "initial"
        np.testing.assert_array_equal(res.matrix, m0)
        assert res.objective == float(((solver.r_out @ res.matrix) @ a_in.T).min())

    def test_output_feasibility(self):
        for _ in range(10):
            r_out, _, m0, mask, weights = random_step(3, 3, 0.7, True)
            a_in = np.eye(3)
            budget = float(rng.uniform(0, 1.5))
            solver = WelfareStepSolver(r_out, m0, mask, weights)
            res = solve_maximin_step(solver, a_in, budget)
            m = res.matrix
            np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-9)
            np.testing.assert_array_equal(m[~mask], m0[~mask])
            assert float((np.abs(m - m0) * weights).sum()) <= budget + 1e-7

    def test_budget_monotone(self):
        r_out, _, m0, mask, _ = random_step(2, 2)
        a_in = np.eye(2)
        values = [
            solve_maximin_step(WelfareStepSolver(r_out, m0, mask), a_in, b).objective
            for b in np.linspace(0, 2, 9)
        ]
        assert all(b >= a - 1e-7 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("mask_p", [1.0, 0.6])
    def test_matches_reference_lp(self, weighted, mask_p):
        # Three or four populations take the game step, which must equal
        # the independent formulation across shapes, masks and weights.
        for trial in range(25):
            rows = int(rng.integers(2, 5))
            cols = int(rng.integers(1, 5))
            r_out, _, m0, mask, weights = random_step(rows, cols, mask_p, weighted)
            a_in = rng.dirichlet(np.ones(cols), size=int(rng.integers(3, 5)))
            budget = float(rng.uniform(0, 2.5))
            solver = WelfareStepSolver(r_out, m0, mask, weights)
            res = solve_maximin_step(solver, a_in, budget)
            ref = welfare_step_by_linprog(r_out, a_in, m0, mask, budget, weights)
            assert res.objective == pytest.approx(ref, abs=1e-7)


class TestBudgetRefusal:
    """Every step entry point refuses a NaN or negative budget by name."""

    r_out = np.array([1.0, 0.0])
    m0 = np.array([[0.3, 0.6], [0.7, 0.4]])
    mask = np.ones((2, 2), dtype=bool)
    d_in = np.array([0.5, 0.5])

    @pytest.mark.parametrize("budget", [float("nan"), -0.1], ids=["nan", "negative"])
    @pytest.mark.parametrize("call", [
        "value", "value_block", "solve", "solve_block", "solve_maximin_step",
    ])
    def test_refused(self, call, budget):
        solver = WelfareStepSolver(self.r_out, self.m0, self.mask)
        # The block forms get two pairs, so they take the numpy walk.
        calls = {
            "value": lambda: solver.value(self.d_in, budget),
            "value_block": lambda: solver.value_block(self.d_in, [0.5, budget]),
            "solve": lambda: solver.solve(self.d_in, budget),
            "solve_block": lambda: solver.solve_block(np.eye(2), [0.5, budget]),
            "solve_maximin_step": lambda: solve_maximin_step(solver, np.eye(2), budget),
        }
        with pytest.raises(ValueError, match="budget"):
            calls[call]()


class TestInputRefusal:
    """The maximin step refuses a non-finite or misshapen `a_in` by name."""

    solver = WelfareStepSolver(np.array([1.0, 0.0]), np.array([[0.3, 0.6], [0.7, 0.4]]),
                               np.ones((2, 2), dtype=bool))

    @pytest.mark.parametrize("a_in", [
        [[float("nan"), 1.0], [0.0, 1.0]], [[float("inf"), 0.0], [0.0, 1.0]],
        [[0.5, 0.5, 0.0]], np.zeros((2, 1)), [0.5, 0.5], np.zeros((0, 2)),
        np.full((3, 2), 0.5)[:, :, None],
    ], ids=["nan", "inf", "too-long", "too-short", "1-d", "no-population", "3-d"])
    def test_refused(self, a_in):
        with pytest.raises(ValueError, match="a_in"):
            solve_maximin_step(self.solver, a_in, 0.5)


def _counts(draw, shape):
    """Non-negative weights: integers 0..4, which make ties likely, or floats."""
    size = int(np.prod(shape))
    cell = st.integers(0, 4) if draw(st.booleans()) else st.floats(0, 1)
    cells = draw(st.lists(cell, min_size=size, max_size=size))
    return np.array(cells, dtype=float).reshape(shape)


def _stochastic(counts):
    """Normalize columns to sum 1; an all-zero column puts its mass on row 0."""
    counts = counts.copy()
    counts[0, counts.sum(axis=0) == 0] = 1.0
    return counts / counts.sum(axis=0)


@st.composite
def two_population_steps(draw):
    """(r_out, a_in, m0, mask, budget) for a unit-cost two-population step."""
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    m0 = _stochastic(_counts(draw, (rows, cols)))
    r_out = _counts(draw, (rows,))
    if draw(st.booleans()):
        mask = np.ones((rows, cols), dtype=bool)
    else:
        mask = np.array(draw(st.lists(st.booleans(), min_size=rows * cols,
                                      max_size=rows * cols))).reshape(rows, cols)
    kind = draw(st.sampled_from(["mixed", "eye", "identical"]))
    if kind == "eye":
        i = draw(st.integers(0, cols - 1))
        j = draw(st.integers(0, cols - 1).filter(lambda x: x != i))
        a_in = np.eye(cols)[[i, j]]
    else:
        a_in = _stochastic(_counts(draw, (cols, 2))).T
        if kind == "identical":
            a_in = a_in[[0, 0]]
    budget = draw(st.floats(0.01, 2.5))
    return r_out, a_in, m0, mask, budget


def _weights(draw, shape):
    """Per-edge cost weights: integers 1..3, which make ties likely, or
    floats in [0.25, 3]."""
    size = int(np.prod(shape))
    cell = st.integers(1, 3) if draw(st.booleans()) else st.floats(0.25, 3.0)
    cells = draw(st.lists(cell, min_size=size, max_size=size))
    return np.array(cells, dtype=float).reshape(shape)


@st.composite
def weighted_two_population_steps(draw):
    """(r_out, a_in, m0, mask, budget, weights): a two-population step with
    per-edge cost weights."""
    r_out, a_in, m0, mask, budget = draw(two_population_steps())
    return r_out, a_in, m0, mask, budget, _weights(draw, m0.shape)


@st.composite
def many_population_steps(draw):
    """(r_out, a_in, m0, mask, budget, weights) for a step with 3-5
    populations: rows of the identity or free mixes, masked half the time,
    weights None (unit costs) half the time."""
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    pops = draw(st.integers(3, 5))
    m0 = _stochastic(_counts(draw, (rows, cols)))
    r_out = _counts(draw, (rows,)) * draw(st.sampled_from([1.0, 1e3]))
    mask = np.ones((rows, cols), dtype=bool)
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=rows * cols,
                                      max_size=rows * cols))).reshape(rows, cols)
    if draw(st.booleans()):
        picks = draw(st.lists(st.integers(0, cols - 1), min_size=pops, max_size=pops))
        a_in = np.eye(cols)[picks]
    else:
        a_in = _stochastic(_counts(draw, (cols, pops))).T
    budget = draw(st.floats(0.0, 2.5))
    weights = _weights(draw, (rows, cols)) if draw(st.booleans()) else None
    return r_out, a_in, m0, mask, budget, weights


@st.composite
def greedy_blocks(draw):
    """(r_out, m0, mask, D, budgets, weights) for the block greedy: D is
    (inputs, cols); weights is None (unit costs) half the time."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m0 = _stochastic(_counts(draw, (rows, cols)))
    r_out = _counts(draw, (rows,))
    mask = np.array(draw(st.lists(st.booleans(), min_size=rows * cols,
                                  max_size=rows * cols))).reshape(rows, cols)
    if draw(st.booleans()):
        mask[:] = True
    d_in = _stochastic(_counts(draw, (cols, draw(st.integers(1, 3))))).T
    budgets = np.array(draw(st.lists(st.floats(0, 2.5), min_size=1, max_size=3)))
    weights = _weights(draw, (rows, cols)) if draw(st.booleans()) else None
    return r_out, m0, mask, d_in, budgets, weights


def _block_case(r_out, m0, d_in, budgets, weights=None):
    m0 = np.asarray(m0, dtype=float)
    return (np.asarray(r_out, dtype=float), m0, np.ones(m0.shape, dtype=bool),
            np.asarray(d_in, dtype=float), np.asarray(budgets, dtype=float),
            None if weights is None else np.asarray(weights, dtype=float))


class TestBlockGreedy:
    """`value_block`/`solve_block` against the scalar heap walk, bitwise."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(greedy_blocks())
    # An input with zero entries.
    @example(_block_case([1.0, 0.5, 0.0], [[0.2, 0.5, 0.1], [0.3, 0.2, 0.4],
                                           [0.5, 0.3, 0.5]],
                         [[0.6, 0.0, 0.4], [0.0, 1.0, 0.0]], [0.3, 1.1]))
    # Budget 0.  This and the cap example below use two pairs: a single
    # pair goes to the scalar walk, not the numpy one.
    @example(_block_case([1.0, 0.0], [[0.3, 0.6], [0.7, 0.4]],
                         [[0.5, 0.5], [0.2, 0.8]], [0.0]))
    # A budget that saturates every segment.
    @example(_block_case([1.0, 0.4, 0.0], [[0.1, 0.2], [0.3, 0.3], [0.6, 0.5]],
                         [[0.3, 0.7], [0.9, 0.1]], [10.0]))
    # Equal effective rates in two columns: the lower column goes first.
    @example(_block_case([1.0, 0.0], [[0.2, 0.2], [0.8, 0.8]],
                         [[0.5, 0.5]], [0.4, 1.6, 3.2]))
    # A column summing to 1 + ulp moved whole hits the cap at 1.
    @example(_block_case([1.0, 0.0, 0.0, 0.0], PLUS_ULP_COLUMN, [[1.0]],
                         [2.0, 3.0]))
    # A solver with no segments.
    @example(_block_case([0.7], [[1.0, 1.0]], [[0.4, 0.6]], [0.0, 1.0]))
    # Weighted: every donor's hull has two edges, the second re-routing mass
    # bought on the first; budgets inside each edge and past both.
    @example(_block_case(*HULL_CASE[:2], [[0.5, 0.5], [1.0, 0.0]],
                         [0.5, 1.5, 3.0], HULL_CASE[2]))
    def test_blocks_equal_scalar(self, case):
        r_out, m0, mask, d_in, budgets, weights = case
        solver = WelfareStepSolver(r_out, m0, mask, weights)
        values = solver.value_block(d_in, budgets)
        assert np.array_equal(
            values, [[solver.value(d, b) for d in d_in] for b in budgets])
        pairs_d = np.repeat(d_in, len(budgets), axis=0)
        pairs_b = np.tile(budgets, len(d_in))
        mats = solver.solve_block(pairs_d, pairs_b)
        assert np.array_equal(
            mats, [solver.solve(d, b).matrix for d, b in zip(pairs_d, pairs_b)])
        assert np.all(mats <= 1.0)
        # The memo's continuation vectors come from the stacked product.
        assert np.array_equal(r_out @ mats, [r_out @ m for m in mats])

    def test_negative_budget_refused(self):
        solver = WelfareStepSolver(np.array([1.0, 0.0]), np.eye(2),
                                   np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            solver.solve_block(np.eye(2), np.array([0.5, -0.1]))


class TestTwoPopulationDualStep:
    """The LP-free two-population step against the epigraph LP it replaces."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(two_population_steps())
    # A column summing to 1 plus an ulp, gathered whole into one entry; the
    # drawn examples reach it only in some test sessions.
    @example((np.array([1.0, 0.0, 0.0, 0.0]), np.eye(2),
              np.hstack([PLUS_ULP_COLUMN, PLUS_ULP_COLUMN]),
              np.ones((4, 2), dtype=bool), 2.5))
    # A frozen entry below HiGHS's feasibility tolerance: the LP's own v
    # overstates what its matrix attains by about 1.2e-7.
    @example((np.array([2.0, 0.0, 0.0]), np.eye(3)[[0, 2]],
              np.array([[1.0, 1.0, 1.0 - 2.0**-24], [0.0, 0.0, 2.0**-24],
                        [0.0, 0.0, 0.0]]),
              np.array([[False, False, True], [False, False, False],
                        [False, False, True]]), 1.0))
    # A subnormal input entry: one crossing lies past the float range.
    @example((np.array([0.0, 0.0, 1.0, 0.0]), np.array([[0.0, 1.0], [1e-310, 1.0]]),
              np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
              np.array([[False, False], [True, True], [True, True], [False, False]]),
              1.0))
    def test_matches_lp_and_is_feasible(self, step):
        r_out, a_in, m0, mask, budget = step
        solver = WelfareStepSolver(r_out, m0, mask)
        res = solve_maximin_step(solver, a_in, budget)
        ref = epigraph_lp(r_out, a_in, m0, mask, budget, None)
        assert res.path in ("dual", "initial")
        assert ref.path in ("lp", "initial")
        assert res.objective == pytest.approx(ref.objective, abs=1e-7)
        m = res.matrix
        np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(m >= 0.0) and np.all(m <= 1.0)
        assert float(np.abs(m - m0).sum()) <= budget + 1e-12
        np.testing.assert_array_equal(m[~mask], m0[~mask])
        # The memo's rvec is re-derived from the matrix, so the reported
        # objective must be the matrix's exact worst-population value.
        assert res.objective == float(((r_out @ m) @ a_in.T).min())
        # Swapping the populations leaves the value alone: the claim behind
        # BackwardDP's multiset table.
        swapped = solve_maximin_step(solver, a_in[::-1], budget)
        assert swapped.objective == pytest.approx(res.objective, abs=1e-12)

    def test_even_split_needs_mixing(self):
        # Two populations on their own nodes: each greedy piece spends the
        # whole budget on one column, so only the mix of the two attains 1/4.
        r_out = np.array([1.0, 0.0])
        m0 = np.array([[0.0, 0.0], [1.0, 1.0]])
        mask = np.ones_like(m0, dtype=bool)
        res = solve_maximin_step(WelfareStepSolver(r_out, m0, mask), np.eye(2), 1.0)
        assert res.path == "dual"
        assert res.objective == pytest.approx(0.25, abs=1e-15)
        np.testing.assert_allclose(res.matrix[0], [0.25, 0.25], atol=1e-15)

    @pytest.mark.parametrize("budget", [0.2, 0.5, 1.0])
    def test_equal_rates_in_two_columns(self, budget):
        # Identical columns give every segment a twin of equal rate in the
        # other column; the twins' crossings differ only by rounding and must
        # count as one breakpoint, or a midpoint lands on the tie.
        r_out = np.array([1.0, 0.3, 0.0])
        m0 = np.array([[0.2, 0.2], [0.3, 0.3], [0.5, 0.5]])
        mask = np.ones_like(m0, dtype=bool)
        a_in = np.array([[0.9, 0.1], [0.3, 0.7]])
        res = solve_maximin_step(WelfareStepSolver(r_out, m0, mask), a_in, budget)
        ref = epigraph_lp(r_out, a_in, m0, mask, budget, None)
        assert res.objective == pytest.approx(ref.objective, abs=1e-9)

    @pytest.mark.parametrize("budget", [0.3, 0.6])
    def test_frozen_entries_kept_bitwise(self, budget):
        # The equalizing mix of two matrices that agree on an entry can still
        # move it in the last bit; frozen entries must come back unchanged.
        r_out = np.array([0.83, 0.895, 0.272])
        m0 = np.array([[0.366, 0.216, 0.251],
                       [0.293, 0.379, 0.466],
                       [0.341, 0.405, 0.283]])
        mask = np.array([[True, False, True],
                         [True, True, False],
                         [False, True, False]])
        a_in = np.eye(3)[:2]
        res = solve_maximin_step(WelfareStepSolver(r_out, m0, mask), a_in, budget)
        assert res.path == "dual"
        np.testing.assert_array_equal(res.matrix[~mask], m0[~mask])
        ref = epigraph_lp(r_out, a_in, m0, mask, budget, None)
        assert res.objective == pytest.approx(ref.objective, abs=1e-9)

    def test_weighted_costs_take_the_dual_step(self):
        r_out, _, m0, mask, weights = random_step(3, 2, weighted=True)
        solver = WelfareStepSolver(r_out, m0, mask, weights)
        res = solve_maximin_step(solver, np.eye(2), 0.5)
        assert res.path == "dual"
        ref = epigraph_lp(r_out, np.eye(2), m0, mask, 0.5, weights)
        assert res.objective == pytest.approx(ref.objective, abs=1e-9)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(weighted_two_population_steps())
    def test_weighted_matches_lp_and_is_feasible(self, step):
        r_out, a_in, m0, mask, budget, weights = step
        solver = WelfareStepSolver(r_out, m0, mask, weights)
        res = solve_maximin_step(solver, a_in, budget)
        assert res.path in ("dual", "initial")
        ref = welfare_step_by_linprog(r_out, a_in, m0, mask, budget, weights)
        assert res.objective == pytest.approx(ref, abs=1e-7)
        lp = epigraph_lp(r_out, a_in, m0, mask, budget, weights)
        assert res.objective >= lp.objective - 1e-9
        m = res.matrix
        np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(m >= 0.0) and np.all(m <= 1.0)
        assert float((weights * np.abs(m - m0)).sum()) <= budget + 1e-9
        np.testing.assert_array_equal(m[~mask], m0[~mask])
        assert res.objective == float(((r_out @ m) @ a_in.T).min())


class TestGameStep:
    """The LP-free step for three or more populations against the epigraph LP."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(many_population_steps())
    def test_matches_lp_and_is_feasible(self, step):
        r_out, a_in, m0, mask, budget, weights = step
        res = solve_maximin_step(WelfareStepSolver(r_out, m0, mask, weights), a_in, budget)
        ref = epigraph_lp(r_out, a_in, m0, mask, budget, weights)
        assert res.path in ("game", "initial")
        tol = 1e-9 * max(1.0, float(np.abs(r_out).max()))
        assert res.objective >= ref.objective - tol
        assert res.objective == pytest.approx(ref.objective, abs=tol)
        m = res.matrix
        np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(m >= 0.0) and np.all(m <= 1.0)
        w = np.ones_like(m0) if weights is None else weights
        assert float((w * np.abs(m - m0)).sum()) <= budget + 1e-12 * w.max()
        np.testing.assert_array_equal(m[~mask], m0[~mask])
        assert res.objective == float(((r_out @ m) @ a_in.T).min())

    def test_three_populations_need_a_mix(self):
        # Three populations on their own nodes: every greedy matrix spends
        # the whole budget on one column, so only the game's mix attains 1/6.
        r_out = np.array([1.0, 0.0])
        m0 = np.array([[0.0] * 3, [1.0] * 3])
        solver = WelfareStepSolver(r_out, m0, np.ones_like(m0, dtype=bool))
        res = solve_maximin_step(solver, np.eye(3), 1.0)
        assert res.path == "game"
        assert res.objective == pytest.approx(1 / 6, abs=1e-15)


class TestCostModel:
    def test_self_cost_zero(self):
        m = rng.random((3, 3))
        cm = po.CostModel("l1")
        assert cm.layer_cost(0, m, m) == 0.0

    def test_weighted_scaling(self):
        m0 = np.array([[0.0], [1.0]])
        m = np.array([[0.5], [0.5]])
        cm = po.CostModel("weighted_l1", (np.full((2, 1), 2.0),))
        assert cm.layer_cost(0, m, m0) == pytest.approx(2.0)

    def test_weighted_dominates_scaled_l1(self):
        weights = rng.uniform(0.5, 3.0, size=(3, 3))
        cm = po.CostModel("weighted_l1", (weights,))
        for _ in range(20):
            a, b = rng.random((3, 3)), rng.random((3, 3))
            l1 = po.CostModel("l1").layer_cost(0, a, b)
            assert cm.layer_cost(0, a, b) >= weights.min() * l1 - 1e-12

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            po.CostModel("weighted_l1", (np.zeros((2, 2)),))
