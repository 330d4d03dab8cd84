"""Welfare dynamic program vs the grid oracle."""

import time

import numpy as np
import pytest

import pipeopt as po
from pipeopt import dp_welfare
from pipeopt.errors import CapacityError
from pipeopt.layerlp import WelfareStepSolver, solve_maximin_step
from pipeopt.oracle import GridPlanTable

rng = np.random.default_rng(77)


def split_restricted_max(instance, table: GridPlanTable, eps: float) -> float:
    """Best grid welfare when per-layer spending is billed in eps blocks.

    Supports at most two transitions: a plan's units are its first
    transition's units plus those of the rest.
    """
    assert len(table.layers) <= 2
    first_costs = table.layers[0][1]
    best = -np.inf
    for vals, key in table.blocks():
        _, first, units = table.lookup(key, np.arange(len(vals)))
        first_units = first_costs[first]
        per_layer = np.stack([first_units, units - first_units], axis=1) * table.eta
        billed = np.ceil(per_layer / eps - 1e-9) * eps
        feasible = billed.sum(axis=1) <= instance.budget + 1e-9
        if feasible.any():
            scores = vals @ instance.initial_distribution
            best = max(best, float(scores[feasible].max()))
    return best


class TestClosedForms:
    def test_two_layer_contrast_is_exact(self):
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        t0 = time.perf_counter()
        report, plan = po.solve_social_welfare(inst, 0.05)
        assert time.perf_counter() - t0 < 1.0
        assert report.objective_value == pytest.approx(0.40, abs=1e-9)
        assert po.plan_violations(inst, plan) == []
        np.testing.assert_allclose(plan.matrices[0][:, 0], [0.5, 0.5], atol=1e-9)

    def test_zero_budget(self):
        inst = po.random_instance(1, 3, 4, 1.0, 0.0)
        report, plan = po.solve_social_welfare(inst, 0.1)
        assert report.objective_value == pytest.approx(po.initial_welfare(inst), abs=1e-9)
        assert plan.total_cost(inst) == pytest.approx(0.0, abs=1e-12)


class TestGuarantee:
    @pytest.mark.parametrize("depth", [2, 3])
    def test_dp_tracks_oracle(self, depth):
        eps, eta = 0.1, 0.05
        for seed in range(4):
            inst = po.random_instance(100 + seed, 2, depth, 1.0, 1.0)
            oracle_value, _ = po.oracle_welfare(inst, eta)
            report, plan = po.solve_social_welfare(inst, eps)
            slack = 3 * (depth - 1) * eps * inst.reward_sup
            assert report.objective_value >= oracle_value - slack - 1e-12
            assert po.plan_violations(inst, plan) == []

    def test_masked_instances(self):
        for seed in range(3):
            inst = po.random_instance(200 + seed, 2, 3, 0.5, 0.8)
            oracle_value, _ = po.oracle_welfare(inst, 0.05)
            report, _ = po.solve_social_welfare(inst, 0.1)
            assert report.objective_value >= oracle_value - 0.6 - 1e-12

    def test_never_exceeds_analytic_ceiling(self):
        for seed in range(5):
            inst = po.random_instance(300 + seed, 3, 3, 1.0, 0.8)
            report, _ = po.solve_social_welfare(inst, 0.25)
            assert report.objective_value <= po.welfare_upper_bound(inst) + 1e-6

    def test_budget_split_discretization_loss(self):
        # Billing layer budgets in eps blocks costs at most (k-1)*eps of
        # value on the eta grid (eta <= eps/2 keeps the rounding argument
        # exact).
        eps, eta = 0.1, 0.05
        for seed in range(3):
            inst = po.random_instance(400 + seed, 2, 3, 1.0, 1.0)
            full, _ = po.oracle_welfare(inst, eta)
            restricted = split_restricted_max(inst, GridPlanTable(inst, eta), eps)
            slack = (inst.depth - 1) * eps * inst.reward_sup
            assert restricted >= full - slack - 1e-12

    def test_two_layer_contrast_split_loss_is_zero(self):
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        table = GridPlanTable(inst, 0.05)
        assert split_restricted_max(inst, table, 0.1) == pytest.approx(0.40, abs=1e-12)


class TestBestResponse:
    def test_point_mass_targets_one_population(self):
        inst = po.random_instance(17, 2, 3, 1.0, 0.8)
        table = GridPlanTable(inst, 0.05)
        dp = po.WelfareDP(inst, 0.1)
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1.0
            _, plan = dp.solve_for(e)
            value = float(po.evaluate_population_rewards(inst, plan)[j])
            best_j, _ = table.reduce_best(lambda v: v[:, j],
                                          lambda v: np.zeros(len(v)))
            assert value >= best_j - 0.6 - 1e-12

    def test_instance_distribution_matches_solver(self):
        inst = po.random_instance(18, 2, 3, 1.0, 1.0)
        report, plan = po.solve_social_welfare(inst, 0.1)
        _, again = po.WelfareDP(inst, 0.1).solve_for(inst.initial_distribution)
        for a, b in zip(again.matrices, plan.matrices):
            np.testing.assert_array_equal(a, b)
        assert po.welfare(inst, again) == report.objective_value


class TestReportAndCaps:
    def test_report_consistency(self):
        inst = po.random_instance(21, 2, 3, 1.0, 1.0)
        report, plan = po.solve_social_welfare(inst, 0.1)
        np.testing.assert_array_equal(report.per_population_rewards,
                                      po.evaluate_population_rewards(inst, plan))
        assert report.objective_value == po.welfare(inst, plan)
        assert report.budget_used <= inst.budget + 1e-9
        assert report.solver_meta["epsilon"] == 0.1
        assert report.solver_meta["cells"] > 0

    def test_per_layer_profile(self):
        inst = po.random_instance(24, 3, 4, 1.0, 1.0)
        dp = po.WelfareDP(inst, 0.3)
        profile = dp.meta()["profile"]
        assert sorted(profile) == [1, 2]
        assert sum(p["cells"] for p in profile.values()) == dp.meta()["cells"]
        g = len(dp.grid)
        # The terminal layer prices each cell once; the layer above prices
        # each cell against every group at or below its budget index.
        assert profile[2]["priced_pairs"] == profile[2]["cells"]
        n = len(dp._table[1])
        assert profile[1]["priced_pairs"] == sum(
            n * (g - b_next) for b_next in dp._candidates[1].budget)
        for t, p in profile.items():
            # Layer t's groups are the candidates of the layer above.
            assert p["groups"] == len(dp._candidates[t - 1].cell)
            assert 0 < p["groups"] <= p["cells"]

    def test_cells_cap(self):
        inst = po.random_instance(22, 3, 4, 1.0, 1.0)
        with pytest.raises(CapacityError):
            po.solve_social_welfare(inst, 0.01, cells_cap=1000)

    def test_bad_epsilon(self):
        inst = po.random_instance(23, 2, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            po.solve_social_welfare(inst, 0.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    @pytest.mark.parametrize("dp", [po.WelfareDP, po.MaximinDP])
    def test_non_finite_epsilon_named(self, dp, eps):
        inst = po.random_instance(23, 2, 3, 1.0, 1.0)
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            dp(inst, eps)

    @pytest.mark.parametrize("dp", [po.WelfareDP, po.MaximinDP])
    def test_cells_cap_checked_before_budget_grid(self, dp, monkeypatch):
        # The refusal needs only the grid's size, never the grid itself.
        def no_grid(*args):
            raise AssertionError("budget grid built before the cell cap check")

        monkeypatch.setattr(dp_welfare, "build_budget_grid", no_grid)
        inst = po.random_instance(22, 3, 4, 1.0, 1.0)
        with pytest.raises(CapacityError):
            dp(inst, 1e-7)

    @pytest.mark.parametrize("d1", [
        [float("nan"), 1.0], [float("inf"), 0.0], [2.0, -1.0],
        [0.5, 0.25, 0.25], [[0.5, 0.5]], 1.0,
    ], ids=["nan", "inf", "negative", "too-long", "2-d", "scalar"])
    def test_solve_for_refuses_bad_start(self, d1):
        dp = po.WelfareDP(po.random_instance(23, 2, 3, 1.0, 1.0), 0.25)
        with pytest.raises(ValueError, match="d1"):
            dp.solve_for(d1)


def _weighted(inst, seed):
    """`inst` with random per-edge cost weights in [0.5, 2]."""
    gen = np.random.default_rng(seed)
    weights = tuple(gen.uniform(0.5, 2.0, m.shape) for m in inst.initial_matrices)
    return po.make_instance(
        inst.layer_sizes, inst.initial_matrices, inst.rewards,
        inst.initial_distribution, inst.budget, inst.malleable,
        cost_model=po.CostModel("weighted_l1", weights),
    )


def _narrow(seed, budget):
    """Layers (2, 1, 3, 2).  The one-node layer has one cell per budget
    index, so the first layer has one candidate per budget index, and past
    saturation consecutive ones tie inside one query block."""
    gen = np.random.default_rng(seed)
    mats = []
    for rows, cols in [(1, 2), (3, 1), (2, 3)]:
        raw = gen.uniform(0.05, 1.0, (rows, cols))
        mats.append(raw / raw.sum(axis=0))
    return po.make_instance((2, 1, 3, 2), mats, (1.0, 0.3), (0.5, 0.5), budget)


def _wide(seed, budget):
    """Layers (2, 3, 3): a two-population maximin whose built rows have
    three columns, so several greedy-order crossings."""
    gen = np.random.default_rng(seed)
    mats = []
    for rows, cols in [(3, 2), (3, 3)]:
        raw = gen.uniform(0.05, 1.0, (rows, cols))
        mats.append(raw / raw.sum(axis=0))
    return po.make_instance((2, 3, 3), mats, (1.0, 0.6, 0.1), (0.5, 0.5), budget)


def reference_scan(dp, t, a_in, bi, solvers):
    """One cell priced candidate by candidate with the scalar step solvers.

    Returns (value, winning candidate index, its matrix); the first strict
    `>` in candidate order wins.  `solvers` caches welfare step solvers per
    continuation.
    """
    inst = dp.instance
    m0, mask = inst.initial_matrices[t], inst.malleable[t]
    weights = inst.cost_model.layer_weights(t)
    best = (-np.inf, -1, None)
    for c, (b_next, next_cell, r_out) in enumerate(zip(*dp._candidates[t])):
        if b_next > bi:
            break
        budget = float(dp.grid[bi] - dp.grid[b_next])
        if isinstance(dp, po.MaximinDP):
            # A fresh solver per step, against the DP's one per continuation.
            res = solve_maximin_step(WelfareStepSolver(r_out, m0, mask, weights),
                                     a_in, budget)
            value, matrix = res.objective, res.matrix
        else:
            if (t, next_cell) not in solvers:
                solvers[t, next_cell] = WelfareStepSolver(r_out, m0, mask, weights)
            value, matrix = solvers[t, next_cell].value(a_in[0], budget), None
        if value > best[0]:
            best = (value, c, matrix)
    value, c, matrix = best
    if matrix is None:
        b_next, next_cell = dp._candidates[t].budget[c], dp._candidates[t].cell[c]
        budget = float(dp.grid[bi] - dp.grid[b_next])
        matrix = solvers[t, next_cell].solve(a_in[0], budget).matrix
    return value, c, matrix


class TestBlockBuild:
    """Every built cell, and the query, against a per-cell scalar scan."""

    @pytest.mark.parametrize("block_rows, make", [
        (None, lambda: po.WelfareDP(po.random_instance(31, 3, 4, 1.0, 1.0), 0.3)),
        (None, lambda: po.WelfareDP(po.random_instance(32, 2, 5, 0.6, 1.3), 0.25)),
        (None, lambda: po.WelfareDP(_weighted(po.random_instance(33, 2, 3, 1.0, 0.6), 33),
                                    0.3)),
        (None, lambda: po.MaximinDP(po.random_instance(34, 2, 4, 1.0, 1.0), 0.5)),
        (None, lambda: po.MaximinDP(
            _weighted(po.random_instance(35, 2, 3, 0.7, 0.8), 35), 0.5)),
        # Budgets past saturation make different candidates tie exactly;
        # the lowest budget index must win, as in the scan.
        (None, lambda: po.WelfareDP(po.random_instance(36, 2, 4, 1.0, 4.0), 0.5)),
        (None, lambda: po.MaximinDP(po.random_instance(37, 2, 4, 1.0, 3.0), 0.5)),
        # Blocks of at most 3 rows, (candidate, row, budget) triples or
        # cells split candidate chunks and row blocks mid-run, and mix
        # winners in one solve.
        (3, lambda: po.WelfareDP(po.random_instance(31, 3, 4, 1.0, 1.0), 0.3)),
        (3, lambda: po.WelfareDP(_weighted(po.random_instance(33, 2, 3, 1.0, 0.6), 33),
                                 0.3)),
        (3, lambda: po.WelfareDP(po.random_instance(36, 2, 4, 1.0, 4.0), 0.5)),
        (3, lambda: po.MaximinDP(po.random_instance(37, 2, 4, 1.0, 3.0), 0.5)),
        (3, lambda: po.WelfareDP(_narrow(38, 3.0), 0.3)),
        (None, lambda: po.MaximinDP(
            _weighted(po.random_instance(39, 2, 4, 1.0, 1.0), 39), 0.25)),
        (None, lambda: po.MaximinDP(_wide(40, 1.0), 0.5)),
    ], ids=["welfare", "welfare-masked", "welfare-weighted", "maximin",
            "maximin-weighted", "welfare-ties", "maximin-ties", "welfare-blocks3",
            "welfare-weighted-blocks3", "welfare-ties-blocks3", "maximin-ties-blocks3",
            "welfare-narrow-blocks3", "maximin-weighted-depth4", "maximin-233"])
    def test_cells_match_scalar_scan(self, block_rows, make, monkeypatch):
        if block_rows is not None:
            monkeypatch.setattr(dp_welfare, "_BLOCK_ROWS", block_rows)
        # Each built layer's cell value vectors, as the build hands them on.
        built = {}
        group_layer = dp_welfare.BackwardDP._group_layer

        def recording(dp, t, rvec):
            built[t] = rvec
            return group_layer(dp, t, rvec)

        monkeypatch.setattr(dp_welfare.BackwardDP, "_group_layer", recording)
        dp = make()
        g = len(dp.grid)
        solvers = {}
        for t, rvec in built.items():
            table = dp._table[t]
            assert len(rvec) == len(table) * g
            for cell in range(len(rvec)):
                row, bi = divmod(cell, g)
                a_in = dp.nets[t][table[row]]
                _, c, m = reference_scan(dp, t, a_in, bi, solvers)
                assert c == dp._choice[t][cell]
                assert np.array_equal(rvec[cell], dp._candidates[t].value[c] @ m)
        # A query prices its first-layer cell at the top budget index.
        if isinstance(dp, po.MaximinDP):
            starts = [np.eye(dp.pops)]
            queries = [dp.solve()]
        else:
            w = dp.instance.layer_sizes[0]
            zeros = np.zeros(w)
            zeros[-1] = 1.0
            starts = [row[None, :] for row in (
                np.full(w, 1.0 / w), np.random.default_rng(w).dirichlet(np.ones(w)),
                zeros)]
            queries = [dp.solve_for(a[0]) for a in starts]
        for a_in, (value, plan) in zip(starts, queries):
            ref_value, c, ref_matrix = reference_scan(dp, 0, a_in, g - 1, solvers)
            assert value == ref_value
            assert np.array_equal(plan.matrices[0], ref_matrix)
            # The same winner: tied candidates differ in the budget they pass on.
            b_next = dp._candidates[0].budget[c]
            assert plan.budget_split[0] == float(dp.grid[-1] - dp.grid[b_next])


class TestWeightedCosts:
    def test_uniformly_doubled_weights_match_halved_budget(self):
        # Charging 2 per unit of mass with twice the budget is the unit-cost
        # problem in disguise; grids are scaled to match.
        base = po.random_instance(44, 2, 3, 1.0, 1.0)
        weights = tuple(np.full_like(m, 2.0) for m in base.initial_matrices)
        doubled = po.make_instance(
            base.layer_sizes, base.initial_matrices, base.rewards,
            base.initial_distribution, 2.0, base.malleable,
            cost_model=po.CostModel("weighted_l1", weights),
        )
        ref, _ = po.solve_social_welfare(base, 0.1)
        got, plan = po.solve_social_welfare(doubled, 0.2)
        assert got.objective_value == pytest.approx(ref.objective_value, abs=1e-7)
        assert po.plan_violations(doubled, plan) == []

    def test_weighted_maximin(self):
        inst = po.fairness_price_instance(3, 0.1, 2.0)
        weights = tuple(np.full_like(m, 2.0) for m in inst.initial_matrices)
        weighted = po.make_instance(
            inst.layer_sizes, inst.initial_matrices, inst.rewards,
            inst.initial_distribution, 2.0, inst.malleable,
            cost_model=po.CostModel("weighted_l1", weights),
        )
        report, plan = po.solve_expost_maximin(weighted, 0.1)
        assert report.objective_value == pytest.approx(1 / 6, abs=1e-7)
        assert plan.total_cost(weighted) <= 2.0 + 1e-7
