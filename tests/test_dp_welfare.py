"""Welfare dynamic program vs the grid oracle."""

import time

import numpy as np
import pytest

import pipeopt as po
from pipeopt.errors import CapacityError
from pipeopt.oracle import GridPlanTable

rng = np.random.default_rng(77)


def split_restricted_max(instance, table: GridPlanTable, eps: float) -> float:
    """Best grid welfare when per-layer spending is billed in eps blocks."""
    per_layer = table.layer_units() * table.eta
    billed = np.ceil(per_layer / eps - 1e-9) * eps
    feasible = billed.sum(axis=1) <= instance.budget + 1e-9
    return float(table.welfare_scores()[feasible].max())


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
            table = GridPlanTable(inst, eta)
            full = float(table.welfare_scores().max())
            restricted = split_restricted_max(inst, table, eps)
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
            best_j = float(table.values[:, j].max())
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

    def test_cells_cap(self):
        inst = po.random_instance(22, 3, 4, 1.0, 1.0)
        with pytest.raises(CapacityError):
            po.solve_social_welfare(inst, 0.01, cells_cap=1000)

    def test_bad_epsilon(self):
        inst = po.random_instance(23, 2, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            po.solve_social_welfare(inst, 0.0)


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
