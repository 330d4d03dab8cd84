"""Maximin dynamic program vs the grid oracle."""

import numpy as np
import pytest

import pipeopt as po
from pipeopt.errors import CapacityError

rng = np.random.default_rng(88)


class TestClosedForms:
    @pytest.mark.parametrize("eps", [0.05, 0.25, 0.5])
    def test_two_layer_contrast_even_split(self, eps):
        # Single-transition networks collapse to one LP; any step dividing
        # the budget keeps the whole budget on the grid and the answer exact.
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        report, plan = po.solve_expost_maximin(inst, eps)
        assert report.objective_value == pytest.approx(1 / 6, abs=1e-7)
        assert po.plan_violations(inst, plan) == []

    def test_budget_grid_floor(self):
        # A step that does not divide the budget rounds it down to the grid:
        # with B=1 and eps=0.3 only 0.9 is spendable, worth 0.9/(2w).
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        report, _ = po.solve_expost_maximin(inst, 0.3)
        assert report.objective_value == pytest.approx(0.9 / 6, abs=1e-7)

    def test_zero_budget(self):
        inst = po.random_instance(31, 2, 3, 1.0, 0.0)
        report, _ = po.solve_expost_maximin(inst, 0.1)
        initial = po.maximin_value(inst, po.zero_budget_plan(inst))
        assert report.objective_value == pytest.approx(initial, abs=1e-9)


class TestGuarantee:
    @pytest.mark.parametrize("depth", [2, 3])
    def test_dp_tracks_oracle(self, depth):
        eps, eta = 0.1, 0.05
        for seed in range(3):
            inst = po.random_instance(500 + seed, 2, depth, 1.0, 1.0)
            oracle_value, _ = po.oracle_expost_maximin(inst, eta)
            report, plan = po.solve_expost_maximin(inst, eps)
            slack = 3 * (depth - 1) * eps * inst.reward_sup
            assert report.objective_value >= oracle_value - slack - 1e-12
            assert po.plan_violations(inst, plan) == []

    def test_all_malleable_floors(self):
        # Degraded analytic floors: the approximate optimum keeps at least
        # min(1, B/2w) of the top reward minus the approximation slack, and
        # its welfare cannot fall below the initial welfare by more than the
        # slack.
        eps = 0.1
        for seed in range(4):
            inst = po.random_instance(600 + seed, 2, 3, 1.0, 1.0)
            report, plan = po.solve_expost_maximin(inst, eps)
            slack = 3 * (inst.depth - 1) * eps * inst.reward_sup
            floor = po.maximin_lower_bound(inst)
            assert report.objective_value >= floor - slack - 1e-9
            assert po.welfare(inst, plan) >= po.initial_welfare(inst) - slack - 1e-9

    def test_delegates_single_population(self):
        inst = po.make_instance(
            (1, 2, 2),
            (np.array([[0.3], [0.7]]), np.array([[0.8, 0.1], [0.2, 0.9]])),
            rewards=(1.0, 0.2),
            initial_distribution=(1.0,),
            budget=0.5,
        )
        m_report, _ = po.solve_expost_maximin(inst, 0.1)
        w_report, _ = po.solve_social_welfare(inst, 0.1)
        assert m_report.objective_value == pytest.approx(
            w_report.objective_value, abs=1e-9
        )
        assert m_report.solver_meta.get("delegated")


class TestReportAndCaps:
    def test_report_consistency(self):
        inst = po.random_instance(35, 2, 3, 1.0, 0.5)
        report, plan = po.solve_expost_maximin(inst, 0.2)
        assert report.consistent("maximin")
        assert report.budget_used <= inst.budget + 1e-9

    def test_step_paths_counted(self):
        # Two populations with unit costs never reach the LP; weighted costs
        # always do.  Zero-budget steps return the initial matrix unsolved.
        inst = po.random_instance(35, 2, 3, 1.0, 0.5)
        report, _ = po.solve_expost_maximin(inst, 0.25)
        calls = report.solver_meta["step_calls"]
        assert calls["lp"] == 0 and calls["dual"] > 0 and calls["initial"] > 0
        weights = tuple(np.full_like(m, 1.5) for m in inst.initial_matrices)
        weighted = po.make_instance(
            inst.layer_sizes, inst.initial_matrices, inst.rewards,
            inst.initial_distribution, inst.budget, inst.malleable,
            cost_model=po.CostModel("weighted_l1", weights),
        )
        w_report, _ = po.solve_expost_maximin(weighted, 0.25)
        assert w_report.solver_meta["step_calls"]["dual"] == 0
        assert w_report.solver_meta["step_calls"]["lp"] > 0

    def test_cells_cap(self):
        inst = po.random_instance(36, 3, 3, 1.0, 1.0)
        with pytest.raises(CapacityError):
            po.solve_expost_maximin(inst, 0.05, cells_cap=500)
