"""Analytic bounds and plan audits."""

import numpy as np
import pytest

import pipeopt as po

rng = np.random.default_rng(55)


class TestWelfareUpperBound:
    def test_zero_budget_is_initial_welfare(self):
        inst = po.random_instance(1, 2, 3, 1.0, 0.0)
        assert po.welfare_upper_bound(inst) == pytest.approx(
            po.initial_welfare(inst), abs=1e-12
        )

    def test_dead_start_half_budget(self):
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        assert po.welfare_upper_bound(inst) == pytest.approx(0.5)

    def test_large_budget_caps_at_top_reward(self):
        inst = po.fairness_price_instance(3, 0.1, 50.0)
        assert po.welfare_upper_bound(inst) == pytest.approx(1.0)


class TestMaximinLowerBound:
    def test_fair_even_split(self):
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        assert po.maximin_lower_bound(inst) == pytest.approx(1 / 6)

    def test_budget_beyond_saturation(self):
        inst = po.fairness_price_instance(3, 0.1, 7.0)
        assert po.maximin_lower_bound(inst) == pytest.approx(1.0)

    def test_requires_full_malleability(self):
        inst = po.separation_instance(0.5)
        with pytest.raises(ValueError):
            po.maximin_lower_bound(inst)


class TestFairnessPriceBracket:
    def test_contrast_instance_bracket(self):
        inst = po.fairness_price_instance(3, 0.01, 1.0)
        lower, upper, cert = po.price_of_fairness_bracket(inst, 0.05)
        assert upper == pytest.approx(4.0)  # width + 1
        assert 2.8 <= cert.empirical_ratio <= 4.0
        assert cert.empirical_ratio == pytest.approx(0.49 / (1 / 6), abs=1e-6)
        assert lower <= cert.empirical_ratio

    def test_saturated_budget_collapses_to_one(self):
        inst = po.fairness_price_instance(3, 0.01, 6.0)
        _, upper, cert = po.price_of_fairness_bracket(inst, 0.05)
        assert upper == pytest.approx(1.0)
        assert cert.empirical_ratio == pytest.approx(1.0, abs=1e-6)

    def test_middle_budget_case(self):
        assert po.fairness_price_upper_bound(3, 4.0) == pytest.approx(1.5)
        assert po.fairness_price_upper_bound(3, 1.0) == pytest.approx(4.0)
        assert po.fairness_price_upper_bound(3, 8.0) == pytest.approx(1.0)

    def test_requires_full_malleability(self):
        inst = po.separation_instance(0.5)
        with pytest.raises(ValueError):
            po.price_of_fairness_bracket(inst, 0.1)


def _uniform_weights(inst, weight):
    """`inst` with every edge's cost weight set to `weight`."""
    weights = tuple(np.full_like(m, weight) for m in inst.initial_matrices)
    return po.make_instance(
        inst.layer_sizes, inst.initial_matrices, inst.rewards,
        inst.initial_distribution, inst.budget, inst.malleable,
        cost_model=po.CostModel("weighted_l1", weights),
    )


class TestWeightedCostBounds:
    """The bounds scale the budget by the cheapest or dearest edge weight."""

    def test_cheap_edges_raise_the_ceiling(self):
        # Weight 0.25 turns budget 0.4 into 1.6 of change: the welfare DP
        # reaches 0.64, above the unit-cost ceiling 0.2 but not the 0.8 here.
        inst = _uniform_weights(po.fairness_price_instance(3, 0.1, 0.4), 0.25)
        report, plan = po.solve_social_welfare(inst, 0.05)
        assert report.objective_value == pytest.approx(0.64, abs=1e-9)
        assert po.welfare_upper_bound(inst) == pytest.approx(0.8, abs=1e-12)
        checks = {c.name: c for c in po.check_plan_bounds(inst, plan)}
        assert checks["welfare_upper_bound"].passed

    def test_dear_edges_lower_the_floor(self):
        # Weight 4 turns budget 0.4 into 0.1 of change, shared by three
        # populations: 1/60, which the maximin DP attains, not 1/15.
        inst = _uniform_weights(po.fairness_price_instance(3, 0.1, 0.4), 4.0)
        report, _ = po.solve_expost_maximin(inst, 0.05)
        assert report.objective_value == pytest.approx(1 / 60, abs=1e-9)
        assert po.maximin_lower_bound(inst) == pytest.approx(1 / 60, abs=1e-12)
        assert report.objective_value >= po.maximin_lower_bound(inst) - 1e-9

    def test_fairness_bracket_refuses_weighted_costs(self):
        inst = _uniform_weights(po.fairness_price_instance(3, 0.1, 0.4), 2.0)
        with pytest.raises(ValueError, match="unit"):
            po.price_of_fairness_bracket(inst, 0.05)


class TestPlanAudits:
    def test_zero_budget_plan_passes_upper_bound(self):
        inst = po.random_instance(6, 2, 3, 1.0, 1.0)
        checks = po.check_plan_bounds(inst, po.zero_budget_plan(inst))
        by_name = {c.name: c for c in checks}
        assert by_name["welfare_upper_bound"].passed
        margin = by_name["welfare_upper_bound"].rhs - by_name["welfare_upper_bound"].lhs
        assert margin == pytest.approx(
            min(inst.budget / 2 * inst.reward_sup,
                inst.reward_sup - po.initial_welfare(inst)),
            abs=1e-9,
        )

    def test_exact_oracle_maximin_plan_audits(self):
        eta = 0.1
        for seed in range(5):
            inst = po.random_instance(700 + seed, 2, 2, 1.0, 1.0)
            _, plan = po.oracle_expost_maximin(inst, eta)
            checks = po.check_plan_bounds(inst, plan, exact_maximin=True,
                                          grid_step=eta)
            for check in checks:
                assert check.passed, (seed, check)

    def test_inapplicable_checks_flagged(self):
        inst = po.random_instance(8, 2, 2, 1.0, 1.0)
        checks = po.check_plan_bounds(inst, po.zero_budget_plan(inst))
        by_name = {c.name: c for c in checks}
        assert not by_name["full_budget_spend"].applicable
        assert not by_name["initial_welfare_floor"].applicable

    def test_infeasible_plan_rejected(self):
        inst = po.fairness_price_instance(2, 0.3, 0.1)
        m = np.array([[0.5, 0.0], [0.5, 1.0]])
        bad = po.InterventionPlan(matrices=(m,), budget_split=(1.0,))
        with pytest.raises(ValueError):
            po.check_plan_bounds(inst, bad)
