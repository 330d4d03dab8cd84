"""Core model: validation, cost, evaluation, mixtures."""

import warnings

import numpy as np
import pytest

import pipeopt as po

TOL = 1e-9
L1 = po.CostModel("l1")
rng = np.random.default_rng(20240817)


def random_plan(instance, rng, spend=0.0):
    """A feasible plan moving up to `spend` mass toward random targets."""
    mats, split = [], []
    remaining = spend
    for t, (m0, mask) in enumerate(zip(instance.initial_matrices, instance.malleable)):
        m = m0.copy()
        used = 0.0
        for u in range(m.shape[1]):
            free = np.flatnonzero(mask[:, u])
            if len(free) < 2 or remaining <= 0:
                continue
            src, dst = rng.choice(free, size=2, replace=False)
            amount = min(m[src, u], remaining / 2, rng.uniform(0, 0.3))
            m[src, u] -= amount
            m[dst, u] += amount
            used += 2 * amount
            remaining -= 2 * amount
        mats.append(m)
        split.append(used)
    return po.InterventionPlan(matrices=tuple(mats), budget_split=tuple(split))


class TestValidate:
    def test_identity_instance_is_valid(self):
        inst = po.make_instance(
            layer_sizes=(2, 2),
            initial_matrices=(np.eye(2),),
            rewards=(1.0, 0.0),
            initial_distribution=(0.5, 0.5),
            budget=1.0,
        )
        assert po.validate_instance(inst) == []

    def test_column_sum_violation_names_location(self):
        m = np.array([[0.5, 0.0], [0.4, 1.0]])  # column 0 sums to 0.9
        inst = po.make_instance((2, 2), (m,), (1.0, 0.0), (0.5, 0.5), 1.0)
        violations = po.validate_instance(inst)
        assert len(violations) == 1
        assert "transition 0 column 0" in violations[0]
        assert "-0.1" in violations[0]

    def test_zero_initial_mass_rejected(self):
        inst = po.make_instance((2, 2), (np.eye(2),), (1.0, 0.0), (1.0, 0.0), 1.0)
        violations = po.validate_instance(inst)
        assert any("not strictly positive" in v for v in violations)

    def test_generated_instances_are_valid(self):
        for seed in range(5):
            inst = po.random_instance(seed, 3, 4, 0.7, 1.0)
            assert po.validate_instance(inst) == []


class TestCost:
    """Unit (l1) costs: total absolute probability mass moved."""

    def test_zero_for_identical(self):
        m = rng.random((3, 3))
        assert L1.layer_cost(0, m, m) == 0.0

    def test_full_budget_column(self):
        m0 = np.array([[0.0], [1.0]])
        m = np.array([[0.5], [0.5]])
        assert L1.layer_cost(0, m, m0) == pytest.approx(1.0, abs=TOL)

    def test_matches_double_loop(self):
        for _ in range(20):
            a, b = rng.random((3, 3)), rng.random((3, 3))
            direct = sum(
                abs(a[i, j] - b[i, j]) for i in range(3) for j in range(3)
            )
            assert L1.layer_cost(0, a, b) == pytest.approx(direct, abs=1e-12)
            assert L1.layer_cost(0, a, b) == pytest.approx(
                L1.layer_cost(0, b, a), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            L1.layer_cost(0, np.eye(2), np.eye(3))


class TestEvaluation:
    def test_zero_budget_on_dead_network(self):
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        rewards = po.evaluate_population_rewards(inst, po.zero_budget_plan(inst))
        np.testing.assert_allclose(rewards, [0.0, 0.0, 0.0], atol=TOL)

    def test_identity_chain_transports_rewards(self):
        inst = po.make_instance(
            (2, 2, 2), (np.eye(2), np.eye(2)), (5.0, 2.0), (0.5, 0.5), 0.0
        )
        rewards = po.evaluate_population_rewards(inst, po.zero_budget_plan(inst))
        np.testing.assert_allclose(rewards, [5.0, 2.0], atol=TOL)

    def test_matches_explicit_chain_product(self):
        # Backward vector products agree with the naive full chain product.
        for seed in range(10):
            w = int(rng.integers(2, 5))
            k = int(rng.integers(2, 6))
            inst = po.random_instance(seed, w, k, 1.0, 1.0)
            plan = random_plan(inst, rng, spend=0.5)
            chain = plan.matrices[0]
            for m in plan.matrices[1:]:
                chain = m @ chain
            expected = inst.rewards @ chain
            got = po.evaluate_population_rewards(inst, plan)
            np.testing.assert_allclose(got, expected, atol=TOL)

    def test_welfare_closed_form(self):
        # Optimal single-column plan on the two-layer contrast network.
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        m = np.array([[0.5, 0.0, 0.0], [0.5, 1.0, 1.0]])
        plan = po.InterventionPlan(matrices=(m,), budget_split=(1.0,))
        assert po.plan_violations(inst, plan) == []
        assert po.welfare(inst, plan) == pytest.approx(0.40, abs=TOL)

    def test_welfare_is_distribution_dot_rewards(self):
        inst = po.random_instance(3, 3, 3, 1.0, 1.0)
        plan = random_plan(inst, rng, spend=0.4)
        rewards = po.evaluate_population_rewards(inst, plan)
        assert po.welfare(inst, plan) == pytest.approx(
            float(rewards @ inst.initial_distribution), abs=TOL
        )

    def test_maximin_even_split_plan(self):
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        m = np.array([[1 / 6] * 3, [5 / 6] * 3])
        plan = po.InterventionPlan(matrices=(m,), budget_split=(1.0,))
        assert po.maximin_value(inst, plan) == pytest.approx(1 / 6, abs=TOL)

    def test_maximin_uniform_rewards(self):
        inst = po.make_instance(
            (2, 2), (np.eye(2),), (0.7, 0.7), (0.5, 0.5), 1.0
        )
        plan = random_plan(inst, rng, spend=0.8)
        assert po.maximin_value(inst, plan) == pytest.approx(0.7, abs=TOL)

    def test_maximin_is_min_of_populations(self):
        inst = po.random_instance(11, 3, 3, 1.0, 1.0)
        plan = random_plan(inst, rng, spend=0.5)
        rewards = po.evaluate_population_rewards(inst, plan)
        assert po.maximin_value(inst, plan) == pytest.approx(min(rewards), abs=TOL)


class TestMixed:
    def separation_single_path_plans(self, budget=0.6):
        inst = po.separation_instance(budget)
        b = budget / 6
        plans = []
        for path in (0, 1):  # upper path favors population 0, lower 1
            mats = [m.copy() for m in inst.initial_matrices]
            for t in range(3):
                target = path if t < 2 else 0
                mats[t][target, path] += b
                mats[t][2 if t < 2 else 1, path] -= b
            plans.append(po.InterventionPlan(
                matrices=tuple(mats), budget_split=(2 * b, 2 * b, 2 * b)
            ))
        return inst, plans

    def test_single_plan_mixture(self):
        inst = po.random_instance(5, 2, 3, 1.0, 1.0)
        plan = random_plan(inst, rng, spend=0.6)
        mixed = po.MixedPlan(support=((1.0, plan),))
        avg, value = po.evaluate_mixed(inst, mixed)
        np.testing.assert_allclose(
            avg, po.evaluate_population_rewards(inst, plan), atol=TOL
        )
        assert value == pytest.approx(po.maximin_value(inst, plan), abs=TOL)

    def test_half_half_path_mixture_value(self):
        # Coin flip over the two single-path plans: each population averages
        # its boosted value (1/2 + B/6)^3 with its untouched 1/8.
        inst, plans = self.separation_single_path_plans(0.6)
        for plan in plans:
            assert po.plan_violations(inst, plan) == []
        mixed = po.MixedPlan(support=((0.5, plans[0]), (0.5, plans[1])))
        assert po.mixed_violations(inst, mixed) == []
        _, value = po.evaluate_mixed(inst, mixed)
        expected = 0.5 * (1 / 8 + (0.5 + 0.1) ** 3)
        assert expected == pytest.approx(0.1705, abs=TOL)
        assert value == pytest.approx(expected, abs=TOL)

    def test_duplicate_plans_any_weights(self):
        inst = po.random_instance(9, 2, 2, 1.0, 0.5)
        plan = random_plan(inst, rng, spend=0.3)
        mixed = po.MixedPlan(support=((0.3, plan), (0.7, plan)))
        _, value = po.evaluate_mixed(inst, mixed)
        assert value == pytest.approx(po.maximin_value(inst, plan), abs=TOL)

    def test_invalid_weights_rejected(self):
        inst = po.random_instance(9, 2, 2, 1.0, 0.5)
        plan = po.zero_budget_plan(inst)
        with pytest.raises(ValueError):
            po.evaluate_mixed(inst, po.MixedPlan(support=((0.4, plan),)))


def _frozen_edge_moved(inst, mats, split):
    v, u = np.argwhere(~inst.malleable[0])[0]
    mats[0][v, u] += 0.1 if mats[0][v, u] < 0.5 else -0.1
    mats[0][1 - v, u] = 1.0 - mats[0][v, u]
    return mats, split


def _costly_layer_unpaid(inst, mats, split):
    split[0] = 0.0  # the welfare plan below spends its whole budget in layer 0
    return mats, split


def _set(t, at, value):
    def edit(inst, mats, split):
        mats[t][at] = value
        return mats, split
    return edit


def _split(t, value):
    def edit(inst, mats, split):
        split[t] = value
        return mats, split
    return edit


PLAN_BREAKS = {
    "entry outside [0, 1]": (_set(0, (slice(None), 1), [1.5, -0.5]), "= 1.5 outside [0, 1]"),
    "frozen edge changed": (_frozen_edge_moved, "modifies non-malleable edge (0, 0)"),
    "cost above its split": (_costly_layer_unpaid, "costs 0.5 > allotted 0"),
    "negative split": (_split(1, -0.1), "budget split 1 = -0.1 is not a non-negative"),
    "NaN split": (_split(1, np.nan), "budget split 1 = nan is not a non-negative"),
    "split sum above the budget": (_split(1, 0.25), "budget split sums to 0.75, not <= 0.5"),
    "wrong layer count": (lambda inst, mats, split: (mats[:1], split[:1]),
                          "layer count does not match"),
    "wrong shape": (lambda inst, mats, split: ([mats[0][:1], mats[1]], split),
                    "plan matrix 0 has shape (1, 2), expected (2, 2)"),
    "NaN entry": (_set(1, (0, 1), np.nan), "plan matrix 1 entry (0, 1) = nan is not finite"),
    "infinite column": (_set(0, (slice(None), 1), [np.inf, -np.inf]),
                        "plan matrix 0 entry (0, 1) = inf is not finite"),
}


class TestPlanChecks:
    @pytest.mark.parametrize("case", PLAN_BREAKS)
    def test_every_refusal_is_reported(self, case):
        """Each broken copy of a feasible plan is reported with a message that
        names the matrix or split and the value, and no check warns."""
        inst = po.random_instance(4, 2, 3, 0.6, 0.5)
        plan = po.solve_social_welfare(inst, 0.5)[1]
        assert po.plan_violations(inst, plan) == []
        edit, message = PLAN_BREAKS[case]
        mats, split = edit(inst, [m.copy() for m in plan.matrices], list(plan.budget_split))
        broken = po.InterventionPlan(matrices=tuple(mats), budget_split=tuple(split))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = po.plan_violations(inst, broken)
            assert any(message in v for v in found), found
            with pytest.raises(ValueError, match="infeasible plan"):
                po.check_plan_bounds(inst, broken)

    @pytest.mark.parametrize("weights, message", [
        ((-0.2, 1.2), "not non-negative (entry 0 = -0.2)"),
        ((0.4,), "sums to 0.4"),
        ((np.nan, 1.0), "entry 0 = nan is not finite"),
    ], ids=["negative", "sum", "NaN"])
    def test_every_mixture_refusal_is_reported(self, weights, message):
        inst = po.random_instance(9, 2, 2, 1.0, 0.5)
        plan = po.zero_budget_plan(inst)
        mixed = po.MixedPlan(support=tuple((w, plan) for w in weights))
        assert any(message in v for v in po.mixed_violations(inst, mixed))
        with pytest.raises(ValueError, match="invalid mixture weights"):
            po.evaluate_mixed(inst, mixed)

    def test_mask_edit_detected(self):
        inst = po.random_instance(2, 2, 2, 0.0, 1.0)  # nothing malleable
        m = inst.initial_matrices[0].copy()
        m[0, 0] += 0.1
        m[1, 0] -= 0.1
        plan = po.InterventionPlan(matrices=(m,), budget_split=(0.2,))
        assert any("non-malleable" in v for v in po.plan_violations(inst, plan))

    def test_budget_overrun_detected(self):
        inst = po.fairness_price_instance(2, 0.3, 0.1)
        m = np.array([[0.5, 0.0], [0.5, 1.0]])
        plan = po.InterventionPlan(matrices=(m,), budget_split=(1.0,))
        assert any("sums to" in v for v in po.plan_violations(inst, plan))


class TestNumericInequalities:
    def test_stochastic_contraction(self):
        # Pushing two distributions through a column-stochastic matrix never
        # increases their l1 distance.
        for _ in range(200):
            w = int(rng.integers(2, 5))
            m = rng.random((w, w))
            m /= m.sum(axis=0, keepdims=True)
            d1 = rng.dirichlet(np.ones(w))
            d2 = rng.dirichlet(np.ones(w))
            lhs = np.abs(m @ d1 - m @ d2).sum()
            rhs = np.abs(d1 - d2).sum()
            assert lhs <= rhs + 1e-12

    def test_reward_perturbation(self):
        for _ in range(200):
            w = int(rng.integers(2, 5))
            m = rng.random((w, w))
            m /= m.sum(axis=0, keepdims=True)
            r = rng.random(w)
            d1 = rng.dirichlet(np.ones(w))
            d2 = rng.dirichlet(np.ones(w))
            lhs = abs(r @ m @ d1 - r @ m @ d2)
            rhs = r.max() * np.abs(d1 - d2).sum()
            assert lhs <= rhs + 1e-12
