"""Randomized maximin: MW updates, regret, the double oracle, separation."""

import numpy as np
import pytest

import pipeopt as po
from pipeopt import exante
from pipeopt.exante import mw_update

rng = np.random.default_rng(99)


class TestMWUpdate:
    def test_equal_utilities_fixed_point(self):
        d = np.array([0.2, 0.3, 0.5])
        out = mw_update(d, np.array([0.7, 0.7, 0.7]), 0.6)
        np.testing.assert_allclose(out, d, atol=1e-12)

    def test_direct_arithmetic(self):
        out = mw_update(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.5)
        np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=1e-12)

    def test_matches_formula_elementwise(self):
        for _ in range(50):
            w = int(rng.integers(2, 6))
            d = rng.dirichlet(np.ones(w))
            u = rng.random(w)
            beta = float(rng.uniform(0.05, 0.95))
            out = mw_update(d, u, beta)
            ref = d * beta ** u
            ref /= ref.sum()
            np.testing.assert_allclose(out, ref, atol=1e-12)
            assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_inputs(self):
        d = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            mw_update(d, np.array([0.5, 0.5]), 1.0)
        with pytest.raises(ValueError):
            mw_update(d, np.array([1.5, 0.0]), 0.5)
        with pytest.raises(ValueError):
            mw_update(d, np.array([np.nan, 0.5]), 0.5)
        with pytest.raises(ValueError):
            mw_update(np.array([np.nan, 0.5]), d, 0.5)


class TestDynamics:
    def test_regret_certificate(self):
        # The multiplicative-weights guarantee must hold on every run.
        for width, rounds in [(2, 100), (3, 100)]:
            inst = po.fairness_price_instance(width, 0.1, 1.0)
            _, report, trace = po.solve_exante_maximin(inst, 0.05, rounds=rounds)
            lhs, best_fixed, slack = trace.regret_certificate(inst.reward_sup)
            assert lhs <= best_fixed + slack + 1e-9
            assert report.solver_meta["regret_lhs"] == pytest.approx(lhs)
            # The best-response DP reports its per-layer build counters.
            profile = report.solver_meta["dp_profile"]
            assert sum(p["cells"] for p in profile.values()) == \
                report.solver_meta["dp_cells"]

    def test_symmetric_instance_reaches_fair_value(self):
        # Two layers make the feasible set convex, so randomization cannot
        # beat the deterministic fair optimum B/(2w); the dynamics must land
        # within the certificate of it.
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        eps, rounds = 0.05, 200
        mixture, report, trace = po.solve_exante_maximin(inst, eps, rounds=rounds)
        _, _, slack = trace.regret_certificate(inst.reward_sup)
        opt = 1 / 6
        assert report.objective_value <= opt + 1e-7
        assert report.objective_value >= opt - (eps + slack) - 1e-9
        ev, _ = po.oracle_exante_maximin(inst, 1 / 12)
        assert report.objective_value <= ev + 1e-7

    def test_support_plans_feasible_and_weights_sum(self):
        inst = po.separation_instance(0.5)
        mixture, report, _ = po.solve_exante_maximin(inst, 0.05, rounds=60)
        assert po.mixed_violations(inst, mixture) == []
        assert sum(w for w, _ in mixture.support) == pytest.approx(1.0, abs=1e-12)
        assert report.budget_used <= inst.budget + 1e-9

    def test_mixture_bounded_by_support_certificate(self):
        # The mixture's randomized value trails the best deterministic value
        # among its support by at most the best-response plus regret slack.
        inst = po.separation_instance(0.6)
        mixture, report, trace = po.solve_exante_maximin(inst, 0.05, rounds=150)
        _, _, regret = trace.regret_certificate(inst.reward_sup)
        br_slack = 3 * (inst.depth - 1) * trace.br_epsilon * inst.reward_sup
        best_support = max(po.maximin_value(inst, p) for p in mixture.plans)
        assert report.objective_value >= best_support - br_slack - regret - 1e-9

    def test_single_population_collapses_to_welfare(self):
        inst = po.make_instance(
            (1, 2, 2),
            (np.array([[0.4], [0.6]]), np.array([[0.9, 0.2], [0.1, 0.8]])),
            rewards=(1.0, 0.0),
            initial_distribution=(1.0,),
            budget=0.4,
        )
        mixture, report, _ = po.solve_exante_maximin(inst, 0.1, rounds=5)
        w_report, _ = po.solve_social_welfare(inst, 0.1 / (3 * 2))
        assert report.objective_value == pytest.approx(
            w_report.objective_value, abs=1e-9
        )

    def test_separation_quick(self):
        # Shortened version of the headline run: the mixture must already
        # beat the best deterministic benchmark at a modest horizon.
        inst = po.separation_instance(0.6)
        mixture, report, _ = po.solve_exante_maximin(inst, 0.02, rounds=120)
        even = even_split_plan(inst)
        assert po.plan_violations(inst, even) == []
        deterministic = po.maximin_value(inst, even)
        assert deterministic == pytest.approx(0.55 ** 3, abs=1e-12)
        assert report.objective_value > deterministic

    def test_default_is_one_warm_start_round(self):
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        _, report, trace = po.solve_exante_maximin(inst, 0.1)
        assert report.solver_meta["rounds"] == 1
        assert len(trace.rounds) == 1


class TestDoubleOracle:
    def test_default_gap_is_certified(self):
        for inst in (po.fairness_price_instance(3, 0.1, 1.0),
                     po.separation_instance(0.6),
                     po.random_instance(3000, 3, 3, 1.0, 1.0)):
            mixture, report, _ = po.solve_exante_maximin(inst, 0.1)
            meta = report.solver_meta
            assert meta["gap"] <= exante.ORACLE_TOL
            assert meta["oracle_iterations"] <= exante.ORACLE_MAX_ITERATIONS
            assert not meta["oracle_capped"]
            slack = 3 * (inst.depth - 1) * meta["br_epsilon"] * inst.reward_sup
            assert meta["upper_bound"] == pytest.approx(
                report.objective_value + meta["gap"] + slack, abs=1e-12)
            assert po.mixed_violations(inst, mixture) == []

    @pytest.mark.parametrize("inst, eta", [
        (po.fairness_price_instance(3, 0.1, 1.0), 1 / 12),
        (po.separation_instance(0.6), 0.075),
    ])
    def test_upper_bound_above_grid_optimum(self, inst, eta):
        # The grid optimum is a lower bound on the randomized optimum, which
        # the certificate bounds from above.
        _, report, _ = po.solve_exante_maximin(inst, 0.05)
        grid_value, _ = po.oracle_exante_maximin(inst, eta)
        assert grid_value <= report.solver_meta["upper_bound"] + 1e-9

    def test_reaches_fair_value(self):
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        _, report, _ = po.solve_exante_maximin(inst, 0.05)
        assert report.objective_value == pytest.approx(1 / 6, abs=1e-9)

    @pytest.mark.parametrize("inst, rounds", [
        (po.fairness_price_instance(3, 0.1, 1.0), 100),
        (po.separation_instance(0.6), 150),
        (po.random_instance(3001, 3, 3, 1.0, 1.0), 40),
    ])
    def test_no_worse_than_uniform_warm_start(self, inst, rounds):
        # The uniform mixture of the MW responses is a feasible point of the
        # restricted game, so the reported mixture cannot fall below it.
        _, report, trace = po.solve_exante_maximin(inst, 0.1, rounds=rounds)
        uniform = po.MixedPlan(support=tuple((1 / rounds, r.plan) for r in trace.rounds))
        _, uniform_value = po.evaluate_mixed(inst, uniform)
        assert report.objective_value >= uniform_value - 1e-12

    def test_iteration_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(exante, "ORACLE_MAX_ITERATIONS", 1)
        inst = po.separation_instance(0.6)
        mixture, report, _ = po.solve_exante_maximin(inst, 0.05)
        assert report.solver_meta["oracle_capped"] is True
        assert report.solver_meta["oracle_iterations"] == 1
        assert po.mixed_violations(inst, mixture) == []


class TestEpsilonRefused:
    @pytest.mark.parametrize("name", ["epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_non_finite_or_non_positive(self, name, value):
        inst = po.fairness_price_instance(2, 0.1, 1.0)
        kwargs = {"epsilon": 0.1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            po.solve_exante_maximin(inst, **kwargs)


class TestBrEpsilonCoarsened:
    def test_workload_instance_reports_counts(self):
        inst = po.random_instance(3000, 3, 3, 1.0, 1.0)
        _, report, _ = po.solve_exante_maximin(inst, 0.1, br_cells_cap=1000)
        meta = report.solver_meta
        info = meta["br_epsilon_coarsened"]
        assert set(info) == {"requested", "cap", "requested_cells", "cells"}
        assert info["requested"] == meta["requested_br_epsilon"]
        assert info["cap"] == 1000
        assert info["requested_cells"] > 1000 >= info["cells"]
        assert info["requested_cells"] == po.dp_welfare.dp_cell_count(
            inst, meta["requested_br_epsilon"], 1)
        assert info["cells"] == meta["dp_cells"]
        assert meta["br_epsilon"] > meta["requested_br_epsilon"]

    def test_step_above_net_diameter(self):
        # Coarsening snaps the step to the budget, 3.0; the nets stop at
        # radius 2, which already covers the whole simplex.
        inst = po.random_instance(1, 3, 3, 1.0, 3.0)
        mixture, report, _ = po.solve_exante_maximin(inst, 0.5, br_cells_cap=20)
        assert report.solver_meta["br_epsilon"] == 3.0
        assert report.solver_meta["dp_cells"] == po.dp_welfare.dp_cell_count(inst, 3.0, 1)
        assert po.mixed_violations(inst, mixture) == []

    def test_uncoarsened_is_none(self):
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        _, report, _ = po.solve_exante_maximin(inst, 0.1)
        meta = report.solver_meta
        assert meta["br_epsilon_coarsened"] is None
        assert meta["br_epsilon"] == meta["requested_br_epsilon"]


def even_split_plan(instance):
    """Both chains lifted by budget/12 per hop: the deterministic benchmark."""
    lift = instance.budget / 12
    mats = [m.copy() for m in instance.initial_matrices]
    for t in range(3):
        for path in (0, 1):
            target = path if t < 2 else 0
            sink = 2 if t < 2 else 1
            mats[t][target, path] += lift
            mats[t][sink, path] -= lift
    split = (4 * lift, 4 * lift, 4 * lift)
    return po.InterventionPlan(matrices=tuple(mats), budget_split=split)
