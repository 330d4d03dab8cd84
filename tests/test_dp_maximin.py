"""Maximin dynamic program vs the grid oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pipeopt as po
from pipeopt import dp_maximin
from pipeopt.dp_welfare import dp_cell_count
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


def _three_populations(seed):
    """Layers (3, 2, 2, 2): three populations, two built layers."""
    gen = np.random.default_rng(seed)
    mats = []
    for rows, cols in [(2, 3), (2, 2), (2, 2)]:
        raw = gen.uniform(0.05, 1.0, (rows, cols))
        mats.append(raw / raw.sum(axis=0))
    return po.make_instance((3, 2, 2, 2), mats, (1.0, 0.2), (0.3, 0.3, 0.4), 1.0)


def _uniform_weights(inst, weight):
    """`inst` with every edge's cost weight set to `weight`."""
    weights = tuple(np.full_like(m, weight) for m in inst.initial_matrices)
    return po.make_instance(
        inst.layer_sizes, inst.initial_matrices, inst.rewards,
        inst.initial_distribution, inst.budget, inst.malleable,
        cost_model=po.CostModel("weighted_l1", weights),
    )


class TestReportAndCaps:
    def test_report_consistency(self):
        inst = po.random_instance(35, 2, 3, 1.0, 0.5)
        report, plan = po.solve_expost_maximin(inst, 0.2)
        np.testing.assert_array_equal(report.per_population_rewards,
                                      po.evaluate_population_rewards(inst, plan))
        assert report.objective_value == po.maximin_value(inst, plan)
        assert report.budget_used <= inst.budget + 1e-9

    def test_step_paths_counted(self):
        # Two populations never reach the game step, with unit or weighted
        # costs; three populations always do.  Zero-budget steps return the
        # initial matrix unsolved.
        inst = po.random_instance(35, 2, 3, 1.0, 0.5)
        report, _ = po.solve_expost_maximin(inst, 0.25)
        calls = report.solver_meta["step_calls"]
        assert calls["game"] == 0 and calls["dual"] > 0 and calls["initial"] > 0
        assert "lp" not in calls
        w_report, _ = po.solve_expost_maximin(_uniform_weights(inst, 1.5), 0.25)
        assert w_report.solver_meta["step_calls"]["dual"] > 0
        assert w_report.solver_meta["step_calls"]["game"] == 0
        three = _uniform_weights(po.fairness_price_instance(3, 0.1, 1.0), 1.5)
        t_report, _ = po.solve_expost_maximin(three, 0.25)
        assert t_report.solver_meta["step_calls"]["dual"] == 0
        assert t_report.solver_meta["step_calls"]["game"] > 0

    def test_per_layer_profile_counts_every_build_step(self):
        # The build keeps each winner's matrix, so beyond the priced pairs a
        # solve makes only the query's steps: one per first-layer candidate
        # at the full budget, then one per deeper layer.
        inst = po.random_instance(38, 2, 4, 1.0, 1.0)
        dp = po.MaximinDP(inst, 0.5)
        profile = dp.meta()["profile"]
        assert sum(p["cells"] for p in profile.values()) == dp.meta()["cells"]
        built = sum(dp.step_calls.values())
        assert built == sum(p["priced_pairs"] for p in profile.values())
        dp.solve()
        first_layer = len(dp._candidates[0].cell)
        assert sum(dp.step_calls.values()) == built + first_layer + inst.depth - 2

    def test_one_step_solver_per_continuation(self, monkeypatch):
        # Three populations price step by step: every step against one
        # continuation shares one solver, a row of its layer's segment
        # table, however many (row, budget) pairs the build prices against
        # it.  Two populations price whole blocks, so only a solve's steps
        # below the first layer reach the scalar step.
        used, calls = {}, []
        step = dp_maximin.solve_maximin_step

        def recording_step(solver, a_in, budget):
            used[id(solver)] = solver
            calls.append(len(a_in))
            return step(solver, a_in, budget)

        monkeypatch.setattr(dp_maximin, "solve_maximin_step", recording_step)
        dp = po.MaximinDP(_three_populations(7), 0.5)
        # Layer 0's candidates are priced only by a query.
        rows = [s for t, table in dp._steps.items() for s in table._rows.values()]
        assert len(used) == len(rows) == sum(
            len(c.cell) for t, c in dp._candidates.items() if t >= 1)
        assert {id(s) for s in rows} == set(used)
        assert sum(dp.step_calls.values()) > len(used)
        assert set(calls) == {3}
        calls.clear()
        inst = po.random_instance(7, 2, 4, 1.0, 1.0)
        dp = po.MaximinDP(inst, 0.25)
        assert calls == []
        dp.solve()
        assert calls == [2] * (inst.depth - 2)

    def test_population_tuple_counts(self):
        # Every layer tracks the multisets of `width` net points, and the
        # predicted memo size is the built one.
        for width, eps in [(2, 0.5), (3, 1.0)]:
            inst = po.random_instance(37, width, 3, 1.0, 0.5)
            dp = po.MaximinDP(inst, eps)
            n = len(dp.nets[1])
            multisets = math.comb(n + width - 1, width)
            assert dp.meta()["population_tuples"] == {1: multisets}
            assert dp.meta()["cells"] == multisets * len(dp.grid)
            assert dp_cell_count(inst, eps, width) == dp.meta()["cells"]

    def test_cells_cap(self):
        inst = po.random_instance(36, 3, 3, 1.0, 1.0)
        with pytest.raises(CapacityError):
            po.solve_expost_maximin(inst, 0.05, cells_cap=500)



class TestEngine:
    """Welfare is the one-population case of the shared backward DP."""

    def test_one_population_maximin_is_welfare(self):
        # Built directly, bypassing solve_expost_maximin's delegation.
        rng_local = np.random.default_rng(0)
        sizes = (1, 2, 3, 2)
        mats = []
        for t in range(len(sizes) - 1):
            raw = rng_local.uniform(0.05, 1.0, size=(sizes[t + 1], sizes[t]))
            mats.append(raw / raw.sum(axis=0))
        inst = po.make_instance(sizes, mats, rng_local.uniform(0, 1, 2), (1.0,), 0.8)
        m_value, m_plan = po.MaximinDP(inst, 0.2).solve()
        w_value, w_plan = po.WelfareDP(inst, 0.2).solve_for([1.0])
        assert m_value == w_value
        assert m_plan.budget_split == w_plan.budget_split
        for a, b in zip(m_plan.matrices, w_plan.matrices):
            np.testing.assert_array_equal(a, b)

    @settings(derandomize=True, max_examples=20, deadline=None, database=None)
    @given(seed=st.integers(0, 10**6),
           malleable=st.sampled_from([0.5, 1.0]),
           budget=st.floats(0.0, 1.0))
    def test_dps_track_oracle(self, seed, malleable, budget):
        eps, eta = 0.1, 0.05
        inst = po.random_instance(seed, 2, 3, malleable, budget)
        slack = 3 * (inst.depth - 1) * eps * inst.reward_sup
        w_memo, w_plan = po.WelfareDP(inst, eps).solve_for(inst.initial_distribution)
        m_memo, m_plan = po.MaximinDP(inst, eps).solve()
        assert po.plan_violations(inst, w_plan) == []
        assert po.plan_violations(inst, m_plan) == []
        # The memo chains continuation values through the very matrices the
        # plan is rebuilt from, so it must agree with the exact value.
        w_value, m_value = po.welfare(inst, w_plan), po.maximin_value(inst, m_plan)
        assert w_memo == pytest.approx(w_value, abs=1e-12)
        assert m_memo == pytest.approx(m_value, abs=1e-12)
        w_oracle, _ = po.oracle_welfare(inst, eta)
        m_oracle, _ = po.oracle_expost_maximin(inst, eta)
        assert w_value >= w_oracle - slack - 1e-12
        assert m_value >= m_oracle - slack - 1e-12

    @settings(derandomize=True, max_examples=20, deadline=None, database=None)
    @given(seed=st.integers(0, 10**6),
           width=st.sampled_from([2, 3]),
           depth=st.sampled_from([3, 4]),
           malleable=st.sampled_from([0.6, 1.0]),
           data=st.data())
    def test_population_permutation(self, seed, width, depth, malleable, data):
        # Relabelling the first-layer nodes relabels the populations and
        # nothing else: the maximin value stays, the per-population rewards
        # come back permuted.  Three populations take the LP step, so their
        # pipelines are two nodes wide below the first layer and coarser.
        inst = _fan_in(seed, width, depth, malleable)
        perm = list(data.draw(st.permutations(range(width))))
        permuted = po.make_instance(
            inst.layer_sizes,
            (inst.initial_matrices[0][:, perm],) + inst.initial_matrices[1:],
            inst.rewards, inst.initial_distribution[perm], inst.budget,
            (inst.malleable[0][:, perm],) + inst.malleable[1:],
        )
        eps = 0.25 if width == 2 else 1.0
        report, plan = po.solve_expost_maximin(inst, eps)
        p_report, p_plan = po.solve_expost_maximin(permuted, eps)
        assert p_report.objective_value == pytest.approx(report.objective_value,
                                                         abs=1e-12)
        np.testing.assert_allclose(p_report.per_population_rewards,
                                   report.per_population_rewards[perm], atol=1e-9)
        assert po.plan_violations(inst, plan) == []
        assert po.plan_violations(permuted, p_plan) == []


def _fan_in(seed, width, depth, malleable):
    """A random first layer of `width` nodes feeding `random_instance`'s
    pipeline, two nodes wide, with budget 1."""
    tail = po.random_instance(seed, 2, depth - 1, malleable, 1.0)
    gen = np.random.default_rng(seed)
    raw = gen.uniform(0.05, 1.0, size=(2, width))
    mask = (np.ones(raw.shape, dtype=bool) if malleable >= 1.0
            else gen.random(raw.shape) < malleable)
    d1 = gen.uniform(0.1, 1.0, size=width)
    return po.make_instance(
        (width,) + tail.layer_sizes,
        (raw / raw.sum(axis=0),) + tail.initial_matrices,
        tail.rewards, d1 / d1.sum(), 1.0,
        (mask,) + tail.malleable,
    )
