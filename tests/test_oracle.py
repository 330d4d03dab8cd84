"""Grid-enumeration oracles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import pipeopt as po
from lp_reference import mixture_lp
from pipeopt import oracle
from pipeopt.errors import CapacityError
from pipeopt.oracle import GridPlanTable, mixture_game

rng = np.random.default_rng(202)


class TestOracleWelfare:
    def test_zero_budget_gives_initial_welfare(self):
        # The delta grid is anchored at the initial matrices, so the
        # do-nothing plan is enumerated even though its entries are off-grid.
        inst = po.random_instance(1, 2, 3, 1.0, 0.0)
        value, plan = po.oracle_welfare(inst, 0.05)
        assert value == pytest.approx(po.initial_welfare(inst), abs=1e-12)
        assert plan.total_cost(inst) == 0.0

    def test_two_layer_contrast_closed_form(self):
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        value, plan = po.oracle_welfare(inst, 0.05)
        assert value == pytest.approx(0.40, abs=1e-12)
        assert po.plan_violations(inst, plan) == []

    def test_nested_grids_improve(self):
        inst = po.random_instance(5, 2, 3, 1.0, 0.5)
        coarse, _ = po.oracle_welfare(inst, 0.2)
        fine, _ = po.oracle_welfare(inst, 0.1)
        assert fine >= coarse - 1e-12

    def test_ties_prefer_thrift(self):
        # Every plan has welfare 1; the first row in stream order costs 2
        # units, but the do-nothing plan wins the tie.
        inst = po.make_instance(
            (2, 2), (np.eye(2),), (1.0, 1.0), (0.5, 0.5), 0.5
        )
        table = GridPlanTable(inst, 0.25)
        _, key = next(table.blocks())
        assert table.lookup(key, np.array([0]))[2][0] == 2
        value, plan = po.oracle_welfare(inst, 0.25)
        assert value == pytest.approx(1.0)
        assert plan.total_cost(inst) == 0.0

    def test_plans_always_feasible(self):
        for seed in range(4):
            inst = po.random_instance(seed, 2, 3, 0.8, 1.0)
            _, plan = po.oracle_welfare(inst, 0.1)
            assert po.plan_violations(inst, plan) == []


class TestOracleMaximin:
    def test_two_layer_contrast_even_split(self):
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        value, plan = po.oracle_expost_maximin(inst, 1 / 12)
        assert value == pytest.approx(1 / 6, abs=1e-12)

    def test_zero_budget(self):
        inst = po.random_instance(2, 3, 2, 1.0, 0.0)
        value, _ = po.oracle_expost_maximin(inst, 0.1)
        initial = po.maximin_value(inst, po.zero_budget_plan(inst))
        assert value == pytest.approx(initial, abs=1e-12)

    def test_nested_grids_improve(self):
        inst = po.random_instance(8, 2, 3, 1.0, 0.5)
        coarse, _ = po.oracle_expost_maximin(inst, 0.2)
        fine, _ = po.oracle_expost_maximin(inst, 0.1)
        assert fine >= coarse - 1e-12

    def test_ties_prefer_welfare_then_thrift(self):
        # With no useful budget the do-nothing plan wins all tie-breaks.
        inst = po.make_instance(
            (2, 2), (np.eye(2),), (1.0, 1.0), (0.5, 0.5), 0.5
        )
        value, plan = po.oracle_expost_maximin(inst, 0.25)
        assert value == pytest.approx(1.0)
        assert plan.total_cost(inst) == 0.0


class TestOracleExante:
    def test_dominates_deterministic(self):
        for seed in (3, 4):
            inst = po.random_instance(seed, 2, 3, 1.0, 0.6)
            ev, _ = po.oracle_exante_maximin(inst, 0.1)
            dv, _ = po.oracle_expost_maximin(inst, 0.1)
            assert ev >= dv - 1e-9

    def test_symmetric_instance_no_gain(self):
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        ev, mixed = po.oracle_exante_maximin(inst, 1 / 12)
        dv, _ = po.oracle_expost_maximin(inst, 1 / 12)
        assert ev == pytest.approx(dv, abs=1e-9)
        assert po.mixed_violations(inst, mixed) == []

    def test_mixture_value_matches_reeval(self):
        inst = po.random_instance(12, 2, 2, 1.0, 0.4)
        value, mixed = po.oracle_exante_maximin(inst, 0.1)
        _, reeval = po.evaluate_mixed(inst, mixed)
        assert value == pytest.approx(reeval, abs=1e-7)


@st.composite
def small_games(draw):
    """Games of at most oracle._SUPPORT_CAP supports: 1-6 plans, up to two of
    them repeated, against 1-4 populations; entries on a quarter grid (ties)
    or free in [0, 1], scaled by 1, 1e3 or 1e-3."""
    k, p = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    elements = draw(st.sampled_from([
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
        st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False),
    ]))
    values = draw(hnp.arrays(np.float64, (k, p), elements=elements))
    repeats = draw(st.lists(st.integers(0, k - 1), max_size=2))
    scale = draw(st.sampled_from([1.0, 1e3, 1e-3]))
    return np.vstack([values, values[repeats]]) * scale


@st.composite
def large_games(draw):
    """Games above oracle._SUPPORT_CAP: 40-300 plans against 2-5
    populations, entries on a quarter grid (ties) or free in [0, 1], scaled
    by 1, 1e3 or 1e-3."""
    k, p = draw(st.integers(40, 300)), draw(st.integers(2, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = gen.integers(0, 5, (k, p)) / 4.0 if draw(st.booleans()) else gen.random((k, p))
    return values * draw(st.sampled_from([1.0, 1e3, 1e-3]))


class TestMixtureGame:
    # The game solver behind both double oracles, the ex-ante grid oracle's
    # and the randomized solver's; each reads mu as the adversary's next move.
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(1, 4)),
        elements=st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False),
    ))
    def test_value_weights_and_dual(self, values):
        v, lam, mu = mixture_game(values)
        assert lam.shape == (values.shape[0],) and mu.shape == (values.shape[1],)
        for dist in (lam, mu):
            assert np.all(dist >= 0)
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert v == pytest.approx(float((lam @ values).min()), abs=1e-9)
        # The adversary's distribution is optimal: no plan beats v against it.
        assert float((values @ mu).max()) <= v + 1e-9

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(small_games())
    @example(np.full((3, 3), 0.4))
    @example(np.array([[1.0, 0.0, 0.5], [1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]))
    def test_enumeration_matches_lp(self, values):
        assert oracle._support_game(values) is not None
        self.assert_matches_lp(values)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(large_games())
    def test_double_oracle_matches_lp_above_cap(self, values):
        assert math.comb(sum(values.shape), values.shape[1]) - 1 > oracle._SUPPORT_CAP
        self.assert_matches_lp(values)

    @staticmethod
    def assert_matches_lp(values):
        # Reference: the LP, whose primal and dual bracket the game value.
        tol = 1e-9 * max(1.0, float(np.abs(values).max()))
        lam_lp, mu_lp = mixture_lp(values)
        assert float((values @ mu_lp).max()) - float((lam_lp @ values).min()) <= tol
        v, lam, mu = mixture_game(values)
        assert v == pytest.approx(float((lam_lp @ values).min()), abs=tol)
        for dist in (lam, mu):
            assert np.all(dist >= 0)
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert v == float((lam @ values).min())
        assert float((values @ mu).max()) <= v + tol

    def test_no_lp_at_any_size(self, monkeypatch):
        calls = []
        for module in (oracle, po.layerlp):
            monkeypatch.setattr(module, "linprog", lambda *a, **kw: calls.append(1))
        mixture_game(np.random.default_rng(5).random((4, 3)))
        table = GridPlanTable(po.separation_instance(0.6), 0.075)
        values = np.concatenate([v for v, _ in table.blocks()])
        assert math.comb(sum(values.shape), values.shape[1]) - 1 > oracle._SUPPORT_CAP
        v, _, _ = mixture_game(values)
        assert calls == []
        lam_lp, _ = mixture_lp(values)
        assert v == pytest.approx(float((lam_lp @ values).min()), abs=1e-9)

    def test_wide_games_are_bounded(self):
        # Six populations: a rank-3 game has an optimum on a small support
        # and solves.  Eight: a random game would need more than _GAME_CAP
        # supports in all, so it is refused, and no support table of a game
        # above _SUPPORT_CAP stays cached.
        gen = np.random.default_rng(8)
        values = gen.standard_normal((2000, 3)) @ gen.standard_normal((3, 6))
        v, lam, _ = mixture_game(values)
        assert np.count_nonzero(lam) == 4
        lam_lp, _ = mixture_lp(values)
        assert v == pytest.approx(float((lam_lp @ values).min()), abs=1e-9)
        wide = gen.random((3000, 8))
        tracemalloc.start()
        with pytest.raises(CapacityError, match=rf"3000 x 8 .*\(cap {oracle._GAME_CAP}\)"):
            mixture_game(wide)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert kept < 1 << 20
        assert peak < 64 << 20

    def test_uncertified_game_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "_support_game", lambda values: None)
        with pytest.raises(RuntimeError, match="3 x 2"):
            mixture_game(np.random.default_rng(6).random((3, 2)))


def block_count(inst, eta):
    return sum(1 for _ in GridPlanTable(inst, eta).blocks())


def assert_same_plan(plan, other):
    assert plan.budget_split == other.budget_split
    for a, b in zip(plan.matrices, other.matrices):
        np.testing.assert_array_equal(a, b)


BLOCK_CASES = pytest.mark.parametrize("make,eta", [
    (lambda: po.fairness_price_instance(3, 0.1, 1.0), 0.05),
    (lambda: po.random_instance(61, 2, 2, 1.0, 0.6), 0.1),
    (lambda: po.random_instance(62, 2, 3, 0.7, 0.6), 0.1),
    (lambda: po.random_instance(63, 2, 3, 1.0, 0.5), 0.1),
    (lambda: po.separation_instance(0.6), 0.075),
    (lambda: po.random_instance(500, 2, 2, 1.0, 0.8), 0.05),
    (lambda: po.random_instance(700, 3, 2, 1.0, 0.6), 0.1),
    (lambda: po.random_instance(951, 2, 2, 1.0, 1.0), 0.1),
], ids=["fairness-price", "random-depth2", "random-masked", "random-depth3",
        "separation", "random-500", "random-700", "random-951"])


class TestBlocks:
    """The first transition streams in blocks of about oracle._BLOCK_ROWS
    plans; with _BLOCK_ROWS = 1 each candidate is its own block, and the
    reductions must pick what one whole-table block picks."""

    @BLOCK_CASES
    def test_candidate_blocks_match_one_block(self, monkeypatch, make, eta):
        inst = make()
        assert block_count(inst, eta) == 1
        oracles = (po.oracle_welfare, po.oracle_expost_maximin)
        whole = [fn(inst, eta) for fn in oracles]
        whole_exante, _ = po.oracle_exante_maximin(inst, eta)
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 1)
        assert block_count(inst, eta) > 1
        for fn, (w_value, w_plan) in zip(oracles, whole):
            value, plan = fn(inst, eta)
            assert value == w_value
            assert_same_plan(plan, w_plan)
        value, mixed = po.oracle_exante_maximin(inst, eta)
        assert value == pytest.approx(whole_exante, abs=1e-12)
        assert po.mixed_violations(inst, mixed) == []

    @BLOCK_CASES
    def test_picks_earliest_best_row(self, make, eta):
        # Reference: a stable lexsort of the whole table on (primary desc,
        # secondary desc, units asc) puts the earliest best row first.
        inst = make()
        table = GridPlanTable(inst, eta)
        vals, rows, first, units = (np.concatenate(c) for c in zip(*(
            (v, *table.lookup(key, np.arange(len(v)))) for v, key in table.blocks()
        )))
        d1 = inst.initial_distribution
        welfare = vals @ d1
        for fn, primary, secondary in (
            (po.oracle_welfare, welfare, np.zeros(len(vals))),
            (po.oracle_expost_maximin, vals.min(axis=1), welfare),
        ):
            i = np.lexsort((units, -secondary, -primary))[0]
            value, plan = fn(inst, eta)
            assert value == primary[i]
            assert_same_plan(plan, table.plan_for(rows[i], first[i]))

    @BLOCK_CASES
    def test_expost_matches_axis_min_reference(self, make, eta):
        # Reference: the same reduction scored by numpy's row minimum.
        inst = make()
        table = GridPlanTable(inst, eta)
        d1 = inst.initial_distribution
        ref_value, ident = table.reduce_best(
            score_fn=lambda vals: vals.min(axis=1),
            tie_fn=lambda vals: oracle._welfare_scores(vals, d1),
        )
        value, plan = po.oracle_expost_maximin(inst, eta)
        assert value == ref_value
        assert_same_plan(plan, table.plan_for(*ident))

    @BLOCK_CASES
    def test_exante_matches_whole_table_game(self, make, eta):
        # Reference: the mixture LP over every row of the table at once.
        inst = make()
        table = GridPlanTable(inst, eta)
        whole, _, _ = mixture_game(np.concatenate([v for v, _ in table.blocks()]))
        value, mixed = po.oracle_exante_maximin(inst, eta)
        assert value == pytest.approx(whole, abs=1e-9)
        assert value == pytest.approx(po.evaluate_mixed(inst, mixed)[1], abs=1e-12)
        assert po.mixed_violations(inst, mixed) == []


def reference_candidates(m0, mask, eta, max_units):
    """Every grid variant of m0 by brute force: each column's free entries
    over their whole ranges, then the columns, in itertools.product order."""
    columns = []
    for u in range(m0.shape[1]):
        free = np.flatnonzero(mask[:, u])
        ranges = [range(-math.floor(m0[v, u] / eta + oracle._SNAP),
                        math.floor((1.0 - m0[v, u]) / eta + oracle._SNAP) + 1)
                  for v in free]
        options = []
        for dvs in itertools.product(*ranges):
            cost = sum(abs(dv) for dv in dvs)
            if sum(dvs) == 0 and cost <= max_units:
                delta = np.zeros(m0.shape[0], dtype=np.int64)
                delta[free] = dvs
                options.append((delta, cost))
        columns.append(options)
    mats, costs = [], []
    for combo in itertools.product(*columns):
        cost = sum(c for _, c in combo)
        if cost <= max_units:
            mats.append(m0 + eta * np.stack([d for d, _ in combo], axis=1))
            costs.append(cost)
    return np.stack(mats), np.array(costs, dtype=np.int64)


LAYERS = {
    # Column 0 has a lone malleable entry, column 1 is frozen.
    "lone_and_frozen": (np.array([[0.5, 0.2, 0.3], [0.5, 0.8, 0.0], [0.0, 0.0, 0.7]]),
                        np.array([[True, False, True], [False, False, True],
                                  [False, False, True]])),
    "zero_and_one": (np.array([[1.0, 0.0], [0.0, 1.0]]), np.ones((2, 2), dtype=bool)),
    "off_grid_width3": (np.array([[0.3, 1.0, 0.0], [0.7, 0.0, 0.35], [0.0, 0.0, 0.65]]),
                        np.ones((3, 3), dtype=bool)),
    "partly_malleable": (np.array([[0.3, 0.5], [0.3, 0.5], [0.4, 0.0]]),
                         np.array([[True, True], [False, True], [True, True]])),
}


class TestLayerCandidates:
    @pytest.mark.parametrize("max_units", [0, 1, 3, 8])
    @pytest.mark.parametrize("eta", [0.25, 0.1, 0.075])
    @pytest.mark.parametrize("name", sorted(LAYERS))
    def test_matches_reference(self, name, eta, max_units):
        m0, mask = LAYERS[name]
        mats, costs = oracle._layer_candidates(m0, mask, eta, max_units, oracle.ORACLE_CAP)
        ref_mats, ref_costs = reference_candidates(m0, mask, eta, max_units)
        assert mats.dtype == ref_mats.dtype and costs.dtype == ref_costs.dtype
        assert mats.shape == ref_mats.shape
        assert mats.tobytes() == ref_mats.tobytes()
        assert costs.tobytes() == ref_costs.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_layers_match_reference(self, seed):
        inst = po.random_instance(seed, 3, 2, 0.7, 0.5)
        m0, mask = inst.initial_matrices[0], inst.malleable[0]
        mats, costs = oracle._layer_candidates(m0, mask, 0.1, 5, oracle.ORACLE_CAP)
        ref_mats, ref_costs = reference_candidates(m0, mask, 0.1, 5)
        assert mats.tobytes() == ref_mats.tobytes()
        assert costs.tobytes() == ref_costs.tobytes()

    def test_column_scan_refused(self):
        # Two of the three free entries span 11 steps each: 121 deltas to scan.
        m0 = np.full((3, 1), 0.5)
        m0[2, 0] = 0.0
        with pytest.raises(CapacityError, match="column enumeration would scan 121"):
            oracle._layer_candidates(m0, np.ones((3, 1), dtype=bool), 0.1, 10, 120)

    def test_layer_count_refused(self):
        # Each column scans 5 deltas, within the cap, and keeps all 5; two
        # columns already make 25 matrices.
        m0 = np.full((2, 3), 0.5)
        with pytest.raises(CapacityError, match="layer enumeration would hold 25"):
            oracle._layer_candidates(m0, np.ones((2, 3), dtype=bool), 0.25, 4, 10)


class TestEtaRefusal:
    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0, -0.1],
                             ids=["nan", "inf", "zero", "negative"])
    @pytest.mark.parametrize("fn", [po.oracle_welfare, po.oracle_expost_maximin,
                                    po.oracle_exante_maximin],
                             ids=["welfare", "expost", "exante"])
    def test_refused(self, fn, eta):
        inst = po.fairness_price_instance(2, 0.2, 1.0)
        with pytest.raises(ValueError, match="eta"):
            fn(inst, eta)


class TestCaps:
    def test_deep_wide_enumeration_refused(self):
        # The four-layer separation network at a fine grid blows the cap.
        inst = po.separation_instance(0.6)
        with pytest.raises(CapacityError):
            po.oracle_expost_maximin(inst, 0.025)

    def test_explicit_cap_respected(self):
        inst = po.random_instance(0, 2, 3, 1.0, 1.0)
        with pytest.raises(CapacityError):
            po.oracle_welfare(inst, 0.05, cap=100)


class TestCostModelSupport:
    def test_weighted_costs_rejected(self):
        inst = po.fairness_price_instance(2, 0.2, 1.0)
        weighted = po.make_instance(
            inst.layer_sizes, inst.initial_matrices, inst.rewards,
            inst.initial_distribution, inst.budget, inst.malleable,
            cost_model=po.CostModel(
                "weighted_l1",
                tuple(np.full_like(m, 2.0) for m in inst.initial_matrices),
            ),
        )
        with pytest.raises(ValueError, match="l1"):
            po.oracle_welfare(weighted, 0.1)
