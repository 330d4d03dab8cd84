"""Benchmark instance constructors."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

import pipeopt as po
from pipeopt.serialize import instance_to_dict

TRIANGLE = [(0, 1), (0, 2), (1, 2)]


class TestFairnessPrice:
    def test_starting_distribution(self):
        inst = po.fairness_price_instance(3, 0.1, 1.0)
        np.testing.assert_allclose(inst.initial_distribution, [0.8, 0.1, 0.1])
        np.testing.assert_allclose(inst.rewards, [1.0, 0.0])
        assert po.validate_instance(inst) == []
        assert inst.all_malleable()

    @pytest.mark.parametrize("width,budget", [(2, 0.5), (3, 0.5), (2, 1.0),
                                              (3, 1.0), (2, 2.0), (3, 2.0)])
    def test_welfare_closed_form_small_budget(self, width, budget):
        # For budgets <= 2 the optimum pours everything into the majority
        # column: welfare (B/2) * (1 - (w-1)*tail).
        tail = 0.1
        inst = po.fairness_price_instance(width, tail, budget)
        eta = budget / (4 * width)
        value, _ = po.oracle_welfare(inst, eta)
        assert value == pytest.approx(
            budget / 2 * (1 - (width - 1) * tail), abs=1e-9
        )

    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("budget", [0.5, 1.0, 2.0, None])
    def test_maximin_closed_form(self, width, budget):
        # The fair optimum spreads B/(2w) to every population (capped at 1).
        if budget is None:
            budget = 2.0 * width
        inst = po.fairness_price_instance(width, 0.1, budget)
        eta = budget / (4 * width)
        value, _ = po.oracle_expost_maximin(inst, eta)
        assert value == pytest.approx(min(1.0, budget / (2 * width)), abs=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            po.fairness_price_instance(1, 0.1, 1.0)
        with pytest.raises(ValueError):
            po.fairness_price_instance(3, 0.5, 1.0)  # tail too heavy


class TestSeparation:
    def test_initial_population_rewards(self):
        inst = po.separation_instance(0.6)
        rewards = po.evaluate_population_rewards(inst, po.zero_budget_plan(inst))
        np.testing.assert_allclose(rewards, [1 / 8, 1 / 8], atol=1e-12)
        assert po.validate_instance(inst) == []

    def test_frozen_leak_columns(self):
        inst = po.separation_instance(0.6)
        assert not inst.malleable[1][:, 2].any()  # x column frozen
        assert not inst.malleable[2][:, 2].any()  # y column frozen
        assert inst.malleable[0].all()

    def test_large_budget_warns(self):
        with pytest.warns(UserWarning):
            po.separation_instance(1.5)

    def test_randomized_beats_deterministic_ceiling(self):
        # The coin-flip construction value exceeds the deterministic ceiling
        # at the default budget: 0.1705 vs 0.161.
        b = 0.6
        construction = 0.5 * (1 / 8 + (0.5 + b / 6) ** 3)
        ceiling = (b / 6) * (0.5 + b / 6) ** 2 + 1 / 8
        assert construction == pytest.approx(0.1705, abs=1e-12)
        assert ceiling == pytest.approx(0.161, abs=1e-12)
        assert ceiling < construction


class TestCoverReduction:
    def test_shape(self):
        inst, meta = po.cover_reduction_instance(TRIANGLE, 2, 0.25)
        assert inst.depth == 17
        assert inst.layer_sizes == (3, 3) + (4,) * 14 + (2,)
        assert po.validate_instance(inst) == []
        assert meta["budget"] == pytest.approx(15.0)
        assert meta["threshold_exact"] == Fraction(1, 2) ** 15 / 4

    def test_malleable_set_is_exactly_the_paths_and_leaks(self):
        inst, meta = po.cover_reduction_instance(TRIANGLE, 2, 0.25)
        n = meta["n_vertices"]
        assert not inst.malleable[0].any()  # edge-node fan-out is frozen
        for t in range(1, 16):
            mask = inst.malleable[t]
            # per vertex: its chain edge and its leakage partner
            assert mask.sum() == 2 * n
            for v in range(n):
                assert mask[v if t < 15 else 0, v]
                assert mask[-1, v]
            if mask.shape[1] == n + 1:
                assert not mask[:, n].any()  # leakage column frozen

    def test_cover_plan_exact_value(self):
        inst, meta = po.cover_reduction_instance(TRIANGLE, 2, 0.25)
        plan, value = po.verify_cover_plan(inst, meta, [0, 1])
        # Budget is consumed exactly: 2 * 15 * 2 * 0.25.
        assert sum(plan.budget_split) == pytest.approx(15.0, abs=0)
        assert plan.total_cost(inst) == pytest.approx(15.0, abs=1e-12)
        assert po.plan_violations(inst, plan) == []
        two_t = 2 * meta["threshold_exact"]
        assert value >= two_t
        # Exact characterization: half the lifted-path value plus half the
        # untouched chain's value.
        lifted = Fraction(1, 2) ** 15
        untouched = Fraction(1, 4) ** 15
        assert value == lifted / 2 + untouched / 2

    def test_full_vertex_cover_also_certifies(self):
        inst, meta = po.cover_reduction_instance(TRIANGLE, 3, 0.25)
        plan, value = po.verify_cover_plan(inst, meta, [0, 1, 2])
        assert value >= 2 * meta["threshold_exact"]
        assert plan.total_cost(inst) == pytest.approx(meta["budget"], abs=1e-9)

    def test_non_cover_rejected(self):
        inst, meta = po.cover_reduction_instance(TRIANGLE, 2, 0.25)
        with pytest.raises(ValueError, match="not a vertex cover"):
            po.verify_cover_plan(inst, meta, [0])

    def test_edge_list_parsing(self):
        text = "0 1\n# comment\n1 2  # trailing\n\n2 0\n"
        assert po.parse_edge_list(text) == [(0, 1), (1, 2), (2, 0)]
        with pytest.raises(ValueError):
            po.parse_edge_list("3 3")
        with pytest.raises(ValueError):
            po.parse_edge_list("1 2 3")

    def test_bad_vertex_ids_refused(self):
        # A negative id would index rows from the end and encode another edge.
        with pytest.raises(ValueError, match="line 2: negative"):
            po.parse_edge_list("0 1\n-1 0\n1 2\n")
        with pytest.raises(ValueError, match="line 1: vertex ids must be integers"):
            po.parse_edge_list("x 2\n")
        with pytest.raises(ValueError, match="non-negative"):
            po.cover_reduction_instance([(-1, 0), (1, 2)], 2, 0.25)
        # A self-loop once built an edge column summing to 1/2.
        with pytest.raises(ValueError, match=r"self-loop \(0, 0\)"):
            po.cover_reduction_instance([(0, 0), (0, 1)], 2, 0.25)

    @pytest.mark.parametrize("edges,kappa,cover,instance_digest,plan_digest", [
        (TRIANGLE, 2, [0, 1],
         "44411690dc0c5d3942c45863276d76be8cd70195de8f8b3f751855dacd4f7968",
         "dde8635aa71e3c65d04b1beade32397114b6e3ad58b704c7f70a297ec947d742"),
        ([(i, (i + 1) % 8) for i in range(8)], 4, [0, 2, 4, 6],
         "ad95f77ca607fab19b9a9a5a9b15c850044521aff0dfbe8da5d1380b61097c5c",
         "d713834b0501905d82038145535ed07020b78c348a08692acb8d40dc326af20a"),
    ], ids=["triangle", "8-cycle"])
    def test_golden_digests(self, edges, kappa, cover, instance_digest, plan_digest):
        # Pins every entry of the instance and of the certificate plan.
        def digest(obj):
            blob = json.dumps(obj, sort_keys=True)
            return hashlib.sha256(blob.encode()).hexdigest()

        inst, meta = po.cover_reduction_instance(edges, kappa, 0.25)
        assert digest(instance_to_dict(inst)) == instance_digest
        plan, _ = po.verify_cover_plan(inst, meta, cover)
        assert digest([m.tolist() for m in plan.matrices]) == plan_digest


class TestRandomFamily:
    def test_valid_and_reproducible(self):
        a = po.random_instance(42, 3, 4, 0.6, 1.0)
        b = po.random_instance(42, 3, 4, 0.6, 1.0)
        assert po.validate_instance(a) == []
        for ma, mb in zip(a.initial_matrices, b.initial_matrices):
            np.testing.assert_array_equal(ma, mb)
        assert a.reward_sup == pytest.approx(1.0)

    def test_golden_digests(self):
        # Frozen at first build; any drift in the generator or the RNG stream
        # shows up here.
        expected = {
            0: "83d9171ba7c2cf59f92700d142b9ea3c487095884758ee24d0524b6dc4e0856d",
            1: "eec7b9ca131138e4269e944254aaca0167a979805d3a5e05372855a272ffa456",
            2: "595e5af50ed676850c5a19b530cc9f946809fce4fbabfcfa9316dd500daf64cb",
        }
        for seed, digest in expected.items():
            inst = po.random_instance(seed, 2, 3, 1.0, 1.0)
            blob = json.dumps(instance_to_dict(inst), sort_keys=True)
            assert hashlib.sha256(blob.encode()).hexdigest() == digest

    @pytest.mark.parametrize("args,name", [
        ((0, 3, 1.0), "width"),
        ((2, 1, 1.0), "depth"),
        ((2, 3, -0.1), "malleable_fraction"),
        ((2, 3, 1.5), "malleable_fraction"),
        ((2, 3, float("nan")), "malleable_fraction"),
    ])
    def test_bad_sizes_refused(self, args, name):
        with pytest.raises(ValueError, match=name):
            po.random_instance(0, *args, 1.0)
