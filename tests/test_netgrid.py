"""Budget grids and simplex covers."""

import math

import numpy as np
import pytest

import pipeopt as po
from pipeopt.errors import CapacityError
from pipeopt.netgrid import simplex_grid_size

rng = np.random.default_rng(11)


class TestBudgetGrid:
    def test_exact_division(self):
        g = po.build_budget_grid(1.0, 0.25)
        np.testing.assert_allclose(g.points, [0, 0.25, 0.5, 0.75, 1.0])
        assert g.top == 1.0

    def test_floor(self):
        g = po.build_budget_grid(1.0, 0.3)
        np.testing.assert_allclose(g.points, [0, 0.3, 0.6, 0.9])
        assert g.top == pytest.approx(0.9)

    def test_degenerate(self):
        g = po.build_budget_grid(0.0, 0.5)
        np.testing.assert_allclose(g.points, [0.0])

    def test_binary_rounding_does_not_drop_top(self):
        # 1.0 / 0.1 is 9.999... in floats; the top point must still be 1.0.
        g = po.build_budget_grid(1.0, 0.1)
        assert len(g) == 11
        assert g.top == pytest.approx(1.0, abs=1e-12)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            po.build_budget_grid(1.0, 0.0)


class TestSimplexNet:
    def test_point_simplex(self):
        net = po.build_simplex_net(1, 0.3)
        np.testing.assert_allclose(net.points, [[1.0]])

    def test_dim2_half_radius(self):
        net = po.build_simplex_net(2, 0.5)
        assert net.delta == pytest.approx(0.25)
        np.testing.assert_allclose(
            net.points,
            [[0.0, 1.0], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25], [1.0, 0.0]],
        )

    def test_dim3_spacing(self):
        net = po.build_simplex_net(3, 0.5)
        assert net.delta == pytest.approx(0.125)
        assert len(net) == simplex_grid_size(3, 8)

    def test_every_point_is_a_distribution(self):
        net = po.build_simplex_net(4, 0.6)
        assert np.all(net.points >= 0)
        np.testing.assert_allclose(net.points.sum(axis=1), 1.0, atol=1e-9)

    def test_size_formula(self):
        for d, radius in [(2, 0.4), (3, 0.3), (4, 0.8)]:
            net = po.build_simplex_net(d, radius)
            units = math.ceil(2 * (d - 1) / radius - 1e-9)
            assert len(net) == math.comb(units + d - 1, d - 1)

    def test_cap_refusal(self):
        with pytest.raises(CapacityError):
            po.build_simplex_net(6, 0.01)

    @pytest.mark.parametrize("dim,radius", [(2, 0.5), (3, 0.5), (3, 0.3), (4, 0.7)])
    def test_cover_radius(self, dim, radius):
        # The DP's guarantee rests on every distribution having a net point
        # within the radius.
        net = po.build_simplex_net(dim, radius)
        samples = rng.dirichlet(np.ones(dim), size=2000)
        dist = np.abs(samples[:, None, :] - net.points[None, :, :]).sum(axis=2)
        assert dist.min(axis=1).max() <= radius + 1e-12


class TestPopulationNet:
    # The DPs enumerate population tuples as ranks over net ** populations,
    # decoded most-significant population first.
    @staticmethod
    def _tuples(dp, t=1):
        return [tuple(dp._digits(t, r)) for r in range(dp._n_tuples(t))]

    def test_counts(self):
        inst = po.random_instance(37, 2, 3, 1.0, 0.5)
        welfare = po.WelfareDP(inst, 1.0)
        assert len(welfare.nets[1]) == 3  # build_simplex_net(2, 1.0)
        assert self._tuples(welfare) == [(0,), (1,), (2,)]
        maximin = po.MaximinDP(inst, 1.0)
        tuples = self._tuples(maximin)
        assert len(tuples) == 9
        assert tuples == sorted(tuples)  # lexicographic
        assert len(set(tuples)) == 9

    def test_no_duplicates_5_choose_2(self):
        inst = po.random_instance(37, 2, 3, 1.0, 0.5)
        dp = po.MaximinDP(inst, 0.5)
        assert len(dp.nets[1]) == 5  # build_simplex_net(2, 0.5)
        tuples = self._tuples(dp)
        assert len(tuples) == 25
        assert len(set(tuples)) == 25
        assert dp.meta()["population_tuples"] == {1: 25}
