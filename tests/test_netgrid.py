"""Budget grids, simplex covers and the multiset enumerator."""

import itertools
import math

import numpy as np
import pytest

import pipeopt as po
from pipeopt.errors import CapacityError
from pipeopt.netgrid import multisets, net_units, simplex_grid_size

rng = np.random.default_rng(11)


class TestBudgetGrid:
    def test_exact_division(self):
        g = po.build_budget_grid(1.0, 0.25)
        np.testing.assert_allclose(g, [0, 0.25, 0.5, 0.75, 1.0])
        assert g[-1] == 1.0

    def test_floor(self):
        g = po.build_budget_grid(1.0, 0.3)
        np.testing.assert_allclose(g, [0, 0.3, 0.6, 0.9])
        assert g[-1] == pytest.approx(0.9)

    def test_degenerate(self):
        g = po.build_budget_grid(0.0, 0.5)
        np.testing.assert_allclose(g, [0.0])

    def test_binary_rounding_does_not_drop_top(self):
        # 1.0 / 0.1 is 9.999... in floats; the top point must still be 1.0.
        g = po.build_budget_grid(1.0, 0.1)
        assert len(g) == 11
        assert g[-1] == pytest.approx(1.0, abs=1e-12)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            po.build_budget_grid(1.0, 0.0)


class TestSimplexNet:
    def test_point_simplex(self):
        net = po.build_simplex_net(1, 0.3)
        np.testing.assert_allclose(net, [[1.0]])

    def test_dim2_half_radius(self):
        net = po.build_simplex_net(2, 0.5)
        assert 1 / net_units(2, 0.5) == pytest.approx(0.25)
        np.testing.assert_allclose(
            net,
            [[0.0, 1.0], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25], [1.0, 0.0]],
        )

    def test_dim3_spacing(self):
        net = po.build_simplex_net(3, 0.5)
        assert 1 / net_units(3, 0.5) == pytest.approx(0.125)
        assert len(net) == simplex_grid_size(3, 8)

    def test_every_point_is_a_distribution(self):
        net = po.build_simplex_net(4, 0.6)
        assert np.all(net >= 0)
        np.testing.assert_allclose(net.sum(axis=1), 1.0, atol=1e-9)

    def test_size_formula(self):
        for d, radius in [(2, 0.4), (3, 0.3), (4, 0.8)]:
            net = po.build_simplex_net(d, radius)
            units = math.ceil(2 * (d - 1) / radius - 1e-9)
            assert len(net) == math.comb(units + d - 1, d - 1)

    def test_cap_refusal(self):
        with pytest.raises(CapacityError):
            po.build_simplex_net(6, 0.01)

    @pytest.mark.parametrize("radius", [0, -1, float("nan"), float("inf")])
    def test_bad_radius_refused(self, radius):
        with pytest.raises(ValueError, match="radius"):
            po.build_simplex_net(3, radius)

    @pytest.mark.parametrize("dim,radius", [(3, 3.0), (3, 10.0), (4, 3.0)])
    def test_radius_above_diameter_is_radius_2(self, dim, radius):
        # No two distributions lie more than 2 apart in l1.
        assert net_units(dim, radius) == net_units(dim, 2.0)
        np.testing.assert_array_equal(po.build_simplex_net(dim, radius),
                                      po.build_simplex_net(dim, 2.0))

    @pytest.mark.parametrize("dim,radius", [
        (1, 0.5), (2, 2.0), (2, 0.3), (3, 1.0), (3, 0.25), (4, 0.7), (5, 1.5)])
    def test_matches_brute_force_compositions(self, dim, radius):
        # Every composition of `units` into `dim` parts, first coordinate
        # slowest, divided by `units`: the same values, order and dtype.
        units = net_units(dim, radius)
        ref = [c for c in itertools.product(range(units + 1), repeat=dim)
               if sum(c) == units]
        net = po.build_simplex_net(dim, radius)
        want = np.array(ref, dtype=float) / units
        assert net.dtype == want.dtype and net.flags.c_contiguous
        np.testing.assert_array_equal(net, want)

    @pytest.mark.parametrize("dim,radius", [(2, 0.5), (3, 0.5), (3, 0.3), (4, 0.7)])
    def test_cover_radius(self, dim, radius):
        # The DP's guarantee rests on every distribution having a net point
        # within the radius.
        net = po.build_simplex_net(dim, radius)
        samples = rng.dirichlet(np.ones(dim), size=2000)
        dist = np.abs(samples[:, None, :] - net[None, :, :]).sum(axis=2)
        assert dist.min(axis=1).max() <= radius + 1e-12


class TestMultisets:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_sorted_product_rows(self, n, k):
        ref = sorted({tuple(sorted(p))
                      for p in itertools.product(range(n), repeat=k)})
        rows = multisets(n, k)
        assert rows.shape == (math.comb(n + k - 1, k), k)
        assert rows.dtype == np.int64
        assert [tuple(r) for r in rows.tolist()] == ref


class TestPopulationNet:
    # The DPs index cells by a multiset table: every multiset of net points
    # with one point per population, as sorted net-index rows in
    # lexicographic order.
    @staticmethod
    def _tuples(dp, t=1):
        return [tuple(row) for row in dp._table[t].tolist()]

    def test_counts(self):
        inst = po.random_instance(37, 2, 3, 1.0, 0.5)
        welfare = po.WelfareDP(inst, 1.0)
        assert len(welfare.nets[1]) == 3  # build_simplex_net(2, 1.0)
        assert self._tuples(welfare) == [(0,), (1,), (2,)]
        maximin = po.MaximinDP(inst, 1.0)
        assert self._tuples(maximin) == [(0, 0), (0, 1), (0, 2),
                                         (1, 1), (1, 2), (2, 2)]

    def test_no_duplicates_5_choose_2(self):
        inst = po.random_instance(37, 2, 3, 1.0, 0.5)
        dp = po.MaximinDP(inst, 0.5)
        assert len(dp.nets[1]) == 5  # build_simplex_net(2, 0.5)
        tuples = self._tuples(dp)
        assert len(tuples) == 15 == math.comb(5 + 1, 2)
        assert len(set(tuples)) == 15
        assert all(list(row) == sorted(row) for row in tuples)
        assert tuples == sorted(tuples)  # lexicographic
        assert dp.meta()["population_tuples"] == {1: 15}
