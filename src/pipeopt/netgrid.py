"""Discretization as plain arrays: budget grids, simplex nets, multisets.

The solvers search over budget splits restricted to multiples of a step, and
over layer distributions restricted to a finite grid of the probability
simplex.  The grid is constructive: points are the distributions whose
coordinates are multiples of an inner spacing delta, which makes
deterministic enumeration trivial, at the price of a somewhat larger net
than the best packing-based constructions.

One enumerator, `multisets`, serves both the nets and the DPs' population
tables: a net point is a composition of `units` into `dim` parts, read off
the sorted cut positions of a size-(dim-1) multiset of range(units+1).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import CapacityError

DEFAULT_NET_CAP = 10_000_000

# Slack used when snapping real-valued ratios to integers, so that e.g.
# 1.0 / 0.1 lands on 10 despite binary rounding.
_SNAP = 1e-9


def budget_grid_size(budget: float, eps: float) -> int:
    """Number of points of `build_budget_grid(budget, eps)`."""
    steps = budget / eps + _SNAP
    if not math.isfinite(steps):
        raise CapacityError(
            f"budget grid for budget={budget}, eps={eps} is too large: "
            "budget / eps overflows")
    return int(math.floor(steps)) + 1


def build_budget_grid(budget: float, eps: float) -> np.ndarray:
    """Grid {0, eps, 2*eps, ...} intersected with [0, budget], ascending."""
    if eps <= 0:
        raise ValueError(f"grid step must be positive, got {eps}")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    return np.arange(budget_grid_size(budget, eps), dtype=float) * eps


def multisets(n: int, k: int) -> np.ndarray:
    """Every size-`k` multiset of range(n) as a sorted row, lexicographic.

    Returns a (C(n+k-1, k), k) int64 array; k = 0 gives one empty row.
    """
    rows = itertools.combinations_with_replacement(range(n), k)
    return np.fromiter(itertools.chain.from_iterable(rows),
                       dtype=np.int64).reshape(math.comb(n + k - 1, k), k)


def simplex_grid_size(dim: int, units: int) -> int:
    """Number of `dim`-part compositions of `units`."""
    return math.comb(units + dim - 1, dim - 1)


def net_units(dim: int, radius: float) -> int:
    """Grid resolution (1/delta) of `build_simplex_net(dim, radius)`.

    No two distributions lie more than 2 apart in l1, so a radius above 2
    gets the radius-2 net.
    """
    if dim == 1:
        return 1
    return int(math.ceil(2 * (dim - 1) / min(radius, 2.0) - _SNAP))


def build_simplex_net(dim: int, radius: float) -> np.ndarray:
    """Constructive l1 cover of the probability simplex of dimension `dim`.

    Returns the (n_points, dim) array of all distributions with coordinates
    on a 1/units grid, units = `net_units(dim, radius)`, in lexicographic
    order (first coordinate slowest).  Rounding the first dim-1 coordinates
    of any distribution down to the grid moves each by less than delta and
    the last by less than (dim-1)*delta, so the net covers the simplex
    within l1 radius 2*(dim-1)*delta <= radius.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    units = net_units(dim, radius)
    size = simplex_grid_size(dim, units)
    if size > DEFAULT_NET_CAP:
        raise CapacityError(
            f"simplex net for dim={dim}, radius={radius} would hold {size} points "
            f"(cap {DEFAULT_NET_CAP})"
        )
    cuts = multisets(units + 1, dim - 1)
    return np.diff(cuts, axis=1, prepend=0, append=units) / units
