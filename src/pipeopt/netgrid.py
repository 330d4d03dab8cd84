"""Discretization machinery: budget grids and simplex covers.

The solvers search over budget splits restricted to multiples of a step, and
over layer distributions restricted to a finite grid of the probability
simplex.  The grid is constructive: points are the distributions whose
coordinates are multiples of an inner spacing delta, which makes
deterministic enumeration trivial, at the price of a somewhat larger net
than the best packing-based constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError

DEFAULT_NET_CAP = 10_000_000

# Slack used when snapping real-valued ratios to integers, so that e.g.
# 1.0 / 0.1 lands on 10 despite binary rounding.
_SNAP = 1e-9


def _floor_ratio(x: float, step: float) -> int:
    return int(math.floor(x / step + _SNAP))


@dataclass(frozen=True)
class BudgetGrid:
    """Multiples of `step` from 0 up to (and not beyond) `cap`."""

    step: float
    cap: float
    points: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def top(self) -> float:
        """Largest grid point <= cap."""
        return float(self.points[-1])

    def value(self, idx: int) -> float:
        return float(self.points[idx])


def build_budget_grid(budget: float, eps: float) -> BudgetGrid:
    """Grid {0, eps, 2*eps, ...} intersected with [0, budget]."""
    if eps <= 0:
        raise ValueError(f"grid step must be positive, got {eps}")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    n = _floor_ratio(budget, eps)
    points = np.arange(n + 1, dtype=float) * eps
    return BudgetGrid(step=float(eps), cap=float(budget), points=points)


def simplex_grid_size(dim: int, units: int) -> int:
    """Number of `dim`-part compositions of `units`."""
    return math.comb(units + dim - 1, dim - 1)


@dataclass(frozen=True)
class SimplexNet:
    """All distributions over `dim` outcomes with coordinates on a 1/units grid.

    Rounding the first dim-1 coordinates of any distribution down to the grid
    moves each by less than delta and the last by less than (dim-1)*delta, so
    the net covers the simplex within l1 radius 2*(dim-1)*delta <= radius.
    """

    dim: int
    radius: float
    units: int  # delta = 1 / units
    points: np.ndarray = field(repr=False)  # (n_points, dim)

    @property
    def delta(self) -> float:
        return 1.0 / self.units

    def __len__(self) -> int:
        return len(self.points)


def build_simplex_net(dim: int, radius: float, cap: int = DEFAULT_NET_CAP) -> SimplexNet:
    """Constructive l1 cover of the probability simplex of dimension `dim`.

    The inner spacing is delta = 1/ceil(2*max(dim-1, 1)/radius); using the
    ceiling keeps exact-sum grid points well defined for every radius.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if not (0 < radius <= 2):
        raise ValueError(f"radius must lie in (0, 2], got {radius}")
    if dim == 1:
        pts = np.array([[1.0]])
        return SimplexNet(dim=1, radius=radius, units=1, points=pts)
    units = int(math.ceil(2 * (dim - 1) / radius - _SNAP))
    size = simplex_grid_size(dim, units)
    if size > cap:
        raise CapacityError(
            f"simplex net for dim={dim}, radius={radius} would hold {size} points "
            f"(cap {cap})"
        )
    coords = []
    # Lexicographic enumeration of compositions: first coordinate slowest.
    def rec(prefix, remaining, slots):
        if slots == 1:
            coords.append(prefix + (remaining,))
            return
        for c in range(remaining + 1):
            rec(prefix + (c,), remaining - c, slots - 1)

    rec((), units, dim)
    pts = np.array(coords, dtype=float) / units
    return SimplexNet(dim=dim, radius=radius, units=units, points=pts)

