"""Core domain types: problem instances, intervention plans, and exact evaluation.

A pipeline is a layered chain of column-stochastic transition matrices.
Individuals start in layer 1 according to a fixed distribution, move layer to
layer according to the transition matrices, and collect the reward attached to
the node they reach in the final layer.  An intervention replaces the initial
matrices with new ones, paying for every unit of probability mass it moves.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# Numeric tolerance for stochasticity / feasibility checks.  All arithmetic is
# dense double precision over short chains, so 1e-9 is comfortable.
ATOL = 1e-9


def _as_matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class CostModel:
    """Per-edge pricing of probability-mass moves.

    kind="l1" charges 1 per unit of absolute change on every edge.
    kind="weighted_l1" charges weights[t][v, u] per unit of change on edge
    (u -> v) of transition t; all weights must be strictly positive, and the
    smallest weight plays the role of the linear growth constant.
    """

    kind: str = "l1"
    weights: Optional[tuple] = None  # tuple of ndarrays, one per transition

    def __post_init__(self):
        if self.kind not in ("l1", "weighted_l1"):
            raise ValueError(f"unknown cost_model kind {self.kind!r}; "
                             "expected 'l1' or 'weighted_l1'")
        if self.kind == "weighted_l1":
            if self.weights is None:
                raise ValueError("weighted_l1 requires weight matrices")
            ws = tuple(_as_matrix(w) for w in self.weights)
            for t, w in enumerate(ws):
                if np.any(w <= 0):
                    raise ValueError(f"non-positive weight in layer {t}")
            object.__setattr__(self, "weights", ws)

    def layer_weights(self, t: int) -> Optional[np.ndarray]:
        """Weight matrix for transition t, or None for unit (l1) costs."""
        if self.kind == "l1":
            return None
        return self.weights[t]

    def layer_cost(self, t: int, m: np.ndarray, m0: np.ndarray) -> float:
        diff = np.abs(np.asarray(m, float) - np.asarray(m0, float))
        w = self.layer_weights(t)
        return float(diff.sum() if w is None else (w * diff).sum())


L1_COST = CostModel("l1")


@dataclass(frozen=True)
class Instance:
    """A full problem description.

    layer_sizes[t] is the number of nodes in layer t (1-indexed in prose,
    0-indexed here).  initial_matrices[t] has shape
    (layer_sizes[t+1], layer_sizes[t]); entry [v, u] is the probability of
    moving from node u to node v, so every column sums to 1.  malleable[t] is
    a boolean mask of the same shape marking edges the designer may modify.
    """

    layer_sizes: tuple
    initial_matrices: tuple
    malleable: tuple
    rewards: np.ndarray
    initial_distribution: np.ndarray
    budget: float
    cost_model: CostModel = field(default=L1_COST)

    @property
    def depth(self) -> int:
        """Number of layers."""
        return len(self.layer_sizes)

    @property
    def width(self) -> int:
        """Largest layer size; the `w` appearing in analytic bounds."""
        return max(self.layer_sizes)

    @property
    def reward_sup(self) -> float:
        return float(np.max(self.rewards))

    def all_malleable(self) -> bool:
        return all(bool(np.all(m)) for m in self.malleable)


def make_instance(
    layer_sizes: Sequence[int],
    initial_matrices: Sequence,
    rewards: Sequence[float],
    initial_distribution: Sequence[float],
    budget: float,
    malleable: Optional[Sequence] = None,
    cost_model: CostModel = L1_COST,
) -> Instance:
    """Assemble an Instance from plain sequences; mask defaults to all-true.

    Layer sizes must be integers; an integral float such as 3.0 is accepted,
    a boolean is not.  The budget must be a number, not a string or boolean.
    """
    sizes = []
    for t, s in enumerate(layer_sizes):
        if isinstance(s, bool) or not (isinstance(s, numbers.Integral)
                                       or isinstance(s, float) and s.is_integer()):
            raise ValueError(f"layers[{t}] = {s!r} is not an integer")
        sizes.append(int(s))
    if isinstance(budget, bool) or not isinstance(budget, numbers.Real):
        raise ValueError(f"budget = {budget!r} is not a number")
    mats = tuple(_as_matrix(m) for m in initial_matrices)
    if malleable is None:
        masks = tuple(np.ones_like(m, dtype=bool) for m in mats)
    else:
        masks = tuple(np.asarray(m, dtype=bool) for m in malleable)
    return Instance(
        layer_sizes=tuple(sizes),
        initial_matrices=mats,
        malleable=masks,
        rewards=_as_vector(rewards),
        initial_distribution=_as_vector(initial_distribution),
        budget=float(budget),
        cost_model=cost_model,
    )


def validate_instance(instance: Instance) -> list:
    """Collect every invariant violation; an empty list means the instance is valid.

    Violations are strings naming the offending layer / row / column and the
    magnitude of the defect.  Violations are data, not exceptions.
    """
    out = []
    sizes = instance.layer_sizes
    if len(sizes) < 2:
        out.append(f"instance must have at least 2 layers, got {len(sizes)}")
    for t, s in enumerate(sizes):
        if s < 1:
            out.append(f"layer {t} is empty")
    if len(instance.initial_matrices) != len(sizes) - 1:
        out.append(
            f"expected {len(sizes) - 1} transition matrices, got "
            f"{len(instance.initial_matrices)}"
        )
        return out  # shapes unusable, stop here
    if len(instance.malleable) != len(instance.initial_matrices):
        out.append(f"malleable has {len(instance.malleable)} masks, expected "
                   f"{len(instance.initial_matrices)}")
    for t, (m, mask) in enumerate(zip(instance.initial_matrices, instance.malleable)):
        want = (sizes[t + 1], sizes[t])
        if m.shape != want:
            out.append(f"transition {t} has shape {m.shape}, expected {want}")
            continue
        if mask.shape != want:
            out.append(f"mask {t} has shape {mask.shape}, expected {want}")
        if not np.all(np.isfinite(m)):
            out.append(f"transition {t} entry {_first_nonfinite(m)} is not finite")
            continue
        if np.any(m < -ATOL) or np.any(m > 1 + ATOL):
            bad = np.argwhere((m < -ATOL) | (m > 1 + ATOL))[0]
            out.append(
                f"transition {t} entry ({bad[0]}, {bad[1]}) = "
                f"{m[bad[0], bad[1]]:.12g} outside [0, 1]"
            )
        colsums = m.sum(axis=0)
        for u, cs in enumerate(colsums):
            if abs(cs - 1.0) > ATOL:
                out.append(
                    f"transition {t} column {u} sums to {cs:.12g} "
                    f"(off by {cs - 1.0:+.3g})"
                )
    if instance.rewards.shape != (sizes[-1],):
        out.append(
            f"rewards has shape {instance.rewards.shape}, expected ({sizes[-1]},)"
        )
    elif not np.all(np.isfinite(instance.rewards)):
        out.append(f"reward {_first_nonfinite(instance.rewards)} is not finite")
    elif np.any(instance.rewards < 0):
        out.append("rewards must be non-negative")
    d1 = instance.initial_distribution
    if d1.shape != (sizes[0],):
        out.append(f"initial distribution has shape {d1.shape}, expected ({sizes[0]},)")
    elif not np.all(np.isfinite(d1)):
        out.append(f"initial distribution entry {_first_nonfinite(d1)} is not finite")
    else:
        if np.any(d1 <= 0):
            u = int(np.argmin(d1))
            out.append(
                f"initial distribution not strictly positive (entry {u} = {d1[u]:.12g})"
            )
        if abs(d1.sum() - 1.0) > ATOL:
            out.append(f"initial distribution sums to {d1.sum():.12g}")
    if not np.isfinite(instance.budget):
        out.append(f"budget {instance.budget} is not finite")
    elif instance.budget < 0:
        out.append(f"budget {instance.budget} is negative")
    if instance.cost_model.kind == "weighted_l1":
        if len(instance.cost_model.weights) != len(sizes) - 1:
            out.append("cost model weight count does not match transition count")
        else:
            for t, w in enumerate(instance.cost_model.weights):
                if w.shape != (sizes[t + 1], sizes[t]):
                    out.append(f"cost weight matrix {t} has shape {w.shape}")
                elif not np.all(np.isfinite(w)):
                    out.append(f"cost weight matrix {t} entry "
                               f"{_first_nonfinite(w)} is not finite")
    return out


def _first_nonfinite(a: np.ndarray) -> str:
    """Index and value of the first NaN or infinite entry, for messages."""
    idx = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
    return f"{idx if len(idx) > 1 else idx[0]} = {a[idx]}"


@dataclass(frozen=True)
class InterventionPlan:
    """A full set of replacement matrices plus the per-layer budget split."""

    matrices: tuple
    budget_split: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "matrices", tuple(_as_matrix(m) for m in self.matrices)
        )
        object.__setattr__(
            self, "budget_split", tuple(float(b) for b in self.budget_split)
        )

    def total_cost(self, instance: Instance) -> float:
        return sum(
            instance.cost_model.layer_cost(t, m, m0)
            for t, (m, m0) in enumerate(zip(self.matrices, instance.initial_matrices))
        )


def zero_budget_plan(instance: Instance) -> InterventionPlan:
    """The do-nothing plan: initial matrices, zero budget everywhere."""
    return InterventionPlan(
        matrices=tuple(m.copy() for m in instance.initial_matrices),
        budget_split=tuple(0.0 for _ in instance.initial_matrices),
    )


def plan_violations(instance: Instance, plan: InterventionPlan) -> list:
    """Feasibility audit for a plan; empty list means feasible."""
    out = []
    k1 = len(instance.initial_matrices)
    if len(plan.matrices) != k1 or len(plan.budget_split) != k1:
        out.append("plan layer count does not match instance")
        return out
    for t, (m, m0, mask) in enumerate(
        zip(plan.matrices, instance.initial_matrices, instance.malleable)
    ):
        if m.shape != m0.shape:
            out.append(f"plan matrix {t} has shape {m.shape}, expected {m0.shape}")
            continue
        if np.any(m < -ATOL) or np.any(m > 1 + ATOL):
            out.append(f"plan matrix {t} has entries outside [0, 1]")
        colsums = m.sum(axis=0)
        bad = np.flatnonzero(np.abs(colsums - 1.0) > ATOL)
        for u in bad:
            out.append(f"plan matrix {t} column {u} sums to {colsums[u]:.12g}")
        # Non-malleable entries must be copied bitwise, never recomputed.
        frozen = ~mask
        if np.any(m[frozen] != m0[frozen]):
            v, u = np.argwhere((m != m0) & frozen)[0]
            out.append(f"plan matrix {t} modifies non-malleable edge ({v}, {u})")
        c = instance.cost_model.layer_cost(t, m, m0)
        if c > plan.budget_split[t] + ATOL:
            out.append(
                f"plan matrix {t} costs {c:.12g} > allotted {plan.budget_split[t]:.12g}"
            )
        if plan.budget_split[t] < 0:
            out.append(f"budget split {t} is negative")
    if sum(plan.budget_split) > instance.budget + ATOL:
        out.append(
            f"budget split sums to {sum(plan.budget_split):.12g} > {instance.budget}"
        )
    return out


def evaluate_population_rewards(instance: Instance, plan: InterventionPlan) -> np.ndarray:
    """Expected terminal reward per starting node.

    Computed by backward vector products (reward vector pulled through each
    matrix), never by a full matrix chain product: O(k * w^2) for all
    populations at once and numerically flatter.
    """
    v = instance.rewards
    for t in range(len(plan.matrices) - 1, -1, -1):
        m = plan.matrices[t]
        if m.shape != instance.initial_matrices[t].shape:
            raise ValueError(f"plan matrix {t} has wrong shape {m.shape}")
        v = v @ m
    return v


def welfare(instance: Instance, plan: InterventionPlan) -> float:
    """Expected reward of an individual drawn from the initial distribution."""
    return float(
        evaluate_population_rewards(instance, plan) @ instance.initial_distribution
    )


def maximin_value(instance: Instance, plan: InterventionPlan) -> float:
    """Worst expected reward over starting nodes."""
    return float(evaluate_population_rewards(instance, plan).min())


@dataclass(frozen=True)
class MixedPlan:
    """A finite probability distribution over interventions.

    Every support plan must be budget-feasible on its own: the budget
    constraint binds for each realization, not merely in expectation.
    """

    support: tuple  # of (weight, InterventionPlan)

    def __post_init__(self):
        object.__setattr__(
            self,
            "support",
            tuple((float(w), p) for w, p in self.support),
        )

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.support])

    @property
    def plans(self) -> tuple:
        return tuple(p for _, p in self.support)


def mixed_violations(instance: Instance, mixed: MixedPlan) -> list:
    out = []
    w = mixed.weights
    if np.any(w < -ATOL):
        out.append("mixture has a negative weight")
    if abs(w.sum() - 1.0) > ATOL:
        out.append(f"mixture weights sum to {w.sum():.12g}")
    for i, plan in enumerate(mixed.plans):
        for v in plan_violations(instance, plan):
            out.append(f"support plan {i}: {v}")
    return out


def evaluate_mixed(instance: Instance, mixed: MixedPlan):
    """(weighted-average per-population rewards, their minimum)."""
    w = mixed.weights
    if abs(w.sum() - 1.0) > ATOL or np.any(w < -ATOL):
        raise ValueError("invalid mixture weights")
    avg = np.zeros(instance.layer_sizes[0])
    for weight, plan in mixed.support:
        avg += weight * evaluate_population_rewards(instance, plan)
    return avg, float(avg.min())


@dataclass
class SolveReport:
    """Solver output: objective, per-population breakdown, diagnostics."""

    objective_value: float
    per_population_rewards: np.ndarray
    budget_used: float
    solver_meta: dict = field(default_factory=dict)

