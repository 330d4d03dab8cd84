"""Randomized maximin via two-player dynamics.

The randomized problem is a zero-sum game: an adversary picks the starting
population, the designer picks a feasible intervention.  The adversary runs
multiplicative weights over starting nodes; the designer answers each round
with a welfare-maximizing intervention against the adversary's current
distribution (the welfare DP, whose memo is built once and queried per
round).  The uniform mixture of the designer's responses approximately
optimizes the randomized maximin objective, with error split between the
best-response accuracy and the adversary's regret.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import (
    Instance,
    MixedPlan,
    SolveReport,
    evaluate_mixed,
    evaluate_population_rewards,
)
from .dp_welfare import WelfareDP, dp_cell_count
from .netgrid import budget_grid_size

DEFAULT_BR_CELLS_CAP = 50_000
_CACHE_DECIMALS = 12


@dataclass
class RoundRecord:
    index: int
    adversary: np.ndarray      # distribution over starting nodes this round
    br_value: float            # exact welfare of the response under it
    rewards: np.ndarray        # exact per-population rewards of the response
    utilities: np.ndarray      # rewards / max reward, in [0, 1]


@dataclass
class DynamicsTrace:
    beta: float
    br_epsilon: float
    requested_br_epsilon: float
    rounds: list = field(default_factory=list)

    def regret_certificate(self, reward_sup: float) -> tuple:
        """(average designer value, best fixed pure response value, slack).

        The multiplicative-weights guarantee promises
        lhs <= best_fixed + slack on every run.
        """
        t = len(self.rounds)
        lhs = float(np.mean([r.br_value for r in self.rounds]))
        avg_rewards = np.mean([r.rewards for r in self.rounds], axis=0)
        best_fixed = float(avg_rewards.min())
        w = len(self.rounds[0].rewards)
        slack = 0.0
        if w >= 2:
            slack = (math.sqrt(2 * math.log(w) / t) + math.log(w) / t) * reward_sup
        return lhs, best_fixed, slack


def mw_update(dist, utilities, beta: float) -> np.ndarray:
    """One multiplicative-weights step: new(i) proportional to old(i) * beta^u(i).

    beta < 1 shifts mass toward low-utility coordinates.
    """
    d = np.asarray(dist, dtype=float)
    u = np.asarray(utilities, dtype=float)
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if np.any(u < -1e-12) or np.any(u > 1 + 1e-12):
        raise ValueError("utilities must lie in [0, 1]")
    if d.shape != u.shape or abs(d.sum() - 1.0) > 1e-9 or np.any(d < 0):
        raise ValueError("dist must be a distribution matching utilities")
    w = d * beta ** u
    return w / w.sum()


def default_rounds(populations: int, epsilon: float) -> int:
    """Horizon making the regret term comparable to epsilon."""
    if populations < 2:
        return 1
    return max(1, math.ceil(2 * math.log(populations) / epsilon ** 2))


def _effective_br_epsilon(instance: Instance, requested: float, cells_cap: int) -> float:
    """Coarsen the best-response discretization until its memo fits the cap.

    When coarsening kicks in, the step is snapped to an exact divisor of the
    budget so the full budget stays on the grid.
    """
    eps = requested
    while dp_cell_count(instance, eps, 1) > cells_cap and eps < 2.0:
        eps *= 2.0
    if eps != requested and instance.budget > 0:
        m = max(1, budget_grid_size(instance.budget, eps) - 1)
        snapped = instance.budget / m
        if dp_cell_count(instance, snapped, 1) <= cells_cap:
            eps = snapped
    return eps


def solve_exante_maximin(instance: Instance, epsilon: float, rounds: int | None = None,
                         br_epsilon: float | None = None,
                         br_cells_cap: int = DEFAULT_BR_CELLS_CAP) -> tuple:
    """Approximately optimal randomized intervention.

    Returns (MixedPlan, SolveReport, DynamicsTrace).  The mixture is the
    uniform distribution over the per-round best responses (identical plans
    merged); its exact randomized-maximin value is the reported objective.
    With a best response within eps_br of optimal, the value is within
    eps_br + sqrt(2 ln w / T) + ln w / T (times the top reward) of optimal.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    t0 = time.perf_counter()
    pops = instance.layer_sizes[0]
    t_max = default_rounds(pops, epsilon) if rounds is None else int(rounds)
    if t_max < 1:
        raise ValueError("rounds must be >= 1")
    beta = 1.0 / (1.0 + math.sqrt(2 * math.log(pops) / t_max)) if pops >= 2 else 0.5

    requested = epsilon / (3 * (instance.depth - 1))
    eps_br = requested if br_epsilon is None else float(br_epsilon)
    if br_epsilon is None:
        eps_br = _effective_br_epsilon(instance, requested, br_cells_cap)
    dp = WelfareDP(instance, eps_br, cells_cap=max(br_cells_cap, 1))

    reward_sup = instance.reward_sup
    trace = DynamicsTrace(beta=beta, br_epsilon=eps_br, requested_br_epsilon=requested)
    dist = np.full(pops, 1.0 / pops)
    cache = {}
    counts = {}
    plans = {}
    for rnd in range(t_max):
        key = tuple(np.round(dist, _CACHE_DECIMALS))
        hit = cache.get(key)
        if hit is None:
            _, plan = dp.solve_for(dist)
            rewards = evaluate_population_rewards(instance, plan)
            plan_key = (
                tuple(m.tobytes() for m in plan.matrices),
                tuple(plan.budget_split),
            )
            hit = (plan, rewards, plan_key)
            cache[key] = hit
        plan, rewards, plan_key = hit
        counts[plan_key] = counts.get(plan_key, 0) + 1
        plans[plan_key] = plan
        utilities = rewards / reward_sup if reward_sup > 0 else np.zeros_like(rewards)
        trace.rounds.append(RoundRecord(
            index=rnd,
            adversary=dist.copy(),
            br_value=float(rewards @ dist),
            rewards=rewards,
            utilities=utilities,
        ))
        if pops >= 2 and rnd + 1 < t_max:
            dist = mw_update(dist, utilities, beta)

    support = tuple(
        (counts[k] / t_max, plans[k]) for k in sorted(counts.keys())
    )
    mixture = MixedPlan(support=support)
    avg_rewards, value = evaluate_mixed(instance, mixture)
    lhs, best_fixed, slack = trace.regret_certificate(reward_sup)
    report = SolveReport(
        objective_value=value,
        per_population_rewards=avg_rewards,
        budget_used=max(p.total_cost(instance) for p in mixture.plans),
        solver_meta={
            "epsilon": epsilon,
            "rounds": t_max,
            "beta": beta,
            "br_epsilon": eps_br,
            "requested_br_epsilon": requested,
            "support_size": len(support),
            "regret_lhs": lhs,
            "regret_best_fixed": best_fixed,
            "regret_slack": slack,
            **{f"dp_{k}": v for k, v in dp.meta().items()},
            "wall_ms": (time.perf_counter() - t0) * 1e3,
        },
    )
    return mixture, report, trace
