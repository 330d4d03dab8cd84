"""Randomized maximin via a double oracle over the designer's plans.

The randomized problem is a zero-sum game: an adversary picks the starting
population, the designer picks a feasible intervention.  The designer's best
response to any adversary distribution is one query into the welfare DP,
whose memo is built once.  A few rounds of multiplicative weights (one by
default) seed a restricted game with their responses.  The double oracle
(`oracle.double_oracle`; McMahan, Gordon & Blum 2003) then solves the
restricted game exactly (`oracle.mixture_game`, by support enumeration),
asks the DP for a best response to the adversary's optimal distribution,
and adds it, until that response gains nothing over the restricted game's
value.  The DP's plan set is finite, so this ends.
The reported mixture is the restricted game's optimum, and the last response
certifies how far the optimum can lie above it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import (
    Instance,
    InterventionPlan,
    MixedPlan,
    SolveReport,
    evaluate_mixed,
    evaluate_population_rewards,
)
from .dp_welfare import WelfareDP, dp_cell_count
from .errors import CapacityError
from .netgrid import budget_grid_size
from .oracle import double_oracle

DEFAULT_BR_CELLS_CAP = 50_000
_CACHE_DECIMALS = 12
# The double oracle stops once the best response to the restricted game's
# optimal adversary beats the game's value by at most ORACLE_TOL; hitting
# the iteration cap is reported as solver_meta["oracle_capped"].
ORACLE_TOL = 1e-9
ORACLE_MAX_ITERATIONS = 50


@dataclass
class RoundRecord:
    index: int
    adversary: np.ndarray      # distribution over starting nodes this round
    br_value: float            # exact welfare of the response under it
    rewards: np.ndarray        # exact per-population rewards of the response
    utilities: np.ndarray      # rewards / max reward, in [0, 1]
    plan: InterventionPlan     # the response itself


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
    # Each range check is written so that a NaN fails it.
    if not np.all((u >= -1e-12) & (u <= 1 + 1e-12)):
        raise ValueError("utilities must lie in [0, 1]")
    if d.shape != u.shape or not abs(d.sum() - 1.0) <= 1e-9 or not np.all(d >= 0):
        raise ValueError("dist must be a distribution matching utilities")
    w = d * beta ** u
    return w / w.sum()


def _effective_br_epsilon(instance: Instance, requested: float, cells_cap: int) -> tuple:
    """Coarsen the best-response discretization until its memo fits the cap.

    When coarsening kicks in, the step is snapped to an exact divisor of the
    budget so the full budget stays on the grid.  Returns (eps, coarsened):
    coarsened is None when the requested step fit, and otherwise records the
    requested step, the cap and the predicted cell counts before and after.
    """
    eps = requested
    cells = requested_cells = dp_cell_count(instance, eps, 1)
    while cells > cells_cap and eps < 2.0:
        eps *= 2.0
        cells = dp_cell_count(instance, eps, 1)
    if eps == requested:
        return eps, None
    if instance.budget > 0:
        m = max(1, budget_grid_size(instance.budget, eps) - 1)
        snapped = instance.budget / m
        snapped_cells = dp_cell_count(instance, snapped, 1)
        if snapped_cells <= cells_cap:
            eps, cells = snapped, snapped_cells
    return eps, {"requested": requested, "cap": cells_cap,
                 "requested_cells": requested_cells, "cells": cells}


def solve_exante_maximin(instance: Instance, epsilon: float, rounds: int | None = None,
                         br_cells_cap: int = DEFAULT_BR_CELLS_CAP) -> tuple:
    """Approximately optimal randomized intervention, with a certified gap.

    Returns (MixedPlan, SolveReport, DynamicsTrace).  `rounds` multiplicative-
    weights rounds (default 1: the uniform adversary) seed the restricted
    game with their best responses, and the trace records those rounds
    only.  The double oracle then alternates the restricted game's exact
    solution with a best response to its optimal adversary until that
    response gains at most ORACLE_TOL, or repeats a plan already in the game.
    The mixture carries the game's weights over distinct plans; its exact
    randomized-maximin value is the reported objective.

    With k = depth and a best response within 3(k-1)*eps_br*max(R) of
    optimal, the optimum is at most solver_meta["upper_bound"] (the last
    response's value under the last adversary plus that slack), so the
    objective is within gap + 3(k-1)*eps_br*max(R) of optimal.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    t0 = time.perf_counter()
    pops = instance.layer_sizes[0]
    t_max = 1 if rounds is None else int(rounds)
    if t_max < 1:
        raise ValueError("rounds must be >= 1")
    beta = 1.0 / (1.0 + math.sqrt(2 * math.log(pops) / t_max)) if pops >= 2 else 0.5

    requested = epsilon / (3 * (instance.depth - 1))
    try:
        eps_br, coarsened = _effective_br_epsilon(instance, requested, br_cells_cap)
    except CapacityError as exc:
        raise CapacityError(
            f"best-response step epsilon / (3(k-1)) = {requested} for epsilon={epsilon}, "
            f"k={instance.depth}: {exc}") from exc
    dp = WelfareDP(instance, eps_br, cells_cap=max(br_cells_cap, 1))

    plans = {}  # plan key -> plan, for every response found
    cache = {}

    def respond(dist):
        """(plan key, exact per-population rewards, value against dist)."""
        key = tuple(np.round(dist, _CACHE_DECIMALS))
        hit = cache.get(key)
        if hit is None:
            _, plan = dp.solve_for(dist)
            plan_key = (
                tuple(m.tobytes() for m in plan.matrices),
                tuple(plan.budget_split),
            )
            plans.setdefault(plan_key, plan)
            hit = cache[key] = (plan_key, evaluate_population_rewards(instance, plan))
        plan_key, rewards = hit
        return plan_key, rewards, float(rewards @ dist)

    reward_sup = instance.reward_sup
    trace = DynamicsTrace(beta=beta, br_epsilon=eps_br, requested_br_epsilon=requested)
    game = {}  # plan key -> exact per-population rewards, in order found
    dist = np.full(pops, 1.0 / pops)
    for rnd in range(t_max):
        plan_key, rewards, br_value = respond(dist)
        game.setdefault(plan_key, rewards)
        utilities = rewards / reward_sup if reward_sup > 0 else np.zeros_like(rewards)
        trace.rounds.append(RoundRecord(
            index=rnd,
            adversary=dist.copy(),
            br_value=br_value,
            rewards=rewards,
            utilities=utilities,
            plan=plans[plan_key],
        ))
        if pops >= 2 and rnd + 1 < t_max:
            dist = mw_update(dist, utilities, beta)

    _, lam, _, keys, br_value, iterations, converged = double_oracle(
        respond, game, ORACLE_TOL, ORACLE_MAX_ITERATIONS)
    mixture = MixedPlan(support=tuple(
        (float(lam[i]), plans[keys[i]]) for i in np.flatnonzero(lam)
    ))
    avg_rewards, objective = evaluate_mixed(instance, mixture)
    br_slack = 3 * (instance.depth - 1) * eps_br * reward_sup
    lhs, best_fixed, slack = trace.regret_certificate(reward_sup)
    report = SolveReport(
        objective_value=objective,
        per_population_rewards=avg_rewards,
        budget_used=max(p.total_cost(instance) for p in mixture.plans),
        solver_meta={
            "epsilon": epsilon,
            "rounds": t_max,
            "beta": beta,
            "br_epsilon": eps_br,
            "requested_br_epsilon": requested,
            "br_epsilon_coarsened": coarsened,
            "support_size": len(mixture.support),
            "oracle_iterations": iterations,
            "oracle_capped": not converged,
            "upper_bound": br_value + br_slack,
            "gap": br_value - objective,
            "regret_lhs": lhs,
            "regret_best_fixed": best_fixed,
            "regret_slack": slack,
            **{f"dp_{k}": v for k, v in dp.meta().items()},
            "wall_ms": (time.perf_counter() - t0) * 1e3,
        },
    )
    return mixture, report, trace
