"""Analytic bounds and plan audits.

Closed-form bounds relating achievable welfare, fair (maximin) solutions and
the budget, plus an empirical welfare/fairness price bracket assembled from
the two dynamic programs.  The audits are numerical checks against solver or
oracle output, not proofs: exact statements about maximin optima are only
asserted for plans known to be exact optima (oracle output on small grids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    Instance,
    InterventionPlan,
    maximin_value,
    plan_violations,
    welfare,
    zero_budget_plan,
)
from .dp_welfare import solve_social_welfare
from .dp_maximin import solve_expost_maximin


def initial_welfare(instance: Instance) -> float:
    return welfare(instance, zero_budget_plan(instance))


def _weight_range(instance: Instance) -> tuple:
    """(smallest, largest) cost of a unit of change on any edge: (1, 1) for
    unit costs."""
    if instance.cost_model.kind == "l1":
        return 1.0, 1.0
    weights = instance.cost_model.weights
    return (min(float(w.min()) for w in weights),
            max(float(w.max()) for w in weights))


def welfare_upper_bound(instance: Instance) -> float:
    """No feasible plan beats min(max reward, initial welfare + B'/2 * max reward).

    B' = B / w_min is the most absolute change the budget buys, w_min the
    cheapest edge's weight (1 for unit costs).  Each unit of change raises
    at most half a unit of probability mass, worth at most the top reward.
    """
    r = instance.reward_sup
    change = instance.budget / _weight_range(instance)[0]
    return min(r, initial_welfare(instance) + change / 2.0 * r)


def maximin_lower_bound(instance: Instance) -> float:
    """Welfare (and value) floor of every exact maximin optimum.

    Valid only when every edge is malleable: the budget buys at least
    B' = B / w_max of absolute change, w_max the dearest edge's weight (1
    for unit costs), which can always be spent pushing each
    second-to-last-layer node toward the best reward, giving every
    population at least min(1, B'/2w) of the top reward.
    """
    if not instance.all_malleable():
        raise ValueError("maximin_lower_bound requires every edge malleable")
    w = instance.width
    change = instance.budget / _weight_range(instance)[1]
    return min(1.0, change / (2.0 * w)) * instance.reward_sup


@dataclass
class FairnessPriceCertificate:
    welfare_value: float
    welfare_plan: InterventionPlan
    maximin_plan_welfare: float
    maximin_value: float
    maximin_plan: InterventionPlan
    approximation_slack: float
    empirical_ratio: float


def fairness_price_upper_bound(width: int, budget: float) -> float:
    """Worst-case ratio of optimal welfare to any maximin optimum's welfare."""
    if budget <= 0 or budget >= 2 * width:
        return 1.0
    if budget <= 2:
        return width + 1.0
    return 2.0 * width / budget


def price_of_fairness_bracket(instance: Instance, epsilon: float) -> tuple:
    """(lower, upper, certificate) bracketing the welfare/fairness price.

    `upper` is the analytic worst case.  `lower` divides the DP welfare value
    by the DP maximin plan's welfare plus the solvers' approximation slack, so
    it is a conservative empirical lower bound, not an exact price: the exact
    set of maximin optima is not enumerable.  The certificate carries the raw
    empirical ratio (no slack) and both plans.  The analytic worst case is
    for unit costs, so weighted costs are refused.
    """
    if not instance.all_malleable():
        raise ValueError("price_of_fairness_bracket requires every edge malleable")
    if instance.cost_model.kind != "l1":
        raise ValueError("price_of_fairness_bracket requires unit (l1) costs")
    w_report, w_plan = solve_social_welfare(instance, epsilon)
    m_report, m_plan = solve_expost_maximin(instance, epsilon)
    fair_welfare = welfare(instance, m_plan)
    slack = 3 * (instance.depth - 1) * epsilon * instance.reward_sup
    denom = fair_welfare + slack
    if denom <= 0:
        lower = 1.0 if w_report.objective_value <= 0 else math.inf
    else:
        lower = w_report.objective_value / denom
    if fair_welfare <= 0:
        empirical = 1.0 if w_report.objective_value <= 0 else math.inf
    else:
        empirical = w_report.objective_value / fair_welfare
    upper = fairness_price_upper_bound(instance.width, instance.budget)
    cert = FairnessPriceCertificate(
        welfare_value=w_report.objective_value,
        welfare_plan=w_plan,
        maximin_plan_welfare=fair_welfare,
        maximin_value=m_report.objective_value,
        maximin_plan=m_plan,
        approximation_slack=slack,
        empirical_ratio=empirical,
    )
    return lower, upper, cert


@dataclass
class BoundCheck:
    name: str
    applicable: bool
    passed: bool
    lhs: float = math.nan
    rhs: float = math.nan
    note: str = ""


def check_plan_bounds(instance: Instance, plan: InterventionPlan,
                      exact_maximin: bool = False,
                      grid_step: float | None = None) -> list:
    """Audit a feasible plan against every applicable analytic bound.

    `exact_maximin` marks the plan as an exact maximin optimum (e.g. oracle
    output), unlocking the bounds that only hold for exact optima; with
    `grid_step` set, those bounds are relaxed by the grid resolution.  Checks
    that do not apply are reported as informational (applicable=False).
    """
    bad = plan_violations(instance, plan)
    if bad:
        raise ValueError("infeasible plan: " + "; ".join(bad))
    r = instance.reward_sup
    w_val = welfare(instance, plan)
    m_val = maximin_value(instance, plan)
    cost_total = plan.total_cost(instance)
    eta = 0.0 if grid_step is None else float(grid_step)
    out = [
        BoundCheck(
            name="welfare_upper_bound",
            applicable=True,
            passed=w_val <= welfare_upper_bound(instance) + 1e-6,
            lhs=w_val,
            rhs=welfare_upper_bound(instance),
        )
    ]
    fair_prereq = instance.all_malleable() and exact_maximin
    if instance.all_malleable():
        floor = maximin_lower_bound(instance)
        out.append(BoundCheck(
            name="maximin_value_floor",
            applicable=fair_prereq,
            passed=(not fair_prereq) or m_val >= floor - eta * r - 1e-9,
            lhs=m_val,
            rhs=floor - eta * r,
            note="exact maximin optima only" if not fair_prereq else "",
        ))
        out.append(BoundCheck(
            name="maximin_welfare_floor",
            applicable=fair_prereq,
            passed=(not fair_prereq) or w_val >= floor - eta * r - 1e-9,
            lhs=w_val,
            rhs=floor - eta * r,
            note="exact maximin optima only" if not fair_prereq else "",
        ))
        out.append(BoundCheck(
            name="initial_welfare_floor",
            applicable=fair_prereq,
            passed=(not fair_prereq) or w_val >= initial_welfare(instance) - 1e-9,
            lhs=w_val,
            rhs=initial_welfare(instance),
            note="exact maximin optima only" if not fair_prereq else "",
        ))
        spend_applicable = fair_prereq and w_val < r - 1e-9
        out.append(BoundCheck(
            name="full_budget_spend",
            applicable=spend_applicable,
            passed=(not spend_applicable)
            or abs(cost_total - instance.budget) <= max(eta, 1e-9),
            lhs=cost_total,
            rhs=instance.budget,
            note="exact maximin optima below top reward only"
            if not spend_applicable else "",
        ))
    return out
