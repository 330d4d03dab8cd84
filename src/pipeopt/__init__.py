"""Budgeted intervention planning on layered stochastic pipelines.

Solvers for three objectives over a budgeted set of transition-matrix
replacements: expected reward of a random start (welfare), the worst
starting population's expected reward (deterministic maximin), and the same
under randomized interventions (randomized maximin).  Ships with exhaustive
grid oracles for small instances, analytic bound audits, and generators for
the structured benchmark families.
"""

from .errors import CapacityError, InputError
from .model import (
    CostModel,
    Instance,
    InterventionPlan,
    MixedPlan,
    SolveReport,
    evaluate_mixed,
    evaluate_population_rewards,
    make_instance,
    maximin_value,
    mixed_violations,
    plan_violations,
    validate_instance,
    welfare,
    zero_budget_plan,
)
from .netgrid import build_budget_grid, build_simplex_net
from .layerlp import (
    LayerStepResult,
    WelfareStepSolver,
    solve_maximin_step,
)
from .dp_welfare import WelfareDP, solve_social_welfare
from .dp_maximin import MaximinDP, solve_expost_maximin
from .exante import DynamicsTrace, mw_update, solve_exante_maximin
from .oracle import (
    GridPlanTable,
    oracle_exante_maximin,
    oracle_expost_maximin,
    oracle_welfare,
)
from .bounds import (
    check_plan_bounds,
    fairness_price_upper_bound,
    initial_welfare,
    maximin_lower_bound,
    price_of_fairness_bracket,
    welfare_upper_bound,
)
from .generators import (
    cover_reduction_instance,
    fairness_price_instance,
    parse_edge_list,
    random_instance,
    separation_instance,
    verify_cover_plan,
)
from .serialize import (
    instance_from_dict,
    instance_to_dict,
    mixture_from_dict,
    mixture_to_dict,
    parse_instance,
    plan_from_dict,
    plan_to_dict,
    report_to_dict,
    save_instance,
)

__version__ = "0.1.0"
