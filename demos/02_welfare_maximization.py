#!/usr/bin/env python3
"""Approximate welfare maximization, checked against the exhaustive oracle.

The solver runs a backward dynamic program over a budget grid and a finite
cover of each layer's distribution simplex, pricing one transition at a time
with an exact single-layer step.  Its additive guarantee is
3 * (depth - 1) * epsilon * max_reward; on small instances the brute-force
grid oracle shows the realized gap is far smaller.
"""

import numpy as np

import pipeopt as po

# The two-layer contrast network: a heavy majority population, everyone
# initially routed to the worthless outcome.  Closed form: welfare B/2 times
# the majority mass, by spending everything on the majority's column.
contrast = po.fairness_price_instance(3, 0.1, 1.0)
report, plan = po.solve_social_welfare(contrast, epsilon=0.05)
print("contrast network welfare:", report.objective_value, "(closed form 0.40)")
print("chosen majority column:", plan.matrices[0][:, 0])

# A deeper random instance: compare DP, oracle, and the analytic ceiling.
instance = po.random_instance(seed=4, width=2, depth=3,
                              malleable_fraction=1.0, budget=1.0)
report, plan = po.solve_social_welfare(instance, epsilon=0.1)
oracle_value, _ = po.oracle_welfare(instance, eta=0.05)
print("\nrandom 2-wide, 3-layer instance")
print("  initial welfare:   ", round(po.initial_welfare(instance), 6))
print("  DP value:          ", round(report.objective_value, 6))
print("  grid oracle value: ", round(oracle_value, 6))
print("  analytic ceiling:  ", round(po.welfare_upper_bound(instance), 6))
print("  guaranteed floor:  ", round(oracle_value - 3 * 2 * 0.1, 6))
print("  budget used:       ", round(report.budget_used, 6), "of", instance.budget)

# Welfare responses to arbitrary starting distributions reuse the same memo;
# this is the inner engine of the randomized solver.
dp = po.WelfareDP(instance, 0.1)
for d in ([1.0, 0.0], [0.5, 0.5], [0.0, 1.0]):
    _, response = dp.solve_for(d)
    value = po.evaluate_population_rewards(instance, response) @ np.array(d)
    print(f"  best response to start {d}: {value:.6f}")
