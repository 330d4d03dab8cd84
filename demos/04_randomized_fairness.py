#!/usr/bin/env python3
"""When flipping a coin over interventions beats every deterministic one.

The separation network has two disjoint half-probability paths to the
reward, one per starting population, plus frozen leakage routes.  A budget
concentrated on one path lifts that population to (1/2 + B/6)^3 while the
other keeps its baseline 1/8; spreading the budget helps both but less.
Randomizing 50/50 between the two concentrated plans gives every population
the average of the two outcomes, which no single feasible plan matches.

The solver is a double oracle: it keeps a restricted game over the
best-response plans found so far, solves it exactly by support enumeration
(no LP), and asks a welfare solver for the best response to the adversary's
optimal distribution over starting populations, until no response improves
on the game.  The returned mixture carries the game's optimal weights, and
the last response certifies an upper bound on the optimum.  Multiplicative-weights dynamics
(500 rounds here) seed the game; their trace carries a regret certificate.
"""

import pipeopt as po

instance = po.separation_instance(0.6)

# Deterministic benchmark: exhaustive grid search.
det_value, det_plan = po.oracle_expost_maximin(instance, 0.05)
print("best deterministic grid plan:", round(det_value, 6))
print("analytic randomized construction:", 0.5 * (1 / 8 + 0.6 ** 3))

mixture, report, trace = po.solve_exante_maximin(instance, epsilon=0.01,
                                                 rounds=500)
print("\nrandomized solver:")
print("  mixture value:", round(report.objective_value, 6))
print("  support size:", len(mixture.support))
for w, plan in mixture.support:
    rewards = po.evaluate_population_rewards(instance, plan)
    print(f"    weight {w:.3f} rewards {rewards.round(4)}")
print("  strictly beats deterministic:",
      report.objective_value > det_value)
meta = report.solver_meta
print(f"  double-oracle iterations {meta['oracle_iterations']}, "
      f"certified gap {meta['gap']:.2e}")
print(f"  upper bound on the optimum {meta['upper_bound']:.6f} "
      f"(includes the best-response slack at br_epsilon {meta['br_epsilon']:.4f})")

lhs, best_fixed, slack = trace.regret_certificate(instance.reward_sup)
print("\nregret certificate of the warm start:")
print(f"  average response value {lhs:.6f}")
print(f"  <= best fixed population {best_fixed:.6f} + slack {slack:.6f}")

# The adversary's distribution oscillates as it chases the ignored
# population; the responses alternate between the two paths.
print("\nadversary trajectory (every 100th round):")
for record in trace.rounds[::100]:
    print(f"  round {record.index:3d} dist {record.adversary.round(3)} "
          f"response rewards {record.rewards.round(3)}")
