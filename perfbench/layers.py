"""Where the traced run puts its spans, and the per-layer metrics it reports.

Spans are placed from the benchmark's side only: each wrap replaces the
attribute that pipeopt's own code looks up at call time (for example
`dp_maximin.solve_maximin_step`, the name the maximin DP calls), so no file
under src/pipeopt changes.  The layers are the pipeopt modules.
"""

from __future__ import annotations

from jobs import po  # importing jobs puts the checkout's src/ on sys.path
from pipeopt import dp_maximin, dp_welfare, exante, layerlp, model, oracle

# (owner, attribute, span name)
WRAPS = [
    (po, "solve_social_welfare", "dp_welfare.solve"),
    (po, "solve_expost_maximin", "dp_maximin.solve"),
    (po, "solve_exante_maximin", "exante.solve"),
    (po, "oracle_welfare", "oracle.reduce"),
    (po, "oracle_expost_maximin", "oracle.reduce"),
    (po, "oracle_exante_maximin", "oracle.reduce"),
    (po, "check_plan_bounds", "bounds.check"),
    (po, "instance_to_dict", "serialize"),
    (po, "instance_from_dict", "serialize"),
    (layerlp.WelfareStepSolver, "value", "layerlp.greedy_value"),
    (layerlp.WelfareStepSolver, "solve", "layerlp.greedy_solve"),
    (dp_maximin, "solve_maximin_step", "layerlp.maximin_step"),
    (layerlp, "linprog", "layerlp.linprog"),
    (dp_welfare.WelfareDP, "__init__", "dp_welfare.build"),
    (dp_welfare.WelfareDP, "solve_for", "dp_welfare.query"),
    (dp_maximin.MaximinDP, "__init__", "dp_maximin.build"),
    (exante, "mw_update", "exante.mw_update"),
    (oracle, "linprog", "oracle.mixture_lp"),
    (dp_welfare, "build_simplex_net", "netgrid.build"),
    (dp_welfare, "build_budget_grid", "netgrid.build"),
    (dp_maximin, "build_simplex_net", "netgrid.build"),
    (dp_maximin, "build_budget_grid", "netgrid.build"),
    (dp_welfare, "evaluate_population_rewards", "model.evaluate"),
    (dp_maximin, "evaluate_population_rewards", "model.evaluate"),
    (exante, "evaluate_population_rewards", "model.evaluate"),
    (exante, "evaluate_mixed", "model.evaluate"),
    (model, "evaluate_population_rewards", "model.evaluate"),
]

# Every per-layer metric with its unit, in the order they are printed.
UNITS = {
    "layerlp.greedy_value.calls": "count/pass",
    "layerlp.greedy_value.self_s": "s/pass",
    "layerlp.greedy_solve.calls": "count/pass",
    "layerlp.greedy_solve.self_s": "s/pass",
    "layerlp.maximin_step.calls": "count/pass",
    "layerlp.maximin_step.self_s": "s/pass",
    "layerlp.linprog.calls": "count/pass",
    "layerlp.linprog.s": "s/pass",
    "layerlp.linprog_share": "ratio",
    "dp_welfare.build.self_s": "s/pass",
    "dp_welfare.cells": "count/pass",
    "dp_welfare.value_calls_per_cell": "ratio",
    "dp_welfare.query.calls": "count/pass",
    "dp_welfare.query.self_s": "s/pass",
    "dp_welfare.query.s": "s/pass",
    "dp_maximin.build.self_s": "s/pass",
    "dp_maximin.cells": "count/pass",
    "dp_maximin.population_tuples": "count/pass",
    "dp_maximin.steps_per_cell": "ratio",
    "exante.rounds": "count/pass",
    "exante.br_queries": "count/pass",
    "exante.cache_hit_ratio": "ratio",
    "exante.br_epsilon_coarsening": "ratio",
    "exante.mw_update.self_s": "s/pass",
    "oracle.table.build_s": "s/pass",
    "oracle.table.plans": "count/pass",
    "oracle.reduce.self_s": "s/pass",
    "oracle.mixture_lp.s": "s/pass",
    "netgrid.build_s": "s/pass",
    "model.evaluate.calls": "count/pass",
    "model.evaluate.s": "s/pass",
    "bounds.check.s": "s/pass",
    "serialize.s": "s",
    "trace.wall_s.p50": "s",
    "trace.overhead_s": "s",
}


class LayerTrace:
    """A tracer wired to pipeopt, plus the counters its hooks collect."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.table_plans = 0
        tracer.count_nested("dp_welfare.query", "exante.solve")

    def install(self):
        for owner, attr, name in WRAPS:
            self.tracer.wrap(owner, attr, name)
        self.tracer.wrap(oracle.GridPlanTable, "__init__", "oracle.table",
                         after=self._count_plans)

    def _count_plans(self, args, _result):
        self.table_plans += len(args[0])

    def restore(self):
        self.tracer.restore()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(layer_trace: LayerTrace, passes: int, outcomes: list,
                      traced_p50: float, untraced_p50: float) -> dict:
    """Per-layer metrics, per traced pass.

    `outcomes` are the jobs' outcomes of one pass.  Counts are per pass and
    repeat exactly, because every pass runs the same jobs; times are the
    mean over the traced passes.  Counts of cells, tuples, rounds and
    br_epsilon come from solver_meta; the counts of calls come from spans.
    """
    tr = layer_trace.tracer
    calls = {k: v / passes for k, v in tr.calls.items()}
    total = {k: v / passes for k, v in tr.total_s.items()}
    own = {k: v / passes for k, v in tr.self_s.items()}

    def meta_sum(kinds, key):
        return float(sum(o.meta.get(key, 0) for kind, o in outcomes if kind in kinds))

    w_cells = meta_sum(("welfare",), "cells") + meta_sum(("exante",), "dp_cells")
    m_cells = meta_sum(("maximin",), "cells")
    tuples = float(sum(sum(o.meta["population_tuples"].values())
                       for kind, o in outcomes if kind == "maximin"))
    rounds = meta_sum(("exante",), "rounds")
    coarsening = [o.meta["br_epsilon"] / o.meta["requested_br_epsilon"]
                  for kind, o in outcomes if kind == "exante"]
    br_queries = tr.nested.get(("dp_welfare.query", "exante.solve"), 0) / passes

    values = {
        "layerlp.greedy_value.calls": calls.get("layerlp.greedy_value", 0.0),
        "layerlp.greedy_value.self_s": own.get("layerlp.greedy_value", 0.0),
        "layerlp.greedy_solve.calls": calls.get("layerlp.greedy_solve", 0.0),
        "layerlp.greedy_solve.self_s": own.get("layerlp.greedy_solve", 0.0),
        "layerlp.maximin_step.calls": calls.get("layerlp.maximin_step", 0.0),
        "layerlp.maximin_step.self_s": own.get("layerlp.maximin_step", 0.0),
        "layerlp.linprog.calls": calls.get("layerlp.linprog", 0.0),
        "layerlp.linprog.s": total.get("layerlp.linprog", 0.0),
        "layerlp.linprog_share": _ratio(total.get("layerlp.linprog", 0.0),
                                        total.get("layerlp.maximin_step", 0.0)),
        "dp_welfare.build.self_s": own.get("dp_welfare.build", 0.0),
        "dp_welfare.cells": w_cells,
        "dp_welfare.value_calls_per_cell": _ratio(
            calls.get("layerlp.greedy_value", 0.0), w_cells),
        "dp_welfare.query.calls": calls.get("dp_welfare.query", 0.0),
        "dp_welfare.query.self_s": own.get("dp_welfare.query", 0.0),
        "dp_welfare.query.s": total.get("dp_welfare.query", 0.0),
        "dp_maximin.build.self_s": own.get("dp_maximin.build", 0.0),
        "dp_maximin.cells": m_cells,
        "dp_maximin.population_tuples": tuples,
        "dp_maximin.steps_per_cell": _ratio(
            calls.get("layerlp.maximin_step", 0.0), m_cells),
        "exante.rounds": rounds,
        "exante.br_queries": br_queries,
        "exante.cache_hit_ratio": 1.0 - _ratio(br_queries, rounds) if rounds else 0.0,
        "exante.br_epsilon_coarsening": (sum(coarsening) / len(coarsening)
                                         if coarsening else 0.0),
        "exante.mw_update.self_s": own.get("exante.mw_update", 0.0),
        "oracle.table.build_s": total.get("oracle.table", 0.0),
        "oracle.table.plans": layer_trace.table_plans / passes,
        "oracle.reduce.self_s": own.get("oracle.reduce", 0.0),
        "oracle.mixture_lp.s": total.get("oracle.mixture_lp", 0.0),
        "netgrid.build_s": total.get("netgrid.build", 0.0),
        "model.evaluate.calls": calls.get("model.evaluate", 0.0),
        "model.evaluate.s": own.get("model.evaluate", 0.0),
        "bounds.check.s": total.get("bounds.check", 0.0),
        # Set-up runs once per process, so this one is not per pass.
        "serialize.s": tr.total_s.get("serialize", 0.0),
        "trace.wall_s.p50": traced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
    }
    return {k: (values[k], unit) for k, unit in UNITS.items()}
