"""Workload definitions, input generation and output checks.

Importing this module imports pipeopt from the checkout's `src` directory,
so the import is part of the measured set-up time.

A workload is a list of strata.  Each stratum draws `count` instance seeds
from its own fixed pool of seeds, so every job the benchmark can ever run
has a reference objective in `reference.json` (written by
`make_reference.py` on the commit that introduced the benchmark).  The
workload seed picks the draw; the solvers only ever see the generated,
serialize-round-tripped instances.  The reasons behind each workload are in
README.md.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if not (_SRC / "pipeopt" / "__init__.py").is_file():
    raise ImportError(f"pipeopt sources not found under {_SRC}")
sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

import pipeopt as po  # noqa: E402

if Path(po.__file__).resolve().parent != (_SRC / "pipeopt").resolve():
    raise ImportError(f"imported pipeopt from {po.__file__}, not from {_SRC}")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Reported objectives must equal their exact re-evaluation to this tolerance.
EXACT_TOL = 1e-12
# A reported objective below its reference by more than this is a regression.
QUALITY_TOL = 1e-9


@dataclass(frozen=True)
class Stratum:
    kind: str          # which solver or oracle the job runs
    family: str        # "random" or "separation"
    shape: tuple       # random: (width, depth, budget); separation: (budget,)
    params: dict       # solver parameters
    pool: range        # instance seeds the workload seed draws from
    count: int         # jobs drawn per pass


def _pool(base: int, size: int = 64) -> range:
    return range(base, base + size)


SEP = (0.6,)  # separation_instance budget used by acceptance test 05
WORKLOADS = {
    # The DP build and the unit-cost greedy; no LP is ever called.
    "welfare": [
        Stratum("welfare", "random", (3, 4, 1.0), {"epsilon": 0.3}, _pool(1000), 8),
    ],
    # The LP-bound maximin step on width-2 instances of the acceptance-03
    # family (budget 0.5 and 1.0 alternate there; both are drawn here).
    "maximin": [
        Stratum("maximin", "random", (2, 3, 0.5), {"epsilon": 0.5}, _pool(2000), 3),
        Stratum("maximin", "random", (2, 3, 1.0), {"epsilon": 0.5}, _pool(2100), 3),
    ],
    # Many small best-response queries into one small welfare DP.  The
    # best-response cell cap forces the br_epsilon coarsening path.
    "exante": [
        Stratum("exante", "random", (3, 3, 1.0),
                {"epsilon": 0.1, "br_cells_cap": 1000}, _pool(3000), 8),
        Stratum("exante", "separation", SEP,
                {"epsilon": 0.01, "rounds": 500, "br_cells_cap": 1000}, range(1), 1),
    ],
    # Numpy enumeration only: dense tables for all three objectives, one
    # streamed table above the dense-row limit, and bound audits.
    "oracle": [
        Stratum("oracle_welfare", "separation", SEP, {"eta": 0.075}, range(1), 1),
        Stratum("oracle_maximin", "separation", SEP, {"eta": 0.075}, range(1), 1),
        Stratum("oracle_exante", "separation", SEP, {"eta": 0.075}, range(1), 1),
        Stratum("oracle_maximin", "separation", SEP, {"eta": 0.033}, range(1), 1),
        Stratum("oracle_welfare", "random", (2, 3, 1.0), {"eta": 0.1}, _pool(4000), 3),
        Stratum("oracle_maximin", "random", (2, 3, 1.0), {"eta": 0.1}, _pool(4100), 3),
    ],
}


@dataclass
class Job:
    key: str
    kind: str
    params: dict
    instance: object


@dataclass
class Outcome:
    objective: float
    plan: object = None            # InterventionPlan, or MixedPlan for ex-ante kinds
    meta: dict = field(default_factory=dict)
    bound_checks: list = field(default_factory=list)
    trace: object = None           # DynamicsTrace of the ex-ante solver


def job_key(stratum: Stratum, seed: int) -> str:
    shape = ",".join(repr(x) for x in stratum.shape)
    params = ",".join(f"{k}={v!r}" for k, v in sorted(stratum.params.items()))
    return f"{stratum.kind}/{stratum.family}({shape})/{seed}/{params}"


def _generate(family: str, shape: tuple, seed: int):
    if family == "random":
        width, depth, budget = shape
        return po.random_instance(seed, width, depth, 1.0, budget)
    (budget,) = shape
    return po.separation_instance(budget)


def _round_trip(instance):
    """Serialize and parse back; the solvers only see the parsed copy."""
    data = json.loads(json.dumps(po.instance_to_dict(instance)))
    return po.instance_from_dict(data)


def _same_instance(a, b) -> bool:
    pairs = [(a.rewards, b.rewards), (a.initial_distribution, b.initial_distribution)]
    pairs += list(zip(a.initial_matrices, b.initial_matrices))
    pairs += list(zip(a.malleable, b.malleable))
    return (a.layer_sizes == b.layer_sizes and a.budget == b.budget
            and a.cost_model.kind == b.cost_model.kind
            and all(np.array_equal(x, y) for x, y in pairs))


def draw(workload: str, seed: int) -> list:
    """(stratum, instance seed) pairs for a workload seed, in job order."""
    rng = random.Random(f"{workload}:{seed}")
    return [(stratum, s) for stratum in WORKLOADS[workload]
            for s in sorted(rng.sample(stratum.pool, stratum.count))]


def make_jobs(pairs) -> tuple:
    """Generate the instances and round-trip each through `serialize`.

    Returns (jobs, problems); a round trip that is not bitwise exact is a
    problem.
    """
    jobs, problems, cache = [], [], {}
    for stratum, seed in pairs:
        ident = (stratum.family, stratum.shape, seed)
        if ident not in cache:
            original = _generate(stratum.family, stratum.shape, seed)
            parsed = _round_trip(original)
            if not _same_instance(original, parsed):
                problems.append(f"{ident}: serialize round trip is not exact")
            cache[ident] = parsed
        jobs.append(Job(job_key(stratum, seed), stratum.kind, stratum.params,
                        cache[ident]))
    return jobs, problems


def run_job(job: Job) -> Outcome:
    """Run one job.  Calls go through `po.<name>` so a tracer can wrap them."""
    inst, p = job.instance, job.params
    if job.kind == "welfare":
        report, plan = po.solve_social_welfare(inst, p["epsilon"])
        return Outcome(report.objective_value, plan, report.solver_meta)
    if job.kind == "maximin":
        report, plan = po.solve_expost_maximin(inst, p["epsilon"])
        return Outcome(report.objective_value, plan, report.solver_meta)
    if job.kind == "exante":
        mixture, report, trace = po.solve_exante_maximin(
            inst, p["epsilon"], rounds=p.get("rounds"), br_cells_cap=p["br_cells_cap"])
        return Outcome(report.objective_value, mixture, report.solver_meta, trace=trace)
    eta = p["eta"]
    if job.kind == "oracle_welfare":
        value, plan = po.oracle_welfare(inst, eta)
        checks = po.check_plan_bounds(inst, plan)
        return Outcome(value, plan, bound_checks=checks)
    if job.kind == "oracle_maximin":
        value, plan = po.oracle_expost_maximin(inst, eta)
        checks = po.check_plan_bounds(inst, plan, exact_maximin=True, grid_step=eta)
        return Outcome(value, plan, bound_checks=checks)
    if job.kind == "oracle_exante":
        value, mixture = po.oracle_exante_maximin(inst, eta)
        checks = [c for plan in mixture.plans for c in po.check_plan_bounds(inst, plan)]
        return Outcome(value, mixture, bound_checks=checks)
    raise ValueError(f"unknown job kind {job.kind!r}")


def exact_objective(job: Job, out: Outcome) -> float:
    """The objective re-evaluated exactly from the returned plan."""
    inst = job.instance
    if job.kind in ("exante", "oracle_exante"):
        return po.evaluate_mixed(inst, out.plan)[1]
    rewards = po.evaluate_population_rewards(inst, out.plan)
    if job.kind in ("welfare", "oracle_welfare"):
        return float(rewards @ inst.initial_distribution)
    return float(rewards.min())


def check(job: Job, out: Outcome, reference: dict) -> list:
    """Problems with one job's output; an empty list means it passed."""
    inst = job.instance
    if job.kind in ("exante", "oracle_exante"):
        problems = po.mixed_violations(inst, out.plan)
    else:
        problems = po.plan_violations(inst, out.plan)
    exact = exact_objective(job, out)
    if not abs(out.objective - exact) <= EXACT_TOL:
        problems.append(f"reported {out.objective!r} != re-evaluated {exact!r}")
    ref = reference[job.key]
    if not ref - out.objective <= QUALITY_TOL:
        problems.append(f"objective {out.objective!r} below reference {ref!r}")
    problems += [f"bound {c.name} failed: {c.lhs} vs {c.rhs}"
                 for c in out.bound_checks if not c.passed]
    if out.trace is not None:
        lhs, best_fixed, slack = out.trace.regret_certificate(inst.reward_sup)
        if not lhs <= best_fixed + slack + 1e-9:
            problems.append(f"regret certificate fails: {lhs} > {best_fixed} + {slack}")
    return problems


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
