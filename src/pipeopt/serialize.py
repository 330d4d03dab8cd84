"""JSON serialization of instances, plans, mixtures and reports.

Instance schema (field names are part of the interface):

    {
      "layers": [s_1, ..., s_k],
      "rewards": [...],                  length s_k
      "initial_distribution": [...],    length s_1
      "budget": B,
      "transitions": [T_1, ..., T_{k-1}],  T_t has s_{t+1} rows of s_t reals,
                                           T_t[v][u] = P(u -> v)
      "malleable": [Mask_1, ...],          same shapes, booleans; omitted = all true
      "cost_model": {"kind": "l1"} |
                    {"kind": "weighted_l1", "weights": [W_1, ...]}   omitted = l1
    }
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InputError
from .model import (
    CostModel,
    Instance,
    InterventionPlan,
    MixedPlan,
    SolveReport,
    make_instance,
    validate_instance,
)


def instance_to_dict(instance: Instance) -> dict:
    out = {
        "layers": [int(s) for s in instance.layer_sizes],
        "rewards": instance.rewards.tolist(),
        "initial_distribution": instance.initial_distribution.tolist(),
        "budget": instance.budget,
        "transitions": [m.tolist() for m in instance.initial_matrices],
        "malleable": [m.astype(bool).tolist() for m in instance.malleable],
    }
    if instance.cost_model.kind == "weighted_l1":
        out["cost_model"] = {
            "kind": "weighted_l1",
            "weights": [w.tolist() for w in instance.cost_model.weights],
        }
    else:
        out["cost_model"] = {"kind": "l1"}
    return out


def _json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def instance_from_dict(data: dict) -> Instance:
    cm_data = _json_object(_json_object(data, "instance").get("cost_model", {}),
                           "cost_model")
    try:
        instance = make_instance(
            layer_sizes=data["layers"],
            initial_matrices=data["transitions"],
            rewards=data["rewards"],
            initial_distribution=data["initial_distribution"],
            budget=data["budget"],
            malleable=data.get("malleable"),
            cost_model=CostModel(cm_data.get("kind", "l1"), cm_data.get("weights")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed instance data: {exc}") from exc
    violations = validate_instance(instance)
    if violations:
        raise InputError("invalid instance: " + "; ".join(violations))
    return instance


def parse_instance(path: str) -> Instance:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return instance_from_dict(data)


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")


def plan_to_dict(plan: InterventionPlan) -> dict:
    return {
        "matrices": [m.tolist() for m in plan.matrices],
        "budget_split": list(plan.budget_split),
    }


def plan_from_dict(data: dict) -> InterventionPlan:
    try:
        return InterventionPlan(
            matrices=tuple(np.asarray(m, dtype=float) for m in data["matrices"]),
            budget_split=tuple(data["budget_split"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed plan data: {exc}") from exc


def mixture_to_dict(mixed: MixedPlan) -> dict:
    return {
        "support": [
            {"weight": w, "plan": plan_to_dict(p)} for w, p in mixed.support
        ]
    }


def mixture_from_dict(data: dict) -> MixedPlan:
    try:
        return MixedPlan(support=tuple(
            (item["weight"], plan_from_dict(item["plan"]))
            for item in data["support"]
        ))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed mixture data: {exc}") from exc


def report_to_dict(report: SolveReport) -> dict:
    meta = {}
    for key, value in report.solver_meta.items():
        if isinstance(value, dict):
            meta[key] = {str(k): v for k, v in value.items()}
        elif isinstance(value, (np.floating, np.integer)):
            meta[key] = value.item()
        else:
            meta[key] = value
    return {
        "objective": report.objective_value,
        "per_population_rewards": np.asarray(report.per_population_rewards).tolist(),
        "budget_used": report.budget_used,
        "meta": meta,
    }
