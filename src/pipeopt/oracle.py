"""Independent brute-force baselines over grid-restricted plans.

These oracles enumerate every plan whose per-entry changes are multiples of a
grid step eta (relative to the initial matrices, so the do-nothing plan is
always included), evaluate all of them exactly, and return the best.  They
share no machinery with the dynamic programs or the step solvers: evaluation
is plain batched matrix algebra, which is what makes them usable as an
independent check.  The one piece lent the other way is the mixture LP,
`mixture_game`, which the randomized solver solves over its own plans.

Intended envelope: width <= 3, depth <= 4, eta coarse enough that the joint
enumeration stays under the cap (10^7 plans by default; the cap is a
parameter).  Small tables are materialized outright; larger ones keep the
suffix layers materialized and stream the first layer through a reduction,
which bounds memory at a few hundred MB around the cap.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from .errors import CapacityError
from .model import Instance, InterventionPlan, MixedPlan

ORACLE_CAP = 10_000_000
# Tables of at most this many plans are materialized; read at construction.
DENSE_ROWS = 2_000_000
_SNAP = 1e-9
_CHUNK = 512


def _column_options(m0col, maskcol, eta, max_units, cap):
    """All grid deltas for one column: (delta in eta units, cost in units).

    Deltas keep the column stochastic (they sum to zero), respect entry
    bounds, touch only malleable entries, and cost at most max_units.
    """
    free = [int(v) for v in np.flatnonzero(maskcol)]
    zero = np.zeros(len(m0col), dtype=np.int64)
    if len(free) <= 1:
        return [(zero, 0)]
    lo = {v: -int(math.floor(m0col[v] / eta + _SNAP)) for v in free}
    hi = {v: int(math.floor((1.0 - m0col[v]) / eta + _SNAP)) for v in free}
    options = []

    def rec(idx, acc, acc_sum, acc_cost):
        if acc_cost > max_units:
            return
        if idx == len(free) - 1:
            last = free[idx]
            d = -acc_sum
            if lo[last] <= d <= hi[last] and acc_cost + abs(d) <= max_units:
                delta = zero.copy()
                for v, dv in acc:
                    delta[v] = dv
                delta[last] = d
                options.append((delta, acc_cost + abs(d)))
            return
        v = free[idx]
        for dv in range(lo[v], hi[v] + 1):
            rec(idx + 1, acc + [(v, dv)], acc_sum + dv, acc_cost + abs(dv))

    bound = 1
    for v in free[:-1]:
        bound *= min(hi[v] - lo[v] + 1, 2 * max_units + 1)
    if bound > cap:
        raise CapacityError(f"column enumeration would scan {bound} deltas (cap {cap})")
    rec(0, [], 0, 0)
    return options


def _layer_candidates(m0, mask, eta, max_units, cap):
    """All grid variants of one transition matrix: (matrices, cost_units)."""
    cols = [
        _column_options(m0[:, u], mask[:, u], eta, max_units, cap)
        for u in range(m0.shape[1])
    ]
    count = 1
    for c in cols:
        count *= len(c)
        if count > cap:
            raise CapacityError(f"layer enumeration would hold {count} matrices (cap {cap})")
    combos = [(np.zeros_like(m0, dtype=np.int64), 0)]
    for u, opts in enumerate(cols):
        nxt = []
        for delta, cost in combos:
            for d, c in opts:
                if cost + c <= max_units:
                    nd = delta.copy()
                    nd[:, u] = d
                    nxt.append((nd, cost + c))
        combos = nxt
        if len(combos) > cap:
            raise CapacityError(f"layer enumeration exceeded cap {cap}")
    mats = np.stack([m0 + eta * d for d, _ in combos])
    costs = np.array([c for _, c in combos], dtype=np.int64)
    return mats, costs


def _joint_count(cost_arrays, max_units):
    """Exact number of cross-layer combinations with total cost <= max_units."""
    conv = np.zeros(max_units + 1, dtype=np.float64)
    binc = np.bincount(cost_arrays[0], minlength=max_units + 1)[: max_units + 1]
    conv[: len(binc)] = binc
    for costs in cost_arrays[1:]:
        h = np.bincount(costs, minlength=max_units + 1)[: max_units + 1].astype(float)
        conv = np.convolve(conv, h)[: max_units + 1]
    return float(conv.sum())


class GridPlanTable:
    """Exhaustive table of feasible grid plans with per-population values.

    Suffix layers (everything after the first transition) are always fully
    combined; the first transition is either folded in (dense mode, at most
    DENSE_ROWS plans) or streamed through reductions (larger tables).
    """

    def __init__(self, instance: Instance, eta: float, cap: int = ORACLE_CAP):
        if eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        if instance.cost_model.kind != "l1":
            # Enumeration bookkeeping is exact integer multiples of eta,
            # which only prices unit costs.
            raise ValueError("grid oracles support unit (l1) costs only")
        self.instance = instance
        self.eta = float(eta)
        self.max_units = int(math.floor(instance.budget / eta + _SNAP))
        k1 = len(instance.initial_matrices)
        self.layers = []
        for t in range(k1):
            self.layers.append(
                _layer_candidates(
                    instance.initial_matrices[t], instance.malleable[t],
                    eta, self.max_units, cap,
                )
            )
        self.total_plans = _joint_count([c for _, c in self.layers], self.max_units)
        if self.total_plans > cap:
            raise CapacityError(
                f"grid oracle would enumerate {self.total_plans:.3g} plans (cap {cap})"
            )
        # Backward sweep over layers k-2 .. 1 (0-based matrix indices):
        # rows hold value vectors r^T M_{k-1} ... M_{t}.
        mats, costs = self.layers[k1 - 1]
        values = mats.transpose(0, 2, 1) @ instance.rewards
        units = costs.copy()
        self._stages = [None] * k1
        self._stages[k1 - 1] = (np.zeros(len(mats), dtype=np.int64),
                                np.arange(len(mats), dtype=np.int64))
        for t in range(k1 - 2, 0, -1):
            values, units = self._combine(t, values, units, cap)
        self.suffix_values = values  # (rows, layer_sizes[1]) for k1 > 1
        self.suffix_units = units
        self.dense = self.total_plans <= DENSE_ROWS
        if self.dense:
            if k1 > 1:
                values, units = self._combine(0, values, units, cap)
            self.values = values
            self.units = units
        else:
            self.values = None
            self.units = None
            # Sorting the suffix by cost makes each first-layer candidate's
            # feasible set a prefix, so the stream touches only feasible
            # combinations.
            order = np.argsort(self.suffix_units, kind="stable")
            self._suffix_order = order
            self._sorted_units = self.suffix_units[order]
            self._sorted_values = self.suffix_values[order]

    def _combine(self, t, values, units, cap):
        mats, costs = self.layers[t]
        new_vals, new_units, parents, choices = [], [], [], []
        total = 0
        for j in range(len(mats)):
            keep = np.flatnonzero(units + costs[j] <= self.max_units)
            if len(keep) == 0:
                continue
            total += len(keep)
            if total > cap:
                raise CapacityError(f"grid oracle exceeded cap {cap}")
            new_vals.append(values[keep] @ mats[j])
            new_units.append(units[keep] + costs[j])
            parents.append(keep)
            choices.append(np.full(len(keep), j, dtype=np.int64))
        self._stages[t] = (np.concatenate(parents), np.concatenate(choices))
        return np.concatenate(new_vals), np.concatenate(new_units)

    def __len__(self):
        return int(self.total_plans)

    # -- streaming over the first transition --------------------------------

    def stream_by_choice(self):
        """Yield (first_choice j, value rows (L, s1), suffix row ids, units).

        Rows cover exactly the feasible suffixes for that first-layer
        candidate (a prefix of the cost-sorted suffix table).
        """
        if len(self.layers) == 1:
            yield (None, self.suffix_values,
                   np.arange(len(self.suffix_values)), self.suffix_units)
            return
        mats, costs0 = self.layers[0]
        for j in range(len(mats)):
            n = int(np.searchsorted(self._sorted_units,
                                    self.max_units - costs0[j], side="right"))
            if n == 0:
                continue
            vals = self._sorted_values[:n] @ mats[j]
            yield j, vals, self._suffix_order[:n], self._sorted_units[:n] + costs0[j]

    def reduce_best(self, score_fn, tie_fn):
        """Deterministic argmax over all feasible plans without materializing.

        score_fn maps an (n, s1) value block to n primary scores; tie_fn
        likewise for the secondary criterion.  Returns
        (score, (suffix_row, first_choice)).
        """
        best = None
        best_id = None
        for j, vals, rows, units in self.stream_by_choice():
            primary = score_fn(vals)
            cand = float(primary.max())
            if best is not None and cand < best[0]:
                continue
            tied = np.flatnonzero(primary == cand)
            sec_vals = tie_fn(vals[tied])
            tied = tied[sec_vals == sec_vals.max()]
            u = units[tied]
            tied = tied[u == u.min()]
            key = (cand, float(sec_vals.max()), -float(u.min()))
            if best is None or key > best:
                best = key
                best_id = (int(rows[tied[0]]), None if j is None else int(j))
        if best is None:
            raise RuntimeError("no feasible plan (budget grid empty?)")
        return best[0], best_id

    # -- dense accessors ------------------------------------------------------

    def _require_dense(self):
        if not self.dense:
            raise CapacityError(
                "table too large to materialize; use the streaming reductions"
            )

    def layer_units(self) -> np.ndarray:
        """(rows, layers) per-layer cost units, gathered through the stages."""
        self._require_dense()
        rows = len(self.values)
        out = np.zeros((rows, len(self.layers)), dtype=np.int64)
        idx = np.arange(rows, dtype=np.int64)
        for t in range(len(self.layers)):
            parents, choices = self._stages[t]
            out[:, t] = self.layers[t][1][choices[idx]]
            idx = parents[idx]
        return out

    def welfare_scores(self, d1=None) -> np.ndarray:
        self._require_dense()
        d = self.instance.initial_distribution if d1 is None else np.asarray(d1, float)
        return self.values @ d

    def maximin_scores(self) -> np.ndarray:
        self._require_dense()
        return self.values.min(axis=1)

    # -- plan reconstruction --------------------------------------------------

    def plan_for(self, row: int) -> InterventionPlan:
        """Plan for a dense-table row index."""
        self._require_dense()
        choices = []
        idx = int(row)
        for t in range(len(self.layers)):
            parents, ch = self._stages[t]
            choices.append(int(ch[idx]))
            idx = int(parents[idx])
        return self._plan_from_choices(choices)

    def plan_for_stream(self, ident) -> InterventionPlan:
        """Plan for a streaming identifier (suffix_row, first_choice)."""
        suffix_row, first = ident
        choices = []
        idx = int(suffix_row)
        if len(self.layers) == 1:
            parents, ch = self._stages[0]
            return self._plan_from_choices([int(ch[idx])])
        choices.append(int(first))
        for t in range(1, len(self.layers)):
            parents, ch = self._stages[t]
            choices.append(int(ch[idx]))
            idx = int(parents[idx])
        return self._plan_from_choices(choices)

    def _plan_from_choices(self, choices) -> InterventionPlan:
        mats, split = [], []
        for t, j in enumerate(choices):
            cand_mats, cand_costs = self.layers[t]
            mats.append(cand_mats[j].copy())
            split.append(cand_costs[j] * self.eta)
        return InterventionPlan(matrices=tuple(mats), budget_split=tuple(split))


def _pick_dense(table: GridPlanTable, primary: np.ndarray, secondary: np.ndarray) -> int:
    """Deterministic argmax: primary desc, secondary desc, cost asc, index asc."""
    best = primary.max()
    tied = np.flatnonzero(primary == best)
    sec = secondary[tied]
    tied = tied[sec == sec.max()]
    units = table.units[tied]
    tied = tied[units == units.min()]
    return int(tied[0])


def oracle_welfare(instance: Instance, eta: float, cap: int = ORACLE_CAP):
    """Exact best welfare over grid plans: (value, plan)."""
    table = GridPlanTable(instance, eta, cap)
    d1 = instance.initial_distribution
    if table.dense:
        scores = table.welfare_scores()
        row = _pick_dense(table, scores, -table.units.astype(float))
        return float(scores[row]), table.plan_for(row)
    value, ident = table.reduce_best(
        score_fn=lambda vals: vals @ d1,
        tie_fn=lambda vals: np.zeros(len(vals)),
    )
    return float(value), table.plan_for_stream(ident)


def oracle_expost_maximin(instance: Instance, eta: float, cap: int = ORACLE_CAP):
    """Exact best worst-population reward over grid plans: (value, plan).

    Ties on the maximin value prefer higher welfare, then lower cost, so the
    returned plan never carries gratuitous spending.
    """
    table = GridPlanTable(instance, eta, cap)
    d1 = instance.initial_distribution
    if table.dense:
        scores = table.maximin_scores()
        row = _pick_dense(table, scores, table.welfare_scores())
        return float(scores[row]), table.plan_for(row)
    value, ident = table.reduce_best(
        score_fn=lambda vals: vals.min(axis=1),
        tie_fn=lambda vals: vals @ d1,
    )
    return float(value), table.plan_for_stream(ident)


def _pareto_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of componentwise-undominated rows (first occurrence kept)."""
    n, s = values.shape
    order = np.lexsort(tuple(-values[:, c] for c in range(s - 1, -1, -1)))
    kept_rows = []
    kept = np.empty((0, s))
    mask = np.zeros(n, dtype=bool)
    for i in order:
        row = values[i]
        if len(kept_rows) and bool(np.any(np.all(kept >= row, axis=1))):
            continue
        kept_rows.append(i)
        kept = values[np.array(kept_rows)]
        mask[i] = True
    return mask


def oracle_exante_maximin(instance: Instance, eta: float, cap: int = ORACLE_CAP):
    """Exact best randomized maximin over mixtures of grid plans.

    Solves max v subject to sum_p lambda_p * reward_j(p) >= v for every
    population j over the enumerated plan set.  Only componentwise-
    undominated reward vectors can carry weight, so the LP runs on the
    Pareto frontier.  Returns (value, MixedPlan).
    """
    table = GridPlanTable(instance, eta, cap)
    if table.dense:
        vals = table.values
        mask = _pareto_mask(vals)
        rows = np.flatnonzero(mask)
        idents = list(rows)
        frontier = vals[rows]
        rebuild = table.plan_for
    else:
        pool_vals, pool_ids = [], []
        for j, vals, rows, _ in table.stream_by_choice():
            mask = _pareto_mask(vals)
            pool_vals.append(vals[mask])
            pool_ids.extend((int(rows[i]), j) for i in np.flatnonzero(mask))
            if sum(len(v) for v in pool_vals) > 100_000:
                merged = np.concatenate(pool_vals)
                keep = _pareto_mask(merged)
                pool_ids = [pid for pid, k in zip(pool_ids, keep) if k]
                pool_vals = [merged[keep]]
        merged = np.concatenate(pool_vals)
        keep = _pareto_mask(merged)
        frontier = merged[keep]
        idents = [pid for pid, k in zip(pool_ids, keep) if k]
        rebuild = table.plan_for_stream
    value, lam, _ = mixture_game(frontier)
    support = [(float(lam[i]), rebuild(idents[i])) for i in np.flatnonzero(lam)]
    return value, MixedPlan(support=tuple(support))


def mixture_game(values) -> tuple:
    """Solve the zero-sum game max_lambda min_j sum_i lambda_i * values[i, j].

    Rows are the designer's plans, columns the adversary's populations.
    Returns (v, lambda, mu): the game value, the designer's weights (entries
    at or below 1e-10 dropped, the rest renormalized) and the adversary's
    optimal distribution, read from the LP dual (HiGHS marginals).
    """
    values = np.asarray(values, dtype=float)
    f, s1 = values.shape
    c = np.zeros(f + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-values.T, np.ones((s1, 1))])
    b_ub = np.zeros(s1)
    a_eq = np.zeros((1, f + 1))
    a_eq[0, :f] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.array([1.0]),
                  bounds=[(0.0, None)] * f + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"mixture LP failed: {res.message}")
    lam = np.where(res.x[:f] > 1e-10, res.x[:f], 0.0)
    lam /= sum(float(w) for w in lam if w > 0)
    mu = np.maximum(-res.ineqlin.marginals, 0.0)
    mu /= mu.sum()
    return float(res.x[-1]), lam, mu
