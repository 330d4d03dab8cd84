"""Independent brute-force baselines over grid-restricted plans.

These oracles enumerate every plan whose per-entry changes are multiples of a
grid step eta (relative to the initial matrices, so the do-nothing plan is
always included), evaluate all of them exactly, and return the best.  They
share no machinery with the dynamic programs or the step solvers: evaluation
is plain batched matrix algebra, which is what makes them usable as an
independent check.  The piece lent the other way is `double_oracle`, the one
loop that solves every zero-sum game in pipeopt, with no LP: the randomized
solver runs it over its plans, the maximin step over greedy matrices, and
`mixture_game` over a large game's rows, with Shapley & Snow's support
enumeration (a small game's whole solver) as the restricted solver.  The
ex-ante oracle runs it over the whole table: its best responses are exact
argmaxes over every grid plan, so it needs no tolerance and no iteration cap.

Intended envelope: width <= 3, depth <= 4, eta coarse enough that the joint
enumeration stays under the cap (10^7 plans by default; the cap is a
parameter).  Each transition's grid variants are listed as arrays: a
column's deltas are the Cartesian grid over its free entries but the last,
which takes minus their sum, and the transition's variants are the
affordable combinations of its columns' deltas.  A table combines every
transition after the first into a cost-sorted suffix and streams the first
transition through the reductions in blocks of about _BLOCK_ROWS plans, so
memory is the suffix plus one block: a small table is a single block,
reduced in one numpy pass.  The suffix prefix a candidate can afford depends
only on its cost, so a block, like each suffix stage, prices every run of
equal-cost candidates with one matrix product.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import CapacityError
from .model import Instance, InterventionPlan, MixedPlan

ORACLE_CAP = 10_000_000
# Plans per streamed block of the first transition: small tables are one
# numpy pass, large ones hold the suffix plus one block in memory.
_BLOCK_ROWS = 1 << 16
_SNAP = 1e-9
# mixture_game enumerates a K x p game with at most this many square
# supports, C(K + p, p) - 1 of them, at once, and runs a double oracle from
# one row otherwise.  Only games this small keep their support tables cached.
_SUPPORT_CAP = 500
# One mixture_game call refuses (CapacityError) once its restricted games
# would enumerate more square supports than this in all: at about 10 us a
# support, a call stays under about 0.2 s, whatever the game's size.
_GAME_CAP = 20_000
# Supports are priced in slices of about this many entries, so memory
# stays a few MB at any game size.
_SLICE_ENTRIES = 1 << 20
# An enumerated pair is optimal when its duality gap is at most _CERT_TOL
# times max|values|; a support whose |1^T adj(M) 1| is under _SINGULAR_TOL
# times max|values|^(s - 1) is skipped as singular.
_CERT_TOL = 1e-12
_SINGULAR_TOL = 1e-12


def linprog(*args, **kwargs):
    """scipy's `linprog`, imported on call.  Nothing in pipeopt calls it:
    only the traced benchmark looks it up, here and as `layerlp.linprog`,
    to wrap it."""
    from scipy.optimize import linprog as highs
    return highs(*args, **kwargs)


def _column_options(m0col, maskcol, eta, max_units, cap):
    """All grid deltas for one column: (deltas (n, rows) in eta units,
    costs (n,) in units), the first free entry varying slowest.

    Deltas keep the column stochastic (they sum to zero), respect entry
    bounds, touch only malleable entries, and cost at most max_units.
    """
    free = np.flatnonzero(maskcol)
    if len(free) <= 1:
        return np.zeros((1, len(m0col)), dtype=np.int64), np.zeros(1, dtype=np.int64)
    lo = [-int(math.floor(m0col[v] / eta + _SNAP)) for v in free]
    hi = [int(math.floor((1.0 - m0col[v]) / eta + _SNAP)) for v in free]
    bound = math.prod(min(h - l + 1, 2 * max_units + 1) for l, h in zip(lo[:-1], hi[:-1]))
    if bound > cap:
        raise CapacityError(f"column enumeration would scan {bound} deltas (cap {cap})")
    # Every free entry but the last over its range (an entry past +-max_units
    # alone costs too much); the last takes minus their sum.
    axes = [np.arange(max(l, -max_units), min(h, max_units) + 1)
            for l, h in zip(lo[:-1], hi[:-1])]
    head = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    last = -head.sum(axis=1)
    costs = np.abs(head).sum(axis=1) + np.abs(last)
    keep = (lo[-1] <= last) & (last <= hi[-1]) & (costs <= max_units)
    deltas = np.zeros((int(keep.sum()), len(m0col)), dtype=np.int64)
    deltas[:, free[:-1]] = head[keep]
    deltas[:, free[-1]] = last[keep]
    return deltas, costs[keep]


def _layer_candidates(m0, mask, eta, max_units, cap):
    """All grid variants of one transition matrix: (matrices, cost_units),
    in the order of nested loops over the columns' options, first column
    outermost."""
    cols = [
        _column_options(m0[:, u], mask[:, u], eta, max_units, cap)
        for u in range(m0.shape[1])
    ]
    count = 1
    for _, c in cols:
        count *= len(c)
        if count > cap:
            raise CapacityError(f"layer enumeration would hold {count} matrices (cap {cap})")
    deltas = np.zeros((1, m0.shape[0], 0), dtype=np.int64)
    costs = np.zeros(1, dtype=np.int64)
    for d, c in cols:
        i, j = np.nonzero(costs[:, None] + c[None, :] <= max_units)
        deltas = np.concatenate([deltas[i], d[j, :, None]], axis=2)
        costs = costs[i] + c[j]
    return m0 + eta * deltas, costs


def _welfare_scores(vals, dist):
    """vals @ dist, summed column by column: numpy's dot (one row) and gemv
    (more rows) can round differently, the column sum rounds every row alike."""
    return sum(vals[:, j] * dist[j] for j in range(len(dist)))


def _stage_order(units, pos):
    """Order of a stage's rows by (units, pos), pos distinct and below
    len(pos): one sort of the key units * len(pos) + pos while it fits in
    int64, a lexsort beyond.  Every grid move can shrink by one unit in each
    of two entries, so a stage of n rows holds every even unit count up to
    its largest, which is then at most 2 (n - 1): the key fits for every
    stage under 2^31 rows."""
    n = len(pos)
    if (int(units.max()) + 1) * n <= np.iinfo(np.int64).max:
        key = units * n
        key += pos
        return np.argsort(key)
    return np.lexsort((pos, units))


def _joint_count(cost_arrays, max_units):
    """Exact number of cross-layer combinations with total cost <= max_units."""
    conv = np.ones(1)
    for costs in cost_arrays:
        conv = np.convolve(conv, np.bincount(costs))[: max_units + 1]
    return float(conv.sum())


class GridPlanTable:
    """Exhaustive table of feasible grid plans with per-population values.

    Every transition after the first is combined once into the suffix table,
    its rows ordered by (units, choice, parent row); a single transition has
    the empty suffix, one row holding the rewards at 0 units.  The first
    transition is streamed in blocks (`blocks`), so a plan is named by
    (suffix row, first choice).  Within a block, rows run by first-choice
    cost, then suffix row, then first choice; ties never go by row position
    but by (units, first choice, suffix row).  One table serves all three
    oracles: `welfare`, `expost_maximin` and `exante_maximin`.
    """

    def __init__(self, instance: Instance, eta: float, cap: int = ORACLE_CAP):
        if not (math.isfinite(eta) and eta > 0):
            raise ValueError(f"eta must be finite and positive, got {eta}")
        if instance.cost_model.kind != "l1":
            # Enumeration bookkeeping is exact integer multiples of eta,
            # which only prices unit costs.
            raise ValueError("grid oracles support unit (l1) costs only")
        if not math.isfinite(1.0 / eta):
            raise CapacityError(f"grid step {eta} is too fine: 1 / eta overflows")
        self.instance = instance
        self.eta = float(eta)
        units = instance.budget / eta + _SNAP
        budget_units = math.floor(units) if math.isfinite(units) else math.inf
        self.layers = [_layer_candidates(m0, mask, eta, budget_units, cap)
                       for m0, mask in zip(instance.initial_matrices, instance.malleable)]
        # No plan spends more than every transition's dearest candidate
        # together, so a larger budget buys nothing and is not counted.
        self.max_units = min(budget_units, sum(int(c.max()) for _, c in self.layers))
        k1 = len(self.layers)
        self.total_plans = _joint_count([c for _, c in self.layers], self.max_units)
        if self.total_plans > cap:
            raise CapacityError(
                f"grid oracle would enumerate {self.total_plans:.3g} plans (cap {cap})"
            )
        # Backward sweep over transitions k-2 .. 1 (0-based matrix indices),
        # from the empty suffix: rows hold value vectors r^T M_{k-2} ... M_t,
        # sorted by (units, choice, parent row), so each candidate of the
        # transition before can afford a prefix.  The 0-unit row keeps every
        # prefix non-empty.  Every transition has the 0-unit do-nothing
        # candidate, so each stage row extends to a plan: no stage outgrows
        # total_plans.
        self._suffix_values = instance.rewards[None, :]
        self._suffix_units = np.zeros(1, dtype=np.int64)
        self._stages = [None] * k1
        for t in range(k1 - 1, 0, -1):
            ends = self._ends(t)
            vals, key = self._block(t, 0, ends)
            parents, choices, units = self.lookup(key, np.arange(len(vals)))
            # Each row's place in (choice, parent row) order, formed in place:
            # a stage-sized temporary adds to the peak memory.
            pos = (np.cumsum(ends) - ends)[choices]
            pos += parents
            order = _stage_order(units, pos)
            self._stages[t] = (parents[order], choices[order])
            self._suffix_values = vals[order]
            self._suffix_units = units[order]

    def __len__(self):
        return int(self.total_plans)

    def _ends(self, t):
        """Suffix prefix each candidate of transition t can afford."""
        costs = self.layers[t][1]
        return np.searchsorted(self._suffix_units, self.max_units - costs, side="right")

    def blocks(self):
        """Yield (values (n, s0), key) for each block of the first transition.

        A block holds the feasible plans of a run of consecutive first-layer
        candidates, about _BLOCK_ROWS rows in all; one candidate larger than
        that is a block of its own.  Its rows run by candidate cost, then
        suffix row, then candidate; `lookup(key, idx)` names the rows idx.
        """
        ends = self._ends(0)
        lo = rows = 0
        for j, n in enumerate(ends.tolist()):
            if rows and rows + n > _BLOCK_ROWS:
                yield self._block(0, lo, ends[lo:j])
                lo, rows = j, 0
            rows += n
        yield self._block(0, lo, ends[lo:])

    def _block(self, t, lo, ends):
        """Values of transition t's candidates lo, lo+1, ... over the suffix
        prefixes `ends`, with the key `lookup` reads.

        A candidate's prefix depends only on its cost, so each run of equal
        cost (in candidate order) is priced with one product, its rows laid
        out (suffix row, candidate); the runs follow in ascending cost.
        """
        mats = self.layers[t][0]
        _, s1, s0 = mats.shape
        costs = self.layers[t][1][lo:lo + len(ends)]
        order = np.argsort(costs, kind="stable")
        first = np.flatnonzero(np.diff(costs[order], prepend=-1))
        widths = np.diff(first, append=len(order))
        heights = ends[order[first]]
        cands = lo + order
        sizes = heights * widths
        offsets = np.cumsum(sizes) - sizes
        vals = np.empty((int(sizes.sum()), s0))
        for f, w, n, at in zip(first.tolist(), widths.tolist(), heights.tolist(),
                               offsets.tolist()):
            run = mats[cands[f:f + w]]
            out = vals[at:at + n * w].reshape(n, w * s0)
            if n > 1 and s0 > 1:
                np.matmul(self._suffix_values[:n],
                          run.transpose(1, 0, 2).reshape(s1, w * s0), out=out)
            else:
                # numpy prices a one-row or one-column product with gemv,
                # whose rounding depends on its width: keep each candidate's
                # own (n, s1) @ (s1, s0) product.
                out.reshape(n, w, s0)[...] = np.matmul(
                    self._suffix_values[:n], run).transpose(1, 0, 2)
        return vals, (t, cands, first, widths, offsets)

    def lookup(self, key, idx):
        """(suffix rows, choices, units) of the rows idx of a block, read
        from its equal-cost runs: row `at + r * w + c` of a run of w
        candidates starting at `at` is suffix row r of its candidate c."""
        t, cands, first, widths, offsets = key
        g = np.searchsorted(offsets, idx, side="right") - 1
        rows, col = np.divmod(idx - offsets[g], widths[g])
        choices = cands[first[g] + col]
        return rows, choices, self._suffix_units[rows] + self.layers[t][1][choices]

    def reduce_best(self, score_fn, tie_fn):
        """Deterministic argmax over all feasible plans, one block at a time.

        score_fn maps an (n, s0) value block to n primary scores; tie_fn
        likewise for the secondary criterion.  Both must score each row on
        its own, whatever rows share its block.  Ties go to the higher
        secondary score, then fewer units, then the smaller first choice,
        then the smaller suffix row; blocks hold runs of consecutive first
        choices, so across blocks the earlier block keeps an exact tie.
        Returns (score, (suffix_row, first_choice)).
        """
        best = best_id = None
        for vals, key in self.blocks():
            primary = score_fn(vals)
            cand = float(primary.max())
            if best is not None and cand < best[0]:
                continue
            tied = np.flatnonzero(primary == cand)
            sec_vals = tie_fn(vals[tied])
            tied = tied[sec_vals == sec_vals.max()]
            rows, first, units = self.lookup(key, tied)
            i = int(np.lexsort((rows, first, units))[0])
            rank = (cand, float(sec_vals.max()), -float(units[i]))
            if best is None or rank > best:
                best = rank
                best_id = (int(rows[i]), int(first[i]))
        return best[0], best_id

    def plan_for(self, suffix_row: int, first: int) -> InterventionPlan:
        """Plan for the row (suffix_row, first_choice) of the table."""
        choices = [int(first)]
        idx = int(suffix_row)
        for parents, ch in self._stages[1:]:
            choices.append(int(ch[idx]))
            idx = int(parents[idx])
        mats, split = [], []
        for (cand_mats, cand_costs), j in zip(self.layers, choices):
            mats.append(cand_mats[j].copy())
            split.append(cand_costs[j] * self.eta)
        return InterventionPlan(matrices=tuple(mats), budget_split=tuple(split))

    def rewards_for(self, suffix_row: int, first: int) -> np.ndarray:
        """Per-population values of the row (suffix_row, first_choice)."""
        return self._suffix_values[int(suffix_row)] @ self.layers[0][0][int(first)]

    def welfare(self):
        """Exact best welfare over the table's plans: (value, plan).

        Ties on welfare prefer lower cost.
        """
        d1 = self.instance.initial_distribution
        value, ident = self.reduce_best(
            score_fn=lambda vals: _welfare_scores(vals, d1),
            tie_fn=lambda vals: np.zeros(len(vals)),
        )
        return value, self.plan_for(*ident)

    def expost_maximin(self):
        """Exact best worst-population reward over the table's plans:
        (value, plan).

        Ties on the maximin value prefer higher welfare, then lower cost, so
        the returned plan never carries gratuitous spending.
        """
        d1 = self.instance.initial_distribution
        value, ident = self.reduce_best(
            # Row minima as a chain of column minima: numpy reduces a short
            # last axis slowly, and a minimum is exact either way.
            score_fn=lambda vals: functools.reduce(np.minimum, vals.T),
            tie_fn=lambda vals: _welfare_scores(vals, d1),
        )
        return value, self.plan_for(*ident)

    def exante_maximin(self):
        """Exact best randomized maximin over mixtures of the table's plans.

        Solves max v subject to sum_p lambda_p * reward_j(p) >= v for every
        population j over the enumerated plan set, as a `double_oracle`
        started from the table's best plan against the instance's own
        distribution.  It adds the table's best plan against the
        adversary's optimal reply to the restricted game until that plan is
        already in the game or does not beat the game's value.  The table
        is finite, so this ends, and then no grid plan beats the value
        against the adversary's reply.  Returns (value, MixedPlan).
        """
        def respond(mu):
            score, ident = self.reduce_best(
                score_fn=lambda vals: _welfare_scores(vals, mu),
                tie_fn=lambda vals: np.zeros(len(vals)),
            )
            return ident, self.rewards_for(*ident), score

        ident, rewards, _ = respond(self.instance.initial_distribution)
        value, lam, _, keys, *_ = double_oracle(respond, {ident: rewards}, 0.0)
        support = [(float(w), self.plan_for(*ident))
                   for w, ident in zip(lam, keys) if w > 0]
        return value, MixedPlan(support=tuple(support))


def oracle_welfare(instance: Instance, eta: float, cap: int = ORACLE_CAP):
    """Exact best welfare over grid plans: (value, plan).  See
    `GridPlanTable.welfare`."""
    return GridPlanTable(instance, eta, cap).welfare()


def oracle_expost_maximin(instance: Instance, eta: float, cap: int = ORACLE_CAP):
    """Exact best worst-population reward over grid plans: (value, plan).
    See `GridPlanTable.expost_maximin`."""
    return GridPlanTable(instance, eta, cap).expost_maximin()


def oracle_exante_maximin(instance: Instance, eta: float, cap: int = ORACLE_CAP):
    """Exact best randomized maximin over mixtures of grid plans:
    (value, MixedPlan).  See `GridPlanTable.exante_maximin`."""
    return GridPlanTable(instance, eta, cap).exante_maximin()


def mixture_game(values) -> tuple:
    """Solve the zero-sum game max_lambda min_j sum_i lambda_i * values[i, j].

    Rows are the designer's plans, columns the adversary's populations.
    Returns (v, lambda, mu): the designer's weights (entries at or below
    1e-10 dropped, the rest renormalized), the adversary's optimal
    distribution, and v = min_j (lambda^T values)_j.  A game with at most
    _SUPPORT_CAP square supports is one `_support_game` enumeration; a
    larger one is a double oracle over the rows, with `_support_game` as
    the restricted solver and the best row against mu as the response,
    started from the best row against the uniform adversary.  Raises
    CapacityError once the restricted games would enumerate more than
    _GAME_CAP supports in all, and RuntimeError if a (restricted) game
    cannot be certified.
    """
    values = np.asarray(values, dtype=float)
    k, p = values.shape
    if _support_count(k, p) <= _SUPPORT_CAP:
        return _certified_game(values)
    work = 0

    def respond(mu):
        i = int((values @ mu).argmax())
        return i, values[i], float(values[i] @ mu)

    def solve(rows):
        nonlocal work
        work += _support_count(len(rows), p)
        if work > _GAME_CAP:
            raise CapacityError(
                f"the {k} x {p} game's restricted games would enumerate more than "
                f"{_GAME_CAP} square supports (cap {_GAME_CAP})")
        return _certified_game(rows)

    start = respond(np.full(p, 1.0 / p))[0]
    _, lam, mu, keys, *_ = double_oracle(
        respond, {start: values[start]}, _CERT_TOL * float(np.abs(values).max()),
        solve=solve)
    full = np.zeros(k)
    full[keys] = lam
    return float((full @ values).min()), full, mu


def _support_count(k, p):
    """Square supports (S, T) of a k x p game: sum_s C(k, s) C(p, s)."""
    return math.comb(k + p, p) - 1


def _certified_game(rows):
    """`_support_game` on the rows, normalized as `mixture_game` returns it."""
    values = np.array(rows)
    found = _support_game(values)
    if found is None:
        raise RuntimeError("no certified solution of the %d x %d restricted game"
                           % values.shape)
    lam, mu = found
    lam = np.where(lam > 1e-10, lam, 0.0)
    lam /= sum(float(w) for w in lam if w > 0)
    mu = np.maximum(mu, 0.0)
    mu /= mu.sum()
    return float((lam @ values).min()), lam, mu


def double_oracle(respond, game, tol, max_iterations=None, solve=mixture_game) -> tuple:
    """Solve a zero-sum game by growing a restricted game from best responses
    (McMahan, Gordon & Blum, 2003).

    `game` maps a key to its row of per-population values; `respond(mu)`
    returns (key, row, payoff against mu) of a best response to the
    adversary's distribution mu.  Each pass solves the restricted game
    (`solve`), and stops if the best response to its optimal mu is already
    in the game or beats its value by at most tol, or after max_iterations
    passes; otherwise the response joins the game.  With finitely many
    responses it ends.  Returns the restricted game's (v, lambda, mu), its
    keys in order, the last response's payoff, the passes made and whether
    the loop converged.
    """
    for iterations in itertools.count(1):
        value, lam, mu = solve(list(game.values()))
        key, row, response = respond(mu)
        converged = key in game or response <= value + tol
        if converged or iterations == max_iterations:
            return value, lam, mu, list(game), response, iterations, converged
        game[key] = row


@functools.cache
def _supports(k, p, s):
    """Index arrays for the s x s supports (S, T) of a k x p game, S major:
    each support's rows and columns, (n, s) each; the flat indices of
    values[S, T], (n, s, s); the index pair that takes an (s, s) block's
    (s-1) x (s-1) minors, (s, s, s-1, s-1), minor (i, j) dropping row i and
    column j; and the cofactor signs, (s, s).  Cached for games of at most
    _SUPPORT_CAP supports, so those calls share them; none is written."""
    rows, cols = (np.array(list(itertools.combinations(range(n), s)), dtype=np.intp)
                  for n in (k, p))
    r = np.repeat(rows, len(cols), axis=0)
    c = np.tile(cols, (len(rows), 1))
    rest = np.array([[j for j in range(s) if j != i] for i in range(s)], dtype=np.intp)
    return (r, c, r[:, :, None] * p + c[:, None, :],
            (rest[:, None, :, None], rest[None, :, None, :]),
            (-1.0) ** np.add.outer(np.arange(s), np.arange(s)))


def _support_game(values):
    """Optimal (lambda, mu) by Shapley & Snow's basic solutions, or None.

    Every finite zero-sum game has an optimal pair on square supports S
    (rows) and T (columns) whose submatrix M = values[S, T] has a nonzero
    1^T adj(M) 1: lambda_S is proportional to 1^T adj(M), mu_T to adj(M) 1.
    For sizes 1, 2, ... this forms both for every (S, T) of the size in
    batches of about _SLICE_ENTRIES entries, from M's cofactors, and returns
    the first pair in lexicographic order that certifies itself: with both
    strategies clipped to distributions, no row beats lambda's worst column
    by more than _CERT_TOL * max|values| against mu.
    """
    k, p = values.shape
    scale = float(np.abs(values).max())
    if scale < 2.0 ** -64:
        # Rescale so the tolerances and determinants do not underflow.  Only
        # here: np.linalg.det goes through log|det|, so it moves last bits.
        e = math.frexp(scale)[1]
        values, scale = np.ldexp(values, -e), math.ldexp(scale, -e)
    tables = _supports if _support_count(k, p) <= _SUPPORT_CAP else _supports.__wrapped__
    for s in range(1, min(k, p) + 1):
        all_rows, all_cols, flat, (ri, ci), sign = tables(k, p, s)
        step = max(1, _SLICE_ENTRIES // (s ** 4 + (k + p) * s))
        for lo in range(0, len(flat), step):
            part = slice(lo, lo + step)
            cof = np.linalg.det(values.take(flat[part][:, ri, ci])) * sign
            total = cof.sum(axis=(1, 2))
            keep = np.abs(total) > _SINGULAR_TOL * scale ** (s - 1)
            cof, total = cof[keep], total[keep, None]
            rows, cols = all_rows[part][keep], all_cols[part][keep]
            # Each sums to 1 before clipping, so a positive entry survives it.
            lam_s = np.maximum(cof.sum(axis=2) / total, 0.0)
            mu_t = np.maximum(cof.sum(axis=1) / total, 0.0)
            lam_s /= lam_s.sum(axis=1, keepdims=True)
            mu_t /= mu_t.sum(axis=1, keepdims=True)
            worst = (lam_s[:, :, None] * values[rows]).sum(axis=1).min(axis=1)
            best = (values[:, cols] * mu_t).sum(axis=2).max(axis=0)
            cert = np.flatnonzero(best - worst <= _CERT_TOL * scale)
            if len(cert):
                i = cert[0]
                lam, mu = np.zeros(k), np.zeros(p)
                lam[rows[i]] = lam_s[i]
                mu[cols[i]] = mu_t[i]
                return lam, mu
    return None
