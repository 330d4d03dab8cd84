"""Constructors for named benchmark instances and random families.

Three structured families, each exercising a different phenomenon:

* fairness_price_instance -- a two-layer network where welfare maximization
  showers the majority population and the fair (maximin) intervention spreads
  the budget thin; realizes the worst-case welfare/fairness price.
* separation_instance -- a four-layer network with two disjoint reward paths
  where a coin flip over two aggressive single-path interventions strictly
  beats every deterministic intervention on the worst-off population.
* cover_reduction_instance -- encodes a vertex-cover question as a deep
  pipeline: spreading budget along the chain copies of a cover's vertices
  lifts every starting population above a threshold iff the cover covers
  every edge.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np

from .model import Instance, InterventionPlan, make_instance

SEPARATION_DEFAULT_MAX_BUDGET = 0.6


def fairness_price_instance(width: int, tail_mass: float, budget: float) -> Instance:
    """Two layers: `width` starting nodes, one rewarded and one dead target node.

    The starting distribution puts 1-(width-1)*tail_mass on node 0 and
    tail_mass on each other node; initially everyone transitions to the
    zero-reward node.  All edges are malleable.
    """
    if width < 2:
        raise ValueError(f"width must be >= 2, got {width}")
    if not (0 < tail_mass < 1.0 / (width - 1)):
        raise ValueError(f"tail_mass must lie in (0, 1/(width-1)), got {tail_mass}")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    d1 = np.full(width, tail_mass)
    d1[0] = 1.0 - (width - 1) * tail_mass
    m0 = np.zeros((2, width))
    m0[1, :] = 1.0
    return make_instance(
        layer_sizes=(width, 2),
        initial_matrices=(m0,),
        rewards=(1.0, 0.0),
        initial_distribution=d1,
        budget=budget,
    )


def separation_instance(budget: float, max_budget: float = SEPARATION_DEFAULT_MAX_BUDGET) -> Instance:
    """Four layers (2, 3, 3, 2), two half-probability paths to the reward.

    Node order: layer 1 = (u1, v1); layer 2 = (u2, v2, x); layer 3 =
    (u3, v3, y); layer 4 = (reward-1 node, zero node).  The x and y nodes
    leak to the zero sink and their outgoing edges are frozen; every edge
    out of path nodes is malleable.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if budget > max_budget:
        warnings.warn(
            f"budget {budget} > {max_budget}: the randomized-vs-deterministic gap "
            "is only guaranteed for small budgets",
            stacklevel=2,
        )
    m1 = np.array([
        [0.5, 0.0],
        [0.0, 0.5],
        [0.5, 0.5],
    ])
    m2 = np.array([
        [0.5, 0.0, 0.0],
        [0.0, 0.5, 0.0],
        [0.5, 0.5, 1.0],
    ])
    m3 = np.array([
        [0.5, 0.5, 0.0],
        [0.5, 0.5, 1.0],
    ])
    mask1 = np.array([[True, True], [True, True], [True, True]])
    mask2 = np.array([
        [True, True, False],
        [True, True, False],
        [True, True, False],
    ])
    mask3 = np.array([
        [True, True, False],
        [True, True, False],
    ])
    return make_instance(
        layer_sizes=(2, 3, 3, 2),
        initial_matrices=(m1, m2, m3),
        rewards=(1.0, 0.0),
        initial_distribution=(0.5, 0.5),
        budget=budget,
        malleable=(mask1, mask2, mask3),
    )


def parse_edge_list(text: str) -> list:
    """Parse "u v" pairs, one per line; '#' starts a comment; ids are 0-based."""
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ValueError(f"line {lineno}: self-loop {u}")
        edges.append((u, v))
    return edges


def cover_reduction_instance(edges, cover_size: int, step: float, chain_length: int = 15):
    """Pipeline encoding of a vertex-cover question.

    Layers: one node per graph edge, then one node per vertex, then
    chain_length-1 layers of vertex copies plus a leakage node, then a
    rewarded node and a zero sink.  Each vertex-path edge carries probability
    `step` with the remainder leaking; leakage is absorbing.  Malleable edges
    are exactly the vertex-path edges and their leakage partners.  The budget
    2*chain_length*cover_size*step is exactly what lifting `cover_size`
    vertex paths by `step` per hop costs.

    Returns (instance, metadata) where metadata carries the acceptance
    threshold (a quarter of the lifted path probability (2*step)^chain_length)
    in float and exact rational form.
    """
    edges = [(int(u), int(v)) for u, v in edges]
    if not edges:
        raise ValueError("graph has no edges")
    if not (0 < step < 0.5):
        raise ValueError(f"step must lie in (0, 0.5), got {step}")
    if cover_size < 1:
        raise ValueError("cover_size must be >= 1")
    if chain_length < 2:
        raise ValueError("chain_length must be >= 2")
    n = max(max(u, v) for u, v in edges) + 1
    m = len(edges)
    k = chain_length
    leak = n  # index of the leakage node in the wide layers

    sizes = (m, n) + (n + 1,) * (k - 1) + (2,)
    mats, masks = [], []

    # Edge nodes split their mass between their two endpoints; frozen.
    m1 = np.zeros((n, m))
    for j, (u, v) in enumerate(edges):
        m1[u, j] = 0.5
        m1[v, j] = 0.5
    mats.append(m1)
    masks.append(np.zeros_like(m1, dtype=bool))

    # Vertices enter their chains: step forward, remainder leaks.
    m2 = np.zeros((n + 1, n))
    mask2 = np.zeros_like(m2, dtype=bool)
    for v in range(n):
        m2[v, v] = step
        m2[leak, v] = 1.0 - step
        mask2[v, v] = True
        mask2[leak, v] = True
    mats.append(m2)
    masks.append(mask2)

    # Interior chain transitions; the leakage node is absorbing and frozen.
    for _ in range(k - 2):
        mi = np.zeros((n + 1, n + 1))
        maski = np.zeros_like(mi, dtype=bool)
        for v in range(n):
            mi[v, v] = step
            mi[leak, v] = 1.0 - step
            maski[v, v] = True
            maski[leak, v] = True
        mi[leak, leak] = 1.0
        mats.append(mi)
        masks.append(maski)

    # Final hop: each chain's last copy reaches the reward with probability
    # `step` (its leakage partner here is the zero sink itself); the leakage
    # node falls into the sink and is frozen.
    mlast = np.zeros((2, n + 1))
    masklast = np.zeros_like(mlast, dtype=bool)
    for v in range(n):
        mlast[0, v] = step
        mlast[1, v] = 1.0 - step
        masklast[0, v] = True
        masklast[1, v] = True
    mlast[1, leak] = 1.0
    mats.append(mlast)
    masks.append(masklast)

    budget = 2.0 * k * cover_size * step
    instance = make_instance(
        layer_sizes=sizes,
        initial_matrices=mats,
        rewards=(1.0, 0.0),
        initial_distribution=np.full(m, 1.0 / m),
        budget=budget,
        malleable=masks,
    )
    step_q = Fraction(step)
    threshold = (2 * step_q) ** k / 4
    meta = {
        "n_vertices": n,
        "edges": tuple(edges),
        "cover_size": cover_size,
        "step": step,
        "chain_length": k,
        "budget": budget,
        "threshold": float(threshold),
        "threshold_exact": threshold,
    }
    return instance, meta


def _exact_population_rewards(instance: Instance, plan: InterventionPlan):
    """Per-population rewards in exact rational arithmetic."""
    v = [Fraction(x) for x in instance.rewards]
    for t in range(len(plan.matrices) - 1, -1, -1):
        m = plan.matrices[t]
        rows, cols = m.shape
        v = [sum(v[r] * Fraction(m[r, u]) for r in range(rows)) for u in range(cols)]
    return v


def verify_cover_plan(instance: Instance, meta: dict, cover) -> tuple:
    """Build the lift-the-cover-paths plan and return (plan, exact maximin value).

    Every path indexed by a cover vertex gets `step` more probability on each
    of its chain_length edges, paid for by draining the paired leakage edge.
    The plan spends the instance budget exactly when |cover| == cover_size,
    and its maximin value is certified to be at least twice the metadata
    threshold (raises otherwise).
    """
    cover = sorted(set(int(v) for v in cover))
    n = meta["n_vertices"]
    step = meta["step"]
    leak = n
    for u, v in meta["edges"]:
        if u not in cover and v not in cover:
            raise ValueError(f"not a vertex cover: edge ({u}, {v}) is uncovered")
    if any(v < 0 or v >= n for v in cover):
        raise ValueError("cover contains an unknown vertex id")

    mats = [m.copy() for m in instance.initial_matrices]
    split = [0.0] * len(mats)
    for t in range(1, len(mats)):
        last = t == len(mats) - 1
        for v in cover:
            target_row = 0 if last else v
            leak_row = 1 if last else leak
            mats[t][target_row, v] += step
            mats[t][leak_row, v] -= step
        split[t] = 2.0 * step * len(cover)
    plan = InterventionPlan(matrices=tuple(mats), budget_split=tuple(split))

    rewards = _exact_population_rewards(instance, plan)
    value = min(rewards)
    floor = 2 * meta["threshold_exact"]
    if value < floor:
        raise RuntimeError(
            f"cover plan reached maximin {float(value):.3e} < required {float(floor):.3e}"
        )
    return plan, value


def random_instance(seed: int, width: int, depth: int, malleable_fraction: float,
                    budget: float) -> Instance:
    """Reproducible random instance: positive column-stochastic transitions,
    strictly positive starting distribution, rewards scaled to max 1."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if depth < 2:
        raise ValueError(f"depth must be >= 2, got {depth}")
    if not (0.0 <= malleable_fraction <= 1.0):  # also refuses NaN
        raise ValueError(f"malleable_fraction must lie in [0, 1], got {malleable_fraction}")
    rng = np.random.default_rng(seed)
    sizes = (width,) * depth
    mats, masks = [], []
    for t in range(depth - 1):
        raw = rng.uniform(0.05, 1.0, size=(sizes[t + 1], sizes[t]))
        mats.append(raw / raw.sum(axis=0, keepdims=True))
        if malleable_fraction >= 1.0:
            masks.append(np.ones_like(raw, dtype=bool))
        else:
            masks.append(rng.random(raw.shape) < malleable_fraction)
    r = rng.uniform(0.05, 1.0, size=sizes[-1])
    r = r / r.max()
    d1 = rng.uniform(0.1, 1.0, size=sizes[0])
    d1 = d1 / d1.sum()
    return make_instance(
        layer_sizes=sizes,
        initial_matrices=mats,
        rewards=r,
        initial_distribution=d1,
        budget=budget,
        malleable=masks,
    )
