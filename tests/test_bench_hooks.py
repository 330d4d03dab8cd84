"""The traced benchmark's hooks still find every name they wrap.

perfbench/layers.py wraps pipeopt functions by attribute name, so a refactor
that drops or moves one of those names breaks only `--trace 1`.  Installing
the hooks here fails at once instead.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import pipeopt as po

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers, tracer


def _three_populations():
    """Layers (3, 2, 2): three populations, one built layer."""
    gen = np.random.default_rng(2000)
    mats = []
    for rows, cols in [(2, 3), (2, 2)]:
        raw = gen.uniform(0.05, 1.0, (rows, cols))
        mats.append(raw / raw.sum(axis=0))
    return po.make_instance((3, 2, 2), mats, (1.0, 0.2), (0.3, 0.3, 0.4), 0.5)


def test_hooks_install_and_restore(perfbench):
    layers, tracer = perfbench
    originals = [getattr(owner, attr) for owner, attr, _ in layers.WRAPS]
    trace = layers.LayerTrace(tracer.Tracer())
    trace.install()
    try:
        # Three populations, so the build prices through the wrapped
        # `solve_maximin_step`; one interior layer, so one net.
        po.solve_expost_maximin(_three_populations(), 0.5)
        po.solve_social_welfare(po.random_instance(1000, 2, 3, 1.0, 0.5), 0.5)
    finally:
        trace.restore()
    assert [getattr(owner, attr) for owner, attr, _ in layers.WRAPS] == originals
    tr = trace.tracer
    tr.fold()
    # Each DP build is its own span; the maximin DP does not nest under the
    # welfare DP's, and both DPs' nets land in the netgrid span.
    assert tr.calls["dp_maximin.build"] == 1
    assert tr.calls["dp_welfare.build"] == 1
    assert tr.calls["layerlp.maximin_step"] > 0
    assert tr.calls["netgrid.build"] == 4
