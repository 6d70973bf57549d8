"""Property-based checks over randomized inputs (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from certitrain.connector import ConnectorParams, connector_partials
from certitrain.interval import box_from_ball, ibp_bounds
from certitrain.net import elide_final_layer, forward_batch
from certitrain.train import Schedule, epsilon_schedule

from helpers import random_mlp, sample_box


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.01, 0.2))
def test_interval_soundness_property(seed, eps):
    rng = np.random.default_rng(seed)
    net = random_mlp(rng, [4, 8, 3], scale=float(rng.uniform(0.5, 2.0)))
    x = rng.uniform(0, 1, size=4)
    y = int(rng.integers(3))
    box = box_from_ball(x, eps)
    pts = sample_box(box, 200, rng)
    outs = forward_batch(elide_final_layer(net, y), pts)
    b = ibp_bounds(net, x, y, eps)
    assert np.all(outs >= b.lo[None] - 1e-9)
    assert np.all(outs <= b.hi[None] + 1e-9)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-5, 5),
    st.floats(0, 4),
    st.floats(0, 1),
    st.floats(0, 1),
)
def test_connector_partials_bounded_property(lo, width, pos, c):
    hi = lo + width
    z = min(lo + pos * width, hi)  # projection guarantees containment
    d_lo, d_hi = connector_partials(np.array([lo]), np.array([hi]), np.array([z]),
                                    ConnectorParams(c=c))
    assert 0.0 <= d_lo[0] <= 1.0
    assert 0.0 <= d_hi[0] <= 1.0
    if width == 0:
        assert d_lo[0] == 0.5 and d_hi[0] == 0.5


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 500), st.integers(1, 40))
def test_epsilon_schedule_monotone_property(step, spe):
    sched = Schedule(total_epochs=10, annealing_epochs=5, warmup_epochs=1,
                     decay_epochs=(6, 8), lr0=1e-3, eps_target=0.3)
    a = epsilon_schedule(step, sched, spe)
    b = epsilon_schedule(step + 1, sched, spe)
    assert 0.0 <= a <= 0.3
    assert b >= a - 1e-15
