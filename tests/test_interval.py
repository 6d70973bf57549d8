"""Box propagation: soundness, monotonicity, exactness, and gradients."""

import numpy as np
import pytest

from certitrain import tensor as T
from certitrain.interval import (
    BoxBounds,
    TapedBox,
    box_from_ball,
    elided_bounds,
    elided_bounds_on_tape,
    ibp_bounds,
    input_box_nodes,
    propagate_box,
    propagate_box_on_tape,
)
from certitrain.net import (Affine, ReLU, Conv2d, build_architecture, init_params, lift_params,
                            forward_batch, elide_final_layer)

from helpers import finite_diff_check, lift_with_node, random_cnn, random_mlp, sample_box


def box_through(layer, box):
    """One layer's concrete transfer of a single-sample box."""
    lo, hi = layer.box(box.lo[None], box.hi[None])
    return BoxBounds(lo[0], hi[0])


def test_box_from_ball_basic():
    b = box_from_ball(np.array([0.5]), 0.1)
    np.testing.assert_allclose([b.lo[0], b.hi[0]], [0.4, 0.6])


def test_box_from_ball_clipped():
    b = box_from_ball(np.array([0.05]), 0.1)
    np.testing.assert_allclose([b.lo[0], b.hi[0]], [0.0, 0.15])


def test_box_from_ball_rejects_centre_outside_domain():
    # [1.4, 1.6] misses [0, 1], so the intersection has lo > hi
    with pytest.raises(ValueError, match="lo > hi"):
        box_from_ball(np.array([1.5]), 0.1)


def test_box_from_ball_degenerate():
    x = np.array([0.3, 0.7])
    b = box_from_ball(x, 0.0)
    assert np.array_equal(b.lo, x) and np.array_equal(b.hi, x)


def test_box_from_ball_negative_eps():
    with pytest.raises(ValueError, match="negative"):
        box_from_ball(np.zeros(2), -0.1)


def test_affine_interval_rule():
    layer = Affine(np.array([[1.0, -1.0]]), np.zeros(1))
    out = box_through(layer, BoxBounds(np.array([-1.0, -1.0]), np.array([1.0, 1.0])))
    np.testing.assert_allclose([out.lo[0], out.hi[0]], [-2.0, 2.0])


def test_relu_interval_rule():
    out = box_through(ReLU(), BoxBounds(np.array([-1.0]), np.array([2.0])))
    np.testing.assert_allclose([out.lo[0], out.hi[0]], [0.0, 2.0])


def test_conv_interval_radius():
    layer = Conv2d(np.ones((1, 1, 2, 2)), np.zeros(1), 1, 0)
    box = BoxBounds(-np.ones((1, 3, 3)), np.ones((1, 3, 3)))
    out = box_through(layer, box)
    np.testing.assert_allclose(0.5 * (out.hi - out.lo), np.full((1, 2, 2), 4.0))


def test_eps_zero_bounds_equal_forward():
    rng = np.random.default_rng(0)
    net = random_mlp(rng, [5, 8, 4])
    x = rng.uniform(0, 1, size=5)
    b = ibp_bounds(net, x, y=1, eps=0.0)
    o = forward_batch(net, x[None])[0]
    np.testing.assert_allclose(b.lo, o - o[1], atol=1e-9)
    np.testing.assert_allclose(b.hi, o - o[1], atol=1e-9)


def test_extractor_mode_stops_at_split():
    rng = np.random.default_rng(1)
    net = random_mlp(rng, [5, 8, 6, 4], split_relus=1)
    x = rng.uniform(0, 1, size=5)
    b = propagate_box(net, box_from_ball(x[None], 0.05), stop=net.split_index)
    assert b.lo.shape == (1,) + net.shape_after(net.split_index)


def mc_soundness_violations(net, x, y, eps, n=1000, seed=0, slack=1e-9):
    box = box_from_ball(x, eps)
    rng = np.random.default_rng(seed)
    samples = sample_box(box, n, rng)
    elided = elide_final_layer(net, y)
    outs = forward_batch(elided, samples)
    b = ibp_bounds(net, x, y, eps)
    lo_viol = np.sum(outs < b.lo[None] - slack)
    hi_viol = np.sum(outs > b.hi[None] + slack)
    return int(lo_viol + hi_viol)


def test_mc_soundness_small_nets():
    rng = np.random.default_rng(5)
    for trial in range(5):
        net = random_mlp(rng, [6, 10, 8, 4], scale=1.5)
        x = rng.uniform(0, 1, size=6)
        assert mc_soundness_violations(net, x, int(rng.integers(4)), 0.08, seed=trial) == 0


def test_mc_soundness_conv():
    rng = np.random.default_rng(6)
    net = random_cnn(rng, in_shape=(1, 5, 5), channels=(2,), fc=6, num_classes=3, scale=1.5)
    x = rng.uniform(0, 1, size=(1, 5, 5))
    assert mc_soundness_violations(net, x, 0, 0.05) == 0


def test_monotone_in_eps():
    rng = np.random.default_rng(7)
    net = random_mlp(rng, [5, 9, 4])
    x = rng.uniform(0, 1, size=5)
    prev = None
    for eps in [0.0, 0.01, 0.05, 0.1, 0.2]:
        b = ibp_bounds(net, x, 2, eps)
        if prev is not None:
            assert np.all(b.lo <= prev.lo + 1e-12)
            assert np.all(b.hi >= prev.hi - 1e-12)
        prev = b


def test_single_affine_prefix_exact():
    """One interval affine step is exact: the bound equals corner evaluation."""
    rng = np.random.default_rng(8)
    w = rng.normal(size=(4, 6))
    b = rng.normal(size=4)
    layer = Affine(w, b)
    x = rng.uniform(0.2, 0.8, size=6)
    eps = 0.07
    box = box_from_ball(x, eps)
    out = box_through(layer, box)
    # exact max per coordinate: choose the sign-matched corner
    corner_hi = w @ x + np.abs(w) @ (eps * np.ones(6)) + b
    corner_lo = w @ x - np.abs(w) @ (eps * np.ones(6)) + b
    np.testing.assert_allclose(out.hi, corner_hi, atol=1e-9)
    np.testing.assert_allclose(out.lo, corner_lo, atol=1e-9)


def test_bound_gradients_match_fd():
    """d(bounds)/dW matches finite differences, varying one layer at a time."""
    rng = np.random.default_rng(9)
    net = random_mlp(rng, [4, 6, 3])
    x = rng.uniform(0, 1, size=4)
    eps = 0.05
    coeff = rng.normal(size=3)
    affine_idxs = [i for i, l in enumerate(net.layers) if isinstance(l, Affine)]

    for layer_idx in affine_idxs:

        def f(node):
            tape = node.tape
            lifted = lift_with_node(node, net, layer_idx, "weight")
            box = box_from_ball(x[None], eps)
            out = propagate_box_on_tape(net, lifted, input_box_nodes(tape, box))
            mix = T.add(out.hi, T.scale(out.lo, 0.7))
            return T.sum_all(T.mul(mix, tape.constant(coeff[None, :])))

        theta0 = net.layers[layer_idx].weight.ravel()
        report = finite_diff_check(f, theta0, step=1e-6, max_coords=30, rng=rng)
        assert report.n_checked > 10
        assert report.max_rel_err < 1e-5, report


def test_elided_bounds_match_concrete_elision():
    """Batched per-label elision equals propagating the concretely elided net."""
    rng = np.random.default_rng(10)
    net = random_mlp(rng, [5, 7, 6, 4])
    xs = rng.uniform(0, 1, size=(6, 5))
    ys = rng.integers(0, 4, size=6)
    tape = T.Tape()
    params = lift_params(tape, net)
    lo = np.maximum(xs - 0.03, 0)
    hi = np.minimum(xs + 0.03, 1)
    out = elided_bounds_on_tape(net, params, TapedBox(tape.constant(lo), tape.constant(hi)), ys)
    for i in range(6):
        single = ibp_bounds(net, xs[i], int(ys[i]), 0.03)
        np.testing.assert_allclose(out.lo.value[i], single.lo, atol=1e-12)
        np.testing.assert_allclose(out.hi.value[i], single.hi, atol=1e-12)


@pytest.mark.parametrize("arch,in_shape", [("mlp", (20,)), ("cnn3", (1, 8, 8))])
@pytest.mark.parametrize("batch", [1, 6])
def test_concrete_elided_bounds_equal_taped(arch, in_shape, batch):
    """The numpy pass gives the taped pass's bounds bit for bit."""
    net = init_params(build_architecture(arch, in_shape, 10, 1, hidden=(16, 16)), 3)
    rng = np.random.default_rng(11)
    box = box_from_ball(rng.uniform(0, 1, size=(batch,) + in_shape), 0.05)
    ys = rng.integers(0, 10, size=batch)
    tape = T.Tape()
    taped = elided_bounds_on_tape(net, lift_params(tape, net), input_box_nodes(tape, box), ys)
    concrete = elided_bounds(net, box, ys)
    assert np.array_equal(concrete.lo, taped.lo.value)
    assert np.array_equal(concrete.hi, taped.hi.value)
