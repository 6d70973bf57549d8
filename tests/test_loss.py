"""Loss definitions: values, orderings, degenerations, and gradient scaling."""

import gc

import numpy as np
import pytest

from certitrain import tensor as T
from certitrain.attack import AttackConfig, margin_targets, sabr_select_region
from certitrain.connector import ConnectorParams
from certitrain.interval import box_from_ball
from certitrain.loss import LossKind, combined_gradient, l1_penalty, margin_loss, paired_loss_terms
from certitrain.net import (Affine, Network, ReLU, build_architecture, forward_batch,
                            init_params, lift_params)

from helpers import loss_value, random_mlp


def ball(x, eps):
    """One-row box of the eps-ball around a single sample."""
    return box_from_ball(np.asarray(x)[None], eps)


def test_ce_two_class_zero_diff():
    # logits equal => other-class logit difference is 0 => CE = ln 2
    assert abs(loss_value("ce", np.array([1.0, 1.0]), 0) - np.log(2)) < 1e-12


def test_ce_limit_confident():
    assert loss_value("ce", np.array([1e6, 0.0]), 0) < 1e-9


def test_margin_loss_certified():
    assert margin_loss(np.array([0.0, -0.3, -0.1]), 0) == -0.1


def test_margin_loss_per_row_labels_match_scalar_form():
    rng = np.random.default_rng(0)
    diffs = rng.normal(size=(40, 5))
    y = rng.integers(0, 5, size=40)
    diffs[np.arange(10), y[:10]] = 9.0  # the label entry is the row's largest
    rows = margin_loss(diffs, y)
    assert rows.shape == (40,)
    for row, label, got in zip(diffs, y, rows):
        assert got == margin_loss(row, int(label)) == max(np.delete(row, label))


def test_ibp_loss_eps_zero_equals_ce():
    rng = np.random.default_rng(0)
    net = random_mlp(rng, [5, 8, 4])
    x = rng.uniform(0, 1, size=5)
    for y in range(4):
        ce = loss_value("ce", forward_batch(net, x[None])[0], y)
        assert abs(loss_value("ibp", net, ball(x, 0.0), y) - ce) < 1e-9


def test_ibp_loss_linear_net_equals_worst_corner():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(3, 6))
    b = rng.normal(size=3)
    net = Network([Affine(w, b)], 1, 3, (6,))
    x = rng.uniform(0.3, 0.7, size=6)
    eps, y = 0.05, 1
    # per-coordinate worst corner of the elided map
    we = w - w[y]
    be = b - b[y]
    upper = we @ x + np.abs(we) @ (eps * np.ones(6)) + be
    expect = np.log1p(np.exp(np.delete(upper, y)).sum())
    assert abs(loss_value("ibp", net, ball(x, eps), y) - expect) < 1e-9


def test_ibp_loss_monotone_in_eps():
    rng = np.random.default_rng(2)
    for trial in range(20):
        net = random_mlp(rng, [4, 7, 3], scale=1.5)
        x = rng.uniform(0, 1, size=4)
        y = int(rng.integers(3))
        losses = [loss_value("ibp", net, ball(x, e), y) for e in (0.0, 0.02, 0.05, 0.1)]
        assert all(a <= b + 1e-12 for a, b in zip(losses, losses[1:])), losses


def test_taps_equals_ibp_with_empty_classifier():
    rng = np.random.default_rng(3)
    net = random_mlp(rng, [5, 8, 6, 3], split_relus=0)
    assert net.split_index == len(net.layers)
    x = rng.uniform(0, 1, size=5)
    for y in range(3):
        a = loss_value("taps", net, ball(x, 0.08), y, rng=np.random.default_rng(0))
        b = loss_value("ibp", net, ball(x, 0.08), y)
        assert abs(a - b) < 1e-12


def test_taps_loss_eps_zero_equals_ce():
    rng = np.random.default_rng(4)
    net = random_mlp(rng, [5, 8, 6, 3], split_relus=1)
    x = rng.uniform(0, 1, size=5)
    y = 2
    got = loss_value("taps", net, ball(x, 0.0), y, attack=AttackConfig(steps=3),
                    rng=np.random.default_rng(0))
    assert abs(got - loss_value("ce", forward_batch(net, x[None])[0], y)) < 1e-9


def grid_provider(net, n=25):
    """Exact latent maximizer over a low-dimensional box via grid enumeration."""

    def provider(lo, hi, y, rng):
        b = lo.shape[0]
        d = lo.shape[1]
        axes = [np.linspace(0.0, 1.0, n) for _ in range(d)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        targets = margin_targets(net.num_classes, y)
        points = np.empty((b, targets.shape[1], d))
        for i in range(b):
            pts = lo[i] + mesh * (hi[i] - lo[i])
            logits = forward_batch(net, pts, start=net.split_index)
            for t, tgt in enumerate(targets[i]):
                diffs = logits[:, tgt] - logits[:, y[i]]
                points[i, t] = pts[np.argmax(diffs)]
        return points, targets

    return provider


def grid_provider_single(net, n=25):
    def provider(lo, hi, y, rng):
        b, d = lo.shape
        axes = [np.linspace(0.0, 1.0, n) for _ in range(d)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        out = np.empty((b, d))
        for i in range(b):
            pts = lo[i] + mesh * (hi[i] - lo[i])
            logits = forward_batch(net, pts, start=net.split_index)
            m = logits.max(axis=1, keepdims=True)
            ce = (np.log(np.exp(logits - m).sum(axis=1)) + m[:, 0]) - logits[:, y[i]]
            out[i] = pts[np.argmax(ce)]
        return out

    return provider


def test_taps_orderings_with_grid_exact_latent_max():
    """multi >= single under exact maximization, and both <= ibp."""
    rng = np.random.default_rng(5)
    for trial in range(10):
        net = random_mlp(rng, [2, 5, 3], scale=2.0, split_relus=1)
        assert net.shape_after(net.split_index) == (2,)
        x = rng.uniform(0, 1, size=2)
        y = int(rng.integers(3))
        eps = 0.15
        box = ball(x, eps)
        multi = loss_value("taps", net, box, y, multi=True, rng=np.random.default_rng(0),
                          latent_provider=grid_provider(net))
        single = loss_value("taps", net, box, y, multi=False, rng=np.random.default_rng(0),
                           latent_provider=grid_provider_single(net))
        full_ibp = loss_value("ibp", net, box, y)
        assert multi >= single - 1e-9
        assert multi <= full_ibp + 1e-12
        assert single <= full_ibp + 1e-12


def test_taps_leq_ibp_with_pgd():
    rng = np.random.default_rng(6)
    for trial in range(20):
        net = random_mlp(rng, [5, 9, 7, 4], scale=1.5, split_relus=1)
        x = rng.uniform(0, 1, size=5)
        y = int(rng.integers(4))
        cfg = AttackConfig(steps=5)
        attacked = loss_value("taps", net, ball(x, 0.1), y, attack=cfg,
                              rng=np.random.default_rng(trial))
        assert attacked <= loss_value("ibp", net, ball(x, 0.1), y) + 1e-12


def test_sabr_tau_equals_eps_is_ibp():
    rng = np.random.default_rng(7)
    net = random_mlp(rng, [5, 8, 3])
    x = rng.uniform(0, 1, size=5)
    y = 1
    region = sabr_select_region(net, x[None], np.array([y]), 0.1, 0.1, AttackConfig(steps=4),
                                rng=np.random.default_rng(0))
    a = loss_value("ibp", net, region, y)
    b = loss_value("ibp", net, ball(x, 0.1), y)
    assert abs(a - b) < 1e-12


def test_staps_empty_classifier_is_sabr():
    rng = np.random.default_rng(8)
    net = random_mlp(rng, [5, 8, 3], split_relus=0)
    x = rng.uniform(0, 1, size=5)
    y = 0
    region = ball(x, 0.04)
    a = loss_value("taps", net, region, y, rng=np.random.default_rng(0))
    b = loss_value("ibp", net, region, y)
    assert abs(a - b) < 1e-12


def test_staps_leq_sabr_paired_regions():
    rng = np.random.default_rng(9)
    for trial in range(20):
        net = random_mlp(rng, [5, 8, 6, 3], scale=1.5, split_relus=1)
        x = rng.uniform(0, 1, size=5)
        y = int(rng.integers(3))
        region = sabr_select_region(net, x[None], np.array([y]), 0.1, 0.04,
                                    AttackConfig(steps=4), rng=np.random.default_rng(trial))
        s = loss_value("taps", net, region, y, attack=AttackConfig(steps=5),
                      rng=np.random.default_rng(trial))
        b = loss_value("ibp", net, region, y)
        assert s <= b + 1e-12


def flatten_grads(grads):
    return np.concatenate([g.ravel() for g in grads])


def numeric_batch_grad(net, X, y, eps, kind, base_points, base_targets, step=1e-6):
    """Central differences of mean_taps * mean_ibp with latent points frozen
    at fixed relative positions inside the (theta-dependent) latent box."""
    shapes = [a.shape for a in net.param_arrays()]
    sizes = [int(np.prod(s)) for s in shapes]
    theta0 = np.concatenate([a.ravel() for a in net.param_arrays()])

    def rebuild(theta):
        arrays, off = [], 0
        for s, n in zip(shapes, sizes):
            arrays.append(theta[off : off + n].reshape(s).copy())
            off += n
        return net.with_params(arrays)

    def value(theta):
        m = rebuild(theta)
        tape = T.Tape()
        params = lift_params(tape, m)
        provider = relative_provider(base_points, base_targets)
        bound, attacked = paired_loss_terms(
            tape, m, params, box_from_ball(X, eps), y, multi=True, connector=ConnectorParams(c=1.0),
            rng=np.random.default_rng(0), latent_provider=provider)
        return float(np.mean(bound.value) * np.mean(attacked.value))

    grad = np.zeros_like(theta0)
    for i in range(theta0.size):
        t = theta0.copy()
        t[i] += step
        hi = value(t)
        t[i] -= 2 * step
        lo = value(t)
        grad[i] = (hi - lo) / (2 * step)
    return grad


def relative_provider(rel_points, targets):
    """Latent points at frozen relative positions of the current box."""

    def provider(lo, hi, y, rng):
        span = (hi - lo)[:, None, :]
        return lo[:, None, :] + rel_points * span, targets

    return provider


def test_combined_gradient_alpha_half_is_product_rule():
    """alpha=0.5 gradient matches finite differences of the frozen product."""
    rng = np.random.default_rng(10)
    net = random_mlp(rng, [3, 6, 5, 3], scale=1.2, split_relus=1)
    X = rng.uniform(0.2, 0.8, size=(4, 3))
    y = rng.integers(0, 3, size=4)
    eps = 0.05

    # fix relative latent positions once (interior, away from connector kinks)
    t = margin_targets(3, y)
    rel = rng.uniform(0.2, 0.8, size=(4, t.shape[1], net.shape_after(net.split_index)[0]))

    kind = LossKind(tag="taps", w_taps=1.0, connector=ConnectorParams(c=1.0))
    grads, diag = combined_gradient(net, box_from_ball(X, eps), y, kind, np.random.default_rng(0),
                                    latent_provider=relative_provider(rel, t))
    fd = numeric_batch_grad(net, X, y, eps, kind, rel, t)
    an = flatten_grads(grads)
    denom = np.abs(fd) + 1e-6
    rel_err = np.abs(an - fd) / denom
    assert rel_err.max() < 1e-5, rel_err.max()


def test_combined_gradient_weight_mapping():
    kind = LossKind(tag="taps", w_taps=5.0)
    assert abs(kind.alpha - 5 / 6) < 1e-12
    assert abs((2 - 2 * kind.alpha) - 1 / 3) < 1e-12
    inf_kind = LossKind(tag="taps", w_taps=float("inf"))
    assert inf_kind.alpha == 1.0


def test_combined_gradient_alpha_one_is_scaled_taps_direction():
    rng = np.random.default_rng(11)
    net = random_mlp(rng, [3, 6, 4, 3], scale=1.2, split_relus=1)
    X = rng.uniform(0.2, 0.8, size=(3, 3))
    y = rng.integers(0, 3, size=3)
    t = margin_targets(3, y)
    rel = rng.uniform(0.2, 0.8, size=(3, t.shape[1], net.shape_after(net.split_index)[0]))
    provider = relative_provider(rel, t)

    inf_kind = LossKind(tag="taps", w_taps=float("inf"))
    box = box_from_ball(X, 0.05)
    g_inf, diag = combined_gradient(net, box, y, inf_kind, np.random.default_rng(0),
                                    latent_provider=provider)

    # reference: gradient of mean attacked loss alone, scaled by 2 * mean bound
    tape = T.Tape()
    params = lift_params(tape, net)
    bound, attacked = paired_loss_terms(tape, net, params, box, y, multi=True,
                                        connector=ConnectorParams(),
                                        rng=np.random.default_rng(0), latent_provider=provider)
    gm = T.backward(tape, T.mean_all(attacked))
    ref = [gm[e[n].id] * 2.0 * float(np.mean(bound.value))
           for e in params if e for n in ("weight", "bias")]
    np.testing.assert_allclose(flatten_grads(g_inf), flatten_grads(ref), atol=1e-12)


def test_fast_regularizer_nonnegative():
    rng = np.random.default_rng(13)
    for trial in range(10):
        net = random_mlp(rng, [4, 8, 6, 3], scale=float(rng.uniform(0.5, 3)))
        X = rng.uniform(0, 1, size=(6, 4))
        assert loss_value("reg", net, box_from_ball(X, 0.1), 0.5) >= 0.0


def test_fast_regularizer_prefers_balanced_stable_net():
    """A hand-balanced network scores no worse than random kaiming inits."""
    rng = np.random.default_rng(14)
    d = 8
    # antisymmetric rows: half the units certainly active, half certainly dead
    w1 = np.vstack([np.eye(d), -np.eye(d)]) * 0.05
    b1 = np.concatenate([np.full(d, 1.0), np.full(d, -1.0)])
    layers = [Affine(w1, b1), ReLU(), Affine(rng.normal(size=(3, 2 * d)) * 0.05, np.zeros(3))]
    balanced = Network(layers, len(layers), 3, (d,))
    X = rng.uniform(0.3, 0.7, size=(10, d))
    box = box_from_ball(X, 0.05)
    val_balanced = loss_value("reg", balanced, box, 1.0)

    vals_random = []
    base = build_architecture("mlp", (d,), 3, 0, hidden=(2 * d,))
    for seed in range(5):
        m = init_params(base, seed, "kaiming")
        vals_random.append(loss_value("reg", m, box, 1.0))
    assert val_balanced <= min(vals_random) + 1e-9, (val_balanced, vals_random)


def test_l1_penalty_value_and_sign():
    arrays = [np.array([1.0, -2.0, 0.0]), np.array([[3.0]])]
    val, grads = l1_penalty(arrays, 0.1)
    assert abs(val - 0.6) < 1e-12
    np.testing.assert_array_equal(grads[0], [0.1, -0.1, 0.0])
    np.testing.assert_array_equal(grads[1], [[0.1]])
    val0, g0 = l1_penalty(arrays, 0.0)
    assert val0 == 0.0 and np.all(g0[0] == 0)


def test_loss_kind_validation():
    with pytest.raises(ValueError, match="tau_ratio"):
        LossKind(tag="sabr")
    with pytest.raises(ValueError, match="tau_ratio"):
        LossKind(tag="ibp", tau_ratio=0.5)
    with pytest.raises(ValueError, match="unknown loss"):
        LossKind(tag="trades")
    LossKind(tag="sabr", tau_ratio=0.4)  # valid


def test_combined_gradient_leaves_no_garbage():
    """The step's graph is freed on return: ``Tape.nodes`` and ``Node.tape``
    point at each other, so a kept node list would wait for the cyclic
    collector."""
    net = init_params(build_architecture("mlp", (784,), 10, 1, hidden=(128, 128)), 3)
    rng = np.random.default_rng(4)
    X, y = rng.uniform(size=(128, 784)), rng.integers(0, 10, size=128)
    kind = LossKind(tag="taps", attack=AttackConfig(steps=2))
    gc.collect()
    gc.disable()
    try:
        combined_gradient(net, box_from_ball(X, 0.1), y, kind, rng)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
