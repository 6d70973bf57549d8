"""Architecture assembly, splits, initialization, and elision."""

import numpy as np
import pytest

from certitrain.net import (
    Affine,
    Conv2d,
    Flatten,
    Network,
    ReLU,
    build_architecture,
    elide_final_layer,
    forward_batch,
    init_params,
    relu_layer_count,
)
from certitrain.interval import box_from_ball, propagate_box

from helpers import random_mlp


def test_mlp_split_before_last_hidden_affine():
    net = build_architecture("mlp", (784,), 10, classifier_relu_count=1)
    # layers: A R A R A; one classifier ReLU => split before the second affine
    assert [type(l).__name__ for l in net.layers] == ["Affine", "ReLU", "Affine", "ReLU", "Affine"]
    assert net.split_index == 2
    assert [type(l).__name__ for l in net.layers[net.split_index:]] == ["Affine", "ReLU", "Affine"]


def test_cnn3_zero_classifier_relus_is_pure_extractor():
    net = build_architecture("cnn3", (1, 28, 28), 10, classifier_relu_count=0)
    assert net.split_index == len(net.layers)
    assert sum(isinstance(l, ReLU) for l in net.layers) == 3


def test_cnn7_has_six_relus_and_rejects_seven():
    net = build_architecture("cnn7", (1, 28, 28), 10, classifier_relu_count=6)
    assert sum(isinstance(l, ReLU) for l in net.layers) == 6
    assert net.split_index == 0
    with pytest.raises(ValueError, match="classifier_relu_count"):
        build_architecture("cnn7", (1, 28, 28), 10, classifier_relu_count=7)


@pytest.mark.parametrize("arch, shape, hidden", [
    ("mlp", (20,), (16, 16, 16)), ("mlp", (20,), ()), ("cnn3", (1, 8, 8), ()), ("cnn7", (1, 8, 8), ()),
    ("mlp", (1, 28, 28), (16, 8)), ("mlp", (1, 28, 28), ()),
])
def test_relu_layer_count_matches_built_network(arch, shape, hidden):
    """The count that config validation checks classifier_relus against, and
    at every count the split before the layer feeding the first classifier
    ReLU."""
    relus = relu_layer_count(arch, hidden)
    for count in range(relus + 1):
        net = build_architecture(arch, shape, 10, count, hidden=hidden)
        assert sum(isinstance(l, ReLU) for l in net.layers) == relus
        relu_at = [i for i, l in enumerate(net.layers) if isinstance(l, ReLU)]
        assert net.split_index == (relu_at[-count] - 1 if count else len(net.layers))


@pytest.mark.parametrize("shape, hidden", [
    ((784,), (128, 128)), ((1, 28, 28), (16, 12)), ((20,), ()), ((1, 28, 28), ()),
])
def test_mlp_layer_descriptors(shape, hidden):
    """An affine layer per hidden width, each followed by a ReLU, then the
    logits; a Flatten first on image input."""
    dims = [int(np.prod(shape)), *hidden, 10]
    expected = [{"kind": "flatten"}] if len(shape) > 1 else []
    for a, b in zip(dims, dims[1:]):
        expected += [{"kind": "affine", "out": b, "in": a}, {"kind": "relu"}]
    for count in range(len(hidden) + 1):
        net = build_architecture("mlp", shape, 10, count, hidden=hidden)
        assert [l.descriptor() for l in net.layers] == expected[:-1]


def test_unknown_architecture():
    with pytest.raises(ValueError, match="unknown architecture"):
        build_architecture("resnet", (3, 32, 32), 10, 1)


def test_classifier_starts_with_linear_map():
    for count in range(4):
        net = build_architecture("cnn3", (1, 28, 28), 10, classifier_relu_count=count)
        if count:
            assert isinstance(net.layers[net.split_index], (Affine, Conv2d))


def test_init_deterministic():
    net = build_architecture("mlp", (20,), 4, 1, hidden=(16, 16))
    a = init_params(net, seed=99)
    b = init_params(net, seed=99)
    for pa, pb in zip(a.param_arrays(), b.param_arrays()):
        assert np.array_equal(pa, pb)


def test_kaiming_variance():
    net = build_architecture("mlp", (100,), 10, 0, hidden=(100, 100))
    samples = []
    for seed in range(10):
        ini = init_params(net, seed=seed, mode="kaiming")
        samples.append(ini.layers[0].weight.ravel())
    w = np.concatenate(samples)
    assert w.size >= 10_000
    np.testing.assert_allclose(w.var(), 2.0 / 100, rtol=0.1)
    for _, name, arr in init_params(net, 0, "kaiming").params():
        if name == "bias":
            assert np.all(arr == 0.0)


def test_ibp_stable_radius_growth():
    """Post-affine box radii stay within 2x of the input radius on average."""
    eps = 0.1
    ratios = []
    for seed in range(20):
        net = init_params(
            build_architecture("mlp", (64,), 8, 0, hidden=(64, 64, 64)), seed, "ibp_stable"
        )
        rng = np.random.default_rng(seed + 1000)
        x = rng.uniform(0.2, 0.8, size=64)
        box = box_from_ball(x[None], eps)
        collected = []
        propagate_box(net, box, collect=collected)
        input_radius = eps
        for idx, b in collected:
            if isinstance(net.layers[idx], Affine):
                radius = 0.5 * (b.hi - b.lo)
                ratios.append(radius.mean() / input_radius)
    assert np.mean(ratios) <= 2.0, np.mean(ratios)
    assert np.mean(ratios) >= 0.25  # boxes must not collapse either


def test_forward_identity_affine():
    net = Network([Affine(np.eye(2), np.zeros(2))], 0, 2, (2,))
    np.testing.assert_allclose(forward_batch(net, np.array([[1.0, 2.0]]))[0], [1.0, 2.0])


def test_forward_zero_weights_gives_bias():
    net = Network([Affine(np.zeros((3, 2)), np.array([1.0, -2.0, 0.5]))], 0, 3, (2,))
    np.testing.assert_allclose(forward_batch(net, np.array([[4.0, 5.0]]))[0], [1.0, -2.0, 0.5])


def test_forward_matches_manual_composition():
    rng = np.random.default_rng(42)
    net = random_mlp(rng, [5, 7, 6, 3])
    x = rng.normal(size=5)
    h = x.copy()
    for layer in net.layers:
        if isinstance(layer, Affine):
            h = layer.weight @ h + layer.bias
        elif isinstance(layer, ReLU):
            h = np.maximum(h, 0.0)
    np.testing.assert_allclose(forward_batch(net, x[None])[0], h, atol=1e-12)


def test_split_never_changes_forward():
    rng = np.random.default_rng(7)
    net = random_mlp(rng, [6, 8, 8, 4])
    x = rng.normal(size=(3, 6))
    full = forward_batch(net, x)
    for split in range(len(net.layers) + 1):
        latent = forward_batch(net, x, stop=split)
        out = forward_batch(net, latent, start=split)
        np.testing.assert_allclose(out, full, atol=1e-12)


def test_elide_identity_example():
    net = Network([Affine(np.eye(3), np.zeros(3))], 0, 3, (3,))
    elided = elide_final_layer(net, 0)
    np.testing.assert_array_equal(
        elided.layers[-1].weight, [[0, 0, 0], [-1, 1, 0], [-1, 0, 1]]
    )


def test_elide_equals_logit_differences():
    rng = np.random.default_rng(3)
    net = random_mlp(rng, [4, 6, 5])
    for y in range(5):
        elided = elide_final_layer(net, y)
        for _ in range(20):
            x = rng.normal(size=4)
            o = forward_batch(net, x[None])[0]
            d = forward_batch(elided, x[None])[0]
            np.testing.assert_allclose(d, o - o[y], atol=1e-12)
            assert d[y] == 0.0


def test_elide_label_out_of_range():
    net = random_mlp(np.random.default_rng(0), [4, 3])
    with pytest.raises(ValueError, match="label"):
        elide_final_layer(net, 3)
