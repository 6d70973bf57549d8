"""IDX parsing, synthetic corpora, and batching determinism."""

import gzip

import numpy as np
import pytest

from certitrain.data import (
    Dataset,
    batches,
    load_mnist_idx,
    synthetic_digits,
    synthetic_moons,
    take_subset,
    train_val_split,
)

from helpers import write_idx_images, write_idx_labels


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(32, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, size=32).astype(np.uint8)
    ip = tmp_path / "images-idx3-ubyte"
    lp = tmp_path / "labels-idx1-ubyte"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    return ip, lp, images, labels


def test_idx_round_trip(idx_pair):
    ip, lp, images, labels = idx_pair
    ds = load_mnist_idx(ip, lp)
    assert ds.images.shape == (32, 1, 28, 28)
    assert ds.images.min() >= 0 and ds.images.max() <= 1
    np.testing.assert_allclose(ds.images[:, 0] * 255.0, images, atol=1e-9)
    np.testing.assert_array_equal(ds.labels, labels)


def test_idx_gzip_variant_identical(idx_pair, tmp_path):
    ip, lp, images, labels = idx_pair
    ipz = tmp_path / "images.gz"
    lpz = tmp_path / "labels.gz"
    ipz.write_bytes(gzip.compress(ip.read_bytes()))
    lpz.write_bytes(gzip.compress(lp.read_bytes()))
    raw = load_mnist_idx(ip, lp)
    zipped = load_mnist_idx(ipz, lpz)
    assert np.array_equal(raw.images, zipped.images)
    assert np.array_equal(raw.labels, zipped.labels)


def test_idx_wrong_magic(idx_pair):
    ip, lp, _, _ = idx_pair
    with pytest.raises(ValueError, match="label magic"):
        load_mnist_idx(ip, ip)  # image file where labels are expected
    with pytest.raises(ValueError, match="image magic"):
        load_mnist_idx(lp, lp)


def test_idx_truncated(tmp_path, idx_pair):
    ip, lp, _, _ = idx_pair
    bad = tmp_path / "truncated"
    bad.write_bytes(ip.read_bytes()[:100])
    with pytest.raises(ValueError, match="truncated"):
        load_mnist_idx(bad, lp)


def test_idx_count_mismatch(tmp_path, idx_pair):
    ip, lp, _, labels = idx_pair
    short = tmp_path / "short-labels"
    write_idx_labels(short, labels[:10])
    with pytest.raises(ValueError, match="count"):
        load_mnist_idx(ip, short)


def test_moons_noise_free_on_arcs():
    ds = synthetic_moons(200, noise=0.0, seed=3)
    x = ds.images[:, 0] * 3.0 - 1.0
    y = ds.images[:, 1] * 3.0 - 1.0
    outer = ds.labels == 0
    r_outer = x[outer] ** 2 + y[outer] ** 2
    np.testing.assert_allclose(r_outer, 1.0, atol=1e-9)
    r_inner = (x[~outer] - 1.0) ** 2 + (y[~outer] - 0.5) ** 2
    np.testing.assert_allclose(r_inner, 1.0, atol=1e-9)


def test_moons_deterministic():
    a = synthetic_moons(50, noise=0.1, seed=9)
    b = synthetic_moons(50, noise=0.1, seed=9)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


def test_moons_in_unit_square():
    ds = synthetic_moons(500, noise=0.2, seed=1)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_synthetic_digits_bytes_are_pinned():
    """The corpus bytes for a seed never change: training runs, checkpoints
    and certification results all rest on them."""
    import hashlib

    ds = synthetic_digits(256, seed=0)
    assert hashlib.sha256(ds.images.tobytes()).hexdigest() == (
        "88199491739678919a2bc8038f5fa7bbeed731b70c68e5e255402f7bf663189d")
    assert hashlib.sha256(ds.labels.tobytes()).hexdigest() == (
        "84a29fe79f22a6ac5c25c1b88d1f69ea09af523651ce27c1f5cdc9d2eff1c02e")


def test_synthetic_digits_shape_and_determinism():
    a = synthetic_digits(40, seed=5)
    b = synthetic_digits(40, seed=5)
    assert a.images.shape == (40, 1, 28, 28)
    assert a.images.min() >= 0 and a.images.max() <= 1
    assert np.array_equal(a.images, b.images)
    assert set(np.unique(a.labels)) <= set(range(10))


def test_batch_sizes_and_partial():
    ds = synthetic_moons(10, seed=0)
    sizes = [len(y) for _, y in batches(ds, 4)]
    assert sizes == [4, 4, 2]


def test_batches_deterministic_per_epoch():
    ds = synthetic_moons(64, seed=0)
    first = [y.copy() for _, y in batches(ds, 16, shuffle_seed=7, epoch=3)]
    second = [y.copy() for _, y in batches(ds, 16, shuffle_seed=7, epoch=3)]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    other = [y.copy() for _, y in batches(ds, 16, shuffle_seed=7, epoch=4)]
    assert any(not np.array_equal(a, b) for a, b in zip(first, other))


def test_take_subset_and_split():
    ds = synthetic_digits(100, seed=2)
    sub = take_subset(ds, 30, seed=1)
    assert len(sub) == 30
    tr, va = train_val_split(sub, val_fraction=0.1, seed=4)
    assert len(tr) == 27 and len(va) == 3
    tr2, va2 = train_val_split(sub, val_fraction=0.1, seed=4)
    assert np.array_equal(va.images, va2.images)


def test_dataset_validation():
    with pytest.raises(ValueError, match="labels"):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), 2)
    with pytest.raises(ValueError, match="label outside"):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Dataset(np.full((2, 2), 1.5), np.array([0, 1]), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("others_in_domain", [True, False])
def test_dataset_rejects_nonfinite_images(bad, others_in_domain):
    # a non-finite pixel is named as such, also next to one outside [0, 1]
    images = np.array([[bad, 0.5], [0.25, 0.75 if others_in_domain else 1.5]])
    with pytest.raises(ValueError, match="NaN or infinite"):
        Dataset(images, np.array([0, 1]), 2)
