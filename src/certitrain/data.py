"""Dataset ingestion (IDX), synthetic corpora, and batching.

Images are float64 in [0, 1], shaped (N, C, H, W); flat feature sets are
(N, D).  Labels are int64.  All generators and iterators are deterministic
given their seeds.
"""

from __future__ import annotations

import gzip
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Dataset",
    "IdxError",
    "load_mnist_idx",
    "synthetic_moons",
    "synthetic_digits",
    "batches",
    "take_subset",
    "train_val_split",
    "resolve_data_dir",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
GZIP_PREFIX = b"\x1f\x8b"

DATA_ENV_VAR = "CERTITRAIN_DATA"

# every input lies in this range: datasets are checked against it, and every
# perturbation ball is intersected with it
DOMAIN = (0.0, 1.0)


@dataclass(frozen=True)
class Dataset:
    images: np.ndarray           # (N, C, H, W) or (N, D)
    labels: np.ndarray           # (N,) int64
    num_classes: int

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label outside [0, num_classes)")
        if not np.all(np.isfinite(self.images)):
            raise ValueError("images hold NaN or infinite values")
        if self.images.size and (self.images.min() < DOMAIN[0] or self.images.max() > DOMAIN[1]):
            raise ValueError("images outside [{:g}, {:g}]".format(*DOMAIN))

    def __len__(self):
        return self.images.shape[0]

    @property
    def sample_shape(self):
        return self.images.shape[1:]


# ---------------------------------------------------------------------------
# IDX container
# ---------------------------------------------------------------------------

class IdxError(ValueError):
    """A corrupt IDX file; the message starts with the file's path."""


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        prefix = fh.read(2)
    if prefix == GZIP_PREFIX:
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx(path, expected_magic, what):
    with _open_maybe_gzip(path) as fh:
        header = fh.read(4)
        if len(header) != 4:
            raise IdxError(f"{path}: truncated {what} file")
        (magic,) = struct.unpack(">i", header)
        if magic != expected_magic:
            raise IdxError(
                f"{path}: expected {what} magic 0x{expected_magic:08x}, got 0x{magic:08x}"
            )
        ndim = magic & 0xFF
        dims_raw = fh.read(4 * ndim)
        if len(dims_raw) != 4 * ndim:
            raise IdxError(f"{path}: truncated {what} dimension header")
        dims = struct.unpack(f">{ndim}i", dims_raw)
        payload = fh.read()
    expected = int(np.prod(dims))
    if len(payload) < expected:
        raise IdxError(f"{path}: truncated {what} payload ({len(payload)} < {expected})")
    data = np.frombuffer(payload[:expected], dtype=np.uint8).reshape(dims)
    return data


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Parse an MNIST-style IDX image/label pair (raw or gzipped).

    Pixels are scaled to [0, 1] and shaped (N, 1, H, W).
    """
    images = _read_idx(images_path, IMAGE_MAGIC, "image")
    labels = _read_idx(labels_path, LABEL_MAGIC, "label")
    if images.shape[0] != labels.shape[0]:
        raise IdxError(f"{labels_path}: label count {labels.shape[0]} != image count "
                       f"{images.shape[0]} of {images_path}")
    if labels.size and labels.max() > 9:
        raise IdxError(f"{labels_path}: label {labels.max()} outside 0-9")
    n, h, w = images.shape
    return Dataset(
        images=(images.astype(np.float64) / 255.0).reshape(n, 1, h, w),
        labels=labels.astype(np.int64),
        num_classes=10,
    )


def resolve_data_dir(flag_value=None):
    """Dataset root: the CLI flag wins, then the environment variable."""
    return flag_value or os.environ.get(DATA_ENV_VAR)


# ---------------------------------------------------------------------------
# Synthetic corpora
# ---------------------------------------------------------------------------

def synthetic_moons(n, noise=0.05, seed=0) -> Dataset:
    """Two interleaved arcs in [0, 1]^2; classic fast smoke-test corpus."""
    if n < 1:
        raise ValueError("need at least 1 sample")
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    t0 = rng.uniform(0.0, np.pi, size=n0)
    t1 = rng.uniform(0.0, np.pi, size=n1)
    outer = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    inner = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    pts = np.concatenate([outer, inner])
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    if noise:
        pts = pts + rng.normal(0.0, noise, size=pts.shape)
    # fixed uniform scale of the noise-free arc range into the unit square
    pts = np.stack([(pts[:, 0] + 1.0) / 3.0, (pts[:, 1] + 1.0) / 3.0], axis=1)
    pts = np.clip(pts, *DOMAIN)
    order = rng.permutation(n)
    return Dataset(images=pts[order], labels=labels[order], num_classes=2)


# 7x5 bitmap glyphs for digits 0-9
_GLYPHS = [
    "01110 10001 10011 10101 11001 10001 01110",
    "00100 01100 00100 00100 00100 00100 01110",
    "01110 10001 00001 00110 01000 10000 11111",
    "11110 00001 00001 01110 00001 00001 11110",
    "00010 00110 01010 10010 11111 00010 00010",
    "11111 10000 11110 00001 00001 10001 01110",
    "00110 01000 10000 11110 10001 10001 01110",
    "11111 00001 00010 00100 01000 01000 01000",
    "01110 10001 10001 01110 10001 10001 01110",
    "01110 10001 10001 01111 00001 00010 01100",
]


def _glyph_array(digit):
    rows = _GLYPHS[digit].split()
    return np.array([[int(ch) for ch in row] for row in rows], dtype=np.float64)


def _box_blur(img):
    padded = np.pad(img, 1)
    return (
        padded[:-2, :-2] + padded[:-2, 1:-1] + padded[:-2, 2:]
        + padded[1:-1, :-2] + padded[1:-1, 1:-1] + padded[1:-1, 2:]
        + padded[2:, :-2] + padded[2:, 1:-1] + padded[2:, 2:]
    ) / 9.0


def synthetic_digits(n, seed=0) -> Dataset:
    """Ten-class corpus of 28x28 digit images rendered from bitmap glyphs.

    Deterministic given the seed: glyphs are randomly scaled, shifted,
    sheared, brightness-jittered, blurred, and noised.  Bold strokes on a
    near-zero background keep interval propagation informative, so certified
    training behaves like it does on handwritten-digit data; it is the
    stand-in corpus when real IDX files are not on disk.
    """
    size = 28
    rng = np.random.default_rng(seed)
    images = np.zeros((n, size, size))
    labels = rng.integers(0, 10, size=n).astype(np.int64)
    for i in range(n):
        glyph = _glyph_array(labels[i])
        sh = rng.uniform(3.0, 3.5)
        sw = rng.uniform(3.0, 3.5)
        gh, gw = int(round(7 * sh)), int(round(5 * sw))
        ri = np.clip((np.arange(gh) / sh).astype(int), 0, 6)
        ci = np.clip((np.arange(gw) / sw).astype(int), 0, 4)
        big = glyph[np.ix_(ri, ci)]
        shear = rng.uniform(-0.25, 0.25)
        shifts = np.round(shear * (np.arange(gh) - gh / 2)).astype(int)
        big = big[np.arange(gh)[:, None], (np.arange(gw) - shifts[:, None]) % gw]
        big = big * rng.uniform(0.8, 1.0)
        canvas = np.zeros((size, size))
        center_top = (size - gh) // 2
        center_left = (size - gw) // 2
        top = int(np.clip(center_top + rng.integers(-3, 4), 0, size - gh))
        left = int(np.clip(center_left + rng.integers(-3, 4), 0, size - gw))
        canvas[top : top + gh, left : left + gw] = big
        peak = canvas.max()
        canvas = _box_blur(canvas)
        if canvas.max() > 0:
            canvas *= peak / canvas.max()
        canvas = canvas + rng.normal(0.0, 0.05, size=canvas.shape)
        images[i] = np.clip(canvas, *DOMAIN)
    return Dataset(images=images[:, None, :, :], labels=labels, num_classes=10)


# ---------------------------------------------------------------------------
# Batching and splits
# ---------------------------------------------------------------------------

def batches(dataset: Dataset, batch_size, shuffle_seed=0, epoch=0):
    """Yield (x, y) batches under an epoch-specific permutation.

    The last partial batch is kept.  Identical (seed, epoch) pairs reproduce
    the same order.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(dataset)
    order = np.random.default_rng((shuffle_seed, epoch)).permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield dataset.images[idx], dataset.labels[idx]


def take_subset(dataset: Dataset, k, seed=0) -> Dataset:
    """First k samples after a seeded shuffle (desk-scale runs)."""
    if k >= len(dataset):
        return dataset
    order = np.random.default_rng(seed).permutation(len(dataset))[:k]
    return replace(dataset, images=dataset.images[order], labels=dataset.labels[order])


def train_val_split(dataset: Dataset, val_fraction=0.1, seed=0):
    """Seeded shuffle, then the last fraction becomes the validation set."""
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    tr, va = order[: n - n_val], order[n - n_val :]
    train = replace(dataset, images=dataset.images[tr], labels=dataset.labels[tr])
    val = replace(dataset, images=dataset.images[va], labels=dataset.labels[va])
    return train, val
