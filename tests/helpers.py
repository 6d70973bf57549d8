"""Shared builders for randomized test networks, and a sequential PGD reference."""

import numpy as np

from certitrain.net import Affine, Conv2d, Flatten, Network, ReLU, forward_backward_input


def random_mlp(rng, dims, num_classes=None, scale=1.0, split_relus=0):
    """Random MLP with the given layer widths; dims = [in, h1, ..., out]."""
    layers = []
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        layers.append(Affine(rng.normal(size=(b, a)) * scale / np.sqrt(a), rng.normal(size=b) * 0.1))
        if i < len(dims) - 2:
            layers.append(ReLU())
    from certitrain.net import split_for_classifier_relus

    split = split_for_classifier_relus(layers, split_relus)
    return Network(layers, split, num_classes or dims[-1], (dims[0],))


def random_cnn(rng, in_shape=(1, 6, 6), channels=(3,), fc=8, num_classes=3, scale=1.0):
    """Tiny random conv net for interval/gradient tests."""
    layers = []
    c = in_shape[0]
    for oc in channels:
        fan = c * 9
        layers.append(Conv2d(rng.normal(size=(oc, c, 3, 3)) * scale / np.sqrt(fan), rng.normal(size=oc) * 0.1, 1, 1))
        layers.append(ReLU())
        c = oc
    layers.append(Flatten())
    feat = c * in_shape[1] * in_shape[2]
    layers.append(Affine(rng.normal(size=(fc, feat)) * scale / np.sqrt(feat), rng.normal(size=fc) * 0.1))
    layers.append(ReLU())
    layers.append(Affine(rng.normal(size=(num_classes, fc)) * scale / np.sqrt(fc), rng.normal(size=num_classes) * 0.1))
    return Network(layers, len(layers), num_classes, in_shape)


def dyadic_mlp(rng, dims, num_classes=None, split_relus=0):
    """MLP on which every BLAS product rounds alike, whatever the batch or kernel.

    Each row of a weight matrix holds two nonzeros, signed powers of two, and
    biases are multiples of 1/8.  So every product is exact and every forward
    sum has two nonzero terms, which round the same in any order; input
    gradients are sums of a few dyadic numbers and exact.  A batched pass and
    one-row passes must therefore agree bit for bit.
    """
    layers = []
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        w = np.zeros((b, a))
        for row in w:
            cols = rng.choice(a, size=2, replace=False)
            row[cols] = rng.choice([-1.0, 1.0], size=2) * 2.0 ** rng.integers(-2, 3, size=2)
        layers.append(Affine(w, rng.integers(-4, 5, size=b) / 8.0))
        if i < len(dims) - 2:
            layers.append(ReLU())
    from certitrain.net import split_for_classifier_relus

    split = split_for_classifier_relus(layers, split_relus)
    return Network(layers, split, num_classes or dims[-1], (dims[0],))


def reference_pgd(net, lo, hi, labels, targets, steps, restarts, rng, start=0):
    """Sequential PGD on the logit-difference objective: restarts one after
    another, each row alone in one-row passes, ``np.clip`` projection, and a
    strict ``>`` that keeps the first best iterate.

    ``lo``/``hi`` are (B, ...) boxes of ``layers[start]``'s input; ``rng`` is
    one generator, drawing the whole (B, ...) box per restart, or a list of
    B generators, each drawing its row's (1, ...) box per restart.
    """
    n = lo.shape[0]
    eta = (hi - lo) / steps
    best_x = np.empty_like(lo)
    best_val = np.empty(n)
    for r in range(restarts):
        if isinstance(rng, np.random.Generator):
            u = rng.uniform(size=lo.shape)
        else:
            u = np.concatenate([g.uniform(size=(1,) + lo.shape[1:]) for g in rng])
        x0 = lo + u * (hi - lo)
        for i in range(n):
            t, y = int(targets[i]), int(labels[i])

            def seed(logits):
                d = np.zeros_like(logits)
                d[:, t] += 1.0
                d[:, y] -= 1.0
                return logits[:, t] - logits[:, y], d

            x = x0[i : i + 1]
            for step in range(steps + 1):
                vals, g = forward_backward_input(net, x, seed, start=start)
                if (r == 0 and step == 0) or vals[0] > best_val[i]:
                    best_val[i], best_x[i] = vals[0], x[0]
                if step < steps:
                    x = np.clip(x + eta[i] * np.sign(g), lo[i], hi[i])
    return best_x
