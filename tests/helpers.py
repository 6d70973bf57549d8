"""Shared builders for randomized test networks, a sequential PGD reference and
the plain-enumeration margin oracle."""

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


def reference_oracle(net, x, y, eps, budget_unstable=20, max_patterns=200_000, clip=(0.0, 1.0)):
    """The exact margin oracle as plain enumeration: the same walk as
    ``verify.exact_margin_oracle``, one LP per pattern and class with no
    pruning.  LPs go through ``verify.linprog``, so a test that patches it
    sees the reference's calls too."""
    from certitrain import verify
    from certitrain.interval import BoxBounds, box_from_ball, propagate_box
    from certitrain.net import elide_final_layer

    x = np.asarray(x, dtype=np.float64)
    elided = elide_final_layer(net, y)
    box = box_from_ball(x, eps, clip)
    lo0, hi0 = box.lo.reshape(-1), box.hi.reshape(-1)
    center, radius = 0.5 * (lo0 + hi0), 0.5 * (hi0 - lo0)
    collected = []
    propagate_box(elided, BoxBounds(box.lo[None], box.hi[None]), collect=collected)
    global_state = {}
    for (_, pre), (idx, _) in zip(collected, collected[1:]):
        if isinstance(elided.layers[idx], ReLU):
            active, dead = pre.lo.ravel() >= 0.0, pre.hi.ravel() <= 0.0
            global_state[idx] = (active, dead, ~(active | dead))
    unstable_count = sum(int(u.sum()) for _, _, u in global_state.values())
    if unstable_count > budget_unstable:
        return verify.OracleResult("unknown", None, unstable_count, 0,
                                   f"{unstable_count} unstable ReLUs exceed budget {budget_unstable}")
    ops = [layer.affine_operator(elided.shape_after(i)) for i, layer in enumerate(elided.layers)]
    best, patterns, stop = -np.inf, 0, ""

    def solve_leaf(m, v, constraints):
        nonlocal best, stop
        rows = [i for i in range(elided.num_classes) if i != y]
        if not constraints:
            best = max(best, float((m[rows] @ center + np.abs(m[rows]) @ radius + v[rows]).max()))
            return
        a_ub = -np.stack([w for w, _ in constraints])
        b_ub = np.array([c for _, c in constraints])
        for i in rows:
            res = verify.linprog(-m[i], A_ub=a_ub, b_ub=b_ub,
                                 bounds=list(zip(lo0, hi0)), method="highs")
            if res.status == 2:
                return
            if res.status != 0:
                stop = f"LP solver status {res.status}"
                return
            best = max(best, float(m[i] @ res.x + v[i]))

    def walk(k, m, v, constraints):
        nonlocal patterns, stop
        if stop:
            return
        if k == len(elided.layers):
            patterns += 1
            if patterns > max_patterns:
                stop = f"pattern count exceeded {max_patterns}"
                return
            solve_leaf(m, v, constraints)
            return
        if isinstance(elided.layers[k], ReLU):
            g_active, g_dead, g_unstable = global_state[k]
            c = m @ center + v
            r = np.abs(m) @ radius
            fixed_active = g_active | (g_unstable & (c - r >= 0.0))
            fixed_dead = g_dead | (g_unstable & ~fixed_active & (c + r <= 0.0))
            branch = np.nonzero(g_unstable & ~fixed_active & ~fixed_dead)[0]

            def expand(q, mask, constr):
                if q == len(branch):
                    walk(k + 1, m * mask[:, None], v * mask, constr)
                    return
                j = branch[q]
                expand(q + 1, mask, constr + [(m[j], v[j])])
                dead = mask.copy()
                dead[j] = 0.0
                expand(q + 1, dead, constr + [(-m[j], -v[j])])

            expand(0, (~fixed_dead).astype(np.float64), constraints)
        elif ops[k] is None:
            walk(k + 1, m, v, constraints)
        else:
            w, b = ops[k]
            walk(k + 1, w @ m, w @ v + b, constraints)

    walk(0, np.eye(lo0.size), np.zeros(lo0.size), [])
    if stop:
        return verify.OracleResult("unknown", None, unstable_count, patterns, stop)
    return verify.OracleResult("exact", best, unstable_count, patterns)
