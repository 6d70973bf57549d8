"""Shared builders for randomized test networks, tap-by-tap convolution patch
kernels, a sequential PGD reference and the plain-enumeration margin oracle,
plus the test references the package does not ship: the central
finite-difference gradient check (``finite_diff_check``, ``FiniteDiffReport``)
and the parameters it perturbs (``lift_with_node``), the IDX writers
(``write_idx_images``, ``write_idx_labels``), uniform points in a box
(``sample_box``), one loss value read off a fresh tape (``loss_value``) and
the taped bound-loss gradient of a training step (``taped_bound_loss_grads``)."""

import gzip
import struct

import numpy as np

from certitrain import tensor as T
from certitrain import verify
from certitrain.data import IMAGE_MAGIC, LABEL_MAGIC
from certitrain.interval import BoxBounds, box_from_ball, input_box_nodes, propagate_box, propagate_box_on_tape
from certitrain.loss import ce_terms, fast_regularizer_node, ibp_loss_terms, paired_loss_terms
from certitrain.net import (Affine, Conv2d, Flatten, Network, ReLU, elide_final_layer,
                            forward_backward_input, lift_params, param_grads,
                            split_for_classifier_relus)


def random_mlp(rng, dims, num_classes=None, scale=1.0, split_relus=0):
    """Random MLP with the given layer widths; dims = [in, h1, ..., out]."""
    layers = []
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        layers.append(Affine(rng.normal(size=(b, a)) * scale / np.sqrt(a), rng.normal(size=b) * 0.1))
        if i < len(dims) - 2:
            layers.append(ReLU())
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
    split = split_for_classifier_relus(layers, split_relus)
    return Network(layers, split, num_classes or dims[-1], (dims[0],))


def _tap_slices(k, size, out, stride, padding):
    """Along one axis, for kernel tap ``k``: the output positions whose read
    ``pos*stride + k - padding`` lands inside [0, size) rather than on the
    zero padding, and the strided input slice they read."""
    lo = min(out, max(0, -((k - padding) // stride)))
    hi = max(lo, min(out, (size - 1 + padding - k) // stride + 1))
    start = lo * stride + k - padding
    return slice(lo, hi), slice(start, start + max(0, (hi - lo - 1) * stride + 1), stride)


def _taps(h, w, kh, kw, stride, padding):
    """(i, j, output window, input window) for every kernel tap, row-major."""
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    col_taps = [_tap_slices(j, w, ow, stride, padding) for j in range(kw)]
    for i in range(kh):
        r_out, r_in = _tap_slices(i, h, oh, stride, padding)
        for j, (c_out, c_in) in enumerate(col_taps):
            yield i, j, (r_out, c_out), (r_in, c_in)


def reference_im2col(x, kh, kw, stride, padding):
    """``tensor.im2col`` tap by tap: each tap's window is one strided copy
    whose inner loop covers one output row, the padding written as zeros."""
    b, c, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    xt = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, kh, kw, b, oh, ow), dtype=np.float64)
    for i, j, window, inner in _taps(h, w, kh, kw, stride, padding):
        dst = cols[:, i, j]
        if window != (slice(0, oh), slice(0, ow)):
            dst.fill(0.0)  # part of this tap reads padding
        dst[(..., *window)] = xt[(..., *inner)]
    return cols.reshape(c * kh * kw, b * oh * ow)


def reference_col2im(cols, x_shape, kh, kw, stride, padding):
    """``tensor.col2im`` tap by tap: scatter-add each tap's window onto a zero
    (B, C, H, W) array in row-major tap order."""
    b, c, h, w = x_shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    cols = cols.reshape(c, kh, kw, b, oh, ow)
    x = np.zeros(x_shape, dtype=np.float64)
    xt = x.transpose(1, 0, 2, 3)
    for i, j, window, inner in _taps(h, w, kh, kw, stride, padding):
        xt[(..., *inner)] += cols[(slice(None), i, j, Ellipsis, *window)]
    return x


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


def reference_oracle(net, x, y, eps, budget_unstable=20, max_patterns=200_000):
    """The exact margin oracle as plain enumeration: the same walk as
    ``verify.exact_margin_oracle``, one LP per pattern and class with no
    pruning.  LPs go through ``verify.linprog``, so a test that patches it
    sees the reference's calls too."""
    x = np.asarray(x, dtype=np.float64)
    elided = elide_final_layer(net, y)
    box = box_from_ball(x, eps)
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


def loss_value(kind, *args, **taps_kw):
    """One loss value read off a fresh tape through the builders training runs.

    ``("ce", logits, y)``: cross-entropy of one sample's logits (``ce_terms``).
    ``("ibp", net, box, y)``: one sample's IBP loss (``ibp_loss_terms``).
    ``("taps", net, box, y, **taps_kw)``: one sample's attacked TAPS loss, the
    second term of ``paired_loss_terms`` called with ``taps_kw``.
    ``("reg", net, box, lam)``: the annealing regularizer of a batch box
    (``fast_regularizer_node`` over the box's interval propagation).
    """
    tape = T.Tape()
    if kind == "ce":
        logits, y = args
        logits = np.asarray(logits, dtype=np.float64)
        return float(ce_terms(tape.constant(logits[None]), np.asarray([y])).value[0])
    net, box, arg = args
    params = lift_params(tape, net)
    if kind == "reg":
        collected = []
        propagate_box_on_tape(net, params, input_box_nodes(tape, box), stop=len(net.layers) - 1,
                              collect=collected)
        return float(fast_regularizer_node(tape, net, params, box, arg, collected).value)
    if kind == "ibp":
        return float(ibp_loss_terms(tape, net, params, box, np.asarray([arg])).value[0])
    _, attacked = paired_loss_terms(tape, net, params, box, np.asarray([arg]), **taps_kw)
    return float(attacked.value[0])


def taped_bound_loss_grads(net, box, y, *, reg_lambda=0.0, eps_frac=0.0):
    """The taped reference of ``train._bound_loss_grads``: the mean of
    ``ibp_loss_terms`` plus ``eps_frac`` times ``fast_regularizer_node``,
    differentiated by ``param_grads``; (grads, bound loss, objective)."""
    tape = T.Tape()
    params = lift_params(tape, net)
    collected = []
    root = T.mean_all(ibp_loss_terms(tape, net, params, box, y, collect=collected))
    bound_value = float(root.value)
    if reg_lambda > 0.0 and eps_frac > 0.0:
        reg = fast_regularizer_node(tape, net, params, box, reg_lambda, collected=collected)
        root = T.add(root, T.scale(reg, eps_frac))
    return param_grads(tape, params, root), bound_value, float(root.value)


def lift_with_node(node, net, layer_idx, name):
    """``lift_params`` on ``node.tape`` with parameter ``name`` of layer
    ``layer_idx`` read from the flat ``node`` and every other one a constant."""
    return [{p: T.reshape(node, a.shape) if (i, p) == (layer_idx, name) else node.tape.constant(a)
             for p, a in zip(layer.param_names, layer.params())} or None
            for i, layer in enumerate(net.layers)]


def sample_box(box, n, rng):
    """``n`` points drawn uniformly from a ``BoxBounds``."""
    u = rng.uniform(size=(n,) + box.lo.shape)
    return box.lo[None] + u * (box.hi - box.lo)[None]


def write_idx_images(path, images_u8):
    """Write (N, H, W) uint8 images as an IDX file (gzipped iff path ends .gz)."""
    images_u8 = np.asarray(images_u8, dtype=np.uint8)
    n, h, w = images_u8.shape
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(struct.pack(">iiii", IMAGE_MAGIC, n, h, w))
        fh.write(images_u8.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(struct.pack(">ii", LABEL_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


class FiniteDiffReport:
    """Outcome of a central finite-difference gradient comparison."""

    def __init__(self, max_rel_err, n_checked, n_skipped):
        self.max_rel_err = max_rel_err
        self.n_checked = n_checked
        self.n_skipped = n_skipped

    def __repr__(self):
        return (
            f"FiniteDiffReport(max_rel_err={self.max_rel_err:.3e}, "
            f"checked={self.n_checked}, skipped={self.n_skipped})"
        )


def finite_diff_check(f, theta, step=1e-6, max_coords=None, rng=None) -> FiniteDiffReport:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f(theta_node)`` must build a scalar on ``theta_node.tape``.  Coordinates
    whose perturbed evaluations pass within ``10 * step`` of a piecewise kink
    (relu / abs / clamp inputs) are skipped and counted, not failed.
    """
    theta = T.as_array(theta)
    tol = 10.0 * step

    def evaluate(values):
        tape = T.Tape(kink_tol=tol)
        root = f(tape.leaf(values))
        if root.value.shape != ():
            raise ValueError("finite_diff_check requires a scalar-valued function")
        return tape, root

    tape, root = evaluate(theta)
    analytic = T.backward(tape, root)[tape.nodes[0].id].ravel()
    base_kinky = tape.kink_hits > 0

    flat = theta.ravel()
    coords = np.arange(flat.size)
    if max_coords is not None and flat.size > max_coords:
        rng = rng or np.random.default_rng(0)
        coords = rng.choice(flat.size, size=max_coords, replace=False)

    max_err = 0.0
    checked = skipped = 0
    for i in coords:
        if base_kinky:
            skipped += 1
            continue
        bumped = flat.copy()
        bumped[i] += step
        t_hi, r_hi = evaluate(bumped.reshape(theta.shape))
        bumped[i] -= 2 * step
        t_lo, r_lo = evaluate(bumped.reshape(theta.shape))
        if t_hi.kink_hits or t_lo.kink_hits:
            skipped += 1
            continue
        fd = (float(r_hi.value) - float(r_lo.value)) / (2 * step)
        err = abs(analytic[i] - fd) / (abs(fd) + 1e-12)
        max_err = max(max_err, err)
        checked += 1
    return FiniteDiffReport(max_err, checked, skipped)
