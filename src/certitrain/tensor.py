"""Dense float64 tensor primitives on a define-by-run reverse-mode tape.

Values are plain numpy float64 arrays; a :class:`Tape` records every primitive
application as a :class:`Node` so that :func:`backward` can sweep the DAG in
reverse and accumulate gradients.  Tapes are rebuilt from scratch for every
loss evaluation (attack results are data, so graphs differ per batch).

A batch dimension, when present, is always axis 0.  Convolution inputs are
NCHW.  There is no general broadcasting: each primitive states exactly which
shapes it accepts.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "ShapeError",
    "Tape",
    "Node",
    "backward",
]


class ShapeError(ValueError):
    """Raised when operand shapes are invalid for a primitive."""


def as_array(value) -> np.ndarray:
    """Coerce to a C-contiguous float64 array.

    0-d arrays are preserved (``ascontiguousarray`` would promote them).
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


class Node:
    """One recorded primitive application.

    ``backward_rule`` maps the output gradient to a tuple of input gradients,
    one per entry of ``inputs`` (each shape-matched to that input's value).
    Leaves have no rule.
    """

    __slots__ = ("tape", "id", "op", "inputs", "value", "backward_rule")

    def __init__(self, tape, node_id, op, inputs, value, backward_rule):
        self.tape = tape
        self.id = node_id
        self.op = op
        self.inputs = inputs
        self.value = value
        self.backward_rule = backward_rule

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(id={self.id}, op={self.op!r}, shape={self.value.shape})"


class Tape:
    """Append-only record of nodes; creation order is a topological order.

    ``kink_tol``, when set, makes piecewise primitives (relu, abs, clamp)
    count how many elements sit within ``kink_tol`` of a non-differentiable
    point, so that a finite-difference check can skip coordinates whose
    central differences straddle a kink.
    """

    def __init__(self, kink_tol=None):
        self.nodes: list[Node] = []
        self.kink_tol = kink_tol
        self.kink_hits = 0

    def node(self, op, inputs, value, backward_rule) -> Node:
        value = as_array(value)
        for inp in inputs:
            if inp.tape is not self:
                raise ValueError(f"input node {inp.id} belongs to a different tape")
        n = Node(self, len(self.nodes), op, tuple(inputs), value, backward_rule)
        self.nodes.append(n)
        return n

    def leaf(self, value, op="leaf") -> Node:
        return self.node(op, (), value, None)

    def constant(self, value) -> Node:
        return self.leaf(value, op="const")

    def _note_kinks(self, distances):
        """Count the ``distances`` below ``kink_tol``; callers build them only
        when ``kink_tol`` is set."""
        self.kink_hits += int(np.count_nonzero(distances < self.kink_tol))


def _same_shape(op, a, b):
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}")


# ---------------------------------------------------------------------------
# Elementwise and scalar primitives
# ---------------------------------------------------------------------------

def add(a: Node, b: Node) -> Node:
    _same_shape("add", a, b)
    return a.tape.node("add", (a, b), a.value + b.value, lambda g: (g, g))


def sub(a: Node, b: Node) -> Node:
    _same_shape("sub", a, b)
    return a.tape.node("sub", (a, b), a.value - b.value, lambda g: (g, -g))


def mul(a: Node, b: Node) -> Node:
    _same_shape("mul", a, b)
    av, bv = a.value, b.value
    return a.tape.node("mul", (a, b), av * bv, lambda g: (g * bv, g * av))


def scale(a: Node, k: float) -> Node:
    k = float(k)
    return a.tape.node("scale", (a,), a.value * k, lambda g: (g * k,))


def add_scalar(a: Node, k: float) -> Node:
    return a.tape.node("add_scalar", (a,), a.value + float(k), lambda g: (g,))


def relu(a: Node) -> Node:
    av = a.value
    if a.tape.kink_tol is not None:
        a.tape._note_kinks(np.abs(av))
    mask = av > 0.0
    return a.tape.node("relu", (a,), np.maximum(av, 0.0), lambda g: (g * mask,))


def abs_(a: Node) -> Node:
    av = a.value
    if a.tape.kink_tol is not None:
        a.tape._note_kinks(np.abs(av))
    sign = np.sign(av)  # sign(0) == 0: subgradient choice at the kink
    return a.tape.node("abs", (a,), np.abs(av), lambda g: (g * sign,))


def clamp(a: Node, lo: float, hi: float) -> Node:
    lo, hi = float(lo), float(hi)
    av = a.value
    if a.tape.kink_tol is not None:
        a.tape._note_kinks(np.minimum(np.abs(av - lo), np.abs(av - hi)))
    mask = (av >= lo) & (av <= hi)
    return a.tape.node("clamp", (a,), np.clip(av, lo, hi), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Node, b: Node) -> Node:
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {av.shape} @ {bv.shape}")
    return a.tape.node(
        "matmul", (a, b), av @ bv, lambda g: (g @ bv.T, av.T @ g)
    )


def transpose(a: Node) -> Node:
    if a.value.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D, got {a.value.shape}")
    return a.tape.node("transpose", (a,), a.value.T.copy(), lambda g: (g.T,))


def add_bias(a: Node, v: Node) -> Node:
    """Row-broadcast add: (B, n) + (n,)."""
    av, vv = a.value, v.value
    if av.ndim != 2 or vv.shape != (av.shape[1],):
        raise ShapeError(f"add_bias: {av.shape} + {vv.shape}")
    return a.tape.node(
        "add_bias", (a, v), av + vv[None, :], lambda g: (g, g.sum(axis=0))
    )


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

def reshape(a: Node, shape) -> Node:
    shape = tuple(int(s) for s in shape)
    old = a.value.shape
    return a.tape.node(
        "reshape", (a,), a.value.reshape(shape), lambda g: (g.reshape(old),)
    )


def repeat_rows(a: Node, k: int) -> Node:
    """Tile each axis-0 row k times consecutively: (B, ...) -> (B*k, ...)."""
    av = a.value
    out = np.repeat(av, k, axis=0)
    b = av.shape[0]

    def bwd(g):
        return (g.reshape((b, k) + av.shape[1:]).sum(axis=1),)

    return a.tape.node("repeat_rows", (a,), out, bwd)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def sum_all(a: Node) -> Node:
    av = a.value
    return a.tape.node(
        "sum", (a,), np.asarray(av.sum()), lambda g: (np.broadcast_to(g, av.shape).copy(),)
    )


def mean_all(a: Node) -> Node:
    av = a.value
    inv = 1.0 / av.size
    return a.tape.node(
        "mean", (a,), np.asarray(av.mean()),
        lambda g: (np.broadcast_to(g * inv, av.shape).copy(),),
    )


def log1p_sum_exp_rows(a: Node) -> Node:
    """ln(1 + sum(exp(row))) per row, stable: (B, M) -> (B,).

    The implicit +1 plays the role of the true-class term exp(0) in the
    logit-difference cross-entropy.
    """
    av = a.value
    out = log1p_sum_exp(av)
    return a.tape.node("log1p_sum_exp_rows", (a,), out,
                       lambda g: (log1p_sum_exp_vjp(g, av, out),))


def log1p_sum_exp(av):
    """Numpy kernel of :func:`log1p_sum_exp_rows`: (B, M) -> (B,)."""
    m = np.maximum(av.max(axis=1), 0.0)
    return np.log(np.exp(-m) + np.exp(av - m[:, None]).sum(axis=1)) + m


def log1p_sum_exp_vjp(g, av, out):
    """Adjoint of :func:`log1p_sum_exp` at ``av`` (value ``out``) for the (B,)
    output gradient ``g``."""
    return np.exp(av - out[:, None]) * g[:, None]


# ---------------------------------------------------------------------------
# Per-row column indexing (class-label plumbing)
# ---------------------------------------------------------------------------

def _check_labels(op, av, idx):
    idx = np.asarray(idx, dtype=np.intp)
    if av.ndim != 2 or idx.shape != (av.shape[0],):
        raise ShapeError(f"{op}: values {av.shape}, labels {idx.shape}")
    if idx.min() < 0 or idx.max() >= av.shape[1]:
        raise ShapeError(f"{op}: label out of range for {av.shape[1]} columns")
    return idx


def pick_cols(a: Node, idx) -> Node:
    """Per-row single-column gather: (R, K), (R,) -> (R,)."""
    av = a.value
    idx = _check_labels("pick_cols", av, idx)
    rows = np.arange(av.shape[0])

    def bwd(g):
        da = np.zeros_like(av)
        da[rows, idx] = g
        return (da,)

    return a.tape.node("pick_cols", (a,), av[rows, idx], bwd)


def sub_col_pick(a: Node, idx) -> Node:
    """Subtract each row's idx-th entry from the whole row: logits -> diffs."""
    av = a.value
    idx = _check_labels("sub_col_pick", av, idx)
    rows = np.arange(av.shape[0])
    out = av - av[rows, idx][:, None]
    return a.tape.node("sub_col_pick", (a,), out, lambda g: (sub_col_pick_vjp(g, idx),))


def sub_col_pick_vjp(g, idx):
    """Adjoint of ``a - a[rows, idx][:, None]`` for the output gradient ``g``."""
    da = g.copy()
    da[np.arange(g.shape[0]), idx] -= g.sum(axis=1)
    return da


def drop_col(a: Node, idx) -> Node:
    """Remove one per-row column: (B, K) -> (B, K-1), remaining order kept."""
    av = a.value
    keep = drop_col_keep(av, idx)
    return a.tape.node("drop_col", (a,), av[np.arange(av.shape[0])[:, None], keep],
                       lambda g: (drop_col_vjp(g, keep, av.shape),))


def drop_col_keep(av, idx):
    """The (B, K-1) column index that :func:`drop_col` gathers from ``av``."""
    idx = _check_labels("drop_col", av, idx)
    k = av.shape[1]
    keep = np.argsort(np.arange(k)[None, :] == idx[:, None], axis=1, kind="stable")
    return keep[:, : k - 1]  # stable argsort puts the dropped column last


def drop_col_vjp(g, keep, shape):
    """Adjoint of the gather ``av[rows, keep]`` for the output gradient ``g``."""
    da = np.zeros(shape, dtype=np.float64)
    da[np.arange(shape[0])[:, None], keep] = g
    return da


# ---------------------------------------------------------------------------
# Convolution (NCHW, im2col)
# ---------------------------------------------------------------------------

def _conv_geometry(x_shape, w_shape, stride, padding):
    b, c, h, w = x_shape
    oc, ic, kh, kw = w_shape
    if ic != c:
        raise ShapeError(f"conv2d: input channels {c} != kernel channels {ic}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"conv2d: empty output for input {x_shape}, kernel {w_shape}")
    return oh, ow


def _reads(k, size, out, stride, padding):
    """Along one axis, for kernel tap ``k``: the output positions in the slice
    ``out`` whose read ``pos*stride + k - padding`` lands inside [0, size)
    rather than on the zero padding, and the strided input slice they read."""
    lo = max(out.start, -((k - padding) // stride))
    hi = max(lo, min(out.stop, (size - 1 + padding - k) // stride + 1))
    start = lo * stride + k - padding
    return slice(lo, hi), slice(start, start + max(0, (hi - lo - 1) * stride + 1), stride)


def _kept(shift, out):
    """Along one axis of length ``out``: the positions that a shift by
    ``shift`` keeps inside the axis, as one slice."""
    lo = min(out, max(0, -shift))
    return slice(lo, max(lo, out - max(0, shift)))


@functools.lru_cache(maxsize=64)
def _tap_plan(h, w, kh, kw, stride, padding):
    """(i, j, phase, flat shift, strips) for every kernel tap, row-major.

    Tap (i, j) with ``i - p = s*a + rh`` and ``j - p = s*b + rw`` reads phase
    plane (rh, rw) shifted by ``a*OW + b`` flat entries (see :func:`im2col`).
    Its strips are the disjoint rectangles of an (OH, OW) output map whose
    shifted read wraps into a neighbouring row or sample: the |b| columns
    outside the kept columns, whole (so that numpy runs one long inner loop
    over samples and rows), then the |a| rows outside the kept rows on the
    kept columns.  Each strip is ``(where, real, pixels)``: its (..., rows,
    columns) index, then the index of its entries that read real pixels and
    the index of those pixels in channel-major ``x`` (both None when there
    are none).
    """
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    every = slice(0, oh)
    plan = []
    for i in range(kh):
        a, rh = divmod(i - padding, stride)
        rows = _kept(a, oh)
        for j in range(kw):
            b, rw = divmod(j - padding, stride)
            cols = _kept(b, ow)
            strips = []
            for u, v in ((every, slice(0, cols.start)), (every, slice(cols.stop, ow)),
                         (slice(0, rows.start), cols), (slice(rows.stop, oh), cols)):
                if u.start == u.stop or v.start == v.stop:
                    continue
                (ru, rx), (cv, cx) = _reads(i, h, u, stride, padding), _reads(j, w, v, stride, padding)
                if ru.start < ru.stop and cv.start < cv.stop:
                    strips.append(((..., u, v), (..., ru, cv), (..., rx, cx)))
                else:
                    strips.append(((..., u, v), None, None))
            plan.append((i, j, (rh, rw), a * ow + b, tuple(strips)))
    return tuple(plan)


def _phase_view(xt, phase, stride, oh, ow):
    """The strided view of channel-major ``xt`` (C, B, H, W) that holds the
    image part of phase plane ``phase``: at most OH rows and OW columns."""
    return xt[:, :, phase[0]::stride, phase[1]::stride][:, :, :oh, :ow]


def _shifted(n, shift):
    """The slices ``to`` and ``frm`` of [0, n) with ``frm = to + shift``."""
    count = max(0, n - abs(shift))
    to, frm = max(0, -shift), max(0, shift)
    return slice(to, to + count), slice(frm, frm + count)


def im2col(x, kh, kw, stride, padding):
    """(B, C, H, W) -> channel-major patch matrix (C*kh*kw, B*OH*OW).

    Row ``(c*kh + i)*kw + j`` holds kernel tap (i, j) of channel c, so the
    rows line up with ``weight.reshape(O, -1)``; column ``(b*OH + u)*OW + v``
    is output position (u, v) of sample b.

    The input is split by stride phase: plane (rh, rw) is a channel-major
    (C, B*OH*OW) array holding ``x[b, c, s*u + rh, s*v + rw]``, zero outside
    the image.  Tap (i, j), with ``i - p = s*a + rh`` and ``j - p = s*b + rw``,
    is that plane shifted by ``a*OW + b`` in flat (b, u, v) order, so its whole
    block is one contiguous copy.  The shift wraps at most |a| rows and |b|
    columns of each output map into a neighbouring row or sample; these
    strips are then rewritten from ``x``, or zero where they read padding
    (real pixels can lie past an OH x OW plane).  Every entry is a copy.
    """
    b, c, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    n = b * oh * ow
    xt = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, kh, kw, n), dtype=np.float64)
    planes = {}
    for i, j, phase, shift, strips in _tap_plan(h, w, kh, kw, stride, padding):
        plane = planes.get(phase)
        if plane is None:
            plane = planes[phase] = np.zeros((c, b, oh, ow), dtype=np.float64)
            image = _phase_view(xt, phase, stride, oh, ow)
            plane[:, :, :image.shape[2], :image.shape[3]] = image
        to, frm = _shifted(n, shift)
        cols[:, i, j, to] = plane.reshape(c, n)[:, frm]
        block = cols[:, i, j].reshape(c, b, oh, ow)
        for where, real, pixels in strips:
            block[where] = 0.0
            if real is not None:
                block[real] = xt[pixels]
    return cols.reshape(c * kh * kw, n)


def col2im(cols, x_shape, kh, kw, stride, padding):
    """Adjoint of :func:`im2col`: scatter-add a (C*kh*kw, B*OH*OW) patch
    matrix back onto a C-contiguous (B, C, H, W) array; entries that
    :func:`im2col` read from padding drop out.  ``cols`` is left unchanged.

    Each tap's block is added as one shifted slab into the phase plane it
    was read from, and the planes are copied into the image at the end.
    The block's wrapped strips are first added straight to their pixels
    where those are real (pixels past an OH x OW plane, which get no other
    contribution), then zeroed in a scratch copy of the block before the
    slab add.  Taps go in row-major order, so every pixel sums its taps in
    the same order, from +0.0, as a tap-by-tap scatter does, and the result
    is bit-identical to it: the zeros added in place of the strips change
    no sum.
    """
    b, c, h, w = x_shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    n = b * oh * ow
    cols = cols.reshape(c, kh, kw, n)
    x = np.zeros(x_shape, dtype=np.float64)
    xt = x.transpose(1, 0, 2, 3)
    planes = {}
    scratch = np.empty((c, n), dtype=np.float64)
    for i, j, phase, shift, strips in _tap_plan(h, w, kh, kw, stride, padding):
        block = cols[:, i, j]
        if strips:
            np.copyto(scratch, block)
            given, kept = block.reshape(c, b, oh, ow), scratch.reshape(c, b, oh, ow)
            for where, real, pixels in strips:
                if real is not None:
                    xt[pixels] += given[real]
                kept[where] = 0.0
            block = scratch
        plane = planes.get(phase)
        if plane is None:
            plane = planes[phase] = np.zeros((c, n), dtype=np.float64)
        to, frm = _shifted(n, shift)
        plane[:, frm] += block[:, to]
    for phase, plane in planes.items():
        image = _phase_view(xt, phase, stride, oh, ow)
        image[...] = plane.reshape(c, b, oh, ow)[:, :, :image.shape[2], :image.shape[3]]
    return x


def conv_forward(x, w, b, stride, padding):
    """Numpy kernel of :func:`conv2d`: the C-contiguous (B, O, OH, OW) output
    and the patch matrix, from one plain matmul ``cols.T @ wmat.T``."""
    oh, ow = _conv_geometry(x.shape, w.shape, stride, padding)
    oc = w.shape[0]
    cols = im2col(x, w.shape[2], w.shape[3], stride, padding)
    prod = (cols.T @ w.reshape(oc, -1).T).reshape(x.shape[0], oh, ow, oc)
    out = np.empty((x.shape[0], oc, oh, ow), dtype=np.float64)
    np.add(prod.transpose(0, 3, 1, 2), b[None, :, None, None], out=out)
    return out, cols


def conv_input_vjp(g, w, x_shape, stride, padding):
    """Input gradient of a convolution from its (B, O, OH, OW) output
    gradient: the patch gradient ``wmat.T @ gm``, with ``gm`` the gradient
    channel-major (O, B*OH*OW), scattered back by :func:`col2im`.  Each input
    element sums its kernel taps in row-major (i, j) order from +0.0, the
    order a tap-by-tap scatter uses, whatever the stride-phase split."""
    oc, _, kh, kw = w.shape
    gm = g.transpose(1, 0, 2, 3).reshape(oc, -1)
    return col2im(w.reshape(oc, -1).T @ gm, x_shape, kh, kw, stride, padding)


def conv_vjp(g, w, cols, x_shape, stride, padding, input_grad=True):
    """Backward of :func:`conv_forward` from its (B, O, OH, OW) output
    gradient and the patch matrix ``cols`` the forward made: (input gradient,
    or None without ``input_grad``; weight gradient ``cols @ gt``; bias
    gradient)."""
    gt = g.transpose(0, 2, 3, 1).reshape(-1, w.shape[0])
    dw = (cols @ gt).T.reshape(w.shape)
    dx = conv_input_vjp(g, w, x_shape, stride, padding) if input_grad else None
    return dx, dw, g.sum(axis=(0, 2, 3))


def conv2d(x: Node, w: Node, b: Node, stride: int, padding: int) -> Node:
    """Batched 2-D convolution: (B,C,H,W) * (O,C,kh,kw) + (O,) -> (B,O,OH,OW).

    Every product is one 2-D matmul against the channel-major patch matrix
    ``cols`` of :func:`im2col` or its transpose, a view: ``cols.T @ wmat.T``
    forward (:func:`conv_forward`), ``cols @ gt`` for the weight and
    ``wmat.T @ gm`` for the patches (:func:`conv_input_vjp`), where
    ``wmat = w.reshape(O, -1)`` and ``gt`` (B*OH*OW, O) and ``gm``
    (O, B*OH*OW) hold the output gradient.

    The forward and weight products put output positions on the rows
    because, for small operands, OpenBLAS rounds the two orientations
    differently; this one matches earlier releases bit for bit on the cnn3
    and cnn7 layers at every batch size checked.  The patch product is
    channel-major so that :func:`col2im` reads each tap's block as one
    contiguous (C, B*OH*OW) slab.

    The patch kernels work on stride-phase planes: each tap's block is one
    shifted slab of the plane it reads, with the few wrapped rows and columns
    (the strips) written or added separately.  Every patch entry is a copy
    and every input-gradient element sums its taps in row-major order, so
    the plane split changes no bit of any result.
    """
    xv, wv, bv = x.value, w.value, b.value
    if xv.ndim != 4 or wv.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-D input/kernel, got {xv.shape}, {wv.shape}")
    oc = wv.shape[0]
    if bv.shape != (oc,):
        raise ShapeError(f"conv2d: bias {bv.shape} for {oc} output channels")
    out, cols = conv_forward(xv, wv, bv, stride, padding)
    return x.tape.node("conv2d", (x, w, b), out,
                       lambda g: conv_vjp(g, wv, cols, xv.shape, stride, padding))


# ---------------------------------------------------------------------------
# Fused interval helper: radius through a label-elided affine layer
# ---------------------------------------------------------------------------

def elided_abs_linear(delta: Node, w: Node, idx) -> Node:
    """Radius map of a final affine layer elided per sample.

    value[b, k] = sum_n delta[b, n] * |w[k, n] - w[idx[b], n]|

    The per-sample row subtraction cannot be split into separate primitives
    because the absolute value binds the subtraction and the product.
    """
    dv, wv = delta.value, w.value
    if dv.ndim != 2 or wv.ndim != 2 or dv.shape[1] != wv.shape[1]:
        raise ShapeError(f"elided_abs_linear: delta {dv.shape}, weight {wv.shape}")
    idx = np.asarray(idx, dtype=np.intp)
    if idx.shape != (dv.shape[0],):
        raise ShapeError(f"elided_abs_linear: labels {idx.shape} for batch {dv.shape[0]}")
    diff, absdiff = elided_weight_diffs(wv, idx)
    if delta.tape.kink_tol is not None:
        delta.tape._note_kinks(absdiff)
    out = np.einsum("bn,bkn->bk", dv, absdiff, optimize=True)
    return delta.tape.node("elided_abs_linear", (delta, w), out,
                           lambda g: elided_abs_linear_vjp(g, dv, diff, absdiff, idx))


def elided_weight_diffs(wv, idx):
    """The (B, K, n) row differences ``w[k] - w[idx[b]]`` and their absolute
    values, which :func:`elided_abs_linear` contracts with the radius."""
    diff = wv[None, :, :] - wv[idx][:, None, :]
    return diff, np.abs(diff)


def elided_abs_linear_vjp(g, dv, diff, absdiff, idx):
    """Backward of :func:`elided_abs_linear` at radius ``dv`` for the (B, K)
    output gradient ``g``: (radius gradient, weight gradient)."""
    dd = np.einsum("bk,bkn->bn", g, absdiff, optimize=True)
    signed = np.sign(diff) * dv[:, None, :]         # d out[b,k] / d diff[b,k,n]
    per_bkn = g[:, :, None] * signed
    dw = per_bkn.sum(axis=0)
    np.subtract.at(dw, idx, per_bkn.sum(axis=1))
    return dd, dw


# ---------------------------------------------------------------------------
# Backward sweep
# ---------------------------------------------------------------------------

def backward(tape: Tape, root: Node, wanted=None) -> dict[int, np.ndarray]:
    """Reverse-accumulate gradients of a scalar root over the whole tape.

    Returns a map node id -> gradient array; nodes the root does not reach
    get zeros.  Each returned array is a fresh C-contiguous copy, shared with
    no other.  ``wanted`` (an iterable of node ids) restricts the returned
    map and lets consumed intermediate gradients be freed during the sweep,
    which matters for large batched tapes.  Multiple sweeps over one tape
    are independent (no state is mutated), so several roots can be
    differentiated in turn.
    """
    if root.tape is not tape:
        raise ValueError("root does not belong to this tape")
    if root.value.shape != ():
        raise ValueError(f"backward needs a scalar root, got shape {root.value.shape}")
    keep = None if wanted is None else set(wanted)
    # Gradients are kept as the rules return them, uncopied: no rule writes
    # into its gradient argument and accumulation makes a new array.  So the
    # sweep copies only what it returns, where sharing would show: both
    # inputs of an ``add`` get one array, and a transpose returns a view.
    grads: dict[int, np.ndarray] = {root.id: np.asarray(1.0)}
    out: dict[int, np.ndarray] = {}
    for node in reversed(tape.nodes[: root.id + 1]):
        g = grads.get(node.id)
        if g is None or node.backward_rule is None:
            continue
        if keep is not None:
            del grads[node.id]  # fully consumed below
            if node.id in keep:
                out[node.id] = g
        for inp, ig in zip(node.inputs, node.backward_rule(g)):
            if ig.shape != inp.value.shape:
                raise ShapeError(
                    f"{node.op}: backward produced {ig.shape} for input of shape "
                    f"{inp.value.shape}"
                )
            acc = grads.get(inp.id)
            grads[inp.id] = ig if acc is None else acc + ig
    if keep is None:
        keep, out = range(len(tape.nodes)), grads
    else:
        out.update((nid, grads[nid]) for nid in keep if nid in grads)
    return {nid: np.array(out[nid], order="C") if nid in out
            else np.zeros_like(tape.nodes[nid].value) for nid in keep}
