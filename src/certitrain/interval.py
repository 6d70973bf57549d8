"""Interval (Box) propagation through networks or prefixes.

Boxes are lower/upper pairs batched on axis 0: numpy arrays in
:class:`BoxBounds` (concrete pass) or tape nodes in :class:`TapedBox`
(differentiable pass).  Each layer's transfer is its own ``box`` or
``box_on_tape`` (see :mod:`certitrain.net`): affine and conv layers propagate
the equivalent center/radius form (two linear maps: W on the center, |W| on
the radius), which is exact per coordinate, and ReLU maps bounds
elementwise.  This module chains those transfers over a network.  The final
affine layer can be elided per sample label so the propagated quantities are
upper/lower bounds on logit differences.  Both passes do the same
arithmetic, so their bounds agree bit for bit.  Training differentiates the
concrete pass: :func:`propagate_box` can keep every layer's box and forward
products, from which each layer's ``box_vjp`` runs the reverse pass without
a tape (see :func:`train._bound_loss_grads`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import DOMAIN
from .net import Network

__all__ = [
    "BoxBounds",
    "box_from_ball",
    "propagate_box",
    "elided_bounds",
    "ibp_bounds",
    "TapedBox",
    "propagate_box_on_tape",
    "elided_bounds_on_tape",
]


@dataclass(frozen=True)
class BoxBounds:
    """Axis-aligned bounds; ``lo <= hi`` elementwise."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if self.lo.shape != self.hi.shape:
            raise ValueError(f"box shapes differ: {self.lo.shape} vs {self.hi.shape}")
        if np.any(self.lo > self.hi):
            raise ValueError("box has lo > hi")

    @property
    def center(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def radius(self):
        return 0.5 * (self.hi - self.lo)


def box_from_ball(x, eps) -> BoxBounds:
    """L-infinity ball around ``x`` intersected with the input domain."""
    if eps < 0:
        raise ValueError(f"negative radius {eps}")
    x = np.asarray(x, dtype=np.float64)
    return BoxBounds(np.maximum(x - eps, DOMAIN[0]), np.minimum(x + eps, DOMAIN[1]))


def propagate_box(net: Network, box: BoxBounds, stop=None, collect=None, kept=None) -> BoxBounds:
    """Concrete :func:`propagate_box_on_tape` through layers[:stop];
    ``collect`` receives (layer_index, BoxBounds), and ``kept`` each layer's
    dict of forward products for its ``box_vjp``."""
    for i, layer in enumerate(net.layers[:stop]):
        products = None if kept is None else {}
        box = BoxBounds(*layer.box(box.lo, box.hi, products))
        if collect is not None:
            collect.append((i, box))
        if kept is not None:
            kept.append(products)
    return box


def elided_bounds(net: Network, box: BoxBounds, labels) -> BoxBounds:
    """Concrete :func:`elided_bounds_on_tape`: bounds on logit differences
    with the final affine layer elided per sample label."""
    last = net.layers[-1]
    box = propagate_box(net, box, stop=-1)
    raw = box.center @ last.weight.T.copy() + last.bias
    labels = T._check_labels("elided_bounds", raw, labels)
    c_out = raw - raw[np.arange(len(labels)), labels][:, None]
    absdiff = T.elided_weight_diffs(last.weight, labels)[1]
    r_out = np.einsum("bn,bkn->bk", box.radius, absdiff, optimize=True)
    return BoxBounds(c_out - r_out, c_out + r_out)


@dataclass
class TapedBox:
    """Box whose bounds are differentiable tape nodes (batched, axis 0)."""

    lo: T.Node
    hi: T.Node


def propagate_box_on_tape(net: Network, params, box: TapedBox, start=0, stop=None,
                          collect=None) -> TapedBox:
    """Propagate a batched box through layers[start:stop] on the tape.

    ``collect``, if given, is a list that receives (layer_index, TapedBox)
    after every layer (used by the stability regularizer).
    """
    stop = len(net.layers) if stop is None else stop
    for i in range(start, stop):
        box = TapedBox(*net.layers[i].box_on_tape(box.lo, box.hi, params[i]))
        if collect is not None:
            collect.append((i, box))
    return box


def elided_bounds_on_tape(net: Network, params, box: TapedBox, labels,
                          start=0) -> TapedBox:
    """Bounds on logit differences: propagate to the end with the final
    affine layer elided per sample label.

    The elided center is the plain affine center minus its own label column;
    the elided radius needs the fused |W_i - W_y| primitive.
    """
    last = len(net.layers) - 1
    box = propagate_box_on_tape(net, params, box, start=start, stop=last)
    center = T.scale(T.add(box.lo, box.hi), 0.5)
    radius = T.scale(T.sub(box.hi, box.lo), 0.5)
    w, b = params[last]["weight"], params[last]["bias"]
    raw = T.add_bias(T.matmul(center, T.transpose(w)), b)
    c_out = T.sub_col_pick(raw, labels)
    r_out = T.elided_abs_linear(radius, w, labels)
    return TapedBox(T.sub(c_out, r_out), T.add(c_out, r_out))


def input_box_nodes(tape: T.Tape, box: BoxBounds) -> TapedBox:
    return TapedBox(tape.constant(box.lo), tape.constant(box.hi))


def ibp_bounds(net: Network, x, y, eps) -> BoxBounds:
    """Concrete IBP bounds on one sample's logit differences (label ``y``)."""
    box = box_from_ball(np.asarray(x, dtype=np.float64)[None], eps)
    out = elided_bounds(net, box, [y])
    return BoxBounds(out.lo[0], out.hi[0])
