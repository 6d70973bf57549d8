"""Differentiable interval (Box) propagation through networks or prefixes.

Boxes are lower/upper tensor pairs.  Each layer's transfer is its own
``box_on_tape`` (see :mod:`certitrain.net`): affine and conv layers propagate
the equivalent center/radius form (two linear maps: W on the center, |W| on
the radius), which is exact per coordinate, and ReLU maps bounds
elementwise.  This module chains those transfers over a network.  The final
affine layer can be elided per sample label so the propagated quantities are
upper/lower bounds on logit differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .net import Network, lift_params

__all__ = [
    "BoxBounds",
    "box_from_ball",
    "propagate_interval",
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

    def sample(self, n, rng):
        u = rng.uniform(size=(n,) + self.lo.shape)
        return self.lo[None] + u * (self.hi - self.lo)[None]


def box_from_ball(x, eps, clip=(0.0, 1.0)) -> BoxBounds:
    """L-infinity ball around ``x``, optionally intersected with a value range."""
    if eps < 0:
        raise ValueError(f"negative radius {eps}")
    x = np.asarray(x, dtype=np.float64)
    lo, hi = x - eps, x + eps
    if clip is not None:
        lo = np.maximum(lo, clip[0])
        hi = np.minimum(hi, clip[1])
    return BoxBounds(lo, hi)


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


def input_box_nodes(tape: T.Tape, box: BoxBounds, batched=False) -> TapedBox:
    lo, hi = box.lo, box.hi
    if not batched:
        lo, hi = lo[None], hi[None]
    return TapedBox(tape.constant(lo), tape.constant(hi))


def propagate_interval(layer, box: BoxBounds, batched=False) -> BoxBounds:
    """Sound one-layer propagation on concrete bounds (no gradients kept)."""
    tape = T.Tape()
    tb = input_box_nodes(tape, box, batched=batched)
    lo, hi = layer.box_on_tape(tb.lo, tb.hi, layer.lift(tape))
    lo, hi = lo.value, hi.value
    if not batched:
        lo, hi = lo[0], hi[0]
    return BoxBounds(lo, hi)


def ibp_bounds(net: Network, x, y, eps, upto="elided_logits", clip=(0.0, 1.0)) -> BoxBounds:
    """Concrete IBP bounds for one sample.

    ``upto='extractor_output'`` stops at the split; ``'elided_logits'``
    propagates through the whole network with the final layer elided by ``y``.
    """
    box = box_from_ball(np.asarray(x, dtype=np.float64), eps, clip)
    tape = T.Tape()
    params = lift_params(tape, net)
    tb = input_box_nodes(tape, box)
    if upto == "extractor_output":
        out = propagate_box_on_tape(net, params, tb, stop=net.split_index)
    elif upto == "elided_logits":
        out = elided_bounds_on_tape(net, params, tb, np.asarray([y]))
    else:
        raise ValueError(f"unknown upto mode {upto!r}")
    return BoxBounds(out.lo.value[0], out.hi.value[0])
