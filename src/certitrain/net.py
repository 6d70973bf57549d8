"""Layers (one class per kind), networks, architectures, initialization, and
concrete evaluation.

Each layer kind is one class, the only place that says how the kind
behaves: its parameters (``param_names``, ``params``, ``lift`` onto a tape,
``with_params``), ``out_shape``, the batched numpy ``forward`` and
``input_vjp``, the taped ``forward_on_tape``, the interval transfers ``box``
(numpy) and ``box_on_tape``, the numpy reverse pass of the box transfer
``box_vjp`` (input adjoints and parameter gradients, from the forward
products ``box`` keeps), ``affine_operator`` on flattened features (None
without parameters) and its checkpoint ``descriptor``; :data:`LAYER_KINDS`
maps a descriptor's kind back to the class.  The affine numpy and taped
forwards keep separate kernels (``x @ W.T`` and the tape's matmul against a
transposed copy can differ in the last bits), and the box transfer and its
reverse pass use the taped kernel, on the same transposed copies; the conv
layer runs one kernel, :func:`tensor.conv_forward`, on both paths, and its
reverse pass reuses the forward's patch matrices.  So ``box`` and
``box_vjp`` equal the taped transfer and its backward bit for bit.

A :class:`Network` is an ordered list of layers plus a ``split_index``
separating the feature extractor ``layers[:split_index]`` from the classifier
``layers[split_index:]``.  Networks are immutable: parameter updates go
through :meth:`Network.with_params`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T

__all__ = [
    "Affine",
    "Conv2d",
    "ReLU",
    "Flatten",
    "LAYER_KINDS",
    "Network",
    "build_architecture",
    "init_params",
    "forward_batch",
    "elide_final_layer",
    "lift_params",
    "param_grads",
    "forward_on_tape",
]


class Layer:
    """Defaults shared by the layer kinds: no parameters, shape kept, monotone."""

    kind = ""
    param_names = ()

    def params(self):
        return [getattr(self, name) for name in self.param_names]

    def lift(self, tape: T.Tape):
        """One tape leaf per parameter array, by name; None without parameters."""
        return {name: tape.leaf(arr, op="param")
                for name, arr in zip(self.param_names, self.params())} or None

    def with_params(self, arrays):
        return replace(self, **dict(zip(self.param_names, arrays)))

    def out_shape(self, in_shape):
        return in_shape

    def box(self, lo, hi, kept=None):
        """Interval transfer of the batched box (lo, hi); ``kept``, a dict if
        given, receives the forward products :meth:`box_vjp` reuses."""
        return self.forward(lo), self.forward(hi)

    def box_vjp(self, lo, hi, g_lo, g_hi, kept, inputs=True):
        """Reverse of :meth:`box` at the box (lo, hi), from the adjoints of its
        output bounds and the ``kept`` dict its forward filled: the adjoints of
        the input bounds (None unless ``inputs``) and the parameter gradients,
        in ``param_names`` order.  Each adjoint repeats the backward rules of
        :meth:`box_on_tape`'s nodes on the same operands, summed in the
        tape's order, so the two agree bit for bit."""
        if not inputs:
            return None, None, []
        return self.input_vjp(g_lo, lo), self.input_vjp(g_hi, hi), []

    def box_on_tape(self, lo, hi, p):
        return self.forward_on_tape(lo, p), self.forward_on_tape(hi, p)

    def affine_operator(self, in_shape):
        return None

    def descriptor(self):
        return {"kind": self.kind}

    @classmethod
    def from_descriptor(cls, desc, arrays):
        return cls(*arrays)


@dataclass(frozen=True)
class Affine(Layer):
    weight: np.ndarray  # (out, in)
    bias: np.ndarray    # (out,)

    kind = "affine"
    param_names = ("weight", "bias")

    @property
    def out_features(self):
        return self.weight.shape[0]

    def out_shape(self, in_shape):
        if in_shape != (self.weight.shape[1],):
            raise ValueError(f"affine expects input {self.weight.shape[1]}, got {in_shape}")
        return (self.weight.shape[0],)

    def forward(self, x):
        out = x @ self.weight.T
        out += self.bias
        return out

    def input_vjp(self, g, x):
        return g @ self.weight

    def forward_on_tape(self, x, p):
        return T.add_bias(T.matmul(x, T.transpose(p["weight"])), p["bias"])

    def box(self, lo, hi, kept=None):
        # transposed copies, as T.transpose makes: a product against the
        # ``.T`` view can differ from the taped bound in the last bits
        center = (lo + hi) * 0.5
        radius = (hi - lo) * 0.5
        wt, abs_wt = self.weight.T.copy(), np.abs(self.weight).T.copy()
        c_out = center @ wt
        c_out += self.bias
        r_out = radius @ abs_wt
        if kept is not None:
            kept.update(center=center, radius=radius, wt=wt, abs_wt=abs_wt)
        return c_out - r_out, c_out + r_out

    def box_vjp(self, lo, hi, g_lo, g_hi, kept, inputs=True):
        g_c, g_r = g_hi + g_lo, g_hi - g_lo
        grads = [(kept["radius"].T @ g_r).T * np.sign(self.weight) + (kept["center"].T @ g_c).T,
                 g_c.sum(axis=0)]
        if not inputs:
            return None, None, grads
        # center = (lo + hi) * 0.5 and radius = (hi - lo) * 0.5; the tape
        # adds the radius's adjoint first
        g_a, g_s = (g_c @ kept["wt"].T) * 0.5, (g_r @ kept["abs_wt"].T) * 0.5
        return g_a - g_s, g_s + g_a, grads

    def box_on_tape(self, lo, hi, p):
        center = T.scale(T.add(lo, hi), 0.5)
        radius = T.scale(T.sub(hi, lo), 0.5)
        c_out = T.add_bias(T.matmul(center, T.transpose(p["weight"])), p["bias"])
        r_out = T.matmul(radius, T.transpose(T.abs_(p["weight"])))
        return T.sub(c_out, r_out), T.add(c_out, r_out)

    def affine_operator(self, in_shape):
        return self.weight, self.bias

    def descriptor(self):
        return {"kind": self.kind, "out": self.weight.shape[0], "in": self.weight.shape[1]}


@dataclass(frozen=True)
class Conv2d(Layer):
    """NCHW convolution lowered to one matmul against the channel-major patch
    matrix (C*kh*kw, B*OH*OW) of :func:`tensor.im2col`; the numpy ``forward``
    and ``input_vjp`` share their kernel with the taped :func:`tensor.conv2d`,
    so the two paths agree bit for bit.  The patch kernels copy or add each
    kernel tap as one shifted slab of a stride-phase plane of the input, and
    fix up the wrapped strips apart; see :func:`tensor.im2col` and
    :func:`tensor.col2im` for the layout and the summation order that keeps
    the results equal to a tap-by-tap scatter."""

    weight: np.ndarray  # (out_ch, in_ch, kh, kw)
    bias: np.ndarray    # (out_ch,)
    stride: int = 1
    padding: int = 0

    kind = "conv2d"
    param_names = ("weight", "bias")

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.weight.shape[1]:
            raise ValueError(f"conv expects (C,H,W) with C={self.weight.shape[1]}, got {in_shape}")
        oh, ow = T._conv_geometry((1,) + in_shape, self.weight.shape, self.stride, self.padding)
        return (self.weight.shape[0], oh, ow)

    def forward(self, x):
        return T.conv_forward(x, self.weight, self.bias, self.stride, self.padding)[0]

    def input_vjp(self, g, x):
        return T.conv_input_vjp(g, self.weight, x.shape, self.stride, self.padding)

    def forward_on_tape(self, x, p):
        return T.conv2d(x, p["weight"], p["bias"], self.stride, self.padding)

    def box(self, lo, hi, kept=None):
        center = (lo + hi) * 0.5
        radius = (hi - lo) * 0.5
        abs_w = np.abs(self.weight)
        c_out, cols_c = T.conv_forward(center, self.weight, self.bias, self.stride, self.padding)
        r_out, cols_r = T.conv_forward(radius, abs_w, np.zeros_like(self.bias), self.stride,
                                       self.padding)
        if kept is not None:
            kept.update(cols_c=cols_c, cols_r=cols_r, abs_w=abs_w)
        return c_out - r_out, c_out + r_out

    def box_vjp(self, lo, hi, g_lo, g_hi, kept, inputs=True):
        g_c, g_r = g_hi + g_lo, g_hi - g_lo
        geometry = (lo.shape, self.stride, self.padding, inputs)
        dx_r, dw_r, _ = T.conv_vjp(g_r, kept["abs_w"], kept["cols_r"], *geometry)
        dx_c, dw_c, db = T.conv_vjp(g_c, self.weight, kept["cols_c"], *geometry)
        grads = [dw_r * np.sign(self.weight) + dw_c, db]
        if not inputs:
            return None, None, grads
        g_a, g_s = dx_c * 0.5, dx_r * 0.5
        return g_a - g_s, g_s + g_a, grads

    def box_on_tape(self, lo, hi, p):
        center = T.scale(T.add(lo, hi), 0.5)
        radius = T.scale(T.sub(hi, lo), 0.5)
        w = p["weight"]
        zero_bias = w.tape.constant(np.zeros_like(self.bias))
        c_out = T.conv2d(center, w, p["bias"], self.stride, self.padding)
        r_out = T.conv2d(radius, T.abs_(w), zero_bias, self.stride, self.padding)
        return T.sub(c_out, r_out), T.add(c_out, r_out)

    def affine_operator(self, in_shape):
        """The matrix is read off the zero-bias layer applied to basis vectors,
        so every entry is a weight copied exactly rather than a rounded difference."""
        d = int(np.prod(in_shape))
        bare = replace(self, bias=np.zeros_like(self.bias))
        m = bare.forward(np.eye(d).reshape((d,) + tuple(in_shape))).reshape(d, -1).T
        return m, np.repeat(self.bias, m.shape[0] // self.bias.size)

    def descriptor(self):
        return {"kind": self.kind, "shape": list(self.weight.shape),
                "stride": self.stride, "padding": self.padding}

    @classmethod
    def from_descriptor(cls, desc, arrays):
        return cls(*arrays, desc["stride"], desc["padding"])


@dataclass(frozen=True)
class ReLU(Layer):
    kind = "relu"

    def forward(self, x):
        return np.maximum(x, 0.0)

    def input_vjp(self, g, x):
        return g * (x > 0.0)

    def forward_on_tape(self, x, p):
        return T.relu(x)


@dataclass(frozen=True)
class Flatten(Layer):
    kind = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x):
        return x.reshape(x.shape[0], -1)

    def input_vjp(self, g, x):
        return g.reshape(x.shape)

    def forward_on_tape(self, x, p):
        return T.reshape(x, (x.value.shape[0], -1))


LAYER_KINDS = {cls.kind: cls for cls in (Affine, Conv2d, ReLU, Flatten)}


class Network:
    """Immutable layer stack with an extractor/classifier split."""

    def __init__(self, layers, split_index, num_classes, input_shape):
        layers = tuple(layers)
        if not layers or not isinstance(layers[-1], Affine):
            raise ValueError("network must end with an affine layer")
        if layers[-1].out_features != num_classes:
            raise ValueError(
                f"final affine has {layers[-1].out_features} outputs, expected {num_classes}"
            )
        if not 0 <= split_index <= len(layers):
            raise ValueError(f"split_index {split_index} out of range")
        shape = tuple(input_shape)
        self._layer_shapes = [shape]
        for layer in layers:
            shape = layer.out_shape(shape)
            self._layer_shapes.append(shape)
        self.layers = layers
        self.split_index = int(split_index)
        self.num_classes = int(num_classes)
        self.input_shape = tuple(input_shape)

    def shape_after(self, layer_index):
        return self._layer_shapes[layer_index]

    def params(self):
        """Yield (layer_index, name, array) in declaration order."""
        for i, layer in enumerate(self.layers):
            for name, arr in zip(layer.param_names, layer.params()):
                yield i, name, arr

    def param_arrays(self):
        return [arr for _, _, arr in self.params()]

    def with_params(self, arrays) -> "Network":
        """Rebind parameter arrays (same declaration order) into a new network."""
        it = iter(arrays)
        new_layers = [layer.with_params([next(it) for _ in layer.param_names])
                      for layer in self.layers]
        if next(it, None) is not None:
            raise ValueError("too many parameter arrays")
        return Network(new_layers, self.split_index, self.num_classes, self.input_shape)


# ---------------------------------------------------------------------------
# Architectures
# ---------------------------------------------------------------------------

def _stack(input_shape, spec, num_classes):
    """The layers of ``spec``, a list of ('conv', out_ch, k, stride, pad) and
    ('fc', width) entries, each followed by a ReLU, then the final affine
    layer; a Flatten precedes the first affine layer on image-shaped input."""
    layers = []
    shape = tuple(input_shape)
    for entry in [*spec, ("fc", num_classes)]:
        if entry[0] == "conv":
            _, oc, k, stride, pad = entry
            layers.append(Conv2d(np.zeros((oc, shape[0], k, k)), np.zeros(oc), stride, pad))
        else:
            if len(shape) > 1:
                layers.append(Flatten())
                shape = layers[-1].out_shape(shape)
            layers.append(Affine(np.zeros((entry[1], shape[0])), np.zeros(entry[1])))
        shape = layers[-1].out_shape(shape)
        layers.append(ReLU())
    return layers[:-1]  # no ReLU after the final affine layer


def split_for_classifier_relus(layers, classifier_relu_count):
    """Split index such that the classifier holds exactly the last N ReLU layers.

    The split lands immediately before the affine/conv layer feeding the
    first classifier ReLU, so the classifier always starts with a linear map.
    A count of zero puts the whole network in the extractor.
    """
    relu_positions = [i for i, l in enumerate(layers) if isinstance(l, ReLU)]
    if classifier_relu_count < 0 or classifier_relu_count > len(relu_positions):
        raise ValueError(
            f"classifier_relu_count={classifier_relu_count} but network has "
            f"{len(relu_positions)} ReLU layers"
        )
    if classifier_relu_count == 0:
        return len(layers)
    first_relu = relu_positions[-classifier_relu_count]
    split = first_relu - 1
    while split > 0 and not layers[split].param_names:
        split -= 1
    if not layers[split].param_names:
        raise ValueError("no linear layer precedes the requested classifier ReLU")
    return split


# The convolutional architectures as ``_stack`` specs; the mlp's spec is one
# fc entry per hidden width.
_CONV_SPECS = {
    "cnn3": [("conv", 16, 4, 2, 1), ("conv", 32, 4, 2, 1), ("fc", 100)],
    "cnn7": [("conv", 64, 3, 1, 1), ("conv", 64, 3, 1, 1), ("conv", 128, 3, 2, 1),
             ("conv", 128, 3, 1, 1), ("conv", 128, 3, 1, 1), ("fc", 512)],
}
ARCHITECTURES = ("mlp", *_CONV_SPECS)


def _spec(name, hidden):
    if name == "mlp":
        return [("fc", width) for width in hidden]
    if name not in _CONV_SPECS:
        raise ValueError(f"unknown architecture {name!r} (expected one of {ARCHITECTURES})")
    return _CONV_SPECS[name]


def relu_layer_count(name, hidden=(128, 128)):
    """ReLU layers of a named architecture: the most classifier ReLUs it has."""
    return len(_spec(name, hidden))


def build_architecture(name, input_shape, num_classes, classifier_relu_count, hidden=(128, 128)):
    """Assemble a named architecture with the requested classifier split.

    ``mlp``: affine stack with the given hidden widths.
    ``cnn3``: Conv(16,4x4,s2,p1) - Conv(32,4x4,s2,p1) - FC(100) - FC(out), 3 ReLUs.
    ``cnn7``: five 3x3 convs (64,64,128,128,128; stride 2 on the third) and
    two FC layers (512, out), 6 ReLUs.  No batch normalization anywhere.
    """
    input_shape = tuple(int(s) for s in input_shape)
    layers = _stack(input_shape, _spec(name, hidden), num_classes)
    split = split_for_classifier_relus(layers, classifier_relu_count)
    return Network(layers, split, num_classes, input_shape)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

# Mean |W| per fan-in unit for the box-stability init.  Box radii grow by
# roughly fan_in * E|W| through an affine layer and shrink by ~2x through a
# centered ReLU, so values near 2 keep radii flat with depth; we stay a
# little below to keep the post-affine radius within 2x of the input radius.
_STABLE_MEAN_ABS = 1.8


INIT_MODES = ("ibp_stable", "kaiming")


def init_params(net: Network, seed, mode="ibp_stable") -> Network:
    """Draw fresh parameters: zero-mean normal weights, zero biases.

    ``ibp_stable`` scales weights so interval radii stay roughly constant
    with depth; ``kaiming`` uses variance 2/fan_in.
    """
    if mode not in INIT_MODES:
        raise ValueError(f"unknown init mode {mode!r} (expected one of {INIT_MODES})")
    rng = np.random.default_rng(seed)
    arrays = []
    for layer in net.layers:
        if not layer.param_names:
            continue
        fan_in = int(np.prod(layer.weight.shape[1:]))
        if mode == "kaiming":
            sigma = np.sqrt(2.0 / fan_in)
        else:
            # E|N(0, s^2)| = s * sqrt(2/pi); solve for E|W| = _STABLE_MEAN_ABS / fan_in.
            sigma = _STABLE_MEAN_ABS * np.sqrt(np.pi / 2.0) / fan_in
        arrays.append(rng.normal(0.0, sigma, size=layer.weight.shape))
        arrays.append(np.zeros_like(layer.bias))
    return net.with_params(arrays)


# ---------------------------------------------------------------------------
# Concrete evaluation
# ---------------------------------------------------------------------------

def forward_batch(net: Network, x, start=0, stop=None) -> np.ndarray:
    """Evaluate layers[start:stop] on a batched input (no tape)."""
    x = np.asarray(x, dtype=np.float64)
    for layer in net.layers[start : stop if stop is not None else len(net.layers)]:
        x = layer.forward(x)
    return x


def elide_final_layer(net: Network, y: int) -> Network:
    """Fold the logit-difference map into the final affine layer.

    Row i of the new layer computes logit_i - logit_y, so output y is
    identically zero and an upper bound below zero on every other output
    certifies the label.
    """
    if not 0 <= y < net.num_classes:
        raise ValueError(f"label {y} out of range for {net.num_classes} classes")
    last = net.layers[-1]
    weight = last.weight - last.weight[y][None, :]
    bias = last.bias - last.bias[y]
    layers = net.layers[:-1] + (Affine(weight, bias),)
    return Network(layers, net.split_index, net.num_classes, net.input_shape)


def forward_backward_input(net: Network, x, seed_grad, start=0, stop=None):
    """Forward through layers[start:stop] plus the input gradient only.

    Attack inner loops need d(objective)/d(input) but never parameter
    gradients; skipping the weight-gradient products roughly halves the cost
    of a PGD step.  ``seed_grad(out) -> (objective_values, d_out)`` supplies
    the output-side gradient.  Returns (objective_values, d_input).
    """
    stop = len(net.layers) if stop is None else stop
    x = np.asarray(x, dtype=np.float64)
    acts = [x]
    for layer in net.layers[start:stop]:
        acts.append(layer.forward(acts[-1]))
    values, g = seed_grad(acts[-1])
    for i in range(stop - 1, start - 1, -1):
        g = net.layers[i].input_vjp(g, acts[i - start])
    return values, g


# ---------------------------------------------------------------------------
# Tape plumbing
# ---------------------------------------------------------------------------

def lift_params(tape: T.Tape, net: Network):
    """Create one leaf node per parameter array; returns per-layer node dicts
    (None for a layer without parameters)."""
    return [layer.lift(tape) for layer in net.layers]


def param_grads(tape: T.Tape, params, root: T.Node):
    """Gradients of ``root`` with respect to the nodes of :func:`lift_params`,
    aligned with ``net.param_arrays()``."""
    ids = [node.id for entry in params if entry for node in entry.values()]
    grad_map = T.backward(tape, root, wanted=ids)
    return [grad_map[nid] for nid in ids]


def forward_on_tape(net: Network, params, x: T.Node, start=0) -> T.Node:
    """Differentiable batched forward through layers[start:].

    ``params`` comes from :func:`lift_params` (so parameter gradients are
    addressable); ``x`` is a (B, ...) node on the same tape.
    """
    out = x
    for layer, p in zip(net.layers[start:], params[start:]):
        out = layer.forward_on_tape(out, p)
    return out
