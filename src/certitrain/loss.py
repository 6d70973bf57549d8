"""Training losses and the gradient-scaled product objective.

Every builder bounds the input box it is given, a :class:`BoxBounds`: the
eps-ball from :func:`interval.box_from_ball`, or SABR's small region from
:func:`attack.sabr_select_region`, which makes SABR and STAPS the IBP and
TAPS losses over that region.  The graph builders return per-sample loss
nodes (shape (B,)).  The TAPS builders share the extractor's interval
propagation between the sound (full interval) and attacked (latent PGD +
connector) branches so gradients for the extractor accumulate from both,
which is exactly how the product objective trains.  The bound loss and the
annealing regularizer also have numpy reverse passes (:func:`elided_ce_vjp`,
:func:`fast_regularizer_vjp`) that training runs in place of their graphs,
with the same arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attack import AttackConfig, pgd_latent
from .connector import ConnectorParams, connector_node
from .interval import (BoxBounds, elided_bounds_on_tape, elided_layer, input_box_nodes,
                       propagate_box_on_tape)
from .net import Network, ReLU, forward_on_tape, lift_params, param_grads

__all__ = [
    "LossKind",
    "LOSS_TAGS",
    "NumericError",
    "margin_loss",
    "combined_gradient",
    "l1_penalty",
]


class NumericError(RuntimeError):
    """Raised when a training loss or gradient turns non-finite, or an
    attacked loss exceeds its sound bound."""


LOSS_TAGS = ("natural", "pgd-at", "ibp", "taps", "taps-single", "sabr", "staps")


@dataclass(frozen=True)
class LossKind:
    """Selection and hyperparameters for one training objective."""

    tag: str = "taps"
    w_taps: float = 5.0  # gradient scaling weight; alpha = w / (1 + w); inf allowed
    connector: ConnectorParams = field(default_factory=ConnectorParams)
    attack: AttackConfig = field(default_factory=AttackConfig)
    tau_ratio: float | None = None  # small-box radius as a fraction of eps

    def __post_init__(self):
        if self.tag not in LOSS_TAGS:
            raise ValueError(f"unknown loss {self.tag!r} (choose from {sorted(LOSS_TAGS)})")
        if not (self.w_taps >= 0):  # also rejects NaN
            raise ValueError("w_taps must be >= 0 (inf allowed)")
        if self.tag in ("sabr", "staps"):
            if self.tau_ratio is None or not 0 < self.tau_ratio <= 1:
                raise ValueError(f"{self.tag} needs tau_ratio in (0, 1]")
        elif self.tau_ratio is not None:
            raise ValueError(f"tau_ratio is only meaningful for sabr/staps, not {self.tag}")

    @property
    def alpha(self):
        if math.isinf(self.w_taps):
            return 1.0
        return self.w_taps / (1.0 + self.w_taps)

    @property
    def uses_product(self):
        return self.tag in ("taps", "taps-single", "staps")

    @property
    def multi(self):
        return self.tag != "taps-single"


# ---------------------------------------------------------------------------
# Elementary losses
# ---------------------------------------------------------------------------

def ce_terms(logits: T.Node, y) -> T.Node:
    """Per-sample cross-entropy from logits via the logit-difference form."""
    return bound_ce_terms(T.sub_col_pick(logits, y), y)


def bound_ce_terms(upper_diffs: T.Node, y) -> T.Node:
    """Per-sample CE over upper logit-difference bounds (label column dropped)."""
    return T.log1p_sum_exp_rows(T.drop_col(upper_diffs, y))


def margin_loss(upper_diffs, y):
    """Maximum non-label logit-difference bound; < 0 certifies the sample.

    ``upper_diffs`` is one sample's (K,) vector with a scalar label, or (N, K)
    rows with one label per row, which gives the (N,) row maxima.
    """
    diffs = np.asarray(upper_diffs, dtype=np.float64)
    return np.where(np.arange(diffs.shape[-1]) == np.asarray(y)[..., None], -np.inf,
                    diffs).max(axis=-1)


# ---------------------------------------------------------------------------
# Batched graph builders
# ---------------------------------------------------------------------------

def ibp_loss_terms(tape, net, params, box: BoxBounds, y, collect=None) -> T.Node:
    """Per-sample CE over elided interval bounds of ``box``."""
    last = len(net.layers) - 1
    out = propagate_box_on_tape(net, params, input_box_nodes(tape, box), stop=last, collect=collect)
    bounds = elided_bounds_on_tape(net, params, out, y, start=last)
    return bound_ce_terms(bounds.hi, y)


def paired_loss_terms(tape, net, params, box: BoxBounds, y, *, multi=True,
                      connector=None, attack=None, rng, latent_provider=None):
    """Build (bound_terms, attacked_terms) sharing the extractor propagation.

    ``bound_terms`` is the sound CE over full interval propagation of
    ``box``; ``attacked_terms`` replaces the classifier stage with latent
    adversarial points routed through the gradient connector.  With an empty
    classifier the attacked branch *is* the bound branch (same node), which
    realizes the degeneration to plain interval training.
    """
    connector = connector or ConnectorParams()
    attack = attack or AttackConfig()
    y = np.asarray(y, dtype=np.intp)
    split = net.split_index
    tb = input_box_nodes(tape, box)

    if split >= len(net.layers):
        bound = bound_ce_terms(elided_bounds_on_tape(net, params, tb, y).hi, y)
        return bound, bound

    latent = propagate_box_on_tape(net, params, tb, stop=split)
    bounds = elided_bounds_on_tape(net, params, latent, y, start=split)
    bound_terms = bound_ce_terms(bounds.hi, y)

    lo_v, hi_v = latent.lo.value, latent.hi.value
    found = (latent_provider(lo_v, hi_v, y, rng) if latent_provider is not None
             else pgd_latent(net, BoxBounds(lo_v, hi_v), y, attack, multi=multi, rng=rng))

    if multi:
        points, targets = found
        b, t = targets.shape
        lo_rep = T.repeat_rows(latent.lo, t)
        hi_rep = T.repeat_rows(latent.hi, t)
        z_flat = points.reshape((b * t,) + points.shape[2:])
        z_node = connector_node(lo_rep, hi_rep, z_flat, connector)
        logits = forward_on_tape(net, params, z_node, start=split)
        diffs = T.sub_col_pick(logits, np.repeat(y, t))
        picked = T.pick_cols(diffs, targets.reshape(-1))
        attacked_terms = T.log1p_sum_exp_rows(T.reshape(picked, (b, t)))
    else:
        z_node = connector_node(latent.lo, latent.hi, found, connector)
        logits = forward_on_tape(net, params, z_node, start=split)
        attacked_terms = ce_terms(logits, y)

    return bound_terms, attacked_terms


# ---------------------------------------------------------------------------
# Combined objective
# ---------------------------------------------------------------------------

def combined_gradient(net: Network, box: BoxBounds, y, kind: LossKind, rng,
                      latent_provider=None):
    """Batch gradient of the product objective with alpha-scaled branches.

    Batch means of the two loss families are taken first; each branch's
    gradient is then weighted by the *value* of the other mean (excluded from
    differentiation):

        grad = 2a * grad(mean_attacked) * mean_bound
             + (2 - 2a) * grad(mean_bound) * mean_attacked,  a = w / (1 + w)

    Returns (grads, diagnostics): ``grads`` aligned with
    ``net.param_arrays()``; diagnostics carries the branch means.  Raises
    :class:`NumericError` when a row's attacked loss exceeds its sound bound
    by more than 1e-9.
    """
    if not kind.uses_product:
        raise ValueError(f"combined_gradient applies to product losses, not {kind.tag}")
    y = np.asarray(y, dtype=np.intp)
    if box.lo.shape[0] == 0:
        raise ValueError("empty batch")

    tape = T.Tape()
    params = lift_params(tape, net)
    bound_terms, attacked_terms = paired_loss_terms(
        tape, net, params, box, y,
        multi=kind.multi, connector=kind.connector, attack=kind.attack,
        rng=rng, latent_provider=latent_provider,
    )
    if np.any(attacked_terms.value > bound_terms.value + 1e-9):
        row = int(np.argmax(attacked_terms.value - bound_terms.value))
        raise NumericError(f"attacked loss {attacked_terms.value[row]:.17g} above its sound "
                           f"bound {bound_terms.value[row]:.17g} in batch row {row}")

    mean_bound = T.mean_all(bound_terms)
    mean_attacked = T.mean_all(attacked_terms)
    alpha = kind.alpha
    attacked_branch = T.scale(
        T.mul(mean_attacked, tape.constant(mean_bound.value)), 2.0 * alpha
    )
    bound_branch = T.scale(
        T.mul(mean_bound, tape.constant(mean_attacked.value)), 2.0 - 2.0 * alpha
    )
    grads = param_grads(tape, params, T.add(attacked_branch, bound_branch))
    tape.nodes.clear()  # Node.tape points back: free the graph now, not at the next gc
    diag = dict(
        bound_loss=float(mean_bound.value),
        attacked_loss=float(mean_attacked.value),
        product=float(mean_bound.value) * float(mean_attacked.value),
    )
    return grads, diag


# ---------------------------------------------------------------------------
# Annealing-phase stability regularizer
# ---------------------------------------------------------------------------

def fast_regularizer_node(tape, net, params, input_box: BoxBounds, lam, collected) -> T.Node:
    """Box-tightness plus ReLU-balance penalty used during the eps ramp.

    Tightness: mean over linear layers of max(0, radius_sum / input_radius_sum - 1).
    Balance: per ReLU layer, a soft instability measure mean(max(0, radius -
    |center|)) plus the squared mean of clamp(center, -1, 1), which is zero
    when active and inactive units balance out.  Both terms are nonnegative
    and differentiable on the tape.

    ``collected`` holds the per-layer boxes of an existing propagation of
    ``input_box`` (one interval pass serves both the loss and the penalty).
    """
    input_radius_sum = float(input_box.radius.sum())

    tight_terms = []
    balance_terms = []
    prev_box = None
    for idx, box_nodes in collected:
        layer = net.layers[idx]
        if layer.param_names:
            radius = T.scale(T.sub(box_nodes.hi, box_nodes.lo), 0.5)
            if input_radius_sum > 0:
                ratio = T.scale(T.sum_all(radius), 1.0 / input_radius_sum)
                tight_terms.append(T.relu(T.add_scalar(ratio, -1.0)))
        if isinstance(layer, ReLU) and prev_box is not None:
            center = T.scale(T.add(prev_box.hi, prev_box.lo), 0.5)
            radius = T.scale(T.sub(prev_box.hi, prev_box.lo), 0.5)
            unstable = T.mean_all(T.relu(T.sub(radius, T.abs_(center))))
            lean = T.mean_all(T.clamp(center, -1.0, 1.0))
            balance_terms.append(T.add(unstable, T.mul(lean, lean)))
        prev_box = box_nodes

    def _mean(nodes):
        if not nodes:
            return tape.constant(np.asarray(0.0))
        acc = nodes[0]
        for n in nodes[1:]:
            acc = T.add(acc, n)
        return T.scale(acc, 1.0 / len(nodes))

    return T.scale(T.add(_mean(tight_terms), _mean(balance_terms)), lam)


# ---------------------------------------------------------------------------
# Numpy reverse passes of the bound loss and the regularizer
# ---------------------------------------------------------------------------

def elided_ce_vjp(last, box: BoxBounds, y):
    """Batch mean of :func:`ibp_loss_terms` from ``box``, the bounds that
    enter the final affine layer ``last``, with its reverse pass: (mean,
    adjoint of ``box.lo``, adjoint of ``box.hi``, [weight grad, bias grad]).

    The numpy twin of :func:`bound_ce_terms` and the mean over the elided
    layer of :func:`interval.elided_layer`, whose kept forward products the
    adjoints read: each adjoint repeats its node's arithmetic, in the
    tape's order.
    """
    kept = {}
    hi = elided_layer(last, box, y, kept).hi
    y = kept["labels"]
    keep = T.drop_col_keep(hi, y)
    dropped = hi[np.arange(len(y))[:, None], keep]
    terms = T.log1p_sum_exp(dropped)

    g_terms = np.full(terms.shape, 1.0 / terms.size)
    g_hi = T.drop_col_vjp(T.log1p_sum_exp_vjp(g_terms, dropped, terms), keep, hi.shape)
    g_radius, g_weight = T.elided_abs_linear_vjp(g_hi, kept["radius"], kept["diff"],
                                                 kept["absdiff"], y)
    g_raw = T.sub_col_pick_vjp(g_hi, y)
    grads = [g_weight + (kept["center"].T @ g_raw).T, g_raw.sum(axis=0)]
    g_a, g_s = (g_raw @ kept["wt"].T) * 0.5, g_radius * 0.5
    return float(terms.mean()), g_a - g_s, g_s + g_a, grads


def fast_regularizer_vjp(net, input_box: BoxBounds, lam, collected, g):
    """:func:`fast_regularizer_node` in numpy: its value, and for the output
    adjoint ``g`` the adjoints it sends to the boxes of ``collected`` (a
    numpy :func:`interval.propagate_box` of ``input_box``), as
    {layer index: (lo adjoint, hi adjoint)}.

    Every term repeats its node's arithmetic, and each box sums the
    adjoints of the terms that read it in reverse creation order, as the
    tape does: a ReLU's balance term before its input's tightness term.
    """
    input_radius_sum = float(input_box.radius.sum())
    tight, balance = [], []  # (box index, value, what its adjoint reads)
    prev = None
    for idx, box in collected:
        layer = net.layers[idx]
        if layer.param_names and input_radius_sum > 0:
            radius = (box.hi - box.lo) * 0.5
            excess = radius.sum() * (1.0 / input_radius_sum) - 1.0
            tight.append((idx, np.maximum(excess, 0.0), (excess > 0.0, radius.shape)))
        if isinstance(layer, ReLU) and prev is not None:
            center = (prev[1].hi + prev[1].lo) * 0.5
            gap = (prev[1].hi - prev[1].lo) * 0.5 - np.abs(center)
            lean = np.clip(center, -1.0, 1.0).mean()
            balance.append((prev[0], np.maximum(gap, 0.0).mean() + lean * lean, (center, gap, lean)))
        prev = (idx, box)

    def _mean(terms):  # summed left to right, as fast_regularizer_node's chain of adds
        values = [value for _, value, _ in terms]
        return sum(values[1:], values[0]) * (1.0 / len(values)) if values else 0.0

    value = (_mean(tight) + _mean(balance)) * lam
    g_t, g_b = g * lam * (1.0 / max(1, len(tight))), g * lam * (1.0 / max(1, len(balance)))
    adjoints = {}

    def send(idx, *terms):
        acc = adjoints.get(idx)
        for lo_term, hi_term in terms:
            acc = (lo_term, hi_term) if acc is None else (acc[0] + lo_term, acc[1] + hi_term)
        adjoints[idx] = acc

    # reverse creation order: a ReLU's balance term was built after the
    # tightness term of its input box
    for idx, _, (center, gap, lean) in balance:
        inv = 1.0 / center.size
        g_center = (g_b * lean + g_b * lean) * inv * ((center >= -1.0) & (center <= 1.0))
        g_gap = g_b * inv * (gap > 0.0)
        g_center = (g_center + (-g_gap) * np.sign(center)) * 0.5
        g_radius = g_gap * 0.5
        send(idx, (-g_radius, g_radius), (g_center, g_center))
    for idx, _, (mask, shape) in tight:
        g_radius = np.full(shape, g_t * mask * (1.0 / input_radius_sum) * 0.5)
        send(idx, (-g_radius, g_radius))
    return float(value), adjoints


def l1_penalty(arrays, lam):
    """(value, gradients) of lam * sum|theta|; sign(0) = 0."""
    value = lam * float(sum(np.abs(a).sum() for a in arrays))
    return value, [lam * np.sign(a) for a in arrays]
