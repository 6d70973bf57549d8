"""Training losses and the gradient-scaled product objective.

Every builder bounds the input box it is given, a :class:`BoxBounds`: the
eps-ball from :func:`interval.box_from_ball`, or SABR's small region from
:func:`attack.sabr_select_region`, which makes SABR and STAPS the IBP and
TAPS losses over that region.  Batched graph builders return per-sample loss
nodes (shape (B,)); scalar convenience wrappers expose the single-sample
operations on a one-row box.  The TAPS builders
share the extractor's interval propagation between the sound (full interval)
and attacked (latent PGD + connector) branches so gradients for the extractor
accumulate from both, which is exactly how the product objective trains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attack import AttackConfig, pgd_latent
from .connector import ConnectorParams, connector_node
from .interval import BoxBounds, elided_bounds_on_tape, input_box_nodes, propagate_box_on_tape
from .net import Network, ReLU, forward_on_tape, lift_params, param_grads

__all__ = [
    "LossKind",
    "LOSS_TAGS",
    "ce_loss",
    "margin_loss",
    "ibp_loss",
    "taps_loss",
    "combined_gradient",
    "fast_regularizer",
    "l1_penalty",
]

LOSS_TAGS = ("natural", "pgd_at", "ibp", "taps_single", "taps_multi", "sabr", "staps")


@dataclass(frozen=True)
class LossKind:
    """Selection and hyperparameters for one training objective."""

    tag: str = "taps_multi"
    w_taps: float = 5.0  # gradient scaling weight; alpha = w / (1 + w); inf allowed
    connector: ConnectorParams = field(default_factory=ConnectorParams)
    attack: AttackConfig = field(default_factory=AttackConfig)
    tau_ratio: float | None = None  # small-box radius as a fraction of eps

    def __post_init__(self):
        if self.tag not in LOSS_TAGS:
            raise ValueError(f"unknown loss tag {self.tag!r}")
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
        return self.tag in ("taps_single", "taps_multi", "staps")

    @property
    def multi(self):
        return self.tag != "taps_single"


# ---------------------------------------------------------------------------
# Elementary losses
# ---------------------------------------------------------------------------

def ce_terms(logits: T.Node, y) -> T.Node:
    """Per-sample cross-entropy from logits via the logit-difference form."""
    return bound_ce_terms(T.sub_col_pick(logits, y), y)


def bound_ce_terms(upper_diffs: T.Node, y) -> T.Node:
    """Per-sample CE over upper logit-difference bounds (label column dropped)."""
    return T.log1p_sum_exp_rows(T.drop_col(upper_diffs, y))


def ce_loss(logits, y) -> float:
    """Scalar cross-entropy for one sample's logits."""
    logits = np.asarray(logits, dtype=np.float64)
    tape = T.Tape()
    node = ce_terms(tape.constant(logits[None]), np.asarray([y]))
    return float(node.value[0])


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
    latent_box = BoxBounds(lo_v, hi_v)

    if multi:
        if latent_provider is None:
            points, targets = pgd_latent(net, latent_box, y, attack, multi=True, rng=rng)
        else:
            points, targets = latent_provider(lo_v, hi_v, y, rng)
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
        if latent_provider is None:
            points = pgd_latent(net, latent_box, y, attack, multi=False, rng=rng)
        else:
            points = latent_provider(lo_v, hi_v, y, rng)
        z_node = connector_node(latent.lo, latent.hi, points, connector)
        logits = forward_on_tape(net, params, z_node, start=split)
        attacked_terms = ce_terms(logits, y)

    return bound_terms, attacked_terms


# ---------------------------------------------------------------------------
# Scalar convenience wrappers (single sample, one-row box)
# ---------------------------------------------------------------------------

def ibp_loss(net: Network, box: BoxBounds, y) -> float:
    tape = T.Tape()
    params = lift_params(tape, net)
    terms = ibp_loss_terms(tape, net, params, box, np.asarray([y]))
    return float(terms.value[0])


def taps_loss(net: Network, box: BoxBounds, y, multi=True, connector=None, attack=None, *,
              rng, latent_provider=None) -> float:
    tape = T.Tape()
    params = lift_params(tape, net)
    _, attacked = paired_loss_terms(
        tape, net, params, box, np.asarray([y]),
        multi=multi, connector=connector, attack=attack, rng=rng,
        latent_provider=latent_provider,
    )
    return float(attacked.value[0])


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
    ``net.param_arrays()``; diagnostics carries the branch means.
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
        worst = float((attacked_terms.value - bound_terms.value).max())
        raise RuntimeError(f"attacked loss exceeds sound bound by {worst:.3e}")

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
    diag = dict(
        bound_loss=float(mean_bound.value),
        attacked_loss=float(mean_attacked.value),
        product=float(mean_bound.value) * float(mean_attacked.value),
    )
    return grads, diag


# ---------------------------------------------------------------------------
# Annealing-phase stability regularizer
# ---------------------------------------------------------------------------

def fast_regularizer_node(tape, net, params, input_box: BoxBounds, lam,
                          collected=None) -> T.Node:
    """Box-tightness plus ReLU-balance penalty used during the eps ramp.

    Tightness: mean over linear layers of max(0, radius_sum / input_radius_sum - 1).
    Balance: per ReLU layer, a soft instability measure mean(max(0, radius -
    |center|)) plus the squared mean of clamp(center, -1, 1), which is zero
    when active and inactive units balance out.  Both terms are nonnegative
    and differentiable on the tape.

    ``collected`` can reuse the per-layer boxes of an existing propagation of
    ``input_box`` (one interval pass serves both the loss and the penalty).
    """
    if lam == 0.0:
        return tape.constant(np.asarray(0.0))
    if collected is None:
        tb = input_box_nodes(tape, input_box)
        collected = []
        propagate_box_on_tape(net, params, tb, stop=len(net.layers) - 1, collect=collected)
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


def fast_regularizer(net: Network, box: BoxBounds, lam) -> float:
    """Standalone value of the annealing regularizer for a batch's box."""
    tape = T.Tape()
    params = lift_params(tape, net)
    node = fast_regularizer_node(tape, net, params, box, lam)
    return float(node.value)


def l1_penalty(arrays, lam):
    """(value, gradients) of lam * sum|theta|; sign(0) = 0."""
    if lam == 0.0:
        return 0.0, [np.zeros_like(a) for a in arrays]
    value = lam * float(sum(np.abs(a).sum() for a in arrays))
    return value, [lam * np.sign(a) for a in arrays]
