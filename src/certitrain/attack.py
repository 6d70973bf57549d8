"""PGD attacks over input balls and latent boxes, plus small-box selection.

All attacks are batched over axis 0 and draw only from the generator (or
generators) the caller passes, so they are deterministic given (config, rng).
Every restart of every row runs in one batched ascent: the restarts are
stacked on a leading axis, so a network pass sees R * B rows.  The
multi-estimator latent attack runs one maximization per wrong class,
batching all (restart, sample, target) rows through the classifier together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interval import BoxBounds, box_from_ball
from .net import Network, forward_backward_input, forward_batch

__all__ = [
    "AttackConfig",
    "pgd_input",
    "pgd_latent",
    "sabr_select_region",
    "margin_targets",
    "ce_rows",
]


@dataclass(frozen=True)
class AttackConfig:
    steps: int = 8
    restarts: int = 1
    objective: object = "cross_entropy"  # or ("logit_diff", target_index)
    check_projection: bool = False

    def __post_init__(self):
        if self.steps < 1 or self.restarts < 1:
            raise ValueError(f"steps and restarts must be >= 1, got steps={self.steps}, "
                             f"restarts={self.restarts}")


def ce_rows(logits, labels):
    """(cross-entropy lse(o) - o_y, lse(o)) per row of (B, K) logits."""
    m = logits.max(axis=1)
    lse = np.log(np.exp(logits - m[:, None]).sum(axis=1)) + m
    return lse - logits[np.arange(logits.shape[0]), labels], lse


def _ce_objective(labels):
    """Per-row cross-entropy and its logit gradient softmax(o) - e_y."""
    labels = np.asarray(labels, dtype=np.intp)

    def seed(logits):
        vals, lse = ce_rows(logits, labels)
        g = np.exp(logits - lse[:, None])
        g[np.arange(logits.shape[0]), labels] -= 1.0
        return vals, g

    return seed


def _logit_diff_objective(targets, labels):
    targets = np.asarray(targets, dtype=np.intp)
    labels = np.asarray(labels, dtype=np.intp)

    def seed(logits):
        rows = np.arange(logits.shape[0])
        vals = logits[rows, targets] - logits[rows, labels]
        g = np.zeros_like(logits)
        g[rows, targets] += 1.0
        g[rows, labels] -= 1.0
        return vals, g

    return seed


def _objective_targets(cfg: AttackConfig, labels):
    """Per-row targets of a ``("logit_diff", t)`` objective; None for cross-entropy."""
    if cfg.objective == "cross_entropy":
        return None
    if isinstance(cfg.objective, tuple) and cfg.objective[0] == "logit_diff":
        return np.broadcast_to(np.asarray(cfg.objective[1], dtype=np.intp), labels.shape)
    raise ValueError(f"unknown attack objective {cfg.objective!r}")


def _starts(rng, shape):
    """Uniform [0, 1) draws of ``shape`` = (R, B, ...): from one generator, the
    stream of R draws of (B, ...) made one after another; from a sequence of B
    generators, generator i gives row i the stream of R draws of (1, ...)."""
    if isinstance(rng, np.random.Generator):
        return rng.uniform(size=shape)
    if len(rng) != shape[1]:
        raise ValueError(f"{len(rng)} generators for {shape[1]} rows")
    row = (shape[0], 1) + shape[2:]
    return np.concatenate([g.uniform(size=row) for g in rng], axis=1)


def _signed_step(x, g, buf, eta, lo, hi):
    """In place: x <- clip(x + eta * sign(g), lo, hi), rounded as np.clip rounds
    it.  ``x``, ``g`` and ``buf`` are (R, ...) views that ``eta``, ``lo`` and
    ``hi`` broadcast against."""
    np.sign(g, out=buf)
    buf *= eta
    x += buf
    np.maximum(x, lo, out=x)
    np.minimum(x, hi, out=x)


def _check_projection(x, lo, hi):
    """Raise if an (R, ...) iterate left its box; a NaN coordinate counts as
    an infinite escape."""
    over = np.nan_to_num(np.maximum(lo - x, x - hi), nan=np.inf)
    if over.max() > 0.0:
        at = np.unravel_index(np.argmax(over), over.shape)
        raise RuntimeError(f"PGD iterate escaped its box by {over[at]:.3g} "
                           f"(restart {at[0]}, index {tuple(map(int, at[1:]))})")


def _ascend(net, start, lo, hi, labels, targets, cfg, rng):
    """Batched PGD: the best-objective iterate per row.

    ``labels`` (and ``targets`` for the logit-difference objective; None means
    cross-entropy) have the rows' shape ``lead``; ``lo`` and ``hi`` are
    ``lead + feat``, where ``feat`` is the input shape of ``layers[start]``,
    and may be broadcast views.  ``rng`` is one generator, or one per leading
    row (sequence of ``lead[0]``).  All ``cfg.restarts`` restarts run as one
    pass over R * prod(lead) rows, restart-major; each row keeps the first
    maximum over its (restart, step) sequence, as R sequential runs with a
    strict ``>`` would.  The step per coordinate is the box's width over
    ``cfg.steps``.  The last of the ``steps + 1`` evaluations is
    forward-only, because its gradient is never used.
    """
    lead = np.shape(labels)
    r, stop = cfg.restarts, len(net.layers)
    shape = (r,) + lo.shape
    feat = shape[1 + len(lead):]
    eta = (hi - lo) / cfg.steps
    xv = lo + _starts(rng, shape) * (hi - lo)   # (R, *lead, *feat)
    x = xv.reshape((-1,) + feat)                # the same memory as R * prod(lead) rows
    tile = lambda a: np.broadcast_to(a, (r,) + lead).reshape(-1)
    seed_fn = (_ce_objective(tile(labels)) if targets is None
               else _logit_diff_objective(tile(targets), tile(labels)))
    best_x, best_val = x.copy(), None
    buf = np.empty(shape)
    for step in range(cfg.steps + 1):
        last = step == cfg.steps
        if last:
            vals, _ = seed_fn(forward_batch(net, x, start=start, stop=stop))
        else:
            vals, g = forward_backward_input(net, x, seed_fn, start=start, stop=stop)
        if best_val is None:
            best_val = vals.copy()
        else:
            better = vals > best_val
            np.copyto(best_val, vals, where=better)
            np.copyto(best_x, x, where=better.reshape((-1,) + (1,) * len(feat)))
        if last:
            break
        _signed_step(xv, g.reshape(shape), buf, eta, lo, hi)
        if cfg.check_projection:
            _check_projection(xv, lo, hi)
    # np.argmax takes the first maximum, as the strict ">" does within a restart
    pick = np.argmax(best_val.reshape((r,) + lead), axis=0)
    pick = pick.reshape((1,) + lead + (1,) * len(feat))
    return np.take_along_axis(best_x.reshape(shape), pick, axis=0)[0]


def pgd_input(net: Network, x, y, eps, cfg: AttackConfig, rng):
    """Strongest found perturbation of ``x`` within the eps-ball
    intersected with the input domain.

    Batched: ``x`` is (B, ...), ``y`` an int array (B,).  The returned points
    lie inside the ball; per sample the best-objective iterate over all
    restarts and steps is returned.  All restarts of all samples run as one
    batched ascent (see :func:`_ascend`).  ``rng`` is one generator shared by
    the batch, or a sequence of B generators, one per sample: then sample i
    gets exactly the points that attacking it alone with ``rng[i]`` gives
    (up to the last bits of the BLAS products, which may round a one-row
    product differently from a many-row one).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    box = box_from_ball(x, eps)
    if eps == 0.0:
        return x.copy()
    return _ascend(net, 0, box.lo, box.hi, y, _objective_targets(cfg, y), cfg, rng)


def margin_targets(num_classes, y):
    """All wrong classes per sample: (B, K-1) target matrix."""
    y = np.asarray(y, dtype=np.intp)
    k = num_classes
    grid = np.tile(np.arange(k), (y.size, 1))
    keep = grid != y[:, None]
    return grid[keep].reshape(y.size, k - 1)


def pgd_latent(net: Network, box: BoxBounds, y, cfg: AttackConfig, multi=True, *, rng):
    """Latent attacks over the classifier within an embedding-space box.

    ``box`` holds batched bounds on the extractor output, (B, ...latent).
    Multi mode maximizes the logit difference of every wrong class (target
    minus label) with a separate point; it returns (points (B, T, ...latent),
    targets (B, T)).  Single mode maximizes one cross-entropy objective and
    returns (B, ...latent).  Every returned point lies inside the box;
    degenerate coordinates (lo == hi) stay frozen at the bound.  All restarts
    and (in multi mode) all targets run as one batched ascent; the box is
    broadcast over both axes, not copied.  ``rng`` is one generator, which draws as R
    sequential restarts over the (B * T) rows would, or one per sample.
    """
    if net.split_index >= len(net.layers):
        raise ValueError("network has an empty classifier; latent attack is undefined")
    y = np.asarray(y, dtype=np.intp)
    lo, hi = box.lo, box.hi
    start = net.split_index
    if not multi:
        return _ascend(net, start, lo, hi, y, None, cfg, rng)

    targets = margin_targets(net.num_classes, y)
    b, t = targets.shape
    per_target = lambda a: np.broadcast_to(a[:, None], (b, t) + a.shape[1:])
    best = _ascend(net, start, per_target(lo), per_target(hi),
                   np.broadcast_to(y[:, None], (b, t)), targets, cfg, rng)
    return best, targets


def sabr_select_region(net: Network, x, y, eps, tau, cfg: AttackConfig, rng) -> BoxBounds:
    """Small adversarially-centered box inside the eps-ball.

    Attacks within the shrunk ball B(x, eps - tau) to pick a center, then
    returns :func:`box_from_ball` (center, tau) intersected with B(x, eps),
    which guarantees the region is a subset of the full ball's box.
    """
    if not 0 < tau <= eps:
        raise ValueError(f"tau must lie in (0, eps]; got tau={tau}, eps={eps}")
    x = np.asarray(x, dtype=np.float64)
    shrink = eps - tau
    if shrink == 0.0:
        center = x.copy()
    else:
        center = pgd_input(net, x, y, shrink, cfg, rng=rng)
    small = box_from_ball(center, tau)
    return BoxBounds(np.maximum(small.lo, x - eps), np.minimum(small.hi, x + eps))
