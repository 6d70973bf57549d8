"""Gradient connector: routes loss gradients from latent attack points back
to the box bounds they were searched in.

The connector is a tape node whose forward value is the latent adversarial
example (treated as data) and whose backward imposes pseudo-partials onto the
lower/upper bound nodes, coordinatewise only.  The rectified-linear rule with
parameter ``c`` interpolates between a binary indicator (c=0) and a linear
split (c=1); a degenerate coordinate (lo == hi) passes the gradient through
with weight 0.5 to each bound, which makes the connector an identity for the
backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T

__all__ = ["ConnectorParams", "connector_partials", "connector_node"]


@dataclass(frozen=True)
class ConnectorParams:
    c: float = 0.5
    tolerance_eq: float = 1e-9

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"connector c must lie in [0, 1], got {self.c}")
        if self.tolerance_eq < 0:
            raise ValueError("tolerance_eq must be nonnegative")


def connector_partials(lo, hi, z_hat, params: ConnectorParams):
    """Pseudo-partials (d z/d lo, d z/d hi), elementwise over any shape.

    Raises if any coordinate of ``z_hat`` falls outside [lo, hi]: that means
    the attack's projection was violated upstream.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    z_hat = np.asarray(z_hat, dtype=np.float64)
    if np.any(z_hat < lo) or np.any(z_hat > hi):
        worst = float(np.maximum(lo - z_hat, z_hat - hi).max())
        raise ValueError(f"latent point escapes its box by {worst:.3e}")

    width = hi - lo
    degenerate = width <= 0.0
    if params.c == 0.0:
        tol = params.tolerance_eq
        d_lo = ((z_hat - lo) <= tol).astype(np.float64)
        d_hi = ((hi - z_hat) <= tol).astype(np.float64)
    else:
        # normalize by the width before dividing by c so subnormal widths
        # cannot underflow the band to zero
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rel_lo = (z_hat - lo) / width
            rel_hi = (hi - z_hat) / width
            d_lo = np.maximum(0.0, 1.0 - rel_lo / params.c)
            d_hi = np.maximum(0.0, 1.0 - rel_hi / params.c)
    d_lo = np.where(degenerate, 0.5, d_lo)
    d_hi = np.where(degenerate, 0.5, d_hi)
    return d_lo, d_hi


def connector_node(lo: T.Node, hi: T.Node, z_hat, params: ConnectorParams) -> T.Node:
    """Insert the connector into the tape between bound nodes and a latent point.

    Forward value is ``z_hat``; backward multiplies the incoming gradient by
    the cached partials, diagonally (no cross-coordinate flow).  Several
    connector nodes on the same bounds (multi-estimator attacks) accumulate
    additively through the normal tape sweep.
    """
    z_hat = T.as_array(z_hat)
    if z_hat.shape != lo.value.shape or z_hat.shape != hi.value.shape:
        raise T.ShapeError(
            f"connector shapes differ: bounds {lo.value.shape}/{hi.value.shape}, "
            f"point {z_hat.shape}"
        )
    d_lo, d_hi = connector_partials(lo.value, hi.value, z_hat, params)
    if lo.tape.kink_tol is not None and 0.0 < params.c:
        # The rectified band edge is a kink w.r.t. bound perturbations.
        width = hi.value - lo.value
        band = params.c * width
        edge = np.minimum(np.abs(z_hat - lo.value - band), np.abs(hi.value - z_hat - band))
        lo.tape._note_kinks(np.where(width > 0, edge, np.inf))
    return lo.tape.node(
        "connector", (lo, hi), z_hat, lambda g: (g * d_lo, g * d_hi)
    )
