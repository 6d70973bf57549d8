"""Certification, exact small-network margin oracle, and paired-estimator
variance experiments.

The oracle enumerates activation patterns of interval-unstable ReLUs only
(stable ones are fixed by a sound prescreen).  Within one pattern the network
is affine, so each elided-logit maximum over the input box intersected with
the pattern's halfspaces is an LP; with no branched constraints the maximum
is the closed-form corner value.  Budgets turn excessive instances into an
explicit Unknown, never a wrong number; so does an LP solver failure.

Before a pattern's LPs, numpy tests skip the LPs whose answers are already
known, as MILP verifiers' presolve does (Tjeng, Xiao & Tedrake, ICLR 2019;
Ehlers, ATVA 2017): bound tightening of the input box against the pattern's
halfspaces rejects patterns that are empty, a corner bound over the
tightened box skips classes that cannot beat the best margin so far or a
margin an attack has already reached (as branch and bound prunes with its
best attack point: Bunel et al., JMLR 2020), and a class whose maximising
box corner meets every halfspace is answered by that corner, the point the
solver would return.  All allow ten times the solver's feasibility
tolerance, so margins are those of solving every LP, bit for bit, and
``n_patterns`` still counts every enumerated pattern.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import tensor as T
from .attack import AttackConfig, pgd_input, pgd_latent, sabr_select_region
from .interval import BoxBounds, box_from_ball, elided_bounds, ibp_bounds, propagate_box
from .loss import margin_loss, paired_loss_terms
from .net import Network, ReLU, elide_final_layer, forward_batch, lift_params, param_grads

__all__ = [
    "certify_ibp",
    "OracleResult",
    "exact_margin_oracle",
    "RelaxedResult",
    "certify_relaxed",
    "margin_upper_bound",
    "LP_TOLERANCE",
    "method_bound",
    "pgd_margins",
    "adversarial_accuracy",
    "variance_theorem_check",
    "VarianceReport",
    "SampleVerdict",
    "verdict_json_line",
]


# ---------------------------------------------------------------------------
# Plain interval certification
# ---------------------------------------------------------------------------

def certify_ibp(net: Network, x, y, eps):
    """(certified, upper logit-difference vector) for one sample."""
    hi = ibp_bounds(net, x, y, eps).hi
    return margin_loss(hi, y) < 0.0, hi


# ---------------------------------------------------------------------------
# Exact margin oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    status: str                  # "exact" or "unknown"
    margin: float | None
    n_unstable: int
    n_patterns: int
    reason: str = ""

    @property
    def exact(self):
        return self.status == "exact"


def _interval_of_rows(m, v, center, radius):
    c = m @ center + v
    r = np.abs(m) @ radius
    return c - r, c + r


# The pattern prunes relax every row and bound by ten times HiGHS's primal
# feasibility tolerance (1e-7), by which a point it returns may break a row or
# a bound; the spare 9e-7 absorbs the float rounding of the tightening sweep.
_PRUNE_MARGIN = 1e-6
# Later passes reject little more: on 100 random small instances, 1 pass left
# 1,262 LPs, 4 passes 977 and 10 passes 959.
_TIGHTEN_PASSES = 4


def _tighten_box(a_ub, b_ub, lo, hi):
    """A box holding every x with a_ub @ x <= b_ub + margin and
    lo - margin <= x <= hi + margin (margin = ``_PRUNE_MARGIN``), or None
    when that set is empty.

    Feasibility-based bound tightening, each pass one Jacobi sweep over all
    rows and columns at once: with s_k = b_k - (minimum of row k over the
    box), row k caps x_j at lo_j + s_k / a_kj where a_kj > 0 and raises it
    to hi_j + s_k / a_kj where a_kj < 0.  A point that breaks every row and
    bound by at most the solver's tolerance keeps s_k >= 9e-7 and stays
    inside the box on every pass, so a negative s_k or an empty box proves
    that HiGHS can find no such point and must report the LP infeasible.
    """
    b = b_ub + _PRUNE_MARGIN
    lo, hi = lo - _PRUNE_MARGIN, hi + _PRUNE_MARGIN
    pos, neg = a_ub > 0.0, a_ub < 0.0
    # a zero a_kj gives a zero step, which the masks below drop
    divisor = np.where(pos | neg, a_ub, np.inf)
    for _ in range(_TIGHTEN_PASSES):
        slack = b - (a_ub * np.where(pos, lo, hi)).sum(axis=1)
        if slack.min() < 0.0:
            return None
        step = slack[:, None] / divisor
        lo, hi = (np.maximum(lo, hi + np.where(neg, step, -np.inf).max(axis=0)),
                  np.minimum(hi, lo + np.where(pos, step, np.inf).min(axis=0)))
        if (lo > hi).any():
            return None
    return lo, hi


def _corner_bounds(m, v, lo, hi):
    """Per row, a float64 value that the oracle's evaluation of m @ x + v
    cannot exceed at any x in [lo, hi].

    The corner value m @ c + |m| @ r + v is the exact maximum; the pad,
    four times the rounding bound of one (d + 2)-term sum, covers the
    rounding of the corner value itself (c, r and two products) and that of
    the oracle's ``m[i] @ x + v[i]``.
    """
    center, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
    abs_m = np.abs(m)
    value = m @ center + abs_m @ radius + v
    return value + 4.0 * _rounding_slack(m.shape[1], abs_m @ _magnitude(lo, hi) + np.abs(v))


# HiGHS's dual feasibility tolerance: an objective coefficient this close to
# zero may leave its coordinate at either bound of an optimal basis.
_DUAL_TOLERANCE = 1e-7


def _corner_is_optimal(m, corners, a_ub, b_ub):
    """Per row k of m, whether HiGHS, maximising m[k] @ x over the input box
    and a_ub @ x <= b_ub, must return the box's maximising corner corners[k].

    It must when the corner meets every row with ``_PRUNE_MARGIN`` to spare,
    so no row binds, and every nonzero m[k, j] is at least the dual
    tolerance in size, so the optimal basis holds x_j at the bound its sign
    picks.  A zero m[k, j] may leave x_j anywhere, but adds zero to
    m[k] @ x either way.
    """
    loose = (a_ub @ corners.T <= (b_ub - _PRUNE_MARGIN)[:, None]).all(axis=0)
    tiny = ((m != 0.0) & (np.abs(m) < _DUAL_TOLERANCE)).any(axis=1)
    return loose & ~tiny


def exact_margin_oracle(net: Network, x, y, eps, budget_unstable=20,
                        max_patterns=200_000, reached=None) -> OracleResult:
    """Exact worst-case margin max over the box of max_{i != y} (o_i - o_y).

    Enumerates activation patterns of unstable ReLUs; per pattern solves one
    LP per wrong class (or the corner formula when the pattern imposes no
    constraints).  Returns Unknown when the instance exceeds the budgets or
    an LP fails; ``n_patterns`` counts every enumerated pattern.
    ``reached`` is a margin that some point of the input box is known to
    reach, such as a PGD margin; ``None`` (or a non-finite value) means no
    such point is known.

    Four numpy tests run before a pattern's LPs and only skip LPs whose
    answer is known, so the margin is bit-identical to solving every LP:

    - *Empty patterns.*  ``_tighten_box`` tightens the input box against the
      pattern's halfspaces, every row and bound relaxed by ten times HiGHS's
      feasibility tolerance.  If the box empties, no point is feasible even
      within the solver's tolerance: HiGHS would report status 2 on the
      first class, which ends the pattern, so the pattern ends here.
    - *Dominated classes.*  The relaxed box still holds every point the
      solver may return, rows and bounds broken by up to its tolerance
      included (the widening adds ``|m|_1`` times the margin to the corner
      bound).  When ``_corner_bounds`` over it, rounding pad included, lies
      below the best margin so far, the LP's value cannot raise the
      maximum, and it is skipped.  The tightened box skips more LPs than
      the input box would.
    - *Classes below the reached margin.*  The same corner bound also skips
      a class when it lies below ``reached - _PRUNE_MARGIN * max(1,
      |reached|)``; the slack covers the rounding by which the attack's
      forward pass and this oracle's composed map evaluate the same point
      differently.  Should the walk end below that floor anyway, it runs
      again without it.  Otherwise every skipped class's value lies below
      the final maximum, so margin, status, ``n_patterns`` and reason equal
      plain enumeration bit for bit.  They can differ only where a skipped
      LP would have ended in a solver failure.
    - *Optimal corners.*  The corner of the input box that maximises
      m[i] @ x (``hi0`` where m[i] > 0, else ``lo0``) is the LP's optimum
      when it meets every row with ``_PRUNE_MARGIN`` to spare, and HiGHS
      returns it exactly when no nonzero coefficient of m[i] lies within its
      dual tolerance of zero (``_corner_is_optimal``).  The class's value is
      then m[i] @ corner + v[i], the LP path's own float64 expression on the
      same vector, so it is the LP path's value bit for bit; a zero
      coefficient adds zero wherever the solver leaves its coordinate.

    The LPs that do run get the same rows, right-hand sides, bounds and
    objective in the same order, and the result is a maximum, so margins,
    statuses and counts match plain enumeration as long as HiGHS's
    infeasibility verdict on a pattern does not depend on the objective.
    """
    x = np.asarray(x, dtype=np.float64)
    elided = elide_final_layer(net, y)
    box = box_from_ball(x, eps)
    lo0 = box.lo.reshape(-1)
    hi0 = box.hi.reshape(-1)
    center = 0.5 * (lo0 + hi0)
    radius = 0.5 * (hi0 - lo0)
    d = lo0.size

    # sound prescreen: the layerwise interval pass classifies every ReLU unit
    # against the true (nonlinear) prefix; only straddling units may branch
    collected = []
    propagate_box(elided, BoxBounds(box.lo[None], box.hi[None]), collect=collected)
    relu_units = {}  # relu layer index -> (0/1 mask of units not dead, unstable units)
    for (_, pre), (idx, _) in zip(collected, collected[1:]):
        if isinstance(elided.layers[idx], ReLU):
            active, dead = pre.lo.ravel() >= 0.0, pre.hi.ravel() <= 0.0
            relu_units[idx] = ((~dead).astype(np.float64),
                               np.flatnonzero(~(active | dead)).tolist())
    unstable_count = sum(len(unstable) for _, unstable in relu_units.values())
    if unstable_count > budget_unstable:
        return OracleResult("unknown", None, unstable_count, 0,
                            f"{unstable_count} unstable ReLUs exceed budget {budget_unstable}")

    # affine operators per layer, on flattened features
    ops = [layer.affine_operator(elided.shape_after(i)) for i, layer in enumerate(elided.layers)]
    wrong = [i for i in range(elided.num_classes) if i != y]
    bounds = list(zip(lo0, hi0))
    # the rows a @ x <= b of the current pattern, one per branched unit with
    # pre-activation w @ x + c: -w @ x <= c if active, w @ x <= -c if not.
    # The walk writes row n in place at depth n; a leaf reads the first n.
    a_rows = np.empty((unstable_count, d))
    b_rows = np.empty(unstable_count)

    # a class whose corner bound lies below the floor cannot reach the maximum
    floor = -np.inf
    if reached is not None and np.isfinite(reached):
        floor = reached - _PRUNE_MARGIN * max(1.0, abs(reached))

    def solve_leaf(m, v, n):
        nonlocal best, stop
        if not n:
            mw = m[wrong]
            best = max(best, float((mw @ center + np.abs(mw) @ radius + v[wrong]).max()))
            return
        a_ub, b_ub = a_rows[:n], b_rows[:n]
        tight = _tighten_box(a_ub, b_ub, lo0, hi0)
        if tight is None:  # empty pattern
            return
        mw, vw = m[wrong], v[wrong]
        corners = np.where(mw > 0.0, hi0, lo0)
        answered = _corner_is_optimal(mw, corners, a_ub, b_ub)
        for k, (i, cap) in enumerate(zip(wrong, _corner_bounds(mw, vw, *tight))):
            if cap < best or cap < floor:  # dominated class
                continue
            if answered[k]:  # the LP's own optimum, bit for bit
                best = max(best, float(m[i] @ corners[k] + v[i]))
                continue
            res = linprog(-m[i], A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
            if res.status == 2:  # infeasible pattern
                return
            if res.status != 0:
                stop = f"LP solver status {res.status}"
                return
            best = max(best, float(m[i] @ res.x + v[i]))

    def walk(layer_idx, m, v, n):
        nonlocal patterns, stop
        if stop:
            return
        if layer_idx == len(elided.layers):
            patterns += 1
            if patterns > max_patterns:
                stop = f"pattern count exceeded {max_patterns}"
                return
            solve_leaf(m, v, n)
            return
        if isinstance(elided.layers[layer_idx], ReLU):
            base_mask, unstable = relu_units[layer_idx]
            branch = []
            if unstable:
                lo_pre, hi_pre = _interval_of_rows(m, v, center, radius)
                # the global verdict is authoritative for stable units;
                # globally unstable units may still be resolved by this
                # branch's tighter composed-map interval, otherwise they branch
                base_mask = base_mask.copy()
                for j in unstable:
                    if lo_pre[j] >= 0.0:
                        continue
                    if hi_pre[j] <= 0.0:
                        base_mask[j] = 0.0
                    else:
                        branch.append(j)

            def expand(k, mask_rows, n):
                if stop:
                    return
                if k == len(branch):
                    walk(layer_idx + 1, m * mask_rows[:, None], v * mask_rows, n)
                    return
                j = branch[k]
                # active branch: pre-activation >= 0
                a_rows[n], b_rows[n] = -m[j], v[j]
                expand(k + 1, mask_rows, n + 1)
                # inactive branch: pre-activation <= 0, unit output zeroed
                dead = mask_rows.copy()
                dead[j] = 0.0
                a_rows[n], b_rows[n] = m[j], -v[j]
                expand(k + 1, dead, n + 1)

            expand(0, base_mask, n)
        elif ops[layer_idx] is None:  # no parameters: flattened features pass through
            walk(layer_idx + 1, m, v, n)
        else:
            w, b = ops[layer_idx]
            walk(layer_idx + 1, w @ m, w @ v + b, n)

    best, patterns, stop = -np.inf, 0, ""  # stop: why the enumeration gave up
    walk(0, np.eye(d), np.zeros(d), 0)
    if not stop and best < floor:  # the floor lay above the maximum: walk without it
        floor = -np.inf
        best, patterns = -np.inf, 0
        walk(0, np.eye(d), np.zeros(d), 0)
    if stop:
        return OracleResult("unknown", None, unstable_count, patterns, stop)
    return OracleResult("exact", best, unstable_count, patterns)


# ---------------------------------------------------------------------------
# Relaxed certifier: triangle LP relaxation with branch and bound
# ---------------------------------------------------------------------------
#
# Every bound below holds for the network in real arithmetic on its float64
# weights.  Float error is accounted for a priori: a sum of n products whose
# absolute values add up to S is off by at most gamma_n * S (Higham, Accuracy
# and Stability of Numerical Algorithms, 2002, sec. 3.1), and each result is
# then rounded outward.  LP solutions are never trusted as bounds: the bound
# is evaluated from the solver's dual multipliers, and any nonnegative
# multipliers give a valid one.

_EPS = np.finfo(np.float64).eps
_ELASTIC_PENALTY = 1e4   # objective weight of the split-row violation t
LP_TOLERANCE = 1e-6      # a fully split bound exceeds the exact margin by at most this


@dataclass(frozen=True)
class RelaxedResult:
    certified: bool
    bound: float          # sound upper bound on max_{i != y} (o_i - o_y); inf if none proved
    status: str           # "interval", "relaxed", "falsified", "open" or "solver-failure"
    n_unstable: int
    n_lps: int
    reason: str = ""


def _rounding_slack(n_terms, abs_sum):
    """Error bound for a float64 sum of ``n_terms`` products whose absolute
    values add up to ``abs_sum``: 2u(n+2) >= gamma_{n+1}, with the spare
    factor covering the error of evaluating this bound itself."""
    return (n_terms + 2) * _EPS * abs_sum


@dataclass
class _ReluLayer:
    """Pre-activation z = w @ a_prev + b of one ReLU layer and sound bounds on z."""

    w: np.ndarray
    b: np.ndarray
    lo: np.ndarray = None
    hi: np.ndarray = None

    @property
    def unstable(self):
        return (self.lo < 0.0) & (self.hi > 0.0)

    def upper_relaxation(self):
        """(slope, intercept) with relu(z) <= slope * z + intercept on [lo, hi]."""
        active, unstable = self.lo >= 0.0, self.unstable
        lo, hi = self.lo[unstable], self.hi[unstable]
        # rounded up: any slope >= hi / (hi - lo) keeps the chord above relu
        chord = np.nextafter(hi / (hi - lo) * (1.0 + 4.0 * _EPS), np.inf)
        slope = active.astype(np.float64)
        slope[unstable] = chord
        intercept = np.zeros_like(self.lo)
        intercept[unstable] = np.nextafter(-chord * lo, np.inf)
        return slope, intercept

    def lower_slope(self):
        """Slope of a valid lower relaxation relu(z) >= slope * z (CROWN's choice)."""
        return ((self.lo >= 0.0) | (self.unstable & (self.hi > -self.lo))).astype(np.float64)

    def post_bounds(self):
        return np.maximum(self.lo, 0.0), np.maximum(self.hi, 0.0)


def _piecewise_affine(net: Network):
    """([_ReluLayer per ReLU], (w, b) of the output layer) on flattened features."""
    relus, op = [], None
    for i, layer in enumerate(net.layers):
        if isinstance(layer, ReLU):
            if op is None:
                raise ValueError("relaxed certifier needs an affine layer before each ReLU")
            relus.append(_ReluLayer(*op))
            op = None
            continue
        step = layer.affine_operator(net.shape_after(i))
        if step is not None:
            if op is not None:
                raise ValueError("relaxed certifier needs a ReLU between affine layers")
            op = step
    return relus, op


def _magnitude(lo, hi):
    return np.maximum(np.abs(lo), np.abs(hi))


def _upper_bound_linear(relus, k, g, g0, x_lo, x_hi):
    """Sound upper bounds on g @ a + g0, a the output of ReLU layer k - 1 (the
    input when k == 0), by back-substitution through the ReLU relaxations of
    layers < k (CROWN: Zhang et al., NeurIPS 2018).

    ``g`` and ``g0`` may each carry one rounding of their own (an elided row).
    """
    prev_lo, prev_hi = (x_lo, x_hi) if k == 0 else relus[k - 1].post_bounds()
    err = _EPS * (np.abs(g) @ _magnitude(prev_lo, prev_hi) + np.abs(g0))
    const, const_abs, const_terms = g0.copy(), np.abs(g0), 1
    for j in range(k - 1, -1, -1):
        layer = relus[j]
        slope, intercept = layer.upper_relaxation()
        gp, gn = np.maximum(g, 0.0), np.minimum(g, 0.0)
        gz = gp * slope + gn * layer.lower_slope()
        err += _EPS * (np.abs(gz) @ _magnitude(layer.lo, layer.hi))
        const += gp @ intercept + gz @ layer.b
        const_abs += gp @ intercept + np.abs(gz) @ np.abs(layer.b)
        const_terms += 2 * layer.b.size
        below_lo, below_hi = (x_lo, x_hi) if j == 0 else relus[j - 1].post_bounds()
        g = gz @ layer.w
        err += _rounding_slack(layer.w.shape[1],
                               np.abs(gz) @ (np.abs(layer.w) @ _magnitude(below_lo, below_hi)))
    gp, gn = np.maximum(g, 0.0), np.minimum(g, 0.0)
    value = gp @ x_hi + gn @ x_lo + const
    err += _rounding_slack(x_lo.size + const_terms,
                           np.abs(g) @ _magnitude(x_lo, x_hi) + const_abs)
    return np.nextafter(value + err, np.inf)


def _interval_upper(w, b, lo, hi):
    """Sound upper bounds on w @ v + b over lo <= v <= hi."""
    value = np.maximum(w, 0.0) @ hi + np.minimum(w, 0.0) @ lo + b
    err = _rounding_slack(w.shape[1] + 1, np.abs(w) @ _magnitude(lo, hi) + np.abs(b))
    return np.nextafter(value + err, np.inf)


def _bound_relu_layers(relus, x_lo, x_hi):
    """Pre-activation bounds per ReLU layer: interval bounds, intersected with
    back-substitution bounds from the second layer on."""
    for k, layer in enumerate(relus):
        in_lo, in_hi = (x_lo, x_hi) if k == 0 else relus[k - 1].post_bounds()
        hi = _interval_upper(layer.w, layer.b, in_lo, in_hi)
        lo = -_interval_upper(-layer.w, -layer.b, in_lo, in_hi)
        # back-substitution can only tighten, so only units IBP leaves unstable need it
        units = np.nonzero((lo < 0.0) & (hi > 0.0))[0] if k > 0 else []
        if len(units):
            w, b = layer.w[units], layer.b[units]
            both = _upper_bound_linear(relus, k, np.vstack([w, -w]), np.concatenate([b, -b]),
                                       x_lo, x_hi)
            hi[units] = np.minimum(hi[units], both[: units.size])
            lo[units] = np.maximum(lo[units], -both[units.size :])
        layer.lo, layer.hi = lo, hi


class _TriangleLP:
    """Triangle relaxation (Ehlers, ATVA 2017) of a ReLU network over a box.

    Variables are the input x, the pre-activation z of every unit that is not
    dead, and the output a of every unstable unit (an active unit's output is
    its z; a dead unit's is 0).  Equalities fix z = w a_prev + b; each
    unstable unit gets a >= z and the upper chord.  A branch adds split rows
    on chosen units, relaxed by one elastic variable t >= 0 that the
    objective penalises, so every LP is feasible and an empty branch shows up
    as a bound pushed below zero by the penalty.
    """

    def __init__(self, relus, x_lo, x_hi):
        self.relus = relus
        self.d = x_lo.size
        self.z_col, self.out_col = [], []   # per layer: column per unit, -1 if none
        lbs, ubs = [x_lo], [x_hi]
        eq_rows, eq_cols, eq_vals, eq_rhs = [], [], [], []
        self.ub_rows, self.ub_rhs = [], []
        n_vars, n_eq = self.d, 0
        prev_out = np.arange(self.d)
        for layer in relus:
            live = np.nonzero(layer.hi > 0.0)[0]
            unstable = np.nonzero(layer.unstable)[0]
            z_col = np.full(layer.b.size, -1)
            z_col[live] = n_vars + np.arange(live.size)
            out_col = z_col.copy()
            out_col[unstable] = n_vars + live.size + np.arange(unstable.size)
            n_vars += live.size + unstable.size
            lbs += [layer.lo[live], np.zeros(unstable.size)]
            ubs += [layer.hi[live], layer.hi[unstable]]
            # z - w a_prev = b on live units, over the live units before
            src = np.nonzero(prev_out >= 0)[0]
            rows = n_eq + np.arange(live.size)
            eq_rows += [rows, np.repeat(rows, src.size)]
            eq_cols += [z_col[live], np.tile(prev_out[src], live.size)]
            eq_vals += [np.ones(live.size), -layer.w[np.ix_(live, src)].ravel()]
            eq_rhs.append(layer.b[live])
            n_eq += live.size
            slope, intercept = layer.upper_relaxation()
            for j in unstable:
                self.ub_rows += [((z_col[j], 1.0), (out_col[j], -1.0)),        # z - a <= 0
                                 ((out_col[j], 1.0), (z_col[j], -slope[j]))]   # a - s z <= c
                self.ub_rhs += [0.0, intercept[j]]
            self.z_col.append(z_col)
            self.out_col.append(out_col)
            prev_out = out_col
        self.n_vars = n_vars
        self.b_eq = np.concatenate(eq_rhs)
        self.a_eq = sparse.csr_matrix(
            (np.concatenate(eq_vals), (np.concatenate(eq_rows), np.concatenate(eq_cols))),
            shape=(n_eq, n_vars))
        self.lb, self.ub = np.concatenate(lbs), np.concatenate(ubs)

    def solve(self, c_out, splits):
        """Maximise c_out @ (outputs of the last ReLU layer) over the
        relaxation restricted by ``splits`` ({(layer, unit): +1 active or
        -1 dead}).

        Returns (sound upper bound, primal input, dual multipliers of the
        chord rows in unit order), or None when the solver reports a failure.
        """
        rows, rhs = list(self.ub_rows), list(self.ub_rhs)
        c = np.zeros(self.n_vars)
        live = self.out_col[-1] >= 0
        c[self.out_col[-1][live]] = c_out[live]
        lb, ub, a_eq = self.lb, self.ub, self.a_eq
        if splits:
            t = self.n_vars
            reach = 0.0
            for (k, j), side in splits.items():
                z, a = self.z_col[k][j], self.out_col[k][j]
                if side > 0:   # z >= 0 and a <= z
                    rows += [((z, -1.0), (t, -1.0)), ((a, 1.0), (z, -1.0), (t, -1.0))]
                else:          # z <= 0 and a <= 0
                    rows += [((z, 1.0), (t, -1.0)), ((a, 1.0), (t, -1.0))]
                rhs += [0.0, 0.0]
                reach = max(reach, self.relus[k].hi[j] - self.relus[k].lo[j])
            c = np.append(c, -_ELASTIC_PENALTY)
            lb, ub = np.append(lb, 0.0), np.append(ub, 2.0 * reach)
            a_eq = sparse.hstack([a_eq, sparse.csr_matrix((a_eq.shape[0], 1))]).tocsr()
        a_ub = _sparse_rows(rows, c.size)
        b_ub = np.asarray(rhs, dtype=np.float64)
        res = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=self.b_eq,
                      bounds=np.stack([lb, ub], axis=1), method="highs",
                      options={"presolve": False})  # presolve costs more than it saves here
        if res.status != 0:
            return None
        lam = np.maximum(-res.ineqlin.marginals, 0.0)
        rho = -res.eqlin.marginals
        bound = _dual_bound(c, a_ub, b_ub, a_eq, self.b_eq, lb, ub, lam, rho)
        return bound, res.x[: self.d], lam[1 : len(self.ub_rows) : 2]


def _sparse_rows(rows, n_cols):
    """CSR matrix from rows given as tuples of (column, value)."""
    r = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    entries = np.array([e for row in rows for e in row]).reshape(-1, 2)
    return sparse.csr_matrix((entries[:, 1], (r, entries[:, 0].astype(np.intp))),
                             shape=(len(rows), n_cols))


def _dual_bound(c, a_ub, b_ub, a_eq, b_eq, lb, ub, lam, rho):
    """Sound upper bound on max c @ v s.t. a_ub v <= b_ub, a_eq v = b_eq,
    lb <= v <= ub, from any lam >= 0 and any rho (weak duality):
    lam @ b_ub + rho @ b_eq + sum_j max(r_j lb_j, r_j ub_j), r = c - a_ub' lam - a_eq' rho.
    """
    r = c - a_ub.T @ lam - a_eq.T @ rho
    r_abs = np.abs(c) + abs(a_ub).T @ lam + abs(a_eq).T @ np.abs(rho)
    r_err = _rounding_slack(a_ub.shape[0] + a_eq.shape[0] + 1, r_abs)
    terms = np.concatenate([lam * b_ub, rho * b_eq,
                            np.maximum(r * lb, r * ub) + r_err * _magnitude(lb, ub)])
    total = terms.sum() + _rounding_slack(terms.size, np.abs(terms).sum())
    return float(np.nextafter(total, np.inf))


class _BranchAndBound:
    """Relaxation of one sample's margins over its input box.

    Intermediate bounds are interval bounds intersected with back-substitution
    bounds, so never looser than IBP's.  ``interval_hi`` holds each class's
    interval bound over the last ReLU layer's outputs.  A class is bounded
    next by back-substitution, then by the root LP, then by best-first splits
    of the unstable unit whose chord carries the most dual weight.
    """

    def __init__(self, net: Network, y, box: BoxBounds):
        self.net, self.y = net, y
        # elided rows o_i - o_y; pad covers the one rounding of each subtraction
        self.relus, (self.rows, self.consts) = _piecewise_affine(elide_final_layer(net, y))
        self.x_lo, self.x_hi = box.lo.reshape(-1), box.hi.reshape(-1)
        _bound_relu_layers(self.relus, self.x_lo, self.x_hi)
        self.units = [(k, j) for k, layer in enumerate(self.relus)
                      for j in np.nonzero(layer.unstable)[0]]
        unstable = [layer.unstable for layer in self.relus]
        self.intercepts = np.concatenate(
            [layer.upper_relaxation()[1][u] for layer, u in zip(self.relus, unstable)] or [[]])
        lo = np.concatenate([layer.lo[u] for layer, u in zip(self.relus, unstable)] or [[]])
        hi = np.concatenate([layer.hi[u] for layer, u in zip(self.relus, unstable)] or [[]])
        self.area = hi * -lo / (hi - lo)
        self.out_lo, self.out_hi = (self.relus[-1].post_bounds() if self.relus
                                    else (self.x_lo, self.x_hi))
        self.pads = _EPS * (np.abs(self.rows) @ _magnitude(self.out_lo, self.out_hi)
                            + np.abs(self.consts))
        self.interval_hi = np.nextafter(
            _interval_upper(self.rows, self.consts, self.out_lo, self.out_hi) + self.pads, np.inf)
        self.interval_hi[y] = -np.inf
        self.lp = None
        self.n_lps = 0

    def margin_at(self, point):
        """Concrete margin at an input (clipped into the box)."""
        point = np.clip(point, self.x_lo, self.x_hi).reshape(self.net.input_shape)
        return _margin_at(self.net, point, self.y)[0]

    def class_bound(self, cls, lp_budget, decide):
        """(sound upper bound on max (o_cls - o_y), status) within ``lp_budget`` LPs.

        With ``decide`` the search stops once the sign is settled: status
        "below" (bound < 0) or "falsified" (an LP optimum's input has margin
        >= 0).  Otherwise it refines the largest branch bound until that
        branch is fully split, when the bound is exact.  "open" means the
        budget ran out (or, deciding, a fully split branch stayed >= 0).
        """
        row, const, pad = self.rows[cls], self.consts[cls], self.pads[cls]
        if not self.relus:  # affine network: the interval bound is the maximum
            bound = self.interval_hi[cls]
            return bound, "below" if bound < 0.0 else "open"
        crown = _upper_bound_linear(self.relus, len(self.relus), row[None], np.array([const]),
                                    self.x_lo, self.x_hi)[0]
        crown = min(crown, self.interval_hi[cls])
        if decide and crown < 0.0:
            return crown, "below"
        if self.lp is None:
            self.lp = _TriangleLP(self.relus, self.x_lo, self.x_hi)
        spent = 0

        def solve(splits, parent_bound):
            nonlocal spent
            spent += 1
            self.n_lps += 1
            out = self.lp.solve(row, splits)
            if out is None:
                return None
            bound, point, duals = out
            bound = np.nextafter(np.nextafter(bound + const, np.inf) + pad, np.inf)
            bound = min(float(bound), parent_bound)
            return -bound, spent, splits, point, duals

        heap = [solve({}, crown)]
        while heap[0] is not None:
            neg, _, splits, point, duals = heap[0]
            if decide and -neg < 0.0:
                return -neg, "below"
            if decide and self.margin_at(point) >= 0.0:
                return -neg, "falsified"
            free = [q for q, u in enumerate(self.units) if u not in splits]
            if not free or spent + 2 > lp_budget:
                return -neg, "open"
            heapq.heappop(heap)
            pick = self.units[max(free, key=lambda q: (duals[q] * self.intercepts[q], self.area[q]))]
            for side in (1, -1):
                child = solve({**splits, pick: side}, -neg)
                if child is None:
                    heap = [None]
                    break
                heapq.heappush(heap, child)
        return np.inf, "solver-failure"


def certify_relaxed(net: Network, x, y, eps, lp_budget=256) -> RelaxedResult:
    """Certify one sample over its eps-ball intersected with the input
    domain: interval bounds first, then a triangle LP relaxation and branch
    and bound on each class the interval bounds leave open.

    The interval stage is IBP with outward rounding and back-substitution-
    tightened intermediate bounds; it settles the sample with status
    "interval".  Open classes are taken hardest first, each with at most
    ``lp_budget`` LPs (the root included); the first class that is not shown
    below zero ends the search.  Every bound holds in float64 (see
    ``margin_upper_bound``), and a solver failure is reported as such, never
    as certified.
    """
    x = np.asarray(x, dtype=np.float64)
    bb = _BranchAndBound(net, y, box_from_ball(x, eps))

    def result(certified, bound, status, reason=""):
        return RelaxedResult(certified, float(bound), status, len(bb.units), bb.n_lps, reason)

    interval_hi = bb.interval_hi
    if interval_hi.max() < 0.0:
        return result(True, interval_hi.max(), "interval")
    if bb.margin_at(x.reshape(-1)) >= 0.0:
        return result(False, np.inf, "falsified", "misclassified at x")
    bound = -np.inf
    for cls in np.argsort(-interval_hi):
        if interval_hi[cls] < 0.0:
            bound = max(bound, interval_hi[cls])
            continue
        cls_bound, status = bb.class_bound(cls, lp_budget, decide=True)
        if status != "below":
            return result(False, cls_bound, status, f"class {cls}")
        bound = max(bound, cls_bound)
    return result(True, bound, "relaxed")


def margin_upper_bound(net: Network, x, y, eps, lp_budget=256) -> float:
    """Tightest upper bound on max_{i != y} (o_i - o_y) over the eps-ball
    intersected with the input domain that the relaxation reaches with
    ``lp_budget`` LPs per class.

    Sound in float64 for the network's float64 weights.  With a budget that
    splits every unstable unit it equals the exact margin to within
    ``LP_TOLERANCE``; inf on a solver failure.
    """
    x = np.asarray(x, dtype=np.float64)
    bb = _BranchAndBound(net, y, box_from_ball(x, eps))
    return max(bb.class_bound(i, lp_budget, decide=False)[0]
               for i in range(net.num_classes) if i != y)


# ---------------------------------------------------------------------------
# Margin approximations per method
# ---------------------------------------------------------------------------

def _margin_at(net: Network, point, y):
    """(margin, logit differences) at one input point, from a one-row forward."""
    logits = forward_batch(net, point[None])[0]
    diffs = logits - logits[y]
    return margin_loss(diffs, y), diffs


def pgd_margins(net: Network, X, y, eps, attack: AttackConfig, rng):
    """PGD margin of each sample of a batch: one batched attack over all
    samples and restarts, each margin read at its sample's point as
    :func:`method_bound` ``"pgd"`` reads it.  ``rng`` is one generator or one
    per sample (see :func:`attack.pgd_input`)."""
    y = np.asarray(y, dtype=np.intp)
    adv = pgd_input(net, X, y, eps, attack, rng=rng)
    return [_margin_at(net, point, label)[0] for point, label in zip(adv, y)]


def method_bound(net: Network, x, y, eps, method, attack=None, *, rng):
    """(margin approximation, logit-difference vector) for one method.

    ``ibp`` is a sound upper bound, ``pgd`` a feasible-point value (an
    under-approximation), ``sabr``/``taps`` may err on either side.  ``sabr``
    bounds a small box of radius 0.4 * eps.  Every method takes ``rng``, the
    generator its attack draws from; ``ibp`` draws nothing.
    """
    x = np.asarray(x, dtype=np.float64)
    if method == "ibp" or (method == "taps" and net.split_index >= len(net.layers)):
        hi = ibp_bounds(net, x, y, eps).hi
        return margin_loss(hi, y), hi
    if method == "pgd":
        cfg = attack or AttackConfig(steps=50, restarts=3)
        adv = pgd_input(net, x[None], np.asarray([y]), eps, cfg, rng=rng)[0]
        return _margin_at(net, adv, y)
    if method == "sabr":
        cfg = attack or AttackConfig(steps=50)
        region = sabr_select_region(net, x[None], np.asarray([y]), eps, 0.4 * eps, cfg, rng=rng)
        hi = elided_bounds(net, region, [y]).hi[0]
        return margin_loss(hi, y), hi
    if method == "taps":
        cfg = attack or AttackConfig(steps=50)
        latent_box = propagate_box(net, box_from_ball(x[None], eps), stop=net.split_index)
        points, targets = pgd_latent(net, latent_box, np.asarray([y]), cfg,
                                     multi=True, rng=rng)
        flat = points[0]
        logits = forward_batch(net, flat, start=net.split_index)
        estimates = logits[np.arange(targets.shape[1]), targets[0]] - logits[:, y]
        diffs = np.zeros(net.num_classes)
        diffs[targets[0]] = estimates
        return float(estimates.max()), diffs
    raise ValueError(f"unknown method {method!r}")


def adversarial_accuracy(net: Network, X, y, eps, attack=None, *, seed) -> float:
    """Share of samples whose PGD margin stays below zero (an upper bound on
    robustness), read as ``certify`` reads it.  Sample i is attacked with its
    own generator, seeded ``seed + i``; a pass attacks at most 256 rows,
    ``256 // restarts`` samples."""
    cfg = attack or AttackConfig(steps=200, restarts=5)
    margins, chunk = [], max(1, 256 // cfg.restarts)
    for start in range(0, len(X), chunk):
        ids = range(start, min(start + chunk, len(X)))
        margins += pgd_margins(net, X[start : start + chunk], y[start : start + chunk], eps, cfg,
                               rng=[np.random.default_rng(seed + i) for i in ids])
    return float(np.mean(np.asarray(margins) < 0.0))


# ---------------------------------------------------------------------------
# Batch-mean vs per-sample product gradient estimators
# ---------------------------------------------------------------------------

@dataclass
class VarianceReport:
    mean_avg_then_mul: np.ndarray
    mean_mul_then_avg: np.ndarray
    se_diff: np.ndarray          # paired standard error of the per-trial difference
    var_avg_then_mul: np.ndarray
    var_mul_then_avg: np.ndarray
    trials: int

    @property
    def noise_floor(self):
        """Per-trial spread of the two estimators combined."""
        return np.sqrt(self.var_avg_then_mul + self.var_mul_then_avg)

    @property
    def mean_agreement_fraction(self):
        """Fraction of coordinates whose mean difference stays within three
        units of the estimators' own per-trial noise.

        The theorem's exact mean equality rests on an independence idealization
        real networks violate by a covariance term, so the meaningful empirical
        statement is that the systematic difference is buried in the noise a
        single batch gradient already carries.
        """
        diff = np.abs(self.mean_avg_then_mul - self.mean_mul_then_avg)
        return float(np.mean(diff <= 3.0 * self.noise_floor + 1e-15))

    @property
    def variance_ok_fraction(self):
        return float(np.mean(self.var_avg_then_mul <= self.var_mul_then_avg + 1e-15))


def per_sample_loss_grads(net: Network, X, y, eps, *, multi=True, connector=None,
                          attack=None, rng):
    """Per-sample (attacked value, bound value, their gradients), attack frozen.

    One tape per sample; the same latent points serve both branch gradients,
    matching how the training estimators share the forward pass.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    f_vals, g_vals, f_grads, g_grads = [], [], [], []
    for i in range(X.shape[0]):
        tape = T.Tape()
        params = lift_params(tape, net)
        bound, attacked = paired_loss_terms(
            tape, net, params, box_from_ball(X[i : i + 1], eps), y[i : i + 1],
            multi=multi, connector=connector, attack=attack, rng=rng)
        flat_f = np.concatenate([g.ravel() for g in param_grads(tape, params, T.mean_all(attacked))])
        flat_g = np.concatenate([g.ravel() for g in param_grads(tape, params, T.mean_all(bound))])
        f_vals.append(float(attacked.value[0]))
        g_vals.append(float(bound.value[0]))
        f_grads.append(flat_f)
        g_grads.append(flat_g)
    return (np.array(f_vals), np.array(g_vals),
            np.stack(f_grads), np.stack(g_grads))


def variance_theorem_check(net: Network, X_pool, y_pool, eps, n, trials, seed,
                           *, multi=True, connector=None, attack=None) -> VarianceReport:
    """Monte Carlo comparison of the two product-gradient estimators.

    For bootstrap batches of size n, computes the gradient of
    mean(f) * mean(g) (multipliers averaged first) and of mean(f * g)
    (per-sample products), with f the attacked loss and g the bound loss and
    all latent points frozen per pool sample.
    """
    if len(X_pool) < 10 * n:
        raise ValueError("pool should hold at least 10n samples")
    rng = np.random.default_rng(seed)
    f, g, df, dg = per_sample_loss_grads(net, X_pool, y_pool, eps, multi=multi,
                                         connector=connector, attack=attack, rng=rng)
    # rows: averaged first, per-sample products, their per-trial difference
    total = np.zeros((3, df.shape[1]))
    total_sq = np.zeros_like(total)
    for _ in range(trials):
        idx = rng.integers(0, len(f), size=n)
        fb, gb = f[idx], g[idx]
        dfb, dgb = df[idx], dg[idx]
        g1 = gb.mean() * dfb.mean(axis=0) + fb.mean() * dgb.mean(axis=0)
        g2 = (gb[:, None] * dfb + fb[:, None] * dgb).mean(axis=0)
        est = np.stack([g1, g2, g1 - g2])
        total += est
        total_sq += est * est
    mean = total / trials
    var = np.maximum(total_sq / trials - mean ** 2, 0.0)
    return VarianceReport(mean[0], mean[1], np.sqrt(var[2] / trials), var[0], var[1], trials)


# ---------------------------------------------------------------------------
# Per-sample verdicts
# ---------------------------------------------------------------------------

@dataclass
class SampleVerdict:
    sample_id: int
    natural_correct: bool
    ibp_certified: bool
    pgd_margin: float | None
    exact_margin: float | None = None
    method_bounds: dict = field(default_factory=dict)


def verdict_json_line(v: SampleVerdict) -> str:
    bounds = {k: list(map(float, val)) for k, val in v.method_bounds.items()}
    return json.dumps(dict(vars(v), method_bounds=bounds), sort_keys=True)
