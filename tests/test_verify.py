"""Oracle exactness, margin sandwich, method bounds, estimator variance."""

import json
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from certitrain import tensor as T
from certitrain import verify as V
from certitrain.attack import AttackConfig
from certitrain.data import synthetic_moons
from certitrain.interval import box_from_ball, ibp_bounds
from certitrain.loss import LossKind
from certitrain.net import Affine, Network, ReLU, elide_final_layer, forward_batch
from certitrain.verify import (
    LP_TOLERANCE,
    SampleVerdict,
    certify_ibp,
    certify_relaxed,
    exact_margin_oracle,
    margin_upper_bound,
    method_bound,
    pgd_margins,
    variance_theorem_check,
    verdict_json_line,
)
from certitrain.train import Schedule, TrainConfig, _certified_mask, taps_accuracy, train_run

from helpers import random_cnn, random_mlp, reference_oracle, sample_box


def test_certify_eps_zero_correct_sample():
    rng = np.random.default_rng(0)
    net = random_mlp(rng, [4, 8, 3])
    x = rng.uniform(0, 1, size=4)
    y = int(np.argmax(forward_batch(net, x[None])[0]))
    ok, hi = certify_ibp(net, x, y, 0.0)
    assert ok
    assert hi[y] == 0.0


def test_certify_constant_classifier():
    # zero weights: logits equal biases for every input, any radius
    net = Network([Affine(np.zeros((3, 4)), np.array([0.1, 0.9, -0.2]))], 1, 3, (4,))
    x = np.full(4, 0.5)
    assert certify_ibp(net, x, 1, 10.0)[0]
    assert not certify_ibp(net, x, 0, 10.0)[0]


def test_oracle_affine_only_equals_corner_formula():
    rng = np.random.default_rng(1)
    for _ in range(10):
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=4)
        net = Network([Affine(w, b)], 1, 4, (5,))
        x = rng.uniform(0.2, 0.8, size=5)
        y = int(rng.integers(4))
        eps = 0.1
        res = exact_margin_oracle(net, x, y, eps)
        assert res.exact and res.n_unstable == 0
        we = w - w[y]
        be = b - b[y]
        box = box_from_ball(x, eps)
        c, r = box.center, box.radius
        corner = we @ c + np.abs(we) @ r + be
        expect = np.delete(corner, y).max()
        assert abs(res.margin - expect) < 1e-9


def test_oracle_one_relu_hand_enumeration():
    """d(x) = 0.4 relu(x - 0.5) + 0.6 relu(0.5 - x) on [0, 1]: max is 0.3 at x = 0."""
    layers = [
        Affine(np.array([[1.0], [-1.0]]), np.array([-0.5, 0.5])),
        ReLU(),
        Affine(np.array([[0.0, 0.0], [0.4, 0.6]]), np.zeros(2)),
    ]
    net = Network(layers, len(layers), 2, (1,))
    res = exact_margin_oracle(net, np.array([0.5]), 0, 0.5)
    assert res.exact
    assert res.n_unstable == 2
    assert abs(res.margin - 0.3) < 1e-9


def test_oracle_respects_budget():
    rng = np.random.default_rng(2)
    net = random_mlp(rng, [6, 30, 30, 3], scale=3.0)
    res = exact_margin_oracle(net, rng.uniform(0, 1, size=6), 0, 0.3, budget_unstable=5)
    assert res.status == "unknown"
    assert res.margin is None
    assert "budget" in res.reason


def test_oracle_solver_failure_returns_unknown(monkeypatch):
    class Failed:
        status, x = 4, None

    monkeypatch.setattr(V, "linprog", lambda *a, **k: Failed())
    layers = [Affine(np.array([[1.0], [-1.0]]), np.array([-0.5, 0.5])), ReLU(),
              Affine(np.array([[0.0, 0.0], [0.4, 0.6]]), np.zeros(2))]
    net = Network(layers, len(layers), 2, (1,))
    res = exact_margin_oracle(net, np.array([0.5]), 0, 0.5)
    assert res == V.OracleResult("unknown", None, 2, 1, reason="LP solver status 4")


def _oracle_instance(rng):
    """A random oracle instance: an mlp on 2, 3 or 8 inputs or a cnn on a
    1x4x4 input, with 2-4 classes."""
    kind = int(rng.integers(4))
    classes = int(rng.integers(2, 5))
    scale = float(rng.uniform(1.0, 2.0))
    eps = float(rng.uniform(0.02, 0.06))
    if kind < 3:
        d = (2, 3, 8)[kind]
        net = random_mlp(rng, [d, int(rng.integers(2, 6)), int(rng.integers(2, 5)), classes],
                         scale=scale)
        x = rng.uniform(0.1, 0.9, size=d)
    else:
        net = random_cnn(rng, (1, 4, 4), channels=(1,), fc=3, num_classes=classes, scale=scale)
        x = rng.uniform(0.1, 0.9, size=(1, 4, 4))
    return net, x, int(rng.integers(classes)), eps


def _instances_with_unstable_relus(seed, count):
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        net, x, y, eps = _oracle_instance(rng)
        ref = reference_oracle(net, x, y, eps, budget_unstable=12)
        if ref.n_unstable:
            found.append((net, x, y, eps, ref))
    return found


@pytest.mark.parametrize("seed", range(3))
def test_pruned_oracle_matches_plain_enumeration_bitwise(seed):
    """Status, margin (repr: bit for bit), n_unstable, n_patterns and reason
    equal the plain enumeration's on 100 instances per seed."""
    for net, x, y, eps, ref in _instances_with_unstable_relus(500 + seed, 100):
        assert repr(exact_margin_oracle(net, x, y, eps, budget_unstable=12)) == repr(ref)


def _spy_linprog(monkeypatch, on_result):
    real = V.linprog

    def spy(*args, **kwargs):
        res = real(*args, **kwargs)
        on_result(kwargs, res)
        return res

    monkeypatch.setattr(V, "linprog", spy)


def _tangent_net():
    """Pattern (active, active) needs x >= 0.5 and x <= 0.5 - 1e-8: empty, but
    by less than HiGHS's feasibility tolerance, so the solver accepts x = 0.5."""
    layers = [Affine(np.array([[1.0], [-1.0]]), np.array([-0.5, 0.5 - 1e-8])), ReLU(),
              Affine(np.array([[0.0, 0.0], [1.0, 1.0]]), np.zeros(2))]
    return Network(layers, len(layers), 2, (1,)), np.array([0.5]), 0, 0.5


def test_tightening_rejects_only_patterns_the_solver_finds_infeasible(monkeypatch):
    """Each pattern the bound tightening rejects got status 2 on the first LP
    plain enumeration solves for it."""
    first_status = {}

    def key(a_ub, b_ub):
        return a_ub.tobytes(), b_ub.tobytes()

    _spy_linprog(monkeypatch, lambda kw, res: first_status.setdefault(
        key(kw["A_ub"], kw["b_ub"]), res.status))
    instances = [inst[:4] for inst in _instances_with_unstable_relus(7, 30)] + [_tangent_net()]
    for inst in instances:
        reference_oracle(*inst, budget_unstable=12)
    rejected = []
    real = V._tighten_box

    def tighten(a_ub, b_ub, lo, hi):
        box = real(a_ub, b_ub, lo, hi)
        if box is None:
            rejected.append(key(a_ub, b_ub))
        return box

    monkeypatch.setattr(V, "_tighten_box", tighten)
    for inst in instances:
        exact_margin_oracle(*inst, budget_unstable=12)
    assert len(rejected) >= 20
    assert [first_status[k] for k in rejected] == [2] * len(rejected)


def test_pruned_oracle_solves_fewer_lps(monkeypatch):
    calls = []
    _spy_linprog(monkeypatch, lambda kw, res: calls.append(res.status))
    rng = np.random.default_rng(46)
    net = random_mlp(rng, [3, 6, 5, 3], scale=1.8)
    x, y, eps = rng.uniform(0.1, 0.9, size=3), 1, 0.06
    ref = reference_oracle(net, x, y, eps, budget_unstable=12)
    plain = len(calls)
    assert ref.n_unstable >= 4 and plain >= 20 and 2 in calls
    calls.clear()
    assert repr(exact_margin_oracle(net, x, y, eps, budget_unstable=12)) == repr(ref)
    pruned = len(calls)
    assert pruned < plain
    # the PGD margin as the reached margin skips more
    pgd = method_bound(net, x, y, eps, "pgd", rng=np.random.default_rng(0))
    calls.clear()
    assert repr(exact_margin_oracle(net, x, y, eps, budget_unstable=12, reached=pgd)) == repr(ref)
    assert len(calls) < pruned


def test_prune_bounds_cap_the_oracle_value_at_every_solver_point():
    """The corner bound caps the oracle's float64 ``m @ x + v`` at the box's
    maximising corner, and the tightened box keeps points that break the
    box by HiGHS's tolerance."""
    rng = np.random.default_rng(4)
    for d in (2, 8, 64, 784):
        for _ in range(20):
            m, v = rng.normal(size=(4, d)), rng.normal(size=4)
            lo = rng.uniform(-1.0, 0.5, size=d)
            hi = lo + rng.uniform(0.0, 0.5, size=d)
            widened = V._tighten_box(np.zeros((1, d)), np.ones(1), lo, hi)  # no row binds
            for box, out in (((lo, hi), 0.0), (widened, 1e-7)):
                cap = V._corner_bounds(m, v, *box)
                for i in range(4):
                    corner = np.where(m[i] > 0.0, hi + out, lo - out)
                    assert float(m[i] @ corner + v[i]) <= cap[i]


def _spy_corner_test(monkeypatch):
    """Record (m, corners, a_ub, b_ub, answered) for every pattern whose
    classes reach the oracle's corner test."""
    seen = []
    real = V._corner_is_optimal

    def spy(m, corners, a_ub, b_ub):
        answered = real(m, corners, a_ub, b_ub)
        seen.append((m.copy(), corners.copy(), a_ub.copy(), b_ub.copy(), answered))
        return answered

    monkeypatch.setattr(V, "_corner_is_optimal", spy)
    return seen


def _mlp_instances(seed, count, column=1.0):
    """Random mlp instances on 3 inputs.  ``column`` scales input 2's weights
    in the first layer: 0.0 makes m[i, 2] zero in every pattern, 1e-9 tiny."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dims = [3, int(rng.integers(2, 6)), int(rng.integers(2, 5)), int(rng.integers(2, 5))]
        net = random_mlp(rng, dims, scale=float(rng.uniform(1.0, 2.0)))
        net.layers[0].weight[:, 2] *= column
        yield net, rng.uniform(0.1, 0.9, size=3), int(rng.integers(dims[-1])), 0.06


def _near_tight_net(slack):
    """Margin relu(x1 - x2 - slack) / 2 + relu(x1 + x2) on [0, 1]^2.  In both
    patterns of the unstable unit the maximising corner is (1, 1), where the
    unit's row holds with ``slack`` to spare (inactive) or breaks by
    ``slack`` (active)."""
    layers = [Affine(np.array([[1.0, -1.0], [1.0, 1.0]]), np.array([-slack, 0.0])), ReLU(),
              Affine(np.array([[0.0, 0.0], [0.5, 1.0]]), np.zeros(2))]
    return Network(layers, len(layers), 2, (2,)), np.array([0.5, 0.5]), 0, 0.5


def _one_relu_net():
    """0.4 relu(x - 0.5) + 0.6 relu(0.5 - x) on [0, 1]: the corners x = 1 and
    x = 0 answer the patterns (active, inactive) and (inactive, active)."""
    layers = [Affine(np.array([[1.0], [-1.0]]), np.array([-0.5, 0.5])), ReLU(),
              Affine(np.array([[0.0, 0.0], [0.4, 0.6]]), np.zeros(2))]
    return Network(layers, len(layers), 2, (1,)), np.array([0.5]), 0, 0.5


def _spy_lp_points(monkeypatch):
    """Count LP calls, and keep the point HiGHS returned for the first LP
    with each (A_ub, b_ub, c)."""
    points, calls = {}, []
    real = V.linprog

    def spy(c, **kwargs):
        res = real(c, **kwargs)
        calls.append(res.status)
        points.setdefault((kwargs["A_ub"].tobytes(), kwargs["b_ub"].tobytes(), c.tobytes()), res.x)
        return res

    monkeypatch.setattr(V, "linprog", spy)
    return points, calls


CORNER_CASES = {
    "loose": lambda: [_one_relu_net(), *_mlp_instances(31, 40)],
    "zero": lambda: list(_mlp_instances(32, 40, column=0.0)),
    "tiny": lambda: list(_mlp_instances(32, 40, column=1e-9)),
    "near_tight": lambda: [_near_tight_net(s) for s in (9e-7, 5e-7, 1e-7, 1e-9, 0.0, -5e-8)],
}


@pytest.mark.parametrize("case", CORNER_CASES)
def test_corner_answer_matches_plain_enumeration_bitwise(monkeypatch, case):
    """Where the box corner answers a class without an LP, and where it must
    not, the oracle equals plain enumeration bit for bit (repr)."""
    _, calls = _spy_lp_points(monkeypatch)
    seen = _spy_corner_test(monkeypatch)
    for net, x, y, eps in CORNER_CASES[case]():
        del calls[:]
        ref = reference_oracle(net, x, y, eps, budget_unstable=12)
        plain = len(calls)
        assert repr(exact_margin_oracle(net, x, y, eps, budget_unstable=12)) == repr(ref)
        if case == "near_tight":  # no corner meets its rows with the margin
            assert len(calls) - plain == plain
    answered = [m[k] for m, _, _, _, ans in seen for k in np.flatnonzero(ans)]
    if case == "loose":
        assert len(answered) >= 10
    elif case == "zero":
        assert sum(m[2] == 0.0 and m.any() for m in answered) >= 10
    elif case == "tiny":
        # classes whose corner meets every row but whose m[2] is tiny: HiGHS
        # may stop at the other bound of x_2, so their LPs run
        tiny = [(a_ub @ corners.T <= (b_ub - 1e-6)[:, None]).all(axis=0)
                & (np.abs(m[:, 2]) < 1e-7) & (m[:, 2] != 0.0)
                for m, corners, a_ub, b_ub, _ in seen]
        assert sum(int(t.sum()) for t in tiny) >= 10
        assert not any((t & ans).any() for t, (*_, ans) in zip(tiny, seen))
    else:
        assert len(seen) >= 6 and not answered


def test_corner_answers_are_the_solver_points(monkeypatch):
    """On a fixed instance, every class the corner test answers is one plain
    enumeration solved, and its corner is the point HiGHS returned there;
    the oracle solves fewer LPs than with the test switched off."""
    rng = np.random.default_rng(46)
    net = random_mlp(rng, [3, 6, 5, 3], scale=1.8)
    x, y, eps = rng.uniform(0.1, 0.9, size=3), 1, 0.06
    points, calls = _spy_lp_points(monkeypatch)
    ref = reference_oracle(net, x, y, eps, budget_unstable=12)
    corner_test = V._corner_is_optimal
    monkeypatch.setattr(V, "_corner_is_optimal", lambda m, *rest: np.zeros(len(m), dtype=bool))
    del calls[:]
    assert repr(exact_margin_oracle(net, x, y, eps, budget_unstable=12)) == repr(ref)
    without = len(calls)
    monkeypatch.setattr(V, "_corner_is_optimal", corner_test)
    seen = _spy_corner_test(monkeypatch)
    del calls[:]
    assert repr(exact_margin_oracle(net, x, y, eps, budget_unstable=12)) == repr(ref)
    assert len(calls) < without
    answered = [(m[k], corners[k], a_ub, b_ub) for m, corners, a_ub, b_ub, ans in seen
                for k in np.flatnonzero(ans)]
    assert answered
    for m, corner, a_ub, b_ub in answered:
        assert points[a_ub.tobytes(), b_ub.tobytes(), (-m).tobytes()].tobytes() == corner.tobytes()


@pytest.mark.parametrize("case", CORNER_CASES)
def test_reached_margin_floor_matches_plain_enumeration_bitwise(monkeypatch, case):
    """A reached margin only skips LPs: at the PGD margin, the exact margin,
    one ulp above it (a forward pass may round so), NaN, and exact + 1 (which
    the walk must redo without the floor), the oracle equals plain
    enumeration bit for bit (repr).  Below the exact margin the floor never
    costs a second walk, so no more LPs run than without it."""
    _, calls = _spy_lp_points(monkeypatch)
    for net, x, y, eps in CORNER_CASES[case]():
        ref = reference_oracle(net, x, y, eps, budget_unstable=12)
        pgd = method_bound(net, x, y, eps, "pgd",
                           attack=AttackConfig(steps=20, restarts=2),
                           rng=np.random.default_rng(0))
        del calls[:]
        exact_margin_oracle(net, x, y, eps, budget_unstable=12)
        without = len(calls)
        reached = [(pgd, False), (float("nan"), False)]  # (value, walks twice)
        if ref.exact:
            reached += [(ref.margin, False), (float(np.nextafter(ref.margin, np.inf)), False),
                        (ref.margin + 1.0, True)]
        for value, twice in reached:
            del calls[:]
            res = exact_margin_oracle(net, x, y, eps, budget_unstable=12, reached=value)
            assert repr(res) == repr(ref), value
            if not twice:
                assert len(calls) <= without, value


def sample_margins(net, x, y, eps, n, seed):
    box = box_from_ball(x, eps)
    pts = sample_box(box, n, np.random.default_rng(seed))
    elided = elide_final_layer(net, y)
    outs = forward_batch(elided, pts)
    outs[:, y] = -np.inf
    return outs.max(axis=1)


@pytest.mark.parametrize("seed", range(6))
def test_oracle_sandwich_random_tiny_nets(seed):
    rng = np.random.default_rng(100 + seed)
    net = random_mlp(rng, [3, 6, 5, 3], scale=1.8)
    x = rng.uniform(0.1, 0.9, size=3)
    y = int(rng.integers(3))
    eps = 0.06
    res = exact_margin_oracle(net, x, y, eps, budget_unstable=12)
    if not res.exact:
        pytest.skip("instance exceeded unstable budget")
    pgd_margin = method_bound(net, x, y, eps, "pgd",
                              attack=AttackConfig(steps=60, restarts=3),
                              rng=np.random.default_rng(seed))
    ibp_margin = method_bound(net, x, y, eps, "ibp", rng=None)
    assert pgd_margin <= res.margin + 1e-9
    assert res.margin <= ibp_margin + 1e-9
    # interior Monte Carlo points can never beat the exact maximum
    assert sample_margins(net, x, y, eps, 2000, seed).max() <= res.margin + 1e-9


def test_certified_implies_negative_exact_margin():
    rng = np.random.default_rng(3)
    found = 0
    for trial in range(40):
        net = random_mlp(rng, [3, 5, 3], scale=0.6)
        x = rng.uniform(0.2, 0.8, size=3)
        y = int(np.argmax(forward_batch(net, x[None])[0]))
        eps = 0.02
        certified, _ = certify_ibp(net, x, y, eps)
        if not certified:
            continue
        res = exact_margin_oracle(net, x, y, eps, budget_unstable=12)
        if res.exact:
            found += 1
            assert res.margin < 0.0
    assert found >= 5


def _oracle_resolved_instances(seed, count):
    """Random tiny nets and samples the oracle resolves, with unstable ReLUs."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        net = random_mlp(rng, [3, int(rng.integers(4, 8)), int(rng.integers(4, 7)), 3],
                         scale=float(rng.uniform(1.0, 2.0)))
        x = rng.uniform(0.1, 0.9, size=3)
        y = int(rng.integers(3))
        eps = float(rng.uniform(0.02, 0.08))
        res = exact_margin_oracle(net, x, y, eps, budget_unstable=12)
        if res.exact and res.n_unstable > 0:
            found.append((net, x, y, eps, res.margin, res.n_unstable))
    return found


@pytest.mark.parametrize("seed", range(3))
def test_relaxed_bound_sandwich_and_exactness(seed):
    """PGD <= exact <= relaxed <= IBP; splitting every unstable unit is exact."""
    for trial, (net, x, y, eps, exact, n_unstable) in enumerate(_oracle_resolved_instances(seed, 12)):
        pgd_margin = method_bound(net, x, y, eps, "pgd",
                                  attack=AttackConfig(steps=60, restarts=3),
                                  rng=np.random.default_rng(trial))
        ibp_margin = method_bound(net, x, y, eps, "ibp", rng=None)
        relaxed = margin_upper_bound(net, x, y, eps, lp_budget=16)
        assert pgd_margin <= exact + 1e-9
        assert exact <= relaxed
        assert relaxed <= ibp_margin + 1e-9
        # a full tree on n unstable units takes at most 2^(n+1) - 1 LPs
        full = margin_upper_bound(net, x, y, eps, lp_budget=2 ** (n_unstable + 1))
        assert exact <= full <= exact + LP_TOLERANCE


def test_relaxed_certificate_agrees_with_oracle_and_attack():
    certified = 0
    for trial, (net, x, y, eps, exact, n_unstable) in enumerate(_oracle_resolved_instances(7, 60)):
        # a correct label keeps most instances from failing at x itself
        y = int(np.argmax(forward_batch(net, x[None])[0]))
        exact = exact_margin_oracle(net, x, y, eps, budget_unstable=12).margin
        pgd_margin = method_bound(net, x, y, eps, "pgd",
                                  attack=AttackConfig(steps=60, restarts=3),
                                  rng=np.random.default_rng(trial))
        res = certify_relaxed(net, x, y, eps, lp_budget=16)
        if res.certified:
            certified += 1
            assert pgd_margin < 0.0 and exact < 0.0
            assert exact <= res.bound < 0.0
        full = certify_relaxed(net, x, y, eps, lp_budget=2 ** (n_unstable + 1))
        assert full.certified == (exact < 0.0)
        assert res.certified <= full.certified
    assert certified >= 10


def test_relaxed_solver_failure_never_certifies(monkeypatch):
    class Failed:
        status, message = 4, "numerical difficulties"

    net, x, y, eps = None, None, None, None
    for net, x, _, eps, _, _ in _oracle_resolved_instances(11, 40):
        y = int(np.argmax(forward_batch(net, x[None])[0]))
        if certify_relaxed(net, x, y, eps).n_lps:
            break
    else:
        pytest.fail("no instance reached an LP")
    monkeypatch.setattr(V, "linprog", lambda *a, **k: Failed())
    res = certify_relaxed(net, x, y, eps)
    assert not res.certified
    assert res.status == "solver-failure"
    assert margin_upper_bound(net, x, y, eps) == np.inf


def test_relaxed_dual_bound_holds_for_any_multipliers():
    """Weak duality: perturbed nonnegative multipliers still bound the LP optimum."""
    rng = np.random.default_rng(12)
    net, x, y, eps, _, _ = _oracle_resolved_instances(12, 1)[0]
    bb = V._BranchAndBound(net, y, box_from_ball(x, eps))
    lp = V._TriangleLP(bb.relus, bb.x_lo, bb.x_hi)
    c = np.zeros(lp.n_vars)
    live = lp.out_col[-1] >= 0
    c[lp.out_col[-1][live]] = rng.normal(size=live.sum())
    a_ub = V._sparse_rows(lp.ub_rows, lp.n_vars)
    b_ub = np.asarray(lp.ub_rhs)
    bounds = np.stack([lp.lb, lp.ub], axis=1)
    res = V.linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                    bounds=bounds, method="highs")
    optimum = -res.fun
    lam = -res.ineqlin.marginals
    rho = -res.eqlin.marginals
    tight = V._dual_bound(c, a_ub, b_ub, lp.a_eq, lp.b_eq, lp.lb, lp.ub, lam, rho)
    assert optimum - 1e-9 <= tight <= optimum + LP_TOLERANCE
    for _ in range(50):
        lam_p = np.maximum(lam + rng.normal(scale=0.5, size=lam.size), 0.0)
        rho_p = rho + rng.normal(scale=0.5, size=rho.size)
        assert V._dual_bound(c, a_ub, b_ub, lp.a_eq, lp.b_eq, lp.lb, lp.ub,
                             lam_p, rho_p) >= optimum - 1e-9


def test_relaxed_bounds_hold_in_exact_arithmetic():
    """The interval and dual bounds cover their exact rational values even
    when float64 evaluation cancels large terms."""
    rng = np.random.default_rng(14)

    def exact_max(coef, lo, hi):
        return sum(max(Fraction(c) * Fraction(l), Fraction(c) * Fraction(h))
                   for c, l, h in zip(coef, lo, hi))

    for _ in range(200):
        n = int(rng.integers(3, 12))
        w = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-3, 9, size=(2, n))
        b = rng.normal(size=2) * 1e8
        lo = rng.normal(size=n)
        hi = lo + rng.uniform(0, 2, size=n)
        upper = V._interval_upper(w, b, lo, hi)
        for i in range(2):
            assert Fraction(upper[i]) >= exact_max(w[i], lo, hi) + Fraction(b[i])

        c = rng.normal(size=n) * 1e6
        a_ub = rng.normal(size=(3, n)) * 1e6
        a_eq = rng.normal(size=(2, n)) * 1e6
        b_ub, b_eq = rng.normal(size=3) * 1e6, rng.normal(size=2) * 1e6
        lam, rho = rng.uniform(0, 2, size=3), rng.normal(size=2)
        bound = V._dual_bound(c, sparse.csr_matrix(a_ub), b_ub, sparse.csr_matrix(a_eq), b_eq,
                              lo, hi, lam, rho)
        r = [Fraction(c[j]) - sum(Fraction(a_ub[i, j]) * Fraction(lam[i]) for i in range(3))
             - sum(Fraction(a_eq[i, j]) * Fraction(rho[i]) for i in range(2)) for j in range(n)]
        exact = (sum(Fraction(l) * Fraction(v) for l, v in zip(lam, b_ub))
                 + sum(Fraction(p) * Fraction(v) for p, v in zip(rho, b_eq))
                 + exact_max(r, lo, hi))
        assert Fraction(bound) >= exact


def test_back_substitution_bounds_hold_in_exact_arithmetic():
    """The back-substitution bound and the interval bound on each elided
    output row cover their exact rational values on nets whose large, mixed
    weights cancel in float64."""
    rng = np.random.default_rng(15)

    def exact_back_substitution(relus, g, g0, x_lo, x_hi):
        g, const = [Fraction(v) for v in g], Fraction(g0)
        for layer in reversed(relus):
            slope, intercept = layer.upper_relaxation()
            lower = layer.lower_slope()
            gz = [gi * Fraction(slope[i] if gi > 0 else lower[i]) for i, gi in enumerate(g)]
            const += sum(gi * Fraction(intercept[i]) for i, gi in enumerate(g) if gi > 0)
            const += sum(v * Fraction(layer.b[i]) for i, v in enumerate(gz))
            g = [sum(gz[i] * Fraction(layer.w[i, m]) for i in range(len(gz)))
                 for m in range(layer.w.shape[1])]
        return const + sum(gi * Fraction(x_hi[m] if gi > 0 else x_lo[m]) for m, gi in enumerate(g))

    def exact_interval_max(row, const, lo, hi):
        return const + sum(max(c * Fraction(l), c * Fraction(h)) for c, l, h in zip(row, lo, hi))

    checked = 0
    for _ in range(40):
        dims = [3, int(rng.integers(3, 6)), int(rng.integers(3, 6)), 3]
        layers = []
        for i, (a, b) in enumerate(zip(dims, dims[1:])):
            w = rng.normal(size=(b, a)) * 10.0 ** rng.integers(-2, 7, size=(b, a))
            layers.append(Affine(w, rng.normal(size=b) * 10.0 ** rng.integers(0, 3, size=b)))
            if i < len(dims) - 2:
                layers.append(ReLU())
        net = Network(layers, len(layers), 3, (3,))
        x, y = rng.uniform(0.2, 0.8, size=3), int(rng.integers(3))
        bb = V._BranchAndBound(net, y, box_from_ball(x, 0.4))
        checked += len(bb.units) > 0
        for cls in range(3):
            if cls == y:
                continue
            row, const = bb.rows[cls], bb.consts[cls]
            crown = V._upper_bound_linear(bb.relus, len(bb.relus), row[None], np.array([const]),
                                          bb.x_lo, bb.x_hi)[0]
            assert Fraction(crown) >= exact_back_substitution(bb.relus, row, const,
                                                              bb.x_lo, bb.x_hi)
            exact_row = [Fraction(a) - Fraction(b) for a, b in zip(net.layers[-1].weight[cls],
                                                                   net.layers[-1].weight[y])]
            exact_const = Fraction(net.layers[-1].bias[cls]) - Fraction(net.layers[-1].bias[y])
            assert Fraction(bb.interval_hi[cls]) >= exact_interval_max(
                exact_row, exact_const, bb.out_lo, bb.out_hi)
    assert checked >= 10


def test_relaxed_conv_net_between_attack_and_ibp():
    rng = np.random.default_rng(13)
    checked = 0
    for trial in range(10):
        net = random_cnn(rng, in_shape=(1, 5, 5), channels=(2,), fc=6, scale=1.5)
        x = rng.uniform(0.2, 0.8, size=(1, 5, 5))
        y = int(np.argmax(forward_batch(net, x[None])[0]))
        eps = 0.03
        relaxed = margin_upper_bound(net, x, y, eps, lp_budget=8)
        pgd_margin = method_bound(net, x, y, eps, "pgd",
                                  attack=AttackConfig(steps=40, restarts=2),
                                  rng=np.random.default_rng(trial))
        ibp_margin = method_bound(net, x, y, eps, "ibp", rng=None)
        assert pgd_margin <= relaxed <= ibp_margin + 1e-9
        checked += relaxed < ibp_margin - 1e-6
    assert checked >= 1


def test_method_bound_signs_against_oracle():
    rng = np.random.default_rng(4)
    checked = 0
    for trial in range(12):
        net = random_mlp(rng, [3, 6, 4, 3], scale=1.5, split_relus=1)
        x = rng.uniform(0.2, 0.8, size=3)
        y = int(rng.integers(3))
        eps = 0.05
        res = exact_margin_oracle(net, x, y, eps, budget_unstable=12)
        if not res.exact:
            continue
        checked += 1
        ibp_m = method_bound(net, x, y, eps, "ibp", rng=None)
        pgd_m = method_bound(net, x, y, eps, "pgd",
                             attack=AttackConfig(steps=40, restarts=2),
                             rng=np.random.default_rng(trial))
        taps_m = method_bound(net, x, y, eps, "taps",
                              attack=AttackConfig(steps=40), rng=np.random.default_rng(trial))
        sabr_m = method_bound(net, x, y, eps, "sabr",
                              attack=AttackConfig(steps=20), rng=np.random.default_rng(trial))
        assert ibp_m - res.margin >= -1e-9          # sound over-approximation
        assert pgd_m - res.margin <= 1e-9           # feasible-point under-approx
        assert taps_m <= ibp_m + 1e-9               # attacked bound below interval bound
        assert np.isfinite(sabr_m)
    assert checked >= 4


def test_concrete_bound_paths_build_no_tape(monkeypatch):
    """Paths that only read bound values take no gradient, so they build no tape."""
    built = []
    init = T.Tape.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(T.Tape, "__init__", counting_init)
    rng = np.random.default_rng(13)
    whole = random_mlp(rng, [4, 8, 6, 3])               # empty classifier
    split = random_mlp(rng, [4, 8, 6, 3], split_relus=1)
    X = rng.uniform(0, 1, size=(5, 4))
    y = rng.integers(0, 3, size=5)
    attack = AttackConfig(steps=2)
    ibp_bounds(whole, X[0], int(y[0]), 0.05)
    certify_ibp(whole, X[0], int(y[0]), 0.05)
    _certified_mask(whole, X, y, 0.05)
    for net in (whole, split):
        taps_accuracy(net, X, y, 0.05, attack, rng=np.random.default_rng(0))
        exact_margin_oracle(net, X[0], int(y[0]), 0.05)
        for method in ("ibp", "sabr", "taps"):
            method_bound(net, X[0], int(y[0]), 0.05, method, attack=attack,
                         rng=np.random.default_rng(0))
    assert built == []
    T.Tape()
    assert len(built) == 1  # the count sees a construction


def test_pgd_margins_bounds():
    rng = np.random.default_rng(5)
    net = random_mlp(rng, [4, 10, 3], scale=0.7)
    X = rng.uniform(0, 1, size=(40, 4))
    y = np.argmax(forward_batch(net, X), axis=1)
    eps = 0.03
    margins = pgd_margins(net, X, y, eps, AttackConfig(steps=30, restarts=2),
                          rng=np.random.default_rng(0))
    adv_acc = np.mean(np.asarray(margins) < 0.0)
    cert = np.mean([certify_ibp(net, X[i], int(y[i]), eps)[0] for i in range(len(y))])
    nat = 1.0
    assert cert <= adv_acc + 1e-12 <= nat + 1e-12
    at_zero = pgd_margins(net, X, y, 0.0, AttackConfig(), rng=np.random.default_rng(0))
    assert np.all(np.asarray(at_zero) < 0.0)


def variance_setup(seed=0, pool=60):
    rng = np.random.default_rng(seed)
    net = random_mlp(rng, [2, 6, 5, 2], scale=1.2, split_relus=1)
    X = rng.uniform(0, 1, size=(pool, 2))
    y = rng.integers(0, 2, size=pool)
    return net, X, y


def test_variance_check_n1_identical_estimators():
    net, X, y = variance_setup()
    rep = variance_theorem_check(net, X, y, 0.05, n=1, trials=50, seed=3,
                                 attack=AttackConfig(steps=3))
    np.testing.assert_allclose(rep.mean_avg_then_mul, rep.mean_mul_then_avg, atol=1e-12)
    np.testing.assert_allclose(rep.var_avg_then_mul, rep.var_mul_then_avg, atol=1e-12)
    assert rep.variance_ok_fraction == 1.0


def test_variance_check_constant_bound_branch():
    """If g is constant over the pool both estimators coincide trial-by-trial."""
    net, X, y = variance_setup(seed=1)
    f_vals, g_vals, df, dg = V.per_sample_loss_grads(net, X, y, 0.05, attack=AttackConfig(steps=3),
                                                     rng=np.random.default_rng(0))
    g_const = np.full_like(g_vals, 2.5)
    dg_zero = np.zeros_like(dg)
    rng = np.random.default_rng(7)
    for _ in range(20):
        idx = rng.integers(0, len(f_vals), size=8)
        fb, gb, dfb, dgb = f_vals[idx], g_const[idx], df[idx], dg_zero[idx]
        g1 = gb.mean() * dfb.mean(axis=0) + fb.mean() * dgb.mean(axis=0)
        g2 = (gb[:, None] * dfb + fb[:, None] * dgb).mean(axis=0)
        np.testing.assert_allclose(g1, g2, atol=1e-12)


def test_variance_check_generic_trend():
    """On a trained net the estimator means agree within the per-trial noise
    floor and batch-mean multipliers reduce per-coordinate variance."""
    train = synthetic_moons(2000, noise=0.06, seed=31)
    pool = synthetic_moons(600, noise=0.06, seed=32)
    cfg = TrainConfig(
        loss=LossKind(tag="ibp"),
        schedule=Schedule(total_epochs=16, annealing_epochs=6, warmup_epochs=1,
                          decay_epochs=(12, 14), lr0=0.01, batch_size=50,
                          eps_target=0.08),
        arch="mlp", hidden=(24, 24), classifier_relus=1, optimizer="adam", seed=0,
        val_attack=AttackConfig(steps=2))
    with tempfile.TemporaryDirectory() as tmp:
        net = train_run(cfg, train, tmp)["state"].net
    rep = variance_theorem_check(net, pool.images, pool.labels, 0.08,
                                 n=16, trials=500, seed=11,
                                 attack=AttackConfig(steps=3))
    assert rep.mean_agreement_fraction >= 0.95
    assert rep.variance_ok_fraction >= 0.9


def test_variance_check_pool_precondition():
    net, X, y = variance_setup()
    with pytest.raises(ValueError, match="10n"):
        variance_theorem_check(net, X, y, 0.05, n=20, trials=5, seed=0)


def test_verdict_json_round_trip():
    v = SampleVerdict(sample_id=3, natural_correct=True, ibp_certified=False,
                      pgd_margin=-0.25, exact_margin=None,
                      method_bounds={"ibp": np.array([0.0, 0.5])})
    line = verdict_json_line(v)
    back = json.loads(line)
    assert back["sample_id"] == 3
    assert back["exact_margin"] is None
    assert back["method_bounds"]["ibp"] == [0.0, 0.5]
    v = SampleVerdict(sample_id=7, natural_correct=False, ibp_certified=True,
                      pgd_margin=np.float64(-1.0) / 3, exact_margin=None,
                      method_bounds={"ibp": np.array([0.0, -0.125]), "pgd": [2.5]})
    assert verdict_json_line(v) == (
        '{"exact_margin": null, "ibp_certified": true, '
        '"method_bounds": {"ibp": [0.0, -0.125], "pgd": [2.5]}, "natural_correct": false, '
        '"pgd_margin": -0.3333333333333333, "sample_id": 7}')
