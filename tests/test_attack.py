"""PGD attacks: projection safety, determinism, and optimality on easy cases."""

import numpy as np
import pytest

from certitrain import attack
from certitrain.attack import AttackConfig, margin_targets, pgd_input, pgd_latent, sabr_select_region
from certitrain.cli import _certify_chunk, cmd_certify, config_from_dict
from certitrain.checkpoint import save_checkpoint
from certitrain.data import synthetic_moons
from certitrain.interval import BoxBounds
from certitrain.net import Affine, Network, forward_batch
from certitrain.verify import verdict_json_line

from helpers import dyadic_mlp, random_mlp, reference_pgd


def linear_net(w, b=None, num_classes=None):
    w = np.asarray(w, dtype=np.float64)
    b = np.zeros(w.shape[0]) if b is None else np.asarray(b, dtype=np.float64)
    return Network([Affine(w, b)], 0, num_classes or w.shape[0], (w.shape[1],))


def test_eps_zero_returns_input():
    net = linear_net(np.eye(3))
    x = np.random.default_rng(0).uniform(0, 1, size=(4, 3))
    got = pgd_input(net, x, np.zeros(4, dtype=int), 0.0, AttackConfig(steps=5),
                    rng=np.random.default_rng(0))
    np.testing.assert_array_equal(got, x)


def test_linear_model_attack_saturates_at_corner():
    # two-class linear model: attacking class 0 pushes along +(w1 - w0); with
    # the auto step size the signed ascent reaches the ball corner from any
    # random init within `steps` updates
    w = np.array([[1.0, -2.0], [3.0, 1.0]])
    net = linear_net(w)
    x = np.array([[0.5, 0.5]])
    cfg = AttackConfig(steps=3, restarts=1)
    adv = pgd_input(net, x, np.array([0]), 0.05, cfg, rng=np.random.default_rng(1))
    direction = np.sign(w[1] - w[0])
    np.testing.assert_allclose(adv, x + 0.05 * direction, atol=1e-9)


def test_attack_stays_in_clipped_ball():
    rng = np.random.default_rng(2)
    net = random_mlp(rng, [5, 8, 3])
    x = rng.uniform(0, 1, size=(20, 5))
    y = rng.integers(0, 3, size=20)
    eps = 0.2
    cfg = AttackConfig(steps=10, restarts=2, check_projection=True)
    adv = pgd_input(net, x, y, eps, cfg, rng=np.random.default_rng(3))
    assert np.all(adv >= np.maximum(x - eps, 0) - 1e-12)
    assert np.all(adv <= np.minimum(x + eps, 1) + 1e-12)


def test_check_projection_raises_on_escape(monkeypatch):
    # a raise, not an assert: `python -O` must not strip the check
    def leaky_step(x, g, buf, eta, lo, hi):
        x[...] = lo
        x[1, 0, 3] = hi[0, 3] + 0.25

    monkeypatch.setattr(attack, "_signed_step", leaky_step)
    net = random_mlp(np.random.default_rng(2), [5, 8, 3])
    x = np.full((2, 5), 0.5)
    cfg = AttackConfig(steps=2, restarts=2, check_projection=True)
    with pytest.raises(RuntimeError, match=r"escaped its box by 0\.25 \(restart 1, index \(0, 3\)\)"):
        pgd_input(net, x, np.array([0, 1]), 0.1, cfg, rng=np.random.default_rng(0))
    pgd_input(net, x, np.array([0, 1]), 0.1, AttackConfig(steps=2, restarts=2),
              rng=np.random.default_rng(0))


def test_tied_values_keep_the_first_iterate(monkeypatch):
    # every pass returns the same value while the iterates move, so the first
    # iterate of the first restart must win, as a strict ">" over sequential
    # restarts keeps it
    def flat_pass(net, x, seed_fn, start=0, stop=None):
        return seed_fn(np.zeros((len(x), 2)))[0], np.ones_like(x)

    monkeypatch.setattr(attack, "forward_backward_input", flat_pass)
    monkeypatch.setattr(attack, "forward_batch", lambda net, x, start=0, stop=None:
                        np.zeros((len(x), 2)))
    x = np.full((3, 2), 0.5)
    got = pgd_input(linear_net(np.eye(2)), x, np.zeros(3, dtype=int), 0.25,
                    AttackConfig(steps=4, restarts=3), rng=np.random.default_rng(1))
    want = (x - 0.25) + np.random.default_rng(1).uniform(size=x.shape) * 0.5
    assert np.array_equal(got, want)


def test_attack_increases_loss_most_of_the_time():
    rng = np.random.default_rng(4)
    hits = trials = 0
    for t in range(10):
        net = random_mlp(rng, [6, 12, 4], scale=2.0)
        x = rng.uniform(0, 1, size=(5, 6))
        y = rng.integers(0, 4, size=5)
        adv = pgd_input(net, x, y, 0.1, AttackConfig(steps=50), rng=np.random.default_rng(t))

        def ce(points):
            logits = forward_batch(net, points)
            m = logits.max(axis=1, keepdims=True)
            lse = np.log(np.exp(logits - m).sum(axis=1)) + m[:, 0]
            return lse - logits[np.arange(len(y)), y]

        hits += int(np.sum(ce(adv) >= ce(x) - 1e-12))
        trials += 5
    assert hits / trials >= 0.95


def test_seeded_determinism():
    rng_data = np.random.default_rng(5)
    net = random_mlp(rng_data, [4, 6, 3])
    x = rng_data.uniform(0, 1, size=(3, 4))
    y = np.array([0, 1, 2])
    cfg = AttackConfig(steps=7, restarts=3)
    a = pgd_input(net, x, y, 0.1, cfg, rng=np.random.default_rng(11))
    b = pgd_input(net, x, y, 0.1, cfg, rng=np.random.default_rng(11))
    assert np.array_equal(a, b)


def test_latent_degenerate_box_is_identity():
    rng = np.random.default_rng(6)
    net = random_mlp(rng, [4, 6, 5, 3], split_relus=1)
    z = rng.normal(size=(2,) + net.latent_shape)
    box = BoxBounds(z.copy(), z.copy())
    got = pgd_latent(net, box, np.array([0, 1]), AttackConfig(steps=5), multi=False,
                     rng=np.random.default_rng(0))
    np.testing.assert_array_equal(got, z)
    pts, _ = pgd_latent(net, box, np.array([0, 1]), AttackConfig(steps=5), multi=True,
                        rng=np.random.default_rng(0))
    for t in range(pts.shape[1]):
        np.testing.assert_array_equal(pts[:, t], z)


def test_latent_linear_classifier_reaches_corner():
    """Linear objective over a box: optimum is the sign-matched corner."""
    rng = np.random.default_rng(7)
    w = rng.normal(size=(3, 6))
    layers = [Affine(w, np.zeros(3))]
    net = Network(layers, 0, 3, (6,))
    lo = rng.normal(size=(4, 6))
    hi = lo + rng.uniform(0.5, 1.5, size=(4, 6))
    box = BoxBounds(lo, hi)
    y = np.array([0, 1, 2, 0])
    cfg = AttackConfig(steps=50, restarts=1)
    pts, tgts = pgd_latent(net, box, y, cfg, multi=True, rng=np.random.default_rng(8))
    for b in range(4):
        for t in range(tgts.shape[1]):
            v = w[tgts[b, t]] - w[y[b]]
            corner = np.where(v > 0, hi[b], lo[b])
            exact = v @ corner
            got = v @ pts[b, t]
            assert got <= exact + 1e-9
            assert exact - got < 1e-6, (exact, got)


def test_multi_estimator_dominates_single_on_grid():
    """Per-target exact maxima dominate the single point's logit differences."""
    rng = np.random.default_rng(9)
    net = random_mlp(rng, [2, 6, 2], scale=2.0, split_relus=1)
    assert net.latent_shape == (2,)
    lo = np.array([[-0.5, -0.5]])
    hi = np.array([[0.7, 0.9]])
    y = np.array([0])

    # grid-exact maxima over the 2-D latent box
    g = np.linspace(0, 1, 41)
    gx, gy = np.meshgrid(g, g)
    pts = np.stack([lo[0, 0] + gx.ravel() * (hi[0, 0] - lo[0, 0]),
                    lo[0, 1] + gy.ravel() * (hi[0, 1] - lo[0, 1])], axis=1)
    logits = forward_batch(net, pts, start=net.split_index)
    diffs = logits[:, 1] - logits[:, 0]
    grid_max = diffs.max()

    # the CE-optimal single point cannot beat the per-target max
    ce = np.log1p(np.exp(np.clip(diffs, -500, 500)))
    single_diff = diffs[np.argmax(ce)]
    assert grid_max >= single_diff - 1e-12


def test_sabr_region_subset_and_limits():
    rng = np.random.default_rng(10)
    net = random_mlp(rng, [5, 8, 3])
    x = rng.uniform(0, 1, size=(8, 5))
    y = rng.integers(0, 3, size=8)
    eps = 0.2

    # tau == eps: no shrink attack, centered at x
    region = sabr_select_region(net, x, y, eps, eps, AttackConfig(steps=3),
                                rng=np.random.default_rng(0))
    np.testing.assert_allclose(region.lo, np.maximum(x - eps, 0))
    np.testing.assert_allclose(region.hi, np.minimum(x + eps, 1))

    # tau/eps = 0.1: radius is 0.1 * eps away from clipping
    tau = 0.1 * eps
    region = sabr_select_region(net, x, y, eps, tau, AttackConfig(steps=5),
                                rng=np.random.default_rng(1))
    interior = (region.lo > 0) & (region.hi < 1)
    np.testing.assert_allclose((region.hi - region.lo)[interior], 2 * tau, atol=1e-9)

    # containment in the full clipped ball, many random draws
    for seed in range(5):
        region = sabr_select_region(net, x, y, eps, tau, AttackConfig(steps=8),
                                    rng=np.random.default_rng(seed))
        assert np.all(region.lo >= np.maximum(x - eps, 0) - 1e-12)
        assert np.all(region.hi <= np.minimum(x + eps, 1) + 1e-12)


@pytest.mark.parametrize("tau_frac", [0.5, 1.0])
def test_sabr_region_at_domain_edges(monkeypatch, tau_frac):
    """B(c, tau) meets B(x, eps) and [0, 1] bit for bit for centres on and
    next to the domain's edges; tau == eps centres the region at x."""
    x = np.array([[0.0, 0.03, 0.97, 1.0]])
    eps = 0.1
    tau = tau_frac * eps
    centres = np.array([[0.05, 0.0, 1.0, 0.95]]) if tau < eps else x
    monkeypatch.setattr(attack, "pgd_input", lambda *a, **k: centres.copy())
    region = sabr_select_region(linear_net(np.eye(4)), x, np.array([0]), eps, tau,
                                AttackConfig(steps=2), rng=np.random.default_rng(0))
    assert np.array_equal(region.lo, np.maximum(np.maximum(centres - tau, x - eps), 0.0))
    assert np.array_equal(region.hi, np.minimum(np.minimum(centres + tau, x + eps), 1.0))


def test_logit_diff_objective_targets_one_class():
    # maximizing o_target - o_y on a linear model moves along w_t - w_y
    w = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    net = linear_net(w)
    x = np.array([[0.5, 0.5]])
    cfg = AttackConfig(steps=3, objective=("logit_diff", 2))
    adv = pgd_input(net, x, np.array([0]), 0.05, cfg, rng=np.random.default_rng(0))
    np.testing.assert_allclose(adv, x + 0.05 * np.sign(w[2] - w[0]), atol=1e-9)


def test_sabr_invalid_tau():
    net = linear_net(np.eye(2))
    with pytest.raises(ValueError, match="tau"):
        sabr_select_region(net, np.zeros((1, 2)), np.array([0]), 0.1, 0.2, AttackConfig(),
                           rng=np.random.default_rng(0))


def test_margin_targets():
    t = margin_targets(4, np.array([0, 2]))
    np.testing.assert_array_equal(t, [[1, 2, 3], [0, 1, 3]])


# Batched ascent against the sequential reference in helpers.py.  On a dyadic
# net every BLAS sum is exact, so batching restarts and rows must change no
# bit; dyadic inputs, a dyadic eps and a power-of-two step count keep the
# step size exact as well.

def _dyadic_case(seed, rows=5, dims=(4, 6, 6, 3), split_relus=0):
    rng = np.random.default_rng(seed)
    net = dyadic_mlp(rng, list(dims), split_relus=split_relus)
    x = rng.integers(0, 17, size=(rows, dims[0])) / 16.0
    y = rng.integers(0, dims[-1], size=rows)
    return net, x, y


@pytest.mark.parametrize("per_row", [False, True])
def test_pgd_input_matches_sequential_reference(per_row):
    net, x, y = _dyadic_case(22)
    targets = (y + 1) % net.num_classes
    eps = 0.125
    box_lo, box_hi = np.maximum(x - eps, 0.0), np.minimum(x + eps, 1.0)

    def gens():
        if per_row:
            return [np.random.default_rng(7 + i) for i in range(len(y))]
        return np.random.default_rng(7)

    got = {}
    for restarts in (1, 3):
        cfg = AttackConfig(steps=8, restarts=restarts, objective=("logit_diff", targets))
        got_rng, ref_rng = gens(), gens()
        got[restarts] = pgd_input(net, x, y, eps, cfg, rng=got_rng)
        want = reference_pgd(net, box_lo, box_hi, y, targets, 8, restarts, ref_rng)
        assert np.array_equal(got[restarts], want)
        # the draws advance each generator exactly as R separate draws do
        for a, b in zip(np.atleast_1d(got_rng), np.atleast_1d(ref_rng)):
            assert a.bit_generator.state == b.bit_generator.state
    assert not np.array_equal(got[1], got[3])  # later restarts win some rows


def test_pgd_latent_multi_matches_sequential_reference():
    net, _, y = _dyadic_case(22, dims=(4, 6, 6, 4), split_relus=1)
    rng = np.random.default_rng(31)
    lo = rng.integers(-8, 9, size=(len(y),) + net.latent_shape) / 8.0
    hi = lo + rng.integers(0, 5, size=lo.shape) / 4.0
    got = {}
    for restarts in (1, 3):
        got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        pts, tgts = pgd_latent(net, BoxBounds(lo, hi), y, AttackConfig(steps=4, restarts=restarts),
                               multi=True, rng=got_rng)
        t = tgts.shape[1]
        want = reference_pgd(net, np.repeat(lo, t, axis=0), np.repeat(hi, t, axis=0),
                             np.repeat(y, t), tgts.reshape(-1), 4, restarts, ref_rng,
                             start=net.split_index)
        assert np.array_equal(pts.reshape(want.shape), want)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        got[restarts] = pts
    assert not np.array_equal(got[1], got[3])


def test_certify_chunk_matches_per_sample_and_parallel(tmp_path):
    net = dyadic_mlp(np.random.default_rng(40), [2, 8, 8, 2])
    cfg = config_from_dict(dict(dataset="moons", test_subset=12, epsilon=0.0625,
                                eval_attack_steps=8, eval_attack_restarts=3,
                                out=str(tmp_path / "serial"), seed=3))
    ds = synthetic_moons(12, noise=0.08, seed=cfg.seed + 10_000)
    ids = np.arange(len(ds))
    methods = ("ibp", "pgd", "oracle")

    def chunk(c):
        return _certify_chunk((net, ds.images[c], ds.labels[c], c, cfg.epsilon,
                               cfg.eval_attack(), cfg.sample_seed, methods, cfg.oracle_budget))

    whole = [verdict_json_line(v) for v in chunk(ids)]
    alone = [verdict_json_line(v) for i in ids for v in chunk(ids[i : i + 1])]
    assert whole == alone
    assert '"pgd_margin": null' not in "".join(whole)

    ckpt = str(tmp_path / "net.ckpt")
    save_checkpoint(ckpt, net)
    serial = cmd_certify(cfg, ckpt, methods)
    parallel = cmd_certify(config_from_dict(dict(vars(cfg), out=str(tmp_path / "par"),
                                                 jobs=2)), ckpt, methods)
    lines = open(serial["verdicts"]).read()
    assert lines == "".join(line + "\n" for line in whole)
    assert lines == open(parallel["verdicts"]).read()
