"""Schedules, optimizer steps, smoke runs, determinism, persistence."""

import sys
import tempfile

import numpy as np
import pytest

import certitrain.attack as attack
import certitrain.train as train
from certitrain.attack import AttackConfig
from certitrain.checkpoint import load_checkpoint, save_checkpoint
from certitrain.data import synthetic_moons
from certitrain.loss import LossKind, l1_penalty
from certitrain.net import build_architecture, init_params
from certitrain.train import (
    CSV_COLUMNS,
    NumericError,
    RunState,
    Schedule,
    TrainConfig,
    clip_gradients,
    epsilon_schedule,
    lr_schedule,
    make_optimizer,
    natural_accuracy,
    taps_accuracy,
    train_run,
    train_step,
)
from certitrain.verify import certify_ibp


def small_schedule(**kw):
    base = dict(total_epochs=4, annealing_epochs=2, warmup_epochs=1,
                decay_epochs=(2, 3), lr0=0.01, batch_size=16, eps_target=0.1)
    base.update(kw)
    return Schedule(**base)


def test_schedule_validation():
    with pytest.raises(ValueError, match="warmup"):
        Schedule(total_epochs=10, annealing_epochs=12, decay_epochs=(5, 6))
    with pytest.raises(ValueError, match="decay_factor"):
        Schedule(total_epochs=70, decay_factor=1.5)


def test_epsilon_schedule_endpoints():
    sched = small_schedule(ramp="linear")
    spe = 10
    assert epsilon_schedule(0, sched, spe) == 0.0
    assert epsilon_schedule(1 * spe, sched, spe) == 0.0          # warmup end
    mid = 1 * spe + spe // 2                                     # ramp midpoint
    assert abs(epsilon_schedule(mid, sched, spe) - 0.05) < 1e-12
    assert epsilon_schedule(2 * spe, sched, spe) == 0.1          # annealing end
    assert epsilon_schedule(100 * spe, sched, spe) == 0.1


def test_epsilon_schedule_monotone_smooth():
    sched = small_schedule(ramp="smooth")
    vals = [epsilon_schedule(s, sched, 10) for s in range(50)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert abs(vals[15] - 0.05) < 1e-12  # cubic ease passes through the midpoint


def test_lr_schedule_decays():
    sched = Schedule(total_epochs=70, annealing_epochs=20, decay_epochs=(50, 60),
                     lr0=5e-4, decay_factor=0.2)
    assert lr_schedule(0, sched) == 5e-4
    assert abs(lr_schedule(50, sched) - 1e-4) < 1e-18
    assert abs(lr_schedule(60, sched) - 2e-5) < 1e-18


def test_grad_clip():
    g = [np.full(4, 10.0)]  # norm 20
    clipped, norm = clip_gradients(g, 10.0)
    assert abs(norm - 20.0) < 1e-12
    assert abs(np.sqrt(np.sum(clipped[0] ** 2)) - 10.0) < 1e-9


def test_sgd_momentum_two_steps():
    # dyadic values keep every product and sum exact
    opt = make_optimizer("sgd", momentum=0.5)
    a0 = [np.array([1.0, -2.0]), np.array([[0.5]])]
    g1 = [np.array([0.5, 0.25]), np.array([[1.0]])]
    g2 = [np.array([-1.0, 0.5]), np.array([[-0.25]])]
    a1 = opt.step(a0, g1, 0.5)
    a2 = opt.step(a1, g2, 0.5)
    # v1 = g1; v2 = 0.5 * g1 + g2
    want1 = [np.array([0.75, -2.125]), np.array([[0.0]])]
    want2 = [np.array([0.75 + 0.375, -2.125 - 0.3125]), np.array([[0.0 - 0.125]])]
    for got, want in zip(a1 + a2, want1 + want2):
        assert np.array_equal(got, want)
    assert np.array_equal(a0[0], [1.0, -2.0])  # the step returns new arrays


def test_run_state_needs_an_attack_generator():
    net = build_architecture("mlp", (2,), 2, 0, hidden=(8,))
    with pytest.raises(TypeError, match="rng_attack"):
        RunState(net=net, optimizer=make_optimizer("sgd"))


def moons_config(tag="ibp", **kw):
    defaults = dict(
        loss=LossKind(tag=tag, attack=AttackConfig(steps=3),
                      **({"tau_ratio": 0.4} if tag in ("sabr", "staps") else {})),
        schedule=small_schedule(),
        arch="mlp",
        hidden=(24, 24),
        classifier_relus=kw.pop("classifier_relus", 1),
        optimizer="adam",
        seed=kw.pop("seed", 0),
        fast_reg_lambda=kw.pop("fast_reg_lambda", 0.2),
        val_attack=AttackConfig(steps=3),
        record_time=kw.pop("record_time", True),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.mark.parametrize("tag", ["natural", "pgd-at", "ibp", "taps", "taps-single", "sabr", "staps"])
def test_smoke_run_every_loss_kind(tag, tmp_path):
    ds = synthetic_moons(200, noise=0.08, seed=1)
    config = moons_config(tag)
    result = train_run(config, ds, tmp_path / tag)
    assert len(result["history"]) == 4
    lines = (tmp_path / tag / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5  # header + one row per epoch
    final, meta = load_checkpoint(result["final"])
    assert meta["arch"] == "mlp"


def test_moons_natural_training_reaches_99():
    """2-layer MLP hits 99% on moons within 200 steps of plain training."""
    ds = synthetic_moons(1000, noise=0.04, seed=3)
    config = TrainConfig(
        loss=LossKind(tag="natural"),
        schedule=Schedule(total_epochs=8, annealing_epochs=0, warmup_epochs=0,
                          decay_epochs=(6, 7), lr0=0.1, batch_size=36, eps_target=0.05),
        arch="mlp", hidden=(64,), classifier_relus=0, optimizer="adam", seed=0,
        init="kaiming",
    )
    # 8 epochs x 25 steps = 200 steps on the 900-sample train split
    with tempfile.TemporaryDirectory() as tmp:
        result = train_run(config, ds, tmp)
    assert result["history"][-1]["step"] == 200
    assert natural_accuracy(result["state"].net, ds.images, ds.labels) >= 0.99


def test_annealing_never_touches_latent_pipeline():
    ds = synthetic_moons(120, seed=5)
    config = moons_config("taps", classifier_relus=1)
    sched = config.schedule
    with tempfile.TemporaryDirectory() as tmp:
        result = train_run(config, ds, tmp)
    state = result["state"]
    spe = int(np.ceil(108 / sched.batch_size))
    annealing_steps = sched.annealing_epochs * spe
    total_steps = sched.total_epochs * spe
    # the product branch ran only after annealing finished
    assert state.taps_branch_steps == total_steps - annealing_steps


def test_staps_step_selects_one_region(tmp_path, monkeypatch):
    """Each STAPS step with eps > 0 runs the SABR attack once, annealing or not."""
    calls = []
    original = attack.sabr_select_region

    def counting(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("certitrain") and getattr(module, "sabr_select_region", None) is original:
            monkeypatch.setattr(module, "sabr_select_region", counting)
    ds = synthetic_moons(40, seed=5)  # 36 training samples: two steps per epoch
    sched = small_schedule(total_epochs=3, annealing_epochs=1, warmup_epochs=0,
                           decay_epochs=(1, 2), batch_size=18)
    result = train_run(moons_config("staps", schedule=sched), ds, tmp_path)
    steps = result["state"].step
    positive = sum(epsilon_schedule(s, sched, 2) > 0.0 for s in range(steps))
    assert (steps, positive, result["state"].taps_branch_steps) == (6, 5, 4)
    assert len(calls) == positive
    assert all(eps > 0.0 for eps in calls)


def test_empty_classifier_taps_matches_ibp_bitwise(tmp_path):
    ds = synthetic_moons(150, seed=7)
    cfg_ibp = moons_config("ibp", classifier_relus=0, record_time=False)
    cfg_taps = moons_config("taps", classifier_relus=0, record_time=False)
    r1 = train_run(cfg_ibp, ds, tmp_path / "ibp")
    r2 = train_run(cfg_taps, ds, tmp_path / "taps0")
    csv1 = (tmp_path / "ibp" / "metrics.csv").read_bytes()
    csv2 = (tmp_path / "taps0" / "metrics.csv").read_bytes()
    assert csv1 == csv2
    net1, _ = load_checkpoint(r1["final"])
    net2, _ = load_checkpoint(r2["final"])
    for a, b in zip(net1.param_arrays(), net2.param_arrays()):
        assert np.array_equal(a, b)


def test_same_seed_reproduces_csv_bytes(tmp_path):
    ds = synthetic_moons(150, seed=9)
    for name in ("a", "b"):
        train_run(moons_config("taps", record_time=False), ds, tmp_path / name)
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()


def test_checkpoint_round_trip_bitwise(tmp_path):
    net = init_params(build_architecture("cnn3", (1, 28, 28), 10, 1), 3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net, {"arch": "cnn3", "seed": 3, "epoch": 0})
    loaded, meta = load_checkpoint(path)
    assert meta == {"arch": "cnn3", "seed": 3, "epoch": 0}
    assert loaded.split_index == net.split_index
    for a, b in zip(net.param_arrays(), loaded.param_arrays()):
        assert a.tobytes() == b.tobytes()


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "junk"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(p)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    net = init_params(build_architecture("mlp", (2,), 2, 1, hidden=(4, 4)), 0)
    save_checkpoint(path, net)
    before = path.read_bytes()

    class Unwritable:  # a parameter array whose bytes cannot be produced
        shape = (3,)

        def __array__(self, dtype=None, copy=None):
            raise OSError("no space left on device")

    other = init_params(net, 1)
    arrays = other.param_arrays()
    monkeypatch.setattr(other, "param_arrays", lambda: arrays[:2] + [Unwritable()])
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, other)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_taps_accuracy_eps_zero_is_natural():
    rng = np.random.default_rng(11)
    ds = synthetic_moons(100, seed=11)
    net = init_params(build_architecture("mlp", (2,), 2, 1, hidden=(16, 16)), 4)
    nat = natural_accuracy(net, ds.images, ds.labels)
    t = taps_accuracy(net, ds.images, ds.labels, 0.0, AttackConfig(steps=2),
                      rng=np.random.default_rng(0))
    assert abs(nat - t) < 1e-12


def test_taps_accuracy_empty_classifier_is_certified():
    ds = synthetic_moons(80, seed=13)
    net = init_params(build_architecture("mlp", (2,), 2, 0, hidden=(16,)), 5)
    t = taps_accuracy(net, ds.images, ds.labels, 0.05, AttackConfig(steps=8),
                      rng=np.random.default_rng(0))
    certified = np.mean([
        certify_ibp(net, ds.images[i], int(ds.labels[i]), 0.05)[0]
        for i in range(len(ds))
    ])
    assert abs(t - certified) < 1e-12


def test_l1_penalty_joins_the_step():
    ds = synthetic_moons(40, seed=15)
    net = init_params(build_architecture("mlp", (2,), 2, 1, hidden=(8, 8)), 3)
    batch = (ds.images[:8], ds.labels[:8])
    rows, params = {}, {}
    for lam in (0.0, 1e-2):
        state = RunState(net=net, optimizer=make_optimizer("sgd"),
                         rng_attack=np.random.default_rng(0))
        rows[lam] = train_step(batch, state, moons_config("ibp", l1=lam), steps_per_epoch=5)
        params[lam] = state.net.param_arrays()
    value, _ = l1_penalty(net.param_arrays(), 1e-2)
    assert value > 0.0
    assert rows[1e-2]["combined_loss"] == rows[0.0]["combined_loss"] + value
    assert rows[1e-2]["ibp_loss"] == rows[0.0]["ibp_loss"]
    assert not all(np.array_equal(a, b) for a, b in zip(params[0.0], params[1e-2]))


def test_nonfinite_loss_aborts():
    ds = synthetic_moons(40, seed=15)
    net = build_architecture("mlp", (2,), 2, 0, hidden=(8,))
    huge = [a + 1e300 for a in net.param_arrays()]
    state = RunState(net=net.with_params(huge), optimizer=make_optimizer("sgd"),
                     rng_attack=np.random.default_rng(0))
    config = moons_config("ibp", classifier_relus=0)
    with pytest.raises(NumericError, match=r"^non-finite loss nan at epoch 0 step 0; "
                                           r"first non-finite gradient: layer 0 \(Affine\) weight$"):
        with np.errstate(over="ignore", invalid="ignore"):
            train_step((ds.images[:8], ds.labels[:8]), state, config, steps_per_epoch=5)


def test_nonfinite_gradient_names_first_parameter(monkeypatch):
    ds = synthetic_moons(40, seed=15)
    net = build_architecture("mlp", (2,), 2, 0, hidden=(8,))
    grads = [np.zeros_like(a) for a in net.param_arrays()]
    grads[2][1, 3] = np.inf   # layers: Affine 0, ReLU 1, Affine 2 (weight, then bias)
    grads[3][0] = np.nan
    monkeypatch.setattr(train, "_bound_loss_grads", lambda *a, **k: (grads, 0.5, 0.5))
    state = RunState(net=net, optimizer=make_optimizer("sgd"), rng_attack=np.random.default_rng(0),
                     epoch=2, step=7)
    config = moons_config("ibp", classifier_relus=0)
    with pytest.raises(NumericError, match=r"^non-finite gradient norm at epoch 2 step 7; "
                                           r"first non-finite gradient: layer 2 \(Affine\) weight$"):
        with np.errstate(invalid="ignore"):
            train_step((ds.images[:8], ds.labels[:8]), state, config, steps_per_epoch=5)
