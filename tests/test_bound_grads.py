"""The bound-loss gradient of IBP training steps, computed without a tape.

``train._bound_loss_grads`` runs one numpy interval pass and a numpy reverse
pass; ``helpers.taped_bound_loss_grads`` builds the same loss on the tape.
The two must agree bit for bit, and the numpy pass must leave nothing for the
cyclic garbage collector.
"""

import gc

import numpy as np
import pytest

from certitrain import tensor as T
from certitrain.attack import AttackConfig, sabr_select_region
from certitrain.interval import box_from_ball
from certitrain.net import build_architecture, init_params
from certitrain.train import _bound_loss_grads
from helpers import taped_bound_loss_grads

# (architecture, input shape); cnn7 on a small image keeps the test quick
ARCHS = {"mlp": (784,), "cnn3": (1, 28, 28), "cnn7": (1, 8, 8)}
NETS = {arch: init_params(build_architecture(arch, shape, 10, 1), 11)
        for arch, shape in ARCHS.items()}


def _batch(arch, b):
    rng = np.random.default_rng(b)
    return rng.uniform(size=(b,) + ARCHS[arch]), rng.integers(0, 10, size=b)


def _box(arch, region, X, y):
    if region == "point":  # eps = 0, the first steps of every run
        return box_from_ball(X, 0.0)
    return sabr_select_region(NETS[arch], X, y, 0.1, 0.04, AttackConfig(steps=2),
                              rng=np.random.default_rng(3))


@pytest.mark.parametrize("eps_frac", [0.0, 0.5], ids=["no-reg", "reg"])
@pytest.mark.parametrize("region", ["point", "sabr"])
@pytest.mark.parametrize("b", [1, 5, 128])
@pytest.mark.parametrize("arch", list(ARCHS))
def test_numpy_bound_gradient_equals_taped(arch, b, region, eps_frac):
    X, y = _batch(arch, b)
    box = _box(arch, region, X, y)
    grads, bound, objective = _bound_loss_grads(NETS[arch], box, y, reg_lambda=0.5,
                                                eps_frac=eps_frac)
    want, want_bound, want_objective = taped_bound_loss_grads(NETS[arch], box, y,
                                                              reg_lambda=0.5, eps_frac=eps_frac)
    assert (bound, objective) == (want_bound, want_objective)
    assert [g.shape for g in grads] == [g.shape for g in want]
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in want]
    assert all(g.flags["C_CONTIGUOUS"] for g in grads)


def test_bound_gradient_builds_no_tape_and_no_garbage(monkeypatch):
    def no_tape(*args, **kwargs):
        raise AssertionError("a tape was built")

    monkeypatch.setattr(T.Tape, "__init__", no_tape)
    X, y = _batch("cnn3", 16)
    box = box_from_ball(X, 0.1)
    gc.collect()
    gc.disable()
    try:
        _bound_loss_grads(NETS["cnn3"], box, y, reg_lambda=0.5, eps_frac=0.5)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
