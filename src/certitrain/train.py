"""Training loop: eps annealing, lr schedule, gradient clipping, early stopping.

The per-step loss follows the two-phase recipe: while eps is still ramping,
descend the sound bound loss plus the scaled stability regularizer; once eps
reaches its target, switch to the configured objective (plain bound loss for
ibp/sabr, the gradient-scaled product for taps/staps).  Validation tracks
natural accuracy and the attacked-latent accuracy, which drives best-model
selection once annealing has finished.

A bound-loss step builds no tape: its gradient comes from a numpy interval
pass and a numpy reverse pass (:func:`_bound_loss_grads`) that repeat the
taped graph's arithmetic, so it is bit for bit the taped gradient.  The
product, natural and PGD steps still differentiate on the tape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attack import AttackConfig, ce_rows, pgd_input, pgd_latent, sabr_select_region
from .checkpoint import save_checkpoint
from .data import Dataset, batches, train_val_split
from .interval import box_from_ball, elided_bounds, propagate_box
from .loss import (LossKind, NumericError, ce_terms, combined_gradient, elided_ce_vjp,
                   fast_regularizer_vjp, l1_penalty, margin_loss)
from .net import (INIT_MODES, Network, build_architecture, forward_batch, forward_on_tape,
                  init_params, lift_params, param_grads, relu_layer_count)

__all__ = [
    "Schedule",
    "TrainConfig",
    "RunState",
    "NumericError",
    "epsilon_schedule",
    "lr_schedule",
    "train_step",
    "taps_accuracy",
    "natural_accuracy",
    "train_run",
    "CSV_COLUMNS",
]

CSV_COLUMNS = (
    "epoch", "step", "epsilon", "lr", "nat_loss", "ibp_loss", "taps_loss",
    "combined_loss", "grad_norm", "nat_acc", "taps_acc", "time_ms",
)


@dataclass(frozen=True)
class Schedule:
    total_epochs: int = 70
    annealing_epochs: int = 20
    warmup_epochs: int = 1
    decay_epochs: tuple = (50, 60)
    decay_factor: float = 0.2
    lr0: float = 5e-4
    grad_clip: float = 10.0
    batch_size: int = 256
    eps_target: float = 0.1
    ramp: str = "smooth"  # cubic ease-in-out; "linear" optional

    def __post_init__(self):
        e1, e2 = self.decay_epochs
        if not (self.warmup_epochs <= self.annealing_epochs <= e1 < e2 <= self.total_epochs):
            raise ValueError(
                "need warmup <= annealing <= decay1 < decay2 <= total "
                f"(got {self.warmup_epochs}, {self.annealing_epochs}, {e1}, {e2}, "
                f"{self.total_epochs})"
            )
        if not 0 < self.decay_factor < 1:
            raise ValueError("decay_factor must lie in (0, 1)")
        if self.ramp not in ("smooth", "linear"):
            raise ValueError(f"unknown ramp {self.ramp!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.eps_target >= 0:  # also rejects NaN
            raise ValueError(f"eps_target must be >= 0, got {self.eps_target}")
        if not self.lr0 > 0:
            raise ValueError(f"lr0 must be > 0, got {self.lr0}")
        if not self.grad_clip >= 0:  # 0 turns clipping off
            raise ValueError(f"grad_clip must be >= 0, got {self.grad_clip}")


def epsilon_schedule(step, schedule: Schedule, steps_per_epoch) -> float:
    """Monotone ramp: zero through warmup, then up to eps_target."""
    if step < 0:
        raise ValueError("negative step")
    warm = schedule.warmup_epochs * steps_per_epoch
    ramp = (schedule.annealing_epochs - schedule.warmup_epochs) * steps_per_epoch
    if step <= warm:
        return 0.0
    if ramp <= 0 or step >= warm + ramp:
        return schedule.eps_target
    t = (step - warm) / ramp
    if schedule.ramp == "smooth":
        t = t * t * (3.0 - 2.0 * t)
    return schedule.eps_target * t


def lr_schedule(epoch, schedule: Schedule) -> float:
    lr = schedule.lr0
    for boundary in schedule.decay_epochs:
        if epoch >= boundary:
            lr *= schedule.decay_factor
    return lr


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

class SGD:
    def __init__(self, momentum=0.9):
        self.momentum = momentum
        self.velocity = None

    def step(self, arrays, grads, lr):
        if self.velocity is None:
            self.velocity = [np.zeros_like(a) for a in arrays]
        out = []
        for i, (a, g) in enumerate(zip(arrays, grads)):
            self.velocity[i] = self.momentum * self.velocity[i] + g
            out.append(a - lr * self.velocity[i])
        return out


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self):
        self.m = self.v = None
        self.t = 0

    def step(self, arrays, grads, lr):
        if self.m is None:
            self.m = [np.zeros_like(a) for a in arrays]
            self.v = [np.zeros_like(a) for a in arrays]
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        out = []
        for i, (a, g) in enumerate(zip(arrays, grads)):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1 - ADAM_BETA2) * g * g
            out.append(a - lr * (self.m[i] / b1c) / (np.sqrt(self.v[i] / b2c) + ADAM_EPS))
        return out


OPTIMIZERS = {"sgd": SGD, "adam": lambda momentum: Adam()}


def make_optimizer(name, momentum=0.9):
    return OPTIMIZERS[name](momentum)  # TrainConfig checks the name


# ---------------------------------------------------------------------------
# Config and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    loss: LossKind = field(default_factory=LossKind)
    schedule: Schedule = field(default_factory=Schedule)
    arch: str = "mlp"
    hidden: tuple = (128, 128)
    classifier_relus: int = 1
    init: str = "ibp_stable"
    optimizer: str = "sgd"
    momentum: float = 0.9
    seed: int = 0
    l1: float = 0.0
    fast_reg_lambda: float = 0.5
    val_fraction: float = 0.1
    val_attack: AttackConfig = field(default_factory=lambda: AttackConfig(steps=8))
    record_time: bool = True  # switch off for byte-identical metrics CSVs

    def __post_init__(self):
        for what, name, names in (("init mode", self.init, INIT_MODES),
                                  ("optimizer", self.optimizer, tuple(OPTIMIZERS))):
            if name not in names:
                raise ValueError(f"unknown {what} {name!r} (expected one of {names})")
        if not all(w >= 1 for w in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {tuple(self.hidden)}")
        relus = relu_layer_count(self.arch, self.hidden)  # rejects an unknown arch
        if not 0 <= self.classifier_relus <= relus:
            raise ValueError(f"classifier_relus must lie in [0, {relus}] (the network's "
                             f"ReLU layers), got {self.classifier_relus}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        for name in ("l1", "fast_reg_lambda"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class RunState:
    net: Network
    optimizer: object
    rng_attack: np.random.Generator  # every attack of the run draws from it
    epoch: int = 0
    step: int = 0
    epsilon: float = 0.0
    lr: float = 0.0
    best_taps_acc: float = -1.0
    best_net: Network | None = None
    taps_branch_steps: int = 0  # counts steps that invoked the latent pipeline


# ---------------------------------------------------------------------------
# One optimization step
# ---------------------------------------------------------------------------

def _bound_loss_grads(net, box, y, *, reg_lambda=0.0, eps_frac=0.0):
    """Gradient of mean bound loss over ``box`` (+ scaled regularizer during
    annealing): (grads, bound loss, objective), without a tape.

    One numpy interval pass (:func:`propagate_box`) keeps each layer's box
    and forward products; the reverse pass runs the elided loss's adjoints
    (:func:`elided_ce_vjp`), then each layer's ``box_vjp`` from the last to
    the first.  A box the regularizer reads adds its adjoints
    (:func:`fast_regularizer_vjp`) before the next layer's, the tape's
    order, so the result equals the taped ``ibp_loss_terms`` +
    ``fast_regularizer_node`` gradient bit for bit wherever such a box feeds
    a ReLU, as in every built architecture (the tape adds a linear next
    layer's two terms one at a time).  The input box is a constant: its
    adjoint is not formed.
    """
    last = len(net.layers) - 1
    collected, kept = [], []
    out = propagate_box(net, box, stop=last, collect=collected, kept=kept)
    bound_value, g_lo, g_hi, grads = elided_ce_vjp(net.layers[last], out, y)
    objective, reg = bound_value, {}
    if reg_lambda > 0.0 and eps_frac > 0.0:
        reg_value, reg = fast_regularizer_vjp(net, box, reg_lambda, collected, eps_frac)
        objective = bound_value + reg_value * eps_frac
    for i in range(last - 1, -1, -1):
        if i in reg:
            g_lo, g_hi = reg[i][0] + g_lo, reg[i][1] + g_hi
        below = collected[i - 1][1] if i else box
        g_lo, g_hi, layer_grads = net.layers[i].box_vjp(below.lo, below.hi, g_lo, g_hi,
                                                        kept.pop(), inputs=i > 0)
        grads = layer_grads + grads
    return [np.ascontiguousarray(g) for g in grads], bound_value, objective


def _natural_grads(net, X, y):
    tape = T.Tape()
    params = lift_params(tape, net)
    logits = forward_on_tape(net, params, tape.constant(np.asarray(X, dtype=np.float64)))
    root = T.mean_all(ce_terms(logits, y))
    grads = param_grads(tape, params, root)
    tape.nodes.clear()  # Node.tape points back: free the graph now, not at the next gc
    return grads, float(root.value)


def global_grad_norm(grads):
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))


def clip_gradients(grads, threshold):
    norm = global_grad_norm(grads)
    if threshold and norm > threshold:
        factor = threshold / norm
        grads = [g * factor for g in grads]
    return grads, norm


def _first_nonfinite(net: Network, grads):
    """'; first non-finite gradient: layer i (Kind) name', or '' if all are finite."""
    for (i, name, _), g in zip(net.params(), grads):
        if not np.all(np.isfinite(g)):
            return f"; first non-finite gradient: layer {i} ({type(net.layers[i]).__name__}) {name}"
    return ""


def train_step(batch, state: RunState, config: TrainConfig, steps_per_epoch):
    """Apply one update; returns the metrics row for this step."""
    X, y = batch
    sched = config.schedule
    eps = epsilon_schedule(state.step, sched, steps_per_epoch)
    lr = lr_schedule(state.epoch, sched)
    kind = config.loss
    annealing = eps < sched.eps_target
    rng = state.rng_attack

    taps_value = None
    bound_value = None
    if kind.tag == "natural":
        grads, objective = _natural_grads(state.net, X, y)
    elif kind.tag == "pgd-at":
        adv = pgd_input(state.net, X, y, eps, kind.attack, rng=rng)
        grads, objective = _natural_grads(state.net, adv, y)
    else:
        # the one input box this step bounds: SABR's small region or the eps-ball
        if kind.tag in ("sabr", "staps") and eps > 0.0:
            box = sabr_select_region(state.net, X, y, eps, kind.tau_ratio * eps, kind.attack, rng=rng)
        else:
            box = box_from_ball(X, eps)
        degenerate = state.net.split_index >= len(state.net.layers)
        if annealing or not kind.uses_product or degenerate:
            eps_frac = eps / sched.eps_target if annealing else 0.0
            grads, bound_value, objective = _bound_loss_grads(
                state.net, box, y,
                reg_lambda=config.fast_reg_lambda if annealing else 0.0,
                eps_frac=eps_frac)
        else:
            state.taps_branch_steps += 1
            grads, diag = combined_gradient(state.net, box, y, kind, rng=rng)
            bound_value = diag["bound_loss"]
            taps_value = diag["attacked_loss"]
            objective = diag["product"]

    if config.l1 > 0.0:
        l1_val, l1_grads = l1_penalty(state.net.param_arrays(), config.l1)
        grads = [g + lg for g, lg in zip(grads, l1_grads)]
        objective += l1_val

    if not np.isfinite(objective):
        raise NumericError(f"non-finite loss {objective} at epoch {state.epoch} "
                           f"step {state.step}{_first_nonfinite(state.net, grads)}")
    grads, norm = clip_gradients(grads, sched.grad_clip)
    if not np.isfinite(norm):
        raise NumericError(f"non-finite gradient norm at epoch {state.epoch} "
                           f"step {state.step}{_first_nonfinite(state.net, grads)}")

    state.net = state.net.with_params(state.optimizer.step(state.net.param_arrays(), grads, lr))
    state.epsilon = eps
    state.lr = lr
    state.step += 1
    return {
        "epsilon": eps,
        "lr": lr,
        "nat_loss": float(np.mean(ce_rows(forward_batch(state.net, X), y)[0])),
        "ibp_loss": bound_value,
        "taps_loss": taps_value,
        "combined_loss": objective,
        "grad_norm": norm,
    }


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------

def natural_accuracy(net: Network, X, y) -> float:
    logits = forward_batch(net, X)
    return float(np.mean(np.argmax(logits, axis=1) == y))


def _certified_mask(net: Network, X, y, eps):
    """Per-sample interval certification (all non-label diffs bounded < 0)."""
    box = box_from_ball(np.asarray(X, dtype=np.float64), eps)
    return margin_loss(elided_bounds(net, box, y).hi, y) < 0.0


def taps_accuracy(net: Network, X, y, eps, attack: AttackConfig, *, rng) -> float:
    """Fraction of samples whose latent attack points are all classified right.

    With an empty classifier this is interval-certified accuracy; with eps=0
    it reduces to natural accuracy.  Evaluation runs in chunks of 256 samples
    to bound the memory of the multi-target attack rows.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    if net.split_index >= len(net.layers):
        return float(np.mean(_certified_mask(net, X, y, eps)))
    correct, chunk = 0, 256
    for start in range(0, X.shape[0], chunk):
        xs = X[start : start + chunk]
        ys = y[start : start + chunk]
        latent_box = propagate_box(net, box_from_ball(xs, eps), stop=net.split_index)
        points, targets = pgd_latent(net, latent_box, ys, attack, multi=True, rng=rng)
        b, t = targets.shape
        labels = np.repeat(ys, t)
        logits = forward_batch(net, points.reshape((b * t,) + points.shape[2:]),
                               start=net.split_index)
        worst = margin_loss(logits - logits[np.arange(b * t), labels][:, None], labels)
        correct += int(np.sum(np.all(worst.reshape(b, t) < 0.0, axis=1)))
    return correct / X.shape[0]


# ---------------------------------------------------------------------------
# Full run
# ---------------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def train_run(config: TrainConfig, dataset: Dataset, out_dir):
    """Train per the schedule; writes metrics.csv, final.ckpt, best.ckpt.

    Returns a dict with artifact paths and the per-epoch history.  Best-model
    selection uses validation attacked-latent accuracy, evaluated once eps has
    reached its target.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    init_seed = seeds[0]
    shuffle_seed = int(seeds[1].generate_state(1)[0])
    attack_rng = np.random.default_rng(seeds[2])

    train_set, val_set = train_val_split(dataset, config.val_fraction, seed=config.seed)
    sample_shape = dataset.sample_shape
    net = build_architecture(config.arch, sample_shape, dataset.num_classes,
                             config.classifier_relus, hidden=config.hidden)
    net = init_params(net, init_seed, config.init)

    state = RunState(net=net, optimizer=make_optimizer(config.optimizer, config.momentum),
                     rng_attack=attack_rng)
    sched = config.schedule
    steps_per_epoch = max(1, int(np.ceil(len(train_set) / sched.batch_size)))

    csv_path = os.path.join(out_dir, "metrics.csv")
    history = []
    with open(csv_path, "w", encoding="utf-8", newline="") as csv:
        csv.write(",".join(CSV_COLUMNS) + "\n")
        for epoch in range(sched.total_epochs):
            state.epoch = epoch
            t0 = time.perf_counter()
            sums, counts = {}, {}
            for batch in batches(train_set, sched.batch_size, shuffle_seed, epoch):
                metrics = train_step(batch, state, config, steps_per_epoch)
                for k, v in metrics.items():
                    if v is not None:
                        sums[k] = sums.get(k, 0.0) + v
                        counts[k] = counts.get(k, 0) + 1
            means = {k: v / counts[k] for k, v in sums.items()}
            nat_acc = natural_accuracy(state.net, val_set.images, val_set.labels)
            val_eps = state.epsilon
            t_acc = taps_accuracy(state.net, val_set.images, val_set.labels, val_eps,
                                  config.val_attack, rng=attack_rng)
            if state.epsilon >= sched.eps_target and t_acc >= state.best_taps_acc:
                state.best_taps_acc = t_acc
                state.best_net = state.net
            elapsed_ms = int(round((time.perf_counter() - t0) * 1000)) if config.record_time else 0
            row = {
                "epoch": epoch,
                "step": state.step,
                "epsilon": state.epsilon,
                "lr": state.lr,
                "nat_loss": means.get("nat_loss"),
                "ibp_loss": means.get("ibp_loss"),
                "taps_loss": means.get("taps_loss"),
                "combined_loss": means.get("combined_loss"),
                "grad_norm": means.get("grad_norm"),
                "nat_acc": nat_acc,
                "taps_acc": t_acc,
                "time_ms": elapsed_ms,
            }
            history.append(row)
            csv.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")

    final_path = os.path.join(out_dir, "final.ckpt")
    best_path = os.path.join(out_dir, "best.ckpt")
    meta = {"arch": config.arch, "seed": config.seed, "epoch": sched.total_epochs - 1}
    save_checkpoint(final_path, state.net, meta)
    save_checkpoint(best_path, state.best_net if state.best_net is not None else state.net,
                    dict(meta, selected="best_taps_acc"))
    return {
        "final": final_path,
        "best": best_path,
        "metrics": csv_path,
        "history": history,
        "state": state,
    }
