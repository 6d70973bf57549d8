"""Command-line entry points: train, certify, tightness, ablate.

Configuration is a flat JSON document; every field can be overridden by a
``--key value`` flag.  Presets carry the reproducible recipes (per-dataset
epsilon and the loss-family hyperparameters) on desk-scale schedules.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .attack import AttackConfig
from .checkpoint import CheckpointError, load_checkpoint
from .connector import ConnectorParams
from .data import (
    DATA_ENV_VAR,
    Dataset,
    load_mnist_idx,
    resolve_data_dir,
    synthetic_digits,
    synthetic_moons,
    take_subset,
)
from .loss import LossKind
from .train import (NumericError, Schedule, TrainConfig, _certified_mask, natural_accuracy,
                    taps_accuracy, train_run)
from .verify import (
    SampleVerdict,
    adversarial_accuracy,
    certify_ibp,
    exact_margin_oracle,
    method_bound,
    verdict_json_line,
)

__all__ = ["Config", "PRESETS", "main", "cmd_train", "cmd_certify", "cmd_tightness", "cmd_ablate"]


class ConfigError(ValueError):
    pass


LOSS_NAMES = {
    "natural": "natural",
    "pgd-at": "pgd_at",
    "ibp": "ibp",
    "taps": "taps_multi",
    "taps-single": "taps_single",
    "sabr": "sabr",
    "staps": "staps",
}


@dataclass
class Config:
    # data
    dataset: str = "synthetic-digits"   # synthetic-digits | moons | mnist
    data: str | None = None             # dataset root (or CERTITRAIN_DATA)
    subset: int | None = None
    test_subset: int = 1000
    # model
    arch: str = "mlp"
    hidden: tuple = (128, 128)
    classifier_relus: int = 1
    init: str = "ibp_stable"
    # loss
    loss: str = "taps"
    epsilon: float = 0.1
    w_taps: float = 5.0
    connector_c: float = 0.5
    tau_ratio: float | None = None
    attack_steps: int = 8
    attack_restarts: int = 1
    # schedule
    total_epochs: int = 20
    annealing_epochs: int = 8
    warmup_epochs: int = 1
    decay1: int = 15
    decay2: int = 18
    decay_factor: float = 0.2
    lr0: float = 2e-3
    grad_clip: float = 10.0
    batch_size: int = 128
    ramp: str = "smooth"
    # optimizer / regularization
    optimizer: str = "adam"
    momentum: float = 0.9
    l1: float = 0.0
    fast_reg_lambda: float = 0.5
    # evaluation
    eval_attack_steps: int = 200
    eval_attack_restarts: int = 5
    oracle_budget: int = 12
    # run control
    seed: int = 0
    out: str = "runs/run"
    jobs: int = 1
    record_time: bool = True

    def validate(self):
        if self.loss not in LOSS_NAMES:
            raise ConfigError(f"loss: unknown value {self.loss!r} (choose from {sorted(LOSS_NAMES)})")
        if self.loss in ("sabr", "staps"):
            if self.tau_ratio is None:
                raise ConfigError(f"loss {self.loss!r} requires --tau-ratio")
            if not 0 < self.tau_ratio <= 1:
                raise ConfigError("tau_ratio: must lie in (0, 1]")
        elif self.tau_ratio is not None:
            raise ConfigError(f"tau_ratio conflicts with loss {self.loss!r} (sabr/staps only)")
        if self.epsilon < 0:
            raise ConfigError("epsilon: must be nonnegative")
        if not 0 <= self.connector_c <= 1:
            raise ConfigError("connector_c: must lie in [0, 1]")
        if self.w_taps < 0:
            raise ConfigError("w_taps: must be >= 0 (use 'inf' for the pure-attacked branch)")
        if self.dataset not in ("synthetic-digits", "moons", "mnist"):
            raise ConfigError(f"dataset: unknown value {self.dataset!r}")
        if self.jobs < 1:
            raise ConfigError("jobs: must be >= 1")
        try:
            self.schedule()
        except ValueError as e:
            raise ConfigError(f"schedule: {e}") from None
        return self

    def schedule(self) -> Schedule:
        return Schedule(
            total_epochs=self.total_epochs,
            annealing_epochs=self.annealing_epochs,
            warmup_epochs=self.warmup_epochs,
            decay_epochs=(self.decay1, self.decay2),
            decay_factor=self.decay_factor,
            lr0=self.lr0,
            grad_clip=self.grad_clip,
            batch_size=self.batch_size,
            eps_target=self.epsilon,
            ramp=self.ramp,
        )

    def loss_kind(self) -> LossKind:
        return LossKind(
            tag=LOSS_NAMES[self.loss],
            w_taps=self.w_taps,
            connector=ConnectorParams(c=self.connector_c),
            attack=AttackConfig(steps=self.attack_steps, restarts=self.attack_restarts,
                                seed=self.seed),
            tau_ratio=self.tau_ratio,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            loss=self.loss_kind(),
            schedule=self.schedule(),
            arch=self.arch,
            hidden=tuple(self.hidden),
            classifier_relus=self.classifier_relus,
            init=self.init,
            optimizer=self.optimizer,
            momentum=self.momentum,
            seed=self.seed,
            l1=self.l1,
            fast_reg_lambda=self.fast_reg_lambda,
            val_attack=AttackConfig(steps=min(self.attack_steps, 8), seed=self.seed + 1),
            record_time=self.record_time,
        )

    def eval_attack(self) -> AttackConfig:
        return AttackConfig(steps=self.eval_attack_steps, restarts=self.eval_attack_restarts,
                            seed=self.seed + 2)


_FIELD_NAMES = {f.name for f in dataclasses.fields(Config)}


def config_from_dict(data: dict) -> Config:
    unknown = set(data) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    cfg = Config(**data)
    if isinstance(cfg.hidden, list):
        cfg.hidden = tuple(cfg.hidden)
    if isinstance(cfg.w_taps, str):
        cfg.w_taps = float(cfg.w_taps)
    return cfg.validate()


# Recipes mirroring the published per-dataset settings (eps, loss family,
# w, connector c, tau/eps ratio, L1) on a desk-scale schedule.
def _preset(loss, eps, **kw):
    base = dict(loss=loss, epsilon=eps)
    base.update(kw)
    return base


PRESETS = {
    "mnist-eps0.1-ibp": _preset("ibp", 0.1),
    "mnist-eps0.1-taps": _preset("taps", 0.1, w_taps=5.0, connector_c=0.5, l1=1e-6),
    "mnist-eps0.1-staps": _preset("staps", 0.1, w_taps=5.0, tau_ratio=0.4, l1=2e-5),
    "mnist-eps0.1-sabr": _preset("sabr", 0.1, tau_ratio=0.4),
    "mnist-eps0.1-pgd-at": _preset("pgd-at", 0.1),
    "mnist-eps0.3-ibp": _preset("ibp", 0.3),
    "mnist-eps0.3-taps": _preset("taps", 0.3, w_taps=5.0, connector_c=0.5),
    "mnist-eps0.3-staps": _preset("staps", 0.3, w_taps=5.0, tau_ratio=0.6, l1=2e-6),
    "mnist-eps0.3-sabr": _preset("sabr", 0.3, tau_ratio=0.6),
    "mnist-eps0.3-pgd-at": _preset("pgd-at", 0.3),
}


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

def load_dataset(config: Config, split="train") -> Dataset:
    if config.dataset == "moons":
        seed = config.seed if split == "train" else config.seed + 10_000
        n = config.subset or 2000 if split == "train" else config.test_subset
        return synthetic_moons(n, noise=0.08, seed=seed)
    if config.dataset == "synthetic-digits":
        if split == "train":
            n = config.subset or 10_000
            return synthetic_digits(max(n, config.subset or 0) + 2000, seed=config.seed + 7)
        return synthetic_digits(config.test_subset, seed=config.seed + 31_337)
    root = resolve_data_dir(config.data)
    if not root:
        raise ConfigError(f"dataset 'mnist' needs --data or ${DATA_ENV_VAR}")
    names = {
        "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    }[split]

    def find(stem):
        for suffix in ("", ".gz"):
            p = os.path.join(root, stem + suffix)
            if os.path.exists(p):
                return p
        raise IOError(f"missing {stem}[.gz] under {root}")

    return load_mnist_idx(find(names[0]), find(names[1]))


def prepared_train_set(config: Config) -> Dataset:
    ds = load_dataset(config, "train")
    if config.subset:
        ds = take_subset(ds, config.subset, seed=config.seed)
    return ds


def prepared_test_set(config: Config) -> Dataset:
    ds = load_dataset(config, "test")
    if config.test_subset and len(ds) > config.test_subset:
        ds = take_subset(ds, config.test_subset, seed=config.seed + 1)
    return ds


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, config: Config, artifacts):
    manifest = {
        "config": dataclasses.asdict(config),
        "checkpoints": {k: {"path": v, "sha256": _sha256(v)}
                        for k, v in artifacts.items() if k in ("final", "best")},
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def cmd_train(config: Config) -> dict:
    ds = prepared_train_set(config)
    result = train_run(config.train_config(), ds, config.out)
    write_manifest(config.out, config, result)
    last = result["history"][-1]
    print(f"trained {config.loss} for {config.total_epochs} epochs: "
          f"val nat_acc={last['nat_acc']:.4f} taps_acc={last['taps_acc']:.4f}")
    print(f"artifacts: {result['final']}, {result['best']}, {result['metrics']}")
    return result


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _certify_chunk(args):
    net, X, y, ids, eps, attack_cfg, oracle, budget = args
    out = []
    for i in range(len(ids)):
        x, label = X[i], int(y[i])
        from .net import forward_concrete

        nat = bool(np.argmax(forward_concrete(net, x)) == label)
        certified, hi = certify_ibp(net, x, label, eps)
        pgd_margin, _ = method_bound(net, x, label, eps, "pgd", attack=attack_cfg,
                                     rng=np.random.default_rng(attack_cfg.seed + ids[i]))
        exact = None
        if oracle:
            res = exact_margin_oracle(net, x, label, eps, budget_unstable=budget)
            exact = res.margin if res.exact else None
        out.append(SampleVerdict(
            sample_id=int(ids[i]), natural_correct=nat, ibp_certified=bool(certified),
            pgd_margin=float(pgd_margin), exact_margin=exact,
            method_bounds={"ibp": hi}))
    return out


CERTIFY_METHODS = ("ibp", "pgd", "oracle")
TIGHTNESS_METHODS = ("ibp", "pgd", "sabr", "taps")


def _checked_inputs(config: Config, checkpoint_path, methods, known):
    """(network, test set); rejects unknown ``methods`` before loading
    anything, then a checkpoint whose input shape differs from the dataset's."""
    unknown = sorted(set(methods) - set(known))
    if unknown:
        raise ConfigError(f"methods: unknown {', '.join(unknown)} (choose from {known})")
    net, _ = load_checkpoint(checkpoint_path)
    ds = prepared_test_set(config)
    if ds.sample_shape != net.input_shape:
        raise ConfigError(
            f"checkpoint expects input {net.input_shape}, dataset provides {ds.sample_shape}"
        )
    return net, ds


def cmd_certify(config: Config, checkpoint_path, methods=("ibp", "pgd")) -> dict:
    """Certify the test set; ibp and pgd always run, ``oracle`` adds the exact oracle."""
    net, ds = _checked_inputs(config, checkpoint_path, methods, CERTIFY_METHODS)
    use_oracle = "oracle" in methods
    attack_cfg = config.eval_attack()
    ids = np.arange(len(ds))
    chunks = np.array_split(ids, max(1, min(config.jobs * 4, len(ds))))
    args = [(net, ds.images[c], ds.labels[c], c, config.epsilon, attack_cfg,
             use_oracle, config.oracle_budget) for c in chunks if len(c)]
    if config.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            chunk_results = list(pool.map(_certify_chunk, args))
    else:
        chunk_results = [_certify_chunk(a) for a in args]
    verdicts = sorted((v for chunk in chunk_results for v in chunk),
                      key=lambda v: v.sample_id)

    os.makedirs(config.out, exist_ok=True)
    verdict_path = os.path.join(config.out, "verdicts.jsonl")
    with open(verdict_path, "w", encoding="utf-8") as fh:
        for v in verdicts:
            fh.write(verdict_json_line(v) + "\n")

    nat = float(np.mean([v.natural_correct for v in verdicts]))
    adv = float(np.mean([v.pgd_margin < 0 for v in verdicts]))
    ibp_cert = float(np.mean([v.ibp_certified for v in verdicts]))
    oracle_resolved = [v for v in verdicts if v.exact_margin is not None]
    certified = float(np.mean([
        v.ibp_certified or (v.exact_margin is not None and v.exact_margin < 0)
        for v in verdicts
    ]))
    summary = {
        "natural_accuracy": nat,
        "adversarial_accuracy": adv,
        "ibp_certified_accuracy": ibp_cert,
        "certified_accuracy": certified,
        "oracle_coverage": len(oracle_resolved) / len(verdicts) if use_oracle else None,
        "verdicts": verdict_path,
    }
    label = "IBP(+oracle)-certified" if use_oracle else "IBP-certified"
    print(f"natural={nat:.4f} adversarial={adv:.4f} {label}={certified:.4f}")
    if use_oracle:
        print(f"oracle coverage: {summary['oracle_coverage']:.2%}")
    return summary


# ---------------------------------------------------------------------------
# tightness
# ---------------------------------------------------------------------------

def cmd_tightness(config: Config, checkpoint_path, methods=TIGHTNESS_METHODS, bins=40) -> dict:
    net, ds = _checked_inputs(config, checkpoint_path, methods, TIGHTNESS_METHODS)
    eps = config.epsilon
    errors = {m: [] for m in methods}
    skipped = 0
    rng = np.random.default_rng(config.seed + 5)
    for i in range(len(ds)):
        x, y = ds.images[i], int(ds.labels[i])
        res = exact_margin_oracle(net, x, y, eps, budget_unstable=config.oracle_budget)
        if not res.exact:
            skipped += 1
            continue
        for m in methods:
            margin, _ = method_bound(net, x, y, eps, m, rng=rng,
                                     attack=AttackConfig(steps=50, restarts=3, seed=config.seed)
                                     if m == "pgd" else AttackConfig(steps=50, seed=config.seed))
            errors[m].append(margin - res.margin)
    if skipped == len(ds):
        raise RuntimeError(
            "exact oracle resolved no samples; shrink the network or lower epsilon"
        )
    os.makedirs(config.out, exist_ok=True)
    lo = min(min(e) for e in errors.values() if e)
    hi = max(max(e) for e in errors.values() if e)
    edges = np.linspace(lo, hi, bins + 1)
    summary = {}
    for m, errs in errors.items():
        arr = np.asarray(errs)
        counts, _ = np.histogram(arr, bins=edges)
        path = os.path.join(config.out, f"tightness_{m}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("bin_left,bin_right,count\n")
            for b in range(bins):
                fh.write(f"{edges[b]!r},{edges[b+1]!r},{counts[b]}\n")
        summary[m] = {
            "mean": float(arr.mean()),
            "mean_abs": float(np.abs(arr).mean()),
            "variance": float(arr.var()),
            "count": int(arr.size),
            "histogram": path,
        }
        print(f"{m:>5}: mean={summary[m]['mean']:+.4f} "
              f"mean|err|={summary[m]['mean_abs']:.4f} var={summary[m]['variance']:.5f}")
    summary["skipped"] = skipped
    return summary


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

SWEEPS = ("split", "connector_c", "w_taps", "attack_steps", "estimator")


def _sweep_config(config: Config, sweep, value) -> Config:
    cfg = dataclasses.replace(config)
    if sweep == "split":
        # a zero-ReLU classifier degenerates the taps pipeline to plain ibp
        cfg.classifier_relus = int(value)
    elif sweep == "connector_c":
        cfg.connector_c = float(value)
    elif sweep == "w_taps":
        cfg.w_taps = math.inf if value in ("inf", math.inf) else float(value)
    elif sweep == "attack_steps":
        cfg.attack_steps = int(value)
    elif sweep == "estimator":
        cfg.loss = {"single": "taps-single", "multi": "taps"}[value]
    else:
        raise ConfigError(f"unknown sweep {sweep!r} (choose from {SWEEPS})")
    return cfg.validate()


def cmd_ablate(config: Config, sweep, values) -> str:
    os.makedirs(config.out, exist_ok=True)
    csv_path = os.path.join(config.out, f"ablation_{sweep}.csv")
    train_ds = prepared_train_set(config)
    test_ds = prepared_test_set(config)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("sweep,value,seed,nat_acc,taps_acc,adv_acc,cert_acc\n")
        for value in values:
            cfg = _sweep_config(config, sweep, value)
            out_dir = os.path.join(config.out, f"{sweep}_{value}")
            result = train_run(cfg.train_config(), train_ds, out_dir)
            net, _ = load_checkpoint(result["best"])
            nat = natural_accuracy(net, test_ds.images, test_ds.labels)
            t_acc = taps_accuracy(net, test_ds.images, test_ds.labels, cfg.epsilon,
                                  AttackConfig(steps=cfg.attack_steps, seed=cfg.seed + 3),
                                  rng=np.random.default_rng(cfg.seed + 4))
            adv = adversarial_accuracy(net, test_ds.images, test_ds.labels, cfg.epsilon,
                                       cfg.eval_attack(),
                                       rng=np.random.default_rng(cfg.seed + 5))
            cert = float(np.mean(_certified_mask(net, test_ds.images, test_ds.labels,
                                                 cfg.epsilon)))
            fh.write(f"{sweep},{value},{cfg.seed},{nat!r},{t_acc!r},{adv!r},{cert!r}\n")
            fh.flush()
            print(f"{sweep}={value}: nat={nat:.4f} taps={t_acc:.4f} adv={adv:.4f} cert={cert:.4f}")
    return csv_path


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named recipe")
    p.add_argument("--seed", type=int)
    p.add_argument("--subset", type=int)
    p.add_argument("--out")
    p.add_argument("--data", help=f"dataset root (or ${DATA_ENV_VAR})")
    p.add_argument("--jobs", type=int)
    p.add_argument("--dataset", choices=("synthetic-digits", "moons", "mnist"))
    p.add_argument("--loss", choices=sorted(LOSS_NAMES))
    p.add_argument("--epsilon", type=float)
    p.add_argument("--w-taps", dest="w_taps",
                   type=lambda s: math.inf if s == "inf" else float(s))
    p.add_argument("--connector-c", dest="connector_c", type=float)
    p.add_argument("--classifier-relus", dest="classifier_relus", type=int)
    p.add_argument("--tau-ratio", dest="tau_ratio", type=float)
    p.add_argument("--attack-steps", dest="attack_steps", type=int)
    p.add_argument("--attack-restarts", dest="attack_restarts", type=int)
    p.add_argument("--arch", choices=("mlp", "cnn3", "cnn7"))
    p.add_argument("--total-epochs", dest="total_epochs", type=int)
    p.add_argument("--annealing-epochs", dest="annealing_epochs", type=int)
    p.add_argument("--warmup-epochs", dest="warmup_epochs", type=int)
    p.add_argument("--decay1", type=int)
    p.add_argument("--decay2", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr0", type=float)
    p.add_argument("--optimizer", choices=("sgd", "adam"))
    p.add_argument("--l1", type=float)
    p.add_argument("--test-subset", dest="test_subset", type=int)
    p.add_argument("--no-record-time", dest="record_time", action="store_false",
                   default=None)


def build_config(args) -> Config:
    data = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data.update(json.load(fh))
        except OSError as e:
            raise IOError(f"cannot read config: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    if args.preset:
        preset = dict(PRESETS[args.preset])
        preset.update(data)
        data = preset
    for name in _FIELD_NAMES:
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    return config_from_dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="certitrain",
                                     description="certified training toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model per config/preset")
    _add_config_flags(p_train)

    p_cert = sub.add_parser("certify", help="evaluate a checkpoint")
    _add_config_flags(p_cert)
    p_cert.add_argument("--checkpoint", required=True)
    p_cert.add_argument("--methods", default="ibp,pgd",
                        help="comma list from {ibp,pgd,oracle}; ibp and pgd always run, "
                             "oracle adds the exact margin oracle")

    p_tight = sub.add_parser("tightness", help="margin-error histograms vs exact oracle")
    _add_config_flags(p_tight)
    p_tight.add_argument("--checkpoint", required=True)
    p_tight.add_argument("--methods", default="ibp,pgd,sabr,taps",
                         help="comma list from {ibp,pgd,sabr,taps}")
    p_tight.add_argument("--bins", type=int, default=40)

    p_abl = sub.add_parser("ablate", help="train/evaluate across a hyperparameter sweep")
    _add_config_flags(p_abl)
    p_abl.add_argument("--sweep", required=True, choices=SWEEPS)
    p_abl.add_argument("--values", required=True,
                       help="comma-separated sweep values")

    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "train":
            cmd_train(config)
        elif args.command == "certify":
            cmd_certify(config, args.checkpoint, tuple(args.methods.split(",")))
        elif args.command == "tightness":
            cmd_tightness(config, args.checkpoint, tuple(args.methods.split(",")),
                          bins=args.bins)
        elif args.command == "ablate":
            cmd_ablate(config, args.sweep, args.values.split(","))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (IOError, OSError, CheckpointError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
