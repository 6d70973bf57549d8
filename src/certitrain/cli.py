"""Command-line entry points: train, certify, tightness, ablate.

:class:`Config` defines every setting.  Each field is a ``--config`` JSON
key and a flag (``--`` plus the name with ``-`` for ``_``: ``--hidden
64,64``, ``--oracle-budget 14``; ``--no-record-time`` for the boolean), and
flag strings, JSON values and ``ablate --values`` are read by the field's
type.  Flags override ``--config``, which overrides ``--preset``.
:meth:`Config.validate` builds the library objects the settings describe, so
their range checks run before any work starts.  Presets carry the
reproducible recipes on desk-scale schedules.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 4 I/O error
(a missing file, or a corrupt checkpoint or IDX file).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import json
import numbers
import os
import platform
import sys
import typing
from dataclasses import dataclass

import numpy as np
import scipy

from . import _MALLOC
from .attack import AttackConfig
from .checkpoint import CheckpointError, load_checkpoint
from .connector import ConnectorParams
from .data import (
    DATA_ENV_VAR,
    Dataset,
    IdxError,
    load_mnist_idx,
    resolve_data_dir,
    synthetic_digits,
    synthetic_moons,
    take_subset,
)
from .loss import LOSS_TAGS, LossKind
from .net import forward_batch
from .train import NumericError, Schedule, TrainConfig, taps_accuracy, train_run
from .verify import (
    SampleVerdict,
    certify_ibp,
    exact_margin_oracle,
    method_bound,
    pgd_margins,
    verdict_json_line,
)

__all__ = ["Config", "PRESETS", "main", "cmd_train", "cmd_certify", "cmd_tightness", "cmd_ablate"]


class ConfigError(ValueError):
    pass


DATASETS = ("synthetic-digits", "moons", "mnist")


@dataclass
class Config:
    # data
    dataset: str = "synthetic-digits"   # synthetic-digits | moons | mnist
    data: str | None = None             # dataset root (or CERTITRAIN_DATA)
    subset: int | None = None
    test_subset: int = 1000
    # model
    arch: str = "mlp"
    hidden: tuple[int, ...] = (128, 128)
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
        """Coerce each field to its type and build the library objects the
        settings describe; raises ConfigError."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, _coerce(f.name, getattr(self, f.name)))
        if self.loss not in LOSS_TAGS:
            raise ConfigError(f"loss: unknown value {self.loss!r} (choose from {sorted(LOSS_TAGS)})")
        if self.loss in ("sabr", "staps"):
            if self.tau_ratio is None:
                raise ConfigError(f"loss {self.loss!r} requires --tau-ratio")
        elif self.tau_ratio is not None:
            raise ConfigError(f"tau_ratio conflicts with loss {self.loss!r} (sabr/staps only)")
        if self.dataset not in DATASETS:
            raise ConfigError(f"dataset: unknown value {self.dataset!r} (choose from {DATASETS})")
        for name, low in (("jobs", 1), ("test_subset", 1), ("oracle_budget", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name}: must be >= {low}")
        if self.subset is not None and self.subset < 2:
            raise ConfigError("subset: must be >= 2 (the validation split takes one sample)")
        for part, build in (("training", self.train_config), ("evaluation attack", self.eval_attack)):
            try:
                build()
            except ValueError as e:
                raise ConfigError(f"{part}: {e}") from None
        return self

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            loss=LossKind(
                tag=self.loss,
                w_taps=self.w_taps,
                connector=ConnectorParams(c=self.connector_c),
                attack=AttackConfig(steps=self.attack_steps, restarts=self.attack_restarts),
                tau_ratio=self.tau_ratio,
            ),
            schedule=Schedule(
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
            ),
            arch=self.arch,
            hidden=self.hidden,
            classifier_relus=self.classifier_relus,
            init=self.init,
            optimizer=self.optimizer,
            momentum=self.momentum,
            seed=self.seed,
            l1=self.l1,
            fast_reg_lambda=self.fast_reg_lambda,
            val_attack=AttackConfig(steps=min(self.attack_steps, 8)),
            record_time=self.record_time,
        )

    def eval_attack(self) -> AttackConfig:
        return AttackConfig(steps=self.eval_attack_steps, restarts=self.eval_attack_restarts)

    @property
    def sample_seed(self) -> int:
        """Sample i of a test set is attacked with ``default_rng(sample_seed + i)``."""
        return self.seed + 2


_FIELD_TYPES = typing.get_type_hints(Config)
# the values a field of each type keeps as they are (but no bool as a number)
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, str: str, bool: bool}


def _coerce(name, value, kind=None):
    """``value`` (a flag string, a JSON value or a sweep value) as the type of
    Config field ``name``: numbers are parsed from strings (``inf`` too), an
    int stays an int in a float field, a tuple takes a comma list or a list."""
    kind = kind or _FIELD_TYPES[name]
    args = typing.get_args(kind)
    if type(None) in args:  # X | None
        return None if value is None else _coerce(name, value, args[0])
    if typing.get_origin(kind) is tuple and isinstance(value, (str, list, tuple)):
        items = value.split(",") if isinstance(value, str) else value
        return tuple(_coerce(name, v, args[0]) for v in items)
    if isinstance(value, str) and kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(value)
    elif isinstance(value, _ACCEPTS.get(kind, ())) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")


def config_from_dict(data: dict) -> Config:
    unknown = set(data) - _FIELD_TYPES.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return Config(**data).validate()


# Recipes mirroring the published per-dataset settings (eps, loss family,
# w, connector c, tau/eps ratio, L1) on a desk-scale schedule.
def _preset(loss, eps, **kw):
    return dict(loss=loss, epsilon=eps, **kw)


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
            return synthetic_digits((config.subset or 10_000) + 2000, seed=config.seed + 7)
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


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment():
    """What a run's numbers depend on besides its configuration: the Python,
    numpy and scipy versions, the BLAS library and its thread count (None
    where it cannot be asked), and the allocator thresholds set at import
    (None off glibc)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": blas_threads(),
            "malloc": _MALLOC}


def write_manifest(out_dir, config: Config, artifacts):
    manifest = {
        "config": dataclasses.asdict(config),
        "environment": environment(),
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
    net, X, y, ids, eps, attack_cfg, seed, methods, budget = args
    if "pgd" in methods:
        pgd = pgd_margins(net, X, y, eps, attack_cfg,
                          rng=[np.random.default_rng(seed + i) for i in ids])
    else:
        pgd = [None] * len(ids)
    natural = np.argmax(forward_batch(net, X), axis=1) == y
    out = []
    for i in range(len(ids)):
        x, label = X[i], int(y[i])
        certified, hi = certify_ibp(net, x, label, eps)
        exact = None
        if "oracle" in methods:
            res = exact_margin_oracle(net, x, label, eps, budget_unstable=budget,
                                      reached=pgd[i])
            exact = res.margin if res.exact else None
        out.append(SampleVerdict(
            sample_id=int(ids[i]), natural_correct=bool(natural[i]), ibp_certified=bool(certified),
            pgd_margin=pgd[i], exact_margin=exact, method_bounds={"ibp": hi}))
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
    """Certify the test set; ibp always runs, ``pgd`` adds the attack (one
    batched call per chunk) and ``oracle`` the exact oracle."""
    net, ds = _checked_inputs(config, checkpoint_path, methods, CERTIFY_METHODS)
    use_oracle = "oracle" in methods
    attack_cfg = config.eval_attack()
    ids = np.arange(len(ds))
    # a chunk's attack runs len(chunk) * restarts rows per pass; at most a
    # training batch of them keeps certification within training's memory.
    # One process takes as few chunks as that allows, so each attack ascends
    # as many rows at once as it may; a pool gets at least four chunks a
    # worker to balance its load.
    per_chunk = max(1, config.batch_size // attack_cfg.restarts)
    n_chunks = -(-len(ds) // per_chunk)
    if config.jobs > 1:
        n_chunks = max(config.jobs * 4, n_chunks)
    chunks = np.array_split(ids, max(1, min(n_chunks, len(ds))))
    args = [(net, ds.images[c], ds.labels[c], c, config.epsilon, attack_cfg, config.sample_seed,
             tuple(methods), config.oracle_budget) for c in chunks if len(c)]
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
    # robust only where the clean point is also classified correctly: the
    # attack never scores the clean point itself
    adv = (float(np.mean([v.natural_correct and v.pgd_margin < 0 for v in verdicts]))
           if "pgd" in methods else None)
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
    adv_text = "n/a" if adv is None else f"{adv:.4f}"
    print(f"natural={nat:.4f} adversarial={adv_text} {label}={certified:.4f}")
    if use_oracle:
        print(f"oracle coverage: {summary['oracle_coverage']:.2%}")
    return summary


# ---------------------------------------------------------------------------
# tightness
# ---------------------------------------------------------------------------

def cmd_tightness(config: Config, checkpoint_path, methods=TIGHTNESS_METHODS, bins=40) -> dict:
    if bins < 1:
        raise ConfigError(f"bins: must be >= 1, got {bins}")
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
            margin = method_bound(net, x, y, eps, m, rng=rng)
            errors[m].append(margin - res.margin)
    if skipped == len(ds):
        raise ConfigError(
            "exact oracle resolved no samples; shrink the network, lower epsilon "
            "or raise oracle_budget"
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

# sweep name -> the Config field its values set; "split" 0 (a zero-ReLU
# classifier) degenerates the taps pipeline to plain ibp
SWEEPS = {"split": "classifier_relus", "connector_c": "connector_c", "w_taps": "w_taps",
          "attack_steps": "attack_steps", "estimator": "loss"}
ESTIMATOR_LOSSES = {"single": "taps-single", "multi": "taps"}


def _sweep_config(config: Config, sweep, value) -> Config:
    if sweep not in SWEEPS:
        raise ConfigError(f"unknown sweep {sweep!r} (choose from {tuple(SWEEPS)})")
    if sweep == "estimator":
        if value not in ESTIMATOR_LOSSES:
            raise ConfigError(f"estimator: unknown value {value!r} (choose from single, multi)")
        value = ESTIMATOR_LOSSES[value]
    return dataclasses.replace(config, **{SWEEPS[sweep]: value}).validate()


def cmd_ablate(config: Config, sweep, values) -> str:
    """Train one run per value into ``{sweep}_{value}/`` and certify its best
    checkpoint there as ``certify --methods ibp,pgd`` does; the row's nat, adv
    and cert columns are that summary's natural, adversarial and
    IBP-certified accuracy."""
    os.makedirs(config.out, exist_ok=True)
    csv_path = os.path.join(config.out, f"ablation_{sweep}.csv")
    train_ds = prepared_train_set(config)
    test_ds = prepared_test_set(config)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("sweep,value,seed,nat_acc,taps_acc,adv_acc,cert_acc\n")
        for value in values:
            cfg = dataclasses.replace(_sweep_config(config, sweep, value),
                                      out=os.path.join(config.out, f"{sweep}_{value}"))
            result = train_run(cfg.train_config(), train_ds, cfg.out)
            summary = cmd_certify(cfg, result["best"], ("ibp", "pgd"))
            nat, adv, cert = (summary[k] for k in ("natural_accuracy", "adversarial_accuracy",
                                                   "ibp_certified_accuracy"))
            net, _ = load_checkpoint(result["best"])
            t_acc = taps_accuracy(net, test_ds.images, test_ds.labels, cfg.epsilon,
                                  AttackConfig(steps=cfg.attack_steps),
                                  rng=np.random.default_rng(cfg.seed + 4))
            fh.write(f"{sweep},{value},{cfg.seed},{nat!r},{t_acc!r},{adv!r},{cert!r}\n")
            fh.flush()
            print(f"{sweep}={value}: nat={nat:.4f} taps={t_acc:.4f} adv={adv:.4f} cert={cert:.4f}")
    return csv_path


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _config_flags() -> argparse.ArgumentParser:
    """Parent parser of --config, --preset and one flag per Config field:
    --name-with-dashes VALUE, or --no-name for a boolean field."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named recipe")
    for f in dataclasses.fields(Config):
        flag = f.name.replace("_", "-")
        if _FIELD_TYPES[f.name] is bool:
            p.add_argument(f"--no-{flag}", dest=f.name, action="store_false", default=None)
        else:
            default = ",".join(map(str, f.default)) if isinstance(f.default, tuple) else f.default
            p.add_argument(f"--{flag}", dest=f.name, help=f"default: {default}")
    return p


def build_config(args) -> Config:
    """Preset, then --config JSON, then flags, each overriding the one before."""
    data = dict(PRESETS[args.preset]) if args.preset else {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as e:
            raise IOError(f"cannot read config: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        data.update(loaded)
    data.update({name: getattr(args, name) for name in _FIELD_TYPES
                 if getattr(args, name) is not None})
    return config_from_dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="certitrain",
                                     description="certified training toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = [_config_flags()]
    sub.add_parser("train", parents=flags, help="train a model per config/preset")

    p_cert = sub.add_parser("certify", parents=flags, help="evaluate a checkpoint")
    p_cert.add_argument("--checkpoint", required=True)
    p_cert.add_argument("--methods", default="ibp,pgd",
                        help="comma list from {ibp,pgd,oracle}; ibp always runs, pgd adds "
                             "the attack, oracle the exact margin oracle")

    p_tight = sub.add_parser("tightness", parents=flags,
                             help="margin-error histograms vs exact oracle")
    p_tight.add_argument("--checkpoint", required=True)
    p_tight.add_argument("--methods", default="ibp,pgd,sabr,taps",
                         help="comma list from {ibp,pgd,sabr,taps}")
    p_tight.add_argument("--bins", type=int, default=40)

    p_abl = sub.add_parser("ablate", parents=flags,
                           help="train/evaluate across a hyperparameter sweep")
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
    except (OSError, CheckpointError, IdxError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
