"""CLI: config validation, presets, artifacts, and command round trips."""

import dataclasses
import json
import os
import platform
import struct

import numpy as np
import pytest
import scipy

from certitrain.checkpoint import MAGIC, VERSION, save_checkpoint
from certitrain.cli import (
    Config,
    ConfigError,
    PRESETS,
    _sweep_config,
    cmd_ablate,
    cmd_certify,
    cmd_tightness,
    cmd_train,
    config_from_dict,
    main,
    prepared_test_set,
)
from certitrain.data import synthetic_digits
from certitrain.loss import LOSS_TAGS, LossKind
from certitrain.net import Affine, Network, ReLU, build_architecture, init_params
from certitrain.verify import pgd_margins

from helpers import dyadic_mlp, write_idx_images, write_idx_labels


def fast_overrides(tmp_path, **kw):
    base = dict(
        dataset="moons", subset=200, test_subset=60, hidden=(12, 12),
        total_epochs=3, annealing_epochs=2, warmup_epochs=1, decay1=2, decay2=3,
        batch_size=32, lr0=0.01, attack_steps=2, eval_attack_steps=5,
        eval_attack_restarts=1, out=str(tmp_path / "run"), seed=0,
        epsilon=0.05, test_subset_=None,
    )
    base.pop("test_subset_")
    base.update(kw)
    return base


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"lr_zero": 0.1})


def test_tau_without_sabr_rejected():
    with pytest.raises(ConfigError, match="tau_ratio is only meaningful"):
        config_from_dict({"loss": "taps", "tau_ratio": 0.4})


def test_sabr_without_tau_rejected():
    with pytest.raises(ConfigError, match="needs tau_ratio"):
        config_from_dict({"loss": "sabr"})


def test_loss_errors_are_loss_kind_messages():
    with pytest.raises(ValueError) as kind:
        LossKind(tag="sabr")
    with pytest.raises(ConfigError) as config:
        config_from_dict({"loss": "sabr"})
    assert str(config.value) == f"training: {kind.value}"


@pytest.mark.parametrize("loss", LOSS_TAGS)
def test_loss_names_are_loss_kind_tags(loss):
    tau = 0.4 if loss in ("sabr", "staps") else None
    cfg = config_from_dict({"loss": loss, "tau_ratio": tau})
    assert cfg.train_config().loss.tag == loss


def test_presets_all_validate():
    for name, preset in PRESETS.items():
        cfg = config_from_dict(dict(preset))
        assert cfg.epsilon in (0.1, 0.3), name


def test_exit_code_on_config_error(capsys):
    rc = main(["train", "--loss", "sabr"])
    assert rc == 2
    assert "tau_ratio" in capsys.readouterr().err


# each is a config that validation must reject before any training starts
BAD_CONFIGS = [
    {"attack_steps": 0},
    {"arch": "foo"},
    {"optimizer": "rmsprop"},
    {"init": "xavier"},
    {"batch_size": 0},
    {"eval_attack_restarts": 0},
    {"hidden": [0]},
    {"momentum": "x"},
    {"connector_c": 1.5},
    {"w_taps": -1},
    {"loss": "sabr", "tau_ratio": 1.5},
    {"epsilon": -0.1},
    {"classifier_relus": 5},
    {"hidden": []},
    {"classifier_relus": -1},
    {"lr0": -1},
    {"lr0": "nan"},
    {"grad_clip": -1},
    {"momentum": 1},
    {"momentum": "nan"},
    {"l1": -1e-6},
    {"fast_reg_lambda": -0.5},
    {"oracle_budget": -1},
    {"subset": 0},
    {"subset": 1},  # one sample cannot fill the training and the validation split
    {"dataset": "moons", "subset": 1},
    {"test_subset": 0},
]


@pytest.mark.parametrize("bad", BAD_CONFIGS, ids=json.dumps)
def test_bad_config_exits_2(tmp_path, capsys, monkeypatch, bad):
    monkeypatch.setattr("certitrain.cli.cmd_train", lambda config: pytest.fail("trained"))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", [["train"], ["ablate", "--sweep", "split", "--values", "0,1"]],
                         ids=["train", "ablate"])
def test_conv_arch_on_vector_dataset_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("certitrain.cli.train_run", lambda *a: pytest.fail("trained"))
    rc = main([*command, "--dataset", "moons", "--arch", "cnn3", "--subset", "50",
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: arch 'cnn3'") and "(2,)" in err
    assert len(err.strip().splitlines()) == 1


def _parsed_config(monkeypatch, argv):
    """The Config that ``main(["train", *argv])`` hands to cmd_train."""
    seen = []
    monkeypatch.setattr("certitrain.cli.cmd_train", seen.append)
    assert main(["train", *argv]) == 0
    return seen[0]


# Config field -> (flag value text, the value it sets), each unlike the default
FLAG_VALUES = {
    "dataset": ("moons", "moons"), "data": ("d", "d"), "subset": ("7", 7),
    "test_subset": ("9", 9), "arch": ("cnn3", "cnn3"), "hidden": ("64,32", (64, 32)),
    "classifier_relus": ("2", 2), "init": ("kaiming", "kaiming"), "loss": ("sabr", "sabr"),
    "epsilon": ("0.2", 0.2), "w_taps": ("inf", float("inf")), "connector_c": ("0.25", 0.25),
    "tau_ratio": ("0.3", 0.3), "attack_steps": ("3", 3), "attack_restarts": ("2", 2),
    "total_epochs": ("30", 30), "annealing_epochs": ("9", 9), "warmup_epochs": ("2", 2),
    "decay1": ("16", 16), "decay2": ("25", 25), "decay_factor": ("0.5", 0.5),
    "lr0": ("0.01", 0.01), "grad_clip": ("5", 5.0), "batch_size": ("64", 64),
    "ramp": ("linear", "linear"), "optimizer": ("sgd", "sgd"), "momentum": ("0.5", 0.5),
    "l1": ("1e-6", 1e-6), "fast_reg_lambda": ("0.1", 0.1), "eval_attack_steps": ("20", 20),
    "eval_attack_restarts": ("3", 3), "oracle_budget": ("14", 14), "seed": ("5", 5),
    "out": ("elsewhere", "elsewhere"), "jobs": ("2", 2),
}


def test_every_config_field_has_a_flag(monkeypatch):
    fields = {f.name for f in dataclasses.fields(Config)}
    assert set(FLAG_VALUES) | {"record_time"} == fields
    argv = ["--no-record-time"]
    for name, (text, _) in FLAG_VALUES.items():
        argv += ["--" + name.replace("_", "-"), text]
    expected = Config(record_time=False, **{k: v for k, (_, v) in FLAG_VALUES.items()})
    assert _parsed_config(monkeypatch, argv) == expected


@pytest.mark.parametrize("flags, json_values", [
    (["--hidden", "12,12"], {"hidden": [12, 12]}),
    (["--w-taps", "inf"], {"w_taps": "inf"}),
])
def test_flag_and_json_give_equal_configs(tmp_path, monkeypatch, flags, json_values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(json_values))
    by_flag = _parsed_config(monkeypatch, flags)
    by_json = _parsed_config(monkeypatch, ["--config", str(path)])
    assert by_flag == by_json
    assert by_flag != Config()


def test_sweep_values_coerce_like_flags(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path))
    assert _sweep_config(cfg, "w_taps", "inf").w_taps == float("inf")
    assert _sweep_config(cfg, "split", "0").classifier_relus == 0
    assert _sweep_config(cfg, "estimator", "single").loss == "taps-single"
    with pytest.raises(ConfigError, match="estimator"):
        _sweep_config(cfg, "estimator", "triple")
    with pytest.raises(ConfigError, match="attack_steps"):
        _sweep_config(cfg, "attack_steps", "2.5")


def test_exit_code_on_io_error(tmp_path, capsys):
    rc = main(["certify", "--checkpoint", str(tmp_path / "missing.ckpt"),
               "--dataset", "moons", "--test-subset", "5",
               "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "i/o error" in capsys.readouterr().err


def _checkpoint_bytes(tmp_path):
    path = tmp_path / "good.ckpt"
    save_checkpoint(path, init_params(build_architecture("mlp", (2,), 2, 1, hidden=(4, 4)), 0))
    return path.read_bytes()


def _header(raw):
    (n,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12 : 12 + n]), raw[12 + n :]


def _unknown_kind(raw):
    header, blobs = _header(raw)
    header["layers"][1]["kind"] = "maxpool"
    text = json.dumps(header).encode()
    return MAGIC + struct.pack("<II", VERSION, len(text)) + text + blobs


def _flip_payload_byte(raw):
    # one bit of the first weight: a different network unless the digest is checked
    _, blobs = _header(raw)
    at = len(raw) - len(blobs)
    return raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1 :]


# name -> (corrupt a good checkpoint's bytes, expected message)
CORRUPTIONS = {
    "bad-magic": (lambda raw: b"NOPE" + b"\x00" * 32, "bad magic"),
    "short-header": (lambda raw: b"CTRNxx", "short header"),
    "header-not-json": (lambda raw: MAGIC + struct.pack("<II", VERSION, 5) + b"{nope",
                        "not UTF-8 JSON"),
    "version-1": (lambda raw: raw[:4] + struct.pack("<I", 1) + raw[8:],
                  "unsupported checkpoint version 1"),
    "flipped-payload-byte": (_flip_payload_byte, "do not match the header's sha256"),
    "unknown-layer-kind": (_unknown_kind, "unknown layer kind 'maxpool'"),
    "truncated-blob": (lambda raw: raw[:-8], "truncated parameter blob"),
    "trailing-bytes": (lambda raw: raw + b"\x00", "trailing bytes"),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_checkpoint_exits_4(tmp_path, capsys, corruption):
    corrupt, message = CORRUPTIONS[corruption]
    path = tmp_path / "bad.ckpt"
    path.write_bytes(corrupt(_checkpoint_bytes(tmp_path)))
    rc = main(["certify", "--checkpoint", str(path), "--dataset", "moons",
               "--test-subset", "5", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith(f"i/o error: {path}: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_truncated_idx_exits_4(tmp_path, capsys):
    digits = synthetic_digits(20, seed=0)
    images = (digits.images[:, 0] * 255).astype(np.uint8)
    path = tmp_path / "train-images-idx3-ubyte"
    write_idx_images(path, images)
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte", digits.labels)
    path.write_bytes(path.read_bytes()[:-100])
    rc = main(["train", "--dataset", "mnist", "--data", str(tmp_path),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith(f"i/o error: {path}: truncated image payload")
    assert len(err.strip().splitlines()) == 1


def test_idx_label_out_of_range_exits_4(tmp_path, capsys):
    digits = synthetic_digits(20, seed=0)
    write_idx_images(tmp_path / "train-images-idx3-ubyte",
                     (digits.images[:, 0] * 255).astype(np.uint8))
    labels = digits.labels.copy()
    labels[7] = 12
    path = tmp_path / "train-labels-idx1-ubyte"
    write_idx_labels(path, labels)
    rc = main(["train", "--dataset", "mnist", "--data", str(tmp_path),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith(f"i/o error: {path}: label 12 outside 0-9")
    assert len(err.strip().splitlines()) == 1


# numpy's overflow warnings fire before the non-finite loss is detected; the
# suite turns RuntimeWarning into errors, which would end the run before main
# can map the failure to its exit code
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_train_exits_3(tmp_path, capsys):
    rc = main(["train", "--dataset", "moons", "--subset", "200", "--test-subset", "20",
               "--epsilon", "0.05", "--no-record-time", "--hidden", "8,8",
               "--total-epochs", "3", "--annealing-epochs", "2", "--warmup-epochs", "1",
               "--decay1", "2", "--decay2", "3", "--lr0", "1e300",
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.strip().splitlines()[-1].startswith("numeric failure: non-finite loss")


def test_attacked_loss_above_bound_exits_3(tmp_path, capsys):
    """At lr0 1e10 the losses stay finite but reach ~5e10, where the bound
    cancels terms of ~1e24; the attacked loss then tops it by ~1.6e6, and
    the run ends as a numeric failure naming both values."""
    rc = main(["train", "--dataset", "moons", "--subset", "200", "--test-subset", "20",
               "--epsilon", "0.05", "--no-record-time", "--hidden", "8,8",
               "--total-epochs", "3", "--annealing-epochs", "2", "--warmup-epochs", "1",
               "--decay1", "2", "--decay2", "3", "--lr0", "1e10",
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.strip().splitlines()[-1].startswith("numeric failure: attacked loss")


def test_unknown_certify_method_rejected(tmp_path, capsys):
    rc = main(["certify", "--checkpoint", str(tmp_path / "missing.ckpt"),
               "--methods", "ibp,orcale", "--dataset", "moons", "--test-subset", "5",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "orcale" in capsys.readouterr().err


def _tightness_main(tmp_path, ckpt_input_shape, methods, *flags):
    path = tmp_path / "model.ckpt"
    net = build_architecture("mlp", ckpt_input_shape, 2, 1, hidden=(4, 4))
    save_checkpoint(path, init_params(net, 0))
    return main(["tightness", "--checkpoint", str(path), "--methods", methods,
                 "--dataset", "moons", "--test-subset", "5", "--out", str(tmp_path / "out"),
                 *flags])


def test_tightness_unknown_method_rejected_before_oracle(tmp_path, capsys, monkeypatch):
    called = []
    monkeypatch.setattr("certitrain.cli.exact_margin_oracle", lambda *a, **k: called.append(a))
    rc = _tightness_main(tmp_path, (2,), "ibp,pgdd")
    err = capsys.readouterr().err
    assert rc == 2 and not called
    assert err.startswith("config error: ") and "pgdd" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_tightness_bins_below_one_exits_2_before_loading(tmp_path, capsys, bins):
    rc = main(["tightness", "--checkpoint", str(tmp_path / "missing.ckpt"), "--bins", bins,
               "--dataset", "moons", "--test-subset", "5", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: bins") and len(err.strip().splitlines()) == 1


def test_tightness_at_eps_0(tmp_path):
    """SABR at eps 0 bounds the point box, as training does: no small region
    to select, so its histogram is IBP's; TAPS's point attack is PGD's."""
    assert _tightness_main(tmp_path, (2,), "ibp,pgd,sabr,taps", "--epsilon", "0") == 0
    hist = {m: (tmp_path / "out" / f"tightness_{m}.csv").read_text()
            for m in ("ibp", "pgd", "sabr", "taps")}
    assert hist["sabr"] == hist["ibp"] and hist["taps"] == hist["pgd"]


def test_tightness_input_shape_mismatch_exits_2(tmp_path, capsys):
    rc = _tightness_main(tmp_path, (5,), "ibp,pgd")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: checkpoint expects input (5,)")
    assert len(err.strip().splitlines()) == 1


def test_moons_certify_one_sample(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(build_architecture("mlp", (2,), 2, 1, hidden=(4, 4)), 0))
    rc = main(["certify", "--checkpoint", str(path), "--dataset", "moons", "--test-subset", "1",
               "--eval-attack-steps", "5", "--eval-attack-restarts", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert len((tmp_path / "out" / "verdicts.jsonl").read_text().splitlines()) == 1


def test_mnist_dataset_requires_data_dir(monkeypatch):
    monkeypatch.delenv("CERTITRAIN_DATA", raising=False)
    rc = main(["train", "--dataset", "mnist"])
    assert rc == 2


def test_train_writes_artifacts(tmp_path, capsys):
    cfg = config_from_dict(fast_overrides(tmp_path))
    result = cmd_train(cfg)
    out = tmp_path / "run"
    assert (out / "metrics.csv").exists()
    assert (out / "final.ckpt").exists()
    assert (out / "best.ckpt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["loss"] == "taps"
    assert len(manifest["checkpoints"]["final"]["sha256"]) == 64
    env = manifest["environment"]
    assert env["python"] == platform.python_version()
    assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
    assert env["blas"] is None or isinstance(env["blas"], str)
    threads = env["blas_threads"]
    assert threads is None or threads >= 1
    if threads is not None and os.environ.get("OPENBLAS_NUM_THREADS") == "1":
        assert threads == 1
    if platform.libc_ver()[0] == "glibc":
        assert env["malloc"] == {"mmap_threshold": 32 << 20, "trim_threshold": 1 << 30}
    else:
        assert env["malloc"] is None


def test_manifest_hash_tracks_params(tmp_path):
    cfg_a = config_from_dict(fast_overrides(tmp_path, out=str(tmp_path / "a")))
    cfg_b = config_from_dict(fast_overrides(tmp_path, out=str(tmp_path / "b"), seed=1))
    cmd_train(cfg_a)
    cmd_train(cfg_b)
    ha = json.loads((tmp_path / "a" / "manifest.json").read_text())["checkpoints"]["final"]["sha256"]
    hb = json.loads((tmp_path / "b" / "manifest.json").read_text())["checkpoints"]["final"]["sha256"]
    assert ha != hb


def test_certify_round_trip(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path))
    result = cmd_train(cfg)
    summary = cmd_certify(cfg, result["best"], methods=("ibp", "pgd"))
    assert 0.0 <= summary["certified_accuracy"] <= summary["adversarial_accuracy"] + 1e-9
    assert summary["adversarial_accuracy"] <= summary["natural_accuracy"] + 1e-9
    verdicts = [json.loads(l) for l in open(summary["verdicts"])]
    assert len(verdicts) == 60
    assert verdicts[0]["sample_id"] == 0


def test_certify_attacks_each_sample_with_its_own_generator(tmp_path):
    """More samples than one chunk of batch_size // restarts: each sample's
    margin is the one its lone attack with generator ``sample_seed + i``
    finds, whatever chunk it lands in."""
    net = dyadic_mlp(np.random.default_rng(17), [2, 8, 8, 2])
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(ckpt, net)
    cfg = config_from_dict(fast_overrides(tmp_path, test_subset=60, epsilon=0.25, batch_size=50,
                                          eval_attack_steps=2, eval_attack_restarts=5, seed=19))
    summary = cmd_certify(cfg, str(ckpt))
    ds = prepared_test_set(cfg)
    alone = [pgd_margins(net, ds.images[i : i + 1], ds.labels[i : i + 1], cfg.epsilon,
                         cfg.eval_attack(), rng=[np.random.default_rng(cfg.sample_seed + i)])[0]
             for i in range(len(ds))]
    verdicts = [json.loads(line) for line in open(summary["verdicts"])]
    assert [v["pgd_margin"] for v in verdicts] == alone
    assert 0.0 < summary["adversarial_accuracy"] < 1.0
    assert summary["adversarial_accuracy"] == np.mean(
        [v["natural_correct"] and m < 0.0 for v, m in zip(verdicts, alone)])


def test_certify_counts_a_misclassified_sample_as_not_robust(tmp_path):
    """A sample whose clean point is misclassified is not adversarially
    robust, even where the attack, which never scores the clean point, ends
    on a correctly classified one."""
    cfg = config_from_dict(fast_overrides(tmp_path, test_subset=2, epsilon=0.05))
    ds = prepared_test_set(cfg)
    (c, _), label = ds.images[0], int(ds.labels[0])
    # the label's logit is 1e6 * |x0 - c|, the other's 1e-3: sample 0 is
    # misclassified at x0 = c only, a spike no attack iterate lands on
    hidden = Affine(np.array([[1e6, 0.0], [-1e6, 0.0]]), np.array([-1e6 * c, 1e6 * c]))
    out_w, out_b = np.zeros((2, 2)), np.zeros(2)
    out_w[label], out_b[1 - label] = 1.0, 1e-3
    ckpt = tmp_path / "spike.ckpt"
    save_checkpoint(ckpt, Network([hidden, ReLU(), Affine(out_w, out_b)], 0, 2, (2,)))
    summary = cmd_certify(cfg, str(ckpt))
    verdict = json.loads(open(summary["verdicts"]).readline())
    assert not verdict["natural_correct"] and verdict["pgd_margin"] < 0.0
    # sample 1 counts alike in both: misclassified, or correct with no
    # misclassified point in reach of the attack
    assert summary["adversarial_accuracy"] == summary["natural_accuracy"]


def test_certify_eps_zero_equals_natural(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path, epsilon=0.05))
    result = cmd_train(cfg)
    import dataclasses

    cfg0 = dataclasses.replace(cfg, epsilon=0.0)
    summary = cmd_certify(cfg0, result["best"], methods=("ibp",))
    assert summary["certified_accuracy"] == summary["natural_accuracy"]


@pytest.mark.parametrize("methods", [("ibp",), ("ibp", "oracle")])
def test_certify_without_pgd_runs_no_attack(tmp_path, monkeypatch, methods):
    import certitrain.attack as attack

    passes = []
    real = attack.forward_backward_input
    monkeypatch.setattr(attack, "forward_backward_input",
                        lambda *a, **kw: passes.append(1) or real(*a, **kw))
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(ckpt, init_params(build_architecture("mlp", (2,), 2, 1, hidden=(4, 4)), 0))
    cfg = config_from_dict(fast_overrides(tmp_path, test_subset=8))
    summary = cmd_certify(cfg, str(ckpt), methods=methods)
    assert passes == []
    assert summary["adversarial_accuracy"] is None
    verdicts = [json.loads(l) for l in open(summary["verdicts"])]
    assert len(verdicts) == 8 and all(v["pgd_margin"] is None for v in verdicts)
    # the same checkpoint with pgd asked for does attack
    cmd_certify(cfg, str(ckpt), methods=("ibp", "pgd"))
    assert passes


def test_certify_chunks_hold_at_most_a_batch_of_attack_rows(tmp_path, monkeypatch):
    import certitrain.cli as cli

    ckpt = tmp_path / "net.ckpt"
    # rounds alike at any row count, so the verdicts may not depend on chunking
    save_checkpoint(ckpt, dyadic_mlp(np.random.default_rng(1), [2, 6, 6, 2]))
    sizes = []
    real = cli._certify_chunk
    monkeypatch.setattr(cli, "_certify_chunk", lambda a: sizes.append(len(a[3])) or real(a))
    small = config_from_dict(fast_overrides(tmp_path, test_subset=30, batch_size=10,
                                            eval_attack_restarts=3, out=str(tmp_path / "s")))
    big = config_from_dict(dict(vars(small), batch_size=128, out=str(tmp_path / "b")))
    a = cmd_certify(small, str(ckpt))
    assert len(sizes) == 10 and max(sizes) == 3     # 3 samples x 3 restarts <= 10 rows
    sizes.clear()
    b = cmd_certify(big, str(ckpt))
    assert sizes == [30]                # one process: one chunk of 90 rows <= 128
    assert open(a["verdicts"]).read() == open(b["verdicts"]).read()


def test_certify_with_oracle_coverage(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path, hidden=(8, 8), subset=120,
                                          test_subset=25))
    result = cmd_train(cfg)
    summary = cmd_certify(cfg, result["best"], methods=("ibp", "pgd", "oracle"))
    assert summary["oracle_coverage"] is not None
    assert summary["certified_accuracy"] >= summary["ibp_certified_accuracy"] - 1e-12


def test_certify_writes_null_margin_on_solver_failure(tmp_path, monkeypatch):
    import certitrain.verify as verify

    class Failed:
        status, x = 4, None

    calls = []
    monkeypatch.setattr(verify, "linprog", lambda *a, **k: calls.append(1) or Failed())
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(ckpt, init_params(build_architecture("mlp", (2,), 2, 1, hidden=(8, 8)), 0))
    # at epsilon 0.8 every sample needs an LP; at smaller radii the box corner
    # answers all of some samples' classes, which then never reach the solver
    cfg = config_from_dict(fast_overrides(tmp_path, test_subset=6, epsilon=0.8))
    summary = cmd_certify(cfg, str(ckpt), methods=("ibp", "oracle"))
    verdicts = [json.loads(l) for l in open(summary["verdicts"])]
    assert len(calls) == 6  # one failed LP per sample ends its enumeration
    assert len(verdicts) == 6 and all(v["exact_margin"] is None for v in verdicts)
    assert summary["oracle_coverage"] == 0.0


def test_tightness_exits_2_when_oracle_resolves_nothing(tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(build_architecture("mlp", (2,), 2, 1, hidden=(8, 8)), 0))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": "moons", "test_subset": 5, "epsilon": 0.3,
                                  "oracle_budget": 0}))
    rc = main(["tightness", "--checkpoint", str(path), "--config", str(config),
               "--methods", "ibp", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: exact oracle resolved no samples")
    assert len(err.strip().splitlines()) == 1


def test_certify_architecture_mismatch(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path))
    result = cmd_train(cfg)
    import dataclasses

    other = dataclasses.replace(cfg, dataset="synthetic-digits", test_subset=10)
    with pytest.raises(ConfigError, match="checkpoint expects"):
        cmd_certify(other, result["best"])


def test_tightness_histograms(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path, hidden=(8, 8), subset=150,
                                          test_subset=20, oracle_budget=14))
    result = cmd_train(cfg)
    summary = cmd_tightness(cfg, result["best"], methods=("ibp", "pgd", "taps"), bins=10)
    assert summary["ibp"]["count"] > 0
    # sound bound errs high, feasible point errs low
    assert summary["ibp"]["mean"] >= -1e-9
    assert summary["pgd"]["mean"] <= 1e-9
    hist = (tmp_path / "run" / "tightness_ibp.csv").read_text().splitlines()
    assert hist[0] == "bin_left,bin_right,count"
    assert len(hist) == 11


def test_ablate_connector_sweep(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path, subset=150, test_subset=40,
                                          total_epochs=3))
    path = cmd_ablate(cfg, "connector_c", ["0.0", "0.5", "1.0"])
    rows = open(path).read().strip().splitlines()
    assert rows[0] == "sweep,value,seed,nat_acc,taps_acc,adv_acc,cert_acc"
    assert len(rows) == 4


def test_ablate_columns_are_certify_summaries(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path, subset=120, test_subset=20))
    path = cmd_ablate(cfg, "split", ["0", "1"])
    rows = [line.split(",") for line in open(path).read().strip().splitlines()[1:]]
    assert [r[1] for r in rows] == ["0", "1"]
    for row in rows:
        run = tmp_path / "run" / f"split_{row[1]}"
        assert len((run / "verdicts.jsonl").read_text().splitlines()) == 20
        check = dataclasses.replace(cfg, out=str(tmp_path / f"check_{row[1]}"))
        summary = cmd_certify(check, str(run / "best.ckpt"))
        nat, adv, cert = (float(row[i]) for i in (3, 5, 6))
        assert nat == summary["natural_accuracy"]
        assert adv == summary["adversarial_accuracy"]
        assert cert == summary["ibp_certified_accuracy"]


def test_ablate_w_taps_inf_token(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path, subset=120, test_subset=30))
    path = cmd_ablate(cfg, "w_taps", ["5", "inf"])
    rows = open(path).read().strip().splitlines()
    assert len(rows) == 3
    assert rows[2].startswith("w_taps,inf,")


def test_ablate_split_zero_matches_ibp_run(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path, subset=150, test_subset=30,
                                          record_time=False))
    path = cmd_ablate(cfg, "split", ["0"])
    row = open(path).read().strip().splitlines()[1]
    import dataclasses

    ibp_cfg = dataclasses.replace(cfg, loss="ibp", classifier_relus=0,
                                  out=str(tmp_path / "ibp"))
    ibp_cfg.validate()
    result = cmd_train(ibp_cfg)
    sweep_csv = (tmp_path / "run" / "split_0" / "metrics.csv").read_bytes()
    ibp_csv = (tmp_path / "ibp" / "metrics.csv").read_bytes()
    assert sweep_csv == ibp_csv


def test_ibp_run_taps_column_empty_not_nan(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path, loss="ibp"))
    cmd_train(cfg)
    lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    header = lines[0].split(",")
    idx = header.index("taps_loss")
    for line in lines[1:]:
        assert line.split(",")[idx] == ""
    assert "nan" not in (tmp_path / "run" / "metrics.csv").read_text().lower()


def test_certify_parallel_jobs_match_serial(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path, subset=120, test_subset=24,
                                          hidden=(10, 10)))
    result = cmd_train(cfg)
    import dataclasses

    serial = cmd_certify(dataclasses.replace(cfg, out=str(tmp_path / "s")), result["best"])
    parallel = cmd_certify(dataclasses.replace(cfg, out=str(tmp_path / "p"), jobs=2),
                           result["best"])
    assert serial["natural_accuracy"] == parallel["natural_accuracy"]
    assert serial["certified_accuracy"] == parallel["certified_accuracy"]
    assert (tmp_path / "s" / "verdicts.jsonl").read_bytes() == \
           (tmp_path / "p" / "verdicts.jsonl").read_bytes()


def test_tightness_histogram_reproducible(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path, hidden=(8, 8), subset=150,
                                          test_subset=15, oracle_budget=14))
    result = cmd_train(cfg)
    import dataclasses

    a = dataclasses.replace(cfg, out=str(tmp_path / "ta"))
    b = dataclasses.replace(cfg, out=str(tmp_path / "tb"))
    cmd_tightness(a, result["best"], methods=("ibp", "pgd"), bins=8)
    cmd_tightness(b, result["best"], methods=("ibp", "pgd"), bins=8)
    for m in ("ibp", "pgd"):
        assert (tmp_path / "ta" / f"tightness_{m}.csv").read_bytes() == \
               (tmp_path / "tb" / f"tightness_{m}.csv").read_bytes()


def test_main_smoke(tmp_path, capsys):
    rc = main([
        "train", "--dataset", "moons", "--subset", "150", "--loss", "ibp",
        "--total-epochs", "3", "--annealing-epochs", "2",
        "--decay1", "2", "--decay2", "3",
        "--batch-size", "32", "--lr0", "0.01", "--epsilon", "0.05",
        "--out", str(tmp_path / "cli-run"), "--test-subset", "30",
    ])
    assert rc == 0
    assert (tmp_path / "cli-run" / "final.ckpt").exists()


def test_staps_at_epsilon_zero_trains(tmp_path):
    """At eps 0 a STAPS step bounds the point box: no SABR region to pick."""
    rc = main([
        "train", "--dataset", "moons", "--subset", "150", "--loss", "staps",
        "--tau-ratio", "0.4", "--epsilon", "0", "--hidden", "8,8",
        "--total-epochs", "3", "--annealing-epochs", "2", "--decay1", "2", "--decay2", "3",
        "--batch-size", "32", "--out", str(tmp_path / "staps0"), "--test-subset", "20",
    ])
    assert rc == 0
    assert (tmp_path / "staps0" / "best.ckpt").exists()
