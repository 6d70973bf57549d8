"""CLI: config validation, presets, artifacts, and command round trips."""

import json
import os
import struct

import pytest

from certitrain.checkpoint import MAGIC, save_checkpoint
from certitrain.cli import (
    Config,
    ConfigError,
    PRESETS,
    cmd_ablate,
    cmd_certify,
    cmd_tightness,
    cmd_train,
    config_from_dict,
    main,
)
from certitrain.net import build_architecture, init_params


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
    with pytest.raises(ConfigError, match="tau_ratio conflicts"):
        config_from_dict({"loss": "taps", "tau_ratio": 0.4})


def test_sabr_without_tau_rejected():
    with pytest.raises(ConfigError, match="requires --tau-ratio"):
        config_from_dict({"loss": "sabr"})


def test_presets_all_validate():
    for name, preset in PRESETS.items():
        cfg = config_from_dict(dict(preset))
        assert cfg.epsilon in (0.1, 0.3), name


def test_exit_code_on_config_error(capsys):
    rc = main(["train", "--loss", "sabr"])
    assert rc == 2
    assert "tau-ratio" in capsys.readouterr().err


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
    return MAGIC + struct.pack("<II", 1, len(text)) + text + blobs


# name -> (corrupt a good checkpoint's bytes, expected message)
CORRUPTIONS = {
    "bad-magic": (lambda raw: b"NOPE" + b"\x00" * 32, "bad magic"),
    "short-header": (lambda raw: b"CTRNxx", "short header"),
    "header-not-json": (lambda raw: MAGIC + struct.pack("<II", 1, 5) + b"{nope", "not UTF-8 JSON"),
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


def test_unknown_certify_method_rejected(tmp_path, capsys):
    rc = main(["certify", "--checkpoint", str(tmp_path / "missing.ckpt"),
               "--methods", "ibp,orcale", "--dataset", "moons", "--test-subset", "5",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "orcale" in capsys.readouterr().err


def _tightness_main(tmp_path, ckpt_input_shape, methods):
    path = tmp_path / "model.ckpt"
    net = build_architecture("mlp", ckpt_input_shape, 2, 1, hidden=(4, 4))
    save_checkpoint(path, init_params(net, 0))
    return main(["tightness", "--checkpoint", str(path), "--methods", methods,
                 "--dataset", "moons", "--test-subset", "5", "--out", str(tmp_path / "out")])


def test_tightness_unknown_method_rejected_before_oracle(tmp_path, capsys, monkeypatch):
    called = []
    monkeypatch.setattr("certitrain.cli.exact_margin_oracle", lambda *a, **k: called.append(a))
    rc = _tightness_main(tmp_path, (2,), "ibp,pgdd")
    err = capsys.readouterr().err
    assert rc == 2 and not called
    assert err.startswith("config error: ") and "pgdd" in err
    assert len(err.strip().splitlines()) == 1


def test_tightness_input_shape_mismatch_exits_2(tmp_path, capsys):
    rc = _tightness_main(tmp_path, (5,), "ibp,pgd")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: checkpoint expects input (5,)")
    assert len(err.strip().splitlines()) == 1


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


def test_certify_eps_zero_equals_natural(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path, epsilon=0.05))
    result = cmd_train(cfg)
    import dataclasses

    cfg0 = dataclasses.replace(cfg, epsilon=0.0)
    summary = cmd_certify(cfg0, result["best"], methods=("ibp",))
    assert summary["certified_accuracy"] == summary["natural_accuracy"]


def test_certify_with_oracle_coverage(tmp_path):
    cfg = config_from_dict(fast_overrides(tmp_path, hidden=(8, 8), subset=120,
                                          test_subset=25))
    result = cmd_train(cfg)
    summary = cmd_certify(cfg, result["best"], methods=("ibp", "pgd", "oracle"))
    assert summary["oracle_coverage"] is not None
    assert summary["certified_accuracy"] >= summary["ibp_certified_accuracy"] - 1e-12


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
