"""Tests of the benchmark itself: run each workload at a tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

FAMILY_NAMES = {
    "train": {"train_samples_per_s": "samples/s", "train_step_ms_p50": "ms",
              "train_step_ms_p90": "ms"},
    "certify": {"certify_samples_per_s": "samples/s", "certify_sample_ms_p50": "ms",
                "certify_sample_ms_p90": "ms", "oracle_coverage": "ratio",
                "certified_acc": "ratio"},
}
COMMON_NAMES = {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}
IDLE = {
    "train-mlp-taps": ["tensor.im2col", "tensor.col2im", "verify.lp", "attack.pgd_input"],
    "train-cnn3-ibp": ["attack.pgd_latent", "attack.pgd_input", "connector.connector_node",
                       "connector.connector_partials", "loss.combined_gradient",
                       "net.forward_backward_input", "verify.lp"],
    "certify-moons-oracle": ["tensor.im2col", "tensor.col2im"],
}


def bindings():
    """id of every attribute of every imported certitrain module and class."""
    out = {}
    for mod in spans.package_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    out[(mod.__name__, f"{attr}.{meth}")] = id(fn)
    return out


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def runs(request):
    name = request.param
    workloads.load_program(ROOT)
    before = bindings()
    plain = workloads.run_workload(name, 3, 0.0, 0, ROOT, tiny=True)
    traced = workloads.run_workload(name, 3, 0.0, 1, ROOT, tiny=True)
    after = bindings()
    # --seconds must not change the work a traced run does
    again = workloads.run_workload(name, 3, 5.0, 1, ROOT, tiny=True)
    return name, plain, traced, before, after, again


def test_results_are_correct_and_name_every_metric(runs):
    name, (result, record), (t_result, _), _, _, _ = runs
    for r in (result, t_result):
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, record["problems"]
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == e2e
    for metric in e2e:
        assert result["metrics"][metric]["value"] > 0, metric
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in t_result["metrics"].items()} == layer
    kind = "train" if name.startswith("train") else "certify"
    expected = dict(FAMILY_NAMES[kind], **COMMON_NAMES)
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    assert record["metrics"]["failed_frac"]["value"] == 0.0
    assert record["checks"], "no correctness check ran"


def test_tracing_leaves_results_unchanged(runs):
    _, (_, record), (_, t_record), _, _, _ = runs
    assert record["digests"] and record["digests"] == t_record["digests"]


def test_wrappers_are_removed_at_every_binding_site(runs):
    _, _, _, before, after, _ = runs
    assert before == after
    for mod in spans.package_modules():
        for attr, value in vars(mod).items():
            assert not hasattr(value, spans.WRAPPED_MARK), f"{mod.__name__}.{attr}"


def test_idle_layers_read_zero_calls(runs):
    name, _, (t_result, _), _, _, _ = runs
    metrics = t_result["metrics"]
    for key in IDLE[name]:
        assert metrics[f"{key}.calls"]["value"] == 0, key


def test_traced_counts_repeat_for_a_seed(runs):
    _, _, (t_result, _), _, _, (again, _) = runs

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] in ("count", "passes/call")}

    assert counts(t_result) and counts(t_result) == counts(again)


def test_self_times_are_positive_and_cover_the_run(runs):
    _, _, (t_result, _), _, _, _ = runs
    m = {k: v["value"] for k, v in t_result["metrics"].items()}
    for key, value in m.items():
        if key.endswith(".self_s"):
            assert value >= 0.0, key
    assert 0.0 <= m["trace.unattributed_frac"] < 0.2


def test_timed_run_ends_on_the_cycle_boundary_nearest_to_seconds(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: clock[0])
    done = []

    def one_round(rnd):
        done.append(rnd)
        clock[0] += 1.0

    for seconds, n in ((0.0, 4), (9.9, 8), (10.1, 12)):
        done.clear()
        workloads.run_rounds(seconds, one_round, cycle=4)
        assert done == list(range(n)), seconds
    done.clear()
    workloads.run_rounds(100.0, one_round, rounds=2, cycle=4)
    assert done == [0, 1]


def test_nested_span_time_is_counted_once():
    tracer = spans.Tracer()
    inner = tracer._wrap("t.inner", lambda: time.sleep(0.1))

    def outer_body():
        time.sleep(0.02)
        inner()

    outer = tracer._wrap("t.outer", outer_body)
    t0 = time.perf_counter()
    outer()
    wall = time.perf_counter() - t0
    assert tracer.calls == {"t.outer": 1, "t.inner": 1}
    assert tracer.edges[("t.outer", "t.inner")] == 1
    assert tracer.self_s["t.inner"] >= 0.1
    # the outer span's self time excludes the 0.1 s spent in the inner one
    assert 0.02 <= tracer.self_s["t.outer"] < 0.1
    assert tracer.self_s["t.outer"] + tracer.self_s["t.inner"] <= wall


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "train-mlp-taps", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180,
                          check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
