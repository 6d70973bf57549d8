"""The benchmark's workloads: set-up, timed phase and correctness checks.

Each workload drives a public entry point of the package -- ``train.train_run``
for training, ``cli.cmd_certify`` for certification -- in rounds.  An
untraced run repeats rounds for about the requested number of seconds;
a traced run does a fixed number of rounds, so that its per-layer counts do
not depend on how fast the program is.  Every round's outputs are checked;
an operation (one training step, or one certified sample) fails if its round
raised or broke a check.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict

import numpy as np

import spans

# Tolerance of the margin sandwich: the oracle's LPs are solved by HiGHS,
# whose primal feasibility tolerance is 1e-7.
LP_TOL = 1e-6
SETUP_REPEATS = 5
# An untimed warm-up round before the timed phase grows the heap and takes the
# first-call costs.  Training warms up on whole rounds: the heap takes two
# rounds to reach its working size (1.6 GB on train-cnn3-ibp), and after one
# warm-up round the first timed round still ran 14-19% slower than the rest.
# Certification warms up on this many samples.
WARMUP_ROUNDS = 2
WARMUP_SAMPLES = 5


class ProgramMissing(RuntimeError):
    """The checkout holds no certitrain sources to benchmark."""


def load_program(root):
    """Import the package from ``<root>/src``, never from anywhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    init = os.path.join(src, "certitrain", "__init__.py")
    if not os.path.isfile(init):
        raise ProgramMissing(f"no certitrain sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    pkg = importlib.import_module("certitrain")
    if os.path.abspath(pkg.__file__) != os.path.abspath(init):
        raise ProgramMissing(f"certitrain imported from {pkg.__file__}, not {init}")
    for name in ("attack", "checkpoint", "cli", "connector", "data", "interval", "loss",
                 "net", "tensor", "train", "verify"):
        importlib.import_module(f"certitrain.{name}")
    return pkg


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def label_dropped_max(elided_hi):
    """IBP margin from an elided upper-bound vector.

    Elision makes the label's own column exactly 0.0, so the margin is the
    maximum after dropping one 0.0 entry (which one does not matter).
    """
    others = list(elided_hi)
    if 0.0 not in others:
        return None
    others.remove(0.0)
    return max(others)


@contextlib.contextmanager
def timed_calls(owner, names, on_call):
    """Time calls made through ``owner.<name>``; ``on_call(name, seconds)``."""
    clock = time.perf_counter
    originals = {n: getattr(owner, n) for n in names}

    def timer(name, fn):
        def call(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                on_call(name, clock() - t0)
        return call

    for n, fn in originals.items():
        setattr(owner, n, timer(n, fn))
    try:
        yield
    finally:
        for n, fn in originals.items():
            setattr(owner, n, fn)


def run_rounds(seconds, one_round, rounds=None, cycle=1):
    """Call ``one_round(r)`` for r = 0, 1, ... for about ``seconds``.

    The run ends on the boundary between whole cycles of ``cycle`` rounds that
    lies nearest to ``seconds``, judged by the mean cycle so far.  So every run
    does each round of a cycle equally often, and runs ``seconds`` give or
    take half a cycle.  With ``rounds`` given, call it exactly that many times
    instead.

    Garbage is collected before each round.  The tape's node graph is cyclic,
    so otherwise what earlier rounds left would pile up, and peak RSS would
    grow with the number of rounds.
    """
    start = time.perf_counter()
    rnd = 0
    while True:
        gc.collect()
        one_round(rnd)
        rnd += 1
        if rounds is not None:
            if rnd >= rounds:
                return
        elif rnd % cycle == 0:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed * cycle / rnd >= seconds:
                return


class Outcome:
    """What the timed phase measured and how many operations failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = Counter()
        self.problems = []
        self.round_rates = []      # samples/s per round, or per cycle of rounds
        self.op_s = []             # duration of each operation
        self.samples = 0
        self.digests = {}
        self.quality = {}

    def check(self, name, ok, detail=""):
        self.checks[name] += 1
        if not ok and len(self.problems) < 20:
            self.problems.append(f"{name}: {detail}")
        return ok


# ---------------------------------------------------------------------------
# Training workloads
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TrainWorkload:
    arch: str
    loss: str
    classifier_relus: int
    corpus: int                    # synthetic-digit samples (train + validation)
    total_epochs: int
    annealing_epochs: int
    traced_rounds: int             # train_run calls in a traced run

    def config(self, prog, seed, out):
        cli = prog.cli
        return cli.Config(
            arch=self.arch, hidden=(128, 128), classifier_relus=self.classifier_relus,
            loss=self.loss, epsilon=0.1, w_taps=5.0, connector_c=0.5, attack_steps=8,
            total_epochs=self.total_epochs, annealing_epochs=self.annealing_epochs,
            warmup_epochs=0, decay1=self.total_epochs - 1, decay2=self.total_epochs,
            lr0=2e-3, batch_size=128, optimizer="adam", seed=seed, out=out,
            record_time=False, jobs=1,
        ).validate()

    def setup(self, prog, seed, work):
        # train_run builds and initialises its own model, in the timed phase.
        dataset = prog.data.synthetic_digits(self.corpus, seed=seed)
        return self.config(prog, seed, os.path.join(work, "train")), dataset

    def run(self, prog, state, seconds, outcome, rounds=None):
        cfg, dataset = state
        train_cfg = cfg.train_config()
        n_train = len(dataset) - max(1, int(round(len(dataset) * train_cfg.val_fraction)))
        steps = self.total_epochs * math.ceil(n_train / cfg.batch_size)
        for _ in range(WARMUP_ROUNDS):
            gc.collect()
            with contextlib.suppress(Exception):  # a broken program fails the rounds
                prog.train.train_run(train_cfg, dataset, os.path.join(cfg.out, "warmup"))
        step_s = []

        def one_round(_):
            del step_s[:]
            t0 = time.perf_counter()
            try:
                result = prog.train.train_run(train_cfg, dataset, cfg.out)
            except Exception as e:  # a raising round fails all its steps
                outcome.check("train_run returns", False, repr(e))
                ok = False
            else:
                wall = time.perf_counter() - t0
                ok = self.verify(prog, result, cfg, outcome)
                outcome.round_rates.append(n_train * self.total_epochs / wall)
                outcome.samples += n_train * self.total_epochs
                outcome.op_s.extend(step_s)
            outcome.attempted += steps
            outcome.failed += 0 if ok else steps

        with timed_calls(prog.train, ["train_step"], lambda _, s: step_s.append(s)):
            run_rounds(seconds, one_round, rounds)

    def verify(self, prog, result, cfg, outcome):
        with open(result["metrics"], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        ok = outcome.check("metrics.csv has one row per epoch", len(rows) == cfg.total_epochs,
                           f"{len(rows)} rows")
        numbers = [float(v) for r in rows for v in r.values() if v != ""]
        ok &= outcome.check("metrics.csv values are finite", all(map(math.isfinite, numbers)))
        for r in rows:
            if int(r["epoch"]) >= cfg.annealing_epochs and r["taps_loss"] != "":
                ok &= outcome.check("product epochs: ibp_loss >= taps_loss",
                                    float(r["ibp_loss"]) >= float(r["taps_loss"]),
                                    f"epoch {r['epoch']}")
        state = result["state"]
        best = state.best_net if state.best_net is not None else state.net
        loaded, _ = prog.checkpoint.load_checkpoint(result["best"])
        same = (loaded.split_index == best.split_index
                and len(loaded.param_arrays()) == len(best.param_arrays())
                and all(np.array_equal(a, b)
                        for a, b in zip(loaded.param_arrays(), best.param_arrays())))
        ok &= outcome.check("best.ckpt round-trips", same)
        digest = sha256_file(result["metrics"])
        first = outcome.digests.setdefault("metrics.csv", digest)
        ok &= outcome.check("metrics.csv repeats across rounds", digest == first)
        return ok


# ---------------------------------------------------------------------------
# Certification workload
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CertifyWorkload:
    hidden: tuple
    epsilon: float
    train_epochs: int
    train_subset: int
    samples_per_round: int
    pool_rounds: int = 4
    model_seed: int = 0
    pool_seed: int = 1000

    @property
    def traced_rounds(self):
        """A traced run certifies every part of the pool once."""
        return self.pool_rounds

    def config(self, prog, seed, out, samples=None):
        return prog.cli.Config(
            dataset="moons", arch="mlp", hidden=self.hidden, classifier_relus=1,
            loss="taps", epsilon=self.epsilon, total_epochs=self.train_epochs,
            annealing_epochs=max(1, self.train_epochs // 3), warmup_epochs=0,
            decay1=self.train_epochs - 1, decay2=self.train_epochs,
            subset=self.train_subset, test_subset=samples or self.samples_per_round,
            seed=seed, out=out, record_time=False, jobs=1,
        ).validate()

    def setup(self, prog, seed, work):
        # The certified model is fixed, so cost differences between runs do not
        # come from a different count of unstable ReLUs.
        cfg = self.config(prog, self.model_seed, os.path.join(work, "model"))
        result = prog.train.train_run(cfg.train_config(), prog.cli.prepared_train_set(cfg),
                                      cfg.out)
        return result["best"], seed, work

    def run(self, prog, state, seconds, outcome, rounds=None):
        checkpoint, seed, work = state
        methods = ("ibp", "pgd", "oracle")
        warm = self.config(prog, self.pool_seed - 1, os.path.join(work, "warmup"),
                           WARMUP_SAMPLES)
        with contextlib.suppress(Exception):  # a broken program fails the rounds
            prog.cli.cmd_certify(warm, checkpoint, methods)
        per_sample = []
        certified = covered = total = 0
        cycle_s = []               # wall time of each round of the current cycle
        sample_s = defaultdict(list)   # (part, sample) -> its time on each cycle

        def on_call(name, s):
            # certify_ibp is the first verify call made for each sample
            if name == "certify_ibp":
                per_sample.append(0.0)
            per_sample[-1] += s

        def one_round(rnd):
            nonlocal certified, covered, total
            # The test set is a fixed pool of parts, as a real test split is
            # fixed; the seed rotates the order in which a run reaches them.
            # A cycle certifies every part once, and a run ends on a whole
            # cycle, so every run certifies the same samples equally often.
            k = (seed + rnd) % self.pool_rounds
            cfg = self.config(prog, self.pool_seed + k, os.path.join(work, f"eval{rnd}"))
            n = self.samples_per_round
            del per_sample[:]
            t0 = time.perf_counter()
            try:
                summary = prog.cli.cmd_certify(cfg, checkpoint, methods)
            except Exception as e:  # a raising round fails all its samples
                outcome.check("cmd_certify returns", False, repr(e))
                bad = n
            else:
                wall = time.perf_counter() - t0
                bad = self.verify(summary["verdicts"], n, outcome)
                if rnd == 0:
                    outcome.digests["verdicts.jsonl"] = sha256_file(summary["verdicts"])
                cycle_s.append(wall)
                outcome.samples += n
                for i, t in enumerate(per_sample):
                    sample_s[(k, i)].append(t)
                certified += round(summary["certified_accuracy"] * n)
                covered += round(summary["oracle_coverage"] * n)
                total += n
            outcome.attempted += n
            outcome.failed += bad
            if (rnd + 1) % self.pool_rounds == 0:
                if len(cycle_s) == self.pool_rounds:  # no round of the cycle raised
                    outcome.round_rates.append(n * self.pool_rounds / sum(cycle_s))
                del cycle_s[:]

        with timed_calls(prog.cli, ["certify_ibp", "method_bound", "exact_margin_oracle"],
                         on_call):
            run_rounds(seconds, one_round, rounds, cycle=self.pool_rounds)
        # A sample's time is the median over the cycles, so a burst of load on
        # the machine during one certification does not move the percentiles.
        outcome.op_s = [statistics.median(ts) for ts in sample_s.values()]
        outcome.quality = {"certified_acc": certified / total if total else 0.0,
                           "oracle_coverage": covered / total if total else 0.0}

    @staticmethod
    def verify(path, n, outcome):
        """Number of samples whose verdict breaks a check."""
        with open(path, encoding="utf-8") as fh:
            verdicts = [json.loads(line) for line in fh]
        ids = sorted(v["sample_id"] for v in verdicts)
        if not outcome.check("one verdict per sample", ids == list(range(n)), f"ids {ids[:5]}"):
            return n
        bad = 0
        for v in verdicts:
            ibp_margin = label_dropped_max(v["method_bounds"]["ibp"])
            if not outcome.check("ibp bounds hold a label column", ibp_margin is not None):
                bad += 1
                continue
            pgd, exact = v["pgd_margin"], v["exact_margin"]
            ok = True
            if exact is not None:
                tol = LP_TOL * max(1.0, abs(exact))
                ok &= outcome.check("pgd_margin <= exact_margin", pgd <= exact + tol,
                                    f"sample {v['sample_id']}: {pgd} > {exact}")
                ok &= outcome.check("exact_margin <= ibp_margin", exact <= ibp_margin + tol,
                                    f"sample {v['sample_id']}: {exact} > {ibp_margin}")
                if v["ibp_certified"]:
                    ok &= outcome.check("ibp_certified implies exact_margin < 0", exact < 0.0,
                                        f"sample {v['sample_id']}: {exact}")
            else:
                ok &= outcome.check("pgd_margin <= ibp_margin", pgd <= ibp_margin + LP_TOL,
                                    f"sample {v['sample_id']}")
            bad += 0 if ok else 1
        return bad


# ---------------------------------------------------------------------------
# Registry and entry point
# ---------------------------------------------------------------------------

WORKLOADS = {
    "train-mlp-taps": TrainWorkload("mlp", "taps", classifier_relus=1, corpus=2560,
                                    total_epochs=4, annealing_epochs=1, traced_rounds=4),
    "train-cnn3-ibp": TrainWorkload("cnn3", "ibp", classifier_relus=0, corpus=1408,
                                    total_epochs=2, annealing_epochs=1, traced_rounds=4),
    "certify-moons-oracle": CertifyWorkload(hidden=(14, 14), epsilon=0.12, train_epochs=20,
                                            train_subset=2000, samples_per_round=25),
}

# The same workloads at a size that runs in seconds, for the benchmark's test.
TINY = {
    "train-mlp-taps": dataclasses.replace(WORKLOADS["train-mlp-taps"], corpus=300,
                                          total_epochs=2, traced_rounds=2),
    "train-cnn3-ibp": dataclasses.replace(WORKLOADS["train-cnn3-ibp"], corpus=150,
                                          traced_rounds=2),
    "certify-moons-oracle": dataclasses.replace(WORKLOADS["certify-moons-oracle"],
                                                train_epochs=3, train_subset=300,
                                                samples_per_round=6, pool_rounds=2),
}


def run_workload(name, seed, seconds, trace, root, tiny=False):
    """Set up, measure and check one workload; returns (result, record).

    ``result`` is the benchmark's result object; ``record`` carries what a
    reader needs next to it: digests, sample counts, the checks that ran and
    the metrics under the names of the layer they come from.
    """
    prog = load_program(root)
    wl = (TINY if tiny else WORKLOADS)[name]
    outcome = Outcome()
    setup_s = []
    tracer = spans.Tracer() if trace else contextlib.nullcontext()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as work, \
            contextlib.redirect_stdout(sys.stderr), tracer:
        for _ in range(1 if tiny else SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(prog, seed, work)
            setup_s.append(time.perf_counter() - t0)
        wl.run(prog, state, seconds, outcome, wl.traced_rounds if trace else None)

    def median(xs):
        return statistics.median(xs) if xs else 0.0

    def pct(q):
        return 1000.0 * float(np.percentile(outcome.op_s, q)) if outcome.op_s else 0.0

    end_to_end = {
        "setup_s": (median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "samples_per_s": (median(outcome.round_rates), "samples/s"),
        "op_ms_p50": (pct(50), "ms"),
        "op_ms_p90": (pct(90), "ms"),
    }
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    kind = "train" if isinstance(wl, TrainWorkload) else "certify"
    op = "train_step" if kind == "train" else "certify_sample"
    named = {
        f"{kind}_samples_per_s": end_to_end["samples_per_s"],
        f"{op}_ms_p50": end_to_end["op_ms_p50"],
        f"{op}_ms_p90": end_to_end["op_ms_p90"],
        "setup_s": end_to_end["setup_s"],
        "peak_rss_mb": end_to_end["peak_rss_mb"],
        "failed_frac": (failed_frac, "ratio"),
    }
    if kind == "certify":
        named["oracle_coverage"] = (outcome.quality["oracle_coverage"], "ratio")
        named["certified_acc"] = (outcome.quality["certified_acc"], "ratio")
    if trace:
        metrics = tracer.metrics()
        metrics["cli.oracle_coverage"] = (outcome.quality.get("oracle_coverage", 0.0), "ratio")
        metrics["cli.certified_acc"] = (outcome.quality.get("certified_acc", 0.0), "ratio")
    else:
        metrics = end_to_end

    def as_json(ms):
        return {k: {"value": v, "unit": u} for k, (v, u) in ms.items()}

    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": as_json(metrics),
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "metrics": as_json(named),
        "round_samples_per_s": outcome.round_rates,
        "samples": {"ops": len(outcome.op_s), "rates": len(outcome.round_rates),
                    "setups": len(setup_s), f"{kind}_samples": outcome.samples},
        "digests": outcome.digests,
        "checks": dict(outcome.checks),
        "problems": outcome.problems,
    }
    return result, record
