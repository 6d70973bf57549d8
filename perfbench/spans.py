"""Per-layer tracing from outside the package.

The package is not instrumented.  Instead, :class:`Tracer` replaces each
listed function at every place it is bound -- the defining module, every
``certitrain`` module that imported it by name, the package namespace, or the
class that owns a method -- with a wrapper that records a span around the
call.  Leaving the tracer restores every binding.

Spans nest on a stack.  On exit a span adds its duration to its parent, so a
function's self time is its duration minus the time of the traced calls it
made.  Spans are folded into per-key totals as they close instead of being
stored, so a long traced run holds no per-call records.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

PACKAGE = "certitrain"
WRAPPED_MARK = "__perfbench_wrapped__"

# (module, attribute path, span key).  A dotted path names a method.
TRACED = [
    ("data", "synthetic_digits", "data.synthetic_digits"),
    ("data", "synthetic_moons", "data.synthetic_moons"),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("net", "build_architecture", "net.build_architecture"),
    ("net", "init_params", "net.init_params"),
    ("net", "lift_params", "net.lift_params"),
    ("net", "forward_batch", "net.forward_batch"),
    ("net", "forward_on_tape", "net.forward_on_tape"),
    ("net", "forward_backward_input", "net.forward_backward_input"),
    ("tensor", "backward", "tensor.backward"),
    ("tensor", "conv2d", "tensor.conv2d"),
    ("tensor", "im2col", "tensor.im2col"),
    ("tensor", "col2im", "tensor.col2im"),
    ("interval", "box_from_ball", "interval.box_from_ball"),
    ("interval", "propagate_box_on_tape", "interval.propagate_box_on_tape"),
    ("interval", "elided_bounds_on_tape", "interval.elided_bounds_on_tape"),
    ("interval", "ibp_bounds", "interval.ibp_bounds"),
    ("attack", "pgd_input", "attack.pgd_input"),
    ("attack", "pgd_latent", "attack.pgd_latent"),
    ("attack", "sabr_select_region", "attack.sabr_select_region"),
    ("connector", "connector_node", "connector.connector_node"),
    ("connector", "connector_partials", "connector.connector_partials"),
    ("loss", "combined_gradient", "loss.combined_gradient"),
    ("loss", "paired_loss_terms", "loss.paired_loss_terms"),
    ("loss", "ibp_loss_terms", "loss.ibp_loss_terms"),
    ("loss", "fast_regularizer_node", "loss.fast_regularizer_node"),
    ("train", "train_run", "train.train_run"),
    ("train", "train_step", "train.train_step"),
    ("train", "_bound_loss_grads", "train.bound_loss_grads"),
    ("train", "_certified_mask", "train.certified_mask"),
    ("train", "taps_accuracy", "train.taps_accuracy"),
    ("train", "natural_accuracy", "train.natural_accuracy"),
    ("train", "Adam.step", "train.optimizer_step"),
    ("verify", "certify_ibp", "verify.certify_ibp"),
    ("verify", "method_bound", "verify.method_bound"),
    ("verify", "exact_margin_oracle", "verify.exact_margin_oracle"),
    ("verify", "linprog", "verify.lp"),
    ("cli", "cmd_certify", "cli.cmd_certify"),
    ("cli", "_certify_chunk", "cli.certify_chunk"),
    ("cli", "prepared_test_set", "cli.prepared_test_set"),
]

LAYERS = ("data", "checkpoint", "net", "tensor", "interval", "attack", "connector",
          "loss", "train", "verify", "cli")

# Counts a span records besides its call: key -> f(args, result) -> {counter: n}.
COUNTS = {
    "net.forward_batch": lambda a, r: {"net.forward_batch.rows": len(a[1])},
    "net.forward_backward_input": lambda a, r: {"net.forward_backward_input.rows": len(a[1])},
    "attack.pgd_input": lambda a, r: {"attack.pgd_input.rows": len(a[1])},
    # multi mode returns (points, targets): one attacked row per target
    "attack.pgd_latent": lambda a, r: {
        "attack.pgd_latent.rows": r[1].size if isinstance(r, tuple) else len(r)},
    "tensor.backward": lambda a, r: {"tensor.backward.tape_nodes": a[1].id + 1},
    "verify.exact_margin_oracle": lambda a, r: {"verify.oracle_patterns": r.n_patterns,
                                                "verify.oracle_unstable": r.n_unstable},
    "verify.lp": lambda a, r: {"verify.lp_feasible": int(r.status == 0)},
}
ROW_KEYS = ("net.forward_batch", "net.forward_backward_input", "attack.pgd_input",
            "attack.pgd_latent")


def package_modules():
    """Every imported module of the package, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def binding_sites(fn, modules):
    """(namespace, attribute) pairs where ``fn`` is bound by name."""
    sites = []
    for mod in modules:
        for attr, value in vars(mod).items():
            if value is fn:
                sites.append((mod, attr))
    return sites


class Tracer:
    """Context manager: wraps the traced functions, aggregates their spans."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.edges = Counter()          # (parent key, child key) -> calls
        self._stack = []                # [key, time spent in child spans]
        self._patches = []              # (namespace, attribute, original)
        self.wall_s = 0.0
        self._t0 = 0.0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key, fn):
        stack = self._stack
        calls, self_s, edges, counters = self.calls, self.self_s, self.edges, self.counters
        clock = time.perf_counter
        count = COUNTS.get(key)

        def traced(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                calls[key] += 1
                self_s[key] += dur - frame[1]
                edges[(parent[0] if parent else None, key)] += 1
            if count is not None:
                counters.update(count(args, result))
            return result

        traced.__wrapped__ = fn
        setattr(traced, WRAPPED_MARK, key)
        return traced

    def __enter__(self):
        modules = package_modules()
        by_name = {m.__name__: m for m in modules}
        for mod_name, path, key in TRACED:
            owner = by_name[f"{PACKAGE}.{mod_name}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(key, vars(cls)[meth]))
                continue
            fn = getattr(owner, path)
            wrapper = self._wrap(key, fn)
            for ns, attr in binding_sites(fn, modules):
                self._patch(ns, attr, wrapper)
        self._t0 = time.perf_counter()
        return self

    def _patch(self, ns, attr, wrapper):
        self._patches.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, wrapper)

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._t0
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()
        return False

    # -- results ------------------------------------------------------------

    def per_call_overhead_s(self, n=20000):
        """Cost a wrapper adds to one call, timed on a no-op function."""
        def noop():
            return None

        wrapped = Tracer()._wrap("calibration", noop)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(n):
            noop()
        bare = clock() - t0
        t0 = clock()
        for _ in range(n):
            wrapped()
        return max(0.0, (clock() - t0 - bare) / n)

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        keys = sorted({key for _, _, key in TRACED})
        out = {}
        for key in keys:
            out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.self_s"] = (self.self_s[key], "s")
        for key in ROW_KEYS:
            out[f"{key}.rows"] = (self.counters[key + ".rows"], "count")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                sum(v for k, v in self.self_s.items() if k.startswith(layer + ".")), "s")

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counters
        out["tensor.backward.tape_nodes"] = (c["tensor.backward.tape_nodes"], "count")
        out["attack.passes_per_call"] = (
            ratio(self.edges[("attack.pgd_input", "net.forward_backward_input")],
                  self.calls["attack.pgd_input"]), "passes/call")
        out["loss.product_branch_frac"] = (
            ratio(self.calls["loss.combined_gradient"], self.calls["train.train_step"]), "ratio")
        out["verify.oracle_patterns"] = (c["verify.oracle_patterns"], "count")
        out["verify.oracle_unstable_mean"] = (
            ratio(c["verify.oracle_unstable"], self.calls["verify.exact_margin_oracle"]), "count")
        out["verify.lp_feasible_frac"] = (
            ratio(c["verify.lp_feasible"], self.calls["verify.lp"]), "ratio")
        attributed = sum(self.self_s.values())
        spans = sum(self.calls.values())
        out["trace.wall_s"] = (self.wall_s, "s")
        out["trace.unattributed_frac"] = (ratio(self.wall_s - attributed, self.wall_s), "ratio")
        out["trace.overhead_frac"] = (
            ratio(spans * self.per_call_overhead_s(), self.wall_s), "ratio")
        return out
