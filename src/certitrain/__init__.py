"""Certified training toolkit: interval propagation, PGD attacks, gradient
connectors for joint attacked/bounded training, and an exact small-network
verification oracle."""

import ctypes

from .attack import AttackConfig, pgd_input, pgd_latent, sabr_select_region
from .checkpoint import load_checkpoint, save_checkpoint
from .connector import ConnectorParams, connector_node, connector_partials
from .data import Dataset, load_mnist_idx, synthetic_digits, synthetic_moons
from .interval import BoxBounds, box_from_ball, ibp_bounds, propagate_box
from .loss import LossKind, combined_gradient, margin_loss
from .net import Network, build_architecture, elide_final_layer, init_params
from .tensor import Tape, backward
from .train import Schedule, TrainConfig, epsilon_schedule, taps_accuracy, train_run
from .verify import certify_ibp, exact_margin_oracle, method_bound, variance_theorem_check

__version__ = "0.1.0"

# glibc's mallopt parameters (malloc.h) and the values set at import
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_SETTINGS = {"mmap_threshold": 32 << 20, "trim_threshold": 1 << 30}


def _keep_freed_pages():
    """Keep the pages a training step frees mapped for the next step.

    By default glibc serves every block above its mmap threshold with a fresh
    ``mmap`` and returns the top of the heap to the OS on ``free``, so each
    step page-faults its arrays back in.  Raising the mmap threshold to
    glibc's cap (32 MiB; cnn3's patch matrices are at most 12.8 MB) puts them
    on the heap, and the trim threshold keeps up to 1 GiB of freed heap.
    Returns the settings applied, or None where ``mallopt`` is missing or
    refuses them (not glibc); the arithmetic is the same either way.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    if (mallopt(_M_MMAP_THRESHOLD, _MALLOC_SETTINGS["mmap_threshold"]) != 1
            or mallopt(_M_TRIM_THRESHOLD, _MALLOC_SETTINGS["trim_threshold"]) != 1):
        return None
    return dict(_MALLOC_SETTINGS)


_MALLOC = _keep_freed_pages()
