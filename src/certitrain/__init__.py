"""Certified training toolkit: interval propagation, PGD attacks, gradient
connectors for joint attacked/bounded training, and an exact small-network
verification oracle."""

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
