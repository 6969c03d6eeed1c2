"""Link-level simulation of pulse-shaped multicarrier transmission over
doubly-dispersive channels: Gabor filterbanks, orthogonal data precoding,
accordion pilot placement, LMMSE and smoothness-regularized channel
estimation, one-tap MMSE equalization and a seeded Monte-Carlo harness."""

from .channel import (
    ChannelConfig,
    DDChannel,
    Scatterer,
    add_noise,
    apply_channel,
    dd_leakage_response,
    generate_channel,
    self_interference_power,
    true_cmd,
)
from .estimation import (
    CMDEstimate,
    EstimatorConfig,
    ReconstructionGrid,
    estimate,
    hessian_kernels,
    lmmse_estimate,
    partial_cmd,
    relaxation_delta,
    srh_estimate,
    weighted_hessian_energy,
)
from .gabor import (
    AmbiguityTable,
    GaborGrid,
    Pulse,
    ambiguity_table,
    analyze,
    cross_ambiguity,
    gaussian_prototype,
    make_grid,
    synthesize,
    tight_orthogonalize,
)
from .harness import ExperimentConfig, ResultRow, run_sweep, run_trial, simulate
from .link import FrameMetrics, compute_metrics, demodulate, mmse_equalize, modulate
from .piloting import (
    PilotPlacement,
    PilotSequence,
    accordion_placement,
    demultiplex,
    extract_pilots,
    lattice_min_distance_sq,
    multiplex,
    optimal_shift,
)
from .transforms import Precoder, decode, dsft2d, encode, fwht

__version__ = "0.1.0"
