"""Tests for the package root: it exports nothing, so each name has one import
path (its module), and the modules that need no scipy load without it."""

import os
import subprocess
import sys
import textwrap

import ddlf

# what the package root re-exported before it was cut to its docstring
OLD_ROOT_NAMES = (
    "ChannelConfig", "DDChannel", "Scatterer", "add_noise", "apply_channel",
    "dd_leakage_response", "generate_channel", "self_interference_power", "true_cmd",
    "CMDEstimate", "EstimatorConfig", "ReconstructionGrid", "estimate", "hessian_kernels",
    "lmmse_estimate", "partial_cmd", "relaxation_delta", "srh_estimate",
    "weighted_hessian_energy",
    "AmbiguityTable", "GaborGrid", "Pulse", "ambiguity_table", "analyze", "cross_ambiguity",
    "gaussian_prototype", "make_grid", "synthesize", "tight_orthogonalize",
    "ExperimentConfig", "ResultRow", "run_sweep", "run_trial", "simulate",
    "FrameMetrics", "compute_metrics", "demodulate", "mmse_equalize", "modulate",
    "PilotPlacement", "PilotSequence", "accordion_placement", "demultiplex", "extract_pilots",
    "lattice_min_distance_sq", "multiplex", "optimal_shift",
    "Precoder", "decode", "dsft2d", "encode", "fwht",
    "__version__",
)


def test_light_modules_load_without_scipy_and_the_root_exports_nothing():
    script = textwrap.dedent(f"""
        import sys
        import ddlf, ddlf.gabor, ddlf.channel, ddlf.piloting, ddlf.link
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
        found = set({OLD_ROOT_NAMES!r}) & set(vars(ddlf))
        assert not found, sorted(found)
    """)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ddlf.__file__))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr

