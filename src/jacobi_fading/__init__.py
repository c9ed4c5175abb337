"""Truncated-Haar-unitary (Jacobi/MANOVA) MIMO fading channel toolkit.

The channel couples mt of m transmit modes into mr of m receive modes
through a block of a uniformly random unitary matrix.  This package
provides exact samplers for the relevant random-matrix ensembles, the
closed-form ergodic capacity / outage / diversity-multiplexing results, a
reproducible Monte-Carlo engine that cross-validates them, and an
executable zero-outage delayed-feedback transmission scheme.
"""

from .analytic import (
    DmtCurve,
    dmt_optimal_curve,
    eigen_density,
    ergodic_capacity,
    outage_single_mode,
    rho_norm,
)
from .ensembles import ChannelDims, PinnedSpectrumReport, verify_pinned_spectrum
from .errors import NumericalError
from .feedback import SchemeConfig, SchemeReport, complete_unitary, run_feedback_scheme
from .simulate import (
    McConfig,
    McEstimate,
    RayleighComparison,
    estimate_diversity_slope,
    mc_alamouti_outage,
    mc_ergodic_capacity,
    mc_outage,
    mc_repetition_error,
    q_function,
    qpsk_bit_error,
    qpsk_symbol_error,
    rayleigh_compare,
    repetition_error_tail,
    sample_spectra,
)
from .specfun import inv_reg_inc_beta, reg_inc_beta

__version__ = "0.1.0"

__all__ = [
    "ChannelDims",
    "PinnedSpectrumReport",
    "DmtCurve",
    "McConfig",
    "McEstimate",
    "RayleighComparison",
    "SchemeConfig",
    "SchemeReport",
    "NumericalError",
    "verify_pinned_spectrum",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "eigen_density",
    "ergodic_capacity",
    "outage_single_mode",
    "rho_norm",
    "dmt_optimal_curve",
    "sample_spectra",
    "mc_ergodic_capacity",
    "mc_outage",
    "mc_repetition_error",
    "repetition_error_tail",
    "mc_alamouti_outage",
    "estimate_diversity_slope",
    "q_function",
    "qpsk_bit_error",
    "qpsk_symbol_error",
    "rayleigh_compare",
    "complete_unitary",
    "run_feedback_scheme",
    "__version__",
]
