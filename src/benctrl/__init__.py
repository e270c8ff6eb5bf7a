"""benctrl: spectral control and stabilization of the linearized Benjamin
equation on a periodic domain.

The toolkit works at a truncated (desk) scale: functions are band-limited
Fourier series, operators are dense matrices in the orthonormal exponential
basis, and every time integral has a closed form, so the controllability and
decay statements can be verified to near machine precision.
"""

__version__ = "0.1.0"

from .errors import (BenctrlError, ClusterSizeError, ConfigurationError,
                     DecayFitError, ObservabilityError,
                     SingularClusterBlockError, SingularGramError)
from .moment_control import (ControlProblem, ControlSignal, SynthesisResult,
                             assemble_control, build_biorthogonal,
                             controllability_gramian, evolve_controlled,
                             hum_control, reduce_to_zero_start,
                             solve_coefficients, synthesize_control,
                             terminal_residual, verify_moments)
from .operators import (BumpProfile, Gramian, MMatrix, apply_G, build_bump,
                        bump_from_coefficients, evolve_free, gg_star_matrix,
                        gramian, m_matrix)
from .spectral import TorusFunction, hs_weights, mean, sobolev_norm
from .spectrum import Horizon, Spectrum, clusters, eigenvalues, gap_gamma
from .spectrum import analyze as analyze_spectrum
from .spectrum import spectrum_report, window_bound
from .stabilization import (DecayFit, FeedbackLaw, build_L_lambda,
                            energy_identity_defect, estimate_decay_rate,
                            feedback_gramian, feedback_simple, norm_history,
                            observability_constant, simulate_closed_loop,
                            spectral_abscissa)

__all__ = [
    # submodules
    "errors", "moment_control", "operators", "spectral", "spectrum",
    "stabilization",
    # errors
    "BenctrlError", "ClusterSizeError", "ConfigurationError", "DecayFitError",
    "ObservabilityError", "SingularClusterBlockError", "SingularGramError",
    # moment_control
    "ControlProblem", "ControlSignal", "SynthesisResult", "assemble_control",
    "build_biorthogonal", "controllability_gramian", "evolve_controlled",
    "hum_control", "reduce_to_zero_start", "solve_coefficients",
    "synthesize_control", "terminal_residual", "verify_moments",
    # operators
    "BumpProfile", "Gramian", "MMatrix", "apply_G", "build_bump",
    "bump_from_coefficients", "evolve_free", "gg_star_matrix", "gramian",
    "m_matrix",
    # spectral
    "TorusFunction", "hs_weights", "mean", "sobolev_norm",
    # spectrum
    "Horizon", "Spectrum", "analyze_spectrum", "clusters", "eigenvalues",
    "gap_gamma", "spectrum_report", "window_bound",
    # stabilization
    "DecayFit", "FeedbackLaw", "build_L_lambda", "energy_identity_defect",
    "estimate_decay_rate", "feedback_gramian", "feedback_simple",
    "norm_history", "observability_constant", "simulate_closed_loop",
    "spectral_abscissa",
]
