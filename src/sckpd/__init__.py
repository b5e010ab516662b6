"""Bayesian estimation of precision matrices parameterized as sums of
Kronecker products of Cholesky factors: data-driven prior centering, one
structured log posterior with analytic gradients (the static model is its
one-block case, the seasonal model adds blocks linked by transition
matrices), and a self-contained Hamiltonian Monte Carlo sampler.
"""

from .cholgeom import (NotPositiveDefiniteError, cholesky, frechet_mean_log_cholesky,
                       frechet_mean_log_euclidean, geodesic_between,
                       log_cholesky_distance, log_det_dagger_general)
from .dynamic import (SDLayout, SDParams, SeasonSchedule, StochasticMatrix,
                      sd_log_posterior_grad, stochastic_from_gammas)
from .hmc import Chain, Diagnostics, HMCConfig, diagnostics, hmc_sample, leapfrog
from .hyper import (PriorTargets, SolvedHyper, diag_prior_rate, digamma,
                    prior_targets_from_sample, solve_a, solve_beta, solve_hyper)
from .kron import PVLDecomp, kron, pvl_decompose, vanloan_rearrange, vanloan_unrearrange
from .model import (DataSummary, SCKPDParams, StateLayout, assemble_ldagger,
                    log_likelihood, log_posterior_grad, log_prior, omega_trajectory,
                    trace_quadratic)

__version__ = "0.1.0"
