"""Bayesian estimation of precision matrices parameterized as sums of
Kronecker products of Cholesky factors: data-driven prior centering from
the Cholesky factor of the sample covariance, one structured log posterior
with analytic gradients (the static model is its one-block case, the
seasonal model adds blocks linked by one transition matrix), a
self-contained Hamiltonian Monte Carlo sampler, and one simulate/fit
harness for both kinds of run.
"""

from .dynamic import SDLayout, SeasonSchedule, sd_log_posterior_grad
from .hmc import Chain, HMCConfig, diagnostics, hmc_sample, leapfrog
from .hyper import (NotPositiveDefiniteError, PriorTargets, SolvedHyper, cholesky,
                    diag_prior_rate, digamma, prior_targets_from_sample, solve_a,
                    solve_beta, solve_hyper)
from .model import (DataSummary, SCKPDParams, StateLayout, assemble_ldagger,
                    log_posterior_grad, log_prior, omega_trajectory, trace_quadratic,
                    vanloan_rearrange)

__version__ = "0.1.0"
