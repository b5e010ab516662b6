"""Bayesian estimation of precision matrices parameterized as sums of
Kronecker products of Cholesky factors: data-driven prior centering from
the Cholesky factor of the sample covariance, one structured log posterior
with analytic gradients (the static model is its one-block case, the
seasonal model adds blocks linked by one transition matrix), a
self-contained Hamiltonian Monte Carlo sampler, and one simulate/fit
harness for both kinds of run.
"""

__version__ = "0.1.0"
