"""Bayesian estimation of precision matrices parameterized as sums of
Kronecker products of Cholesky factors, for zero-mean rows: data-driven
prior centering from the Cholesky factor of the sample covariance (the
first block's scatter over its row count n), one structured log posterior
with analytic gradients (the static model is its one-block case, the
seasonal model adds blocks linked by one transition matrix), a
self-contained Hamiltonian Monte Carlo sampler, and one simulate/fit
harness for both kinds of run.
"""

__version__ = "0.1.0"
