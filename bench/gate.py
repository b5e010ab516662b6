"""Correctness gate of the benchmark.

Two kinds of check:

- the posterior at a workload's size, at a fixed state drawn from the
  workload seed: its value against a dense oracle (static workloads) and its
  gradient against a central finite-difference directional derivative (all
  workloads);
- the outputs of every fit: ``draws.csv`` and ``summary.json`` exist, every
  expected statistic column is there, and every statistic is finite.

The posterior is always looked up as a module attribute at call time
(``sckpd.model.log_posterior_grad``, ``sckpd.dynamic.sd_log_posterior_grad``),
so a wrapper bound there is what the gate checks.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sckpd.dynamic
import sckpd.harness
import sckpd.hyper
import sckpd.model

VALUE_RTOL = 1e-9       # as the dense-oracle tests of the package
GRAD_RTOL = 1e-5
FD_STEP = 1e-5          # along a unit direction in unconstrained coordinates
STATE_SD = 0.3          # spread of the fixed state around the origin
GATE_STREAM = 7         # second key word of the gate's generator


@dataclass
class Problem:
    """One workload's posterior, built from its CSVs with public calls."""

    kind: str                  # "static" | "dynamic"
    observations: list         # one (n, d1*d2) array per block
    data: object               # DataSummary or SeasonSchedule
    layout: object             # StateLayout or SDLayout
    targets: object
    hyper: object

    def posterior(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        if self.kind == "static":
            return sckpd.model.log_posterior_grad(u, self.layout, self.data,
                                                  self.hyper, self.targets)
        return sckpd.dynamic.sd_log_posterior_grad(u, self.layout, self.data,
                                                   self.hyper, self.targets)

    def first_block(self):
        return self.data if self.kind == "static" else self.data.blocks[0]


def load_problem(workload, data_dir: Path) -> Problem:
    d1, d2, K = workload.d1, workload.d2, workload.n_components
    Ys = [sckpd.harness.ingest_csv(data_dir / name, d1, d2)
          for name in workload.block_files()]
    summaries = [sckpd.model.DataSummary.from_observations(Y, d1, d2) for Y in Ys]
    first = Ys[0]
    targets = sckpd.hyper.prior_targets_from_sample(first.T @ first / first.shape[0],
                                                     d1, d2)
    hyper = sckpd.hyper.solve_hyper(targets)
    if workload.kind == "static":
        data, layout = summaries[0], sckpd.model.StateLayout(d1, d2, K)
    else:
        data = sckpd.dynamic.SeasonSchedule(n_seasons=workload.n_seasons,
                                            n_cycles=workload.n_cycles,
                                            blocks=tuple(summaries))
        layout = sckpd.dynamic.SDLayout(d1, d2, K, data.n_blocks)
    return Problem(workload.kind, Ys, data, layout, targets, hyper)


def fixed_state(problem: Problem, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A state near the origin and a unit direction, both from the seed."""
    rng = np.random.default_rng([seed, GATE_STREAM])
    u = rng.normal(0.0, STATE_SD, size=problem.layout.size)
    v = rng.standard_normal(problem.layout.size)
    return u, v / np.linalg.norm(v)


def dense_log_posterior(problem: Problem, u: np.ndarray) -> float:
    """n log det L - 1/2 ||Y L||_F^2 - 1/2 n d log 2 pi + log prior + log-Jacobian,
    with L the dense factor."""
    params, log_jac = problem.layout.decode(u)
    L = sckpd.model.assemble_ldagger(params)
    Y = problem.observations[0]
    n, d = Y.shape
    return (n * float(np.sum(np.log(np.diagonal(L))))
            - 0.5 * float(np.sum((Y @ L) ** 2))
            - 0.5 * n * d * math.log(2.0 * math.pi)
            + sckpd.model.log_prior(params, problem.hyper, problem.targets)
            + log_jac)


def check_posterior(problem: Problem, seed: int) -> list[str]:
    """Failures of the posterior checks at the seed's fixed state."""
    failures = []
    u, v = fixed_state(problem, seed)
    value, grad = problem.posterior(u)
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        return [f"posterior is not finite at the fixed state (value {value})"]
    if problem.kind == "static":
        expected = dense_log_posterior(problem, u)
        if not math.isclose(value, expected, rel_tol=VALUE_RTOL):
            failures.append(f"posterior value {value!r} differs from the dense oracle "
                            f"{expected!r} beyond rtol {VALUE_RTOL}")
    up, _ = problem.posterior(u + FD_STEP * v)
    um, _ = problem.posterior(u - FD_STEP * v)
    fd = (up - um) / (2.0 * FD_STEP)
    analytic = float(grad @ v)
    if not math.isclose(analytic, fd, rel_tol=GRAD_RTOL):
        failures.append(f"directional derivative {analytic!r} differs from the central "
                        f"difference {fd!r} beyond rtol {GRAD_RTOL}")
    return failures


def check_fit_output(out_dir: Path, columns: list[str]) -> list[str]:
    """Failures of one fit's outputs; ``summary.json`` is read from disk."""
    draws, summary_path = out_dir / "draws.csv", out_dir / "summary.json"
    missing = [p.name for p in (draws, summary_path) if not p.is_file()]
    if missing:
        return [f"fit wrote no {' or '.join(missing)}"]
    with open(draws, newline="") as fh:
        header = next(csv.reader(fh), [])
    with open(summary_path) as fh:
        stats = json.load(fh).get("stats", {})
    failures = [f"statistic column {c} is missing" for c in columns
                if c not in header or c not in stats]
    for name, entry in stats.items():
        bad = [k for k, x in entry.items() if not math.isfinite(x)]
        if bad:
            failures.append(f"statistic {name} has non-finite {', '.join(bad)}")
    return failures
