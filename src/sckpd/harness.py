"""Batch front door: simulate the reference data-generating processes,
ingest CSV observation matrices, run inference from a declarative config,
and emit draws tables plus summary/ground-truth JSON that share one schema
so results can be joined mechanically.

A static run is the one-block case of a seasonal run, so one simulator,
one fit and one draws table serve both: the block count alone decides
whether a simulation draws a transition, and a 1x1 seasonal run draws the
static run's data.  ``_blocks`` names the blocks (CSV file and column tag)
of either kind, and ``_stat_columns`` /
``_stat_values`` name and compute the statistics that ``truth.json`` and
``draws.csv`` share.

Every table is CSV in one format: ``_read_table`` reads data files and
draws tables alike, and its docstring states the format; ``write_csv_matrix``
writes every table, in the form that reader reads back bit for bit.

The draws table is the one source of the report: ``_table_report`` computes
the statistics, the per-chain sampler figures, the flags and the
convergence warnings from it, for ``fit`` on the table it has just written
and for ``summarize_draws`` on the table read back, so both report the same.

RNG stream layout (Philox, counter based): key word 0 is the user seed,
word 1 selects the stream: chain c samples on (seed, c), chain inits draw
on (seed, 20000 + c), data simulation on (seed, 10000).  A key word is 64
bits, so a seed is an integer in [0, 2**64); ``RunConfig`` refuses any
other, which would alias one in the range.

Imports: every run is its own process and pays its imports, which at the
paper sizes cost as much as the sampling.  The package needs numpy and the
standard library only; ``yaml`` and the process pool are imported inside
the functions that read a config file or run chains in parallel.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import hmc
from . import model as mdl
from .hmc import Chain, HMCConfig, hmc_sample
from .hyper import PriorTargets, SolvedHyper, prior_targets_from_sample, solve_hyper

SIM_STREAM = 10_000
INIT_STREAM = 20_000
# the Dirichlet concentration of each column of a seasonal simulation's
# transition; a small value makes the columns near one-hot
SIM_TRANSITION_ALPHA = 0.05
# the variance scale of the simulated lowers: component k's strict-lower
# entries are N(0, omega_k * SIM_LOWER_VARIANCE)
SIM_LOWER_VARIANCE = 2.0

# The scatter Y^T Y is positive semidefinite, so its Frobenius norm is at
# most its trace, the sum of the squared fields; below sqrt(float max) the
# scatter, its norm and its Cholesky factor's energies stay finite.
MAX_SUM_SQUARES = math.sqrt(sys.float_info.max)

MODES = ("simulate-static", "simulate-dynamic", "fit-static", "fit-dynamic")

# The draws table's leading columns; every later one is a summarized statistic.
_BOOKKEEPING = ("chain", "draw", "accept", "divergent", "energy")

# A statistic warns at split R-hat >= RHAT_WARN or an ESS below
# ESS_WARN_PER_CHAIN per chain (Vehtari et al. 2021, arXiv:1903.08008), a
# chain at an E-BFMI below E_BFMI_WARN (Betancourt 2016, arXiv:1604.00695).
RHAT_WARN = 1.01
ESS_WARN_PER_CHAIN = 100
E_BFMI_WARN = 0.3

# Reference simulation designs.  The two Wishart scale vectors have lengths
# 5 and 4 while the design uses d1 = 4, d2 = 5, so the length-4 vector
# attaches to mode 1 and the length-5 vector to mode 2; the assignment is
# recorded in every ground-truth file so it can be audited.
_SCALE_LEN5 = (0.75, 1.0, 0.2, 0.3, 0.1)
_SCALE_LEN4 = (1.0, 0.4, 0.3, 0.2)

PRESETS: dict[str, dict] = {
    "paper-static": dict(
        d1=4, d2=5, n_truth_components=5, n_components=5, n_obs=500,
        omega_weights=(1.0, 4.0, 6.0, 7.0, 9.0),
        wishart_scale1=_SCALE_LEN4, wishart_scale2=_SCALE_LEN5),
    "paper-separable": dict(
        d1=4, d2=5, n_truth_components=1, n_components=5, n_obs=500,
        omega_weights=(1.0,),
        wishart_scale1=_SCALE_LEN4, wishart_scale2=_SCALE_LEN5),
    "paper-dynamic": dict(
        d1=5, d2=2, n_truth_components=5, n_components=5, n_obs=500,
        n_seasons=4, n_cycles=3,
        omega_weights=(1.0, 4.0, 6.0, 7.0, 9.0),
        wishart_scale1=_SCALE_LEN5, wishart_scale2=(1.0, 0.4)),
}


@dataclass(frozen=True)
class RunConfig:
    """Declarative run description, valid by construction: a field value out
    of its range raises ValueError naming the field, and a built config is
    not changed.  A config file holds top-level keys only, and they mirror
    the field names; any other key is refused."""

    mode: str
    d1: int = 4
    d2: int = 5
    n_components: int = 5          # components the model fits with
    n_truth_components: int | None = None   # components simulated; None: n_components
    n_obs: int = 500               # observations per block
    n_seasons: int = 1
    n_cycles: int = 1
    seed: int = 0                  # in [0, 2**64), the Philox key's first word
    input_path: str | None = None
    output_dir: str = "out"
    # simulation design, all finite: weights >= 0 with a positive sum,
    # Wishart scales > 0
    omega_weights: tuple = (1.0, 4.0, 6.0, 7.0, 9.0)
    wishart_scale1: tuple | None = None
    wishart_scale2: tuple | None = None
    # sampler; a fit starts from hmc.INITIAL_STEP, adapts it toward
    # hmc.TARGET_ACCEPT, estimates the mass at the warmup midpoint when
    # n_warmup >= 40; the transition gammas' Gamma(1, 1) prior is fixed
    n_chains: int = 4
    n_warmup: int = 800
    n_draws: int = 1000
    n_leapfrog: int = 32

    @classmethod
    def from_dict(cls, raw: dict, family: str | None = None) -> "RunConfig":
        """The config a mapping describes, from config-file values or flag
        strings alike.  The ``preset`` key names a preset whose values the
        other keys override; an optional field's None reads as unset.
        Without a mode, ``family`` gives its seasonal mode when the typed
        block count is above 1, else its static one."""
        preset = raw.get("preset")
        if preset is not None and not (isinstance(preset, str) and preset in PRESETS):
            raise ValueError(f"unknown preset '{preset}'; choose from {sorted(PRESETS)}")
        fields = cls.__dataclass_fields__
        unknown = set(raw) - set(fields) - {"preset"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        given = {key: _typed(key, value, fields[key].type)
                 for key, value in raw.items() if key != "preset"}
        typed = {**PRESETS.get(preset, {}), **{k: v for k, v in given.items() if v is not None}}
        if "mode" not in typed and family is not None:
            blocks = typed.get("n_seasons", 1) * typed.get("n_cycles", 1)
            typed["mode"] = f"{family}-{'dynamic' if blocks > 1 else 'static'}"
        return cls(**typed)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got '{self.mode}'")
        if min(self.d1, self.d2) < 2:
            raise ValueError("both mode dimensions must be at least 2")
        if self.n_components < 1 or self.n_obs < 1:
            raise ValueError("component and observation counts must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        for key in ("n_seasons", "n_cycles"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.mode.endswith("static") and self.n_seasons * self.n_cycles > 1:
            raise ValueError(f"mode '{self.mode}' runs one block, not n_seasons = "
                             f"{self.n_seasons} x n_cycles = {self.n_cycles}")
        if self.n_truth_components is not None and self.n_truth_components < 1:
            raise ValueError(f"n_truth_components must be at least 1 or unset, "
                             f"got {self.n_truth_components}")
        if not (all(0 <= w < math.inf for w in self.omega_weights)
                and sum(self.omega_weights) > 0):
            raise ValueError(f"omega_weights must be finite and nonnegative with a positive "
                             f"sum, got {list(self.omega_weights)}")
        for key in ("wishart_scale1", "wishart_scale2"):
            scale = getattr(self, key)
            if scale is not None and not all(0 < v < math.inf for v in scale):
                raise ValueError(f"{key} entries must be finite and positive, got {list(scale)}")
        if self.mode.startswith("fit") and self.input_path is None:
            raise ValueError(f"mode '{self.mode}' requires input_path")
        if self.n_chains < 1 or self.n_leapfrog < 1:
            raise ValueError("n_chains and n_leapfrog must be at least 1")
        if self.n_draws < 4:
            raise ValueError("n_draws must be at least 4: split R-hat halves each chain "
                             "and needs 2 draws in each half")
        if self.n_warmup < 0:
            raise ValueError("n_warmup must be nonnegative")


_TYPE_NAMES = {"int": "an integer", "float": "a number", "str": "a string",
               "tuple": "a list of numbers"}


def _typed(key: str, value, annotation: str):
    """A config value as the type its :class:`RunConfig` field is annotated
    with (a number may be written as a string), or a ValueError naming the
    field.  An integer field takes 8.0 and "8.0" as 8 and refuses a
    fractional or non-finite number, however written; no field is a bool,
    so true and false are refused everywhere; each list entry is typed as a
    float field's value is, and None is taken only by a field annotated
    ``| None``."""
    kind = annotation.split(" |")[0]
    if value is None and annotation.endswith("| None"):
        return None
    try:
        if kind == "tuple":
            if not isinstance(value, (list, tuple)):
                raise TypeError
            return tuple(_typed(key, v, "float") for v in value)
        if isinstance(value, bool):
            raise TypeError
        if kind == "int":
            number = value
            if isinstance(value, str):
                try:
                    return int(value)
                except ValueError:   # "8.0" is read as 8.0 is
                    number = float(value)
            if isinstance(number, float) and not number.is_integer():
                raise ValueError
            return int(number)
        if kind == "float":
            return float(value)
        if not isinstance(value, str):
            raise TypeError
        return value
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}") from None


def read_config_file(path: str | Path) -> dict:
    """The key/value mapping a YAML config file holds; an empty file is {}."""
    import yaml
    with open(path) as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a key/value mapping")
    return raw


def _blocks(config: RunConfig) -> list[tuple[str, str]]:
    """(column tag, CSV name) of every block in time order: one untagged
    data.csv for a static run, one per (cycle, season) for a seasonal run,
    season fastest."""
    if not config.mode.endswith("dynamic"):
        return [("", "data.csv")]
    return [(f"_c{c}_s{s}", f"data_c{c}_s{s}.csv")
            for c in range(1, config.n_cycles + 1) for s in range(1, config.n_seasons + 1)]


def _wishart_scales(config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    def pick(key, d_key):
        scale, d = getattr(config, key), getattr(config, d_key)
        if scale is not None:
            scale = np.asarray(scale, dtype=float)
            if scale.shape != (d,):
                raise ValueError(f"{key} has {scale.size} entries; {d_key} = {d} needs {d}")
            return scale
        for ref in (_SCALE_LEN5, _SCALE_LEN4):
            if len(ref) == d:
                return np.asarray(ref)
        return np.full(d, 0.5)
    return pick("wishart_scale1", "d1"), pick("wishart_scale2", "d2")


def _draw_diagonals(rng, d: int, scale: np.ndarray) -> np.ndarray:
    """The diagonal of a Wishart(d + 2, diag(scale)) draw, made as scipy.stats.wishart does."""
    A = np.zeros((d, d))
    A[np.tril_indices(d, -1)] = rng.normal(size=d * (d - 1) // 2)
    chi = [rng.chisquare(d + 2 - i, size=1) ** 0.5 for i in range(d)]
    A[np.diag_indices(d)] = np.concatenate(chi)
    CA = np.dot(np.diag(np.sqrt(scale)), A)
    return np.diagonal(np.dot(CA, CA.T)).copy()


def _draw_lowers(rng, K: int, d: int, variances: np.ndarray) -> np.ndarray:
    tril = np.tril_indices(d, -1)
    out = np.zeros((K, d, d))
    for i in range(K):
        out[i][tril] = rng.normal(0.0, math.sqrt(variances[i]), size=len(tril[0]))
    return out


def _observations(rng, L: np.ndarray, n: int) -> np.ndarray:
    """Draw n rows of N(0, (L L^T)^{-1}) by a solve against L^T."""
    Z = rng.standard_normal(size=(L.shape[0], n))
    return np.linalg.solve(L.T, Z).T


def _stat_columns(config: RunConfig, K: int) -> list[str]:
    """Names of the statistics of a factor over the run's blocks: the log
    det and diagonal energy every block shares, then each block's sorted
    weights and strict-lower energy under the block's column tag."""
    columns = ["logdet_factor", "fro2_diag"]
    for tag, _ in _blocks(config):
        columns += [f"omega{tag}_sorted_{k + 1}" for k in range(K)] + [f"fro2_lower{tag}"]
    return columns


def _stat_values(D1: np.ndarray, D2: np.ndarray, omegas: np.ndarray,
                 members1: np.ndarray, members2: np.ndarray) -> np.ndarray:
    """The statistics named by :func:`_stat_columns`, in closed form, from
    the shared diagonals, the (T, K) block weights and the blocks' (T, K+1,
    d, d) member stacks."""
    diag = [mdl.log_det_ldagger(D1, D2), float(np.sum(D1 ** 2) * np.sum(D2 ** 2))]
    ranked = np.sort(omegas, axis=1)[:, ::-1]
    return np.concatenate([diag, np.column_stack(
        [ranked, mdl.lower_energies(members1, members2)]).ravel()])


def write_csv_matrix(path: Path, Y: np.ndarray, header: list[str] | None = None) -> None:
    """Write ``Y`` under ``header`` as CRLF records of 17-digit values, which
    :func:`_read_table` reads back bit for bit."""
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, Y, fmt="%.17g", delimiter=",", newline="\r\n",
                   header=",".join(header or []), comments="")


def ingest_csv(path: str | Path, d1: int, d2: int) -> np.ndarray:
    """The observation rows of a CSV file in :func:`_read_table`'s format as
    an (n, d1*d2) array, as they are written; a file without rows is
    refused.  The model's rows have mean zero, so no mean is subtracted."""
    _, Y = _read_table(path, d1 * d2)
    if Y.shape[0] == 0:
        raise ValueError(f"{path}: no observation rows found")
    return Y


def _read_table(path: str | Path,
                width: int | None = None) -> tuple[list[str] | None, np.ndarray]:
    """The header (or None) and the (rows, width) array of a CSV table.

    This is the one CSV format every file the CLI reads is held to, data
    files and draws tables alike:

    - each record holds comma-separated numbers as Python's ``float`` reads
      them, which may be space-padded or quoted;
    - record 1 is a header, and not a row, when none of its fields is a
      number;
    - empty and whitespace-only lines are skipped;
    - lines may end in LF, CRLF or CR;
    - every row has ``width`` fields, or with ``width`` None as many as the
      header (as the first row when there is no header);
    - every field is finite, and the squared fields sum below
      ``MAX_SUM_SQUARES``, so the sample covariance stays finite.

    Input that breaks a rule raises ValueError naming the file, the first
    line and field at fault, and the field's column under a header.  Clean
    input takes one ``np.loadtxt`` pass; :func:`_scan_table` reads the rest.
    """
    with open(path, newline="") as fh:
        # record 1 as the scanner reads it, so a header is skipped alike
        first = next(csv.reader(fh), [])
        header = first if first and all(_number(f) is None for f in first) else None
        if header is None:
            fh.seek(0)
        try:
            with warnings.catch_warnings():
                # a table without rows is for the caller to refuse
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            rows = None
    # every row as wide as the caller asks, the header, or else the first row
    if (rows is not None and rows.shape[1] == (width or len(header or ()) or rows.shape[1])
            and _sum_squares(rows) < MAX_SUM_SQUARES):
        return header, rows
    return header, _scan_table(path, header, width)


def _number(field: str) -> float | None:
    """A CSV field as Python's ``float`` reads it, or None if it is not a number."""
    try:
        return float(field)
    except ValueError:
        return None


def _sum_squares(Y: np.ndarray) -> float:
    """The sum of the squared fields: inf or NaN when a field is, so
    ``< MAX_SUM_SQUARES`` also checks that every field is finite."""
    with np.errstate(over="ignore"):
        return float(np.vdot(Y, Y))


def _scan_table(path: str | Path, header: list[str] | None, width: int | None) -> np.ndarray:
    """Read the rows of :func:`_read_table`'s format record by record with
    ``csv.reader``: the rows, or a ValueError naming the first line and
    field at fault."""
    if width:
        label = f"d1*d2 = {width} fields"
    elif header:
        width, label = len(header), f"{len(header)} fields as in the header"
    rows: list[list[float]] = []
    linenos: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for n, rec in enumerate(reader):
            lineno = reader.line_num   # a record's last line: a quoted field may hold a newline
            if (not rec or (len(rec) == 1 and not rec[0].strip())
                    or (n == 0 and header is not None)):
                continue
            values = [_number(field) for field in rec]
            if None in values:
                k = values.index(None)
                name = f" ({header[k]})" if header and k < len(header) else ""
                raise ValueError(
                    f"{path}: line {lineno}: field {k + 1}{name} is not numeric: {rec[k]!r}")
            if width is None:   # no header: every row as wide as the first
                width, label = len(values), f"{len(values)} fields as in line {lineno}"
            if len(values) != width:
                raise ValueError(f"{path}: line {lineno}: expected {label}, got {len(values)}")
            rows.append(values)
            linenos.append(lineno)
    Y = np.asarray(rows, dtype=float).reshape(len(rows), width or 0)
    non_finite = np.argwhere(~np.isfinite(Y))
    if len(non_finite):
        r, k = non_finite[0]
        raise ValueError(f"{path}: line {linenos[r]}: field {k + 1} is not finite: {Y[r, k]}")
    sum_squares = _sum_squares(Y)
    if not sum_squares < MAX_SUM_SQUARES:
        r, k = np.unravel_index(np.argmax(np.abs(Y)), Y.shape)
        raise ValueError(
            f"{path}: line {linenos[r]}: field {k + 1} is too large: {float(Y[r, k])}; "
            f"the squared fields sum to {sum_squares:.3g}, beyond the "
            f"{MAX_SUM_SQUARES:.3g} at which the sample covariance stays finite: "
            f"rescale the values of column {k + 1}")
    return Y


def strict_json(payload: dict) -> str:
    """``payload`` as indented strict JSON with sorted keys: a NaN or
    infinite value raises ValueError rather than give a bare NaN token."""
    return json.dumps(payload, indent=2, sort_keys=True, default=float, allow_nan=False)


def simulate(config: RunConfig) -> tuple[list[np.ndarray], dict]:
    """Draw one dataset, one observation matrix per block, plus its
    ground-truth record.

    The first block is at the configured weights.  A run of more than one
    block first draws a column-stochastic transition, each column from
    Dirichlet(SIM_TRANSITION_ALPHA), and moves the weights through it block
    by block; a run of one block draws no transition, so a 1x1 seasonal run
    draws the static run's data.  The diagonals are scaled Wishart
    diagonals shared by every block; each block draws its lowers from the
    component priors at its weights and SIM_LOWER_VARIANCE, then its
    observations from the assembled precision factor.  Writes the block
    CSVs and truth.json under the output directory.
    """
    if not config.mode.startswith("simulate"):
        raise ValueError(f"simulate() does not handle mode '{config.mode}'")
    rng = hmc.philox_rng(config.seed, SIM_STREAM)
    K = config.n_components if config.n_truth_components is None else config.n_truth_components
    omega = np.asarray(config.omega_weights, dtype=float)
    if omega.shape != (K,):
        raise ValueError(f"omega_weights has {omega.size} entries; "
                         f"{K} simulated components need {K}")
    omega = omega / omega.sum()
    blocks = _blocks(config)
    A = None if len(blocks) == 1 else np.stack(
        [rng.dirichlet(np.full(K, SIM_TRANSITION_ALPHA)) for _ in range(K)], axis=1)
    scale1, scale2 = _wishart_scales(config)
    D1 = _draw_diagonals(rng, config.d1, scale1)
    D2 = _draw_diagonals(rng, config.d2, scale2)
    omegas = mdl.omega_trajectory(omega, A, len(blocks))

    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    header = [f"y{j + 1}" for j in range(config.d1 * config.d2)]
    Ys, lows1, lows2 = [], [], []
    for t, (_, name) in enumerate(blocks):
        variances = omegas[t] * SIM_LOWER_VARIANCE
        lows1.append(_draw_lowers(rng, K, config.d1, variances))
        lows2.append(_draw_lowers(rng, K, config.d2, variances))
        params = mdl.SCKPDParams(lowers1=lows1[t], lowers2=lows2[t], d1_diag=D1, d2_diag=D2,
                                 omega=omegas[t], theta=0.5)
        Y = _observations(rng, mdl.assemble_ldagger(params), config.n_obs)
        Ys.append(Y)
        write_csv_matrix(outdir / name, Y, header)
    values = _stat_values(D1, D2, omegas, mdl._members(np.stack(lows1), D1),
                          mdl._members(np.stack(lows2), D2))
    stats = dict(zip(_stat_columns(config, K), values.tolist()))

    truth = {
        "mode": config.mode,
        "d1": config.d1, "d2": config.d2,
        "n_truth_components": K, "n_obs": config.n_obs,
        "seed": config.seed,
        "lower_variance": SIM_LOWER_VARIANCE,
        "d1_diag": D1.tolist(), "d2_diag": D2.tolist(),
        "wishart": {
            "df1": config.d1 + 2, "df2": config.d2 + 2,
            "scale_mode1": scale1.tolist(), "scale_mode2": scale2.tolist(),
            "note": "each scale vector is assigned to the mode whose dimension "
                    "matches its length",
        },
        "stats": stats,
    }
    if A is None:
        truth["omega"] = omega.tolist()
    else:
        truth.update(n_seasons=config.n_seasons, n_cycles=config.n_cycles,
                     omega1=omega.tolist(), transition_matrix=A.tolist(),
                     transition="sample",
                     sim_transition_alpha=SIM_TRANSITION_ALPHA)
    (outdir / "truth.json").write_text(strict_json(truth) + "\n")
    return Ys, truth


# ---------------------------------------------------------------------------
# fitting

def _n_threads() -> int:
    n = _typed("SCKPD_THREADS", os.environ.get("SCKPD_THREADS", "1"), "int")
    if n < 1:
        raise ValueError(f"SCKPD_THREADS must be at least 1, got {n}")
    return n


def _draw_init(seed: int, chain: int, size: int) -> np.ndarray:
    """Uniform(-2, 2) inits on the chain's own stream.  Each is in the
    posterior's support: :func:`_read_blocks` refuses a lower variance of 0,
    and ``hmc_sample`` checks the value at the start."""
    return hmc.philox_rng(seed, INIT_STREAM + chain).uniform(-2.0, 2.0, size=size)


def _quantiles(rows: np.ndarray, probs) -> np.ndarray:
    """The ``probs`` quantiles of every row of a (m, n) array, as (len(probs),
    m): numpy's default linear rule, with np.quantile's bits.  The value at
    the virtual index h = p (n - 1) interpolates the sorted row's entries a
    at floor(h) and b after it, as a + (b - a) t below t = h - floor(h) = 0.5
    and as b - (b - a)(1 - t) from there.  One sort per row, and no import
    of numpy.ma, which np.quantile loads."""
    n = rows.shape[1]
    virtual = (n - 1) * np.asarray(probs, dtype=float)
    below = np.floor(virtual)
    t = (virtual - below)[:, None]
    ordered = np.sort(rows, axis=1)
    lo = below.astype(np.intp)
    a, b = ordered[:, lo].T, ordered[:, np.minimum(lo + 1, n - 1)].T
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _read_blocks(config: RunConfig):
    """The data summary of a fit's blocks, with the prior targets and solved
    hyperparameters of the first, as ``fit`` and ``check_hyper`` both read
    them.

    A static fit reads the one CSV file at ``input_path``, a seasonal fit
    the ``data_cC_sS.csv`` file of every block in the ``input_path``
    directory (see :func:`_blocks`).  Every path is checked before any is
    ingested, and every block is ingested before the targets are taken
    from the first block's sample covariance.  The rows have mean zero, so
    that covariance is the block's scatter over its row count n, with no
    mean estimated; the blocks' scatters are stacked into one summary.  A
    lower variance of 0, from a first block whose covariance factor has no
    strict-lower part, leaves the posterior no support and is refused."""
    if not config.mode.startswith("fit"):
        raise ValueError(f"mode '{config.mode}' reads no data; use 'fit-static' or 'fit-dynamic'")
    root, seasonal = Path(config.input_path), config.mode == "fit-dynamic"
    reads = f"mode '{config.mode}' reads " + (
        f"a directory of the data_cC_sS.csv files of its n_seasons = {config.n_seasons} x "
        f"n_cycles = {config.n_cycles} blocks" if seasonal else "one CSV file")
    if root.is_dir() != seasonal:
        raise ValueError(f"{reads}: {root} is {'not ' if seasonal else ''}a directory")
    paths = [root / name for _, name in _blocks(config)] if seasonal else [root]
    missing = next((path for path in paths if not path.is_file()), None)
    if missing is not None:
        raise ValueError(f"{reads}: there is no file {missing}")
    scatters, counts = [], []
    for path in paths:
        Y = ingest_csv(path, config.d1, config.d2)
        scatters.append(Y.T @ Y)
        counts.append(Y.shape[0])
    scatters, n = np.stack(scatters), counts[0]
    data = mdl.DataSummary.from_scatter(scatters, sum(counts), config.d1, config.d2)
    targets = prior_targets_from_sample(scatters[0] / n, config.d1, config.d2)
    hyper = solve_hyper(targets)
    if not hyper.lower_variance > 0:
        raise ValueError(
            f"{paths[0]}: the Cholesky factor of the sample covariance has no strict-lower "
            f"part (lower_energy = {targets.lower_energy:.3g}), so the lower prior variance "
            f"solves to 0 and the posterior has no support")
    return data, targets, hyper


def fit(config: RunConfig) -> dict:
    """Run the configured inference and write draws.csv plus summary.json.

    The data summary of every block, the prior targets and the
    hyperparameters come from :func:`_read_blocks`.  One layout over the
    summary's blocks (one for static) and one posterior of the summary
    serve every chain, and each chain starts from one Uniform(-2, 2) draw.
    The posterior's two requests are partials: the value request, made at
    each chain start and trajectory end, of the checked entry
    ``model.log_posterior_grad``, and the gradient request, made at each
    leapfrog step, of the unchecked ``model.log_posterior_core``, which
    runs inside ``hmc.leapfrog``'s error-state scope; the entry's checks
    hold for the whole fit once the layout is built from the summary.
    Chains run in a process pool when SCKPD_THREADS is set above 1, which
    pickles the partials.  Weights are
    sorted (descending) within each draw before any summarization.  The
    report is :func:`_table_report` of the draws table, as
    :func:`summarize_draws` gives it from draws.csv, plus the config, the
    adapted step sizes, the prior targets and hyperparameters, and the
    set-up warning ahead of the report's warnings.
    """
    data, targets, hyper = _read_blocks(config)
    workers = min(_n_threads(), config.n_chains)
    warnings = []
    if hyper.degenerate:
        warnings.append("a diagonal shape target fell in the degenerate c <= 1 regime; "
                        "the shape was solved at the clamped target instead")

    layout = mdl.StateLayout(config.d1, config.d2, config.n_components, len(data.scatters))
    value_fn = partial(mdl.log_posterior_grad, layout=layout, data=data, hyper=hyper,
                       targets=targets, want="value")
    grad_fn = partial(mdl.log_posterior_core, layout=layout, data=data, hyper=hyper,
                      want="grad")
    hconfs = [HMCConfig(n_leapfrog=config.n_leapfrog, n_warmup=config.n_warmup,
                        n_draws=config.n_draws, seed=config.seed, chain_index=c,
                        init=_draw_init(config.seed, c, layout.size))
              for c in range(config.n_chains)]
    value_fns, grad_fns = [value_fn] * config.n_chains, [grad_fn] * config.n_chains
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chains = list(pool.map(hmc_sample, value_fns, grad_fns, hconfs))
    else:
        chains = list(map(hmc_sample, value_fns, grad_fns, hconfs))

    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    table, columns = _draw_table(config, layout, chains)
    write_csv_matrix(outdir / "draws.csv", table, columns)

    report = _table_report(columns, table)
    summary = {
        "mode": config.mode,
        "d1": config.d1, "d2": config.d2,
        "n_components": config.n_components,
        "n_warmup": config.n_warmup, "seed": config.seed,
        "adapted_step_size": [c.adapted_step_size for c in chains],
        **_hyper_report(targets, hyper),
        **report,
        "warnings": warnings + report["warnings"],
    }
    if config.mode == "fit-dynamic":
        summary.update(n_seasons=config.n_seasons, n_cycles=config.n_cycles)
    (outdir / "summary.json").write_text(strict_json(summary) + "\n")
    return summary


def _draw_table(config: RunConfig, layout: mdl.StateLayout, chains: list[Chain]):
    """One row per draw: bookkeeping columns, theta, then the statistics of
    :func:`_stat_columns`.  Each draw is decoded once, and the energies of
    all its blocks come from one batched Gram product."""
    columns = [*_BOOKKEEPING, "theta", *_stat_columns(config, config.n_components)]
    nb = len(_BOOKKEEPING)
    table = np.empty((sum(len(chain.draws) for chain in chains), len(columns)))
    r = 0
    for ci, chain in enumerate(chains):
        n = len(chain.draws)
        table[r:r + n, :nb] = np.column_stack([np.full(n, ci), np.arange(n), chain.accept_flags,
                                               chain.divergence_flags, chain.energies])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for u in chain.draws:
                s = layout._decode(u, jacobian=False)
                table[r, nb] = s.theta
                table[r, nb + 1:] = _stat_values(s.d1_diag, s.d2_diag, s.omegas,
                                                 s.members1, s.members2)
                r += 1
    return table, columns


def _hyper_report(targets: PriorTargets, hyper: SolvedHyper) -> dict:
    """The prior targets and solved hyperparameters, as ``fit`` and
    ``check_hyper`` both report them."""
    return {"targets": asdict(targets),
            "hyper": {**asdict(hyper), "degenerate": hyper.degenerate}}


def _table_report(columns: list[str], table: np.ndarray) -> dict:
    """The report of a draws table whose ``chain`` column splits the rows
    into chains of equal length: ``n_chains`` and ``n_draws_per_chain``;
    ``stats``, the mean, sd, 2.5/50/97.5% quantiles, ESS and split R-hat of
    every statistic column; per chain in label order, ``acceptance_rate``
    and ``divergences`` from the ``accept`` and ``divergent`` columns and
    ``e_bfmi`` from ``energy``; ``diagnostic_flags``, ``identical-chains:i,j``
    for two chains whose rows are equal but for the label and
    ``no-accepted-proposals:c`` for a chain that accepted nothing; and
    ``warnings``, one for each statistic past the R-hat or ESS threshold
    (unless its every draw is the same number) and each chain below the
    E-BFMI threshold.

    E-BFMI = sum (E_n - E_{n-1})^2 / sum (E_n - mean E)^2 over the chain's
    energies; a chain whose energies are all equal gets 0.0.
    """
    chain = table[:, columns.index("chain")]
    labels = sorted(int(c) for c in set(chain.tolist()))   # np.unique loads numpy.ma
    C = len(labels)
    chains = table[np.argsort(chain, kind="stable")].reshape(C, -1, table.shape[1])
    accept, divergent, energy = (chains[:, :, columns.index(name)] for name in _BOOKKEEPING[2:])
    keep = [j for j, name in enumerate(columns) if name not in _BOOKKEEPING]
    values = chains[:, :, keep]
    # each column copied to a contiguous row, so every sum runs in the order
    # it would over the column alone
    rows = np.ascontiguousarray(values.reshape(-1, len(keep)).T)
    figures = np.vstack([rows.mean(axis=1), rows.std(axis=1, ddof=1),
                         _quantiles(rows, [0.025, 0.5, 0.975]),
                         hmc.effective_sample_size(values), hmc.split_rhat(values)])
    stats = {columns[k]: dict(zip(("mean", "sd", "q025", "q500", "q975", "ess", "rhat"), f))
             for k, f in zip(keep, figures.T.tolist())}
    warns = [f"statistic {name}: split R-hat {f['rhat']:.4g} (want < {RHAT_WARN}), ESS "
             f"{f['ess']:.4g} (want >= {ESS_WARN_PER_CHAIN * C})"
             for (name, f), row in zip(stats.items(), rows)
             if (f["rhat"] >= RHAT_WARN or f["ess"] < ESS_WARN_PER_CHAIN * C)
             and not np.all(row == row[0])]
    jumps = np.sum(np.diff(energy, axis=1) ** 2, axis=1)
    spread = np.sum((energy - energy.mean(axis=1, keepdims=True)) ** 2, axis=1)
    e_bfmi = np.divide(jumps, spread, out=np.zeros(C), where=spread > 0)
    warns += [f"chain {c}: E-BFMI {e:.3g} (want >= {E_BFMI_WARN})"
              for c, e in zip(labels, e_bfmi) if e < E_BFMI_WARN]
    acceptance = accept.mean(axis=1)
    rest = np.delete(chains, columns.index("chain"), axis=2)
    flags = [f"identical-chains:{labels[i]},{labels[j]}" for i in range(C)
             for j in range(i + 1, C) if np.array_equal(rest[i], rest[j])]
    flags += [f"no-accepted-proposals:{c}" for c, a in zip(labels, acceptance) if a == 0]
    return {"n_chains": C, "n_draws_per_chain": chains.shape[1], "stats": stats,
            "acceptance_rate": acceptance.tolist(),
            "divergences": [int(d) for d in divergent.sum(axis=1)],
            "e_bfmi": e_bfmi.tolist(), "diagnostic_flags": flags, "warnings": warns}


def check_hyper(config: RunConfig) -> dict:
    """Solve and report targets plus hyperparameters for a dataset, as a fit
    of it reports them in ``summary.json``.  The blocks are read as ``fit``
    reads them, so what ``fit`` refuses is refused here too."""
    _, targets, hyper = _read_blocks(config)
    return _hyper_report(targets, hyper)


def summarize_draws(draws_path: str | Path, truth_path: str | Path | None = None) -> dict:
    """The report of a draws table, as ``fit`` reports the table it writes
    (see :func:`_table_report` for the keys), optionally with the coverage
    of a ground-truth file's statistics joined in under ``coverage``.

    The table is in :func:`_read_table`'s format, with distinct column
    names, among them the bookkeeping columns ``chain``, ``draw``,
    ``accept``, ``divergent`` and ``energy``; the ``chain`` column holds whole
    numbers >= 0, and every chain has the same number of rows, at least 4.

    The data do not identify every column alike.  theta and the weights
    given the lowers enter only the prior, and the likelihood is invariant
    along a (K-1)^2 + 1-dimensional group of moves of the lowers, so the
    ``theta`` and ``omega*_sorted_*`` intervals mostly reflect the prior.
    """
    columns, table = _read_table(draws_path)
    if columns is None and table.size == 0:
        raise ValueError(f"{draws_path}: empty file, expected a header row")
    absent = next((name for name in _BOOKKEEPING if name not in (columns or ())), None)
    if absent is not None:
        raise ValueError(f"{draws_path}: line 1: header has no '{absent}' column")
    repeated = next((name for k, name in enumerate(columns) if name in columns[:k]), None)
    if repeated is not None:
        raise ValueError(f"{draws_path}: line 1: column '{repeated}' is named more than once")
    chain = table[:, columns.index("chain")]
    bad = np.flatnonzero((chain < 0) | (chain != np.floor(chain)))
    if bad.size:
        raise ValueError(f"{draws_path}: draw row {bad[0] + 1}: the 'chain' column holds "
                         f"{chain[bad[0]]:g}, not a whole number >= 0")
    labels = sorted(set(chain.tolist()))
    counts = [int(np.count_nonzero(chain == c)) for c in labels]
    if not (labels and min(counts) == max(counts) >= 4):
        found = ", ".join(f"{n} in chain {c:g}" for c, n in zip(labels, counts))
        raise ValueError(f"{draws_path}: every chain needs the same number of draw rows, "
                         f"at least 4 as fit's n_draws: split R-hat halves each chain and "
                         f"needs 2 draws in each half; found {found or 'no draw rows'}")
    out = _table_report(columns, table)
    if truth_path is not None:
        stats = out["stats"]
        out["coverage"] = {
            name: {"truth": value, "q025": stats[name]["q025"], "q975": stats[name]["q975"],
                   "covered": bool(stats[name]["q025"] <= value <= stats[name]["q975"])}
            for name, value in _truth_stats(truth_path).items() if name in stats}
    return out


def _truth_stats(path: str | Path) -> dict:
    """The ``stats`` of a ground-truth file: a JSON object whose ``stats``
    maps names to finite numbers.  NaN and Infinity read as their text, so
    they are refused, with their key, as any other value not a number."""
    with open(path) as fh:
        try:
            truth = json.load(fh, parse_constant=str)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    stats = truth.get("stats", {}) if isinstance(truth, dict) else None
    if not isinstance(stats, dict):
        raise ValueError(f"{path}: expected a JSON object whose key 'stats' maps "
                         f"statistic names to numbers")
    for name, value in stats.items():
        if type(value) not in (int, float) or not -math.inf < value < math.inf:
            raise ValueError(f"{path}: key 'stats.{name}' must be a finite number, "
                             f"got {value!r}")
    return stats
