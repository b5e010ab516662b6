import argparse
import json
import math
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
import yaml

from conftest import (column_summary_oracle, dense_factor_stats, draw_table_oracle,
                      e_bfmi_oracle, effective_sample_size_oracle, make_rng, random_params,
                      split_rhat_oracle)
from sckpd import cli, harness, hmc
from sckpd import model as mdl
from sckpd.harness import (PRESETS, RunConfig, _stat_columns, _stat_values, check_hyper, fit,
                           ingest_csv, read_config_file, simulate, strict_json, summarize_draws)
from sckpd.hmc import Chain
from sckpd.model import StateLayout, _members, assemble_ldagger


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


# ----- ingest -------------------------------------------------------------------

def test_ingest_basic(tmp_path):
    p = _write(tmp_path / "d.csv", "1,2,3,4,5,6\n7,8,9,10,11,12\n0,0,1,1,2,2\n")
    Y = ingest_csv(p, 3, 2)
    assert Y.shape == (3, 6)
    assert Y[1, 0] == 7.0


def test_ingest_skips_header(tmp_path):
    p = _write(tmp_path / "d.csv", "a,b,c,d,e,f\n1,2,3,4,5,6\n")
    Y = ingest_csv(p, 3, 2)
    assert Y.shape == (1, 6)


def test_ingest_rejects_malformed_first_row(tmp_path):
    # line 1 is a header only when none of its fields is a number
    p = _write(tmp_path / "d.csv", "1,2,oops,4,5,6\n1,2,3,4,5,6\n7,8,9,10,11,12\n")
    with pytest.raises(ValueError, match="line 1: field 3 is not numeric"):
        ingest_csv(p, 3, 2)


def test_ingest_width_mismatch_names_expectation(tmp_path):
    p = _write(tmp_path / "d.csv", "1,2,3,4,5,6\n1,2,3\n")
    with pytest.raises(ValueError, match=r"line 2.*d1\*d2 = 6"):
        ingest_csv(p, 3, 2)


def test_ingest_non_numeric_names_line(tmp_path):
    p = _write(tmp_path / "d.csv", "1,2,3,4,5,6\n1,2,oops,4,5,6\n")
    with pytest.raises(ValueError, match="line 2"):
        ingest_csv(p, 3, 2)


def test_ingest_rejects_non_finite_field(tmp_path):
    p = _write(tmp_path / "d.csv", "a,b,c,d,e,f\n1,2,3,4,5,6\n1,2,3,nan,5,6\n")
    with pytest.raises(ValueError, match="line 3: field 4 is not finite"):
        ingest_csv(p, 3, 2)


def _huge_value_csv(tmp_path: Path) -> Path:
    """60 rows of 3x2 data whose line 7, field 4 is 1e200: finite, but its
    square overflows the scatter."""
    rows = make_rng(43).normal(size=(60, 6))
    lines = [[f"{v:.17g}" for v in r] for r in rows]
    lines[6][3] = "1e200"
    return _write(tmp_path / "huge.csv", "".join(",".join(r) + "\n" for r in lines))


def test_huge_finite_value_fails_at_the_boundary(tmp_path):
    p = _huge_value_csv(tmp_path)
    cfg = RunConfig.from_dict(dict(mode="fit-static", d1=3, d2=2, n_components=2,
                                   input_path=str(p), output_dir=str(tmp_path / "fit"),
                                   n_chains=1, n_warmup=5, n_draws=4, n_leapfrog=2))
    message = r"huge\.csv: line 7: field 4 is too large: 1e\+200;.*rescale the values of column 4"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            fit(cfg)
        with pytest.raises(ValueError, match=message):
            check_hyper(cfg)
    assert not (tmp_path / "fit").exists()


# One reader serves every table: data files, whose rows have d1*d2 fields,
# and draws tables, whose rows are as wide as the header.  Its one-pass read
# and its record scanner must agree: on valid input they return the same
# array, and malformed input raises the scanner's message.  Every case runs
# with warnings as errors, so a warning that leaks from the one-pass read
# (np.loadtxt warns on input without rows) fails the test.

_ROWS = "1,2,3,4,5,6\n7,8.5,9,10,11,-12e-3\n0,0,1,1,2,2\n"

_VALID_CSV = {
    "no-header": _ROWS,
    "header": "y1,y2,y3,y4,y5,y6\n" + _ROWS,
    "crlf": ("y1,y2,y3,y4,y5,y6\n" + _ROWS).replace("\n", "\r\n"),
    "empty-lines": "\n\n" + _ROWS.replace("\n", "\n\n", 1) + "\n\n",
    "whitespace-line": _ROWS.replace("\n", "\n   \t\n", 1),
    "padded": " 1 ,2 , 3,4,5,6\n7,8.5,  9,10,11,-12e-3\n",
    "quoted": '"y1","y2",y3,y4,y5,y6\n"1",2,"3",4,5,6\n7,8.5,9,10,11,"-12e-3"\n',
    "underscore-digits": "1_0,2,3,4,5,6\n7,8,9,10,11,12\n",
    "crlf-empty-line": ("y1,y2,y3,y4,y5,y6\n" + _ROWS.replace("\n", "\n\n", 1)).replace(
        "\n", "\r\n"),
}


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory) -> Path:
    """A simulated 16x16 file of 2000 rows, as ``sckpd simulate`` writes it."""
    out = tmp_path_factory.mktemp("wide")
    simulate(RunConfig.from_dict(dict(mode="simulate-static", d1=16, d2=16, n_components=5,
                                      n_obs=2000, seed=3, output_dir=str(out))))
    return out / "data.csv"


@pytest.mark.parametrize("name", sorted(_VALID_CSV))
def test_ingest_matches_scanner_on_valid_input(tmp_path, name):
    # read as a data file (d1*d2 fields) and as a table as wide as its header
    p = tmp_path / "d.csv"
    p.write_bytes(_VALID_CSV[name].encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Y = ingest_csv(p, 3, 2)
        header, rows = harness._read_table(p)
        scanned = harness._scan_table(p, header, 6)
    assert np.array_equal(Y, scanned) and np.array_equal(rows, scanned)
    assert Y.shape[1] == 6 and Y.shape[0] >= 2
    assert header == (None if name in ("no-header", "empty-lines", "whitespace-line", "padded",
                                       "underscore-digits") else [f"y{j}" for j in range(1, 7)])


def test_ingest_matches_scanner_on_simulated_file(wide_csv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Y = ingest_csv(wide_csv, 16, 16)
        header, _ = harness._read_table(wide_csv)
        scanned = harness._scan_table(wide_csv, header, 256)
    assert Y.shape == (2000, 256)
    assert np.array_equal(Y, scanned)


_MALFORMED_CSV = {
    "empty": ("", "no observation rows found"),
    "header-only": ("y1,y2,y3,y4,y5,y6\n", "no observation rows found"),
    "non-numeric-line-1": ("1,2,oops,4,5,6\n" + _ROWS,
                           "line 1: field 3 is not numeric: 'oops'"),
    "non-numeric-later": (_ROWS + "1,2,3,4,x,6\n", "line 4: field 5 is not numeric: 'x'"),
    # a quoted field that holds a newline is one record over two lines
    "quoted-newline": ('"1\n",2,3,4,5,6\n1,2,x,4,5,6\n', "line 3: field 3 is not numeric: 'x'"),
    "width": ("1,2,3,4,5,6\n1,2,3\n", "line 2: expected d1*d2 = 6 fields, got 3"),
    "width-every-row": ("1,2,3\n4,5,6\n", "line 1: expected d1*d2 = 6 fields, got 3"),
    "nan": ("y1,y2,y3,y4,y5,y6\n1,2,3,4,5,6\n1,2,3,nan,5,6\n",
            "line 3: field 4 is not finite: nan"),
    "inf": (_ROWS + "1,-inf,3,4,5,6\n", "line 4: field 2 is not finite: -inf"),
    "huge": (_ROWS.replace("9,", "1e200,"),
             "line 2: field 3 is too large: 1e+200; the squared fields sum to inf, beyond "
             "the 1.34e+154 at which the sample covariance stays finite: "
             "rescale the values of column 3"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_CSV))
def test_ingest_raises_scanner_message_on_malformed_input(tmp_path, name):
    text, message = _MALFORMED_CSV[name]
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    header = text.splitlines()[0].split(",") if text.startswith("y1") else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as raised:
            ingest_csv(p, 3, 2)
        if message != "no observation rows found":   # ingest's own check, not the scanner's
            with pytest.raises(ValueError) as scanned:
                harness._scan_table(p, header, 6)
            assert str(scanned.value) == str(raised.value)
    assert str(raised.value) == f"{p}: {message}"


def _draws_table(tmp_path: Path) -> tuple[Path, list[str], np.ndarray]:
    """A draws table as a fit writes it: 2 chains of 25 rows."""
    rng = make_rng(40)
    columns = [*harness._BOOKKEEPING, "theta", "logdet_factor"]
    n = 50
    table = np.column_stack([np.repeat([0.0, 1.0], n // 2), np.tile(np.arange(n // 2), 2),
                             rng.integers(0, 2, n), np.zeros(n), rng.normal(40.0, 5.0, n),
                             rng.uniform(size=n), rng.normal(30.0, 1.0, n) * 1e-7])
    path = tmp_path / "draws.csv"
    harness.write_csv_matrix(path, table, columns)
    return path, columns, table


def _both_kinds(kind: str, tmp_path: Path, wide_csv: Path):
    """The path, header and rows of a clean table of the given kind, and the
    width a caller reads it at."""
    if kind == "data":
        return wide_csv, [f"y{j}" for j in range(1, 257)], ingest_csv(wide_csv, 16, 16), 256
    path, columns, table = _draws_table(tmp_path)
    return path, columns, table, None


def _rewrite(tmp_path: Path, clean: Path, edit) -> Path:
    """A copy of ``clean`` whose LF-separated lines are ``edit(lines)``."""
    out = tmp_path / f"edited-{clean.name}"
    out.write_bytes(("\n".join(edit(clean.read_text().splitlines())) + "\n").encode())
    return out


def test_clean_input_never_reaches_the_scanner(wide_csv, tmp_path, monkeypatch):
    kinds = [_both_kinds(kind, tmp_path, wide_csv) for kind in ("data", "draws")]

    def no_scan(path, header, width):
        raise AssertionError(f"{path} was read by the record scanner")

    monkeypatch.setattr(harness, "_scan_table", no_scan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for clean, header, expected, width in kinds:
            # the same rows with LF line endings and an empty line between two rows
            spaced = _rewrite(tmp_path, clean, lambda lines: lines[:5] + [""] + lines[5:])
            for path in (clean, spaced):
                got_header, rows = harness._read_table(path, width)
                assert got_header == header and np.array_equal(rows, expected)
            if width is None:   # a draws table: both copies summarize alike
                assert summarize_draws(clean) == summarize_draws(spaced)


@pytest.mark.parametrize("kind", ["data", "draws"])
def test_scanner_reads_what_loadtxt_rejects(kind, wide_csv, tmp_path, monkeypatch):
    # quoted fields and a whitespace-only line: np.loadtxt rejects the copy,
    # and the scanner reads it to the same rows
    clean, header, expected, width = _both_kinds(kind, tmp_path, wide_csv)
    odd = _rewrite(tmp_path, clean, lambda lines: (
        lines[:1] + [",".join(f'"{v}"' for v in line.split(",")) for line in lines[1:4]]
        + ["  \t "] + lines[4:]))
    scans = []
    scan = harness._scan_table
    monkeypatch.setattr(harness, "_scan_table", lambda *args: scans.append(args) or scan(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_header, rows = harness._read_table(odd, width)
        assert len(scans) == 1
        assert got_header == header and np.array_equal(rows, expected)
        if kind == "draws":
            assert summarize_draws(odd) == summarize_draws(clean)


@pytest.mark.parametrize("header", [None, ["a", "b", "c"]], ids=["no-header", "header"])
def test_write_csv_matrix_round_trip(tmp_path, header):
    # every value reads back bit for bit, the sign of -0.0 and subnormals
    # too, and the bytes are the 17-digit CRLF records of csv.writer
    table = np.array([[-0.0, 5e-324, 1.0 / 3.0],
                      [2.2250738585072014e-308 / 7, -1e70, 123456789.123456789],
                      [0.0, 1e-300, -2.5]])
    p = tmp_path / "t.csv"
    harness.write_csv_matrix(p, table, header)
    expected = "".join(",".join(f"{v:.17g}" for v in row) + "\r\n" for row in table)
    assert p.read_bytes() == ((",".join(header) + "\r\n" if header else "") + expected).encode()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_header, rows = harness._read_table(p)
    assert got_header == header
    assert rows.tobytes() == table.tobytes()


# ----- simulation ----------------------------------------------------------------

def test_simulate_static_round_trip_and_determinism(tmp_path):
    cfg = RunConfig.from_dict(dict(mode="simulate-static", preset="paper-static",
                                   seed=5, output_dir=str(tmp_path / "a")))
    (Y1,), truth1 = simulate(cfg)
    cfg2 = RunConfig.from_dict(dict(mode="simulate-static", preset="paper-static",
                                    seed=5, output_dir=str(tmp_path / "b")))
    (Y2,), truth2 = simulate(cfg2)
    assert np.array_equal(Y1, Y2)
    assert (tmp_path / "a" / "data.csv").read_bytes() == \
        (tmp_path / "b" / "data.csv").read_bytes()
    back = ingest_csv(tmp_path / "a" / "data.csv", 4, 5)
    assert np.array_equal(back, Y1)


def test_simulate_static_preset_values(tmp_path):
    cfg = RunConfig.from_dict(dict(mode="simulate-static", preset="paper-static",
                                   seed=0, output_dir=str(tmp_path)))
    assert (cfg.d1, cfg.d2) == (4, 5)
    assert cfg.n_obs == 500
    _, truth = simulate(cfg)
    assert truth["n_truth_components"] == 5
    expect = np.array([1.0, 4.0, 6.0, 7.0, 9.0]) / 27.0
    assert np.allclose(truth["omega"], expect)
    assert len(truth["wishart"]["scale_mode1"]) == 4
    assert len(truth["wishart"]["scale_mode2"]) == 5
    Y = ingest_csv(tmp_path / "data.csv", 4, 5)
    assert Y.shape == (500, 20)


def test_separable_preset_overspecifies_fit():
    cfg = RunConfig.from_dict(dict(mode="simulate-static", preset="paper-separable"))
    assert cfg.n_truth_components == 1
    assert cfg.n_components == 5
    assert cfg.omega_weights == (1.0,)


def test_simulate_dynamic_weights_stay_on_simplex(tmp_path):
    cfg = RunConfig.from_dict(dict(
        mode="simulate-dynamic", preset="paper-dynamic", n_obs=20,
        n_seasons=3, n_cycles=2, seed=3, output_dir=str(tmp_path)))
    _, truth = simulate(cfg)
    A = np.asarray(truth["transition_matrix"])
    assert np.allclose(A.sum(axis=0), 1.0, atol=1e-12)
    for c in (1, 2):
        for s in (1, 2, 3):
            w = [truth["stats"][f"omega_c{c}_s{s}_sorted_{k}"] for k in range(1, 6)]
            assert np.all(np.asarray(w) >= -1e-15)
            assert abs(sum(w) - 1.0) < 1e-10


def test_static_run_is_the_one_block_seasonal_run(tmp_path):
    # same data from simulate-static and a 1x1 simulate-dynamic, which draws
    # no transition, and the same draws from fit-static and a 1x1
    # fit-dynamic on them
    design = dict(d1=3, d2=2, n_truth_components=2, n_components=2,
                  omega_weights=(1.0, 3.0), n_obs=80, seed=6)
    simulate(RunConfig.from_dict(dict(design, mode="simulate-static",
                                      output_dir=str(tmp_path / "s"))))
    simulate(RunConfig.from_dict(dict(design, mode="simulate-dynamic", n_seasons=1,
                                      n_cycles=1, output_dir=str(tmp_path / "d"))))
    assert (tmp_path / "s" / "data.csv").read_bytes() == \
        (tmp_path / "d" / "data_c1_s1.csv").read_bytes()
    truth = json.loads((tmp_path / "d" / "truth.json").read_text())
    assert truth["omega"] == [0.25, 0.75] and "transition_matrix" not in truth
    fit_design = dict(d1=3, d2=2, n_components=2, seed=6, n_chains=1, n_warmup=20,
                      n_draws=10, n_leapfrog=4)
    fit(RunConfig.from_dict(dict(fit_design, mode="fit-static",
                                 input_path=str(tmp_path / "s" / "data.csv"),
                                 output_dir=str(tmp_path / "fs"))))
    fit(RunConfig.from_dict(dict(fit_design, mode="fit-dynamic", n_seasons=1, n_cycles=1,
                                 input_path=str(tmp_path / "d"),
                                 output_dir=str(tmp_path / "fd"))))
    static_rows = (tmp_path / "fs" / "draws.csv").read_text().splitlines()
    seasonal_rows = (tmp_path / "fd" / "draws.csv").read_text().splitlines()
    assert static_rows[0].replace("fro2_lower", "fro2_lower_c1_s1").replace(
        "omega_sorted", "omega_c1_s1_sorted") == seasonal_rows[0]
    assert static_rows[1:] == seasonal_rows[1:]


def test_simulator_draws_match_scipy_bit_for_bit():
    # the numpy Wishart diagonal and observation solve give scipy's bits from
    # the same Philox stream, and leave the stream where scipy leaves it, so
    # every later draw of a simulation stays the same
    for d in range(2, 17):
        for seed in range(4):
            scale = make_rng(seed).uniform(0.05, 3.0, size=d)
            ours, ref = hmc.philox_rng(seed, 7), hmc.philox_rng(seed, 7)
            diag = harness._draw_diagonals(ours, d, scale)
            W = scipy.stats.wishart.rvs(df=d + 2, scale=np.diag(scale), random_state=ref)
            assert np.array_equal(diag, np.diagonal(W)), (d, seed)
            assert ours.standard_normal() == ref.standard_normal(), (d, seed)
    for (d1, d2), K in (((2, 2), 1), ((3, 2), 2), ((4, 5), 5), ((5, 2), 5), ((8, 8), 3),
                        ((16, 16), 5)):
        for seed in range(3):
            L = assemble_ldagger(random_params(d1, d2, K, make_rng(seed)))
            ours, ref = hmc.philox_rng(seed, 8), hmc.philox_rng(seed, 8)
            Y = harness._observations(ours, L, 30)
            Z = ref.standard_normal(size=(d1 * d2, 30))
            assert np.array_equal(Y, scipy.linalg.solve_triangular(L.T, Z, lower=False).T), \
                (d1, d2, K, seed)


def test_factor_stats_match_dense_assembly():
    # the statistics truth.json and draws.csv share, on random states of one
    # to four blocks, against each block's dense factor; a log det sum is
    # compared relative to the sum of its terms' magnitudes
    rng = make_rng(40)
    for _ in range(100):
        d1, d2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        K, T = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        first = random_params(d1, d2, K, rng)
        blocks = [first] + [replace(random_params(d1, d2, K, rng), d1_diag=first.d1_diag,
                                    d2_diag=first.d2_diag) for _ in range(T - 1)]
        config = RunConfig.from_dict(dict(
            mode="simulate-static" if T == 1 else "simulate-dynamic", n_seasons=T, d1=d1, d2=d2))
        values = _stat_values(first.d1_diag, first.d2_diag, np.stack([p.omega for p in blocks]),
                              _members(np.stack([p.lowers1 for p in blocks]), first.d1_diag),
                              _members(np.stack([p.lowers2 for p in blocks]), first.d2_diag))
        stats = dict(zip(_stat_columns(config, K), values))
        assert len(stats) == len(values) == 2 + T * (K + 1)
        for (tag, _), p in zip(harness._blocks(config), blocks):
            dense = dense_factor_stats(p)
            log_terms = np.abs(np.log(np.outer(p.d1_diag, p.d2_diag))).sum()
            assert abs(stats["logdet_factor"] - dense["logdet_factor"]) <= 1e-12 * log_terms
            for name in ("fro2_diag", f"fro2_lower{tag}"):
                expect = dense[name.removesuffix(tag)]
                assert abs(stats[name] - expect) <= 1e-12 * expect
            assert [stats[f"omega{tag}_sorted_{k + 1}"] for k in range(K)] == \
                sorted(p.omega, reverse=True)


def test_draw_table_matches_per_block_oracle():
    # a 12-block 5x2, K=5 layout, as at the paper-dynamic preset
    cfg = RunConfig.from_dict(dict(mode="fit-dynamic", preset="paper-dynamic",
                                   input_path="unused", n_draws=30))
    layout = StateLayout(cfg.d1, cfg.d2, cfg.n_components, cfg.n_seasons * cfg.n_cycles)
    assert layout.n_blocks == 12
    rng = make_rng(44)
    chains = []
    for _ in range(2):
        n = cfg.n_draws
        chains.append(Chain(draws=rng.uniform(-2.0, 2.0, (n, layout.size)),
                            accept_flags=rng.random(n) < 0.7, energies=rng.normal(size=n),
                            divergence_flags=rng.random(n) < 0.1, adapted_step_size=0.1))
    table, columns = harness._draw_table(cfg, layout, chains)
    expected = draw_table_oracle(layout, chains)
    assert table.shape == expected.shape == (2 * cfg.n_draws, 8 + 12 * (cfg.n_components + 1))
    assert len(columns) == table.shape[1]
    assert np.all(np.abs(table - expected) <= 1e-12 * np.abs(expected))


# ----- fitting (smoke scale) -------------------------------------------------------

def _small_fit_config(tmp_path, seed=9):
    sim = RunConfig.from_dict(dict(
        mode="simulate-static", d1=3, d2=2, n_truth_components=2, n_components=2,
        omega_weights=(1.0, 3.0), n_obs=200, seed=seed,
        output_dir=str(tmp_path / "sim")))
    simulate(sim)
    return RunConfig.from_dict(dict(
        mode="fit-static", d1=3, d2=2, n_components=2,
        input_path=str(tmp_path / "sim" / "data.csv"),
        output_dir=str(tmp_path / "fit"), seed=seed,
        n_chains=2, n_warmup=150, n_draws=150, n_leapfrog=12))


def test_fit_static_smoke(tmp_path):
    summary = fit(_small_fit_config(tmp_path))
    stats = summary["stats"]
    assert "omega_sorted_1" in stats and "theta" in stats
    assert stats["omega_sorted_1"]["q025"] <= stats["omega_sorted_1"]["q500"] \
        <= stats["omega_sorted_1"]["q975"]
    assert (tmp_path / "fit" / "draws.csv").exists()
    assert (tmp_path / "fit" / "summary.json").exists()
    # draws table pairs with the summary schema: the truth has every fitted
    # statistic but theta, and each is covered or not
    truth = json.loads((tmp_path / "sim" / "truth.json").read_text())
    assert set(truth["stats"]) == set(stats) - {"theta"}
    re = summarize_draws(tmp_path / "fit" / "draws.csv",
                         tmp_path / "sim" / "truth.json")
    assert set(re["coverage"]) == set(truth["stats"])
    # sorted weights dominate componentwise
    assert stats["omega_sorted_1"]["q500"] >= stats["omega_sorted_2"]["q500"]


def test_fit_reproducible(tmp_path):
    cfg1 = _small_fit_config(tmp_path)
    s1 = fit(cfg1)
    out1 = (tmp_path / "fit" / "draws.csv").read_bytes()
    cfg2 = RunConfig.from_dict(dict(
        mode="fit-static", d1=3, d2=2, n_components=2,
        input_path=cfg1.input_path, output_dir=str(tmp_path / "fit2"),
        seed=cfg1.seed, n_chains=2, n_warmup=150, n_draws=150, n_leapfrog=12))
    s2 = fit(cfg2)
    out2 = (tmp_path / "fit2" / "draws.csv").read_bytes()
    assert out1 == out2
    assert s1["stats"] == s2["stats"]


def test_fit_without_warmup_samples_at_the_initial_step(tmp_path):
    cfg = _small_fit_config(tmp_path)
    summary = fit(RunConfig.from_dict({**cfg.__dict__, "n_warmup": 0, "n_draws": 10,
                                       "n_leapfrog": 4}))
    assert summary["adapted_step_size"] == [hmc.INITIAL_STEP] * cfg.n_chains
    rows = (tmp_path / "fit" / "draws.csv").read_text().splitlines()
    assert len(rows) == 1 + cfg.n_chains * 10


def _small_seasonal_fit_config(tmp_path, seed=11, **fit_knobs):
    simulate(RunConfig.from_dict(dict(
        mode="simulate-dynamic", d1=3, d2=2, n_truth_components=2, n_components=2,
        omega_weights=(1.0, 3.0), n_obs=120, n_seasons=2, n_cycles=1,
        seed=seed, output_dir=str(tmp_path / "sim"))))
    return RunConfig.from_dict(dict(dict(
        mode="fit-dynamic", d1=3, d2=2, n_components=2, n_seasons=2, n_cycles=1,
        input_path=str(tmp_path / "sim"), output_dir=str(tmp_path / "fit"),
        seed=seed, n_chains=2, n_warmup=120, n_draws=120, n_leapfrog=12), **fit_knobs))


def _assert_parallel_matches_sequential(tmp_path, monkeypatch, cfg):
    """The chains of a fit run in a process pool, which pickles the
    posterior, write the draws of the sequential fit."""
    fit(cfg)
    seq = (tmp_path / "fit" / "draws.csv").read_bytes()
    monkeypatch.setenv("SCKPD_THREADS", "2")
    fit(RunConfig.from_dict({**cfg.__dict__, "output_dir": str(tmp_path / "fitp")}))
    par = (tmp_path / "fitp" / "draws.csv").read_bytes()
    assert seq == par


def test_fit_parallel_chains_match_sequential(tmp_path, monkeypatch):
    _assert_parallel_matches_sequential(tmp_path, monkeypatch, _small_fit_config(tmp_path))


def test_fit_parallel_seasonal_chains_match_sequential(tmp_path, monkeypatch):
    cfg = _small_seasonal_fit_config(tmp_path, n_warmup=60, n_draws=60)
    _assert_parallel_matches_sequential(tmp_path, monkeypatch, cfg)


def test_fit_dynamic_smoke(tmp_path):
    summary = fit(_small_seasonal_fit_config(tmp_path))
    assert "omega_c1_s1_sorted_1" in summary["stats"]
    assert "omega_c1_s2_sorted_1" in summary["stats"]
    assert "fro2_lower_c1_s2" in summary["stats"]
    truth = json.loads((tmp_path / "sim" / "truth.json").read_text())
    assert set(truth["stats"]) == set(summary["stats"]) - {"theta"}
    re = summarize_draws(tmp_path / "fit" / "draws.csv", tmp_path / "sim" / "truth.json")
    assert set(re["coverage"]) == set(truth["stats"])
    # every per-draw weight row is a simplex point
    rows = (tmp_path / "fit" / "draws.csv").read_text().splitlines()
    header = rows[0].split(",")
    idx = [header.index(f"omega_c1_s2_sorted_{k}") for k in (1, 2)]
    for line in rows[1:]:
        vals = line.split(",")
        w = [float(vals[i]) for i in idx]
        assert abs(sum(w) - 1.0) < 1e-10


def _assert_summary_matches_oracles(cfg):
    """Fit, then check every statistic, acceptance rate and E-BFMI of
    summary.json against the per-column and per-chain oracles on the draws
    table it wrote, and that summarize_draws reports that table as the fit
    did: every report key equal, and the fit's warnings its set-up warning
    followed by summarize_draws' warnings."""
    summary = fit(cfg)
    draws = Path(cfg.output_dir) / "draws.csv"
    columns, table = harness._read_table(draws)
    n_chains, n_draws = summary["n_chains"], summary["n_draws_per_chain"]
    assert (n_chains, n_draws) == (cfg.n_chains, cfg.n_draws)
    per_chain = {name: table[:, columns.index(name)].reshape(n_chains, n_draws)
                 for name in columns}
    assert list(summary["stats"]) == columns[5:]
    for name, entry in summary["stats"].items():
        expected = column_summary_oracle(per_chain[name].ravel())
        expected["ess"] = effective_sample_size_oracle(per_chain[name])
        expected["rhat"] = split_rhat_oracle(per_chain[name])
        assert set(entry) == set(expected)
        for key, value in expected.items():
            assert entry[key] == pytest.approx(value, rel=1e-12, abs=0.0, nan_ok=True), (name, key)
    assert summary["acceptance_rate"] == [float(np.mean(a)) for a in per_chain["accept"]]
    assert summary["e_bfmi"] == pytest.approx([e_bfmi_oracle(e.tolist())
                                               for e in per_chain["energy"]], rel=1e-12)

    redone = summarize_draws(draws)
    for key in ("n_chains", "n_draws_per_chain", "stats", "acceptance_rate", "divergences",
                "e_bfmi", "diagnostic_flags"):
        assert redone[key] == summary[key], key
    setup = ["a diagonal shape target fell in the degenerate c <= 1 regime; the shape was "
             "solved at the clamped target instead"] if summary["hyper"]["degenerate"] else []
    assert summary["warnings"] == setup + redone["warnings"]
    return summary, redone


@pytest.mark.parametrize("n", [2, 3, 40, 41, 1000])
def test_quantiles_match_numpy_bit_for_bit(n):
    # numpy's linear rule from one sort per row, on rows with ties (rounded
    # draws and a constant row) and without them
    rng = np.random.default_rng(n)
    probs = [0.025, 0.5, 0.975]
    rows = np.vstack([rng.normal(size=(4, n)) * 10.0 ** rng.uniform(-6, 6, size=(4, 1)),
                      np.round(rng.normal(size=(3, n)), 1), rng.integers(0, 3, size=(2, n)),
                      np.full((1, n), 0.7)])
    assert harness._quantiles(rows, probs).tobytes() == np.quantile(rows, probs, axis=1).tobytes()


def test_summary_statistics_match_per_column_oracles_static(tmp_path):
    cfg = _small_fit_config(tmp_path)
    cfg = RunConfig.from_dict({**cfg.__dict__, "n_warmup": 40, "n_draws": 61, "n_leapfrog": 6})
    summary, _ = _assert_summary_matches_oracles(cfg)
    assert summary["n_chains"] == 2


@pytest.mark.parametrize("n_chains, n_warmup", [(3, 30), (1, 0)],
                         ids=["mixing", "never-accepts"])
def test_summary_statistics_match_per_column_oracles_seasonal(tmp_path, n_chains, n_warmup):
    # without warmup the one chain rejects every proposal: it is flagged, and
    # every statistic is constant, so none warns
    sim = RunConfig.from_dict(dict(
        mode="simulate-dynamic", d1=3, d2=2, n_truth_components=2, n_components=2,
        omega_weights=(1.0, 3.0), n_obs=80, n_seasons=3, n_cycles=1,
        seed=12, output_dir=str(tmp_path / "sim")))
    simulate(sim)
    cfg = RunConfig.from_dict(dict(
        mode="fit-dynamic", d1=3, d2=2, n_components=2, n_seasons=3, n_cycles=1,
        input_path=str(tmp_path / "sim"), output_dir=str(tmp_path / "fit"),
        seed=12, n_chains=n_chains, n_warmup=n_warmup, n_draws=40, n_leapfrog=4))
    summary, redone = _assert_summary_matches_oracles(cfg)
    assert "fro2_lower_c1_s3" in summary["stats"]
    assert summary["diagnostic_flags"] == (["no-accepted-proposals:0"] if n_warmup == 0 else [])
    if n_warmup == 0:
        assert redone["warnings"] == []


def _report(stat: np.ndarray, energy: np.ndarray | None = None) -> dict:
    """The table report of (C, N) draws of one statistic ``x``: every
    proposal accepted, none divergent, and iid energies unless given."""
    C, N = stat.shape
    energy = make_rng(45).normal(size=(C, N)) if energy is None else energy
    table = np.column_stack([np.repeat(np.arange(C), N), np.tile(np.arange(N), C),
                             np.ones(C * N), np.zeros(C * N), energy.ravel(), stat.ravel()])
    return harness._table_report([*harness._BOOKKEEPING, "x"], table)


@pytest.mark.parametrize("kind", ["iid", "shifted", "stuck", "constant"])
def test_convergence_warnings_name_the_statistic(kind):
    # a chain shifted by one sd moves split R-hat; two chains stuck at
    # different points read R-hat 1.0 by the zero within-split variance rule,
    # so only the ESS arm catches them; a statistic whose every draw is the
    # same number, as K = 1's weight, draws no warning
    rng = make_rng(46)
    stat = {"iid": lambda: rng.normal(size=(2, 1000)),
            "shifted": lambda: rng.normal(size=(2, 1000)) + [[0.0], [1.0]],
            "stuck": lambda: np.repeat([[0.0], [3.0]], 1000, axis=1),
            "constant": lambda: np.ones((2, 1000))}[kind]()
    report = _report(stat)
    entry = report["stats"]["x"]
    warned = [f"statistic x: split R-hat {entry['rhat']:.4g} (want < 1.01), "
              f"ESS {entry['ess']:.4g} (want >= 200)"]
    assert report["warnings"] == (warned if kind in ("shifted", "stuck") else [])
    if kind == "stuck":
        assert entry["rhat"] == 1.0 and entry["ess"] < 2.0


@pytest.mark.parametrize("kind", ["trending", "iid", "constant"])
def test_e_bfmi_warns_on_a_chain_whose_energy_wanders(kind):
    # a constant energy gives 0.0 with no RuntimeWarning, so summary.json
    # stays strict JSON
    rng = make_rng(47)
    energy = {"trending": lambda: np.linspace(0.0, 50.0, 1000) + rng.normal(size=1000),
              "iid": lambda: rng.normal(size=1000),
              "constant": lambda: np.full(1000, 7.25)}[kind]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = _report(rng.normal(size=(1, 1000)), energy[None, :])
    (e_bfmi,) = report["e_bfmi"]
    assert e_bfmi == pytest.approx(e_bfmi_oracle(energy.tolist()), rel=1e-12, abs=0.0)
    assert (e_bfmi == 0.0) == (kind == "constant")
    warned = [f"chain 0: E-BFMI {e_bfmi:.3g} (want >= 0.3)"]
    assert report["warnings"] == ([] if kind == "iid" else warned)


def test_identical_chains_flagged():
    # two chains whose rows are equal but for the label are flagged, and
    # their split R-hat reads about 1
    rng = make_rng(2)
    stat, energy = (np.repeat(rng.normal(size=(1, 400)), 2, axis=0) for _ in range(2))
    report = _report(stat, energy)
    assert report["diagnostic_flags"] == ["identical-chains:0,1"]
    assert abs(report["stats"]["x"]["rhat"] - 1.0) < 0.01


def test_fit_rejects_bad_thread_count(tmp_path, monkeypatch):
    # the thread count is typed as an integer config value is: a digit that
    # int() does not read is refused naming the variable, as a word is
    cfg = _small_fit_config(tmp_path)
    for raw, message in (("two", "SCKPD_THREADS must be an integer, got 'two'"),
                         ("²", "SCKPD_THREADS must be an integer, got '²'"),
                         ("0", "SCKPD_THREADS must be at least 1, got 0")):
        monkeypatch.setenv("SCKPD_THREADS", raw)
        with pytest.raises(ValueError) as raised:
            fit(cfg)
        assert str(raised.value) == message


def test_check_hyper(tmp_path):
    cfg = _small_fit_config(tmp_path)
    out = check_hyper(cfg)
    assert out["hyper"]["lower_variance"] > 0
    assert out["targets"]["diag_energy"] > 0


@pytest.mark.parametrize("config", [_small_fit_config, _small_seasonal_fit_config],
                         ids=["static-file", "seasonal-directory"])
def test_fit_reports_the_prior_check_hyper_reports(tmp_path, config):
    cfg = config(tmp_path)
    fit(RunConfig.from_dict({**cfg.__dict__, "n_chains": 1, "n_warmup": 0, "n_draws": 4,
                             "n_leapfrog": 1}))
    # summary.json is strict JSON, with no bare NaN or Infinity token
    written = json.loads((tmp_path / "fit" / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    report = json.loads(strict_json(check_hyper(cfg)))
    assert written["targets"] == report["targets"]
    assert written["hyper"] == report["hyper"]
    assert {"c1", "c2", "degenerate"} <= set(report["hyper"])


def _diagonal_covariance_csv(tmp_path: Path) -> Path:
    """Rows +-k e_k of 3x2 data: the sample covariance is diagonal, so its
    Cholesky factor has no strict-lower part."""
    rows = np.concatenate([np.diag(np.arange(1.0, 7.0)), -np.diag(np.arange(1.0, 7.0))])
    return _write(tmp_path / "diag.csv", "".join(",".join(f"{v:g}" for v in r) + "\n"
                                                 for r in rows))


def _count_requests(monkeypatch) -> dict:
    """Wrap ``model.log_posterior_grad`` and the core it delegates to,
    ``model.log_posterior_core``, to count the requests a fit makes, by
    kind.  A request counts once, whichever of the two it reaches first:
    ``fit`` makes its gradient requests to the core directly."""
    counts = {"value": 0, "grad": 0, "both": 0}
    entry, core, in_entry = mdl.log_posterior_grad, mdl.log_posterior_core, [False]

    def counted_entry(*args, want="both", **kwargs):
        counts[want] += 1
        in_entry[0] = True
        try:
            return entry(*args, want=want, **kwargs)
        finally:
            in_entry[0] = False

    def counted_core(u, layout, data, hyper, want):
        if not in_entry[0]:
            counts[want] += 1
        return core(u, layout, data, hyper, want)
    monkeypatch.delenv("SCKPD_THREADS", raising=False)
    monkeypatch.setattr(mdl, "log_posterior_grad", counted_entry)
    monkeypatch.setattr(mdl, "log_posterior_core", counted_core)
    return counts


def test_no_strict_lower_part_is_refused_before_any_posterior_call(tmp_path, monkeypatch):
    # a lower prior variance of 0 leaves no state in the support: fit and
    # check_hyper both refuse the file, naming it and lower_energy
    p = _diagonal_covariance_csv(tmp_path)
    cfg = RunConfig.from_dict(dict(mode="fit-static", d1=3, d2=2, n_components=2,
                                   input_path=str(p), output_dir=str(tmp_path / "fit"),
                                   n_chains=2, n_warmup=5, n_draws=4, n_leapfrog=2))
    counts = _count_requests(monkeypatch)
    message = r"diag\.csv: .*no strict-lower part \(lower_energy = 0\)"
    with pytest.raises(ValueError, match=message):
        fit(cfg)
    with pytest.raises(ValueError, match=message):
        check_hyper(cfg)
    assert counts == {"value": 0, "grad": 0, "both": 0}
    assert not (tmp_path / "fit").exists()


def test_fit_makes_one_value_request_per_chain_start_and_draw(tmp_path, monkeypatch):
    # the starts are drawn without a posterior call: without warmup each
    # chain asks for the value at its start and at each trajectory end
    cfg = _small_fit_config(tmp_path)
    counts = _count_requests(monkeypatch)
    fit(RunConfig.from_dict({**cfg.__dict__, "n_chains": 3, "n_warmup": 0, "n_draws": 7,
                             "n_leapfrog": 2}))
    assert counts["value"] == 3 * (1 + 7)
    assert counts["both"] == 0
    # a warmup of 40 switches the mass at its midpoint and searches the step
    # again: 45 trajectories of 12 steps and 11 one-step trajectories of the
    # two step searches, each ending in a value request
    counts.update(value=0, grad=0)
    fit(RunConfig.from_dict({**cfg.__dict__, "n_chains": 1, "n_warmup": 40, "n_draws": 5,
                             "output_dir": str(tmp_path / "warm")}))
    assert counts == {"value": 1 + 45 + 11, "grad": 45 * 12 + 11, "both": 0}


@pytest.mark.parametrize("d1, d2, n_blocks", [(4, 5, 1), (5, 2, 12)],
                         ids=["static-4x5", "seasonal-5x2x12"])
def test_uniform_starts_are_in_the_support_at_the_largest_data(tmp_path, d1, d2, n_blocks):
    # data whose squared fields sum to 0.99 MAX_SUM_SQUARES, the largest
    # ingest takes: every Uniform(-2, 2) start has a finite value, with no
    # RuntimeWarning, so a start needs no posterior call
    seasonal = n_blocks > 1
    cfg = RunConfig.from_dict(dict(
        mode=f"fit-{'dynamic' if seasonal else 'static'}", d1=d1, d2=d2, n_components=5,
        n_seasons=4 if seasonal else 1, n_cycles=3 if seasonal else 1,
        input_path=str(tmp_path / ("blocks" if seasonal else "data.csv"))))
    rng = make_rng(47)
    Ys = [rng.normal(size=(60, d1 * d2)) for _ in range(n_blocks)]
    scale = np.sqrt(0.99 * harness.MAX_SUM_SQUARES / sum(np.vdot(Y, Y) for Y in Ys))
    names = [name for _, name in harness._blocks(cfg)]
    if seasonal:
        (tmp_path / "blocks").mkdir()
    for Y, name in zip(Ys, names):
        harness.write_csv_matrix(tmp_path / ("blocks" if seasonal else "") / name, scale * Y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data, targets, hyper = harness._read_blocks(cfg)
        layout = StateLayout(d1, d2, 5, n_blocks)
        values = [mdl.log_posterior_grad(harness._draw_init(0, c, layout.size), layout,
                                         data, hyper, targets, want="value")
                  for c in range(100)]
    assert np.isfinite(values).all()


@pytest.mark.parametrize("run", [fit, check_hyper], ids=["fit", "check_hyper"])
def test_a_malformed_later_block_is_named(tmp_path, run):
    # check_hyper reads every block of a seasonal run, as fit does
    cfg = _small_seasonal_fit_config(tmp_path)
    second = tmp_path / "sim" / "data_c1_s2.csv"
    second.write_text(second.read_text() + "1,2,oops,4,5,6\n")
    with pytest.raises(ValueError, match=r"data_c1_s2\.csv: line 122: field 3 .*'oops'"):
        run(cfg)


@pytest.mark.parametrize("run", [fit, check_hyper], ids=["fit", "check_hyper"])
def test_input_of_the_wrong_kind_names_the_kind_and_the_path(tmp_path, run):
    static = _small_fit_config(tmp_path)
    sim = tmp_path / "sim"
    seasonal = "a directory of the data_cC_sS.csv files of its n_seasons = 2 x n_cycles = 1 blocks"
    wrong = {"fit-static": (str(sim), f"reads one CSV file: {sim} is a directory"),
             "fit-dynamic": (str(sim / "data.csv"),
                             f"reads {seasonal}: {sim / 'data.csv'} is not a directory")}
    for mode, (path, message) in wrong.items():
        blocks = 2 if mode == "fit-dynamic" else 1
        cfg = RunConfig.from_dict({**static.__dict__, "mode": mode, "n_seasons": blocks,
                                   "input_path": path})
        with pytest.raises(ValueError) as raised:
            run(cfg)
        assert str(raised.value) == f"mode '{mode}' {message}"
    # a missing file is named, with what the mode reads, before any block is
    # ingested: the seasonal run's first block is malformed
    (sim / "data.csv").unlink()
    (tmp_path / "one").mkdir()
    _write(tmp_path / "one" / "data_c1_s1.csv", "1,2,oops\n")
    missing = {"fit-static": (sim / "data.csv", "one CSV file"),
               "fit-dynamic": (tmp_path / "one" / "data_c1_s2.csv", seasonal)}
    for mode, (path, kind) in missing.items():
        blocks = 2 if mode == "fit-dynamic" else 1
        cfg = RunConfig.from_dict({**static.__dict__, "mode": mode, "n_seasons": blocks,
                                   "input_path": str(path.parent if blocks > 1 else path)})
        with pytest.raises(ValueError) as raised:
            run(cfg)
        assert str(raised.value) == f"mode '{mode}' reads {kind}: there is no file {path}"


def _draws_file(tmp_path: Path, text: str) -> Path:
    return _write(tmp_path / "draws.csv", text)


_HEADER = "chain,draw,accept,divergent,energy,theta\n"
_ROWS_PER_CHAIN = ("every chain needs the same number of draw rows, at least 4 as fit's "
                   "n_draws: split R-hat halves each chain and needs 2 draws in each half; "
                   "found ")


def _rows(chains: list[int]) -> str:
    """Draw rows of the bookkeeping columns and theta, one run of rows per
    entry of ``chains``, each as long as the entry."""
    return "".join(f"{c},{n},1,0,{n + 0.5},{c + n / 4}\n"
                   for c, count in enumerate(chains) for n in range(count))


@pytest.mark.parametrize("text, message", [
    ("", "empty file, expected a header row"),
    (_HEADER, _ROWS_PER_CHAIN + "no draw rows"),
    (_HEADER + _rows([1]), _ROWS_PER_CHAIN + "1 in chain 0"),
    (_HEADER + _rows([4, 3]), _ROWS_PER_CHAIN + "4 in chain 0, 3 in chain 1"),
    (_HEADER + _rows([5, 4]), _ROWS_PER_CHAIN + "5 in chain 0, 4 in chain 1"),
], ids=["empty", "header-only", "one-row", "three-rows", "unequal-chains"])
def test_summarize_draws_rejects_too_few_rows(tmp_path, text, message):
    p = _draws_file(tmp_path, text)
    with pytest.raises(ValueError) as raised:
        summarize_draws(p)
    assert str(raised.value) == f"{p}: {message}"


@pytest.mark.parametrize("text, message", [
    ("chain,draw,accept,divergent,energy,theta,theta\n0,0,1,0,2.5,1.5,2.5\n",
     "line 1: column 'theta' is named more than once"),
    ("chain,draw,accept,divergent,theta\n0,0,1,0,1.5\n",
     "line 1: header has no 'energy' column"),
    (_HEADER + "-3,0,1,0,2.5,1.5\n-3,1,1,0,2.5,2.5\n2.5,2,1,0,2.5,3.5\n",
     "draw row 1: the 'chain' column holds -3, not a whole number >= 0"),
    (_HEADER + "0,0,1,0,2.5,1.5\n0,1,1,0,2.5,2.5\n2.5,2,1,0,2.5,3.5\n",
     "draw row 3: the 'chain' column holds 2.5, not a whole number >= 0"),
], ids=["repeated-column", "no-energy-column", "negative-chain", "fractional-chain"])
def test_summarize_draws_rejects_repeated_column_or_bad_chain(tmp_path, text, message):
    p = _draws_file(tmp_path, text)
    with pytest.raises(ValueError) as raised:
        summarize_draws(p)
    assert str(raised.value) == f"{p}: {message}"


def test_summarize_draws_rejects_table_without_chain_column(tmp_path):
    p = _draws_file(tmp_path, "draw,theta\n0,1.5\n1,2.5\n")
    with pytest.raises(ValueError, match=r"draws\.csv: line 1: header has no 'chain' column"):
        summarize_draws(p)
    # the chains are the distinct values of the chain column, not its largest plus one
    p = _draws_file(tmp_path, _HEADER + _rows([4, 0, 0, 0, 0, 4]))
    assert summarize_draws(p)["n_chains"] == 2


def test_summarize_draws_rejects_ragged_row(tmp_path):
    p = _draws_file(tmp_path, "chain,draw,theta\n0,0,1.5\n0,1\n")
    with pytest.raises(ValueError, match=r"draws\.csv: line 3: expected 3 fields.*got 2"):
        summarize_draws(p)


def test_summarize_draws_rejects_non_numeric_field(tmp_path):
    p = _draws_file(tmp_path, "chain,draw,theta\n0,0,1.5\n0,1,oops\n")
    with pytest.raises(ValueError, match=r"line 3: field 3 \(theta\) is not numeric: 'oops'"):
        summarize_draws(p)


@pytest.mark.parametrize("field, message", [
    ("nan", "line 3: field 3 is not finite: nan"),
    ("1e200", "line 3: field 3 is too large: 1e+200"),
], ids=["nan", "huge"])
def test_summarize_draws_rejects_non_finite_field(tmp_path, field, message):
    # a field the summaries cannot use fails at the boundary, named, with
    # no warning on the way
    p = _draws_file(tmp_path, f"chain,draw,theta\n0,0,1.5\n0,1,{field}\n0,2,2.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as raised:
            summarize_draws(p)
    assert str(raised.value).startswith(f"{p}: {message}")


def test_a_run_config_is_valid_by_construction():
    # a config is checked once, when it is built, and cannot change after
    with pytest.raises(ValueError, match="input_path"):
        RunConfig(mode="fit-static")
    cfg = RunConfig(mode="simulate-static")
    with pytest.raises(FrozenInstanceError):
        cfg.n_chains = 0
    with pytest.raises(ValueError, match="n_chains"):
        replace(cfg, n_chains=0)


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        RunConfig.from_dict(dict(mode="nope"))
    with pytest.raises(ValueError, match="input_path"):
        RunConfig.from_dict(dict(mode="fit-static"))
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict(dict(mode="simulate-static", bogus=1))
    # the initial step, the target acceptance, mass adaptation and the
    # transition prior are fixed, and sampler keys are top-level only: a
    # config that sets one of these keys fails, naming it
    for key, value in (("step_size", 0.05), ("target_accept", 0.8), ("adapt_mass", False),
                       ("transition_dirichlet_alpha", 1.0), ("hmc", {"n_chains": 2}),
                       ("sim_transition_alpha", 0.05), ("center", True),
                       ("transition", "identity"), ("lower_variance", 2.0)):
        with pytest.raises(ValueError, match=rf"unknown config keys: \['{key}'\]"):
            RunConfig.from_dict({"mode": "simulate-static", key: value})
    with pytest.raises(ValueError, match="preset"):
        RunConfig.from_dict(dict(mode="simulate-static", preset="nope"))
    # n_truth_components 0 is refused, not read as unset
    for key, value in (("n_chains", 0), ("n_leapfrog", 0), ("n_draws", 3),
                       ("n_warmup", -1), ("n_truth_components", 0)):
        with pytest.raises(ValueError, match=key):
            RunConfig.from_dict({"mode": "simulate-static", key: value})
    # a value of the wrong type fails at the boundary, naming its field; a
    # number written as a string is read as the number, and no field takes
    # true or false
    for key, value in (("n_chains", "two"), ("n_chains", 2.5), ("n_chains", True),
                       ("wishart_scale1", [1.0, "abc"]), ("output_dir", True), ("mode", 3),
                       ("omega_weights", "abc"), ("omega_weights", 5), ("preset", [1]),
                       ("preset", ["paper-static"]), ("omega_weights", [True, 2.0])):
        with pytest.raises(ValueError, match=key):
            RunConfig.from_dict({"mode": "simulate-static", key: value})
    # a null value of a required field is refused, not read as its default;
    # an optional field's null is unset, and keeps a preset's value
    with pytest.raises(ValueError) as raised:
        RunConfig.from_dict(dict(mode="simulate-static", n_chains=None))
    assert str(raised.value) == "n_chains must be an integer, got None"
    cfg = RunConfig.from_dict(dict(mode="simulate-static", preset="paper-static",
                                   n_truth_components=None, input_path=None,
                                   wishart_scale1=None, wishart_scale2=None))
    assert (cfg.n_truth_components, cfg.input_path) == (5, None)
    assert (cfg.wishart_scale1, cfg.wishart_scale2) == (harness._SCALE_LEN4,
                                                        harness._SCALE_LEN5)
    # a tuple field refuses a string rather than read it character by character
    with pytest.raises(ValueError) as raised:
        RunConfig.from_dict(dict(mode="simulate-static", omega_weights="13"))
    assert str(raised.value) == "omega_weights must be a list of numbers, got '13'"
    # a mode taken from the block count is taken from the typed values
    for key, value in (("n_seasons", "two"), ("n_cycles", [2]), ("preset", ["paper-dynamic"])):
        with pytest.raises(ValueError, match=key):
            RunConfig.from_dict({"input_path": "d", key: value}, family="fit")
    cfg = RunConfig.from_dict(dict(mode="simulate-static", n_chains="2", n_draws=8.0,
                                   omega_weights=[1, "2", "1e-3"]))
    assert (cfg.n_chains, cfg.n_draws) == (2, 8)
    assert type(cfg.n_draws) is int and cfg.omega_weights == (1.0, 2.0, 1e-3)
    # an integer field reads "8.0" as it reads 8.0 (a flag's value is such a
    # string), a string of digits exactly, and refuses a fractional or
    # non-finite number, however written, with one message
    cfg = RunConfig.from_dict(dict(mode="simulate-static", n_draws="8.0", n_chains="2e0",
                                   seed="18446744073709551615"))
    assert (cfg.n_draws, cfg.n_chains, cfg.seed) == (8, 2, 2 ** 64 - 1)
    assert type(cfg.n_draws) is int and type(cfg.n_chains) is int
    # a seed is a 64-bit Philox key word: one outside [0, 2**64) is refused,
    # not aliased to the seed it equals modulo 2**64
    for value in (2 ** 64, -1, "18446744073709551617"):
        with pytest.raises(ValueError) as raised:
            RunConfig.from_dict(dict(mode="simulate-static", seed=value))
        assert str(raised.value) == f"seed must be in [0, 2**64), got {int(value)}"
    with pytest.raises(OverflowError):
        hmc.philox_rng(2 ** 64, 0)
    for value in ("2.5", "nan", "inf", 2.5, math.nan, math.inf):
        with pytest.raises(ValueError) as raised:
            RunConfig.from_dict(dict(mode="simulate-static", n_draws=value))
        assert str(raised.value) == f"n_draws must be an integer, got {value!r}"
    # a static mode runs one block: more seasons or cycles are refused, not
    # dropped
    for mode, seasons, cycles in (("simulate-static", 4, 3), ("fit-static", 1, 2),
                                  ("simulate-static", 2, 1)):
        with pytest.raises(ValueError) as raised:
            RunConfig.from_dict(dict(mode=mode, input_path="d", n_seasons=seasons,
                                     n_cycles=cycles))
        assert str(raised.value) == (f"mode '{mode}' runs one block, not n_seasons = "
                                     f"{seasons} x n_cycles = {cycles}")
    # each block count is checked alone: -2 seasons of -1 cycles is not 2 blocks
    for mode in ("fit-dynamic", "simulate-dynamic"):
        for seasons, cycles, bad in ((-2, -1, "n_seasons"), (2, 0, "n_cycles")):
            with pytest.raises(ValueError, match=f"{bad} must be at least 1"):
                RunConfig.from_dict(dict(mode=mode, input_path="d", n_seasons=seasons,
                                         n_cycles=cycles))


_SMALL_DESIGN = dict(mode="simulate-static", d1=3, d2=2, n_truth_components=2, n_components=2,
                     omega_weights=(1.0, 3.0), n_obs=20, seed=1)


@pytest.mark.parametrize("field, value", [
    ("omega_weights", (1.0, -3.0)),
    ("omega_weights", (0.0, 0.0)),
    ("omega_weights", (1.0, float("inf"))),
    ("omega_weights", (1.0, float("nan"))),
    ("wishart_scale1", (1.0, float("inf"), 0.5)),
    ("wishart_scale1", (1.0, 0.0, 0.5)),
    ("wishart_scale2", (1.0, -0.5)),
    ("wishart_scale2", (1.0, float("nan"))),
])
def test_bad_simulation_inputs_fail_at_the_boundary(tmp_path, field, value):
    # each is refused when the config is built, before any draw, with a
    # message naming its field
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=field):
            simulate(RunConfig(**{**_SMALL_DESIGN, "output_dir": str(tmp_path / "sim"),
                                  field: value}))
    assert not (tmp_path / "sim").exists()


def test_length_mismatch_names_the_field_and_a_fit_ignores_it(tmp_path):
    # a simulation design of the wrong length fails in simulate, naming the
    # field and the dimension; a fit reads no simulation field and runs
    for field, value, message in (
            ("wishart_scale1", (1.0, 0.5), "wishart_scale1 has 2 entries; d1 = 3 needs 3"),
            ("wishart_scale2", (1.0, 0.5, 0.2), "wishart_scale2 has 3 entries; d2 = 2 needs 2"),
            ("omega_weights", (1.0, 3.0, 2.0), "omega_weights has 3 entries; 2 simulated")):
        with pytest.raises(ValueError, match=message):
            simulate(RunConfig(**{**_SMALL_DESIGN, "output_dir": str(tmp_path / "bad"),
                                  field: value}))
    simulate(RunConfig(**_SMALL_DESIGN, output_dir=str(tmp_path / "sim")))
    fit(RunConfig.from_dict(dict(
        _SMALL_DESIGN, mode="fit-static", wishart_scale1=(1.0, 0.5), omega_weights=(1.0,),
        input_path=str(tmp_path / "sim" / "data.csv"), output_dir=str(tmp_path / "fit"),
        n_chains=1, n_warmup=5, n_draws=4, n_leapfrog=2)))
    assert (tmp_path / "fit" / "draws.csv").exists()


def test_zero_weight_switches_a_component_off(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, truth = simulate(RunConfig(**dict(_SMALL_DESIGN, omega_weights=(0.0, 3.0),
                                             output_dir=str(tmp_path))))
    assert truth["omega"] == [0.0, 1.0]
    assert truth["stats"]["omega_sorted_2"] == 0.0


def test_config_yaml_and_hmc_section(tmp_path):
    # sampler keys are read at the top level; an hmc: section is refused
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump(dict(mode="simulate-static", d1=3, d2=2, n_obs=10,
                                     n_chains=2, n_warmup=50)))
    cfg = RunConfig.from_dict(read_config_file(p))
    assert cfg.n_chains == 2
    assert cfg.n_warmup == 50
    p.write_text(yaml.safe_dump(dict(mode="simulate-static", hmc=dict(n_chains=2))))
    with pytest.raises(ValueError, match=r"unknown config keys: \['hmc'\]"):
        RunConfig.from_dict(read_config_file(p))


# ----- CLI -------------------------------------------------------------------------

def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "sckpd.cli", *args],
                          capture_output=True, text=True)


def test_cli_takes_the_family_from_the_block_count():
    # flags override the preset's seasons and cycles; more than one block is
    # a seasonal run
    for preset, flags, mode in (("paper-dynamic", {}, "fit-dynamic"),
                                ("paper-dynamic", dict(n_seasons=1, n_cycles=1), "fit-static"),
                                ("paper-static", dict(n_seasons=2), "fit-dynamic"),
                                (None, {}, "fit-static")):
        args = argparse.Namespace(command="fit", config=None, preset=preset,
                                  input_path="d", **flags)
        assert cli._build_config(args, "fit").mode == mode
    # a preset or a block count of the wrong type fails naming its key
    for flags, key in ((dict(preset=["paper-static"]), "preset"),
                       (dict(n_seasons="two"), "n_seasons")):
        args = argparse.Namespace(command="fit", config=None, input_path="d", **flags)
        with pytest.raises(ValueError, match=key):
            cli._build_config(args, "fit")


def test_cli_simulate_and_check_hyper(tmp_path):
    out = _run_cli("simulate", "--preset", "paper-static", "--seed", "3",
                   "--n-obs", "50", "--out", str(tmp_path / "sim"))
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["truth"]["n_obs"] == 50
    hyp = _run_cli("check-hyper", "--input", str(tmp_path / "sim" / "data.csv"),
                   "--d1", "4", "--d2", "5")
    assert hyp.returncode == 0, hyp.stderr
    assert "lower_variance" in json.loads(hyp.stdout)["hyper"]


def test_check_hyper_does_not_depend_on_the_data_units(tmp_path):
    # the seed-1 paper-static data in other units are the same full-rank
    # rows: check-hyper accepts them, and the shape targets and shapes, which
    # are scale free, are the unscaled ones
    simulate(RunConfig.from_dict(dict(preset="paper-static", mode="simulate-static", seed=1,
                                      output_dir=str(tmp_path / "sim"))))
    Y = ingest_csv(tmp_path / "sim" / "data.csv", 4, 5)
    reports = []
    for c in (1.0, 1e-8, 1e8):
        path = tmp_path / f"data_{c:g}.csv"
        harness.write_csv_matrix(path, Y * c, [f"y{j + 1}" for j in range(20)])
        reports.append(check_hyper(RunConfig.from_dict(dict(
            preset="paper-static", mode="fit-static", input_path=str(path))))["hyper"])
    for scaled in reports[1:]:
        for key in ("c1", "c2", "shape1", "shape2"):
            assert scaled[key] == pytest.approx(reports[0][key], rel=1e-12, abs=0), key


def _loaded_after(code: str, *args) -> str:
    """Run ``code`` (which sets ``rc``) in a fresh interpreter and return which
    of scipy, yaml, numpy.ma and sckpd.dynamic it loaded, as the sorted list
    of their names."""
    probe = (f"import sys\n{code}\n"
             "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'yaml'}\n"
             "             | {'numpy.ma', 'sckpd.dynamic'} & set(sys.modules)))\n"
             "sys.exit(rc)\n")
    out = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


@pytest.fixture(scope="module")
def loaded_by_run(tmp_path_factory) -> dict:
    """Run every subcommand on tiny inputs, and ``import sckpd``, each in a
    fresh interpreter; map each run's name to the scipy, yaml, numpy.ma and
    sckpd.dynamic it loaded."""
    tmp_path = tmp_path_factory.mktemp("imports")
    config = _write(tmp_path / "sim.yaml", "d1: 3\nd2: 2\nn_components: 2\n"
                    "n_truth_components: 2\nomega_weights: [1.0, 3.0]\nn_obs: 60\n")
    cli = "from sckpd.cli import main\nrc = main(sys.argv[1:])"
    dims = ("--d1", "3", "--d2", "2")
    tiny = (*dims, "--n-components", "2", "--seed", "5",
            "--chains", "1", "--warmup", "3", "--draws", "4", "--leapfrog", "2")
    runs = {"simulate static": ("simulate", "--mode", "simulate-static", *dims,
                                "--n-components", "5", "--n-obs", "60", "--seed", "5",
                                "--out", str(tmp_path / "s")),
            "simulate --config": ("simulate", "--config", str(config), "--mode",
                                  "simulate-dynamic", "--seasons", "2", "--cycles", "1",
                                  "--seed", "5", "--out", str(tmp_path / "d")),
            "fit static": ("fit", "--mode", "fit-static", "--input",
                           str(tmp_path / "s" / "data.csv"), "--out", str(tmp_path / "fs"),
                           *tiny),
            "fit seasonal": ("fit", "--mode", "fit-dynamic", "--seasons", "2", "--cycles", "1",
                             "--input", str(tmp_path / "d"), "--out", str(tmp_path / "fd"),
                             *tiny),
            "check-hyper": ("check-hyper", "--mode", "fit-static", "--input",
                            str(tmp_path / "s" / "data.csv"), *dims),
            "summarize": ("summarize", str(tmp_path / "fd" / "draws.csv"),
                          "--truth", str(tmp_path / "d" / "truth.json"))}
    loaded = {name: _loaded_after(cli, *args) for name, args in runs.items()}
    loaded["import sckpd"] = _loaded_after("import sckpd\nrc = 0")
    return loaded


def test_fit_does_not_import_simulate_only_dependencies(loaded_by_run):
    # fitting loads neither scipy nor yaml, and only reading a --config file
    # loads yaml
    for run in ("fit static", "fit seasonal", "check-hyper", "import sckpd"):
        assert loaded_by_run[run] == "[]", run
    assert {run for run, loaded in loaded_by_run.items() if "yaml" in loaded} \
        == {"simulate --config"}


def test_fit_and_summarize_load_no_numpy_ma(loaded_by_run):
    # the column quantiles come from one sort, not np.quantile, which loads
    # numpy.ma: no subcommand loads it
    assert {run for run, loaded in loaded_by_run.items() if "numpy.ma" in loaded} == set()


def test_no_run_loads_the_seasonal_vocabulary(loaded_by_run):
    # a fit's block reader stacks the blocks' scatters into one summary:
    # sckpd.dynamic is for the benchmark and the tests, and no subcommand loads it
    assert {run for run, loaded in loaded_by_run.items() if "sckpd.dynamic" in loaded} == set()


def test_fit_loads_no_scipy(loaded_by_run):
    # every run is its own process, and importing scipy costs more than a
    # small fit's sampling: no subcommand loads it
    assert {run: loaded for run, loaded in loaded_by_run.items() if "scipy" in loaded} == {}


def test_cli_config_file_must_hold_a_mapping(tmp_path):
    config = _write(tmp_path / "list.yaml", "- 1\n- 2\n")
    out = _run_cli("fit", "--config", str(config), "--input", str(tmp_path / "d.csv"))
    assert out.returncode == 2
    err = json.loads(out.stderr)
    assert err == {"error": "ValueError", "message": "config file must hold a key/value mapping"}


def test_cli_usage_errors_are_one_json_line(capsys, tmp_path):
    # a usage error is reported as every other failure is, and a flag is
    # typed and refused as its config-file value is; --help still exits 0
    config = _write(tmp_path / "removed.yaml",
                    "center: true\ntransition: identity\nlower_variance: 2.0\n")
    for argv, named in ((["fit", "--chains", "two", "--input", "d.csv"], "n_chains"),
                        (["fit", "--preset", "nope", "--input", "d.csv"], "preset"),
                        (["fit", "--bogus", "1"], "--bogus"),
                        (["fit", "--center", "--input", "d.csv"], "--center"),
                        (["fit", "--identity-transition", "--input", "d.csv"],
                         "--identity-transition"),
                        (["fit", "--config", str(config), "--input", "d.csv"],
                         "['center', 'lower_variance', 'transition']"),
                        ([], "command"),
                        (["summarize"], "draws_file"),
                        (["simulate", "--seed", str(2 ** 64 + 1), "--out", str(tmp_path)], "seed"),
                        (["simulate", "--seed", "-1", "--out", str(tmp_path)], "seed")):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, argv
        assert named in json.loads(err)["message"], argv
    assert list(tmp_path.iterdir()) == [config]
    with pytest.raises(SystemExit) as exited:
        cli.main(["fit", "--help"])
    assert exited.value.code == 0


def test_cli_error_is_machine_readable(tmp_path):
    out = _run_cli("fit", "--mode", "fit-static", "--input",
                   str(tmp_path / "missing.csv"), "--out", str(tmp_path))
    assert out.returncode != 0
    err = json.loads(out.stderr)
    assert "error" in err and "message" in err


def test_cli_summarize_round_trip(tmp_path):
    sim = RunConfig.from_dict(dict(
        mode="simulate-static", d1=3, d2=2, n_truth_components=2, n_components=2,
        omega_weights=(1.0, 3.0), n_obs=150, seed=2,
        output_dir=str(tmp_path / "sim")))
    simulate(sim)
    cfg = RunConfig.from_dict(dict(
        mode="fit-static", d1=3, d2=2, n_components=2,
        input_path=str(tmp_path / "sim" / "data.csv"),
        output_dir=str(tmp_path / "fit"), seed=2,
        n_chains=1, n_warmup=100, n_draws=100, n_leapfrog=10))
    fit(cfg)
    out = _run_cli("summarize", str(tmp_path / "fit" / "draws.csv"),
                   "--truth", str(tmp_path / "sim" / "truth.json"))
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert "coverage" in payload


@pytest.mark.parametrize("text, key", [
    ('[1, 2]', "key 'stats'"),
    ('{"stats": [1]}', "key 'stats'"),
    ('{"stats": {"theta": NaN}}', "key 'stats.theta'"),
    ('{"stats": {"logdet_factor": -Infinity}}', "key 'stats.logdet_factor'"),
    ('{"stats": {"theta": "0.5"}}', "key 'stats.theta'"),
    ('{"stats": {"theta": 0.5,}}', "not valid JSON: Expecting property name"),
])
def test_summarize_refuses_a_bad_truth_file_naming_file_and_key(tmp_path, text, key):
    draws, _, _ = _draws_table(tmp_path)
    truth = _write(tmp_path / "bad-truth.json", text)
    with pytest.raises(ValueError) as info:
        summarize_draws(draws, truth)
    assert str(truth) in str(info.value) and key in str(info.value)


def test_cli_rank_deficient_data_names_the_cause(tmp_path):
    # four rows of six fields: the fifth leading minor of the covariance fails
    rows = make_rng(41).normal(size=(4, 6))
    text = "".join(",".join(f"{v:.17g}" for v in r) + "\n" for r in rows)
    p = _write(tmp_path / "d.csv", text)
    fit_out = _run_cli("fit", "--mode", "fit-static", "--d1", "3", "--d2", "2",
                       "--n-components", "2", "--input", str(p), "--out", str(tmp_path))
    assert fit_out.returncode != 0
    message = json.loads(fit_out.stderr)["message"]
    assert "order 5" in message and "rank deficient" in message and "d1*d2 = 6" in message


def test_cli_fit_rejects_fewer_than_four_draws(tmp_path):
    # split R-hat halves each chain and needs 2 draws in each half: fewer
    # draws fail at the boundary, before any input is read or output written
    out = _run_cli("fit", "--mode", "fit-static", "--d1", "3", "--d2", "2",
                   "--input", str(tmp_path / "d.csv"), "--out", str(tmp_path / "fit"),
                   "--draws", "3")
    assert out.returncode == 2
    assert "n_draws" in json.loads(out.stderr)["message"]
    assert not (tmp_path / "fit").exists()


def _reject_constant(token):
    raise ValueError(f"JSON holds the non-finite token {token}")


def test_four_draw_fit_writes_strict_json(tmp_path):
    # the fewest draws a fit accepts give a finite split R-hat, so stdout and
    # summary.json are strict JSON, with no bare NaN or Infinity token
    simulate(RunConfig.from_dict(dict(
        mode="simulate-static", d1=3, d2=2, n_truth_components=2, n_components=2,
        omega_weights=(1.0, 3.0), n_obs=60, seed=6, output_dir=str(tmp_path / "sim"))))
    out = _run_cli("fit", "--mode", "fit-static", "--d1", "3", "--d2", "2",
                   "--n-components", "2", "--seed", "6",
                   "--input", str(tmp_path / "sim" / "data.csv"), "--out", str(tmp_path / "fit"),
                   "--chains", "2", "--warmup", "3", "--draws", "4", "--leapfrog", "2")
    assert out.returncode == 0, out.stderr
    printed = json.loads(out.stdout, parse_constant=_reject_constant)
    summary = json.loads((tmp_path / "fit" / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary == printed
    assert summary["n_draws_per_chain"] == 4
    assert all(np.isfinite(entry["rhat"]) for entry in summary["stats"].values())


def test_cli_fit_stdout_is_json_and_warnings_go_to_summary(tmp_path):
    # paper-dynamic data at seed 0 put a shape target in the degenerate regime
    sim = _run_cli("simulate", "--preset", "paper-dynamic", "--seed", "0",
                   "--out", str(tmp_path / "sim"))
    assert sim.returncode == 0, sim.stderr
    out = _run_cli("fit", "--preset", "paper-dynamic", "--seed", "0",
                   "--input", str(tmp_path / "sim"), "--out", str(tmp_path / "fit"),
                   "--chains", "1", "--warmup", "3", "--draws", "4", "--leapfrog", "2")
    assert out.returncode == 0, out.stderr
    printed = json.loads(out.stdout)
    assert any("degenerate" in w for w in printed["warnings"])
    summary = json.loads((tmp_path / "fit" / "summary.json").read_text())
    assert summary["warnings"] == printed["warnings"]
