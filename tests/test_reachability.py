"""Every function and every statement in ``src/sckpd`` is reached by a run
of the CLI.

The runs below cover every verb: simulate and fit of a static, a 3-block
seasonal and a 16x16 design (whose trace term takes the pair products), a
simulation of the default design, a fit whose warmup estimates the mass,
summarize with a truth file, check-hyper, a config file with a null and
a "3.0" integer value, files that only the record-by-record scanner
reads, and the refusals of a malformed CSV, a rank-deficient CSV and a
usage error.  They run
in-process and sequentially, once for the module, under ``sys.settrace``,
which records the code object of every Python call and the line events
of the package's own frames.

A function, method or property that no run calls is either deleted or
named in ``NOT_REACHED``, the vocabulary that only the benchmark and the
tests use.  A statement that no run executes is inside one of those, is a
``raise`` or in a body that ends in one, or is named in ``UNEXECUTED`` by
its module, function and stripped first line.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import sckpd
from sckpd import cli

SRC = Path(sckpd.__file__).resolve().parent

# (module, qualified name) of what no CLI run calls: the benchmark's and
# the tests' vocabulary
NOT_REACHED = {
    ("dynamic", "SeasonSchedule.__init__"),
    ("dynamic", "SeasonSchedule.n_blocks"),
    ("model", "DataSummary.from_observations"),
    ("model", "StateLayout.decode"),
    ("model", "StateLayout.unpack"),
    ("model", "log_prior"),
    ("model", "SCKPDParams.d1"),     # read only by log_prior
    ("model", "SCKPDParams.d2"),
}
# (module, qualified name, stripped first line) of the statements no run
# executes outside the functions above and the raises: the process pool,
# which runs only with SCKPD_THREADS above 1, and guards of states that no
# run makes
UNEXECUTED = {
    ("harness", "fit", "from concurrent.futures import ProcessPoolExecutor"),
    ("harness", "fit", "with ProcessPoolExecutor(max_workers=workers) as pool:"),
    ("harness", "fit", "chains = list(pool.map(sample, inits, rngs))"),
    # a trajectory whose state turns non-finite: the divergences of real
    # fits end at |dH| above the threshold with a finite state, and test_hmc
    # makes one on a stiff target
    ("hmc", "leapfrog", "return None"),
    ("hmc", "_trajectory", "return q, -math.inf, math.inf"),
    # fewer than 4 draws a chain, which fit and summarize both refuse
    ("hmc", "_ess_core", "return np.full(m, float(N * C))"),
    ("hmc", "_rhat_core", "return np.full(m, np.nan)"),
    # a bracket that bisection shrinks below double precision
    ("hyper", "solve_a", "break"),
    # a lower variance <= 0, which fit refuses before its first call
    ("model", "log_posterior_grad",
     'answers = [-math.inf if r == "value" else np.zeros(layout.size) for r in requests]'),
}


def _functions() -> dict[tuple[str, str], ast.AST]:
    """(module, qualified name) of every function, method and property
    defined in the package's source, nested ones included, named as
    ``co_qualname`` names their code, to its definition."""
    found = {}

    def visit(node, prefix: str, module: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[module, prefix + child.name] = child
                visit(child, f"{prefix}{child.name}.<locals>.", module)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", module)
            else:
                visit(child, prefix, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path.stem)
    return found


def _bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists a compound statement holds; none for a nested
    function, whose statements are its own."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    bodies = [getattr(stmt, key) for key in ("body", "orelse", "finalbody")
              if getattr(stmt, key, None)]
    return bodies + [handler.body for handler in getattr(stmt, "handlers", ())]


def _statements(function: ast.AST):
    """(statement, its own lines, whether a raise ends its body) of every
    statement a function's code runs: a compound statement's own lines are
    its header, and a nested function's definition is a statement of the
    enclosing one.  A docstring runs no code and is left out."""
    def visit(body: list[ast.stmt]):
        ends_in_raise = isinstance(body[-1], ast.Raise)
        for stmt in body:
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
            last = stmt.body[0].lineno - 1 if hasattr(stmt, "body") else stmt.end_lineno
            yield stmt, set(range(first, last + 1)), ends_in_raise
            for block in _bodies(stmt):
                yield from visit(block)

    body = function.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    yield from visit(body)


def _write_quoted(path: Path, rows: np.ndarray, header: list[str]) -> None:
    """A CSV table of quoted fields, with a blank line after the header."""
    lines = [",".join(header), ""] if header else []
    path.write_text("\n".join(lines + [",".join(f'"{v:.6f}"' for v in row) for row in rows]))


def _run_every_verb(tmp: Path) -> None:
    config = tmp / "sim.yaml"
    config.write_text("d1: '3.0'\nd2: 2\nn_components: 2\nn_truth_components: 2\n"
                      "omega_weights: [1.0, 3.0]\nwishart_scale1: [1.0, 0.5, 0.2]\n"
                      "input_path: null\nn_obs: 60\n")
    tiny = ("--seed", "5", "--chains", "1", "--warmup", "3", "--draws", "4", "--leapfrog", "2")
    small = ("--d1", "3", "--d2", "2", "--n-components", "2")
    wide = ("--d1", "16", "--d2", "16", "--n-components", "5")
    seasonal = ("--seasons", "3", "--cycles", "1")
    (tmp / "bad.csv").write_text("1,2,3,4,5,6\n1,2,oops,4,5,6\n")
    (tmp / "flat.csv").write_text("1,2,3,4,5,6\n2,4,6,8,10,12\n")   # rank 1
    # quoted fields, which np.loadtxt refuses and the scanner reads: white
    # noise, whose flat Cholesky diagonal makes a degenerate shape target,
    # a draws table, and a table without a header
    white = np.random.default_rng(0).standard_normal((20, 6))
    _write_quoted(tmp / "white.csv", white, [f"y{j + 1}" for j in range(6)])
    draws = np.column_stack([np.zeros(4), np.arange(4), np.ones(4), np.zeros(4), white[:4, :2]])
    _write_quoted(tmp / "draws.csv", draws, ["chain", "draw", "accept", "divergent", "energy",
                                             "theta"])
    _write_quoted(tmp / "bare.csv", white[:4], [])
    runs = [
        (0, "simulate", "--config", str(config), "--seed", "5", "--out", str(tmp / "s")),
        (0, "simulate", "--config", str(config), "--mode", "simulate-dynamic", *seasonal,
         "--seed", "5", "--out", str(tmp / "d")),
        (0, "simulate", *wide, "--n-obs", "300", "--seed", "5", "--out", str(tmp / "w")),
        (0, "simulate", "--n-obs", "10", "--seed", "5", "--out", str(tmp / "default")),
        (0, "fit", "--input", str(tmp / "s" / "data.csv"), *small, *tiny,
         "--out", str(tmp / "fs")),
        (0, "fit", "--input", str(tmp / "d"), *seasonal, *small, *tiny, "--warmup", "40",
         "--out", str(tmp / "fd")),
        (0, "fit", "--input", str(tmp / "w" / "data.csv"), *wide, *tiny,
         "--out", str(tmp / "fw")),
        (0, "summarize", str(tmp / "fd" / "draws.csv"), "--truth", str(tmp / "d" / "truth.json")),
        (0, "check-hyper", "--input", str(tmp / "s" / "data.csv"), *small),
        (0, "fit", "--input", str(tmp / "white.csv"), *small, *tiny, "--out", str(tmp / "fq")),
        (0, "summarize", str(tmp / "draws.csv")),
        (2, "summarize", str(tmp / "bare.csv")),
        (2, "fit", "--input", str(tmp / "bad.csv"), *small, "--out", str(tmp / "no")),
        (2, "fit", "--input", str(tmp / "flat.csv"), *small, "--out", str(tmp / "no")),
        (2, "fit", "--bogus", "1"),
    ]
    for code, *argv in runs:
        assert cli.main(argv) == code, argv


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The code objects the runs call, and the (module, line) pairs their
    frames in the package execute."""
    called, lines, modules = set(), set(), {}

    def module_of(code):
        name = code.co_filename
        if name not in modules:
            path = Path(name).resolve()
            modules[name] = path.stem if path.parent == SRC else None
        return modules[name]

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add((module_of(frame.f_code), frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        called.add(frame.f_code)
        return trace_lines if module_of(frame.f_code) else None

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("SCKPD_THREADS", "1")
        sys.settrace(trace_calls)
        try:
            _run_every_verb(tmp_path_factory.mktemp("runs"))
        finally:
            sys.settrace(None)
    reached = {(module_of(code), code.co_qualname) for code in called if module_of(code)}
    return reached, lines


def test_every_function_is_reached_by_a_cli_run(traced):
    reached, _ = traced
    defined = set(_functions())
    assert NOT_REACHED <= defined, sorted(NOT_REACHED - defined)
    assert defined - reached == NOT_REACHED, (
        f"not reached and not listed: {sorted(defined - reached - NOT_REACHED)}; "
        f"listed but reached: {sorted(NOT_REACHED & reached)}")


def test_every_statement_is_executed_by_a_cli_run(traced):
    _, lines = traced
    sources = {path.stem: path.read_text().splitlines() for path in SRC.glob("*.py")}
    unexecuted = set()
    for (module, qualname), function in _functions().items():
        if (module, qualname) in NOT_REACHED:
            continue
        for stmt, own, ends_in_raise in _statements(function):
            if (isinstance(stmt, ast.Raise) or ends_in_raise
                    or any((module, n) in lines for n in own)):
                continue
            unexecuted.add((module, qualname, sources[module][stmt.lineno - 1].strip()))
    assert unexecuted == UNEXECUTED, (
        f"not executed and not listed: {sorted(unexecuted - UNEXECUTED)}; "
        f"listed but executed: {sorted(UNEXECUTED - unexecuted)}")
