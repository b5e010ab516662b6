"""Every function in ``src/sckpd`` is reached by a run of the CLI.

The runs below cover every verb: simulate and fit of a static, a seasonal
and a 16x16 design (whose trace term takes the pair products), summarize
with a truth file, check-hyper, a config file, and the refusals of a
malformed CSV, a rank-deficient CSV and a usage error.  They run
in-process and sequentially under ``sys.setprofile``, which records the
code object of every Python call.  A function, method or property that no
run calls is either deleted or named in ``NOT_REACHED``, the vocabulary
that only the benchmark and the tests use, or in ``GUARDS``.
"""

import ast
import sys
from pathlib import Path

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
# A guard that no run tried triggers: a trajectory whose state turns
# non-finite.  The divergences of real fits end at |dH| above the threshold
# with a finite state; test_hmc raises it on a stiff target.
GUARDS = {("hmc", "TrajectoryDivergence.__init__")}


def _defined() -> set[tuple[str, str]]:
    """(module, qualified name) of every function, method and property
    defined in the package's source, nested ones included, named as
    ``co_qualname`` names their code."""
    found = set()

    def visit(node, prefix: str, module: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((module, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.", module)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", module)
            else:
                visit(child, prefix, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path.stem)
    return found


def _run_every_verb(tmp: Path) -> None:
    config = tmp / "sim.yaml"
    config.write_text("d1: 3\nd2: 2\nn_components: 2\nn_truth_components: 2\n"
                      "omega_weights: [1.0, 3.0]\nn_obs: 60\n")
    tiny = ("--seed", "5", "--chains", "1", "--warmup", "3", "--draws", "4", "--leapfrog", "2")
    small = ("--d1", "3", "--d2", "2", "--n-components", "2")
    wide = ("--d1", "16", "--d2", "16", "--n-components", "5")
    (tmp / "bad.csv").write_text("1,2,3,4,5,6\n1,2,oops,4,5,6\n")
    (tmp / "flat.csv").write_text("1,2,3,4,5,6\n2,4,6,8,10,12\n")   # rank 1
    runs = [
        (0, "simulate", "--config", str(config), "--seed", "5", "--out", str(tmp / "s")),
        (0, "simulate", "--config", str(config), "--mode", "simulate-dynamic",
         "--seasons", "2", "--cycles", "1", "--seed", "5", "--out", str(tmp / "d")),
        (0, "simulate", *wide, "--n-obs", "300", "--seed", "5", "--out", str(tmp / "w")),
        (0, "fit", "--input", str(tmp / "s" / "data.csv"), *small, *tiny,
         "--out", str(tmp / "fs")),
        (0, "fit", "--input", str(tmp / "d"), "--seasons", "2", "--cycles", "1", *small, *tiny,
         "--out", str(tmp / "fd")),
        (0, "fit", "--input", str(tmp / "w" / "data.csv"), *wide, *tiny,
         "--out", str(tmp / "fw")),
        (0, "summarize", str(tmp / "fd" / "draws.csv"), "--truth", str(tmp / "d" / "truth.json")),
        (0, "check-hyper", "--input", str(tmp / "s" / "data.csv"), *small),
        (2, "fit", "--input", str(tmp / "bad.csv"), *small, "--out", str(tmp / "no")),
        (2, "fit", "--input", str(tmp / "flat.csv"), *small, "--out", str(tmp / "no")),
        (2, "fit", "--bogus", "1"),
    ]
    for code, *argv in runs:
        assert cli.main(argv) == code, argv


def test_every_function_is_reached_by_a_cli_run(tmp_path, monkeypatch):
    monkeypatch.setenv("SCKPD_THREADS", "1")
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        _run_every_verb(tmp_path)
    finally:
        sys.setprofile(None)
    reached = {(Path(code.co_filename).stem, code.co_qualname) for code in called
               if Path(code.co_filename).resolve().parent == SRC}
    defined = _defined()
    listed = NOT_REACHED | GUARDS
    assert listed <= defined, sorted(listed - defined)
    assert defined - reached == listed, (
        f"not reached and not listed: {sorted(defined - reached - listed)}; "
        f"listed but reached: {sorted(listed & reached)}")
