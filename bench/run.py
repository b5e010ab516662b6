"""Benchmark of ``sckpd fit``: end-to-end fit time, set-up time and peak
memory, plus a traced run that splits each fit into the package's layers.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout root is the parent of this file's directory.
The workload's data are simulated (untimed) with ``sckpd simulate`` at the
seed, then each fit runs as its own subprocess on those CSVs, one at a time,
with BLAS and ``SCKPD_THREADS`` pinned to one thread.  ``--trace 0`` reports
the end-to-end metrics, with fit and set-up times scaled to a reference
machine speed timed around each fit; ``--trace 1`` reports the per-layer
metrics from traced fits and standalone timings.  Both print every metric
with its unit, then one JSON line ``{"correct", "attempted", "failed",
"metrics"}``, and exit nonzero if any correctness check failed.  Work files
go to ``.bench_work/`` under the checkout root.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

PINNED_ENV = {
    "SCKPD_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# The entry point of the ``sckpd`` console script, run without installing it.
CLI = "import sys; from sckpd.cli import main; sys.exit(main())"

MIN_REPS = 3              # fits and set-up probes in an untraced run
PROBE_EVERY = 2           # fits per set-up probe in an untraced run
MIN_TRACED_PAIRS = 2      # (untraced, traced) fit pairs in a traced run
STANDALONE_MAX = 1000     # calls per standalone timing: p99 with ten beyond
STANDALONE_MIN = 10
TIME_LIMIT_S = 170.0      # a run, whatever happens, ends within 180 s
# fit_s and setup_s are scaled to the machine speed at which the reference
# loop takes this long; see reference_loop_s and bench/README.md
REFERENCE_LOOP_S = 0.010


@dataclass(frozen=True)
class Workload:
    """A dataset design and the fit settings run on it."""

    name: str
    kind: str                     # "static" | "dynamic"
    d1: int
    d2: int
    n_components: int
    n_warmup: int
    n_draws: int
    n_leapfrog: int
    preset: str | None = None     # a package preset, else the fields below
    n_obs: int = 500
    n_seasons: int = 1
    n_cycles: int = 1
    sim_config: tuple = ()        # extra simulation keys, passed as --config

    def block_files(self) -> list[str]:
        if self.kind == "static":
            return ["data.csv"]
        return [f"data_c{c}_s{s}.csv" for c in range(1, self.n_cycles + 1)
                for s in range(1, self.n_seasons + 1)]

    def stat_columns(self) -> list[str]:
        K = self.n_components
        columns = ["theta", "logdet_factor", "fro2_diag"]
        if self.kind == "static":
            return columns + [f"omega_sorted_{k + 1}" for k in range(K)] + ["fro2_lower"]
        for c in range(1, self.n_cycles + 1):
            for s in range(1, self.n_seasons + 1):
                columns += [f"omega_c{c}_s{s}_sorted_{k + 1}" for k in range(K)]
                columns += [f"fro2_lower_c{c}_s{s}"]
        return columns

    def model_args(self, verb: str) -> list[str]:
        if self.preset is not None:
            return ["--preset", self.preset]
        args = ["--mode", f"{verb}-{self.kind}", "--d1", str(self.d1), "--d2", str(self.d2),
                "--n-components", str(self.n_components), "--n-obs", str(self.n_obs)]
        if self.kind == "dynamic":
            args += ["--seasons", str(self.n_seasons), "--cycles", str(self.n_cycles)]
        return args

    def fit_args(self, seed: int, input_path: Path, out: Path) -> list[str]:
        return ["fit", *self.model_args("fit"), "--chains", "1",
                "--warmup", str(self.n_warmup), "--draws", str(self.n_draws),
                "--leapfrog", str(self.n_leapfrog), "--seed", str(seed),
                "--input", str(input_path), "--out", str(out)]


WORKLOADS = {w.name: w for w in (
    Workload("static-paper", "static", 4, 5, 5, n_warmup=60, n_draws=40, n_leapfrog=16,
             preset="paper-static"),
    Workload("dynamic-paper", "dynamic", 5, 2, 5, n_warmup=12, n_draws=20, n_leapfrog=6,
             preset="paper-dynamic", n_seasons=4, n_cycles=3),
    Workload("static-wide", "static", 16, 16, 5, n_warmup=5, n_draws=5, n_leapfrog=2,
             n_obs=2000),
)}

# name -> unit.  A traced run reports every PER_LAYER metric.
END_TO_END = {"fit_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "harness.ingest_csv_s": "s",
    "harness.ingest_csv_fields_per_s": "fields/s",
    "model.data_summary_s": "s",
    "hyper.solve_s": "s",
    "model.posterior_calls": "count",
    "model.posterior_self_s": "s",
    "model.posterior_call_us_p50": "us",
    "model.posterior_call_us_p99": "us",
    "model.posterior_share": "fraction",
    "model.trace_quadratic_us": "us",
    "dynamic.posterior_calls": "count",
    "dynamic.posterior_self_s": "s",
    "dynamic.posterior_call_us_p50": "us",
    "dynamic.posterior_call_us_p99": "us",
    "dynamic.posterior_share": "fraction",
    "hmc.sample_s": "s",
    "hmc.self_s": "s",
    "hmc.leapfrog_ms": "ms",
    "hmc.accept_rate": "fraction",
    "hmc.divergences": "count",
    "hmc.step_size": "dimensionless",
    "hmc.min_ess": "count",
    "model.assemble_ldagger_calls": "count",
    "model.assemble_ldagger_s": "s",
    "hmc.diagnostics_s": "s",
    "harness.output_self_s": "s",
    "harness.summarize_draws_s": "s",
    "harness.runtime_warnings": "count",
    "trace.fit_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_frac": "fraction",
}


def run_child(cmd: list[str], log_stem: Path, env: dict,
              timeout: float) -> tuple[float, int, float]:
    """Run one subprocess to completion; returns (wall s, exit code, peak RSS MB).

    Standard output and error go to ``log_stem.out`` / ``log_stem.err``.  The
    peak RSS is the child's own, from ``os.wait4``.  A child still running
    after ``timeout`` seconds is killed.
    """
    with open(log_stem.with_suffix(".out"), "wb") as out, \
            open(log_stem.with_suffix(".err"), "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def reference_loop_s() -> float:
    """The machine's current speed: the median time of five runs of a fixed
    loop of interpreted Python and small NumPy calls, the mix a fit runs."""
    import numpy as np
    a = np.arange(400.0).reshape(20, 20) / 400.0
    times = []
    for _ in range(5):
        t = perf_counter()
        for _ in range(1500):
            float(np.einsum("ij,ij->", a, a @ a.T)) + sum(range(40))
        times.append(perf_counter() - t)
    return statistics.median(times)


def _exit_problems(code: int, log_stem: Path) -> list[str]:
    """A nonzero exit as a failure, with the last lines of standard error."""
    if code == 0:
        return []
    lines = log_stem.with_suffix(".err").read_text(errors="replace").strip().splitlines()
    return [f"exit code {code}: {' | '.join(lines[-3:])}"]


class BenchRun:
    """One benchmark run: the workload's data, its fits and probes, and the
    tally of attempted and failed operations."""

    def __init__(self, workload: Workload, seed: int, work: Path, env: dict):
        self.workload, self.seed, self.work, self.env = workload, seed, work, env
        self.data_dir = work / "data"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.time_limit = perf_counter() + TIME_LIMIT_S
        self._loop_s = reference_loop_s()
        self._n = 0

    @property
    def out_of_time(self) -> bool:
        return perf_counter() >= self.time_limit

    def _run(self, cmd: list[str], log_stem: Path) -> tuple[float, float, int, float]:
        """run_child, plus the factor that scales a time taken during the
        child to the reference speed: the reference loop is timed before and
        after it (the previous child's "after" is this one's "before")."""
        before = self._loop_s
        wall, code, rss = run_child(cmd, log_stem, self.env,
                                    max(self.time_limit - perf_counter(), 1.0))
        self._loop_s = reference_loop_s()
        return wall, 2.0 * REFERENCE_LOOP_S / (before + self._loop_s), code, rss

    @property
    def input_path(self) -> Path:
        return self.data_dir if self.workload.kind == "dynamic" else self.data_dir / "data.csv"

    def record(self, label: str, problems: list[str]) -> bool:
        """Count one operation; True if it passed its checks."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)
        return not problems

    def simulate(self) -> bool:
        self.data_dir.mkdir(parents=True)
        args = ["simulate", *self.workload.model_args("simulate"),
                "--seed", str(self.seed), "--out", str(self.data_dir)]
        if self.workload.sim_config:
            config = self.work / "simulate.yaml"
            config.write_text(json.dumps(dict(self.workload.sim_config)))
            args += ["--config", str(config)]
        stem = self.work / "simulate"
        _, _, code, _ = self._run([sys.executable, "-c", CLI, *args], stem)
        return self.record("simulate", _exit_problems(code, stem))

    def fit(self, traced: bool) -> dict | None:
        """One fit subprocess through the fit gate; None if it failed."""
        from gate import check_fit_output
        from tracer import check_tree
        self._n += 1
        out = self.work / f"fit{self._n}"
        argv = self.workload.fit_args(self.seed, self.input_path, out)
        spans_path = out.with_suffix(".spans.json")
        cmd = ([sys.executable, str(BENCH_DIR / "traced_fit.py"), str(spans_path), *argv]
               if traced else [sys.executable, "-c", CLI, *argv])
        wall, scale, code, rss = self._run(cmd, out)
        record = {"wall_s": wall, "scaled_s": wall * scale, "rss_mb": rss, "out": out}
        problems = _exit_problems(code, out) or check_fit_output(out, self.workload.stat_columns())
        if not problems:
            digest = hashlib.sha256((out / "draws.csv").read_bytes()).hexdigest()
            self.digest = self.digest or digest
            if digest != self.digest:
                problems.append("draws.csv differs from the first fit of this seed")
        if not problems and traced:
            record["trace"] = json.loads(spans_path.read_text())
            problems = check_tree(record["trace"]["spans"])
        label = f"{'traced ' if traced else ''}fit {self._n}"
        return record if self.record(label, problems) else None

    def setup_probe(self) -> dict | None:
        """One fresh-interpreter set-up probe; None if it failed."""
        self._n += 1
        stem = self.work / f"setup{self._n}"
        paths = [str(self.data_dir / f) for f in self.workload.block_files()]
        cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
               str(self.workload.d1), str(self.workload.d2), *paths]
        _, scale, code, _ = self._run(cmd, stem)
        if not self.record(f"setup probe {self._n}", _exit_problems(code, stem)):
            return None
        probe = json.loads(stem.with_suffix(".out").read_text())
        probe["scaled_s"] = probe["setup_s"] * scale
        return probe


def measure_end_to_end(bench_run: BenchRun, seconds: float) -> tuple[dict, dict]:
    """Fits for ``seconds``, with a set-up probe after every PROBE_EVERY-th."""
    fits, probes = [], []
    deadline = perf_counter() + seconds
    while True:
        fits.append(bench_run.fit(traced=False))
        if len(fits) % PROBE_EVERY == 1:
            probes.append(bench_run.setup_probe())
        if (min(len(fits), len(probes)) >= MIN_REPS and perf_counter() >= deadline
                or bench_run.out_of_time):
            break
    return _end_to_end(fits, probes), {"unscaled": _unscaled(fits, probes),
                                       "fits": fits, "probes": probes}


def _end_to_end(fits, probes) -> dict:
    """Medians over the fits and probes that passed; a metric without any
    sample is left out."""
    samples = {
        "fit_s": [f["scaled_s"] for f in fits if f],
        "setup_s": [p["scaled_s"] for p in probes if p],
        "peak_rss_mb": [f["rss_mb"] for f in fits if f],
    }
    return {name: statistics.median(values) for name, values in samples.items() if values}


def _unscaled(fits, probes) -> dict:
    """The end-to-end times as measured, before scaling to the reference speed."""
    fits = [f["wall_s"] for f in fits if f]
    probes = [p["setup_s"] for p in probes if p]
    return {"fit_s": statistics.median(fits) if fits else None,
            "setup_s": statistics.median(probes) if probes else None}


def span_metrics(trace: dict) -> tuple[dict, dict]:
    """Per-layer figures of one traced fit, and the posterior call durations."""
    from tracer import DIAGNOSTIC_SPANS, self_times
    spans = trace["spans"]
    own = self_times(spans)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, list[float]] = {}
    for (name, start, end, _), s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + s
        calls.setdefault(name, []).append(end - start)
    root = spans[0][2] - spans[0][1]
    out = {
        "trace.fit_s": root,
        "trace.self_sum_s": sum(own),
        "harness.ingest_csv_s": total.get("harness.ingest_csv", 0.0),
        "model.data_summary_s": total.get("model.data_summary", 0.0),
        "hyper.solve_s": total.get("hyper.prior_targets", 0.0) + total.get("hyper.solve", 0.0),
        "hmc.sample_s": total.get("hmc.sample", 0.0),
        "hmc.self_s": self_s.get("hmc.sample", 0.0),
        "model.assemble_ldagger_calls": len(calls.get("model.assemble_ldagger", [])),
        "model.assemble_ldagger_s": total.get("model.assemble_ldagger", 0.0),
        "hmc.diagnostics_s": sum(self_s.get(n, 0.0) for n in DIAGNOSTIC_SPANS),
        "harness.output_self_s": self_s.get("harness.fit", 0.0),
        "harness.runtime_warnings": trace["runtime_warnings"],
    }
    for layer in ("model", "dynamic"):
        durations = calls.get(f"{layer}.posterior", [])
        out[f"{layer}.posterior_calls"] = len(durations)
        out[f"{layer}.posterior_self_s"] = self_s.get(f"{layer}.posterior", 0.0)
        out[f"{layer}.posterior_share"] = out[f"{layer}.posterior_self_s"] / root
    return out, {layer: calls.get(f"{layer}.posterior", []) for layer in ("model", "dynamic")}


def _percentile(values: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def sampler_metrics(summary_path: Path) -> dict:
    """What the sampler did, from a fit's ``summary.json``."""
    summary = json.loads(summary_path.read_text())
    return {
        "hmc.accept_rate": statistics.median(summary["acceptance_rate"]),
        "hmc.divergences": sum(summary["divergences"]),
        "hmc.step_size": statistics.median(summary["adapted_step_size"]),
        "hmc.min_ess": min(entry["ess"] for entry in summary["stats"].values()),
    }


def time_calls(fn, budget_s: float) -> list[float]:
    """Durations of repeated calls: after one warm-up call, up to
    STANDALONE_MAX calls or until the budget is spent, at least STANDALONE_MIN."""
    fn()
    durations = []
    stop = perf_counter() + budget_s
    while len(durations) < STANDALONE_MAX:
        t = perf_counter()
        fn()
        durations.append(perf_counter() - t)
        if len(durations) >= STANDALONE_MIN and t >= stop:
            break
    return durations


def standalone_timings(bench_run: BenchRun, problem, draws_dir: Path,
                       budget_s: float) -> tuple[dict, dict]:
    """``model.trace_quadratic``, one ``hmc.leapfrog`` trajectory and
    ``harness.summarize_draws`` on fixed inputs derived from the seed."""
    import numpy as np
    import sckpd.harness
    import sckpd.hmc
    import sckpd.model
    from gate import GATE_STREAM, STATE_SD, fixed_state

    w = bench_run.workload
    rng = np.random.default_rng([bench_run.seed, GATE_STREAM + 1])
    static_layout = sckpd.model.StateLayout(w.d1, w.d2, w.n_components)
    params = static_layout.unpack(rng.normal(0.0, STATE_SD, size=static_layout.size))
    block = problem.first_block()
    q, _ = fixed_state(problem, bench_run.seed)
    p = rng.standard_normal(q.shape)
    grad = lambda x: problem.posterior(x)[1]  # noqa: E731
    draws, truth = draws_dir / "draws.csv", bench_run.data_dir / "truth.json"
    cases = {
        "model.trace_quadratic_us": (1e6, sckpd.model, "trace_quadratic", (params, block)),
        "hmc.leapfrog_ms": (1e3, sckpd.hmc, "leapfrog", (grad, q, p, 1e-4, w.n_leapfrog)),
        "harness.summarize_draws_s": (1.0, sckpd.harness, "summarize_draws", (draws, truth)),
    }
    metrics, samples = {}, {}
    for name, (scale, module, func, args) in cases.items():
        fn = getattr(module, func, None)
        if fn is None:   # removed from the package: reported as 0, and noted
            metrics[name], samples[name] = 0.0, {"n": 0, "missing": f"{module.__name__}.{func}"}
            continue
        durations = time_calls(lambda: fn(*args), budget_s)
        metrics[name] = statistics.median(durations) * scale
        samples[name] = {"n": len(durations), "p99": _percentile(durations, 99) * scale}
    return metrics, samples


def measure_layers(bench_run: BenchRun, problem, seconds: float) -> tuple[dict, dict, dict]:
    """Traced run: (untraced, traced) fit pairs, set-up probes, standalone timings.

    Returns the per-layer metrics (empty if no traced fit or probe passed),
    the end-to-end figures of the same run, and sample counts."""
    start = perf_counter()
    untraced, traced, probes = [], [], []
    while True:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for is_traced in order:
            (traced if is_traced else untraced).append(bench_run.fit(traced=is_traced))
        if (len(traced) >= MIN_TRACED_PAIRS and perf_counter() - start >= 0.55 * seconds
                or bench_run.out_of_time):
            break
    while True:
        probes.append(bench_run.setup_probe())
        if (len(probes) >= MIN_REPS and perf_counter() - start >= 0.7 * seconds
                or bench_run.out_of_time):
            break
    end_to_end = _end_to_end(untraced, probes)
    traced = [t for t in traced if t]
    probes = [p for p in probes if p]
    if not traced or not probes or "fit_s" not in end_to_end:
        return {}, end_to_end, {}

    per_fit, posterior_calls = [], {"model": [], "dynamic": []}
    for record in traced:
        figures, durations = span_metrics(record["trace"])
        per_fit.append(figures)
        for layer in posterior_calls:
            posterior_calls[layer] += durations[layer]
    metrics = {name: statistics.median([f[name] for f in per_fit]) for name in per_fit[0]}
    for name, unit in PER_LAYER.items():
        if unit == "count" and name in metrics:
            metrics[name] = statistics.median_low([f[name] for f in per_fit])
    samples = {}
    for layer, durations in posterior_calls.items():
        metrics[f"{layer}.posterior_call_us_p50"] = _percentile(durations, 50) * 1e6
        metrics[f"{layer}.posterior_call_us_p99"] = _percentile(durations, 99) * 1e6
        samples[f"{layer}.posterior_call_us"] = {"n": len(durations)}
    ingest_s = metrics["harness.ingest_csv_s"]
    fields = probes[0]["fields"]
    metrics["harness.ingest_csv_fields_per_s"] = fields / ingest_s if ingest_s else 0.0
    metrics["cli.import_s"] = statistics.median([p["import_s"] for p in probes])
    samples["cli.import_s"] = {"n": len(probes)}
    metrics.update(sampler_metrics(traced[0]["out"] / "summary.json"))
    metrics["trace.overhead_frac"] = (statistics.median([t["scaled_s"] for t in traced])
                                      / end_to_end["fit_s"] - 1.0)
    remaining = seconds - (perf_counter() - start)
    standalone, standalone_samples = standalone_timings(
        bench_run, problem, traced[0]["out"], max(remaining, 0.3 * seconds) / 3)
    metrics.update(standalone)
    samples.update(standalone_samples)
    samples["missing_targets"] = traced[0]["trace"]["missing_targets"]
    samples["unscaled"] = _unscaled(untraced, probes)
    samples["fit_s"] = {"untraced": [f and (f["wall_s"], f["scaled_s"]) for f in untraced],
                        "traced": [(t["wall_s"], t["scaled_s"]) for t in traced]}
    return metrics, end_to_end, samples


def environment(seed: int) -> dict:
    """Read-only record of what the numbers were measured on."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "--no-optional-locks", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "threads": {k: os.environ.get(k) for k in PINNED_ENV},
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".bench_work",
                        help="where data, fit outputs and the result record go")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "sckpd" / "cli.py").is_file():
        print(f"error: no sckpd sources under {src}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import sckpd
    if Path(sckpd.__file__).resolve().parent != (src / "sckpd").resolve():
        print(f"error: sckpd imported from {sckpd.__file__}, not from {src}", file=sys.stderr)
        return 2
    from gate import check_posterior, load_problem

    work = args.work_dir / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench_run = BenchRun(workload, args.seed, work, env)
    metrics, end_to_end, samples = {}, {}, {}
    if bench_run.simulate():
        problem = load_problem(workload, bench_run.data_dir)
        if bench_run.record("posterior gate", check_posterior(problem, args.seed)):
            if args.trace:
                metrics, end_to_end, samples = measure_layers(bench_run, problem, args.seconds)
            else:
                end_to_end, samples = measure_end_to_end(bench_run, args.seconds)
                metrics = end_to_end

    units = PER_LAYER if args.trace else END_TO_END
    all_units = {**END_TO_END, **PER_LAYER}
    for name, value in {**end_to_end, **metrics}.items():
        print(f"{name:34s} {value:>16.6g} {all_units[name]}")
    if "unscaled" in samples:
        print("unscaled: " + json.dumps(samples["unscaled"]))
    for failure in bench_run.failures:
        print(f"FAILED {failure}")
    env_record = environment(args.seed)
    print("environment: " + json.dumps(env_record, sort_keys=True))
    correct = not bench_run.failures and set(metrics) == set(units)
    result = {
        "correct": correct,
        "attempted": max(bench_run.attempted, 1),
        "failed": bench_run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    with open(work / "result.json", "w") as fh:
        json.dump(dict(result, workload=workload.name, trace=args.trace,
                       environment=env_record, failures=bench_run.failures,
                       samples=samples), fh, indent=2, default=str)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
