"""Self-test of bench/run.py on a tiny 3x2, K=2 static workload.

Run with:  python3 -m pytest bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import sckpd.model  # noqa: E402

TINY = run.Workload("tiny", "static", 3, 2, 2, n_warmup=10, n_draws=10, n_leapfrog=4,
                    n_obs=200, sim_config=(("omega_weights", [1.0, 2.0]),))


@pytest.fixture
def bench(monkeypatch, tmp_path, capsys):
    """Runs bench/run.py on TINY; returns (exit code, result JSON, printed lines)."""
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    for name, value in run.PINNED_ENV.items():
        monkeypatch.setenv(name, value)

    def invoke(trace: int):
        code = run.main(["--workload", TINY.name, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--work-dir", str(tmp_path)])
        lines = capsys.readouterr().out.strip().splitlines()
        return code, json.loads(lines[-1]), lines
    return invoke


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_clean_run_emits_every_metric_and_passes_the_gate(bench, trace):
    code, result, lines = bench(trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
               if line.split() and line.split()[0] in {**run.END_TO_END, **run.PER_LAYER}}
    assert printed == ({**run.END_TO_END, **run.PER_LAYER} if trace else run.END_TO_END)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.fit_s"], rel=1e-9)
        assert metrics["model.posterior_calls"] > 0
        assert metrics["dynamic.posterior_calls"] == 0


def _off_by(scale_value: float, scale_grad: float):
    original = sckpd.model.log_posterior_grad

    def wrong(*args, **kwargs):
        value, grad = original(*args, **kwargs)
        return value * scale_value, grad * scale_grad
    return wrong


@pytest.mark.parametrize("scale_value, scale_grad", [(1.0 + 1e-6, 1.0), (1.0, 1.0 + 1e-3)])
def test_wrong_posterior_fails_the_gate(bench, monkeypatch, scale_value, scale_grad):
    monkeypatch.setattr(sckpd.model, "log_posterior_grad", _off_by(scale_value, scale_grad))
    code, result, lines = bench(0)
    assert code != 0
    assert not result["correct"]
    assert any(line.startswith("FAILED posterior gate") for line in lines)
