"""Every benchmark workload runs end to end and passes its own exact
checks: one short pass per workload through bench/run.py, untraced and
traced."""

import json
import subprocess
import sys

import pytest

from conftest import DATASETS

ROOT = DATASETS.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload, *extra):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_is_correct(workload):
    _run(workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_is_correct_traced(workload):
    """The tracer rebinds each traced function wherever a locmult module
    imported it, and puts every one back; the traced passes still pass
    their checks and report every per-layer metric.  On series, each
    pass runs seven series on the 3 fixed points of cp2_weighted (21
    polarizations) and one period-2 fit, which interpolates without an
    exact solve, and the onset scan and phase split are seen by the
    tracer."""
    metrics = _run(workload, "--trace", "1")["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    if workload == "series":
        assert metrics["localize.polarize.calls"]["value"] == 21
        assert metrics["ehrhart.fit_quasi_polynomial.calls"]["value"] == 1
        assert metrics["lattice.solve_exact.calls"]["value"] == 0
        assert metrics["qrverify.onset_threshold.s"]["value"] > 0
        assert metrics["ehrhart.phase_decomposition.s"]["value"] > 0
