"""Every benchmark workload runs end to end and passes its own exact
checks: one short pass per workload through bench/run.py, untraced and
traced."""

import importlib
import json
import subprocess
import sys
from types import SimpleNamespace

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
    traced pass builds a fresh cp2_weighted and runs seven series on it,
    the first of which polarizes its 3 fixed points once for the
    dataset's lifetime (3 polarizations), and one period-2 fit, which
    interpolates without an exact solve, and the onset scan and phase
    split are seen by the tracer."""
    metrics = _run(workload, "--trace", "1")["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    if workload == "series":
        assert metrics["localize.polarize.calls"]["value"] == 3
        assert metrics["ehrhart.fit_quasi_polynomial.calls"]["value"] == 1
        assert metrics["lattice.solve_exact.calls"]["value"] == 0
        assert metrics["qrverify.onset_threshold.s"]["value"] > 0
        assert metrics["ehrhart.phase_decomposition.s"]["value"] > 0


def test_series_passes_expand_once_per_multiset_and_level(monkeypatch):
    """A deterministic work counter: the series job list of a seed runs on
    one cp2_weighted, which holds its expansions, so the first pass
    expands each of its 2 column multisets only when a job reads it
    deeper than it is held, 3 or 4 times in all on seeds 1-3 (21 per pass
    when every job expanded every fixed point), and a second pass none."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import jobs
    from locmult import localize

    calls = []
    original = localize._expand

    def counting(cols, eta, level):
        calls.append((tuple(sorted(cols)), level))
        return original(cols, eta, level)

    monkeypatch.setattr(localize, "_expand", counting)
    mods = SimpleNamespace(**{name: importlib.import_module(f"locmult.{name}")
                              for name in ("fpdata", "lattice", "localize", "qrverify")})
    for seed, expected in ((1, 4), (2, 3), (3, 3)):
        job_list, held = jobs.series_jobs(mods, seed, None), {}
        for made in (expected, 0):
            calls.clear()
            assert all(job.check(job.run({})) for job in job_list)
            assert len(calls) == made, seed
            for multiset, level in calls:
                assert level > held.get(multiset, -1), (seed, multiset)
                held[multiset] = level
        assert len(held) == 2


def test_weyl_passes_expand_once_per_root_system_and_level(monkeypatch):
    """A deterministic work counter, the twin of the series one: the weyl
    job list of a seed runs on one A2 and one B2, which hold their Kostant
    partition functions, so the first pass expands only when a job asks a
    system deeper than it holds, 3 times on seeds 1-3 (the first A2 and B2
    characters, then the deeper drawn B2 weight), and a second pass none."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import jobs
    from locmult import localize

    calls = []
    original = localize._expand

    def counting(cols, eta, level):
        calls.append((tuple(sorted(cols)), level))
        return original(cols, eta, level)

    monkeypatch.setattr(localize, "_expand", counting)
    mods = SimpleNamespace(**{name: importlib.import_module(f"locmult.{name}")
                              for name in ("lattice", "weylred")})
    for seed in (1, 2, 3):
        job_list, held, results = jobs.weyl_jobs(mods, seed, None), {}, {}
        for made in (3, 0):
            calls.clear()
            for job in job_list:
                results[job.label] = job.run(results)
                assert job.check(results[job.label]), (seed, job.label)
            assert len(calls) == made, seed
            for roots, level in calls:
                assert level > held.get(roots, -1), (seed, roots)
                held[roots] = level
        assert len(held) == 2
