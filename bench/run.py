"""Closed-loop benchmark of locmult: one caller, no threads.

    python3 bench/run.py --workload table --seed 1 --seconds 40 --trace 0

Builds the workload's job list from the seed, then runs the whole list
again and again (a pass; the next job starts only when the previous one
returns) until --seconds are used, checking every answer exactly after
each pass, outside the timed span.  The last stdout line is one JSON
object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones (END_TO_END); with --trace 1 untraced
and traced passes alternate and the metrics are the per-layer ones from
spans.LAYER_METRICS.  A human summary, with the raw seconds and the
fail ratio (failed / attempted), goes to stderr.

Job times are reported in refs.  Before every job the benchmark times
reference_kernel, a fixed exact-rational computation that never touches
locmult; a ref is that kernel's mean wall (or CPU) time over the same
pass.  On the 2-core shared host this was tuned on, the CPU speed of a
process drifts by 40% within seconds and differs by as much between
fresh processes (cpu tracks wall, so it is not scheduling): over 6 fresh
25-second processes of one seed the median pass spread 0.19 to 0.21
(quartile distance over median) in seconds and 0.04 to 0.06 in refs.
setup_s stays in seconds: the median of SETUP_REPS fresh imports and
input builds.

The package is imported from src/ next to this directory; without it
the benchmark exits nonzero before printing a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
import types
from fractions import Fraction
from pathlib import Path

import jobs as workloads
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("localize", "lattice", "fpdata", "ehrhart", "qrverify", "weylred",
           "oracle", "cli")
END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("cpu_ref", "ref"),
              ("job_p50_ref", "ref"), ("peak_rss_mib", "MiB"))
SETUP_REPS = 7
MIN_PASSES = 3


def reference_kernel():
    """The unit of job time: exact rational arithmetic and tuple-keyed
    dict stores, the library's instruction mix, without the library."""
    acc, seen = Fraction(0), {}
    for i in range(1, 1500):
        acc += Fraction(i % 7, 3) * Fraction(2, i % 5 + 1)
        seen[(i, i % 13)] = acc
    return acc


def import_locmult():
    """Fresh import of every locmult module; the import is part of set-up."""
    for name in [n for n in sys.modules if n == "locmult" or n.startswith("locmult.")]:
        del sys.modules[name]
    mods = types.SimpleNamespace(
        **{m: importlib.import_module(f"locmult.{m}") for m in MODULES}
    )
    if not Path(mods.localize.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"locmult imported from outside {SRC}")
    return mods


class _Raised:
    def __init__(self, exc):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Pass:
    """Per-job wall and CPU seconds of one pass, and the pass's ref."""

    def __init__(self, walls, cpus, ref_walls, ref_cpus):
        self.walls, self.cpus = walls, cpus
        self.ref_wall = statistics.fmean(ref_walls)
        self.ref_cpu = statistics.fmean(ref_cpus)

    def wall_ref(self):
        return sum(self.walls) / self.ref_wall

    def cpu_ref(self):
        return sum(self.cpus) / self.ref_cpu


def run_pass(jobs, tracer=None):
    """Run every job once, in order, each after one reference_kernel.
    Returns the results by job label and the Pass timings."""
    results, walls, cpus, ref_walls, ref_cpus = {}, [], [], [], []
    for job in jobs:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference_kernel()
        ref_walls.append(time.perf_counter() - wall0)
        ref_cpus.append(time.process_time() - cpu0)
        if tracer is not None:
            tracer.job = job.label
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            results[job.label] = job.run(results)
        except Exception as exc:  # a failed job is counted, not fatal
            results[job.label] = _Raised(exc)
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
    return results, Pass(walls, cpus, ref_walls, ref_cpus)


def count_failures(jobs, results, tracer=None) -> int:
    """Exact checks of one pass; every failure is reported on stderr."""
    if tracer is not None:
        tracer.job = "check"
    failed = 0
    for job in jobs:
        value = results.get(job.label)
        try:
            ok = not isinstance(value, _Raised) and job.check(value) is True
            reason = value.text if isinstance(value, _Raised) else "wrong answer"
        except Exception as exc:  # a crashing check is a failed job
            ok, reason = False, f"check raised {exc!r}"
        if not ok:
            failed += 1
            print(f"FAIL {job.label}: {reason}", file=sys.stderr)
    return failed


def setup(build, seed, workdir, reps):
    """Import and build the inputs `reps` times; the last build is used."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        mods = import_locmult()
        jobs = build(mods, seed, workdir)
        times.append(time.perf_counter() - t0)
    return mods, jobs, statistics.median(times)


def measure_plain(build, seed, seconds, workdir):
    mods, jobs, setup_s = setup(build, seed, workdir, SETUP_REPS)
    passes = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results, timing = run_pass(jobs)
        failed += count_failures(jobs, results)
        attempted += len(jobs)
        passes.append(timing)
        lap = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + lap > seconds:
            break
    per_job = [
        statistics.median(p.walls[j] / p.ref_wall for p in passes)
        for j in range(len(jobs))
    ]
    values = {
        "setup_s": setup_s,
        "wall_ref": statistics.median(p.wall_ref() for p in passes),
        "cpu_ref": statistics.median(p.cpu_ref() for p in passes),
        "job_p50_ref": statistics.median(per_job),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    raw = {
        "wall_s": statistics.median(sum(p.walls) for p in passes),
        "cpu_s": statistics.median(sum(p.cpus) for p in passes),
        "job_p50_s": statistics.median(
            statistics.median(p.walls[j] for p in passes) for j in range(len(jobs))
        ),
        "ref_s": statistics.median(p.ref_wall for p in passes),
    }
    return attempted, failed, True, metrics, {"passes": len(passes), "jobs": len(jobs), **raw}


def measure_traced(build, seed, seconds, workdir):
    mods, jobs, _ = setup(build, seed, workdir, 1)
    plain, traced, per_iter = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results, timing = run_pass(jobs)
        failed += count_failures(jobs, results)
        attempted += len(jobs)
        plain.append(timing.wall_ref())

        tracer = spans.Tracer(mods)
        with tracer:
            tracer.job = "setup"
            traced_jobs = build(mods, seed, workdir)
            results, timing = run_pass(traced_jobs, tracer)
            failed += count_failures(traced_jobs, results, tracer)
        attempted += len(traced_jobs)
        traced.append(timing.wall_ref())
        per_iter.append(spans.layer_metrics(tracer.spans))
        if len(per_iter) == 1:
            counters = spans.job_counters(tracer.spans)
        lap = time.perf_counter() - t0
        if time.perf_counter() - start + lap > seconds:
            break

    repeat = all(it[name] == per_iter[0][name] for it in per_iter for name in spans.COUNTED)
    if not repeat:
        print("FAIL counted per-layer metrics differ between passes", file=sys.stderr)
    metrics = {}
    for name, unit, _better, _moves in spans.LAYER_METRICS:
        if name == "trace.overhead_ratio":
            value = statistics.median(traced) / statistics.median(plain)
        elif name in spans.COUNTED:
            value = per_iter[0][name]
        else:
            value = statistics.median(it[name] for it in per_iter)
        metrics[name] = (value, unit)
    for job, (calls, nonzero, budget) in sorted(counters.items()):
        print(f"counters {job}: count_partitions calls={calls} nonzero={nonzero} "
              f"budget={budget}", file=sys.stderr)
    return attempted, failed, repeat, metrics, {"passes": 2 * len(plain), "jobs": len(jobs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "locmult" / "__init__.py").is_file():
        print(f"error: no locmult package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    measure = measure_traced if args.trace else measure_plain
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        attempted, failed, repeat, metrics, info = measure(
            build, args.seed, args.seconds, Path(tmp)
        )

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{info.pop('passes')} passes of {info.pop('jobs')} jobs", file=sys.stderr)
    summary = [(name, value, unit) for name, (value, unit) in metrics.items()]
    summary += [(name, value, "s") for name, value in info.items()]
    summary.append(("fail_ratio", failed / attempted, "ratio"))
    for name, value, unit in summary:
        print(f"  {name:42s} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
