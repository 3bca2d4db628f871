"""Outside-in tracing of the locmult layers.

A Tracer replaces each traced public function at every place it is
bound -- the defining module and every locmult module that imported it
by name -- with a wrapper that records one span per call: name, start,
end, parent span and job id.  Spans stay in memory until the run ends;
self time is derived from them afterwards.  `uninstall` puts every
original back and checks that no wrapper is left anywhere.

LAYER_METRICS is the single list of per-layer metrics.  Each entry
names the end-to-end metric and workload it should move; BENCHMARK.json
mirrors the first three fields.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) pairs; "Class.method" patches the class attribute.
TRACED = (
    ("localize", "count_partitions"),
    ("localize", "polarize"),
    ("localize", "character_table"),
    ("localize", "multiplicity"),
    ("localize", "multiplicity_series"),
    ("lattice", "pick_generic_direction"),
    ("lattice", "generate_weyl_group"),
    ("lattice", "solve_exact"),
    ("lattice", "WeylElement.apply"),
    ("ehrhart", "fit_quasi_polynomial"),
    ("ehrhart", "minimal_period"),
    ("ehrhart", "phase_decomposition"),
    ("qrverify", "verify_structure"),
    ("qrverify", "onset_threshold"),
    ("weylred", "irreducible_character"),
    ("weylred", "decompose_character"),
    ("weylred", "tensor"),
    ("weylred", "is_w_invariant"),
    ("fpdata", "load_dataset"),
    ("cli", "main"),
    ("oracle", "monomial_character"),
)

# name, unit, better, the end-to-end metric and workload it should move
LAYER_METRICS = (
    ("localize.count_partitions.calls", "count", "lower", "wall_s, job_p50_s on table, series, weyl"),
    ("localize.count_partitions.s", "s", "lower", "wall_s, job_p50_s on table, series, weyl"),
    ("localize.count_partitions.nonzero_ratio", "ratio", "higher", "wall_s, job_p50_s on table, series, weyl"),
    ("localize.count_partitions.budget", "level", "lower", "wall_s on table, series, weyl: eta-level of the targets, the per-seed work"),
    ("localize.polarize.calls", "count", "lower", "wall_s on table"),
    ("localize.character_table.calls", "count", "lower", "wall_s on table"),
    ("localize.character_table.self_s", "s", "lower", "wall_s on table"),
    ("localize.fill_ratio", "ratio", "higher", "wall_s on table: nonzero entries per box cell"),
    ("localize.multiplicity.calls", "count", "lower", "wall_s on series"),
    ("localize.multiplicity.self_s", "s", "lower", "wall_s on series"),
    ("lattice.pick_generic_direction.s", "s", "lower", "recorded on all workloads"),
    ("lattice.generate_weyl_group.s", "s", "lower", "setup_s on weyl"),
    ("lattice.solve_exact.calls", "count", "lower", "wall_s on series"),
    ("lattice.solve_exact.s", "s", "lower", "wall_s on series"),
    ("lattice.WeylElement.apply.calls", "count", "lower", "wall_s on weyl"),
    ("lattice.WeylElement.apply.s", "s", "lower", "wall_s on weyl"),
    ("ehrhart.fit_quasi_polynomial.calls", "count", "lower", "wall_s on series"),
    ("ehrhart.fit_quasi_polynomial.s", "s", "lower", "wall_s on series"),
    ("ehrhart.minimal_period.s", "s", "lower", "wall_s on series"),
    ("ehrhart.phase_decomposition.s", "s", "lower", "wall_s on series"),
    ("qrverify.verify_structure.self_s", "s", "lower", "wall_s on series"),
    ("qrverify.onset_threshold.s", "s", "lower", "wall_s on series"),
    ("weylred.irreducible_character.calls", "count", "lower", "wall_s, job_p50_s on weyl"),
    ("weylred.irreducible_character.s", "s", "lower", "wall_s, job_p50_s on weyl"),
    ("weylred.irreducible_character.self_s", "s", "lower", "wall_s, job_p50_s on weyl"),
    ("weylred.decompose_character.self_s", "s", "lower", "wall_s, job_p50_s on weyl"),
    ("weylred.tensor.s", "s", "lower", "wall_s, job_p50_s on weyl"),
    ("weylred.is_w_invariant.s", "s", "lower", "wall_s, job_p50_s on weyl"),
    ("fpdata.load_dataset.calls", "count", "lower", "setup_s, job_p50_s on table"),
    ("fpdata.load_dataset.s", "s", "lower", "setup_s, job_p50_s on table"),
    ("cli.render.self_s", "s", "lower", "job_p50_s on table: cli.main minus the library spans under it"),
    ("oracle.monomial_character.s", "s", "lower", "none: runs only in the untimed check step"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced wall_s over untraced wall_s"),
)

# Metrics that are exact counts (or ratios of counts) and must repeat.
COUNTED = tuple(
    name for name, _, _, _ in LAYER_METRICS
    if name.endswith((".calls", "_ratio", ".budget")) and name != "trace.overhead_ratio"
)


def _observe_count(mods):
    pairing = mods.lattice.pairing

    def observe(args, result):
        problem = args[0]
        eff = problem.target - problem.shift
        for lb, a in zip(problem.lower_bounds, problem.columns):
            if lb:
                eff = eff - a
        budget = pairing(eff, problem.eta) if problem.eta is not None else 0
        return (result != 0, max(int(budget), 0))

    return observe


def _observe_table(args, result):
    ds, m = args[0], args[1]
    cells = 1
    for i in range(ds.rank):
        vals = [int(fp.fiber_weight.coords[i]) * m for fp in ds.fixed_points]
        cells *= max(vals) - min(vals) + 1
    return (len(result), cells)


class Tracer:
    """Records spans for calls into the wrapped locmult functions."""

    def __init__(self, mods):
        self.mods = mods
        self.spans: list[list] = []  # [name, start, end, parent, job, observed]
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()
        self._observers = {
            "localize.count_partitions": _observe_count(mods),
            "localize.character_table": _observe_table,
        }

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = self._observers.get(name)

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                span[5] = observe(args, result)
            return result

        self._wrappers.add(id(wrapper))
        return wrapper

    def _namespaces(self):
        """Every namespace a traced function can be bound in."""
        spaces = [
            m for k, m in sys.modules.items()
            if k == "locmult" or k.startswith("locmult.")
        ]
        return spaces + [self.mods.lattice.WeylElement]

    def install(self):
        modules = self._namespaces()
        for modname, attr in TRACED:
            module = getattr(self.mods, modname)
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patched.append((owner, meth, original))
                setattr(owner, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        leftover = [
            key
            for space in self._namespaces()
            for key, value in vars(space).items()
            if id(value) in self._wrappers
        ]
        self._wrappers.clear()
        if leftover:
            raise RuntimeError(f"tracer wrappers left installed: {leftover}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer values from one traced iteration's spans (without
    trace.overhead_ratio, which needs the untraced passes too)."""
    calls = defaultdict(int)
    total = defaultdict(float)
    child = [0.0] * len(spans)
    for name, start, end, parent, _job, _obs in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    for i, (name, start, end, _p, _j, _o) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]

    nonzero = budget = entries = cells = 0
    for name, _s, _e, _p, _j, obs in spans:
        if obs is None:
            continue
        if name == "localize.count_partitions":
            nonzero += obs[0]
            budget += obs[1]
        elif name == "localize.character_table":
            entries += obs[0]
            cells += obs[1]

    out = {}
    for metric, _unit, _better, _moves in LAYER_METRICS:
        if metric == "trace.overhead_ratio":
            continue
        if metric == "localize.count_partitions.nonzero_ratio":
            n = calls["localize.count_partitions"]
            out[metric] = nonzero / n if n else 0.0
        elif metric == "localize.count_partitions.budget":
            out[metric] = budget
        elif metric == "localize.fill_ratio":
            out[metric] = entries / cells if cells else 0.0
        elif metric == "cli.render.self_s":
            out[metric] = self_s["cli.main"]
        else:
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[span]
            elif kind == "s":
                out[metric] = total[span]
            else:
                out[metric] = self_s[span]
    return out


def job_counters(spans) -> dict[str, tuple[int, int, int]]:
    """Per job: count_partitions calls, nonzero results and budget."""
    acc: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for name, _s, _e, _p, job, obs in spans:
        if name == "localize.count_partitions" and obs is not None:
            row = acc[job]
            row[0] += 1
            row[1] += obs[0]
            row[2] += obs[1]
    return {job: tuple(row) for job, row in acc.items()}
