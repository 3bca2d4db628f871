"""Self-test of the benchmark's own code.

    python3 bench/selftest.py        (about a minute)

It is not named test_*.py, so the repository's test suite does not
collect it: the exact call counts below belong to the library's current
algorithm, and a change to that algorithm should update them here, in
the benchmark, not fail the library's suite.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# Counters that depend only on sizes, never on what the seed draws.
SEED_FREE = {
    "table": ("localize.count_partitions.calls", "localize.polarize.calls",
              "localize.character_table.calls", "fpdata.load_dataset.calls"),
    "series": ("localize.count_partitions.calls", "localize.multiplicity.calls",
               "localize.polarize.calls", "lattice.solve_exact.calls",
               "ehrhart.fit_quasi_polynomial.calls", "fpdata.load_dataset.calls"),
    "weyl": ("lattice.solve_exact.calls",),
}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.mods = run.import_locmult()
        cls.tmp = tempfile.TemporaryDirectory(prefix=".work-", dir=HERE)
        cls.workdir = Path(cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def dataset(self, weights, strata=None):
        doc = gen.projective_document(weights, range(len(weights)), strata)
        return self.mods.fpdata.load_dataset(doc)

    def traced_pass(self, workload, seed):
        tracer = spans.Tracer(self.mods)
        with tracer:
            job_list = jobs.WORKLOADS[workload](self.mods, seed, self.workdir)
            results, _ = run.run_pass(job_list, tracer)
            failed = run.count_failures(job_list, results, tracer)
        self.assertEqual(failed, 0)
        return spans.layer_metrics(tracer.spans)

    def test_count_partitions_calls_at_reference_sizes(self):
        m = self.mods
        cases = [
            (lambda: m.localize.character_table(self.dataset(gen.CP2_STANDARD), 20), 1323),
            (lambda: m.localize.character_table(self.dataset(gen.CP3_STANDARD), 8), 2916),
        ]
        wv = m.lattice.WeightVector
        a2 = m.lattice.generate_weyl_group(
            tuple(wv(r) for r in gen.A2["simple_roots"]), gen.A2["cartan_pairing"]
        )
        cases.append((lambda: m.weylred.irreducible_character(a2, wv((4, 2, 0))), 295))
        for call, expected in cases:
            tracer = spans.Tracer(m)
            with tracer:
                call()
            self.assertEqual(
                spans.layer_metrics(tracer.spans)["localize.count_partitions.calls"],
                expected,
            )

    def test_identity_draw_reproduces_shipped_datasets(self):
        load = self.mods.fpdata.load_dataset_file
        shipped = ROOT / "datasets"
        for name, weights, strata in (
            ("cp2_standard", gen.CP2_STANDARD, None),
            ("cp3_standard", gen.CP3_STANDARD, None),
            ("cp2_weighted", gen.CP2_WEIGHTED, gen.CP2_WEIGHTED_STRATA),
        ):
            ours = self.dataset(weights, strata)
            theirs = load(shipped / f"{name}.json")
            self.assertEqual(ours.fixed_points, theirs.fixed_points, name)
            self.assertEqual(ours.strata, theirs.strata, name)

    def test_generated_datasets_pass_validate_and_oracle(self):
        m = self.mods
        wv = m.lattice.WeightVector
        for seed in range(4):
            cases = [(t.document, t.coord_weights) for t in gen.table_inputs(seed)]
            series = gen.series_input(seed)
            cases.append((series.document, series.coord_weights))
            for document, weights in cases:
                ds = m.fpdata.load_dataset(document)
                self.assertTrue(m.fpdata.validate(ds).ok)
                oracle = m.oracle.monomial_character(
                    m.oracle.ProjectiveActionSpec(tuple(wv(w) for w in weights), 2)
                )
                self.assertEqual(m.localize.character_table(ds, 2), oracle)

    def test_seed_draws_symmetries_never_sizes(self):
        def shape(seed):
            return [
                (t.m, len(t.coord_weights), sorted(abs(x) for w in t.coord_weights for x in w))
                for t in gen.table_inputs(seed)
            ]

        self.assertEqual(gen.table_inputs(5), gen.table_inputs(5))
        self.assertEqual(gen.weyl_input(5), gen.weyl_input(5))
        self.assertEqual(gen.series_input(5), gen.series_input(5))
        self.assertTrue(any(gen.table_inputs(0) != gen.table_inputs(s) for s in range(1, 5)))
        for seed in range(1, 8):
            self.assertEqual(shape(seed), shape(0))

    def test_counters_repeat_across_runs_and_seeds(self):
        for workload, seed_free in SEED_FREE.items():
            first = self.traced_pass(workload, 1)
            again = self.traced_pass(workload, 1)
            other = self.traced_pass(workload, 2)
            for name in spans.COUNTED:
                self.assertEqual(first[name], again[name], (workload, name))
            for name in seed_free:
                self.assertEqual(first[name], other[name], (workload, name))
                self.assertGreater(first[name], 0, (workload, name))

    def test_tracer_restores_every_binding_site(self):
        def bindings():
            return {
                (id(space), key): value
                for space in spans.Tracer(self.mods)._namespaces()
                for key, value in vars(space).items()
            }

        before = bindings()
        tracer = spans.Tracer(self.mods)
        with tracer:
            patched = bindings()
            self.assertIsNot(self.mods.weylred.count_partitions,
                             before[(id(self.mods.weylred), "count_partitions")])
            self.assertIsNot(self.mods.ehrhart.count_partitions,
                             before[(id(self.mods.ehrhart), "count_partitions")])
            self.assertIsNot(self.mods.cli.character_table,
                             before[(id(self.mods.cli), "character_table")])
        self.assertNotEqual(before, patched)
        self.assertEqual(bindings(), before)

    def test_failures_are_counted_not_fatal(self):
        def boom(_results):
            raise ValueError("boom")

        job_list = [
            jobs.Job("raises", boom, lambda value: True),
            jobs.Job("wrong", lambda r: 1, lambda value: value == 2),
            jobs.Job("right", lambda r: 2, lambda value: value == 2),
        ]
        results, timing = run.run_pass(job_list)
        self.assertEqual(len(timing.walls), 3)
        self.assertEqual(run.count_failures(job_list, results), 2)

    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            spec["per_layer"],
            [{"name": n, "unit": u, "better": b} for n, u, b, _ in spans.LAYER_METRICS],
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(jobs.WORKLOADS))
        self.assertEqual(
            [(e["name"], e["unit"]) for e in spec["end_to_end"]],
            [(n, u) for n, u in run.END_TO_END],
        )


if __name__ == "__main__":
    unittest.main()
