"""Workload job lists and their exact checks.

A job is one public call, or one in-process CLI invocation, that the
benchmark times on its own.  `run` gets the results of the earlier jobs of
the same pass; `check` runs after the pass, outside the timed span, and
returns whether the answer is exactly right.  Every call goes through
the module attribute at call time, so a traced run sees every call.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import gen


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable[[dict], object]
    check: Callable[[object], bool]


def _parsed(mods, document):
    ds = mods.fpdata.load_dataset(document)
    report = mods.fpdata.validate(ds)
    if not report.ok:
        raise RuntimeError(f"generated dataset is invalid: {report.errors}")
    return ds


# --- table: full character tables through the CLI -------------------------


def _cli(mods, argv):
    def run(_results):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = mods.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return run


def _table_check(mods, inp):
    def check(text):
        got, total = {}, None
        for line in text.splitlines():
            rec = json.loads(line)
            if rec["record"] == "character-entry":
                got[tuple(rec["weight"])] = rec["multiplicity"]
            elif rec["record"] == "character-total":
                total = rec["dimension"]
        weights = tuple(mods.lattice.WeightVector(w) for w in inp.coord_weights)
        oracle = mods.oracle.monomial_character(
            mods.oracle.ProjectiveActionSpec(weights, inp.m)
        )
        want = {tuple(int(c) for c in w.coords): n for w, n in oracle.items()}
        return got == want and total == sum(want.values())

    return check


def table_jobs(mods, seed, workdir):
    jobs = []
    for inp in gen.table_inputs(seed):
        path = workdir / f"{inp.name}.json"
        path.write_text(inp.document, encoding="utf-8")
        _parsed(mods, inp.document)
        argv = ["character", "--dataset", str(path), "--m", str(inp.m),
                "--format", "records"]
        jobs.append(Job(inp.name, _cli(mods, argv), _table_check(mods, inp)))
    return jobs


# --- series: verify_structure and multiplicity series on cp2_weighted -----


def cp2_weighted_value(weight: int, m: int) -> int:
    """Closed form of the cp2_weighted multiplicities (monomials
    x^i y^j z^k of degree m with weight i - j)."""
    return 1 + (m - abs(weight)) // 2 if abs(weight) <= m else 0


def _series_ok(series, mu, mode, m_to):
    return list(series) == [
        (m, cp2_weighted_value(mu if mode == "fixed" else m * mu, m))
        for m in range(1, m_to + 1)
    ]


def series_jobs(mods, seed, _workdir):
    inp = gen.series_input(seed)
    ds = _parsed(mods, inp.document)
    wv = mods.lattice.WeightVector
    m_max = gen.SERIES_VERIFY_M_MAX
    phases = {1: (Fraction(3, 4), Fraction(1, 2)), -1: (Fraction(1, 4),)}

    def verify(_results):
        return mods.qrverify.verify_structure(ds, wv((0,)), ds.strata, m_max)

    def verify_ok(report):
        return (
            report.onset == 1
            and report.phase_polys == phases
            and report.phases_ok
            and _series_ok(report.series, 0, "scaled", m_max)
        )

    jobs = [Job("verify_structure", verify, verify_ok)]
    queries = [("fixed", mu, gen.SERIES_FIXED_M) for mu in inp.fixed_mu]
    queries += [("scaled", mu, gen.SERIES_SCALED_M) for mu in (1, -1)]
    for i, (mode, mu, m_to) in enumerate(queries, start=1):
        def run(_results, mode=mode, mu=mu, m_to=m_to):
            return mods.localize.multiplicity_series(ds, wv((mu,)), 1, m_to, mode)

        def check(series, mode=mode, mu=mu, m_to=m_to):
            return _series_ok(series, mu, mode, m_to)

        jobs.append(Job(f"{i}:{mode}{mu:+d}", run, check))
    return jobs


# --- weyl: irreducible characters, tensor products, decomposition ---------


def weyl_jobs(mods, seed, _workdir):
    inp = gen.weyl_input(seed)
    wv = mods.lattice.WeightVector
    systems = {
        name: (spec, mods.lattice.generate_weyl_group(
            tuple(wv(r) for r in spec["simple_roots"]), spec["cartan_pairing"]
        ))
        for name, spec in (("A2", gen.A2), ("B2", gen.B2))
    }
    jobs = []

    def irreducible(system, lam, dim=None):
        spec, rs = systems[system]
        want = gen.weyl_dimension(spec, lam) if dim is None else dim
        label = f"{len(jobs)}:{system}{lam}"

        def run(_results):
            return mods.weylred.irreducible_character(rs, wv(lam))

        def check(chi):
            return chi.total() == want and chi[wv(lam)] == 1

        jobs.append(Job(label, run, check))
        return label, want

    def tensor_chain(system, lam1, lam2):
        spec, rs = systems[system]
        first, dim1 = irreducible(system, lam1)
        second, dim2 = irreducible(system, lam2)
        product = f"{len(jobs)}:{system}{lam1}x{lam2}"

        def run_tensor(results):
            return mods.weylred.tensor(results[first], results[second])

        def run_decompose(results):
            return mods.weylred.decompose_character(results[product], rs)

        def decomposed(result):
            dims = sum(n * gen.weyl_dimension(spec, tuple(lam.coords))
                       for lam, n in result.multiplicities.items())
            positive = all(n > 0 for n in result.multiplicities.values())
            return result.ok and positive and dims == dim1 * dim2

        jobs.append(Job(product, run_tensor, lambda chi: chi.total() == dim1 * dim2))
        jobs.append(Job(f"{len(jobs)}:{system}decompose", run_decompose, decomposed))

    for lam in inp.a2_highest:
        irreducible("A2", lam)
    for lam in inp.b2_highest:
        irreducible("B2", lam)
    rho_power = tuple(gen.RHO_POWER * x for x in gen.A2["rho"])
    irreducible("A2", rho_power, dim=(gen.RHO_POWER + 1) ** 3)
    tensor_chain("A2", *gen.A2_TENSOR)
    tensor_chain("B2", *gen.B2_TENSOR)
    return jobs


WORKLOADS = {"table": table_jobs, "series": series_jobs, "weyl": weyl_jobs}
