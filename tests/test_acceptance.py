"""Acceptance gate: one check per shipped guarantee.

Each test prints a single verdict line outside pytest's capture so the
verdicts appear in any output mode.
"""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from locmult import (
    PartitionProblem,
    ProjectiveActionSpec,
    StratumPhaseDatum,
    character_table,
    count_partitions,
    decompose_character,
    evaluate,
    find_certificate,
    irreducible_character,
    minimal_period,
    monomial_character,
    multiplicity,
    pairing,
    tensor,
    verify_structure,
    wv,
    zero_vector,
)
from locmult.localize import NotPointed
from locmult.poly import make


@pytest.fixture
def verdict(capsys):
    def emit(label, ok):
        line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
        with capsys.disabled():
            print(line)
        assert ok, line

    return emit


def test_criterion_1_projective_plane_closed_form(cp2_weighted, verdict):
    def closed_form(m, l):
        return 1 + (m - abs(l)) // 2 if abs(l) <= m else 0

    ok = all(
        multiplicity(cp2_weighted, wv(l), m) == closed_form(m, l)
        for m in range(1, 11)
        for l in range(-m - 2, m + 3)
    )
    verdict("weighted projective plane closed form, m <= 10", ok)


def test_criterion_2_phase_recovery(cp2_weighted, verdict):
    strata = (
        StratumPhaseDatum("e", 1, Fraction(0), 1),
        StratumPhaseDatum("g", 2, Fraction(1, 2), 0),
    )
    report = verify_structure(cp2_weighted, wv(0), strata, 12)
    ok = (
        report.onset == 1
        and report.phase_polys == {1: make(["3/4", "1/2"]), -1: make(["1/4"])}
        and report.phases_ok
    )
    verdict("phase polynomials (3/4 + m/2) and (1/4), onset 1", ok)


def test_criterion_3_oracle_equivalence(cp1, cp2_weighted, cp3_standard, verdict):
    cases = [
        (cp1, (wv(1), wv(0))),
        (cp2_weighted, (wv(1), wv(-1), wv(0))),
        (cp3_standard, (wv(1, 0, 0), wv(0, 1, 0), wv(0, 0, 1), wv(0, 0, 0))),
    ]
    ok = all(
        character_table(ds, m)
        == monomial_character(ProjectiveActionSpec(weights, m))
        for ds, weights in cases
        for m in range(1, 7)
    )
    verdict("oracle equivalence on the corpus, m <= 6", ok)


def test_criterion_4_chamber_independence(
    cp1, cp2_weighted, cp2_standard, cp3_standard, verdict
):
    rank1_grid = [(wv(l), m) for l in range(-5, 6) for m in (1, 2, 3, 4, 5)]
    grids = [
        (cp1, [wv(1), wv(-1), wv(5)], rank1_grid),
        (cp2_weighted, [wv(1), wv(-1), wv(3)], rank1_grid),
        (cp2_standard, [wv(2, 1), wv(1, 2), wv(-1, -2)],
         [(wv(a, b), m) for a in range(-1, 4) for b in range(-1, 4)
          for m in (1, 2)]),
        (cp3_standard, [wv(1, 2, 4), wv(4, 2, 1), wv(-1, -2, -4)],
         [(wv(a, b, c), m)
          for a, b, c in itertools.product((0, 1, 2), repeat=3)
          for m in (1, 2)]),
    ]
    ok = True
    for ds, etas, grid in grids:
        assert len(grid) >= 50
        for mu, m in grid:
            values = {multiplicity(ds, mu, m, eta=eta) for eta in etas}
            ok = ok and len(values) == 1
    verdict("chamber independence, 3 chambers, >= 50 pairs each", ok)


def test_criterion_5_partition_counts_vs_enumeration(verdict):
    def naive(columns, target, lower, shift, eta):
        effective = target - shift
        budget = max(pairing(effective, eta), Fraction(0))
        ranges = [
            range(lb, budget // pairing(a, eta) + 1)
            for a, lb in zip(columns, lower)
        ]
        # each candidate sum on int coordinate tuples
        cols, goal = [a.coords for a in columns], effective.coords
        hits = 0
        for ks in itertools.product(*ranges):
            acc = tuple(sum(k * a[i] for k, a in zip(ks, cols))
                        for i in range(len(goal)))
            if acc == goal:
                hits += 1
        return hits

    rng = random.Random(97)
    checked = 0
    ok = True
    while checked < 200:
        rank = rng.randint(1, 3)
        cols = []
        for _ in range(rng.randint(1, 4)):
            coords = [rng.randint(-3, 3) for _ in range(rank)]
            if all(c == 0 for c in coords):
                coords[rng.randrange(rank)] = 1
            cols.append(wv(*coords))
        try:
            eta = find_certificate(cols)
        except NotPointed:
            continue
        target = zero_vector(rank)
        for a in cols:
            target = target + rng.randint(0, 3) * a
        target = target + wv(*[rng.randint(-1, 1) for _ in range(rank)])
        if pairing(target, eta) > 30:
            continue
        lower = tuple(rng.randint(0, 1) for _ in cols)
        shift = cols[rng.randrange(len(cols))] if rng.random() < 0.3 else None
        problem = PartitionProblem(tuple(cols), target, lower_bounds=lower,
                                   shift=shift, eta=eta)
        expected = naive(cols, target, lower, problem.shift, eta)
        ok = ok and count_partitions(problem) == expected
        checked += 1
    verdict("partition counts match enumeration on 200 instances", ok)


def test_criterion_6_ehrhart_periods(verdict):
    slack = PartitionProblem((wv(2), wv(1)), wv(1))
    from locmult import count_dilated

    samples = [(m, count_dilated(slack, m)) for m in range(1, 21)]
    k, qp = minimal_period(samples, 4, 1)
    ok = k == 2 and all(
        evaluate(qp, m) == m // 2 + 1 for m in range(1, 21)
    )
    integral = [
        ((wv(1), wv(1)), wv(1)),
        ((wv(1), wv(1), wv(1)), wv(2)),
        ((wv(1, 0), wv(0, 1)), wv(1, 1)),
    ]
    for cols, nu in integral:
        p = PartitionProblem(cols, nu)
        pts = [(m, count_dilated(p, m)) for m in range(1, 17)]
        k, _ = minimal_period(pts, 4, 2)
        ok = ok and k == 1
    verdict("half-integral interval has period 2, integral data period 1", ok)


def test_criterion_7_clebsch_gordan(a1, verdict):
    def a1_irrep(a):
        return irreducible_character(a1, wv(a))

    def strip(chi):
        mults = {}
        work = chi
        while work:
            top = max(work.support(), key=lambda w: w.coords)
            n = work[top]
            mults[top] = mults.get(top, 0) + n
            work = work - a1_irrep(int(top.coords[0])).scale(n)
        return mults

    ok = True
    for a in range(6):
        for b in range(6):
            chi = tensor(a1_irrep(a), a1_irrep(b))
            result = decompose_character(chi, a1)
            expected = {wv(c): 1 for c in range(abs(a - b), a + b + 1, 2)}
            ok = ok and result.ok and result.multiplicities == expected
            ok = ok and strip(chi) == expected
    verdict("Clebsch-Gordan ladder for a, b <= 5, stripping oracle", ok)


def test_criterion_8_dimension_conservation(cp1, cp2_standard, cp3_standard, verdict):
    cases = [(cp1, 1), (cp2_standard, 2), (cp3_standard, 3)]
    ok = all(
        character_table(ds, m).total() == comb(m + n, n)
        for ds, n in cases
        for m in range(1, 7)
    )
    verdict("dimension conservation binomial(m+n, n), m <= 6", ok)


def test_criterion_9_free_action_polynomiality(cp1, verdict):
    strata = (StratumPhaseDatum("free", 1, Fraction(0), 0),)
    report = verify_structure(cp1, wv(0), strata, 8)
    ok = (
        report.period_used == 1
        and report.fitted.residue_polys == (make([1]),)
        and report.fitted.degree == 0
        and report.onset == 1
    )
    verdict("free action series is constant 1 from m = 1 on", ok)
