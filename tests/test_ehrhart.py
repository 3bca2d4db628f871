"""Quasi-polynomial fitting, evaluation, and dilation counting."""

import random
from fractions import Fraction

import pytest

from locmult import (
    PartitionProblem,
    QuasiPolynomial,
    count_dilated,
    evaluate,
    fit_quasi_polynomial,
    minimal_period,
    multiplicity_series,
    phase_decomposition,
    wv,
)
from locmult.ehrhart import (
    FitVerificationError,
    InsufficientSamples,
    PeriodNotFound,
    PhaseFormUnavailable,
)
from locmult.poly import evaluate as poly_eval
from locmult.poly import make


def halves(m):
    return m // 2 + 1


def samples_of(f, m_to, m_from=1):
    return [(m, f(m)) for m in range(m_from, m_to + 1)]


def test_evaluate_identity():
    qp = QuasiPolynomial(1, (make([0, 1]),))
    assert evaluate(qp, 5) == 5
    assert evaluate(qp, -3) == -3


def test_evaluate_floor_halves():
    qp = fit_quasi_polynomial(samples_of(halves, 8), 2, 1)
    assert evaluate(qp, 7) == 4
    for m in range(1, 30):
        assert evaluate(qp, m) == halves(m)


def test_evaluate_alternating_affine():
    # 3/4 + m/2 + (1/4)(-1)^m
    def f(m):
        return Fraction(3, 4) + Fraction(m, 2) + Fraction(1, 4) * (-1) ** m

    qp = fit_quasi_polynomial(samples_of(f, 8), 2, 1)
    assert evaluate(qp, 4) == 3


def test_fit_square():
    qp = fit_quasi_polynomial(samples_of(lambda m: m * m, 6), 1, 2)
    assert qp.period == 1
    assert qp.residue_polys == (make([0, 0, 1]),)


def test_fit_projective_plane_series(cp2_weighted):
    samples = multiplicity_series(cp2_weighted, wv(0), 1, 8)
    qp = fit_quasi_polynomial(samples, 2, 1)
    for m in range(1, 20):
        expected = Fraction(3, 4) + Fraction(m, 2) + Fraction(1, 4) * (-1) ** m
        assert evaluate(qp, m) == expected


def test_fit_wrong_period_fails():
    with pytest.raises(FitVerificationError) as err:
        fit_quasi_polynomial(samples_of(halves, 8), 1, 1)
    assert err.value.failed_m is not None
    assert "verification failure at m=" in str(err.value)


def test_fit_insufficient_samples():
    with pytest.raises(InsufficientSamples):
        fit_quasi_polynomial([(1, 1), (2, 2), (3, 3)], 2, 1)


def test_fit_conflicting_duplicate_sample():
    with pytest.raises(FitVerificationError):
        fit_quasi_polynomial([(1, 1), (1, 2), (2, 1), (3, 1), (4, 1),
                              (5, 1), (6, 1)], 1, 1)


def test_minimal_period_two():
    k, qp = minimal_period(samples_of(halves, 12), 4, 1)
    assert k == 2
    assert qp.period == 2
    for m in range(1, 13):
        assert evaluate(qp, m) == halves(m)


def test_minimal_period_one():
    k, qp = minimal_period(samples_of(lambda m: m + 1, 12), 6, 1)
    assert k == 1
    assert qp.residue_polys == (make([1, 1]),)


def test_minimal_period_not_found():
    with pytest.raises(PeriodNotFound) as err:
        minimal_period(samples_of(lambda m: m // 3, 12), 2, 1)
    assert "no period <= 2 fits" in str(err.value)


def test_phase_decomposition_projective_plane(cp2_weighted):
    samples = multiplicity_series(cp2_weighted, wv(0), 1, 8)
    qp = fit_quasi_polynomial(samples, 2, 1)
    phases = phase_decomposition(qp)
    assert phases == [
        (1, make(["3/4", "1/2"])),
        (-1, make(["1/4"])),
    ]


def test_phase_decomposition_constant():
    qp = fit_quasi_polynomial(samples_of(lambda m: 5, 4), 1, 0)
    assert phase_decomposition(qp) == [(1, make([5]))]


def test_phase_decomposition_alternating():
    qp = fit_quasi_polynomial(samples_of(lambda m: (-1) ** m, 6), 2, 0)
    assert phase_decomposition(qp) == [(1, make([])), (-1, make([1]))]


def test_phase_decomposition_needs_small_period():
    qp = QuasiPolynomial(3, (make([0]), make([1]), make([2])))
    with pytest.raises(PhaseFormUnavailable):
        phase_decomposition(qp)


def test_count_dilated_examples():
    p = PartitionProblem((wv(1), wv(2)), wv(1))
    assert count_dilated(p, 4) == 3
    p = PartitionProblem((wv(2), wv(1)), wv(1))
    assert count_dilated(p, 5) == 3
    p = PartitionProblem((wv(1), wv(2)), wv(-1))
    assert count_dilated(p, 3) == 0


def test_count_dilated_keeps_shift_and_bounds():
    p = PartitionProblem((wv(1),), wv(1), lower_bounds=(1,), shift=wv(1))
    # k = m - 1 with k >= 1: exactly one solution
    assert count_dilated(p, 4) == 1
    p = PartitionProblem((wv(2), wv(1)), wv(1), shift=wv(1))
    assert count_dilated(p, 5) == 3  # 2x + y = 4


def test_count_dilated_interval_is_quasi_polynomial():
    p = PartitionProblem((wv(2), wv(1)), wv(1))
    samples = [(m, count_dilated(p, m)) for m in range(1, 13)]
    k, qp = minimal_period(samples, 4, 1)
    assert k == 2
    for m, v in samples:
        assert evaluate(qp, m) == v


def test_integral_interval_has_period_one():
    for cols, nu in [
        ((wv(1), wv(1)), wv(1)),
        ((wv(1), wv(1), wv(1)), wv(2)),
        ((wv(1, 0), wv(0, 1)), wv(1, 1)),
    ]:
        p = PartitionProblem(cols, nu)
        samples = [(m, count_dilated(p, m)) for m in range(1, 13)]
        k, _ = minimal_period(samples, 4, 2)
        assert k == 1, (cols, nu)


def test_fit_round_trip_random():
    rng = random.Random(11)
    for _ in range(40):
        k = rng.choice([1, 2, 3])
        d = rng.randint(0, 3)
        polys = tuple(
            make([Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4]))
                  for _ in range(d + 1)])
            for _ in range(k)
        )
        target = QuasiPolynomial(k, polys)
        samples = [(m, evaluate(target, m)) for m in range(1, k * (d + 2) + 1)]
        fitted = fit_quasi_polynomial(samples, k, d)
        for m in range(1, 3 * k * (d + 2)):
            assert evaluate(fitted, m) == evaluate(target, m)


def test_phase_and_residue_forms_agree():
    rng = random.Random(12)
    for _ in range(30):
        k = rng.choice([1, 2])
        d = rng.randint(0, 2)
        polys = tuple(
            make([rng.randint(-5, 5) for _ in range(d + 1)])
            for _ in range(k)
        )
        qp = QuasiPolynomial(k, polys)
        phases = phase_decomposition(qp)
        for m in range(1, 21):
            via_phases = sum(
                (phase ** m) * poly_eval(poly, m) for phase, poly in phases
            )
            assert via_phases == evaluate(qp, m)


def test_period_and_degree_errors_are_coded():
    samples = [(m, m) for m in range(1, 5)]
    for call, code in [
        (lambda: QuasiPolynomial(0, ()), "bad-period"),
        (lambda: fit_quasi_polynomial(samples, 0, 1), "bad-period"),
        (lambda: fit_quasi_polynomial(samples, 1, -1), "bad-degree"),
        (lambda: fit_quasi_polynomial(samples, 1.5, 1), "bad-period"),
        (lambda: fit_quasi_polynomial(samples, True, 1), "bad-period"),
        (lambda: fit_quasi_polynomial(samples, 1, 1.5), "bad-degree"),
        (lambda: fit_quasi_polynomial(samples, 1, True), "bad-degree"),
        (lambda: minimal_period(samples, 1.5, 1), "bad-period"),
        (lambda: minimal_period(samples, 0, 1), "bad-period"),
        (lambda: QuasiPolynomial(1.5, ((1,),)), "bad-period"),
        (lambda: QuasiPolynomial(True, ((1,),)), "bad-period"),
    ]:
        with pytest.raises(Exception) as err:
            call()
        assert err.value.code == code
