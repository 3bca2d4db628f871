"""Quasi-polynomial fitting, evaluation, and dilation counting."""

import random
import tracemalloc
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
from locmult.errors import LocmultError
from locmult.lattice import solve_exact
from locmult.poly import evaluate as poly_eval
from locmult.poly import make, normalize


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


def test_evaluate_matches_residue_polynomials():
    """The integer form against the residue polynomials themselves: the
    value at m is q_j((m + j) / k) for j = (-m) mod k, at every residue
    class and at negative m."""
    rng = random.Random(16)
    for _ in range(60):
        k = rng.randint(1, 6)
        polys = tuple(
            make([Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 12]))
                  for _ in range(rng.randint(0, 5))])  # degree -1 (zero) to 4
            for _ in range(k)
        )
        qp = QuasiPolynomial(k, polys)
        for m in range(-60, 61):
            j = (-m) % k
            assert evaluate(qp, m) == poly_eval(polys[j], Fraction(m + j, k)), (
                polys, m)
    assert evaluate(QuasiPolynomial(3, ((), (), ())), -7) == 0


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


def test_dilation_factor_and_residue_count_errors_are_coded():
    """No library error keeps the base code: a dilation factor is checked
    as a power m is, and a residue count other than the period is
    bad-period."""
    p = PartitionProblem((wv(1), wv(2)), wv(1))
    for call, code in [
        (lambda: count_dilated(p, 0), "computation-error"),
        (lambda: count_dilated(p, 1.5), "computation-error"),
        (lambda: QuasiPolynomial(2, ((1,),)), "bad-period"),
    ]:
        with pytest.raises(LocmultError) as err:
            call()
        assert err.value.code == code


def test_samples_that_are_not_pairs_are_bad_samples():
    """Every reader of samples refuses anything but (m, value) pairs with
    one coded error naming the entry."""
    from locmult.qrverify import onset_threshold

    qp = QuasiPolynomial(1, ((1,),))
    for call, message in [
        (lambda: fit_quasi_polynomial(5, 1, 0), "samples must be (m, value) pairs, got int"),
        (lambda: fit_quasi_polynomial([5], 1, 0), "sample 0 is not an (m, value) pair: 5"),
        (lambda: onset_threshold([(1, 1), (1, 2, 3)], qp),
         "sample 1 is not an (m, value) pair: (1, 2, 3)"),
        (lambda: minimal_period([(1, 1), (2,)], 2, 0),
         "sample 1 is not an (m, value) pair: (2,)"),
        (lambda: minimal_period(None, 2, 0), "samples must be (m, value) pairs, got NoneType"),
    ]:
        with pytest.raises(LocmultError) as err:
            call()
        assert (err.value.code, str(err.value)) == ("bad-sample", message)


def vandermonde_fit(samples, period, degree):
    """The fit as Gaussian elimination: each class through its first
    degree+1 samples by a Vandermonde solve on the Fraction nodes
    (m + j) / period, then every sample checked on the residue
    polynomials themselves.  Samples are already (int, exact value)."""
    seen = {}
    for m, v in samples:
        if seen.setdefault(m, v) != v:
            raise FitVerificationError(f"verification failure at m={m}", failed_m=m)
    pts = sorted(seen.items())
    fitted = []
    for j in range(period):
        cls = [(m, v) for m, v in pts if (-m) % period == j]
        if len(cls) < degree + 2:
            raise InsufficientSamples(
                f"insufficient samples per class: class {j} has {len(cls)}, "
                f"needs {degree + 2}")
        nodes = [Fraction(m + j, period) for m, _ in cls[: degree + 1]]
        rows = [[n ** i for i in range(degree + 1)] for n in nodes]
        fitted.append(normalize(solve_exact(rows, [v for _, v in cls[: degree + 1]])))
    for m, v in pts:
        j = (-m) % period
        if poly_eval(fitted[j], Fraction(m + j, period)) != v:
            raise FitVerificationError(f"verification failure at m={m}", failed_m=m)
    return QuasiPolynomial(period, tuple(fitted))


def outcome(call):
    try:
        return call()
    except LocmultError as exc:
        return type(exc), exc.code, str(exc), getattr(exc, "failed_m", None)


def test_fit_matches_the_vandermonde_solve():
    """Newton interpolation on the int nodes against the Fraction
    Vandermonde solve: the same fit, or the same refusal with the same
    failed_m, for periods 1-6 and degrees 0-4 on non-consecutive and
    negative m, with int, Fraction and "p/q" string values."""
    rng = random.Random(28)
    kinds = {"fit": 0, "fit-verification": 0, "insufficient-samples": 0}
    for case in range(360):
        k, d = rng.randint(1, 6), rng.randint(0, 4)
        den = rng.choice([1, 1, 2, 3, 12])
        target = QuasiPolynomial(k, tuple(
            make([Fraction(rng.randint(-9, 9), den) for _ in range(rng.randint(0, d + 1))])
            for _ in range(k)))
        lo = rng.randint(-40, 10)
        per_class = d + 2 + rng.choice([0, 0, 1, 3]) - (case % 9 == 0)
        ms = rng.sample(range(lo, lo + 3 * k * (d + 4)), k * per_class)
        samples = [(m, evaluate(target, m)) for m in ms]
        if case % 5 == 1:  # one wrong value
            i = rng.randrange(len(samples))
            samples[i] = (samples[i][0], samples[i][1] + rng.choice([-1, Fraction(1, 3)]))
        if case % 7 == 2:  # a second, disagreeing sample at some m
            m, v = rng.choice(samples)
            samples.insert(rng.randrange(len(samples) + 1), (m, v + 1))
        given = [(m, rng.choice([v, str(v)]) if v.denominator > 1 else
                  rng.choice([int(v), v, str(v)])) for m, v in samples]
        got = outcome(lambda: fit_quasi_polynomial(given, k, d))
        want = outcome(lambda: vandermonde_fit(samples, k, d))
        assert got == want, (case, k, d, given)
        kinds["fit" if isinstance(got, QuasiPolynomial) else got[1]] += 1
    assert min(kinds.values()) >= 30, kinds


def fraction_phases(qp):
    """The phase split as sums of scaled Fraction polynomials: halves of
    the integer forms of the even and odd classes, added and subtracted."""
    if qp.period == 1:
        return [(1, qp.residue_polys[0])]
    halves = [[Fraction(c, 2 * d) for c in coeffs] for coeffs, d in qp._integer_form]
    n = max(map(len, halves))
    even, odd = (h + [Fraction(0)] * (n - len(h)) for h in halves)
    return [(1, normalize(e + o for e, o in zip(even, odd))),
            (-1, normalize(e - o for e, o in zip(even, odd)))]


def test_phase_decomposition_matches_the_fraction_formula():
    rng = random.Random(29)
    for _ in range(200):
        k = rng.choice([1, 2])
        qp = QuasiPolynomial(k, tuple(
            make([Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 8]))
                  for _ in range(rng.randint(0, 4))])
            for _ in range(k)))
        assert phase_decomposition(qp) == fraction_phases(qp), qp


def every_divisor(samples, k_max, degree):
    """minimal_period as the fit tried at every divisor of k_max in
    increasing order: the first success or the first refusal other than
    a failed verification."""
    for k in (k for k in range(1, k_max + 1) if k_max % k == 0):
        try:
            return k, fit_quasi_polynomial(samples, k, degree)
        except FitVerificationError:
            continue
    raise PeriodNotFound(f"no period <= {k_max} fits the samples")


def test_minimal_period_matches_every_divisor_in_turn():
    """minimal_period against `every_divisor`, on random samples."""
    rng = random.Random(30)
    for case in range(150):
        k_max, d = rng.choice([1, 2, 6, 12, 30, 36, 49, 60, 97]), rng.randint(0, 2)
        period = rng.choice([t for t in range(1, 13) if k_max % t == 0] + [5])
        target = QuasiPolynomial(period, tuple(
            make([rng.randint(-3, 3) for _ in range(d + 1)]) for _ in range(period)))
        ms = rng.sample(range(-10, 60), rng.randint(1, 40))
        samples = [(m, evaluate(target, m)) for m in ms]
        if case % 6 == 0:
            samples.append((ms[0], samples[0][1] + 1))
        assert (outcome(lambda: minimal_period(samples, k_max, d))
                == outcome(lambda: every_divisor(samples, k_max, d))), case


def test_fit_work_is_bounded_by_the_samples():
    """Three samples at period 10**6, or at the prime k_max = 1000003, are
    refused for want of samples without work or memory per class."""
    three = [(1, 1), (2, 2), (3, 3)]
    tracemalloc.start()
    try:
        for call in (lambda: fit_quasi_polynomial(three, 10**6, 0),
                     lambda: minimal_period(three, 1000003, 0)):
            tracemalloc.reset_peak()
            got = outcome(call)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
            assert got == (InsufficientSamples, "insufficient-samples",
                           "insufficient samples per class: class 0 has 0, needs 2",
                           None)
    finally:
        tracemalloc.stop()


class CountingInt(int):
    """An int that counts the remainders taken of it: the trial divisions
    of a k_max."""

    def __mod__(self, other):
        self.remainders = getattr(self, "remainders", 0) + 1
        return int(self) % other


def test_minimal_period_trial_divides_only_as_far_as_the_samples_reach():
    """A divisor above every |m| fails the samples as k_max does, so trial
    division stops at the largest |m|, not at sqrt(k_max) (31622 for the
    prime 10**9 + 7); the outcome is the one of every divisor tried in
    turn, also where k_max has divisors past the bound and the search
    reaches them (a sample given two values fails every fit)."""
    k_max = CountingInt(10**9 + 7)
    with pytest.raises(InsufficientSamples) as err:
        minimal_period([(1, 1), (2, 2), (3, 3)], k_max, 0)
    assert str(err.value) == "insufficient samples per class: class 0 has 0, needs 2"
    assert k_max.remainders == 3
    rng = random.Random(31)
    for case in range(150):
        k_max, d = rng.choice([144, 210, 221, 289, 360, 720, 997]), rng.randint(0, 1)
        ms = rng.sample(range(-4, 7), rng.randint(0, 8))
        samples = [(m, rng.choice([1, m, m % 2])) for m in ms]
        if case % 5 == 0 and ms:
            samples.append((ms[0], samples[0][1] + 1))
        assert (outcome(lambda: minimal_period(samples, k_max, d))
                == outcome(lambda: every_divisor(samples, k_max, d))), case
