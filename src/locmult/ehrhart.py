"""Arithmetic polynomials: period-k quasi-polynomial values on integers.

A value f(m) is stored through residue polynomials q_j for j in
0..k-1, indexed so that q_j(n) = f(k*n - j).  Evaluation at m uses the
class j = (-m) mod k and n = (m + j) / k.  For periods 1 and 2 the
same data can be rewritten in phase form
f(m) = p_plus(m) + (-1)^m * p_minus(m); larger periods would need
cyclotomic coefficients, which this module does not carry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import poly
from .errors import LocmultError
from .lattice import solve_exact
from .localize import PartitionProblem, count_partitions


class InsufficientSamples(LocmultError):
    code = "insufficient-samples"


class FitVerificationError(LocmultError):
    code = "fit-verification"

    def __init__(self, message, *, failed_m=None):
        super().__init__(message)
        self.failed_m = failed_m


class PeriodNotFound(LocmultError):
    code = "period-not-found"


class PhaseFormUnavailable(LocmultError):
    code = "phase-form-unavailable"


def _check_period(period, what: str = "period") -> None:
    """Raise bad-period unless period is a positive int (bools refused)."""
    if isinstance(period, bool) or not isinstance(period, int) or period < 1:
        raise LocmultError(f"{what} must be a positive integer", code="bad-period")


@dataclass(frozen=True)
class QuasiPolynomial:
    """Residue-class polynomial family of a fixed period."""

    period: int
    residue_polys: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _check_period(self.period)
        polys = tuple(poly.normalize(q) for q in self.residue_polys)
        if len(polys) != self.period:
            raise LocmultError("need exactly one residue polynomial per class")
        object.__setattr__(self, "residue_polys", polys)

    @property
    def degree(self) -> int:
        return max((poly.degree(q) for q in self.residue_polys), default=-1)


def evaluate(qp: QuasiPolynomial, m: int) -> Fraction:
    """Value at the integer m."""
    j = (-m) % qp.period
    n = Fraction(m + j, qp.period)
    return poly.evaluate(qp.residue_polys[j], n)


def fit_quasi_polynomial(samples, period: int, degree: int) -> QuasiPolynomial:
    """Interpolate samples (m, value) exactly with the given period.

    Each residue class needs at least degree+2 samples: degree+1 pin
    the polynomial down and the surplus cross-checks it.  Any sample
    the candidate fails to reproduce raises FitVerificationError.
    """
    _check_period(period)
    if isinstance(degree, bool) or not isinstance(degree, int):
        raise LocmultError("degree must be an integer", code="bad-degree")
    if degree < 0:
        raise LocmultError("degree must be nonnegative", code="bad-degree")
    seen: dict[int, Fraction] = {}
    for m, v in samples:
        m = int(m)
        v = Fraction(v)
        if seen.setdefault(m, v) != v:
            raise FitVerificationError(
                f"verification failure at m={m}", failed_m=m
            )
    pts = sorted(seen.items())
    by_class: dict[int, list[tuple[int, Fraction]]] = {j: [] for j in range(period)}
    for m, v in pts:
        by_class[(-m) % period].append((m, v))
    fitted = []
    for j in range(period):
        cls = by_class[j]
        if len(cls) < degree + 2:
            raise InsufficientSamples(
                f"insufficient samples per class: class {j} has {len(cls)}, "
                f"needs {degree + 2}"
            )
        nodes = [(Fraction(m + j, period), v) for m, v in cls]
        rows = [[n ** i for i in range(degree + 1)] for n, _ in nodes[: degree + 1]]
        rhs = [v for _, v in nodes[: degree + 1]]
        coeffs = solve_exact(rows, rhs)
        fitted.append(poly.normalize(coeffs))
    qp = QuasiPolynomial(period, tuple(fitted))
    for m, v in pts:
        if evaluate(qp, m) != v:
            raise FitVerificationError(
                f"verification failure at m={m}", failed_m=m
            )
    return qp


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def minimal_period(samples, k_max: int, degree: int) -> tuple[int, QuasiPolynomial]:
    """Smallest divisor of k_max whose fit reproduces all samples."""
    _check_period(k_max, "k_max")
    samples = list(samples)
    for k in _divisors(k_max):
        try:
            return k, fit_quasi_polynomial(samples, k, degree)
        except FitVerificationError:
            continue
    raise PeriodNotFound(f"no period <= {k_max} fits the samples")


def phase_decomposition(qp: QuasiPolynomial):
    """Rewrite a period <= 2 family as [(+1, p_plus), (-1, p_minus)]
    with f(m) = p_plus(m) + (-1)^m * p_minus(m), both in the variable m.
    """
    if qp.period > 2:
        raise PhaseFormUnavailable(
            "phase form requires cyclotomic arithmetic for period > 2; "
            "use the residue form"
        )
    if qp.period == 1:
        return [(1, qp.residue_polys[0])]
    half = Fraction(1, 2)
    # q_0(n) = f(2n): even values; q_1(n) = f(2n - 1): odd values.
    f_even = poly.compose_affine(qp.residue_polys[0], half, 0)
    f_odd = poly.compose_affine(qp.residue_polys[1], half, half)
    p_plus = poly.scale(poly.add(f_even, f_odd), half)
    p_minus = poly.scale(poly.sub(f_even, f_odd), half)
    return [(1, p_plus), (-1, p_minus)]


def count_dilated(problem: PartitionProblem, m: int) -> int:
    """Partition count at the m-fold dilation: the same problem at
    target m*target.

    Only the target scales with m; the shift is subtracted once, as in
    `PartitionProblem`.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise LocmultError(f"dilation factor must be a positive integer, got {m!r}")
    return count_partitions(replace(problem, target=m * problem.target))
