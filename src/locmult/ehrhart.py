"""Arithmetic polynomials: period-k quasi-polynomial values on integers.

A value f(m) is stored through residue polynomials q_j for j in
0..k-1, indexed so that q_j(n) = f(k*n - j).  The value at m is
q_j((m + j) / k) for the class j = (-m) mod k.  Each quasi-polynomial
rewrites every q_j once as a polynomial in m itself, with int
coefficients over one denominator, by a binomial expansion done on
ints.  That integer form serves evaluation
(an int Horner sum and one Fraction at the end), the fit's self-check
and the onset scan (an int Horner sum compared with d * value, no
Fraction) and the phase split.  For periods 1 and 2 the
same data can be rewritten in phase form
f(m) = p_plus(m) + (-1)^m * p_minus(m); larger periods would need
cyclotomic coefficients, which this module does not carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from . import localize, poly
from .errors import LocmultError
from .lattice import LatticeError, _coordinate, solve_exact
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
            raise LocmultError("need exactly one residue polynomial per class",
                               code="bad-period")
        object.__setattr__(self, "residue_polys", polys)

    @property
    def degree(self) -> int:
        return max((poly.degree(q) for q in self.residue_polys), default=-1)

    @cached_property
    def _integer_form(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(coefficients, denominator) for every residue class j: the
        polynomial q_j((m + j) / k) in m is the int coefficients, constant
        first, over the denominator, in lowest terms.  With D the common
        denominator of q_j's coefficients c_i and n its degree, it is
        sum_i (D*c_i) * k^(n - i) * (m + j)^i over D * k^n, whose binomial
        expansion is done on ints."""
        k = self.period
        form = []
        for j, q in enumerate(self.residue_polys):
            D, n = math.lcm(*(c.denominator for c in q)), len(q) - 1
            ints = [c.numerator * (D // c.denominator) * k ** (n - i)
                    for i, c in enumerate(q)]
            coeffs = [sum(ints[i] * math.comb(i, l) * j ** (i - l)
                          for i in range(l, n + 1)) for l in range(n + 1)]
            den = D * k ** max(n, 0)
            g = math.gcd(*coeffs, den)
            form.append((tuple(c // g for c in coeffs), den // g))
        return tuple(form)


def _check_power(m) -> None:
    """Refuse a power m that is not an int: a float is inexact-number,
    anything else (a bool, a string, a Fraction) is bad-number."""
    if type(m) is not int:
        kind = "inexact" if isinstance(m, float) else "bad"
        raise LatticeError(f"{kind} number {m!r}: a power m must be an int",
                           code=f"{kind}-number")


def _check_quasi(qp) -> None:
    """Refuse anything but a QuasiPolynomial as not-a-quasi-polynomial."""
    if not isinstance(qp, QuasiPolynomial):
        raise LocmultError(f"{type(qp).__name__} is not a QuasiPolynomial",
                           code="not-a-quasi-polynomial")


def _read_samples(samples) -> list[tuple[int, int | Fraction]]:
    """Samples (m, value): m an int, the value read like a coordinate, so
    an int stays an int (a float is inexact-number, as a float m is).
    Anything but an iterable of pairs is bad-sample."""
    try:
        entries = enumerate(samples)
    except TypeError:
        raise LocmultError(f"samples must be (m, value) pairs, got "
                           f"{type(samples).__name__}", code="bad-sample") from None
    out = []
    for i, sample in entries:
        try:
            m, v = sample
        except (TypeError, ValueError):
            raise LocmultError(f"sample {i} is not an (m, value) pair: {sample!r}",
                               code="bad-sample") from None
        _check_power(m)
        out.append((m, _coordinate(v)))
    return out


def _agrees(qp: QuasiPolynomial, m: int, v) -> bool:
    """qp(m) == v, compared on the integer form of m's residue class."""
    coeffs, d = qp._integer_form[(-m) % qp.period]
    return poly.evaluate(coeffs, m) == d * v


def evaluate(qp: QuasiPolynomial, m: int) -> Fraction:
    """Value at the int m (any other m is refused as in `_read_samples`):
    an int Horner sum over the integer form of m's residue class, divided
    once by its denominator."""
    _check_quasi(qp)
    _check_power(m)
    coeffs, d = qp._integer_form[(-m) % qp.period]
    return Fraction(poly.evaluate(coeffs, m), d)


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
    for m, v in _read_samples(samples):
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
        if not _agrees(qp, m, v):
            raise FitVerificationError(
                f"verification failure at m={m}", failed_m=m
            )
    return qp


def minimal_period(samples, k_max: int, degree: int) -> tuple[int, QuasiPolynomial]:
    """Smallest divisor of k_max whose fit reproduces all samples."""
    _check_period(k_max, "k_max")
    samples = _read_samples(samples)
    for k in (d for d in range(1, k_max + 1) if k_max % d == 0):
        try:
            return k, fit_quasi_polynomial(samples, k, degree)
        except FitVerificationError:
            continue
    raise PeriodNotFound(f"no period <= {k_max} fits the samples")


def phase_decomposition(qp: QuasiPolynomial):
    """Rewrite a period <= 2 family as [(+1, p_plus), (-1, p_minus)]
    with f(m) = p_plus(m) + (-1)^m * p_minus(m), both in the variable m.
    """
    _check_quasi(qp)
    if qp.period > 2:
        raise PhaseFormUnavailable(
            "phase form requires cyclotomic arithmetic for period > 2; "
            "use the residue form"
        )
    if qp.period == 1:
        return [(1, qp.residue_polys[0])]
    # halves of f at even m and at odd m: the integer forms of classes 0, 1
    f_even, f_odd = (poly.scale(c, Fraction(1, 2 * d)) for c, d in qp._integer_form)
    return [(1, poly.add(f_even, f_odd)), (-1, poly.sub(f_even, f_odd))]


def count_dilated(problem: PartitionProblem, m: int) -> int:
    """Partition count at the m-fold dilation: the same problem at
    target m*target.

    Only the target scales with m; the shift is subtracted once, as in
    `PartitionProblem`.  m is checked as `character_table` checks a power.
    """
    localize._check_power(m)
    return count_partitions(replace(problem, target=m * problem.target))
