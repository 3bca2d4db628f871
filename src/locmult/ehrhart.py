"""Arithmetic polynomials: period-k quasi-polynomial values on integers.

A value f(m) is stored through residue polynomials q_j for j in
0..k-1, indexed so that q_j(n) = f(k*n - j).  The value at m is
q_j((m + j) / k) for the class j = (-m) mod k.  Each quasi-polynomial
rewrites every q_j once as a polynomial in m itself, with int
coefficients over one denominator, by a binomial expansion done on
ints.  That integer form serves evaluation
(an int Horner sum and one Fraction at the end), the fit's self-check
and the onset scan (an inline int Horner sum compared with d * value,
no Fraction and no call per sample) and the phase split (int
numerators over one denominator).  The fit itself solves no linear
system: each q_j is the Newton interpolant through its class's first
samples at the int nodes n, built by divided differences on ints and
expanded into monomial coefficients, one Fraction each.  For periods 1
and 2 the same data can be rewritten in phase form
f(m) = p_plus(m) + (-1)^m * p_minus(m); larger periods would need
cyclotomic coefficients, which this module does not carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from . import poly
from .errors import LocmultError
from .lattice import _coordinate, _instance, _integer
from .localize import ComputationError, PartitionProblem, count_partitions


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


@dataclass(frozen=True)
class QuasiPolynomial:
    """Residue-class polynomial family of a fixed period."""

    period: int
    residue_polys: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _integer(self.period, "period", "bad-period", 1, LocmultError)
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


def _read_samples(samples) -> list[tuple[int, int | Fraction]]:
    """Samples (m, value): m an int, the value read like a coordinate, so
    an int stays an int (a float is inexact-number, as a float m is, and
    any other m that is not an int is bad-number).  Anything but an
    iterable of pairs is bad-sample.  A pair of two ints is kept as it
    is, with no check called."""
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
        if type(m) is not int or type(v) is not int:
            _integer(m, "power m", "inexact-number" if isinstance(m, float) else "bad-number")
            v = _coordinate(v)
        out.append((m, v))
    return out


def _misses(qp: QuasiPolynomial, pts):
    """The m of every sample (m, v) of pts that qp does not reproduce, in
    the order of pts and lazily: each is compared on the integer form of
    its class, as an inline int Horner sum against d * v."""
    k = qp.period
    forms = [(coeffs[::-1], d) for coeffs, d in qp._integer_form]
    for m, v in pts:
        rev, d = forms[(-m) % k]
        acc = 0
        for c in rev:
            acc = acc * m + c
        if acc != d * v:
            yield m


def evaluate(qp: QuasiPolynomial, m: int) -> Fraction:
    """Value at the int m (any other m is refused as in `_read_samples`):
    an int Horner sum over the integer form of m's residue class, divided
    once by its denominator."""
    _instance(qp, QuasiPolynomial, "not-a-quasi-polynomial", LocmultError)
    _integer(m, "power m", "inexact-number" if isinstance(m, float) else "bad-number")
    coeffs, d = qp._integer_form[(-m) % qp.period]
    return Fraction(poly.evaluate(coeffs, m), d)


def _over(numerators, den: int) -> poly.Poly:
    """The polynomial with int coefficients numerators over den: trailing
    zeros dropped, then one Fraction per coefficient."""
    n = len(numerators)
    while n and not numerators[n - 1]:
        n -= 1
    return tuple(Fraction(c, den) for c in numerators[:n])


def _interpolate(nodes: list[int], values: list) -> poly.Poly:
    """The polynomial of degree < len(nodes) through (nodes[i], values[i]),
    for increasing int nodes and int or Fraction values.

    Newton divided differences, on ints: every value is scaled by
    S = D * W, with D the lcm of the values' denominators and W the
    product of the node gaps x_l - x_i (i < l), which every divided
    difference's denominator divides, so each division is exact.  The
    Newton form c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...)) is expanded
    from the inside out into monomial coefficients, still on ints, and
    each coefficient is one Fraction over S."""
    scale = math.prod(b - a for i, a in enumerate(nodes) for b in nodes[i + 1:])
    scale *= math.lcm(*(v.denominator for v in values))
    c = [v.numerator * (scale // v.denominator) for v in values]
    d = len(nodes) - 1
    for k in range(1, d + 1):
        for i in range(d, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) // (nodes[i] - nodes[i - k])
    a = [c[d]]
    for k in range(d - 1, -1, -1):
        x = nodes[k]
        a = [c[k] - x * a[0], *(p - x * q for p, q in zip(a, a[1:])), a[-1]]
    return _over(a, scale)


def fit_quasi_polynomial(samples, period: int, degree: int) -> QuasiPolynomial:
    """Interpolate samples (m, value) exactly with the given period.

    Each residue class j needs at least degree+2 samples: its first
    degree+1 pin the polynomial q_j down and the surplus cross-checks
    it.  q_j is interpolated through those first samples at their int
    nodes n = (m + j) / period by Newton divided differences
    (`_interpolate`), and every sample is then checked on the integer
    form of the fit; any sample it fails to reproduce raises
    FitVerificationError.  Only the classes that occur are grouped, so
    the work is bounded by the samples, not by the period: a class short
    of samples is found, and refused, before any class is interpolated.
    """
    _integer(period, "period", "bad-period", 1, LocmultError)
    _integer(degree, "degree", "bad-degree", 0, LocmultError)
    seen: dict[int, int | Fraction] = {}
    for m, v in _read_samples(samples):
        if seen.setdefault(m, v) != v:
            raise FitVerificationError(
                f"verification failure at m={m}", failed_m=m
            )
    pts = sorted(seen.items())
    by_class: dict[int, list[tuple[int, int | Fraction]]] = {}
    for m, v in pts:
        by_class.setdefault((-m) % period, []).append((m, v))
    need = degree + 2
    # the first short class comes after at most len(pts) // need full ones
    short = next((j for j in range(period) if len(by_class.get(j, ())) < need), None)
    if short is not None:
        raise InsufficientSamples(
            f"insufficient samples per class: class {short} has "
            f"{len(by_class.get(short, ()))}, needs {need}"
        )
    fitted = []
    for j in range(period):
        first = by_class[j][:degree + 1]
        fitted.append(_interpolate([(m + j) // period for m, _ in first],
                                   [v for _, v in first]))
    qp = QuasiPolynomial(period, tuple(fitted))
    failed = next(_misses(qp, pts), None)
    if failed is not None:
        raise FitVerificationError(
            f"verification failure at m={failed}", failed_m=failed
        )
    return qp


def _divisors(n: int, top: int):
    """The divisors of n in increasing order, lazily: trial division up
    to sqrt(n), then the cofactors of the divisors found.  When sqrt(n)
    is above top, trial division stops at top and n stands for every
    divisor above it."""
    small = []
    for c in range(1, min(math.isqrt(n), top) + 1):
        if n % c == 0:
            small.append(c)
            yield c
    if math.isqrt(n) > top:
        yield n
        return
    for c in reversed(small):
        if n // c > c:
            yield n // c


def minimal_period(samples, k_max: int, degree: int) -> tuple[int, QuasiPolynomial]:
    """Smallest divisor of k_max whose fit reproduces all samples.

    Divisors are tried in increasing order, so the first one that leaves
    a class short of samples ends the search with insufficient-samples,
    and no divisor past it is looked for.  A divisor above every |m|
    leaves at most one sample, the one at m = 0, in class 0, which needs
    two or more: every such divisor fails as k_max does, short in class
    0 or on a sample given two values, so trial division stops at the
    largest |m|.
    """
    _integer(k_max, "k_max", "bad-period", 1, LocmultError)
    samples = _read_samples(samples)
    for k in _divisors(k_max, max((abs(m) for m, _ in samples), default=0)):
        try:
            return k, fit_quasi_polynomial(samples, k, degree)
        except FitVerificationError:
            continue
    raise PeriodNotFound(f"no period <= {k_max} fits the samples")


def phase_decomposition(qp: QuasiPolynomial):
    """Rewrite a period <= 2 family as [(+1, p_plus), (-1, p_minus)]
    with f(m) = p_plus(m) + (-1)^m * p_minus(m), both in the variable m.

    For period 2, p_plus and p_minus are the half sum and half
    difference of the integer forms of classes 0 (even m) and 1 (odd m):
    int numerators over the one denominator 2 * lcm of theirs, and one
    Fraction per coefficient.
    """
    _instance(qp, QuasiPolynomial, "not-a-quasi-polynomial", LocmultError)
    if qp.period > 2:
        raise PhaseFormUnavailable(
            "phase form requires cyclotomic arithmetic for period > 2; "
            "use the residue form"
        )
    if qp.period == 1:
        return [(1, qp.residue_polys[0])]
    (even, d_even), (odd, d_odd) = qp._integer_form
    den = math.lcm(d_even, d_odd)
    n = max(len(even), len(odd))
    even = [c * (den // d_even) for c in even] + [0] * (n - len(even))
    odd = [c * (den // d_odd) for c in odd] + [0] * (n - len(odd))
    return [(1, _over([e + o for e, o in zip(even, odd)], 2 * den)),
            (-1, _over([e - o for e, o in zip(even, odd)], 2 * den))]


def count_dilated(problem: PartitionProblem, m: int) -> int:
    """Partition count at the m-fold dilation: the same problem at
    target m*target.

    Only the target scales with m; the shift is subtracted once, as in
    `PartitionProblem`.  m is checked as `character_table` checks a power.
    """
    _integer(m, "power m", "computation-error", 1, ComputationError)
    _instance(problem, PartitionProblem, "not-a-partition-problem", ComputationError)
    return count_partitions(replace(problem, target=m * problem.target))
