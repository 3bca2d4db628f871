"""Verification that multiplicity series carry the arithmetic-polynomial
structure declared by orbifold stratum data.

Strata are input, never computed: `fpdata` reads them into
`StratumPhaseDatum`s, each carrying the order of its stabilizer element,
the exact rotation phi (the stratum's m-th contribution is modulated by
e^{2*pi*i*m*phi}), and a degree cap for its polynomial.  The verifier
fits the series with period lcm(orders), locates the onset threshold
realizing the "large m" clause, and splits the fit into phase
polynomials that are checked degree-wise and value-wise against the
declaration.  Only periods 1 and 2 have a phase split over the
rationals; strata giving a larger period are refused rather than
reported as an unchecked pass.  The onset is reported neutrally; an
onset above 1 on an abelian dataset is a finding for the caller, not an
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import poly
from .ehrhart import (
    FitVerificationError,
    PhaseFormUnavailable,
    QuasiPolynomial,
    _agrees,
    _check_quasi,
    _read_samples,
    fit_quasi_polynomial,
    phase_decomposition,
)
from .errors import LocmultError
from .fpdata import strata_items
from .lattice import WeightVector
from .localize import _check_m_to, multiplicity_series


class StructureViolated(LocmultError):
    code = "structure-violated"

    def __init__(self, message, *, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


def onset_threshold(samples, qp: QuasiPolynomial) -> int | None:
    """Smallest m0 such that the fit reproduces every sample with
    m >= m0; None when even the largest sample disagrees ("never")."""
    _check_quasi(qp)
    pts = sorted(_read_samples(samples))
    if not pts:
        return None
    mismatch = [m for m, v in pts if not _agrees(qp, m, v)]
    if not mismatch:
        return pts[0][0]
    if mismatch[-1] == pts[-1][0]:
        return None
    return mismatch[-1] + 1


@dataclass(frozen=True)
class PhaseCheck:
    """Degree check of one fitted phase polynomial against the strata
    declaring that phase.  declared_bound is None when no stratum does."""

    phase: int
    fitted: tuple[Fraction, ...]
    declared_bound: int | None
    ok: bool


@dataclass(frozen=True)
class ExpectedComparison:
    """Value check of one fitted phase polynomial against the sum of the
    expected polynomials declared for that phase; equal is None when
    some declaring stratum supplied no expectation."""

    phase: int
    labels: tuple[str, ...]
    expected: tuple[Fraction, ...] | None
    fitted: tuple[Fraction, ...]
    equal: bool | None


@dataclass(frozen=True)
class QRReport:
    fitted: QuasiPolynomial
    period_used: int
    onset: int
    series: tuple[tuple[int, int], ...]
    phase_polys: dict
    phase_checks: tuple[PhaseCheck, ...]
    expected_comparisons: tuple[ExpectedComparison, ...]
    minimal_period_found: int

    @property
    def phases_ok(self) -> bool:
        return all(c.ok for c in self.phase_checks) and all(
            c.equal is not False for c in self.expected_comparisons
        )


def verify_structure(
    ds,
    mu: WeightVector,
    strata,
    m_max: int,
    mode: str = "scaled",
    eta: WeightVector | None = None,
) -> QRReport:
    """Fit the multiplicity series against the declared strata.

    The fit uses period k = lcm(orders) and degree d = max degree cap,
    interpolating on the top k*(d+2) samples so that early pre-onset
    values cannot poison it; the onset is then scanned on the full
    series.  Raises StructureViolated when no onset at or below
    m_max/2 exists, with the mismatching m values as witnesses.  The
    minimal period is read off the one fit: 1 when k = 1 or the -1
    phase polynomial is zero, else 2.  strata must be a nonempty list
    or tuple of StratumPhaseDatum, as in a dataset (bad-stratum).
    """
    strata = strata_items(strata)
    k = math.lcm(*(s.order for s in strata))
    if k > 2:
        raise PhaseFormUnavailable(
            f"strata orders give period {k}; checking phases of a period "
            f"above 2 needs cyclotomic phase splitting, which is not available"
        )
    d = max(s.degree_bound for s in strata)
    required = 2 * (k + d + 2)
    _check_m_to(m_max)
    if m_max < required:
        raise LocmultError(
            f"m_max={m_max} too small: need at least {required} for period {k} "
            f"and degree {d}",
            code="m-max-too-small",
        )
    series = multiplicity_series(ds, mu, 1, m_max, mode, eta)
    tail = [(m, v) for m, v in series if m > m_max - k * (d + 2)]
    try:
        qp = fit_quasi_polynomial(tail, k, d)
    except FitVerificationError as exc:
        witnesses = (exc.failed_m,) if exc.failed_m is not None else ()
        raise StructureViolated(
            f"structure violated: no degree-{d} period-{k} fit matches the "
            f"top samples ({exc})",
            witnesses=witnesses,
        ) from None
    onset = onset_threshold(series, qp)
    if onset is None or 2 * onset > m_max:
        witnesses = tuple(m for m, v in series if not _agrees(qp, m, v))
        raise StructureViolated(
            f"structure violated: fit fails for every onset <= {m_max}/2",
            witnesses=witnesses,
        )

    phase_polys = dict(phase_decomposition(qp))
    checks: list[PhaseCheck] = []
    comparisons: list[ExpectedComparison] = []
    for phase in (1, -1) if k == 2 else (1,):
        fitted = phase_polys.get(phase, poly.ZERO)
        # with period <= 2 the phase of a stratum is +1 or -1
        declaring = [s for s in strata if (1 if s.rotation == 0 else -1) == phase]
        if not declaring:
            checks.append(PhaseCheck(phase, fitted, None, poly.degree(fitted) < 0))
            continue
        bound = max(s.degree_bound for s in declaring)
        checks.append(PhaseCheck(phase, fitted, bound, poly.degree(fitted) <= bound))
        expected = equal = None
        if all(s.expected_poly is not None for s in declaring):
            expected = poly.ZERO
            for s in declaring:
                expected = poly.add(expected, s.expected_poly)
            equal = expected == fitted
        labels = tuple(s.label for s in declaring)
        comparisons.append(ExpectedComparison(phase, labels, expected, fitted, equal))

    return QRReport(
        fitted=qp,
        period_used=k,
        onset=onset,
        series=tuple(series),
        phase_polys=phase_polys,
        phase_checks=tuple(checks),
        expected_comparisons=tuple(comparisons),
        minimal_period_found=1 if k == 1 or not phase_polys[-1] else 2,
    )
