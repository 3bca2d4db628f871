"""Multiplicity extraction from fixed-point data by polarization.

The character of the m-th power of the quantizing bundle is a sum over
fixed points of t^(m*fiber) / prod_j (1 - t^(-alpha_j)).  Expanding
every factor toward a chosen generic direction eta (flipping the sign
of each normal weight that pairs negatively with eta) turns each term
into a signed, shifted vector partition generating function.  A
multiplicity is then a signed sum, over the fixed points, of
coefficients of prod 1/(1 - t^a) over the polarized columns a.  One
kernel, `_expand`, computes those coefficients: it truncates the
product at an eta-level, which is exact because every polarized column
pairs positively with eta, and multiplies in one column at a time by
sweeping each line v + k*a once from its lowest term (the coin-change
recurrence), so every term of the expansion is stored once per column.
A whole table (`character_table`) is read off one expansion per fixed
point; a series in m (`multiplicity_series`) expands each fixed point
once, up to the highest level its targets reach in the range, and
reads each m off by lookup; `multiplicity` is the same at a single m,
and `count_partitions` reads one coefficient.  The results are
independent of eta; tests exercise this.

The kernel reads WeightVector coordinates directly: lattice data gives
int tuples, and a rational weight or eta gives Fraction entries, which
the same code handles exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import LocmultError
from .fpdata import FixedPointDatum, LocalizationDataset
from .lattice import WeightVector, pairing, pick_generic_direction, zero_vector

MODE_FIXED = "fixed"
MODE_SCALED = "scaled"


class EtaNotGeneric(LocmultError):
    code = "eta-not-generic"


class NotPointed(LocmultError):
    code = "not-pointed"


class ComputationError(LocmultError):
    code = "computation-error"


@dataclass(frozen=True)
class PolarizedFixedPoint:
    """Fixed point with normal weights flipped into the eta-positive
    half space.  sign_count is the number of flips; shift is the sum of
    the flipped (already negated) weights."""

    source_label: str
    polarized_weights: tuple[WeightVector, ...]
    flip_flags: tuple[bool, ...]
    sign_count: int
    shift: WeightVector


def polarize(fp: FixedPointDatum, eta: WeightVector) -> PolarizedFixedPoint:
    polarized = []
    flags = []
    shift = zero_vector(len(eta.coords))
    for a in fp.normal_weights:
        p = pairing(a, eta)
        if p == 0:
            raise EtaNotGeneric(
                f"eta not generic: orthogonal to normal weight {a} at {fp.label!r}"
            )
        if p < 0:
            polarized.append(-a)
            flags.append(True)
            shift = shift + (-a)
        else:
            polarized.append(a)
            flags.append(False)
    return PolarizedFixedPoint(
        source_label=fp.label,
        polarized_weights=tuple(polarized),
        flip_flags=tuple(flags),
        sign_count=sum(flags),
        shift=shift,
    )


def _feasible_point(cons, nvars):
    """Point satisfying all linear constraints sum(c_i x_i) >= k, or None.

    Fourier-Motzkin elimination; fine at the column counts seen here.
    """
    systems = [None] * nvars
    work = [(tuple(Fraction(c) for c in cs), Fraction(k)) for cs, k in cons]
    for v in range(nvars - 1, -1, -1):
        systems[v] = work
        pos = [c for c in work if c[0][v] > 0]
        neg = [c for c in work if c[0][v] < 0]
        new = [c for c in work if c[0][v] == 0]
        for cp, kp in pos:
            for cn, kn in neg:
                fp_, fn = -cn[v], cp[v]
                combo = tuple(fp_ * a + fn * b for a, b in zip(cp, cn))
                new.append((combo, fp_ * kp + fn * kn))
        work = new
    if any(k > 0 for _, k in work):
        return None
    point = [Fraction(0)] * nvars
    for v in range(nvars):
        lo = None
        hi = None
        for cs, k in systems[v]:
            if cs[v] == 0:
                continue
            rest = sum((cs[i] * point[i] for i in range(v)), Fraction(0))
            bound = (k - rest) / cs[v]
            if cs[v] > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None:
            point[v] = (lo + hi) / 2
        elif lo is not None:
            point[v] = lo
        elif hi is not None:
            point[v] = hi
    return point


def find_certificate(columns: Iterable[WeightVector]) -> WeightVector:
    """Direction pairing strictly positively with every column.

    Existence is exactly pointedness of the cone the columns span;
    raises NotPointed otherwise.
    """
    columns = list(columns)
    if not columns:
        raise NotPointed("no columns to certify")
    rank = len(columns[0].coords)
    cons = [(a.coords, Fraction(1)) for a in columns]
    point = _feasible_point(cons, rank)
    if point is None:
        raise NotPointed(
            "columns span a non-pointed cone; partition counts would be infinite"
        )
    return WeightVector(tuple(point))


@dataclass(frozen=True)
class PartitionProblem:
    """Count lattice combinations of the columns hitting a target.

    Solutions are k in Z^N with sum_j k_j * columns[j] = target - shift
    and k_j >= lower_bounds[j].  eta certifies pointedness (all columns
    pair strictly positively with it); when omitted, a certificate is
    searched for and construction fails if none exists.
    """

    columns: tuple[WeightVector, ...]
    target: WeightVector
    lower_bounds: tuple[int, ...] = None
    shift: WeightVector = None
    eta: WeightVector = None

    def __post_init__(self):
        cols = tuple(self.columns)
        object.__setattr__(self, "columns", cols)
        rank = len(self.target.coords)
        if self.lower_bounds is None:
            object.__setattr__(self, "lower_bounds", (0,) * len(cols))
        else:
            object.__setattr__(self, "lower_bounds", tuple(self.lower_bounds))
        if self.shift is None:
            object.__setattr__(self, "shift", zero_vector(rank))
        if len(self.lower_bounds) != len(cols):
            raise ComputationError("one lower bound per column is required")
        if any(b not in (0, 1) for b in self.lower_bounds):
            raise ComputationError("lower bounds must be 0 or 1")
        for a in cols:
            if len(a.coords) != rank:
                raise ComputationError("column rank differs from target rank")
        if self.eta is None:
            object.__setattr__(self, "eta", find_certificate(cols) if cols else None)
        elif any(pairing(a, self.eta) <= 0 for a in cols):
            raise NotPointed(
                "given direction does not pair positively with every column"
            )


def _dot(a: tuple, b: tuple):
    return sum(x * y for x, y in zip(a, b))


def count_partitions(problem: PartitionProblem) -> int:
    """Exact number of solutions: the effective target's coefficient in
    one expansion truncated at the target's eta-level."""
    eff = problem.target - problem.shift
    for lb, a in zip(problem.lower_bounds, problem.columns):
        if lb:
            eff = eff - a
    if not problem.columns:
        return 1 if eff.is_zero() else 0
    cols = [a.coords for a in problem.columns]
    eta, target = problem.eta.coords, eff.coords
    return _expand(cols, eta, _dot(target, eta)).get(target, 0)


def _expand(cols: list[tuple], eta: tuple, level) -> dict[tuple, int]:
    """Terms t^v of prod_a 1/(1 - t^a) with <v, eta> <= level, as
    {v: coefficient}.  Every column pairs positively with eta, so the
    truncated terms are exactly those with a larger eta-level.

    Multiplying by 1/(1 - t^a) is the coin-change recurrence
    nxt[v] = terms[v] + nxt[v - a], so each line v + k*a is swept once,
    upward from its lowest term, and every output term is stored once.
    Terms are visited in increasing eta-level, so the first one met on
    a line is its lowest; the levels ride along with the terms.
    """
    terms = {(0,) * len(eta): 1} if level >= 0 else {}
    levels = [(0, v) for v in terms]
    for a in cols:
        step = _dot(a, eta)
        nxt: dict[tuple, int] = {}
        swept = []
        for lvl, v in sorted(levels):
            if v in nxt:
                continue
            c = 0
            while lvl <= level:
                c += terms.get(v, 0)
                nxt[v] = c
                swept.append((lvl, v))
                v = tuple(x + y for x, y in zip(v, a))
                lvl += step
        terms, levels = nxt, swept
    return terms


class CharacterTable:
    """Finitely supported integer-multiplicity function on the lattice."""

    def __init__(self, entries=()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        acc: dict[WeightVector, int] = {}
        for w, c in items:
            if not isinstance(w, WeightVector):
                w = WeightVector(tuple(w))
            if not w.is_integral():
                raise ComputationError(f"character weight {w} is not a lattice point")
            if type(c) is not int:
                c = Fraction(c)
                if c.denominator != 1:
                    raise ComputationError(f"non-integer multiplicity {c} at {w}")
                c = int(c)
            acc[w] = acc.get(w, 0) + c
        self._table = {w: c for w, c in acc.items() if c != 0}

    def __getitem__(self, w: WeightVector) -> int:
        return self._table.get(w, 0)

    def __contains__(self, w: WeightVector) -> bool:
        return w in self._table

    def __len__(self) -> int:
        return len(self._table)

    def __bool__(self) -> bool:
        return bool(self._table)

    def __eq__(self, other) -> bool:
        return isinstance(other, CharacterTable) and self._table == other._table

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __iter__(self):
        return iter(self.support())

    def support(self) -> tuple[WeightVector, ...]:
        return tuple(sorted(self._table, key=lambda w: w.coords))

    def items(self) -> list[tuple[WeightVector, int]]:
        return [(w, self._table[w]) for w in self.support()]

    def total(self) -> int:
        return sum(self._table.values())

    def __add__(self, other: "CharacterTable") -> "CharacterTable":
        return CharacterTable(list(self._table.items()) + list(other._table.items()))

    def __sub__(self, other: "CharacterTable") -> "CharacterTable":
        return self + other.scale(-1)

    def scale(self, c: int) -> "CharacterTable":
        return CharacterTable([(w, v * c) for w, v in self._table.items()])

    def __repr__(self):
        inner = ", ".join(f"({w}): {c}" for w, c in self.items())
        return "CharacterTable{%s}" % inner


def generic_direction(ds: LocalizationDataset) -> WeightVector:
    """Default eta: generic for every normal weight of the dataset."""
    return pick_generic_direction(ds.all_normal_weights(), ds.rank)


def _check_power(m):
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ComputationError(f"power m must be a positive integer, got {m!r}")


def _check_rank(ds: LocalizationDataset, mu: WeightVector):
    if len(mu.coords) != ds.rank:
        raise ComputationError(
            f"weight rank {len(mu.coords)} differs from dataset rank {ds.rank}",
            code="rank-mismatch",
        )


def _polarized(ds: LocalizationDataset, eta: WeightVector):
    """Polarize every fixed point once.

    Returns q and, per fixed point, (coef, fiber, shift, columns): sign
    * the coefficient polynomial times q, the coefficients' common
    denominator, and the coordinates of the fiber weight, the shift and
    the polarized columns.
    """
    q = math.lcm(*(c.denominator for fp in ds.fixed_points for c in fp.coefficient))
    points = []
    for fp in ds.fixed_points:
        pol = polarize(fp, eta)
        points.append((
            [(-1) ** pol.sign_count * c.numerator * (q // c.denominator)
             for c in fp.coefficient],
            fp.fiber_weight.coords, pol.shift.coords,
            [a.coords for a in pol.polarized_weights],
        ))
    return q, points


def _at_power(coef: list[int], m: int) -> int:
    """The polynomial coef (constant first) at m."""
    return sum(c * m**k for k, c in enumerate(coef))


def _exact(total: int, q: int, mu: WeightVector, k: int = 1) -> int:
    """The multiplicity total / q at k*mu, which must be an integer."""
    value, rest = divmod(total, q)
    if rest:
        raise ComputationError(
            f"multiplicity at {k * mu} is not an integer: {Fraction(total, q)}",
            code="non-integer-multiplicity",
        )
    return value


def _plan(
    ds: LocalizationDataset, mu: WeightVector, eta: WeightVector,
    m_from: int, m_to: int, scaled: bool,
):
    """at(m): the multiplicity at mu, or at m*mu when scaled, for m in
    [m_from, m_to].

    At a power m, fixed point F adds sign * coefficient_at(m) times the
    coefficient of t^(m*J_F - shift_F - target) in prod 1/(1 - t^a')
    over its polarized columns a'.  The eta-level of that exponent is
    affine in m, so each fixed point is expanded once, up to the larger
    of its levels at m_from and m_to, and each m is one lookup per
    fixed point.
    """
    _check_rank(ds, mu)
    q, points = _polarized(ds, eta)
    e, base = eta.coords, mu.coords

    def exponent(m, fiber, shift):
        k = m if scaled else 1
        return tuple(m * j - s - k * t for j, s, t in zip(fiber, shift, base))

    expansions = [
        _expand(cols, e, max(_dot(exponent(m, fiber, shift), e)
                             for m in (m_from, m_to)))
        for _, fiber, shift, cols in points
    ]

    def at(m: int) -> int:
        total = sum(
            _at_power(coef, m) * terms.get(exponent(m, fiber, shift), 0)
            for (coef, fiber, shift, _), terms in zip(points, expansions)
        )
        return _exact(total, q, mu, m if scaled else 1)

    return at


def multiplicity(
    ds: LocalizationDataset, mu: WeightVector, m: int,
    eta: WeightVector | None = None,
) -> int:
    """Multiplicity of the weight mu in the m-th power character."""
    _check_power(m)
    _check_rank(ds, mu)
    if not mu.is_integral():
        raise ComputationError(f"weight {mu} is not a lattice point")
    if eta is None:
        eta = generic_direction(ds)
    return _plan(ds, mu, eta, m, m, scaled=False)(m)


def character_table(
    ds: LocalizationDataset, m: int, eta: WeightVector | None = None
) -> CharacterTable:
    """Full character of the m-th power as a weight/multiplicity table.

    The support lies in the convex hull of the scaled fiber weights, so
    their integer bounding box holds every entry.  Each fixed point adds
    its sign and coefficient times one expansion of prod 1/(1 - t^a')
    over its polarized columns a', placed at the apex m*fiber - shift
    and truncated at the lowest eta-level of the box; the sum is
    clipped to the box.
    """
    _check_power(m)
    if eta is None:
        eta = generic_direction(ds)
    q, points = _polarized(ds, eta)
    e = eta.coords
    corners = [tuple(m * x for x in fiber) for _, fiber, _, _ in points]
    lo = [min(c[i] for c in corners) for i in range(ds.rank)]
    hi = [max(c[i] for c in corners) for i in range(ds.rank)]
    floor = sum(min(a * x, b * x) for a, b, x in zip(lo, hi, e))
    acc: dict[tuple[int, ...], int] = {}
    for coef, fiber, shift, cols in points:
        scale = _at_power(coef, m)
        apex = tuple(m * j - s for j, s in zip(fiber, shift))
        for v, n in _expand(cols, e, _dot(apex, e) - floor).items():
            mu = tuple(x - y for x, y in zip(apex, v))
            if all(a <= x <= b for a, x, b in zip(lo, mu, hi)):
                acc[mu] = acc.get(mu, 0) + scale * n
    entries = []
    for key in sorted(acc):
        w = WeightVector(key)
        if w.is_integral():  # rational normal weights reach off-lattice points
            entries.append((w, _exact(acc[key], q, w)))
    return CharacterTable(entries)


def multiplicity_series(
    ds: LocalizationDataset,
    mu: WeightVector,
    m_from: int,
    m_to: int,
    mode: str = MODE_SCALED,
    eta: WeightVector | None = None,
) -> list[tuple[int, int]]:
    """Multiplicities for m in [m_from, m_to], at mu (fixed mode) or at
    m*mu (scaled mode).

    One plan serves the whole range: each fixed point is polarized and
    expanded once, and each m is then one lookup per fixed point.
    """
    if mode not in (MODE_FIXED, MODE_SCALED):
        raise ComputationError(f"unknown mode {mode!r}", code="bad-mode")
    _check_power(m_from)
    if isinstance(m_to, bool) or not isinstance(m_to, int):
        raise ComputationError(f"power m_to must be an integer, got {m_to!r}")
    if m_to < m_from:
        raise ComputationError("empty power range")
    if eta is None:
        eta = generic_direction(ds)
    scaled = mode == MODE_SCALED
    # m*mu is a lattice point exactly when q divides m
    q = math.lcm(*(c.denominator for c in mu.coords))
    # with q > 1 the lattice check fails at m_from + 1: plan m_from only
    last = m_to if q == 1 else m_from
    at = None
    out = []
    for m in range(m_from, m_to + 1):
        if q > 1 and not (scaled and m % q == 0):
            raise ComputationError(
                f"scaled weight {m}*({mu}) is not a lattice point",
                code="non-lattice-weight",
            )
        # planned after the first lattice check, which must raise first
        at = at or _plan(ds, mu, eta, m_from, last, scaled)
        out.append((m, at(m)))
    return out
