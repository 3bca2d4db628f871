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
A whole table (`character_table`) reads each fixed point once, on the
side of the middle eta-level of the weight polytope that its apex lies
on; the sums off the polytope are exact zeros, so nothing is clipped
(an irreducible Weyl character, in `weylred`, is
one expansion over the positive roots looked up by Kostant's formula); a
series in m (`multiplicity_series`) reads, for each fixed point, the
line its targets lie on, which is affine in m, over the window of
powers whose target lies at level 0 or above, as one arithmetic
progression looked up by C-level iterators, a constant coefficient
polynomial evaluated once per fixed point; `multiplicity` is the
one-power fixed-mode series, and `count_partitions` reads one
coefficient.  The results are independent of eta; tests exercise this.

A dataset holds, for its lifetime, what depends on it alone
(`LocalizationDataset.plan`): its generic direction, its polarization
per eta, and one expansion per column multiset, shared by the fixed
points whose sorted polarized columns are equal and cut at the deepest
level a series has asked of it.  One rule (`_held`) holds every
expansion, a root system's Kostant partition function and, for one
call, a table's too: a held cut at or above the level asked serves,
since a term of a deeper cut at a level at most L is the term of the
cut at L, and any other is replaced by one expansion to that level, so
no answer depends on the order of the calls.  Every change to the
holder is one store of a finished value, so threads sharing a dataset
read consistent entries.

Dataset weights are lattice points and eta is read as its integer ray
(`_ray`), the only thing polarization and every truncation depend on,
so the kernel compares ints; only a `PartitionProblem` may have
rational columns.  `polarize` returns a fixed point's sign, shift and
polarized columns as ints, which the kernel uses as they are.  A
CharacterTable is keyed by int tuples too, and makes WeightVectors
only where it hands weights out.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, itemgetter, mul, neg, sub
from typing import Iterable, Mapping

from .errors import LocmultError
from .fpdata import FixedPointDatum, LocalizationDataset
from .lattice import (
    WeightVector, _check_rank, _coordinate, _instance, _integer, _weight, pairing,
    pick_generic_direction, zero_vector,
)
from .poly import evaluate

MODE_FIXED = "fixed"
MODE_SCALED = "scaled"


class EtaNotGeneric(LocmultError):
    code = "eta-not-generic"


class NotPointed(LocmultError):
    code = "not-pointed"


class ComputationError(LocmultError):
    code = "computation-error"


def polarize(fp: FixedPointDatum, eta: WeightVector) -> tuple[int, tuple, tuple]:
    """fp's normal weights flipped into the eta-positive half space, as
    (sign, shift, columns) on int tuples: sign is (-1)^(number of flips),
    shift the sum of the flipped (already negated) weights and columns
    the polarized weights, in fp's order."""
    _instance(fp, FixedPointDatum, "not-a-fixed-point", ComputationError)
    e = _instance(eta, WeightVector, "not-a-weight", ComputationError).coords
    sign, shift, columns = 1, (0,) * len(e), []
    for a in fp.normal_weights:
        if len(a.coords) != len(e):
            _check_rank(a, eta)
        p = _dot(a.coords, e)
        if p == 0:
            raise EtaNotGeneric(
                f"eta not generic: orthogonal to normal weight {a} at {fp.label!r}"
            )
        column = a.coords
        if p < 0:
            column = tuple(map(neg, column))
            sign, shift = -sign, tuple(map(add, shift, column))
        columns.append(column)
    return sign, shift, tuple(columns)


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
    columns = [_instance(a, WeightVector, "not-a-weight", ComputationError)
               for a in columns]
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
        rank = _instance(self.target, WeightVector, "not-a-weight", ComputationError).rank
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
            if _instance(a, WeightVector, "not-a-weight", ComputationError).rank != rank:
                raise ComputationError("column rank differs from target rank",
                                       code="rank-mismatch")
        if self.eta is None:
            object.__setattr__(self, "eta", find_certificate(cols) if cols else None)
        elif any(pairing(a, self.eta) <= 0 for a in cols):
            raise NotPointed(
                "given direction does not pair positively with every column"
            )


def _dot(a: tuple, b: tuple):
    return sum(map(mul, a, b))


def _ray(eta: WeightVector) -> tuple[int, ...]:
    """eta's integer ray: its coordinates times their common denominator."""
    d = math.lcm(*[c.denominator for c in eta.coords])
    return eta.coords if d == 1 else tuple(
        c.numerator * (d // c.denominator) for c in eta.coords)


def count_partitions(problem: PartitionProblem) -> int:
    """Exact number of solutions: the effective target's coefficient in
    one expansion truncated at the target's level on the ray of eta."""
    _instance(problem, PartitionProblem, "not-a-partition-problem", ComputationError)
    eff = problem.target - problem.shift
    for lb, a in zip(problem.lower_bounds, problem.columns):
        if lb:
            eff = eff - a
    if not problem.columns:
        return 1 if eff.is_zero() else 0
    cols = [a.coords for a in problem.columns]
    eta, target = _ray(problem.eta), eff.coords
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
    zero = (0,) * len(eta)
    terms, levels = {zero: 1}, [(0, zero)]
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
                v = tuple(map(add, v, a))
                lvl += step
        terms, levels = nxt, swept
    return terms


def _held(holder: dict, key, cols: list[tuple], eta: tuple, level) -> dict[tuple, int]:
    """holder's expansion of cols along eta under key, cut at level or
    deeper: a deeper cut serves, its terms up to level being those of
    the cut at level, and a shallower one is replaced by one expansion
    to level, stored whole in one assignment, so a thread sharing the
    holder reads a consistent entry."""
    held = holder.get(key)
    if held is None or held[0] < level:
        held = holder[key] = level, _expand(cols, eta, level)
    return held[1]


class CharacterTable:
    """Finitely supported int multiplicities, keyed by int coordinate tuples."""

    def __init__(self, entries=()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        acc: dict[tuple, int] = {}
        for entry in _instance(items, Iterable, "not-a-character", ComputationError,
                               "character"):
            try:
                w, c = entry
            except (TypeError, ValueError):
                raise ComputationError(f"entry {entry!r} is not a (weight, multiplicity)"
                                       " pair", code="not-a-character") from None
            w = _weight(w, ComputationError)
            if not w.is_integral():
                raise ComputationError(f"character weight {w} is not a lattice point")
            if type(c) is not int:
                c = _coordinate(c)
                if type(c) is not int:
                    raise ComputationError(f"non-integer multiplicity {c} at {w}")
            acc[w.coords] = acc.get(w.coords, 0) + c
        self._table = {w: c for w, c in acc.items() if c != 0}

    @classmethod
    def _unchecked(cls, table: dict[tuple, int]) -> "CharacterTable":
        """The table of the dict itself, whose keys are int coordinate
        tuples with nonzero int multiplicities; nothing is checked."""
        self = cls.__new__(cls)
        self._table = table
        return self

    def __getitem__(self, w) -> int:
        return self._table.get(_weight(w, ComputationError).coords, 0)

    def __contains__(self, w) -> bool:
        return _weight(w, ComputationError).coords in self._table

    def __len__(self) -> int:
        return len(self._table)

    def __bool__(self) -> bool:
        return bool(self._table)

    def __eq__(self, other) -> bool:
        return isinstance(other, CharacterTable) and self._table == other._table

    def __hash__(self) -> int:
        return hash(frozenset(self._table.items()))

    def __iter__(self):
        return iter(self.support())

    def support(self) -> tuple[WeightVector, ...]:
        return tuple(map(WeightVector, sorted(self._table)))

    def items(self) -> list[tuple[WeightVector, int]]:
        return [(WeightVector(w), c) for w, c in sorted(self._table.items())]

    def total(self) -> int:
        return sum(self._table.values())

    def _plus(self, other, n: int) -> "CharacterTable":
        """self + n * other, for an int n."""
        a = self._table
        b = _instance(other, CharacterTable, "not-a-character", ComputationError)._table
        return CharacterTable._unchecked({
            w: c for w in a.keys() | b.keys() if (c := a.get(w, 0) + n * b.get(w, 0))})

    def __add__(self, other: "CharacterTable") -> "CharacterTable":
        return self._plus(other, 1)

    def __sub__(self, other: "CharacterTable") -> "CharacterTable":
        return self._plus(other, -1)

    def scale(self, c: int) -> "CharacterTable":
        return CharacterTable([(w, v * c) for w, v in self._table.items()])

    def __repr__(self):
        inner = ", ".join(f"({w}): {c}" for w, c in self.items())
        return "CharacterTable{%s}" % inner


def generic_direction(ds: LocalizationDataset) -> WeightVector:
    """Default eta: generic for every normal weight of the dataset.

    It relies on what the dataset's constructors proved: every normal
    weight is a nonzero lattice point of the dataset's rank, so each
    distinct one, told apart by its int coordinates, goes to
    `pick_generic_direction` once, whose checks then pass.  It depends
    on the dataset alone, so the dataset holds it once found."""
    plan = _instance(ds, LocalizationDataset, "not-a-dataset", ComputationError).plan
    eta = plan.get("direction")
    if eta is None:
        plan["direction"] = eta = pick_generic_direction(ds.all_normal_weights(), ds.rank)
    return eta


def _polarized(ds: LocalizationDataset, eta: WeightVector):
    """Polarize every fixed point once per eta, which the dataset holds.

    Returns q, the coefficients' common denominator, eta's integer ray
    e and, per fixed point, (coef, fiber, shift, columns, key): sign *
    the coefficient polynomial times q, the coordinates of the fiber
    weight, the shift and the polarized columns, and (e, the sorted
    columns), the key of the one expansion that every fixed point with
    the same column multiset shares.  eta's type and rank, and the
    dataset's type, are checked here, where every entry point meets them
    and no normal weight is needed to; an eta is held only once they
    pass.
    """
    _instance(eta, WeightVector, "not-a-weight", ComputationError)
    plan = _instance(ds, LocalizationDataset, "not-a-dataset", ComputationError).plan
    held = plan.get(eta)
    if held is not None:
        return held
    if len(eta.coords) != ds.rank:
        raise ComputationError(f"eta rank {len(eta.coords)} differs from dataset "
                               f"rank {ds.rank}", code="rank-mismatch")
    q = math.lcm(*(c.denominator for fp in ds.fixed_points for c in fp.coefficient))
    e, points = _ray(eta), []
    for fp in ds.fixed_points:
        sign, shift, columns = polarize(fp, eta)
        points.append((
            [sign * c.numerator * (q // c.denominator) for c in fp.coefficient],
            fp.fiber_weight.coords, shift, columns, (e, tuple(sorted(columns))),
        ))
    plan[eta] = held = q, e, points
    return held


def _exact(total: int, q: int, mu: tuple, k: int = 1) -> int:
    """The multiplicity total / q at k*mu (coordinates): an integer."""
    value, rest = divmod(total, q)
    if rest:
        raise ComputationError(
            f"multiplicity at {k * WeightVector(mu)} is not an integer: "
            f"{Fraction(total, q)}",
            code="non-integer-multiplicity",
        )
    return value


def _plan(
    ds: LocalizationDataset, mu: WeightVector, eta: WeightVector,
    m_from: int, m_to: int, scaled: bool,
) -> list[tuple[int, int]]:
    """The series (m, multiplicity at mu, or at m*mu when scaled) for m
    in [m_from, m_to].

    At a power m, fixed point F adds sign_F * c_F(m), its coefficient
    polynomial at m, times the coefficient of t^x in prod 1/(1 - t^a')
    over its polarized columns a', at x = m*(J_F - k*mu) - shift_F -
    (1 - k)*mu, with k = 1 when scaled and 0 when not.  The exponent x
    is affine in m, so its level is too: its top over the range is the
    larger of its eta-levels at m_from and m_to, and its targets over
    the window of powers at levels 0..top, where the terms lie, are one
    arithmetic progression: a zip of one range per coordinate, looked up
    by one `map`.  A fixed point with an empty window is not read.  The
    dataset holds one expansion per column multiset (`_held`), and the
    fixed points are read deepest first, so a multiset is expanded at
    most once, to the deepest of its tops.  A constant
    coefficient polynomial, as every shipped dataset has, is evaluated
    once per window and repeated; any other is evaluated at each power of
    the window by `map`.  The products are added into the window's totals
    by `map`, so no power costs a Python-level step.  With q > 1 the
    totals are then checked in increasing m, so the first non-integer
    one is named.
    """
    q, e, points = _polarized(ds, eta)
    plan, base = ds.plan, mu.coords
    k = 1 if scaled else 0
    powers = range(m_from, m_to + 1)
    n = len(powers)
    reads = []
    for coef, fiber, shift, cols, key in points:
        step = tuple(j - k * t for j, t in zip(fiber, base))
        x = tuple(m_from * d - s - (1 - k) * t
                  for d, s, t in zip(step, shift, base))
        level, rise = _dot(x, e), _dot(step, e)
        # the window: the i with level + i * rise >= 0
        lo = max(0, -(level // rise)) if rise > 0 else 0 if level >= 0 else n
        hi = min(n, level // -rise + 1) if rise < 0 else n
        if lo < hi:
            reads.append((max(level, level + (n - 1) * rise), coef, x, step, lo, hi,
                          cols, key))
    totals = [0] * n
    # deepest first, so that a column multiset is expanded at most once
    reads.sort(key=itemgetter(0), reverse=True)
    for top, coef, x, step, lo, hi, cols, key in reads:
        line = zip(*[range(a + lo * d, a + hi * d, d) if d else repeat(a, hi - lo)
                     for a, d in zip(x, step)])
        values = (repeat(evaluate(coef, powers[lo]), hi - lo) if len(coef) < 2
                  else map(evaluate, repeat(coef), powers[lo:hi]))
        counts = map(_held(plan, key, cols, e, top).get, line, repeat(0))
        totals[lo:hi] = map(add, totals[lo:hi], map(mul, values, counts))
    if q == 1:
        return list(zip(powers, totals))
    return [(m, _exact(total, q, base, m if scaled else 1))
            for m, total in zip(powers, totals)]


def multiplicity(
    ds: LocalizationDataset, mu: WeightVector, m: int,
    eta: WeightVector | None = None,
) -> int:
    """Multiplicity of the weight mu in the m-th power character: the
    one-power fixed-mode series, which reads and deepens what the
    dataset holds as any series does."""
    return multiplicity_series(ds, mu, m, m, MODE_FIXED, eta)[0][1]


def character_table(
    ds: LocalizationDataset, m: int, eta: WeightVector | None = None
) -> CharacterTable:
    """Full character of the m-th power as a weight/multiplicity table.

    Fixed point F adds sign * coefficient * t^apex / prod (1 - t^-a')
    over its polarized columns a', apex = m*J_F - shift_F.  The sum does
    not depend on the direction of expansion, so each term is read once,
    on its side of `cut`, the polytope's middle level: along eta down to
    cut, or along -eta, as (-1)^N t^(apex + sum a') / prod (1 - t^a'), up
    to cut - 1; the depths add up to -1 - sum <a', eta> < 0.  The reads
    share one expansion per column multiset, held for the call (`_held`).
    """
    _integer(m, "power m", "computation-error", 1, ComputationError)
    if eta is None:
        eta = generic_direction(ds)
    q, e, points = _polarized(ds, eta)
    levels = [m * _dot(fp.fiber_weight.coords, e) for fp in ds.fixed_points]
    cut = (min(levels) + max(levels)) // 2
    reads = []
    for coef, fiber, shift, cols, key in points:
        scale, toward = evaluate(coef, m), sub
        corner = tuple(m * j - s for j, s in zip(fiber, shift))  # the apex
        depth = _dot(corner, e) - cut
        if depth < 0:  # below the cut: read up from apex + sum a' instead
            corner, toward = tuple(map(sum, zip(corner, *cols))), add
            depth, scale = cut - 1 - _dot(corner, e), scale * (-1) ** len(cols)
        if depth >= 0:
            reads.append((depth, scale, corner, toward, cols, key))
    held, acc = {}, {}
    # deepest first, so that a column multiset is expanded once
    reads.sort(key=itemgetter(0), reverse=True)
    for depth, scale, corner, toward, cols, key in reads:
        terms = _held(held, key, cols, e, depth).items()
        if held[key][0] > depth:
            terms = [(v, n) for v, n in terms if _dot(v, e) <= depth]
        for v, n in terms:
            mu = tuple(map(toward, corner, v))
            acc[mu] = acc.get(mu, 0) + scale * n
    table = {key: total for key, total in acc.items() if total}
    if q > 1:  # the lowest weight with a non-integer multiplicity is named
        table = {key: _exact(table[key], q, key) for key in sorted(table)}
    return CharacterTable._unchecked(table)


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

    An empty range, or one of more than sys.maxsize powers, is refused,
    and then the rank of mu and the lattice condition for the whole
    range are checked, before anything is planned.  One plan serves the whole
    range, and the dataset holds it for its lifetime: each fixed point
    is polarized once per eta, and each column multiset is expanded only
    when a call reaches above the level the dataset holds it at, so a
    repeated or shallower call expands nothing; every line of targets is
    then read once as a progression in m.  No answer depends on what the
    dataset held before the call.
    """
    if mode not in (MODE_FIXED, MODE_SCALED):
        raise ComputationError(f"unknown mode {mode!r}", code="bad-mode")
    _integer(m_from, "power m", "computation-error", 1, ComputationError)
    _integer(m_to, "power m_to", "computation-error", None, ComputationError)
    if m_to < m_from:
        raise ComputationError("empty power range")
    if m_to - m_from >= sys.maxsize:
        raise ComputationError(f"power range {m_from}..{m_to} has more than "
                               f"{sys.maxsize} powers")
    _instance(mu, WeightVector, "not-a-weight", ComputationError)
    _instance(ds, LocalizationDataset, "not-a-dataset", ComputationError)
    if mu.rank != ds.rank:
        raise ComputationError(
            f"weight rank {mu.rank} differs from dataset rank {ds.rank}",
            code="rank-mismatch",
        )
    scaled = mode == MODE_SCALED
    # m*mu is a lattice point exactly when q divides m: with q > 1 only a
    # single scaled power that q divides passes, read as the fixed m*mu
    q = math.lcm(*(c.denominator for c in mu.coords))
    if q > 1 and not (scaled and m_from % q == 0 and m_to == m_from):
        m = m_from + (m_from % q == 0)  # the first power that fails
        raise ComputationError(
            f"scaled weight {m}*({mu}) is not a lattice point" if scaled
            else f"weight {mu} is not a lattice point",
            code="non-lattice-weight",
        )
    if q > 1:
        mu, scaled = m_from * mu, False
    if eta is None:
        eta = generic_direction(ds)
    return _plan(ds, mu, eta, m_from, m_to, scaled)
