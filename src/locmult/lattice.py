"""Weight lattice vectors, exact linear algebra, and finite reflection groups.

Everything is exact: a WeightVector keeps an integral coordinate as an
int and any other as a Fraction (weights may be rational, e.g. delta or
an eta certificate), so lattice points are plain int tuples throughout;
a float is refused (inexact-number), and so is any other value that
is not an int, a Fraction or an integer-or-"p/q" string (bad-number),
the grammar of the documents and the CLI.
Systems are solved by Gaussian elimination over the rationals, and Weyl
groups are generated as integer matrix groups.
The pairing used throughout is the coordinate dot product, so root
systems must be presented in a basis where that pairing is Weyl
invariant, as orthogonal realizations of the classical series are;
`generate_weyl_group` refuses any other (non-orthogonal-root-system).
Then 2*delta pairs nonzero with every root, and w(delta) - delta is a
lattice point for every Weyl element w.  An integer matrix orthogonal
for the coordinate pairing is a signed permutation, so
`RootSystem.dot_action` keeps each w as its sign, the one nonzero
(column, +-1) of each row and the offset w(delta) - delta, computed on
ints as (w(2*delta) - 2*delta) / 2 once per root system; the dot
action w(mu + delta) - delta is then one multiply and one add per
coordinate.  `WeylElement.apply` stays the Fraction-path reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import LocmultError


class LatticeError(LocmultError):
    code = "lattice-error"


class NotReflectionGroup(LocmultError):
    code = "not-reflection-group"


@dataclass(frozen=True)
class WeightVector:
    """Point of the weight lattice (or its rational span).  Integral
    coordinates are stored as int, the others as Fraction."""

    coords: tuple[int | Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(_coordinate, self.coords)))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def __add__(self, other: "WeightVector") -> "WeightVector":
        _check_rank(self, other)
        return WeightVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        _check_rank(self, other)
        return WeightVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "WeightVector":
        return WeightVector(tuple(-a for a in self.coords))

    def __mul__(self, scalar) -> "WeightVector":
        s = _coordinate(scalar)
        return WeightVector(tuple(a * s for a in self.coords))

    __rmul__ = __mul__

    def __repr__(self):
        return "WeightVector(%s)" % ", ".join(str(c) for c in self.coords)

    def __str__(self):
        return ",".join(str(c) for c in self.coords)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational_from_text(text: str) -> Fraction | None:
    """An integer or "p/q" string as a Fraction; None for anything else,
    decimals, exponents and zero denominators included."""
    if _RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            pass
    return None


def _coordinate(c) -> int | Fraction:
    """An int, a Fraction or an integer-or-"p/q" string as an exact
    number: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    q = rational_from_text(c) if isinstance(c, str) else c
    if not isinstance(q, (int, Fraction)):
        kind = "inexact" if isinstance(c, float) else "bad"
        raise LatticeError(
            f"{kind} number {c!r}: use an int, a Fraction or a 'p/q' string",
            code=f"{kind}-number",
        )
    return q.numerator if q.denominator == 1 else q


def wv(*coords) -> WeightVector:
    """Shorthand constructor."""
    return WeightVector(coords)


def zero_vector(rank: int) -> WeightVector:
    return WeightVector((0,) * rank)


def _check_rank(a: WeightVector, b: WeightVector):
    if len(a.coords) != len(b.coords):
        raise LatticeError(
            f"rank mismatch: {len(a.coords)} vs {len(b.coords)}", code="rank-mismatch"
        )


def pairing(a: WeightVector, b: WeightVector) -> int | Fraction:
    """Coordinate dot product; an int for two lattice points."""
    _check_rank(a, b)
    return sum(x * y for x, y in zip(a.coords, b.coords))


def pick_generic_direction(weights: Iterable[WeightVector], rank: int) -> WeightVector:
    """Direction with nonzero pairing against every given weight.

    Tries moment-curve points (1, t, t^2, ...) for t = 1, 2, ...; each
    nonzero weight excludes at most rank-1 values of t, so the search
    terminates.
    """
    weights = list(weights)
    for w in weights:
        if len(w.coords) != rank:
            raise LatticeError(
                f"weight {w} does not have rank {rank}", code="rank-mismatch"
            )
        if w.is_zero():
            raise LatticeError(
                "cannot pick a direction generic for the zero weight",
                code="zero-weight",
            )
    t = 1
    while True:
        cand = WeightVector(tuple(t**i for i in range(rank)))
        if all(pairing(w, cand) != 0 for w in weights):
            return cand
        t += 1


def solve_exact(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve a full-column-rank rational system exactly.

    Returns the unique solution, or None if the system is inconsistent.
    Raises if the columns are linearly dependent (no unique solution).
    """
    m = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(m[0]) - 1 if m else 0
    pivot_rows = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            raise LatticeError(
                "linearly dependent columns in exact solve", code="dependent-columns"
            )
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivot_rows.append(r)
        r += 1
    for i in range(r, nrows):
        if m[i][ncols] != 0:
            return None
    return [m[i][ncols] for i in pivot_rows]


@dataclass(frozen=True)
class WeylElement:
    """Lattice automorphism given by an integer matrix acting on coordinates."""

    matrix: tuple[tuple[int, ...], ...]
    sign: int

    def apply(self, v: WeightVector) -> WeightVector:
        if len(self.matrix) != len(v.coords):
            raise LatticeError(
                f"element of rank {len(self.matrix)} applied to rank {len(v.coords)}",
                code="rank-mismatch",
            )
        return WeightVector(
            tuple(sum(a * c for a, c in zip(row, v.coords)) for row in self.matrix)
        )

    def compose(self, other: "WeylElement") -> "WeylElement":
        """Matrix product self @ other (apply other first)."""
        n = len(self.matrix)
        prod = tuple(
            tuple(
                sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n))
                for j in range(n)
            )
            for i in range(n)
        )
        return WeylElement(prod, self.sign * other.sign)


@dataclass(frozen=True)
class RootSystem:
    """Finite reflection group data attached to a weight lattice."""

    simple_roots: tuple[WeightVector, ...]
    cartan_pairing: tuple[tuple[int, ...], ...]
    positive_roots: tuple[WeightVector, ...]
    delta: WeightVector
    weyl_elements: tuple[WeylElement, ...]

    @property
    def rank(self) -> int:
        return len(self.simple_roots[0].coords)

    @property
    def order(self) -> int:
        return len(self.weyl_elements)

    @cached_property
    def dot_action(self) -> tuple[tuple[int, tuple, tuple], ...]:
        """(sign, rows, offset) for every Weyl element w, in the order of
        weyl_elements: rows holds the one nonzero (column, +-1) of each
        row of w's matrix, a signed permutation, and offset is
        w(delta) - delta, so w(mu + delta) - delta is
        tuple(c * mu[k] + o for (k, c), o in zip(rows, offset))."""
        two_delta = (2 * self.delta).coords
        action = []
        for w in self.weyl_elements:
            rows = tuple(next((k, c) for k, c in enumerate(row) if c)
                         for row in w.matrix)
            offset = tuple((c * two_delta[k] - d) // 2
                           for (k, c), d in zip(rows, two_delta))
            action.append((w.sign, rows, offset))
        return tuple(action)


def _identity_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _reflection_matrix(root: WeightVector, coroot_row: Sequence[int]):
    # s(e_k) = e_k - coroot[k] * root, columns assembled into rows.
    n = len(root.coords)
    return tuple(
        tuple(
            (1 if r == k else 0) - coroot_row[k] * root.coords[r]
            for k in range(n)
        )
        for r in range(n)
    )


def generate_weyl_group(
    simple_roots: Sequence[WeightVector],
    cartan_pairing: Sequence[Sequence[int]],
    element_cap: int = 100_000,
) -> RootSystem:
    """Close the simple reflections into a finite matrix group.

    cartan_pairing row i is the coroot of simple root i as a lattice
    functional, with integer entries read like coordinates (cartan-pairing
    for a non-integer one); reflection i sends v to
    v - <v, coroot_i> * root_i.
    Raises NotReflectionGroup if closure exceeds element_cap, and
    non-orthogonal-root-system unless every row is 2 * root / <root, root>.
    """
    roots = tuple(simple_roots)
    if not roots:
        raise LatticeError("need at least one simple root", code="empty-root-system")
    p = len(roots[0].coords)
    for a in roots:
        if len(a.coords) != p:
            raise LatticeError("simple roots of unequal rank", code="rank-mismatch")
        if not a.is_integral():
            raise LatticeError(
                f"simple root {a} is not a lattice point", code="non-integer-weight"
            )
        if a.is_zero():
            raise LatticeError("zero simple root", code="zero-weight")
    table = tuple(tuple(map(_coordinate, row)) for row in cartan_pairing)
    rational = next((x for row in table for x in row if type(x) is not int), None)
    if rational is not None:
        raise LatticeError(
            f"cartan pairing entry {rational} is not an integer",
            code="cartan-pairing",
        )
    if len(table) != len(roots) or any(len(row) != p for row in table):
        raise LatticeError(
            "cartan pairing table shape does not match the simple roots",
            code="cartan-shape",
        )
    for i, (a, row) in enumerate(zip(roots, table)):
        if pairing(a, WeightVector(row)) != 2:
            raise LatticeError(
                f"cartan row {i} must pair to 2 with its simple root",
                code="cartan-pairing",
            )
    # Linear independence of the simple roots.
    probe = [[a.coords[r] for a in roots] for r in range(p)]
    try:
        solve_exact(probe, [Fraction(0)] * p)
    except LatticeError:
        raise LatticeError(
            "simple roots are linearly dependent", code="dependent-roots"
        ) from None

    gens = [
        WeylElement(_reflection_matrix(a, row), -1) for a, row in zip(roots, table)
    ]
    ident = WeylElement(_identity_matrix(p), 1)
    elements = {ident.matrix: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                cand = g.compose(w)
                if cand.matrix not in elements:
                    elements[cand.matrix] = cand
                    nxt.append(cand)
                    if len(elements) > element_cap:
                        raise NotReflectionGroup(
                            f"not a finite reflection group "
                            f"(closure exceeds {element_cap} elements)"
                        )
        frontier = nxt
    for i, (a, row) in enumerate(zip(roots, table)):
        norm = pairing(a, a)
        if any(x * norm != 2 * c for x, c in zip(row, a.coords)):
            raise LatticeError(
                f"cartan row {i} is not 2 * root / <root, root>: the "
                "coordinate pairing is not Weyl invariant",
                code="non-orthogonal-root-system",
            )

    orbit = {w.apply(a) for w in elements.values() for a in roots}
    root_matrix = [[a.coords[r] for a in roots] for r in range(p)]
    positive = []
    for b in orbit:
        coeffs = solve_exact(root_matrix, list(b.coords))
        if coeffs is not None and all(c >= 0 for c in coeffs):
            positive.append(b)
    positive.sort(key=lambda v: v.coords)
    half = Fraction(1, 2)
    delta = zero_vector(p)
    for b in positive:
        delta = delta + b
    delta = delta * half
    ordered = sorted(elements.values(), key=lambda w: w.matrix)
    return RootSystem(
        simple_roots=roots,
        cartan_pairing=table,
        positive_roots=tuple(positive),
        delta=delta,
        weyl_elements=tuple(ordered),
    )


def is_regular_dominant(mu: WeightVector, rs: RootSystem) -> bool:
    """Strictly inside the dominant chamber cut out by the positive roots."""
    return all(pairing(mu, b) > 0 for b in rs.positive_roots)


def is_dominant(mu: WeightVector, rs: RootSystem) -> bool:
    """In the closed dominant chamber."""
    return all(pairing(mu, b) >= 0 for b in rs.positive_roots)
