"""Weight lattice vectors, exact linear algebra, and finite reflection groups.

Everything is exact: a WeightVector keeps an integral coordinate as an
int and any other as a Fraction (weights may be rational, e.g. delta or
an eta certificate), so lattice points are plain int tuples throughout;
a float is refused (inexact-number), and so is any other value that
is not an int, a Fraction or an integer-or-"p/q" string (bad-number),
the grammar of the documents and the CLI.
Every module reads its typed arguments through the readers here, so
what an argument must be, and what a wrong one raises, is decided in
one place: `_instance` refuses an argument of another class ("<type>
is not a <Class>"), `_integer` one that is not an int of at least a
bound ("<what> must be an integer, got <x>"; a bool is not an int) and
`_weight` reads a weight argument as a WeightVector or its
coordinates; each caller names the code and the exception class.
Systems are solved by Gaussian elimination over the rationals.
The pairing used throughout is the coordinate dot product, so root
systems must be presented in a basis where that pairing is Weyl
invariant, as orthogonal realizations of the classical series are;
`generate_weyl_group` refuses any other (non-orthogonal-root-system)
before any closure.  Each simple reflection is then an integer
orthogonal matrix, a signed permutation, so the Weyl group is finite
and is closed as signed permutations, as is the root orbit, and each
element is stored once as its rows: row i is the one nonzero
(column, +-1) of row i of its matrix.  Then 2*delta pairs nonzero with
every root, and w(delta) - delta is a lattice point for every Weyl
element w, so `RootSystem.dot_action` adds to each element's sign and
rows the offset w(delta) - delta, computed on ints as
(w(2*delta) - 2*delta) / 2 once per root system, from 2*delta held on
ints as the sum of the positive roots (`RootSystem.two_delta`); the dot
action w(mu + delta) - delta is then one multiply and one add per
coordinate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import repeat
from operator import mul
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
        c = self.coords
        if type(c) is not tuple or not _ints(c):
            c = _instance(c, Iterable, "not-a-weight", name="weight")
            object.__setattr__(self, "coords", tuple(map(_coordinate, c)))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_integral(self) -> bool:
        return _ints(self.coords)

    def __add__(self, other: "WeightVector") -> "WeightVector":
        _check_rank(self, _instance(other, WeightVector, "not-a-weight"))
        return WeightVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        _check_rank(self, _instance(other, WeightVector, "not-a-weight"))
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


def _ints(values) -> bool:
    """Whether every entry of values is an int (a bool is not), read in
    one pass; a WeightVector's coordinates are all ints exactly when it
    is a lattice point."""
    for x in values:
        if type(x) is not int:
            return False
    return True


def _instance(x, cls, code: str, error=LatticeError, name: str | None = None):
    """x if it is an instance of cls, else error(code): "<type> is not a
    <name>", name defaulting to the class name."""
    if not isinstance(x, cls):
        raise error(f"{type(x).__name__} is not a {name or cls.__name__}", code=code)
    return x


_INTEGERS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def _integer(x, what: str, code: str, low: int | None = None, error=LatticeError) -> int:
    """x if it is an int (a bool is not) of at least low, which is None,
    0 or 1, else error(code): "<what> must be an integer, got <x>", the
    integer nonnegative for low 0 and positive for low 1."""
    if isinstance(x, bool) or not isinstance(x, int) or (low is not None and x < low):
        raise error(f"{what} must be {_INTEGERS[low]}, got {x!r}", code=code)
    return x


def _weight(w, error) -> WeightVector:
    """A weight argument as a WeightVector: as it is, or from its
    coordinates; anything not iterable is not-a-weight."""
    if isinstance(w, WeightVector):
        return w
    return WeightVector(_instance(w, Iterable, "not-a-weight", error, "weight"))


def wv(*coords) -> WeightVector:
    """Shorthand constructor."""
    return WeightVector(coords)


def zero_vector(rank: int) -> WeightVector:
    return WeightVector((0,) * _integer(rank, "rank", "bad-rank"))


def _check_rank(a: WeightVector, b: WeightVector):
    if len(a.coords) != len(b.coords):
        raise LatticeError(
            f"rank mismatch: {len(a.coords)} vs {len(b.coords)}", code="rank-mismatch"
        )


def pairing(a: WeightVector, b: WeightVector) -> int | Fraction:
    """Coordinate dot product; an int for two lattice points."""
    _check_rank(_instance(a, WeightVector, "not-a-weight"),
                _instance(b, WeightVector, "not-a-weight"))
    return sum(x * y for x, y in zip(a.coords, b.coords))


def pick_generic_direction(weights: Iterable[WeightVector], rank: int) -> WeightVector:
    """Direction with nonzero pairing against every given weight.

    Tries moment-curve points (1, t, t^2, ...) for t = 1, 2, ...; each
    nonzero weight excludes at most rank-1 values of t, so the search
    terminates.
    """
    rank = _integer(rank, "rank", "bad-rank")
    weights = [_instance(w, WeightVector, "not-a-weight").coords for w in weights]
    for w in weights:
        if len(w) != rank:
            raise LatticeError(f"weight {WeightVector(w)} does not have rank {rank}",
                               code="rank-mismatch")
        if not any(w):
            raise LatticeError(
                "cannot pick a direction generic for the zero weight",
                code="zero-weight",
            )
    t = 1
    while True:
        cand = tuple(t**i for i in range(rank))
        for w in weights:
            if not sum(map(mul, w, cand)):
                break
        else:
            return WeightVector(cand)
        t += 1


def solve_exact(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve a full-column-rank rational system exactly.

    Every entry is read like a coordinate (a float is inexact-number).
    Returns the unique solution, or None if the system is inconsistent.
    Raises if the columns are linearly dependent (no unique solution).
    """
    m = [[Fraction(_coordinate(x)) for x in (*row, v)] for row, v in zip(rows, rhs)]
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
    """Lattice automorphism given as a signed permutation: row i is the
    (column k, sign c) of coordinate i of an image, c * v[k]; sign is
    the determinant."""

    rows: tuple[tuple[int, int], ...]
    sign: int

    def apply(self, v: WeightVector) -> WeightVector:
        if len(self.rows) != len(_instance(v, WeightVector, "not-a-weight").coords):
            raise LatticeError(
                f"element of rank {len(self.rows)} applied to rank {len(v.coords)}",
                code="rank-mismatch",
            )
        coords = v.coords
        return WeightVector(tuple(c * coords[k] for k, c in self.rows))


@dataclass(frozen=True)
class RootSystem:
    """Finite reflection group data attached to a weight lattice, as
    `generate_weyl_group` builds it: tuples of WeightVectors (at least
    one simple root), of int tuples and of WeylElements, and a
    WeightVector delta; fields of any other type are not-a-root-system."""

    simple_roots: tuple[WeightVector, ...]
    cartan_pairing: tuple[tuple[int, ...], ...]
    positive_roots: tuple[WeightVector, ...]
    delta: WeightVector
    weyl_elements: tuple[WeylElement, ...]

    def __post_init__(self):
        fields = ((self.simple_roots, WeightVector), (self.cartan_pairing, tuple),
                  (self.positive_roots, WeightVector), (self.weyl_elements, WeylElement))
        if not (all(type(f) is tuple and all(map(isinstance, f, repeat(kind)))
                    for f, kind in fields)
                and self.simple_roots and isinstance(self.delta, WeightVector)
                and all(map(_ints, self.cartan_pairing))):
            raise LatticeError("a RootSystem holds the tuples and delta that "
                               "generate_weyl_group builds", code="not-a-root-system")

    @property
    def rank(self) -> int:
        return len(self.simple_roots[0].coords)

    @property
    def order(self) -> int:
        return len(self.weyl_elements)

    @cached_property
    def two_delta(self) -> tuple[int, ...]:
        """2*delta on ints, the sum of the positive roots: the direction
        of the Kostant expansion, and the offset the dot action and a
        decomposition are derived from."""
        return tuple(map(sum, zip(*(b.coords for b in self.positive_roots))))

    @cached_property
    def dot_action(self) -> tuple[tuple[int, tuple, tuple], ...]:
        """(sign, rows, offset) for every Weyl element w, in the order of
        weyl_elements, with offset w(delta) - delta, so w(mu + delta) -
        delta is tuple(c * mu[k] + o for (k, c), o in zip(rows, offset))."""
        two_delta = self.two_delta
        return tuple(
            (w.sign, w.rows, tuple((c * two_delta[k] - d) // 2
                                   for (k, c), d in zip(w.rows, two_delta)))
            for w in self.weyl_elements
        )

    @cached_property
    def kostant(self) -> dict:
        """Room for what `weylred` derives from the root system alone,
        filled as calls ask and kept for its lifetime, as the dot action
        is: each positive root with its level and pairings, and the
        partition function of the positive roots, cut as deep as asked."""
        return {}


ELEMENT_CAP = 100_000


def _close(points, gens) -> dict[tuple, int]:
    """{v: parity of a word in gens reaching v} over the orbit of the
    int tuples points, where generator (cols, signs) sends v to
    (c * v[k] for k, c in zip(cols, signs)); NotReflectionGroup past
    ELEMENT_CAP points."""
    orbit = dict.fromkeys(points, 1)
    frontier = list(orbit)
    while frontier:
        nxt = []
        for v in frontier:
            sign = -orbit[v]
            for cols, signs in gens:
                u = tuple(map(mul, signs, map(v.__getitem__, cols)))
                if u not in orbit:
                    orbit[u] = sign
                    nxt.append(u)
                    if len(orbit) > ELEMENT_CAP:
                        raise NotReflectionGroup(
                            f"Weyl group closure exceeds {ELEMENT_CAP} elements"
                        )
        frontier = nxt
    return orbit


def generate_weyl_group(
    simple_roots: Sequence[WeightVector],
    cartan_pairing: Sequence[Sequence[int]],
) -> RootSystem:
    """Close the simple reflections into a finite group of signed
    permutations.

    cartan_pairing is a list or tuple of rows, each a list or tuple
    (cartan-shape otherwise); row i is the coroot of simple root i as a
    lattice functional, with integer entries read like coordinates
    (cartan-pairing for a non-integer one); reflection i sends v to
    v - <v, coroot_i> * root_i.  Before any closure every row must be
    2 * root / <root, root> (non-orthogonal-root-system), which makes
    each reflection a signed permutation.  Raises NotReflectionGroup if
    the closure exceeds ELEMENT_CAP elements (type B7 does).
    """
    roots = tuple(_instance(a, WeightVector, "not-a-weight") for a in simple_roots)
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
    if not (isinstance(cartan_pairing, (list, tuple))
            and all(isinstance(row, (list, tuple)) for row in cartan_pairing)):
        raise LatticeError("cartan pairing rows must be lists or tuples",
                           code="cartan-shape")
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
    for i, (a, row) in enumerate(zip(roots, table)):
        norm = pairing(a, a)
        if any(x * norm != 2 * c for x, c in zip(row, a.coords)):
            raise LatticeError(
                f"cartan row {i} is not 2 * root / <root, root>: the "
                "coordinate pairing is not Weyl invariant",
                code="non-orthogonal-root-system",
            )

    # w is closed as w(base): entry i is c * (k + 1) for row i = (k, c)
    base = tuple(range(1, p + 1))
    gens = []
    for a, row in zip(roots, table):
        shift = sum(map(mul, base, row))
        image = [x - shift * y for x, y in zip(base, a.coords)]
        gens.append((tuple(abs(x) - 1 for x in image),
                     tuple(1 if x > 0 else -1 for x in image)))
    elements = _close([base], gens)
    orbit = _close([a.coords for a in roots], gens)
    # a root is an integer combination of the simple roots, all of one sign
    positive = [b for b in sorted(orbit) if min(solve_exact(probe, b)) >= 0]
    # listed in the lexicographic order of their matrices, where row
    # (k, c) ranks as c * (p - k)
    ordered = sorted(elements.items(), key=lambda item: [
        p + 1 - x if x > 0 else -p - 1 - x for x in item[0]])
    return RootSystem(
        simple_roots=roots,
        cartan_pairing=table,
        positive_roots=tuple(map(WeightVector, positive)),
        delta=WeightVector(tuple(Fraction(sum(x), 2) for x in zip(*positive))),
        weyl_elements=tuple(
            WeylElement(tuple((x - 1, 1) if x > 0 else (-x - 1, -1) for x in image), sign)
            for image, sign in ordered),
    )


def is_dominant(mu: WeightVector, rs: RootSystem) -> bool:
    """In the closed dominant chamber, decided on the simple roots."""
    rs = _instance(rs, RootSystem, "not-a-root-system")
    return all(pairing(mu, a) >= 0 for a in rs.simple_roots)
