"""Independent character oracle for linear torus actions on projective
space.

Sections of the m-th power of the dual tautological bundle are the
degree-m monomials in the homogeneous coordinates; when the torus
scales coordinate i by the character w_i, the monomial with exponents
e has weight sum_i e_i * w_i.  This enumeration never touches the
fixed-point machinery, so it arbitrates the weight-sign convention of
the localization datasets.  Gelfand-Tsetlin patterns count the GL_n
irreducibles with no partition function and no Weyl group, so they
arbitrate the type-A characters of `weylred`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from operator import mul

from .errors import LocmultError
from .lattice import WeightVector, _instance, _integer, _weight
from .localize import CharacterTable


@dataclass(frozen=True)
class ProjectiveActionSpec:
    """Diagonal action on projective space, one weight per coordinate."""

    coord_weights: tuple[WeightVector, ...]
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "coord_weights", tuple(
            _instance(w, WeightVector, "not-a-weight", LocmultError)
            for w in self.coord_weights))
        if not self.coord_weights:
            raise LocmultError(
                "need at least one coordinate weight", code="missing-coord-weights"
            )
        rank = self.coord_weights[0].rank
        for w in self.coord_weights:
            if w.rank != rank or not w.is_integral():
                raise LocmultError(
                    f"coordinate weight {w} is not a rank-{rank} lattice point",
                    code="rank-mismatch" if w.rank != rank else "non-integer-weight",
                )
        _integer(self.degree, "degree", "bad-degree", 0, LocmultError)


def _exponents(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _exponents(total - head, parts - 1):
            yield (head,) + rest


def monomial_character(spec: ProjectiveActionSpec) -> CharacterTable:
    """Weight multiplicities of the degree-m monomial space."""
    _instance(spec, ProjectiveActionSpec, "not-a-projective-action", LocmultError)
    columns = list(zip(*(w.coords for w in spec.coord_weights)))
    entries: dict[tuple, int] = {}
    for e in _exponents(spec.degree, len(spec.coord_weights)):
        w = tuple(sum(map(mul, e, column)) for column in columns)
        entries[w] = entries.get(w, 0) + 1
    return CharacterTable._unchecked(entries)


def total_dimension(spec: ProjectiveActionSpec) -> int:
    """Dimension of the degree-m monomial space, binomial(m + n, n)."""
    _instance(spec, ProjectiveActionSpec, "not-a-projective-action", LocmultError)
    n = len(spec.coord_weights) - 1
    return comb(spec.degree + n, n)


def gelfand_tsetlin_character(lam) -> CharacterTable:
    """Weight multiplicities of the GL_n irreducible with highest weight
    lam, a weakly decreasing lattice point: its Gelfand-Tsetlin patterns
    have top row lam and each row interlacing the one above it,
    row[i] >= below[i] >= row[i + 1], down to the empty row, and weight
    the differences of successive row sums.  They are counted row by
    row, each distinct row once with the weights of the rows above it."""
    lam = _weight(lam, LocmultError)
    top = lam.coords
    if not lam.is_integral() or list(top) != sorted(top, reverse=True):
        raise LocmultError(f"highest weight {lam} is not a weakly decreasing "
                           "lattice point", code="non-dominant-weight")
    rows = {top: {(): 1}}
    for _ in top:
        below_rows: dict[tuple, dict[tuple, int]] = {}
        for row, weights in rows.items():
            for below in product(*(range(b, a + 1) for a, b in zip(row, row[1:]))):
                x = sum(row) - sum(below)
                acc = below_rows.setdefault(below, {})
                for w, c in weights.items():
                    acc[(x,) + w] = acc.get((x,) + w, 0) + c
        rows = below_rows
    return CharacterTable._unchecked(rows[()])
