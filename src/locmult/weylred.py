"""Weyl-group reduction of characters: irreducible building blocks and
decomposition of invariant characters.

An irreducible character is the localization formula on the flag
variety G/T, whose fixed-point data `flag_dataset` gives.  Polarized
along 2*delta, the sum of the positive roots, every fixed point w has
the positive roots as its columns and its apex at the dot action
w(lam + delta) - delta, so the formula is Kostant's: the multiplicity
of mu is sum_w sign(w) P(w(lam + delta) - delta - mu), with P the
partition function of the positive roots.  P is one expansion cut at
the level of lam, which bounds every apex, while every dominant weight
lies at level 0 or above; only dominant weights are read, and each is
spread over its W-orbit.  Decomposition inverts the character by the
same alternating sum.  The dot action is w(lam) + (w(delta) - delta),
and the offsets w(delta) - delta are lattice points, so both run on
int coordinate tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LocmultError
from .fpdata import FixedPointDatum, LocalizationDataset
from .lattice import LatticeError, RootSystem, WeightVector, is_dominant
from .localize import CharacterTable, _dot, _expand


class NonDominantWeight(LocmultError):
    code = "non-dominant-weight"


@dataclass
class DecompositionResult:
    """Outcome of decomposing a character into irreducibles.

    multiplicities maps dominant highest weights to (possibly negative)
    integer coefficients; residual is whatever the combination fails to
    account for.  ok means W-invariant input and empty residual.
    """

    multiplicities: dict[WeightVector, int]
    residual: CharacterTable
    w_invariant: bool

    @property
    def ok(self) -> bool:
        return self.w_invariant and not self.residual


def flag_dataset(rs: RootSystem, lam: WeightVector) -> LocalizationDataset:
    """Fixed-point data of the line bundle with weight lam on G/T: the
    fixed point w has fiber weight w(lam) and normal weights w(beta)."""
    points = tuple(
        FixedPointDatum(
            f"w{i}", w.apply(lam), tuple(w.apply(b) for b in rs.positive_roots)
        )
        for i, w in enumerate(rs.weyl_elements)
    )
    return LocalizationDataset(rank=rs.rank, fixed_points=points, root_system=rs)


def irreducible_character(rs: RootSystem, lam: WeightVector) -> CharacterTable:
    """Weight multiplicities of the irreducible with highest weight lam."""
    if not lam.is_integral():
        raise NonDominantWeight(f"highest weight {lam} is not a lattice point")
    if not is_dominant(lam, rs):
        raise NonDominantWeight(f"highest weight {lam} is not dominant")
    positive = [b.coords for b in rs.positive_roots]
    eta, top = (2 * rs.delta).coords, lam.coords
    kostant = _expand(positive, eta, _dot(top, eta))
    apexes = [(sign, _apply(matrix, top, offset))
              for sign, matrix, offset in _dot_action(rs)]
    zero = (0,) * rs.rank
    entries = {}
    for v in kostant:
        mu = tuple(x - y for x, y in zip(top, v))
        # v is a sum of positive roots, so a dominant mu is a weight: n > 0
        if all(_dot(mu, b) >= 0 for b in positive):
            n = sum(sign * kostant.get(tuple(x - y for x, y in zip(apex, mu)), 0)
                    for sign, apex in apexes)
            for w in rs.weyl_elements:
                entries[_apply(w.matrix, mu, zero)] = n
    return CharacterTable(entries)


def _dot_action(rs: RootSystem) -> list[tuple[int, tuple, tuple]]:
    """(sign, matrix, w(delta) - delta) for every Weyl element w, so
    that w(mu + delta) - delta is _apply(matrix, mu, offset)."""
    return [(w.sign, w.matrix, (w.apply(rs.delta) - rs.delta).coords)
            for w in rs.weyl_elements]


def _apply(matrix, v: tuple, offset: tuple) -> tuple:
    """matrix @ v + offset on int coordinate tuples."""
    return tuple(_dot(row, v) + o for row, o in zip(matrix, offset))


def _lattice_table(chi: CharacterTable, rs: RootSystem) -> dict[tuple, int]:
    """chi as {coords: multiplicity}; every weight must have the rank of rs."""
    table = {}
    for mu, c in chi.items():
        if mu.rank != rs.rank:
            raise LatticeError(
                f"element of rank {rs.rank} applied to rank {mu.rank}",
                code="rank-mismatch",
            )
        table[mu.coords] = c
    return table


def is_w_invariant(chi: CharacterTable, rs: RootSystem) -> bool:
    table = _lattice_table(chi, rs)
    zero = (0,) * rs.rank
    return all(
        table.get(_apply(w.matrix, mu, zero), 0) == c
        for mu, c in table.items() for w in rs.weyl_elements
    )


def decompose_character(chi: CharacterTable, rs: RootSystem) -> DecompositionResult:
    """Extract irreducible coefficients from a character table.

    Works for virtual characters too: coefficients may be negative.
    The caller decides what to make of a nonempty residual or a
    non-invariant input; both are reported, not raised.
    """
    invariant = is_w_invariant(chi, rs)
    table = _lattice_table(chi, rs)
    positive = [b.coords for b in rs.positive_roots]
    elements = _dot_action(rs)
    candidates = set()
    for mu in table:
        for _, matrix, offset in elements:
            lam = _apply(matrix, mu, offset)
            if all(_dot(lam, b) >= 0 for b in positive):
                candidates.add(lam)
    mults: dict[WeightVector, int] = {}
    for lam in sorted(candidates):
        n = sum(sign * table.get(_apply(matrix, lam, offset), 0)
                for sign, matrix, offset in elements)
        if n:
            mults[WeightVector(lam)] = n
    residual = CharacterTable(chi.items() + [
        (w, -n * c) for lam, n in mults.items()
        for w, c in irreducible_character(rs, lam).items()])
    return DecompositionResult(mults, residual, invariant)


def tensor(a: CharacterTable, b: CharacterTable) -> CharacterTable:
    """Pointwise product of characters: convolution of the tables."""
    entries: dict[WeightVector, int] = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            key = w1 + w2
            entries[key] = entries.get(key, 0) + c1 * c2
    return CharacterTable(entries)
