"""Weyl-group reduction of characters: irreducible building blocks and
decomposition of invariant characters.

An irreducible character is the localization formula on the flag
variety G/T (the Weyl character formula): one fixed point per Weyl
element w, with fiber weight w(lam) and normal weights w(beta) over the
positive roots beta.  `character_table` of that dataset at m = 1 is the
character, so torus datasets and Weyl characters share one engine.
Decomposition inverts it by the alternating sum over translated weights
w(lam + delta) - delta, with delta half the sum of the positive roots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LocmultError
from .fpdata import FixedPointDatum, LocalizationDataset
from .lattice import RootSystem, WeightVector, is_dominant
from .localize import CharacterTable, character_table


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
    return character_table(flag_dataset(rs, lam), 1)


def is_w_invariant(chi: CharacterTable, rs: RootSystem) -> bool:
    return all(
        chi[w.apply(mu)] == c for mu, c in chi.items() for w in rs.weyl_elements
    )


def decompose_character(chi: CharacterTable, rs: RootSystem) -> DecompositionResult:
    """Extract irreducible coefficients from a character table.

    Works for virtual characters too: coefficients may be negative.
    The caller decides what to make of a nonempty residual or a
    non-invariant input; both are reported, not raised.
    """
    invariant = is_w_invariant(chi, rs)
    delta = rs.delta
    candidates = set()
    for mu, _ in chi.items():
        for w in rs.weyl_elements:
            cand = w.apply(mu + delta) - delta
            if cand.is_integral() and is_dominant(cand, rs):
                candidates.add(cand)
    mults: dict[WeightVector, int] = {}
    for lam in sorted(candidates, key=lambda v: v.coords):
        n = 0
        for w in rs.weyl_elements:
            probe = w.apply(lam + delta) - delta
            if probe.is_integral():
                n += w.sign * chi[probe]
        if n:
            mults[lam] = n
    residual = chi
    for lam, n in mults.items():
        residual = residual - irreducible_character(rs, lam).scale(n)
    return DecompositionResult(mults, residual, invariant)


def tensor(a: CharacterTable, b: CharacterTable) -> CharacterTable:
    """Pointwise product of characters: convolution of the tables."""
    entries: dict[WeightVector, int] = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            key = w1 + w2
            entries[key] = entries.get(key, 0) + c1 * c2
    return CharacterTable(entries)
