"""Exactness: no float reaches a result, lattice points carry int
coordinates, and a dataset dilated by d gives at d*w the numbers the
dataset gives at w, along rational etas."""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest

from locmult import (
    CharacterTable,
    FixedPointDatum,
    LocalizationDataset,
    WeightVector,
    character_table,
    decompose_character,
    irreducible_character,
    multiplicity,
    multiplicity_series,
    tensor,
    verify_structure,
    wv,
    zero_vector,
)


def inexact(value, path="result"):
    """Paths to every float, and to every integral coordinate not stored
    as int, reachable from value through containers, dataclass fields
    and character tables."""
    if isinstance(value, float):
        yield path
    elif isinstance(value, WeightVector):
        for i, c in enumerate(value.coords):
            if type(c) is not (int if c.denominator == 1 else Fraction):
                yield f"{path}.coords[{i}]"
    elif isinstance(value, CharacterTable):
        yield from inexact(value.items(), f"{path}.items()")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from inexact(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from inexact(k, f"{path}.key")
            yield from inexact(v, f"{path}[{k!r}]")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from inexact(v, f"{path}[{i}]")


def test_no_float_in_any_output(cp1, cp2_weighted, cp2_standard, cp3_standard,
                                a1, a2):
    outputs = []
    for ds in (cp1, cp2_weighted, cp2_standard, cp3_standard):
        zero = zero_vector(ds.rank)
        for m in (1, 2, 3):
            table = character_table(ds, m)
            assert table
            outputs.append(table)
        outputs += [multiplicity(ds, w, 3) for w in table.support()]
        outputs.append(multiplicity_series(ds, zero, 1, 6))
        outputs.append(multiplicity_series(ds, table.support()[0], 1, 6, "fixed"))
    outputs.append(multiplicity_series(cp1, wv(Fraction(1, 2)), 2, 2))
    outputs.append(
        verify_structure(cp2_weighted, wv(0), cp2_weighted.strata, 12))
    for rs, lam in ((a1, wv(3)), (a2, wv(2, 1, 0)), (a2, 2 * a2.delta)):
        chi = irreducible_character(rs, lam)
        outputs += [chi, decompose_character(tensor(chi, chi), rs)]
    assert list(inexact(outputs)) == []


def scaled(ds, d):
    """ds with every fiber and normal weight multiplied by d."""
    return LocalizationDataset(ds.rank, tuple(
        FixedPointDatum(fp.label, d * fp.fiber_weight,
                        tuple(d * a for a in fp.normal_weights), fp.coefficient)
        for fp in ds.fixed_points
    ))


half, third = Fraction(1, 2), Fraction(1, 3)
times_m = (Fraction(0), Fraction(1))
SUBLATTICE = [
    # (dataset, rational etas, rational mu for the scaled series); each is
    # O(k) on CP^n with every weight mapped by diag(1/2, 1/3, ...), times
    # the common denominator, so its weights span a proper sublattice
    (LocalizationDataset(1, (
        FixedPointDatum("P", wv(2), (wv(1),), times_m),
        FixedPointDatum("Q", wv(0), (wv(-1),), times_m),
    )), [wv(third), wv(Fraction(-2, 5))], wv(Fraction(3, 2))),
    (LocalizationDataset(2, (
        FixedPointDatum("A", wv(0, 0), (wv(3, 0), wv(0, 2))),
        FixedPointDatum("B", wv(18, 0), (wv(-3, 0), wv(-3, 2))),
        FixedPointDatum("C", wv(0, 12), (wv(0, -2), wv(3, -2))),
    )), [wv(1, third), wv(-half, Fraction(2, 5))], wv(half, third)),
]


@pytest.mark.parametrize("ds, etas, mu", SUBLATTICE, ids=["rank1", "rank2"])
def test_dilated_data_matches_at_dilated_weights(ds, etas, mu):
    """The character of d*ds is the character of ds with t replaced by
    t^d: its table is the table of ds moved to d*w, and its entry at d*w
    is the entry of ds at w, at every lattice point w and rational eta."""
    q = math.lcm(*(c.denominator for c in mu.coords))
    for eta, m in itertools.product(etas, (1, 2, 3)):
        small_t = character_table(ds, m, eta)
        assert small_t
        for d in (2, 3):
            big = scaled(ds, d)
            assert character_table(big, m, eta) == CharacterTable(
                {d * w: c for w, c in small_t.items()}), (eta, m, d)
            for w in small_t.support() + (wv(*[-1] * ds.rank),):
                assert (multiplicity(ds, w, m, eta)
                        == multiplicity(big, d * w, m, eta)), (eta, m, d, w)
            assert (multiplicity_series(ds, mu, q, q, eta=eta)
                    == multiplicity_series(big, d * mu, q, q, eta=eta))
