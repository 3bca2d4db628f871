"""Monomial-basis ground truth for projective quantizations."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from locmult import (
    CharacterTable,
    ProjectiveActionSpec,
    character_table,
    monomial_character,
    total_dimension,
    wv,
)
from locmult.errors import LocmultError
from locmult.oracle import gelfand_tsetlin_character

from conftest import grassmannian


def closed_form(m, l):
    """Weight-l multiplicity in degree m for coordinate weights 1,-1,0."""
    if abs(l) > m:
        return 0
    return 1 + (m - abs(l)) // 2


def test_monomial_character_examples():
    spec = ProjectiveActionSpec((wv(1), wv(-1), wv(0)), 2)
    assert monomial_character(spec) == CharacterTable(
        {wv(-2): 1, wv(-1): 1, wv(0): 2, wv(1): 1, wv(2): 1}
    )
    spec = ProjectiveActionSpec((wv(1), wv(0)), 3)
    assert monomial_character(spec) == CharacterTable(
        {wv(0): 1, wv(1): 1, wv(2): 1, wv(3): 1}
    )
    spec = ProjectiveActionSpec((wv(0), wv(0)), 1)
    assert monomial_character(spec) == CharacterTable({wv(0): 2})


def test_total_dimension():
    assert total_dimension(ProjectiveActionSpec((wv(1), wv(-1), wv(0)), 2)) == 6
    assert total_dimension(ProjectiveActionSpec((wv(1), wv(0)), 5)) == 6
    assert total_dimension(ProjectiveActionSpec((wv(1), wv(-1), wv(0)), 4)) == 15


def test_action_spec_validation():
    with pytest.raises(LocmultError):
        ProjectiveActionSpec((), 2)
    with pytest.raises(LocmultError):
        ProjectiveActionSpec((wv(1), wv(1, 2)), 2)  # mixed ranks
    with pytest.raises(LocmultError):
        ProjectiveActionSpec((wv(1),), -1)
    with pytest.raises(LocmultError):
        ProjectiveActionSpec((wv(1),), True)
    for degree in (-1, True, "2"):
        with pytest.raises(LocmultError) as err:
            ProjectiveActionSpec((wv(1),), degree)
        assert err.value.code == "bad-degree"


def test_action_spec_errors_are_coded():
    for weights, code in (
        ((), "missing-coord-weights"),
        ((wv(1), wv(1, 2)), "rank-mismatch"),
        ((wv(1), wv("1/2")), "non-integer-weight"),
    ):
        with pytest.raises(LocmultError) as err:
            ProjectiveActionSpec(weights, 2)
        assert err.value.code == code


def test_dimension_conservation():
    rng = random.Random(3)
    for _ in range(25):
        rank = rng.randint(1, 3)
        n_coords = rng.randint(1, 4)
        weights = tuple(
            wv(*[rng.randint(-2, 2) for _ in range(rank)])
            for _ in range(n_coords)
        )
        m = rng.randint(1, 5)
        spec = ProjectiveActionSpec(weights, m)
        table = monomial_character(spec)
        assert table.total() == total_dimension(spec)
        assert total_dimension(spec) == comb(m + n_coords - 1, n_coords - 1)


def test_permutation_invariance():
    weights = (wv(1, 0), wv(0, 1), wv(1, -1), wv(0, 0))
    for m in (1, 2, 3):
        tables = {
            monomial_character(ProjectiveActionSpec(perm, m))
            for perm in set(itertools.permutations(weights))
        }
        assert len(tables) == 1


def test_matches_known_closed_form():
    for m in range(1, 11):
        spec = ProjectiveActionSpec((wv(1), wv(-1), wv(0)), m)
        table = monomial_character(spec)
        for l in range(-m - 2, m + 3):
            assert table[wv(l)] == closed_form(m, l), (m, l)


def test_oracle_agrees_with_localization(cp1, cp2_weighted):
    # the full m <= 6 sweep over the corpus lives in the acceptance tests
    for ds, weights in [
        (cp1, (wv(1), wv(0))),
        (cp2_weighted, (wv(1), wv(-1), wv(0))),
    ]:
        for m in (1, 2, 3):
            spec = ProjectiveActionSpec(weights, m)
            assert character_table(ds, m) == monomial_character(spec)


def test_grassmannian_tables_match_gelfand_tsetlin_patterns():
    """Rank 4-6 tables against an oracle outside the kernel: the m-th
    power of the Pluecker bundle on Gr(k, n) is the GL_n irreducible
    with highest weight (m^k, 0^(n-k)).  On Gr(3, 6) the fixed points S
    and their complements share a column multiset, so most reads of a
    table there look up an expansion made to one level deeper."""
    for k, n, m_max in ((2, 4, 3), (2, 5, 4), (3, 6, 4)):
        ds = grassmannian(k, n)
        for m in range(1, m_max + 1):
            lam = (m,) * k + (0,) * (n - k)
            assert character_table(ds, m) == gelfand_tsetlin_character(lam), (k, n, m)


def test_gelfand_tsetlin_patterns_by_hand():
    """The adjoint of GL_3 has 8 patterns: the 6 roots once and the zero
    weight of sl_3 twice; a GL_1 weight is its own character; a weight
    that is not weakly decreasing integers is refused."""
    chi = gelfand_tsetlin_character((2, 1, 0))
    assert chi.total() == 8 and chi[wv(1, 1, 1)] == 2
    assert set(chi.support()) == {wv(*p) for p in itertools.permutations((2, 1, 0))} | {
        wv(1, 1, 1)}
    assert gelfand_tsetlin_character(wv(-3)) == CharacterTable({wv(-3): 1})
    for bad in ((0, 1), (wv(1, 0) * Fraction(1, 2)).coords):
        with pytest.raises(LocmultError) as err:
            gelfand_tsetlin_character(bad)
        assert err.value.code == "non-dominant-weight"
