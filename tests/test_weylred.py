"""Irreducible characters and decomposition."""

import itertools
import math
import random
import sys
import threading
from fractions import Fraction
from operator import add, sub

import pytest

from locmult import (
    CharacterTable,
    PartitionProblem,
    character_table,
    count_partitions,
    decompose_character,
    find_certificate,
    generate_weyl_group,
    irreducible_character,
    is_dominant,
    load_dataset_file,
    pairing,
    tensor,
    wv,
)
from locmult.lattice import LatticeError, RootSystem, WeylElement
from locmult.localize import ComputationError
from locmult.oracle import gelfand_tsetlin_character
from locmult.weylred import NonDominantWeight, _apply, flag_dataset, is_w_invariant

from conftest import DATASETS


def a1_irrep(a):
    """Rank-1 irreducible by hand: weights -a, -a+2, ..., a."""
    return CharacterTable({wv(l): 1 for l in range(-a, a + 1, 2)})


def strip_highest_weights(chi, irrep_of, direction):
    """Independent decomposition oracle: repeatedly remove the
    irreducible generated by the maximal remaining support weight."""
    from locmult import pairing

    mults = {}
    work = chi
    for _ in range(1000):
        if not work:
            return mults
        top = max(work.support(), key=lambda w: (pairing(w, direction), w.coords))
        n = work[top]
        mults[top] = mults.get(top, 0) + n
        work = work - irrep_of(top).scale(n)
    raise AssertionError("stripping did not terminate")


def kostant_character(rs, lam):
    """Independent reference: Kostant's alternating sum
    mult(mu) = sum_w sign(w) * P(w(lam + delta) - delta - mu), with P
    the number of partitions into positive roots, over the bounding box
    of the Weyl orbit of lam."""
    cols = rs.positive_roots
    eta = find_certificate(cols)
    orbit = [w.apply(lam) for w in rs.weyl_elements]
    box = [range(int(min(v.coords[i] for v in orbit)),
                 int(max(v.coords[i] for v in orbit)) + 1)
           for i in range(rs.rank)]
    table = {}
    for coords in itertools.product(*box):
        mu = wv(*coords)
        table[mu] = 0
        for w in rs.weyl_elements:
            target = w.apply(lam + rs.delta) - rs.delta - mu
            if target.is_integral() and pairing(target, eta) >= 0:
                table[mu] += w.sign * count_partitions(
                    PartitionProblem(cols, target, eta=eta))
    return CharacterTable(table)


def weyl_dimension(rs, lam):
    """prod over positive roots of <lam + delta, b> / <delta, b>; valid
    for root systems whose coordinate pairing is Weyl invariant."""
    return math.prod(Fraction(pairing(lam + rs.delta, b), pairing(rs.delta, b))
                     for b in rs.positive_roots)


def differences(n, rank):
    """e_i - e_(i+1) on Z^rank for i < n."""
    return [wv(*(1 if k == i else -1 if k == i + 1 else 0 for k in range(rank)))
            for i in range(n)]


def type_a(n):
    """A_n on Z^(n+1): simple roots e_i - e_(i+1)."""
    roots = differences(n, n + 1)
    return generate_weyl_group(roots, [r.coords for r in roots])


def type_b(n):
    """B_n on Z^n: simple roots e_i - e_(i+1) and the short root e_n."""
    long = differences(n - 1, n)
    short = wv(*(0,) * (n - 1), 1)
    return generate_weyl_group(long + [short],
                               [r.coords for r in long] + [(2 * short).coords])


def type_c(n):
    """C_n on Z^n: simple roots e_i - e_(i+1) and the long root 2e_n."""
    short = differences(n - 1, n)
    return generate_weyl_group(short + [wv(*(0,) * (n - 1), 2)],
                               [r.coords for r in short] + [(0,) * (n - 1) + (1,)])


def type_d(n):
    """D_n on Z^n: simple roots e_i - e_(i+1) and e_(n-1) + e_n."""
    roots = differences(n - 1, n) + [wv(*(0,) * (n - 2), 1, 1)]
    return generate_weyl_group(roots, [r.coords for r in roots])


@pytest.fixture(scope="module")
def b2():
    # the B2 realization of the benchmark generator: short root (0, 1)
    return generate_weyl_group((wv(1, -1), wv(0, 1)), [[1, -1], [0, 2]])


@pytest.fixture(scope="module")
def b4():
    return type_b(4)


def test_irreducible_matches_kostant_sum(a1, a1xa1, a2, b2):
    cases = [(a1, wv(a)) for a in range(9)]
    cases += [(a1xa1, wv(a, b)) for a in range(4) for b in range(4)]
    cases += [(a2, wv(a, b, 0)) for a in range(5) for b in range(a + 1)]
    cases += [(a2, wv(1, 0, -1)), (a2, wv(0, 0, -2)), (a2, wv(2, 2, -1))]
    cases += [(b2, wv(a, b)) for a in range(4) for b in range(a + 1)]
    for rs, lam in cases:
        assert irreducible_character(rs, lam) == kostant_character(rs, lam), lam


def test_irreducible_dimension_formula(a1xa1, a2, b2, b4):
    assert irreducible_character(b2, wv(3, 1)).total() == 81
    assert irreducible_character(a2, 2 * a2.delta).total() == 27
    cases = [(a1xa1, wv(a, b)) for a in range(4) for b in range(4)]
    cases += [(a2, wv(a, b, 0)) for a in range(6) for b in range(a + 1)]
    cases += [(b2, wv(a, b)) for a in range(5) for b in range(a + 1)]
    large = ((type_a(3), wv(10, 5, 2, 0), 5460), (type_b(3), wv(7, 4, 2), 175560),
             (type_a(4), wv(4, 3, 2, 1, 0), 1024), (b4, wv(3, 2, 1, 0), 9009))
    for rs, lam, dim in large:
        assert weyl_dimension(rs, lam) == dim
        cases.append((rs, lam))
    for rs, box in ((type_c(3), (range(4),) * 3),
                    (type_d(4), (range(3),) * 3 + (range(-2, 3),))):
        weights = [lam for lam in (wv(*c) for c in itertools.product(*box))
                   if is_dominant(lam, rs)]
        assert len(weights) == 20
        cases += [(rs, lam) for lam in weights]
    for rs, lam in cases:
        assert irreducible_character(rs, lam).total() == weyl_dimension(rs, lam)


def test_irreducible_matches_gelfand_tsetlin_patterns():
    """Type A against an oracle outside the kernel, which uses no
    partition function and no Weyl group: every weakly decreasing weight
    of A1 in -2..4, A2 in -1..3, A3 in 0..3 and A4 in 0..2, three deeper
    A4 weights and A5 at (3,2,1,0,0,0), asked deepest first of one root
    system per rank."""
    count = 0
    for n, values, extra in ((1, range(-2, 5), ()), (2, range(-1, 4), ()),
                             (3, range(4), ()),
                             (4, range(3), ((4, 2, 2, 0, 0), (3, 2, 1, 1, 0),
                                            (5, 3, 1, 0, 0))),
                             (5, (), ((3, 2, 1, 0, 0, 0),))):
        rs = type_a(n)
        weights = [*itertools.combinations_with_replacement(values[::-1], n + 1), *extra]
        weights.sort(key=lambda lam: -pairing(wv(*lam), 2 * rs.delta))
        for lam in weights:
            assert irreducible_character(rs, lam) == gelfand_tsetlin_character(lam), lam
        count += len(weights)
    assert count == 119 + 3 + 1


def test_irreducible_rank_one_examples(a1):
    assert irreducible_character(a1, wv(1)) == CharacterTable(
        {wv(1): 1, wv(-1): 1}
    )
    assert irreducible_character(a1, wv(0)) == CharacterTable({wv(0): 1})
    assert irreducible_character(a1, wv(2)) == CharacterTable(
        {wv(2): 1, wv(0): 1, wv(-2): 1}
    )


def test_irreducible_rank_one_brute_force(a1):
    for a in range(9):
        assert irreducible_character(a1, wv(a)) == a1_irrep(a)


def test_irreducible_rejects_bad_weights(a1):
    with pytest.raises(NonDominantWeight):
        irreducible_character(a1, wv(-1))

    with pytest.raises(NonDominantWeight):
        irreducible_character(a1, Fraction(1, 2) * wv(1))


def test_irreducible_unitary_three(a2):
    adjoint = irreducible_character(a2, wv(2, 1, 0))
    assert adjoint.total() == 8
    assert adjoint[wv(1, 1, 1)] == 2
    assert adjoint[wv(2, 1, 0)] == 1
    assert adjoint[wv(2, 0, 1)] == 1
    vector = irreducible_character(a2, wv(1, 0, 0))
    assert vector == CharacterTable({wv(1, 0, 0): 1, wv(0, 1, 0): 1,
                                     wv(0, 0, 1): 1})
    assert irreducible_character(a2, wv(1, 1, 0)).total() == 3
    assert irreducible_character(a2, wv(2, 0, 0)).total() == 6


def test_irreducible_is_w_invariant(a1, a1xa1, a2):
    cases = [
        (a1, wv(3)),
        (a1xa1, wv(2, 1)),
        (a2, wv(2, 1, 0)),
        (a2, wv(3, 1, 0)),
    ]
    for rs, lam in cases:
        table = irreducible_character(rs, lam)
        assert is_w_invariant(table, rs)
        for w in rs.weyl_elements:
            for mu, c in table.items():
                assert table[w.apply(mu)] == c


def test_irreducible_dimension_rank_one(a1):
    for a in range(7):
        assert irreducible_character(a1, wv(a)).total() == a + 1


def test_decompose_examples(a1):
    chi = tensor(a1_irrep(1), a1_irrep(1))
    result = decompose_character(chi, a1)
    assert result.multiplicities == {wv(0): 1, wv(2): 1}
    assert result.ok

    result = decompose_character(CharacterTable({wv(1): 1, wv(-1): 1}), a1)
    assert result.multiplicities == {wv(1): 1}
    assert result.ok

    result = decompose_character(CharacterTable({wv(1): 1}), a1)
    assert not result.w_invariant
    assert result.residual
    assert not result.ok


def test_decompose_virtual_character(a1):
    chi = a1_irrep(2) - a1_irrep(0).scale(3)
    result = decompose_character(chi, a1)
    assert result.multiplicities == {wv(2): 1, wv(0): -3}
    assert result.ok


def test_decompose_round_trip(a1, a2):
    rng = random.Random(5)
    a1_dominant = [wv(a) for a in range(7)]
    a2_dominant = [wv(a, b, c)
                   for a in range(-1, 4) for b in range(-1, 4)
                   for c in range(-1, 4) if a >= b >= c and a - c <= 4]
    for rs, pool in ((a1, a1_dominant), (a2, a2_dominant)):
        for _ in range(8):
            chosen = rng.sample(pool, rng.randint(1, 3))
            coeffs = {lam: rng.randint(1, 3) for lam in chosen}
            chi = CharacterTable()
            for lam, n in coeffs.items():
                chi = chi + irreducible_character(rs, lam).scale(n)
            result = decompose_character(chi, rs)
            assert result.ok
            assert result.multiplicities == coeffs


def test_clebsch_gordan_against_stripping(a1):
    for a in range(4):
        for b in range(4):
            chi = tensor(a1_irrep(a), a1_irrep(b))
            result = decompose_character(chi, a1)
            assert result.ok
            expected = {wv(c): 1 for c in range(abs(a - b), a + b + 1, 2)}
            assert result.multiplicities == expected
            stripped = strip_highest_weights(chi, a1_irrep_of, wv(1))
            assert stripped == {w: n for w, n in result.multiplicities.items()}


def a1_irrep_of(w):
    return a1_irrep(int(w.coords[0]))


def test_tensor_examples(a1):
    assert tensor(CharacterTable({wv(1): 1}),
                  CharacterTable({wv(-1): 1})) == CharacterTable({wv(0): 1})
    assert tensor(a1_irrep(1), a1_irrep(1)) == CharacterTable(
        {wv(2): 1, wv(0): 2, wv(-2): 1}
    )
    chi = CharacterTable({wv(3): 2, wv(-1): 5})
    assert tensor(chi, CharacterTable({wv(0): 1})) == chi


def test_operands_other_than_tables_are_coded(a1):
    """tensor, decompose_character and is_w_invariant refuse anything
    but a CharacterTable as + and - do, with one coded error."""
    chi = a1_irrep(1)
    for call, kind in (
        (lambda: tensor(chi, 1), "int"),
        (lambda: tensor({wv(1): 1}, chi), "dict"),
        (lambda: decompose_character({wv(1): 1}, a1), "dict"),
        (lambda: is_w_invariant(3, a1), "int"),
    ):
        with pytest.raises(ComputationError) as err:
            call()
        assert err.value.code == "not-a-character"
        assert str(err.value) == f"{kind} is not a CharacterTable"


def test_rank_mismatch_is_coded(b2):
    for chi in (CharacterTable({wv(1): 1}), CharacterTable({wv(): 1}),
                CharacterTable({wv(0, 0): 1, wv(5): 1})):
        for call in (decompose_character, is_w_invariant):
            with pytest.raises(LatticeError) as err:
                call(chi, b2)
            assert err.value.code == "rank-mismatch"
    rank2, rank1 = irreducible_character(b2, wv(1, 0)), CharacterTable({wv(1): 1})
    for a, b in ((rank2, rank1), (rank1, rank2)):
        with pytest.raises(LatticeError) as err:
            tensor(a, b)
        assert err.value.code == "rank-mismatch"


def _reflection_words(rs):
    """Every Weyl element as a word in the simple reflections
    s_i(v) = v - <v, coroot_i> * alpha_i on Fractions, independent of the
    stored rows, found breadth first: {image of (1, ..., p): index} and,
    per index, (parent index, i, word length), the element being s_i
    times its parent."""
    base = tuple(Fraction(k) for k in range(1, rs.rank + 1))
    index, words, images = {base: 0}, [(None, None, 0)], [base]
    for j, image in enumerate(images):  # grows while it is read
        for i in range(len(rs.simple_roots)):
            u = _simple_reflection(rs, i, image)
            if u not in index:
                index[u] = len(images)
                words.append((j, i, words[j][2] + 1))
                images.append(u)
    return index, words


def _simple_reflection(rs, i, v):
    alpha, coroot = rs.simple_roots[i].coords, rs.cartan_pairing[i]
    p = sum(x * c for x, c in zip(v, coroot))
    return tuple(x - p * a for x, a in zip(v, alpha))


def _word_images(rs, words, v):
    """w(v) for every word of `_reflection_words`, in its order, one
    simple reflection per element."""
    images = [v]
    for parent, i, _ in words[1:]:
        images.append(_simple_reflection(rs, i, images[parent]))
    return images


def test_dot_action_matches_the_fraction_path(a1, a1xa1, a2, b2, b4):
    """The int dot action of every root system against words in the
    simple reflections on Fractions: each element is matched to its word
    by the image of (1, ..., p), its sign is the parity of the word, the
    stored action is w(v + delta) - delta, and the orbit map (zero
    offset) and WeylElement.apply are w(v), for every weight with
    coordinates in -2..3; on B4 (384 elements) in -1..1."""
    c2 = generate_weyl_group((wv(1, -1), wv(0, 2)), [[1, -1], [0, 1]])
    grid = range(-2, 4)
    systems = ((a1, grid), (a1xa1, grid), (a2, grid), (b2, grid), (c2, grid),
               (type_a(3), grid), (type_b(3), grid), (b4, range(-1, 2)))
    for rs, coordinates in systems:
        index, words = _reflection_words(rs)
        found = [index.pop(tuple(c * (k + 1) for k, c in w.rows))
                 for w in rs.weyl_elements]
        assert len(rs.dot_action) == rs.order == len(words) and not index
        for w, j, (sign, rows, _) in zip(rs.weyl_elements, found, rs.dot_action):
            assert sign == w.sign == (-1) ** words[j][2]
            assert rows == w.rows
        # w(v + delta) - delta = w(v) + (w(delta) - delta), w being linear
        delta, zero = tuple(map(Fraction, rs.delta.coords)), (0,) * rs.rank
        offsets = [tuple(map(sub, u, delta)) for u in _word_images(rs, words, delta)]
        for coords in itertools.product(coordinates, repeat=rs.rank):
            orbit = _word_images(rs, words, tuple(map(Fraction, coords)))
            for w, j, (_, rows, offset) in zip(rs.weyl_elements, found, rs.dot_action):
                assert _apply(rows, coords, zero) == orbit[j]
                assert _apply(rows, coords, offset) == tuple(map(add, orbit[j], offsets[j]))
                assert w.apply(wv(*coords)).coords == orbit[j]


def test_weyl_side_applies_no_matrix(monkeypatch):
    """A deterministic work counter: once a root system is built, the
    Weyl side makes no WeylElement.apply call, and it builds the dot
    action once per root system."""
    rank2 = generate_weyl_group((wv(1, -1), wv(0, 1)), [[1, -1], [0, 2]])
    rank4 = type_b(4)
    applies, builds = [], []
    apply, build = WeylElement.apply, RootSystem.dot_action.func
    monkeypatch.setattr(WeylElement, "apply",
                        lambda w, v: applies.append(v) or apply(w, v))
    monkeypatch.setattr(RootSystem.dot_action, "func",
                        lambda rs: builds.append(rs) or build(rs))
    for rs, lam, low in ((rank2, wv(3, 3), wv(1, 0)),
                         (rank4, wv(3, 2, 1, 0), wv(1, 0, 0, 0))):
        chi, small = irreducible_character(rs, lam), irreducible_character(rs, low)
        assert tensor(chi, small).total() == chi.total() * small.total()
        assert is_w_invariant(chi, rs)
        assert decompose_character(tensor(small, small), rs).ok
    assert applies == []
    assert builds == [rank2, rank4]


def test_decomposition_reflects_instead_of_scanning_w(b2, monkeypatch):
    """A deterministic work counter: decomposition reaches each weight's
    dominant dot image by simple reflections and tests invariance on
    the r simple reflections, never scanning the |W| elements.  For the
    B2 irreducible V(2,1) (21 weights, dimension 35, r = 2, |W| = 8),
    the weights need L(mu) = 0, 1, 2, 3 reflections for 8, 9, 3 and 1 of
    them, sum L = 18, L(mu) being the number of positive roots pairing
    negatively with mu + delta.  Each weight pairs with the r coroots
    once per reflection and once at the end, 2 * (18 + 21) = 78 `_dot`
    calls, the one highest weight found pairs once with 2*delta, to ask
    for the deepest constituent first, and the invariance test pairs
    each weight once per coroot, 2 * 21 = 42: 121 in all."""
    from locmult import weylred

    chi = irreducible_character(b2, wv(2, 1))
    lengths = [sum(pairing(mu + b2.delta, b) < 0 for b in b2.positive_roots)
               for mu in chi.support()]
    assert (len(chi), chi.total(), sum(lengths)) == (21, 35, 18)
    assert sorted(lengths) == [0] * 8 + [1] * 9 + [2] * 3 + [3]
    calls = []
    dot = weylred._dot
    monkeypatch.setattr(weylred, "_dot", lambda a, b: calls.append(a) or dot(a, b))
    # the residual's irreducible is Kostant's formula, counted elsewhere
    monkeypatch.setattr(weylred, "irreducible_character", lambda rs, lam: chi)
    result = decompose_character(chi, b2)
    assert result.multiplicities == {wv(2, 1): 1} and result.ok
    assert len(calls) == 2 * (sum(lengths) + len(chi)) + 1 + 2 * len(chi) == 121
    calls.clear()
    assert is_w_invariant(chi, b2)
    assert len(calls) == 2 * len(chi)


def test_generation_applies_no_matrix(monkeypatch):
    """A deterministic work counter: generating B4 closes the group and
    the root orbit on signed permutations, with no WeylElement.apply."""
    applies = []
    apply = WeylElement.apply
    monkeypatch.setattr(WeylElement, "apply",
                        lambda w, v: applies.append(v) or apply(w, v))
    assert type_b(4).order == 384
    assert applies == []


def _counting_expansions(monkeypatch):
    """The term count of every expansion made from here on; `localize._expand`
    is the one expansion site."""
    from locmult import localize

    terms = []
    original = localize._expand

    def counting(*args):
        result = original(*args)
        terms.append(len(result))
        return result

    monkeypatch.setattr(localize, "_expand", counting)
    return terms


def test_irreducible_expands_the_dominant_chamber_only(monkeypatch):
    """A deterministic work counter: the first irreducible character of a
    root system makes one expansion, over the positive roots along
    2*delta, cut at the level of its highest weight, and the root system
    keeps it.  Each system is built here, since a system another test
    has read already holds an expansion."""
    terms = _counting_expansions(monkeypatch)
    for rs, lam, dim, work in ((type_a(2), wv(4, 2, 0), 27, 15),
                               (type_b(2), wv(3, 3), 84, 49),
                               (type_b(4), wv(3, 2, 1, 0), 9009, 10830)):
        terms.clear()
        assert irreducible_character(rs, lam).total() == dim
        assert terms == [work]


def test_a_root_system_expands_again_only_when_asked_deeper(monkeypatch):
    """A deterministic work counter: once a root system holds P, a call at
    its level or below makes no expansion, and a deeper one makes exactly
    one, which every later call reads."""
    terms = _counting_expansions(monkeypatch)
    for rs, cold, lower, deeper in (
            (type_a(2), wv(4, 2, 0), wv(1, 0, 0), wv(5, 3, 0)),
            (type_b(2), wv(3, 3), wv(2, 0), wv(4, 2)),
            (type_b(4), wv(3, 2, 1, 0), wv(1, 1, 0, 0), None)):
        irreducible_character(rs, cold)
        terms.clear()
        for lam in (cold, lower, cold, lower):
            assert irreducible_character(rs, lam).total() == weyl_dimension(rs, lam)
        assert terms == []
        if deeper is not None:
            for lam in (deeper, cold, lower, deeper):
                assert irreducible_character(rs, lam).total() == weyl_dimension(rs, lam)
            assert len(terms) == 1


def test_kostant_sum_reads_only_the_apexes_that_reach_it(monkeypatch):
    """A deterministic work counter: the lookups into the expansion.  P
    is 0 below level 0, so a dominant mu reads the apexes
    w(lam + delta) - delta at its 2*delta-level or above, and no other:
    7 for A2 (4,2,0), 22 for B2 (3,3) and 350 for B4 (3,2,1,0), where
    every apex for every dominant weight would be 5 * 6 = 30,
    10 * 8 = 80 and 19 * 384 = 7296.  A second call reads the expansion
    the root system holds, with the same lookups.  Each system is built
    here, since one another test has read holds an uncounted expansion."""
    from locmult import localize

    class Counting(dict):
        def get(self, *args):
            lookups.append(args[0])
            return dict.get(self, *args)

    lookups = []
    original = localize._expand
    monkeypatch.setattr(localize, "_expand", lambda *args: Counting(original(*args)))
    for rs, lam, dominant, work in ((type_a(2), wv(4, 2, 0), 5, 7),
                                    (type_b(2), wv(3, 3), 10, 22),
                                    (type_b(4), wv(3, 2, 1, 0), 19, 350)):
        for _ in range(2):
            lookups.clear()
            chi = irreducible_character(rs, lam)
            assert chi.total() == weyl_dimension(rs, lam)
            assert sum(is_dominant(mu, rs) for mu in chi.support()) == dominant
            assert len(lookups) == work


def test_irreducible_reads_the_expansion_by_lookups_only(monkeypatch):
    """irreducible_character looks the terms of P up and never iterates
    it: the one expansion each system makes refuses iteration, and the
    characters are right, cold and warm."""
    from locmult import localize

    class LookupsOnly(dict):
        def __iter__(self):
            raise AssertionError("the expansion was iterated")

        keys = items = values = __iter__

    made = []
    original = localize._expand
    monkeypatch.setattr(localize, "_expand",
                        lambda *args: made.append(args) or LookupsOnly(original(*args)))
    for rs, lam in ((type_a(2), wv(4, 2, 0)), (type_b(2), wv(3, 3)),
                    (type_b(4), wv(3, 2, 1, 0))):
        for _ in range(2):
            assert irreducible_character(rs, lam).total() == weyl_dimension(rs, lam)
    assert len(made) == 3


def test_the_walk_reaches_each_dominant_weight_once():
    """A deterministic work counter: the walk down from lam tries the
    positive roots, which the root system holds, once from each weight it
    reaches, and it reaches each dominant weight of the character once:
    5 for A2 (4,2,0), 10 for B2 (3,3) and 19 for B4 (3,2,1,0)."""

    class Counting(list):
        def __iter__(self):
            visits.append(1)
            return list.__iter__(self)

    visits = []
    for rs, lam, dominant in ((type_a(2), wv(4, 2, 0), 5), (type_b(2), wv(3, 3), 10),
                              (type_b(4), wv(3, 2, 1, 0), 19)):
        irreducible_character(rs, lam)
        rs.kostant["roots"] = Counting(rs.kostant["roots"])
        visits.clear()
        chi = irreducible_character(rs, lam)
        assert sum(is_dominant(mu, rs) for mu in chi.support()) == len(visits) == dominant


def test_irreducible_characters_do_not_depend_on_call_order():
    """Every dominant weight of a small box (coordinates 0..3, on B3
    0..1), asked of one root system deepest first and of another
    shallowest first, against the independent Kostant sum: a system that
    holds a deeper P, or was deepened between two calls, gives the same
    characters as a cold one."""
    c2 = generate_weyl_group((wv(1, -1), wv(0, 2)), [[1, -1], [0, 1]])
    for make, box in ((lambda: type_a(2), (range(4), range(4), [0])),
                      (lambda: type_b(2), (range(4),) * 2),
                      (lambda: generate_weyl_group(c2.simple_roots, c2.cartan_pairing),
                       (range(4),) * 2),
                      (lambda: type_b(3), (range(2),) * 3)):
        probe = make()
        weights = sorted((lam for lam in (wv(*c) for c in itertools.product(*box))
                          if is_dominant(lam, probe)),
                         key=lambda lam: pairing(lam, 2 * probe.delta))
        expected = {lam: kostant_character(probe, lam) for lam in weights}
        for order in (weights[::-1], weights):
            rs = make()
            for lam in order:
                assert irreducible_character(rs, lam) == expected[lam], lam


def test_threads_sharing_a_root_system_read_consistent_expansions():
    """Threads that list the held P of one root system at once, with a
    short switch interval, get the characters of a cold system: on each
    of 20 fresh systems, one deep call and then 4 threads asking every
    weight below it deepest first, so that all four grow the listing
    together."""
    weights = sorted((wv(a, b) for a in range(6) for b in range(a + 1)),
                     key=lambda lam: pairing(lam, wv(3, 1)))
    expected = {lam: irreducible_character(type_b(2), lam) for lam in weights}
    wrong = []

    def work(rs):
        for lam in reversed(weights):
            if irreducible_character(rs, lam) != expected[lam]:
                wrong.append(lam)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            shared = type_b(2)
            irreducible_character(shared, wv(6, 6))
            threads = [threading.Thread(target=work, args=(shared,)) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_decomposition_does_not_depend_on_what_a_system_holds(monkeypatch):
    """A tensor product decomposes the same on a cold root system, on one
    that holds a deeper P, and on one that holds a shallower one.  Its
    nine constituents, at nine 2*delta-levels, are asked for deepest
    first, so the cold system makes one expansion and the deeper one
    none."""
    lam, vector = wv(3, 1), wv(1, 1)
    cold = type_b(2)
    product = tensor(irreducible_character(cold, lam), irreducible_character(cold, vector))
    terms = _counting_expansions(monkeypatch)
    results, expansions = [], []
    for held in (None, wv(6, 5), wv(1, 0)):
        rs = type_b(2)
        if held is not None:
            irreducible_character(rs, held)
        terms.clear()
        results.append(decompose_character(product, rs))
        expansions.append(len(terms))
    assert expansions == [1, 0, 1]
    assert len(results[0].multiplicities) == 9 and all(r.ok for r in results)
    assert sum(n * weyl_dimension(cold, mu) for mu, n in results[0].multiplicities.items()) \
        == weyl_dimension(cold, lam) * weyl_dimension(cold, vector)
    assert all(r == results[0] for r in results)


def test_weyl_entry_points_read_weights_and_refuse_other_systems(a2):
    """A highest weight is read as a table key is, so a coordinate tuple
    gives the character of its WeightVector; anything but a RootSystem is
    one coded error."""
    chi = irreducible_character(a2, wv(1, 0, 0))
    assert irreducible_character(a2, (1, 0, 0)) == chi
    assert flag_dataset(a2, (1, 0, 0)) == flag_dataset(a2, wv(1, 0, 0))
    for call, kind in (
        (lambda: irreducible_character("a2", wv(1, 0, 0)), "str"),
        (lambda: flag_dataset(None, wv(1, 0, 0)), "NoneType"),
        (lambda: decompose_character(chi, None), "NoneType"),
        (lambda: is_w_invariant(chi, None), "NoneType"),
    ):
        with pytest.raises(LatticeError) as err:
            call()
        assert err.value.code == "not-a-root-system"
        assert str(err.value) == f"{kind} is not a RootSystem"
    with pytest.raises(ComputationError) as err:
        irreducible_character(a2, 5)
    assert err.value.code == "not-a-weight"


def test_irreducible_matches_flag_variety_localization(a1, a1xa1, a2, b2):
    """Kostant's formula against the torus engine on the G/T fixed-point
    data at a generic eta, for every dominant weight with coordinates in
    -1..5."""
    c2 = generate_weyl_group((wv(1, -1), wv(0, 2)), [[1, -1], [0, 1]])
    count = 0
    for rs in (a1, a1xa1, a2, b2, c2):
        for coords in itertools.product(range(-1, 6), repeat=rs.rank):
            lam = wv(*coords)
            if is_dominant(lam, rs):
                count += 1
                assert irreducible_character(rs, lam) == character_table(
                    flag_dataset(rs, lam), 1), lam
    assert count == 168


def test_flag_tables_match_irreducible_characters_to_rank_four(monkeypatch):
    """The torus engine on G/T at rank 3 and 4, at eta = 2*delta and at
    the dataset's default eta, against Kostant's formula.  Along any
    eta off the walls every fixed point polarizes to the positive roots
    of eta's chamber, so a table makes one expansion, which its deepest
    read fills and every other read filters to its own depth: along
    2*delta on A3 at (3,2,1,0) the cut is 0 and the deepest read starts
    at level 10, so it holds the points of the positive root cone up to
    height 5, sum_(h <= 5) C(h + 2, 2) = 56 terms."""
    terms = _counting_expansions(monkeypatch)
    made = {}
    for rs, lam in ((type_a(3), wv(3, 2, 1, 0)), (type_a(4), wv(2, 1, 1, 0, 0)),
                    (type_b(3), wv(3, 2, 1))):
        expected = irreducible_character(rs, lam)
        for eta in (wv(*rs.two_delta), None):
            terms.clear()
            assert character_table(flag_dataset(rs, lam), 1, eta) == expected, (lam, eta)
            made[lam, eta] = terms[:]
    assert all(len(work) == 1 for work in made.values())
    assert made[wv(3, 2, 1, 0), wv(3, 1, -1, -3)] == [56]


@pytest.mark.parametrize("call, built", [
    ("irreducible", 0), ("tensor", 0), ("decompose", 3), ("table", 1),
    ("direction", 1),
])
def test_weight_vectors_are_made_only_at_the_public_edges(call, built, b2, monkeypatch):
    """An exact work counter: the WeightVectors each call builds.  The
    characters live on int coordinate tuples, so an irreducible
    character and a tensor product build none, a decomposition one per
    highest weight it reports (3 here), reading 2*delta on ints from the
    root system, a character table on a freshly loaded dataset one for
    its direction, which the dataset then holds, since each fixed point
    is polarized on int tuples, and the direction search one for its
    answer."""
    from locmult import lattice
    from locmult.lattice import pick_generic_direction

    cp2_standard = load_dataset_file(DATASETS / "cp2_standard.json")
    lam, vector = wv(3, 3), wv(1, 0)
    chi = irreducible_character(b2, lam)
    product = tensor(chi, irreducible_character(b2, vector))
    # (1, t) misses (1, -1) and (2, -1) only from t = 3 on
    weights = [wv(1, -1), wv(2, -1)]
    calls = {
        "irreducible": (lambda: irreducible_character(b2, lam), chi),
        "tensor": (lambda: tensor(chi, irreducible_character(b2, vector)), product),
        "decompose": (lambda: decompose_character(product, b2).multiplicities,
                      {wv(3, 2): 1, wv(3, 3): 1, wv(4, 3): 1}),
        "table": (lambda: character_table(cp2_standard, 10).total(), 66),
        "direction": (lambda: pick_generic_direction(weights, 2), wv(1, 3)),
    }
    run, expected = calls[call]
    counted = []
    original = lattice.WeightVector.__post_init__

    def counting(self):
        counted.append(self)
        original(self)

    monkeypatch.setattr(lattice.WeightVector, "__post_init__", counting)
    result = run()
    monkeypatch.undo()
    assert result == expected
    assert len(counted) == built


def test_library_tables_compare_by_content(a1, b2):
    """The tables the library builds directly equal and hash like tables
    built through the constructor in any order, with either key form."""
    chi = irreducible_character(b2, wv(2, 1))
    vector = irreducible_character(b2, wv(1, 0))
    forward, backward = tensor(chi, vector), tensor(vector, chi)
    assert forward == backward and hash(forward) == hash(backward)
    entries = [(w.coords, c) for w, c in forward.items()]
    for rebuilt in (CharacterTable(entries), CharacterTable(entries[::-1]),
                    CharacterTable([(wv(*w), c) for w, c in reversed(entries)])):
        assert rebuilt == forward and hash(rebuilt) == hash(forward)
    irreducible = irreducible_character(b2, wv(3, 1))
    localized = character_table(flag_dataset(b2, wv(3, 1)), 1)
    assert irreducible == localized and hash(irreducible) == hash(localized)
    # an empty residual equals the empty table
    residual = decompose_character(forward, b2).residual
    assert residual == CharacterTable() and hash(residual) == hash(CharacterTable())
    # the highest weight 3 alone: its irreducible's other weights are left over
    residual = decompose_character(CharacterTable({wv(3): 1}), a1).residual
    expected = CharacterTable({(-3,): -1, (-1,): -1, (1,): -1})
    assert residual == expected == CharacterTable({wv(1): -1, wv(-1): -1, wv(-3): -1})
    assert hash(residual) == hash(expected)
