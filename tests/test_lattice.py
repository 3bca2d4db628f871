"""Lattice arithmetic, generic directions, and Weyl group generation."""

import itertools
import random
from fractions import Fraction

import pytest

from locmult import (
    generate_weyl_group,
    is_dominant,
    pairing,
    pick_generic_direction,
    wv,
    zero_vector,
)
from locmult.lattice import (
    LatticeError,
    NotReflectionGroup,
    WeightVector,
    solve_exact,
)


def brute_det(matrix):
    """Permutation-expansion determinant, independent of the library."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= matrix[i][perm[i]]
        total += sign * prod
    return total


def test_pairing_examples():
    assert pairing(wv(1, 2), wv(3, 1)) == 5
    assert pairing(wv(0, 0), wv(7, -4)) == 0
    assert pairing(wv(-2, -1), wv(1, 2)) == -4


def test_pairing_rank_mismatch():
    with pytest.raises(LatticeError):
        pairing(wv(1), wv(1, 2))


def test_weight_vector_arithmetic():
    assert wv(1, 2) + wv(3, -1) == wv(4, 1)
    assert wv(1, 2) - wv(3, -1) == wv(-2, 3)
    assert -wv(1, -2) == wv(-1, 2)
    assert 3 * wv(1, 2) == wv(3, 6)
    assert (Fraction(1, 2) * wv(1, 2)).is_integral() is False
    assert wv(1, 2).is_integral()


def test_integral_coordinates_are_ints(a2):
    """The constructor keeps an integral coordinate as int and any other
    as Fraction, with the value the input had."""
    w = WeightVector((3, Fraction(4, 2), True, "6/3"))
    assert w.coords == (3, 2, 1, 2)
    assert all(type(c) is int for c in w.coords)
    r = WeightVector((Fraction(1, 2), "-2/6"))
    assert r.coords == (Fraction(1, 2), Fraction(-1, 3))
    assert all(type(c) is Fraction for c in r.coords)
    for inexact in (2.0, 0.25):
        with pytest.raises(LatticeError) as err:
            WeightVector((1, inexact))
        assert err.value.code == "inexact-number"
    assert (Fraction(1, 2) * wv(2, 4)).coords == (1, 2)
    assert type((Fraction(1, 2) * wv(2, 4)).coords[0]) is int
    assert type(pairing(wv(1, 2), wv(3, 1))) is int
    assert pairing(wv(Fraction(1, 2), 1), wv(1, 1)) == Fraction(3, 2)
    assert all(type(c) is int for c in zero_vector(3).coords)
    assert all(type(c) is int
               for c in pick_generic_direction([wv(1, -1)], 2).coords)
    for w in a2.weyl_elements:
        assert all(type(c) is int for c in w.apply(wv(2, 1, 0)).coords)
        image = w.apply(a2.delta)
        assert sorted(image.coords) == [-1, 0, 1]
        assert all(type(c) is int for c in image.coords)


def test_library_numbers_follow_the_document_grammar():
    """A coordinate or multiplicity is an int, a Fraction or an
    integer-or-"p/q" string, as in the documents and CLI flags; any
    other value is one coded refusal.  Polynomial coefficients,
    rotations, sample values and exact-solve entries are read the same
    way, and a power m, of a sample or given to evaluate, only as an
    int: a decimal string or a float is refused, never rounded or read
    in binary."""
    from locmult import CharacterTable, poly
    from locmult.ehrhart import QuasiPolynomial, evaluate, fit_quasi_polynomial
    from locmult.fpdata import FixedPointDatum, StratumPhaseDatum
    from locmult.qrverify import onset_threshold

    for call in (lambda: wv("0.25"), lambda: wv("1e1"),
                 lambda: CharacterTable([(wv(1), "2.0")]),
                 lambda: wv("abc"), lambda: wv("1/0"), lambda: wv(None)):
        with pytest.raises(LatticeError) as err:
            call()
        assert err.value.code == "bad-number"

    qp = QuasiPolynomial(1, ((1,),))
    cases = {
        "bad-number": (
            lambda: poly.make(["0.5", "1e1"]),
            lambda: poly.make(["1e1"]),
            lambda: poly.normalize(["1/0"]),
            lambda: FixedPointDatum("P", wv(0), (wv(1),), ("0.1",)),
            lambda: StratumPhaseDatum("s", 2, "0.5", 0),
            lambda: fit_quasi_polynomial([(1, 1), (2, "1.0")], 1, 0),
            lambda: fit_quasi_polynomial([(Fraction(1), 1), (2, 1)], 1, 0),
            lambda: fit_quasi_polynomial([("1", 1), (2, 1)], 1, 0),
            lambda: onset_threshold([(True, 1), (2, 1)], qp),
            lambda: evaluate(qp, True),
            lambda: evaluate(qp, "1"),
            lambda: evaluate(qp, Fraction(1)),
            lambda: solve_exact([["0.5"]], [1]),
            lambda: solve_exact([[1]], [None]),
        ),
        "inexact-number": (
            lambda: poly.normalize((0.5,)),
            lambda: FixedPointDatum("P", wv(0), (wv(1),), (0.1,)),
            lambda: StratumPhaseDatum("s", 1, 0.0, 0),
            lambda: StratumPhaseDatum("s", 1, 0, 0, (0.25,)),
            lambda: fit_quasi_polynomial([(1.9, 1), (2, 1), (3, 1)], 1, 0),
            lambda: fit_quasi_polynomial([(1, 1), (2, 1.0)], 1, 0),
            lambda: onset_threshold([(0.5, 1.0), (2.9, 1)], qp),
            lambda: onset_threshold([(1, 1.0), (2, 1)], qp),
            lambda: evaluate(qp, 1.5),
            lambda: evaluate(qp, 2.0),
            lambda: solve_exact([[0.1]], [1]),
            lambda: solve_exact([[1]], [0.5]),
        ),
    }
    for code, calls in cases.items():
        for call in calls:
            with pytest.raises(LatticeError) as err:
                call()
            assert err.value.code == code
    assert poly.make([0, "1/2", Fraction(3, 4), 0]) == (0, Fraction(1, 2), Fraction(3, 4))
    stratum = StratumPhaseDatum("s", 2, "1/2", 0, ("1/4",))
    assert (stratum.rotation, stratum.expected_poly) == (Fraction(1, 2), (Fraction(1, 4),))
    assert fit_quasi_polynomial([(1, "1"), (2, 1)], 1, 0) == qp
    assert onset_threshold([(1, 0), (2, 1), (3, 1)], qp) == 2
    assert evaluate(qp, 3) == 1
    assert solve_exact([["1/2"]], [Fraction(3, 4)]) == [Fraction(3, 2)]


def test_pick_generic_direction_examples():
    assert pick_generic_direction([wv(1), wv(-1)], 1) == wv(1)
    assert pick_generic_direction([wv(1, 0), wv(0, 1), wv(1, -1)], 2) == wv(1, 2)
    assert pick_generic_direction([wv(2, 1), wv(-2, -1), wv(-1, 1)], 2) == wv(1, 2)


def test_pick_generic_direction_rejects_zero_weight():
    with pytest.raises(LatticeError):
        pick_generic_direction([wv(0, 0)], 2)


def test_pick_generic_direction_postcondition_randomized():
    rng = random.Random(7)
    for _ in range(50):
        rank = rng.randint(1, 3)
        weights = []
        while len(weights) < rng.randint(1, 6):
            w = wv(*[rng.randint(-5, 5) for _ in range(rank)])
            if not w.is_zero():
                weights.append(w)
        eta = pick_generic_direction(weights, rank)
        assert all(pairing(w, eta) != 0 for w in weights)


def test_solve_exact_unique():
    sol = solve_exact([[2, 0], [0, 4]], [1, 1])
    assert sol == [Fraction(1, 2), Fraction(1, 4)]


def test_solve_exact_inconsistent_and_dependent():
    # overdetermined inconsistent system
    assert solve_exact([[1], [1]], [1, 2]) is None
    with pytest.raises(LatticeError):
        solve_exact([[1, 2], [2, 4]], [1, 2])


def test_a1_group(a1):
    assert a1.order == 2
    signs = sorted(w.sign for w in a1.weyl_elements)
    assert signs == [-1, 1]
    assert a1.positive_roots == (wv(2),)
    assert a1.delta == wv(1)
    flip = next(w for w in a1.weyl_elements if w.sign == -1)
    assert flip.apply(wv(3)) == wv(-3)


def test_a1xa1_group(a1xa1):
    assert a1xa1.order == 4
    assert sorted(w.sign for w in a1xa1.weyl_elements) == [-1, -1, 1, 1]
    assert a1xa1.delta == wv(1, 1)


def test_a2_group(a2):
    assert a2.order == 6
    assert len(a2.positive_roots) == 3
    assert a2.delta == wv(1, 0, -1)
    # each element is its signed permutation rows (column, +-1) and its sign
    assert [(w.rows, w.sign) for w in a2.weyl_elements] == [
        (((2, 1), (1, 1), (0, 1)), -1),
        (((2, 1), (0, 1), (1, 1)), 1),
        (((1, 1), (2, 1), (0, 1)), 1),
        (((1, 1), (0, 1), (2, 1)), -1),
        (((0, 1), (2, 1), (1, 1)), -1),
        (((0, 1), (1, 1), (2, 1)), 1),
    ]


def _matrix(rows):
    """The integer matrix of signed permutation rows (column, +-1)."""
    return tuple(tuple(c if j == k else 0 for j in range(len(rows))) for k, c in rows)


def test_sign_is_determinant(a1, a1xa1, a2):
    """The sign of each element is the determinant of its matrix, and the
    elements are listed in the lexicographic order of their matrices."""
    b2 = generate_weyl_group((wv(1, -1), wv(0, 1)), [[1, -1], [0, 2]])
    for rs in (a1, a1xa1, a2, b2):
        matrices = [_matrix(w.rows) for w in rs.weyl_elements]
        assert matrices == sorted(matrices)
        for w, matrix in zip(rs.weyl_elements, matrices):
            assert w.sign == brute_det(matrix)


def test_elements_permute_roots(a1, a1xa1, a2):
    for rs in (a1, a1xa1, a2):
        roots = set(rs.positive_roots) | {-b for b in rs.positive_roots}
        for w in rs.weyl_elements:
            assert {w.apply(b) for b in roots} == roots


def test_delta_fixed_only_by_identity(a1, a2):
    for rs in (a1, a2):
        fixers = [w for w in rs.weyl_elements if w.apply(rs.delta) == rs.delta]
        assert len(fixers) == 1


def test_is_dominant_examples(a1, a2):
    assert is_dominant(wv(1), a1)
    assert is_dominant(wv(0), a1)
    assert not is_dominant(wv(-1), a1)
    assert is_dominant(a2.delta, a2)
    # boundary weights of B2 (short root (0, 1)) and C2 (long root (0, 2))
    b2 = generate_weyl_group((wv(1, -1), wv(0, 1)), [[1, -1], [0, 2]])
    c2 = generate_weyl_group((wv(1, -1), wv(0, 2)), [[1, -1], [0, 1]])
    for rs in (b2, c2):
        assert is_dominant(rs.delta, rs)
        assert is_dominant(wv(2, 1), rs)
        for wall in (wv(1, 0), wv(1, 1), wv(0, 0), wv(Fraction(1, 2), 0)):
            assert is_dominant(wall, rs)
        for outside in (wv(1, -1), wv(0, 1), wv(2, 3), wv(-1, -2)):
            assert not is_dominant(outside, rs)
        # the simple roots decide what all positive roots decide
        for x, y in itertools.product(range(-3, 4), repeat=2):
            pairs = [pairing(wv(x, y), b) for b in rs.positive_roots]
            assert is_dominant(wv(x, y), rs) == all(n >= 0 for n in pairs)


def test_cartan_validation():
    # row that does not pair to 2 with its root
    with pytest.raises(LatticeError):
        generate_weyl_group((wv(2),), [[3]])
    # shape mismatch
    with pytest.raises(LatticeError):
        generate_weyl_group((wv(2),), [[1], [1]])
    # dependent simple roots
    with pytest.raises(LatticeError):
        generate_weyl_group((wv(2, 0), wv(1, 0)), [[1, 0], [2, 0]])


def test_cartan_entries_follow_the_library_grammar(a1):
    """A cartan entry is read exactly, as a coordinate is: a float, an
    unreadable value and a non-integer rational are coded refusals, not
    truncations."""
    for entry, code in ((1.9, "inexact-number"), (2.0, "inexact-number"),
                        (Fraction(3, 2), "cartan-pairing"),
                        ("1/2", "cartan-pairing"), (None, "bad-number")):
        with pytest.raises(LatticeError) as err:
            generate_weyl_group((wv(2),), [[entry]])
        assert err.value.code == code, entry
    # a bool is an int, taken exactly like wv(True)
    assert generate_weyl_group((wv(2),), [[True]]) == a1


def test_cartan_rows_must_be_lists_or_tuples():
    """A table or a row that is not a list or tuple is a cartan-shape
    refusal, not a TypeError or a string read as its characters."""
    for roots, table in (((wv(2),), [1]), ((wv(2),), [None]), ((wv(2),), 1),
                         ((wv(2, 0), wv(0, 2)), ["10", "01"]),
                         ((wv(2, 0), wv(0, 2)), "10")):
        with pytest.raises(LatticeError) as err:
            generate_weyl_group(roots, table)
        assert err.value.code == "cartan-shape", table


def test_infinite_group_hits_cap(monkeypatch):
    """Two reflections whose product is a shear generate an infinite
    dihedral group; that presentation is not orthogonal, so it is
    refused before any closure.  An orthogonal one is finite, and the
    cap bounds only its size: type B7, of order 645120, is refused.  A
    deterministic work counter: the closure applies the generators to
    78786 points, breadth first, before its orbit passes the cap."""
    from locmult import lattice

    with pytest.raises(LatticeError) as err:
        generate_weyl_group((wv(2, 0), wv(-2, 2)), [[1, 0], [0, 1]])
    assert err.value.code == "non-orthogonal-root-system"

    class Visits(list):
        """The generators, counting the points they are applied to."""
        count = 0

        def __iter__(self):
            self.count += 1
            return super().__iter__()

    visits = []
    close = lattice._close

    def counting(points, gens):
        visits.append(Visits(gens))
        return close(points, visits[-1])

    monkeypatch.setattr(lattice, "_close", counting)
    long = [wv(*(1 if k == i else -1 if k == i + 1 else 0 for k in range(7)))
            for i in range(6)]
    with pytest.raises(NotReflectionGroup) as err:
        generate_weyl_group(long + [wv(0, 0, 0, 0, 0, 0, 1)],
                            [r.coords for r in long] + [(0, 0, 0, 0, 0, 0, 2)])
    assert [v.count for v in visits] == [78786]
    assert str(err.value) == "Weyl group closure exceeds 100000 elements"


def test_non_orthogonal_presentation_is_refused():
    # A2 with the simple roots in the basis of fundamental weights: a
    # finite group of order 6, but the coordinate pairing is not Weyl
    # invariant, so it would cut out the wrong dominant chamber
    with pytest.raises(LatticeError) as err:
        generate_weyl_group((wv(2, -1), wv(-1, 2)), [[1, 0], [0, 1]])
    assert err.value.code == "non-orthogonal-root-system"


def test_weight_vector_hash_and_repr():
    assert len({wv(1, 2), wv(1, 2), wv(2, 1)}) == 2
    assert repr(wv(1, -2)) == "WeightVector(1, -2)"
    assert str(WeightVector((Fraction(1, 2), Fraction(3)))) == "1/2,3"
