from fractions import Fraction

from locmult import poly


def test_normalize_strips_trailing_zeros():
    assert poly.normalize((1, 2, 0, 0)) == (Fraction(1), Fraction(2))
    assert poly.normalize((0,)) == ()
    assert poly.normalize(()) == ()


def test_make_parses_strings():
    assert poly.make(["3/4", "1/2"]) == (Fraction(3, 4), Fraction(1, 2))


def test_degree():
    assert poly.degree(()) == -1
    assert poly.degree((5,)) == 0
    assert poly.degree((0, 0, 1)) == 2


def test_evaluate_horner():
    # 1 - 2m + 3m^2 at m = 4
    assert poly.evaluate(poly.make([1, -2, 3]), 4) == 41
    assert poly.evaluate((), 7) == 0


def test_arithmetic():
    a = poly.make([1, 1])
    b = poly.make([2, -1])
    assert poly.add(a, b) == (Fraction(3),)


def test_render():
    assert poly.render(poly.make(["3/4", "1/2"])) == "3/4 + 1/2*m"
    assert poly.render(()) == "0"
    assert poly.render(poly.make([0, -1, 1])) == "-m + m^2"
