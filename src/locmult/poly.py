"""Dense univariate polynomials over the rationals.

A polynomial is a tuple of Fractions, constant term first.  The zero
polynomial is the empty tuple.  All helpers return normalized tuples
(no trailing zero coefficients), so equality of tuples is equality of
polynomials.  Coefficients and scalars are read like lattice
coordinates: an int, a Fraction or an integer-or-"p/q" string; a float
is refused (inexact-number) and anything else is bad-number.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .lattice import _coordinate, _instance

Poly = tuple[Fraction, ...]

ZERO: Poly = ()


def _exact(c) -> Fraction:
    return c if type(c) is Fraction else Fraction(_coordinate(c))


def normalize(coeffs) -> Poly:
    coeffs = _instance(coeffs, Iterable, "not-a-polynomial", name="polynomial")
    coeffs = tuple(map(_exact, coeffs))
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def make(values) -> Poly:
    """Build a polynomial from ints, Fractions, or 'p/q' strings."""
    return normalize(values)


def degree(coeffs) -> int:
    """Degree of the polynomial, -1 for the zero polynomial."""
    return len(normalize(coeffs)) - 1


def evaluate(coeffs, x):
    """Horner's rule; int coefficients at an int x give an int."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def add(a, b) -> Poly:
    n = max(len(a), len(b))
    a = tuple(a) + (Fraction(0),) * (n - len(a))
    b = tuple(b) + (Fraction(0),) * (n - len(b))
    return normalize(x + y for x, y in zip(a, b))


def to_strings(coeffs) -> list[str]:
    """Coefficients as exact 'p/q' strings, constant first."""
    return [str(_exact(c)) for c in coeffs]


def render(coeffs, var: str = "m") -> str:
    """Human-readable form like '3/4 + 1/2*m'."""
    coeffs = normalize(coeffs)
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(var if i == 1 else f"{var}^{i}")
        elif c == -1:
            parts.append(f"-{var}" if i == 1 else f"-{var}^{i}")
        else:
            parts.append(f"{c}*{var}" if i == 1 else f"{c}*{var}^{i}")
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out
