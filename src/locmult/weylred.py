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
spread over its W-orbit.  A term t^v gives mu = lam - v, dominant when
<v, alpha_i> <= <lam, alpha_i> for each simple root, so mu is built
only for the terms that pass.  P is 0 below level 0, so an apex
below mu's level adds nothing: the apexes are sorted by level once
per call, and each sum stops at the first one below mu.  It runs on
int coordinate tuples with the dot action
w(mu + delta) - delta = w(mu) + (w(delta) - delta): every Weyl element
is stored as the rows of a signed permutation, and
`RootSystem.dot_action` adds the lattice offsets once per root system,
so each coordinate of the image is one signed coordinate of mu plus
its offset, and the orbit spread uses the same rows without the
offset.  Decomposition inverts the character by the same alternating
sum, in one pass: each weight adds sign(w) times its multiplicity to
its one dominant dot image, if it has one, and w is found without scanning W, by reflecting the int vector
2(mu + delta) in any simple reflection s_i(v) = v - <v, coroot_i> *
alpha_i it pairs negatively with until it is dominant.  A character is
W-invariant when it is invariant under every s_i.  A weight is dominant
when it pairs nonnegatively with the simple roots, so r pairings decide
it instead of |positive roots|.  A highest weight is read as a
table key is, so a coordinate tuple serves, and anything but a
RootSystem is not-a-root-system.  Characters are built and read as the
int coordinate tuples a CharacterTable stores; a decomposition makes
WeightVectors only of the highest weights it reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub

from .errors import LocmultError
from .fpdata import FixedPointDatum, LocalizationDataset
from .lattice import LatticeError, RootSystem, WeightVector, is_dominant
from .localize import CharacterTable, _dot, _expand, _table_of, _weight


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


def _check_root_system(rs) -> None:
    """Refuse anything but a RootSystem as not-a-root-system."""
    if not isinstance(rs, RootSystem):
        raise LatticeError(f"{type(rs).__name__} is not a RootSystem",
                           code="not-a-root-system")


def flag_dataset(rs: RootSystem, lam: WeightVector) -> LocalizationDataset:
    """Fixed-point data of the line bundle with weight lam on G/T: the
    fixed point w has fiber weight w(lam) and normal weights w(beta)."""
    _check_root_system(rs)
    lam = _weight(lam)
    points = tuple(
        FixedPointDatum(
            f"w{i}", w.apply(lam), tuple(w.apply(b) for b in rs.positive_roots)
        )
        for i, w in enumerate(rs.weyl_elements)
    )
    return LocalizationDataset(rank=rs.rank, fixed_points=points, root_system=rs)


def irreducible_character(rs: RootSystem, lam: WeightVector) -> CharacterTable:
    """Weight multiplicities of the irreducible with highest weight lam."""
    _check_root_system(rs)
    lam = _weight(lam)
    if not lam.is_integral():
        raise NonDominantWeight(f"highest weight {lam} is not a lattice point")
    if not is_dominant(lam, rs):
        raise NonDominantWeight(f"highest weight {lam} is not dominant")
    positive = [b.coords for b in rs.positive_roots]
    eta, top = tuple(map(sum, zip(*positive))), lam.coords  # 2 * delta
    kostant = _expand(positive, eta, _dot(top, eta))
    action = rs.dot_action
    apexes = []
    for sign, rows, offset in action:
        # the apex w(lam + delta) - delta as its shift from top, at the
        # depth <top - apex, eta>; shallowest first
        shift = tuple(map(sub, _apply(rows, top, offset), top))
        apexes.append((-_dot(shift, eta), sign, shift))
    apexes.sort()
    walls = [(a.coords, _dot(top, a.coords)) for a in rs.simple_roots]
    entries = {}
    for v in kostant:
        # mu = top - v is dominant when <v, alpha_i> <= <top, alpha_i>; a
        # sum v of positive roots below a dominant top makes it a weight;
        # this runs on every term, so it pairs with map(mul) inline
        for a, bound in walls:
            if sum(map(mul, v, a)) > bound:
                break
        else:
            # P is 0 below level 0, so mu reads only the apexes no deeper than v
            depth, n = _dot(v, eta), 0
            for d, sign, shift in apexes:
                if d > depth:
                    break
                n += sign * kostant.get(tuple(map(add, shift, v)), 0)
            mu = tuple(map(sub, top, v))
            for _, rows, _ in action:
                entries[tuple(c * mu[k] for k, c in rows)] = n
    return CharacterTable._unchecked(entries)


def _apply(rows, v: tuple, offset: tuple) -> tuple:
    """The signed permutation rows of RootSystem.dot_action applied to
    v, plus offset, on int coordinate tuples."""
    return tuple(c * v[k] + o for (k, c), o in zip(rows, offset))


def _lattice_table(chi: CharacterTable, rs: RootSystem) -> dict[tuple, int]:
    """chi's own {coords: multiplicity}, read only; every rank is rs.rank."""
    table = _table_of(chi)
    _check_root_system(rs)
    bad = min((mu for mu in table if len(mu) != rs.rank), default=None)
    if bad is not None:
        raise LatticeError(f"element of rank {rs.rank} applied to rank {len(bad)}",
                           code="rank-mismatch")
    return table


def is_w_invariant(chi: CharacterTable, rs: RootSystem) -> bool:
    return _invariant(_lattice_table(chi, rs), rs)


def _reflections(rs: RootSystem) -> list[tuple[tuple, tuple]]:
    # (alpha_i, coroot_i) as int tuples; coroot_i is row i of the Cartan pairing
    return [(a.coords, row) for a, row in zip(rs.simple_roots, rs.cartan_pairing)]


def _reflect(v: tuple, alpha: tuple, p: int) -> tuple:
    # the simple reflection of v, with p = <v, coroot>
    return tuple(x - p * y for x, y in zip(v, alpha))


def _invariant(table: dict[tuple, int], rs: RootSystem) -> bool:
    # W is generated by the simple reflections
    reflections = _reflections(rs)
    return all(
        table.get(_reflect(mu, a, _dot(mu, row)), 0) == c
        for mu, c in table.items() for a, row in reflections
    )


def decompose_character(chi: CharacterTable, rs: RootSystem) -> DecompositionResult:
    """Extract irreducible coefficients from a character table.

    Works for virtual characters too: coefficients may be negative.
    The caller decides what to make of a nonempty residual or a
    non-invariant input; both are reported, not raised.
    """
    table = _lattice_table(chi, rs)
    reflections = _reflections(rs)
    two_delta = (2 * rs.delta).coords
    sums: dict[tuple, int] = {}
    for mu, c in table.items():
        # reflect the int vector 2(mu + delta) into the dominant chamber,
        # each time in a simple reflection it pairs negatively with
        v, n = tuple(2 * x + t for x, t in zip(mu, two_delta)), c
        while True:
            pairs = [_dot(v, row) for _, row in reflections]
            p = min(pairs)
            if p >= 0:
                break
            v = _reflect(v, reflections[pairs.index(p)][0], p)
            n = -n
        # <v/2 - delta, coroot_i> = <v, coroot_i>/2 - 1 with <v, coroot_i>
        # even, so v/2 - delta is dominant exactly when v is regular
        if 0 not in pairs:
            lam = tuple((x - t) // 2 for x, t in zip(v, two_delta))
            sums[lam] = sums.get(lam, 0) + n
    mults = {WeightVector(lam): n for lam, n in sorted(sums.items()) if n}
    residual = chi
    for lam, n in mults.items():
        residual = residual._plus(irreducible_character(rs, lam), -n)
    return DecompositionResult(mults, residual, _invariant(table, rs))


def tensor(a: CharacterTable, b: CharacterTable) -> CharacterTable:
    """Pointwise product of characters: convolution of the tables."""
    left, right = _table_of(a), _table_of(b)
    ranks = {len(w) for w in left.keys() | right.keys()}
    if left and right and len(ranks) > 1:
        raise LatticeError(
            f"rank mismatch: {min(ranks)} vs {max(ranks)}", code="rank-mismatch"
        )
    entries: dict[tuple, int] = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            key = tuple(map(add, w1, w2))
            entries[key] = entries.get(key, 0) + c1 * c2
    return CharacterTable._unchecked({w: c for w, c in entries.items() if c})
