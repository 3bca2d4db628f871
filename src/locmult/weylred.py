"""Weyl-group reduction of characters: irreducible building blocks and
decomposition of invariant characters.

An irreducible character is the localization formula on the flag
variety G/T, whose fixed-point data `flag_dataset` gives.  Polarized
along 2*delta, the sum of the positive roots, every fixed point w has
the positive roots as its columns and its apex at the dot action
w(lam + delta) - delta, so the formula is Kostant's: the multiplicity
of mu is sum_w sign(w) P(w(lam + delta) - delta - mu), with P the
partition function of the positive roots.  P depends on the root
system alone, so the RootSystem holds it for its lifetime, cut at the
deepest level asked of it: the first irreducible character expands it
to the level of its lam, which bounds every apex, while every dominant
weight lies at level 0 or above; a deeper lam replaces it by one deeper
expansion, and any other reads the held one, whose terms at a level
are those of any cut at or above that level, so no answer depends on
the order of the calls.  Only dominant weights are read, and each is
spread over its W-orbit.  A term t^v gives mu = lam - v, dominant when
<v, alpha_i> <= <lam, alpha_i> for each simple root, so mu is built
only for the terms that pass, and the same bounds decide whether lam
is dominant.  P is 0 below level 0, so an apex below mu's level adds
nothing: the apexes are sorted by level once per call, and each sum
stops at the first one below mu.  It runs on int coordinate tuples
with the dot action
w(mu + delta) - delta = w(mu) + (w(delta) - delta): every Weyl element
is stored as the rows of a signed permutation, and
`RootSystem.dot_action` adds the lattice offsets once per root system,
so each coordinate of the image is one signed coordinate of mu plus
its offset, and the orbit spread uses the same rows without the
offset.  Decomposition inverts the character by the same alternating
sum, in one pass: each weight adds sign(w) times its multiplicity to
its one dominant dot image, if it has one, and w is found without
scanning W, by reflecting the int vector 2(mu + delta) in any simple
reflection s_i(v) = v - <v, coroot_i> * alpha_i it pairs negatively
with until it is dominant; the irreducibles to subtract are asked for
deepest first, so one decomposition makes at most one expansion.  A
character is W-invariant when it is invariant under every s_i.  A
highest weight is read as a table key is, so a coordinate tuple
serves, and anything but a RootSystem is not-a-root-system.
Characters are built and read as the
int coordinate tuples a CharacterTable stores; a decomposition makes
WeightVectors only of the highest weights it reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add, mul, sub

from .errors import LocmultError
from .fpdata import FixedPointDatum, LocalizationDataset
from .lattice import (
    LatticeError, RootSystem, WeightVector, _check_rank, _instance, _weight,
)
from .localize import CharacterTable, ComputationError, _dot, _expand


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
    _instance(rs, RootSystem, "not-a-root-system")
    lam = _weight(lam, ComputationError)
    points = tuple(
        FixedPointDatum(
            f"w{i}", w.apply(lam), tuple(w.apply(b) for b in rs.positive_roots)
        )
        for i, w in enumerate(rs.weyl_elements)
    )
    return LocalizationDataset(rank=rs.rank, fixed_points=points, root_system=rs)


def irreducible_character(rs: RootSystem, lam: WeightVector) -> CharacterTable:
    """Weight multiplicities of the irreducible with highest weight lam."""
    _instance(rs, RootSystem, "not-a-root-system")
    lam = _weight(lam, ComputationError)
    if not lam.is_integral():
        raise NonDominantWeight(f"highest weight {lam} is not a lattice point")
    _check_rank(lam, rs.simple_roots[0])
    top = lam.coords
    # mu = top - v is dominant when <v, alpha_i> <= <top, alpha_i>, and
    # top itself (v = 0) when every bound is 0 or more
    walls = [(a.coords, _dot(top, a.coords)) for a in rs.simple_roots]
    if min(bound for _, bound in walls) < 0:
        raise NonDominantWeight(f"highest weight {lam} is not dominant")
    eta, kostant, terms = _kostant(rs, top)
    action = rs.dot_action
    apexes = []
    for sign, rows, offset in action:
        # the apex w(lam + delta) - delta as its shift from top, at the
        # depth <top - apex, eta>; shallowest first
        shift = tuple(map(sub, _apply(rows, top, offset), top))
        apexes.append((-_dot(shift, eta), sign, shift))
    apexes.sort()
    entries = {}
    for v in terms:
        # a sum v of positive roots below a dominant top makes mu a
        # weight; this runs on every term, so it pairs with map(mul) inline
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


def _kostant(rs: RootSystem, top: tuple):
    """2*delta, P as rs holds it, and the terms of P that the highest
    weight top reads.

    rs holds P cut at the deepest level asked of it so far, and a deeper
    top replaces it by one deeper expansion.  A term of a deeper cut at
    level L or below is the term of the cut at L, and every term that
    passes top's walls lies at or below top's level L, 2*delta being a
    nonnegative sum of simple roots; so a top below the held cut reads
    the held P, but only its terms at level L or below.  Those are
    listed by level on the first such read, grown from 0 by the positive
    roots, every sum of which is a term, and only as far as the level
    read: a cold call lists nothing, and a shallow one pays for its own
    level, not for the held one.
    """
    held = rs.kostant
    if not held:
        eta = rs.two_delta
        # 2*delta, each positive root with its level, the cut, P, and the
        # terms of P by level, as far as a read has listed them; every
        # change is one slice assignment, so a reader of the same system
        # in another thread unpacks a consistent holder
        held[:] = [eta, [(b.coords, _dot(b.coords, eta)) for b in rs.positive_roots],
                   -1, {}, [[(0,) * len(eta)]]]
    eta, steps, cut, kostant, by_level = held
    level = _dot(top, eta)
    if level > cut:
        kostant = _expand([b for b, _ in steps], eta, level)
        held[2:4] = level, kostant
    if level >= cut:
        return eta, kostant, kostant
    if len(by_level) <= level:
        by_level = by_level[:]
        for lvl in range(len(by_level), level + 1):
            by_level.append(list(dict.fromkeys(
                tuple(map(add, u, b)) for b, step in steps if step <= lvl
                for u in by_level[lvl - step])))
        held[4:] = [by_level]
    return eta, kostant, chain.from_iterable(by_level[:level + 1])


def _apply(rows, v: tuple, offset: tuple) -> tuple:
    """The signed permutation rows of RootSystem.dot_action applied to
    v, plus offset, on int coordinate tuples."""
    return tuple(c * v[k] + o for (k, c), o in zip(rows, offset))


def _lattice_table(chi: CharacterTable, rs: RootSystem) -> dict[tuple, int]:
    """chi's own {coords: multiplicity}, read only; every rank is rs.rank."""
    table = _instance(chi, CharacterTable, "not-a-character", ComputationError)._table
    _instance(rs, RootSystem, "not-a-root-system")
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
    two_delta = rs.two_delta
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
    # deepest first, so that the root system's one expansion serves the rest
    for lam, n in sorted(mults.items(), key=lambda e: -_dot(e[0].coords, two_delta)):
        residual = residual._plus(irreducible_character(rs, lam), -n)
    return DecompositionResult(mults, residual, _invariant(table, rs))


def tensor(a: CharacterTable, b: CharacterTable) -> CharacterTable:
    """Pointwise product of characters: convolution of the tables."""
    left = _instance(a, CharacterTable, "not-a-character", ComputationError)._table
    right = _instance(b, CharacterTable, "not-a-character", ComputationError)._table
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
