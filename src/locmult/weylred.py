"""Weyl-group reduction of characters: irreducible building blocks and
decomposition of invariant characters.

An irreducible character is the localization formula on the flag
variety G/T, whose fixed-point data `flag_dataset` gives.  Polarized
along 2*delta, the sum of the positive roots, every fixed point w has
the positive roots as its columns and its apex at the dot action
w(lam + delta) - delta, so the formula is Kostant's: the multiplicity
of mu is sum_w sign(w) P(w(lam + delta) - delta - mu), with P the
partition function of the positive roots.  P depends on the root
system alone, so the RootSystem holds it for its lifetime, by the rule
that holds a dataset's expansions (`localize._held`): cut at the level
of the deepest lam asked, which bounds every apex, while every dominant
weight lies at level 0 or above, so no answer depends on the order of
the calls.  P is looked up, never scanned.  Only dominant weights are
read, each spread over its W-orbit; a walk down from lam reaches every
one, each step subtracting a positive root and staying dominant
(Stembridge, The partial order of dominant weights, 1998).  The root
system holds each positive root with its level and its pairings with
the simple roots, so a step stays dominant when the root's pairings
are at most the weight's.  P is 0 below level 0, so an apex below mu's
level adds nothing: the apexes are sorted by level once per call, and
each sum stops at the first one below mu.  It runs on int
coordinate tuples with the dot action
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
from operator import add, ge, sub

from .errors import LocmultError
from .fpdata import FixedPointDatum, LocalizationDataset
from .lattice import (
    LatticeError, RootSystem, WeightVector, _check_rank, _instance, _weight,
)
from .localize import CharacterTable, ComputationError, _dot, _held


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
    pairs = tuple(_dot(top, a.coords) for a in rs.simple_roots)
    if min(pairs) < 0:
        raise NonDominantWeight(f"highest weight {lam} is not dominant")
    held, eta = rs.kostant, rs.two_delta
    roots = held.get("roots")
    if roots is None:
        # each positive root with its pairings with the simple roots and
        # its level, stored once per root system
        held["roots"] = roots = [
            (b.coords, tuple(_dot(b.coords, a.coords) for a in rs.simple_roots),
             _dot(b.coords, eta)) for b in rs.positive_roots]
    level = _dot(top, eta)
    kostant = _held(held, "P", [b.coords for b in rs.positive_roots], eta, level)
    action = rs.dot_action
    apexes = []
    for sign, rows, offset in action:
        # the apex w(lam + delta) - delta at its level; deepest first
        apex = _apply(rows, top, offset)
        apexes.append((_dot(apex, eta), sign, apex))
    apexes.sort(reverse=True)
    # the dominant weights below top, each with its pairings with the
    # simple roots and its level, each reached once
    entries, seen, walk = {}, {top}, [(top, pairs, level)]
    for mu, pairs, height in walk:
        # P is 0 below level 0, so mu reads only the apexes at its level or above
        n = 0
        for h, sign, apex in apexes:
            if h < height:
                break
            n += sign * kostant.get(tuple(map(sub, apex, mu)), 0)
        for _, rows, _ in action:
            entries[tuple(c * mu[k] for k, c in rows)] = n
        for b, b_pairs, b_level in roots:
            if all(map(ge, pairs, b_pairs)):
                nu = tuple(map(sub, mu, b))
                if nu not in seen:
                    seen.add(nu)
                    walk.append((nu, tuple(map(sub, pairs, b_pairs)), height - b_level))
    return CharacterTable._unchecked(entries)


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
