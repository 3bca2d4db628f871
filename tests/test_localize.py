"""Polarization, partition counting, and multiplicity extraction."""

import itertools
import random
from fractions import Fraction

import pytest

from locmult import (
    CharacterTable,
    PartitionProblem,
    ProjectiveActionSpec,
    character_table,
    count_partitions,
    find_certificate,
    generic_direction,
    monomial_character,
    multiplicity,
    multiplicity_series,
    pairing,
    polarize,
    wv,
    zero_vector,
)
from locmult.localize import ComputationError, EtaNotGeneric, NotPointed


def naive_count(columns, target, lower_bounds, shift, eta):
    """Brute-force the partition count by bounded enumeration."""
    effective = target - shift
    budget = pairing(effective, eta)
    if budget < 0:
        budget = Fraction(0)
    ranges = []
    for a, lb in zip(columns, lower_bounds):
        hi = budget // pairing(a, eta)
        ranges.append(range(lb, hi + 1))
    count = 0
    for ks in itertools.product(*ranges):
        acc = zero_vector(target.rank)
        for k, a in zip(ks, columns):
            acc = acc + k * a
        if acc == effective:
            count += 1
    return count


def by_label(ds, label):
    return next(fp for fp in ds.fixed_points if fp.label == label)


def test_polarize_no_flips(cp2_weighted):
    pol = polarize(by_label(cp2_weighted, "P0"), wv(1))
    assert pol.polarized_weights == (wv(2), wv(1))
    assert pol.flip_flags == (False, False)
    assert pol.sign_count == 0
    assert pol.shift == wv(0)


def test_polarize_all_flips(cp2_weighted):
    pol = polarize(by_label(cp2_weighted, "P1"), wv(1))
    assert pol.polarized_weights == (wv(2), wv(1))
    assert pol.flip_flags == (True, True)
    assert pol.sign_count == 2
    assert pol.shift == wv(3)


def test_polarize_mixed(cp2_weighted):
    pol = polarize(by_label(cp2_weighted, "P2"), wv(1))
    assert pol.polarized_weights == (wv(1), wv(1))
    assert pol.flip_flags == (True, False)
    assert pol.sign_count == 1
    assert pol.shift == wv(1)


def test_polarize_rejects_orthogonal_eta(cp2_standard):
    fp = by_label(cp2_standard, "P0")
    # (0,1)-direction is orthogonal to the normal weight (1,0) at P0
    with pytest.raises(EtaNotGeneric):
        polarize(fp, wv(0, 1))


def test_count_partitions_examples():
    assert count_partitions(PartitionProblem((wv(1), wv(1)), wv(2))) == 3
    assert count_partitions(PartitionProblem((wv(2), wv(1)), wv(4))) == 3
    assert count_partitions(PartitionProblem((wv(1), wv(1)), wv(-1))) == 0
    p = PartitionProblem((wv(1, 0), wv(0, 1), wv(1, 1)), wv(1, 1))
    assert count_partitions(p) == 2


def test_count_partitions_lower_bounds_and_shift():
    p = PartitionProblem((wv(1), wv(1)), wv(2), lower_bounds=(1, 0))
    assert count_partitions(p) == 2  # (1,1) and (2,0)
    p = PartitionProblem((wv(1), wv(1)), wv(2), shift=wv(1))
    assert count_partitions(p) == 2  # effective target (1)
    p = PartitionProblem((wv(1), wv(1)), wv(2), lower_bounds=(1, 1), shift=wv(1))
    assert count_partitions(p) == 0  # effective target (1) minus bounds (2)


def test_count_partitions_no_columns():
    assert count_partitions(PartitionProblem((), wv(0, 0))) == 1
    assert count_partitions(PartitionProblem((), wv(1, 0))) == 0


def test_count_partitions_non_integral_target_is_empty():
    p = PartitionProblem((wv(2),), Fraction(1, 2) * wv(1))
    assert count_partitions(p) == 0


def test_not_pointed_rejected():
    with pytest.raises(NotPointed):
        PartitionProblem((wv(1), wv(-1)), wv(0))
    with pytest.raises(NotPointed):
        find_certificate((wv(1, 0), wv(-1, 0)))


def test_certificate_for_thin_cone():
    # pointed, but no small axis-aligned eta works
    cols = (wv(0, 1), wv(1, -10))
    eta = find_certificate(cols)
    for a in cols:
        assert pairing(a, eta) > 0


def test_explicit_eta_must_be_positive_on_columns():
    with pytest.raises(NotPointed):
        PartitionProblem((wv(1), wv(2)), wv(3), eta=wv(-1))


def test_multiplicity_examples(cp1, cp2_weighted):
    assert multiplicity(cp2_weighted, wv(0), 4) == 3
    assert multiplicity(cp2_weighted, wv(-2), 4) == 2
    assert multiplicity(cp2_weighted, wv(5), 4) == 0
    assert multiplicity(cp1, wv(2), 3) == 1


def test_multiplicity_validates_input(cp1):
    with pytest.raises(Exception):
        multiplicity(cp1, wv(Fraction(1, 2)), 2)
    with pytest.raises(Exception):
        multiplicity(cp1, wv(0), 0)
    with pytest.raises(Exception):
        multiplicity(cp1, wv(0), True)
    with pytest.raises(Exception):
        multiplicity(cp1, wv(0, 0), 2)  # rank mismatch


def test_rank_mismatch_is_coded(cp1):
    for call in (lambda: multiplicity(cp1, wv(0, 0), 2),
                 lambda: multiplicity_series(cp1, wv(0, 0), 1, 3)):
        with pytest.raises(ComputationError) as err:
            call()
        assert err.value.code == "rank-mismatch"
        assert str(err.value) == "weight rank 2 differs from dataset rank 1"


def test_character_table_examples(cp1, cp2_weighted):
    assert character_table(cp1, 2) == CharacterTable(
        {wv(0): 1, wv(1): 1, wv(2): 1}
    )
    assert character_table(cp2_weighted, 1) == CharacterTable(
        {wv(-1): 1, wv(0): 1, wv(1): 1}
    )
    table = character_table(cp2_weighted, 2)
    assert table == CharacterTable(
        {wv(-2): 1, wv(-1): 1, wv(0): 2, wv(1): 1, wv(2): 1}
    )
    assert table.total() == 6


def test_character_table_type():
    t = CharacterTable({wv(1): 2, wv(0): 0})
    assert t[wv(1)] == 2
    assert t[wv(0)] == 0
    assert wv(0) not in t
    assert len(t) == 1
    u = t + CharacterTable({wv(1): -2, wv(3): 1})
    assert u == CharacterTable({wv(3): 1})
    assert (u - u) == CharacterTable()
    assert not (u - u)
    assert t.scale(3)[wv(1)] == 6
    assert t.scale(0) == CharacterTable()
    assert t.total() == 2
    assert t.support() == (wv(1),)


def test_character_table_multiplicities_are_ints():
    t = CharacterTable([(wv(0), 2), (wv(1), Fraction(4, 2)), (wv(2), "3")])
    assert [type(c) for _, c in t.items()] == [int, int, int]
    assert t == CharacterTable({wv(0): 2, wv(1): 2, wv(2): 3})
    with pytest.raises(ComputationError) as err:
        CharacterTable([(wv(1), Fraction(3, 2))])
    assert str(err.value) == "non-integer multiplicity 3/2 at 1"


def test_multiplicity_series_examples(cp1, cp2_weighted):
    scaled = multiplicity_series(cp2_weighted, wv(0), 1, 6)
    assert scaled == [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4)]
    fixed = multiplicity_series(cp2_weighted, wv(1), 1, 4, mode="fixed")
    assert fixed == [(1, 1), (2, 1), (3, 2), (4, 2)]
    assert multiplicity_series(cp1, wv(0), 1, 3) == [(1, 1), (2, 1), (3, 1)]


def test_series_scaled_needs_lattice_points(cp1):
    with pytest.raises(Exception) as err:
        multiplicity_series(cp1, wv(Fraction(1, 2)), 1, 4)
    assert "lattice" in str(err.value)
    # fixed mode rejects a fractional target outright
    with pytest.raises(Exception):
        multiplicity_series(cp1, wv(Fraction(1, 2)), 1, 4, mode="fixed")
    # the end of the range is an integer too, and is checked before its order
    for m_to in (3.5, True):
        with pytest.raises(ComputationError) as err:
            multiplicity_series(cp1, wv(0), 1, m_to)
        assert err.value.code == "computation-error"
        assert str(err.value) == f"power m_to must be an integer, got {m_to!r}"


def test_chamber_independence(cp1, cp2_weighted, cp2_standard, cp3_standard):
    grids = [
        (cp1, [wv(1), wv(-1), wv(5)], [wv(0), wv(1), wv(3)]),
        (cp2_weighted, [wv(1), wv(-1), wv(3)], [wv(0), wv(-2), wv(1)]),
        (cp2_standard, [wv(2, 1), wv(1, 2), wv(-1, -2)],
         [wv(0, 0), wv(1, 0), wv(1, 1)]),
        (cp3_standard, [wv(1, 2, 4), wv(4, 2, 1), wv(-1, -2, -4)],
         [wv(0, 0, 0), wv(1, 1, 0)]),
    ]
    for ds, etas, mus in grids:
        for mu in mus:
            for m in (1, 2, 3, 4):
                values = {multiplicity(ds, mu, m, eta=eta) for eta in etas}
                assert len(values) == 1, (ds.metadata.get("name"), mu, m)


def test_support_vanishes_outside_box(cp2_weighted, cp2_standard):
    for m in (1, 2, 3):
        assert multiplicity(cp2_weighted, wv(m + 1), m) == 0
        assert multiplicity(cp2_weighted, wv(-m - 1), m) == 0
        assert multiplicity(cp2_standard, wv(m + 1, 0), m) == 0
        assert multiplicity(cp2_standard, wv(0, -1), m) == 0


def test_coefficient_linearity(cp2_weighted):
    from locmult import load_dataset, serialize_dataset
    import json

    doc = json.loads(serialize_dataset(cp2_weighted))
    for fp in doc["fixed_points"]:
        fp["coefficient"] = ["2"]
    doubled = load_dataset(json.dumps(doc))
    for m in (1, 2, 3):
        base = character_table(cp2_weighted, m)
        twice = character_table(doubled, m)
        assert twice == base.scale(2)


def test_count_partitions_matches_naive_enumeration():
    rng = random.Random(20260816)
    checked = 0
    while checked < 120:
        rank = rng.randint(1, 3)
        ncols = rng.randint(1, 4)
        cols = []
        for _ in range(ncols):
            coords = [rng.randint(-3, 3) for _ in range(rank)]
            if all(c == 0 for c in coords):
                coords[rng.randrange(rank)] = 1
            cols.append(wv(*coords))
        try:
            eta = find_certificate(cols)
        except NotPointed:
            continue
        target = zero_vector(rank)
        for a in cols:
            target = target + rng.randint(0, 3) * a
        extra = wv(*[rng.randint(-1, 1) for _ in range(rank)])
        target = target + extra
        if pairing(target, eta) > 30:
            continue
        lower = tuple(rng.randint(0, 1) for _ in cols)
        shift = zero_vector(rank)
        if rng.random() < 0.3:
            shift = cols[rng.randrange(ncols)]
        problem = PartitionProblem(tuple(cols), target,
                                   lower_bounds=lower, shift=shift, eta=eta)
        expected = naive_count(cols, target, lower, shift, eta)
        assert count_partitions(problem) == expected, (cols, target, lower, shift)
        checked += 1
    assert checked == 120


def test_count_partitions_rational_columns_match_naive_enumeration():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert count_partitions(PartitionProblem((wv(half), wv(1)), wv(3))) == 4
    cases = [
        ((wv(half), wv(1)), wv(3), (0, 0), wv(0)),
        ((wv(half), wv(third)), wv(Fraction(7, 3)), (1, 0), wv(half)),
        ((wv(half, 0), wv(third, third), wv(0, 1)),
         wv(Fraction(7, 3), Fraction(10, 3)), (0, 1, 0), wv(0, 0)),
        ((wv(1, -half), wv(third, 1)), wv(Fraction(10, 3), 3), (0, 0),
         wv(third, 1)),
        ((wv(2), wv(3)), wv(half), (0, 0), wv(0)),
    ]
    for cols, target, lower, shift in cases:
        for eta in (find_certificate(cols),
                    wv(*[Fraction(2 + i, 5) for i in range(target.rank)])):
            problem = PartitionProblem(cols, target, lower_bounds=lower,
                                       shift=shift, eta=eta)
            expected = naive_count(cols, target, lower, shift, eta)
            assert count_partitions(problem) == expected, (cols, target, eta)


def box_table(ds, m, eta):
    """multiplicity() at every point of the integer bounding box of the
    scaled fiber weights: the cell-by-cell reference for character_table."""
    corners = [m * fp.fiber_weight for fp in ds.fixed_points]
    ranges = [
        range(int(min(c.coords[i] for c in corners)),
              int(max(c.coords[i] for c in corners)) + 1)
        for i in range(ds.rank)
    ]
    return CharacterTable(
        {wv(*p): multiplicity(ds, wv(*p), m, eta)
         for p in itertools.product(*ranges)}
    )


def test_character_table_matches_multiplicity(
    cp1, cp2_weighted, cp2_standard, cp3_standard
):
    q = Fraction
    # per dataset: a rational eta and one flipping weights the default keeps
    grids = [
        (cp1, (1, 2, 5), [wv(q(3, 4)), wv(-2)]),
        (cp2_weighted, (1, 2, 5), [wv(q(5, 3)), wv(q(-1, 2))]),
        (cp2_standard, (1, 2, 4), [wv(q(1, 2), q(5, 3)), wv(-3, 1)]),
        (cp3_standard, (1, 2, 3), [wv(q(1, 2), q(4, 3), q(7, 2)),
                                   wv(-1, -2, 5)]),
    ]
    for ds, powers, etas in grids:
        default = generic_direction(ds)
        flipped = etas[1]
        assert any(
            (pairing(a, default) > 0) != (pairing(a, flipped) > 0)
            for a in ds.all_normal_weights()
        )
        for m in powers:
            for eta in (None, *etas):
                expected = box_table(ds, m, eta)
                assert expected, (ds.metadata.get("name"), m, eta)
                assert character_table(ds, m, eta) == expected, (
                    ds.metadata.get("name"), m, eta)


def test_series_matches_character_table(
    cp1, cp2_weighted, cp2_standard, cp3_standard
):
    """multiplicity_series against a different engine, the per-fixed-point
    expansion of character_table, at every m of ranges long enough for
    the counters' memos to be reused."""
    q = Fraction
    grids = [
        (cp1, 12, [wv(0), wv(1), wv(2), wv(-1)]),
        (cp2_weighted, 12, [wv(0), wv(1), wv(-2), wv(3)]),
        (cp2_standard, 10, [wv(0, 0), wv(1, 0), wv(1, 1), wv(2, -1)]),
        (cp3_standard, 8, [wv(0, 0, 0), wv(1, 0, 0), wv(1, 1, 0), wv(1, 1, 1)]),
    ]
    for ds, m_to, mus in grids:
        rank = ds.rank
        rational = wv(*(q(1, 2), q(5, 3), q(7, 2))[:rank])
        ones = wv(*[-1] * rank)
        for eta in (None, rational, ones):
            if eta is ones and rank > 1:
                # -(1, ..., 1) is orthogonal to e_i - e_j: both engines refuse it
                with pytest.raises(EtaNotGeneric):
                    multiplicity_series(ds, mus[0], 1, 2, eta=eta)
                with pytest.raises(EtaNotGeneric):
                    character_table(ds, 1, eta)
                continue
            tables = {m: character_table(ds, m, eta) for m in range(1, m_to + 1)}
            for mu in mus:
                for mode in ("fixed", "scaled"):
                    series = multiplicity_series(ds, mu, 1, m_to, mode, eta)
                    assert series == [
                        (m, tables[m][mu if mode == "fixed" else m * mu])
                        for m in range(1, m_to + 1)
                    ], (ds.metadata.get("name"), mu, mode, eta)


def test_series_matches_monomial_oracle(cp2_standard, cp3_standard):
    """multiplicity_series against the monomial oracle, which shares no
    code with the expansion that both the series and character_table
    read their values from."""
    q = Fraction
    grids = [
        (cp2_standard, 8, (wv(1, 0), wv(0, 1), wv(0, 0)), wv(q(1, 2), q(5, 3)),
         [wv(0, 0), wv(1, 0), wv(1, 1), wv(0, 2), wv(-1, 0), wv(2, -1),
          wv(-1, -1)]),
        (cp3_standard, 5, (wv(1, 0, 0), wv(0, 1, 0), wv(0, 0, 1), wv(0, 0, 0)),
         wv(-1, -2, 5),
         [wv(0, 0, 0), wv(1, 0, 0), wv(1, 1, 1), wv(2, 0, 1), wv(-1, 0, 0),
          wv(1, -1, 0), wv(0, 0, -2)]),
    ]
    for ds, m_to, coords, rational, mus in grids:
        oracle = {m: monomial_character(ProjectiveActionSpec(coords, m))
                  for m in range(1, m_to + 1)}
        for eta in (None, rational):
            for mu in mus:
                for mode in ("fixed", "scaled"):
                    series = multiplicity_series(ds, mu, 1, m_to, mode, eta)
                    assert series == [
                        (m, oracle[m][mu if mode == "fixed" else m * mu])
                        for m in range(1, m_to + 1)
                    ], (ds.metadata.get("name"), mu, mode, eta)


def test_series_closed_form_to_m_100(cp2_weighted):
    def closed(weight, m):
        return 1 + (m - abs(weight)) // 2 if abs(weight) <= m else 0

    for mu in (0, 1, -1, 3, -7, 18):
        assert multiplicity_series(cp2_weighted, wv(mu), 1, 100, mode="fixed") == [
            (m, closed(mu, m)) for m in range(1, 101)
        ]
    for mu in (0, 1, -1):
        assert multiplicity_series(cp2_weighted, wv(mu), 1, 100) == [
            (m, closed(m * mu, m)) for m in range(1, 101)
        ]


def test_non_integer_multiplicity_text():
    from locmult.fpdata import FixedPointDatum, LocalizationDataset

    # coefficient m/2 on both fixed points of cp1: integral exactly at even m
    half_m = (Fraction(0), Fraction(1, 2))
    ds = LocalizationDataset(1, (
        FixedPointDatum("P", wv(1), (wv(1),), half_m),
        FixedPointDatum("Q", wv(0), (wv(-1),), half_m),
    ))
    assert multiplicity(ds, wv(0), 2) == 1
    assert multiplicity_series(ds, wv(1), 2, 2) == [(2, 1)]
    calls = [
        (lambda: multiplicity(ds, wv(0), 3), "0", "3/2"),
        (lambda: multiplicity_series(ds, wv(1), 2, 5, "fixed"), "1", "3/2"),
        (lambda: multiplicity_series(ds, wv(1), 2, 5), "3", "3/2"),  # 3 * mu
        (lambda: multiplicity_series(ds, wv(0), 1, 3), "0", "1/2"),
        (lambda: character_table(ds, 3), "0", "3/2"),
    ]
    for call, weight, value in calls:
        with pytest.raises(Exception) as err:
            call()
        assert err.value.code == "non-integer-multiplicity"
        assert str(err.value) == (
            f"multiplicity at {weight} is not an integer: {value}"
        )


def test_series_polarizes_once_per_fixed_point(cp2_weighted, monkeypatch):
    """A deterministic work counter: the series is polarized once, not once
    per power."""
    from locmult import localize

    calls = []
    original = localize.polarize

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(localize, "polarize", counting)
    series = multiplicity_series(cp2_weighted, wv(0), 1, 100)
    assert series[-1] == (100, 51)
    assert len(calls) == len(cp2_weighted.fixed_points) == 3


def test_series_expands_once_per_fixed_point(cp2_weighted, monkeypatch):
    """A deterministic work counter: each fixed point is expanded once
    for the whole range, and every power is read off by lookup."""
    from locmult import localize

    calls = []
    original = localize._expand

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(localize, "_expand", counting)
    series = multiplicity_series(cp2_weighted, wv(0), 1, 100)
    assert series[-1] == (100, 51)
    assert len(calls) == len(cp2_weighted.fixed_points) == 3


def brute_expansion(cols, eta, level):
    """Terms of prod 1/(1 - t^a) up to an eta-level, by enumerating every
    multiplicity vector k of the columns."""
    out = {}

    def walk(j, v, lvl):
        if j == len(cols):
            out[v] = out.get(v, 0) + 1
            return
        step = sum(x * e for x, e in zip(cols[j], eta))
        while lvl <= level:
            walk(j + 1, v, lvl)
            v = tuple(x + y for x, y in zip(v, cols[j]))
            lvl += step

    if level >= 0:
        walk(0, (0,) * len(eta), 0)
    return out


def test_expand_matches_brute_enumeration():
    from locmult.localize import _expand

    rng = random.Random(8)
    checked = 0
    while checked < 300:
        rank = rng.randint(1, 3)
        eta = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(rank))
        cols = []
        for _ in range(rng.randint(1, rank + 3)):
            a = tuple(rng.randint(-2, 3) for _ in range(rank))
            p = sum(x * e for x, e in zip(a, eta))
            if p:
                cols.append(a if p > 0 else tuple(-x for x in a))
        if not cols:
            continue
        step = min(sum(x * e for x, e in zip(a, eta)) for a in cols)
        level = step * Fraction(rng.randint(-2, 24), rng.randint(2, 3))
        assert _expand(cols, eta, level) == brute_expansion(cols, eta, level), (
            cols, eta, level)
        checked += 1
    # lines of the last column start at gaps left by the earlier ones
    for cols, eta, level in (
        ([(2,), (3,), (1,)], (1,), 15),
        ([(2,), (3,), (1,)], (Fraction(1, 3),), Fraction(11, 2)),
        ([(3,), (2,), (5,)], (1,), 20),
        ([(2, 0), (0, 3), (1, 1)], (Fraction(1, 2), 1), 9),
    ):
        assert _expand(cols, eta, level) == brute_expansion(cols, eta, level)


def test_deep_rank_one_counts_match_closed_form(cp2_weighted):
    # 1 + m//2 at weight 0; the expansion has O(m) terms, one store each
    assert multiplicity(cp2_weighted, wv(0), 4000) == 1 + 4000 // 2
    series = multiplicity_series(cp2_weighted, wv(0), 1, 2000)
    assert series[-1] == (2000, 1 + 2000 // 2)


def test_count_partitions_six_columns_rank_three():
    e1, e2, e3 = wv(1, 0, 0), wv(0, 1, 0), wv(0, 0, 1)
    cols = (e1, e2, e3, e1 + e2, e2 + e3, e1 + e3)
    assert count_partitions(PartitionProblem(cols, wv(12, 12, 12))) == 616
