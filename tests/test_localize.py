"""Polarization, partition counting, and multiplicity extraction."""

import importlib.util
import itertools
import json
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import pytest

from locmult import (
    CharacterTable,
    PartitionProblem,
    ProjectiveActionSpec,
    character_table,
    count_partitions,
    find_certificate,
    generate_weyl_group,
    generic_direction,
    irreducible_character,
    load_dataset,
    load_dataset_file,
    monomial_character,
    multiplicity,
    multiplicity_series,
    pairing,
    polarize,
    wv,
    zero_vector,
)
from locmult.fpdata import FixedPointDatum, LocalizationDataset
from locmult.localize import ComputationError, EtaNotGeneric, NotPointed

from conftest import DATASETS, grassmannian


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
    # each candidate sum on coordinate tuples
    cols, goal = [a.coords for a in columns], effective.coords
    count = 0
    for ks in itertools.product(*ranges):
        acc = tuple(sum(k * a[i] for k, a in zip(ks, cols))
                    for i in range(len(goal)))
        if acc == goal:
            count += 1
    return count


def by_label(ds, label):
    return next(fp for fp in ds.fixed_points if fp.label == label)


def test_polarize_no_flips(cp2_weighted):
    assert polarize(by_label(cp2_weighted, "P0"), wv(1)) == (1, (0,), ((2,), (1,)))


def test_polarize_all_flips(cp2_weighted):
    assert polarize(by_label(cp2_weighted, "P1"), wv(1)) == (1, (3,), ((2,), (1,)))


def test_polarize_mixed(cp2_weighted):
    sign, shift, columns = polarize(by_label(cp2_weighted, "P2"), wv(1))
    assert (sign, shift, columns) == (-1, (1,), ((1,), (1,)))
    assert all(type(x) is int for x in (*shift, *columns[0], *columns[1]))


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


def test_character_table_reads_both_key_forms():
    """The constructor takes a weight as a WeightVector or as its
    coordinates, and lookups read a key by the same rule."""
    for t in (CharacterTable({wv(1): 1, wv(-2): 3}),
              CharacterTable({(1,): 1, (-2,): 3}),
              CharacterTable([([Fraction(2, 2)], 1), (wv(-2), 3)])):
        assert t[wv(1)] == t[(1,)] == t[[1]] == 1
        assert t[wv(-2)] == t[(-2,)] == 3
        assert wv(1) in t and (1,) in t and (-2,) in t
        assert t[(0,)] == 0 and (0,) not in t and wv(0) not in t
        # an off-lattice weight is never in the table
        assert t[wv(Fraction(1, 2))] == 0 and (Fraction(1, 2),) not in t
        assert t.support() == (wv(-2), wv(1))
        assert t.items() == [(wv(-2), 3), (wv(1), 1)]
        assert list(t) == [wv(-2), wv(1)]


def test_character_table_refuses_other_operands():
    t = CharacterTable({wv(1): 2})
    for combine in (lambda: t + 1, lambda: t - 1, lambda: t + {wv(1): 2}):
        with pytest.raises(ComputationError) as err:
            combine()
        assert err.value.code == "not-a-character"
    assert str(err.value) == "dict is not a CharacterTable"
    assert t != 1 and t != {wv(1): 2} and not t == {(1,): 2}


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


def test_series_starting_above_one(cp2_weighted, cp3_standard):
    """The line of targets is walked from m_from, so a series starting
    above m = 1 checks the start point: every value must be the one the
    same power gets in a series from 1."""
    def closed(weight, m):
        return 1 + (m - abs(weight)) // 2 if abs(weight) <= m else 0

    for m_from, m_to in ((37, 140), (2, 2), (2, 9), (100, 101)):
        for mu in (0, 1, -1, 5, -5):
            for mode, k in (("fixed", 0), ("scaled", 1)):
                assert multiplicity_series(
                    cp2_weighted, wv(mu), m_from, m_to, mode
                ) == [(m, closed(m * mu if k else mu, m))
                      for m in range(m_from, m_to + 1)], (m_from, m_to, mu, mode)

    eta = wv(Fraction(1, 2), Fraction(4, 3), Fraction(7, 2))
    tables = {m: character_table(cp3_standard, m, eta) for m in range(3, 7)}
    for mu in (wv(0, 0, 0), wv(1, 0, 0), wv(1, 1, 0), wv(2, -1, 1)):
        for mode in ("fixed", "scaled"):
            assert multiplicity_series(cp3_standard, mu, 3, 6, mode, eta) == [
                (m, tables[m][mu if mode == "fixed" else m * mu])
                for m in range(3, 7)
            ], (mu, mode)


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


def fresh(name):
    """A freshly loaded shipped dataset, which holds no plan yet: the
    session fixtures hold what earlier tests asked of them."""
    return load_dataset_file(DATASETS / f"{name}.json")


def closed_cp2_weighted(weight, m):
    """cp2_weighted's multiplicity of weight at the power m."""
    return 1 + (m - abs(weight)) // 2 if abs(weight) <= m else 0


def test_series_polarizes_once_per_fixed_point(monkeypatch):
    """A deterministic work counter: a dataset is polarized once per fixed
    point for its lifetime, not once per power or per call."""
    from locmult import localize

    calls = []
    original = localize.polarize

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(localize, "polarize", counting)
    ds = fresh("cp2_weighted")
    series = multiplicity_series(ds, wv(0), 1, 100)
    assert series[-1] == (100, 51)
    assert len(calls) == len(ds.fixed_points) == 3
    calls.clear()
    assert multiplicity_series(ds, wv(0), 1, 100) == series
    assert multiplicity_series(ds, wv(-6), 1, 50, "fixed")[-1] == (50, 23)
    assert calls == []


def test_series_expands_once_per_fixed_point(monkeypatch):
    """A deterministic work counter: the dataset holds one expansion per
    column multiset, cut at the deepest level asked of it, and a call
    expands only the multisets whose lines it reads and holds below its
    top level, each at most once.  With eta = 1 the targets of
    cp2_weighted's fixed points are P0: m - mu, P1: -m - 3 - mu and P2:
    -1 - mu in fixed mode (m, -m - 3 and -1 at mu = 0 scaled); P0 and P1
    share the columns {1, 2}, P2 has {1, 1}, and a line is read only at
    levels >= 0."""
    from locmult import localize

    calls = []
    original = localize._expand

    def counting(cols, eta, level):
        calls.append((tuple(sorted(cols)), level))
        return original(cols, eta, level)

    monkeypatch.setattr(localize, "_expand", counting)
    ds, pair, double = fresh("cp2_weighted"), ((1,), (2,)), ((1,), (1,))
    for mu, m_to, mode, expected in (
        (-6, 50, "fixed", [(pair, 56), (double, 5)]),  # P0's 56 serves P1's 2
        (-6, 50, "fixed", []),  # a repeat
        (0, 100, "scaled", [(pair, 100)]),  # P0 only; P1 and P2 lie below 0
        (6, 50, "fixed", []),  # P0 to 44; P1 and P2 lie below 0
        (-8, 10, "fixed", [(double, 7)]),  # P2 at 7; P0 to 18, P1 to 4
    ):
        calls.clear()
        series = multiplicity_series(ds, wv(mu), 1, m_to, mode)
        assert series == [(m, closed_cp2_weighted(mu if mode == "fixed" else m * mu, m))
                          for m in range(1, m_to + 1)], (mu, mode)
        assert calls == expected, (mu, mode)


def _negated(ds):
    """The dataset with every weight negated: its character is reflected."""
    return LocalizationDataset(ds.rank, tuple(
        FixedPointDatum(fp.label, -fp.fiber_weight,
                        tuple(-a for a in fp.normal_weights), fp.coefficient)
        for fp in ds.fixed_points))


def test_series_window_boundaries(cp2_weighted, cp2_standard, cp3_standard):
    """Each fixed point's line is read only over the powers whose target
    lies at a level its expansion holds, a window that depends on where
    the range starts and ends: every sub-range [a, b] of a range is the
    matching slice of the whole series.  On cp2_weighted and its
    negation the targets rise, fall or stay put with m, and enter the
    window in mid-range.  Every power is also checked against the closed
    form (the negation has the same one, which is even in the weight) or,
    on cp2_standard and cp3_standard, against its character table."""
    def closed(weight, m):
        return 1 + (m - abs(weight)) // 2 if abs(weight) <= m else 0

    for ds in (cp2_weighted, _negated(cp2_weighted)):
        for mu, mode in itertools.product(range(-6, 7), ("fixed", "scaled")):
            full = multiplicity_series(ds, wv(mu), 1, 40, mode)
            assert full == [(m, closed(mu if mode == "fixed" else m * mu, m))
                            for m in range(1, 41)], (mu, mode)
            for a, b in itertools.combinations_with_replacement(range(1, 41), 2):
                assert multiplicity_series(ds, wv(mu), a, b, mode) == full[a - 1:b], (
                    mu, mode, a, b)
    grids = [
        (cp2_standard, 7, [wv(0, 0), wv(2, -1), wv(-3, 4)]),
        (cp3_standard, 5, [wv(0, 0, 0), wv(1, -1, 0), wv(-2, 0, 3)]),
    ]
    for ds, m_to, mus in grids:
        tables = {m: character_table(ds, m) for m in range(1, m_to + 1)}
        for mu, mode in itertools.product(mus, ("fixed", "scaled")):
            full = [(m, tables[m][mu if mode == "fixed" else m * mu])
                    for m in range(1, m_to + 1)]
            for a, b in itertools.combinations_with_replacement(range(1, m_to + 1), 2):
                assert multiplicity_series(ds, mu, a, b, mode) == full[a - 1:b], (
                    ds.metadata.get("name"), mu, mode, a, b)


def _sub_range_queries(ds, m_max, count, rng):
    """count random (mu, m_from, m_to, mode) series queries on ds, with
    coordinates of mu in -3..3 and powers in 1..m_max."""
    queries = []
    for _ in range(count):
        a, b = sorted(rng.randint(1, m_max) for _ in range(2))
        mu = wv(*[rng.randint(-3, 3) for _ in range(ds.rank)])
        queries.append((mu, a, b, rng.choice(("fixed", "scaled"))))
    return queries


def test_series_do_not_depend_on_what_a_dataset_holds(cp1, cp2_weighted, cp2_standard,
                                                      cp3_standard):
    """A dataset holds its deepest expansion per column multiset, and no
    answer depends on the order of the calls: random sub-range series in
    both modes, asked deepest first of one fresh dataset and shallowest
    first of another, equal the same series asked cold, each of a fresh
    copy, on the shipped datasets and their negations."""
    rng = random.Random(33)
    for base, m_max in ((cp1, 40), (cp2_weighted, 40), (cp2_standard, 16),
                        (cp3_standard, 7)):
        for ds in (base, _negated(base)):
            queries = _sub_range_queries(ds, m_max, 30, rng)
            cold = {q: multiplicity_series(replace(ds), *q) for q in queries}
            by_depth = sorted(queries, key=lambda q: (q[2], q[2] - q[1]))
            for order in (by_depth[::-1], by_depth):
                warm = replace(ds)
                for q in order:
                    assert multiplicity_series(warm, *q) == cold[q], q


def test_a_table_does_not_depend_on_what_a_dataset_holds(cp2_standard, cp3_standard):
    """character_table reads the direction and polarization a dataset
    holds, and makes its own expansions: after series on the same
    dataset, and again after it, it equals the table of a fresh copy."""
    rng = random.Random(34)
    for ds, m in ((cp2_standard, 8), (cp3_standard, 5)):
        warm = replace(ds)
        for q in _sub_range_queries(warm, 3 * m, 10, rng):
            multiplicity_series(warm, *q)
        for power in (m, 1, m + 2):
            assert character_table(warm, power) == character_table(replace(ds), power)


def test_threads_sharing_a_dataset_read_consistent_plans(cp2_weighted, cp3_standard):
    """Threads asking one fresh dataset for series at once, with a short
    switch interval, get the answers of a cold dataset: on each of 10
    fresh copies of cp2_weighted and cp3_standard, 4 threads ask the same
    random series, each thread in its own order."""
    rng = random.Random(35)
    cases = []
    for ds, m_max in ((cp2_weighted, 60), (cp3_standard, 6)):
        queries = _sub_range_queries(ds, m_max, 12, rng)
        cold = {q: multiplicity_series(replace(ds), *q) for q in queries}
        cases.append((ds, queries, cold))
    wrong = []

    def work(ds, order, cold):
        for q in order:
            if multiplicity_series(ds, *q) != cold[q]:
                wrong.append(q)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            for ds, queries, cold in cases:
                shared = replace(ds)
                threads = [threading.Thread(target=work, args=(
                    shared, rng.sample(queries, len(queries)), cold)) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_series_reads_each_line_only_in_its_window(monkeypatch):
    """A deterministic work counter: the lookups into the expansions.
    With eta > 0 the targets of cp2_weighted's fixed points are P0: m - mu,
    P1: -m - 3 - mu and P2: -1 - mu in fixed mode (P0: m, P1: -m - 3 and
    P2: -1 at mu = 0 in scaled mode), and a term lies at a level >= 0.
    The counts are the same whether the dataset is cold or already holds
    the expansions, which it made through the counting wrapper."""
    from locmult import localize

    lookups = []
    original = localize._expand

    class Counted(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    monkeypatch.setattr(localize, "_expand", lambda *args: Counted(original(*args)))
    ds = fresh("cp2_weighted")
    for _ in range(2):
        for mu, m_to, mode, expected in ((0, 100, "scaled", 100),  # P0 only
                                         (6, 50, "fixed", 45),  # P0 at m >= 6
                                         (-6, 50, "fixed", 50 + 3 + 50)):  # P1 at m <= 3
            lookups.clear()
            multiplicity_series(ds, wv(mu), 1, m_to, mode)
            assert len(lookups) == expected, (mu, mode)


def test_series_evaluates_a_constant_coefficient_once_per_window(
    cp2_weighted, monkeypatch
):
    """A deterministic work counter: a constant coefficient polynomial is
    evaluated once per fixed point whose window is nonempty (P0; P0; P0,
    P1 and P2, as in the lookup counter above), and any other at each
    power of the window, one call per lookup."""
    from locmult import localize

    calls = []
    original = localize.evaluate

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(localize, "evaluate", counting)
    quadratic = LocalizationDataset(cp2_weighted.rank, tuple(
        FixedPointDatum(fp.label, fp.fiber_weight, fp.normal_weights, (1, 1, 1))
        for fp in cp2_weighted.fixed_points))
    for mu, m_to, mode, constant, lookups in ((0, 100, "scaled", 1, 100),
                                              (6, 50, "fixed", 1, 45),
                                              (-6, 50, "fixed", 3, 103)):
        for ds, expected in ((cp2_weighted, constant), (quadratic, lookups)):
            calls.clear()
            multiplicity_series(ds, wv(mu), 1, m_to, mode)
            assert len(calls) == expected, (mu, mode, expected)


def test_series_with_a_quadratic_coefficient(cp2_weighted):
    """The same coefficient 1 + m + m^2 on every fixed point multiplies the
    whole character, so the series is (1 + m + m^2) times the closed form,
    from every start, on cp2_weighted and its negation."""
    def closed(weight, m):
        return 1 + (m - abs(weight)) // 2 if abs(weight) <= m else 0

    for base in (cp2_weighted, _negated(cp2_weighted)):
        ds = LocalizationDataset(base.rank, tuple(
            FixedPointDatum(fp.label, fp.fiber_weight, fp.normal_weights, (1, 1, 1))
            for fp in base.fixed_points))
        for mu, mode in itertools.product(range(-6, 7), ("fixed", "scaled")):
            full = [(m, (1 + m + m * m) * closed(mu if mode == "fixed" else m * mu, m))
                    for m in range(1, 41)]
            for a in range(1, 41, 3):
                assert multiplicity_series(ds, wv(mu), a, 40, mode) == full[a - 1:], (
                    mu, mode, a)


def test_character_table_expands_down_to_the_polytope(
    cp2_standard, cp3_standard, monkeypatch
):
    """A deterministic work counter: the terms of every expansion that a
    table makes, each fixed point read on its side of the middle
    eta-level of the weight polytope, along eta down to it or along -eta
    up to just below it.
    On cp2 at m = 10 that is exactly one term per entry: 36 from the
    top vertex down, 30 from the bottom vertex up.  With every weight
    negated the character is the original one reflected."""
    from locmult import localize

    terms = []
    original = localize._expand

    def counting(*args):
        result = original(*args)
        terms.append(len(result))
        return result

    monkeypatch.setattr(localize, "_expand", counting)
    for ds, m, work in ((cp3_standard, 6, 138), (cp2_standard, 10, 66)):
        negated = LocalizationDataset(ds.rank, [
            FixedPointDatum(fp.label, -fp.fiber_weight,
                            tuple(-a for a in fp.normal_weights))
            for fp in ds.fixed_points
        ])
        terms.clear()
        table = character_table(negated, m)
        assert sum(terms) == work
        assert table == CharacterTable(
            (-w, c) for w, c in character_table(ds, m).items())


def test_a_table_expands_each_column_multiset_once(monkeypatch):
    """A deterministic work counter: a table reads each fixed point once,
    on its side of the cut, and expands each column multiset once, to its
    deepest read.  On Gr(3, 6) at m = 4 the cut is 126, and S and its
    complement share a multiset: 3 of the 10 multisets have no live read,
    and each of the other 7 has two, at depths one apart (98 and 97 for
    345 and 012), so the table makes 7 expansions of 50219 terms in all.
    The holder is the call's own: the dataset keeps its direction and
    its polarization, and no expansion."""
    from locmult import localize

    terms = []
    original = localize._expand

    def counting(*args):
        result = original(*args)
        terms.append(len(result))
        return result

    monkeypatch.setattr(localize, "_expand", counting)
    ds = grassmannian(3, 6)
    table = character_table(ds, 4)
    assert (len(terms), sum(terms)) == (7, 50219)
    assert table.total() == 4116
    assert set(ds.plan) == {"direction", generic_direction(ds)}


def test_no_expansion_is_asked_below_level_zero(monkeypatch):
    """`_expand` has no early return below level 0: every reader asks it
    for a level of 0 or above.  A table reads only the fixed points whose
    side of the cut holds a term, a series only the windows that reach
    level 0, and an irreducible character a dominant highest weight.
    Each dataset and root system is fresh, so it expands what it reads."""
    from locmult import localize

    levels = []
    original = localize._expand

    def recording(cols, eta, level):
        levels.append(level)
        return original(cols, eta, level)

    monkeypatch.setattr(localize, "_expand", recording)
    for name in ("cp1", "cp2_weighted", "cp2_standard", "cp3_standard"):
        ds = fresh(name)
        for m in range(1, 6):
            character_table(ds, m)
        for mu in itertools.product(range(-2, 3), repeat=ds.rank):
            for mode in ("fixed", "scaled"):
                multiplicity_series(ds, wv(*mu), 1, 8, mode)
    for roots, cartan, lam in ((((2,),), [[1]], (4,)),
                               (((1, -1, 0), (0, 1, -1)), [[1, -1, 0], [0, 1, -1]],
                                (3, 1, 0))):
        rs = generate_weyl_group([wv(*a) for a in roots], cartan)
        irreducible_character(rs, wv(*(0,) * len(lam)))
        irreducible_character(rs, wv(*lam))
    assert len(levels) > 20 and min(levels) >= 0


def test_expansions_compare_ints_along_rational_etas(monkeypatch):
    """A deterministic work counter: at rational etas, every expansion
    that character_table, multiplicity_series (at a rational mu too) and
    count_partitions on int columns with a found certificate make reads
    eta as its integer ray, at an int level.  On a fresh cp2_standard the
    table makes one per fixed point with a live read (the three column
    multisets differ): along (3, 2) the cut is 6, P0 and P1 are read down
    from apexes at levels 12 and 7 and P2 up from level 0, to 5; along
    (-14, 15) the cut is 2, P1 is read down from level 60, P0 up from
    level -56, and P2's upward read starts at level 14, above the cut.
    The fixed series makes one per column multiset whose line reaches
    level 0: P0 and P1 along (3, 2), where P2's targets lie at level
    -10, and P1 alone along (-14, 15).  The series at the rational mu, at
    m = 2, and the one multiplicity, at m = 3 on the series' lines, read
    targets at levels the dataset holds, so they expand nothing."""
    from locmult import localize

    calls = []
    original = localize._expand

    def recording(cols, eta, level):
        calls.append((eta, level))
        return original(cols, eta, level)

    monkeypatch.setattr(localize, "_expand", recording)
    q = Fraction
    ds = fresh("cp2_standard")
    for eta, ray, table, held in ((wv(q(1, 2), q(1, 3)), (3, 2), 3, 2),
                                  (wv(q(-2, 5), q(3, 7)), (-14, 15), 2, 1)):
        calls.clear()
        made = []
        for call in (lambda: character_table(ds, 4, eta),
                     lambda: multiplicity_series(ds, wv(1, 1), 1, 6, "fixed", eta),
                     lambda: multiplicity_series(ds, wv(q(1, 2), 0), 2, 2, eta=eta),
                     lambda: multiplicity(ds, wv(1, 1), 3, eta)):
            before = len(calls)
            call()
            made.append(len(calls) - before)
        assert made == [table, held, 0, 0]
        assert {e for e, _ in calls} == {ray}
        assert all(type(level) is int for _, level in calls)
    problem = PartitionProblem((wv(3, -1), wv(-1, 2), wv(1, 1)), wv(10, 10))
    assert problem.eta == wv(q(3, 5), q(4, 5))
    calls.clear()
    assert count_partitions(problem) == naive_count(
        problem.columns, problem.target, (0, 0, 0), zero_vector(2), problem.eta)
    assert calls == [((3, 4), 70)]


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


def test_fiber_of_wrong_rank_is_refused(cp2_standard):
    """A dataset built in code with one fiber weight longer or shorter
    than the dataset rank cannot exist: construction refuses it with the
    loader's code and message, so it never reaches the kernel."""
    from locmult.fpdata import DatasetError

    first, *rest = cp2_standard.fixed_points
    for fiber in (wv(1, 0, 7), wv(1)):
        with pytest.raises(DatasetError) as err:
            LocalizationDataset(cp2_standard.rank, [
                FixedPointDatum(first.label, fiber, first.normal_weights), *rest
            ])
        assert err.value.code == "rank-mismatch"
        assert str(err.value) == (
            f"fixed_points[0].fiber_weight: weight has {fiber.rank} "
            "coordinates, dataset rank is 2")


def test_eta_of_wrong_rank_is_refused(capsys, tmp_path):
    """eta's rank is checked against the dataset's even where no normal
    weight pairs with it: a point without normal weights once gave a
    silent 0 for a multiplicity of 1."""
    from locmult.cli import main

    doc = {"rank": 1, "fixed_points": [
        {"label": "P", "fiber_weight": [1], "normal_weights": []}]}
    ds = load_dataset(json.dumps(doc))
    assert multiplicity(ds, wv(2), 2) == 1
    for call in (lambda: character_table(ds, 2, wv(1, 0)),
                 lambda: multiplicity(ds, wv(2), 2, wv(1, 0)),
                 lambda: multiplicity_series(ds, wv(2), 1, 3, "fixed", wv(1, 0))):
        with pytest.raises(ComputationError) as err:
            call()
        assert (err.value.code, str(err.value)) == (
            "rank-mismatch", "eta rank 2 differs from dataset rank 1")
    path = tmp_path / "point.json"
    path.write_text(json.dumps(doc))
    for argv in (["mult", "--mu", "2", "--m", "2"], ["character", "--m", "2"],
                 ["series", "--mu", "2", "--m-range", "1..3", "--mode", "fixed"]):
        assert main([*argv, "--dataset", str(path), "--eta", "1,0"]) == 1
        assert capsys.readouterr() == (
            "", "error: rank-mismatch: eta rank 2 differs from dataset rank 1\n")


def test_eta_that_is_not_a_weight_vector_is_refused(cp2_standard, cp2_weighted):
    """eta is checked where every entry point polarizes with it, as mu is:
    a tuple is not-a-weight, not a bare AttributeError."""
    from locmult import verify_structure

    calls = [
        lambda: character_table(cp2_standard, 2, (1, 2)),
        lambda: multiplicity(cp2_standard, wv(0, 0), 2, (1, 2)),
        lambda: multiplicity_series(cp2_weighted, wv(0), 1, 3, "scaled", (1,)),
        lambda: verify_structure(cp2_weighted, wv(0), cp2_weighted.strata, 40,
                                 eta=(1,)),
    ]
    for call in calls:
        with pytest.raises(ComputationError) as err:
            call()
        assert (err.value.code, str(err.value)) == (
            "not-a-weight", "tuple is not a WeightVector")


def test_floats_are_refused():
    from locmult.lattice import LatticeError

    for call in (lambda: wv(0.1), lambda: 0.5 * wv(1),
                 lambda: CharacterTable([(wv(1), 2.0)])):
        with pytest.raises(LatticeError) as err:
            call()
        assert err.value.code == "inexact-number"


def test_off_lattice_mu_is_one_refusal(cp1):
    """multiplicity is the one-power fixed-mode series, so both refuse an
    off-lattice weight alike; the rank is checked before the lattice."""
    half = wv(Fraction(1, 2))
    for call in (lambda: multiplicity(cp1, half, 2),
                 lambda: multiplicity_series(cp1, half, 1, 3, mode="fixed")):
        with pytest.raises(ComputationError) as err:
            call()
        assert err.value.code == "non-lattice-weight"
        assert str(err.value) == "weight 1/2 is not a lattice point"
    # scaled: 2*(1/2) is a lattice point, 3*(1/2) is the first that is not
    assert multiplicity_series(cp1, half, 2, 2) == [(2, multiplicity(cp1, wv(1), 2))]
    for m_from, m_to, first in ((1, 1, 1), (2, 4, 3), (3, 4, 3)):
        with pytest.raises(ComputationError) as err:
            multiplicity_series(cp1, half, m_from, m_to)
        assert str(err.value) == f"scaled weight {first}*(1/2) is not a lattice point"
    for mode in ("fixed", "scaled"):
        with pytest.raises(ComputationError) as err:
            multiplicity_series(cp1, wv(Fraction(1, 2), 0), 1, 3, mode=mode)
        assert err.value.code == "rank-mismatch"


def _box(points):
    """The integer bounding box of some int tuples, as (lo, hi) pairs."""
    return [(min(c), max(c)) for c in zip(*points)]


def _in_box(mu, box):
    return all(lo <= x <= hi for x, (lo, hi) in zip(mu, box))


def test_character_sums_vanish_off_the_box(
    cp1, cp2_weighted, cp2_standard, cp3_standard
):
    """The table needs no box clip: the expansions along eta are complete
    down to the middle eta-level of the weight polytope and those along
    -eta up to it, so every sum off the weight polytope is an exact zero
    and the table lies in the box of the scaled fiber weights."""
    q = Fraction
    rational = {1: wv(q(3, 4)), 2: wv(q(1, 2), q(5, 3)),
                3: wv(q(1, 2), q(4, 3), q(7, 2))}
    for ds in (cp1, cp2_weighted, cp2_standard, cp3_standard):
        coord_weights = tuple(wv(*map(int, w.split(",")))
                              for w in ds.metadata["coord_weights"].split(";"))
        for eta in (generic_direction(ds), rational[ds.rank]):
            for m in (1, 2, 3, 4):
                fibers = [tuple(m * x for x in fp.fiber_weight.coords)
                          for fp in ds.fixed_points]
                table = character_table(ds, m, eta)
                box = _box(fibers)
                assert all(_in_box(mu.coords, box) for mu in table.support())
                assert table == monomial_character(
                    ProjectiveActionSpec(coord_weights, m))


def test_character_table_cut_with_rational_steps(cp2_standard):
    """A rational eta whose column steps have denominators above 1 is
    read as its integer ray (3, 2): the lower side stops one level below
    the cut, so the weights exactly at the cut are read once, from above."""
    q = Fraction
    eta = wv(q(1, 2), q(1, 3))
    steps = {pairing(a, eta) for fp in cp2_standard.fixed_points
             for a in fp.normal_weights}
    assert {s.denominator for s in steps} == {2, 3, 6}
    # m = 4: on the ray the vertices lie at levels 0, 8 and 12, so the
    # cut is 6, where (2, 0) and (0, 3) lie
    table = character_table(cp2_standard, 4, eta)
    assert table[wv(2, 0)] == table[wv(0, 3)] == 1
    assert table == monomial_character(ProjectiveActionSpec(
        (wv(1, 0), wv(0, 1), wv(0, 0)), 4))
    assert table == character_table(cp2_standard, 4, wv(3, 2))


def test_character_table_signed_permutation_sweep(cp2_standard, cp3_standard):
    """Every signed coordinate permutation of cp2 (m <= 6) and cp3
    (m <= 4), read along the generic eta, its negation and a seeded
    rational eta, equals the monomial oracle."""
    rng = random.Random(14)
    q = Fraction
    for ds, m_max in ((cp2_standard, 6), (cp3_standard, 4)):
        coord_weights = [tuple(map(int, w.split(",")))
                         for w in ds.metadata["coord_weights"].split(";")]
        normals = [a for fp in ds.fixed_points for a in fp.normal_weights]
        for perm in itertools.permutations(range(ds.rank)):
            for signs in itertools.product((1, -1), repeat=ds.rank):
                def act(v):
                    return wv(*(s * v.coords[p] for s, p in zip(signs, perm)))

                moved = LocalizationDataset(ds.rank, [
                    FixedPointDatum(fp.label, act(fp.fiber_weight),
                                    tuple(map(act, fp.normal_weights)))
                    for fp in ds.fixed_points
                ])
                weights = tuple(act(wv(*w)) for w in coord_weights)
                generic = generic_direction(moved)
                while True:
                    rational = wv(*(q(rng.randint(-9, 9), rng.randint(1, 5))
                                    for _ in range(ds.rank)))
                    if all(pairing(act(a), rational) for a in normals):
                        break
                for m in range(1, m_max + 1):
                    oracle = monomial_character(ProjectiveActionSpec(weights, m))
                    for eta in (generic, -generic, rational):
                        assert character_table(moved, m, eta) == oracle, (
                            perm, signs, m, eta)


def test_generic_direction_pins(cp1, cp2_weighted, cp2_standard, cp3_standard,
                                monkeypatch):
    """The default eta of every shipped dataset and of the generated
    table documents of benchmark seeds 1-3: it picks each fixed point's
    flips, so a change in it changes the work of every table."""
    assert [generic_direction(ds) for ds in (cp1, cp2_weighted, cp2_standard,
                                             cp3_standard)] == [
        wv(1), wv(1), wv(1, 2), wv(1, 2, 4)]
    spec = importlib.util.spec_from_file_location(
        "bench_gen", DATASETS.parent / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)
    spec.loader.exec_module(gen)
    # one document per cp2 sign pattern ++, +-, -+, -- (two each), then
    # one per cp3 sign pattern; the seed draws only the permutations
    expected = [(1, 2)] * 2 + [(1, 1)] * 4 + [(1, 2)] * 2 + [(1, 2, 4)] * 8
    for seed in (1, 2, 3):
        got = [generic_direction(load_dataset(inp.document)).coords
               for inp in gen.table_inputs(seed)]
        assert got == expected, seed
