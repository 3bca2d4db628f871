"""Datasets are valid by construction: every rule of a dataset document
is kept by the constructor that owns its field, with the loader's code
and message, and every dataset that can exist round-trips."""

import json
import random
from fractions import Fraction

import pytest

from locmult import (
    FixedPointDatum,
    LocalizationDataset,
    StratumPhaseDatum,
    generate_weyl_group,
    load_dataset,
    serialize_dataset,
    wv,
)
from locmult.fpdata import BadStratum, DatasetError

A1 = ((wv(2),), [[1]])
A1XA1 = ((wv(2, 0), wv(0, 2)), [[1, 0], [0, 1]])
A2 = ((wv(1, -1, 0), wv(0, 1, -1)), [[1, -1, 0], [0, 1, -1]])
ROOT_SYSTEMS = {1: A1, 2: A1XA1, 3: A2}


def _point(label="P", fiber=(0, 0), normals=((1, 0), (0, 1))):
    return FixedPointDatum(label, wv(*fiber), tuple(wv(*a) for a in normals))


def _stratum(label="e", order=1, degree_bound=0):
    return StratumPhaseDatum(label, order, Fraction(0), degree_bound)


def _entry(label="P", fiber=(0, 0), normals=((1, 0), (0, 1))):
    return {"label": label, "fiber_weight": list(fiber),
            "normal_weights": [list(a) for a in normals]}


def _stratum_entry(label="e", order=1, degree_bound=0):
    return {"label": label, "order": order, "rotation": "0",
            "degree_bound": degree_bound}


def _document(rank=2, points=None, **extra):
    return {"rank": rank, "fixed_points": points or [_entry()], **extra}


def _dataset(rank=2, points=None, **extra):
    return LocalizationDataset(rank, points or [_point()], **extra)


# (rule, library construction, the same document, the place the loader
# adds in front of the constructor's message, or None when the
# constructor names the place itself)
RULES = [
    ("rank not an int", lambda: _dataset(rank="2"), _document(rank="2"), None),
    ("rank a bool", lambda: _dataset(rank=True), _document(rank=True), None),
    ("rank zero", lambda: _dataset(rank=0), _document(rank=0), None),
    ("rank negative", lambda: _dataset(rank=-1), _document(rank=-1), None),
    ("no fixed points", lambda: LocalizationDataset(2, ()),
     {"rank": 2, "fixed_points": []}, None),
    ("fiber of another rank", lambda: _dataset(points=[_point(fiber=(0,))]),
     _document(points=[_entry(fiber=(0,))]), None),
    ("normal weight of another rank",
     lambda: _dataset(points=[_point(), _point("Q", (1, 0), ((1, 0), (1, 1, 1)))]),
     _document(points=[_entry(), _entry("Q", (1, 0), ((1, 0), (1, 1, 1)))]), None),
    ("empty normal weight", lambda: _dataset(points=[_point(normals=((),))]),
     _document(points=[_entry(normals=((),))]), None),
    ("zero normal weight of another rank",
     lambda: _dataset(points=[_point(normals=((1, 0), (0,)))]),
     _document(points=[_entry(normals=((1, 0), (0,)))]), None),
    ("simple root of another rank",
     lambda: _dataset(root_system=generate_weyl_group(*A1)),
     _document(root_system={"simple_roots": [[2]], "cartan_pairing": [[1]]}), None),
    ("empty strata", lambda: _dataset(strata=()), _document(strata=[]), None),
    ("metadata not an object", lambda: _dataset(metadata=[]),
     _document(metadata=[]), None),
    ("metadata value not a string", lambda: _dataset(metadata={"a": "x", "b": 1}),
     _document(metadata={"a": "x", "b": 1}), None),
    ("empty fixed-point label", lambda: _point(label=""),
     _document(points=[_entry(label="")]), "fixed_points[0]"),
    ("fixed-point label not a string", lambda: _point(label=7),
     _document(points=[_entry(), _entry(label=7)]), "fixed_points[1]"),
    ("zero normal weight", lambda: _point(normals=((1, 0), (0, 0))),
     _document(points=[_entry(normals=((1, 0), (0, 0)))]), "fixed_points[0]"),
    ("empty stratum label", lambda: _stratum(label=""),
     _document(strata=[_stratum_entry(label="")]), "strata[0]"),
    ("stratum label not a string", lambda: _stratum(label=None),
     _document(strata=[_stratum_entry(), _stratum_entry(label=None)]), "strata[1]"),
    ("order a string", lambda: _stratum(order="2"),
     _document(strata=[_stratum_entry(order="2")]), "strata[0]"),
    ("order a bool", lambda: _stratum(order=True),
     _document(strata=[_stratum_entry(order=True)]), "strata[0]"),
    ("degree bound a string", lambda: _stratum(degree_bound="0"),
     _document(strata=[_stratum_entry(degree_bound="0")]), "strata[0]"),
    ("order zero", lambda: _stratum(order=0),
     _document(strata=[_stratum_entry(order=0)]), "strata[0]"),
]


@pytest.mark.parametrize("build, document, place",
                         [rule[1:] for rule in RULES], ids=[rule[0] for rule in RULES])
def test_constructor_refusal_is_the_loaders(build, document, place):
    with pytest.raises((BadStratum, DatasetError)) as built:
        build()
    with pytest.raises(DatasetError) as loaded:
        load_dataset(json.dumps(document))
    message = str(built.value) if place is None else f"{place}: {built.value}"
    assert (loaded.value.code, str(loaded.value)) == (built.value.code, message)


def test_refusals_that_have_no_document():
    """Fixed points or strata that are not a nonempty tuple of data, or a
    metadata key that is not a string, can only be built in code; each
    is a coded refusal, bad-stratum for the strata as for the rules
    inside a stratum."""
    cases = [
        (lambda: LocalizationDataset(1, None), "schema-violation",
         "fixed_points must be a nonempty list"),
        (lambda: _dataset(points=[_point(), "Q"]), "schema-violation",
         "fixed_points[1]: 'Q' is not a FixedPointDatum"),
        (lambda: _dataset(strata=[_stratum(), 3]), "bad-stratum",
         "strata[1]: 3 is not a StratumPhaseDatum"),
        (lambda: _dataset(metadata={1: "x"}), "schema-violation",
         "metadata: metadata keys must be strings, got 1"),
    ]
    for build, code, message in cases:
        with pytest.raises(DatasetError) as err:
            build()
        assert (err.value.code, str(err.value)) == (code, message)


def test_malformed_fixed_points_are_refused():
    """A weight that is not a WeightVector, or normal weights that are not
    a collection, can only be built in code; FixedPointDatum refuses each
    with one coded error."""
    cases = [
        (lambda: FixedPointDatum("P", (1,), ()), "weight (1,) of 'P' is not a WeightVector"),
        (lambda: FixedPointDatum("P", wv(1), (wv(1), [2])),
         "weight [2] of 'P' is not a WeightVector"),
        (lambda: FixedPointDatum("P", wv(1), 5), "normal_weights of 'P' must be a list, got int"),
    ]
    for build, message in cases:
        with pytest.raises(DatasetError) as err:
            build()
        assert (err.value.code, str(err.value)) == ("schema-violation", message)


def test_stratum_integers_are_bad_strata():
    """A non-integer order or degree bound is refused by StratumPhaseDatum,
    so a document gets the bad-stratum code, as it does for order 0."""
    for key, value, kind in (("order", "2", "a positive"), ("order", True, "a positive"),
                             ("degree_bound", "1", "a nonnegative")):
        doc = _document(strata=[{**_stratum_entry(), key: value}])
        with pytest.raises(DatasetError) as err:
            load_dataset(json.dumps(doc))
        assert (err.value.code, str(err.value)) == (
            "bad-stratum",
            f"strata[0]: stratum 'e': {key} must be {kind} integer, got {value!r}")


def _random_weight(rng, rank, nonzero=False):
    while True:
        w = wv(*(rng.randint(-3, 3) for _ in range(rank)))
        if not (nonzero and w.is_zero()):
            return w


def _random_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _random_dataset(rng):
    rank = rng.randint(1, 3)
    points = [
        FixedPointDatum(
            rng.choice(["P", "Q", "é", "a b"]) + str(i),
            _random_weight(rng, rank),
            tuple(_random_weight(rng, rank, nonzero=True)
                  for _ in range(rng.randint(0, 3))),
            tuple(_random_fraction(rng) for _ in range(rng.randint(1, 3))),
        )
        for i in range(rng.randint(1, 4))
    ]
    strata = None
    if rng.random() < 0.5:
        strata = []
        for i in range(rng.randint(1, 3)):
            order = rng.randint(1, 4)
            expected = None
            if rng.random() < 0.5:
                expected = [_random_fraction(rng) for _ in range(rng.randint(0, 2))]
            strata.append(StratumPhaseDatum(
                f"s{i}", order, Fraction(rng.randrange(order), order),
                rng.randint(0, 2), expected))
    root_system = None
    if rng.random() < 0.5:
        root_system = generate_weyl_group(*ROOT_SYSTEMS[rank])
    metadata = {f"k{i}": rng.choice(["", "x", "1;-1;0", "ü"])
                for i in range(rng.randint(0, 3))}
    return LocalizationDataset(rank, points, root_system, strata, metadata)


def test_every_dataset_round_trips():
    rng = random.Random(20260424)
    seen = set()
    for _ in range(200):
        ds = _random_dataset(rng)
        seen.add((ds.rank, ds.strata is not None, ds.root_system is not None,
                  bool(ds.metadata)))
        assert load_dataset(serialize_dataset(ds)) == ds
    assert len(seen) == 3 * 2 * 2 * 2  # every rank, with and without each block
