"""Dataset parsing, validation, and round-trip serialization."""

import json
import os
from fractions import Fraction

import pytest

from locmult import (
    FixedPointDatum,
    LocalizationDataset,
    LocmultError,
    load_character_file,
    load_dataset,
    load_dataset_file,
    load_root_system_file,
    load_strata_file,
    serialize_dataset,
    poly,
    validate,
    wv,
)
from locmult.fpdata import DatasetError
from locmult.fpdata import parse_root_system, parse_strata

CP1_DOC = """
{
  "rank": 1,
  "fixed_points": [
    {"label": "P0", "fiber_weight": [1], "normal_weights": [[1]]},
    {"label": "P1", "fiber_weight": [0], "normal_weights": [[-1]]}
  ]
}
"""


def test_load_cp1_document():
    ds = load_dataset(CP1_DOC)
    assert ds.rank == 1
    assert len(ds.fixed_points) == 2
    assert ds.fixed_points[0].fiber_weight == wv(1)
    assert ds.fixed_points[1].normal_weights == (wv(-1),)
    assert ds.fixed_points[0].coefficient == (Fraction(1),)


def test_load_cp2_document(cp2_weighted):
    assert len(cp2_weighted.fixed_points) == 3
    by_label = {fp.label: fp for fp in cp2_weighted.fixed_points}
    assert by_label["P1"].fiber_weight == wv(-1)
    assert by_label["P2"].normal_weights == (wv(-1), wv(1))


def _doc(**overrides):
    doc = json.loads(CP1_DOC)
    doc.update(overrides)
    return json.dumps(doc)


def test_zero_normal_weight_rejected():
    doc = _doc(fixed_points=[
        {"label": "P0", "fiber_weight": [1], "normal_weights": [[0]]}
    ])
    with pytest.raises(DatasetError) as err:
        load_dataset(doc)
    assert err.value.code == "zero-normal-weight"


def test_float_literal_rejected():
    with pytest.raises(DatasetError):
        load_dataset(CP1_DOC.replace("[1]", "[1.0]", 1))


def test_unknown_field_rejected():
    with pytest.raises(DatasetError) as err:
        load_dataset(_doc(surprise=1))
    assert "surprise" in str(err.value)


def test_non_integer_weight_entry_rejected():
    doc = _doc(fixed_points=[
        {"label": "P0", "fiber_weight": ["1"], "normal_weights": [[1]]}
    ])
    with pytest.raises(DatasetError) as err:
        load_dataset(doc)
    assert err.value.code == "non-integer-weight"
    # JSON true is not an integer weight either
    doc = _doc(fixed_points=[
        {"label": "P0", "fiber_weight": [True], "normal_weights": [[1]]}
    ])
    with pytest.raises(DatasetError):
        load_dataset(doc)


def test_rank_mismatch_rejected():
    doc = _doc(rank=2)
    with pytest.raises(DatasetError) as err:
        load_dataset(doc)
    assert err.value.code == "rank-mismatch"
    assert "fixed_points[0]" in str(err.value)


def _rank2_doc(weight, place="normal_weights[2]"):
    """A rank-2 document whose fixed_points[1].normal_weights[2], or its
    fixed_points[1].fiber_weight, is the given weight."""
    p1 = {"label": "P1", "fiber_weight": [1, 0],
          "normal_weights": [[-1, 0], [-1, 1], [1, 1]]}
    if place == "fiber_weight":
        p1["fiber_weight"] = weight
    else:
        p1["normal_weights"][2] = weight
    return json.dumps({"rank": 2, "fixed_points": [
        {"label": "P0", "fiber_weight": [0, 0], "normal_weights": [[1, 0], [0, 1]]},
        p1,
    ]})


# refusals of the one pass over a weight's shape and coordinate types
ONE_PASS_REFUSALS = [
    ([None, 0], "non-integer-weight", "{place}[0]: expected an integer, got None"),
    ([[1], 0], "non-integer-weight", "{place}[0]: expected an integer, got [1]"),
    ({}, "schema-violation", "{place}: expected a coordinate list, got {{}}"),
    ([], "rank-mismatch", "{place}: weight has 0 coordinates, dataset rank is 2"),
    ([0.5, 0], "schema-violation",
     "floating point literal '0.5' is not accepted; use 'p/q' strings"),
]


@pytest.mark.parametrize("weight, code, message", [
    ([0, "1"], "non-integer-weight",
     "fixed_points[1].normal_weights[2][1]: expected an integer, got '1'"),
    ([True, 1], "non-integer-weight",
     "fixed_points[1].normal_weights[2][0]: expected an integer, got True"),
    ([1, 1, 1], "rank-mismatch",
     "fixed_points[1].normal_weights[2]: weight has 3 coordinates, dataset rank is 2"),
    (7, "schema-violation",
     "fixed_points[1].normal_weights[2]: expected a coordinate list, got 7"),
    ([0, 0], "zero-normal-weight",
     "fixed_points[1]: fixed point 'P1' has a zero normal weight"),
] + [(weight, code, message.format(place="fixed_points[1].normal_weights[2]"))
     for weight, code, message in ONE_PASS_REFUSALS])
def test_weight_errors_name_their_place(weight, code, message):
    with pytest.raises(DatasetError) as err:
        load_dataset(_rank2_doc(weight))
    assert (err.value.code, str(err.value)) == (code, message)


@pytest.mark.parametrize("weight, code, message", [
    (weight, code, message.format(place="fixed_points[1].fiber_weight"))
    for weight, code, message in ONE_PASS_REFUSALS])
def test_fiber_weight_errors_name_their_place(weight, code, message):
    with pytest.raises(DatasetError) as err:
        load_dataset(_rank2_doc(weight, "fiber_weight"))
    assert (err.value.code, str(err.value)) == (code, message)


def test_loaders_refuse_a_descriptor_and_leave_it_open(tmp_path):
    """An int path is not a file descriptor to read and close: every file
    loader refuses it before opening anything, as it refuses True, which
    would have read descriptor 1."""
    path = tmp_path / "cp1.json"
    path.write_text(CP1_DOC, encoding="utf-8")
    fd = os.open(path, os.O_RDONLY)
    try:
        for load in (load_dataset_file, load_strata_file, load_root_system_file,
                     load_character_file):
            for bad in (fd, True):
                with pytest.raises(LocmultError) as err:
                    load(bad)
                assert err.value.code == "io-error", (load, bad)
                assert str(err.value).endswith(
                    f"expected str, bytes or os.PathLike object, not {type(bad).__name__}")
            os.fstat(fd)
    finally:
        os.close(fd)


def test_all_normal_weights_keeps_first_occurrences():
    points = [
        FixedPointDatum("P", wv(0, 0), (wv(1, 0), wv(0, 1), wv(1, 0))),
        FixedPointDatum("Q", wv(1, 0), (wv(-1, 0), wv(0, 1), wv(-1, 1))),
        FixedPointDatum("R", wv(0, 1), (wv(-1, 1), wv(0, -1), wv(1, 0))),
    ]
    ds = LocalizationDataset(2, points)
    assert ds.all_normal_weights() == (
        wv(1, 0), wv(0, 1), wv(-1, 0), wv(-1, 1), wv(0, -1))


def test_missing_rank_and_empty_points():
    with pytest.raises(DatasetError):
        load_dataset('{"fixed_points": []}')
    with pytest.raises(DatasetError):
        load_dataset('{"rank": 1, "fixed_points": []}')
    with pytest.raises(DatasetError):
        load_dataset('{"rank": 0, "fixed_points": [1]}')


def test_malformed_json():
    with pytest.raises(DatasetError):
        load_dataset("{not json")


def test_documents_read_as_json_loads_reads_them():
    """The strict decoder takes bytes in their detected encoding (UTF-8
    with or without a byte order mark, UTF-16) and refuses a str that
    opens with a byte order mark, as json.loads does."""
    ds = load_dataset(CP1_DOC)
    for text in (CP1_DOC.encode(), bytearray(CP1_DOC.encode()),
                 CP1_DOC.encode("utf-8-sig"), CP1_DOC.encode("utf-16")):
        assert load_dataset(text) == ds
    with pytest.raises(DatasetError) as err:
        load_dataset("\ufeff" + CP1_DOC)
    assert err.value.code == "schema-violation"
    assert str(err.value) == \
        "malformed document: Unexpected UTF-8 BOM (decode using utf-8-sig)"


def test_bad_coefficient():
    doc = _doc(fixed_points=[
        {"label": "P0", "fiber_weight": [1], "normal_weights": [[1]],
         "coefficient": ["1/0"]}
    ])
    with pytest.raises(DatasetError):
        load_dataset(doc)
    doc = _doc(fixed_points=[
        {"label": "P0", "fiber_weight": [1], "normal_weights": [[1]],
         "coefficient": []}
    ])
    with pytest.raises(DatasetError):
        load_dataset(doc)


def test_decimal_rationals_are_rejected():
    for decimal in ("0.5", "1e0", "1.", " 1"):
        doc = _doc(fixed_points=[
            {"label": "P0", "fiber_weight": [1], "normal_weights": [[1]],
             "coefficient": [decimal]}
        ])
        with pytest.raises(DatasetError) as exc:
            load_dataset(doc)
        assert exc.value.code == "schema-violation"
        assert "malformed rational" in str(exc.value)
    with pytest.raises(DatasetError, match="malformed rational"):
        parse_strata([{"label": "e", "order": 1, "rotation": "0",
                       "degree_bound": 0, "expected_poly": ["0.25"]}])


def test_coefficient_accepts_ints_and_strings():
    doc = _doc(fixed_points=[
        {"label": "P0", "fiber_weight": [1], "normal_weights": [[1]],
         "coefficient": [2, "1/2"]}
    ])
    ds = load_dataset(doc)
    assert ds.fixed_points[0].coefficient == (Fraction(2), Fraction(1, 2))
    assert poly.evaluate(ds.fixed_points[0].coefficient, 4) == 4


def test_bad_metadata():
    with pytest.raises(DatasetError):
        load_dataset(_doc(metadata={"k": 1}))


def test_bad_root_system():
    with pytest.raises(DatasetError) as err:
        load_dataset(_doc(root_system={"simple_roots": [[2]],
                                       "cartan_pairing": [[3]]}))
    assert err.value.code == "root-system-invalid"


def test_root_system_entries_are_located():
    """A bad simple-root coordinate or Cartan entry is named by its
    place in the block."""
    cases = (
        ({"simple_roots": [[1, -1], [0, True]], "cartan_pairing": [[1, -1], [0, 2]]},
         "root_system.simple_roots[1][1]: expected an integer, got True"),
        ({"simple_roots": [[1, -1], [0, 1]], "cartan_pairing": [[1, -1], [0, "2"]]},
         "root_system.cartan_pairing[1][1]: expected an integer, got '2'"),
    )
    for block, message in cases:
        with pytest.raises(DatasetError) as err:
            parse_root_system(block, None, "root_system")
        assert (err.value.code, str(err.value)) == ("non-integer-weight", message)


def test_root_system_block_loads():
    ds = load_dataset(_doc(root_system={"simple_roots": [[2]],
                                        "cartan_pairing": [[1]]}))
    assert ds.root_system is not None
    assert ds.root_system.order == 2
    assert ds.root_system.delta == wv(1)


def test_strata_block_loads(cp2_weighted):
    assert cp2_weighted.strata is not None
    assert [s.label for s in cp2_weighted.strata] == ["e", "g"]
    assert cp2_weighted.strata[1].rotation == Fraction(1, 2)
    assert cp2_weighted.strata[1].expected_poly == (Fraction(1, 4),)


def test_bad_strata():
    base = json.loads(CP1_DOC)
    base["strata"] = [{"label": "s", "order": 2, "rotation": "1/3",
                       "degree_bound": 0}]
    with pytest.raises(DatasetError):  # 1/3 is not a 2nd root of unity
        load_dataset(json.dumps(base))
    base["strata"] = [{"label": "s", "order": 1, "rotation": "0",
                       "degree_bound": -1}]
    with pytest.raises(DatasetError):
        load_dataset(json.dumps(base))


def test_validate_clean_dataset(cp2_weighted):
    report = validate(cp2_weighted)
    assert report.findings == ()
    assert report.ok


def test_validate_reports_rank_mismatch():
    # constructed directly, no such dataset exists: the constructor refuses
    # it with the loader's code and message
    with pytest.raises(DatasetError) as err:
        LocalizationDataset(
            rank=2,
            fixed_points=(FixedPointDatum("P0", wv(1), (wv(1),)),),
        )
    assert (err.value.code, str(err.value)) == (
        "rank-mismatch",
        "fixed_points[0].fiber_weight: weight has 1 coordinates, dataset rank is 2")


def test_validate_reports_what_the_loader_refuses(cp1, cp2_weighted, a1xa1):
    """Datasets whose document load_dataset refuses cannot be built in
    code either: each construction raises the loader's code and message,
    so none reaches validate, and the round trip holds for every dataset."""
    from dataclasses import replace

    from locmult import StratumPhaseDatum

    p0, p1 = cp1.fixed_points
    cases = [
        (lambda: replace(cp2_weighted, strata=()),
         "bad-stratum", "strata: strata must be a nonempty list"),
        (lambda: replace(cp1, fixed_points=(p0, replace(p1, label=""))),
         "schema-violation", "label must be a nonempty string"),
        (lambda: replace(cp2_weighted, strata=(
            cp2_weighted.strata[0], StratumPhaseDatum("", 1, Fraction(0), 0))),
         "schema-violation", "label must be a nonempty string"),
        (lambda: replace(cp1, metadata={"name": 3}),
         "schema-violation", "metadata.name: metadata values must be strings, got 3"),
        (lambda: replace(cp1, metadata={"name": "x", "note": None}),
         "schema-violation", "metadata.note: metadata values must be strings, got None"),
        (lambda: replace(cp1, root_system=a1xa1), "rank-mismatch",
         "root_system.simple_roots[0]: weight has 2 coordinates, dataset rank is 1"),
        (lambda: replace(cp1, rank=True),
         "non-integer-weight", "rank: expected an integer, got True"),
        # a stratum or a fixed point that is not a datum
        (lambda: replace(cp2_weighted, strata=(cp2_weighted.strata[0], 1)),
         "bad-stratum", "strata[1]: 1 is not a StratumPhaseDatum"),
        (lambda: replace(cp1, fixed_points=(p0, 1)),
         "schema-violation", "fixed_points[1]: 1 is not a FixedPointDatum"),
        # an int label
        (lambda: replace(p0, label=5),
         "schema-violation", "label must be a nonempty string"),
    ]
    for build, code, message in cases:
        with pytest.raises(DatasetError) as err:
            build()
        assert (err.value.code, str(err.value)) == (code, message)


def test_validate_warns_on_duplicate_fiber_weights():
    ds = load_dataset(_doc(fixed_points=[
        {"label": "P0", "fiber_weight": [1], "normal_weights": [[1]]},
        {"label": "P1", "fiber_weight": [1], "normal_weights": [[-1]]},
    ]))
    report = validate(ds)
    assert report.ok  # warnings do not fail validation
    assert len(report.warnings) == 1
    assert "P0" in report.warnings[0].message


def test_round_trip(cp1, cp2_weighted, cp2_standard, cp3_standard):
    for ds in (cp1, cp2_weighted, cp2_standard, cp3_standard):
        assert load_dataset(serialize_dataset(ds)) == ds


def test_round_trip_with_root_system_and_coefficient():
    doc = _doc(
        fixed_points=[
            {"label": "P0", "fiber_weight": [1], "normal_weights": [[1]],
             "coefficient": ["1/2", "3"]},
            {"label": "P1", "fiber_weight": [0], "normal_weights": [[-1]]},
        ],
        root_system={"simple_roots": [[2]], "cartan_pairing": [[1]]},
        metadata={"name": "test"},
    )
    ds = load_dataset(doc)
    assert load_dataset(serialize_dataset(ds)) == ds
