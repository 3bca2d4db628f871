"""Arguments of the wrong type: every entry point exported by `locmult`
refuses one with one coded error, read by the argument readers of
`lattice`, never with a bare AttributeError, TypeError or ValueError."""

import pytest

import locmult
from locmult import (
    CharacterTable,
    FixedPointDatum,
    LocalizationDataset,
    LocmultError,
    PartitionProblem,
    ProjectiveActionSpec,
    QuasiPolynomial,
    StratumPhaseDatum,
    WeightVector,
    WeylElement,
    character_table,
    count_dilated,
    count_partitions,
    decompose_character,
    evaluate,
    find_certificate,
    fit_quasi_polynomial,
    generate_weyl_group,
    generic_direction,
    irreducible_character,
    is_dominant,
    load_character_file,
    load_dataset,
    load_dataset_file,
    load_root_system_file,
    load_strata_file,
    minimal_period,
    monomial_character,
    multiplicity,
    multiplicity_series,
    onset_threshold,
    pairing,
    phase_decomposition,
    pick_generic_direction,
    polarize,
    serialize_dataset,
    tensor,
    total_dimension,
    validate,
    verify_structure,
    wv,
    zero_vector,
)

A2 = generate_weyl_group((wv(1, -1, 0), wv(0, 1, -1)), [[1, -1, 0], [0, 1, -1]])
POINT = FixedPointDatum("P", wv(1), (wv(1),))
DATASET = LocalizationDataset(1, (POINT, FixedPointDatum("Q", wv(0), (wv(-1),))))
CHI = CharacterTable({wv(1): 1})

# (exported name, call, code); ids are the name and the row's index
SWEEP = [
    ("WeightVector", lambda: WeightVector(3), "not-a-weight"),
    ("WeylElement", lambda: WeylElement(((0, 1),), 1).apply((1,)), "not-a-weight"),
    ("generate_weyl_group", lambda: generate_weyl_group([(1, -1)], [[1, -1]]),
     "not-a-weight"),
    ("is_dominant", lambda: is_dominant((1, 0, 0), A2), "not-a-weight"),
    ("is_dominant", lambda: is_dominant(wv(1, 0, 0), 3), "not-a-root-system"),
    ("pairing", lambda: pairing((1,), (1,)), "not-a-weight"),
    ("pick_generic_direction", lambda: pick_generic_direction([(1, 0)], 2),
     "not-a-weight"),
    ("wv", lambda: wv(None), "bad-number"),
    ("zero_vector", lambda: zero_vector("2"), "bad-rank"),
    ("FixedPointDatum", lambda: FixedPointDatum("P", wv(1), (wv(1),), None),
     "not-a-polynomial"),
    ("FixedPointDatum", lambda: FixedPointDatum("P", wv(1), (wv(1),), 3),
     "not-a-polynomial"),
    ("LocalizationDataset", lambda: LocalizationDataset(1, 3), "schema-violation"),
    ("StratumPhaseDatum", lambda: StratumPhaseDatum("e", 1, 0, 0, expected_poly=3),
     "not-a-polynomial"),
    ("load_character_file", lambda: load_character_file(None), "io-error"),
    ("load_dataset", lambda: load_dataset(3), "schema-violation"),
    ("load_dataset_file", lambda: load_dataset_file(None), "io-error"),
    ("load_root_system_file", lambda: load_root_system_file(None), "io-error"),
    ("load_strata_file", lambda: load_strata_file(None), "io-error"),
    ("serialize_dataset", lambda: serialize_dataset(3), "not-a-dataset"),
    ("validate", lambda: validate(3), "not-a-dataset"),
    ("CharacterTable", lambda: CharacterTable(3), "not-a-character"),
    ("CharacterTable", lambda: CharacterTable([(1,)]), "not-a-character"),
    ("PartitionProblem", lambda: PartitionProblem(((1,),), wv(1)), "not-a-weight"),
    ("PartitionProblem", lambda: PartitionProblem((wv(1),), (1,)), "not-a-weight"),
    ("character_table", lambda: character_table(3, 2), "not-a-dataset"),
    ("count_partitions", lambda: count_partitions(3), "not-a-partition-problem"),
    ("find_certificate", lambda: find_certificate([(1, 0)]), "not-a-weight"),
    ("generic_direction", lambda: generic_direction(3), "not-a-dataset"),
    ("multiplicity", lambda: multiplicity(3, wv(0), 1), "not-a-dataset"),
    ("multiplicity_series", lambda: multiplicity_series(3, wv(0), 1, 2),
     "not-a-dataset"),
    ("polarize", lambda: polarize(POINT, (1,)), "not-a-weight"),
    ("polarize", lambda: polarize(3, wv(1)), "not-a-fixed-point"),
    ("QuasiPolynomial", lambda: QuasiPolynomial(1, (3,)), "not-a-polynomial"),
    ("count_dilated", lambda: count_dilated(3, 2), "not-a-partition-problem"),
    ("evaluate", lambda: evaluate(None, 1), "not-a-quasi-polynomial"),
    ("fit_quasi_polynomial", lambda: fit_quasi_polynomial(5, 1, 0), "bad-sample"),
    ("minimal_period", lambda: minimal_period(None, 2, 0), "bad-sample"),
    ("phase_decomposition", lambda: phase_decomposition([(1, 1)]),
     "not-a-quasi-polynomial"),
    ("decompose_character", lambda: decompose_character({wv(1): 1}, A2),
     "not-a-character"),
    ("irreducible_character", lambda: irreducible_character("a2", wv(1, 0, 0)),
     "not-a-root-system"),
    ("tensor", lambda: tensor(CHI, 1), "not-a-character"),
    ("ProjectiveActionSpec", lambda: ProjectiveActionSpec([(1,), (0,)], 2),
     "not-a-weight"),
    ("monomial_character", lambda: monomial_character(3), "not-a-projective-action"),
    ("total_dimension", lambda: total_dimension(3), "not-a-projective-action"),
    ("onset_threshold", lambda: onset_threshold([(1, 1)], 5),
     "not-a-quasi-polynomial"),
    ("verify_structure", lambda: verify_structure(DATASET, (0,), (), 40),
     "bad-stratum"),
    ("WeightVector", lambda: wv(1) + (1,), "not-a-weight"),
    ("WeightVector", lambda: wv(1) - (1,), "not-a-weight"),
    ("pick_generic_direction", lambda: pick_generic_direction([], "2"), "bad-rank"),
]

# records the library builds and returns: their constructors store what
# they are given, except that a RootSystem refuses fields of the wrong
# type (it comes from generate_weyl_group, which has a row, and every
# entry point that takes one checks its type)
RECORDS = {"DecompositionResult", "QRReport", "RootSystem"}


@pytest.mark.parametrize("name, call, code", SWEEP,
                         ids=[f"{row[0]}-{i}" for i, row in enumerate(SWEEP)])
def test_wrong_types_are_coded(name, call, code):
    with pytest.raises(LocmultError) as err:
        call()
    assert err.value.code == code
    assert "\n" not in str(err.value)


def test_every_export_has_a_row():
    """A new entry point cannot skip the readers: each callable that
    `locmult` exports, other than its exceptions and result records, has
    a row in SWEEP."""
    exported = {
        name for name, value in vars(locmult).items()
        if not name.startswith("_") and callable(value)
        and not (isinstance(value, type) and issubclass(value, BaseException))
    }
    assert RECORDS <= exported
    assert exported - RECORDS == {row[0] for row in SWEEP}

