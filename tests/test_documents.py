"""The document files: one reader for every outside document, and the
refusal of weights the dataset format cannot hold."""

import json

import pytest

from locmult import (
    FixedPointDatum,
    load_character_file,
    load_dataset_file,
    load_root_system_file,
    load_strata_file,
    wv,
)
from locmult.errors import LocmultError
from locmult.fpdata import DatasetError


def test_unreadable_file_is_io_error(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    for loader in (load_dataset_file, load_strata_file, load_root_system_file,
                   load_character_file):
        for path in (tmp_path / "missing.json", binary, tmp_path):
            with pytest.raises(LocmultError) as err:
                loader(path)
            assert err.value.code == "io-error"
            assert str(path) in str(err.value)


def test_document_files_load(tmp_path, cp2_weighted):
    strata = [{"label": "e", "order": 1, "rotation": "0", "degree_bound": 1,
               "expected_poly": ["3/4", "1/2"]},
              {"label": "g", "order": 2, "rotation": "1/2", "degree_bound": 0,
               "expected_poly": ["1/4"]}]
    path = tmp_path / "doc.json"
    for doc in (strata, {"strata": strata}):
        path.write_text(json.dumps(doc))
        assert load_strata_file(path) == cp2_weighted.strata
    block = {"simple_roots": [[2]], "cartan_pairing": [[1]]}
    path.write_text(json.dumps(block))
    assert load_root_system_file(path).simple_roots == (wv(2),)
    path.write_text(json.dumps(
        {"entries": [{"weight": [3], "multiplicity": 2}], "root_system": block}
    ))
    assert load_character_file(path) == ([(wv(3), 2)], block)


def test_document_files_are_strict_json(tmp_path):
    path = tmp_path / "doc.json"
    for loader, text in (
        (load_strata_file, '[{"label": "e", "order": 1.0}]'),
        (load_root_system_file, '{"simple_roots": [[NaN]]}'),
        (load_character_file, '{"entries": [{"weight": [Infinity]}]}'),
        (load_character_file, '{"entries": ['),
    ):
        path.write_text(text)
        with pytest.raises(DatasetError) as err:
            loader(path)
        assert err.value.code == "schema-violation"


def test_non_lattice_weights_are_refused_at_construction():
    """A dataset holds lattice points only, as its document does, so a
    normal weight off the lattice is refused where the dataset is built
    and the serializer has nothing to refuse."""
    with pytest.raises(DatasetError, match="'P'") as err:
        FixedPointDatum("P", wv(0), (wv("1/2"),))
    assert err.value.code == "non-integer-weight"
