"""End-to-end command-line behavior via main(argv)."""

import json

import pytest

from locmult.cli import main

from conftest import DATASETS

CP1 = str(DATASETS / "cp1.json")
CP2 = str(DATASETS / "cp2_weighted.json")
CP2S = str(DATASETS / "cp2_standard.json")
CP3 = str(DATASETS / "cp3_standard.json")
A1_TENSOR = str(DATASETS / "char_a1_tensor.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines()]


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", "--dataset", CP2)
    assert code == 0
    assert out == "ok: rank 1, 3 fixed points\n"
    assert err == ""


def test_validate_corrupt_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"rank": 1, "fixed_points": [], "surprise": 1}')
    code, out, err = run(capsys, "validate", "--dataset", str(path))
    assert code == 1
    assert err.startswith("error: schema-violation:")
    for decimal in ("0.5", "1e0"):
        doc = json.loads((DATASETS / "cp1.json").read_text())
        doc["fixed_points"][0]["coefficient"] = [decimal]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--dataset", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: schema-violation:")
        assert err.count("\n") == 1


def test_validate_warnings_only(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "rank": 1,
        "fixed_points": [
            {"label": "P0", "fiber_weight": [1], "normal_weights": [[1]]},
            {"label": "P1", "fiber_weight": [1], "normal_weights": [[-1]]},
        ],
    }))
    code, out, err = run(capsys, "validate", "--dataset", str(path))
    assert code == 0
    assert out.startswith("warning: ")
    assert out.endswith("ok: rank 1, 2 fixed points\n")


def test_validate_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "validate", "--dataset",
                         str(tmp_path / "nope.json"))
    assert code == 1
    assert err.startswith("error: io-error:")


def test_mult(capsys):
    code, out, err = run(capsys, "mult", "--dataset", CP2, "--mu", "0",
                         "--m", "4")
    assert (code, out) == (0, "3\n")

    code, out, err = run(capsys, "mult", "--dataset", CP2, "--mu", "0",
                         "--m", "4", "--format", "records")
    assert code == 0
    assert records(out) == [
        {"record": "multiplicity", "weight": [0], "m": 4, "value": 3}
    ]


def test_mult_eta_override(capsys):
    base = run(capsys, "mult", "--dataset", CP2, "--mu", "-2", "--m", "4")
    for eta in ("1", "-1", "3"):
        assert run(capsys, "mult", "--dataset", CP2, "--mu", "-2", "--m", "4",
                   "--eta", eta) == base


def test_mult_bad_mu(capsys):
    code, out, err = run(capsys, "mult", "--dataset", CP2, "--mu", "zero",
                         "--m", "4")
    assert code == 1
    assert err.startswith("error: bad-flag:")


def test_mu_of_wrong_rank_is_rank_mismatch(capsys):
    for argv in (("mult", "--mu", "0", "--m", "2"),
                 ("series", "--mu", "0", "--m-range", "1..3")):
        code, out, err = run(capsys, argv[0], "--dataset", CP2S, *argv[1:])
        assert (code, out) == (1, "")
        assert err == ("error: rank-mismatch: weight rank 1 differs from "
                       "dataset rank 2\n")


def test_character(capsys):
    code, out, err = run(capsys, "character", "--dataset", CP1, "--m", "2")
    assert code == 0
    assert out == "0\t1\n1\t1\n2\t1\n"

    code, out, err = run(capsys, "character", "--dataset", CP1, "--m", "2",
                         "--format", "records")
    rows = records(out)
    assert rows[:-1] == [
        {"record": "character-entry", "m": 2, "weight": [0], "multiplicity": 1},
        {"record": "character-entry", "m": 2, "weight": [1], "multiplicity": 1},
        {"record": "character-entry", "m": 2, "weight": [2], "multiplicity": 1},
    ]
    assert rows[-1] == {"record": "character-total", "m": 2, "dimension": 3}


def test_series(capsys):
    code, out, err = run(capsys, "series", "--dataset", CP2, "--mu", "0",
                         "--m-range", "1..6")
    assert (code, out) == (0, "1,2,2,3,3,4\n")

    code, out, err = run(capsys, "series", "--dataset", CP2, "--mu", "1",
                         "--m-range", "1..4", "--mode", "fixed")
    assert (code, out) == (0, "1,1,2,2\n")


def test_series_bad_range(capsys):
    for text in ("six", "1_0..1_2", " 1..3"):
        code, out, err = run(capsys, "series", "--dataset", CP2, "--mu", "0",
                             "--m-range", text)
        assert code == 1
        assert err.startswith("error: bad-flag:")


def test_fit_from_series(capsys):
    code, out, err = run(capsys, "fit", "--series", "1,2,2,3,3,4",
                         "--period", "2", "--degree", "1")
    assert code == 0
    assert out.splitlines() == [
        "period: 2",
        "class 0: 1 + n",
        "class 1: n",
        "phase +1: 3/4 + 1/2*m",
        "phase -1: 1/4",
    ]


def test_fit_from_dataset(capsys):
    code, out, err = run(capsys, "fit", "--dataset", CP2, "--mu", "0",
                         "--m-range", "1..8", "--period", "2", "--degree", "1",
                         "--format", "records")
    assert code == 0
    rows = records(out)
    assert {"record": "quasi-polynomial", "period": 2, "degree": 1} in rows
    phases = [r for r in rows if r["record"] == "phase-poly"]
    assert phases == [
        {"record": "phase-poly", "phase": 1, "coefficients": ["3/4", "1/2"]},
        {"record": "phase-poly", "phase": -1, "coefficients": ["1/4"]},
    ]


def test_fit_needs_a_source(capsys):
    code, out, err = run(capsys, "fit", "--period", "1", "--degree", "0")
    assert code == 1
    assert err.startswith("error: bad-flag:")


@pytest.mark.parametrize("argv", [
    ("fit", "--series", "1,2,x", "--period", "1", "--degree", "0"),
    ("fit", "--series", "1.5", "--period", "1", "--degree", "0"),
    ("mult", "--dataset", CP2, "--mu", "0.5", "--m", "4"),
    ("mult", "--dataset", CP2, "--mu", "0", "--m", "4", "--eta", "1e3"),
    ("mult", "--dataset", CP2, "--mu", "0", "--m", "4", "--eta", "1/0"),
    ("series", "--dataset", CP2, "--mu", "1,", "--m-range", "1..4"),
    ("character", "--dataset", CP1, "--m", "1.5"),
    ("mult", "--dataset", CP2, "--mu", "0", "--m", "1e3"),
    ("oracle-check", "--dataset", CP2, "--m-max", "x"),
    ("verify-qr", "--dataset", CP2, "--mu", "0", "--m-max", "12.0"),
    ("fit", "--series", "1,2", "--m-from", "0.5", "--period", "1",
     "--degree", "0"),
    ("fit", "--series", "1,2", "--period", "1/1", "--degree", "0"),
    ("fit", "--series", "1,2", "--period", "1", "--degree", " 0"),
])
def test_malformed_numbers_are_bad_flags(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad-flag:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("period, degree, line", [
    ("0", "1", "error: bad-period: period must be a positive integer\n"),
    ("-2", "1", "error: bad-period: period must be a positive integer\n"),
    ("1", "-1", "error: bad-degree: degree must be nonnegative\n"),
], ids=["period-zero", "period-negative", "degree-negative"])
def test_fit_period_and_degree_errors_are_coded(capsys, period, degree, line):
    code, out, err = run(capsys, "fit", "--series", "1,2,3,4",
                         "--period", period, "--degree", degree)
    assert code == 1
    assert out == ""
    assert err == line


def test_fit_failure_reported(capsys):
    code, out, err = run(capsys, "fit", "--series", "1,1,2,2,3,3",
                         "--period", "1", "--degree", "1")
    assert code == 1
    assert err.startswith("error: fit-verification:")


def test_verify_qr(capsys):
    code, out, err = run(capsys, "verify-qr", "--dataset", CP2, "--mu", "0",
                         "--m-max", "12")
    assert code == 0
    lines = out.splitlines()
    assert "onset: 1" in lines
    assert "period: 2" in lines
    assert "minimal period: 2" in lines
    assert "phase +1: 3/4 + 1/2*m" in lines
    assert "phase -1: 1/4" in lines
    assert "expected phase +1: match" in lines
    assert "expected phase -1: match" in lines


def test_verify_qr_records(capsys):
    code, out, err = run(capsys, "verify-qr", "--dataset", CP2, "--mu", "0",
                         "--m-max", "12", "--format", "records")
    assert code == 0
    rows = records(out)
    verdict = next(r for r in rows if r["record"] == "qr-verdict")
    assert verdict == {"record": "qr-verdict", "ok": True, "onset": 1,
                       "period": 2, "minimal_period": 2}
    checks = [r for r in rows if r["record"] == "phase-check"]
    assert all(r["ok"] for r in checks)


def test_verify_qr_violation(capsys, tmp_path):
    strata = tmp_path / "wrong.json"
    strata.write_text(json.dumps([
        {"label": "e", "order": 1, "rotation": "0", "degree_bound": 1},
    ]))
    code, out, err = run(capsys, "verify-qr", "--dataset", CP2, "--mu", "0",
                         "--m-max", "12", "--strata", str(strata))
    assert code == 1
    assert err.startswith("error: structure-violated:")
    assert "witnesses m=12" in err


def test_verify_qr_refuses_period_above_two(capsys, tmp_path):
    strata = tmp_path / "period3.json"
    strata.write_text(json.dumps([
        {"label": "e", "order": 1, "rotation": "0", "degree_bound": 0,
         "expected_poly": ["5"]},
        {"label": "g", "order": 3, "rotation": "1/3", "degree_bound": 0},
    ]))
    code, out, err = run(capsys, "verify-qr", "--dataset", CP1, "--mu", "0",
                         "--m-max", "30", "--strata", str(strata))
    assert code == 1
    assert out == ""
    assert err.startswith("error: phase-form-unavailable:")
    assert err.count("\n") == 1


def test_verify_qr_missing_strata(capsys, tmp_path):
    path = tmp_path / "bare.json"
    doc = json.loads((DATASETS / "cp2_weighted.json").read_text())
    del doc["strata"]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-qr", "--dataset", str(path),
                         "--mu", "0", "--m-max", "12")
    assert code == 1
    assert err.startswith("error: missing-strata:")


def test_oracle_check(capsys):
    code, out, err = run(capsys, "oracle-check", "--dataset", CP2,
                         "--m-max", "6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "m=1: ok (3 sections)"
    assert lines[5] == "m=6: ok (28 sections)"


def test_oracle_check_flag_overrides_metadata(capsys):
    code, out, err = run(capsys, "oracle-check", "--dataset", CP1,
                         "--m-max", "3", "--coord-weights", "1;0")
    assert code == 0


def test_oracle_check_detects_mutation(capsys, tmp_path):
    doc = json.loads((DATASETS / "cp2_weighted.json").read_text())
    doc["fixed_points"][0]["fiber_weight"] = [2]
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "oracle-check", "--dataset", str(path),
                         "--m-max", "6", "--format", "records")
    assert code == 1
    rows = records(out)
    assert rows[-1]["record"] == "oracle-mismatch"
    assert rows[-1]["dataset"] != rows[-1]["oracle"]


def test_oracle_check_coordinate_weight_errors(capsys):
    for dataset, weights, error in (
        (CP2S, "1,0;1", "rank-mismatch"),
        (CP2S, "1;0;-1", "rank-mismatch"),
        (CP2, "1/2;0", "non-integer-weight"),
    ):
        code, out, err = run(capsys, "oracle-check", "--dataset", dataset,
                             "--m-max", "2", "--coord-weights", weights)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {error}: coordinate weight")
        assert err.count("\n") == 1


def test_unreadable_documents_are_io_errors(capsys, tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    missing = str(tmp_path / "missing.json")
    for argv, what in (
        (("validate", "--dataset", str(binary)), "dataset"),
        (("verify-qr", "--dataset", CP2, "--mu", "0", "--m-max", "12",
          "--strata", missing), "strata file"),
        (("weyl-decompose", "--character", missing), "character file"),
        (("weyl-decompose", "--character", A1_TENSOR, "--root-system",
          str(binary)), "root system file"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: io-error: cannot read {what} ")
        assert err.count("\n") == 1


def test_oracle_check_vacuous(capsys):
    code, out, err = run(capsys, "oracle-check", "--dataset", CP2,
                         "--m-max", "0")
    assert code == 0
    assert "vacuous" in err


def test_weyl_decompose_embedded_root_system(capsys):
    code, out, err = run(capsys, "weyl-decompose", "--character", A1_TENSOR)
    assert code == 0
    assert out == "1\t1\n3\t1\n"


def test_weyl_decompose_explicit_root_system(capsys, tmp_path):
    rs_path = tmp_path / "a1.json"
    rs_path.write_text(json.dumps(
        {"simple_roots": [[2]], "cartan_pairing": [[1]]}
    ))
    code, out, err = run(capsys, "weyl-decompose", "--character", A1_TENSOR,
                         "--root-system", str(rs_path), "--format", "records")
    assert code == 0
    rows = records(out)
    assert rows == [
        {"record": "irreducible-multiplicity", "weight": [1], "value": 1},
        {"record": "irreducible-multiplicity", "weight": [3], "value": 1},
        {"record": "decomposition", "ok": True, "w_invariant": True,
         "residual_size": 0},
    ]


def test_weyl_decompose_requires_root_system(capsys, tmp_path):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(
        {"entries": [{"weight": [0], "multiplicity": 1}]}
    ))
    code, out, err = run(capsys, "weyl-decompose", "--character", str(path))
    assert code == 1
    assert err.startswith("error: missing-root-system:")
    for roots, error in (([2], "schema-violation"), ([["a"]], "non-integer-weight")):
        path.write_text(json.dumps({
            "entries": [{"weight": [0], "multiplicity": 1}],
            "root_system": {"simple_roots": roots, "cartan_pairing": [[1]]},
        }))
        code, out, err = run(capsys, "weyl-decompose", "--character", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {error}:")
        assert err.count("\n") == 1
    path.write_text(json.dumps({
        "entries": 3,
        "root_system": {"simple_roots": [[2]], "cartan_pairing": [[1]]},
    }))
    code, out, err = run(capsys, "weyl-decompose", "--character", str(path))
    assert (code, out) == (1, "")
    assert err == (f"error: schema-violation: {path}: character file must be "
                   f"an object with an 'entries' list\n")


def test_weyl_decompose_flags_non_invariant(capsys, tmp_path):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({
        "entries": [{"weight": [1], "multiplicity": 1}],
        "root_system": {"simple_roots": [[2]], "cartan_pairing": [[1]]},
    }))
    code, out, err = run(capsys, "weyl-decompose", "--character", str(path))
    assert code == 1
    assert "warning: character is not Weyl invariant" in out
    assert "residual" in out


def test_records_are_deterministic(capsys):
    first = run(capsys, "character", "--dataset", CP3, "--m", "3",
                "--format", "records")
    second = run(capsys, "character", "--dataset", CP3, "--m", "3",
                 "--format", "records")
    assert first == second
    third = run(capsys, "verify-qr", "--dataset", CP2, "--mu", "0",
                "--m-max", "12", "--format", "records")
    fourth = run(capsys, "verify-qr", "--dataset", CP2, "--mu", "0",
                 "--m-max", "12", "--format", "records")
    assert third == fourth


@pytest.mark.parametrize("argv, flag, value, code", [
    (("mult", "--dataset", CP2S, "--m", "2"), "--mu", "-1,0", 0),
    (("mult", "--dataset", CP2S, "--mu", "1,0", "--m", "2"), "--eta", "-1,2", 0),
    (("fit", "--period", "1", "--degree", "1"), "--series", "-1,0,1,2", 0),
    (("oracle-check", "--dataset", CP2, "--m-max", "3"), "--coord-weights",
     "-1;1;0", 0),
    (("series", "--dataset", CP2, "--mu", "0"), "--m-range", "-1..3", 1),
])
def test_values_starting_with_minus(capsys, argv, flag, value, code):
    """A value that starts with '-' may follow its flag as a separate
    token, as it may after '='."""
    result = run(capsys, *argv, flag, value)
    assert result == run(capsys, *argv, f"{flag}={value}")
    assert result[0] == code
    if code:
        assert result[2].startswith("error: computation-error:")
        assert result[2].count("\n") == 1


def test_unknown_flag_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mult", "--dataset", CP2, "--mu", "0", "--m", "4", "--tol", "3"])
    assert exc.value.code == 2


def test_missing_required_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mult", "--dataset", CP2, "--m", "4"])
    assert exc.value.code == 2
