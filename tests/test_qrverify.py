"""Structure verification: fits, onsets, and declared strata."""

from fractions import Fraction

import pytest

from locmult import (
    QuasiPolynomial,
    StratumPhaseDatum,
    evaluate,
    onset_threshold,
    verify_structure,
    wv,
)
from locmult.ehrhart import PhaseFormUnavailable, phase_decomposition
from locmult.errors import LocmultError
from locmult.fpdata import DatasetError
from locmult.poly import make
from locmult.fpdata import BadStratum, parse_strata
from locmult.qrverify import StructureViolated

FREE = StratumPhaseDatum("free", 1, Fraction(0), 1)
EVEN = StratumPhaseDatum("e", 1, Fraction(0), 1)
ODD = StratumPhaseDatum("g", 2, Fraction(1, 2), 0)


def test_stratum_validation():
    with pytest.raises(BadStratum):
        StratumPhaseDatum("s", 0, Fraction(0), 0)
    with pytest.raises(BadStratum):
        StratumPhaseDatum("s", True, Fraction(0), 0)
    with pytest.raises(BadStratum):
        StratumPhaseDatum("s", 2, Fraction(3, 2), 0)
    with pytest.raises(BadStratum):
        StratumPhaseDatum("s", 2, Fraction(1, 3), 0)
    with pytest.raises(BadStratum):
        StratumPhaseDatum("s", 1, Fraction(0), -1)
    s = StratumPhaseDatum("s", 4, "3/4", 2, expected_poly=(1, 0))
    assert s.rotation == Fraction(3, 4)
    assert s.expected_poly == make([1])
    for bound in ("1", True, 1.5):
        with pytest.raises(BadStratum, match="degree_bound must be a nonnegative integer"):
            StratumPhaseDatum("s", 1, Fraction(0), bound)


def test_parse_strata():
    strata = parse_strata([
        {"label": "e", "order": 1, "rotation": "0", "degree_bound": 1,
         "expected_poly": ["3/4", "1/2"]},
        {"label": "g", "order": 2, "rotation": "1/2", "degree_bound": 0},
    ])
    assert strata[0].expected_poly == make(["3/4", "1/2"])
    assert strata[1].expected_poly is None

    with pytest.raises(DatasetError):
        parse_strata([])
    with pytest.raises(DatasetError):
        parse_strata("strata")
    with pytest.raises(DatasetError):
        parse_strata([{"label": "e", "order": 1, "rotation": "0"}])
    with pytest.raises(DatasetError):
        parse_strata([{"label": "e", "order": 1, "rotation": "0",
                       "degree_bound": 0, "extra": 1}])
    with pytest.raises(DatasetError):
        parse_strata([{"label": "", "order": 1, "rotation": "0",
                       "degree_bound": 0}])
    with pytest.raises(DatasetError):
        parse_strata([{"label": "e", "order": 1, "rotation": "0.5",
                       "degree_bound": 0}])
    with pytest.raises(DatasetError) as err:
        parse_strata([{"label": "e", "order": 2, "rotation": "1/3",
                       "degree_bound": 0}])
    assert err.value.code == "bad-stratum"


def test_onset_threshold_examples(cp2_weighted):
    from locmult import fit_quasi_polynomial, multiplicity_series

    series = multiplicity_series(cp2_weighted, wv(0), 1, 8)
    qp = fit_quasi_polynomial(series, 2, 1)
    assert onset_threshold(series, qp) == 1

    line = QuasiPolynomial(1, (make([-1, 1]),))
    assert onset_threshold([(1, 5), (2, 1), (3, 2), (4, 3), (5, 4)], line) == 2

    identity = QuasiPolynomial(1, (make([0, 1]),))
    floor_halves = [(m, m // 2) for m in range(1, 9)]
    assert onset_threshold(floor_halves, identity) is None


def test_verify_weighted_projective_plane(cp2_weighted):
    report = verify_structure(cp2_weighted, wv(0), cp2_weighted.strata, 12)
    assert report.period_used == 2
    assert report.onset == 1
    assert report.minimal_period_found == 2
    for m in range(1, 13):
        expected = Fraction(3, 4) + Fraction(m, 2) + Fraction(1, 4) * (-1) ** m
        assert evaluate(report.fitted, m) == expected
    assert report.phase_polys == {1: make(["3/4", "1/2"]), -1: make(["1/4"])}
    assert all(c.ok for c in report.phase_checks)
    # the dataset declares expected polynomials for both strata
    assert all(c.equal is True for c in report.expected_comparisons)
    assert report.phases_ok


def test_verify_free_action(cp1):
    report = verify_structure(cp1, wv(0), cp1.strata, 8)
    assert report.period_used == 1
    assert report.onset == 1
    assert report.minimal_period_found == 1
    assert report.fitted.residue_polys == (make([1]),)
    assert report.phases_ok


def test_verify_wrong_declaration(cp2_weighted):
    with pytest.raises(StructureViolated) as err:
        verify_structure(cp2_weighted, wv(0), (EVEN,), 12)
    assert err.value.witnesses == (12,)
    assert err.value.code == "structure-violated"


def test_verify_m_max_too_small(cp2_weighted):
    with pytest.raises(LocmultError) as err:
        verify_structure(cp2_weighted, wv(0), cp2_weighted.strata, 9)
    assert err.value.code == "m-max-too-small"


def test_verify_needs_strata(cp1):
    with pytest.raises(BadStratum):
        verify_structure(cp1, wv(0), (), 8)


def test_verify_refuses_a_stratum_that_is_not_a_datum(cp2_weighted):
    for strata in ([1], [EVEN, "g"], [None]):
        with pytest.raises(BadStratum) as err:
            verify_structure(cp2_weighted, wv(0), strata, 12)
        assert err.value.code == "bad-stratum"
        assert "is not a StratumPhaseDatum" in str(err.value)


def test_arguments_of_the_wrong_type_are_coded(cp2_weighted):
    """Strata that are not a list, a weight that is not a WeightVector
    and a fit that is not a QuasiPolynomial each give one coded error;
    strata are refused as a dataset refuses them."""
    ds = cp2_weighted
    for call, code, message in (
        (lambda: verify_structure(ds, wv(0), 5, 40), "bad-stratum",
         "strata: strata must be a nonempty list"),
        (lambda: verify_structure(ds, (0,), ds.strata, 40), "not-a-weight",
         "tuple is not a WeightVector"),
        (lambda: onset_threshold([(1, 1)], 5), "not-a-quasi-polynomial",
         "int is not a QuasiPolynomial"),
        (lambda: evaluate(None, 1), "not-a-quasi-polynomial",
         "NoneType is not a QuasiPolynomial"),
        (lambda: phase_decomposition([(1, 1)]), "not-a-quasi-polynomial",
         "list is not a QuasiPolynomial"),
    ):
        with pytest.raises(LocmultError) as err:
            call()
        assert err.value.code == code
        assert str(err.value) == message


def test_verify_m_max_must_be_an_int(cp2_weighted):
    """An m_max that is not an int gets the error a series gives for such
    an m_to, bools included, and before its size is compared."""
    from locmult import multiplicity_series

    for m_max in (True, False, 40.0, "40", Fraction(40)):
        with pytest.raises(LocmultError) as series_err:
            multiplicity_series(cp2_weighted, wv(0), 1, m_max)
        with pytest.raises(LocmultError) as err:
            verify_structure(cp2_weighted, wv(0), cp2_weighted.strata, m_max)
        assert err.value.code == series_err.value.code == "computation-error"
        assert str(err.value) == str(series_err.value) == (
            f"power m_to must be an integer, got {m_max!r}")


def test_verify_builds_as_many_fractions_at_every_m_max(cp2_weighted, monkeypatch):
    """A deterministic work counter: the onset scan and the fit's
    self-check compare on the integer form, so the Fractions built by a
    verification do not grow with the length of its series (the fit reads
    the top k*(d+2) = 6 samples whatever m_max is).  The 7 are one per
    coefficient: q_0 = 1 + n and q_1 = n from the fit (4), then
    p_plus = 3/4 + m/2 and p_minus = 1/4 from the phase split (3)."""
    original = Fraction.__new__
    built = []

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return original(cls, *args, **kwargs)

    counts = []
    for m_max in (40, 100, 400):
        built.clear()
        monkeypatch.setattr(Fraction, "__new__", counting)
        report = verify_structure(cp2_weighted, wv(0), cp2_weighted.strata, m_max)
        monkeypatch.undo()
        assert report.onset == 1 and report.phases_ok
        counts.append(len(built))
    assert counts == [7, 7, 7]


def test_verify_fixed_mode_phase_sweep(cp2_weighted):
    for l in range(-4, 5):
        report = verify_structure(
            cp2_weighted, wv(l), (EVEN, ODD), 14, mode="fixed"
        )
        assert report.onset == max(1, abs(l) - 2), l
        expected_even = make([Fraction(3, 4) - Fraction(abs(l), 2),
                              Fraction(1, 2)])
        expected_odd = make([Fraction((-1) ** abs(l), 4)])
        assert report.phase_polys[1] == expected_even, l
        assert report.phase_polys[-1] == expected_odd, l
        assert all(c.ok for c in report.phase_checks)


def test_verify_onset_one_on_abelian_corpus(
    cp1, cp2_weighted, cp2_standard, cp3_standard
):
    free2 = StratumPhaseDatum("free", 1, Fraction(0), 2)
    free3 = StratumPhaseDatum("free", 1, Fraction(0), 3)
    cases = [
        (cp1, wv(0), (FREE,), 8),
        (cp1, wv(1), (FREE,), 8),
        (cp2_weighted, wv(0), cp2_weighted.strata, 12),
        (cp2_weighted, wv(1), (EVEN, ODD), 12),
        (cp2_standard, wv(0, 0), (free2,), 10),
        (cp2_standard, wv(1, 0), (free2,), 10),
        (cp3_standard, wv(0, 0, 0), (free3,), 12),
    ]
    for ds, mu, strata, m_max in cases:
        report = verify_structure(ds, mu, strata, m_max)
        assert report.onset == 1, (mu, m_max)


def test_verify_flags_undeclared_phase(cp2_weighted):
    # only the rotated stratum declared: the +1 phase goes unclaimed
    report = verify_structure(
        cp2_weighted, wv(0), (StratumPhaseDatum("g", 2, Fraction(1, 2), 1),), 12
    )
    assert not report.phases_ok
    unclaimed = [c for c in report.phase_checks if c.declared_bound is None]
    assert len(unclaimed) == 1
    assert unclaimed[0].phase == 1
    assert not unclaimed[0].ok


def test_verify_flags_wrong_expected_poly(cp1):
    wrong = StratumPhaseDatum("free", 1, Fraction(0), 1,
                              expected_poly=("2",))
    report = verify_structure(cp1, wv(0), (wrong,), 8)
    assert report.onset == 1
    assert not report.phases_ok
    assert report.expected_comparisons[0].equal is False


def test_verify_over_declared_stratum_diagnostic(cp1):
    report = verify_structure(cp1, wv(0), (FREE, ODD), 10)
    assert report.period_used == 2
    assert report.minimal_period_found == 1
    assert report.onset == 1


def test_period_above_two_is_refused(cp1):
    # a false expectation that a vacuous pass would hide
    strata = (
        StratumPhaseDatum("e", 1, Fraction(0), 0, expected_poly=make(["5"])),
        StratumPhaseDatum("g", 3, Fraction(1, 3), 0),
    )
    with pytest.raises(PhaseFormUnavailable):
        verify_structure(cp1, wv(0), strata, 30)
