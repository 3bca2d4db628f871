"""Input data model for localization datasets.

A dataset lists the isolated fixed points of a torus action together
with, per point, the fiber weight of the quantizing line bundle and the
normal weights of the action.  Weights are recorded in the convention
under which the character of the m-th power sums
t^(m*fiber) / prod_j (1 - t^(-alpha_j)) over the fixed points; the
monomial oracle in `oracle` pins this convention down operationally.

Documents are strict JSON with no floating point literals anywhere.
Rationals are written as "p/q" strings (bare integers are accepted on
input); serialization always emits the canonical string form.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from . import poly
from .errors import LocmultError
from .lattice import RootSystem, WeightVector, generate_weyl_group


class DatasetError(LocmultError):
    code = "schema-violation"

    def __init__(self, message, *, code=None, location=None):
        if location:
            message = f"{location}: {message}"
        super().__init__(message, code=code)
        self.location = location


@dataclass(frozen=True)
class FixedPointDatum:
    """One isolated fixed point: fiber weight, normal weights, and an
    optional polynomial coefficient in the power m (constant first)."""

    label: str
    fiber_weight: WeightVector
    normal_weights: tuple[WeightVector, ...]
    coefficient: tuple[Fraction, ...] = (Fraction(1),)

    def __post_init__(self):
        object.__setattr__(self, "normal_weights", tuple(self.normal_weights))
        object.__setattr__(self, "coefficient", poly.normalize(self.coefficient))
        if not self.fiber_weight.is_integral():
            raise DatasetError(
                f"fiber weight of {self.label!r} is not a lattice point",
                code="non-integer-weight",
            )
        for a in self.normal_weights:
            if a.is_zero():
                raise DatasetError(
                    f"fixed point {self.label!r} has a zero normal weight",
                    code="zero-normal-weight",
                )

    def coefficient_at(self, m: int) -> Fraction:
        return poly.evaluate(self.coefficient, m)


@dataclass(frozen=True)
class LocalizationDataset:
    rank: int
    fixed_points: tuple[FixedPointDatum, ...]
    root_system: RootSystem | None = None
    strata: tuple | None = None
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "fixed_points", tuple(self.fixed_points))
        if self.strata is not None:
            object.__setattr__(self, "strata", tuple(self.strata))
        object.__setattr__(self, "metadata", dict(self.metadata))

    def all_normal_weights(self) -> tuple[WeightVector, ...]:
        seen = []
        for fp in self.fixed_points:
            for a in fp.normal_weights:
                if a not in seen:
                    seen.append(a)
        return tuple(seen)


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" or "warning"
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")

    @property
    def ok(self) -> bool:
        return not self.errors


def _reject_float(text):
    raise DatasetError(
        f"floating point literal {text!r} is not accepted; use 'p/q' strings",
        code="schema-violation",
    )


def _expect_int(value, location) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DatasetError(
            f"expected an integer, got {value!r}",
            code="non-integer-weight",
            location=location,
        )
    return value


def _parse_weight(value, rank, location) -> WeightVector:
    if not isinstance(value, list):
        raise DatasetError(
            f"expected a coordinate list, got {value!r}", location=location
        )
    coords = tuple(
        _expect_int(x, f"{location}[{i}]") for i, x in enumerate(value)
    )
    if len(coords) != rank:
        raise DatasetError(
            f"weight has {len(coords)} coordinates, dataset rank is {rank}",
            code="rank-mismatch",
            location=location,
        )
    return WeightVector(coords)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational_from_text(text: str) -> Fraction | None:
    """An integer or "p/q" string as a Fraction; None for anything else,
    decimals, exponents and zero denominators included."""
    if _RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            pass
    return None


def parse_rational(value, location) -> Fraction:
    if isinstance(value, bool):
        raise DatasetError(f"expected a rational, got {value!r}", location=location)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        q = rational_from_text(value)
        if q is None:
            raise DatasetError(
                f"malformed rational {value!r}; expected an integer or 'p/q'",
                location=location,
            )
        return q
    raise DatasetError(f"expected a rational, got {value!r}", location=location)


def _check_keys(obj, allowed, location):
    extra = set(obj) - set(allowed)
    if extra:
        raise DatasetError(
            f"unknown field {sorted(extra)[0]!r}", location=location
        )


def _parse_fixed_point(obj, rank, location) -> FixedPointDatum:
    if not isinstance(obj, dict):
        raise DatasetError("fixed point must be an object", location=location)
    _check_keys(
        obj, ("label", "fiber_weight", "normal_weights", "coefficient"), location
    )
    for key in ("label", "fiber_weight", "normal_weights"):
        if key not in obj:
            raise DatasetError(f"missing field {key!r}", location=location)
    if not isinstance(obj["label"], str) or not obj["label"]:
        raise DatasetError("label must be a nonempty string", location=location)
    fiber = _parse_weight(obj["fiber_weight"], rank, f"{location}.fiber_weight")
    if not isinstance(obj["normal_weights"], list):
        raise DatasetError("normal_weights must be a list", location=location)
    normals = tuple(
        _parse_weight(w, rank, f"{location}.normal_weights[{i}]")
        for i, w in enumerate(obj["normal_weights"])
    )
    coeff = (Fraction(1),)
    if "coefficient" in obj:
        if not isinstance(obj["coefficient"], list) or not obj["coefficient"]:
            raise DatasetError(
                "coefficient must be a nonempty list of rationals",
                location=location,
            )
        coeff = tuple(
            parse_rational(c, f"{location}.coefficient[{i}]")
            for i, c in enumerate(obj["coefficient"])
        )
    try:
        return FixedPointDatum(obj["label"], fiber, normals, coeff)
    except DatasetError as exc:
        raise DatasetError(str(exc), code=exc.code, location=location) from None


def _parse_root_system(obj, rank, location) -> RootSystem:
    """Root system block; a rank of None is read off the first simple root."""
    if not isinstance(obj, dict):
        raise DatasetError("root_system must be an object", location=location)
    _check_keys(obj, ("simple_roots", "cartan_pairing"), location)
    for key in ("simple_roots", "cartan_pairing"):
        if key not in obj or not isinstance(obj[key], list):
            raise DatasetError(f"missing or malformed {key!r}", location=location)
    if rank is None:
        first = obj["simple_roots"][:1]
        rank = len(first[0]) if first and isinstance(first[0], list) else 0
    roots = tuple(
        _parse_weight(r, rank, f"{location}.simple_roots[{i}]")
        for i, r in enumerate(obj["simple_roots"])
    )
    table = []
    for i, row in enumerate(obj["cartan_pairing"]):
        if not isinstance(row, list):
            raise DatasetError(
                "cartan_pairing rows must be lists",
                location=f"{location}.cartan_pairing[{i}]",
            )
        table.append(
            tuple(
                _expect_int(x, f"{location}.cartan_pairing[{i}][{j}]")
                for j, x in enumerate(row)
            )
        )
    try:
        return generate_weyl_group(roots, table)
    except LocmultError as exc:
        raise DatasetError(
            str(exc), code="root-system-invalid", location=location
        ) from None


def load_dataset(text: str) -> LocalizationDataset:
    """Parse and validate a dataset document."""
    try:
        obj = json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"malformed document: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise DatasetError("document root must be an object")
    _check_keys(
        obj, ("rank", "fixed_points", "root_system", "strata", "metadata"), "document"
    )
    if "rank" not in obj:
        raise DatasetError("missing field 'rank'")
    rank = _expect_int(obj["rank"], "rank")
    if rank < 1:
        raise DatasetError("rank must be a positive integer", location="rank")
    if (
        "fixed_points" not in obj
        or not isinstance(obj["fixed_points"], list)
        or not obj["fixed_points"]
    ):
        raise DatasetError("fixed_points must be a nonempty list")
    points = tuple(
        _parse_fixed_point(fp, rank, f"fixed_points[{i}]")
        for i, fp in enumerate(obj["fixed_points"])
    )
    rs = None
    if "root_system" in obj:
        rs = _parse_root_system(obj["root_system"], rank, "root_system")
    strata = None
    if "strata" in obj:
        from .qrverify import parse_strata

        strata = parse_strata(obj["strata"], location="strata")
    metadata: dict[str, str] = {}
    if "metadata" in obj:
        if not isinstance(obj["metadata"], dict):
            raise DatasetError("metadata must be an object", location="metadata")
        for k, v in obj["metadata"].items():
            if not isinstance(v, str):
                raise DatasetError(
                    f"metadata values must be strings, got {v!r}",
                    location=f"metadata.{k}",
                )
            metadata[k] = v
    return LocalizationDataset(rank, points, rs, strata, metadata)


def load_dataset_file(path) -> LocalizationDataset:
    with open(path, "r", encoding="utf-8") as fh:
        return load_dataset(fh.read())


def _weight_json(v: WeightVector) -> list[int]:
    return [int(c) for c in v.coords]


def serialize_dataset(ds: LocalizationDataset) -> str:
    """Canonical document text; load_dataset of the result round-trips."""
    doc: dict[str, Any] = {"rank": ds.rank}
    doc["fixed_points"] = [
        {
            "label": fp.label,
            "fiber_weight": _weight_json(fp.fiber_weight),
            "normal_weights": [_weight_json(a) for a in fp.normal_weights],
            "coefficient": [str(c) for c in (fp.coefficient or (Fraction(0),))],
        }
        for fp in ds.fixed_points
    ]
    if ds.root_system is not None:
        doc["root_system"] = {
            "simple_roots": [_weight_json(a) for a in ds.root_system.simple_roots],
            "cartan_pairing": [list(row) for row in ds.root_system.cartan_pairing],
        }
    if ds.strata is not None:
        doc["strata"] = [
            {
                "label": s.label,
                "order": s.order,
                "rotation": str(s.rotation),
                "degree_bound": s.degree_bound,
                **(
                    {"expected_poly": poly.to_strings(s.expected_poly)}
                    if s.expected_poly is not None
                    else {}
                ),
            }
            for s in ds.strata
        ]
    if ds.metadata:
        doc["metadata"] = dict(sorted(ds.metadata.items()))
    return json.dumps(doc, indent=2) + "\n"


def validate(ds: LocalizationDataset) -> ValidationReport:
    """Re-check dataset invariants and report warnings for legal but
    suspicious data (duplicate fiber weights)."""
    findings: list[Finding] = []
    if ds.rank < 1:
        findings.append(Finding("error", "rank", "rank must be a positive integer"))
    if not ds.fixed_points:
        findings.append(
            Finding("error", "fixed_points", "dataset has no fixed points")
        )
    for i, fp in enumerate(ds.fixed_points):
        loc = f"fixed_points[{i}]"
        if len(fp.fiber_weight.coords) != ds.rank:
            findings.append(
                Finding(
                    "error",
                    f"{loc}.fiber_weight",
                    f"rank {len(fp.fiber_weight.coords)} weight in a rank "
                    f"{ds.rank} dataset",
                )
            )
        if not fp.fiber_weight.is_integral():
            findings.append(
                Finding("error", f"{loc}.fiber_weight", "not a lattice point")
            )
        for j, a in enumerate(fp.normal_weights):
            if len(a.coords) != ds.rank:
                findings.append(
                    Finding(
                        "error",
                        f"{loc}.normal_weights[{j}]",
                        f"rank {len(a.coords)} weight in a rank {ds.rank} dataset",
                    )
                )
            elif a.is_zero():
                findings.append(
                    Finding("error", f"{loc}.normal_weights[{j}]", "zero normal weight")
                )
    seen: dict[tuple, list[str]] = {}
    for fp in ds.fixed_points:
        seen.setdefault(fp.fiber_weight.coords, []).append(fp.label)
    for coords, labels in sorted(seen.items()):
        if len(labels) > 1:
            findings.append(
                Finding(
                    "warning",
                    "fixed_points",
                    "fiber weight (%s) shared by %s"
                    % (",".join(str(c) for c in coords), ", ".join(labels)),
                )
            )
    return ValidationReport(tuple(findings))
