"""The input documents and the data model they load into; no other
module reads an outside document.  There are four: a dataset, a strata
file (a dataset's strata block, bare or under a `strata` key), a
root-system file (one root_system block) and a character file
((weight, multiplicity) entries, optionally with a root_system block).

A dataset lists the isolated fixed points of a torus action together
with, per point, the fiber weight of the quantizing line bundle and the
normal weights of the action, all lattice points.  Weights are recorded
in the convention under which the character of the m-th power sums
t^(m*fiber) / prod_j (1 - t^(-alpha_j)) over the fixed points; the
monomial oracle in `oracle` pins this convention down operationally.

A dataset is valid by construction.  The parsers read the JSON shape,
the places and each coordinate's int type once, in one pass per
weight, and spell a place out only on refusal; the constructors own
the lattice, zero and rank rules, each one pass over the int tuples,
and refuse with the loader's code, message and place, so `validate`
only warns.

Documents are strict JSON with no floating point literals anywhere.
Rationals are written as "p/q" strings (bare integers are accepted on
input); serialization always emits the canonical string form.  A file
that cannot be read is an `io-error`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Any, Mapping

from . import poly
from .errors import LocmultError
from .lattice import (
    RootSystem, WeightVector, _instance, _integer, _ints, generate_weyl_group,
    rational_from_text,
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class DatasetError(LocmultError):
    code = "schema-violation"

    def __init__(self, message, *, code=None, location=None):
        if location:
            message = f"{location}: {message}"
        super().__init__(message, code=code)
        self.location = location


class BadStratum(DatasetError):
    code = "bad-stratum"


def _check_label(label):
    if not isinstance(label, str) or not label:
        raise DatasetError("label must be a nonempty string")


_ONE = (Fraction(1),)  # the default coefficient, already normalized


@dataclass(frozen=True)
class FixedPointDatum:
    """One isolated fixed point: a nonempty string label, lattice-point
    fiber and normal weights, and an optional polynomial coefficient in
    the power m (constant first)."""

    label: str
    fiber_weight: WeightVector
    normal_weights: tuple[WeightVector, ...]
    coefficient: tuple[Fraction, ...] = _ONE

    def __post_init__(self):
        _check_label(self.label)
        try:
            object.__setattr__(self, "normal_weights", tuple(self.normal_weights))
        except TypeError:
            raise DatasetError(f"normal_weights of {self.label!r} must be a list, "
                               f"got {type(self.normal_weights).__name__}") from None
        if self.coefficient is not _ONE:
            object.__setattr__(self, "coefficient", poly.normalize(self.coefficient))
        for w in (self.fiber_weight, *self.normal_weights):
            if not isinstance(w, WeightVector):
                raise DatasetError(f"weight {w!r} of {self.label!r} is not a WeightVector")
            if not w.is_integral():
                raise DatasetError(
                    f"weight {w} of {self.label!r} is not a lattice point",
                    code="non-integer-weight",
                )
        for a in self.normal_weights:
            # one of another rank than the fiber is the dataset's rank mismatch
            if a.is_zero() and len(a.coords) == len(self.fiber_weight.coords):
                raise DatasetError(
                    f"fixed point {self.label!r} has a zero normal weight",
                    code="zero-normal-weight",
                )


@dataclass(frozen=True)
class StratumPhaseDatum:
    """Declared orbifold stratum: a nonempty string label, stabilizer
    order, phase rotation, and the degree cap (half the stratum
    dimension) for its polynomial."""

    label: str
    order: int
    rotation: Fraction
    degree_bound: int
    expected_poly: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        _check_label(self.label)
        where = f"stratum {self.label!r}"
        _integer(self.order, f"{where}: order", "bad-stratum", 1, BadStratum)
        _integer(self.degree_bound, f"{where}: degree_bound", "bad-stratum", 0, BadStratum)
        rot = poly._exact(self.rotation)
        object.__setattr__(self, "rotation", rot)
        if not 0 <= rot < 1:
            raise BadStratum(f"{where}: rotation must lie in [0,1)")
        if (rot * self.order).denominator != 1:
            raise BadStratum(
                f"{where}: rotation {rot} is not an order-{self.order} root of unity"
            )
        if self.expected_poly is not None:
            object.__setattr__(
                self, "expected_poly", poly.normalize(self.expected_poly)
            )


def _items(values, name: str, kind: type, location=None, error=DatasetError) -> tuple:
    """The field `name` as a nonempty tuple of kind, else error; location
    is where the loader places an empty list."""
    items = tuple(values) if isinstance(values, (list, tuple)) else ()
    if not items:
        raise error(f"{name} must be a nonempty list", location=location)
    for i, x in enumerate(items):
        if not isinstance(x, kind):
            raise error(f"{x!r} is not a {kind.__name__}", location=f"{name}[{i}]")
    return items


def strata_items(strata, location="strata") -> tuple[StratumPhaseDatum, ...]:
    """strata as a nonempty list or tuple of StratumPhaseDatum, else
    bad-stratum: the one strata rule of a dataset, a strata document and
    `verify_structure`; location is where an empty list is placed."""
    return _items(strata, "strata", StratumPhaseDatum, location, BadStratum)


def _rank_error(w: WeightVector, rank: int, location: str) -> DatasetError:
    return DatasetError(f"weight has {len(w.coords)} coordinates, dataset rank is {rank}",
                        code="rank-mismatch", location=location)


@dataclass(frozen=True)
class LocalizationDataset:
    """Fixed points whose weights, like the simple roots, have the
    dataset's positive int rank; nonempty strata when given; string
    metadata.  A refusal names its place as the document does."""

    rank: int
    fixed_points: tuple[FixedPointDatum, ...]
    root_system: RootSystem | None = None
    strata: tuple[StratumPhaseDatum, ...] | None = None
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        rank = _expect_int(self.rank, "rank")
        if rank < 1:
            raise DatasetError("rank must be a positive integer", location="rank")
        points = _items(self.fixed_points, "fixed_points", FixedPointDatum)
        object.__setattr__(self, "fixed_points", points)
        # a place is spelled out only on refusal; an equal weight before the
        # refused one would have been refused first, so index finds its place
        for i, fp in enumerate(points):
            if len(fp.fiber_weight.coords) != rank:
                raise _rank_error(fp.fiber_weight, rank, f"fixed_points[{i}].fiber_weight")
            for a in fp.normal_weights:
                if len(a.coords) != rank:
                    j = fp.normal_weights.index(a)
                    raise _rank_error(a, rank, f"fixed_points[{i}].normal_weights[{j}]")
        if self.root_system is not None:
            for j, a in enumerate(self.root_system.simple_roots):
                if len(a.coords) != rank:
                    raise _rank_error(a, rank, f"root_system.simple_roots[{j}]")
        if self.strata is not None:
            object.__setattr__(self, "strata", strata_items(self.strata))
        if not hasattr(self.metadata, "items"):
            raise DatasetError("metadata must be an object", location="metadata")
        for k, v in self.metadata.items():
            if not isinstance(k, str):
                raise DatasetError(f"metadata keys must be strings, got {k!r}",
                                   location="metadata")
            if not isinstance(v, str):
                raise DatasetError(f"metadata values must be strings, got {v!r}",
                                   location=f"metadata.{k}")
        object.__setattr__(self, "metadata", dict(self.metadata))

    def all_normal_weights(self) -> tuple[WeightVector, ...]:
        """Each distinct normal weight once, in order of first occurrence,
        told apart by its coordinates."""
        return tuple({a.coords: a for fp in self.fixed_points
                      for a in fp.normal_weights}.values())

    @cached_property
    def plan(self) -> dict:
        """Room for what `localize` derives from the dataset alone: the
        generic direction, the polarization per eta and the deepest
        expansion per column multiset, filled as calls ask for them and
        kept with the dataset for its lifetime, as a root system keeps
        its Kostant partition function."""
        return {}


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


def _read_text(path, what: str) -> str:
    """The text of a file named by path; an int is refused (by
    `os.fspath`) rather than read, and closed, as a file descriptor."""
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError, TypeError) as exc:
        raise LocmultError(
            f"cannot read {what} {path}: {exc}", code="io-error"
        ) from None


def _reject_float(text):
    raise DatasetError(
        f"floating point literal {text!r} is not accepted; use 'p/q' strings"
    )


# built once: json.loads builds a JSONDecoder for every document it is
# given keyword arguments for
_DECODER = json.JSONDecoder(parse_float=_reject_float, parse_constant=_reject_float)


def _parse_json(text: str | bytes, what: str, location=None):
    """Strict JSON: float, NaN and Infinity literals are schema violations.
    The text is read as `json.loads` reads it: bytes in their detected
    encoding, and a str that opens with a byte order mark refused."""
    try:
        if not isinstance(text, str):
            text = text.decode(json.detect_encoding(text), "surrogatepass")
        elif text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                                       text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"malformed {what}: {exc.msg}", location=location) from None


def _expect_int(value, location) -> int:
    if not _is_int(value):
        raise DatasetError(
            f"expected an integer, got {value!r}",
            code="non-integer-weight",
            location=location,
        )
    return value


def _place(where, key, index) -> str:
    """where.key[index], as much of it as is given."""
    if key is not None:
        where = f"{where}.{key}"
    return where if index is None else f"{where}[{index}]"


def _int_tuple(values: list, where, key=None, index=None) -> tuple[int, ...]:
    """A list of ints as a tuple, accepted in one pass over its entries;
    the place where.key[index] of an entry is spelled out only on
    refusal."""
    if not _ints(values):
        location = _place(where, key, index)
        for i, x in enumerate(values):
            if not _is_int(x):
                _expect_int(x, f"{location}[{i}]")
    return tuple(values)


def _parse_weight(value, where, key=None, index=None) -> WeightVector:
    """value, a list of ints, at where.key[index], as a WeightVector."""
    if not isinstance(value, list):
        raise DatasetError(f"expected a coordinate list, got {value!r}",
                           location=_place(where, key, index))
    return WeightVector(_int_tuple(value, where, key, index))


def parse_rational(value, location) -> Fraction:
    if _is_int(value):
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


def _check_labelled(obj, what, required, optional, location):
    """The shape shared by fixed points and strata, in this order: an
    object, no unknown field, every required field."""
    if not isinstance(obj, dict):
        raise DatasetError(f"{what} must be an object", location=location)
    _check_keys(obj, required + optional, location)
    for key in required:
        if key not in obj:
            raise DatasetError(f"missing field {key!r}", location=location)


def _parse_fixed_point(obj, location) -> FixedPointDatum:
    _check_labelled(
        obj, "fixed point", ("label", "fiber_weight", "normal_weights"),
        ("coefficient",), location,
    )
    fiber = _parse_weight(obj["fiber_weight"], location, "fiber_weight")
    if not isinstance(obj["normal_weights"], list):
        raise DatasetError("normal_weights must be a list", location=location)
    normals = [_parse_weight(w, location, "normal_weights", i)
               for i, w in enumerate(obj["normal_weights"])]
    coeff = _ONE
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


def parse_strata(raw, location="strata") -> tuple[StratumPhaseDatum, ...]:
    """Parse the JSON strata block of a dataset or strata file."""
    out = []
    for i, obj in enumerate(raw if isinstance(raw, list) else ()):
        loc = f"{location}[{i}]"
        _check_labelled(
            obj, "stratum", ("label", "order", "rotation", "degree_bound"),
            ("expected_poly",), loc,
        )
        rotation = parse_rational(obj["rotation"], f"{loc}.rotation")
        expected = None
        if "expected_poly" in obj:
            if not isinstance(obj["expected_poly"], list):
                raise DatasetError("expected_poly must be a list", location=loc)
            expected = tuple(
                parse_rational(c, f"{loc}.expected_poly[{k}]")
                for k, c in enumerate(obj["expected_poly"])
            )
        try:
            out.append(
                StratumPhaseDatum(
                    obj["label"], obj["order"], rotation, obj["degree_bound"], expected
                )
            )
        except DatasetError as exc:
            raise DatasetError(str(exc), code=exc.code, location=loc) from None
    return strata_items(out, location)


def parse_root_system(obj, rank, location) -> RootSystem:
    """Root system block; a rank of None is read off the first simple root."""
    if not isinstance(obj, dict):
        raise DatasetError("root_system must be an object", location=location)
    _check_keys(obj, ("simple_roots", "cartan_pairing"), location)
    for key in ("simple_roots", "cartan_pairing"):
        if key not in obj or not isinstance(obj[key], list):
            raise DatasetError(f"missing or malformed {key!r}", location=location)
    roots = []
    for i, r in enumerate(obj["simple_roots"]):
        loc = f"{location}.simple_roots[{i}]"
        root = _parse_weight(r, loc)
        rank = len(root.coords) if rank is None else rank
        if len(root.coords) != rank:
            raise _rank_error(root, rank, loc)
        roots.append(root)
    table = []
    for i, row in enumerate(obj["cartan_pairing"]):
        loc = f"{location}.cartan_pairing[{i}]"
        if not isinstance(row, list):
            raise DatasetError("cartan_pairing rows must be lists", location=loc)
        table.append(_int_tuple(row, loc))
    try:
        return generate_weyl_group(roots, table)
    except LocmultError as exc:
        code = exc.code
        if code != "non-orthogonal-root-system":  # a valid group keeps its code
            code = "root-system-invalid"
        raise DatasetError(str(exc), code=code, location=location) from None


def load_dataset(text: str) -> LocalizationDataset:
    """Parse a dataset document: the JSON shape and the places are read
    here, and LocalizationDataset checks the rest."""
    _instance(text, (str, bytes, bytearray), "schema-violation", DatasetError, "document")
    obj = _parse_json(text, "document")
    if not isinstance(obj, dict):
        raise DatasetError("document root must be an object")
    _check_keys(
        obj, ("rank", "fixed_points", "root_system", "strata", "metadata"), "document"
    )
    if "rank" not in obj:
        raise DatasetError("missing field 'rank'")
    if not isinstance(obj.get("fixed_points"), list):
        raise DatasetError("fixed_points must be a nonempty list")
    points = tuple(
        _parse_fixed_point(fp, f"fixed_points[{i}]")
        for i, fp in enumerate(obj["fixed_points"])
    )
    strata = None
    if "strata" in obj:
        strata = parse_strata(obj["strata"], location="strata")
    ds = LocalizationDataset(obj["rank"], points, None, strata, obj.get("metadata", {}))
    if "root_system" not in obj:
        return ds
    # read at the dataset's rank, so a root of another rank is the one named
    return replace(ds, root_system=parse_root_system(obj["root_system"], ds.rank,
                                                     "root_system"))


def load_dataset_file(path) -> LocalizationDataset:
    return load_dataset(_read_text(path, "dataset"))


def load_strata_file(path) -> tuple[StratumPhaseDatum, ...]:
    """A strata file: the bare strata array or an object with a `strata` key."""
    doc = _parse_json(_read_text(path, "strata file"), "strata file", str(path))
    if isinstance(doc, dict) and "strata" in doc:
        doc = doc["strata"]
    return parse_strata(doc, location=str(path))


def load_root_system_file(path) -> RootSystem:
    """A root-system file; the rank is read off the first simple root."""
    what = "root system file"
    doc = _parse_json(_read_text(path, what), what, str(path))
    return parse_root_system(doc, None, str(path))


def load_character_file(path) -> tuple[list[tuple[WeightVector, int]], Any]:
    """A character file: its (weight, multiplicity) entries and its raw
    root_system block, None when there is none, for parse_root_system."""
    doc = _parse_json(_read_text(path, "character file"), "character file", str(path))
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise DatasetError(
            "character file must be an object with an 'entries' list",
            location=str(path),
        )
    entries = []
    for i, e in enumerate(doc["entries"]):
        loc = f"entries[{i}]"
        if not isinstance(e, dict) or "weight" not in e or "multiplicity" not in e:
            raise DatasetError("entry needs 'weight' and 'multiplicity'", location=loc)
        if not _is_int(e["multiplicity"]):
            raise DatasetError("multiplicity must be an integer", location=loc)
        if not isinstance(e["weight"], list) or not all(map(_is_int, e["weight"])):
            raise DatasetError("weight must be a list of integers", location=loc)
        entries.append((WeightVector(tuple(e["weight"])), e["multiplicity"]))
    return entries, doc.get("root_system")


def serialize_dataset(ds: LocalizationDataset) -> str:
    """Canonical document text; load_dataset of the result round-trips
    for every dataset, since every rule of a document is one that the
    dataset constructors keep."""
    _instance(ds, LocalizationDataset, "not-a-dataset", DatasetError)
    doc: dict[str, Any] = {"rank": ds.rank}
    doc["fixed_points"] = [
        {
            "label": fp.label,
            "fiber_weight": list(fp.fiber_weight.coords),
            "normal_weights": [list(a.coords) for a in fp.normal_weights],
            "coefficient": [str(c) for c in (fp.coefficient or (Fraction(0),))],
        }
        for fp in ds.fixed_points
    ]
    if ds.root_system is not None:
        doc["root_system"] = {
            "simple_roots": [list(a.coords) for a in ds.root_system.simple_roots],
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
    """Warnings for legal but suspicious data: a fiber weight shared by
    several fixed points.  A dataset is valid by construction, so no
    finding is an error."""
    _instance(ds, LocalizationDataset, "not-a-dataset", DatasetError)
    seen: dict[tuple, list[str]] = {}
    for fp in ds.fixed_points:
        seen.setdefault(fp.fiber_weight.coords, []).append(fp.label)
    return ValidationReport(tuple(
        Finding("warning", "fixed_points",
                f"fiber weight ({','.join(map(str, coords))}) shared by "
                f"{', '.join(labels)}")
        for coords, labels in sorted(seen.items()) if len(labels) > 1))
