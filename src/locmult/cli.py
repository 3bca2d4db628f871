"""Command-line surface.

Human output is compact text; `--format records` emits one JSON object
per line with exact-rational strings, sorted keys, and no floats, so
identical invocations are byte-identical.  Every failure path prints
one line `error: <code>: <message>` to stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import poly
from .ehrhart import fit_quasi_polynomial, phase_decomposition
from .errors import LocmultError
from .fpdata import (
    load_character_file,
    load_dataset_file,
    load_root_system_file,
    load_strata_file,
    parse_root_system,
    validate,
)
from .lattice import WeightVector, rational_from_text
from .localize import (
    CharacterTable,
    character_table,
    multiplicity,
    multiplicity_series,
)
from .oracle import ProjectiveActionSpec, monomial_character
from .qrverify import StructureViolated, verify_structure
from .weylred import decompose_character


def _parse_rationals(text: str, what: str) -> tuple[Fraction, ...]:
    """Comma-separated integers or p/q rationals: no decimals, no floats."""
    values = tuple(rational_from_text(p.strip()) for p in text.split(","))
    if None not in values:
        return values
    raise LocmultError(
        f"malformed {what} {text!r}; expected comma-separated integers "
        f"or p/q rationals",
        code="bad-flag",
    )


def _parse_vector(text: str, what: str) -> WeightVector:
    return WeightVector(_parse_rationals(text, what))


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer_flag(flag: str):
    """argparse type for an integer flag; anything else is a bad-flag
    error, which main reports as one coded line."""

    def parse(text: str) -> int:
        if not _INTEGER.fullmatch(text):
            raise LocmultError(
                f"malformed {flag} {text!r}; expected an integer", code="bad-flag"
            )
        return int(text)

    return parse


def _parse_range(text: str) -> tuple[int, int]:
    """A..B with integer ends, in the grammar of the integer flags."""
    parts = text.split("..")
    if len(parts) != 2 or not all(_INTEGER.fullmatch(p) for p in parts):
        raise LocmultError(
            f"malformed range {text!r}; expected A..B", code="bad-flag"
        )
    return int(parts[0]), int(parts[1])


def _parse_coord_weights(text: str) -> tuple[WeightVector, ...]:
    return tuple(
        _parse_vector(part, "coordinate weight") for part in text.split(";")
    )


def _coord_json(c: int | Fraction):
    return c if isinstance(c, int) else str(c)


def _weight_json(w: WeightVector) -> list:
    return [_coord_json(c) for c in w.coords]


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _emit(*records):
    """Each record as one JSON line, all in one write."""
    sys.stdout.write("".join(_ENCODER.encode(r) + "\n" for r in records))


def _eta(args):
    if getattr(args, "eta", None):
        return _parse_vector(args.eta, "eta")
    return None


def cmd_validate(args) -> int:
    ds = load_dataset_file(args.dataset)
    report = validate(ds)
    if args.format == "records":
        for f in report.findings:
            _emit(
                {
                    "record": "finding",
                    "severity": f.severity,
                    "location": f.location,
                    "message": f.message,
                }
            )
        _emit(
            {
                "record": "validation",
                "ok": report.ok,
                "rank": ds.rank,
                "fixed_points": len(ds.fixed_points),
            }
        )
    else:
        for f in report.findings:
            print(f"{f.severity}: {f.location}: {f.message}")
        status = "ok" if report.ok else "invalid"
        print(f"{status}: rank {ds.rank}, {len(ds.fixed_points)} fixed points")
    return 0 if report.ok else 1


def cmd_mult(args) -> int:
    ds = load_dataset_file(args.dataset)
    mu = _parse_vector(args.mu, "mu")
    value = multiplicity(ds, mu, args.m, _eta(args))
    if args.format == "records":
        _emit(
            {
                "record": "multiplicity",
                "weight": _weight_json(mu),
                "m": args.m,
                "value": value,
            }
        )
    else:
        print(value)
    return 0


def cmd_character(args) -> int:
    ds = load_dataset_file(args.dataset)
    table = character_table(ds, args.m, _eta(args))
    if args.format == "records":
        _emit(
            *({"record": "character-entry", "m": args.m,
               "weight": _weight_json(w), "multiplicity": n}
              for w, n in table.items()),
            {"record": "character-total", "m": args.m, "dimension": table.total()},
        )
    else:
        for w, n in table.items():
            print(f"{w}\t{n}")
    return 0


def cmd_series(args) -> int:
    ds = load_dataset_file(args.dataset)
    mu = _parse_vector(args.mu, "mu")
    m_from, m_to = _parse_range(args.m_range)
    series = multiplicity_series(ds, mu, m_from, m_to, args.mode, _eta(args))
    if args.format == "records":
        for m, v in series:
            _emit(
                {
                    "record": "series-point",
                    "weight": _weight_json(mu),
                    "mode": args.mode,
                    "m": m,
                    "value": v,
                }
            )
    else:
        print(",".join(str(v) for _, v in series))
    return 0


def _fit_samples(args):
    if args.series:
        values = _parse_rationals(args.series, "series")
        return list(enumerate(values, start=args.m_from))
    if not (args.dataset and args.mu and args.m_range):
        raise LocmultError(
            "fit needs either --series or --dataset with --mu and --m-range",
            code="bad-flag",
        )
    ds = load_dataset_file(args.dataset)
    mu = _parse_vector(args.mu, "mu")
    m_from, m_to = _parse_range(args.m_range)
    return multiplicity_series(ds, mu, m_from, m_to, args.mode, _eta(args))


def _print_fit(args, qp, header=None):
    if args.format == "records":
        if header:
            _emit(header)
        _emit(
            {
                "record": "quasi-polynomial",
                "period": qp.period,
                "degree": qp.degree,
            }
        )
        for j, q in enumerate(qp.residue_polys):
            _emit(
                {
                    "record": "residue-poly",
                    "class": j,
                    "coefficients": poly.to_strings(q),
                }
            )
        if qp.period <= 2:
            for phase, p in phase_decomposition(qp):
                _emit(
                    {
                        "record": "phase-poly",
                        "phase": phase,
                        "coefficients": poly.to_strings(p),
                    }
                )
    else:
        print(f"period: {qp.period}")
        for j, q in enumerate(qp.residue_polys):
            print(f"class {j}: {poly.render(q, 'n')}")
        if qp.period <= 2:
            for phase, p in phase_decomposition(qp):
                label = "+1" if phase == 1 else "-1"
                print(f"phase {label}: {poly.render(p, 'm')}")


def cmd_fit(args) -> int:
    samples = _fit_samples(args)
    qp = fit_quasi_polynomial(samples, args.period, args.degree)
    _print_fit(args, qp)
    return 0


def _resolve_strata(args, ds):
    if args.strata:
        return load_strata_file(args.strata)
    if ds.strata is not None:
        return ds.strata
    raise LocmultError(
        "no strata declared: pass --strata or add a strata block to the dataset",
        code="missing-strata",
    )


def cmd_verify_qr(args) -> int:
    ds = load_dataset_file(args.dataset)
    mu = _parse_vector(args.mu, "mu")
    strata = _resolve_strata(args, ds)
    try:
        report = verify_structure(ds, mu, strata, args.m_max, args.mode, _eta(args))
    except StructureViolated as exc:
        witness = ",".join(str(m) for m in exc.witnesses)
        raise StructureViolated(
            f"{exc} (witnesses m={witness})" if witness else str(exc)
        ) from None
    ok = report.phases_ok
    if args.format == "records":
        _emit(
            {
                "record": "qr-verdict",
                "ok": ok,
                "onset": report.onset,
                "period": report.period_used,
                "minimal_period": report.minimal_period_found,
            }
        )
        _print_fit(args, report.fitted)
        for c in report.phase_checks:
            _emit(
                {
                    "record": "phase-check",
                    "phase": c.phase,
                    "degree": poly.degree(c.fitted),
                    "declared_bound": c.declared_bound,
                    "ok": c.ok,
                }
            )
        for c in report.expected_comparisons:
            _emit(
                {
                    "record": "phase-expected",
                    "phase": c.phase,
                    "labels": list(c.labels),
                    "expected": None if c.expected is None else poly.to_strings(c.expected),
                    "fitted": poly.to_strings(c.fitted),
                    "equal": c.equal,
                }
            )
    else:
        print(f"onset: {report.onset}")
        print(f"period: {report.period_used}")
        diag = report.minimal_period_found
        print(f"minimal period: {'unknown' if diag is None else diag}")
        _print_fit(args, report.fitted)
        for c in report.phase_checks:
            label = "+1" if c.phase == 1 else "-1"
            if c.declared_bound is None:
                verdict = "ok" if c.ok else "undeclared nonzero phase"
                print(f"check phase {label}: {verdict}")
            else:
                verdict = "ok" if c.ok else "degree exceeds bound"
                print(
                    f"check phase {label}: degree {poly.degree(c.fitted)} "
                    f"<= {c.declared_bound}: {verdict}"
                )
        for c in report.expected_comparisons:
            label = "+1" if c.phase == 1 else "-1"
            if c.equal is None:
                print(f"expected phase {label}: not declared")
            else:
                print(f"expected phase {label}: {'match' if c.equal else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_oracle_check(args) -> int:
    ds = load_dataset_file(args.dataset)
    if args.coord_weights:
        weights = _parse_coord_weights(args.coord_weights)
    elif "coord_weights" in ds.metadata:
        weights = _parse_coord_weights(ds.metadata["coord_weights"])
    else:
        raise LocmultError(
            "no coordinate weights: pass --coord-weights or add a "
            "coord_weights metadata entry",
            code="missing-coord-weights",
        )
    if any(w.rank != ds.rank for w in weights):
        raise LocmultError(
            f"coordinate weights must have the dataset rank {ds.rank}",
            code="rank-mismatch",
        )
    if args.m_max < 1:
        print("warning: m_max < 1 makes the check vacuous", file=sys.stderr)
        return 0
    eta = _eta(args)
    for m in range(1, args.m_max + 1):
        table = character_table(ds, m, eta)
        expected = monomial_character(ProjectiveActionSpec(weights, m))
        if table == expected:
            if args.format == "records":
                _emit({"record": "oracle-check", "m": m, "ok": True,
                       "dimension": table.total()})
            else:
                print(f"m={m}: ok ({table.total()} sections)")
            continue
        support = sorted(
            set(table.support()) | set(expected.support()), key=lambda w: w.coords
        )
        bad = next(w for w in support if table[w] != expected[w])
        if args.format == "records":
            _emit(
                {
                    "record": "oracle-mismatch",
                    "m": m,
                    "weight": _weight_json(bad),
                    "dataset": table[bad],
                    "oracle": expected[bad],
                }
            )
        else:
            print(
                f"m={m}: mismatch at weight ({bad}): dataset {table[bad]}, "
                f"oracle {expected[bad]}"
            )
        return 1
    return 0


def cmd_weyl_decompose(args) -> int:
    entries, embedded_rs = load_character_file(args.character)
    chi = CharacterTable(entries)
    if args.root_system:
        rs = load_root_system_file(args.root_system)
    elif args.dataset:
        ds = load_dataset_file(args.dataset)
        if ds.root_system is None:
            raise LocmultError(
                "dataset carries no root system", code="missing-root-system"
            )
        rs = ds.root_system
    elif embedded_rs is not None:
        rs = parse_root_system(embedded_rs, None, str(args.character))
    else:
        raise LocmultError(
            "no root system: pass --root-system, --dataset, or embed one in "
            "the character file",
            code="missing-root-system",
        )
    result = decompose_character(chi, rs)
    if args.format == "records":
        for lam in sorted(result.multiplicities, key=lambda w: w.coords):
            _emit(
                {
                    "record": "irreducible-multiplicity",
                    "weight": _weight_json(lam),
                    "value": result.multiplicities[lam],
                }
            )
        _emit(
            {
                "record": "decomposition",
                "ok": result.ok,
                "w_invariant": result.w_invariant,
                "residual_size": len(result.residual),
            }
        )
    else:
        for lam in sorted(result.multiplicities, key=lambda w: w.coords):
            print(f"{lam}\t{result.multiplicities[lam]}")
        if not result.w_invariant:
            print("warning: character is not Weyl invariant")
        if result.residual:
            for w, n in result.residual.items():
                print(f"residual {w}\t{n}")
    return 0 if result.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process and shared by every call: do not change it."""
    parser = argparse.ArgumentParser(
        prog="locmult",
        description="Exact multiplicities and characters from fixed-point data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, **flags):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if flags.get("dataset"):
            p.add_argument(
                "--dataset", required=flags["dataset"] == "required", help="dataset JSON path"
            )
        if flags.get("mu"):
            p.add_argument("--mu", required=flags["mu"] == "required",
                           help="weight, comma-separated rationals")
        if flags.get("m"):
            p.add_argument("--m", type=_integer_flag("--m"), required=True,
                           help="power m")
        if flags.get("m_range"):
            p.add_argument("--m-range", dest="m_range",
                           required=flags["m_range"] == "required", help="range A..B")
        if flags.get("m_max"):
            p.add_argument("--m-max", dest="m_max", type=_integer_flag("--m-max"),
                           required=True, help="largest power to test")
        if flags.get("mode"):
            p.add_argument("--mode", choices=("fixed", "scaled"), default="scaled",
                           help="weight handling: fixed mu or scaled m*mu")
        if flags.get("eta"):
            p.add_argument("--eta", help="chamber override, comma-separated rationals")
        p.add_argument("--format", choices=("human", "records"), default="human",
                       help="output format")
        return p

    add("validate", cmd_validate, "check a dataset document", dataset="required")
    add("mult", cmd_mult, "one multiplicity", dataset="required", mu="required",
        m=True, eta=True)
    add("character", cmd_character, "full character table", dataset="required",
        m=True, eta=True)
    add("series", cmd_series, "multiplicity series over a power range",
        dataset="required", mu="required", m_range="required", mode=True, eta=True)

    p_fit = add("fit", cmd_fit, "fit an arithmetic polynomial",
                dataset="optional", mu="optional", m_range="optional", mode=True,
                eta=True)
    p_fit.add_argument("--series", help="comma-separated values, overrides --dataset")
    p_fit.add_argument("--m-from", dest="m_from", type=_integer_flag("--m-from"),
                       default=1, help="m of the first --series value")
    p_fit.add_argument("--period", type=_integer_flag("--period"), required=True)
    p_fit.add_argument("--degree", type=_integer_flag("--degree"), required=True)

    p_vqr = add("verify-qr", cmd_verify_qr, "verify arithmetic-polynomial structure",
                dataset="required", mu="required", m_max=True, mode=True, eta=True)
    p_vqr.add_argument("--strata", help="strata JSON path (default: dataset block)")

    p_oc = add("oracle-check", cmd_oracle_check,
               "compare against the monomial oracle", dataset="required",
               m_max=True, eta=True)
    p_oc.add_argument("--coord-weights", dest="coord_weights",
                      help="semicolon-separated coordinate weights, e.g. '1;-1;0'")

    p_wd = add("weyl-decompose", cmd_weyl_decompose,
               "decompose a character into irreducibles", dataset="optional")
    p_wd.add_argument("--character", required=True, help="character JSON path")
    p_wd.add_argument("--root-system", dest="root_system",
                      help="root system JSON path")

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """`--flag -1,0` as `--flag=-1,0`: argparse takes a separate token
    that starts with '-' for an option unless it is a bare number, and
    no option of this parser starts with '-' and a digit."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and re.match(r"-[0-9]", token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except LocmultError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
