"""Command-line surface.

`main` parses a command's flags with that command's parser alone.  Each
command appends its results once to one output list: a record dict per
result, the character table's sorted entries as one (m, entries) item,
and a plain string for the few lines only human output has.  `main`
renders the list in one write by `--format`, after the command returns
or raises, so the lines of the powers checked before a failure are kept.
`records` writes each record as one JSON line with exact-rational
strings, sorted keys, and no floats, so identical invocations are
byte-identical: a dict from one JSON encoder built once per process, a
table entry from one line format; human output is a dict's line by its
record type and "weight<TAB>multiplicity" per entry.  Every failure path
prints one line `error: <code>: <message>` to stderr and exits nonzero.
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
_NEGATIVE = re.compile(r"-[0-9]")


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


def _weight_json(w: WeightVector) -> list:
    return [c if type(c) is int else str(c) for c in w.coords]


# json.dumps(r, sort_keys=True, separators=(",", ":")) as chunks, built
# once: JSONEncoder.encode builds this C encoder again for every record
_ENCODE = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", True, False, True)


def _eta(args):
    if getattr(args, "eta", None):
        return _parse_vector(args.eta, "eta")
    return None


def cmd_validate(args, out) -> int:
    ds = load_dataset_file(args.dataset)
    report = validate(ds)
    for f in report.findings:
        out.append({"record": "finding", "severity": f.severity,
                    "location": f.location, "message": f.message})
    out.append({"record": "validation", "ok": report.ok, "rank": ds.rank,
                "fixed_points": len(ds.fixed_points)})
    return 0 if report.ok else 1


def cmd_mult(args, out) -> int:
    ds = load_dataset_file(args.dataset)
    mu = _parse_vector(args.mu, "mu")
    out.append({"record": "multiplicity", "weight": _weight_json(mu), "m": args.m,
                "value": multiplicity(ds, mu, args.m, _eta(args))})
    return 0


def cmd_character(args, out) -> int:
    ds = load_dataset_file(args.dataset)
    table = character_table(ds, args.m, _eta(args))
    out.append((args.m, sorted(table._table.items())))
    out.append({"record": "character-total", "m": args.m,
                "dimension": table.total()})
    return 0


def _series(args):
    """--mu and the multiplicity series of --dataset over --m-range."""
    ds = load_dataset_file(args.dataset)
    mu = _parse_vector(args.mu, "mu")
    m_from, m_to = _parse_range(args.m_range)
    return mu, multiplicity_series(ds, mu, m_from, m_to, args.mode, _eta(args))


def cmd_series(args, out) -> int:
    mu, series = _series(args)
    for m, v in series:
        out.append({"record": "series-point", "weight": _weight_json(mu),
                    "mode": args.mode, "m": m, "value": v})
    out.append(",".join(str(v) for _, v in series))
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
    return _series(args)[1]


def _fit_records(qp, phases, out):
    """The records of the fit qp and of its (phase, polynomial) pairs."""
    out.append({"record": "quasi-polynomial", "period": qp.period,
                "degree": qp.degree})
    for j, q in enumerate(qp.residue_polys):
        out.append({"record": "residue-poly", "class": j,
                    "coefficients": poly.to_strings(q)})
    for phase, p in phases:
        out.append({"record": "phase-poly", "phase": phase,
                    "coefficients": poly.to_strings(p)})


def cmd_fit(args, out) -> int:
    qp = fit_quasi_polynomial(_fit_samples(args), args.period, args.degree)
    _fit_records(qp, phase_decomposition(qp) if qp.period <= 2 else (), out)
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


def cmd_verify_qr(args, out) -> int:
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
    out.append({"record": "qr-verdict", "ok": report.phases_ok,
                "onset": report.onset, "period": report.period_used,
                "minimal_period": report.minimal_period_found})
    _fit_records(report.fitted, report.phase_polys.items(), out)
    for c in report.phase_checks:
        out.append({"record": "phase-check", "phase": c.phase,
                    "degree": poly.degree(c.fitted),
                    "declared_bound": c.declared_bound, "ok": c.ok})
    for c in report.expected_comparisons:
        out.append({"record": "phase-expected", "phase": c.phase,
                    "labels": list(c.labels),
                    "expected": (None if c.expected is None
                                 else poly.to_strings(c.expected)),
                    "fitted": poly.to_strings(c.fitted), "equal": c.equal})
    return 0 if report.phases_ok else 1


def cmd_oracle_check(args, out) -> int:
    ds = load_dataset_file(args.dataset)
    text = args.coord_weights or ds.metadata.get("coord_weights")
    if text is None:
        raise LocmultError(
            "no coordinate weights: pass --coord-weights or add a "
            "coord_weights metadata entry",
            code="missing-coord-weights",
        )
    weights = [_parse_vector(part, "coordinate weight") for part in text.split(";")]
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
        if table != expected:
            bad = min((table - expected)._table)
            out.append({"record": "oracle-mismatch", "m": m, "weight": list(bad),
                        "dataset": table[bad], "oracle": expected[bad]})
            return 1
        out.append({"record": "oracle-check", "m": m, "ok": True,
                    "dimension": table.total()})
    return 0


def cmd_weyl_decompose(args, out) -> int:
    entries, embedded_rs = load_character_file(args.character)
    chi = CharacterTable(entries)
    if args.root_system:
        rs = load_root_system_file(args.root_system)
    elif args.dataset:
        rs = load_dataset_file(args.dataset).root_system
        if rs is None:
            raise LocmultError(
                "dataset carries no root system", code="missing-root-system"
            )
    elif embedded_rs is not None:
        rs = parse_root_system(embedded_rs, None, str(args.character))
    else:
        raise LocmultError(
            "no root system: pass --root-system, --dataset, or embed one in "
            "the character file",
            code="missing-root-system",
        )
    result = decompose_character(chi, rs)
    for lam, n in sorted(result.multiplicities.items(), key=lambda i: i[0].coords):
        out.append({"record": "irreducible-multiplicity",
                    "weight": _weight_json(lam), "value": n})
    out.append({"record": "decomposition", "ok": result.ok,
                "w_invariant": result.w_invariant,
                "residual_size": len(result.residual)})
    for key, n in sorted(result.residual._table.items()):
        out.append(f"residual {','.join(map(str, key))}\t{n}")
    return 0 if result.ok else 1


def _human_line(r) -> str | None:
    """The human line of a record, by its type; None for no line."""
    match r["record"]:
        case "finding":
            return f"{r['severity']}: {r['location']}: {r['message']}"
        case "validation":
            return (f"{'ok' if r['ok'] else 'invalid'}: rank {r['rank']}, "
                    f"{r['fixed_points']} fixed points")
        case "multiplicity":
            return str(r["value"])
        case "quasi-polynomial":
            return f"period: {r['period']}"
        case "residue-poly":
            return f"class {r['class']}: {poly.render(r['coefficients'], 'n')}"
        case "phase-poly":
            return f"phase {r['phase']:+d}: {poly.render(r['coefficients'], 'm')}"
        case "qr-verdict":
            return (f"onset: {r['onset']}\nperiod: {r['period']}\n"
                    f"minimal period: {r['minimal_period']}")
        case "phase-check" if r["declared_bound"] is None:
            verdict = "ok" if r["ok"] else "undeclared nonzero phase"
            return f"check phase {r['phase']:+d}: {verdict}"
        case "phase-check":
            verdict = "ok" if r["ok"] else "degree exceeds bound"
            return (f"check phase {r['phase']:+d}: degree {r['degree']} <= "
                    f"{r['declared_bound']}: {verdict}")
        case "phase-expected":
            verdict = {None: "not declared", True: "match", False: "MISMATCH"}
            return f"expected phase {r['phase']:+d}: {verdict[r['equal']]}"
        case "oracle-check":
            return f"m={r['m']}: ok ({r['dimension']} sections)"
        case "oracle-mismatch":
            return (f"m={r['m']}: mismatch at weight "
                    f"({','.join(map(str, r['weight']))}): "
                    f"dataset {r['dataset']}, oracle {r['oracle']}")
        case "irreducible-multiplicity":
            return f"{','.join(map(str, r['weight']))}\t{r['value']}"
        case "decomposition" if not r["w_invariant"]:
            return "warning: character is not Weyl invariant"
    # character-total, series-point and an invariant decomposition have none
    return None


def _render(out: list, fmt: str) -> str:
    """records: each record dict as one JSON line, plain strings skipped;
    human: each record's line from its type, plain strings as they are;
    an (m, entries) item: one line per entry, from that format's f-string."""
    records, lines = fmt == "records", []
    for r in out:
        if type(r) is tuple:
            m, entries = r
            lines += [f'{{"m":{m},"multiplicity":{n},"record":"character-entry",'
                      f'"weight":[{",".join(map(str, w))}]}}' if records else
                      f"{','.join(map(str, w))}\t{n}" for w, n in entries]
        elif type(r) is dict:
            lines.append("".join(_ENCODE(r, 0)) if records else _human_line(r))
        elif not records:
            lines.append(r)
    return "".join([line + "\n" for line in lines if line is not None])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process and shared by every call: do not change it."""
    parser = argparse.ArgumentParser(
        prog="locmult",
        description="Exact multiplicities and characters from fixed-point data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, for main

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
                and _NEGATIVE.match(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    out = []
    try:
        sub = build_parser().commands.get(argv[0] if argv else None)
        args, rest = sub.parse_known_args(argv[1:]) if sub else (None, None)
        if args is None or rest:  # no command, or a token left: the top parser reports it
            args = build_parser().parse_args(argv)
        try:
            return args.func(args, out)
        finally:
            sys.stdout.write(_render(out, args.format))
    except LocmultError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
