"""Command line front end.

Subcommands:

    nqforge verify FILE           three-route validity check of a structure
    nqforge to-q FILE             print the differential generated by the data
    nqforge from-q FILE           extract bracket data from a declared field
    nqforge roundtrip FILE        both directions compose to the identity
    nqforge check-morphism FILE   geometric and algebraic morphism conditions

Every subcommand accepts --json for machine-readable output.  verify and
check-morphism also take --max-arity K (K >= 1) to cap the swept arities,
and render the library's rows.
A sweep that passes but stops below the arity its theorem needs (n+2 for the
identity and linearity routes, n+1 for the bracket conditions) has status
"incomplete", and the agreement rows leave it out.  Exit status: 0 when no
check fails, 1 when a check fails (the report then carries a witness), 2 on
unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebroid import (
    LieNAntialgebroid,
    ce_differential,
    consequence_checks,
    extract_algebroid,
    to_algebroid,
    verify_algebroid,
)
from .linfty import transfer_to_antialgebra
from .morphism import build_phi, extract_morphism, verify_morphism
from .outcome import Outcome, timed
from . import io as structio


def _json_safe(value):
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


def _status(outcome):
    """"fail", "pass", or "incomplete": a non-vacuous pass of a sweep that
    stopped below the arity its theorem needs."""
    if not outcome.ok:
        return "fail"
    if outcome.complete or outcome.vacuous:
        return "pass"
    return "incomplete"


class Report:
    """Named Outcome rows, rendered with their status, witness and time."""

    def __init__(self, command, path, rows=()):
        self.command = command
        self.path = path
        self.rows = list(rows)

    def check(self, name, fn):
        self.rows.append((name, timed(fn)))

    @property
    def ok(self):
        return all(outcome.ok for _, outcome in self.rows)

    def render_text(self, out):
        print("%s %s" % (self.command, self.path), file=out)
        for name, outcome in self.rows:
            print("  [%s] %s (%.3fs)" % (_status(outcome).upper(), name, outcome.seconds), file=out)
            if outcome.witness is not None:
                print("         witness: %s" % json.dumps(_json_safe(outcome.witness)), file=out)
        print("result: %s" % ("PASS" if self.ok else "FAIL"), file=out)

    def to_json(self, extra=None):
        checks = []
        for name, outcome in self.rows:
            row = {"name": name, "status": _status(outcome), "seconds": round(outcome.seconds, 6)}
            if outcome.witness is not None:
                row["witness"] = _json_safe(outcome.witness)
            checks.append(row)
        data = {
            "command": self.command,
            "file": self.path,
            "ok": self.ok,
            "checks": checks,
        }
        if extra:
            data.update(extra)
        return data


def _finish(args, report, extra=None, text_body=None):
    if args.json:
        json.dump(report.to_json(extra), sys.stdout, indent=2)
        print()
    else:
        if text_body:
            print(text_body)
        report.render_text(sys.stdout)
    return 0 if report.ok else 1


# ----- verify -----


def cmd_verify(args):
    anti, _ = structio.load_structure(args.file)
    rows = verify_algebroid(anti, args.max_arity).detail
    rows += consequence_checks(anti).detail
    return _finish(args, Report("verify", args.file, rows))


# ----- to-q -----


def cmd_to_q(args):
    anti, _ = structio.load_structure(args.file)
    q = ce_differential(anti)
    report = Report("to-q", args.file)
    terms = structio.q_to_terms(q)
    if args.json:
        return _finish(args, report, extra={"q": terms})
    bundle = anti.bundle
    lines = []
    for name in list(bundle.base_coordinates) + bundle.labels():
        lines.append("Q %s = %s" % (name, q.image(name)))
    return _finish(args, report, text_body="\n".join(lines))


# ----- from-q -----


def cmd_from_q(args):
    data = structio.load_path(args.file)
    if not isinstance(data, dict) or "q" not in data:
        raise structio.StructureFileError(
            "from-q needs a structure file with a \"q\" block", args.file
        )
    anti, q = structio.structure_from_dict(data, context=args.file)
    extracted = extract_algebroid(anti.bundle, q)
    report = Report("from-q", args.file)
    if anti.brackets.tables or anti.anchor:
        report.check(
            "declared tables match the extracted ones",
            lambda: _tables_match(anti, extracted),
        )
    out = structio.structure_to_dict(extracted)
    if args.json:
        return _finish(args, report, extra={"structure": out})
    return _finish(args, report, text_body=json.dumps(out, indent=2))


def _tables_match(declared, extracted):
    """Same bracket tables and anchor; the witness prints both sides of the
    first part that differs."""
    if declared.anchor != extracted.anchor:
        return Outcome(False, {
            "anchor declared": _json_safe(
                {l: {c: str(p) for c, p in r.items()} for l, r in declared.anchor.items()}
            ),
            "anchor extracted": _json_safe(
                {l: {c: str(p) for c, p in r.items()} for l, r in extracted.anchor.items()}
            ),
        })
    if declared.brackets.tables != extracted.brackets.tables:
        return Outcome(False, {
            "brackets declared": structio.tables_to_dict(declared.brackets.tables),
            "brackets extracted": structio.tables_to_dict(extracted.brackets.tables),
        })
    return Outcome(True)


# ----- roundtrip -----


def cmd_roundtrip(args):
    data = structio.load_path(args.file)
    report = Report("roundtrip", args.file)
    if isinstance(data, dict) and data.get("kind") == "morphism":
        morph, source, target = structio.morphism_from_dict(data, args.file)
        phi = build_phi(morph)
        back = extract_morphism(phi)
        report.check(
            "morphism -> algebra map -> morphism",
            lambda: Outcome(
                back.components == morph.components
                and back.base_map.images == morph.base_map.images,
                {"recovered components": _json_safe(
                    {r: {",".join(k): {l: str(p) for l, p in v.items()}
                         for k, v in t.items()}
                     for r, t in back.components.items()}
                )},
            ),
        )
        redone = structio.morphism_from_dict(
            structio.morphism_to_dict(morph, source, target)
        )
        report.check(
            "printer then parser is the identity",
            lambda: Outcome(
                redone[0].components == morph.components
                and redone[0].base_map.images == morph.base_map.images
            ),
        )
        return _finish(args, report)

    anti, q = structio.structure_from_dict(data, args.file)
    generated = ce_differential(anti)
    back = extract_algebroid(anti.bundle, generated)
    report.check(
        "brackets -> field -> brackets", lambda: _tables_match(anti, back)
    )
    there_and_back = LieNAntialgebroid(
        anti.bundle,
        transfer_to_antialgebra(to_algebroid(anti)),
        anti.anchor,
    )
    report.check(
        "degree shift there and back", lambda: _tables_match(anti, there_and_back)
    )
    if q is not None:
        extracted = extract_algebroid(anti.bundle, q)
        if anti.brackets.tables or anti.anchor:
            report.check(
                "declared field extracts to the declared brackets",
                lambda: _tables_match(anti, extracted),
            )
            report.check(
                "declared brackets generate the declared field",
                lambda: _q_match(q, generated),
            )
        else:
            regenerated = ce_differential(extracted)
            report.check(
                "field survives extraction and regeneration",
                lambda: _q_match(q, regenerated),
            )
    redone, _ = structio.structure_from_dict(
        structio.structure_to_dict(anti, side=data.get("side", "E"))
    )
    report.check(
        "printer then parser is the identity", lambda: _tables_match(anti, redone)
    )
    return _finish(args, report)


def _q_match(declared, regenerated):
    """Same image on every generator; the witness is the first that differs."""
    for name in sorted(set(declared.images) | set(regenerated.images)):
        if declared.image(name) != regenerated.image(name):
            return Outcome(False, {
                "generator": name,
                "declared": str(declared.image(name)),
                "from brackets": str(regenerated.image(name)),
            })
    return Outcome(True)


# ----- check-morphism -----


def cmd_check_morphism(args):
    morph, source, target = structio.load_morphism(args.file)
    rows = verify_morphism(morph, source, target, args.max_arity).detail
    return _finish(args, Report("check-morphism", args.file, rows))


# ----- entry point -----


def _max_arity(text):
    """argparse type of --max-arity: an integer K >= 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError("expected an integer K >= 1, got %r" % text)
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nqforge",
        description="exact checks for split graded bracket structures and "
        "their homological presentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("verify", cmd_verify, "run the three validity routes on a structure file"),
        ("to-q", cmd_to_q, "print the differential generated by the bracket data"),
        ("from-q", cmd_from_q, "extract bracket data from a declared field"),
        ("roundtrip", cmd_roundtrip, "check that both directions compose to the identity"),
        ("check-morphism", cmd_check_morphism, "check a morphism file both ways"),
    ]
    for name, fn, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="JSON structure or morphism file")
        p.add_argument(
            "--json", action="store_true", help="machine-readable report"
        )
        if name in ("verify", "check-morphism"):
            p.add_argument(
                "--max-arity",
                type=_max_arity,
                default=None,
                metavar="K",
                help="cap the arities swept by the checks (K >= 1)",
            )
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except structio.StructureFileError as exc:
        if getattr(args, "json", False):
            json.dump(
                {"command": args.command, "ok": False, "error": str(exc)},
                sys.stdout,
                indent=2,
            )
            print()
        else:
            print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
