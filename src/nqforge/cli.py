"""Command line front end.

Subcommands:

    nqforge verify FILE           three-route validity check of a structure
    nqforge to-q FILE             print the differential generated by the data
    nqforge from-q FILE           extract bracket data from a declared field
    nqforge roundtrip FILE        both directions compose to the identity
    nqforge check-morphism FILE   geometric and algebraic morphism conditions

Every subcommand accepts --json for machine-readable output, --max-arity to
cap the swept arities, and --seed for the randomized spot checks.  Exit
status: 0 when every check passes, 1 when a check fails (the report then
carries a witness), 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .polyring import Polynomial
from .superalg import SuperFunction
from .algebroid import (
    _as_antialgebroid,
    ce_differential,
    consequence_checks,
    extract_algebroid,
    to_algebroid,
    to_antialgebroid,
    verify_algebroid,
)
from .morphism import (
    MorphismReport,
    build_phi,
    check_anchor_condition,
    check_bracket_conditions,
    check_equivariance,
    extract_morphism,
)
from . import io as structio


def _json_safe(value):
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


class Report:
    """Per-check status lines with timing; a witness is recorded exactly
    when the check fails."""

    def __init__(self, command, path):
        self.command = command
        self.path = path
        self.rows = []

    def check(self, name, fn):
        start = time.perf_counter()
        ok, witness = fn()
        seconds = time.perf_counter() - start
        self.rows.append((name, bool(ok), None if ok else witness, seconds))
        return bool(ok)

    @property
    def ok(self):
        return all(ok for _, ok, _, _ in self.rows)

    def render_text(self, out):
        print("%s %s" % (self.command, self.path), file=out)
        for name, ok, witness, seconds in self.rows:
            status = "PASS" if ok else "FAIL"
            print("  [%s] %s (%.3fs)" % (status, name, seconds), file=out)
            if witness is not None:
                print("         witness: %r" % (witness,), file=out)
        print("result: %s" % ("PASS" if self.ok else "FAIL"), file=out)

    def to_json(self, extra=None):
        checks = []
        for name, ok, witness, seconds in self.rows:
            row = {
                "name": name,
                "status": "pass" if ok else "fail",
                "seconds": round(seconds, 6),
            }
            if witness is not None:
                row["witness"] = _json_safe(witness)
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


def _outcome(outcome):
    return outcome.ok, outcome.witness


# ----- verify -----


def cmd_verify(args):
    struct, _ = structio.load_structure(args.file)
    report = Report("verify", args.file)
    res = verify_algebroid(struct, r_max=args.max_arity)
    report.check("differential squares to zero", lambda: _outcome(res.square))
    report.check(
        "frame identities with anchor corrections",
        lambda: _outcome(res.identities),
    )
    report.check(
        "identity residuals are function-linear",
        lambda: _outcome(res.linearity),
    )
    report.check(
        "routes agree",
        lambda: (
            res.agrees,
            {
                "square": res.square.ok,
                "identities": res.identities.ok,
                "linearity": res.linearity.ok,
            },
        ),
    )
    cons = consequence_checks(struct)
    for name, ok, witness in cons.rows:
        report.check(name, lambda ok=ok, witness=witness: (ok, witness))
    return _finish(args, report)


# ----- to-q -----


def cmd_to_q(args):
    struct, _ = structio.load_structure(args.file)
    anti = _as_antialgebroid(struct)
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
    struct, q = structio.structure_from_dict(data, context=args.file)
    anti = _as_antialgebroid(struct)
    try:
        extracted = extract_algebroid(anti.bundle, q)
    except ValueError as exc:
        raise structio.StructureFileError(str(exc), args.file + ".q") from exc
    report = Report("from-q", args.file)
    if anti.brackets.tables or anti.anchor:
        report.check(
            "declared tables match the extracted ones",
            lambda: (
                extracted.brackets.tables == anti.brackets.tables
                and extracted.anchor == anti.anchor,
                _table_mismatch(anti, extracted),
            ),
        )
    out = structio.structure_to_dict(extracted)
    if args.json:
        return _finish(args, report, extra={"structure": out})
    return _finish(args, report, text_body=json.dumps(out, indent=2))


def _table_mismatch(declared, extracted):
    if declared.anchor != extracted.anchor:
        return {
            "anchor declared": _json_safe(
                {l: {c: str(p) for c, p in r.items()} for l, r in declared.anchor.items()}
            ),
            "anchor extracted": _json_safe(
                {l: {c: str(p) for c, p in r.items()} for l, r in extracted.anchor.items()}
            ),
        }
    return {
        "brackets declared": structio.tables_to_dict(declared.brackets),
        "brackets extracted": structio.tables_to_dict(extracted.brackets),
    }


# ----- roundtrip -----


def _derivations_equal(a, b):
    names = set(a.images) | set(b.images)
    for name in sorted(names):
        if a.image(name) != b.image(name):
            return False, name
    return True, None


def cmd_roundtrip(args):
    kind, payload = structio.load_any(args.file)
    report = Report("roundtrip", args.file)
    if kind == "morphism":
        morph, source, target = payload
        phi = build_phi(morph)
        back = extract_morphism(phi)
        report.check(
            "morphism -> algebra map -> morphism",
            lambda: (
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
            lambda: (
                redone[0].components == morph.components
                and redone[0].base_map.images == morph.base_map.images,
                None,
            ),
        )
        return _finish(args, report)

    struct, q = payload
    anti = _as_antialgebroid(struct)
    generated = ce_differential(anti)
    back = extract_algebroid(anti.bundle, generated)
    report.check(
        "brackets -> field -> brackets",
        lambda: (
            back.brackets.tables == anti.brackets.tables
            and back.anchor == anti.anchor,
            _table_mismatch(anti, back),
        ),
    )
    if struct.bundle.side == "sE":
        transferred = to_algebroid(to_antialgebroid(struct))
    else:
        transferred = to_antialgebroid(to_algebroid(struct))
    report.check(
        "degree shift there and back",
        lambda: (
            transferred.brackets.tables == struct.brackets.tables
            and transferred.anchor == struct.anchor,
            _table_mismatch(struct, transferred),
        ),
    )
    if q is not None:
        extracted = extract_algebroid(anti.bundle, q)
        if anti.brackets.tables or anti.anchor:
            report.check(
                "declared field extracts to the declared brackets",
                lambda: (
                    extracted.brackets.tables == anti.brackets.tables
                    and extracted.anchor == anti.anchor,
                    _table_mismatch(anti, extracted),
                ),
            )
            report.check(
                "declared brackets generate the declared field",
                lambda: _q_mismatch(q, generated),
            )
        else:
            regenerated = ce_differential(extracted)
            report.check(
                "field survives extraction and regeneration",
                lambda: _q_mismatch(q, regenerated),
            )
    redone, _ = structio.structure_from_dict(structio.structure_to_dict(struct))
    report.check(
        "printer then parser is the identity",
        lambda: (
            redone.brackets.tables == struct.brackets.tables
            and redone.anchor == struct.anchor,
            _table_mismatch(struct, redone),
        ),
    )
    return _finish(args, report)


def _q_mismatch(declared, regenerated):
    same, name = _derivations_equal(declared, regenerated)
    if same:
        return True, None
    return False, {
        "generator": name,
        "declared": str(declared.image(name)),
        "from brackets": str(regenerated.image(name)),
    }


# ----- check-morphism -----


def _random_superfunction(rng, bundle, degree=2):
    total = SuperFunction.zero(bundle)
    labels = bundle.labels()
    coords = bundle.base_coordinates
    for _ in range(3):
        coeff = Polynomial.constant(rng.randint(-3, 3), coords)
        for c in coords:
            if rng.random() < 0.5:
                coeff = coeff * Polynomial.variable(c, coords)
        piece = SuperFunction.from_polynomial(coeff, bundle)
        for _ in range(rng.randint(0, min(degree, len(labels)) if labels else 0)):
            piece = piece * SuperFunction.generator(rng.choice(labels), bundle)
        total = total + piece
    return total


def cmd_check_morphism(args):
    morph, source, target = structio.load_morphism(args.file)
    report = Report("check-morphism", args.file)
    anchor = check_anchor_condition(morph, source, target)
    report.check("anchor condition", lambda: _outcome(anchor))
    brackets = check_bracket_conditions(
        morph, source, target, t_max=args.max_arity
    )
    for t, ok, witness in brackets.rows:
        report.check(
            "bracket condition, arity %d (%s path)" % (t, brackets.path),
            lambda ok=ok, witness=witness: (ok, witness),
        )
    equivariance = check_equivariance(morph, source, target)
    report.check("differential equivariance", lambda: _outcome(equivariance))
    summary = MorphismReport(anchor, brackets, equivariance)
    report.check(
        "formulations agree",
        lambda: (
            summary.agrees,
            {
                "geometric": summary.geometric_ok,
                "algebraic": summary.algebraic_ok,
            },
        ),
    )
    phi = build_phi(morph)
    rng = random.Random(args.seed)
    tgt_bundle = phi.target_bundle

    def multiplicativity():
        for _ in range(4):
            a = _random_superfunction(rng, tgt_bundle)
            b = _random_superfunction(rng, tgt_bundle)
            if phi.apply(a * b) != phi.apply(a) * phi.apply(b):
                return False, {"a": str(a), "b": str(b)}
        return True, None

    report.check("random multiplicativity spot check", multiplicativity)
    return _finish(args, report)


# ----- entry point -----


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
        p.add_argument(
            "--max-arity",
            type=int,
            default=None,
            metavar="K",
            help="cap the arities swept by the checks",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=0,
            metavar="N",
            help="seed for the randomized spot checks",
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
