"""Command line front end.

Subcommands:

    nqforge verify FILE           three-route validity check of a structure
    nqforge to-q FILE             print the differential generated by the data
    nqforge from-q FILE           extract bracket data from a declared field
    nqforge roundtrip FILE        both directions compose to the identity
    nqforge check-morphism FILE   geometric and algebraic morphism conditions

Every subcommand accepts --json for machine-readable output, --max-arity to
cap the swept arities, and --seed for the randomized spot checks.  A sweep
that passes but stops below the arity its theorem needs (n+2 for the
identity and linearity routes, n+1 for the bracket conditions) has status
"incomplete", and the agreement rows leave it out.  Exit status: 0 when no
check fails, 1 when a check fails (the report then carries a witness), 2 on
unusable input.
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
    AlgebroidReport,
    _as_antialgebroid,
    ce_differential,
    check_identities,
    check_square,
    consequence_checks,
    extract_algebroid,
    residual_linearity,
    to_algebroid,
    to_antialgebroid,
)
from .morphism import (
    MorphismReport,
    bracket_path,
    build_phi,
    check_anchor_condition,
    check_bracket_conditions,
    check_equivariance,
    extract_morphism,
)
from .outcome import Outcome
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
    """Per-check status lines with timing.  A check is a function returning
    an Outcome; its status is "pass", "fail" (recorded with the witness) or
    "incomplete": a non-vacuous pass of a sweep that stopped below the
    arity its theorem needs (complete false)."""

    def __init__(self, command, path):
        self.command = command
        self.path = path
        self.rows = []

    def check(self, name, fn, complete=True):
        start = time.perf_counter()
        outcome = fn()
        seconds = time.perf_counter() - start
        if not outcome.ok:
            status = "fail"
        elif complete or outcome.vacuous:
            status = "pass"
        else:
            status = "incomplete"
        self.rows.append((name, status, outcome.witness, seconds))
        return outcome

    @property
    def ok(self):
        return all(status != "fail" for _, status, _, _ in self.rows)

    def render_text(self, out):
        print("%s %s" % (self.command, self.path), file=out)
        for name, status, witness, seconds in self.rows:
            print("  [%s] %s (%.3fs)" % (status.upper(), name, seconds), file=out)
            if witness is not None:
                print("         witness: %s" % json.dumps(_json_safe(witness)), file=out)
        print("result: %s" % ("PASS" if self.ok else "FAIL"), file=out)

    def to_json(self, extra=None):
        checks = []
        for name, status, witness, seconds in self.rows:
            row = {"name": name, "status": status, "seconds": round(seconds, 6)}
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


# ----- verify -----


def cmd_verify(args):
    struct, _ = structio.load_structure(args.file)
    anti = _as_antialgebroid(struct)
    r_max = args.max_arity
    complete = r_max is None or r_max >= anti.n + 2
    report = Report("verify", args.file)
    square = report.check(
        "differential squares to zero", lambda: check_square(anti)
    )
    identities = report.check(
        "frame identities with anchor corrections",
        lambda: check_identities(anti, r_max),
        complete,
    )
    linearity = report.check(
        "identity residuals are function-linear",
        lambda: residual_linearity(anti, r_max),
        complete,
    )
    res = AlgebroidReport(square, identities, linearity, complete)
    report.check(
        "routes agree",
        lambda: Outcome(
            res.agrees,
            {
                "square": square.ok,
                "identities": identities.ok,
                "linearity": linearity.ok,
            },
        ),
    )
    # the rows come from one sweep, so each row's time reads zero
    for name, outcome in consequence_checks(anti).detail:
        report.check(name, lambda outcome=outcome: outcome)
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
    kind, payload = structio.load_any(args.file)
    report = Report("roundtrip", args.file)
    if kind == "morphism":
        morph, source, target = payload
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

    struct, q = payload
    anti = _as_antialgebroid(struct)
    generated = ce_differential(anti)
    back = extract_algebroid(anti.bundle, generated)
    report.check(
        "brackets -> field -> brackets", lambda: _tables_match(anti, back)
    )
    if struct.bundle.side == "sE":
        transferred = to_algebroid(to_antialgebroid(struct))
    else:
        transferred = to_antialgebroid(to_algebroid(struct))
    report.check(
        "degree shift there and back", lambda: _tables_match(struct, transferred)
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
    redone, _ = structio.structure_from_dict(structio.structure_to_dict(struct))
    report.check(
        "printer then parser is the identity", lambda: _tables_match(struct, redone)
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
    t_max = args.max_arity
    complete = t_max is None or t_max >= morph.n + 1
    report = Report("check-morphism", args.file)
    anchor = report.check(
        "anchor condition", lambda: check_anchor_condition(morph, source, target)
    )
    brackets = check_bracket_conditions(morph, source, target, t_max=t_max)
    # the rows come from one sweep, so each row's time reads zero
    for t, outcome in brackets.detail:
        report.check(
            "bracket condition, arity %d (%s path)" % (t, bracket_path(morph)),
            lambda outcome=outcome: outcome,
            complete,
        )
    phi = build_phi(morph)
    equivariance = report.check(
        "differential equivariance",
        lambda: check_equivariance(phi, source, target),
    )
    summary = MorphismReport(anchor, brackets, equivariance, complete)
    report.check(
        "formulations agree",
        lambda: Outcome(
            summary.agrees,
            {
                "geometric": summary.geometric_ok,
                "algebraic": summary.algebraic_ok,
            },
        ),
    )
    rng = random.Random(args.seed)
    tgt_bundle = phi.target_bundle

    def multiplicativity():
        for _ in range(4):
            a = _random_superfunction(rng, tgt_bundle)
            b = _random_superfunction(rng, tgt_bundle)
            if phi.apply(a * b) != phi.apply(a) * phi.apply(b):
                return Outcome(False, {"a": str(a), "b": str(b)})
        return Outcome(True)

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
