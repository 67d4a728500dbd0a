"""Structure files: JSON descriptions of algebroids and morphisms.

A structure block looks like

    {
      "kind": "structure",
      "side": "E",
      "base_coordinates": ["x"],
      "frames": {"1": ["e1", "e2"]},
      "anchor": {"e1": {"x": "1"}, "e2": {"x": "x"}},
      "brackets": {"2": {"e1,e2": {"e1": "1"}}},
      "q": {"x": [["-1", ["e1"]], ["-x", ["e2"]]]}
    }

Frames are listed by degree magnitude (the piece of unshifted degree -a
under key "a").  Bracket and component keys are comma-joined frame tuples
in canonical order.  Coefficients are infix polynomial strings over the
base coordinates (plain integers also pass).  side "E" reads the brackets
as the graded-symmetric family on the unshifted bundle, side "sE" as the
antisymmetric family on the shifted one.  The optional "q" block gives a
degree-+1 vector field directly: for every base coordinate and every frame
label (standing for its dual generator) a list of [coefficient, word]
terms, the word being a list of frame labels.

A morphism file is

    {
      "kind": "morphism",
      "source": {structure block},
      "target": {structure block},
      "base_map": {"y": "x^2"},
      "components": {"1": {"e": {"f": "2*x"}}}
    }

with base_map giving the pullback of each target coordinate and the
components keyed by arity, then by comma-joined source frame tuple, then
by target frame label: the bracket format, read by one table parser and
written by one writer (tables_to_dict).  The library checks the tables
themselves with graded.validate_table.

Only the keys shown are read; any other key, another "kind", or a structure
block without "frames" (an empty structure declares "frames": {}), is an
error, so a misspelled or foreign file cannot pass as a structure.  All
loaders raise StructureFileError with a context path (and line/column for
syntax problems) instead of letting raw exceptions escape.
"""

from __future__ import annotations

import json

from .polyring import Polynomial, BaseMap, PolynomialSyntaxError, parse_polynomial
from .graded import GradedBundle
from .superalg import Derivation, SuperFunction
from .algebroid import LieNAlgebroid, LieNAntialgebroid
from .morphism import MorphismData


class StructureFileError(ValueError):
    """A structure file that cannot be used, with the context path of the
    offending entry."""

    def __init__(self, message, context=""):
        self.context = context
        if context:
            message = "%s: %s" % (context, message)
        super().__init__(message)


_STRUCTURE_KEYS = "kind side base_coordinates frames anchor brackets q".split()
_MORPHISM_KEYS = "kind source target base_map components".split()


def _expect_dict(value, context, keys=None):
    """value as an object; with keys, every key it holds must be listed."""
    if not isinstance(value, dict):
        raise StructureFileError("expected an object", context)
    unknown = sorted(set(value) - set(keys)) if keys else []
    if unknown:
        message = "unknown key(s) %s (allowed: %s)"
        raise StructureFileError(message % (unknown, ", ".join(keys)), context)
    return value


def _poly(value, coordinates, context):
    if isinstance(value, bool):
        raise StructureFileError("booleans are not coefficients", context)
    if isinstance(value, int):
        return Polynomial.constant(value, coordinates)
    if isinstance(value, float):
        raise StructureFileError(
            "floating point coefficients are not exact; write a rational "
            "string like \"3/2\"", context
        )
    if not isinstance(value, str):
        raise StructureFileError("expected a polynomial string", context)
    try:
        return parse_polynomial(value, coordinates)
    except PolynomialSyntaxError as exc:
        err = StructureFileError(str(exc), context)
        err.line = exc.line
        err.column = exc.column
        raise err from exc


def _split_key(key, context):
    if not isinstance(key, str):
        raise StructureFileError("tuple keys must be strings", context)
    parts = tuple(p.strip() for p in key.split(",") if p.strip())
    if not parts:
        raise StructureFileError("empty frame tuple", context)
    return parts


def load_path(path):
    """Read a JSON file, turning syntax problems into StructureFileError
    with line and column."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise StructureFileError(
            "invalid JSON: %s (line %d, column %d)"
            % (exc.msg, exc.lineno, exc.colno),
            str(path),
        ) from exc
    except OSError as exc:
        raise StructureFileError(str(exc), str(path)) from exc


def bundle_from_dict(data, context="structure"):
    coords = data.get("base_coordinates", [])
    if not isinstance(coords, list) or not all(
        isinstance(c, str) for c in coords
    ):
        raise StructureFileError(
            "base_coordinates must be a list of names", context
        )
    frames = _expect_dict(data.get("frames"), context + ".frames")
    by_mag = {}
    for mag_key, labels in frames.items():
        try:
            a = int(mag_key)
        except (TypeError, ValueError):
            raise StructureFileError(
                "frame keys are degree magnitudes", context + ".frames"
            ) from None
        if not isinstance(labels, list) or not all(
            isinstance(l, str) for l in labels
        ):
            raise StructureFileError(
                "frame lists hold label strings", context + ".frames"
            )
        by_mag[a] = list(labels)
    if not by_mag:
        by_mag = {1: []}
    side = data.get("side", "E")
    if side not in ("E", "sE"):
        raise StructureFileError("side must be 'E' or 'sE'", context)
    try:
        return GradedBundle(tuple(coords), by_mag, side=side)
    except ValueError as exc:
        raise StructureFileError(str(exc), context) from exc


def _check_label(bundle, lab, context):
    if lab not in bundle.label_index:
        raise StructureFileError(
            "frame %r is not declared (frames: %s)"
            % (lab, ", ".join(bundle.labels()) or "none"),
            context,
        )


def _tables_from_dict(data, source, target, context, what):
    """The table format shared by brackets and components: arity, then
    comma-joined source frame tuple, then target frame label, with
    coefficients over the source base."""
    tables = {}
    for arity_key, table in _expect_dict(data, context).items():
        try:
            r = int(arity_key)
        except (TypeError, ValueError):
            raise StructureFileError(
                "%s keys are arities" % what, context
            ) from None
        ctx_r = "%s[%s]" % (context, arity_key)
        out = {}
        for key, targets in _expect_dict(table, ctx_r).items():
            labels = _split_key(key, ctx_r)
            ctx_k = "%s[%r]" % (ctx_r, key)
            for lab in labels:
                _check_label(source, lab, ctx_k)
            entry = {}
            for lab, value in _expect_dict(targets, ctx_k).items():
                _check_label(target, lab, ctx_k)
                entry[lab] = _poly(
                    value, source.base_coordinates, "%s -> %r" % (ctx_k, lab)
                )
            out[labels] = entry
        if out:
            tables[r] = out
    return tables


def _anchor_from_dict(data, bundle, context):
    anchor = {}
    for lab, row in _expect_dict(data, context).items():
        _check_label(bundle, lab, context)
        ctx = "%s[%r]" % (context, lab)
        out = {}
        for coord, value in _expect_dict(row, ctx).items():
            if coord not in bundle.base_coordinates:
                raise StructureFileError(
                    "coordinate %r is not declared" % coord, ctx
                )
            out[coord] = _poly(value, bundle.base_coordinates, ctx)
        anchor[lab] = out
    return anchor


def _q_from_dict(data, bundle, context):
    images = {}
    names = set(bundle.base_coordinates) | set(bundle.labels())
    for name, terms in _expect_dict(data, context).items():
        if name not in names:
            raise StructureFileError(
                "image of undeclared name %r" % name, context
            )
        ctx = "%s[%r]" % (context, name)
        if not isinstance(terms, list):
            raise StructureFileError(
                "images are lists of [coefficient, word] terms", ctx
            )
        total = SuperFunction.zero(bundle)
        for i, term in enumerate(terms):
            ctx_t = "%s[%d]" % (ctx, i)
            if not (isinstance(term, list) and len(term) == 2):
                raise StructureFileError(
                    "each term is a [coefficient, word] pair", ctx_t
                )
            coeff = _poly(term[0], bundle.base_coordinates, ctx_t)
            word = term[1]
            if not isinstance(word, list):
                raise StructureFileError("word must be a label list", ctx_t)
            piece = SuperFunction.from_polynomial(coeff, bundle)
            for lab in word:
                _check_label(bundle, lab, ctx_t)
                piece = piece * SuperFunction.generator(lab, bundle)
            total = total + piece
        images[name] = total
    return Derivation(bundle, images)


def structure_from_dict(data, context="structure"):
    """Build an algebroid (side sE) or antialgebroid (side E) plus the raw
    field of the optional "q" block, which must be zero or homogeneous of
    standard degree +1."""
    data = _expect_dict(data, context, _STRUCTURE_KEYS)
    if data.get("kind", "structure") != "structure":
        raise StructureFileError("kind must be \"structure\"", context)
    bundle = bundle_from_dict(data, context)
    brackets = _tables_from_dict(
        data.get("brackets", {}), bundle, bundle, context + ".brackets",
        "bracket",
    )
    anchor = _anchor_from_dict(data.get("anchor", {}), bundle, context + ".anchor")
    try:
        if bundle.side == "sE":
            struct = LieNAlgebroid(bundle, brackets, anchor)
        else:
            struct = LieNAntialgebroid(bundle, brackets, anchor)
    except (ValueError, KeyError) as exc:
        raise StructureFileError(str(exc), context) from exc
    q = None
    if "q" in data:
        e_bundle = bundle if bundle.side == "E" else bundle.shifted()
        q = _q_from_dict(data["q"], e_bundle, context + ".q")
        degrees = list(q.std_parts())
        if degrees not in ([], [1]):
            raise StructureFileError(
                "field has standard degrees %r, expected [1]" % degrees,
                context + ".q",
            )
    return struct, q


def morphism_from_dict(data, context="morphism"):
    """Build (morphism data, source structure, target structure)."""
    data = _expect_dict(data, context, _MORPHISM_KEYS)
    source, _ = structure_from_dict(
        _expect_dict(data.get("source"), context + ".source"),
        context + ".source",
    )
    target, _ = structure_from_dict(
        _expect_dict(data.get("target"), context + ".target"),
        context + ".target",
    )
    src_bundle = source.bundle if source.bundle.side == "E" else source.bundle.shifted()
    tgt_bundle = target.bundle if target.bundle.side == "E" else target.bundle.shifted()
    images = {}
    for coord, value in _expect_dict(
        data.get("base_map", {}), context + ".base_map"
    ).items():
        if coord not in tgt_bundle.base_coordinates:
            raise StructureFileError(
                "base_map image for undeclared target coordinate %r" % coord,
                context + ".base_map",
            )
        images[coord] = _poly(
            value, src_bundle.base_coordinates, context + ".base_map"
        )
    if set(images) != set(tgt_bundle.base_coordinates):
        missing = sorted(set(tgt_bundle.base_coordinates) - set(images))
        raise StructureFileError(
            "base_map must give an image for every target coordinate "
            "(missing %s)" % ", ".join(missing),
            context + ".base_map",
        )
    base_map = BaseMap(
        src_bundle.base_coordinates, tgt_bundle.base_coordinates, images
    )
    comps = _tables_from_dict(
        data.get("components", {}), src_bundle, tgt_bundle,
        context + ".components", "component",
    )
    try:
        morph = MorphismData(src_bundle, tgt_bundle, base_map, comps)
    except (ValueError, KeyError) as exc:
        raise StructureFileError(str(exc), context) from exc
    return morph, source, target


def load_structure(path):
    data = load_path(path)
    kind = data.get("kind", "structure") if isinstance(data, dict) else None
    if kind == "morphism":
        raise StructureFileError(
            "this is a morphism file; the command wants a single structure",
            str(path),
        )
    return structure_from_dict(data, context=str(path))


def load_morphism(path):
    data = load_path(path)
    if not isinstance(data, dict) or data.get("kind") != "morphism":
        raise StructureFileError(
            "expected a morphism file (kind: \"morphism\")", str(path)
        )
    return morphism_from_dict(data, context=str(path))


def load_any(path):
    """Dispatch on the file's kind: ('structure', (struct, q)) or
    ('morphism', (morph, source, target))."""
    data = load_path(path)
    if isinstance(data, dict) and data.get("kind") == "morphism":
        return "morphism", morphism_from_dict(data, context=str(path))
    return "structure", structure_from_dict(data, context=str(path))


# ----- writing -----


def tables_to_dict(tables):
    """Inverse of the table parser: keys and labels sorted."""
    return {
        str(r): {
            ",".join(key): {lab: str(p) for lab, p in sorted(targets.items())}
            for key, targets in sorted(table.items())
        }
        for r, table in sorted(tables.items())
    }


def structure_to_dict(struct, q=None):
    bundle = struct.bundle
    data = {
        "kind": "structure",
        "side": bundle.side,
        "base_coordinates": list(bundle.base_coordinates),
        "frames": {
            str(a): list(labs)
            for a, labs in sorted(bundle.labels_by_magnitude.items())
        },
        "anchor": {
            lab: {c: str(p) for c, p in sorted(row.items())}
            for lab, row in sorted(struct.anchor.items())
        },
        "brackets": tables_to_dict(struct.brackets.tables),
    }
    if q is not None:
        data["q"] = q_to_terms(q)
    return data


def q_to_terms(q):
    """Serialize a degree-+1 field as {name: [[coefficient, word], ...]}."""
    out = {}
    bundle = q.bundle
    for name in list(bundle.base_coordinates) + bundle.labels():
        img = q.image(name)
        terms = [
            [str(coeff), list(key)]
            for key, coeff in sorted(img.terms.items())
        ]
        if terms:
            out[name] = terms
    return out


def morphism_to_dict(morph, source, target):
    return {
        "kind": "morphism",
        "source": structure_to_dict(source),
        "target": structure_to_dict(target),
        "base_map": {
            c: str(p) for c, p in sorted(morph.base_map.images.items())
        },
        "components": tables_to_dict(morph.components),
    }


def save(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=False)
        fh.write("\n")
