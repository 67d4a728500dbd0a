"""Regenerate the JSON fixture files under fixtures/ from the package's
built-in instances.  Run from the repository root:

    python3 scripts/make_fixtures.py

Structures are written on the shifted side ("sE"), morphisms with their
source and target on the unshifted side.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from nqforge import fixtures, io as structio
from nqforge.algebroid import ce_differential

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def documents():
    """{file name without .json: JSON document} of every fixture file."""
    docs = {}
    for name, anti in fixtures.all_structures().items():
        docs[name] = structio.structure_to_dict(anti, ce_differential(anti), side="sE")

    for name, anti in fixtures.perturbed_structures().items():
        docs[name + "_perturbed"] = structio.structure_to_dict(anti, side="sE")

    # a well-formed field that does not match its own declared brackets
    anti = fixtures.action_line()
    data = structio.structure_to_dict(anti, ce_differential(anti), side="sE")
    terms = data["q"]["e1"]
    terms[0][0] = "2*" + terms[0][0] if terms[0][0] != "1" else "2"
    docs["action_line_corrupted_q"] = data

    docs["empty"] = {"kind": "structure", "base_coordinates": [], "frames": {}}

    morphism_files = {
        "identity_tangent_plane": fixtures.identity_tangent_plane(),
        "tangent_squaring": fixtures.tangent_squaring(),
        "tangent_squaring_broken": fixtures.tangent_squaring_broken(),
        "rescale_two_term": fixtures.rescale_two_term(),
        "plane_to_line": fixtures.plane_to_line(),
        "point_two_term": fixtures.point_two_term(),
        "point_two_term_doubled": fixtures.point_two_term(2),
        "doubled_action_line": fixtures.doubled_action_line(),
    }
    for name, (morph, src, tgt, _expected) in morphism_files.items():
        docs["morphism_" + name] = structio.morphism_to_dict(morph, src, tgt)
    return docs


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    for name, data in documents().items():
        path = os.path.join(OUT_DIR, name + ".json")
        structio.save(path, data)
        print("wrote", os.path.relpath(path))


if __name__ == "__main__":
    main()
