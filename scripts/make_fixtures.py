"""Regenerate the JSON fixture files under fixtures/ from the package's
built-in instances.  Run from the repository root:

    python3 scripts/make_fixtures.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from nqforge import fixtures, io as structio
from nqforge.algebroid import ce_differential, to_antialgebroid


def main():
    out_dir = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name, data):
        path = os.path.join(out_dir, name + ".json")
        structio.save(path, data)
        written.append(path)

    for name, algd in fixtures.all_structures().items():
        anti = to_antialgebroid(algd)
        q = ce_differential(anti)
        emit(name, structio.structure_to_dict(algd, q))

    for name, algd in fixtures.perturbed_structures().items():
        emit(name + "_perturbed", structio.structure_to_dict(algd))

    # a well-formed field that does not match its own declared brackets
    algd = fixtures.action_line()
    anti = to_antialgebroid(algd)
    q = ce_differential(anti)
    data = structio.structure_to_dict(algd, q)
    terms = data["q"]["e1"]
    terms[0][0] = "2*" + terms[0][0] if terms[0][0] != "1" else "2"
    emit("action_line_corrupted_q", data)

    emit("empty", {"kind": "structure", "base_coordinates": [], "frames": {}})

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
        emit("morphism_" + name, structio.morphism_to_dict(morph, src, tgt))

    for path in written:
        print("wrote", os.path.relpath(path))


if __name__ == "__main__":
    main()
