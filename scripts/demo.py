"""Walk through the main library surface on two small structures.

Run from the repository root:

    python3 scripts/demo.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from nqforge import fixtures
from nqforge.algebroid import (
    ce_differential,
    consequence_checks,
    de_rham_compare,
    extract_algebroid,
    verify_algebroid,
)
from nqforge.derived import DerivedSetup
from nqforge.io import structure_to_dict
from nqforge.morphism import verify_morphism


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def show(rows):
    for name, outcome in rows:
        status = "ok" if outcome.ok else "FAIL %r" % (outcome.witness,)
        print("  %-42s %s (%.3fs)" % (name, status, outcome.seconds))


def main():
    anti = fixtures.action_line()
    banner("action algebroid on the line")
    show(verify_algebroid(anti).detail)

    banner("its homological vector field")
    q = ce_differential(anti)
    for name in q.bundle.base_coordinates + tuple(q.bundle.labels()):
        print("  Q %s = %s" % (name, q.image(name)))

    banner("brackets recovered from the field")
    back = extract_algebroid(q.bundle, q)
    print("tables match:", back.brackets.tables == anti.brackets.tables)
    print("anchor match:", back.anchor == anti.anchor)

    banner("nested-commutator route")
    ds = DerivedSetup(anti.bundle, q)
    e1 = anti.bundle.frame_section("e1")
    e2 = anti.bundle.frame_section("e2")
    print("  bracket(e1, e2) =", ds.bracket([e1, e2]))

    banner("consequence rows")
    show(consequence_checks(anti).detail)

    banner("differential-forms comparison")
    dr = de_rham_compare(anti)
    print("routes agree exactly:", dr.ok, "| relation to textbook:", dr.detail)

    banner("a morphism and a broken one")
    for name in ["tangent_squaring", "tangent_squaring_broken"]:
        m, src, tgt, expected = fixtures.all_morphisms()[name]
        mrep = verify_morphism(m, src, tgt)
        agree = dict(mrep.detail)["formulations agree"]
        print("  %-26s ok=%-5s expected=%-5s formulations agree=%s"
              % (name, mrep.ok, expected, agree.ok))

    banner("the structure file nqforge reads (see fixtures/action_line.json)")
    print(json.dumps(structure_to_dict(anti, q=q, side="sE"), indent=2))


if __name__ == "__main__":
    main()
