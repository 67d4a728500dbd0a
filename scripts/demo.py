"""Walk through the main library surface on two small structures.

Run from the repository root:

    python3 scripts/demo.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from nqforge import fixtures
from nqforge.algebroid import (
    ce_differential,
    consequence_checks,
    de_rham_compare,
    extract_algebroid,
    to_antialgebroid,
    verify_algebroid,
)
from nqforge.derived import DerivedSetup
from nqforge.io import structure_to_dict, save
from nqforge.morphism import verify_morphism


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    algd = fixtures.action_line()
    banner("action algebroid on the line")
    rep = verify_algebroid(algd)
    print("verdict:", "ok" if rep.ok else "FAIL", "| routes agree:", rep.agrees)

    banner("its homological vector field")
    q = ce_differential(algd)
    for name in q.bundle.base_coordinates + tuple(q.bundle.labels()):
        print("  Q %s = %s" % (name, q.image(name)))

    banner("brackets recovered from the field")
    back = extract_algebroid(q.bundle, q)
    print("tables match:", back.brackets.tables == algd.brackets.tables)
    print("anchor match:", back.anchor == algd.anchor)

    banner("nested-commutator route")
    anti = to_antialgebroid(algd)
    ds = DerivedSetup(anti.bundle, q)
    e1 = anti.bundle.frame_section("e1")
    e2 = anti.bundle.frame_section("e2")
    print("  bracket(e1, e2) =", ds.bracket([e1, e2]))

    banner("consequence rows")
    for name, outcome in consequence_checks(algd).detail:
        status = "ok" if outcome.ok else "FAIL %r" % (outcome.witness,)
        print("  %-28s %s" % (name, status))

    banner("differential-forms comparison")
    dr = de_rham_compare(algd, max_form_degree=2)
    print("routes agree exactly:", dr.ok, "| relation to textbook:", dr.detail)

    banner("a morphism and a broken one")
    for name in ["tangent_squaring", "tangent_squaring_broken"]:
        m, src, tgt, expected = fixtures.all_morphisms()[name]
        mrep = verify_morphism(m, src, tgt)
        print("  %-26s ok=%-5s expected=%-5s formulations agree=%s"
              % (name, mrep.ok, expected, mrep.agrees))

    out = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                       "action_line.json")
    save(out, structure_to_dict(algd, q=q))
    print()
    print("rewrote", os.path.relpath(out))


if __name__ == "__main__":
    main()
