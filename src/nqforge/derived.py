"""Brackets and anchor read off a degree-+1 vector field by nested
commutators with contractions.

The k-th bracket of sections X_1..X_k is the contraction-type part of
[...[[q, i_{X_1}], i_{X_2}], ..., i_{X_k}], identified with a section again.
Commutators add homological weights and every contraction has weight -1, so
that weight -1 part is exactly [...[q_{k-1}, i_{X_1}], ..., i_{X_k}], where
q_{k-1} is the weight k-1 component of q; only that component is commuted.
Since q's weight components sit between 0 and n, the bracket vanishes
identically as soon as k exceeds n+1.  The anchor action on a base
polynomial is the contraction of the one-generator part of q(f).

Nothing here assumes q squares to zero; feeding a non-homological field
through these functions is how the negative tests see the identities fail.
"""

from __future__ import annotations

from .graded import Section
from .superalg import (
    SuperFunction,
    extract_section,
    interior_product,
)


class DerivedSetup:
    """A graded bundle together with a candidate homological field on its
    function algebra."""

    def __init__(self, bundle, q):
        if bundle.side != "E":
            raise ValueError("derived brackets contract unshifted sections")
        if q.bundle is not bundle and not q.bundle.same_frames(bundle):
            raise ValueError("field lives on a different graded manifold")
        self.bundle = bundle
        self.q = q
        self._q_weights = q.homological_parts()

    def bracket(self, sections):
        """The k-th derived bracket of the given sections, as a Section.

        Computes the iterated commutator of q's weight k-1 component with
        the contractions in argument order; no other component reaches
        weight -1.  Keeps the weight minus-one part and reads it back as a
        section.  The zero section when q has no weight k-1 component, in
        particular for k > n+1.
        """
        current = self._q_weights.get(len(sections) - 1)
        if current is None:
            return Section(self.bundle, {})
        for sec in sections:
            current = current.commutator(interior_product(sec))
        return extract_section(current.homological_part(-1))

    def anchor_action(self, section, poly):
        """Action of the derived anchor of a section on a base polynomial:
        contract the section into the one-generator part of q applied to the
        polynomial.  Sections concentrated below degree -1 act by zero."""
        f = SuperFunction.from_polynomial(poly, self.bundle)
        qf = self.q.apply(f).homological_part(1)
        contracted = interior_product(section).apply(qf)
        for key in contracted.terms:
            if key:
                raise ValueError("unexpected generators after contraction")
        return contracted.body()
