"""Variegated extensions: three-step filtered groups refining a pair of
extensions, and the torsor structure on their classes.

Given extension classes E (of Q by R) and F (of R by P), a variegated class
is an extension class of Q by the twisted middle group of F whose pushout
along the projection to R recovers E.  Classes are compared as extensions of
Q by the middle group, i.e. through filtered isomorphisms that restrict to
the identity on the middle group and induce the identity on Q; this is the
reading forced by the cardinality law fiber * stabilizer = |Ext(Q, P)|,
where the stabilizer of the class-group action is the image of the
connecting map Hom(Q, R) -> Ext(Q, P) attached to F.

Each fiber element carries a butterfly witness: the explicit correction
k : Q -> R identifying its pushout with E on the nose.  Nonemptiness of the
fiber is automatic for finite abelian groups (the second Ext group vanishes),
and is verified rather than assumed.
"""

from dataclasses import dataclass

from ..errors import BudgetExceededError, MonopairError
from .cocycles import (
    Cocycle,
    ExtClass,
    _ext1_classes_unchecked,
    baer_sum,
    class_negate,
    class_of,
    coboundary_of,
    coboundary_witness,
    ext1_order,
    pullback_cocycle,
    reduced_class,
)
from .groups import TwistedGroup, homomorphisms

FIBER_BUDGET = 8


def twisted_middle(f_class):
    """The concrete middle group of an extension class of R by P."""
    return TwistedGroup(
        base=f_class.source, fiber=f_class.target, table_matrix=f_class.cocycle.matrix
    )


def pushforward(w_ext, twisted):
    """Compose a class of Q by the twisted group with its canonical projection.

    Returns the induced class of Q by the base group R, residue by residue:
    the projection is onto, so it carries m*M onto m*R and each residue of
    M / m*M to one of R / m*R.
    """
    if w_ext.target != twisted:
        raise ValueError("class target is not the given twisted group")
    proj = twisted.project_table()
    return reduced_class(w_ext.source, twisted.base, (proj[v] for v in w_ext.residues))


def _projected(w, twisted):
    """The literal table of ``w`` composed with the projection of its
    twisted target onto the base group."""
    proj = twisted.project_table()
    matrix = tuple(tuple(proj[v] for v in row) for row in w.matrix)
    return Cocycle(w.source, twisted.base, matrix, check=False)


@dataclass(frozen=True)
class VariegatedClass:
    """A variegated extension class of E by F.

    ``w`` is the underlying cocycle of Q valued in the middle group of F, and
    ``butterfly`` is the table of a map Q -> R (element indices) whose
    coboundary carries the projection of ``w`` exactly onto E's canonical
    table ``e_class.cocycle``.
    """

    e_class: ExtClass
    f_class: ExtClass
    w: Cocycle
    butterfly: tuple

    @property
    def q_group(self):
        return self.e_class.source

    @property
    def middle(self):
        return self.w.target

    def w_class(self):
        return class_of(self.w)

    def is_isomorphic(self, other):
        """Filtered isomorphism respecting both identifications.

        Equivalent to the two cocycles being cohomologous as extensions of Q
        by the (shared) middle group.
        """
        if self.f_class != other.f_class or self.e_class != other.e_class:
            return False
        return self.w_class().is_cohomologous(other.w_class())

    def total_group(self):
        """The filtered group itself: pairs over Q twisted by ``w``."""
        return TwistedGroup(
            base=self.q_group, fiber=self.middle, table_matrix=self.w.matrix
        )


def check_budget(*groups):
    for g in groups:
        if g.order > FIBER_BUDGET:
            raise BudgetExceededError(
                "variegated-extension budget is order <= %d per group (got %d)"
                % (FIBER_BUDGET, g.order)
            )


def _difference_table(x, y):
    """Pointwise x - y on cocycle tables over the same groups."""
    ops = x.target.ops()
    matrix = tuple(
        tuple(ops.sub(u, v) for u, v in zip(rx, ry)) for rx, ry in zip(x.matrix, y.matrix)
    )
    return Cocycle(x.source, x.target, matrix, check=False)


def extpan_fiber(e_class, f_class):
    """All variegated classes of E by F; nonempty for every input.

    Enumerates the extension classes of Q by the middle group of F and keeps
    the ones whose pushout to R is E, attaching to each the butterfly witness
    identifying the pushout with E exactly.
    """
    q = e_class.source
    r = e_class.target
    if f_class.source != r:
        raise MonopairError(
            "middle group mismatch: E is an extension by %r but F extends %r"
            % (r, f_class.source)
        )
    p = f_class.target
    check_budget(p, q, r)
    middle = twisted_middle(f_class)
    fiber = []
    for cls in _ext1_classes_unchecked(q, middle):
        if pushforward(cls, middle) != e_class:
            continue
        w = cls.cocycle
        pushed = _projected(w, middle)
        k = coboundary_witness(_difference_table(pushed, e_class.cocycle))
        if k is None:
            raise AssertionError("cohomologous pushout without a witness")
        fiber.append(
            VariegatedClass(e_class=e_class, f_class=f_class, w=w, butterfly=tuple(k))
        )
    if not fiber:
        raise AssertionError("variegated fiber is empty; obstruction theory violated")
    return fiber


def act(variegated, x_class):
    """Twist a variegated class by an extension class of Q by P.

    Adds the included table pointwise to ``w``; the projection to R, and
    hence the butterfly witness, is unchanged.
    """
    middle = variegated.middle
    if x_class.source != variegated.q_group or x_class.target != middle.fiber:
        raise MonopairError("acting class must extend Q by the bottom group P")
    include = middle.include_table()
    ops = middle.ops()
    w = variegated.w
    matrix = tuple(
        tuple(ops.add[u][include[v]] for u, v in zip(rw, rx))
        for rw, rx in zip(w.matrix, x_class.cocycle.matrix)
    )
    return VariegatedClass(
        e_class=variegated.e_class,
        f_class=variegated.f_class,
        w=Cocycle(w.source, middle, matrix, check=False),
        butterfly=variegated.butterfly,
    )


def difference(base, target):
    """The extension class of Q by P with act(base, result) isomorphic to target.

    Normalizes the two projections to agree exactly (through a constructive
    coboundary witness over R lifted into the middle group), then reads off
    the pointwise difference, which lands in the included copy of P.  The
    answer is well defined up to the stabilizer, and acting with it on the
    base always lands in the class of the target.
    """
    if base.f_class != target.f_class or base.e_class != target.e_class:
        raise MonopairError("fibers mismatch: the two classes refine different (E, F)")
    middle = base.middle
    q = base.q_group
    r = middle.base
    p = middle.fiber
    k = coboundary_witness(
        _difference_table(_projected(target.w, middle), _projected(base.w, middle))
    )
    if k is None:
        raise MonopairError("fibers mismatch: projections are not cohomologous")
    # Lift k through the canonical section r -> (r, 0) and absorb its
    # coboundary into the target, making both projections literally equal.
    index = middle.ops().index
    section = [index[(e, p.zero())] for e in r.elements()]
    adjust = coboundary_of(q, middle, [section[v] for v in k])
    target_norm = _difference_table(target.w, adjust)
    diff = _difference_table(target_norm, base.w)
    # The normalized difference projects to zero, so it is included from P.
    include = middle.include_table()
    back = {fi: pi for pi, fi in enumerate(include)}
    try:
        matrix = tuple(tuple(back[v] for v in row) for row in diff.matrix)
    except KeyError:
        raise AssertionError("difference does not land in the bottom group")
    return class_of(Cocycle(q, p, matrix, check=False))


def connecting_image(f_class, q):
    """Distinct classes of Q by P obtained by pulling F back along Hom(Q, R).

    This is the image of the connecting map attached to F, i.e. the stabilizer
    of the class-group action on the variegated fiber.
    """
    r = f_class.source
    image = {
        class_of(pullback_cocycle(f_class.cocycle, q, phi))
        for phi in homomorphisms(q, r.ops())
    }
    return sorted(image, key=ExtClass.invariant)


@dataclass(frozen=True)
class TorsorReport:
    fiber_size: int
    ext1_order: int
    stabilizer_order: int
    transitive: bool
    section_ok: bool

    def to_dict(self):
        return {
            "fiber_size": self.fiber_size,
            "ext1_order": self.ext1_order,
            "stabilizer_order": self.stabilizer_order,
            "transitive": self.transitive,
            "section_ok": self.section_ok,
        }


def torsor_report(e_class, f_class):
    """Verify the torsor structure of the variegated fiber on the nose.

    By enumeration: the fiber is nonempty; the class-group action reaches
    every fiber element from every other (``transitive``); and ``difference``
    is a two-sided section: acting with difference(w2, w1) on w1 lands in w2,
    and the difference of (w acted by x) against w returns x up to the
    stabilizer, which itself is checked to be exactly the connecting image of
    F for every fiber element, with the cardinality law
    fiber * stabilizer = |Ext(Q, P)| (all folded into ``section_ok``).
    """
    q = e_class.source
    p = f_class.target
    fiber = extpan_fiber(e_class, f_class)
    order = ext1_order(q, p)
    stabilizer = connecting_image(f_class, q)
    stab_keys = {cls.invariant() for cls in stabilizer}
    x_classes = _ext1_classes_unchecked(q, p)

    transitive = True
    right_section = True
    for w1 in fiber:
        for w2 in fiber:
            d = difference(w1, w2)
            if not act(w1, d).is_isomorphic(w2):
                transitive = False
                right_section = False
    left_section = True
    stab_exact = True
    for w in fiber:
        seen = set()
        for x in x_classes:
            wx = act(w, x)
            if wx.is_isomorphic(w):
                seen.add(x.invariant())
            recovered = baer_sum(difference(w, wx), class_negate(x))
            if recovered.invariant() not in stab_keys:
                left_section = False
        if seen != stab_keys:
            stab_exact = False
    cardinality_ok = len(fiber) * len(stabilizer) == order
    return TorsorReport(
        fiber_size=len(fiber),
        ext1_order=order,
        stabilizer_order=len(stabilizer),
        transitive=transitive,
        section_ok=right_section and left_section and stab_exact and cardinality_ok,
    )
