"""Variegated extensions: three-step filtered groups refining a pair of
extensions, and the torsor structure on their classes.

Given extension classes E (of Q by R) and F (of R by P), a variegated class
is an extension class of Q by the twisted middle group M of F whose pushout
along the projection to R recovers E.  Classes are compared as extensions of
Q by M, i.e. through filtered isomorphisms that restrict to the identity on
M and induce the identity on Q; this is the reading forced by the
cardinality law fiber * stabilizer = |Ext(Q, P)|, where the stabilizer of
the class-group action is the image of the connecting map
Hom(Q, R) -> Ext(Q, P) attached to F.

A variegated class is its residue vector in the direct sum of the M / m_i M.
Ext(Q, P) -> Ext(Q, M) -> Ext(Q, R) -> 0 is exact (the second Ext group
vanishes), so the fiber over E is one lift of E's residues moved by every
class of Q by P, and the action and differences work residue by residue.
Each is one lookup per cyclic factor Z/m of Q in tables that the middle
group caches for Q's factor list (``TwistedGroup.factor_tables``): the
action table of w + include(x) modulo m*M, the coset table of M modulo
m*M, and the least preimage in P of each coset the inclusion meets.  The
tables live on the middle group that ``extpan_fiber`` builds, so nothing is
kept from one fiber to the next.
The butterfly witness, the explicit correction k : Q -> R identifying the
pushout with E on the nose, is built only when it is read.
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


class VariegatedClass:
    """A variegated extension class of E by F.

    ``cls`` is the class of Q by the middle group of F; it is the whole
    identity of the variegated class.  ``w`` is its canonical cocycle table,
    and ``butterfly`` is the table of a map Q -> R (element indices) whose
    coboundary carries the projection of ``w`` exactly onto E's canonical
    table ``e_class.cocycle``.  Both tables are built on first read.
    """

    __slots__ = ("e_class", "f_class", "cls", "_butterfly")

    def __init__(self, e_class, f_class, cls):
        self.e_class = e_class
        self.f_class = f_class
        self.cls = cls
        self._butterfly = None

    def __eq__(self, other):
        if not isinstance(other, VariegatedClass):
            return NotImplemented
        return (self.cls, self.e_class, self.f_class) == (other.cls, other.e_class, other.f_class)

    def __hash__(self):
        return hash((self.e_class, self.f_class, self.cls))

    def __repr__(self):
        return "VariegatedClass(e_class=%r, f_class=%r, cls=%r)" % (
            self.e_class, self.f_class, self.cls
        )

    @property
    def q_group(self):
        return self.cls.source

    @property
    def middle(self):
        return self.cls.target

    @property
    def w(self):
        return self.cls.cocycle

    @property
    def butterfly(self):
        if self._butterfly is None:
            pushed = _projected(self.w, self.middle)
            k = coboundary_witness(_difference_table(pushed, self.e_class.cocycle))
            if k is None:
                raise AssertionError("cohomologous pushout without a witness")
            self._butterfly = tuple(k)
        return self._butterfly

    def w_class(self):
        return self.cls

    def is_isomorphic(self, other):
        """Filtered isomorphism respecting both identifications.

        Equivalent to equal classes as extensions of Q by the (shared) middle
        group, over the same E and F.
        """
        return self == other

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
    """All variegated classes of E by F, in lexicographic residue order.

    Lifts each residue of E through the projection of the middle group onto
    R (any preimage will do: the projection is onto), then acts on the lift
    with every class of Q by P.  By exactness this reaches the whole fiber,
    which is therefore never empty.
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
    proj = middle.project_table()
    lift = reduced_class(q, middle, (proj.index(v) for v in e_class.residues))
    base = VariegatedClass(e_class=e_class, f_class=f_class, cls=lift)
    fiber = {act(base, x) for x in _ext1_classes_unchecked(q, p)}
    return sorted(fiber, key=lambda wv: wv.cls.residues)


def act(variegated, x_class):
    """Twist a variegated class by an extension class of Q by P.

    Adds the included residues factor by factor, one lookup in the middle
    group's action table each; the projection to R is unchanged, so the
    result lies over the same E.
    """
    w = variegated.cls
    q, middle = w.source, w.target
    if (x_class.source, x_class.target) != (q, middle.fiber):
        raise MonopairError("acting class must extend Q by the bottom group P")
    acts, _, _ = middle.factor_tables(q.factors)
    residues = [a[r][x] for a, r, x in zip(acts, w.residues, x_class.residues)]
    return VariegatedClass(variegated.e_class, variegated.f_class, ExtClass(q, middle, residues))


def difference(base, target):
    """The extension class of Q by P with act(base, result) isomorphic to target.

    Along each cyclic factor Z/m of Q the residue difference d in M / m*M
    maps to zero in R / m*R, so by right exactness of
    P / m*P -> M / m*M -> R / m*R -> 0 it is the image of some p in P; the
    least such p is taken, read from the middle group's preimage table.  The
    answer is well defined up to the stabilizer, and acting with it on the
    base always lands in the class of the target.
    """
    if (base.e_class, base.f_class) != (target.e_class, target.f_class):
        raise MonopairError("fibers mismatch: the two classes refine different (E, F)")
    q, middle = base.cls.source, base.cls.target
    ops = middle.ops()
    add, neg = ops.add, ops.neg
    _, cosets, pres = middle.factor_tables(q.factors)
    preimages = []
    for coset, pre, b, t in zip(cosets, pres, base.cls.residues, target.cls.residues):
        p = pre.get(coset[add[t][neg[b]]])
        if p is None:
            raise MonopairError("fibers mismatch: projections are not cohomologous")
        preimages.append(p)
    return ExtClass(q, middle.fiber, preimages)


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
    """Verify the torsor structure of the variegated fiber on residues.

    By enumeration over the residue calculus: the fiber is nonempty; the
    class-group action reaches every fiber element from every other
    (``transitive``); and ``difference`` is a two-sided section: acting with
    difference(w2, w1) on w1 lands in w2, and the difference of (w acted by x)
    against w returns x up to the stabilizer.  The stabilizer of every fiber
    element under the action is checked to be exactly the connecting image
    of F, which is computed independently from pulled-back tables, and the
    cardinality law fiber * stabilizer = |Ext(Q, P)| must hold (all folded
    into ``section_ok``).  The on-the-nose table check of the fiber and the
    action is the oracle test against ``bruteforce``.
    """
    q = e_class.source
    p = f_class.target
    fiber = extpan_fiber(e_class, f_class)
    order = ext1_order(q, p)
    stabilizer = connecting_image(f_class, q)
    stab_keys = {cls.invariant() for cls in stabilizer}
    x_classes = _ext1_classes_unchecked(q, p)
    negated = [class_negate(x) for x in x_classes]

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
        for x, minus_x in zip(x_classes, negated):
            wx = act(w, x)
            if wx.is_isomorphic(w):
                seen.add(x.invariant())
            recovered = baer_sum(difference(w, wx), minus_x)
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
