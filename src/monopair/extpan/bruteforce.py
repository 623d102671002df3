"""Independent brute-force oracles for the extension calculus.

Everything here re-derives answers from first principles so the fast routes
in ``cocycles`` and ``variegated`` can be checked against them: exhaustive
coboundary-witness search, direct enumeration of all normalized symmetric
cocycle tables (searched, not constructed from representatives), closure of
the coboundary subgroup from its generators, and an exact-linear-algebra
count of cocycles via Smith normal form.  The two backtracking searches live
in ``monopair._kernels`` and read the group tables of ``GroupOps`` as they
are.
"""

from itertools import product

from .. import _kernels
from ..intlinalg import kernel_count_mod
from .cocycles import Cocycle, _ext1_classes_unchecked, class_of
from .variegated import _difference_table, _projected, twisted_middle


def search_coboundary_witness(diff):
    """Exhaustive search for h with delta-h == diff; oracle twin of the
    constructive witness.  Returns the lexicographically least h or None."""
    qops = diff.source.ops()
    tops = diff.target.ops()
    if qops.search_setup is None:
        qops.search_setup = _kernels.coboundary_constraints(qops.add)
    return _kernels.search_coboundary(tops.add, tops.neg, diff.matrix, qops.search_setup)


def count_cocycles_mod(source, n, collect=False):
    """Number (or list) of normalized symmetric Z/n-cocycle tables on source,
    found by leveled backtracking over table entries."""
    system = _kernels.cocycle_system(source.ops().add, n)
    return _kernels.count_cocycles(n, system, collect=collect)


def count_cocycles_linalg(source, n):
    """Same count through exact linear algebra: the cocycle identity over all
    element triples is a homogeneous integer system on the upper-triangle
    unknowns, and solutions mod n are counted from its elementary divisors."""
    qops = source.ops()
    q = qops.n
    pidx = {}
    for a in range(1, q):
        for b in range(a, q):
            pidx[(a, b)] = len(pidx)
    if not pidx:
        return 1

    def slot(x, y):
        if x == 0 or y == 0:
            return None
        return pidx[(x, y) if x <= y else (y, x)]

    rows = []
    for a in range(1, q):
        for b in range(1, q):
            ab = qops.add[a][b]
            for c in range(1, q):
                bc = qops.add[b][c]
                row = [0] * len(pidx)
                for s, sign in (
                    (slot(a, b), 1),
                    (slot(ab, c), 1),
                    (slot(b, c), -1),
                    (slot(a, bc), -1),
                ):
                    if s is not None:
                        row[s] += sign
                if any(row):
                    rows.append(row)
    if not rows:
        return n ** len(pidx)
    return kernel_count_mod(rows, n)


def coboundary_subgroup_order(source, n):
    """Order of the subgroup of coboundary tables with values in Z/n,
    enumerated by closure from the coboundaries of indicator maps."""
    qops = source.ops()
    q = qops.n
    pairs = [(a, b) for a in range(1, q) for b in range(a, q)]
    if not pairs:
        return 1
    gens = []
    for q0 in range(1, q):
        table = []
        for a, b in pairs:
            v = (a == q0) + (b == q0) - (qops.add[a][b] == q0)
            table.append(v % n)
        gens.append(tuple(table))
    closure = {(0,) * len(pairs)}
    for g in gens:
        if g in closure:
            continue
        cyclic = []
        x = g
        while x not in cyclic and any(x):
            cyclic.append(x)
            x = tuple((u + v) % n for u, v in zip(x, g))
        grown = set()
        for s in closure:
            grown.add(s)
            for x in cyclic:
                grown.add(tuple((u + v) % n for u, v in zip(s, x)))
        closure = grown
    return len(closure)


def ext1_order_exhaustive(source, target):
    """Class count by exhaustive coboundary-quotient counting, component by
    component in the target: (number of cocycle tables) / (number of
    coboundary tables), multiplied over the cyclic factors."""
    order = 1
    for n in target.factors:
        z2 = count_cocycles_mod(source, n)
        b2 = coboundary_subgroup_order(source, n)
        if z2 % b2:
            raise AssertionError("coboundary subgroup does not divide the cocycles")
        order *= z2 // b2
    return order


def ext1_order_linalg(source, target):
    """Class count by exact linear algebra: cocycles counted by elimination
    of the identity system over Z/n, coboundaries as maps modulo
    homomorphisms.

    Independent of the table representatives and cheap at any budget, so it
    cross-checks the counting where full enumeration is too expensive.
    """
    q = source.order
    order = 1
    for n in target.factors:
        z2 = count_cocycles_linalg(source, n)
        c1 = n ** (q - 1)
        homs = sum(
            1
            for _ in _scan_homs_mod(source, n)
        )
        if (z2 * homs) % c1:
            raise AssertionError("cocycle count is not divisible by the coboundaries")
        order *= z2 * homs // c1
    return order


def _scan_homs_mod(source, n):
    """All homomorphisms source -> Z/n, by scanning generator images."""
    candidates = []
    for m in source.factors:
        candidates.append([x for x in range(n) if (m * x) % n == 0])
    return product(*candidates)


def all_cocycle_tables_literal(source, target):
    """Every normalized symmetric cocycle table, by filtering the full product
    of value assignments.  Only viable at tiny orders; used as the most naive
    oracle of all."""
    qops = source.ops()
    tops = target.ops()
    q = qops.n
    pairs = [(a, b) for a in range(1, q) for b in range(a, q)]
    tables = []
    for values in product(range(tops.n), repeat=len(pairs)):
        lookup = dict(zip(pairs, values))

        def f(x, y):
            if x == 0 or y == 0:
                return 0
            return lookup[(x, y) if x <= y else (y, x)]

        ok = True
        for a in range(1, q):
            for b in range(1, q):
                for c in range(1, q):
                    lhs = tops.add[f(a, b)][f(qops.add[a][b], c)]
                    rhs = tops.add[f(b, c)][f(a, qops.add[b][c])]
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            matrix = tuple(tuple(f(a, b) for b in range(q)) for a in range(q))
            tables.append(Cocycle(source, target, matrix, check=False))
    return tables


def extpan_fiber_exhaustive(e_class, f_class):
    """Oracle twin of ``variegated.extpan_fiber``: every class of Q by the
    middle group of F, in enumeration order, whose canonical table projected
    onto R lies in the class of E."""
    middle = twisted_middle(f_class)
    return [
        cls
        for cls in _ext1_classes_unchecked(e_class.source, middle)
        if class_of(_projected(cls.cocycle, middle)) == e_class
    ]


def variegated_iso_search(first, second):
    """Oracle for variegated isomorphism: exhaustive search for a filtered
    isomorphism fixing the middle group pointwise and inducing the identity
    on Q, i.e. a coboundary witness between the two middle-valued tables."""
    if first.f_class != second.f_class or first.e_class != second.e_class:
        return False
    return search_coboundary_witness(_difference_table(first.w, second.w)) is not None


def hom_count_exhaustive(source, target):
    """Number of homomorphisms, counted by scanning generator images."""
    tops = target.ops()
    count = 1
    for m in source.factors:
        count *= len(tops.elements_killed_by(m))
    return count
