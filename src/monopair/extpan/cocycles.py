"""Extensions of finite abelian groups.

An extension class of Q by T *is* its residue vector in the direct sum of
the T / m_i T, one entry per cyclic factor Z/m_i of Q: summing a normalized
symmetric 2-cocycle along the i-th generator lands in T, and two cocycles
are cohomologous exactly when these transgressions agree modulo m_i T.
Residues are stored as least-index coset representatives, so classes are
compared, hashed, Baer-summed and negated without any cocycle table.  The
class arithmetic is one lookup per cyclic factor in small tables cached on
the target group's index view and built once per factor list: the coset
table of T modulo m_i T for reduction and negation, and the reduced sum
table (a + b reduced modulo m_i T) for the Baer sum.

A cocycle table is built only where a literal table is needed (twisted
middle groups, pullbacks, butterfly witnesses, the oracles).  The
table of a class is its canonical carry table: the carry of addition in each
cyclic factor, scaled by that factor's residue, built on demand.
``class_of`` reduces any table to its class.  A witness for the coboundary
relation is produced constructively by assembling a homomorphic section of
the classified extension group, never by search; the exhaustive searches
live in ``bruteforce`` as independent oracles.
"""

from itertools import product

from ..errors import BudgetExceededError
from .groups import TwistedGroup

EXT_BUDGET = 12


class Cocycle:
    """Normalized symmetric 2-cocycle on a factor-presented source group.

    ``matrix`` is a tuple of rows of target element indices.  Outside input
    (``check=True``) is coerced to integers and validated; tables built by
    the package (``check=False``) are stored as given.
    """

    def __init__(self, source, target, matrix, check=True):
        self.source = source
        self.target = target
        self.matrix = matrix
        if check:
            self.matrix = tuple(tuple(int(v) for v in row) for row in matrix)
            self._validate()

    def _validate(self):
        qn = self.source.order
        ops = self.target.ops()
        if len(self.matrix) != qn or any(len(row) != qn for row in self.matrix):
            raise ValueError("cocycle table must be %d x %d" % (qn, qn))
        if any(not (0 <= v < ops.n) for row in self.matrix for v in row):
            raise ValueError("cocycle table entry out of range")
        qadd = self.source.ops().add
        f = self.matrix
        for a in range(qn):
            if f[a][0] != 0 or f[0][a] != 0:
                raise ValueError("cocycle is not normalized")
        for a in range(qn):
            for b in range(a, qn):
                if f[a][b] != f[b][a]:
                    raise ValueError("cocycle is not symmetric")
        add = ops.add
        neg = ops.neg
        for a in range(1, qn):
            fa = f[a]
            for b in range(1, qn):
                ab = qadd[a][b]
                fab = f[ab]
                fb = f[b]
                lhs_rhs = fa[b]
                for c in range(1, qn):
                    # f(a,b) + f(a+b,c) == f(b,c) + f(a,b+c)
                    if add[lhs_rhs][fab[c]] != add[fb[c]][fa[qadd[b][c]]]:
                        raise ValueError(
                            "cocycle identity fails at element indices (%d, %d, %d)"
                            % (a, b, c)
                        )

    def transgressions(self):
        """Sum along each cyclic generator, as target element indices."""
        qops = self.source.ops()
        tops = self.target.ops()
        out = []
        for gen, m in zip(self.source.generators(), self.source.factors):
            g = qops.index[gen]
            acc = 0
            power = g
            for _ in range(1, m):
                acc = tops.add[acc][self.matrix[g][power]]
                power = qops.add[g][power]
            out.append(acc)
        return tuple(out)

    def key(self):
        return (self.source.factors, self.target.key(), self.matrix)

    def __eq__(self, other):
        return isinstance(other, Cocycle) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def zero_cocycle(source, target):
    return split_class(source, target).cocycle


class ExtClass:
    """An extension class of ``source`` by ``target``: its residue vector.

    ``residues[i]`` is the least target index in the coset of the class's
    transgression along the i-th cyclic factor Z/m_i of the source, modulo
    m_i times the target.  The residues are a complete invariant for finite
    abelian coefficients (cross-checked exhaustively in the test suite at
    brute-force scale), so identity, equality and hashing read only them.
    """

    __slots__ = ("source", "target", "residues", "_cocycle")

    def __init__(self, source, target, residues):
        self.source = source
        self.target = target
        self.residues = tuple(residues)
        self._cocycle = None

    @property
    def cocycle(self):
        """The canonical carry table of the residues, built on first use."""
        if self._cocycle is None:
            self._cocycle = carry_cocycle(self.source, self.target, self.residues)
        return self._cocycle

    def invariant(self):
        return self.residues

    def is_cohomologous(self, other):
        _require_same_groups(self, other)
        return self.residues == other.residues

    def is_split(self):
        return not any(self.residues)

    def __eq__(self, other):
        return isinstance(other, ExtClass) and (
            self.residues, self.source, self.target
        ) == (other.residues, other.source, other.target)

    def __hash__(self):
        return hash((self.source.factors, self.residues))

    def __repr__(self):
        return "ExtClass(%r, %r, %r)" % (self.source, self.target, self.residues)


def _require_same_groups(x, y):
    if x.source != y.source or x.target != y.target:
        raise ValueError("extension classes live over different groups")


def reduced_class(source, target, transgressions):
    """The class whose transgression along the i-th cyclic factor of the
    source is the i-th given target element (any coset representative)."""
    cosets = target.ops().coset_tables(source.factors)
    return ExtClass(source, target, [c[t] for c, t in zip(cosets, transgressions)])


def class_of(cocycle):
    """The extension class of a cocycle table."""
    return reduced_class(cocycle.source, cocycle.target, cocycle.transgressions())


def split_class(source, target):
    return ExtClass(source, target, (0,) * len(source.factors))


def baer_sum(x, y):
    """Group law on extension classes: residues add factor by factor."""
    _require_same_groups(x, y)
    sums = x.target.ops().reduced_sums(x.source.factors)
    return ExtClass(
        x.source, x.target, [s[r][t] for s, r, t in zip(sums, x.residues, y.residues)]
    )


def class_negate(x):
    ops = x.target.ops()
    neg, cosets = ops.neg, ops.coset_tables(x.source.factors)
    return ExtClass(x.source, x.target, [c[neg[r]] for c, r in zip(cosets, x.residues)])


def carry_cocycle(source, target, params):
    """Carry table scaled by one target element per cyclic factor.

    params: target element indices c_i; the table sends (a, b) to the sum of
    c_i over the factors whose components produce a carry (a_i + b_i >= m_i).
    """
    add = target.ops().add
    # sums[mask] is the sum of c_i over the set bits i of mask.
    sums = [0]
    for c in params:
        sums += [add[v][c] for v in sums]
    matrix = tuple(tuple(map(sums.__getitem__, row)) for row in source.carry_masks())
    return Cocycle(source, target, matrix, check=False)


def ext1_order(source, target):
    """Order of the extension-class group: product over factors of |T / m T|."""
    tops = target.ops()
    n = 1
    for m in source.factors:
        n *= len(tops.coset_transversal(m))
    return n


def _ext1_classes_unchecked(source, target):
    tops = target.ops()
    transversals = [tops.coset_transversal(m) for m in source.factors]
    return [ExtClass(source, target, params) for params in product(*transversals)]


def ext1_classes(source, target):
    """Every extension class, once: all residue vectors of transversal
    elements, in lexicographic order.

    Brute-force budget: both groups of order <= 12.
    """
    if source.order > EXT_BUDGET or target.order > EXT_BUDGET:
        raise BudgetExceededError(
            "extension enumeration budget is order <= %d per group (got %d and %d)"
            % (EXT_BUDGET, source.order, target.order)
        )
    return _ext1_classes_unchecked(source, target)


def coboundary_of(source, target, h):
    """The coboundary table of h: source index -> target index, h[0] = 0."""
    qops = source.ops()
    tops = target.ops()
    qn = source.order
    matrix = []
    for a in range(qn):
        row = []
        for b in range(qn):
            row.append(tops.sub(tops.add[h[a]][h[b]], h[qops.add[a][b]]))
        matrix.append(tuple(row))
    return Cocycle(source, target, tuple(matrix), check=False)


def coboundary_witness(diff):
    """h with delta-h == diff, or None; constructive, no search.

    Solves m_i * c_i = -(transgression_i) in the target for each cyclic factor
    of the source.  The lifted generators (g_i, c_i) of the extension group
    classified by diff (``TwistedGroup(source, target, diff)``) then span a
    homomorphic section, summed in that group's index tables; the witness is
    read off the fiber components of the section's element tuples.  A
    solution exists exactly when every transgression lies in the
    corresponding multiples subgroup.
    """
    source = diff.source
    target = diff.target
    tops = target.ops()
    trans = diff.transgressions()
    lift_params = []
    for t, m in zip(trans, source.factors):
        c = tops.solve_scalar(m, tops.neg[t])
        if c is None:
            return None
        lift_params.append(c)

    xops = TwistedGroup(source, target, diff.matrix).ops()
    telems = target.elements()
    lifts = [xops.index[(g, telems[c])] for g, c in zip(source.generators(), lift_params)]
    h = []
    for e in source.elements():
        acc = 0
        for a, lift in zip(e, lifts):
            acc = xops.add[acc][xops.scalar(a, lift)]
        q, t = xops.elems[acc]
        assert q == e
        h.append(tops.neg[tops.index[t]])
    if coboundary_of(source, target, h).matrix != diff.matrix:
        raise AssertionError("constructed witness does not reproduce the table")
    return h


def is_coboundary(diff):
    return class_of(diff).is_split()


def pullback_cocycle(f, source, phi):
    """Pull a cocycle back along a homomorphism given as an index table.

    f lives over (R, T); phi maps source element indices to R element indices;
    the result lives over (source, T).
    """
    qn = source.order
    matrix = tuple(
        tuple(f.matrix[phi[a]][phi[b]] for b in range(qn)) for a in range(qn)
    )
    return Cocycle(source, f.target, matrix, check=False)


def parse_class_spec(spec, source, target):
    """Extension-class CLI spec: ``split`` or ``nonsplit``.

    ``nonsplit`` is only meaningful when the class group has order exactly 2;
    it denotes the unique nonsplit class.
    """
    if spec == "split":
        return split_class(source, target)
    if spec == "nonsplit":
        if ext1_order(source, target) != 2:
            raise ValueError(
                "'nonsplit' needs the extension-class group to have order 2, "
                "got order %d" % ext1_order(source, target)
            )
        # Classes come in lexicographic residue order, the split one first.
        return _ext1_classes_unchecked(source, target)[1]
    raise ValueError("class spec must be 'split' or 'nonsplit', got %r" % spec)
