"""Extensions of finite abelian groups via normalized symmetric 2-cocycles.

A cocycle is stored as a dense table of target element indices over pairs of
source elements.  Classes (extensions up to equivalence) are compared through
their transgression invariants: summing a cocycle along each cyclic generator
of the source lands in the target modulo the corresponding multiples, and two
cocycles are cohomologous exactly when all these residues agree.  A witness
for the coboundary relation is produced constructively by assembling a
homomorphic section of the classified extension group, never by search; the
exhaustive searches live in ``bruteforce`` as independent oracles.

Representatives of every class come from carry tables: the carry of addition
in each cyclic factor, scaled by a transversal element of the target modulo
that factor.
"""

from itertools import product

from ..errors import BudgetExceededError

EXT_BUDGET = 12


class Cocycle:
    """Normalized symmetric 2-cocycle on a factor-presented source group."""

    def __init__(self, source, target, matrix, check=True):
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(int(v) for v in row) for row in matrix)
        if check:
            self._validate()
        self._invariant = None

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
        for gi, m in enumerate(self.source.factors):
            g = qops.index[self.source.generators()[gi]]
            acc = 0
            power = g
            for _ in range(1, m):
                acc = tops.add[acc][self.matrix[g][power]]
                power = qops.add[g][power]
            out.append(acc)
        return tuple(out)

    def key(self):
        return (self.source.factors, _target_key(self.target), self.matrix)

    def __eq__(self, other):
        return isinstance(other, Cocycle) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def _target_key(target):
    return target.key()


def zero_cocycle(source, target):
    qn = source.order
    row = (0,) * qn
    return Cocycle(source, target, (row,) * qn, check=False)


def add_tables(x, y):
    """Pointwise sum of two cocycles over the same source and target."""
    if x.source != y.source or _target_key(x.target) != _target_key(y.target):
        raise ValueError("cocycles live over different groups")
    add = x.target.ops().add
    matrix = tuple(
        tuple(add[u][v] for u, v in zip(rx, ry)) for rx, ry in zip(x.matrix, y.matrix)
    )
    return Cocycle(x.source, x.target, matrix, check=False)


def negate_table(x):
    neg = x.target.ops().neg
    matrix = tuple(tuple(neg[v] for v in row) for row in x.matrix)
    return Cocycle(x.source, x.target, matrix, check=False)


class ExtClass:
    """An extension class: a cocycle considered up to coboundaries.

    Equality and hashing use the transgression residues, which are a complete
    invariant for finite abelian coefficients (cross-checked exhaustively in
    the test suite at brute-force scale).
    """

    def __init__(self, cocycle):
        self.cocycle = cocycle

    @property
    def source(self):
        return self.cocycle.source

    @property
    def target(self):
        return self.cocycle.target

    def invariant(self):
        if self.cocycle._invariant is None:
            tops = self.target.ops()
            residues = []
            for t, m in zip(self.cocycle.transgressions(), self.source.factors):
                residues.append(tops.coset_table(m)[t])
            self.cocycle._invariant = tuple(residues)
        return self.cocycle._invariant

    def is_cohomologous(self, other):
        if self.source != other.source or _target_key(self.target) != _target_key(
            other.target
        ):
            raise ValueError("classes live over different groups")
        return self.invariant() == other.invariant()

    def is_split(self):
        tops = self.target.ops()
        return all(
            tops.coset_table(m)[0] == r
            for r, m in zip(self.invariant(), self.source.factors)
        )

    def key(self):
        return (self.source.factors, _target_key(self.target), self.invariant())

    def __eq__(self, other):
        return isinstance(other, ExtClass) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "ExtClass(source=%r, invariant=%r)" % (self.source, self.invariant())


def split_class(source, target):
    return ExtClass(zero_cocycle(source, target))


def baer_sum(x, y):
    """Group law on extension classes: pointwise sum of cocycle tables."""
    if x.source != y.source or _target_key(x.target) != _target_key(y.target):
        raise ValueError("Baer sum needs matching source and target groups")
    return ExtClass(add_tables(x.cocycle, y.cocycle))


def class_negate(x):
    return ExtClass(negate_table(x.cocycle))


def carry_cocycle(source, target, params):
    """Carry table scaled by one target element per cyclic factor.

    params: target element indices c_i; the table sends (a, b) to the sum of
    c_i over the factors whose components produce a carry (a_i + b_i >= m_i).
    """
    factors = source.factors
    elems = source.elements()
    tops = target.ops()
    matrix = []
    for a in elems:
        row = []
        for b in elems:
            acc = 0
            for ai, bi, m, c in zip(a, b, factors, params):
                if ai + bi >= m:
                    acc = tops.add[acc][c]
            row.append(acc)
        matrix.append(tuple(row))
    return Cocycle(source, target, tuple(matrix), check=False)


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
    classes = []
    for params in product(*transversals):
        classes.append(ExtClass(carry_cocycle(source, target, params)))
    return classes


def ext1_classes(source, target):
    """Pairwise non-cohomologous representatives of every extension class.

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
    of the source, assembles the homomorphic section of the classified
    extension group from the lifted generators, and reads the witness off its
    first components.  A solution exists exactly when every transgression lies
    in the corresponding multiples subgroup.
    """
    source = diff.source
    target = diff.target
    qops = source.ops()
    tops = target.ops()
    factors = source.factors
    trans = diff.transgressions()
    lift_params = []
    for t, m in zip(trans, factors):
        c = tops.solve_scalar(m, tops.neg[t])
        if c is None:
            return None
        lift_params.append(c)

    # Extension group on pairs (t, q) with addition twisted by diff.
    def xadd(x, y):
        t1, q1 = x
        t2, q2 = y
        return (tops.add[tops.add[t1][t2]][diff.matrix[q1][q2]], qops.add[q1][q2])

    gens = [qops.index[g] for g in source.generators()]
    elems = source.elements()
    h = [0] * source.order
    for qi, e in enumerate(elems):
        acc = (0, 0)
        for a, c, g in zip(e, lift_params, gens):
            step = (c, g)
            for _ in range(a):
                acc = xadd(acc, step)
        assert acc[1] == qi
        h[qi] = tops.neg[acc[0]]
    if coboundary_of(source, target, h).matrix != diff.matrix:
        raise AssertionError("constructed witness does not reproduce the table")
    return h


def is_coboundary(diff):
    return ExtClass(diff).is_split()


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
        for cls in _ext1_classes_unchecked(source, target):
            if not cls.is_split():
                return cls
        raise AssertionError("order-2 class group without a nonsplit class")
    raise ValueError("class spec must be 'split' or 'nonsplit', got %r" % spec)
