"""Finite abelian groups as dense index tables.

Two concrete kinds are used: direct sums of cyclic groups presented by a
factor list, and twisted groups built on pairs (r, p) whose addition is
corrected by a symmetric 2-cocycle table; the latter realize the middle
groups of extensions without ever choosing a splitting.

Every group has a cached index view (``ops()``): dense addition and
negation tables over 0-based indices, 0 being the zero element.  The pair
(r, p) of an extension of R by P has index r*|P| + p, and one builder makes
the tables of both kinds from those of R and P; a direct sum is folded in one
cyclic factor at a time with zero twist.  The order is thus the lexicographic
one of the element tuples, which are only a view for input, output, the tests
and naming the components of a pair; no other module relies on the encoding.
"""

from itertools import product

from ..errors import InputFormatError
from ..intlinalg import parse_int


def _pair_tables(radd, rneg, padd, pneg, twist):
    """Addition and negation tables of the pairs (r, p) at index r*|P| + p,
    where (r1, p1) + (r2, p2) = (r1 + r2, p1 + p2 + twist[r1][r2]) and so
    -(r, p) = (-r, -(p + twist[r][-r]))."""
    pn = len(pneg)
    add = [
        [rs * pn + v for rs, t in zip(rrow, trow) for v in padd[prow[t]]]
        for rrow, trow in zip(radd, twist)
        for prow in padd
    ]
    neg = [nr * pn + pneg[padd[p][trow[nr]]] for nr, trow in zip(rneg, twist) for p in range(pn)]
    return add, neg


class GroupOps:
    """Index view of a finite abelian group: dense ``add`` and ``neg`` tables,
    plus the element tuples ``elems`` and ``index``, a view for I/O and tests."""

    def __init__(self, elems, add, neg):
        self.elems = tuple(elems)
        self.n = len(self.elems)
        self.index = {e: i for i, e in enumerate(self.elems)}
        self.add = add
        self.neg = neg
        self._coset_reps = {}
        self._multiples = {}
        # Tables gathered per factor list of a source group.
        self._factor_cosets = {}
        self._factor_sums = {}
        # Coboundary constraints grouped by level, built by the first
        # brute-force witness search over this group as its source.
        self.search_setup = None

    def sub(self, i, j):
        return self.add[i][self.neg[j]]

    def scalar(self, k, i):
        out = 0
        if k < 0:
            k, i = -k, self.neg[i]
        row = i
        for _ in range(k):
            out = self.add[out][row]
        return out

    def multiples_subgroup(self, m):
        """Sorted indices of the subgroup of m-th multiples."""
        if m not in self._multiples:
            self._multiples[m] = tuple(
                sorted({self.scalar(m, i) for i in range(self.n)})
            )
        return self._multiples[m]

    def coset_table(self, m):
        """Canonical representative (least index) of i + m*G for every i."""
        if m not in self._coset_reps:
            sub = self.multiples_subgroup(m)
            self._coset_reps[m] = tuple(
                min(self.add[i][s] for s in sub) for i in range(self.n)
            )
        return self._coset_reps[m]

    def coset_tables(self, factors):
        """``coset_table(m)`` for each m of a factor list."""
        tables = self._factor_cosets.get(factors)
        if tables is None:
            tables = self._factor_cosets[factors] = tuple(map(self.coset_table, factors))
        return tables

    def reduced_sums(self, factors):
        """For each m of a factor list, the table of coset_table(m)[a + b]
        over index pairs (a, b)."""
        tables = self._factor_sums.get(factors)
        if tables is None:
            tables = self._factor_sums[factors] = tuple(
                tuple(tuple(coset[v] for v in row) for row in self.add)
                for coset in self.coset_tables(factors)
            )
        return tables

    def coset_transversal(self, m):
        """Canonical representatives of G / m*G, in increasing index order."""
        reps = sorted(set(self.coset_table(m)))
        return tuple(reps)

    def elements_killed_by(self, m):
        """Indices of all x with m*x = 0, in increasing order."""
        return tuple(i for i in range(self.n) if self.scalar(m, i) == 0)

    def solve_scalar(self, m, target):
        """Least index x with m*x == target, or None."""
        for i in range(self.n):
            if self.scalar(m, i) == target:
                return i
        return None


class FinAbGroup:
    """Direct sum of cyclic groups Z/m_i, elements as reduced integer tuples."""

    def __init__(self, factors):
        factors = tuple(int(m) for m in factors)
        if any(m < 2 for m in factors):
            raise InputFormatError("group factors must all be >= 2, got %r" % (factors,))
        self.factors = factors
        self._ops = None
        self._elements = None
        self._carry_masks = None
        self._generators = None

    @property
    def order(self):
        n = 1
        for m in self.factors:
            n *= m
        return n

    @property
    def is_trivial(self):
        return not self.factors

    def elements(self):
        if self._elements is None:
            self._elements = tuple(product(*(range(m) for m in self.factors)))
        return self._elements

    def zero(self):
        return (0,) * len(self.factors)

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.factors))

    def neg(self, a):
        return tuple((-x) % m for x, m in zip(a, self.factors))

    def generators(self):
        """Unit tuple generating each cyclic factor."""
        if self._generators is None:
            units = range(len(self.factors))
            self._generators = tuple(tuple(int(j == i) for j in units) for i in units)
        return self._generators

    def carry_masks(self):
        """Table over pairs of element indices: bit i of entry (a, b) is set
        where the i-th components carry, a_i + b_i >= m_i.  Built once."""
        if self._carry_masks is None:
            elems = self.elements()
            bits = tuple(enumerate(self.factors))
            self._carry_masks = tuple(
                tuple(sum(1 << i for i, m in bits if a[i] + b[i] >= m) for b in elems)
                for a in elems
            )
        return self._carry_masks

    def ops(self):
        if self._ops is None:
            # Z/m1 + ... + Z/mk as split extensions by one factor at a time.
            add, neg = [[0]], [0]
            for m in self.factors:
                cyclic = [[(a + b) % m for b in range(m)] for a in range(m)]
                no_twist = [[0] * len(neg)] * len(neg)
                add, neg = _pair_tables(add, neg, cyclic, [-a % m for a in range(m)], no_twist)
            self._ops = GroupOps(self.elements(), add, neg)
        return self._ops

    def key(self):
        return ("fin", self.factors)

    def __eq__(self, other):
        return self is other or (isinstance(other, FinAbGroup) and self.factors == other.factors)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if not self.factors:
            return "FinAbGroup(trivial)"
        return "FinAbGroup(%s)" % ",".join(str(m) for m in self.factors)


class TwistedGroup:
    """Pairs (r, p) with addition twisted by a symmetric cocycle on r.

    This is the middle group of the extension of ``base`` (the quotient R) by
    ``fiber`` (the subgroup P) classified by the given table: projection drops
    the p component, inclusion plants p over r = 0.  The pair of base index r
    and fiber index p has index r*|P| + p.
    """

    def __init__(self, base, fiber, table_matrix):
        self.base = base
        self.fiber = fiber
        # table_matrix: |R| x |R| matrix of fiber element indices.
        self.table = tuple(tuple(row) for row in table_matrix)
        self._ops = None
        pelems = fiber.elements()
        self._elements = tuple((r, p) for r in base.elements() for p in pelems)
        self._project = None
        self._include = range(fiber.order)
        self._factor_tables = {}

    @property
    def order(self):
        return self.base.order * self.fiber.order

    def elements(self):
        return self._elements

    def zero(self):
        return (self.base.zero(), self.fiber.zero())

    def ops(self):
        if self._ops is None:
            rops = self.base.ops()
            pops = self.fiber.ops()
            add, neg = _pair_tables(rops.add, rops.neg, pops.add, pops.neg, self.table)
            self._ops = GroupOps(self.elements(), add, neg)
        return self._ops

    def project_table(self):
        """Element index -> base element index.  Built once."""
        if self._project is None:
            pn = self.fiber.order
            self._project = tuple(i // pn for i in range(self.order))
        return self._project

    def include_table(self):
        """Fiber element index -> element index: (0, p) has index p."""
        return self._include

    def factor_tables(self, factors):
        """For the cyclic factors Z/m of a source group, three tuples with
        one entry per factor:

        - the |M| x |P| action table: at (w, x), the coset of
          w + include(x) modulo m*M, as its least index;
        - M's ``coset_table(m)``;
        - a dict from each coset of m*M that the inclusion meets, as its
          least index, to the least p included into it.  The p included
          into one coset form a union of cosets of m*P, so that p is also
          the least index of its own coset of m*P.
        """
        tables = self._factor_tables.get(factors)
        if tables is None:
            ops = self.ops()
            cosets = ops.coset_tables(factors)
            acts, preimages = [], []
            for coset in cosets:
                acts.append(tuple(tuple(coset[row[v]] for v in self._include) for row in ops.add))
                pre = {}
                for p, v in enumerate(self._include):
                    pre.setdefault(coset[v], p)
                preimages.append(pre)
            tables = self._factor_tables[factors] = (tuple(acts), cosets, tuple(preimages))
        return tables

    def key(self):
        return ("twisted", self.base.key(), self.fiber.key(), self.table)

    def __eq__(self, other):
        return self is other or (isinstance(other, TwistedGroup) and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "TwistedGroup(base=%r, fiber=%r)" % (self.base, self.fiber)


def homomorphisms(source, target_ops):
    """All homomorphisms from a factor-presented group into an indexed group.

    Each is returned as a tuple mapping source element index -> target element
    index.  A homomorphism is determined by generator images of compatible
    order, assembled through the normal form of each source element.
    """
    factors = source.factors
    elems = source.elements()
    if not factors:
        return ((0,),)
    ops = target_ops
    candidate_images = [ops.elements_killed_by(m) for m in factors]
    homs = []
    for images in product(*candidate_images):
        table = []
        for e in elems:
            acc = 0
            for a, img in zip(e, images):
                acc = ops.add[acc][ops.scalar(a, img)]
            table.append(acc)
        homs.append(tuple(table))
    return tuple(homs)


def parse_group_spec(spec):
    """Group from a comma-separated factor list, e.g. ``2,4`` = Z/2 + Z/4.

    Factors equal to 1 are dropped (so ``1`` denotes the trivial group);
    factors <= 0 are rejected.
    """
    text = spec.strip()
    if not text:
        raise InputFormatError("empty group spec")
    factors = []
    for part in text.split(","):
        part = part.strip()
        try:
            m = parse_int(part)
        except ValueError:
            raise InputFormatError("group spec %r: %r is not an integer" % (spec, part))
        if m <= 0:
            raise InputFormatError(
                "group spec %r: factor %d must be positive (use 1 for the trivial group)"
                % (spec, m)
            )
        if m > 1:
            factors.append(m)
    return FinAbGroup(tuple(factors))
