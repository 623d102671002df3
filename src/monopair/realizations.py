"""Torsion, Betti, and Hodge shadows of the weight filtration.

The weight-graded dimensions of a degenerating Jacobian are read off the
dual graph: the toric ranks equal the first Betti number h, the abelian part
contributes twice the total vertex genus.  The unipotent monodromy operator
acts on the weight-adapted basis (lowest weight first) by adding a multiple
of the specialized pairing from the top graded piece into the bottom one;
everything is exact integer or residue arithmetic.
"""

from dataclasses import dataclass
from itertools import repeat
from operator import mul

from .graphs import betti_number, check_valid
from .intlinalg import det, rank
from .pairing import IntSymMatrix


@dataclass(frozen=True)
class WeightDims:
    """Dimensions of the three weight-graded pieces of the first cohomology."""

    h: int
    a: int

    @property
    def total(self):
        return 2 * (self.h + self.a)

    @property
    def genus(self):
        return self.h + self.a


def weight_dims(curve):
    check_valid(curve)
    return WeightDims(h=betti_number(curve), a=curve.genus_sum())


def torsion_dims(curve, n):
    """Free ranks over Z/n of the graded pieces of the n-torsion filtration.

    Bottom piece: characters into n-th roots of unity (rank h); middle: the
    n-torsion of the abelian part (rank 2a); top: the lattice mod n (rank h).
    """
    if n < 2:
        raise ValueError("modulus must be >= 2, got %d" % n)
    dims = weight_dims(curve)
    return (dims.h, 2 * dims.a, dims.h)


@dataclass(frozen=True)
class MonodromyOperator:
    """Unipotent monodromy in the weight-adapted basis.

    Basis blocks in order: h coordinates of weight -1, 2a of weight 0, h of
    weight 1.  N - I is supported on the top-right h x h block, which equals
    the winding number times the specialized pairing (mod n when modulus=n).
    """

    modulus: int  # 0 means integer coefficients, else n >= 2
    h: int
    a: int
    w: int
    matrix: tuple

    @property
    def size(self):
        return 2 * (self.h + self.a)

    def rows(self):
        return [list(r) for r in self.matrix]

    def apply(self, vector):
        """Image of a vector: add w * B * (top block of the vector) into the bottom block."""
        if len(vector) != self.size:
            raise ValueError(
                "vector has length %d, expected %d" % (len(vector), self.size)
            )
        out = [
            sum(m * v for m, v in zip(row, vector)) for row in self.matrix
        ]
        if self.modulus:
            out = [x % self.modulus for x in out]
        return out


def picard_lefschetz(B, a, w, modulus=0):
    """Monodromy operator of a loop with the given winding number.

    The action is: a class maps to itself plus the winding number times the
    pairing applied to its top-weight component, landing in the bottom-weight
    block; the middle (abelian) block is fixed.  With modulus n, entries and
    the winding number are interpreted mod n.
    """
    if not isinstance(B, IntSymMatrix):
        B = IntSymMatrix(tuple(tuple(row) for row in B))
    if a < 0:
        raise ValueError("abelian part dimension must be >= 0")
    if modulus != 0 and modulus < 2:
        raise ValueError("modulus must be 0 (integers) or >= 2")
    h = B.h
    if modulus:
        w = w % modulus
    size = 2 * (h + a)
    rows = []
    for i in range(size):
        row = [0] * size
        row[i] = 1
        if i < h:
            scaled = map(mul, repeat(w), B.entries[i])
            row[size - h :] = [x % modulus for x in scaled] if modulus else scaled
        rows.append(tuple(row))
    return MonodromyOperator(modulus=modulus, h=h, a=a, w=w, matrix=tuple(rows))


def monodromy_weight_check(B):
    """True iff the monodromy map from top to bottom weight is an isomorphism
    rationally, i.e. the pairing matrix is nondegenerate.

    A matrix carrying its cycle basis (see ``specialize``) is positive
    definite by the Gram certificate, so it passes with no elimination; any
    other needs a nonzero exact determinant.
    """
    if not isinstance(B, IntSymMatrix):
        B = IntSymMatrix(tuple(tuple(row) for row in B))
    if B.basis is not None:
        return True
    return det(B.rows()) != 0


def nilpotent_rank(op):
    """Rank of N - I over the rationals.

    Only the nonzero rows are eliminated: for an operator from
    ``picard_lefschetz`` those are the top h, holding the w * B block.
    """
    n = op.size
    rows = op.rows()
    for i in range(n):
        rows[i][i] -= 1
    return rank([row for row in rows if any(row)])


@dataclass(frozen=True)
class HodgeTable:
    """Hodge-filtration dimensions of the three weight-graded pieces."""

    h: int
    a: int

    def rows(self):
        # (dim F0, dim F1) for weights -1, 0, 1.
        return (
            (self.h, 0),
            (2 * self.a, self.a),
            (self.h, self.h),
        )

    def f1_total(self):
        return sum(r[1] for r in self.rows())


def hodge_table(curve):
    """Filtration table of the limit mixed structure on first cohomology.

    Weight -1 carries no holomorphic part, weight 0 is the usual abelian
    Hodge structure, weight 1 is entirely holomorphic; the holomorphic column
    sums to the total genus.
    """
    dims = weight_dims(curve)
    return HodgeTable(h=dims.h, a=dims.a)


def operator_to_dict(op):
    return {
        "modulus": op.modulus,
        "h": op.h,
        "a": op.a,
        "w": op.w,
        "matrix": [list(row) for row in op.matrix],
    }


def hodge_table_to_dict(table):
    rows = table.rows()
    return {
        "gr_-1": list(rows[0]),
        "gr_0": list(rows[1]),
        "gr_1": list(rows[2]),
    }


def torsion_dims_to_dict(n, dims):
    return {
        "modulus": n,
        "gr_-1": dims[0],
        "gr_0": dims[1],
        "gr_1": dims[2],
    }
