"""The monodromy pairing of a metrized dual graph, exactly.

On the free abelian group of oriented edges, the pairing sends a pair of
coinciding oriented edges to the edge length and everything else to zero,
extended bilinearly; restricted to the cycle space it is the tropical
intersection pairing.  Values are monoid-group vectors (signs allowed), so a
Gram matrix is one integer matrix per base generator; specializing the
generators at positive integer weights is their weighted sum, the integer
Gram matrix whose Smith normal form gives the component group.

A symmetric integer matrix takes one of two routes.  A matrix made by
``specialize`` from ``pairing_matrix`` carries the cycle basis C it came
from, and is B = C diag(l) C^T with every specialized length l_e >= 1 and C
of full row rank, so x^T B x = sum_e l_e (C^T x)_e^2 > 0 for every x != 0:
it is positive definite, hence nondegenerate, by that certificate, with no
elimination.  Any other matrix (hand-built, reduced mod n, moved by a
unimodular change of basis) is tested by exact Sylvester minors and its
exact determinant.  The component group needs no such test: its Smith form
has fewer than h divisors exactly when the matrix is degenerate.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import add, mul

from .errors import DegeneratePairingError
from .graphs import MonoidVector, check_valid
# ``det`` has no caller here; the benchmark tracer wraps ``pairing.det``.
from .intlinalg import det, leading_minors_all_positive, smith_divisors


def edge_pairing(c1, c2, curve):
    """Bilinear pairing of two oriented-edge chains: sum of c1[e]*c2[e]*length(e)."""
    check_valid(curve)
    ne = len(curve.edges)
    if len(c1) != ne or len(c2) != ne:
        raise ValueError(
            "chain length mismatch: got %d and %d, curve has %d edges"
            % (len(c1), len(c2), ne)
        )
    total = MonoidVector.zero(curve.base_rank)
    for a, b, edge in zip(c1, c2, curve.edges):
        k = a * b
        if k:
            total = total + edge.length.scale(k)
    return total


@dataclass(frozen=True)
class PairingMatrix:
    """Symmetric Gram matrix of the pairing in a chosen cycle basis.

    Stored as its ``base_rank`` coordinate matrices: ``coords[k]`` is the
    symmetric positive semidefinite h x h integer matrix of generator k,
    checked as an ``IntSymMatrix`` is.  ``entries`` reads it as h x h
    monoid-group vectors, built on the first read (only reports need them).
    """

    base_rank: int
    coords: tuple  # base_rank matrices, each h x h of int
    # The CycleBasis whose Gram matrix this is; only ``pairing_matrix`` sets
    # it, so a hand-built matrix can never claim a basis it does not match.
    basis: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        coords = tuple(IntSymMatrix(m).entries for m in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) != self.base_rank:
            raise ValueError("pairing matrix needs one coordinate matrix per generator")
        if any(len(m) != self.h for m in coords):
            raise ValueError("coordinate matrices must all have the same size")

    @property
    def h(self):
        return len(self.coords[0]) if self.coords else 0

    @cached_property
    def entries(self):
        """h x h of MonoidVector, built on the first read."""
        return tuple(
            tuple(MonoidVector(v) for v in zip(*rows)) for rows in zip(*self.coords)
        )

    def coordinate_matrix(self, k):
        """Integer matrix of the k-th generator coordinate of every entry."""
        return [list(row) for row in self.coords[k]]


def pairing_matrix(curve, basis):
    """Gram matrix of the basis rows under the edge pairing.

    Each edge is visited once through the sparse column the basis keeps,
    adding length_k(e) * c_i(e) * c_j(e) to entry (i, j) of generator k's
    lower triangle for every pair of rows i >= j through it; each triangle is
    mirrored once at the end.  With k_e the number of rows through edge e,
    the cost is O(sum over edges of k_e^2 * base_rank) to accumulate plus
    O(h^2 * base_rank) to mirror and check; no per-entry object is made.
    """
    check_valid(curve)
    if basis.curve != curve:
        raise ValueError("cycle basis belongs to a different curve")
    h = basis.h
    lowers = [[[0] * h for _ in range(h)] for _ in range(curve.base_rank)]
    for edge, column in zip(curve.edges, basis.columns):
        for lower, x in zip(lowers, edge.length.coords):
            for a, (i, ci) in enumerate(column):
                row = lower[i]
                k = x * ci
                for j, cj in column[: a + 1]:
                    row[j] += k * cj
    for lower in lowers:  # row i takes column i below the diagonal
        for i, col in enumerate(list(zip(*lower))):
            lower[i][i + 1 :] = col[i + 1 :]
    pm = PairingMatrix(base_rank=curve.base_rank, coords=lowers)
    object.__setattr__(pm, "basis", basis)
    return pm


@dataclass(frozen=True)
class IntSymMatrix:
    """Symmetric integer matrix (a specialized pairing).

    ``basis`` is the CycleBasis of a matrix that ``specialize`` made from a
    ``pairing_matrix`` result, and None otherwise.  It is the certificate
    that the matrix is a Gram matrix C diag(l) C^T with all l_e >= 1, so it
    cannot be passed to the constructor, and it takes no part in equality,
    hashing or repr.
    """

    entries: tuple
    basis: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        entries = tuple(tuple(map(int, row)) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        h = len(entries)
        if any(len(row) != h for row in entries) or tuple(zip(*entries)) != entries:
            raise ValueError("matrix is not symmetric")

    @property
    def h(self):
        return len(self.entries)

    def rows(self):
        return [list(r) for r in self.entries]


def specialize(pm, weights):
    """Evaluate at positive integer weights, one per generator.

    This is the monoid homomorphism on the coordinate matrices: row i of the
    result is sum_k weights[k] * coords[k][i].  The result carries the basis
    of ``pm`` when ``pm`` came from ``pairing_matrix``.
    """
    weights = [int(w) for w in weights]
    if len(weights) != pm.base_rank:
        raise ValueError(
            "expected %d weights (one per base generator), got %d"
            % (pm.base_rank, len(weights))
        )
    if any(w < 1 for w in weights):
        raise ValueError("weights must all be >= 1")
    entries = []
    for rows in zip(*pm.coords):  # row i of every coordinate matrix
        total = repeat(0, pm.h)
        for w, row in zip(weights, rows):
            total = map(add, total, map(mul, repeat(w), row))
        entries.append(total)
    mat = IntSymMatrix(entries)
    object.__setattr__(mat, "basis", pm.basis)
    return mat


def is_positive_definite(mat):
    """True iff the matrix is positive definite; the empty matrix passes.

    A matrix carrying its cycle basis is positive definite by the Gram
    certificate; any other takes the Sylvester test with exact integer minors.
    """
    if not isinstance(mat, IntSymMatrix):
        mat = IntSymMatrix(tuple(tuple(row) for row in mat))
    if mat.basis is not None:
        return True
    return leading_minors_all_positive(mat.rows())


def component_group(mat):
    """Elementary divisors > 1 of a nondegenerate symmetric integer matrix.

    This is the cokernel of the induced map from the cycle lattice to its
    dual, written as a list of cyclic orders d1 | d2 | ...  The divisors come
    from ``smith_divisors``, one per unit of rank; fewer than h of them mean
    a zero determinant, and DegeneratePairingError is raised.  For a
    nondegenerate matrix the Smith form works modulo D = |det|, the order of
    the group, so its entries stay residues mod D.
    """
    if not isinstance(mat, IntSymMatrix):
        mat = IntSymMatrix(tuple(tuple(row) for row in mat))
    divisors = smith_divisors(mat.rows())
    if len(divisors) < mat.h:
        raise DegeneratePairingError("degenerate pairing: determinant is zero")
    return [d for d in divisors if d > 1]


def pairing_matrix_to_dict(pm):
    return {
        "h": pm.h,
        "base_rank": pm.base_rank,
        "entries": [[list(v) for v in zip(*rows)] for rows in zip(*pm.coords)],
    }


def int_matrix_to_dict(mat):
    return {"h": mat.h, "entries": [list(row) for row in mat.entries]}
