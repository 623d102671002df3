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

The component group of a curve has a second route that builds no cycle
basis and no Gram matrix (``curve_component_group``).  By Raynaud it is the
critical group of the dual graph with every edge cut into l_e unit edges,
so its order comes from Kirchhoff's theorem on the vertex Laplacian, and
its p-parts from one small Laplacian per prime power.  ``component_group``
on the Gram matrix is different mathematics, and is that route's oracle.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from math import gcd, lcm, prod
from operator import add, mul

from .errors import DegeneratePairingError
from .graphs import MonoidVector, check_valid
from .intlinalg import (
    _cyclic_orders_mod,
    det,
    int_row,
    int_rows,
    invariant_chain,
    leading_minors_all_positive,
    smith_divisors,
)


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
    hashing or repr.  Entries are integers: ints, bools and integral floats
    are stored as ints, and any other value (0.5, "2") raises ValueError.
    """

    entries: tuple
    basis: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        entries = int_rows(self.entries)
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
    weights = _checked_weights(weights, pm.base_rank)
    entries = []
    for rows in zip(*pm.coords):  # row i of every coordinate matrix
        total = map(mul, repeat(weights[0]), rows[0])
        for w, row in zip(weights[1:], rows[1:]):
            total = map(add, total, map(mul, repeat(w), row))
        entries.append(total)
    mat = IntSymMatrix(entries)
    object.__setattr__(mat, "basis", pm.basis)
    return mat


def _checked_weights(weights, base_rank):
    weights = int_row(weights)
    if len(weights) != base_rank:
        raise ValueError(
            "expected %d weights (one per base generator), got %d"
            % (base_rank, len(weights))
        )
    if any(w < 1 for w in weights):
        raise ValueError("weights must all be >= 1")
    return weights


def is_positive_definite(mat):
    """True iff the matrix is positive definite; the empty matrix passes.

    A matrix carrying its cycle basis is positive definite by the Gram
    certificate; any other takes the Sylvester test with exact integer minors.
    """
    if not isinstance(mat, IntSymMatrix):
        mat = IntSymMatrix(mat)
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

    This is the route for any integer matrix.  For a curve,
    ``curve_component_group`` gives the same list from the graph alone; this
    dense route on the specialized Gram matrix is its oracle.
    """
    if not isinstance(mat, IntSymMatrix):
        mat = IntSymMatrix(mat)
    divisors = smith_divisors(mat.rows())
    if len(divisors) < mat.h:
        raise DegeneratePairingError("degenerate pairing: determinant is zero")
    return [d for d in divisors if d > 1]


def curve_component_group(curve, weights):
    """Elementary divisors > 1 of the component group of a curve at weights.

    The list equals ``component_group(specialize(pairing_matrix(curve,
    cycle_basis(curve)), weights))``, but no cycle basis and no Gram matrix
    is built.  By Raynaud (Publ. IHES 38, 1970) the group is the critical
    group of the dual graph with every edge e cut into l_e = l_e(w) unit
    edges.  Trees hanging off the graph and vertices of degree 2 do not
    change that group, so they are removed first (``_reduced_graph``) and
    the work is bounded by h, not by |V|.  With one root per component, the
    group is presented by the potentials phi_v of the n <= 2h other vertices
    and one flow t_e per edge: a row phi(dst) - phi(src) - l_e t_e per edge
    and a row sum_in t_e - sum_out t_e per non-root vertex.

    - Its order D = |det B| comes from Kirchhoff's theorem (``_kirchhoff``).
    - The part D0 of D prime to every l_e: each flow is l_e^-1 times a
      potential difference mod D0, so the n-square Laplacian with
      conductances l_e^-1 mod D0 presents the D0-part.
    - D / D0 is split into prime powers by trial division, with any
      leftover cofactor taken as one more modulus.  Modulo each m, the flow
      of an edge with gcd(l_e, m) = 1 drops out the same way; the other
      edges keep their flow as a row and a column.

    A part of prime order p is Z/p.  Every other presentation is eliminated
    by ``intlinalg._cyclic_orders_mod`` over Z/m, whose orders must multiply
    to m (``_local_chain``).  The parts are coprime, so their chains,
    aligned at the top, multiply entry by entry to the chain of the whole
    group; that product must be D, or ArithmeticError is raised.
    """
    n, ends, lengths = _reduced_graph(curve, weights)
    d = _kirchhoff(n, ends, lengths)
    d0 = d
    for x in set(lengths):
        g = gcd(d0, x)
        while g > 1:
            d0 //= g
            g = gcd(d0, g)
    parts = _prime_powers(d // d0)
    if d0 > 1:
        parts.append((d0, False))
    chains = [[m] if prime else _local_chain(n, ends, lengths, m) for m, prime in parts]
    chains = [[x for x in chain if x > 1] for chain in chains]
    width = max(map(len, chains), default=0)
    merged = [1] * width
    for chain in chains:
        for i, x in enumerate(chain, width - len(chain)):
            merged[i] *= x
    if prod(merged) != d:
        raise ArithmeticError(
            "component group of order %d: the local chains multiply to %d"
            % (d, prod(merged))
        )
    return merged


def _reduced_graph(curve, weights):
    """``(n, ends, lengths)`` of a valid curve at valid weights.

    Two moves that keep the group are made first, so that every non-root
    vertex has degree 3 or more and n <= 2h: a leaf goes with its edge, a
    bridge, and a vertex of degree 2 with no self-loop goes by joining its
    two edges into one whose length is their sum.  One vertex per connected
    component of what is left is a root, None; the other n are numbered
    0..n-1.  ``ends`` holds the (src, dst) numbers of each edge and
    ``lengths`` its specialized length.
    """
    check_valid(curve)
    weights = _checked_weights(weights, curve.base_rank)
    edges = [[e.src, e.dst, e.length.evaluate(weights)] for e in curve.edges]
    incident = {v: [] for v in curve.vertex_ids}
    for k, (u, v, _) in enumerate(edges):
        incident[u].append(k)
        incident[v].append(k)
    leaves = [v for v, ks in incident.items() if len(ks) == 1]
    while leaves:
        v = leaves.pop()
        if len(incident[v]) != 1:  # its last edge went with a leaf neighbour
            continue
        k = incident[v].pop()
        u, w, _ = edges[k]
        other = w if u == v else u
        incident[other].remove(k)
        edges[k] = None
        if len(incident[other]) == 1:
            leaves.append(other)
    for v, ks in list(incident.items()):
        if len(ks) == 2 and ks[0] != ks[1]:
            a, b = ks
            (u, x, la), (w, y, lb) = edges[a], edges[b]
            edges[a] = [x if u == v else u, y if w == v else w, la + lb]
            edges[b] = None
            far = incident[edges[a][1]]
            far[far.index(b)] = a
            del incident[v]
    edges = [e for e in edges if e is not None]
    parent = {v: v for v, ks in incident.items() if ks}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in edges:
        parent[find(u)] = find(v)
    number = {}
    for v in parent:
        if find(v) != v:
            number[v] = len(number)
    ends = [(number.get(u), number.get(v)) for u, v, _ in edges]
    return len(number), ends, [x for _, _, x in edges]


def _laplacian(n, ends, conductances):
    """n x n Laplacian of the non-root vertices; self-loops do not enter."""
    lap = [[0] * n for _ in range(n)]
    for (u, v), c in zip(ends, conductances):
        if u == v:
            continue
        if u is not None:
            lap[u][u] += c
        if v is not None:
            lap[v][v] += c
            if u is not None:
                lap[u][v] -= c
                lap[v][u] -= c
    return lap


def _kirchhoff(n, ends, lengths):
    """D = |det B| = sum over spanning forests T of prod_{e not in T} l_e.

    By the matrix-tree theorem that is prod_e l_e * det L(1/l) for the
    reduced Laplacian L with conductances 1/l_e; every forest has n edges.
    Scaled to integers by M = lcm(l), it is prod_e l_e * det L(M/l) / M^n,
    one exact determinant and a division that must leave no remainder.  A
    self-loop is in no forest, so it enters the product only.
    """
    top = lcm(*lengths)
    scaled = prod(lengths) * det(_laplacian(n, ends, [top // x for x in lengths]))
    d, rest = divmod(scaled, top ** n)
    if rest or d < 1:
        raise ArithmeticError(
            "Kirchhoff determinant %d is not a positive multiple of %d^%d" % (scaled, top, n)
        )
    return d


def _prime_powers(n):
    """Coprime factors of n as pairs (m, prime): the prime powers for p
    below 1000, then the cofactor, if it is not 1.  ``prime`` is True when
    m is known to be a prime."""
    parts = []
    p = 2
    while n > 1 and p < 1000:
        if p * p > n:
            return parts + [(n, True)]
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            parts.append((q, q == p))
        p += 1 if p == 2 else 2
    if n > 1:
        parts.append((n, False))
    return parts


def _local_chain(n, ends, lengths, m):
    """Chain of the m-part of the component group, for m coprime to D / m.

    The presentation over Z/m: the Laplacian with conductances l_e^-1 mod m
    for the edges with gcd(l_e, m) = 1, and for each other edge its flow,
    as a column (+1 at dst, -1 at src) and as the row
    phi(dst) - phi(src) - l_e t_e.
    """
    inverse = {x: pow(x, -1, m) for x in set(lengths) if gcd(x, m) == 1}
    kept = [k for k, x in enumerate(lengths) if x not in inverse]
    conductances = [inverse.get(x, 0) for x in lengths]
    mat = _laplacian(n, ends, conductances)
    size = n + len(kept)
    for row in mat:
        row.extend([0] * len(kept))
    for j, k in enumerate(kept, n):
        u, v = ends[k]
        row = [0] * size
        row[j] = -lengths[k]
        if u is not None:
            row[u] -= 1
            mat[u][j] -= 1
        if v is not None:
            row[v] += 1
            mat[v][j] += 1
        mat.append(row)
    orders = _cyclic_orders_mod(mat, m, order=True)
    if prod(orders) != m:
        raise ArithmeticError(
            "component group mod %d: the cyclic orders multiply to %d" % (m, prod(orders))
        )
    return invariant_chain(orders)


def pairing_matrix_to_dict(pm):
    return {
        "h": pm.h,
        "base_rank": pm.base_rank,
        "entries": [[list(v) for v in zip(*rows)] for rows in zip(*pm.coords)],
    }


def int_matrix_to_dict(mat):
    return {"h": mat.h, "entries": [list(row) for row in mat.entries]}
