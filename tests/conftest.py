import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from monopair.graphs import Edge, MonoidVector, TropicalCurve


def loop_curve(m=1, genus=0):
    """One vertex, one self-loop of rank-1 length (m)."""
    return TropicalCurve(
        base_rank=1,
        vertices=(("v0", genus),),
        edges=(Edge("e0", "v0", "v0", MonoidVector((m,))),),
    )


def theta_curve():
    """Two vertices joined by three parallel edges with independent generator
    lengths a, b, c (base rank 3)."""
    def unit(i):
        return MonoidVector(tuple(1 if j == i else 0 for j in range(3)))

    return TropicalCurve(
        base_rank=3,
        vertices=(("u", 0), ("v", 0)),
        edges=tuple(Edge("e%d" % i, "u", "v", unit(i)) for i in range(3)),
    )


def theta_unit_curve():
    """Theta graph with all lengths equal to the single generator."""
    one = MonoidVector((1,))
    return TropicalCurve(
        base_rank=1,
        vertices=(("u", 0), ("v", 0)),
        edges=tuple(Edge("e%d" % i, "u", "v", one) for i in range(3)),
    )


def dumbbell_curve(p=1, q=1, m=1):
    """Two self-loops of lengths p, q joined by a bridge of length m
    (independent generators, base rank 3)."""
    return TropicalCurve(
        base_rank=3,
        vertices=(("u", 0), ("v", 0)),
        edges=(
            Edge("e0", "u", "u", MonoidVector((p, 0, 0))),
            Edge("e1", "v", "v", MonoidVector((0, q, 0))),
            Edge("e2", "u", "v", MonoidVector((0, 0, m))),
        ),
    )


def path_curve():
    """Two vertices, one edge: a tree, so no cycles."""
    return TropicalCurve(
        base_rank=1,
        vertices=(("u", 0), ("v", 0)),
        edges=(Edge("e0", "u", "v", MonoidVector((1,))),),
    )


def curve_of(base_rank, vertices, edges):
    """A curve from vertex ids and (src, dst, length tuple) triples."""
    return TropicalCurve(
        base_rank=base_rank,
        vertices=tuple((v, 0) for v in vertices),
        edges=tuple(
            Edge("e%03d" % k, a, b, MonoidVector(length))
            for k, (a, b, length) in enumerate(edges)
        ),
    )


def random_graph(rng, n_vertices, h, base_rank, top=5, prefix="v"):
    """A random tree on n_vertices plus h edges between uniform endpoints
    (self-loops and parallels included), so the first Betti number is h."""
    names = ["%s%03d" % (prefix, i) for i in range(n_vertices)]
    pairs = [(rng.randrange(i), i) for i in range(1, n_vertices)]
    pairs += [(rng.randrange(n_vertices), rng.randrange(n_vertices)) for _ in range(h)]
    return curve_of(
        base_rank,
        names,
        [(names[a], names[b], tuple(rng.randint(1, top) for _ in range(base_rank)))
         for a, b in pairs],
    )


def disjoint_union(*curves):
    """The curves side by side, their ids prefixed c0, c1, ...; edges renumbered."""
    vertices, edges = [], []
    for k, curve in enumerate(curves):
        vertices += ["c%d%s" % (k, v) for v in curve.vertex_ids]
        edges += [("c%d%s" % (k, e.src), "c%d%s" % (k, e.dst), e.length.coords)
                  for e in curve.edges]
    return curve_of(curves[0].base_rank, vertices, edges)


def smith_unreduced(mat):
    """Nonzero elementary divisors of any integer matrix, by the classical
    loop over the integers: the oracle for ``intlinalg.smith_divisors``.

    There is no modular reduction, so entries can blow up from twenty or so
    rows on.
    """
    a = [list(row) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    divisors = []
    t = 0
    while t < rows and t < cols:
        # Find the entry of least nonzero magnitude in the trailing block.
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        # Clear the pivot row and column; restart whenever a remainder
        # produces a smaller entry (classical reduction loop).
        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                q = a[i][t] // p
                if q:
                    for j in range(t, cols):
                        a[i][j] -= q * a[t][j]
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, cols):
                q = a[t][j] // p
                if q:
                    for i in range(t, rows):
                        a[i][j] -= q * a[i][t]
                if a[t][j]:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    dirty = True
                    break
            if not dirty:
                break
        # Enforce divisibility of the remaining block by the pivot.
        p = a[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, cols):
                a[t][j] += a[offender][j]
            continue
        divisors.append(abs(p))
        t += 1
    return divisors


def hermite_normal_form(mat):
    """Row-style Hermite normal form (canonical basis of the row lattice).

    Pivots are positive, entries above each pivot are reduced into [0, pivot),
    and zero rows are dropped.  Two integer matrices span the same row lattice
    iff their HNFs coincide.
    """
    a = [list(row) for row in mat if any(row)]
    if not a:
        return []
    cols = len(a[0])
    r = 0
    for j in range(cols):
        piv = None
        for i in range(r, len(a)):
            if a[i][j]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        # Clear below via gcd row operations.
        for i in range(r + 1, len(a)):
            while a[i][j]:
                q = a[r][j] // a[i][j]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                a[r], a[i] = a[i], a[r]
        if a[r][j] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][j] // a[r][j]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return [row for row in a[:r]]
