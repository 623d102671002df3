"""Seeded random instances for the property suites.

Everything takes an explicit ``random.Random`` so runs are reproducible; ids
are zero-padded to make lexicographic and creation order agree.
"""

from .graphs import Edge, MonoidVector, TropicalCurve
from .intlinalg import identity


def _ids(prefix, n):
    """n ids, zero-padded to two digits or more so that they sort in order."""
    return ["%s%0*d" % (prefix, max(2, len(str(n - 1))), k) for k in range(n)]


def random_curve(
    rng,
    max_vertices=8,
    max_edges=16,
    length_range=(1, 5),
    base_rank=1,
    max_genus=0,
):
    """Random connected multigraph curve (self-loops and parallels allowed).

    Arguments that cannot give a valid curve raise ValueError before any draw.
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1, got %r" % (max_vertices,))
    if max_edges < max_vertices - 1:
        raise ValueError(
            "max_edges must be at least max_vertices - 1 = %d, got %r"
            % (max_vertices - 1, max_edges)
        )
    if not 1 <= length_range[0] <= length_range[1]:
        raise ValueError("length_range must be (low, high) with 1 <= low <= high, got %r"
                         % (length_range,))
    if base_rank < 1:
        raise ValueError("base_rank must be at least 1, got %r" % (base_rank,))
    if max_genus < 0:
        raise ValueError("max_genus must be at least 0, got %r" % (max_genus,))
    nv = rng.randint(1, max_vertices)
    names = _ids("v", nv)
    vertices = [(v, rng.randint(0, max_genus) if max_genus else 0) for v in names]

    def random_length():
        return MonoidVector(tuple(rng.randint(*length_range) for _ in range(base_rank)))

    # Spanning tree first, then extra edges anywhere.
    ends = [(rng.randrange(i), i) for i in range(1, nv)]
    extra = rng.randint(0, max_edges - (nv - 1))
    ends += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(extra)]
    built = tuple(
        Edge(id=e, src=names[a], dst=names[b], length=random_length())
        for e, (a, b) in zip(_ids("e", len(ends)), ends)
    )
    return TropicalCurve(base_rank=base_rank, vertices=tuple(vertices), edges=built)


def random_unimodular(rng, h, steps=None):
    """Product of random elementary row operations; determinant is +-1."""
    mat = identity(h)
    if h == 0:
        return mat
    if steps is None:
        steps = 3 * h + 2
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(h)
        j = rng.randrange(h)
        if kind == 0 and i != j:
            k = rng.choice([-2, -1, 1, 2])
            mat[i] = [x + k * y for x, y in zip(mat[i], mat[j])]
        elif kind == 1 and i != j:
            mat[i], mat[j] = mat[j], mat[i]
        elif kind == 2:
            mat[i] = [-x for x in mat[i]]
    return mat
