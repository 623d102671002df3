"""The component group from the curve, against oracles on other mathematics.

``pairing.curve_component_group`` builds no Gram matrix: its order D comes
from Kirchhoff's theorem on the vertex Laplacian and its p-parts from small
Laplacians modulo prime powers.  It is checked here

- for D, against the spanning forests enumerated one by one (the
  matrix-tree theorem) and the Bareiss determinant of the Gram matrix;
- for the divisors, against ``component_group`` on the specialized Gram
  matrix (an elimination modulo det B) at h 40-160, and against the
  classical Smith loop of conftest at small h;
- against invariances of the group: splitting an edge in series,
  relabelling, attaching trees and bridges, and disjoint unions.
"""

import random
from itertools import combinations
from math import prod

import pytest

from conftest import curve_of, disjoint_union, random_graph, smith_unreduced
from monopair import pairing
from monopair.errors import InvalidCurveError
from monopair.graphs import (
    Edge,
    MonoidVector,
    TropicalCurve,
    betti_number,
    cycle_basis,
)
from monopair.intlinalg import det
from monopair.pairing import (
    component_group,
    curve_component_group,
    pairing_matrix,
    specialize,
)


def dense_route(curve, weights):
    return component_group(specialize(pairing_matrix(curve, cycle_basis(curve)), weights))


def kirchhoff(curve, weights):
    return pairing._kirchhoff(*pairing._reduced_graph(curve, weights))


def spanning_forests(curve):
    """Every spanning forest, as a set of edge indices: the edge sets of size
    |V| - c (c the number of components) that close no cycle."""
    index = {v: k for k, v in enumerate(curve.vertex_ids)}
    ends = [(index[e.src], index[e.dst]) for e in curve.edges]

    def joins(edge_set):
        """How many edges of the set join two trees of the forest they grow."""
        root = list(range(len(index)))

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        count = 0
        for k in edge_set:
            a, b = find(ends[k][0]), find(ends[k][1])
            if a != b:
                root[a] = b
                count += 1
        return count

    size = joins(range(len(ends)))
    return [set(s) for s in combinations(range(len(ends)), size) if joins(s) == size]


def forest_sum(curve, forests, weights):
    """sum over spanning forests T of prod_{e not in T} l_e(w)."""
    lengths = [e.length.evaluate(weights) for e in curve.edges]
    return sum(
        prod(x for k, x in enumerate(lengths) if k not in forest) for forest in forests
    )


def is_prime_power(d):
    """The prime p when d = p^k with k >= 1, else None."""
    p = next((q for q in range(2, d + 1) if d % q == 0), None)
    while p and d % p == 0:
        d //= p
    return p if p and d == 1 else None


def merged_chain(*groups):
    """Divisors > 1 of a direct sum, from the Smith loop on a diagonal."""
    factors = [d for group in groups for d in group]
    diagonal = [[x if i == j else 0 for j in range(len(factors))]
                for i, x in enumerate(factors)]
    return [d for d in smith_unreduced(diagonal) if d > 1]


def test_known_groups():
    # A 3-cycle of unit edges with loops of length 2 at two of its vertices.
    triangle = curve_of(1, "abc", [("a", "b", (1,)), ("b", "c", (1,)), ("c", "a", (1,)),
                                   ("a", "a", (2,)), ("b", "b", (2,))])
    assert curve_component_group(triangle, [1]) == [2, 6]
    theta = curve_of(3, "uv", [("u", "v", (1, 0, 0)), ("u", "v", (0, 1, 0)),
                              ("u", "v", (0, 0, 1))])
    assert curve_component_group(theta, [1, 1, 1]) == [3]
    assert curve_component_group(theta, [1, 2, 3]) == [11]
    # A tree, an edgeless point and the empty curve have the trivial group.
    assert curve_component_group(curve_of(1, "uvw", [("u", "v", (4,)), ("w", "v", (6,))]), [1]) == []
    assert curve_component_group(curve_of(2, "v", []), [5, 7]) == []
    assert curve_component_group(curve_of(1, "", []), [1]) == []


def test_arguments_are_checked():
    loop = curve_of(1, "v", [("v", "v", (1,))])
    with pytest.raises(ValueError, match="expected 1 weights"):
        curve_component_group(loop, [1, 1])
    with pytest.raises(ValueError, match=">= 1"):
        curve_component_group(loop, [0])
    with pytest.raises(InvalidCurveError):
        curve_component_group(curve_of(1, "v", [("v", "w", (1,))]), [1])


def test_kirchhoff_matches_spanning_forests():
    """The matrix-tree theorem, forest by forest, on curves with at most 14
    edges: self-loops, parallel edges and disconnected curves included.  At
    several weight vectors per curve this also checks the first Symanzik
    polynomial, det B as a polynomial in the base generators."""
    rng = random.Random(211)
    shapes = {"loop": 0, "parallel": 0, "disconnected": 0}
    for k in range(60):
        base_rank = 1 + k % 3
        if k % 4 == 3:
            curve = disjoint_union(random_graph(rng, rng.randint(1, 4), rng.randint(0, 3), base_rank),
                                   random_graph(rng, rng.randint(1, 4), rng.randint(0, 3), base_rank))
        else:
            nv = rng.randint(1, 7)
            curve = random_graph(rng, nv, 14 - (nv - 1) - rng.randint(0, 5), base_rank)
        assert len(curve.edges) <= 14
        ends = [(e.src, e.dst) for e in curve.edges]
        shapes["loop"] += any(a == b for a, b in ends)
        shapes["parallel"] += len({frozenset(p) for p in ends}) < len(ends)
        shapes["disconnected"] += k % 4 == 3
        pm = pairing_matrix(curve, cycle_basis(curve))
        forests = spanning_forests(curve)
        for _ in range(3):
            weights = [rng.randint(1, 6) for _ in range(base_rank)]
            d = forest_sum(curve, forests, weights)
            assert kirchhoff(curve, weights) == d
            assert det(specialize(pm, weights).rows()) == d
            assert prod(curve_component_group(curve, weights)) == d
    assert min(shapes.values()) >= 10, shapes


def test_curve_route_matches_dense_route_past_h_40():
    """Against the Smith form of the specialized Gram matrix at h 40-160,
    base rank 1-3, connected and not, with self-loops among the edges."""
    rng = random.Random(223)
    cases = [
        (12, 40, 1, [1]),
        (3, 50, 3, [1, 2, 3]),
        (30, 60, 2, [2, 1]),
        (20, 80, 3, [1, 1, 2]),
        (6, 120, 1, [3]),
        (40, 160, 2, [1, 3]),
    ]
    loops = 0
    for k, (nv, h, base_rank, weights) in enumerate(cases):
        if k % 2:
            curve = disjoint_union(random_graph(rng, nv // 2 + 1, h // 2, base_rank),
                                   random_graph(rng, nv // 2 + 1, h - h // 2, base_rank))
        else:
            curve = random_graph(rng, nv, h, base_rank)
        assert betti_number(curve) == h
        loops += sum(e.src == e.dst for e in curve.edges)
        assert curve_component_group(curve, weights) == dense_route(curve, weights)
    assert loops >= 10


def test_trivial_and_prime_power_groups():
    # D = 1: a bouquet of unit loops.
    bouquet = curve_of(1, "v", [("v", "v", (1,))] * 40)
    assert curve_component_group(bouquet, [1]) == [] == dense_route(bouquet, [1])
    # D = 2^k with a non-cyclic 2-group: 40 cycles through one vertex, each
    # of 1-4 edges whose lengths add up to 2, 4 or 8.
    rng = random.Random(227)
    edges, vertices = [], ["o"]
    for c in range(40):
        total = 2 ** rng.randint(1, 3)
        cuts = sorted(rng.sample(range(1, total), min(total - 1, rng.randint(0, 3))))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        inner = ["c%02d_%d" % (c, i) for i in range(len(parts) - 1)]
        vertices += inner
        path = ["o"] + inner + ["o"]
        edges += [(a, b, (x,)) for a, b, x in zip(path, path[1:], parts)]
    cactus = curve_of(1, vertices, edges)
    divisors = curve_component_group(cactus, [1])
    assert divisors == dense_route(cactus, [1])
    assert len(divisors) == 40 and all(d & (d - 1) == 0 for d in divisors)
    # D = p^k on random small curves with no cut-vertex structure imposed.
    seen = 0
    for _ in range(400):
        curve = random_graph(rng, rng.randint(2, 6), rng.randint(2, 9), 1)
        d = kirchhoff(curve, [1])
        if not is_prime_power(d) or is_prime_power(d) == d:
            continue
        seen += 1
        assert curve_component_group(curve, [1]) == dense_route(curve, [1])
    assert seen >= 15


def test_cofactor_past_the_trial_division_bound():
    # Lengths with the primes 1013 and 1019, past the trial-division bound:
    # D / D0 has a cofactor that is not a prime, eliminated as one modulus.
    p, q = 1013, 1019
    curve = curve_of(1, "uvw", [("u", "u", (p * q,)), ("u", "v", (p,)), ("v", "u", (p * p,)),
                                ("v", "w", (q,)), ("w", "v", (q * q,)), ("w", "w", (p * q,)),
                                ("u", "w", (1,))])
    assert kirchhoff(curve, [1]) % (p * q) ** 2 == 0
    assert pairing._prime_powers((p * q) ** 2) == [((p * q) ** 2, False)]
    assert pairing._prime_powers(8 * 3 * p) == [(8, False), (3, True), (p, True)]
    divisors = curve_component_group(curve, [1])
    assert divisors[:2] == [p * q, p * q] and divisors == dense_route(curve, [1])
    spec = specialize(pairing_matrix(curve, cycle_basis(curve)), [1])
    assert divisors == [x for x in smith_unreduced(spec.rows()) if x > 1]


def test_curve_route_matches_unreduced_smith():
    rng = random.Random(229)
    for k in range(80):
        base_rank = 1 + k % 3
        nv = rng.randint(1, 8)
        curve = random_graph(rng, nv, rng.randint(0, 10), base_rank, top=7)
        if k % 5 == 4:
            curve = disjoint_union(curve, random_graph(rng, 3, 2, base_rank, top=7))
        weights = [rng.randint(1, 4) for _ in range(base_rank)]
        spec = specialize(pairing_matrix(curve, cycle_basis(curve)), weights)
        assert curve_component_group(curve, weights) == [
            x for x in smith_unreduced(spec.rows()) if x > 1
        ]


def relabelled(curve, rng):
    """New vertex and edge ids, edges in a new order, some reversed."""
    vnames = {v: "w%d" % rng.randrange(10 ** 9) for v in curve.vertex_ids}
    while len(set(vnames.values())) < len(vnames):
        vnames = {v: "w%d" % rng.randrange(10 ** 9) for v in curve.vertex_ids}
    vertices = list(curve.vertices)
    rng.shuffle(vertices)
    edges = [
        (vnames[e.dst], vnames[e.src], e.length.coords) if rng.random() < 0.5
        else (vnames[e.src], vnames[e.dst], e.length.coords)
        for e in curve.edges
    ]
    rng.shuffle(edges)
    ids = rng.sample(range(10 ** 6), len(edges))
    return TropicalCurve(
        base_rank=curve.base_rank,
        vertices=tuple((vnames[v], g) for v, g in vertices),
        edges=tuple(Edge("f%d" % i, a, b, MonoidVector(x)) for i, (a, b, x) in zip(ids, edges)),
    )


def split_in_series(curve, k, rng):
    """Edge k of length a + b cut into a and b at a new vertex."""
    edge = curve.edges[k]
    whole = edge.length.coords
    while True:
        a = tuple(rng.randint(0, x) for x in whole)
        b = tuple(x - y for x, y in zip(whole, a))
        if any(a) and any(b):
            break
    edges = [(e.src, e.dst, e.length.coords) for e in curve.edges]
    edges[k] = (edge.src, "mid", a)
    edges.append(("mid", edge.dst, b))
    return curve_of(curve.base_rank, curve.vertex_ids + ["mid"], edges)


def with_tree(curve, rng, size):
    """A random tree of new vertices hung from one vertex of the curve."""
    vertices = curve.vertex_ids + ["t%02d" % i for i in range(size)]
    edges = [(e.src, e.dst, e.length.coords) for e in curve.edges]
    old = len(curve.vertices)
    for i in range(size):
        parent = vertices[rng.randrange(old + i)]
        edges.append((parent, vertices[old + i],
                      tuple(rng.randint(1, 9) for _ in range(curve.base_rank))))
    return curve_of(curve.base_rank, vertices, edges)


def test_invariance_under_series_split_relabelling_and_trees():
    rng = random.Random(233)
    for k in range(40):
        base_rank = 1 + k % 3
        h = rng.randint(1, 40) if k % 4 else rng.randint(40, 60)
        curve = random_graph(rng, rng.randint(1, 10), h, base_rank, top=6)
        weights = [rng.randint(1, 3) for _ in range(base_rank)]
        base = curve_component_group(curve, weights)
        splittable = [j for j, e in enumerate(curve.edges) if sum(e.length.coords) >= 2]
        if splittable:
            split = split_in_series(curve, rng.choice(splittable), rng)
            assert curve_component_group(split, weights) == base
        assert curve_component_group(relabelled(curve, rng), weights) == base
        assert curve_component_group(with_tree(curve, rng, rng.randint(1, 6)), weights) == base


def test_unions_and_bridges_merge_the_chains():
    rng = random.Random(239)
    for k in range(30):
        base_rank = 1 + k % 2
        parts = [random_graph(rng, rng.randint(1, 6), rng.randint(0, 25), base_rank, top=6,
                              prefix="p%d_" % i)
                 for i in range(rng.randint(2, 3))]
        weights = [rng.randint(1, 3) for _ in range(base_rank)]
        groups = [curve_component_group(part, weights) for part in parts]
        union = disjoint_union(*parts)
        expected = merged_chain(*groups)
        assert curve_component_group(union, weights) == expected
        # Bridges between the parts change nothing.
        edges = [(e.src, e.dst, e.length.coords) for e in union.edges]
        names = union.vertex_ids
        for i in range(1, len(parts)):
            a = rng.choice([v for v in names if v.startswith("c%d" % (i - 1))])
            b = rng.choice([v for v in names if v.startswith("c%d" % i)])
            edges.append((a, b, tuple(rng.randint(1, 9) for _ in range(base_rank))))
        bridged = curve_of(base_rank, names, edges)
        assert curve_component_group(bridged, weights) == expected


def test_work_is_bounded_by_h_not_by_the_vertex_count():
    # Long trees, chains of degree-2 vertices and cycles: the reduced graph
    # keeps n <= 2h non-root vertices, and the group is the dense route's.
    rng = random.Random(241)
    for k in range(24):
        base_rank = 1 + k % 3
        h = rng.randint(0, 12)
        curve = random_graph(rng, rng.randint(150, 300), h, base_rank, top=5)
        if k % 3 == 1:
            curve = with_tree(curve, rng, 40)
        if k % 3 == 2:
            for _ in range(30):
                long = [j for j, e in enumerate(curve.edges) if sum(e.length.coords) >= 2]
                curve = split_in_series(curve, rng.choice(long), rng)
                curve = relabelled(curve, rng)
        weights = [rng.randint(1, 3) for _ in range(base_rank)]
        n, ends, lengths = pairing._reduced_graph(curve, weights)
        assert n <= 2 * h and len(lengths) - n <= h
        assert curve_component_group(curve, weights) == dense_route(curve, weights)
    # A cycle of 200 unit edges is one loop of length 200; a path is nothing.
    names = ["v%03d" % i for i in range(200)]
    cycle = curve_of(1, names, [(names[i - 1], names[i], (1,)) for i in range(200)])
    assert pairing._reduced_graph(cycle, [1]) == (0, [(None, None)], [200])
    assert curve_component_group(cycle, [1]) == [200]
    path = curve_of(1, names, [(names[i - 1], names[i], (1,)) for i in range(1, 200)])
    assert pairing._reduced_graph(path, [1]) == (0, [], [])
    assert curve_component_group(path, [1]) == []
