"""The edge pairing, its Gram matrices, specializations, and diagnostics."""

import dataclasses
import random

import pytest

from conftest import dumbbell_curve, loop_curve, theta_curve, theta_unit_curve
from monopair.errors import DegeneratePairingError
from monopair.graphs import CycleBasis, Edge, MonoidVector, TropicalCurve, cycle_basis
from monopair.intlinalg import det, leading_minors_all_positive, mat_mul, transpose
from monopair.pairing import (
    IntSymMatrix,
    PairingMatrix,
    component_group,
    curve_component_group,
    edge_pairing,
    int_matrix_to_dict,
    is_positive_definite,
    pairing_matrix,
    pairing_matrix_to_dict,
    specialize,
)
from monopair.randomgen import random_curve, random_unimodular
from monopair.realizations import monodromy_weight_check


def pairing_oracle(c1, c2, curve):
    """Independent bilinear expansion, coordinate by coordinate."""
    total = [0] * curve.base_rank
    for k in range(curve.base_rank):
        for x, y, edge in zip(c1, c2, curve.edges):
            total[k] += x * y * edge.length.coords[k]
    return tuple(total)


def test_edge_pairing_single_edges():
    curve = theta_curve()
    # Coinciding oriented edges give the length; distinct edges give zero.
    e0 = [1, 0, 0]
    e1 = [0, 1, 0]
    assert edge_pairing(e0, e0, curve).coords == (1, 0, 0)
    assert edge_pairing(e0, e1, curve).coords == (0, 0, 0)


def test_edge_pairing_theta_cross_term():
    curve = theta_curve()
    c1 = [-1, 1, 0]
    c2 = [-1, 0, 1]
    value = edge_pairing(c1, c2, curve)
    assert value.coords == (1, 0, 0)
    assert value.coords == pairing_oracle(c1, c2, curve)


def test_edge_pairing_rejects_length_mismatch():
    with pytest.raises(ValueError):
        edge_pairing([1], [1, 0], theta_curve())


def test_edge_pairing_bilinear_symmetric_random():
    rng = random.Random(23)
    for _ in range(50):
        curve = random_curve(rng, base_rank=rng.randint(1, 3))
        ne = len(curve.edges)
        c1 = [rng.randint(-3, 3) for _ in range(ne)]
        c1b = [rng.randint(-3, 3) for _ in range(ne)]
        c2 = [rng.randint(-3, 3) for _ in range(ne)]
        left = edge_pairing([a + b for a, b in zip(c1, c1b)], c2, curve)
        split = edge_pairing(c1, c2, curve) + edge_pairing(c1b, c2, curve)
        assert left == split
        assert edge_pairing(c1, c2, curve) == edge_pairing(c2, c1, curve)
        assert edge_pairing(c1, c2, curve).coords == pairing_oracle(c1, c2, curve)


def test_pairing_matrix_loop():
    curve = loop_curve()
    pm = pairing_matrix(curve, cycle_basis(curve))
    assert [[v.coords for v in row] for row in pm.entries] == [[(1,)]]


def test_pairing_matrix_theta():
    curve = theta_curve()
    basis = cycle_basis(curve)
    pm = pairing_matrix(curve, basis)
    # [[a+b, a], [a, a+c]] in generator coordinates.
    assert [[v.coords for v in row] for row in pm.entries] == [
        [(1, 1, 0), (1, 0, 0)],
        [(1, 0, 0), (1, 0, 1)],
    ]
    for i, ri in enumerate(basis.matrix):
        for j, rj in enumerate(basis.matrix):
            assert pm.entries[i][j].coords == pairing_oracle(ri, rj, curve)


def large_curve(rng, n_vertices, h, base_rank):
    """Connected curve with first Betti number h: a random spanning tree, a
    self-loop, an edge parallel to a tree edge, and h - 2 random edges."""
    pairs = [(rng.randrange(i), i) for i in range(1, n_vertices)]
    pairs += [(0, 0), pairs[0]]
    pairs += [(rng.randrange(n_vertices), rng.randrange(n_vertices)) for _ in range(h - 2)]
    return TropicalCurve(
        base_rank=base_rank,
        vertices=tuple(("v%03d" % i, 0) for i in range(n_vertices)),
        edges=tuple(
            Edge(
                "e%03d" % k,
                "v%03d" % a,
                "v%03d" % b,
                MonoidVector(tuple(rng.randint(1, 5) for _ in range(base_rank))),
            )
            for k, (a, b) in enumerate(pairs)
        ),
    )


def test_pairing_matrix_matches_oracle_large():
    rng = random.Random(47)
    for base_rank in (1, 2, 3):
        curve = large_curve(rng, 20, 40 + base_rank, base_rank)
        basis = cycle_basis(curve)
        moved = mat_mul(random_unimodular(rng, basis.h), [list(r) for r in basis.matrix])
        # Add a row through the densest column to every row missing it, so
        # that all h rows pass through one edge (still a unimodular move).
        dense = max(range(len(curve.edges)), key=lambda e: sum(1 for r in moved if r[e]))
        p = next(i for i, r in enumerate(moved) if r[dense])
        for i, r in enumerate(moved):
            if not r[dense]:
                moved[i] = [x + y for x, y in zip(r, moved[p])]
        assert all(r[dense] for r in moved)
        moved_basis = CycleBasis(curve=curve, matrix=tuple(tuple(r) for r in moved))
        for b in (basis, moved_basis):
            pm = pairing_matrix(curve, b)
            for i, ri in enumerate(b.matrix):
                for j, rj in enumerate(b.matrix):
                    assert pm.entries[i][j].coords == pairing_oracle(ri, rj, curve)


def test_coordinate_matrices_match_oracles_past_h_40():
    """Random curves with h in 40..60 and base rank 3: the specialization is
    C diag(l(w)) C^T, every entry is the bilinear expansion, every coordinate
    matrix is symmetric, and a basis moved by the caller keeps its columns."""
    rng = random.Random(83)
    curves = []
    while len(curves) < 3:
        curve = random_curve(rng, max_vertices=40, max_edges=130, base_rank=3)
        if 40 <= len(curve.edges) - len(curve.vertices) + 1 <= 60:
            curves.append(curve)
    for curve in curves:
        basis = cycle_basis(curve)
        moved_rows = mat_mul(random_unimodular(rng, basis.h), [list(r) for r in basis.matrix])
        moved = CycleBasis(curve=curve, matrix=tuple(map(tuple, moved_rows)))
        for b in (basis, moved):
            rows = [list(r) for r in b.matrix]
            dense = [[0] * b.h for _ in curve.edges]
            for e, column in enumerate(b.columns):
                for i, c in column:
                    dense[e][i] = c
            assert len(b.columns) == len(curve.edges) and dense == transpose(rows)
            pm = pairing_matrix(curve, b)
            assert pm.h == b.h >= 40
            for k in range(3):
                coord = pm.coordinate_matrix(k)
                assert coord == transpose(coord)
            for i, ri in enumerate(rows):
                for j, rj in enumerate(rows):
                    assert pm.entries[i][j].coords == pairing_oracle(ri, rj, curve)
            weights = [rng.randint(1, 9) for _ in range(3)]
            lengths = [e.length.evaluate(weights) for e in curve.edges]
            diag = [[x if i == j else 0 for j in range(len(lengths))] for i, x in enumerate(lengths)]
            expected = mat_mul(mat_mul(rows, diag), transpose(rows))
            assert [list(r) for r in specialize(pm, weights).entries] == expected


def test_pairing_matrix_dumbbell_bridge_free():
    curve = dumbbell_curve(1, 1, 1)
    pm = pairing_matrix(curve, cycle_basis(curve))
    assert [[v.coords for v in row] for row in pm.entries] == [
        [(1, 0, 0), (0, 0, 0)],
        [(0, 0, 0), (0, 1, 0)],
    ]


def test_pairing_matrix_checks_its_coordinate_matrices():
    pm = PairingMatrix(base_rank=2, coords=([[1, 2], [2, 5]], [[0, 1], [1, 0]]))
    assert pm.h == 2 and pm.coords[0] == ((1, 2), (2, 5))
    assert [[v.coords for v in row] for row in pm.entries] == [
        [(1, 0), (2, 1)],
        [(2, 1), (5, 0)],
    ]
    for base_rank, coords in (
        (1, ([[1, 2], [3, 1]],)),  # not symmetric
        (1, ([[1, 2]],)),  # not square
        (2, ([[1]],)),  # one matrix short
        (2, ([[1]], [[1, 0], [0, 1]])),  # sizes differ
    ):
        with pytest.raises(ValueError):
            PairingMatrix(base_rank=base_rank, coords=coords)


def test_pairing_matrix_rejects_foreign_basis():
    with pytest.raises(ValueError):
        pairing_matrix(theta_curve(), cycle_basis(loop_curve()))


def test_specialize_examples():
    loop = loop_curve()
    pm = pairing_matrix(loop, cycle_basis(loop))
    assert specialize(pm, [3]).entries == ((3,),)

    theta = theta_curve()
    tm = pairing_matrix(theta, cycle_basis(theta))
    spec = specialize(tm, [1, 1, 1])
    assert spec.entries == ((2, 1), (1, 2))

    bell = dumbbell_curve(1, 1, 1)
    bm = pairing_matrix(bell, cycle_basis(bell))
    assert specialize(bm, [2, 5, 7]).entries == ((2, 0), (0, 5))

    with pytest.raises(ValueError):
        specialize(pm, [0])
    with pytest.raises(ValueError):
        specialize(pm, [1, 1])


def test_specialize_commutes_with_entries():
    rng = random.Random(29)
    for _ in range(25):
        curve = random_curve(rng, base_rank=rng.randint(1, 3))
        pm = pairing_matrix(curve, cycle_basis(curve))
        weights = [rng.randint(1, 5) for _ in range(curve.base_rank)]
        spec = specialize(pm, weights)
        for i in range(pm.h):
            for j in range(pm.h):
                assert spec.entries[i][j] == pm.entries[i][j].evaluate(weights)


def test_positive_definite_examples():
    assert is_positive_definite(IntSymMatrix(((2, 1), (1, 2)))) is True
    assert is_positive_definite(IntSymMatrix(((1, 2), (2, 1)))) is False
    assert is_positive_definite(IntSymMatrix(())) is True
    with pytest.raises(ValueError):
        IntSymMatrix(((1, 2), (3, 1)))


def test_component_group_examples():
    assert component_group(IntSymMatrix(((6,),))) == [6]
    assert component_group(IntSymMatrix(((2, 1), (1, 2)))) == [3]
    assert component_group(IntSymMatrix(((1, 0), (0, 1)))) == []
    with pytest.raises(DegeneratePairingError, match="degenerate pairing"):
        component_group(IntSymMatrix(((0,),)))


def test_no_entry_or_weight_is_truncated():
    """Integral floats and bools are read as ints; a matrix entry or a
    weight that int() would truncate raises ValueError naming it."""
    assert is_positive_definite([[2.0, True], [1, 2]]) is True
    assert component_group([[2.0, 0], [0, 3]]) == [6]
    for bad in ([[0.5]], [[2.7, 0], [0, 3]], [["2"]]):
        with pytest.raises(ValueError, match="not an integer"):
            is_positive_definite(bad)
        with pytest.raises(ValueError, match="not an integer"):
            component_group(bad)
    loop = loop_curve()
    pm = pairing_matrix(loop, cycle_basis(loop))
    assert specialize(pm, [3.0]).entries == ((3,),)
    with pytest.raises(ValueError, match="1.5"):
        specialize(pm, [1.5])
    with pytest.raises(ValueError, match="2.5"):
        curve_component_group(loop, [2.5])


def test_tate_family_component_groups():
    for m in range(1, 11):
        curve = loop_curve(m)
        spec = specialize(pairing_matrix(curve, cycle_basis(curve)), [1])
        assert spec.entries == ((m,),)
        assert component_group(spec) == ([m] if m > 1 else [])


def test_positive_definite_random_sweep():
    rng = random.Random(31)
    for _ in range(200):
        curve = random_curve(rng)
        spec = specialize(pairing_matrix(curve, cycle_basis(curve)), [1])
        assert is_positive_definite(spec)


def test_basis_change_conjugates_gram():
    rng = random.Random(37)
    for _ in range(25):
        curve = random_curve(rng)
        basis = cycle_basis(curve)
        pm = pairing_matrix(curve, basis)
        h = basis.h
        if h == 0:
            continue
        u = random_unimodular(rng, h)
        moved_rows = mat_mul(u, [list(r) for r in basis.matrix])
        moved_basis = CycleBasis(curve=curve, matrix=tuple(tuple(r) for r in moved_rows))
        moved_pm = pairing_matrix(curve, moved_basis)
        # Entrywise equality with U B U^T computed one generator at a time.
        for k in range(curve.base_rank):
            coord = pm.coordinate_matrix(k)
            expected = mat_mul(mat_mul(u, coord), transpose(u))
            assert moved_pm.coordinate_matrix(k) == expected
        spec = specialize(pm, [1])
        moved_spec = specialize(moved_pm, [1])
        assert is_positive_definite(spec) == is_positive_definite(moved_spec)
        assert component_group(spec) == component_group(moved_spec)


def test_tree_edge_length_is_irrelevant_when_unused():
    # The dumbbell bridge lies in the forest and in no fundamental cycle.
    first = dumbbell_curve(2, 3, 1)
    second = dumbbell_curve(2, 3, 9)
    pm1 = pairing_matrix(first, cycle_basis(first))
    pm2 = pairing_matrix(second, cycle_basis(second))
    assert pm1.entries == pm2.entries


def test_unused_forest_edge_perturbation_random():
    rng = random.Random(43)
    checked = 0
    while checked < 20:
        curve = random_curve(rng)
        basis = cycle_basis(curve)
        unused = [
            j
            for j in range(len(curve.edges))
            if all(row[j] == 0 for row in basis.matrix)
        ]
        if not unused:
            continue
        j = rng.choice(unused)
        edges = list(curve.edges)
        e = edges[j]
        edges[j] = Edge(e.id, e.src, e.dst, MonoidVector((e.length.coords[0] + 7,)))
        perturbed = TropicalCurve(curve.base_rank, curve.vertices, tuple(edges))
        pm = pairing_matrix(curve, basis)
        pm2 = pairing_matrix(perturbed, cycle_basis(perturbed))
        assert pm.entries == pm2.entries
        checked += 1


def test_semidefinite_per_generator():
    rng = random.Random(41)
    for _ in range(20):
        curve = random_curve(rng, base_rank=3)
        pm = pairing_matrix(curve, cycle_basis(curve))
        for k in range(3):
            coord = pm.coordinate_matrix(k)
            # Positive semidefinite: all leading minors of B + I monotone trick
            # is overkill; check x^T B x >= 0 on random integer vectors.
            for _ in range(10):
                x = [rng.randint(-3, 3) for _ in range(pm.h)]
                val = sum(
                    x[i] * coord[i][j] * x[j]
                    for i in range(pm.h)
                    for j in range(pm.h)
                )
                assert val >= 0


def test_json_shapes():
    theta = theta_curve()
    pm = pairing_matrix(theta, cycle_basis(theta))
    blob = pairing_matrix_to_dict(pm)
    assert blob["h"] == 2 and blob["base_rank"] == 3
    assert blob["entries"][0][0] == [1, 1, 0]
    spec = specialize(pm, [1, 1, 1])
    assert int_matrix_to_dict(spec) == {"h": 2, "entries": [[2, 1], [1, 2]]}
    rng = random.Random(29)
    for _ in range(20):
        curve = random_curve(rng, base_rank=rng.randint(1, 3))
        pm = pairing_matrix(curve, cycle_basis(curve))
        assert pairing_matrix_to_dict(pm) == {
            "h": pm.h,
            "base_rank": curve.base_rank,
            "entries": [[list(v.coords) for v in row] for row in pm.entries],
        }


def test_disconnected_pairing_is_block_diagonal():
    two_loops = TropicalCurve(
        base_rank=1,
        vertices=(("u", 0), ("v", 0)),
        edges=(
            Edge("e0", "u", "u", MonoidVector((2,))),
            Edge("e1", "v", "v", MonoidVector((5,))),
        ),
    )
    spec = specialize(pairing_matrix(two_loops, cycle_basis(two_loops)), [1])
    assert spec.entries == ((2, 0), (0, 5))
    assert is_positive_definite(spec)
    # Cokernel of diag(2, 5) is cyclic of order 10 (the factors are coprime).
    assert component_group(spec) == [10]


def test_unit_theta_matches_rank_three_theta():
    spec3 = specialize(
        pairing_matrix(theta_curve(), cycle_basis(theta_curve())), [1, 1, 1]
    )
    spec1 = specialize(
        pairing_matrix(theta_unit_curve(), cycle_basis(theta_unit_curve())), [1]
    )
    assert spec3.entries == spec1.entries


def disjoint_union(*curves):
    """One curve with the given curves as its connected components."""
    vertices = []
    edges = []
    for k, curve in enumerate(curves):
        tag = "c%d" % k
        vertices += [(tag + vid, genus) for vid, genus in curve.vertices]
        edges += [
            Edge(tag + e.id, tag + e.src, tag + e.dst, e.length) for e in curve.edges
        ]
    return TropicalCurve(curves[0].base_rank, tuple(vertices), tuple(edges))


def banana_chain(rng, bananas):
    """Connected unit-length curve: vertex pairs joined by 2-6 parallel edges,
    some with a self-loop, strung together by bridges."""
    pairs = []
    for b in range(bananas):
        u, v = 2 * b, 2 * b + 1
        pairs += [(u, v)] * rng.randint(2, 6) + [(v, v)] * rng.randint(0, 1)
        if b:
            pairs.append((u - 1, u))
    rng.shuffle(pairs)
    return TropicalCurve(
        base_rank=1,
        vertices=tuple(("v%03d" % i, 0) for i in range(2 * bananas)),
        edges=tuple(
            Edge("e%03d" % k, "v%03d" % a, "v%03d" % b, MonoidVector((1,)))
            for k, (a, b) in enumerate(pairs)
        ),
    )


def test_certified_verdicts_match_elimination_large():
    rng = random.Random(61)
    cases = [
        (large_curve(rng, 30, 80, 1), [1]),
        (large_curve(rng, 27, 81, 3), [1, 2, 3]),
        (disjoint_union(large_curve(rng, 12, 40, 1), large_curve(rng, 9, 42, 1)), [1]),
        (
            disjoint_union(large_curve(rng, 12, 40, 3), large_curve(rng, 5, 41, 3)),
            [1, 2, 3],
        ),
        # Four vertices: most of the 80 cycles run through parallel edges.
        (large_curve(rng, 4, 80, 3), [1, 2, 3]),
    ]
    for curve, weights in cases:
        spec = specialize(pairing_matrix(curve, cycle_basis(curve)), weights)
        assert spec.h >= 80 and spec.basis is not None
        # The same entries without the basis take exact minors and det.
        bare = IntSymMatrix(spec.entries)
        assert bare.basis is None and bare == spec
        assert is_positive_definite(bare) is True
        assert monodromy_weight_check(bare) is True
        assert is_positive_definite(spec) is True
        assert monodromy_weight_check(spec) is True


def test_certified_component_group_matches_elimination():
    """The unreduced Smith form does not finish on dense Gram matrices at
    h >= 80, so the large case is a disconnected chain of parallel-edge
    bundles and self-loops, whose Gram matrix has small entries; random
    curves of base rank 1 and 3 cover the general shape at h <= 16."""
    rng = random.Random(67)
    cases = [(disjoint_union(banana_chain(rng, 14), banana_chain(rng, 14)), [1])]
    for _ in range(20):
        base_rank = rng.choice((1, 3))
        cases.append((random_curve(rng, base_rank=base_rank), [1, 2, 3][:base_rank]))
    for k, (curve, weights) in enumerate(cases):
        spec = specialize(pairing_matrix(curve, cycle_basis(curve)), weights)
        assert spec.basis is not None and (k or spec.h >= 80)
        assert component_group(spec) == component_group(IntSymMatrix(spec.entries))


def test_only_specialize_stamps_the_basis():
    rng = random.Random(71)
    curve = large_curve(rng, 8, 12, 1)
    basis = cycle_basis(curve)
    pm = pairing_matrix(curve, basis)
    spec = specialize(pm, [1])
    assert pm.basis is basis and spec.basis is basis
    assert "basis" not in repr(spec) and hash(spec) == hash(IntSymMatrix(spec.entries))
    with pytest.raises(TypeError):
        PairingMatrix(base_rank=1, coords=pm.coords, basis=basis)
    with pytest.raises(TypeError):
        IntSymMatrix(spec.entries, basis=basis)
    assert PairingMatrix(base_rank=1, coords=pm.coords).basis is None
    assert specialize(PairingMatrix(base_rank=1, coords=pm.coords), [1]).basis is None
    rows = [list(r) for r in spec.entries]
    u = random_unimodular(rng, spec.h)
    moved = IntSymMatrix(tuple(map(tuple, mat_mul(mat_mul(u, rows), transpose(u)))))
    reduced = IntSymMatrix(tuple(tuple(x % 2 for x in r) for r in rows))
    replaced = dataclasses.replace(spec, entries=spec.entries)
    for unstamped in (IntSymMatrix(spec.entries), moved, reduced, replaced):
        assert unstamped.basis is None
        rows = unstamped.rows()
        assert is_positive_definite(unstamped) == leading_minors_all_positive(rows)
        assert monodromy_weight_check(unstamped) == (det(rows) != 0)


def test_unstamped_matrices_take_the_elimination_route():
    rng = random.Random(73)
    curve = large_curve(rng, 8, 12, 1)
    spec = specialize(pairing_matrix(curve, cycle_basis(curve)), [1])
    rows = [list(r) for r in spec.entries]
    # Same entries but a negative diagonal entry: not positive definite.
    flipped = [list(r) for r in rows]
    flipped[-1][-1] = -flipped[-1][-1]
    not_pd = IntSymMatrix(tuple(tuple(r) for r in flipped))
    assert is_positive_definite(not_pd) is False
    replaced = dataclasses.replace(spec, entries=not_pd.entries)
    assert replaced.basis is None and is_positive_definite(replaced) is False
    # Duplicating the last row and column keeps it symmetric and singular.
    for row in rows:
        row.append(row[-1])
    rows.append(list(rows[-1]))
    singular = IntSymMatrix(tuple(tuple(r) for r in rows))
    assert is_positive_definite(singular) is False
    assert monodromy_weight_check(singular) is False
    with pytest.raises(DegeneratePairingError):
        component_group(singular)
