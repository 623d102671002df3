"""Curve validation, Betti numbers, and the deterministic cycle basis."""

import random

import pytest

from conftest import (
    disjoint_union,
    dumbbell_curve,
    hermite_normal_form,
    loop_curve,
    path_curve,
    random_graph,
    theta_curve,
)
from monopair import graphs
from monopair.errors import InputFormatError, InvalidCurveError
from monopair.graphs import (
    CycleBasis,
    Edge,
    MonoidVector,
    TropicalCurve,
    betti_number,
    boundary_matrix,
    curve_from_dict,
    curve_to_dict,
    cycle_basis,
    validate,
)
from monopair.intlinalg import mat_mul, smith_divisors
from monopair.pairing import pairing_matrix, specialize
from monopair.randomgen import random_curve, random_unimodular


def kernel_member_oracle(curve, row):
    """Brute-force boundary check: the chain must cancel at every vertex."""
    totals = {vid: 0 for vid, _ in curve.vertices}
    for coeff, edge in zip(row, curve.edges):
        totals[edge.dst] += coeff
        totals[edge.src] -= coeff
    return all(v == 0 for v in totals.values())


def test_validate_examples():
    empty = TropicalCurve(base_rank=1, vertices=(("v0", 0),), edges=())
    assert validate(empty) == []

    bad_ref = TropicalCurve(
        base_rank=1,
        vertices=(("v0", 0),),
        edges=(Edge("e0", "v0", "v9", MonoidVector((1,))),),
    )
    violations = validate(bad_ref)
    assert len(violations) == 1 and "v9" in violations[0]

    zero_len = TropicalCurve(
        base_rank=2,
        vertices=(("v0", 0),),
        edges=(Edge("e0", "v0", "v0", MonoidVector((0, 0))),),
    )
    violations = validate(zero_len)
    assert len(violations) == 1 and "e0" in violations[0]


def test_validate_more_violations():
    curve = TropicalCurve(
        base_rank=1,
        vertices=(("v0", -1), ("v0", 0)),
        edges=(
            Edge("e0", "v0", "v0", MonoidVector((1, 2))),
            Edge("e0", "v0", "v1", MonoidVector((-1,))),
        ),
    )
    violations = validate(curve)
    assert any("duplicate" in v and "v0" in v for v in violations)
    assert any("genus" in v for v in violations)
    assert any("coordinates" in v for v in violations)
    assert any("v1" in v for v in violations)
    assert any("monoid" in v for v in violations)


def test_a_curve_is_validated_once_per_op(monkeypatch):
    calls = {"validate": 0, "forest": 0}

    def counting(name, real):
        def wrapper(curve):
            calls[name] += 1
            return real(curve)

        return wrapper

    monkeypatch.setattr(graphs, "validate", counting("validate", graphs.validate))
    monkeypatch.setattr(
        graphs, "_spanning_forest", counting("forest", graphs._spanning_forest)
    )
    curve = random_curve(random.Random(3), base_rank=2)
    specialize(pairing_matrix(curve, cycle_basis(curve)), [1, 2])
    assert calls == {"validate": 1, "forest": 1}
    # An invalid curve raises on every check, each time with every violation.
    bad = TropicalCurve(
        base_rank=1,
        vertices=(("v0", -1),),
        edges=(Edge("e0", "v0", "v9", MonoidVector((0,))),),
    )
    for _ in range(3):
        with pytest.raises(InvalidCurveError) as info:
            cycle_basis(bad)
        assert info.value.violations == validate(bad) and len(validate(bad)) == 3


def test_random_curve_ids_sort_in_creation_order():
    rng = random.Random(11)
    sizes = []
    for _ in range(20):
        curve = random_curve(rng, max_vertices=120, max_edges=150)
        for ids in (curve.vertex_ids, curve.edge_ids):
            assert sorted(ids) == ids
        sizes.append(len(curve.edges))
    assert max(sizes) > 100 and min(sizes) < 100


def test_random_curve_rejects_bad_arguments_before_drawing():
    for kwargs, name in [
        ({"max_vertices": 0}, "max_vertices"),
        ({"max_vertices": 20, "max_edges": 8}, "max_edges"),
        ({"length_range": (0, 5)}, "length_range"),
        ({"length_range": (3, 2)}, "length_range"),
        ({"base_rank": 0}, "base_rank"),
        ({"max_genus": -1}, "max_genus"),
    ]:
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ValueError, match=name):
            random_curve(rng, **kwargs)
        assert rng.getstate() == state
    # A spanning tree alone is enough edges.
    tree = random_curve(random.Random(5), max_vertices=6, max_edges=5)
    assert validate(tree) == [] and len(tree.edges) <= 5


def test_betti_examples():
    assert betti_number(loop_curve()) == 1
    assert betti_number(theta_curve()) == 2
    assert betti_number(path_curve()) == 0
    with pytest.raises(InvalidCurveError):
        betti_number(
            TropicalCurve(
                base_rank=1,
                vertices=(),
                edges=(Edge("e0", "a", "b", MonoidVector((1,))),),
            )
        )


def test_betti_disconnected():
    two_loops = TropicalCurve(
        base_rank=1,
        vertices=(("u", 0), ("v", 0)),
        edges=(
            Edge("e0", "u", "u", MonoidVector((1,))),
            Edge("e1", "v", "v", MonoidVector((1,))),
        ),
    )
    assert betti_number(two_loops) == 2


def test_cycle_basis_loop():
    assert cycle_basis(loop_curve()).matrix == ((1,),)


def test_cycle_basis_theta():
    basis = cycle_basis(theta_curve())
    assert basis.matrix == ((-1, 1, 0), (-1, 0, 1))
    # Oracle: rows kill the boundary map and span its kernel primitively.
    curve = theta_curve()
    for row in basis.matrix:
        assert kernel_member_oracle(curve, row)
    assert smith_divisors([list(r) for r in basis.matrix]) == [1, 1]


def test_cycle_basis_path_empty():
    basis = cycle_basis(path_curve())
    assert basis.matrix == ()
    assert basis.h == 0
    assert basis.columns == ((),)


def test_cycle_basis_dumbbell_skips_bridge():
    basis = cycle_basis(dumbbell_curve())
    # Fundamental cycles are the two self-loops; bridge column stays zero.
    assert basis.matrix == ((1, 0, 0), (0, 1, 0))


def test_cycle_basis_random_sweep():
    rng = random.Random(0)
    for _ in range(200):
        curve = random_curve(rng)
        basis = cycle_basis(curve)
        h = betti_number(curve)
        assert len(basis.matrix) == h
        for row in basis.matrix:
            assert kernel_member_oracle(curve, row)
        if h:
            assert smith_divisors([list(r) for r in basis.matrix]) == [1] * h
        assert cycle_basis(curve).matrix == basis.matrix


def test_cycle_basis_orientation_reversal_same_lattice():
    rng = random.Random(5)
    for _ in range(25):
        curve = random_curve(rng)
        basis = cycle_basis(curve)
        if not basis.matrix:
            continue
        j = rng.randrange(len(curve.edges))
        flipped_edges = list(curve.edges)
        e = flipped_edges[j]
        flipped_edges[j] = Edge(e.id, e.dst, e.src, e.length)
        flipped = TropicalCurve(curve.base_rank, curve.vertices, tuple(flipped_edges))
        flipped_basis = cycle_basis(flipped)
        negated = [
            [(-v if k == j else v) for k, v in enumerate(row)] for row in basis.matrix
        ]
        assert hermite_normal_form(negated) == hermite_normal_form(
            [list(r) for r in flipped_basis.matrix]
        )


def test_cycle_basis_type_rejects_bad_rows(monkeypatch):
    smith_calls = []
    monkeypatch.setattr(
        graphs, "smith_divisors", lambda mat: smith_calls.append(mat) or smith_divisors(mat)
    )
    curve = theta_curve()
    with pytest.raises(ValueError, match="kernel"):
        CycleBasis(curve=curve, matrix=((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError):
        CycleBasis(curve=curve, matrix=((-1, 1, 0),))  # wrong row count
    with pytest.raises(ValueError, match="primitively"):
        # Spans only an index-2 sublattice.
        CycleBasis(curve=curve, matrix=((-2, 2, 0), (-1, 0, 1)))
    with pytest.raises(ValueError, match="primitively"):
        # Index 3; the second row owns the unit column e2, the first owns none.
        CycleBasis(curve=curve, matrix=((-3, 3, 0), (-1, 0, 1)))
    # The fundamental basis owns its cotree columns, so no Smith form runs.
    smith_calls.clear()
    cycle_basis(curve)
    assert smith_calls == []
    # Moved by [[1, 1], [1, 2]]: no row owns a unit column, so the Smith
    # form decides, and accepts.
    moved = ((-2, 1, 1), (-3, 1, 2))
    assert CycleBasis(curve=curve, matrix=moved).matrix == moved
    assert len(smith_calls) == 1
    # A self-loop is a cycle on its own (its endpoints cancel); a bridge is not.
    bell = dumbbell_curve()
    assert CycleBasis(curve=bell, matrix=((-1, 0, 0), (0, 1, 0))).h == 2
    with pytest.raises(ValueError, match="kernel"):
        CycleBasis(curve=bell, matrix=((1, 0, 1), (0, 1, 0)))


def test_cycle_basis_columns_are_the_dense_transpose():
    """``columns`` holds, per edge, the (row, coefficient) pairs of the dense
    transpose of the rows: on random curves with self-loops, parallel edges
    and several components, at h = 0, and on bases moved by the caller."""
    rng = random.Random(67)
    curves = [path_curve(), TropicalCurve(base_rank=1, vertices=(("v", 0),), edges=())]
    for k in range(60):
        base_rank = rng.randint(1, 3)
        parts = [random_graph(rng, rng.randint(1, 6), rng.randint(0, 7), base_rank)
                 for _ in range(1 + k % 3)]
        curves.append(disjoint_union(*parts))
    shapes = {"loop": 0, "parallel": 0, "disconnected": 0, "h = 0": 0, "|c| >= 2": 0}
    for curve in curves:
        basis = cycle_basis(curve)
        bases = [basis]
        if basis.h:
            moved = mat_mul(random_unimodular(rng, basis.h), [list(r) for r in basis.matrix])
            bases.append(CycleBasis(curve=curve, matrix=tuple(map(tuple, moved))))
        for b in bases:
            dense = zip(*b.matrix) if b.h else [()] * len(curve.edges)
            assert b.columns == tuple(
                tuple((i, c) for i, c in enumerate(column) if c) for column in dense
            )
            shapes["|c| >= 2"] += any(abs(c) >= 2 for row in b.matrix for c in row)
        ends = [frozenset((e.src, e.dst)) for e in curve.edges]
        shapes["loop"] += any(len(x) == 1 for x in ends)
        shapes["parallel"] += len(set(ends)) < len(ends)
        shapes["disconnected"] += len(curve.vertices) - len(curve.edges) + basis.h > 1
        shapes["h = 0"] += not basis.h
    assert min(shapes.values()) >= 5, shapes


def test_no_coordinate_genus_or_coefficient_is_truncated():
    """Ints, bools and integral floats are stored as ints; a value that
    int() would truncate raises ValueError instead."""
    assert MonoidVector((True, 2.0, -3)).coords == (1, 2, -3)
    assert all(type(c) is int for c in MonoidVector((True, 2.0)).coords)
    with pytest.raises(ValueError, match="1.9"):
        MonoidVector((1.9, 0))
    assert TropicalCurve(1, (("u", 2.0), ("v", True)), ()).vertices == (("u", 2), ("v", 1))
    with pytest.raises(ValueError, match="1.5"):
        TropicalCurve(1, (("u", 0), ("v", 1.5)), ())
    loop = loop_curve()
    assert CycleBasis(curve=loop, matrix=((-1.0,),)).matrix == ((-1,),)
    with pytest.raises(ValueError, match="1.5"):
        CycleBasis(curve=loop, matrix=((1.5,),))


def test_boundary_matrix_shape():
    curve = theta_curve()
    boundary = boundary_matrix(curve)
    assert boundary == [[-1, -1, -1], [1, 1, 1]]


def test_curve_json_round_trip():
    curve = dumbbell_curve(2, 5, 7)
    again = curve_from_dict(curve_to_dict(curve))
    assert again == curve


def test_curve_json_rejects_unknown_and_missing_keys():
    good = curve_to_dict(loop_curve())
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(InputFormatError, match="extra"):
        curve_from_dict(bad)
    bad = dict(good)
    del bad["edges"]
    with pytest.raises(InputFormatError, match="edges"):
        curve_from_dict(bad)
    bad = dict(good)
    bad["vertices"] = [{"id": "v0", "genus": 0, "color": "red"}]
    with pytest.raises(InputFormatError, match="color"):
        curve_from_dict(bad)
    bad = dict(good)
    bad["edges"] = [{"id": "e0", "src": "v0", "dst": "v0", "length": [1], "weight": 2}]
    with pytest.raises(InputFormatError, match="weight"):
        curve_from_dict(bad)
    bad = dict(good)
    bad["edges"] = [{"id": "e0", "src": "v0", "dst": "v0", "length": [True]}]
    with pytest.raises(InputFormatError, match="length"):
        curve_from_dict(bad)


def test_monoid_vector_arithmetic():
    a = MonoidVector((1, -2))
    b = MonoidVector((3, 5))
    assert (a + b).coords == (4, 3)
    assert (a - b).coords == (-2, -7)
    assert (-a).coords == (-1, 2)
    assert a.scale(3).coords == (3, -6)
    assert b.evaluate([2, 1]) == 11
    assert not a.is_length()
    assert b.is_length()
    assert not MonoidVector((0, 0)).is_length()
    with pytest.raises(ValueError):
        a.evaluate([1])
