"""Weight dimensions, torsion ranks, monodromy operators, Hodge tables."""

import random

import pytest

from conftest import loop_curve, theta_curve, theta_unit_curve
from monopair.graphs import Edge, MonoidVector, TropicalCurve, cycle_basis
from monopair.intlinalg import mat_mul, smith_divisors
from monopair.pairing import IntSymMatrix, pairing_matrix, specialize
from monopair.randomgen import random_curve
from monopair.realizations import (
    hodge_table,
    hodge_table_to_dict,
    monodromy_weight_check,
    nilpotent_rank,
    operator_to_dict,
    picard_lefschetz,
    torsion_dims,
    torsion_dims_to_dict,
    weight_dims,
)


def genus_vertex(genus):
    return TropicalCurve(base_rank=1, vertices=(("v0", genus),), edges=())


def test_weight_dims_examples():
    dims = weight_dims(loop_curve())
    assert (dims.h, dims.a, dims.total) == (1, 0, 2)
    dims = weight_dims(genus_vertex(2))
    assert (dims.h, dims.a, dims.total) == (0, 2, 4)
    dims = weight_dims(theta_curve())
    assert (dims.h, dims.a, dims.total) == (2, 0, 4)


def test_torsion_dims_examples():
    assert torsion_dims(loop_curve(), 5) == (1, 0, 1)
    assert torsion_dims(genus_vertex(2), 2) == (0, 4, 0)
    assert torsion_dims(theta_curve(), 3) == (2, 0, 2)
    with pytest.raises(ValueError):
        torsion_dims(loop_curve(), 1)
    assert torsion_dims_to_dict(5, (1, 0, 1)) == {
        "modulus": 5,
        "gr_-1": 1,
        "gr_0": 0,
        "gr_1": 1,
    }


def test_picard_lefschetz_tate():
    op = picard_lefschetz(IntSymMatrix(((3,),)), a=0, w=1)
    assert op.matrix == ((1, 3), (0, 1))
    nilpotent = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(op.matrix)]
    assert mat_mul(nilpotent, nilpotent) == [[0, 0], [0, 0]]
    # Applying: the top-weight basis vector picks up 3 in the bottom slot.
    assert op.apply([0, 1]) == [3, 1]
    assert op.apply([1, 0]) == [1, 0]


def test_picard_lefschetz_zero_winding():
    b = IntSymMatrix(((2, 1), (1, 2)))
    op = picard_lefschetz(b, a=1, w=0)
    size = op.size
    assert size == 6
    assert op.matrix == tuple(
        tuple(1 if i == j else 0 for j in range(size)) for i in range(size)
    )


def test_picard_lefschetz_mod3_order():
    b = IntSymMatrix(((2, 1), (1, 2)))
    op = picard_lefschetz(b, a=0, w=1, modulus=3)
    top_right = [list(row[2:]) for row in op.matrix[:2]]
    assert top_right == [[2, 1], [1, 2]]
    mat = [list(r) for r in op.matrix]
    power = mat
    orders = []
    for k in range(2, 5):
        power = [[sum(x * y for x, y in zip(r, c)) % 3 for c in zip(*mat)] for r in power]
        orders.append((k, power == [[1 if i == j else 0 for j in range(4)] for i in range(4)]))
    # N has order exactly 3 mod 3: N^2 != I, N^3 == I.
    assert orders[0] == (2, False)
    assert orders[1] == (3, True)


def test_picard_lefschetz_rejects_bad_args():
    with pytest.raises(ValueError):
        picard_lefschetz([[1, 2], [3, 4]], a=0, w=1)
    with pytest.raises(ValueError):
        picard_lefschetz(IntSymMatrix(((1,),)), a=0, w=1, modulus=1)
    with pytest.raises(ValueError):
        picard_lefschetz(IntSymMatrix(((1,),)), a=-1, w=1)


def test_operator_structure_random():
    rng = random.Random(43)
    for _ in range(50):
        curve = random_curve(rng, max_genus=2)
        spec = specialize(pairing_matrix(curve, cycle_basis(curve)), [1])
        dims = weight_dims(curve)
        w = rng.randint(-3, 3)
        op = picard_lefschetz(spec, a=dims.a, w=w)
        size = op.size
        h = dims.h
        mid = 2 * dims.a
        # N - I vanishes outside the top-right block; block equals w * B.
        for i in range(size):
            for j in range(size):
                expected = 1 if i == j else 0
                if i < h and j >= h + mid:
                    expected += w * spec.entries[i][j - h - mid]
                assert op.matrix[i][j] == expected
        nilpotent = [
            [x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(op.matrix)
        ]
        assert mat_mul(nilpotent, nilpotent) == [[0] * size for _ in range(size)]
        # Fixed part: the first h + 2a basis vectors are fixed pointwise.
        for k in range(h + mid):
            vec = [1 if i == k else 0 for i in range(size)]
            assert op.apply(vec) == vec


def test_loop_composition_is_winding_addition():
    rng = random.Random(47)
    for _ in range(30):
        curve = random_curve(rng, max_genus=1)
        spec = specialize(pairing_matrix(curve, cycle_basis(curve)), [1])
        a = weight_dims(curve).a
        w1 = rng.randint(-4, 4)
        w2 = rng.randint(-4, 4)
        combined = picard_lefschetz(spec, a=a, w=w1 + w2)
        product = mat_mul(
            picard_lefschetz(spec, a=a, w=w1).rows(),
            picard_lefschetz(spec, a=a, w=w2).rows(),
        )
        assert [list(r) for r in combined.matrix] == product


def test_reduction_commutes():
    rng = random.Random(53)
    for _ in range(50):
        curve = random_curve(rng)
        spec = specialize(pairing_matrix(curve, cycle_basis(curve)), [1])
        for n in (2, 3, 4, 5):
            direct = picard_lefschetz(spec, a=0, w=1, modulus=n)
            reduced_b = picard_lefschetz(spec.mod(n), a=0, w=1, modulus=n)
            folded = tuple(
                tuple(x % n for x in row)
                for row in picard_lefschetz(spec, a=0, w=1).matrix
            )
            assert direct.matrix == folded
            assert direct.matrix == reduced_b.matrix


def test_monodromy_weight_check_examples():
    assert monodromy_weight_check(IntSymMatrix(((2, 1), (1, 2)))) is True
    assert monodromy_weight_check(IntSymMatrix(((0,),))) is False
    assert monodromy_weight_check(IntSymMatrix(())) is True


def test_nilpotent_rank_equals_matrix_rank():
    rng = random.Random(59)
    for _ in range(40):
        curve = random_curve(rng, max_genus=1)
        spec = specialize(pairing_matrix(curve, cycle_basis(curve)), [1])
        op = picard_lefschetz(spec, a=weight_dims(curve).a, w=1)
        assert nilpotent_rank(op) == spec.h
        assert monodromy_weight_check(spec)
    small = spec
    # Large connected curves with an abelian part (a = n_vertices / 2):
    # N - I is 2(h + a) square.
    for n_vertices, h in ((30, 80), (40, 120)):
        vertices = tuple(("v%02d" % i, i % 2) for i in range(n_vertices))
        ends = [(rng.randrange(i), i) for i in range(1, n_vertices)]
        ends += [(rng.randrange(n_vertices), rng.randrange(n_vertices)) for _ in range(h)]
        edges = tuple(
            Edge("e%03d" % k, "v%02d" % s, "v%02d" % t, MonoidVector((rng.randint(1, 5),)))
            for k, (s, t) in enumerate(ends)
        )
        curve = TropicalCurve(base_rank=1, vertices=vertices, edges=edges)
        spec = specialize(pairing_matrix(curve, cycle_basis(curve)), [1])
        assert spec.h == h
        op = picard_lefschetz(spec, a=weight_dims(curve).a, w=2)
        assert nilpotent_rank(op) == h
    # A singular pairing: duplicating the last row and column keeps it
    # symmetric and drops its rank below its size.
    rows = [list(row) for row in small.entries]
    for row in rows:
        row.append(row[-1])
    rows.append(list(rows[-1]))
    singular = IntSymMatrix(tuple(tuple(row) for row in rows))
    op = picard_lefschetz(singular, a=1, w=3)
    assert nilpotent_rank(op) == len(smith_divisors(rows)) == small.h


def test_hodge_table_examples():
    assert hodge_table(loop_curve()).rows() == ((1, 0), (0, 0), (1, 1))
    assert hodge_table(genus_vertex(3)).rows() == ((0, 0), (6, 3), (0, 0))
    assert hodge_table(theta_curve()).rows() == ((2, 0), (0, 0), (2, 2))
    table = hodge_table(theta_unit_curve())
    assert table.f1_total() == 2
    assert hodge_table_to_dict(table) == {
        "gr_-1": [2, 0],
        "gr_0": [0, 0],
        "gr_1": [2, 2],
    }


def test_hodge_table_random():
    rng = random.Random(61)
    for _ in range(50):
        curve = random_curve(rng, max_genus=3)
        dims = weight_dims(curve)
        table = hodge_table(curve)
        assert table.rows() == ((dims.h, 0), (2 * dims.a, dims.a), (dims.h, dims.h))
        assert table.f1_total() == dims.genus
        assert sum(r[0] for r in table.rows()) == dims.total


def test_operator_json():
    op = picard_lefschetz(IntSymMatrix(((3,),)), a=0, w=2, modulus=5)
    blob = operator_to_dict(op)
    assert blob == {
        "modulus": 5,
        "h": 1,
        "a": 0,
        "w": 2,
        "matrix": [[1, 1], [0, 1]],
    }
