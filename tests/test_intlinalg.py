"""Exact linear algebra against hand-checkable and brute-force oracles."""

import random

from monopair.intlinalg import (
    det,
    hermite_normal_form,
    kernel_count_mod,
    leading_minors_all_positive,
    mat_mul,
    rank,
    smith_divisors,
    transpose,
)


def minor_oracle(mat, k):
    """Determinant of the leading k x k block by cofactor expansion."""
    block = [row[:k] for row in mat[:k]]

    def expand(m):
        n = len(m)
        if n == 0:
            return 1
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            sub = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * expand(sub)
        return total

    return expand(block)


def test_smith_divisors_known():
    assert smith_divisors([[6]]) == [6]
    assert smith_divisors([[2, 1], [1, 2]]) == [1, 3]
    assert smith_divisors([[2, 0], [0, 2]]) == [2, 2]
    assert smith_divisors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_divisors([[0]]) == []
    # Divisibility chain with mixed content.
    assert smith_divisors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


def test_smith_divisors_random_properties():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        divisors = smith_divisors(mat)
        assert all(d > 0 for d in divisors)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        if rows == cols:
            prod = 1
            for d in divisors:
                prod *= d
            assert (len(divisors) == rows) == (det(mat) != 0)
            if len(divisors) == rows:
                assert prod == abs(det(mat))


def test_det_against_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(0, 5)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert det(mat) == minor_oracle(mat, n)
    # A zero (0, 0) entry forces the sweep to swap rows.
    for _ in range(50):
        n = rng.randint(2, 5)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        mat[0][0] = 0
        assert det(mat) == minor_oracle(mat, n)
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det([[0, 2], [0, 3]]) == 0


def test_leading_minors_and_sylvester():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        # Symmetrize.
        for i in range(n):
            for j in range(i):
                mat[j][i] = mat[i][j]
        minors = [minor_oracle(mat, k + 1) for k in range(n)]
        assert leading_minors_all_positive(mat) == all(m > 0 for m in minors)
    assert leading_minors_all_positive([]) is True
    assert leading_minors_all_positive([[2, -1], [-1, 2]]) is True
    # A zero leading minor.  After the swap in [[0, 1], [1, 0]] every pivot
    # is positive, so the swap itself must decide.
    assert leading_minors_all_positive([[1, 1], [1, 1]]) is False
    assert leading_minors_all_positive([[0, 1], [1, 0]]) is False
    assert leading_minors_all_positive([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) is False
    assert leading_minors_all_positive([[0, 0], [0, 1]]) is False
    # A negative leading minor, first and later in the sweep.
    assert leading_minors_all_positive([[-1, 0], [0, -1]]) is False
    assert leading_minors_all_positive([[1, 2], [2, 1]]) is False
    assert leading_minors_all_positive([[2, 1, 0], [1, 1, 1], [0, 1, 0]]) is False


def test_hermite_row_lattice_canonical():
    # Same lattice under row operations.
    base = [[2, 1, 0], [0, 3, 1]]
    shuffled = [[2, 4, 1], [2, 1, 0]]  # row2 + row1, row1
    assert hermite_normal_form(base) == hermite_normal_form(shuffled)
    assert hermite_normal_form([[0, 0]]) == []


def test_kernel_count_mod_against_enumeration():
    rng = random.Random(17)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        n = rng.choice([2, 3, 4, 6])
        mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        expected = 0
        for x in range(n**cols):
            vec = [(x // n**i) % n for i in range(cols)]
            if all(sum(a * v for a, v in zip(row, vec)) % n == 0 for row in mat):
                expected += 1
        assert kernel_count_mod(mat, n) == expected


def test_rank_matches_transpose():
    rng = random.Random(19)
    for _ in range(30):
        mat = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        assert rank(mat) == rank(transpose(mat))
        assert rank(mat_mul(mat, transpose(mat))) <= rank(mat)
    # Against the Smith form, with zero rows, zero columns and duplicated rows.
    for _ in range(300):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.choice([0, rng.randint(-3, 3)]) for _ in range(cols)] for _ in range(rows)]
        shape = rng.randrange(4)
        if shape == 1:
            mat[rng.randrange(rows)] = [0] * cols
        elif shape == 2:
            j = rng.randrange(cols)
            for row in mat:
                row[j] = 0
        elif shape == 3:
            mat[rng.randrange(rows)] = list(mat[rng.randrange(rows)])
        assert rank(mat) == len(smith_divisors(mat))
        assert rank(mat) == rank(transpose(mat))
