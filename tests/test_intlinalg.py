"""Exact linear algebra against hand-checkable and brute-force oracles."""

import random
import re
from itertools import chain, repeat
from operator import mul

import pytest

from conftest import hermite_normal_form, smith_unreduced
from monopair.intlinalg import (
    det,
    int_row,
    int_rows,
    kernel_count_mod,
    leading_minors_all_positive,
    mat_mul,
    parse_int,
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
    # Non-square and singular: rank-many divisors, modulo the last Bareiss
    # pivot, which need not be their product (2 for [[2, 3]], 6 for the
    # 3 x 2 matrix, whose other 2 x 2 minors are 2 and -3).
    assert smith_divisors([[]]) == [] and smith_divisors([[0, 0], [0, 0], [0, 0]]) == []
    assert smith_divisors([[2, 4]]) == [2] and smith_divisors([[2, 3]]) == [1]
    assert smith_divisors([[2, 0], [0, 3], [1, 1]]) == [1, 1]
    assert smith_divisors([[2, 0], [0, 2], [0, 0]]) == [2, 2]
    assert smith_divisors([[6, 0, 0], [0, 4, 0], [0, 0, 0]]) == [2, 12]


def test_smith_divisors_random_properties():
    """Exact divisors against the classical loop, on every kind of input:
    square and rectangular, a zero row or column, a duplicated row, rank 1,
    and a row that is a combination of two others."""
    rng = random.Random(7)
    for k in range(600):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        shape = k % 6
        if shape == 1:
            mat[rng.randrange(rows)] = [0] * cols
        elif shape == 2:
            j = rng.randrange(cols)
            for row in mat:
                row[j] = 0
        elif shape == 3:
            mat[rng.randrange(rows)] = list(mat[rng.randrange(rows)])
        elif shape == 4:
            u = [rng.randint(-6, 6) for _ in range(rows)]
            mat = [[x * y for y in mat[0]] for x in u]
        elif shape == 5:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            x, y = mat[rng.randrange(rows)], mat[rng.randrange(rows)]
            mat[rng.randrange(rows)] = [a * p + b * q for p, q in zip(x, y)]
        divisors = smith_divisors(mat)
        assert divisors == smith_unreduced(mat)
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
    for _ in range(80):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 3)
        n = rng.choice([1, 2, 3, 4, 6, 8, 9, 12])
        mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        expected = 0
        for x in range(n**cols):
            vec = [(x // n**i) % n for i in range(cols)]
            if all(sum(a * v for a, v in zip(row, vec)) % n == 0 for row in mat):
                expected += 1
        assert kernel_count_mod(mat, n) == expected
    # Pivots that are neither units nor divisors of n count gcd(a, n).
    assert kernel_count_mod([[4]], 6) == 2
    assert kernel_count_mod([[4, 0], [0, 9]], 12) == 4 * 3
    assert kernel_count_mod([[0, 0]], 5) == 25


def test_rank_matches_transpose():
    rng = random.Random(19)
    for _ in range(30):
        mat = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        assert rank(mat) == rank(transpose(mat))
        assert rank(mat_mul(mat, transpose(mat))) <= rank(mat)
    # Against the Smith form, its classical oracle and the Smith form of the
    # transpose, with zero rows, zero columns and duplicated rows.
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
        divisors = smith_divisors(mat)
        assert divisors == smith_unreduced(mat) == smith_divisors(transpose(mat))
        assert rank(mat) == len(divisors)
        assert rank(mat) == rank(transpose(mat))


def test_int_rows_keeps_exact_integers_and_refuses_the_rest():
    """Rows of ints, bools, integral floats and ``map`` iterators (what
    ``specialize`` passes) give equal tuples of exact ints; a value that
    int() would truncate or parse raises ValueError naming it."""
    ints = ((1, -2, 0), (3, 4, 5 ** 40))
    for rows in (
        ints,
        [list(r) for r in ints],
        ((True, -2, False), (3, 4, 5 ** 40)),
        ((1.0, -2.0, 0.0), (3, 4.0, 5 ** 40)),
        [map(mul, repeat(1), r) for r in ints],
        (iter(r) for r in ints),
    ):
        out = int_rows(rows)
        assert out == ints
        assert type(out) is tuple and all(type(r) is tuple for r in out)
        assert all(type(x) is int for x in chain.from_iterable(out))
    assert int_rows([]) == () and int_rows([[], []]) == ((), ())
    assert int_row(map(float, "12")) == (1, 2) and int_row(()) == ()
    for bad in (0.5, 2.7, -1.5, "2"):
        message = "entry %s is not an integer" % re.escape(repr(bad))
        with pytest.raises(ValueError, match=message):
            int_rows([[1, 2], [3, bad]])
        with pytest.raises(ValueError, match=message):
            int_row((bad, 1))


def test_parse_int_takes_a_sign_and_ascii_digits_only():
    """Surrounding spaces are dropped; underscores, inner spaces, non-ASCII
    digits and other spellings that int() reads are refused."""
    for text, value in (("7", 7), (" 12 ", 12), ("-3", -3), ("+4", 4), ("007", 7), ("0", 0)):
        assert parse_int(text) == value
    for bad in ("1_0", "\uff11", "\u0663", "1 0", "", " ", "+", "1.0", "0x1", "2e3", "- 1"):
        with pytest.raises(ValueError, match="is not an integer"):
            parse_int(bad)
