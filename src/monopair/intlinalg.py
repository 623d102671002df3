"""Exact integer linear algebra on dense matrices.

Everything works on lists of lists of Python ints, so there is no overflow
and no floating point anywhere.  Matrices range from desk-scale examples to
the Gram matrices of curves with first Betti number around a hundred.  There
are two eliminations.  One fraction-free (Bareiss) sweep yields the rank,
the determinant and the Sylvester verdict; it is cubic in the size, and its
entries are minors of the input, so they grow only polynomially.  The Smith
form gives the elementary divisors; it does no modular reduction, so its
intermediate entries can blow up on nonsingular Gram matrices of twenty or
more rows.
"""

from math import gcd


def copy_matrix(mat):
    return [list(row) for row in mat]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat):
    if not mat:
        return []
    return [list(col) for col in zip(*mat)]


def mat_mul(a, b):
    if not a or not b:
        return [[] for _ in a]
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def smith_divisors(mat):
    """Nonzero elementary divisors d1 | d2 | ... of an integer matrix.

    The number of divisors returned is the rank of the matrix.  Transform
    matrices are not tracked; only the diagonal is needed here.
    """
    a = copy_matrix(mat)
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


def _bareiss(mat):
    """One fraction-free (Bareiss) echelon sweep: ``(rank, det, sylvester)``.

    Rows are swapped only at a zero pivot, and a column that is zero from the
    pivot row down is skipped; every entry stays a minor of the input, so each
    division is exact.  ``det`` is signed, and None for non-square input.
    Until the first swap the pivots are the leading principal minors, so
    ``sylvester`` (all of them > 0) holds iff no swap was needed, the rank is
    full and every pivot is positive.
    """
    a = copy_matrix(mat)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    sign = 1
    prev = 1
    r = 0
    sylvester = True
    for k in range(cols):
        if r == rows:
            break
        if a[r][k] == 0:
            sylvester = False
            swap = next((i for i in range(r + 1, rows) if a[i][k]), None)
            if swap is None:
                continue
            a[r], a[swap] = a[swap], a[r]
            sign = -sign
        top = a[r]
        p = top[k]
        if p < 0:
            sylvester = False
        for row in a[r + 1 :]:
            f = row[k]
            row[k] = 0
            for j in range(k + 1, cols):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
        r += 1
    if rows != cols:
        return r, None, False
    full = r == rows
    return r, sign * prev if full else 0, sylvester and full


def rank(mat):
    """Rank over the rationals (equally, over the integers) of an integer
    matrix, read from the exact Bareiss sweep."""
    return _bareiss(mat)[0]


def det(mat):
    """Determinant of a square integer matrix, read from the Bareiss sweep."""
    return _bareiss(mat)[1]


def leading_minors_all_positive(mat):
    """True iff every leading principal minor is > 0 (Sylvester criterion)."""
    return _bareiss(mat)[2]


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


def kernel_count_mod(mat, n):
    """Number of solutions x in (Z/n)^cols of  mat @ x == 0  (mod n).

    Via the elementary divisors d_i of the integer matrix: each constrained
    coordinate contributes gcd(d_i, n) solutions and each free coordinate
    contributes n.
    """
    if n < 1:
        raise ValueError("modulus must be >= 1")
    cols = len(mat[0]) if mat else 0
    if cols == 0:
        return 1
    divisors = smith_divisors(mat)
    count = n ** (cols - len(divisors))
    for d in divisors:
        count *= gcd(d, n)
    return count
