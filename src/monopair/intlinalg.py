"""Exact integer linear algebra on dense matrices.

Everything works on lists of lists of Python ints, so there is no overflow
and no floating point anywhere.  Matrices range from desk-scale examples to
the Gram matrices of curves with first Betti number around a hundred.  The
Bareiss sweeps (determinant, Sylvester test) are cubic in the size with
growing entries; the Smith form does no modular reduction, so its
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


def is_symmetric(mat):
    n = len(mat)
    if any(len(row) != n for row in mat):
        return False
    return all(mat[i][j] == mat[j][i] for i in range(n) for j in range(i))


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


def rank(mat):
    if not mat or not mat[0]:
        return 0
    return len(smith_divisors(mat))


def det(mat):
    """Determinant by fraction-free (Bareiss) elimination with row pivoting."""
    n = len(mat)
    if n == 0:
        return 1
    a = copy_matrix(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leading_minors(mat):
    """All leading principal minors of a square matrix, exactly.

    Computed by cofactor-free expansion of det on leading blocks; the sizes
    here are small enough that repeated Bareiss runs are fine.
    """
    n = len(mat)
    return [det([row[: k + 1] for row in mat[: k + 1]]) for k in range(n)]


def leading_minors_all_positive(mat):
    """True iff every leading principal minor is > 0 (Sylvester criterion).

    Uses a single Bareiss sweep without row pivoting: after step k the pivot
    equals the k-th leading principal minor, so a nonpositive pivot decides
    immediately.
    """
    n = len(mat)
    a = copy_matrix(mat)
    prev = 1
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return True


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
