"""Exact integer linear algebra on dense matrices.

Everything works on lists of lists of Python ints, so there is no overflow
and no floating point anywhere.  Matrices range from desk-scale examples to
the Gram matrices of curves with first Betti number in the hundreds.  One
fraction-free (Bareiss) sweep yields the rank, the determinant and the
Sylvester verdict; it is cubic in the size, and its entries are minors of the
input, so they grow only polynomially.  The Smith form of a matrix of rank
r is an elimination modulo |M| for a nonzero r x r minor M, the last pivot
of that sweep (M = det for square nonsingular input).  Its entries are
residues, reduced lazily (below M^2 times the number of steps), so they do
not blow up as in the classical Smith loop over the integers.  The same
elimination over Z/n counts the solutions of a linear system mod n.
"""

import re
from itertools import chain
from math import gcd, prod


_INT = {int}
_INT_TEXT = re.compile(r"[+-]?[0-9]+")


def parse_int(text):
    """The integer written in ``text``: an optional sign and ASCII digits,
    surrounding spaces ignored.  Anything else, underscores and non-ASCII
    digits included (both of which ``int()`` reads), raises ValueError."""
    text = text.strip()
    if not _INT_TEXT.fullmatch(text):
        raise ValueError("%r is not an integer" % text)
    return int(text)


def int_row(values):
    """The values as a tuple of ints.

    One type scan passes a row of exact ints through unchanged; otherwise
    each value x becomes int(x), which accepts bools and integral floats,
    and ValueError names any x with int(x) != x (0.5, "2"), so no value is
    silently truncated.
    """
    row = tuple(values)
    if set(map(type, row)) <= _INT:
        return row
    return tuple(map(_exact_int, row))


def int_rows(rows):
    """The rows of an integer matrix as a tuple of ``int_row`` tuples; rows
    may be any iterables.  A matrix of exact ints takes one type scan."""
    rows = tuple(map(tuple, rows))
    if set(map(type, chain.from_iterable(rows))) <= _INT:
        return rows
    return tuple(map(int_row, rows))


def _exact_int(x):
    n = int(x)
    if n != x:
        raise ValueError("entry %r is not an integer" % (x,))
    return n


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

    The number of divisors returned is the rank r of the matrix, ones
    included.  The Bareiss sweep gives r and a nonzero r x r minor M, and
    the Smith form is an elimination modulo |M| (see ``_smith_mod``): for
    square nonsingular input M is the determinant.  Transform matrices are
    not tracked; only the diagonal is needed here.
    """
    r, d, _, minor = _bareiss(mat)
    return _smith_mod(mat, abs(minor), None if d else r)


def _smith_mod(mat, m, r=None):
    """Elementary divisors of an integer matrix, by an elimination modulo m.

    With r None the matrix is square and m = |det| > 0: adj(B) B = det(B) I,
    so the row lattice of B contains m Z^h, and the cokernel Z^h / rows(B)
    is (Z/m)^h / rows(B mod m), a group of order m.  Otherwise r is the rank
    and m = |M| for a nonzero r x r minor M.  The divisors d1 | ... | dr
    multiply to the gcd of all r x r minors, so each divides m, and the
    quotient (Z/m)^cols / rows(mat mod m) is the sum of the Z/di and of
    cols - r copies of Z/m.  ``_cyclic_orders_mod`` splits it into cyclic
    factors, and pairwise gcd/lcm turns their orders into the chain whose
    first r entries are d1 | ... | dr.  A cheap check raises ArithmeticError:
    with r None the orders must multiply to m; otherwise the chain past r
    must be all m, and its first r entries must multiply to a divisor of m.
    """
    orders = _cyclic_orders_mod(mat, m, order=r is None)
    chain = invariant_chain(orders)
    if r is None:
        if prod(orders) != m:
            raise ArithmeticError(
                "Smith form mod %d: the cyclic orders multiply to %d" % (m, prod(orders))
            )
        return chain
    if any(x != m for x in chain[r:]) or m % prod(chain[:r]):
        raise ArithmeticError(
            "Smith form mod %d at rank %d: the chain %s does not fit" % (m, r, chain)
        )
    return chain[:r]


def invariant_chain(orders):
    """The chain d1 | d2 | ... of a direct sum of cyclic groups of the given
    positive orders, one entry per order: pairwise gcd/lcm steps keep the
    group and leave each entry dividing the next."""
    chain = sorted(orders)
    for i, x in enumerate(chain):
        for j in range(i + 1, len(chain)):
            y = chain[j]
            if y % x:
                g = gcd(x, y)
                chain[j] = x // g * y
                x = g
        chain[i] = x
    return chain


def _xgcd(a, b):
    """(g, s, t) with s*a + t*b == g == gcd(a, b), for a, b >= 0."""
    s, s1, t, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s, s1 = s1, s - q * s1
        t, t1 = t1, t - q * t1
    return a, s, t


def _cyclic_orders_mod(mat, n, order=False):
    """Cyclic orders of (Z/n)^cols modulo the row span of an integer matrix.

    A Smith elimination over Z/n.  Each column ends with one pivot a after
    invertible row and column operations mod n, or none, a = 0, and gives
    the factor Z/gcd(a, n); one order per column is returned.

    Unit pivots (gcd with n is 1) go first: one row sweep by the inverse
    clears the column, and the pivot row and column are dropped.  Columns
    are scanned round-robin until a whole round finds no unit.  The rest is
    taken a column at a time, a unit pivot still first when the column has
    one; otherwise 2x2 extended-gcd row steps clear the column and column
    steps clear the pivot row, repeating while a column step lowers the
    pivot.  Entries are residues mod n, reduced lazily: a sweep subtracts
    products f*y with f and y below n, and an entry is reduced when it is
    read as a pivot, a multiplier or a divisibility test, so it stays below
    n^2 times the number of steps.

    With ``order`` set, n is the order of that quotient.  Each factor Z/o
    found leaves a quotient of order n/o, which n/o annihilates, so the
    modulus shrinks to n/o for the rest of the elimination.
    """
    a = [[x % n for x in row] for row in mat]
    width = len(mat[0]) if mat else 0
    orders = []

    def drop_column(j):
        for row in a:
            row[j] = row[-1]
            row.pop()

    def unit_sweep(p, j):
        top = a.pop(p)
        inv = pow(top[j], -1, n)
        top = [x * inv % n for x in top]
        for k, row in enumerate(a):
            f = row[j] % n
            if f:
                a[k] = [x - f * y for x, y in zip(row, top)]
        drop_column(j)
        orders.append(1)

    j = misses = 0
    while misses < width:
        if j >= width:
            j = 0
        p = next((i for i, row in enumerate(a) if row[j] and gcd(row[j], n) == 1), None)
        if p is None:
            j += 1
            misses += 1
        else:
            unit_sweep(p, j)
            width -= 1
            misses = 0

    def gcd_pivot(p, j):
        top = [x % n for x in a.pop(p)]
        while True:
            for k, row in enumerate(a):
                b = row[j]
                if not b:
                    continue
                c = top[j]
                if b % c == 0:
                    q = b // c
                    a[k] = [x - q * y for x, y in zip(row, top)]
                else:
                    g, s, t = _xgcd(c, b)
                    u, v = b // g, c // g
                    top, a[k] = (
                        [(s * y + t * x) % n for x, y in zip(row, top)],
                        [(v * x - u * y) % n for x, y in zip(row, top)],
                    )
            c = top[j]
            for k, b in enumerate(top):
                if b and b % c:
                    break
            else:
                return c
            # Column step on columns j and k; it refills column j below the
            # pivot, which the next round of row steps clears again.
            g, s, t = _xgcd(c, b)
            u, v = b // g, c // g
            for row in a + [top]:
                x, y = row[j], row[k]
                row[j], row[k] = (s * x + t * y) % n, (v * y - u * x) % n

    while width:
        j = width - 1
        width -= 1
        for row in a:
            row[j] %= n
        column = ((gcd(row[j], n), i) for i, row in enumerate(a) if row[j])
        g, p = min(column, default=(n, None))
        if p is not None and g == 1:
            unit_sweep(p, j)
            continue
        if p is not None:
            g = gcd(gcd_pivot(p, j), n)
        drop_column(j)
        orders.append(g)
        if order:
            n //= g
    return orders


def _bareiss(mat):
    """One fraction-free (Bareiss) echelon sweep:
    ``(rank, det, sylvester, minor)``.

    Rows are swapped only at a zero pivot, and a column that is zero from the
    pivot row down is skipped; every entry stays a minor of the input, so each
    division is exact.  ``det`` is signed, and None for non-square input.
    Until the first swap the pivots are the leading principal minors, so
    ``sylvester`` (all of them > 0) holds iff no swap was needed, the rank is
    full and every pivot is positive.  ``minor`` is the last pivot, a nonzero
    rank x rank minor of the input (1 at rank 0), the modulus of
    ``smith_divisors``.
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
        return r, None, False, prev
    full = r == rows
    return r, sign * prev if full else 0, sylvester and full, prev


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


def kernel_count_mod(mat, n):
    """Number of solutions x in (Z/n)^cols of  mat @ x == 0  (mod n).

    The solutions depend only on mat mod n, and invertible row and column
    operations mod n keep their number, so this is the elimination of
    ``_cyclic_orders_mod`` over Z/n, whose entries stay residues mod n.
    With pivots a_i on ``steps`` of the columns, the count is
    n^(cols - steps) * prod gcd(a_i, n); a column left zero is free,
    gcd(0, n) = n.
    """
    if n < 1:
        raise ValueError("modulus must be >= 1")
    return prod(_cyclic_orders_mod(mat, n))
