"""Answer checks built on mathematics independent of the code under test.

Nothing here calls into monopair: determinants come from the matrix-tree
theorem in exact fractions, Gram matrices from sparse products of the basis
rows, extension-group orders from gcds of the cyclic factors, and coboundary
witnesses are re-evaluated in plain tuple arithmetic.
"""

from fractions import Fraction
from math import gcd, prod


class CheckFailed(Exception):
    """An op returned an answer that contradicts the independent check."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def edge_weight(length, weights):
    """An edge length in the base monoid specialized at integer weights."""
    return sum(c * w for c, w in zip(length, weights))


def matrix_tree_det(curve, weights):
    """det of the specialized Gram matrix of a connected curve, by matrix-tree.

    The Gram matrix C diag(w_e) C^T of a fundamental cycle basis has
    determinant sum_T prod_{e not in T} w_e over spanning trees T
    (Cauchy-Binet), which is prod_e w_e times det of the reduced Laplacian
    with conductances 1/w_e (Bogner-Weinzierl, arXiv:1002.3458).
    """
    vindex = {v["id"]: i for i, v in enumerate(curve["vertices"])}
    n = len(vindex)
    lap = [[Fraction(0)] * n for _ in range(n)]
    total = 1
    for edge in curve["edges"]:
        w = edge_weight(edge["length"], weights)
        total *= w
        a, b = vindex[edge["src"]], vindex[edge["dst"]]
        if a == b:
            continue
        c = Fraction(1, w)
        lap[a][a] += c
        lap[b][b] += c
        lap[a][b] -= c
        lap[b][a] -= c
    reduced = [row[1:] for row in lap[1:]]
    det = fraction_det(reduced) * total
    require(det.denominator == 1, "matrix-tree determinant is not an integer")
    return int(det)


def fraction_det(mat):
    a = [list(row) for row in mat]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            if factor:
                for j in range(k, n):
                    a[i][j] -= factor * a[k][j]
    return det


def integer_det(mat):
    """det of an integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in mat]
    n = len(a)
    sign, previous = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if n else 1


def check_divisors(divisors, curve, weights):
    """Elementary divisors > 1 form a chain whose product is det by matrix-tree."""
    require(all(d > 1 for d in divisors), "divisor <= 1 in %r" % (divisors,))
    require(
        all(b % a == 0 for a, b in zip(divisors, divisors[1:])),
        "divisors %r do not form a divisibility chain" % (divisors,),
    )
    expected = matrix_tree_det(curve, weights)
    require(
        prod(divisors) == expected,
        "product of divisors %d != matrix-tree determinant %d" % (prod(divisors), expected),
    )


def gram_from_rows(rows, edge_weights):
    """C diag(w) C^T, summing over the edges each pair of rows shares."""
    sparse = [{e: c for e, c in enumerate(row) if c} for row in rows]
    h = len(rows)
    gram = [[0] * h for _ in range(h)]
    for i in range(h):
        for j in range(i + 1):
            small, large = sorted((sparse[i], sparse[j]), key=len)
            value = sum(c * large[e] * edge_weights[e] for e, c in small.items() if e in large)
            gram[i][j] = gram[j][i] = value
    return gram


def check_cycle_rows(rows, curve):
    """Rows are h = |E| - |V| + 1 cycles: each has zero boundary."""
    vindex = {v["id"]: i for i, v in enumerate(curve["vertices"])}
    edges = curve["edges"]
    require(
        len(rows) == len(edges) - len(vindex) + 1,
        "basis has %d rows, connected curve needs %d" % (len(rows), len(edges) - len(vindex) + 1),
    )
    for k, row in enumerate(rows):
        boundary = [0] * len(vindex)
        for c, edge in zip(row, edges):
            boundary[vindex[edge["dst"]]] += c
            boundary[vindex[edge["src"]]] -= c
        require(not any(boundary), "basis row %d is not a cycle" % k)


def check_spans_cycle_lattice(gram, curve, weights):
    """det of C diag(w) C^T equals the matrix-tree count only for a lattice basis.

    Rows spanning a sublattice of index k give k^2 times that count.
    """
    got = integer_det(gram)
    expected = matrix_tree_det(curve, weights)
    require(
        got == expected,
        "Gram determinant %s != matrix-tree determinant %d: rows do not span the cycle lattice"
        % (got, expected),
    )


def check_unipotent(matrix, gram, h, a, w):
    """(N - I)^2 = 0 and the top-right h x h block of N equals w * B."""
    size = len(matrix)
    require(size == 2 * (h + a), "operator has size %d, expected %d" % (size, 2 * (h + a)))
    nil = {}
    for i, row in enumerate(matrix):
        for j, value in enumerate(row):
            v = value - (i == j)
            if v:
                nil.setdefault(i, {})[j] = v
    for i, row in nil.items():
        square = {}
        for k, v in row.items():
            for j, u in nil.get(k, {}).items():
                square[j] = square.get(j, 0) + v * u
        require(not any(square.values()), "(N - I)^2 is nonzero in row %d" % i)
    offset = h + 2 * a
    for i in range(h):
        require(
            list(matrix[i][offset:]) == [w * x for x in gram[i]],
            "top-right block row %d of N is not w * B" % i,
        )


def ext_order(source_factors, target_factors):
    """|Ext(Q, T)| for finite abelian Q, T: the product of gcd(q_i, t_j)."""
    return prod(gcd(q, t) for q in source_factors for t in target_factors)


def check_torsor(report, q_factors, p_factors):
    require(report["transitive"] is True, "action is not transitive")
    require(report["section_ok"] is True, "difference is not a two-sided section")
    expected = ext_order(q_factors, p_factors)
    require(report["ext1_order"] == expected, "ext1_order %r != %d" % (report["ext1_order"], expected))
    require(
        report["fiber_size"] * report["stabilizer_order"] == expected,
        "fiber %d * stabilizer %d != |Ext(Q, P)| = %d"
        % (report["fiber_size"], report["stabilizer_order"], expected),
    )


def _add(x, y, factors):
    return tuple((a + b) % m for a, b, m in zip(x, y, factors))


def _sub(x, y, factors):
    return tuple((a - b) % m for a, b, m in zip(x, y, factors))


def check_witness(h, diff, q_elems, q_factors, t_elems, t_factors):
    """delta h (a, b) = h(a) + h(b) - h(a + b) reproduces the difference table."""
    q_index = {e: i for i, e in enumerate(q_elems)}
    values = [t_elems[k] for k in h]
    for a, qa in enumerate(q_elems):
        for b, qb in enumerate(q_elems):
            ab = q_index[_add(qa, qb, q_factors)]
            got = _sub(_add(values[a], values[b], t_factors), values[ab], t_factors)
            require(got == t_elems[diff[a][b]], "witness fails at (%d, %d)" % (a, b))
