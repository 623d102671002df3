"""The component group against two independent oracles.

The matrix route, ``component_group``, is the Smith form of the specialized
Gram matrix modulo its determinant.  It is checked against the classical
Smith loop over the integers (``conftest.smith_unreduced``).  The
``compgroup`` command takes the curve route, ``curve_component_group``, and
is checked against Raynaud's description: the component group is the
critical group of the dual graph with every edge cut into l_e(w) unit edges
(a self-loop of length l becomes an l-cycle, which adds Z/l).  That critical
group is computed here from the Laplacian of the subdivided graph, by unit
pivots over the integers and a Smith loop modulo the residual determinant,
with no code from ``monopair.intlinalg``.
"""

import contextlib
import io
import json
import random
from math import gcd

import pytest

from conftest import smith_unreduced
from monopair import cli, graphs, intlinalg
from monopair.errors import DegeneratePairingError
from monopair.graphs import CycleBasis, Edge, MonoidVector, TropicalCurve, curve_to_dict
from monopair.intlinalg import smith_divisors
from monopair.pairing import IntSymMatrix, component_group, pairing_matrix, specialize
from monopair.randomgen import random_curve, random_unimodular


def subdivided_laplacian(curve, weights):
    """Reduced Laplacian of the subdivided graph as sparse rows {column: value}.

    The first vertex of each connected component is deleted, so the rows and
    the columns are the remaining vertices.
    """
    index = {v: k for k, v in enumerate(curve.vertex_ids)}
    root = list(range(len(index)))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    n = len(index)
    lap = [{} for _ in range(n)]
    for edge in curve.edges:
        u, v = index[edge.src], index[edge.dst]
        if find(u) != find(v):
            root[max(find(u), find(v))] = min(find(u), find(v))
        length = edge.length.evaluate(weights)
        path = [u] + list(range(n, n + length - 1)) + [v]
        lap += [{} for _ in range(length - 1)]
        n += length - 1
        for x, y in zip(path, path[1:]):
            if x != y:
                for s, t in ((x, y), (y, x)):
                    lap[s][s] = lap[s].get(s, 0) + 1
                    lap[s][t] = lap[s].get(t, 0) - 1
    deleted = {k for k in range(len(index)) if find(k) == k}
    return {
        i: {j: x for j, x in row.items() if j not in deleted}
        for i, row in enumerate(lap)
        if i not in deleted
    }


def clear_unit_pivots(rows):
    """Eliminate +-1 entries over the integers; each one drops a row and a
    column and keeps the cokernel.  Returns the dense square residual."""
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    changed = True
    while changed:
        changed = False
        for i in sorted(rows):
            j = next((c for c, x in rows[i].items() if x in (1, -1)), None)
            if j is None:
                continue
            changed = True
            top = rows.pop(i)
            for c in top:
                cols[c].discard(i)
            for r in cols.pop(j):
                row = rows[r]
                f = row.pop(j) * top[j]
                for c, x in top.items():
                    if c == j:
                        continue
                    y = row.get(c, 0) - f * x
                    if y:
                        row[c] = y
                        cols[c].add(r)
                    else:
                        row.pop(c, None)
                        cols[c].discard(r)
    order = sorted(cols)
    return [[rows[i].get(j, 0) for j in order] for i in sorted(rows)]


def fraction_free_det(mat):
    a = [list(row) for row in mat]
    sign, prev = 1, 1
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def smith_modulo_det(mat):
    """Invariant factors of a nonsingular integer matrix: least-entry pivots
    over Z/d with d = |det|, divisibility enforced over the whole block."""
    d = abs(fraction_free_det(mat))
    a = [[x % d for x in row] for row in mat]
    k = len(a)
    factors = []
    t = 0
    while t < k:
        block = [(a[i][j], i, j) for i in range(t, k) for j in range(t, k) if a[i][j]]
        if not block:
            factors += [d] * (k - t)
            break
        v, i, j = min(block)
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        for r in range(t + 1, k):
            q = a[r][t] // v
            a[r] = [(x - q * y) % d for x, y in zip(a[r], a[t])]
        for c in range(t + 1, k):
            q = a[t][c] // v
            for row in a[t:]:
                row[c] = (row[c] - q * row[t]) % d
        if any(a[r][t] for r in range(t + 1, k)) or any(a[t][t + 1 :]):
            continue
        offender = next(
            (r for r in range(t + 1, k) if any(x % v for x in a[r][t + 1 :])), None
        )
        if offender is not None:
            a[t] = [(x + y) % d for x, y in zip(a[t], a[offender])]
            continue
        factors.append(gcd(v, d))
        t += 1
    return factors


def critical_group(curve, weights):
    residual = clear_unit_pivots(subdivided_laplacian(curve, weights))
    return [x for x in smith_modulo_det(residual) if x > 1]


def compgroup_cli(curve, weights, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve_to_dict(curve)), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["compgroup", str(path), "--weights", ",".join(map(str, weights))])
    assert code == 0
    return json.loads(out.getvalue())["divisors"]


def test_oracles_on_known_groups():
    # A 3-cycle of length-2 loops: Z/2 from each loop, Z/3 from the cycle.
    loop = MonoidVector((2,))
    one = MonoidVector((1,))
    curve = TropicalCurve(
        base_rank=1,
        vertices=(("a", 0), ("b", 0), ("c", 0)),
        edges=(
            Edge("e0", "a", "b", one),
            Edge("e1", "b", "c", one),
            Edge("e2", "c", "a", one),
            Edge("e3", "a", "a", loop),
            Edge("e4", "b", "b", loop),
        ),
    )
    assert critical_group(curve, [1]) == [2, 6]
    assert smith_modulo_det([[2, 0], [0, 3]]) == [1, 6]
    assert smith_modulo_det([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


def test_component_group_matches_unreduced_smith():
    """Against the classical loop of conftest.  That loop does not finish
    (2 s limit) on about one rank-1 Gram matrix in ten at h 17-25 and on
    most rank-3 ones past h = 16, so this is a fixed draw on which it does:
    rank 1 up to h = 25, rank 3 up to h = 16.  The critical-group test below
    covers the sizes past that with no selection."""
    rng = random.Random(126)
    for k in range(24):
        base_rank = (1, 3)[k % 2]
        top = (25, 16)[k % 2]
        curve = random_curve(rng, max_vertices=8, max_edges=top + 7, base_rank=base_rank)
        if graphs.betti_number(curve) > top:
            continue
        weights = [rng.randint(1, 3) for _ in range(base_rank)]
        spec = specialize(pairing_matrix(curve, graphs.cycle_basis(curve)), weights)
        rows = spec.rows()
        unreduced = smith_unreduced(rows)
        assert smith_divisors(rows) == unreduced
        assert component_group(spec) == [d for d in unreduced if d > 1]


def test_small_matrices_match_both_smith_oracles():
    rng = random.Random(109)
    for k in range(400):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
        if k % 2:
            mat = [[mat[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
        if fraction_free_det(mat):
            assert smith_divisors(mat) == smith_unreduced(mat) == smith_modulo_det(mat)
    assert smith_divisors([[8, 0], [0, -11]]) == [1, 88]
    assert smith_divisors([[10, -5], [-5, 10]]) == [5, 15]


def test_compgroup_matches_critical_group_past_h_40(tmp_path):
    rng = random.Random(103)
    cases = [(40, 1, [1]), (50, 3, [1, 2, 1]), (60, 1, [2]), (70, 3, [1, 1, 1]), (78, 1, [1])]
    for low, base_rank, weights in cases:
        curve = random_curve(rng, max_vertices=12, max_edges=90, base_rank=base_rank)
        while not low <= graphs.betti_number(curve) <= 80:
            curve = random_curve(rng, max_vertices=12, max_edges=90, base_rank=base_rank)
        assert compgroup_cli(curve, weights, tmp_path) == critical_group(curve, weights)


def test_smith_modulo_det_edge_cases(monkeypatch):
    # D = 1: a bouquet of unit loops, and square unimodular matrices.
    bouquet = TropicalCurve(
        base_rank=1,
        vertices=(("v", 0),),
        edges=tuple(Edge("e%02d" % k, "v", "v", MonoidVector((1,))) for k in range(12)),
    )
    spec = specialize(pairing_matrix(bouquet, graphs.cycle_basis(bouquet)), [1])
    assert smith_divisors(spec.rows()) == [1] * 12 and component_group(spec) == []
    rng = random.Random(107)
    for h in (1, 2, 5, 12):
        assert smith_divisors(random_unimodular(rng, h)) == [1] * h
    # A square unimodular basis of the bouquet's cycle lattice, checked by
    # the Smith form because its rows do not each own a column.
    u = random_unimodular(rng, 12)
    calls = []
    monkeypatch.setattr(
        graphs, "smith_divisors", lambda mat: calls.append(mat) or smith_divisors(mat)
    )
    CycleBasis(curve=bouquet, matrix=tuple(map(tuple, u)))
    doubled = [list(r) for r in u]
    doubled[0] = [2 * x for x in doubled[0]]
    with pytest.raises(ValueError, match="primitively"):
        CycleBasis(curve=bouquet, matrix=tuple(map(tuple, doubled)))
    assert len(calls) == 2
    # A negative determinant, 1 x 1 and h = 0.
    assert smith_divisors([[1, 2], [2, 1]]) == [1, 3]
    assert component_group(IntSymMatrix(((1, 2), (2, 1)))) == [3]
    assert smith_divisors([[0, 1], [1, 0]]) == [1, 1]
    assert smith_divisors([[-6]]) == [6] and smith_divisors([[1]]) == [1]
    assert smith_divisors([]) == [] and component_group(IntSymMatrix(())) == []
    # Cyclic orders that are not a chain until gcd/lcm normalization.
    assert smith_divisors([[2, 0], [0, 3]]) == [1, 6]
    assert component_group(IntSymMatrix(((4, 0, 0), (0, 6, 0), (0, 0, 9)))) == [6, 36]
    # A singular hand-built matrix keeps today's error.
    with pytest.raises(DegeneratePairingError, match="^degenerate pairing: determinant is zero$"):
        component_group(IntSymMatrix(((2, 2, 0), (2, 2, 0), (0, 0, 5))))


def test_component_group_takes_one_sweep(monkeypatch):
    # An unstamped matrix: the rank of its Smith form is the nondegeneracy
    # test, so no separate determinant sweep runs.
    sweeps = []
    bareiss = intlinalg._bareiss
    monkeypatch.setattr(intlinalg, "_bareiss", lambda mat: sweeps.append(mat) or bareiss(mat))
    assert component_group(IntSymMatrix(((2, 1, 0), (1, 2, 1), (0, 1, 2)))) == [4]
    assert len(sweeps) == 1
    with pytest.raises(DegeneratePairingError, match="^degenerate pairing: determinant is zero$"):
        component_group(IntSymMatrix(((1, 1, 0), (1, 1, 0), (0, 0, 3))))
    assert len(sweeps) == 2


def test_smith_modulo_det_checks_the_product():
    # Modulo 6 the cokernel of [[2, 1], [1, 2]] (order 3) has order 3, not 6.
    with pytest.raises(ArithmeticError, match="multiply to 3"):
        intlinalg._smith_mod([[2, 1], [1, 2]], 6)


def test_smith_modulo_a_minor_checks_the_chain():
    # [[2, 0], [0, 2], [0, 0]] has rank 2 and divisors [2, 2]; modulo 2, not
    # its 2 x 2 minor 4, the first two entries of the chain multiply to 4,
    # which does not divide 2.
    assert intlinalg._smith_mod([[2, 0], [0, 2], [0, 0]], 4, 2) == [2, 2]
    with pytest.raises(ArithmeticError, match="at rank 2"):
        intlinalg._smith_mod([[2, 0], [0, 2], [0, 0]], 2, 2)
