"""The search kernels against planted witnesses and exact linear algebra."""

import random
from itertools import product

from monopair.extpan.bruteforce import (
    all_cocycle_tables_literal,
    count_cocycles_linalg,
    count_cocycles_mod,
    search_coboundary_witness,
)
from monopair.extpan.cocycles import (
    _ext1_classes_unchecked,
    coboundary_of,
    zero_cocycle,
)
from monopair.extpan.groups import FinAbGroup


def test_search_finds_planted_witnesses():
    rng = random.Random(67)
    for factors, tfactors in [
        ((2,), (2,)),
        ((4,), (4,)),
        ((2, 2), (2, 4)),
        ((6,), (3,)),
        ((3, 3), (3,)),
    ]:
        q = FinAbGroup(factors)
        t = FinAbGroup(tfactors)
        tops = t.ops()
        for _ in range(10):
            h = [0] + [rng.randrange(tops.n) for _ in range(q.order - 1)]
            diff = coboundary_of(q, t, h)
            found = search_coboundary_witness(diff)
            assert found is not None
            assert coboundary_of(q, t, found).matrix == diff.matrix
            if tops.n ** (q.order - 1) <= 512:
                # The search returns the least witness in plain enumeration order.
                least = next(
                    [0, *tail]
                    for tail in product(range(tops.n), repeat=q.order - 1)
                    if coboundary_of(q, t, [0, *tail]).matrix == diff.matrix
                )
                assert found == least


def test_search_rejects_noncoboundaries():
    for q, p in [
        (FinAbGroup((2,)), FinAbGroup((2,))),
        (FinAbGroup((4,)), FinAbGroup((2,))),
        (FinAbGroup((2, 2)), FinAbGroup((2,))),
    ]:
        for cls in _ext1_classes_unchecked(q, p):
            witness = search_coboundary_witness(cls.cocycle)
            assert (witness is not None) == cls.is_split()


def test_count_matches_linear_algebra():
    for factors in [(), (2,), (3,), (4,), (2, 2), (6,), (4, 2), (8,), (2, 2, 2)]:
        q = FinAbGroup(factors)
        for n in (2, 3, 4):
            if n ** max(0, q.order - 1) > 20000:
                continue
            assert count_cocycles_mod(q, n) == count_cocycles_linalg(q, n)


def test_collect_mode_lists_all_solutions():
    # Collected value tuples, as tables, are the literal oracle's tables in
    # the same (lexicographic) order.
    for factors, n in [
        ((4,), 2), ((2,), 3), ((3,), 3), ((2, 2), 2), ((2, 2), 3), ((4,), 3), ((5,), 2)
    ]:
        q = FinAbGroup(factors)
        tables = count_cocycles_mod(q, n, collect=True)
        assert len(tables) == count_cocycles_mod(q, n)
        pairs = [(a, b) for a in range(1, q.order) for b in range(a, q.order)]
        matrices = []
        for values in tables:
            lookup = dict(zip(pairs, values))
            matrices.append(tuple(
                tuple(
                    0 if a == 0 or b == 0 else lookup[(a, b) if a <= b else (b, a)]
                    for b in range(q.order)
                )
                for a in range(q.order)
            ))
        literal = all_cocycle_tables_literal(q, FinAbGroup((n,)))
        assert matrices == [table.matrix for table in literal]


def test_trivial_source_edge_cases():
    q = FinAbGroup(())
    t = FinAbGroup((4,))
    diff = zero_cocycle(q, t)
    assert search_coboundary_witness(diff) == [0]
    assert count_cocycles_mod(q, 4) == 1
