"""Extension classes of finite abelian groups: representatives, invariants,
Baer sums, witnesses, and the counting cross-checks between all routes."""

from itertools import product

import pytest

from monopair.errors import BudgetExceededError, InputFormatError
from monopair.extpan.bruteforce import (
    all_cocycle_tables_literal,
    coboundary_subgroup_order,
    count_cocycles_linalg,
    count_cocycles_mod,
    ext1_order_exhaustive,
    ext1_order_linalg,
    hom_count_exhaustive,
    search_coboundary_witness,
)
from monopair.extpan.cocycles import (
    Cocycle,
    _ext1_classes_unchecked,
    baer_sum,
    carry_cocycle,
    class_negate,
    class_of,
    coboundary_of,
    coboundary_witness,
    ext1_classes,
    ext1_order,
    is_coboundary,
    parse_class_spec,
    split_class,
    zero_cocycle,
)
from monopair.extpan.groups import FinAbGroup, TwistedGroup, homomorphisms, parse_group_spec
from monopair.extpan.variegated import _difference_table

SMALL = [FinAbGroup(f) for f in [(), (2,), (3,), (4,), (2, 2)]]
UP_TO_8 = [
    FinAbGroup(f)
    for f in [
        (),
        (2,),
        (3,),
        (4,),
        (2, 2),
        (5,),
        (6,),
        (7,),
        (8,),
        (2, 4),
        (2, 2, 2),
    ]
]


def test_group_arithmetic_axioms():
    for g in SMALL + [FinAbGroup((6,))]:
        elems = g.elements()
        zero = g.zero()
        for a in elems:
            assert g.add(a, zero) == a
            assert g.add(a, g.neg(a)) == zero
            for b in elems:
                assert g.add(a, b) == g.add(b, a)
        ops = g.ops()
        assert ops.elems == elems and ops.elems[0] == zero
        assert len(elems) == g.order
        # The index tables against the tuple arithmetic, entry by entry.
        for i, a in enumerate(elems):
            assert elems[ops.neg[i]] == g.neg(a)
            assert [elems[k] for k in ops.add[i]] == [g.add(a, b) for b in elems]


def test_parse_group_spec():
    assert parse_group_spec("2,4").factors == (2, 4)
    assert parse_group_spec("1").factors == ()
    assert parse_group_spec(" 3 , 1 ").factors == (3,)
    with pytest.raises(InputFormatError):
        parse_group_spec("0")
    with pytest.raises(InputFormatError):
        parse_group_spec("2,-3")
    with pytest.raises(InputFormatError):
        parse_group_spec("two")
    # int() would read these as 10 and 2.
    for spec in ("1_0", "2,\uff12"):
        with pytest.raises(InputFormatError, match="is not an integer"):
            parse_group_spec(spec)
    with pytest.raises(InputFormatError):
        parse_group_spec("")


def test_ext1_examples():
    z2, z3, z4 = FinAbGroup((2,)), FinAbGroup((3,)), FinAbGroup((4,))
    assert len(ext1_classes(z2, z2)) == 2
    assert len(ext1_classes(z2, z3)) == 1
    assert len(ext1_classes(z4, z2)) == 2
    # The split/nonsplit structure over (Z/2, Z/2): the nonsplit class has
    # nonzero transgression, i.e. the middle group is cyclic of order 4.
    split, nonsplit = ext1_classes(z2, z2)
    assert split.is_split() and not nonsplit.is_split()
    middle = TwistedGroup(z2, z2, nonsplit.cocycle.matrix)
    orders = sorted(
        next(k for k in range(1, 9) if middle.ops().scalar(k, i) == 0)
        for i in range(4)
    )
    assert orders == [1, 2, 4, 4]  # Z/4


def test_ext1_budget():
    with pytest.raises(BudgetExceededError):
        ext1_classes(FinAbGroup((13,)), FinAbGroup((2,)))
    with pytest.raises(BudgetExceededError):
        ext1_classes(FinAbGroup((2,)), FinAbGroup((4, 4)))
    # Order 12 is the boundary and still allowed.
    classes = ext1_classes(FinAbGroup((12,)), FinAbGroup((2, 2, 3)))
    assert len(classes) == 12


def test_every_builder_produces_valid_cocycles():
    """Exhaustive triple-checking of tables from every construction path."""
    for q, p in product(SMALL, SMALL):
        zero_cocycle(q, p)._validate()
        tops = p.ops()
        for cls in _ext1_classes_unchecked(q, p):
            cls.cocycle._validate()
        # Coboundaries of arbitrary normalized maps are cocycles.
        for shift in range(min(3, tops.n)):
            h = [0] + [(i + shift) % tops.n for i in range(q.order - 1)]
            coboundary_of(q, p, h)._validate()
        if q.order > 1 and p.order > 1:
            summed = baer_sum(
                _ext1_classes_unchecked(q, p)[-1], _ext1_classes_unchecked(q, p)[-1]
            )
            summed.cocycle._validate()


def test_carry_class_count_and_distinctness():
    import math

    for q, p in product(UP_TO_8, UP_TO_8):
        classes = _ext1_classes_unchecked(q, p)
        expected = 1
        for m in q.factors:
            block = 1
            for n in p.factors:
                block *= math.gcd(m, n)
            expected *= block
        assert len(classes) == expected
        assert ext1_order(q, p) == expected
        assert len({cls.invariant() for cls in classes}) == expected


def test_carry_transgression_recovers_parameters():
    q = FinAbGroup((4, 2))
    p = FinAbGroup((8,))
    tops = p.ops()
    for params in product(tops.coset_transversal(4), tops.coset_transversal(2)):
        cocycle = carry_cocycle(q, p, params)
        assert cocycle.transgressions() == params


def test_invariant_matches_exhaustive_search():
    """The transgression residues decide cohomology exactly (oracle check)."""
    cases = [
        (FinAbGroup((2,)), FinAbGroup((2,))),
        (FinAbGroup((2,)), FinAbGroup((4,))),
        (FinAbGroup((3,)), FinAbGroup((3,))),
        (FinAbGroup((4,)), FinAbGroup((2,))),
        (FinAbGroup((2, 2)), FinAbGroup((2,))),
        (FinAbGroup((4,)), FinAbGroup((4,))),
    ]
    for q, p in cases:
        tables = all_cocycle_tables_literal(q, p)
        for f in tables:
            for g in tables:
                fast = class_of(f).is_cohomologous(class_of(g))
                witness = search_coboundary_witness(_difference_table(f, g))
                assert fast == (witness is not None)
                if witness is not None:
                    rebuilt = coboundary_of(q, p, witness)
                    assert rebuilt.matrix == _difference_table(f, g).matrix


def test_constructive_witness_agrees_with_search():
    for q, p in product(SMALL, SMALL):
        tables = all_cocycle_tables_literal(q, p)
        for f in tables:
            diff = _difference_table(f, f)
            built = coboundary_witness(diff)
            assert built is not None
            for g in tables[:3]:
                diff = _difference_table(f, g)
                built = coboundary_witness(diff)
                searched = search_coboundary_witness(diff)
                assert (built is None) == (searched is None)
                if built is not None:
                    assert coboundary_of(q, p, built).matrix == diff.matrix


def test_baer_sum_laws():
    z2 = FinAbGroup((2,))
    split, nonsplit = _ext1_classes_unchecked(z2, z2)
    assert baer_sum(split, nonsplit) == nonsplit
    assert baer_sum(nonsplit, nonsplit).is_split()
    assert baer_sum(nonsplit, class_negate(nonsplit)).is_split()
    with pytest.raises(ValueError):
        baer_sum(split, split_class(z2, FinAbGroup((3,))))


def test_baer_group_axioms_small():
    for q, p in product(SMALL, SMALL):
        classes = _ext1_classes_unchecked(q, p)
        by_invariant = {cls.invariant(): cls for cls in classes}
        identity = split_class(q, p)
        assert identity.invariant() in by_invariant
        for x in classes:
            assert baer_sum(identity, x) == x
            assert baer_sum(x, class_negate(x)).is_split()
            for y in classes:
                xy = baer_sum(x, y)
                assert xy.invariant() in by_invariant
                assert xy == baer_sum(y, x)
                for z in classes[:2]:
                    assert baer_sum(xy, z) == baer_sum(x, baer_sum(y, z))


def test_residue_group_law_matches_table_law():
    """Baer sum and negation on residues against their table definitions:
    the pointwise sum or negation of the canonical tables, reduced to a
    class.  Every canonical table is a valid cocycle of its own class."""
    for q, p in product(UP_TO_8, UP_TO_8):
        tops = p.ops()
        classes = _ext1_classes_unchecked(q, p)
        for x in classes:
            x.cocycle._validate()
            assert class_of(x.cocycle) == x
            negated = tuple(tuple(tops.neg[v] for v in row) for row in x.cocycle.matrix)
            assert class_negate(x) == class_of(Cocycle(q, p, negated, check=False))
        for x in classes if len(classes) <= 64 else classes[:16]:
            for y in classes:
                summed = tuple(
                    tuple(tops.add[u][v] for u, v in zip(rx, ry))
                    for rx, ry in zip(x.cocycle.matrix, y.cocycle.matrix)
                )
                assert baer_sum(x, y) == class_of(Cocycle(q, p, summed, check=False))


def test_counting_routes_agree():
    """Carry counting vs exhaustive coboundary-quotient vs linear algebra.

    The fully enumerated route runs wherever the per-component search space
    is bounded; the Smith-form route covers every pair up to order 8.
    """
    for q, p in product(UP_TO_8, UP_TO_8):
        expected = ext1_order(q, p)
        assert ext1_order_linalg(q, p) == expected
        if all(n ** (q.order - 1) <= 20000 for n in p.factors):
            assert ext1_order_exhaustive(q, p) == expected


def test_cocycle_counts_by_component():
    for q in SMALL:
        for n in (2, 3, 4):
            dfs = count_cocycles_mod(q, n)
            lin = count_cocycles_linalg(q, n)
            assert dfs == lin
            literal = all_cocycle_tables_literal(q, FinAbGroup((n,)))
            assert len(literal) == dfs
            b2 = coboundary_subgroup_order(q, n)
            # |B2| = |C1| / |Hom|, with Hom counted by scanning.
            hom = hom_count_exhaustive(q, FinAbGroup((n,)))
            assert b2 * hom == n ** (q.order - 1)


def test_is_coboundary_and_split():
    z4 = FinAbGroup((4,))
    z2 = FinAbGroup((2,))
    for cls in _ext1_classes_unchecked(z4, z2):
        assert is_coboundary(cls.cocycle) == cls.is_split()


def test_homomorphisms_enumeration():
    z4 = FinAbGroup((4,))
    z2 = FinAbGroup((2,))
    homs = homomorphisms(z4, z2.ops())
    assert len(homs) == 2  # x -> 0 and x -> x mod 2
    tables = {h for h in homs}
    assert (0, 0, 0, 0) in tables
    assert (0, 1, 0, 1) in tables
    # Trivial source has exactly the zero map.
    assert homomorphisms(FinAbGroup(()), z2.ops()) == ((0,),)


def test_parse_class_spec():
    z2 = FinAbGroup((2,))
    z3 = FinAbGroup((3,))
    assert parse_class_spec("split", z2, z2).is_split()
    assert not parse_class_spec("nonsplit", z2, z2).is_split()
    with pytest.raises(ValueError):
        parse_class_spec("nonsplit", z2, z3)  # class group trivial
    with pytest.raises(ValueError):
        parse_class_spec("nonsplit", FinAbGroup((2, 2)), z2)  # order 4
    with pytest.raises(ValueError):
        parse_class_spec("other", z2, z2)


def test_cocycle_validation_rejects_bad_tables():
    z2 = FinAbGroup((2,))
    with pytest.raises(ValueError, match="normalized"):
        Cocycle(z2, z2, ((1, 0), (0, 0)))
    with pytest.raises(ValueError, match="symmetric"):
        Cocycle(FinAbGroup((3,)), z2, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    z4 = FinAbGroup((4,))
    bad = [[0] * 4 for _ in range(4)]
    bad[1][1] = 1
    bad[2][1] = bad[1][2] = 0
    bad[3][3] = 0
    with pytest.raises(ValueError, match="identity"):
        Cocycle(z4, z2, bad)
