"""Variegated extensions: fibers, the class-group action, differences,
butterfly witnesses, and the torsor laws."""

import random
from itertools import product

import pytest

from monopair.errors import BudgetExceededError, MonopairError
from monopair.extpan import variegated
from monopair.extpan.bruteforce import extpan_fiber_exhaustive, variegated_iso_search
from monopair.extpan.cocycles import (
    Cocycle,
    ExtClass,
    _ext1_classes_unchecked,
    baer_sum,
    class_negate,
    class_of,
    coboundary_of,
    ext1_order,
    reduced_class,
    split_class,
)
from monopair.extpan.groups import FinAbGroup
from monopair.extpan.variegated import (
    act,
    connecting_image,
    difference,
    extpan_fiber,
    pushforward,
    torsor_report,
    twisted_middle,
)

Z2 = FinAbGroup((2,))
Z3 = FinAbGroup((3,))
Z4 = FinAbGroup((4,))
V4 = FinAbGroup((2, 2))
TRIV = FinAbGroup(())
SMALL = [TRIV, Z2, Z3, Z4, V4]


def nonsplit(q, r):
    for cls in _ext1_classes_unchecked(q, r):
        if not cls.is_split():
            return cls
    raise AssertionError("no nonsplit class available")


def _pair_add(g, a, b):
    """Addition of a twisted group written out on element tuples:
    (r1, p1) + (r2, p2) = (r1 + r2, p1 + p2 + f(r1, r2)), recursively for a
    twisted fiber."""
    if isinstance(g, FinAbGroup):
        return g.add(a, b)
    rindex = g.base.ops().index
    twist = g.fiber.elements()[g.table[rindex[a[0]]][rindex[b[0]]]]
    return (g.base.add(a[0], b[0]), _pair_add(g.fiber, _pair_add(g.fiber, a[1], b[1]), twist))


def _pair_neg(g, a):
    """-(r, p) = (-r, -(p + f(r, -r))) on element tuples."""
    if isinstance(g, FinAbGroup):
        return g.neg(a)
    rindex = g.base.ops().index
    nr = g.base.neg(a[0])
    twist = g.fiber.elements()[g.table[rindex[a[0]]][rindex[nr]]]
    return (nr, _pair_neg(g.fiber, _pair_add(g.fiber, a[1], twist)))


def _check_pair_tables(g):
    """ops(), project_table() and include_table() of a twisted group against
    the pair formula and the tuple definitions of projection and inclusion."""
    elems = g.elements()
    ops = g.ops()
    assert ops.elems == elems
    for i, a in enumerate(elems):
        assert elems[ops.neg[i]] == _pair_neg(g, a)
        assert [elems[k] for k in ops.add[i]] == [_pair_add(g, a, b) for b in elems]
    rindex = g.base.ops().index
    assert g.project_table() == tuple(rindex[e[0]] for e in elems)
    zero = g.base.zero()
    assert tuple(g.include_table()) == tuple(ops.index[(zero, p)] for p in g.fiber.elements())


def test_twisted_middle_group_structure():
    for r, p in product(SMALL, SMALL):
        for f in _ext1_classes_unchecked(r, p):
            _check_pair_tables(twisted_middle(f))
    # Nested: the total group of a variegated class is twisted over a
    # twisted fiber (Z/8 over Z/2's; Z/4 + Z/2 from a split F).
    for f in (nonsplit(Z2, Z2), split_class(Z2, Z2)):
        for wv in extpan_fiber(nonsplit(Z2, Z2), f):
            _check_pair_tables(wv.total_group())

    f = nonsplit(Z2, Z2)  # middle group must be Z/4
    middle = twisted_middle(f)
    assert middle.order == 4
    ops = middle.ops()
    max_order = max(
        next(k for k in range(1, 9) if ops.scalar(k, i) == 0) for i in range(4)
    )
    assert max_order == 4
    split_middle = twisted_middle(split_class(Z2, Z2))
    ops = split_middle.ops()
    assert max(
        next(k for k in range(1, 9) if ops.scalar(k, i) == 0) for i in range(4)
    ) == 2


def test_pushforward_examples():
    f = nonsplit(Z2, Z2)
    middle = twisted_middle(f)
    # Split class pushes to split.
    w = split_class(Z2, middle)
    assert pushforward(w, middle).is_split()
    # Trivial quotient: everything pushes to the unique class.
    f0 = split_class(TRIV, Z2)
    middle0 = twisted_middle(f0)
    w0 = _ext1_classes_unchecked(Z2, middle0)[-1]
    assert pushforward(w0, middle0).is_split()
    # Classes in a fiber push to E by construction.
    e = nonsplit(Z2, Z2)
    for wv in extpan_fiber(e, f):
        assert pushforward(class_of(wv.w), middle).is_cohomologous(e)


def test_pushforward_matches_projected_table():
    """pushforward on residues against its table definition: the projected
    canonical table, reduced to a class.  Checked on every class of Q by the
    middle group (fiber or not) for the torsor_report cases below and for
    every F over small shapes."""
    cases = [
        (Z2, split_class(TRIV, Z2)),
        (Z2, split_class(Z2, Z2)),
        (Z2, nonsplit(Z2, Z2)),
    ]
    for q, r, p in product([Z2, Z4, V4], [Z2, Z4], [Z2, Z4]):
        cases += [(q, f) for f in _ext1_classes_unchecked(r, p)]
    for q, f in cases:
        middle = twisted_middle(f)
        proj = middle.project_table()
        for cls in _ext1_classes_unchecked(q, middle):
            table = tuple(tuple(proj[v] for v in row) for row in cls.cocycle.matrix)
            expected = class_of(Cocycle(q, middle.base, table, check=False))
            assert pushforward(cls, middle) == expected


def test_fiber_r_trivial_matches_ext_classes():
    """With trivial middle quotient the fiber is canonically the class group."""
    for q, p in product([Z2, Z3, V4], [Z2, Z3, Z4]):
        e = split_class(q, TRIV)
        f = split_class(TRIV, p)
        fiber = extpan_fiber(e, f)
        assert len(fiber) == ext1_order(q, p)
        # Extract the bottom-group part of each table; together they must
        # exhaust the classes of Q by P.
        middle = twisted_middle(f)
        include = middle.include_table()
        back = {fi: pi for pi, fi in enumerate(include)}
        seen = set()
        for wv in fiber:
            matrix = tuple(tuple(back[v] for v in row) for row in wv.w.matrix)
            from monopair.extpan.cocycles import Cocycle

            seen.add(class_of(Cocycle(q, p, matrix)).invariant())
        expected = {cls.invariant() for cls in _ext1_classes_unchecked(q, p)}
        assert seen == expected


def test_fiber_p_trivial_single_class():
    e = nonsplit(Z2, Z2)
    f = split_class(Z2, TRIV)
    fiber = extpan_fiber(e, f)
    assert len(fiber) == 1
    # The total group of the single class is the middle group of E itself.
    total = fiber[0].total_group()
    ops = total.ops()
    max_order = max(
        next(k for k in range(1, 9) if ops.scalar(k, i) == 0) for i in range(ops.n)
    )
    assert max_order == 4


def test_fiber_all_nonsplit_z2_case():
    """E, F nonsplit over (Z/2, Z/2, Z/2): a single class, with total group
    Z/8 (the stabilizer is everything, so the fiber collapses)."""
    e = nonsplit(Z2, Z2)
    f = nonsplit(Z2, Z2)
    fiber = extpan_fiber(e, f)
    assert len(fiber) == 1
    total = fiber[0].total_group()
    ops = total.ops()
    max_order = max(
        next(k for k in range(1, 17) if ops.scalar(k, i) == 0) for i in range(ops.n)
    )
    assert max_order == 8


def test_fiber_split_f_two_classes_with_z8_and_product():
    """E nonsplit, F split over Z/2's: both lifts appear, Z/4 + Z/2 and Z/8
    do not occur; the two classes have total groups Z/4+Z/2 twice (they differ
    by the bottom twist, not by group type)."""
    e = nonsplit(Z2, Z2)
    f = split_class(Z2, Z2)
    fiber = extpan_fiber(e, f)
    assert len(fiber) == 2
    assert not fiber[0].is_isomorphic(fiber[1])


def test_fiber_budget():
    with pytest.raises(BudgetExceededError):
        extpan_fiber(split_class(FinAbGroup((9,)), Z2), split_class(Z2, Z2))


def test_fiber_mismatch_rejected():
    e = split_class(Z2, Z3)
    f = split_class(Z2, Z2)
    with pytest.raises(MonopairError):
        extpan_fiber(e, f)


def test_butterfly_witness_identifies_pushout():
    """delta(butterfly) carries the projection of w exactly onto E's table,
    and the two butterfly legs have the right kernels and images."""
    for q, r, p in product([Z2, Z3, V4], [TRIV, Z2, Z3], [Z2, Z4]):
        for e in _ext1_classes_unchecked(q, r):
            for f in _ext1_classes_unchecked(r, p):
                middle = twisted_middle(f)
                proj = middle.project_table()
                rops = r.ops()
                for wv in extpan_fiber(e, f)[:2]:
                    delta = coboundary_of(q, r, list(wv.butterfly))
                    projected = tuple(
                        tuple(proj[v] for v in row) for row in wv.w.matrix
                    )
                    expected = tuple(
                        tuple(
                            rops.add[e.cocycle.matrix[a][b]][delta.matrix[a][b]]
                            for b in range(q.order)
                        )
                        for a in range(q.order)
                    )
                    assert projected == expected
                    _check_butterfly_legs(wv)


def _check_butterfly_legs(wv):
    """Middle -> total is injective onto the kernel of total -> Q, and the
    induced map total -> (middle of E) built from the butterfly witness is a
    surjection with kernel the included bottom group."""
    total = wv.total_group()
    middle = wv.middle
    ops = total.ops()
    q = wv.q_group
    r = middle.base
    # Leg 1: middle -> total, x -> (0, x), hitting the kernel of total -> Q.
    images = {ops.index[(q.zero(), x)] for x in middle.elements()}
    assert len(images) == middle.order
    kernel_of_projection = {
        i for i, (qe, x) in enumerate(total.elements()) if qe == q.zero()
    }
    assert images == kernel_of_projection
    # Leg 2: total -> E's middle group, (q, x) -> (q, proj x + k(q)).
    e_middle = twisted_middle(wv.e_class)
    qops = q.ops()
    rops = r.ops()
    relems = r.elements()
    proj = middle.project_table()
    mops = middle.ops()
    seen = set()
    kernel = set()
    for (qe, x) in total.elements():
        r_idx = proj[mops.index[x]]
        k_idx = wv.butterfly[qops.index[qe]]
        image = (qe, relems[rops.add[r_idx][k_idx]])
        seen.add(image)
        if image == (q.zero(), r.zero()):
            kernel.add((qe, x))
    assert len(seen) == e_middle.order
    included_bottom = {
        (q.zero(), x) for x in middle.elements() if proj[mops.index[x]] == 0
    }
    assert kernel == included_bottom


def test_act_identity_and_composition():
    e = nonsplit(Z2, Z2)
    f = split_class(Z2, Z2)
    fiber = extpan_fiber(e, f)
    classes = _ext1_classes_unchecked(Z2, Z2)
    for wv in fiber:
        assert act(wv, split_class(Z2, Z2)).is_isomorphic(wv)
        for x in classes:
            for y in classes:
                assert act(act(wv, x), y).w.matrix == act(wv, baer_sum(x, y)).w.matrix


def test_act_rejects_wrong_shape():
    e = nonsplit(Z2, Z2)
    f = split_class(Z2, Z2)
    wv = extpan_fiber(e, f)[0]
    with pytest.raises(MonopairError):
        act(wv, split_class(Z2, Z3))
    with pytest.raises(MonopairError):
        act(wv, split_class(Z3, Z2))


def test_difference_examples():
    e = nonsplit(Z2, Z2)
    f = split_class(Z2, Z2)
    w1, w2 = extpan_fiber(e, f)
    assert difference(w1, w1).is_split()
    assert act(w1, difference(w1, w2)).is_isomorphic(w2)
    assert act(w2, difference(w2, w1)).is_isomorphic(w1)
    with pytest.raises(MonopairError):
        difference(w1, extpan_fiber(nonsplit(Z2, Z2), nonsplit(Z2, Z2))[0])
    # Same F, different E.
    with pytest.raises(MonopairError):
        difference(w1, extpan_fiber(split_class(Z2, Z2), f)[0])


def test_difference_r_trivial_is_baer_difference():
    """Under the trivial-quotient identification the torsor difference is the
    Baer difference of class-group elements."""
    q, p = Z2, Z4
    e = split_class(q, TRIV)
    f = split_class(TRIV, p)
    middle = twisted_middle(f)
    include = middle.include_table()
    back = {fi: pi for pi, fi in enumerate(include)}
    fiber = extpan_fiber(e, f)

    def to_class(wv):
        from monopair.extpan.cocycles import Cocycle

        matrix = tuple(tuple(back[v] for v in row) for row in wv.w.matrix)
        return class_of(Cocycle(q, p, matrix))

    for w1 in fiber:
        for w2 in fiber:
            d = difference(w1, w2)
            expected = baer_sum(to_class(w2), class_negate(to_class(w1)))
            assert d == expected


def test_act_r_trivial_is_baer_sum():
    q, p = Z2, Z2
    e = split_class(q, TRIV)
    f = split_class(TRIV, p)
    middle = twisted_middle(f)
    include = middle.include_table()
    back = {fi: pi for pi, fi in enumerate(include)}
    fiber = extpan_fiber(e, f)

    def to_class(wv):
        from monopair.extpan.cocycles import Cocycle

        matrix = tuple(tuple(back[v] for v in row) for row in wv.w.matrix)
        return class_of(Cocycle(q, p, matrix))

    for wv in fiber:
        for x in _ext1_classes_unchecked(q, p):
            assert to_class(act(wv, x)) == baer_sum(to_class(wv), x)


def test_iso_matches_exhaustive_search():
    for e_spec, f_spec in product([0, 1], repeat=2):
        e = _ext1_classes_unchecked(Z2, Z2)[e_spec]
        f = _ext1_classes_unchecked(Z2, Z2)[f_spec]
        fiber = extpan_fiber(e, f)
        for w1 in fiber:
            for w2 in fiber:
                assert w1.is_isomorphic(w2) == variegated_iso_search(w1, w2)
                # Acting by a nonsplit class lands isomorphic iff stabilized.
        classes = _ext1_classes_unchecked(Z2, Z2)
        stab = {c.invariant() for c in connecting_image(f, Z2)}
        for wv in fiber:
            for x in classes:
                moved = act(wv, x)
                assert moved.is_isomorphic(wv) == (x.invariant() in stab)
                assert variegated_iso_search(moved, wv) == (x.invariant() in stab)


def test_torsor_report_examples():
    # Remark case: trivial middle quotient, free and transitive.
    report = torsor_report(split_class(Z2, TRIV), split_class(TRIV, Z2))
    assert report.to_dict() == {
        "fiber_size": 2,
        "ext1_order": 2,
        "stabilizer_order": 1,
        "transitive": True,
        "section_ok": True,
    }
    # F split: the connecting map vanishes, the action is free.
    report = torsor_report(nonsplit(Z2, Z2), split_class(Z2, Z2))
    assert report.fiber_size == 2
    assert report.stabilizer_order == 1
    assert report.transitive and report.section_ok
    # F nonsplit: the connecting map fills the class group; one class.
    report = torsor_report(nonsplit(Z2, Z2), nonsplit(Z2, Z2))
    assert report.fiber_size == 1
    assert report.stabilizer_order == 2
    assert report.transitive and report.section_ok


def test_torsor_report_builds_no_butterfly(monkeypatch):
    """The report runs on residues alone: no butterfly witness is built."""
    cases = [
        (split_class(Z2, TRIV), split_class(TRIV, Z2)),
        (nonsplit(Z2, Z2), split_class(Z2, Z2)),
        (nonsplit(Z2, Z2), nonsplit(Z2, Z2)),
        (nonsplit(V4, Z4), split_class(Z4, Z2)),
    ]
    expected = [torsor_report(e, f) for e, f in cases]

    def no_witness(diff):
        raise AssertionError("butterfly witness built")

    monkeypatch.setattr(variegated, "coboundary_witness", no_witness)
    assert [torsor_report(e, f) for e, f in cases] == expected


# (P, Q, R) factors at the budget corners of the extpan_torsor benchmark.
TORSOR_CORNERS = [((2, 2, 2), (2, 2), (2, 2)), ((8,), (8,), (8,)), ((2, 4), (2, 4), (2,))]


def _oracle_cases():
    """Every (E, F) with P, Q, R of order <= 4; at each budget corner the
    split F (the largest fiber) and a seeded sample of other F, one E each."""
    cases = [
        (e, f)
        for p, q, r in product(SMALL, repeat=3)
        for f in _ext1_classes_unchecked(r, p)
        for e in _ext1_classes_unchecked(q, r)
    ]
    rng = random.Random(2019)
    for factors in TORSOR_CORNERS:
        p, q, r = (FinAbGroup(f) for f in factors)
        es = _ext1_classes_unchecked(q, r)
        fs = _ext1_classes_unchecked(r, p)
        cases += [(rng.choice(es), f) for f in fs[:1] + rng.sample(fs[1:], 3)]
    return cases


def test_residue_calculus_matches_table_oracles():
    """The lifted fiber equals the filtered enumeration class by class and
    in order; acting with a difference lands isomorphic by exhaustive search;
    and act is the pointwise sum of w and the included table of x."""
    for e, f in _oracle_cases():
        fiber = extpan_fiber(e, f)
        assert [wv.w_class() for wv in fiber] == extpan_fiber_exhaustive(e, f)
        q, p = e.source, f.target
        middle = fiber[0].middle
        include = middle.include_table()
        add = middle.ops().add
        for w1 in fiber:
            for w2 in fiber:
                assert variegated_iso_search(act(w1, difference(w1, w2)), w2)
            for x in _ext1_classes_unchecked(q, p):
                table = tuple(
                    tuple(add[u][include[v]] for u, v in zip(rw, rx))
                    for rw, rx in zip(w1.w.matrix, x.cocycle.matrix)
                )
                expected = class_of(Cocycle(q, middle, table, check=False))
                assert act(w1, x).w_class() == expected


def _reduced(source, target, transgressions):
    """Residues of a class from any transgressions, by M's coset tables."""
    tops = target.ops()
    return tuple(tops.coset_table(m)[t] for t, m in zip(transgressions, source.factors))


def _act_residues(wv, x):
    """The coset reduction of add[w][include[x]], factor by factor."""
    middle = wv.middle
    include = middle.include_table()
    add = middle.ops().add
    sums = (add[w][include[v]] for w, v in zip(wv.cls.residues, x.residues))
    return _reduced(wv.q_group, middle, sums)


def _difference_residues(base, target):
    """The least p whose inclusion lies in the coset of target - base, found
    by scanning P, then reduced modulo m*P; None where there is none."""
    middle = base.middle
    ops = middle.ops()
    include = middle.include_table()
    preimages = []
    for b, t, m in zip(base.cls.residues, target.cls.residues, base.q_group.factors):
        coset = ops.coset_table(m)
        d = coset[ops.sub(t, b)]
        p = next((p for p, v in enumerate(include) if coset[v] == d), None)
        if p is None:
            return None
        preimages.append(p)
    return _reduced(base.q_group, middle.fiber, preimages)


def _check_class_law(classes):
    """baer_sum, class_negate and reduced_class on classes over one pair of
    groups against the residue sum and negation, reduced by coset tables."""
    q, t = classes[0].source, classes[0].target
    ops = t.ops()
    for x in classes:
        minus_x = class_negate(x)
        assert type(minus_x.residues) is tuple
        assert minus_x.residues == _reduced(q, t, (ops.neg[r] for r in x.residues))
        for y in classes:
            expected = _reduced(q, t, (ops.add[r][s] for r, s in zip(x.residues, y.residues)))
            assert baer_sum(x, y).residues == expected
    for trans in product(range(t.order), repeat=len(q.factors)):
        assert reduced_class(q, t, iter(trans)).residues == _reduced(q, t, trans)


def test_class_tables_match_the_residue_formulas():
    """act, difference, baer_sum, class_negate and reduced_class, read from
    the cached per-factor tables, against the formulas they replace: on
    every (E, F) with P, Q, R of order <= 4 and at the budget corners, for
    every fiber pair, every acting class, and every pair of classes of Q by
    P, by R and by the middle group among the fiber."""
    checked = set()
    for e, f in _oracle_cases():
        q, r, p = e.source, e.target, f.target
        fiber = extpan_fiber(e, f)
        x_classes = _ext1_classes_unchecked(q, p)
        for w1 in fiber:
            for w2 in fiber:
                d = difference(w1, w2)
                assert d == ExtClass(q, p, _difference_residues(w1, w2))
                assert type(d.residues) is tuple
            for x in x_classes:
                moved = act(w1, x)
                assert (moved.e_class, moved.f_class) == (e, f)
                assert moved.cls == ExtClass(q, w1.middle, _act_residues(w1, x))
                assert type(moved.cls.residues) is tuple
        _check_class_law([wv.cls for wv in fiber])
        for source, target in ((q, p), (q, r)):
            if (source.factors, target.factors) not in checked:
                checked.add((source.factors, target.factors))
                _check_class_law(_ext1_classes_unchecked(source, target))


def test_difference_rejects_a_class_not_over_e():
    """A hand-built variegated class whose class of Q by M does not push
    forward to E has no difference with the fiber."""
    e = split_class(Z2, Z2)
    f = split_class(Z2, Z2)
    base = extpan_fiber(e, f)[0]
    middle = base.middle
    # The residue of (1, 0) projects to the nonzero element of R.
    off_e = ExtClass(Z2, middle, (middle.ops().index[((1,), (0,))],))
    assert pushforward(off_e, middle) != e
    stray = variegated.VariegatedClass(e_class=e, f_class=f, cls=off_e)
    assert _difference_residues(base, stray) is None
    with pytest.raises(MonopairError, match="projections are not cohomologous"):
        difference(base, stray)


def test_torsor_report_calls_the_public_class_operations(monkeypatch):
    """The report checks the functions users call: act, difference,
    baer_sum and class_negate, each at least once per fiber element."""
    cases = [
        (nonsplit(Z2, Z2), split_class(Z2, Z2)),
        (nonsplit(V4, Z4), split_class(Z4, Z2)),
    ]
    for factors in TORSOR_CORNERS:
        p, q, r = (FinAbGroup(f) for f in factors)
        cases.append((_ext1_classes_unchecked(q, r)[-1], split_class(r, p)))
    expected = [torsor_report(e, f) for e, f in cases]
    names = ("act", "difference", "baer_sum", "class_negate")
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(variegated, name, counting(name, getattr(variegated, name)))
    for (e, f), report in zip(cases, expected):
        counts.update(dict.fromkeys(names, 0))
        assert torsor_report(e, f) == report
        assert min(counts.values()) >= report.fiber_size, counts


def test_connecting_image_split_f_is_trivial():
    for q, r, p in product([Z2, Z4, V4], [Z2, Z3], [Z2, Z4]):
        image = connecting_image(split_class(r, p), q)
        assert len(image) == 1 and image[0].is_split()


def test_exactness_by_counting():
    """|fiber| * |stabilizer| = |Ext(Q, P)| across all small shapes, and the
    fiber count equals the index computed from the hom sequence."""
    from monopair.extpan.groups import homomorphisms

    for p, q, r in product(SMALL[:4], SMALL[:4], SMALL[:4]):
        for f in _ext1_classes_unchecked(r, p):
            middle = twisted_middle(f)
            stab = connecting_image(f, q)
            # Image of Hom(Q, middle) -> Hom(Q, R) as projection tables.
            proj = middle.project_table()
            pushed = {
                tuple(proj[v] for v in hom)
                for hom in homomorphisms(q, middle.ops())
            }
            hom_qr = homomorphisms(q, r.ops())
            assert len(stab) * len(pushed) == len(hom_qr)
            for e in _ext1_classes_unchecked(q, r):
                fiber = extpan_fiber(e, f)
                assert len(fiber) * len(stab) == ext1_order(q, p)


def test_fiber_classes_are_pairwise_distinct():
    for q, r, p in product([Z2, V4], [Z2], [Z2, Z4]):
        for e in _ext1_classes_unchecked(q, r):
            for f in _ext1_classes_unchecked(r, p):
                fiber = extpan_fiber(e, f)
                for i, w1 in enumerate(fiber):
                    for j, w2 in enumerate(fiber):
                        assert w1.is_isomorphic(w2) == (i == j)
