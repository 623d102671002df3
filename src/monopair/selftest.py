"""Seeded property suites behind the ``selftest`` CLI command.

Each property runs a deterministic batch of random instances (graphs) or a
fixed small sweep (groups) and reports how many cases it checked.  The count
argument scales the graph batches; group sweeps are fixed-size.
"""

import random

from .extpan.bruteforce import ext1_order_exhaustive
from .extpan.cocycles import _ext1_classes_unchecked, ext1_order
from .extpan.groups import FinAbGroup
from .extpan.variegated import torsor_report
from .graphs import betti_number, boundary_matrix, cycle_basis
from .intlinalg import (
    det,
    leading_minors_all_positive,
    mat_mul,
    smith_divisors,
    transpose,
)
from .pairing import (
    IntSymMatrix,
    component_group,
    curve_component_group,
    is_positive_definite,
    pairing_matrix,
    specialize,
)
from .realizations import (
    hodge_table,
    monodromy_weight_check,
    nilpotent_rank,
    picard_lefschetz,
    weight_dims,
)
from .randomgen import random_curve, random_unimodular


def _rng(seed, name):
    return random.Random("%s:%s" % (seed, name))


def _specialized(curve):
    basis = cycle_basis(curve)
    return basis, specialize(pairing_matrix(curve, basis), [1] * curve.base_rank)


def check_cycle_space(seed, count):
    rng = _rng(seed, "cycle_space")
    cases = 0
    for _ in range(count):
        curve = random_curve(rng)
        basis = cycle_basis(curve)
        h = betti_number(curve)
        if len(basis.matrix) != h:
            return cases, False
        boundary = boundary_matrix(curve)
        for row in basis.matrix:
            if any(sum(b * c for b, c in zip(br, row)) for br in boundary):
                return cases, False
        if h and smith_divisors([list(r) for r in basis.matrix]) != [1] * h:
            return cases, False
        if cycle_basis(curve).matrix != basis.matrix:
            return cases, False
        cases += 1
    return cases, True


def check_positive_definite(seed, count):
    rng = _rng(seed, "positive_definite")
    cases = 0
    for _ in range(count):
        curve = random_curve(rng)
        _, spec = _specialized(curve)
        # The certified verdict must agree with exact Sylvester minors.
        rows = spec.rows()
        if not (is_positive_definite(spec) and leading_minors_all_positive(rows)):
            return cases, False
        cases += 1
    return cases, True


def check_weight_isomorphism(seed, count):
    rng = _rng(seed, "weight_isomorphism")
    cases = 0
    for _ in range(count):
        curve = random_curve(rng)
        _, spec = _specialized(curve)
        # The certified verdict must agree with the exact determinant.
        if not (monodromy_weight_check(spec) and det(spec.rows()) != 0):
            return cases, False
        op = picard_lefschetz(spec, a=0, w=1)
        if nilpotent_rank(op) != spec.h:
            return cases, False
        cases += 1
    return cases, True


def check_reduction(seed, count):
    rng = _rng(seed, "reduction")
    cases = 0
    for _ in range(count):
        curve = random_curve(rng)
        _, spec = _specialized(curve)
        for n in (2, 3, 4, 5):
            reduced = picard_lefschetz(spec, a=0, w=1, modulus=n)
            integral = picard_lefschetz(spec, a=0, w=1)
            folded = tuple(
                tuple(x % n for x in row) for row in integral.matrix
            )
            if folded != reduced.matrix:
                return cases, False
        cases += 1
    return cases, True


def check_hodge(seed, count):
    rng = _rng(seed, "hodge")
    cases = 0
    for _ in range(count):
        curve = random_curve(rng, max_genus=3)
        dims = weight_dims(curve)
        table = hodge_table(curve)
        if table.rows() != ((dims.h, 0), (2 * dims.a, dims.a), (dims.h, dims.h)):
            return cases, False
        if table.f1_total() != dims.genus:
            return cases, False
        cases += 1
    return cases, True


def check_basis_invariance(seed, count):
    rng = _rng(seed, "basis_invariance")
    cases = 0
    for _ in range(count):
        curve = random_curve(rng)
        _, spec = _specialized(curve)
        base_pd = is_positive_definite(spec)
        base_cg = component_group(spec)
        # The route from the curve, with no Gram matrix, must agree.
        if curve_component_group(curve, [1] * curve.base_rank) != base_cg:
            return cases, False
        for _ in range(3):
            u = random_unimodular(rng, spec.h)
            rows = mat_mul(mat_mul(u, spec.rows()), transpose(u))
            moved = IntSymMatrix(tuple(tuple(r) for r in rows))
            if is_positive_definite(moved) != base_pd:
                return cases, False
            if component_group(moved) != base_cg:
                return cases, False
        cases += 1
    return cases, True


_SMALL_GROUPS = [
    FinAbGroup(()),
    FinAbGroup((2,)),
    FinAbGroup((3,)),
    FinAbGroup((4,)),
    FinAbGroup((2, 2)),
]


def check_extension_counts(seed, count):
    cases = 0
    for q in _SMALL_GROUPS:
        for p in _SMALL_GROUPS:
            classes = _ext1_classes_unchecked(q, p)
            expected = ext1_order(q, p)
            if len(classes) != expected:
                return cases, False
            if len({cls.invariant() for cls in classes}) != expected:
                return cases, False
            if ext1_order_exhaustive(q, p) != expected:
                return cases, False
            cases += 1
    return cases, True


def check_torsor(seed, count):
    cases = 0
    small = [FinAbGroup(()), FinAbGroup((2,)), FinAbGroup((3,))]
    for p in small:
        for q in small:
            for r in small:
                for e_cls in _ext1_classes_unchecked(q, r):
                    for f_cls in _ext1_classes_unchecked(r, p):
                        report = torsor_report(e_cls, f_cls)
                        if not (report.transitive and report.section_ok):
                            return cases, False
                        if report.fiber_size * report.stabilizer_order != report.ext1_order:
                            return cases, False
                        cases += 1
    return cases, True


PROPERTIES = (
    ("cycle_basis_spans_kernel", check_cycle_space, 1.0),
    ("specialized_pairing_positive_definite", check_positive_definite, 1.0),
    ("monodromy_weight_isomorphism", check_weight_isomorphism, 1.0),
    ("picard_lefschetz_reduction_mod_n", check_reduction, 0.25),
    ("hodge_table_dimensions", check_hodge, 0.25),
    ("unimodular_basis_invariance", check_basis_invariance, 0.25),
    ("extension_class_counting", check_extension_counts, 0.0),
    ("variegated_torsor_axioms", check_torsor, 0.0),
)


def run_selftest(seed, count):
    """Run every property suite; deterministic given the seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    results = []
    for name, fn, scale in PROPERTIES:
        batch = max(1, int(count * scale)) if scale else count
        cases, passed = fn(seed, batch)
        results.append({"name": name, "cases": cases, "passed": passed})
    return {
        "seed": seed,
        "count": count,
        "properties": results,
        "all_passed": all(r["passed"] for r in results),
    }
