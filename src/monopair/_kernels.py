"""Search kernels behind the brute-force oracles of ``extpan.bruteforce``.

Each problem is encoded once as flat integer lists, then solved by an
iterative depth-first search over those lists.

Encodings
---------
Coboundary search: find ``h`` with ``h[0] = 0`` and, for all nonzero a, b,
``h[a] + h[b] - h[a+b] == diff(a, b)`` in an index-encoded target group.
The constraint list stores triples ``(a, b, ab)`` grouped by the level
``max(a, b, ab)``, so depth-first search over ``h[1..]`` can check every
constraint the moment its last slot is assigned.

Cocycle counting: the unknowns are the strict upper-triangle-with-diagonal
entries f(a, b), 1 <= a <= b, of a normalized symmetric table with values in
Z/n.  The cocycle identity over all element triples yields homogeneous linear
constraints; each is attached to its largest unknown.  Where a constraint has
a unit coefficient on its largest unknown the value is forced, so branching
happens only on genuinely free entries.
"""

from math import gcd


def coboundary_constraints(q_add, q_size):
    """Constraint triples (a, b, ab) for delta-h equations, grouped by level.

    Returns (cons, offsets): cons is a flat list of triples; constraints for
    level L occupy cons[3*offsets[L] : 3*offsets[L+1]].
    """
    by_level = [[] for _ in range(q_size)]
    for a in range(1, q_size):
        for b in range(a, q_size):
            ab = q_add[a * q_size + b]
            level = max(a, b, ab)
            by_level[level].append((a, b, ab))
    cons = []
    offsets = [0]
    for level in range(q_size):
        for triple in by_level[level]:
            cons.extend(triple)
        offsets.append(len(cons) // 3)
    return cons, offsets


def _pair_index(q_size):
    """Map (a, b) with 1 <= a <= b < q_size to a dense unknown index."""
    index = {}
    for a in range(1, q_size):
        for b in range(a, q_size):
            index[(a, b)] = len(index)
    return index


def cocycle_system(q_add, q_size, n):
    """Leveled constraint system for normalized symmetric Z/n cocycle tables.

    Returns a dict of flat integer lists:
      nunk            number of unknowns
      kinds[L]        1 if unknown L is forced by a solver constraint
      sol_inv[L]      modular inverse used by the solver at level L
      sol_toff, sol_terms   solver right-hand-side terms (idx, coeff pairs)
      chk_coff, chk_toff, chk_terms   leveled check constraints
    """
    pidx = _pair_index(q_size)
    nunk = len(pidx)

    def term(x, y):
        if x == 0 or y == 0:
            return None
        return pidx[(x, y) if x <= y else (y, x)]

    seen = set()
    constraints = []  # (level, ((idx, coeff), ...))
    for a in range(1, q_size):
        for b in range(1, q_size):
            ab = q_add[a * q_size + b]
            for c in range(1, q_size):
                bc = q_add[b * q_size + c]
                coeffs = {}
                for idx, sign in (
                    (term(a, b), 1),
                    (term(ab, c), 1),
                    (term(b, c), -1),
                    (term(a, bc), -1),
                ):
                    if idx is not None:
                        coeffs[idx] = coeffs.get(idx, 0) + sign
                items = tuple(
                    (idx, coeff % n) for idx, coeff in sorted(coeffs.items()) if coeff % n
                )
                if not items:
                    continue
                negated = tuple((idx, (-coeff) % n) for idx, coeff in items)
                key = min(items, negated)
                if key in seen:
                    continue
                seen.add(key)
                constraints.append((max(idx for idx, _ in items), items))

    by_level = [[] for _ in range(nunk)]
    for level, items in constraints:
        by_level[level].append(items)

    kinds = [0] * nunk
    sol_inv = [0] * nunk
    sol_toff = [0]
    sol_terms = []
    chk_coff = [0]
    chk_toff = [0]
    chk_terms = []
    for level in range(nunk):
        solver = None
        for items in by_level[level]:
            lead = [c for idx, c in items if idx == level]
            if len(lead) == 1 and gcd(lead[0], n) == 1:
                solver = items
                break
        if solver is not None:
            kinds[level] = 1
            lead = next(c for idx, c in solver if idx == level)
            sol_inv[level] = (-pow(lead, -1, n)) % n
            for idx, coeff in solver:
                if idx != level:
                    sol_terms.extend((idx, coeff))
        sol_toff.append(len(sol_terms) // 2)
        for items in by_level[level]:
            if items is solver:
                continue
            for idx, coeff in items:
                chk_terms.extend((idx, coeff))
            chk_toff.append(len(chk_terms) // 2)
        chk_coff.append(len(chk_toff) - 1)

    return {
        "nunk": nunk,
        "kinds": kinds,
        "sol_inv": sol_inv,
        "sol_toff": sol_toff,
        "sol_terms": sol_terms,
        "chk_coff": chk_coff,
        "chk_toff": chk_toff,
        "chk_terms": chk_terms,
    }


def search_coboundary(q_size, t_size, t_add, t_neg, diff, cons, offsets):
    """First h (list of target indices, h[0] = 0) with delta-h == diff, or None.

    Depth-first over h[1..q_size-1]; a constraint (a, b, ab) at level L has
    all slots assigned once h[L] is, and reads
    ``h[a] + h[b] - h[ab] == diff[a*q_size + b]`` in the index-encoded group.
    Candidates are tried in increasing index order, so the result is the
    lexicographically least witness.
    """
    if q_size == 1:
        return [0]
    h = [0] * q_size
    level = 1
    h[level] = -1
    while level >= 1:
        h[level] += 1
        if h[level] >= t_size:
            level -= 1
            continue
        ok = True
        for c in range(offsets[level], offsets[level + 1]):
            a = cons[3 * c]
            b = cons[3 * c + 1]
            ab = cons[3 * c + 2]
            if t_add[t_add[h[a] * t_size + h[b]] * t_size + t_neg[h[ab]]] != diff[a * q_size + b]:
                ok = False
                break
        if not ok:
            continue
        if level == q_size - 1:
            return h
        level += 1
        h[level] = -1
    return None


def count_cocycles(n, system, collect=False):
    """Count (or list) solutions of the leveled constraint system mod n.

    With ``collect`` the full value tuples are returned instead of a count;
    only use that at small scales.
    """
    nunk = system["nunk"]
    if nunk == 0:
        return [()] if collect else 1
    kinds = system["kinds"]
    sol_inv = system["sol_inv"]
    sol_toff = system["sol_toff"]
    sol_terms = system["sol_terms"]
    chk_coff = system["chk_coff"]
    chk_toff = system["chk_toff"]
    chk_terms = system["chk_terms"]

    values = [0] * nunk
    found = [] if collect else 0
    count = 0
    level = 0
    values[0] = -1
    descend_fresh = kinds[0] == 1
    # Iterative backtracking; at a solved level the value is computed once
    # (flagged by descend_fresh) and the level behaves as branch-of-one.
    while level >= 0:
        if kinds[level]:
            if not descend_fresh:
                # Exhausted the single forced candidate; backtrack.
                level -= 1
                descend_fresh = False
                continue
            acc = 0
            for t in range(sol_toff[level], sol_toff[level + 1]):
                acc += sol_terms[2 * t + 1] * values[sol_terms[2 * t]]
            values[level] = (acc * sol_inv[level]) % n
            descend_fresh = False
        else:
            if descend_fresh:
                values[level] = 0
                descend_fresh = False
            else:
                values[level] += 1
            if values[level] >= n:
                level -= 1
                descend_fresh = False
                continue
        ok = True
        for c in range(chk_coff[level], chk_coff[level + 1]):
            acc = 0
            for t in range(chk_toff[c], chk_toff[c + 1]):
                acc += chk_terms[2 * t + 1] * values[chk_terms[2 * t]]
            if acc % n:
                ok = False
                break
        if not ok:
            if kinds[level]:
                level -= 1
                descend_fresh = False
            continue
        if level == nunk - 1:
            if collect:
                found.append(tuple(values))
            else:
                count += 1
            if kinds[level]:
                level -= 1
                descend_fresh = False
            continue
        level += 1
        descend_fresh = True
    return found if collect else count
