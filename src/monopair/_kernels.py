"""Search kernels behind the brute-force oracles of ``extpan.bruteforce``.

Both searches read the dense index tables of ``GroupOps`` as they are:
``add[x][y]`` and ``neg[x]`` over 0-based indices, 0 being the zero element.

Coboundary search: find ``h`` with ``h[0] = 0`` and, for all nonzero a, b,
``h[a] + h[b] - h[a+b] == diff[a][b]`` in the target group.  The constraints
``(a, b, ab)`` are grouped by the level ``max(a, b, ab)``, so depth-first
search over ``h[1..]`` can check every constraint the moment its last slot
is assigned.

Cocycle counting: the unknowns are the upper-triangle-with-diagonal entries
f(a, b), 1 <= a <= b, of a normalized symmetric table with values in Z/n.
The cocycle identity over all element triples yields homogeneous linear
constraints; each is attached to its largest unknown.  Where a constraint has
a unit coefficient on its largest unknown the value is forced, so branching
happens only on genuinely free entries.
"""

from math import gcd


def coboundary_constraints(q_add):
    """For each level L, the triples (a, b, ab) with 1 <= a <= b and
    max(a, b, ab) == L."""
    q_size = len(q_add)
    by_level = [[] for _ in range(q_size)]
    for a in range(1, q_size):
        for b in range(a, q_size):
            ab = q_add[a][b]
            by_level[max(a, b, ab)].append((a, b, ab))
    return by_level


def cocycle_system(q_add, n):
    """Leveled constraint system for normalized symmetric Z/n cocycle tables.

    Returns one ``(solver, checks)`` pair per unknown f(a, b), 1 <= a <= b,
    in that order.  ``solver`` is None for a free unknown, or ``(inv, terms)``
    when the first constraint with a unit lead coefficient forces it to
    ``inv * sum(coeff * value[idx] for idx, coeff in terms) mod n``.
    ``checks`` holds the other constraints whose largest unknown it is, each
    a tuple of ``(idx, coeff)`` that must sum to 0 mod n.
    """
    q_size = len(q_add)
    pidx = {}
    for a in range(1, q_size):
        for b in range(a, q_size):
            pidx[(a, b)] = len(pidx)

    def term(x, y):
        if x == 0 or y == 0:
            return None
        return pidx[(x, y) if x <= y else (y, x)]

    seen = set()
    by_level = [[] for _ in pidx]
    for a in range(1, q_size):
        for b in range(1, q_size):
            ab = q_add[a][b]
            for c in range(1, q_size):
                bc = q_add[b][c]
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
                # Sorted by index, so the last term is the largest unknown.
                by_level[items[-1][0]].append(items)

    system = []
    for constraints in by_level:
        solver = next((items for items in constraints if gcd(items[-1][1], n) == 1), None)
        checks = tuple(items for items in constraints if items is not solver)
        if solver is not None:
            solver = ((-pow(solver[-1][1], -1, n)) % n, solver[:-1])
        system.append((solver, checks))
    return system


def search_coboundary(t_add, t_neg, diff, levels):
    """First h (list of target indices, h[0] = 0) with delta-h == diff, or None.

    Depth-first over h[1..]; a constraint (a, b, ab) in ``levels[L]`` has all
    slots assigned once h[L] is, and reads ``h[a] + h[b] - h[ab] ==
    diff[a][b]``.  Candidates are tried in increasing index order, so the
    result is the lexicographically least witness.
    """
    q_size = len(levels)
    if q_size == 1:
        return [0]
    t_size = len(t_add)
    h = [0] * q_size
    level = 1
    h[level] = -1
    while level >= 1:
        h[level] += 1
        if h[level] == t_size:
            level -= 1
            continue
        for a, b, ab in levels[level]:
            if t_add[t_add[h[a]][h[b]]][t_neg[h[ab]]] != diff[a][b]:
                break
        else:
            if level == q_size - 1:
                return h
            level += 1
            h[level] = -1
    return None


def count_cocycles(n, system, collect=False):
    """Count (or list) solutions of the leveled constraint system mod n.

    Free unknowns take the values 0..n-1 in turn, so ``collect`` lists the
    value tuples in lexicographic order; only use it at small scales.
    """
    nunk = len(system)
    values = [0] * nunk
    found = []

    def walk(level):
        if level == nunk:
            if collect:
                found.append(tuple(values))
            return 1
        solver, checks = system[level]
        if solver is None:
            candidates = range(n)
        else:
            inv, terms = solver
            acc = 0
            for idx, coeff in terms:
                acc += coeff * values[idx]
            candidates = (acc * inv % n,)
        total = 0
        for value in candidates:
            values[level] = value
            for items in checks:
                acc = 0
                for idx, coeff in items:
                    acc += coeff * values[idx]
                if acc % n:
                    break
            else:
                total += walk(level + 1)
        return total

    total = walk(0)
    return found if collect else total
