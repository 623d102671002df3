"""The four workloads: seeded inputs, the op under test, and its answer check.

A workload builds its whole corpus in set-up from the seed.  One pass runs
every item once, in corpus order; the op is the public call a user of
monopair makes.  ``check`` verifies an answer with ``checks`` only, and
``encode`` gives the canonical bytes that enter the output digest.
"""

import contextlib
import io
import json
import math
import random

from monopair import cli, graphs, pairing, realizations
from monopair.extpan import bruteforce, cocycles, variegated
from monopair.extpan.groups import FinAbGroup

import checks
from checks import require


def random_curve(rng, n_vertices, h, base_rank, genus_share=0.0):
    """Connected multigraph curve with first Betti number h, as a JSON object.

    A random spanning tree plus h edges between uniform endpoints, so
    parallel edges and self-loops occur; lengths are drawn from [1, 5].
    """
    pairs = [(rng.randrange(i), i) for i in range(1, n_vertices)]
    pairs += [(rng.randrange(n_vertices), rng.randrange(n_vertices)) for _ in range(h)]
    return {
        "base_rank": base_rank,
        "vertices": [
            {"id": "v%03d" % i, "genus": int(rng.random() < genus_share)}
            for i in range(n_vertices)
        ],
        "edges": [
            {"id": "e%03d" % k, "src": "v%03d" % a, "dst": "v%03d" % b,
             "length": [rng.randint(1, 5) for _ in range(base_rank)]}
            for k, (a, b) in enumerate(pairs)
        ],
    }


def betti(curve):
    return len(curve["edges"]) - len(curve["vertices"]) + 1


def edge_weights(curve, weights):
    return [checks.edge_weight(e["length"], weights) for e in curve["edges"]]


def gram_nonzero_share(grams):
    nonzero = sum(1 for g in grams for row in g for x in row if x)
    return nonzero / max(1, sum(len(g) ** 2 for g in grams))


class CompgroupMid:
    """``monopair compgroup <file> --weights ...`` in process, stdout captured.

    Half the curves have base rank 1, weights 1 and h in 11..17; the other
    half base rank 3, weights 1,2,3 and h in 8..12.  |E| is about 3|V|.
    The ranges stop below the Smith-form blow-up of the current code: rank 1
    at h = 19 has ops over 20 s, and rank 1 at h = 18 and rank 3 at h = 13
    reach 1.6 s.
    """

    name = "compgroup_mid"
    CURVES = 840

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.items = []
        for k in range(self.CURVES):
            if k % 2 == 0:
                h, rank, weights = 11 + (k // 2) % 7, 1, [1]
            else:
                h, rank, weights = 8 + (k // 2) % 5, 3, [1, 2, 3]
            curve = random_curve(rng, max(2, (h - 1) // 2), h, rank)
            path = workdir / ("curve%04d.json" % k)
            path.write_text(json.dumps(curve), encoding="utf-8")
            self.items.append({"curve": curve, "weights": weights, "path": str(path)})
        self.warmup = self.items[0]

    def describe(self, item):
        return [item["curve"], item["weights"]]

    def run(self, item):
        argv = ["compgroup", item["path"], "--weights", ",".join(map(str, item["weights"]))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def encode(self, output):
        code, text = output
        return ("%d\n%s" % (code, text)).encode()

    def check(self, item, output):
        code, text = output
        require(code == 0, "exit code %r" % code)
        checks.check_divisors(json.loads(text)["divisors"], item["curve"], item["weights"])

    def counts(self, outputs):
        grams = []
        for item in self.items:
            curve = graphs.curve_from_dict(item["curve"])
            rows = graphs.cycle_basis(curve).matrix
            grams.append(checks.gram_from_rows(rows, edge_weights(item["curve"], item["weights"])))
        dets = [math.prod(json.loads(out[1])["divisors"]) for out in outputs.values()]
        return {
            "h_total": sum(betti(item["curve"]) for item in self.items),
            "edges_total": sum(len(item["curve"]["edges"]) for item in self.items),
            "det_bits_max": max(d.bit_length() for d in dets),
            "gram_nonzero_frac": gram_nonzero_share(grams),
        }


class MonodromyLarge:
    """The ``pl`` chain plus the checks ``selftest`` runs, through the library.

    cycle_basis -> pairing_matrix -> specialize -> is_positive_definite ->
    monodromy_weight_check -> picard_lefschetz, on nine curves with
    |E| = 3|V|, h = 41, 61, 81 and 101 and base rank 1 and 3.  Five of the
    nine curves have h = 61, so the median latency is that of the middle
    h = 61 curve, not the mean of two curves or an op at the edge of a size
    gap; the pass runs in seeded random order, so its samples are spread
    over the run.  A pass takes about 6.5 s, so a run holds more than one.
    """

    name = "monodromy_large"
    # (|V|, base rank); h = 2|V| + 1
    CURVES = ((20, 1), (20, 3), (30, 1), (30, 3), (30, 1), (30, 3), (30, 1), (40, 3), (50, 1))
    WEIGHTS = {1: [1], 3: [1, 2, 3]}

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.items = []
        for n_vertices, rank in self.CURVES:
            curve = random_curve(rng, n_vertices, 2 * n_vertices + 1, rank, genus_share=0.1)
            self.items.append({
                "curve": curve,
                "parsed": graphs.curve_from_dict(curve),
                "weights": self.WEIGHTS[rank],
                "a": sum(v["genus"] for v in curve["vertices"]),
                "winding": rng.randint(1, 3),
            })
        self.warmup = self.items[0]  # the smallest curve
        rng.shuffle(self.items)

    def describe(self, item):
        return [item["curve"], item["weights"], item["winding"]]

    def run(self, item):
        curve = item["parsed"]
        basis = graphs.cycle_basis(curve)
        gram = pairing.specialize(pairing.pairing_matrix(curve, basis), item["weights"])
        op = realizations.picard_lefschetz(gram, a=item["a"], w=item["winding"])
        return {
            "basis": basis.matrix,
            "gram": gram.entries,
            "positive_definite": pairing.is_positive_definite(gram),
            "weight_check": realizations.monodromy_weight_check(gram),
            "operator": op.matrix,
        }

    def encode(self, output):
        return json.dumps(output, sort_keys=True).encode()

    def check(self, item, output):
        curve = item["curve"]
        rows = output["basis"]
        checks.check_cycle_rows(rows, curve)
        gram = checks.gram_from_rows(rows, edge_weights(curve, item["weights"]))
        require([list(r) for r in output["gram"]] == gram, "Gram matrix != C diag(w) C^T")
        checks.check_spans_cycle_lattice(gram, curve, item["weights"])
        require(output["positive_definite"] is True, "Sylvester verdict is not True")
        require(output["weight_check"] is True, "monodromy-weight verdict is not True")
        checks.check_unipotent(output["operator"], gram, len(rows), item["a"], item["winding"])

    def counts(self, outputs):
        dets = [checks.matrix_tree_det(item["curve"], item["weights"]) for item in self.items]
        return {
            "h_total": sum(betti(item["curve"]) for item in self.items),
            "edges_total": sum(len(item["curve"]["edges"]) for item in self.items),
            "det_bits_max": max(d.bit_length() for d in dets),
            "gram_nonzero_frac": gram_nonzero_share([out["gram"] for out in outputs.values()]),
        }


class ExtpanTorsor:
    """One ``torsor_report(E, F)`` per item, at three budget corners for P/Q/R.

    F classes are grouped by the order of their connecting image (which sets
    the fiber size and so the cost); each corner takes the same share of
    every group, so a pass has the same cost mix for every seed.  Each chosen
    F is paired with seeded E classes.
    """

    name = "extpan_torsor"
    # (P, Q, R, share of each group of F classes, E classes per F)
    CORNERS = (
        ((2, 2, 2), (2, 2), (2, 2), 0.3, 1),
        ((8,), (8,), (8,), 1.0, 2),
        ((2, 4), (2, 4), (2,), 1.0, 1),
    )

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.items = []
        for p_f, q_f, r_f, share, e_per_f in self.CORNERS:
            p, q, r = FinAbGroup(p_f), FinAbGroup(q_f), FinAbGroup(r_f)
            es = cocycles.ext1_classes(q, r)
            by_stabilizer = {}
            for f in cocycles.ext1_classes(r, p):
                by_stabilizer.setdefault(len(variegated.connecting_image(f, q)), []).append(f)
            for stabilizer in sorted(by_stabilizer):
                group = by_stabilizer[stabilizer]
                for f in rng.sample(group, math.ceil(share * len(group))):
                    for e in rng.sample(es, e_per_f):
                        self.items.append({"p": p, "q": q, "r": r, "e": e, "f": f,
                                           "stabilizer": stabilizer})
        # The cheapest op: the largest stabilizer gives the smallest fiber.
        self.warmup = max(self.items, key=lambda item: item["stabilizer"])
        # Spread each cost class over the pass, so that the median latency
        # is not taken from one stretch of the run.
        rng.shuffle(self.items)

    def describe(self, item):
        return [item["p"].factors, item["q"].factors, item["r"].factors,
                item["e"].cocycle.matrix, item["f"].cocycle.matrix]

    def run(self, item):
        return variegated.torsor_report(item["e"], item["f"]).to_dict()

    def encode(self, output):
        return json.dumps(output, sort_keys=True).encode()

    def check(self, item, output):
        checks.check_torsor(output, item["q"].factors, item["p"].factors)

    def counts(self, outputs):
        return {"fiber_total": sum(out["fiber_size"] for out in outputs.values())}


class OracleSweep:
    """Brute-force oracle calls, where the two search kernels do the work.

    ``ext1_order_exhaustive(Q, P)`` for every Q of order <= 8 and every P in
    P_GROUPS, except Q of order 6..8 against a cyclic P of order 4..8 and
    Q = Z/8 against P = Z/3, and one all-pairs ``search_coboundary_witness``
    sweep for each (Q, T) in SWEEPS.  The seed permutes the factor order of
    every group, which changes the element order the searches walk, the
    class order of each sweep, and the order of the pass.

    The left-out calls take 0.3 to 2 s each (over 5 s where Q has order 7
    or 8 and P order 5..8).  Without them a pass takes about 1.2 s, so a run
    times every call many times.  The corpus holds an odd number of calls,
    57, so the median latency falls among the samples of the middle call
    (about 2 ms) and not in the gap between two calls whose costs differ by
    20 %.
    """

    name = "oracle_sweep"
    GROUPS = ((2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2))
    # The cost is a sum over the cyclic factors of P, so (2, 2) stands for the
    # P with several factors.
    P_GROUPS = GROUPS[:8]
    SWEEPS = (((2, 2), (4, 2)), ((2, 2, 2), (2, 2)), ((4, 2), (4, 2)))

    def __init__(self, seed, workdir):
        rng = random.Random(seed)

        def group(factors):
            return FinAbGroup(rng.sample(factors, len(factors)))

        self.items = []
        for q_f in self.GROUPS:
            for p_f in self.P_GROUPS:
                if math.prod(q_f) >= 6 and len(p_f) == 1 and p_f[0] >= 4:
                    continue
                if q_f == (8,) and p_f == (3,):
                    continue
                self.items.append({"kind": "ext1", "q": group(q_f), "p": group(p_f)})
        for q_f, t_f in self.SWEEPS:
            q, t = group(q_f), group(t_f)
            classes = cocycles.ext1_classes(q, t)
            rng.shuffle(classes)
            sub = t.ops().sub
            diffs = [
                cocycles.Cocycle(q, t, tuple(
                    tuple(sub(u, v) for u, v in zip(rx, ry))
                    for rx, ry in zip(x.cocycle.matrix, y.cocycle.matrix)
                ), check=False)
                for x in classes
                for y in classes
            ]
            self.items.append({"kind": "sweep", "q": q, "t": t, "classes": classes, "diffs": diffs})
        rng.shuffle(self.items)
        self.warmup = next(item for item in self.items if item["kind"] == "ext1"
                           and item["q"].order == 2)

    def describe(self, item):
        if item["kind"] == "ext1":
            return ["ext1", item["q"].factors, item["p"].factors]
        return ["sweep", item["q"].factors, item["t"].factors,
                [c.cocycle.matrix for c in item["classes"]]]

    def run(self, item):
        if item["kind"] == "ext1":
            return bruteforce.ext1_order_exhaustive(item["q"], item["p"])
        return [bruteforce.search_coboundary_witness(d) for d in item["diffs"]]

    def encode(self, output):
        return json.dumps(output).encode()

    def check(self, item, output):
        q = item["q"]
        if item["kind"] == "ext1":
            expected = checks.ext_order(q.factors, item["p"].factors)
            require(output == expected, "|Ext| %r != %d" % (output, expected))
            return
        t = item["t"]
        n = len(item["classes"])
        require(n == checks.ext_order(q.factors, t.factors), "class count %d" % n)
        require(len(output) == n * n, "sweep returned %d answers" % len(output))
        q_elems, t_elems = q.elements(), t.elements()
        for k, (witness, diff) in enumerate(zip(output, item["diffs"])):
            i, j = divmod(k, n)
            require((witness is not None) == (i == j),
                    "witness %s for class pair (%d, %d)" % ("found" if witness else "missing", i, j))
            if witness is not None:
                checks.check_witness(witness, diff.matrix, q_elems, q.factors, t_elems, t.factors)

    def counts(self, outputs):
        return {}


WORKLOADS = {w.name: w for w in (CompgroupMid, MonodromyLarge, ExtpanTorsor, OracleSweep)}
