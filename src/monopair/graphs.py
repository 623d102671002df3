"""Metrized dual graphs of nodal curves and their first homology.

A curve is a genus-marked multigraph whose edges carry lengths in the free
commutative monoid on ``base_rank`` named generators.  Self-loops and parallel
edges are permitted.  The cycle basis is the deterministic fundamental-cycle
basis attached to the lexicographically least spanning forest (by edge id),
so equal inputs always produce identical matrices.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

from .errors import InputFormatError, InvalidCurveError
from .intlinalg import int_row, int_rows, smith_divisors


@dataclass(frozen=True)
class MonoidVector:
    """Element of the free abelian group on the base-monoid generators.

    Edge lengths are the subset with all coordinates >= 0 and at least one
    coordinate > 0; general pairing values may have negative coordinates.
    Coordinates are integers: ints, bools and integral floats are stored as
    ints, and any other value (1.9, "2") raises ValueError.
    """

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", int_row(self.coords))

    @property
    def rank(self):
        return len(self.coords)

    def is_length(self):
        return all(c >= 0 for c in self.coords) and any(c > 0 for c in self.coords)

    def __add__(self, other):
        return MonoidVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return MonoidVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return MonoidVector(tuple(-a for a in self.coords))

    def scale(self, k):
        return MonoidVector(tuple(k * a for a in self.coords))

    def evaluate(self, weights):
        """Image under the monoid homomorphism sending generator k to weights[k]."""
        if len(weights) != len(self.coords):
            raise ValueError(
                "weight vector has length %d, expected %d"
                % (len(weights), len(self.coords))
            )
        return sum(w * c for w, c in zip(weights, self.coords))

    @staticmethod
    def zero(rank):
        return MonoidVector((0,) * rank)


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str
    length: MonoidVector


@dataclass(frozen=True)
class TropicalCurve:
    """Genus-marked multigraph with oriented, monoid-metrized edges.

    Genera are integers: ints, bools and integral floats are stored as ints,
    and any other value (1.5, "2") raises ValueError.
    """

    base_rank: int
    vertices: tuple  # of (id, genus)
    edges: tuple  # of Edge

    def __post_init__(self):
        vertices = tuple(self.vertices)
        genera = int_row(g for _, g in vertices)
        object.__setattr__(
            self, "vertices", tuple((str(v), g) for (v, _), g in zip(vertices, genera))
        )
        object.__setattr__(self, "edges", tuple(self.edges))

    @property
    def vertex_ids(self):
        return [v for v, _ in self.vertices]

    @property
    def edge_ids(self):
        return [e.id for e in self.edges]

    def genus_sum(self):
        return sum(g for _, g in self.vertices)

    # A curve is immutable all the way down, so its verdict and its spanning
    # forest are computed once and kept on it.
    @cached_property
    def _violations(self):
        return tuple(validate(self))

    @cached_property
    def _forest(self):
        return _spanning_forest(self)


def validate(curve):
    """All invariant violations of a curve, each naming its locus.

    Valid curves return the empty list; violations are data, not errors.
    """
    violations = []
    if curve.base_rank < 0:
        violations.append("base_rank %d is negative" % curve.base_rank)
    seen_v = set()
    for vid, genus in curve.vertices:
        if vid in seen_v:
            violations.append("vertex %r: duplicate id" % vid)
        seen_v.add(vid)
        if genus < 0:
            violations.append("vertex %r: genus %d is negative" % (vid, genus))
    seen_e = set()
    for edge in curve.edges:
        if edge.id in seen_e:
            violations.append("edge %r: duplicate id" % edge.id)
        seen_e.add(edge.id)
        for endpoint, label in ((edge.src, "src"), (edge.dst, "dst")):
            if endpoint not in seen_v:
                violations.append(
                    "edge %r: %s %r is not a declared vertex" % (edge.id, label, endpoint)
                )
        if edge.length.rank != curve.base_rank:
            violations.append(
                "edge %r: length has %d coordinates, expected base_rank %d"
                % (edge.id, edge.length.rank, curve.base_rank)
            )
        elif not edge.length.is_length():
            violations.append(
                "edge %r: length %r is not in the monoid minus zero (needs all "
                "coords >= 0 and one > 0)" % (edge.id, list(edge.length.coords))
            )
    return violations


def check_valid(curve):
    if curve._violations:
        raise InvalidCurveError(curve._violations)


def _spanning_forest(curve):
    """Tree and cotree edge indices of the lexicographically least spanning
    forest (grown greedily by edge id), each in increasing edge-id order."""
    parent = {vid: vid for vid in curve.vertex_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    cotree = []
    for j in sorted(range(len(curve.edges)), key=lambda j: curve.edges[j].id):
        edge = curve.edges[j]
        ra, rb = find(edge.src), find(edge.dst)
        if ra != rb:
            parent[ra] = rb
            tree.append(j)
        else:
            cotree.append(j)
    return tree, cotree


def betti_number(curve):
    """First Betti number |E| - |V| + #components of a valid curve, which is
    the number of edges outside a spanning forest."""
    check_valid(curve)
    return len(curve._forest[1])


def boundary_matrix(curve):
    """|V| x |E| boundary map, sending an edge to dst - src."""
    vindex = {vid: i for i, vid in enumerate(curve.vertex_ids)}
    mat = [[0] * len(curve.edges) for _ in curve.vertices]
    for j, edge in enumerate(curve.edges):
        mat[vindex[edge.dst]][j] += 1
        mat[vindex[edge.src]][j] -= 1
    return mat


@dataclass(frozen=True)
class CycleBasis:
    """Integer basis of the cycle space, as rows of oriented-edge coefficients.

    Coefficient -1 on an edge means the edge is traversed against its stored
    orientation.  Rows must lie in the kernel of the boundary map and span it
    over the integers (checked: all elementary divisors equal 1).
    Coefficients are integers: ints, bools and integral floats are stored as
    ints, and any other value (1.5, "2") raises ValueError.
    """

    curve: TropicalCurve
    matrix: tuple  # h rows, each a tuple of |E| ints
    # One column per edge: the (row index, coefficient) pairs of the rows
    # through it, in row order.
    columns: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rows = int_rows(self.matrix)
        object.__setattr__(self, "matrix", rows)
        ne = len(self.curve.edges)
        h = betti_number(self.curve)
        if len(rows) != h:
            raise ValueError(
                "cycle basis has %d rows, expected first Betti number %d"
                % (len(rows), h)
            )
        for row in rows:
            if len(row) != ne:
                raise ValueError(
                    "cycle row has %d entries, expected one per edge (%d)"
                    % (len(row), ne)
                )
        columns = [[] for _ in range(ne)]
        for i, row in enumerate(rows):
            for j in compress(range(ne), row):
                columns[j].append((i, row[j]))
        columns = tuple(map(tuple, columns))
        object.__setattr__(self, "columns", columns)
        vindex = {vid: k for k, vid in enumerate(self.curve.vertex_ids)}
        images = [[0] * len(vindex) for _ in rows]
        for edge, column in zip(self.curve.edges, columns):
            src, dst = vindex[edge.src], vindex[edge.dst]
            for i, c in column:
                images[i][dst] += c
                images[i][src] -= c
        for i, image in enumerate(images):
            if any(image):
                raise ValueError("cycle row %d is not in the kernel of the boundary map" % i)
        # A row owns a column where it is +-1 and every other row is 0.  When
        # every row owns one, those columns form a +-1 minor, so the rows are
        # primitive; a fundamental basis owns its cotree columns.
        owners = {c[0][0] for c in columns if len(c) == 1 and c[0][1] in (1, -1)}
        if len(owners) < h and smith_divisors([list(r) for r in rows]) != [1] * h:
            raise ValueError("cycle rows do not span the cycle lattice primitively")

    @property
    def h(self):
        return len(self.matrix)


def cycle_basis(curve):
    """Fundamental-cycle basis over the lexicographically least spanning forest.

    The forest is grown greedily over edges in increasing id order (self-loops
    never enter it).  Each non-tree edge contributes the cycle that traverses
    it positively and closes through the forest; rows are ordered by non-tree
    edge id.
    """
    check_valid(curve)
    tree, cotree = curve._forest

    # Forest adjacency: vertex -> list of (neighbor, edge index, sign of
    # traversal in stored orientation).
    adjacency = {vid: [] for vid in curve.vertex_ids}
    for j in tree:
        edge = curve.edges[j]
        adjacency[edge.src].append((edge.dst, j, 1))
        adjacency[edge.dst].append((edge.src, j, -1))

    # Root each tree once: the step from a vertex to its parent (parent,
    # edge index, sign of walking it upward) and the vertex's depth.
    up = {}
    depth = {}
    for root in curve.vertex_ids:
        if root in depth:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y, j, sign in adjacency[x]:
                if y not in depth:
                    depth[y] = depth[x] + 1
                    up[y] = (x, j, -sign)
                    stack.append(y)

    rows = []
    for j in cotree:
        edge = curve.edges[j]
        row = [0] * len(curve.edges)
        row[j] += 1
        # Close the cycle along the unique forest path dst -> src: climb from
        # both ends to where they meet; the src side is walked downward.
        x, y = edge.dst, edge.src
        while x != y:
            if depth[x] >= depth[y]:
                x, k, sign = up[x]
                row[k] += sign
            else:
                y, k, sign = up[y]
                row[k] -= sign
        rows.append(tuple(row))
    return CycleBasis(curve=curve, matrix=tuple(rows))


# ---------------------------------------------------------------------------
# Curve file format: the single ingestion format for the whole artifact.

_CURVE_KEYS = {"base_rank", "vertices", "edges"}
_VERTEX_KEYS = {"id", "genus"}
_EDGE_KEYS = {"id", "src", "dst", "length"}


def curve_from_dict(data, source="<curve>"):
    """Parse the JSON curve object; unknown or missing keys are rejected."""
    if not isinstance(data, dict):
        raise InputFormatError("%s: top level must be a JSON object" % source)
    unknown = set(data) - _CURVE_KEYS
    if unknown:
        raise InputFormatError(
            "%s: unknown key(s) %s" % (source, ", ".join(sorted(repr(k) for k in unknown)))
        )
    missing = _CURVE_KEYS - set(data)
    if missing:
        raise InputFormatError(
            "%s: missing key(s) %s" % (source, ", ".join(sorted(repr(k) for k in missing)))
        )
    if not isinstance(data["base_rank"], int) or isinstance(data["base_rank"], bool):
        raise InputFormatError("%s: base_rank must be an integer" % source)
    vertices = []
    if not isinstance(data["vertices"], list):
        raise InputFormatError("%s: vertices must be an array" % source)
    for k, item in enumerate(data["vertices"]):
        locus = "%s: vertices[%d]" % (source, k)
        if not isinstance(item, dict):
            raise InputFormatError("%s must be an object" % locus)
        unknown = set(item) - _VERTEX_KEYS
        if unknown:
            raise InputFormatError(
                "%s: unknown key(s) %s" % (locus, ", ".join(sorted(repr(x) for x in unknown)))
            )
        if set(item) != _VERTEX_KEYS:
            raise InputFormatError("%s: needs exactly keys 'id' and 'genus'" % locus)
        if not isinstance(item["id"], str):
            raise InputFormatError("%s: id must be a string" % locus)
        if not isinstance(item["genus"], int) or isinstance(item["genus"], bool):
            raise InputFormatError("%s: genus must be an integer" % locus)
        vertices.append((item["id"], item["genus"]))
    edges = []
    if not isinstance(data["edges"], list):
        raise InputFormatError("%s: edges must be an array" % source)
    for k, item in enumerate(data["edges"]):
        locus = "%s: edges[%d]" % (source, k)
        if not isinstance(item, dict):
            raise InputFormatError("%s must be an object" % locus)
        unknown = set(item) - _EDGE_KEYS
        if unknown:
            raise InputFormatError(
                "%s: unknown key(s) %s" % (locus, ", ".join(sorted(repr(x) for x in unknown)))
            )
        if set(item) != _EDGE_KEYS:
            raise InputFormatError(
                "%s: needs exactly keys 'id', 'src', 'dst', 'length'" % locus
            )
        for key in ("id", "src", "dst"):
            if not isinstance(item[key], str):
                raise InputFormatError("%s: %s must be a string" % (locus, key))
        length = item["length"]
        if not isinstance(length, list) or any(
            not isinstance(c, int) or isinstance(c, bool) for c in length
        ):
            raise InputFormatError("%s: length must be an array of integers" % locus)
        edges.append(
            Edge(id=item["id"], src=item["src"], dst=item["dst"], length=MonoidVector(tuple(length)))
        )
    return TropicalCurve(base_rank=data["base_rank"], vertices=tuple(vertices), edges=tuple(edges))


def curve_to_dict(curve):
    return {
        "base_rank": curve.base_rank,
        "vertices": [{"id": v, "genus": g} for v, g in curve.vertices],
        "edges": [
            {"id": e.id, "src": e.src, "dst": e.dst, "length": list(e.length.coords)}
            for e in curve.edges
        ],
    }
