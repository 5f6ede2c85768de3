"""Multigraphs with loops and parallel edges, and spanning-subgraph counting.

Vertices are 0..n-1.  Every edge carries a stable integer id; the minors of
`engine` and `comb_map` keep the surviving ids unchanged, so edge subsets
(bitmasks over ids) stay meaningful across minor operations.  Spanning
subgraphs are identified with their edge sets, represented as plain int
bitmasks (bit i set = edge i present).

Every component question goes through one union-find, `class_roots`.  The
typing passes and the layered pass in `engine` do not call it: they carry a
minor's contracted classes as a root list and merge two classes per
contraction.

A graph holds one record of data derived from it (`_Derived`), each field
worked out on its first use and kept: whether it is connected, the start
of every walk (the edges as (bit, u, v) triples, the starting slack and the
identity roots), its full edge mask, the DFS incidence of
`classic._dfs_incidence`, and the kinds of its own edges, one per
`classify_edge` call.  Every walk and pass starts at the graph itself, so
each reads what the walks before it worked out.

The spanning trees and forests of a connected graph are the leaves of the
walks in `engine`, which imports this module and so is imported late here.
"""

from __future__ import annotations

from operator import index

# Edge sets are ints with bit `id` set per edge, so every mask is as wide as
# the largest id; a graph with a larger id is refused when it is built.
MAX_EDGE_ID = 1 << 20

LOOP = "Loop"
ISTHMUS = "Isthmus"
STANDARD = "Standard"


class _Derived:
    """What a graph's walks and passes read, each field filled on first use.

    A field is None until then, except `kinds`, which starts empty and
    fills one edge at a time.  Two threads that fill a field at once work
    out the same value, so either may win.
    """

    __slots__ = ("connected", "start", "full", "dfs_incidence", "kinds")

    def __init__(self):
        self.connected = self.start = self.full = self.dfs_incidence = None
        self.kinds = {}  # edge id -> its kind in the graph


class Graph:
    """Undirected multigraph; immutable after construction.

    edges is a tuple of (edge_id, u, v) sorted by edge_id;  u == v encodes a
    loop.  Freshly built graphs use ids 0..m-1; minors keep original ids.
    """

    # _derived is the graph's `_Derived` record; equality, hashing, repr and
    # copies ignore it, and a copy starts with an empty one.
    __slots__ = ("vertex_count", "edges", "_by_id", "_derived")

    def __init__(self, vertex_count, edges):
        # operator.index takes ints and int-likes and refuses floats, which
        # int() would truncate
        try:
            vertex_count = index(vertex_count)
        except TypeError:
            raise ValueError(f"vertex_count must be an integer, "
                             f"not {vertex_count!r}") from None
        if vertex_count <= 0:
            raise ValueError("vertex_count must be positive")
        norm = []
        for eid, u, v in edges:
            try:
                eid, u, v = index(eid), index(u), index(v)
            except TypeError:
                raise ValueError(f"edge ids and endpoints must be integers, "
                                 f"not {(eid, u, v)!r}") from None
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge {eid} endpoint out of range")
            if eid < 0:
                raise ValueError("edge ids must be non-negative")
            if eid > MAX_EDGE_ID:
                raise ValueError(
                    f"edge id {eid} is above the largest id, {MAX_EDGE_ID}")
            norm.append((eid, u, v))
        norm.sort()
        ids = [e[0] for e in norm]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "_by_id", {e[0]: (e[1], e[2]) for e in norm})
        object.__setattr__(self, "_derived", _Derived())

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor; the default slot
        # restore would call the refusing __setattr__
        return Graph, (self.vertex_count, self.edges)

    @property
    def edge_ids(self):
        return tuple(e[0] for e in self.edges)

    def edge_count(self):
        return len(self.edges)

    def endpoints(self, eid):
        try:
            return self._by_id[eid]
        except KeyError:
            raise ValueError(f"unknown edge id {eid}") from None

    def has_edge(self, eid):
        return eid in self._by_id

    def full_edge_set(self):
        derived = self._derived
        if derived.full is None:
            derived.full = edge_set(self._by_id)
        return derived.full

    def is_loop(self, eid):
        u, v = self.endpoints(eid)
        return u == v

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.vertex_count == other.vertex_count
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"Graph({self.vertex_count}, {list(self.edges)!r})"


# -- edge-set helpers ------------------------------------------------------


def edge_set(ids):
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def edge_ids(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def popcount(mask):
    return mask.bit_count()


def submasks(mask):
    """Every submask of `mask`, in ascending order, 0 and `mask` included."""
    s = 0
    while True:
        yield s
        s = (s - mask) & mask
        if not s:
            return


# -- component counting ----------------------------------------------------


def class_roots(g: Graph, mask: int) -> list:
    """Per vertex, the root of its component in the spanning subgraph `mask`.

    The roots are flattened: two vertices share a component exactly when
    they share a root, and every root is its own root.  Bits of `mask` that
    g lacks are ignored.
    """
    roots = list(range(g.vertex_count))
    for eid, u, v in g.edges:
        if (mask >> eid) & 1:
            while roots[u] != u:
                roots[u] = u = roots[roots[u]]
            while roots[v] != v:
                roots[v] = v = roots[roots[v]]
            roots[u] = v
    for w in range(len(roots)):
        r = w
        while roots[r] != r:
            roots[r] = r = roots[roots[r]]
        roots[w] = r
    return roots


def cc(g: Graph, mask: int) -> int:
    """Number of connected components of the spanning subgraph `mask`.

    Isolated vertices count, so cc of the edgeless subgraph is |V|.
    """
    return len(set(class_roots(g, mask)))


def cycl(g: Graph, mask: int) -> int:
    """Cyclomatic number: cc(S) + |S| - |V|.  Zero exactly on forests."""
    return cc(g, mask) + popcount(mask & g.full_edge_set()) - g.vertex_count


def is_connected(g: Graph) -> bool:
    """Whether g is connected, worked out on the first call and kept on g."""
    derived = g._derived
    if derived.connected is None:
        derived.connected = cc(g, g.full_edge_set()) == 1
    return derived.connected


def is_spanning_tree(g: Graph, mask: int) -> bool:
    return (popcount(mask) == g.vertex_count - 1
            and cc(g, mask) == 1)


def require_connected(g: Graph):
    if not is_connected(g):
        raise ValueError("graph must be connected")


def require_spanning_tree(g: Graph, mask: int):
    if not is_spanning_tree(g, mask):
        raise ValueError("edge set is not a spanning tree")


# -- classification --------------------------------------------------------


def classify_edge(g: Graph, eid: int) -> str:
    """Classify an edge of g as Loop, Isthmus or Standard.

    The kind is worked out on the first call for the edge and kept on g; an
    unknown id is refused and keeps nothing.  An isthmus of a disconnected
    graph is an edge whose removal separates its ends.
    """
    kinds = g._derived.kinds
    kind = kinds.get(eid)
    if kind is None:
        u, v = g.endpoints(eid)
        if u == v:
            kind = LOOP
        else:
            roots = class_roots(g, g.full_edge_set() & ~(1 << eid))
            kind = ISTHMUS if roots[u] != roots[v] else STANDARD
        kinds[eid] = kind
    return kind


def walk_start(g: Graph):
    """(triples, slack, roots): where every walk and pass on g starts.

    The triples are (1 << id, u, v) per edge in id order, the slack is the
    cyclomatic number of g's loopless part and the roots, a tuple so that
    no walk can change them, are the identity.  Worked out once per graph.
    """
    derived = g._derived
    if derived.start is None:
        triples = tuple((1 << f, u, v) for f, u, v in g.edges)
        slack = sum(u != v for _, u, v in g.edges) - g.vertex_count + 1
        derived.start = triples, slack, tuple(range(g.vertex_count))
    return derived.start


# -- spanning trees and forests --------------------------------------------


def spanning_trees(g: Graph):
    """All spanning-tree edge sets, ascending: the leaves of `decision_walk`."""
    from .decision import LinearOrderOracle
    from .engine import decision_walk
    return sorted(t for t, _, _ in
                  decision_walk(g, LinearOrderOracle(g.edge_ids)))


def spanning_forests(g: Graph):
    """All spanning-forest edge sets, ascending: the leaves of `forest_walk`."""
    from .decision import LinearOrderOracle
    from .engine import forest_walk
    return sorted(f for f, _ in
                  forest_walk(g, LinearOrderOracle(g.edge_ids)))


# -- text format -------------------------------------------------------------
#
# One graph per file:
#   vertices N
#   edge <id> <u> <v>
# The map and decision-tree formats share this syntax, read by `read_tokens`:
# `#` starts a comment, whitespace separates tokens, and `(` and `)` are
# tokens of their own.


def read_tokens(text: str):
    """Yield (line number, tokens) for each line of `text` with a token."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        tokens = line.replace("(", " ( ").replace(")", " ) ").split()
        if tokens:
            yield lineno, tokens


def read_int(lineno: int, token: str) -> int:
    """An integer field of line `lineno`; anything else names the line."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(
            f"line {lineno}: expected an integer, got {token!r}") from None


def parse_graph(text: str) -> Graph:
    vertex_count = None
    edges = []
    for lineno, tokens in read_tokens(text):
        if tokens[0] == "vertices":
            if vertex_count is not None:
                raise ValueError(f"line {lineno}: repeated 'vertices' line")
            if len(tokens) != 2:
                raise ValueError(f"line {lineno}: expected 'vertices N'")
            vertex_count = read_int(lineno, tokens[1])
        elif tokens[0] == "edge":
            if len(tokens) != 4:
                raise ValueError(f"line {lineno}: expected 'edge <id> <u> <v>'")
            edges.append(tuple(read_int(lineno, t) for t in tokens[1:]))
        else:
            raise ValueError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if vertex_count is None:
        raise ValueError("missing 'vertices' line")
    return Graph(vertex_count, edges)


def format_graph(g: Graph) -> str:
    lines = [f"vertices {g.vertex_count}"]
    for eid, u, v in g.edges:
        lines.append(f"edge {eid} {u} {v}")
    return "\n".join(lines) + "\n"


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g: Graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
