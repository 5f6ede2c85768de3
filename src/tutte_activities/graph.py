"""Multigraphs with loops and parallel edges, and spanning-subgraph counting.

Vertices are 0..n-1.  Every edge carries a stable integer id; minors produced
by `delete` and `contract` keep the surviving ids unchanged, so edge subsets
(bitmasks over ids) stay meaningful across minor operations.  Spanning
subgraphs are identified with their edge sets, represented as plain int
bitmasks (bit i set = edge i present).

Every component question goes through one union-find, `class_roots`.  The
typing passes in `engine` do not call it: they carry a minor's contracted
classes as a root list and merge two classes per contraction.

The spanning trees and forests of a connected graph are the leaves of the
walks in `engine`, which imports this module and so is imported late here.
"""

from __future__ import annotations

LOOP = "Loop"
ISTHMUS = "Isthmus"
STANDARD = "Standard"


class Graph:
    """Undirected multigraph; immutable after construction.

    edges is a tuple of (edge_id, u, v) sorted by edge_id;  u == v encodes a
    loop.  Freshly built graphs use ids 0..m-1; minors keep original ids.
    """

    __slots__ = ("vertex_count", "edges", "_by_id")

    def __init__(self, vertex_count, edges):
        if vertex_count <= 0:
            raise ValueError("vertex_count must be positive")
        norm = []
        for eid, u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge {eid} endpoint out of range")
            if eid < 0:
                raise ValueError("edge ids must be non-negative")
            norm.append((int(eid), int(u), int(v)))
        norm.sort()
        ids = [e[0] for e in norm]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")
        object.__setattr__(self, "vertex_count", int(vertex_count))
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "_by_id", {e[0]: (e[1], e[2]) for e in norm})

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
        mask = 0
        for eid in self._by_id:
            mask |= 1 << eid
        return mask

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
    for w, r in enumerate(roots):
        while roots[r] != r:
            r = roots[r]
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
    return cc(g, g.full_edge_set()) == 1


def is_forest(g: Graph, mask: int) -> bool:
    return cycl(g, mask) == 0


def is_spanning_tree(g: Graph, mask: int) -> bool:
    return (popcount(mask) == g.vertex_count - 1
            and cc(g, mask) == 1)


# -- classification and minors ---------------------------------------------


def classify_edge(g: Graph, eid: int) -> str:
    """Classify an edge of g as Loop, Isthmus or Standard."""
    u, v = g.endpoints(eid)
    if u == v:
        return LOOP
    roots = class_roots(g, g.full_edge_set() & ~(1 << eid))
    return ISTHMUS if roots[u] != roots[v] else STANDARD


def delete(g: Graph, eid: int) -> Graph:
    """Remove the edge, keeping both endpoints (possibly now isolated)."""
    g.endpoints(eid)
    return Graph(g.vertex_count, [e for e in g.edges if e[0] != eid])


def contract(g: Graph, eid: int) -> Graph:
    """Merge the endpoints of a non-loop edge into the smaller vertex id.

    Vertices above the removed endpoint shift down by one so vertex ids stay
    contiguous; edge ids are untouched.
    """
    u, v = g.endpoints(eid)
    if u == v:
        raise ValueError(f"cannot contract loop {eid}")
    keep, gone = min(u, v), max(u, v)

    def relabel(w):
        if w == gone:
            return keep
        return w - 1 if w > gone else w

    edges = [(i, relabel(a), relabel(b))
             for i, a, b in g.edges if i != eid]
    return Graph(g.vertex_count - 1, edges)


# -- spanning trees and fundamental sets ------------------------------------


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


def tree_path(g: Graph, tree_mask: int, a: int, b: int):
    """Edge ids on the unique path from a to b inside the tree."""
    if a == b:
        return []
    adj = {}
    for eid, u, v in g.edges:
        if (tree_mask >> eid) & 1 and u != v:
            adj.setdefault(u, []).append((v, eid))
            adj.setdefault(v, []).append((u, eid))
    prev = {a: (None, None)}
    stack = [a]
    while stack:
        w = stack.pop()
        if w == b:
            break
        for nxt, eid in adj.get(w, ()):
            if nxt not in prev:
                prev[nxt] = (w, eid)
                stack.append(nxt)
    if b not in prev:
        raise ValueError("endpoints not connected in the given tree")
    path = []
    w = b
    while prev[w][0] is not None:
        w, eid = prev[w]
        path.append(eid)
    path.reverse()
    return path


def fundamental_cycle(g: Graph, tree_mask: int, eid: int) -> int:
    """Unique cycle in tree + e, for an external edge e (a loop yields {e})."""
    if (tree_mask >> eid) & 1:
        raise ValueError(f"edge {eid} is internal; it has no fundamental cycle")
    u, v = g.endpoints(eid)
    if u == v:
        return 1 << eid
    mask = 1 << eid
    for pid in tree_path(g, tree_mask, u, v):
        mask |= 1 << pid
    return mask


def fundamental_cocycle(g: Graph, tree_mask: int, eid: int) -> int:
    """Edges crossing the split of the tree at internal edge e (contains e)."""
    if not ((tree_mask >> eid) & 1):
        raise ValueError(f"edge {eid} is external; it has no fundamental cocycle")
    u, v = g.endpoints(eid)
    if u == v:
        raise ValueError("a loop cannot belong to a spanning tree")
    roots = class_roots(g, tree_mask & ~(1 << eid))
    side = roots[u]  # u's side of tree - e
    mask = 0
    for fid, a, b in g.edges:
        if (roots[a] == side) != (roots[b] == side):
            mask |= 1 << fid
    return mask


# -- text format -------------------------------------------------------------
#
# One graph per file:
#   vertices N
#   edge <id> <u> <v>
# Whitespace-separated; `#` starts a comment.


def parse_graph(text: str) -> Graph:
    vertex_count = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "vertices":
            if len(tokens) != 2:
                raise ValueError(f"line {lineno}: expected 'vertices N'")
            vertex_count = int(tokens[1])
        elif tokens[0] == "edge":
            if len(tokens) != 4:
                raise ValueError(f"line {lineno}: expected 'edge <id> <u> <v>'")
            edges.append((int(tokens[1]), int(tokens[2]), int(tokens[3])))
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
