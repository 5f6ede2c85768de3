"""The four classical activity families on graphs and maps.

Ordering activity: minimal in the fundamental cycle/cocycle for a fixed
linear edge order.  Embedding activity: minimal for the tour order of the
spanning tree.  Blossoming activity: maximal for the first visits of a
pruning walk that turns the map into a tree.  These three run
`engine.extreme_rule`.  DFS activity: greatest-neighbor depth-first search
on simple graphs.  Each family is also realizable through a decision oracle
(the DFS one replays the marking DFS per prefix); the native definitions
live here and stay the references.  `make_oracle` reads every
oracle spec, the classical ones and `linear`, `random:SEED` and `file:PATH`,
for the command line and the crosscheck alike.
"""

from __future__ import annotations

from . import graph as gr
from .comb_map import CombMap, mirror, tour_order
from .decision import (RIGHT, DecisionOracle, LinearOrderOracle,
                       OrderMapOracle, RandomOracle, load_decision_tree)
from .engine import edge_kind, extreme_rule


# -- ordering and embedding: the min/max rule ---------------------------------


def _require_order(g, order, tree_mask):
    if sorted(order) != sorted(g.edge_ids):
        raise ValueError("order must be a permutation of the edges")
    gr.require_spanning_tree(g, tree_mask)


def ordering_active(g, order, tree_mask):
    """Tutte's rule: minimal in the fundamental set for the linear order."""
    _require_order(g, order, tree_mask)
    return extreme_rule(g, order, tree_mask)


def maximal_active(g, order, tree_mask):
    """Dual rule: maximal in the fundamental set for the given order."""
    _require_order(g, order, tree_mask)
    return extreme_rule(g, reversed(order), tree_mask)


def embedding_active(m: CombMap, tree_mask):
    """Minimal for the tour order of the tree in the fundamental set."""
    return extreme_rule(m.underlying_graph(), tour_order(m, tree_mask)[1],
                        tree_mask)


# -- blossoming: the pruning walk ---------------------------------------------


class PruneRun:
    """Transcript of one pruning walk.

    tree_mask: surviving edges (a spanning tree for forest input).
    first_visit: edge ids in first-visit order.
    isthmus_at_first_visit: edges that were isthmuses when first reached.
    charges: vertex -> net charge; each deletion puts -1 on the departure
    vertex of the crossing and +1 on the arrival vertex.
    """

    def __init__(self, tree_mask, first_visit, isthmus_at_first_visit, charges):
        self.tree_mask = tree_mask
        self.first_visit = first_visit
        self.isthmus_at_first_visit = isthmus_at_first_visit
        self.charges = charges


def prune_run(m: CombMap, forest_mask) -> PruneRun:
    """Walk around the map from the root, deleting external non-isthmuses.

    The walk follows sigma-alpha motion in the shrinking map: take the edge
    of the current half-edge, step to the half-edge that immediately follows
    it, then delete the walked edge whenever it is external and currently
    not an isthmus.  Stops once every edge has been visited.

    The shrinking map is `m` with the edges of the `dead` mask removed.  Its
    rotation at a vertex is `m.sigma` there with the dead half-edges
    skipped, so the step is `sigma[alpha[h]]` followed along `sigma` past
    dead half-edges.  The map is connected and a deletion never disconnects
    it, so each vertex keeps a live half-edge until every edge is dead.

    Each edge is classified once, at its first visit: the walk only
    deletes, an isthmus stays one under deletion, and a forest edge's kind
    is recorded only then.  The forest is never deleted, so an external
    edge whose ends it joins is never an isthmus and needs no test.
    """
    g0 = m.underlying_graph()
    forest = gr.class_roots(g0, forest_mask)
    all_edges = g0.full_edge_set()
    if len(set(forest)) + gr.popcount(forest_mask & all_edges) \
            != g0.vertex_count:
        raise ValueError("input edge set contains a cycle")
    sigma = m.sigma
    alpha = m.alpha
    edge_of = m.edge_of()
    vertex_of = m.vertex_of()
    _, _, roots = gr.walk_start(g0)  # nothing is ever contracted

    dead = seen = 0
    first_visit = []
    isthmus_first = 0
    charges = {v: 0 for v in range(g0.vertex_count)}

    h = m.root
    guard = 0
    limit = 4 * len(sigma) * len(sigma) + 16
    while seen != all_edges:
        guard += 1
        if guard > limit:
            raise RuntimeError("pruning walk failed to terminate")
        eid = edge_of[h]
        bit = 1 << eid
        if not seen & bit:
            seen |= bit
            first_visit.append(eid)
            u, v = vertex_of[h], vertex_of[alpha[h]]
            if (forest_mask & bit or forest[u] != forest[v]) and \
                    edge_kind(g0, roots, dead, eid) == gr.ISTHMUS:
                isthmus_first |= bit
            elif not forest_mask & bit:
                dead |= bit
                charges[u] -= 1
                charges[v] += 1
        h = sigma[alpha[h]]
        while dead != all_edges and (dead >> edge_of[h]) & 1:
            h = sigma[h]

    return PruneRun(all_edges & ~dead, first_visit, isthmus_first, charges)


def tau(m: CombMap, forest_mask) -> int:
    """The spanning tree the pruning walk leaves from a spanning forest."""
    return prune_run(m, forest_mask).tree_mask


def blossoming_internal_active(m: CombMap, tree_mask) -> int:
    """Internal edges whose removal is undone by the pruning walk."""
    gr.require_spanning_tree(m.underlying_graph(), tree_mask)
    result = 0
    for eid in gr.edge_ids(tree_mask):
        if tau(m, tree_mask & ~(1 << eid)) == tree_mask:
            result |= 1 << eid
    return result


def blossoming_first_visit_order(m: CombMap, tree_mask):
    """Edge order of first visits in the pruning walk of the tree."""
    gr.require_spanning_tree(m.underlying_graph(), tree_mask)
    return prune_run(m, tree_mask).first_visit


def blossoming_active(m: CombMap, tree_mask):
    """Full blossoming activity: last visited in the fundamental set.

    Equivalently the activity of any decision oracle realizing the
    first-visit order map; the active sets do not depend on that choice.
    """
    order = blossoming_first_visit_order(m, tree_mask)
    return extreme_rule(m.underlying_graph(), reversed(order), tree_mask)


# -- DFS activity ---------------------------------------------------------------


class DfsRun:
    """DFS transcript: forest mask, vertex visit order, parent links, every
    edge id in first-visit order, and the closed edges: those marked while
    their far end was already visited."""

    def __init__(self, forest_mask, vertex_order, parent, edge_order, closed):
        self.forest_mask = forest_mask
        self.vertex_order = vertex_order
        self.parent = parent  # vertex -> (parent vertex, edge id) or None
        self.edge_order = edge_order
        self.closed = closed


def dfs_run(g, subgraph_mask) -> DfsRun:
    """The marking greatest-neighbor DFS, restarting at least vertices.

    Each vertex scans its incident edges by descending (neighbor, id) and
    marks those not yet marked; the search moves along an edge exactly when
    the edge lies in the subgraph and reaches an unvisited vertex.
    """
    return _marking_dfs(_dfs_incidence(g), subgraph_mask)


def _dfs_incidence(g):
    """Per vertex, its (neighbor, edge id) pairs in descending order.

    Worked out on the first call and kept in g's derived-data record, as
    `is_connected` keeps its answer; a graph with multiple edges is refused
    on every call.
    """
    incident = g._derived.dfs_incidence
    if incident is None:
        pairs = {(min(u, v), max(u, v)) for _, u, v in g.edges}
        incident = False
        if len(pairs) == g.edge_count():
            incident = [[] for _ in range(g.vertex_count)]
            for eid, u, v in g.edges:
                incident[u].append((v, eid))
                if u != v:
                    incident[v].append((u, eid))
            for edges in incident:
                edges.sort(reverse=True)
        g._derived.dfs_incidence = incident
    if incident is False:
        raise ValueError("DFS activity needs a graph without multiple edges")
    return incident


def _marking_dfs(incident, subgraph_mask) -> DfsRun:
    """`dfs_run` from the `_dfs_incidence` of a checked graph."""
    parent = {}  # in visit order
    marked = set()
    edge_order = []
    forest = closed = 0
    for root in range(len(incident)):
        if root in parent:
            continue
        parent[root] = None
        stack = [(root, iter(incident[root]))]
        while stack:
            v, edges = stack[-1]
            for u, eid in edges:
                if eid in marked:
                    continue
                marked.add(eid)
                edge_order.append(eid)
                if u in parent:
                    closed |= 1 << eid
                elif (subgraph_mask >> eid) & 1:
                    parent[u] = (v, eid)
                    forest |= 1 << eid
                    stack.append((u, iter(incident[u])))
                    break
            else:
                stack.pop()
    return DfsRun(forest, list(parent), parent, edge_order, closed)


def dfs_active(g, forest_mask) -> int:
    """External edges whose addition leaves the DFS forest unchanged.

    The search on F + e runs as on F until it marks e.  It then changes the
    forest exactly when it traverses e, that is when e's far end is still
    unvisited.  So the active edges are the closed edges of the one search
    on F, which traverses every edge of F when F is its own DFS forest.
    """
    run = dfs_run(g, forest_mask)
    if run.forest_mask != forest_mask:
        raise ValueError("edge set is not its own DFS forest")
    return run.closed


def dfs_active_by_inversion(g, forest_mask) -> int:
    """Loop-or-inversion characterization of the DFS-active edges.

    A non-loop external {u, v} is active when one endpoint descends from the
    other in the DFS forest and the child of the ancestor on the connecting
    path is larger than the descendant endpoint.
    """
    run = dfs_run(g, forest_mask)
    if run.forest_mask != forest_mask:
        raise ValueError("edge set is not its own DFS forest")

    def chain(v):
        path = [v]
        while run.parent[path[-1]] is not None:
            path.append(run.parent[path[-1]][0])
        return path  # v up to its root

    result = 0
    for eid, u, v in g.edges:
        if (forest_mask >> eid) & 1:
            continue
        if u == v:
            result |= 1 << eid
            continue
        for anc, desc in ((u, v), (v, u)):
            up = chain(desc)
            if anc in up:
                w = up[up.index(anc) - 1]  # child of anc towards desc
                if w > desc:
                    result |= 1 << eid
                break
    return result


def dfs_order_map(g, subgraph_mask):
    """First-visit order of all edges under the marking DFS.

    Runs the greatest-neighbor DFS of the whole graph but traverses only
    internal edges; external edges are marked in passing.  The result is a
    permutation of the edge ids.
    """
    return dfs_run(g, subgraph_mask).edge_order


# -- oracle specs ------------------------------------------------------------


class DfsOracle(DecisionOracle):
    """The marking DFS as a lazily filled decision tree.

    The DFS marks its first k edges knowing only which of them lie in the
    subgraph, so at a prefix of length k it runs on the edges the prefix put
    right and answers the (k+1)-th edge it marks.  On the path of any
    spanning forest F the answers are `dfs_order_map(g, F)`.
    """

    def __init__(self, g):
        self.incident = _dfs_incidence(g)
        super().__init__(g.edge_ids)

    def choose(self, prefix, unused):
        # Every ancestor was asked first, by the walk or by `next_edge`, so
        # each is tabled.
        inside = gr.edge_set(self.table[prefix[:j]]
                             for j, d in enumerate(prefix) if d == RIGHT)
        return _marking_dfs(self.incident, inside).edge_order[len(prefix)]


def make_oracle(spec, g, cmap=None):
    """The decision oracle a spec names; a bad spec raises ValueError.

    `linear` is the level-constant oracle of the ascending edge ids and
    `linear:IDS` that of the given order; `random:SEED` is the seeded
    `RandomOracle` and `file:PATH` the explicit tree in that file.  The classical families realize their order
    maps: `embedding` orders each spanning tree of g by its tour in the
    mirror of `cmap`, `blossoming` by the first visits of the pruning walk
    on `cmap` (both need the map, whose underlying graph g is), and `dfs` by
    the marking DFS of the simple graph g, filled lazily (`DfsOracle`).
    """
    if spec == "linear":
        return LinearOrderOracle(g.edge_ids)
    if spec == "dfs":
        return DfsOracle(g)
    if spec in ("embedding", "blossoming"):
        if cmap is None:
            raise ValueError(f"the {spec} order map needs a map")
        if cmap.underlying_graph() != g:
            raise ValueError("the map must embed the graph")
        trees = gr.spanning_trees(g)
        if spec == "embedding":
            mm = mirror(cmap)
            table = {t: tour_order(mm, t)[1] for t in trees}
        else:
            table = {t: blossoming_first_visit_order(cmap, t) for t in trees}
        return OrderMapOracle(g, table)
    kind, _, arg = spec.partition(":")
    ids = arg.split(",")
    if kind == "linear" and all(t.isdecimal() for t in ids):
        order = [int(t) for t in ids]
        if sorted(order) != sorted(g.edge_ids):
            raise ValueError("order must be a permutation of the edges")
        return LinearOrderOracle(order)
    if kind == "random" and arg.removeprefix("-").isdecimal():
        return RandomOracle(g.edge_ids, int(arg))
    if kind == "file" and arg:
        try:
            return load_decision_tree(arg, g.edge_ids)
        except ValueError as exc:  # name the file the error is in
            raise ValueError(f"{arg}: {exc}") from None
    raise ValueError(f"unknown oracle spec {spec!r}")
