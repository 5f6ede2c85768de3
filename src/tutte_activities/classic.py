"""The four classical activity families on graphs and maps.

Ordering activity: minimal in the fundamental cycle/cocycle for a fixed
linear edge order.  Embedding activity: minimal for the tour order of the
spanning tree.  Blossoming activity: defined through a pruning walk that
turns the map into a tree.  DFS activity: greatest-neighbor depth-first
search on simple graphs.  Each family is also realizable through a decision
oracle (`order_map_oracle`; the DFS one replays the marking DFS per prefix);
the native definitions live here and stay the references.
"""

from __future__ import annotations

from . import graph as gr
from .comb_map import CombMap, mirror, tour_order
from .decision import RIGHT, DecisionOracle, OrderMapOracle
from .engine import edge_kind


# -- generic min/max rule ----------------------------------------------------


def _fundamental_sets(g, tree_mask):
    """Per edge id, its fundamental cycle (external) or cocycle (internal).

    For a spanning tree only, from one rooting: an external edge's cycle is
    the edge plus the tree edges of the two climbs from its ends to their
    meeting vertex.  Cycles and cocycles are transposes of each other: an
    internal edge t lies in the fundamental cycle of the external edge e
    exactly when e lies in the fundamental cocycle of t, so t's cocycle is t
    plus every external edge whose cycle passes through t.
    """
    adj = [[] for _ in range(g.vertex_count)]
    for eid, u, v in g.edges:
        if (tree_mask >> eid) & 1:
            adj[u].append((v, eid))
            adj[v].append((u, eid))
    up = [None] * g.vertex_count  # vertex -> (parent vertex, tree edge)
    depth = [-1] * g.vertex_count
    depth[0] = 0
    stack = [0]
    while stack:
        w = stack.pop()
        for nxt, eid in adj[w]:
            if depth[nxt] < 0:
                up[nxt] = (w, eid)
                depth[nxt] = depth[w] + 1
                stack.append(nxt)
    sets = {eid: 1 << eid for eid, _, _ in g.edges}
    for eid, u, v in g.edges:
        if (tree_mask >> eid) & 1:
            continue
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            u, tid = up[u]
            sets[eid] |= 1 << tid
            sets[tid] |= 1 << eid
    return sets


def _extreme_rule(g, rank, tree_mask, pick):
    """Active = edges extreme (by `rank`) in their fundamental cycle/cocycle."""
    internal = 0
    external = 0
    for eid, fundamental in _fundamental_sets(g, tree_mask).items():
        if eid == pick(gr.edge_ids(fundamental), key=rank.__getitem__):
            if (tree_mask >> eid) & 1:
                internal |= 1 << eid
            else:
                external |= 1 << eid
    return internal, external


def _rank_of(order):
    return {eid: i for i, eid in enumerate(order)}


def _require_order(g, order, tree_mask):
    if sorted(order) != sorted(g.edge_ids):
        raise ValueError("order must be a permutation of the edges")
    if not gr.is_spanning_tree(g, tree_mask):
        raise ValueError("edge set is not a spanning tree")


def ordering_active(g, order, tree_mask):
    """Tutte's rule: minimal in the fundamental set for the linear order."""
    _require_order(g, order, tree_mask)
    return _extreme_rule(g, _rank_of(order), tree_mask, min)


def maximal_active(g, order, tree_mask):
    """Dual rule: maximal in the fundamental set for the given order."""
    _require_order(g, order, tree_mask)
    return _extreme_rule(g, _rank_of(order), tree_mask, max)


def embedding_active(m: CombMap, tree_mask):
    """Minimal for the tour order of the tree in the fundamental set."""
    g = m.underlying_graph()
    _, edge_order = tour_order(m, tree_mask)
    return _extreme_rule(g, _rank_of(edge_order), tree_mask, min)


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
    """
    g0 = m.underlying_graph()
    if not gr.is_forest(g0, forest_mask):
        raise ValueError("input edge set contains a cycle")
    sigma = m.sigma
    alpha = m.alpha
    edge_of = m.edge_of()
    vertex_of = m.vertex_of()
    all_edges = g0.full_edge_set()
    roots = list(range(g0.vertex_count))  # nothing is ever contracted

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
        first = not seen & bit
        if first:
            seen |= bit
            first_visit.append(eid)
        is_isthmus = edge_kind(g0, roots, dead, eid) == gr.ISTHMUS
        if first and is_isthmus:
            isthmus_first |= bit
        if not is_isthmus and not forest_mask & bit:
            dead |= bit
            charges[vertex_of[h]] -= 1
            charges[vertex_of[alpha[h]]] += 1
        h = sigma[alpha[h]]
        while dead != all_edges and (dead >> edge_of[h]) & 1:
            h = sigma[h]

    return PruneRun(all_edges & ~dead, first_visit, isthmus_first, charges)


def tau(m: CombMap, forest_mask) -> int:
    """The spanning tree the pruning walk leaves from a spanning forest."""
    return prune_run(m, forest_mask).tree_mask


def blossoming_internal_active(m: CombMap, tree_mask) -> int:
    """Internal edges whose removal is undone by the pruning walk."""
    g = m.underlying_graph()
    if not gr.is_spanning_tree(g, tree_mask):
        raise ValueError("edge set is not a spanning tree")
    result = 0
    for eid in gr.edge_ids(tree_mask):
        if tau(m, tree_mask & ~(1 << eid)) == tree_mask:
            result |= 1 << eid
    return result


def blossoming_first_visit_order(m: CombMap, tree_mask):
    """Edge order of first visits in the pruning walk of the tree."""
    g = m.underlying_graph()
    if not gr.is_spanning_tree(g, tree_mask):
        raise ValueError("edge set is not a spanning tree")
    return prune_run(m, tree_mask).first_visit


def blossoming_active(m: CombMap, tree_mask):
    """Full blossoming activity: last visited in the fundamental set.

    Equivalently the activity of any decision oracle realizing the
    first-visit order map; the active sets do not depend on that choice.
    """
    g = m.underlying_graph()
    order = blossoming_first_visit_order(m, tree_mask)
    return _extreme_rule(g, _rank_of(order), tree_mask, max)


def blossoming_subtree_charge(m: CombMap, tree_mask, eid) -> int:
    """Net charge of the subtree hanging below an internal edge.

    Charges are laid down by the pruning walk of the tree; the subtree is
    the component of tree - e not containing the root vertex.
    """
    g = m.underlying_graph()
    if not gr.is_spanning_tree(g, tree_mask):
        raise ValueError("edge set is not a spanning tree")
    if not ((tree_mask >> eid) & 1):
        raise ValueError("edge is not internal")
    run = prune_run(m, tree_mask)
    root_vertex = m.vertex_of()[m.root]
    roots = gr.class_roots(g, tree_mask & ~(1 << eid))
    root_side = roots[root_vertex]
    return sum(c for v, c in run.charges.items() if roots[v] != root_side)


def blossoming_charge_check(m: CombMap, tree_mask, eid) -> bool:
    """Whether the subtree below the internal edge has charge 0 or 1.

    Implied by blossoming activity on any map; equivalent to it only on
    planar maps.
    """
    return blossoming_subtree_charge(m, tree_mask, eid) in (0, 1)


# -- DFS activity ---------------------------------------------------------------


def _require_dfs_graph(g):
    seen = set()
    for _, u, v in g.edges:
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError("DFS activity needs a graph without multiple edges")
        seen.add(key)


class DfsRun:
    """DFS transcript: forest mask, vertex visit order, parent links, and
    every edge id in first-visit order."""

    def __init__(self, forest_mask, vertex_order, parent, edge_order):
        self.forest_mask = forest_mask
        self.vertex_order = vertex_order
        self.parent = parent  # vertex -> (parent vertex, edge id) or None
        self.edge_order = edge_order


def dfs_run(g, subgraph_mask) -> DfsRun:
    """The marking greatest-neighbor DFS, restarting at least vertices.

    Each vertex scans its incident edges by descending (neighbor, id) and
    marks those not yet marked; the search moves along an edge exactly when
    the edge lies in the subgraph and reaches an unvisited vertex.
    """
    _require_dfs_graph(g)
    return _marking_dfs(g, subgraph_mask)


def _marking_dfs(g, subgraph_mask) -> DfsRun:
    """`dfs_run` on a graph already checked by `_require_dfs_graph`."""
    incident = [[] for _ in range(g.vertex_count)]
    for eid, u, v in g.edges:
        incident[u].append((v, eid))
        if u != v:
            incident[v].append((u, eid))
    for edges in incident:
        edges.sort(reverse=True)
    parent = {}  # in visit order
    marked = set()
    edge_order = []
    forest = 0
    for root in range(g.vertex_count):
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
                if (subgraph_mask >> eid) & 1 and u not in parent:
                    parent[u] = (v, eid)
                    forest |= 1 << eid
                    stack.append((u, iter(incident[u])))
                    break
            else:
                stack.pop()
    return DfsRun(forest, list(parent), parent, edge_order)


def dfs_forest(g, subgraph_mask) -> int:
    """The greatest-neighbor DFS forest of a subgraph, as an edge mask."""
    return dfs_run(g, subgraph_mask).forest_mask


def dfs_active(g, forest_mask) -> int:
    """External edges whose addition leaves the DFS forest unchanged."""
    if dfs_forest(g, forest_mask) != forest_mask:  # checks g once
        raise ValueError("edge set is not its own DFS forest")
    result = 0
    for eid, _, _ in g.edges:
        if not ((forest_mask >> eid) & 1):
            grown = _marking_dfs(g, forest_mask | (1 << eid))
            if grown.forest_mask == forest_mask:
                result |= 1 << eid
    return result


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


# -- the classical families as order-map oracles -------------------------------

ORDER_MAP_FAMILIES = ("embedding", "blossoming", "dfs")


class DfsOracle(DecisionOracle):
    """The marking DFS as a lazily filled decision tree.

    The DFS marks its first k edges knowing only which of them lie in the
    subgraph, so at a prefix of length k it runs on the edges the prefix put
    right and answers the (k+1)-th edge it marks.  On the path of any
    spanning forest F the answers are `dfs_order_map(g, F)`.
    """

    def __init__(self, g):
        _require_dfs_graph(g)
        super().__init__(g.edge_ids)
        self.g = g

    def choose(self, prefix, unused):
        # Every ancestor was asked first, by the walk or by `next_edge`, so
        # each is tabled.
        inside = gr.edge_set(self.table[prefix[:j]]
                             for j, d in enumerate(prefix) if d == RIGHT)
        return _marking_dfs(self.g, inside).edge_order[len(prefix)]


def order_map_oracle(family, g, cmap=None):
    """The decision oracle realizing a classical family's order map.

    `embedding` orders each spanning tree of g by its tour in the mirror of
    `cmap`, `blossoming` by the first visits of the pruning walk on `cmap`
    (both need the map, whose underlying graph g is), and `dfs` by the
    marking DFS of the simple graph g, filled lazily (`DfsOracle`).
    """
    if family not in ORDER_MAP_FAMILIES:
        raise ValueError(f"unknown order-map family {family!r}")
    if family == "dfs":
        return DfsOracle(g)
    if cmap is None:
        raise ValueError(f"the {family} order map needs a map")
    trees = gr.spanning_trees(g)
    if family == "embedding":
        mm = mirror(cmap)
        table = {t: tour_order(mm, t)[1] for t in trees}
    else:
        table = {t: blossoming_first_visit_order(cmap, t) for t in trees}
    return OrderMapOracle(g, table)
