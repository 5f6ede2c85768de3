"""Edge typing driven by a decision oracle: histories, walks, activities.

A minor of the input graph G is held as two bitmasks over G's edge ids,
`contracted` and `deleted`; every other edge survives.  No graph is built
along the way.  The contracted classes are a root list: each vertex maps to
the root of its class.  An edge is a loop of the minor when its endpoints
share a root, and an isthmus when they do not meet through every other
surviving edge: one union-find pass, seeded from the roots (`edge_kind`).

Every pass starts from the identity list, and only a contraction changes
it: `_contract` returns a new list with the two end classes merged.  A
single pass rebinds its list; a walk pushes the contracted list with the
right branch and keeps its own for the left one.

The typing pass visits the edges in the order dictated by the oracle.  The
visited edge is classified in the current minor H: a standard external edge
is deleted (go left), a standard internal edge is contracted (go right), a
loop gets type L (left) and an isthmus type I (right).  The two flags of
`run_history` keep their meaning: `delete_loops` also deletes the typed-L
edges and `contract_isthmuses` also contracts the typed-I ones.  All four
flag settings produce the same types.

Every pass asks a node's ancestors before the node and hands the oracle the
mask of the edges it has typed, which are the answers on the node's path
(`_visit`); an oracle keeps no record of the paths it answered.

`decision_walk` walks the decision tree itself, querying the oracle once per
node.  It branches only at standard edges, where deletion and contraction
both lead on; loops and isthmuses have one way forward.  Its leaves are
exactly the spanning trees, and the path to a leaf is that tree's history.
`forest_walk` is its never-deleting twin: it branches at every non-loop, so
its leaves are the spanning forests, each with its `forest_active` set.

Types use the four tags Se (standard external), L (loop at visit), Si
(standard internal), I (isthmus at visit).  An edge typed L or I is active;
for spanning trees the type-I edges are exactly the internal active edges
and the type-L edges the external active ones.
"""

from __future__ import annotations

from . import graph as gr
from .decision import LEFT, RIGHT

TYPE_SE = "Se"
TYPE_L = "L"
TYPE_SI = "Si"
TYPE_I = "I"

DIRECTION_OF_TYPE = {TYPE_SE: LEFT, TYPE_L: LEFT, TYPE_SI: RIGHT, TYPE_I: RIGHT}


def _contract(g, roots, eid):
    """A new root list with the classes of an edge's ends merged.

    `roots` itself is left as it is: a walk keeps using it on the left
    branch.  Every root stays its own root, since the merged class takes
    the root of the other end.
    """
    u, v = g._by_id[eid]
    a, b = roots[u], roots[v]
    return [b if c == a else c for c in roots]


def edge_kind(g, roots, gone, eid):
    """Loop, Isthmus or Standard, given the contracted classes' roots.

    `roots` maps each vertex to its class's root and `gone` holds the
    contracted and the deleted edges.  The isthmus test is one union-find
    over the other surviving edges, seeded from the roots.  It stays inline
    rather than calling `graph.class_roots`: it asks about one pair of ends
    only, and it is the hottest loop of every walk, where a flattening pass
    over all vertices costs time.
    """
    u, v = g._by_id[eid]
    u, v = roots[u], roots[v]
    if u == v:
        return gr.LOOP
    parent = roots[:]
    gone |= 1 << eid
    for f, a, b in g.edges:
        if not (gone >> f) & 1:
            a = parent[a]
            while parent[a] != a:
                a = parent[a]
            b = parent[b]
            while parent[b] != b:
                b = parent[b]
            parent[a] = b
    while parent[u] != u:
        u = parent[u]
    while parent[v] != v:
        v = parent[v]
    return gr.STANDARD if u == v else gr.ISTHMUS


def _visit(g, oracle, prefix, typed):
    """The oracle's next edge, checked to be a known edge not yet typed."""
    eid = oracle.next_edge(prefix, typed)
    if eid not in g._by_id or (typed >> eid) & 1:
        raise ValueError(f"oracle returned unusable edge {eid}")
    return eid


def _require_connected(g):
    if not gr.is_connected(g):
        raise ValueError("graph must be connected")


def run_history(g, oracle, subgraph_mask, *, delete_loops=False,
                contract_isthmuses=False):
    """Visit every edge once and return [(edge_id, type), ...] in visit order.

    Accepts any spanning subgraph, not only trees.  The two keyword flags
    toggle the optional removal of L-typed and I-typed edges from the minor;
    they never change the output, only the masks the pass carries.
    """
    _require_connected(g)
    roots = list(range(g.vertex_count))
    contracted = deleted = typed = 0
    prefix = ()
    history = []
    for _ in range(g.edge_count()):
        eid = _visit(g, oracle, prefix, typed)
        bit = 1 << eid
        kind = edge_kind(g, roots, contracted | deleted, eid)
        typed |= bit
        if kind == gr.STANDARD:
            if subgraph_mask & bit:
                contracted |= bit
                roots = _contract(g, roots, eid)
                etype = TYPE_SI
            else:
                deleted |= bit
                etype = TYPE_SE
        elif kind == gr.LOOP:
            if delete_loops:
                deleted |= bit
            etype = TYPE_L
        else:  # isthmus
            if contract_isthmuses:
                contracted |= bit
                roots = _contract(g, roots, eid)
            etype = TYPE_I
        history.append((eid, etype))
        prefix += (DIRECTION_OF_TYPE[etype],)
    return history


def decision_walk(g, oracle):
    """Yield (tree, internal_active, external_active) for every leaf.

    The walk keeps its open branches on an explicit stack, so it holds no
    reference cycle and lets go of the oracle once it is exhausted.  Every
    node's edge is asked for once and must be usable, as in `run_history`.
    """
    _require_connected(g)
    m = g.edge_count()
    # (prefix, roots, contracted, deleted, internal, external); the typed
    # edges are the union of the four masks.
    stack = [((), list(range(g.vertex_count)), 0, 0, 0, 0)]
    while stack:
        prefix, roots, contracted, deleted, internal, external = stack.pop()
        while len(prefix) < m:
            typed = contracted | deleted | internal | external
            eid = _visit(g, oracle, prefix, typed)
            bit = 1 << eid
            kind = edge_kind(g, roots, contracted | deleted, eid)
            if kind == gr.STANDARD:
                stack.append((prefix + (RIGHT,), _contract(g, roots, eid),
                              contracted | bit, deleted, internal, external))
                deleted |= bit
                prefix += (LEFT,)
            elif kind == gr.LOOP:
                external |= bit
                prefix += (LEFT,)
            else:  # isthmus
                internal |= bit
                prefix += (RIGHT,)
        yield contracted | internal, internal, external


def forest_walk(g, oracle):
    """Yield (forest, forest_active(forest)) for every spanning forest.

    Nothing is deleted: a loop at its visit is active and steers left, and
    every other edge branches, out of the forest (left) or contracted (right).
    Only loops are told apart, so the roots alone type an edge.
    """
    _require_connected(g)
    ends = g._by_id
    m = g.edge_count()
    # (prefix, roots, contracted, typed, active)
    stack = [((), list(range(g.vertex_count)), 0, 0, 0)]
    while stack:
        prefix, roots, contracted, typed, active = stack.pop()
        while len(prefix) < m:
            eid = _visit(g, oracle, prefix, typed)
            bit = 1 << eid
            typed |= bit
            u, v = ends[eid]
            if roots[u] == roots[v]:
                active |= bit
            else:
                stack.append((prefix + (RIGHT,), _contract(g, roots, eid),
                              contracted | bit, typed, active))
            prefix += (LEFT,)
        yield contracted, active


def type_masks(history):
    """Bitmasks of the four type classes, as a dict keyed by type tag."""
    masks = {TYPE_SE: 0, TYPE_L: 0, TYPE_SI: 0, TYPE_I: 0}
    for eid, etype in history:
        masks[etype] |= 1 << eid
    return masks


def active_mask(history):
    """Edges with type L or I."""
    masks = type_masks(history)
    return masks[TYPE_L] | masks[TYPE_I]


def delta_ordering(g, oracle, subgraph_mask):
    """The visit order of the edges for the given subgraph."""
    return [eid for eid, _ in run_history(g, oracle, subgraph_mask)]


def delta_activity(g, oracle, tree_mask):
    """(internal_active, external_active) masks of a spanning tree.

    Internal actives are the type-I edges, external actives the type-L ones.
    """
    if not gr.is_spanning_tree(g, tree_mask):
        raise ValueError("edge set is not a spanning tree")
    masks = type_masks(run_history(g, oracle, tree_mask))
    return masks[TYPE_I], masks[TYPE_L]


def internal_active_no_contract(g, oracle, tree_mask):
    """Internal active edges computed without ever contracting an edge.

    Walks the oracle like the typing pass but only deletes external
    non-isthmus edges; an edge joins the output when it is an isthmus of the
    current minor right after its step.
    """
    if not gr.is_spanning_tree(g, tree_mask):
        raise ValueError("edge set is not a spanning tree")
    roots = list(range(g.vertex_count))
    deleted = typed = 0
    prefix = ()
    result = 0
    for _ in range(g.edge_count()):
        eid = _visit(g, oracle, prefix, typed)
        bit = 1 << eid
        kind = edge_kind(g, roots, deleted, eid)
        typed |= bit
        if kind != gr.ISTHMUS and not tree_mask & bit:
            deleted |= bit
            prefix += (LEFT,)
        else:
            if kind == gr.ISTHMUS:
                result |= bit
            prefix += (RIGHT,)
    return result


def forest_active(g, oracle, subgraph_mask):
    """Edges that are loops at their visit, with internal non-loops contracted.

    Nothing is ever deleted.  External edges and loops steer left, internal
    non-loops are contracted and steer right.  For a spanning forest the
    output is its set of cycle-closing active external edges.
    """
    _require_connected(g)
    ends = g._by_id
    roots = list(range(g.vertex_count))
    typed = 0
    prefix = ()
    result = 0
    for _ in range(g.edge_count()):
        eid = _visit(g, oracle, prefix, typed)
        bit = 1 << eid
        typed |= bit
        u, v = ends[eid]
        if roots[u] == roots[v]:
            result |= bit
            prefix += (LEFT,)
        elif subgraph_mask & bit:
            roots = _contract(g, roots, eid)
            prefix += (RIGHT,)
        else:
            prefix += (LEFT,)
    return result


def format_history(history, edge_name=str):
    """CLI dump: one `<edge_name> <type>` line per visit."""
    return "\n".join(f"{edge_name(eid)} {etype}" for eid, etype in history)
