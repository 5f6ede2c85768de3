"""Edge typing driven by a decision oracle: histories, walks, activities.

A minor of the input graph G is held as two bitmasks over G's edge ids,
`contracted` and `deleted`; every other edge survives.  No graph is built
along the way: `MaskMinor.classify` types a surviving edge with one
union-find pass over G's vertices.  The edge is a loop of the minor when its
endpoints meet through the contracted edges alone, and an isthmus when they
do not meet through every surviving edge except itself.

The typing pass visits the edges in the order dictated by the oracle.  The
visited edge is classified in the current minor H: a standard external edge
is deleted (go left), a standard internal edge is contracted (go right), a
loop gets type L (left) and an isthmus type I (right).  The two flags of
`run_history` keep their meaning: `delete_loops` also deletes the typed-L
edges and `contract_isthmuses` also contracts the typed-I ones.  All four
flag settings produce the same types.

`decision_walk` walks the decision tree itself, querying the oracle once per
node.  It branches only at standard edges, where deletion and contraction
both lead on; loops and isthmuses have one way forward.  Its leaves are
exactly the spanning trees, and the path to a leaf is that tree's history.

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


class MaskMinor:
    """The minors of one graph, each given as (contracted, deleted) masks."""

    __slots__ = ("vertex_count", "ends", "edges")

    def __init__(self, g):
        # g's own endpoint map and edge tuple, shared rather than copied.  A
        # per-edge copy for every history raised the peak memory of the
        # subgraph routes by about 1 MB over the desk corpus.
        self.vertex_count = g.vertex_count
        self.ends = g._by_id
        self.edges = g.edges

    def classify(self, contracted, deleted, eid):
        """Loop, Isthmus or Standard: the kind of a surviving edge."""
        ends = self.ends
        u, v = ends[eid]
        if u == v:
            return gr.LOOP
        parent = list(range(self.vertex_count))
        if contracted:
            rest = contracted
            while rest:
                low = rest & -rest
                rest ^= low
                a, b = ends[low.bit_length() - 1]
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                parent[a] = b
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                return gr.LOOP
        surviving = ~(contracted | deleted | (1 << eid))
        for f, a, b in self.edges:
            if (surviving >> f) & 1:
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                parent[a] = b
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        return gr.STANDARD if u == v else gr.ISTHMUS

    def visit(self, oracle, prefix, typed, contracted, deleted):
        """One step: the oracle's next edge, its bit and its kind."""
        eid = oracle.next_edge(prefix)
        if eid not in self.ends or (typed >> eid) & 1:
            raise ValueError(f"oracle returned unusable edge {eid}")
        return eid, 1 << eid, self.classify(contracted, deleted, eid)


def _connected_minor(g):
    if not gr.is_connected(g):
        raise ValueError("graph must be connected")
    return MaskMinor(g)


def run_history(g, oracle, subgraph_mask, *, delete_loops=False,
                contract_isthmuses=False):
    """Visit every edge once and return [(edge_id, type), ...] in visit order.

    Accepts any spanning subgraph, not only trees.  The two keyword flags
    toggle the optional removal of L-typed and I-typed edges from the minor;
    they never change the output, only the masks the pass carries.
    """
    minor = _connected_minor(g)
    contracted = deleted = typed = 0
    prefix = ()
    history = []
    for _ in range(g.edge_count()):
        eid, bit, kind = minor.visit(oracle, prefix, typed, contracted, deleted)
        typed |= bit
        if kind == gr.STANDARD:
            if subgraph_mask & bit:
                contracted |= bit
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
    minor = _connected_minor(g)
    m = g.edge_count()
    # (prefix, contracted, deleted, internal, external); the typed edges are
    # the union of the four masks.
    stack = [((), 0, 0, 0, 0)]
    while stack:
        prefix, contracted, deleted, internal, external = stack.pop()
        while len(prefix) < m:
            typed = contracted | deleted | internal | external
            eid, bit, kind = minor.visit(oracle, prefix, typed, contracted,
                                         deleted)
            if kind == gr.STANDARD:
                stack.append((prefix + (RIGHT,), contracted | bit, deleted,
                              internal, external))
                deleted |= bit
                prefix += (LEFT,)
            elif kind == gr.LOOP:
                external |= bit
                prefix += (LEFT,)
            else:  # isthmus
                internal |= bit
                prefix += (RIGHT,)
        yield contracted | internal, internal, external


def types_by_edge(history):
    """Dict edge_id -> type from a history."""
    return dict(history)


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
    minor = MaskMinor(g)
    deleted = typed = 0
    prefix = ()
    result = 0
    for _ in range(g.edge_count()):
        eid, bit, kind = minor.visit(oracle, prefix, typed, 0, deleted)
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
    minor = _connected_minor(g)
    contracted = typed = 0
    prefix = ()
    result = 0
    for _ in range(g.edge_count()):
        eid, bit, kind = minor.visit(oracle, prefix, typed, contracted, 0)
        typed |= bit
        if kind == gr.LOOP:
            result |= bit
            prefix += (LEFT,)
        elif subgraph_mask & bit:
            contracted |= bit
            prefix += (RIGHT,)
        else:
            prefix += (LEFT,)
    return result


def format_history(history, edge_name=str):
    """CLI dump: one `<edge_name> <type>` line per visit."""
    return "\n".join(f"{edge_name(eid)} {etype}" for eid, etype in history)
