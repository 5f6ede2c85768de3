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
node above a forced tail.  It branches only at standard edges, where
deletion and contraction both lead on; loops and isthmuses have one way
forward.  Its leaves are exactly the spanning trees, and the path to a leaf
is that tree's history.  Once every untyped edge of a branch is a loop or an
isthmus, the rest of its path types them L and I in any order, and the
walk reads the leaf off without asking.  Its queries are thus an
ancestor-closed subset of the nodes, asked in the same relative order as a
walk to the bottom would ask them, and each answer is still checked by
`_visit`; an oracle that is wrong only below a forced node is caught by
`run_history`, which asks every node of its path, and not by the walk.
`forest_walk` is its never-deleting twin: it branches at every non-loop, so
its leaves are the spanning forests.  Each comes with its active set: the
edges that are loops at their visit, once the forest edges visited before
them are contracted.

`layered_pass` is deletion/contraction in one visit order (the frontier
states of Haggard, Pearce and Royle): one layer of the walk's minors per
edge, equal minors merged, so its cost follows the distinct minors, not the
2^m branches.  `tutte_delcon` and the linear route of `tutte_delta` run it.

Types use the four tags Se (standard external), L (loop at visit), Si
(standard internal), I (isthmus at visit).  An edge typed L or I is active;
for spanning trees the type-I edges are exactly the internal active edges
and the type-L edges the external active ones.
"""

from __future__ import annotations

from math import comb

from . import graph as gr
from .decision import LEFT, RIGHT

TYPE_SE = "Se"
TYPE_L = "L"
TYPE_SI = "Si"
TYPE_I = "I"

DIRECTION_OF_TYPE = {TYPE_SE: LEFT, TYPE_L: LEFT, TYPE_SI: RIGHT, TYPE_I: RIGHT}

# The benchmark's widest layer holds 401 minors and K11's 115,974 (delcon,
# 19 s on a 2-core VM); a runaway order stops here, not at gigabytes.
LAYERED_MAX_MINORS = 2 ** 17


def _contract(g, roots, eid):
    """A new root list with the classes of an edge's ends merged.

    `roots` itself is left as it is: a walk keeps using it on the left
    branch.  Every root stays its own root, since the merged class takes
    the root of the other end.
    """
    u, v = g._by_id[eid]
    a, b = roots[u], roots[v]
    return [b if c == a else c for c in roots]


def _contract_counting(g, roots, eid, edges, typed):
    """`_contract`, and how many untyped edges the merge makes loops.

    The untyped edges are the (bit, u, v) triples of `edges` whose bit is
    not in `typed`; `eid` must not be one of them.
    """
    u, v = g._by_id[eid]
    a, b = roots[u], roots[v]
    looped = 0
    for fbit, p, q in edges:
        p, q = roots[p], roots[q]
        if ((p == a and q == b) or (p == b and q == a)) and not typed & fbit:
            looped += 1
    return _contract(g, roots, eid), looped


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


def run_history(g, oracle, subgraph_mask, *, delete_loops=False,
                contract_isthmuses=False):
    """Visit every edge once and return [(edge_id, type), ...] in visit order.

    Accepts any spanning subgraph, not only trees.  The two keyword flags
    toggle the optional removal of L-typed and I-typed edges from the minor;
    they never change the output, only the masks the pass carries.
    """
    gr.require_connected(g)
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
    node above a forced tail is asked for once and its edge must be usable,
    as in `run_history`.

    Each branch carries `slack`, the cyclomatic number of the minor's
    loopless part.  Deleting a standard edge lowers it by one; contracting
    one lowers it by the number of untyped edges that turn into loops; a
    typed loop or isthmus stays in the minor and leaves it as it is.  At
    zero every untyped edge is a loop or an isthmus, and typing one changes
    no other edge's kind, so the leaf is read off the roots without asking.
    """
    gr.require_connected(g)
    edges = [(1 << f, a, b) for f, a, b in g.edges]
    slack = sum(a != b for _, a, b in edges) - g.vertex_count + 1
    # (prefix, roots, contracted, deleted, internal, external, slack); the
    # typed edges are the union of the four masks.
    stack = [((), list(range(g.vertex_count)), 0, 0, 0, 0, slack)]
    while stack:
        (prefix, roots, contracted, deleted, internal, external,
         slack) = stack.pop()
        while slack:
            typed = contracted | deleted | internal | external
            eid = _visit(g, oracle, prefix, typed)
            bit = 1 << eid
            kind = edge_kind(g, roots, contracted | deleted, eid)
            if kind == gr.STANDARD:
                merged, looped = _contract_counting(g, roots, eid, edges,
                                                    typed | bit)
                stack.append((prefix + (RIGHT,), merged, contracted | bit,
                              deleted, internal, external, slack - looped))
                deleted |= bit
                prefix += (LEFT,)
                slack -= 1
            elif kind == gr.LOOP:
                external |= bit
                prefix += (LEFT,)
            else:  # isthmus
                internal |= bit
                prefix += (RIGHT,)
        typed = contracted | deleted | internal | external
        for bit, a, b in edges:
            if not typed & bit:
                if roots[a] == roots[b]:
                    external |= bit
                else:
                    internal |= bit
        yield contracted | internal, internal, external


def layered_pass(g, order):
    """Deletion/contraction in one visit order: {(isthmuses, loops): count}.

    `order` must be a permutation of g's edges.  The minors of layer k have
    all lost the first k edges, one `gone` mask.  A loop is only deleted and
    an isthmus only contracted, so a path to a leaf types its edges as
    `decision_walk` does under an oracle that asks `order` level by level:
    the tally is Tutte's linear-order activity sum.

    A minor is keyed by the classes of its frontier, the vertices touched by
    both a taken and a later edge, numbered by first appearance; any other
    vertex a later edge touches is still a class of its own.  Every minor
    stays connected, so equal keys merge and keep the first root list, whose
    other vertices no later edge reads.  A layer of more than
    LAYERED_MAX_MINORS minors is refused.

    A minor's tally of (isthmuses i, loops j) pairs is one packed int,
    sum c * 2^(w (i + n j)): a merge is `+`, an isthmus `<< w` and a loop
    `<< w n`.  A coefficient counts distinct spanning trees, so the binomial
    bound C(non-loop edges, n - 1) on the tree count sizes w.  A minor also
    carries the walk's `slack`; at zero its later edges are all loops and
    isthmuses (the forced tail), and its shifted tally joins `done`.
    """
    gr.require_connected(g)
    ends = g._by_id
    if sorted(order) != sorted(ends):
        bad = next((e for e in order if e not in ends), None)
        if bad is None:  # every id is g's, but some edge is missing
            raise ValueError("order must be a permutation of the edges")
        raise ValueError(f"oracle returned unusable edge {bad}")
    n = g.vertex_count
    nonloop = sum(u != v for _, u, v in g.edges)
    slack = nonloop - n + 1
    if not slack:  # a tree with loops
        return {(n - 1, len(order) - nonloop): 1}
    w = comb(nonloop, n - 1).bit_length() + 1
    last = [-1] * n  # the last layer that touches a vertex
    for k, eid in enumerate(order):
        u, v = ends[eid]
        last[u] = last[v] = k
    layer = {(): [list(range(n)), 1, slack]}
    frontier = []
    gone = done = 0
    for k, eid in enumerate(order):
        u, v = ends[eid]
        frontier = [x for x in dict.fromkeys(frontier + [u, v])
                    if last[x] > k]
        rest = len(order) - k - 1
        later = None
        nxt = {}
        for roots, tally, slack in layer.values():
            kind = edge_kind(g, roots, gone, eid)
            if kind == gr.LOOP:  # a loop is only deleted
                moves = ((roots, tally << w * n, slack),)
            elif kind == gr.ISTHMUS:  # an isthmus is only contracted
                moves = ((_contract(g, roots, eid), tally << w, slack),)
            else:
                if later is None:
                    later = [(1 << f, *ends[f]) for f in order[k + 1:]]
                merged, looped = _contract_counting(g, roots, eid, later, 0)
                moves = ((roots, tally, slack - 1),
                         (merged, tally, slack - looped))
            for child, part, left in moves:
                if not left:
                    isthmuses = len(set(child)) - 1
                    done += part << w * (isthmuses + n * (rest - isthmuses))
                    continue
                names = {}
                key = tuple([names.setdefault(child[x], len(names))
                             for x in frontier])
                into = nxt.get(key)
                if into is None:
                    nxt[key] = [child, part, left]
                else:
                    into[1] += part
        if len(nxt) > LAYERED_MAX_MINORS:
            raise ValueError(
                f"the layered pass is capped at {LAYERED_MAX_MINORS} minors "
                f"per layer; layer {k + 1} of {len(order)} has {len(nxt)}")
        gone |= 1 << eid
        layer = nxt
    mask = (1 << w) - 1
    tally = {}
    slot = 0
    while done:
        if done & mask:
            tally[slot % n, slot // n] = done & mask
        done >>= w
        slot += 1
    return tally


def forest_walk(g, oracle):
    """Yield (forest, active) for every spanning forest.

    Nothing is deleted: a loop at its visit is active and steers left, and
    every other edge branches, out of the forest (left) or contracted (right).
    Only loops are told apart, so the roots alone type an edge.
    """
    gr.require_connected(g)
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


def delta_ordering(g, oracle, subgraph_mask):
    """The visit order of the edges for the given subgraph."""
    return [eid for eid, _ in run_history(g, oracle, subgraph_mask)]


def delta_activity(g, oracle, tree_mask):
    """(internal_active, external_active) masks of a spanning tree.

    Internal actives are the type-I edges, external actives the type-L ones.
    """
    gr.require_spanning_tree(g, tree_mask)
    masks = type_masks(run_history(g, oracle, tree_mask))
    return masks[TYPE_I], masks[TYPE_L]


def internal_active_no_contract(g, oracle, tree_mask):
    """Internal active edges computed without ever contracting an edge.

    Walks the oracle like the typing pass but only deletes external
    non-isthmus edges; an edge joins the output when it is an isthmus of the
    current minor right after its step.
    """
    gr.require_spanning_tree(g, tree_mask)
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


def format_history(history, edge_name=str):
    """CLI dump: one `<edge_name> <type>` line per visit."""
    return "\n".join(f"{edge_name(eid)} {etype}" for eid, etype in history)
