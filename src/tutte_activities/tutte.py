"""Computations of the Tutte polynomial.

Every route returns an exact BivariatePoly.  The subgraph-sum definition and
the deletion/contraction recursion need no extra data; the remaining routes
take a decision oracle (or a ready-made activity) and sum monomials over
spanning trees, forests, connected subgraphs or all subgraphs.  Each route
tallies the exponents of its terms and expands the tally once.

Deletion/contraction and the activity route of a linear order are one
layered pass, `engine.layered_pass`, taking the edges in one visit order:
the pivot order of `_pivot_order` for `tutte_delcon`, the oracle's visit
order for `tutte_delta`.  Since the two routes share that code, the
references independent of it are `tutte_definitional`, the walks of the
random oracles, the tests' recursion on rebuilt minors and their frontier
subgraph sum, the matrix-tree count, T(2,2) = 2^m and networkx.

The oracle's subgraph sums read one walk of the decision tree.  The
subgraphs typed like the leaf (T, I, E) are those of [T - I, T + E]: each
types I as I, E as L, the rest of T as Si and every other edge as Se.  Summed
over such a class, the forest, connected and half-weight expansions each give
the leaf's activity monomial x^|I| y^|E|, so those three routes return the
activity route's polynomial.  What they rest on, that every subgraph of the
interval has that history, is checked against the typing pass by the
crosscheck harness.  The forest sums use base (x-1) on the component count;
the single-isthmus graph forces that choice (a bare x base would give x+1
instead of x).  The DFS route is the forest-activity route on the
marking-DFS oracle.
"""

from __future__ import annotations

from collections import Counter

from . import graph as gr
from .classic import DfsOracle
from .decision import LinearOrderOracle
from .engine import decision_walk, forest_walk, layered_pass
from .poly import BivariatePoly


DEFINITIONAL_MAX_EDGES = 24


def tutte_definitional(g) -> BivariatePoly:
    """Sum (x-1)^(cc(S)-cc(G)) (y-1)^cycl(S) over all spanning subgraphs.

    The 2^m subgraphs are the leaves of a depth-first search that takes or
    skips the edges in `g.edges` order.  A node carries the class of each
    vertex under the edges taken, the component count k and |S|: taking an
    edge whose ends lie in two classes merges them into a new list and
    lowers k, taking any other edge closes one cycle, and a leaf tallies
    (k - 1, cycl(S) = k + |S| - n).  The last edge is tallied both ways at
    its parent.  No two nodes are merged and no edge is told loop or
    isthmus, so this stays independent of every other route.

    Capped at DEFINITIONAL_MAX_EDGES edges, since the time doubles with
    every edge: on a 2-core Xeon VM grid 3x4 (m = 17) takes 0.06-0.16 s and
    the row-major grid 3x5 (m = 22) 3-5 s, so m = 24 takes 12-20 s there.
    """
    gr.require_connected(g)
    if g.edge_count() > DEFINITIONAL_MAX_EDGES:
        raise ValueError(
            f"definitional is capped at {DEFINITIONAL_MAX_EDGES} edges "
            "(it sums over all 2^m subgraphs); use delcon")
    if not g.edges:
        return BivariatePoly.one()
    n = g.vertex_count
    ends = [(u, v) for _, u, v in g.edges]
    *_, (lu, lv) = ends
    last = len(ends) - 1
    width = len(ends) + 1
    counts = [0] * ((n + 1) * width)  # slot k * width + |S|
    stack = [(0, list(range(n)), n, 0)]
    while stack:
        i, classes, k, size = stack.pop()
        while i < last:  # skip edge i here, push the branch taking it
            u, v = ends[i]
            a, b = classes[u], classes[v]
            i += 1
            if a != b:
                stack.append((i, [a if c == b else c for c in classes],
                              k - 1, size + 1))
            else:
                stack.append((i, classes, k, size + 1))
        slot = k * width + size
        counts[slot] += 1
        counts[slot + 1 - width if classes[lu] != classes[lv]
               else slot + 1] += 1
    tally = {(k - 1, k + size - n): counts[k * width + size]
             for k in range(1, n + 1) for size in range(width)
             if counts[k * width + size]}
    return BivariatePoly(tally).substitute_shift(-1, -1)


def tutte_delcon(g) -> BivariatePoly:
    """Deletion/contraction: `engine.layered_pass` in `_pivot_order`.

    `tutte_delta` runs the same pass for a linear order, so delcon and
    linear activity are one piece of code; the references independent of it
    are listed in the module docstring.
    """
    gr.require_connected(g)  # `_pivot_order` needs a connected graph
    order = [eid for eid, _, _ in _pivot_order(g)]
    return BivariatePoly(layered_pass(g, order))


def _pivot_order(g):
    """Edges by the BFS rank of their later, then earlier, endpoint.

    The ranks come from a breadth-first search started at the vertex that a
    first search, from vertex 0, reaches last; both visit neighbours by
    vertex id, and edge ids only order parallel edges.  So the order does
    not depend on the ids of non-parallel edges, and on a grid it starts at
    a corner rather than wherever vertex 0 happens to lie.  It does not
    promise narrow layers: their width depends on the vertex numbering.
    The wheel W40 with its vertex labels permuted (seeds 3 and 7) was
    refused at LAYERED_MAX_MINORS after 19.8 s and 47.5 s on a 2-core VM;
    ROADMAP item 3 is the fix.
    """
    adj = [set() for _ in range(g.vertex_count)]
    for _, u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)

    def bfs(start):
        order, seen = [start], {start}
        for w in order:
            fresh = sorted(adj[w] - seen)
            seen.update(fresh)
            order += fresh
        return order
    rank = {w: r for r, w in enumerate(bfs(bfs(0)[-1]))}

    def place(edge):
        eid, u, v = edge
        a, b = sorted((rank[u], rank[v]))
        return b, a, eid
    return sorted(g.edges, key=place)


def tutte_delta(g, oracle) -> BivariatePoly:
    """The activity route: one monomial per leaf of the decision-tree walk.

    A `LinearOrderOracle` asks the same edge at every node of a depth, so
    two nodes of one depth with equal minors have equal subtrees: its walk
    is `engine.layered_pass` in the oracle's visit order, the reverse of its
    linear order, which refuses an order that is not a permutation of g's
    edges as the walk would.  Every other oracle, a subclass of the linear
    one too, is walked by `engine.decision_walk`.
    """
    if type(oracle) is LinearOrderOracle:
        return BivariatePoly(layered_pass(g, oracle.order[::-1]))
    return BivariatePoly(Counter(
        (gr.popcount(internal), gr.popcount(external))
        for _, internal, external in decision_walk(g, oracle)))


def tutte_forest(g, oracle) -> BivariatePoly:
    """Sum (x-1)^(cc(F)-1) y^(#type-L edges) over spanning forests.

    The forests of the leaf (T, I, E) are T - D for D within I, with
    1 + |D| components and type-L set E: by the binomial theorem the class
    sums to x^|I| y^|E|.
    """
    return tutte_delta(g, oracle)


def tutte_connected(g, oracle) -> BivariatePoly:
    """Sum x^(#type-I edges) (y-1)^cycl(K) over connected subgraphs.

    The connected subgraphs of the leaf (T, I, E) are T + A for A within E,
    with cyclomatic number |A| and type-I set I: the class sums to
    x^|I| y^|E|.
    """
    return tutte_delta(g, oracle)


def tutte_half(g, oracle) -> BivariatePoly:
    """Sum (x/2)^(#type-I) (y/2)^(#type-L) over all spanning subgraphs.

    The leaf (T, I, E) holds 2^(|I|+|E|) subgraphs, each of weight
    (x/2)^|I| (y/2)^|E|: the class sums to x^|I| y^|E|.
    """
    return tutte_delta(g, oracle)


def tutte_forest_activity(g, oracle) -> BivariatePoly:
    """Sum (x-1)^(cc(F)-1) y^|active(F)| over the leaves of the forest walk."""
    return BivariatePoly(Counter(
        (g.vertex_count - 1 - gr.popcount(f), gr.popcount(active))
        for f, active in forest_walk(g, oracle))).substitute_shift(-1, 0)


def tutte_dfs(g) -> BivariatePoly:
    """Sum (x-1)^(cc(F)-1) y^|DFS-active(F)| over the DFS oracle's forests."""
    return tutte_forest_activity(g, DfsOracle(g))
