"""Computations of the Tutte polynomial.

Every route returns an exact BivariatePoly.  The subgraph-sum definition and
the deletion/contraction recursion need no extra data; the remaining routes
take a decision oracle (or a ready-made activity) and sum monomials over
spanning trees, forests, connected subgraphs or all subgraphs.  Each route
tallies the exponents of its terms and expands the tally once.

Deletion/contraction and the activity route of a linear order are one
layered pass (`_layered_pass`), taking the edges in one visit order: the
pivot order of `_pivot_order` for `tutte_delcon`, the oracle's visit order
for `tutte_delta`.  It runs one layer of minors per edge and merges equal
minors, so its cost follows the number of distinct minors rather than the
2^m branches.  It holds its minors as the typing pass does, as root lists
stepped by `engine.edge_kind` and `engine._contract`.  A minor's tally is
one packed int, w bits a coefficient, where 2^(w-1) exceeds the binomial
bound C(non-loop edges, n - 1) on the spanning-tree count; and a minor whose
later edges are all loops and isthmuses (the forced tail) leaves the layer
at once.  Since the two routes share this code, the references independent
of it are `tutte_definitional`, the walks of the random oracles, the tests'
recursion on rebuilt minors and their frontier subgraph sum, the
matrix-tree count, T(2,2) = 2^m and networkx.

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
from math import comb

from . import graph as gr
from .classic import order_map_oracle
from .decision import LinearOrderOracle
from .engine import _contract, decision_walk, edge_kind, forest_walk
from .poly import BivariatePoly


DEFINITIONAL_MAX_EDGES = 24


def tutte_definitional(g) -> BivariatePoly:
    """Sum (x-1)^(cc(S)-cc(G)) (y-1)^cycl(S) over all spanning subgraphs.

    Capped at DEFINITIONAL_MAX_EDGES edges, since the time doubles with
    every edge: grid 3x4 (m = 17) takes 0.9 s on a 2-core Xeon VM, so
    m = 24 takes about two minutes there.
    """
    gr.require_connected(g)
    if g.edge_count() > DEFINITIONAL_MAX_EDGES:
        raise ValueError(
            f"definitional is capped at {DEFINITIONAL_MAX_EDGES} edges "
            "(it sums over all 2^m subgraphs); use delcon")
    tally = Counter()
    for s in gr.submasks(g.full_edge_set()):
        k = gr.cc(g, s)  # cycl(S) = cc(S) + |S| - |V|
        tally[k - 1, k + gr.popcount(s) - g.vertex_count] += 1
    return BivariatePoly(tally).substitute_shift(-1, -1)


def tutte_delcon(g) -> BivariatePoly:
    """Deletion/contraction: `_layered_pass` in the order of `_pivot_order`.

    The pass merges equal minors layer by layer, packs each minor's tally
    into one int whose slots the binomial bound on the tree count sizes, and
    lets a minor whose later edges are all loops and isthmuses (a forced
    tail) leave at once.  `tutte_delta` runs the same pass for a linear
    order, so delcon and linear activity are one piece of code.  The
    references independent of it are `tutte_definitional` (through
    `graph.class_roots`), the random oracles' walks (`engine.decision_walk`),
    the tests' recursion on rebuilt `Graph` minors (through
    `graph.classify_edge`) and their frontier subgraph sum (no loop or
    isthmus test at all), the matrix-tree count, T(2,2) = 2^m and networkx.
    """
    gr.require_connected(g)
    return _layered_pass(g, [eid for eid, _, _ in _pivot_order(g)])


def _layered_pass(g, order) -> BivariatePoly:
    """Deletion/contraction of a connected g, taking its edges in `order`.

    The minors of layer k have all lost the same first k edges, one `gone`
    mask.  A minor is held like the typing pass's: a root list of its
    contracted classes, stepped by `engine.edge_kind` and `engine._contract`.
    A loop is only deleted and an isthmus only contracted, so a path to a
    leaf types its edges as the decision walk does with a level-constant
    oracle, and the pass is Tutte's linear-order activity sum.

    A minor is keyed by the classes of its frontier, the vertices touched by
    both a taken and a later edge, numbered by first appearance; any other
    vertex a later edge touches is still a class of its own.  Every minor
    stays connected, so its key alone fixes the rest of the sum: equal keys
    merge and keep the first root list, whose other vertices no later edge
    reads.

    A minor's tally of (isthmuses i, loops j) pairs is one packed int,
    sum c * 2^(w (i + n j)): a merge is `+`, an isthmus `<< w` and a loop
    `<< w n`.  Each coefficient counts deletion/contraction paths, which
    end in distinct spanning trees, so it is at most the binomial bound on
    the tree count, C(non-loop edges, n - 1), and w bits hold it.

    A minor also carries `slack`, the cyclomatic number of its loopless
    part, updated as in `engine.decision_walk`: deleting a standard edge
    lowers it by one, contracting one by the later edges that turn into
    loops.  At zero every later edge is a loop or an isthmus, so the minor
    leaves the layer: its tally, shifted by those counts, joins `done`.
    """
    n = g.vertex_count
    ends = g._by_id
    nonloop = sum(u != v for _, u, v in g.edges)
    slack = nonloop - n + 1
    if not slack:  # a tree with loops
        return BivariatePoly({(n - 1, len(order) - nonloop): 1})
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
                    later = [ends[f] for f in order[k + 1:]]
                a, b = roots[u], roots[v]
                looped = 0
                for p, q in later:
                    p, q = roots[p], roots[q]
                    if (p == a and q == b) or (p == b and q == a):
                        looped += 1
                moves = ((roots, tally, slack - 1),
                         (_contract(g, roots, eid), tally, slack - looped))
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
    return BivariatePoly(tally)


def _pivot_order(g):
    """Edges by the BFS rank of their later, then earlier, endpoint.

    The ranks come from a breadth-first search started at the vertex that a
    first search, from vertex 0, reaches last; both visit neighbours by
    vertex id, and edge ids only break ties.  Starting at the far end keeps
    the layers narrow whatever the ids are: on a grid it starts at a corner
    rather than wherever vertex 0 happens to lie.
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


def tutte_activity(g, activity) -> BivariatePoly:
    """Sum x^|internal active| y^|external active| over spanning trees.

    `activity` maps a spanning-tree mask to the (internal, external) pair.
    """
    tally = Counter()
    for t in gr.spanning_trees(g):
        internal, external = activity(t)
        tally[gr.popcount(internal), gr.popcount(external)] += 1
    return BivariatePoly(tally)


def tutte_delta(g, oracle) -> BivariatePoly:
    """The activity route: one monomial per leaf of the decision-tree walk.

    A `LinearOrderOracle` asks the same edge at every node of a depth, so
    two nodes of one depth with equal minors have equal subtrees: its walk
    is `_layered_pass` in the oracle's visit order, the reverse of its
    linear order, the pass `tutte_delcon` runs in its own order (packed
    tallies, forced tails; see there for the independent references).  An
    order that is not a permutation of g's edges is refused as the walk
    would refuse it.  Every other oracle, a subclass of the linear one too,
    is walked by `engine.decision_walk`.
    """
    gr.require_connected(g)
    if type(oracle) is LinearOrderOracle:
        visit = oracle.order[::-1]
        if sorted(visit) != sorted(g._by_id):
            bad = next((e for e in visit if e not in g._by_id), None)
            if bad is None:  # every id is g's, but some edge is missing
                raise ValueError("order must be a permutation of the edges")
            raise ValueError(f"oracle returned unusable edge {bad}")
        return _layered_pass(g, visit)
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
    return tutte_forest_activity(g, order_map_oracle("dfs", g))
