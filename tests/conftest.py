import pathlib
import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from tutte_activities import graph as gr
from tutte_activities import load_decision_tree, load_graph, load_map
from tutte_activities.classic import prune_run
from tutte_activities.comb_map import CombMap
from tutte_activities.decision import LEFT, RIGHT
from tutte_activities.engine import _contract, _visit
from tutte_activities.harness import _canonical, desk_corpus
from tutte_activities.poly import BivariatePoly

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def graph_path(name):
    return FIXTURES / "graphs" / f"{name}.graph"


def map_path(name):
    return FIXTURES / "maps" / f"{name}.map"


def fixture_graph(name):
    return load_graph(graph_path(name))


def fixture_map(name):
    return load_map(map_path(name))


LETTERS = "abcdefghij"


def mask_of(letters):
    """Edge mask from letter names, letters mapping to ids a=0, b=1, ..."""
    return gr.edge_set(LETTERS.index(c) for c in letters)


def letters_of(mask):
    return "".join(sorted(LETTERS[i] for i in gr.edge_ids(mask)))


def edge_mask(m, names):
    return gr.edge_set(m.edge_id_by_name(n) for n in names)


def descending_submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def kirchhoff_count(g):
    """Independent spanning-tree count: determinant of a reduced Laplacian.

    Exact rational Gaussian elimination; loops do not enter the Laplacian.
    """
    n = g.vertex_count
    if n == 1:
        return 1
    lap = [[Fraction(0)] * n for _ in range(n)]
    for _, u, v in g.edges:
        if u != v:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
    mat = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    size = n - 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] / mat[col][col]
            for c in range(col, size):
                mat[r][c] -= factor * mat[col][c]
    assert det.denominator == 1
    return int(det)


def grid(rows, cols):
    """The rows x cols grid graph, vertices row by row, ids 0..m-1."""
    ends = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    ends += [(v, v + cols) for v in range((rows - 1) * cols)]
    return gr.Graph(rows * cols, [(i, u, v) for i, (u, v) in enumerate(ends)])


def complete(n):
    """The complete graph on n vertices, ids 0..m-1."""
    return gr.Graph(n, [(i, u, v) for i, (u, v)
                        in enumerate(combinations(range(n), 2))])


def permuted(g, seed):
    """The graph with its vertex ids and edge ids shuffled by `seed`."""
    rng = random.Random(seed)
    vertices = list(range(g.vertex_count))
    rng.shuffle(vertices)
    ids = list(g.edge_ids)
    rng.shuffle(ids)
    return gr.Graph(g.vertex_count, [(i, vertices[u], vertices[v])
                                     for i, (_, u, v) in zip(ids, g.edges)])


def moved_ids(g, rng):
    """Each edge id of g mapped to a distinct id in m..4m-1 drawn by `rng`.

    `permuted` only shuffles ids within 0..m-1; every minor has ids like
    these.
    """
    m = g.edge_count()
    return dict(zip(g.edge_ids, rng.sample(range(m, 4 * m), m)))


def renamed(g, new):
    """g with each edge id e renamed to new[e]."""
    return gr.Graph(g.vertex_count, [(new[e], u, v) for e, u, v in g.edges])


def seeded_rotation(g, rng):
    """A map of g with a seeded rotation at every vertex and a seeded root."""
    around = defaultdict(list)
    for k, (_, u, v) in enumerate(g.edges):
        around[u].append(2 * k)
        around[v].append(2 * k + 1)
    sigma = [0] * (2 * g.edge_count())
    for hs in around.values():
        rng.shuffle(hs)
        for i, h in enumerate(hs):
            sigma[h] = hs[(i + 1) % len(hs)]
    return CombMap(sigma, [h ^ 1 for h in range(len(sigma))],
                   rng.randrange(len(sigma)))


def brute_canonical_form(g):
    """The reference for `harness.canonical_form`: every vertex permutation.

    The least over all n! relabellings of the sorted (min, max) edge list.
    """
    n = g.vertex_count
    best = None
    for perm in permutations(range(n)):
        key = tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v]))
            for _, u, v in g.edges))
        if best is None or key < best:
            best = key
    return (n, best)


def _connects(n, pairs):
    """Whether the end pairs join all n vertices into one component."""
    roots = list(range(n))
    parts = n
    for u, v in pairs:
        while roots[u] != u:
            u = roots[u]
        while roots[v] != v:
            v = roots[v]
        if u != v:
            roots[u] = v
            parts -= 1
    return parts == 1


def reference_connected_multigraphs(max_edges, max_vertices=None):
    """The reference for `harness.connected_multigraphs`: every combination.

    Each connected combination of slots is canonicalized, and the first
    graph met with each form is kept.
    """
    found = {}  # (n, m, canonical form) -> first graph with that form
    for m in range(1, max_edges + 1):
        n_cap = m + 1 if max_vertices is None else min(m + 1, max_vertices)
        for n in range(1, n_cap + 1):
            slots = [(u, v) for u in range(n) for v in range(u, n)]
            for combo in combinations_with_replacement(slots, m):
                if not _connects(n, combo):
                    continue
                key = (n, m, _canonical(n, combo))
                if key not in found:
                    found[key] = gr.Graph(n, [(i, u, v) for i, (u, v)
                                              in enumerate(combo)])
    return [found[key] for key in sorted(found)]


def reference_connected_simple_graphs(n_vertices, max_edges):
    """The reference for `harness.connected_simple_graphs`, made alike."""
    pairs = list(combinations(range(n_vertices), 2))
    out = []
    seen = set()
    for m in range(n_vertices - 1, min(len(pairs), max_edges) + 1):
        for combo in combinations(pairs, m):
            if not _connects(n_vertices, combo):
                continue
            key = _canonical(n_vertices, combo)
            if key not in seen:
                seen.add(key)
                out.append(gr.Graph(n_vertices, [(i, u, v) for i, (u, v)
                                                 in enumerate(combo)]))
    return out


# -- test-side references ---------------------------------------------------
#
# Each one computes by itself what the library reaches another way, so the
# tests that compare the two check the library independently.


def delete(g, eid):
    """The rebuilt minor g - e: the edge removed, both endpoints kept."""
    g.endpoints(eid)
    return gr.Graph(g.vertex_count, [e for e in g.edges if e[0] != eid])


def contract(g, eid):
    """The rebuilt minor g / e: a non-loop's ends merged into the smaller id.

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
    return gr.Graph(g.vertex_count - 1, edges)


def fundamental_cycle(g, tree_mask, eid):
    """Unique cycle in tree + e, for an external edge e (a loop yields {e}).

    The reference for the root-path cycles of `engine.extreme_rule`.  Cycles
    and cocycles are transposes: a tree edge t lies on the cycle of e exactly
    when e crosses the cocycle of t.
    """
    if (tree_mask >> eid) & 1:
        raise ValueError(f"edge {eid} is internal; it has no fundamental cycle")
    u, v = g.endpoints(eid)
    roots = gr.class_roots(g, tree_mask)
    if roots[u] != roots[v]:
        raise ValueError("endpoints not connected in the given tree")
    mask = 1 << eid
    for tid in gr.edge_ids(tree_mask & g.full_edge_set()):
        if (fundamental_cocycle(g, tree_mask, tid) >> eid) & 1:
            mask |= 1 << tid
    return mask


def fundamental_cocycle(g, tree_mask, eid):
    """Edges crossing the split of the tree at internal edge e (contains e)."""
    if not ((tree_mask >> eid) & 1):
        raise ValueError(f"edge {eid} is external; it has no fundamental cocycle")
    u, v = g.endpoints(eid)
    if u == v:
        raise ValueError("a loop cannot belong to a spanning tree")
    roots = gr.class_roots(g, tree_mask & ~(1 << eid))
    side = roots[u]  # u's side of tree - e
    mask = 0
    for fid, a, b in g.edges:
        if (roots[a] == side) != (roots[b] == side):
            mask |= 1 << fid
    return mask


def forest_active(g, oracle, subgraph_mask):
    """Edges that are loops at their visit, with internal non-loops contracted.

    The one-subgraph reference for `engine.forest_walk`.  Nothing is ever
    deleted.  External edges and loops steer left, internal non-loops are
    contracted and steer right.  For a spanning forest the output is its set
    of cycle-closing active external edges.
    """
    gr.require_connected(g)
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


def blossoming_subtree_charge(m, tree_mask, eid):
    """Net charge of the subtree hanging below an internal edge.

    Charges are laid down by the pruning walk of the tree; the subtree is
    the component of tree - e not containing the root vertex.  A charge of
    0 or 1 is implied by blossoming activity on any map, and equivalent to
    it only on planar maps.
    """
    g = m.underlying_graph()
    gr.require_spanning_tree(g, tree_mask)
    if not ((tree_mask >> eid) & 1):
        raise ValueError("edge is not internal")
    run = prune_run(m, tree_mask)
    root_vertex = m.vertex_of()[m.root]
    roots = gr.class_roots(g, tree_mask & ~(1 << eid))
    root_side = roots[root_vertex]
    return sum(c for v, c in run.charges.items() if roots[v] != root_side)


def tutte_activity(g, activity):
    """Sum x^|internal active| y^|external active| over spanning trees.

    `activity` maps a spanning-tree mask to the (internal, external) pair.
    """
    tally = Counter()
    for t in gr.spanning_trees(g):
        internal, external = activity(t)
        tally[gr.popcount(internal), gr.popcount(external)] += 1
    return BivariatePoly(tally)


def is_partition_of_lattice(intervals, m):
    """Whether the intervals tile all 2^m subgraphs without overlap."""
    seen = set()
    for interval in intervals:
        for member in interval.members():
            if member in seen:
                return False
            seen.add(member)
    return len(seen) == 1 << m


@pytest.fixture(scope="session")
def corpus():
    """The desk corpus, built once for the whole run."""
    return desk_corpus()


@pytest.fixture(scope="session")
def g4():
    return fixture_graph("parallel_triangle")


@pytest.fixture(scope="session")
def d4(g4):
    return load_decision_tree(
        FIXTURES / "trees" / "parallel_triangle.tree", g4.edge_ids)


@pytest.fixture(scope="session")
def order_map_table_g4():
    """The worked order-map table of the parallel triangle."""
    return {
        mask_of("ab"): (2, 1, 0, 3),
        mask_of("ac"): (2, 3, 1, 0),
        mask_of("bc"): (2, 3, 1, 0),
        mask_of("bd"): (2, 1, 0, 3),
        mask_of("cd"): (2, 3, 0, 1),
    }


@pytest.fixture(scope="session")
def embedding_map():
    return fixture_map("parallel_triangle")


@pytest.fixture(scope="session")
def pruning_map():
    return fixture_map("pruning_planar")
