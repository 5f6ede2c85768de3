import gc
import random
import weakref
from collections import Counter

import pytest

from tutte_activities import graph as gr
from tutte_activities.classic import embedding_active, ordering_active
from tutte_activities.decision import (LinearOrderOracle, from_linear_order,
                                      random_oracle)
from tutte_activities.engine import (decision_walk, delta_activity,
                                     forest_walk, run_history, type_masks)
from tutte_activities.harness import connected_multigraphs
from tutte_activities.poly import BivariatePoly, x_minus_1_pow, y_minus_1_pow
from tutte_activities.tutte import (DEFINITIONAL_MAX_EDGES,
                                    tutte_connected, tutte_definitional, tutte_delcon,
                                    tutte_delta, tutte_dfs, tutte_forest,
                                    tutte_forest_activity, tutte_half,
                                    _pivot_order)
from conftest import (complete, contract, delete, fixture_graph, grid,
                      kirchhoff_count, moved_ids, permuted, renamed,
                      tutte_activity)

GOLDEN_G4 = "x^2 + x*y + x + y^2 + y"


def test_definitional_goldens(g4):
    assert str(tutte_definitional(g4)) == GOLDEN_G4
    assert str(tutte_definitional(fixture_graph("single_isthmus"))) == "x"
    assert str(tutte_definitional(fixture_graph("single_loop"))) == "y"
    assert str(tutte_definitional(fixture_graph("triangle"))) == "x^2 + x + y"


def test_definitional_rejects_disconnected():
    with pytest.raises(ValueError):
        tutte_definitional(gr.Graph(3, [(0, 0, 1)]))


def test_definitional_is_capped_and_names_delcon():
    path = gr.Graph(DEFINITIONAL_MAX_EDGES + 2,
                    [(i, i, i + 1) for i in range(DEFINITIONAL_MAX_EDGES + 1)])
    with pytest.raises(ValueError, match=r"capped at 24 edges.*use delcon"):
        tutte_definitional(path)


def test_delcon_goldens(g4):
    assert str(tutte_delcon(g4)) == GOLDEN_G4
    assert str(tutte_delcon(fixture_graph("two_loop_bouquet"))) == "y^2"
    assert str(tutte_delcon(fixture_graph("two_parallel"))) == "x + y"


def _delcon_reference(g):
    """Deletion/contraction on rebuilt minors, pivoting on the smallest id."""
    tally = Counter()

    def rec(h, isthmuses, loops):
        if h.edge_count() == 0:
            tally[isthmuses, loops] += 1
            return
        eid = h.edges[0][0]
        kind = gr.classify_edge(h, eid)
        if kind != gr.ISTHMUS:  # a loop is only deleted
            rec(delete(h, eid), isthmuses, loops + (kind == gr.LOOP))
        if kind != gr.LOOP:  # an isthmus only contracted
            rec(contract(h, eid), isthmuses + (kind == gr.ISTHMUS), loops)

    rec(g, 0, 0)
    return BivariatePoly(tally)


def _frontier_subgraph_sum(g, order):
    """Sum (x-1)^(r(E)-r(A)) (y-1)^(|A|-r(A)) over edge sets A, merged.

    The edges are taken in `order`; after k of them a state is the
    partition of the frontier (vertices touched by both a taken and a later
    edge) by the components of A, classes numbered by first appearance.
    Each state tallies the (rank, |A|) pairs reaching it, packed into one
    int, slot rank + n |A|, m + 1 bits a slot: at most 2^m sets share one.
    Taking an edge raises the rank only when its ends lie in different
    classes.  No minor is kept and no edge is told loop or isthmus.
    """
    n, m = g.vertex_count, g.edge_count()
    last = [-1] * n
    for k, eid in enumerate(order):
        u, v = g.endpoints(eid)
        last[u] = last[v] = k
    width = m + 1
    layer = {(): 1}
    frontier = []
    for k, eid in enumerate(order):
        u, v = g.endpoints(eid)
        grown = frontier + [w for w in dict.fromkeys((u, v))
                            if w not in frontier]
        keep = [i for i, w in enumerate(grown) if last[w] > k]
        iu, iv = grown.index(u), grown.index(v)
        nxt = {}
        for classes, tally in layer.items():
            classes += tuple(range(len(classes), len(grown)))  # new singletons
            a, b = classes[iu], classes[iv]
            if a == b:
                taken = (classes, tally << width * n)
            else:
                taken = (tuple(a if c == b else c for c in classes),
                         tally << width * (n + 1))
            for part, t in ((classes, tally), taken):
                names = {}
                key = tuple(names.setdefault(part[i], len(names)) for i in keep)
                nxt[key] = nxt.get(key, 0) + t
        frontier = [grown[i] for i in keep]
        layer = nxt
    (packed,) = layer.values()
    tally = {}
    slot = 0
    while packed:
        count = packed & ((1 << width) - 1)
        if count:
            rank, size = slot % n, slot // n
            tally[n - 1 - rank, size - rank] = count
        packed >>= width
        slot += 1
    return BivariatePoly(tally).substitute_shift(-1, -1)


def _random_multigraph(rng):
    """A connected multigraph with loops, n <= 9, 25 <= m <= 60, sparse ids."""
    n, m = rng.randint(5, 9), rng.randint(25, 60)
    ids = rng.sample(range(4 * m), m)
    while True:
        g = gr.Graph(n, [(ids[i], rng.randrange(n), rng.randrange(n))
                         for i in range(m)])
        if gr.is_connected(g):
            return g


def test_frontier_subgraph_sum_past_the_definitional_cap():
    # delcon and the linear route are one pass; this reference shares only
    # the pivot order with it.  The linear oracle visits its order
    # backwards, so it gets the reversed pivot order.
    rng = random.Random(5)
    graphs = [permuted(grid(5, 5), 1), permuted(grid(6, 6), 2)]
    graphs += [_random_multigraph(rng) for _ in range(10)]
    for g in graphs:
        assert g.edge_count() > DEFINITIONAL_MAX_EDGES
        order = [eid for eid, _, _ in _pivot_order(g)]
        reference = _frontier_subgraph_sum(g, order)
        assert tutte_delcon(g) == reference, g
        assert tutte_delta(g, from_linear_order(order[::-1])) == reference, g


def _deep_multigraphs():
    """Seeded multigraphs of 16-18 edges: one with loops, one with parallel
    edges (17 edges on 5 vertices, no loops), one with ids in m..4m-1."""
    rng = random.Random(24)

    def connected(n, m, ends):
        while True:
            g = gr.Graph(n, [(i, *ends(n)) for i in range(m)])
            if gr.is_connected(g):
                return g

    def any_ends(n):
        return rng.randrange(n), rng.randrange(n)

    with_loops = connected(6, 16, any_ends)
    assert any(u == v for _, u, v in with_loops.edges)
    parallel = connected(5, 17, lambda n: rng.sample(range(n), 2))
    sparse = connected(8, 18, any_ends)
    return [with_loops, parallel, renamed(sparse, moved_ids(sparse, rng))]


def test_frontier_subgraph_sum_on_small_graphs(g4):
    assert str(_frontier_subgraph_sum(g4, [3, 0, 2, 1])) == GOLDEN_G4
    for g in connected_multigraphs(4) + _deep_multigraphs():
        assert _frontier_subgraph_sum(g, g.edge_ids) == tutte_definitional(g)


def _walk_leaf_sum(g, oracle):
    return BivariatePoly(Counter((gr.popcount(internal), gr.popcount(external))
                                 for _, internal, external
                                 in decision_walk(g, oracle)))


def test_linear_route_is_the_walks_leaf_sum(corpus):
    rng = random.Random(3)
    graphs = corpus + connected_multigraphs(4)
    for g in graphs + [renamed(g, moved_ids(g, rng)) for g in graphs]:
        ids = list(g.edge_ids)
        orders = [ids, ids[::-1]]
        for seed in range(3):
            orders.append(random.Random(seed).sample(ids, len(ids)))
        for order in orders:
            oracle = from_linear_order(order)
            assert tutte_delta(g, oracle) == _walk_leaf_sum(g, oracle), \
                (g, order)


def test_linear_route_rejects_an_order_that_is_not_the_edges():
    triangle = gr.Graph(3, [(0, 0, 1), (1, 1, 2), (2, 2, 0)])
    path = gr.Graph(4, [(0, 0, 1), (1, 1, 2), (2, 2, 3)])
    for g in (triangle, path):  # the path's walk would ask nothing
        with pytest.raises(ValueError, match="unusable edge 9"):
            tutte_delta(g, from_linear_order([0, 1, 9]))
        with pytest.raises(ValueError, match="permutation"):
            tutte_delta(g, from_linear_order([0, 1]))


def test_a_linear_oracle_subclass_is_walked(g4):
    class Recording(LinearOrderOracle):
        def next_edge(self, prefix, used=None):
            self.asked.append(tuple(prefix))
            return super().next_edge(prefix, used)

    oracle = Recording([0, 1, 2, 3])
    oracle.asked = []
    assert str(tutte_delta(g4, oracle)) == GOLDEN_G4
    assert oracle.asked[0] == ()
    assert len(oracle.asked) == len(set(oracle.asked)) > 1


def test_every_route_refuses_a_disconnected_graph():
    g = gr.Graph(3, [(0, 0, 1), (1, 2, 2)])
    linear = from_linear_order([0, 1])
    calls = [lambda: tutte_definitional(g), lambda: tutte_delcon(g),
             lambda: tutte_dfs(g), lambda: run_history(g, linear, 0),
             lambda: list(decision_walk(g, linear)),
             lambda: list(forest_walk(g, linear))]
    for oracle in (linear, random_oracle(g, 0)):
        for route in (tutte_delta, tutte_forest, tutte_connected, tutte_half,
                      tutte_forest_activity):
            calls.append(lambda route=route, oracle=oracle: route(g, oracle))
    for _ in range(2):  # the second time from the kept answer
        for call in calls:
            with pytest.raises(ValueError, match="graph must be connected"):
                call()


def test_delcon_equals_the_rebuilt_minor_recursion(corpus):
    rng = random.Random(1)
    for seed, g in enumerate(corpus):
        h = permuted(g, seed)
        assert tutte_delcon(h) == _delcon_reference(h), h
        moved = renamed(g, moved_ids(g, rng))
        assert tutte_delcon(moved) == _delcon_reference(moved), moved
    for g in connected_multigraphs(4):
        assert tutte_delcon(g) == _delcon_reference(g), g


@pytest.mark.parametrize("g", [grid(5, 5), complete(8)],
                         ids=["grid5x5", "K8"])
def test_delcon_on_larger_graphs_meets_the_independent_counts(g):
    h = permuted(g, 1)
    poly = tutte_delcon(h)
    assert poly.evaluate(1, 1) == kirchhoff_count(h)
    assert poly.evaluate(2, 2) == 2 ** h.edge_count()


def test_delcon_is_iterative_on_a_long_path_and_bouquet():
    path = gr.Graph(1101, [(i, i, i + 1) for i in range(1100)])
    assert str(tutte_delcon(path)) == "x^1100"
    bouquet = gr.Graph(1, [(i, 0, 0) for i in range(1100)])
    assert str(tutte_delcon(bouquet)) == "y^1100"


def test_walk_routes_at_depth_1100():
    # one walk node per edge, each an oracle miss one level deeper than the
    # last; the forest walk would meet 2^1100 forests on the path
    path = gr.Graph(1101, [(i, i, i + 1) for i in range(1100)])
    assert str(tutte_delta(path, random_oracle(path, 0))) == "x^1100"
    bouquet = gr.Graph(1, [(i, 0, 0) for i in range(1100)])
    for route in (tutte_delta, tutte_forest_activity):
        assert str(route(bouquet, random_oracle(bouquet, 0))) == "y^1100"


def test_every_route_meets_the_independent_counts(corpus):
    # T(1,1) is the matrix-tree count and T(2,2) = 2^m, on every route.
    oracle_routes = (tutte_delta, tutte_forest, tutte_connected, tutte_half,
                     tutte_forest_activity)
    for g in corpus:
        polys = {"definitional": tutte_definitional(g),
                 "delcon": tutte_delcon(g)}
        pairs = [(min(u, v), max(u, v)) for _, u, v in g.edges]
        if len(set(pairs)) == len(pairs):  # the DFS family applies
            polys["dfs"] = tutte_dfs(g)
        for spec, oracle in (("linear", from_linear_order(list(g.edge_ids))),
                             ("random:0", random_oracle(g, 0))):
            for route in oracle_routes:
                polys[f"{route.__name__}[{spec}]"] = route(g, oracle)
        trees = kirchhoff_count(g)
        for name, poly in polys.items():
            assert poly.evaluate(1, 1) == trees, (name, g)
            assert poly.evaluate(2, 2) == 2 ** g.edge_count(), (name, g)


@pytest.mark.parametrize("name", [
    "parallel_triangle", "triangle", "cycle4", "two_parallel",
    "two_loop_bouquet", "dfs_five", "dfs_six", "dfs_forest_counterexample"])
def test_delcon_equals_definitional(name):
    g = fixture_graph(name)
    assert tutte_delcon(g) == tutte_definitional(g)


def test_activity_route_with_fixture_tree(g4, d4):
    assert str(tutte_delta(g4, d4)) == GOLDEN_G4


def test_activity_route_with_ordering(g4):
    poly = tutte_activity(g4, lambda t: ordering_active(g4, [0, 1, 2, 3], t))
    assert str(poly) == GOLDEN_G4


def test_activity_route_with_embedding(embedding_map):
    g = embedding_map.underlying_graph()
    poly = tutte_activity(g, lambda t: embedding_active(embedding_map, t))
    assert poly == tutte_definitional(g)


@pytest.mark.parametrize("name", ["parallel_triangle", "triangle", "cycle4",
                                  "two_parallel", "dfs_five"])
@pytest.mark.parametrize("seed", range(3))
def test_subgraph_sums_agree(name, seed):
    g = fixture_graph(name)
    oracle = random_oracle(g, seed)
    reference = tutte_definitional(g)
    assert tutte_delta(g, oracle) == reference
    assert tutte_forest(g, oracle) == reference
    assert tutte_connected(g, oracle) == reference
    assert tutte_half(g, oracle) == reference
    assert tutte_forest_activity(g, oracle) == reference


def test_forest_formula_single_isthmus_needs_shifted_base():
    g = fixture_graph("single_isthmus")
    oracle = from_linear_order([0])
    # two forests; the empty one contributes (x-1), the tree contributes 1
    assert str(tutte_forest(g, oracle)) == "x"
    assert str(tutte_forest_activity(g, oracle)) == "x"
    # an unshifted x base would instead produce x + 1, i.e. not the
    # polynomial of the one-isthmus graph; pin that down as the reason the
    # shifted base is used
    wrong = sum((BivariatePoly.monomial(gr.cc(g, f) - 1, 0)
                 for f in gr.spanning_forests(g)), BivariatePoly.zero())
    assert str(wrong) == "x + 1"


def test_half_weight_trace_single_loop():
    g = fixture_graph("single_loop")
    oracle = from_linear_order([0])
    # both subgraphs type the loop L, each weighing y/2
    for mask in (0, 1):
        masks = type_masks(run_history(g, oracle, mask))
        assert masks["L"] == 1
    assert str(tutte_half(g, oracle)) == "y"


def test_connected_formula_single_isthmus():
    g = fixture_graph("single_isthmus")
    assert str(tutte_connected(g, from_linear_order([0]))) == "x"


def test_dfs_route_goldens():
    path3 = gr.Graph(3, [(0, 0, 1), (1, 1, 2)])
    assert str(tutte_dfs(path3)) == "x^2"
    oracle = from_linear_order([0, 1])
    assert str(tutte_forest_activity(path3, oracle)) == "x^2"
    for name in ["dfs_six", "dfs_five", "dfs_forest_counterexample",
                 "triangle", "cycle4"]:
        g = fixture_graph(name)
        assert tutte_dfs(g) == tutte_definitional(g)
    # A four-cycle with a chord, on edge ids that are not 0..m-1.
    chorded = gr.Graph(4, [(5, 0, 1), (9, 1, 2), (11, 2, 3), (40, 3, 0),
                           (7, 0, 2)])
    assert tutte_dfs(chorded) == tutte_delcon(chorded)
    assert str(tutte_dfs(chorded)) == "x^3 + 2*x^2 + 2*x*y + x + y^2 + y"


def test_dfs_route_rejects_multigraph(g4):
    with pytest.raises(ValueError):
        tutte_dfs(g4)


INDEPENDENT = {
    "K5": complete(5),
    "grid3x3": grid(3, 3),
    "loop_and_parallel": gr.Graph(5, [
        (0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 0),
        (5, 1, 1), (6, 0, 1), (7, 1, 3)]),
}


@pytest.mark.parametrize("name", sorted(INDEPENDENT))
def test_delcon_and_activity_match_networkx(name):
    # An implementation outside this library, compared term by term.
    nx = pytest.importorskip("networkx")
    sympy = pytest.importorskip("sympy")
    g = INDEPENDENT[name]
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from((u, v) for _, u, v in g.edges)
    x, y = sympy.symbols("x y")
    expected = {exps: int(c) for exps, c in sympy.Poly(
        nx.tutte_polynomial(h), x, y).as_dict().items()}
    assert tutte_delcon(g).terms == expected
    assert tutte_delta(g, random_oracle(g, 0)).terms == expected


@pytest.mark.parametrize("seed", range(25))
def test_many_random_oracles_same_polynomial(g4, seed):
    assert str(tutte_delta(g4, random_oracle(g4, seed))) == GOLDEN_G4


@pytest.mark.parametrize("name", ["parallel_triangle", "triangle",
                                  "two_parallel", "cycle4"])
def test_coefficients_nonnegative_integers(name):
    g = fixture_graph(name)
    for seed in range(3):
        oracle = random_oracle(g, seed)
        for poly in (tutte_delta(g, oracle), tutte_forest(g, oracle),
                     tutte_connected(g, oracle), tutte_half(g, oracle),
                     tutte_forest_activity(g, oracle)):
            assert all(c.denominator == 1 and c >= 0
                       for c in poly.terms.values())


def test_per_class_weight_identity(g4):
    # summed over one equivalence class, the subgraph weights collapse to
    # the class tree's activity monomial
    from tutte_activities.engine import delta_activity
    from tutte_activities.partition import partition
    for seed in range(4):
        oracle = random_oracle(g4, seed)
        for t, interval in partition(g4, oracle).items():
            internal, external = delta_activity(g4, oracle, t)
            total = BivariatePoly.zero()
            for member in interval.members():
                total = total + \
                    x_minus_1_pow(gr.cc(g4, member) - 1) * \
                    y_minus_1_pow(gr.cycl(g4, member))
            assert total == BivariatePoly.monomial(
                gr.popcount(internal), gr.popcount(external))


@pytest.mark.parametrize("name", ["parallel_triangle", "cycles_cocycles",
                                  "dfs_six", "two_loop_bouquet"])
def test_delta_route_equals_per_tree_activities(name):
    g = fixture_graph(name)
    for oracle in (from_linear_order(list(g.edge_ids)), random_oracle(g, 3)):
        per_tree = tutte_activity(g, lambda t: delta_activity(g, oracle, t))
        assert tutte_delta(g, oracle) == per_tree


def test_delta_route_on_ids_not_from_zero():
    double_edge = gr.Graph(2, [(5, 0, 1), (7, 0, 1)])
    assert str(tutte_delta(double_edge, from_linear_order([5, 7]))) == "x + y"


def test_every_route_on_ids_not_from_zero():
    double_edge = gr.Graph(2, [(5, 0, 1), (7, 0, 1)])
    assert str(tutte_definitional(double_edge)) == "x + y"
    doubled_triangle = gr.Graph(3, [(5, 0, 1), (7, 1, 2), (9, 2, 0),
                                    (11, 0, 1)])
    reference = tutte_delcon(doubled_triangle)
    assert str(reference) == GOLDEN_G4
    assert tutte_definitional(doubled_triangle) == reference
    for oracle in (from_linear_order([5, 7, 9, 11]),
                   random_oracle(doubled_triangle, 1)):
        for route in (tutte_delta, tutte_forest, tutte_connected, tutte_half,
                      tutte_forest_activity):
            assert route(doubled_triangle, oracle) == reference, route


def test_delta_route_releases_the_oracle_without_gc(g4):
    # The walk must hold no reference cycle: a cycle would keep the oracle
    # and its memo alive until a full collection.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for route in (tutte_delta, tutte_forest_activity):
            oracle = random_oracle(g4, 4)
            ref = weakref.ref(oracle)
            assert str(route(g4, oracle)) == GOLDEN_G4
            del oracle
            assert ref() is None, route
    finally:
        if enabled:
            gc.enable()
