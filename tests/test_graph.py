import copy
import pickle
import random
from itertools import combinations

import pytest

from tutte_activities import graph as gr
from tutte_activities.harness import connected_multigraphs
from tutte_activities.tutte import tutte_delcon
from conftest import (FIXTURES, contract, delete, fixture_graph,
                      fundamental_cocycle, fundamental_cycle, grid,
                      kirchhoff_count, letters_of, mask_of, permuted)


def test_classify_examples(g4):
    single = fixture_graph("single_isthmus")
    assert gr.classify_edge(single, 0) == gr.ISTHMUS
    loop = fixture_graph("single_loop")
    assert gr.classify_edge(loop, 0) == gr.LOOP
    assert gr.classify_edge(g4, 0) == gr.STANDARD


def test_classify_unknown_edge(g4):
    with pytest.raises(ValueError):
        gr.classify_edge(g4, 9)


def test_delete_gives_triangle(g4):
    assert delete(g4, 3) == fixture_graph("triangle")


def test_contract_merges_to_smaller_id(g4):
    contracted = contract(g4, 1)  # b = {1,2}
    assert contracted.vertex_count == 2
    assert all(set((u, v)) == {0, 1} for _, u, v in contracted.edges)
    assert contracted.edge_ids == (0, 2, 3)


def test_contract_path_edge():
    path = gr.Graph(3, [(0, 0, 1), (1, 1, 2)])
    for eid in (0, 1):
        smaller = contract(path, eid)
        assert smaller.edge_count() == 1
        assert smaller.vertex_count == 2


def test_contract_loop_rejected():
    loop = fixture_graph("single_loop")
    with pytest.raises(ValueError):
        contract(loop, 0)


def test_cc_cycl_examples(g4):
    assert gr.cc(g4, 0) == 3 and gr.cycl(g4, 0) == 0
    assert gr.cc(g4, mask_of("ad")) == 2 and gr.cycl(g4, mask_of("ad")) == 1
    assert gr.cc(g4, mask_of("abcd")) == 1 and gr.cycl(g4, mask_of("abcd")) == 2


def test_cycl_zero_iff_forest(g4):
    for mask in range(16):
        by_def = all(gr.cc(g4, mask & ~(1 << e)) > gr.cc(g4, mask)
                     for e in gr.edge_ids(mask)) if mask else True
        # a forest is exactly a subgraph all of whose edges are isthmuses in it
        assert (gr.cycl(g4, mask) == 0) == by_def


def _bfs_component(g, mask, start):
    """Vertices reached from `start` along the edges of `mask` that g has."""
    seen = {start}
    frontier = [start]
    while frontier:
        w = frontier.pop()
        for eid, u, v in g.edges:
            if (mask >> eid) & 1 and w in (u, v):
                other = v if w == u else u
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
    return seen


def test_class_roots_match_bfs_components(corpus):
    rng = random.Random(15)
    for index, base in enumerate(corpus):
        g = permuted(base, index)
        m = g.edge_count()
        # three spare high bits: ids the graph lacks must be ignored
        masks = [0, g.full_edge_set()] + [rng.getrandbits(m + 3)
                                          for _ in range(6)]
        for mask in masks:
            roots = gr.class_roots(g, mask)
            assert len(roots) == g.vertex_count
            assert all(roots[r] == r for r in roots), (g, mask)
            components = set()
            for a in range(g.vertex_count):
                reached = frozenset(_bfs_component(g, mask, a))
                assert {b for b in range(g.vertex_count)
                        if roots[b] == roots[a]} == reached, (g, mask, a)
                components.add(reached)
            assert gr.cc(g, mask) == len(components)
        full = g.full_edge_set()
        for eid, u, v in g.edges:
            if u == v:
                want = gr.LOOP
            elif gr.cc(g, full & ~(1 << eid)) > gr.cc(g, full):
                want = gr.ISTHMUS
            else:
                want = gr.STANDARD
            assert gr.classify_edge(g, eid) == want, (g, eid)
    # a 4,400-edge path listed end to end links one long chain of roots;
    # its components are pinned, since a BFS per vertex is too slow here
    n = 4400
    path = gr.Graph(n + 1, [(i, i, i + 1) for i in range(n)])
    full = path.full_edge_set()
    for mask, pieces in (
            (full, [range(n + 1)]),
            (full & ~(1 << 999) & ~(1 << 2999),
             [range(1000), range(1000, 3000), range(3000, n + 1)])):
        roots = gr.class_roots(path, mask)
        assert all(roots[r] == r for r in roots)
        assert all(len({roots[w] for w in piece}) == 1 for piece in pieces)
        assert gr.cc(path, mask) == len(pieces)


def test_spanning_trees_goldens(g4):
    assert [letters_of(t) for t in gr.spanning_trees(g4)] == \
        ["ab", "ac", "bc", "bd", "cd"]
    assert gr.spanning_trees(fixture_graph("single_isthmus")) == [1]
    assert len(gr.spanning_trees(fixture_graph("cycle4"))) == 4


def test_spanning_trees_match_brute_force_cycle4():
    c4 = fixture_graph("cycle4")
    brute = [gr.edge_set(c) for c in combinations(range(4), 3)
             if gr.cc(c4, gr.edge_set(c)) == 1]
    assert sorted(brute) == gr.spanning_trees(c4)


def test_spanning_trees_reject_disconnected():
    g = gr.Graph(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        gr.spanning_trees(g)


def test_spanning_forests_reject_disconnected():
    g = gr.Graph(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        gr.spanning_forests(g)


def test_connectivity_is_kept_and_survives_copy_and_pickle():
    for g, connected in ((gr.Graph(3, [(0, 0, 1), (1, 1, 2)]), True),
                         (gr.Graph(3, [(0, 0, 1), (1, 2, 2)]), False)):
        assert gr.is_connected(g) is connected  # worked out
        assert gr.is_connected(g) is connected  # read back
        for again in (copy.copy(g), copy.deepcopy(g),
                      pickle.loads(pickle.dumps(g))):
            assert again == g and gr.is_connected(again) is connected


def small_multigraphs_with_permuted_ids():
    return [permuted(g, seed)
            for seed, g in enumerate(connected_multigraphs(4))]


def test_spanning_trees_match_brute_force_on_small_multigraphs():
    for g in small_multigraphs_with_permuted_ids():
        brute = [gr.edge_set(c)
                 for c in combinations(g.edge_ids, g.vertex_count - 1)
                 if gr.cc(g, gr.edge_set(c)) == 1]
        assert gr.spanning_trees(g) == sorted(brute), g


def test_spanning_forests_match_brute_force_on_small_multigraphs():
    for g in small_multigraphs_with_permuted_ids():
        brute = [s for s in gr.submasks(g.full_edge_set())
                 if gr.cycl(g, s) == 0]
        assert gr.spanning_forests(g) == sorted(brute), g


def test_forest_count_is_t_at_2_1():
    assert len(gr.spanning_forests(fixture_graph("cycles_cocycles"))) == 454
    graphs = [gr.load_graph(path)
              for path in sorted((FIXTURES / "graphs").glob("*.graph"))]
    for g in graphs + [grid(3, 3)]:
        assert len(gr.spanning_forests(g)) == tutte_delcon(g).evaluate(2, 1), g


@pytest.mark.parametrize("name", [
    "parallel_triangle", "triangle", "cycle4", "cycles_cocycles", "dfs_six",
    "dfs_five", "dfs_forest_counterexample"])
def test_tree_count_matches_kirchhoff(name):
    g = fixture_graph(name)
    assert len(gr.spanning_trees(g)) == kirchhoff_count(g)


def test_fundamental_sets_on_reconstructed_fixture():
    g = fixture_graph("cycles_cocycles")
    tree = mask_of("abdei")
    assert gr.is_spanning_tree(g, tree)
    assert letters_of(fundamental_cycle(g, tree, 9)) == "deij"
    assert letters_of(fundamental_cocycle(g, tree, 4)) == "efgj"


def is_cycle(g, mask):
    """Edge set of one simple closed path: connected, all degrees two."""
    if gr.cycl(g, mask) != 1 or gr.cc(g, mask) != g.vertex_count - gr.popcount(mask) + 1:
        return False
    degree = {}
    for eid in gr.edge_ids(mask):
        u, v = g.endpoints(eid)
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return all(d == 2 for d in degree.values())


def test_cycle_and_cocycle_membership_facts():
    g = fixture_graph("cycles_cocycles")
    assert is_cycle(g, mask_of("acd"))
    assert not is_cycle(g, mask_of("acdgij"))
    full = g.full_edge_set()
    bh = mask_of("bh")
    assert gr.cc(g, full & ~bh) == 2
    assert all(gr.cc(g, full & ~sub) == 1
               for sub in (mask_of("b"), mask_of("h")))
    bhij = mask_of("bhij")
    assert gr.cc(g, full & ~bhij) > 1  # still a cut, but not minimal


def test_g4_fundamental_cycle(g4):
    assert letters_of(fundamental_cycle(g4, mask_of("ac"), 1)) == "abc"


def test_loop_fundamental_cycle():
    g = gr.Graph(2, [(0, 0, 1), (1, 0, 0)])
    assert fundamental_cycle(g, 1, 1) == 2  # the loop alone


def test_isthmus_fundamental_cocycle():
    single = fixture_graph("single_isthmus")
    assert fundamental_cocycle(single, 1, 0) == 1


def test_fundamental_set_side_errors(g4):
    with pytest.raises(ValueError):
        fundamental_cycle(g4, mask_of("ac"), 0)  # internal edge
    with pytest.raises(ValueError):
        fundamental_cocycle(g4, mask_of("ac"), 1)  # external edge


def test_delete_contract_commute_on_disjoint_edges(g4):
    for e_del, e_con in [(3, 1), (0, 1), (2, 1)]:
        assert (contract(delete(g4, e_del), e_con)
                == delete(contract(g4, e_con), e_del))


@pytest.mark.parametrize("name", [
    "parallel_triangle", "single_loop", "cycles_cocycles", "dfs_six"])
def test_text_format_round_trip(name):
    g = fixture_graph(name)
    text = gr.format_graph(g)
    assert gr.parse_graph(text) == g
    assert gr.format_graph(gr.parse_graph(text)) == text


def test_parser_reports_line_numbers():
    for text, message in [
            ("vertices 2\nedge 0 0\n",
             "line 2: expected 'edge <id> <u> <v>'"),
            ("edge 0 0 1\n", "missing 'vertices' line"),
            ("# two vertices\nvertices 2 3\n",
             "line 2: expected 'vertices N'"),
            ("vertices 2\n\nvertex 3\n",
             "line 3: unknown directive 'vertex'"),
            ("vertices three\n",
             "line 1: expected an integer, got 'three'"),
            ("vertices 2\n# an edge\nedge 1 1 x\n",
             "line 3: expected an integer, got 'x'")]:
        with pytest.raises(ValueError) as exc:
            gr.parse_graph(text)
        assert str(exc.value) == message


def test_constructor_validation():
    with pytest.raises(ValueError):
        gr.Graph(2, [(0, 0, 1), (0, 1, 0)])  # duplicate id
    with pytest.raises(ValueError):
        gr.Graph(2, [(0, 0, 2)])  # endpoint out of range


@pytest.mark.parametrize("name", ["parallel_triangle", "cycle4",
                                  "cycles_cocycles"])
def test_fundamental_cocycle_is_minimal_cut(name):
    g = fixture_graph(name)
    full = g.full_edge_set()
    base = gr.cc(g, full)
    for tree in gr.spanning_trees(g)[:6]:
        for eid in gr.edge_ids(tree):
            coc = fundamental_cocycle(g, tree, eid)
            assert gr.cc(g, full & ~coc) == base + 1
            for drop in gr.edge_ids(coc):
                sub = coc & ~(1 << drop)
                if sub:
                    assert gr.cc(g, full & ~sub) == base
