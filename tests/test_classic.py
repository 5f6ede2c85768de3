import random

import pytest

from tutte_activities import graph as gr
from tutte_activities.classic import (_fundamental_sets, blossoming_active,
                                      blossoming_charge_check,
                                      blossoming_first_visit_order,
                                      blossoming_internal_active,
                                      blossoming_subtree_charge, dfs_active,
                                      dfs_active_by_inversion, dfs_forest,
                                      dfs_order_map, dfs_run, embedding_active,
                                      maximal_active, order_map_oracle,
                                      ordering_active, prune_run, tau)
from tutte_activities.comb_map import genus, mirror, parse_map, tour_order
from tutte_activities.decision import (LEFT, RIGHT, DecisionOracle,
                                       from_linear_order, from_order_map)
from tutte_activities.engine import delta_activity, delta_ordering, forest_walk
from tutte_activities.harness import connected_multigraphs
from conftest import fixture_graph, fixture_map, letters_of, mask_of, permuted


def edge_mask(m, names):
    return gr.edge_set(m.edge_id_by_name(n) for n in names)


def names_of(m, mask):
    return sorted(m.edge_name(e) for e in gr.edge_ids(mask))


# -- ordering -----------------------------------------------------------------


def test_ordering_active_worked_example(g4):
    internal, external = ordering_active(g4, [0, 1, 2, 3], mask_of("ac"))
    assert letters_of(internal) == "a"
    assert external == 0


def test_single_loop_is_ordering_active():
    g = fixture_graph("single_loop")
    assert ordering_active(g, [0], 0) == (0, 1)


@pytest.mark.parametrize("order", [
    [0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]])
def test_ordering_equals_linear_oracle_activity(g4, order):
    oracle = from_linear_order(order)
    for t in gr.spanning_trees(g4):
        assert ordering_active(g4, order, t) == delta_activity(g4, oracle, t)


def test_ordering_rejects_bad_inputs(g4):
    with pytest.raises(ValueError):
        ordering_active(g4, [0, 1, 2], mask_of("ac"))
    with pytest.raises(ValueError):
        ordering_active(g4, [0, 1, 2, 3], mask_of("ad"))


# -- fundamental sets from one rooting ----------------------------------------


def per_edge_extreme_rule(g, rank, tree_mask, pick):
    """The extreme rule with one single-edge fundamental set query per edge."""
    internal = 0
    external = 0
    for eid, _, _ in g.edges:
        if (tree_mask >> eid) & 1:
            cut = gr.fundamental_cocycle(g, tree_mask, eid)
            if eid == pick(gr.edge_ids(cut), key=rank.__getitem__):
                internal |= 1 << eid
        else:
            cyc = gr.fundamental_cycle(g, tree_mask, eid)
            if eid == pick(gr.edge_ids(cyc), key=rank.__getitem__):
                external |= 1 << eid
    return internal, external


@pytest.fixture(scope="module")
def rooting_graphs(corpus):
    """Desk corpus and small multigraphs, as given and with permuted ids."""
    graphs = corpus + connected_multigraphs(4)
    return graphs + [permuted(g, seed) for seed, g in enumerate(graphs)]


def test_fundamental_sets_match_the_single_edge_queries(rooting_graphs):
    for g in rooting_graphs:
        for t in gr.spanning_trees(g):
            sets = _fundamental_sets(g, t)
            assert sorted(sets) == sorted(g.edge_ids), (g, t)
            for eid in g.edge_ids:
                if (t >> eid) & 1:
                    expected = gr.fundamental_cocycle(g, t, eid)
                else:
                    expected = gr.fundamental_cycle(g, t, eid)
                assert sets[eid] == expected, (g, t, eid)


def test_ordering_and_maximal_rules_match_the_per_edge_rule(rooting_graphs):
    rng = random.Random(16)
    for g in rooting_graphs:
        order = list(g.edge_ids)
        rng.shuffle(order)
        rank = {eid: i for i, eid in enumerate(order)}
        for t in gr.spanning_trees(g):
            assert ordering_active(g, order, t) == \
                per_edge_extreme_rule(g, rank, t, min), (g, order, t)
            assert maximal_active(g, order, t) == \
                per_edge_extreme_rule(g, rank, t, max), (g, order, t)


@pytest.mark.parametrize("order", [[0, 1, 2], [0, 1, 2, 2], [0, 1, 2, 3, 4],
                                   [0, 1, 2, 7], []])
def test_ordering_and_maximal_rules_reject_a_non_permutation(g4, order):
    for rule in (ordering_active, maximal_active):
        with pytest.raises(ValueError, match="permutation"):
            rule(g4, order, mask_of("ab"))


@pytest.mark.parametrize("name", ["parallel_triangle", "parallel_triangle_alt",
                                  "pruning_planar", "nonplanar_parallel",
                                  "two_crossing_loops", "loop_contract_guard"])
def test_map_rules_match_the_per_edge_rule(name):
    m = fixture_map(name)
    g = m.underlying_graph()
    for t in gr.spanning_trees(g):
        tour = {e: i for i, e in enumerate(tour_order(m, t)[1])}
        assert embedding_active(m, t) == \
            per_edge_extreme_rule(g, tour, t, min), t
        visits = {e: i for i, e in
                  enumerate(blossoming_first_visit_order(m, t))}
        assert blossoming_active(m, t) == \
            per_edge_extreme_rule(g, visits, t, max), t


# -- embedding ----------------------------------------------------------------


def test_embedding_active_worked_example(embedding_map):
    m = embedding_map
    t = edge_mask(m, ["b", "d"])
    internal, external = embedding_active(m, t)
    assert names_of(m, internal) == ["b"]
    assert names_of(m, external) == ["a"]


@pytest.mark.parametrize("name", ["parallel_triangle", "parallel_triangle_alt",
                                  "pruning_planar", "nonplanar_parallel",
                                  "two_crossing_loops"])
def test_embedding_equals_mirror_max_rule(name):
    m = fixture_map(name)
    g = m.underlying_graph()
    mm = mirror(m)
    for t in gr.spanning_trees(g):
        _, mirror_order = tour_order(mm, t)
        assert embedding_active(m, t) == maximal_active(g, mirror_order, t)


@pytest.mark.parametrize("name", ["parallel_triangle", "parallel_triangle_alt",
                                  "pruning_planar", "nonplanar_parallel"])
def test_embedding_realized_by_decision_oracle(name):
    m = fixture_map(name)
    g = m.underlying_graph()
    mm = mirror(m)
    oracle = from_order_map(
        g, {t: tour_order(mm, t)[1] for t in gr.spanning_trees(g)})
    for t in gr.spanning_trees(g):
        assert delta_activity(g, oracle, t) == embedding_active(m, t)


def test_decision_ordering_for_embedding_fixture(embedding_map):
    # the realized visit order for the tree {b,d} is d < a < c < b even
    # though the tour order is a < b < c < d; the active pairs agree
    m = embedding_map
    g = m.underlying_graph()
    mm = mirror(m)
    trees = gr.spanning_trees(g)
    oracle = from_order_map(g, {t: tour_order(mm, t)[1] for t in trees})
    t = edge_mask(m, ["b", "d"])
    assert [m.edge_name(e) for e in delta_ordering(g, oracle, t)] == \
        ["d", "a", "c", "b"]
    assert {m.edge_name(e)
            for part in delta_activity(g, oracle, t)
            for e in gr.edge_ids(part)} == {"a", "b"}


# -- blossoming ---------------------------------------------------------------


def test_tau_worked_examples(pruning_map):
    m = pruning_map
    assert names_of(m, tau(m, edge_mask(m, ["d"]))) == ["c", "d"]
    assert names_of(m, tau(m, edge_mask(m, ["c"]))) == ["b", "c"]


@pytest.mark.parametrize("name", ["parallel_triangle", "pruning_planar",
                                  "nonplanar_parallel", "loop_contract_guard"])
def test_tau_fixes_spanning_trees(name):
    m = fixture_map(name)
    g = m.underlying_graph()
    for t in gr.spanning_trees(g):
        assert tau(m, t) == t


def test_tau_rejects_cyclic_input(pruning_map):
    with pytest.raises(ValueError):
        tau(pruning_map, edge_mask(pruning_map, ["a", "d"]))


def test_tau_on_nested_loops_empties_the_map():
    m = parse_map("halfedges 4\nsigma (a b b' a')\nalpha (a a')(b b')\nroot a\n")
    assert tau(m, 0) == 0


def test_blossoming_internal_worked_example(pruning_map):
    m = pruning_map
    t = edge_mask(m, ["c", "d"])
    assert names_of(m, blossoming_internal_active(m, t)) == ["c"]
    assert [m.edge_name(e) for e in blossoming_first_visit_order(m, t)] == \
        ["a", "d", "b", "c"]


@pytest.mark.parametrize("name", ["parallel_triangle", "pruning_planar",
                                  "nonplanar_parallel", "two_crossing_loops",
                                  "loop_contract_guard"])
def test_blossoming_internal_is_isthmus_at_first_visit(name):
    m = fixture_map(name)
    g = m.underlying_graph()
    for t in gr.spanning_trees(g):
        run = prune_run(m, t)
        assert blossoming_internal_active(m, t) == run.isthmus_at_first_visit
        assert run.isthmus_at_first_visit & ~t == 0


def test_isthmuses_always_blossoming_active():
    m = fixture_map("loop_contract_guard")  # two pendant edges and a loop
    g = m.underlying_graph()
    isthmuses = gr.edge_set(
        e for e in g.edge_ids if gr.classify_edge(g, e) == gr.ISTHMUS)
    for t in gr.spanning_trees(g):
        assert blossoming_internal_active(m, t) & isthmuses == isthmuses


@pytest.mark.parametrize("name", ["parallel_triangle", "pruning_planar",
                                  "nonplanar_parallel"])
def test_blossoming_realized_by_decision_oracle(name):
    m = fixture_map(name)
    g = m.underlying_graph()
    trees = gr.spanning_trees(g)
    oracle = from_order_map(
        g, {t: blossoming_first_visit_order(m, t) for t in trees})
    for t in trees:
        full = blossoming_active(m, t)
        assert delta_activity(g, oracle, t) == full
        assert full[0] == blossoming_internal_active(m, t)


def test_charge_worked_example(pruning_map):
    m = pruning_map
    t = edge_mask(m, ["c", "d"])
    d_id = m.edge_id_by_name("d")
    c_id = m.edge_id_by_name("c")
    assert blossoming_subtree_charge(m, t, d_id) == 2
    assert blossoming_subtree_charge(m, t, c_id) == 1
    assert not blossoming_charge_check(m, t, d_id)
    assert blossoming_charge_check(m, t, c_id)


@pytest.mark.parametrize("name,forest,visits,tree,isthmuses,charges", [
    ("pruning_planar", "d", "adbc", "cd", "c", {0: -2, 1: 1, 2: 1}),
    ("pruning_planar", "a", "adcb", "ab", "b", {0: 1, 1: -2, 2: 1}),
    ("parallel_triangle_alt", "", "acbd", "bd", "bd", {0: -1, 1: 0, 2: 1}),
    ("nonplanar_parallel", "b", "abc", "b", "", {0: -2, 1: 2}),
    ("two_crossing_loops", "", "ab", "", "", {0: 0}),
    ("loop_contract_guard", "", "acb", "bc", "bc", {0: 0, 1: 0, 2: 0}),
])
def test_pruning_walk_transcript_on_forests(name, forest, visits, tree,
                                            isthmuses, charges):
    m = fixture_map(name)
    run = prune_run(m, edge_mask(m, forest))
    assert "".join(m.edge_name(e) for e in run.first_visit) == visits
    assert "".join(names_of(m, run.tree_mask)) == tree
    assert "".join(names_of(m, run.isthmus_at_first_visit)) == isthmuses
    assert run.charges == charges


def test_charges_sum_to_zero(pruning_map):
    g = pruning_map.underlying_graph()
    for t in gr.spanning_trees(g):
        run = prune_run(pruning_map, t)
        assert sum(run.charges.values()) == 0


@pytest.mark.parametrize("name", ["parallel_triangle", "pruning_planar"])
def test_charge_criterion_is_exact_on_planar_maps(name):
    m = fixture_map(name)
    assert genus(m) == 0
    g = m.underlying_graph()
    for t in gr.spanning_trees(g):
        active = blossoming_internal_active(m, t)
        for eid in gr.edge_ids(t):
            assert blossoming_charge_check(m, t, eid) == bool((active >> eid) & 1)


def test_charge_criterion_only_forward_off_plane():
    m = fixture_map("nonplanar_parallel")
    assert genus(m) == 1
    g = m.underlying_graph()
    t = gr.spanning_trees(g)[0]
    eid = gr.edge_ids(t)[0]
    assert blossoming_charge_check(m, t, eid)          # charge 0, criterion holds
    assert blossoming_internal_active(m, t) == 0       # yet the edge is inactive
    # forward implication must still hold everywhere: active => charge in {0,1}
    for name in ["nonplanar_parallel", "two_crossing_loops"]:
        mx = fixture_map(name)
        gx = mx.underlying_graph()
        for tx in gr.spanning_trees(gx):
            active = blossoming_internal_active(mx, tx)
            for e in gr.edge_ids(active):
                assert blossoming_charge_check(mx, tx, e)


def test_tree_with_no_deletions_has_all_internal_edges_active():
    # a map that is already a tree never deletes, so every charge is zero
    # and every internal edge is an isthmus at its visit
    m = parse_map("halfedges 4\nsigma (a)(a' b)(b')\nalpha (a a')(b b')\nroot a\n")
    g = m.underlying_graph()
    t = g.full_edge_set()
    run = prune_run(m, t)
    assert all(c == 0 for c in run.charges.values())
    assert blossoming_internal_active(m, t) == t


def test_charge_check_rejects_external_edge(pruning_map):
    t = edge_mask(pruning_map, ["c", "d"])
    with pytest.raises(ValueError):
        blossoming_subtree_charge(pruning_map, t,
                                  pruning_map.edge_id_by_name("a"))


@pytest.mark.parametrize("name", ["parallel_triangle", "pruning_planar",
                                  "nonplanar_parallel"])
def test_tau_preimage_is_lower_interval(name):
    m = fixture_map(name)
    g = m.underlying_graph()
    for t in gr.spanning_trees(g):
        internal = blossoming_internal_active(m, t)
        lower = t & ~internal
        for f in gr.spanning_forests(g):
            inside = (lower & ~f) == 0 and (f & ~t) == 0
            assert (tau(m, f) == t) == inside


# -- DFS ----------------------------------------------------------------------


def marked_subgraph_six():
    return gr.edge_set([0, 1, 4, 5, 6, 7])


def test_dfs_visit_order_fixture():
    g = fixture_graph("dfs_six")
    run = dfs_run(g, marked_subgraph_six())
    assert run.vertex_order == [0, 3, 5, 1, 2, 4]
    assert gr.edge_ids(run.forest_mask) == [1, 4, 5, 6]


def test_dfs_active_fixture():
    g = fixture_graph("dfs_six")
    forest = gr.edge_set([1, 4, 5, 6])
    assert gr.edge_ids(dfs_active(g, forest)) == [0, 7]
    # adding the non-active edge 0-5 reroutes the search instead
    assert gr.edge_ids(dfs_forest(g, forest | (1 << 2))) == [2, 4, 5, 6]


def test_every_loop_is_dfs_active():
    g = fixture_graph("dfs_six")
    for f in gr.spanning_forests(g):
        if dfs_forest(g, f) == f:
            assert dfs_active(g, f) & (1 << 7) == (1 << 7)


def test_dfs_forest_equals_input_iff_forest():
    g = fixture_graph("dfs_five")
    for mask in range(1 << g.edge_count()):
        out = dfs_forest(g, mask)
        assert out == dfs_forest(g, out)                 # idempotent
        assert (out == mask) == (gr.cycl(g, mask) == 0)  # fixed points = forests


def test_dfs_forest_empty():
    g = fixture_graph("dfs_five")
    assert dfs_forest(g, 0) == 0


@pytest.mark.parametrize("name", ["dfs_six", "dfs_five",
                                  "dfs_forest_counterexample", "triangle",
                                  "cycle4"])
def test_dfs_inversion_rule_everywhere(name):
    g = fixture_graph(name)
    for f in gr.spanning_forests(g):
        assert dfs_active(g, f) == dfs_active_by_inversion(g, f)


def test_dfs_active_rejects_non_closed_input():
    g = fixture_graph("dfs_five")
    full = g.full_edge_set()
    with pytest.raises(ValueError):
        dfs_active(g, full)  # has a cycle, not its own forest


def test_dfs_rejects_multigraphs(g4):
    with pytest.raises(ValueError):
        dfs_forest(g4, 0)
    with pytest.raises(ValueError):
        dfs_order_map(g4, 0)
    two_loops = gr.Graph(1, [(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        dfs_forest(two_loops, 0)


def test_dfs_order_map_fixture():
    g = fixture_graph("dfs_five")
    t = gr.edge_set([0, 2, 4])
    assert dfs_order_map(g, t) == [1, 0, 2, 4, 3]  # b a c e d
    assert gr.edge_ids(dfs_active(g, t)) == [3]    # d


def test_dfs_order_map_is_tree_compatible():
    from tutte_activities.decision import check_tree_compatible
    for name in ["dfs_six", "dfs_five", "dfs_forest_counterexample"]:
        g = fixture_graph(name)
        table = {t: dfs_order_map(g, t) for t in gr.spanning_trees(g)}
        assert check_tree_compatible(g, table) is None


@pytest.mark.parametrize("name", ["dfs_six", "dfs_five",
                                  "dfs_forest_counterexample"])
def test_dfs_active_is_max_rule_under_order_map(name):
    g = fixture_graph(name)
    for t in gr.spanning_trees(g):
        order = dfs_order_map(g, t)
        _, external = maximal_active(g, order, t)
        assert external == dfs_active(g, t)


def test_forest_counterexample_facts():
    g = fixture_graph("dfs_forest_counterexample")
    forest = gr.edge_set([2, 3, 4])
    assert dfs_forest(g, forest) == forest
    assert gr.edge_ids(dfs_active(g, forest)) == [1]
    for t in gr.spanning_trees(g):
        if not (t >> 1) & 1:
            assert not (dfs_active(g, t) >> 1) & 1


def test_dfs_interval_characterization():
    # the preimage of a forest under the DFS-forest map is exactly the
    # interval from the forest to the forest plus its active edges
    for name in ["dfs_six", "dfs_five", "triangle"]:
        g = fixture_graph(name)
        m = g.edge_count()
        for f in gr.spanning_forests(g):
            active = dfs_active(g, f)
            for mask in range(1 << m):
                inside = (f & ~mask) == 0 and (mask & ~(f | active)) == 0
                assert (dfs_forest(g, mask) == f) == inside


def test_dfs_rules_on_all_five_vertex_simple_graphs():
    from tutte_activities.harness import connected_simple_graphs
    from tutte_activities.tutte import tutte_definitional, tutte_dfs
    for g in connected_simple_graphs(5, 7):
        for f in gr.spanning_forests(g):
            assert dfs_active(g, f) == dfs_active_by_inversion(g, f), (g, f)
        assert tutte_dfs(g) == tutte_definitional(g), g


def _has_multiple_edges(g):
    ends = [frozenset((u, v)) for _, u, v in g.edges]
    return len(set(ends)) < len(ends)


def test_dfs_activity_is_the_forest_rule_of_the_marking_dfs_tree(corpus):
    # The marking-DFS edge orders of all spanning forests fit one decision
    # tree, stepping right exactly on forest edges; the loop-at-visit forest
    # rule on that tree gives DFS activity.
    simple = [g for g in corpus if not _has_multiple_edges(g)]
    assert len(simple) == 70
    for g in simple:
        forests = gr.spanning_forests(g)
        table = {}
        for f in forests:
            prefix = ()
            for eid in dfs_order_map(g, f):
                assert table.setdefault(prefix, eid) == eid, (g, f, prefix)
                prefix += (RIGHT if (f >> eid) & 1 else LEFT,)
        oracle = DecisionOracle(g.edge_ids, table)
        expected = {f: dfs_active(g, f) for f in forests}
        assert dict(forest_walk(g, oracle)) == expected, g
        # The lazy DFS oracle is that tree: its walk fills exactly the table.
        lazy = order_map_oracle("dfs", g)
        assert dict(forest_walk(g, lazy)) == expected, g
        assert lazy.table == table, g
