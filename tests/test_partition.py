import pytest

from tutte_activities import graph as gr
from tutte_activities.decision import from_linear_order, random_oracle
from tutte_activities.engine import (decision_walk, delta_activity,
                                     run_history, type_masks)
from tutte_activities.partition import (SubgraphInterval, class_table,
                                        forest_partition_activity,
                                        forest_partition_types, partition,
                                        representative_tree)
from conftest import (descending_submasks, fixture_graph,
                      is_partition_of_lattice, letters_of, mask_of)


def test_equivalence_worked_examples(g4, d4):
    assert run_history(g4, d4, 0) == run_history(g4, d4, mask_of("bd"))
    assert (run_history(g4, d4, mask_of("a"))
            == run_history(g4, d4, mask_of("abd")))
    assert (run_history(g4, d4, mask_of("a"))
            != run_history(g4, d4, mask_of("c")))
    for mask in range(16):
        assert run_history(g4, d4, mask) == run_history(g4, d4, mask)


def test_partition_classes_golden(g4, d4):
    parts = partition(g4, d4)
    expected = {
        mask_of("bd"): (0, mask_of("bd")),
        mask_of("ab"): (mask_of("a"), mask_of("abd")),
        mask_of("ac"): (mask_of("c"), mask_of("ac")),
        mask_of("bc"): (mask_of("bc"), mask_of("abc")),
        mask_of("cd"): (mask_of("cd"), mask_of("abcd")),
    }
    assert {t: (iv.lower, iv.upper) for t, iv in parts.items()} == expected
    assert sorted(iv.size() for iv in parts.values()) == [2, 2, 4, 4, 4]


def test_partition_single_isthmus():
    g = fixture_graph("single_isthmus")
    parts = partition(g, from_linear_order([0]))
    assert set(parts) == {1}
    assert (parts[1].lower, parts[1].upper) == (0, 1)


@pytest.mark.parametrize("name", ["parallel_triangle", "triangle", "cycle4",
                                  "two_parallel", "two_loop_bouquet",
                                  "dfs_five"])
@pytest.mark.parametrize("seed", range(3))
def test_partition_tiles_lattice(name, seed):
    g = fixture_graph(name)
    oracle = random_oracle(g, seed)
    parts = partition(g, oracle)
    assert is_partition_of_lattice(parts.values(), g.edge_count())
    # exactly one spanning tree inside each class
    for t, interval in parts.items():
        trees_inside = [x for x in interval.members()
                        if gr.is_spanning_tree(g, x)]
        assert trees_inside == [t]


def test_class_table_matches_representatives(g4, d4):
    trees, table = class_table(g4, d4)
    for mask in range(16):
        assert trees[table[mask]] == representative_tree(g4, d4, mask)


def test_class_table_cap():
    star = gr.Graph(22, [(i, 0, i + 1) for i in range(21)])
    with pytest.raises(ValueError, match="capped"):
        class_table(star, from_linear_order(list(range(21))))


def test_representative_tree_examples(g4, d4):
    assert letters_of(representative_tree(g4, d4, mask_of("abcd"))) == "cd"
    for t in gr.spanning_trees(g4):
        assert representative_tree(g4, d4, t) == t


def test_interval_of_equals_class(g4, d4):
    # [S - Act(S), S + Act(S)] is exactly the set of subgraphs sharing S's
    # history
    for mask in range(16):
        history = run_history(g4, d4, mask)
        masks = type_masks(history)
        act = masks["L"] | masks["I"]
        interval = SubgraphInterval(mask & ~act, mask | act)
        for other in range(16):
            assert (other in interval) == (
                history == run_history(g4, d4, other))


def five_characterizations(g, oracle, s1, s2):
    h1 = run_history(g, oracle, s1)
    h2 = run_history(g, oracle, s2)
    m1, m2 = type_masks(h1), type_masks(h2)
    act1 = m1["L"] | m1["I"]
    same_history = h1 == h2
    same_partition = m1 == m2
    same_standard = (m1["Se"], m1["Si"]) == (m2["Se"], m2["Si"])
    diff_in_active = (s1 ^ s2) & ~act1 == 0
    exists_r = any(s2 == s1 ^ r for r in descending_submasks(act1))
    return same_history, same_partition, same_standard, diff_in_active, exists_r


@pytest.mark.parametrize("name", ["parallel_triangle", "two_parallel",
                                  "triangle", "dfs_five"])
def test_five_characterizations_agree(name):
    g = fixture_graph(name)
    m = g.edge_count()
    for seed in range(2):
        oracle = random_oracle(g, seed)
        for s1 in range(1 << m):
            for s2 in range(1 << m):
                flags = five_characterizations(g, oracle, s1, s2)
                assert len(set(flags)) == 1, (name, seed, s1, s2, flags)


def test_toggling_active_edge_shifts_counts(g4):
    # adding an L-typed external edge keeps cc and raises cycl by one;
    # removing an I-typed internal edge raises cc and keeps cycl
    for seed in range(4):
        oracle = random_oracle(g4, seed)
        for mask in range(16):
            masks = type_masks(run_history(g4, oracle, mask))
            for eid in gr.edge_ids(masks["L"] & ~mask):
                bigger = mask | (1 << eid)
                assert gr.cc(g4, bigger) == gr.cc(g4, mask)
                assert gr.cycl(g4, bigger) == gr.cycl(g4, mask) + 1
            for eid in gr.edge_ids(masks["I"] & mask):
                smaller = mask & ~(1 << eid)
                assert gr.cc(g4, smaller) == gr.cc(g4, mask) + 1
                assert gr.cycl(g4, smaller) == gr.cycl(g4, mask)


def test_forest_partition_single_loop():
    g = fixture_graph("single_loop")
    oracle = from_linear_order([0])
    for fn in (forest_partition_types, forest_partition_activity):
        parts = fn(g, oracle)
        assert set(parts) == {0}
        assert (parts[0].lower, parts[0].upper) == (0, 1)


@pytest.mark.parametrize("name", ["parallel_triangle", "triangle",
                                  "two_parallel", "cycle4", "dfs_five"])
@pytest.mark.parametrize("seed", range(2))
def test_forest_partitions_tile_lattice(name, seed):
    g = fixture_graph(name)
    oracle = random_oracle(g, seed)
    m = g.edge_count()
    for fn in (forest_partition_types, forest_partition_activity):
        assert is_partition_of_lattice(fn(g, oracle).values(), m)


@pytest.mark.parametrize("seed", range(3))
def test_forest_classes_refine_tree_classes(g4, seed):
    oracle = random_oracle(g4, seed)
    tree_parts = partition(g4, oracle)
    for f, interval in forest_partition_types(g4, oracle).items():
        hosts = [t for t, tv in tree_parts.items()
                 if all(x in tv for x in interval.members())]
        assert len(hosts) == 1


@pytest.mark.parametrize("name", ["parallel_triangle", "triangle", "cycle4"])
def test_forest_class_size_identity(name):
    g = fixture_graph(name)
    m = g.edge_count()
    for seed in range(2):
        oracle = random_oracle(g, seed)
        total = sum(
            1 << gr.popcount(type_masks(run_history(g, oracle, f))["L"])
            for f in gr.spanning_forests(g))
        assert total == 1 << m


def test_interval_validation():
    with pytest.raises(ValueError):
        SubgraphInterval(0b11, 0b01)
    iv = SubgraphInterval(0b001, 0b101)
    assert list(iv.members()) == [0b001, 0b101]
    assert iv.size() == 2
    assert 0b001 in iv and 0b011 not in iv


@pytest.mark.parametrize("name", ["parallel_triangle", "cycles_cocycles",
                                  "dfs_six", "two_loop_bouquet",
                                  "single_isthmus"])
@pytest.mark.parametrize("seed", range(2))
def test_partition_equals_per_tree_intervals(name, seed):
    # the walk's intervals are those of each tree's own history, in
    # ascending tree order
    g = fixture_graph(name)
    oracle = random_oracle(g, seed)
    expected = {}
    for t in gr.spanning_trees(g):
        internal, external = delta_activity(g, oracle, t)
        expected[t] = SubgraphInterval(t & ~internal, t | external)
    parts = partition(g, oracle)
    assert parts == expected
    assert list(parts) == sorted(parts)


def test_partition_on_ids_not_from_zero():
    double_edge = gr.Graph(2, [(5, 0, 1), (7, 0, 1)])
    parts = partition(double_edge, from_linear_order([5, 7]))
    assert {t: (iv.lower, iv.upper) for t, iv in parts.items()} == {
        1 << 5: (0, 1 << 5),
        1 << 7: (1 << 7, (1 << 5) | (1 << 7)),
    }


def test_walk_leaves_fix_every_subgraph_history(corpus):
    # The subgraphs typed like the leaf (T, I, E) are exactly those of
    # [T - I, T + E]; each types T - I as Si, I as I, E as L, the rest Se.
    for g in corpus[::3]:
        full = g.full_edge_set()
        for oracle in (from_linear_order(list(g.edge_ids)),
                       random_oracle(g, 1)):
            leaves = list(decision_walk(g, oracle))
            for s in gr.submasks(full):
                hosts = [(t, i, e) for t, i, e in leaves
                         if s in SubgraphInterval(t & ~i, t | e)]
                assert len(hosts) == 1, (g, s)
                t, i, e = hosts[0]
                assert type_masks(run_history(g, oracle, s)) == {
                    "Si": t & ~i, "I": i, "L": e, "Se": full & ~(t | e)}, (
                    g, s)
            expected = {}
            for f in gr.spanning_forests(g):
                masks = type_masks(run_history(g, oracle, f))
                expected[f] = SubgraphInterval(f, f | masks["L"])
            parts = forest_partition_types(g, oracle)
            assert parts == expected and list(parts) == list(expected), g


def test_class_table_on_ids_not_from_zero():
    g = gr.Graph(3, [(5, 0, 1), (7, 1, 2), (9, 2, 0), (11, 0, 1)])
    oracle = random_oracle(g, 1)
    trees, table = class_table(g, oracle)
    members = list(gr.submasks(g.full_edge_set()))
    assert sorted(table) == members
    for s in members:
        assert trees[table[s]] == representative_tree(g, oracle, s)


def test_tiling_check_on_large_edge_ids():
    g = gr.Graph(3, [(0, 0, 1), (1, 0, 1), (2, 0, 2), (40, 1, 2)])
    oracle = random_oracle(g, 1)
    m = g.edge_count()
    assert is_partition_of_lattice(partition(g, oracle).values(), m)
    assert is_partition_of_lattice(
        forest_partition_activity(g, oracle).values(), m)
    twice = list(partition(g, oracle).values()) * 2
    assert not is_partition_of_lattice(twice, m)
