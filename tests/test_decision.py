import random

import pytest

from tutte_activities import graph as gr
from tutte_activities.classic import DfsOracle, dfs_order_map
from tutte_activities.comb_map import mirror, tour_order
from tutte_activities.decision import (format_decision_tree,
                                       from_linear_order, from_order_map,
                                       order_map_trie, parse_decision_tree,
                                       random_oracle, ExplicitTreeOracle,
                                       RandomOracle)
from tutte_activities.engine import decision_walk, delta_ordering, forest_walk
from conftest import fixture_graph, mask_of, permuted


def all_prefixes(m):
    levels = [[()]]
    for _ in range(m - 1):
        levels.append([p + (d,) for p in levels[-1] for d in "lr"])
    return [p for level in levels for p in level]


def test_explicit_tree_fixture_labels(d4):
    assert d4.next_edge(()) == 2
    assert d4.next_edge(("r", "l")) == 1
    assert d4.next_edge(("l", "l", "r")) == 3


def test_explicit_tree_rejects_duplicate_label():
    with pytest.raises(ValueError, match="repeated"):
        ExplicitTreeOracle((0, (0, None, None), (1, None, None)), [0, 1])


def test_explicit_tree_rejects_wrong_depth():
    with pytest.raises(ValueError):
        ExplicitTreeOracle((0, (1, (0, None, None), (0, None, None)),
                            (1, None, None)), [0, 1])
    with pytest.raises(ValueError):
        ExplicitTreeOracle((0, None, None), [0, 1])  # leaf too early


def test_explicit_tree_size_cap():
    class Fake:
        pass
    with pytest.raises(ValueError, match="limited"):
        ExplicitTreeOracle((0, None, None), list(range(17)))


def test_linear_order_oracle_levels():
    oracle = from_linear_order([0, 1, 2, 3])
    assert oracle.next_edge(()) == 3            # last edge first
    assert oracle.next_edge(("l",)) == 2
    assert oracle.next_edge(("r", "l")) == 1
    single = from_linear_order([0])
    assert single.next_edge(()) == 0


def test_linear_order_ignores_directions(g4):
    oracle = from_linear_order([0, 1, 2, 3])
    for t in gr.spanning_trees(g4):
        assert delta_ordering(g4, oracle, t) == [3, 2, 1, 0]


def test_linear_order_rejects_non_permutation():
    with pytest.raises(ValueError):
        from_linear_order([0, 0, 1])


def assert_witness(table, witness):
    """Both trees walk the same k edges, each in both or in neither, then part."""
    t1, t2, k = witness
    head = tuple(table[t1][:k])
    assert head == tuple(table[t2][:k])
    assert all((t1 >> e) & 1 == (t2 >> e) & 1 for e in head)
    assert table[t1][k] != table[t2][k]


def test_order_map_table_passes_checker(g4, order_map_table_g4):
    assert order_map_trie(g4, order_map_table_g4)[1] is None


def test_constant_order_map_passes(g4):
    table = {t: (0, 1, 2, 3) for t in gr.spanning_trees(g4)}
    assert order_map_trie(g4, table)[1] is None


def test_incomplete_table_rejected(g4, order_map_table_g4):
    table = dict(order_map_table_g4)
    del table[mask_of("cd")]
    with pytest.raises(ValueError, match="missing"):
        order_map_trie(g4, table)


def test_reversed_tour_order_map_rejected(embedding_map):
    g = embedding_map.underlying_graph()
    table = {t: list(reversed(tour_order(embedding_map, t)[1]))
             for t in gr.spanning_trees(g)}
    witness = order_map_trie(g, table)[1]
    assert_witness(table, witness)
    assert witness[2] == 0  # already the first visited edge differs
    with pytest.raises(ValueError, match="not tree-compatible"):
        from_order_map(g, table)


def test_order_map_oracle_reproduces_explicit_tree(g4, d4, order_map_table_g4):
    oracle = from_order_map(g4, order_map_table_g4)
    for prefix in all_prefixes(4):
        assert oracle.next_edge(prefix) == d4.next_edge(prefix)


def test_order_map_round_trip_through_histories(g4, order_map_table_g4):
    oracle = from_order_map(g4, order_map_table_g4)
    for t, order in order_map_table_g4.items():
        assert delta_ordering(g4, oracle, t) == list(order)


def test_order_map_dead_branch_uses_smallest_unused(g4, order_map_table_g4):
    oracle = from_order_map(g4, order_map_table_g4)
    # no spanning tree avoids both c and b; the branch falls back
    assert oracle.next_edge(("l", "l")) == 0
    assert oracle.next_edge(("l", "l", "l")) == 3


def brute_force_answers(g, table):
    """Every prefix's answer by scanning all trees, as the definition reads.

    A tree matches a prefix when the earlier answers it contains sit exactly
    at the right turns; all matching trees must agree on the next edge, and
    a prefix no tree matches gets the smallest unused edge id.
    """
    trees = gr.spanning_trees(g)
    etas = {(): []}   # prefix -> answers at its proper prefixes
    answers = {}
    for prefix in all_prefixes(g.edge_count()):
        if prefix:
            etas[prefix] = etas[prefix[:-1]] + [answers[prefix[:-1]]]
        seen = etas[prefix]
        want = {j for j, d in enumerate(prefix) if d == "r"}
        found = {table[t][len(prefix)] for t in trees
                 if {j for j, e in enumerate(seen) if (t >> e) & 1} == want}
        assert len(found) <= 1, (prefix, found)
        answers[prefix] = (found.pop() if found
                           else min(set(g.edge_ids) - set(seen)))
    return answers


def desk_order_maps(corpus):
    """Compatible order maps on every sixth desk-corpus graph.

    Per graph: the visit orders of two random oracles, and the marking-DFS
    order map where the graph has no multiple edges.
    """
    for g in corpus[::6]:
        trees = gr.spanning_trees(g)
        for seed in range(2):
            oracle = random_oracle(g, seed)
            yield g, {t: delta_ordering(g, oracle, t) for t in trees}
        try:
            table = {t: dfs_order_map(g, t) for t in trees}
        except ValueError:
            continue  # multiple edges: no DFS order map
        yield g, table


def test_order_map_match_choice_is_irrelevant(g4, order_map_table_g4,
                                              corpus):
    cases = [(g4, order_map_table_g4)] + list(desk_order_maps(corpus))
    assert len(cases) > 110
    for g, table in cases:
        oracle = from_order_map(g, table)
        for prefix, answer in brute_force_answers(g, table).items():
            assert oracle.next_edge(prefix) == answer, (g, prefix)


def test_incompatibility_witness_is_a_divergence(corpus):
    rng = random.Random(2024)
    rejected = 0
    for g in corpus[::3]:
        ids = list(g.edge_ids)
        table = {t: rng.sample(ids, len(ids)) for t in gr.spanning_trees(g)}
        witness = order_map_trie(g, table)[1]
        if witness is not None:
            assert_witness(table, witness)
            rejected += 1
    assert rejected > 20


def test_order_map_on_edge_ids_other_than_0_to_m_minus_1():
    ids = (5, 7, 9)
    moved = gr.Graph(3, [(5, 0, 1), (7, 1, 2), (9, 2, 0)])
    plain = gr.Graph(3, [(0, 0, 1), (1, 1, 2), (2, 2, 0)])
    oracle = from_order_map(moved, {t: ids for t in gr.spanning_trees(moved)})
    reference = from_order_map(
        plain, {t: (0, 1, 2) for t in gr.spanning_trees(plain)})
    for prefix in all_prefixes(3):
        assert oracle.next_edge(prefix) == ids[reference.next_edge(prefix)]
    # no spanning tree avoids both 5 and 7: the branch falls back to 9
    assert oracle.next_edge(("l", "l")) == 9


def test_orderings_of_any_oracle_form_a_compatible_map():
    # visit orders per spanning tree of an arbitrary oracle always satisfy
    # the compatibility condition, and realizing them reproduces the orders
    from conftest import fixture_graph
    for name in ("parallel_triangle", "triangle", "cycle4", "two_parallel",
                 "dfs_five"):
        g = fixture_graph(name)
        trees = gr.spanning_trees(g)
        for seed in range(3):
            oracle = random_oracle(g, seed)
            table = {t: delta_ordering(g, oracle, t) for t in trees}
            assert order_map_trie(g, table)[1] is None, (name, seed)
            rebuilt = from_order_map(g, table)
            for t in trees:
                assert delta_ordering(g, rebuilt, t) == table[t], (name, seed)


def test_embedding_order_map_via_mirror_is_compatible(embedding_map):
    g = embedding_map.underlying_graph()
    mm = mirror(embedding_map)
    table = {t: tour_order(mm, t)[1] for t in gr.spanning_trees(g)}
    assert order_map_trie(g, table)[1] is None


def test_random_oracle_is_deterministic(g4):
    a = random_oracle(g4, 42)
    b = random_oracle(g4, 42)
    c = random_oracle(g4, 43)
    prefixes = all_prefixes(4)
    assert [a.next_edge(p) for p in prefixes] == \
        [b.next_edge(p) for p in prefixes]
    assert any(a.next_edge(p) != c.next_edge(p) for p in prefixes)


@pytest.mark.parametrize("seed", range(6))
def test_oracles_answer_permutations_along_every_path(g4, seed):
    oracle = random_oracle(g4, seed)
    m = 4
    for leaf in range(1 << (m - 1)):
        prefix = tuple("lr"[(leaf >> i) & 1] for i in range(m - 1))
        answers = [oracle.next_edge(prefix[:k]) for k in range(m)]
        assert sorted(answers) == list(range(m))


def test_random_oracle_scales_past_explicit_limit():
    # lazy oracles answer one path at a time, so the edge count may exceed
    # what an explicit tree could materialize
    oracle = RandomOracle(range(40), seed=5)
    prefix = tuple("lr"[i % 2] for i in range(39))
    answers = [oracle.next_edge(prefix[:k]) for k in range(40)]
    assert sorted(answers) == list(range(40))


def test_prefix_length_capped(g4, d4):
    with pytest.raises(ValueError):
        d4.next_edge(("l", "l", "l", "l"))
    with pytest.raises(ValueError):
        RandomOracle(range(4), 0).next_edge(("l",) * 4)


def test_sexpr_round_trip(d4):
    text = format_decision_tree(d4.root)
    assert parse_decision_tree(text) == d4.root
    assert format_decision_tree(parse_decision_tree(text)) == text


def test_sexpr_rejects_malformed():
    deep = "(0 " * 17 + "(0)" + ")" * 17
    for text, message in [
            ("(0 (1)", "unexpected end of tree"),
            ("(0) extra", "trailing tokens after tree"),
            ("(0) (1)", "trailing tokens after tree"),
            ("(0 ())", "expected node label"),
            ("(0 (1) (1) (1))", "expected ')'"),
            ("(0\n  (1)\n  (x))", "line 3: expected an integer, got 'x'"),
            (deep, "explicit trees are limited to 16 edges")]:
        with pytest.raises(ValueError) as exc:
            parse_decision_tree(text)
        assert str(exc.value) == message
    for root, message in [
            (parse_decision_tree("(0 (1) (5))"), "unknown edge label 5"),
            ((0, (1, None, None), None),
             "node must have zero or two children")]:
        with pytest.raises(ValueError) as exc:
            ExplicitTreeOracle(root, [0, 1])
        assert str(exc.value) == message


def test_concurrent_queries_are_consistent(g4):
    from concurrent.futures import ThreadPoolExecutor
    oracle = random_oracle(g4, 11)
    prefixes = all_prefixes(4) * 16
    with ThreadPoolExecutor(max_workers=8) as pool:
        answers = list(pool.map(oracle.next_edge, prefixes))
    reference = {p: oracle.next_edge(p) for p in set(prefixes)}
    assert all(a == reference[p] for p, a in zip(prefixes, answers))


# Answers on every prefix, in `all_prefixes(4)` order, recorded from the
# memo-based oracles that preceded the shared prefix table; a changed value
# means an oracle now answers differently.
PINNED_RANDOM = {
    ("g4", 0): (3, 2, 0, 1, 0, 2, 1, 0, 0, 1, 1, 1, 1, 2, 2),
    ("g4", 1): (3, 2, 1, 1, 1, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0),
    ("g4", 2): (1, 0, 3, 3, 3, 0, 2, 2, 2, 2, 2, 2, 2, 0, 0),
    ("moved", 0): (11, 9, 5, 7, 5, 9, 7, 5, 5, 7, 7, 7, 7, 9, 9),
    ("moved", 1): (11, 9, 7, 7, 7, 9, 9, 5, 5, 5, 5, 5, 5, 5, 5),
    ("moved", 2): (7, 5, 11, 11, 11, 5, 9, 9, 9, 9, 9, 9, 9, 5, 5),
}
PINNED_D4 = (2, 1, 3, 0, 0, 1, 0, 3, 3, 3, 3, 0, 0, 1, 1)


def _pinned_graph(g4, name):
    return g4 if name == "g4" else gr.Graph(
        3, [(5, 0, 1), (7, 1, 2), (9, 2, 0), (11, 0, 1)])


@pytest.mark.parametrize("name,seed", sorted(PINNED_RANDOM))
def test_random_oracle_answers_are_pinned(g4, name, seed):
    g = _pinned_graph(g4, name)
    prefixes = all_prefixes(4)
    want = PINNED_RANDOM[name, seed]
    # shallow-first and deep-first queries give the same answers
    assert tuple(random_oracle(g, seed).next_edge(p) for p in prefixes) == want
    deep_first = random_oracle(g, seed)
    answers = {p: deep_first.next_edge(p) for p in reversed(prefixes)}
    assert tuple(answers[p] for p in prefixes) == want


def test_explicit_and_order_map_answers_are_pinned(g4, d4, order_map_table_g4):
    prefixes = all_prefixes(4)
    assert tuple(d4.next_edge(p) for p in prefixes) == PINNED_D4
    oracle = from_order_map(g4, order_map_table_g4)
    # the deepest fallback first: its ancestor ("l", "l") falls back too
    assert oracle.next_edge(("l", "l", "l")) == 3
    assert oracle.next_edge(("l", "l")) == 0
    assert tuple(oracle.next_edge(p) for p in prefixes) == PINNED_D4
    assert oracle.table[("l", "l")] == 0  # fallback answers are remembered


def test_prefixes_may_be_lists(d4):
    assert d4.next_edge(["r", "l"]) == d4.next_edge(("r", "l")) == 1
    with pytest.raises(ValueError, match="bad direction"):
        d4.next_edge(["x"])


# -- the lazily filled table -----------------------------------------------------


def _lazy_oracles(g):
    """Fresh-oracle makers for the three lazily filled tables.

    The order map comes from a random oracle's visit orders, so its table
    holds the tree paths only and every other branch falls back.
    """
    orders = {t: delta_ordering(g, random_oracle(g, 9), t)
              for t in gr.spanning_trees(g)}
    return {"random": lambda: random_oracle(g, 2),
            "dfs": lambda: DfsOracle(g),
            "order-map": lambda: from_order_map(g, orders)}


def _table_graphs():
    """Simple graphs, ids and vertices permuted, m from 3 to 8."""
    return [permuted(fixture_graph(name), 3)
            for name in ("triangle", "cycle4", "dfs_five", "dfs_six")]


def _asked_in_walk_order(walk, g, oracle):
    """(prefix, answer) for every node the walk asks, in the order asked."""
    asked = []

    class Recording:
        def next_edge(self, prefix, used=None):
            asked.append((prefix, oracle.next_edge(prefix, used)))
            return asked[-1][1]

    for _ in walk(g, Recording()):
        pass
    return asked


@pytest.mark.parametrize("walk", [decision_walk, forest_walk])
def test_walk_order_queries_give_pinned_and_fresh_answers(g4, walk):
    for (name, seed), want in PINNED_RANDOM.items():
        g = _pinned_graph(g4, name)
        pinned = dict(zip(all_prefixes(4), want))
        asked = _asked_in_walk_order(walk, g, random_oracle(g, seed))
        assert [a for _, a in asked] == [pinned[p] for p, _ in asked], (
            name, seed)
    for g in _table_graphs():
        for name, make in _lazy_oracles(g).items():
            for prefix, answer in _asked_in_walk_order(walk, g, make()):
                assert make().next_edge(prefix) == answer, (g, name, prefix)


def test_swapped_table_answers_like_a_fresh_oracle():
    # the scan's swap: after a walk fills the old table, the new table must
    # answer from itself alone, whatever order its queries come in
    rng = random.Random(7)
    for g in _table_graphs():
        prefixes = [p for p, _ in _asked_in_walk_order(
            forest_walk, g, random_oracle(g, 0))]
        for name, make in _lazy_oracles(g).items():
            oracle = make()
            list(forest_walk(g, oracle))
            oracle.table = {}
            rng.shuffle(prefixes)
            answers = {p: oracle.next_edge(p) for p in prefixes}
            fresh = make()
            fresh.table = {}
            assert all(fresh.next_edge(p) == answers[p] for p in prefixes), (
                g, name)


def test_deep_misses_after_a_walk_answer_like_a_fresh_oracle():
    # each deepest prefix is asked right after a walk or another deep
    # branch, mostly with its ancestors missing: the walk never takes the
    # second way at a loop or an isthmus
    rng = random.Random(8)
    for g in _table_graphs():
        deepest = all_prefixes(g.edge_count())[-(1 << g.edge_count() - 1):]
        for name, make in _lazy_oracles(g).items():
            oracle = make()
            list(decision_walk(g, oracle))
            missing = 0
            for prefix in rng.sample(deepest, len(deepest)):
                missing += prefix not in oracle.table
                assert oracle.next_edge(prefix) == make().next_edge(prefix), (
                    g, name, prefix)
            assert missing, (g, name)


def test_concurrent_misses_share_the_table_safely():
    # more threads than cores, switching every microsecond, all missing
    # prefixes of one oracle in shuffled order
    import sys
    from concurrent.futures import ThreadPoolExecutor
    g = permuted(fixture_graph("dfs_six"), 3)
    prefixes = all_prefixes(g.edge_count()) * 4
    random.Random(9).shuffle(prefixes)
    for name, make in _lazy_oracles(g).items():
        want = {p: make().next_edge(p) for p in set(prefixes)}
        oracle = make()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                answers = list(pool.map(oracle.next_edge, prefixes,
                                        timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert answers == [want[p] for p in prefixes], name
