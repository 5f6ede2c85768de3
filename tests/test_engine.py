import random
from itertools import product

import pytest

from tutte_activities import graph as gr
from tutte_activities.decision import (ExplicitTreeOracle,
                                       from_linear_order, random_oracle)
from tutte_activities.engine import (DIRECTION_OF_TYPE, _contract,
                                     decision_walk, delta_activity,
                                     delta_ordering, edge_kind, forest_active,
                                     forest_walk, format_history,
                                     internal_active_no_contract, run_history,
                                     type_masks)
from tutte_activities.harness import connected_multigraphs
from conftest import fixture_graph, letters_of, mask_of, permuted

# Expected types for every subgraph of the parallel triangle under the
# fixture decision tree, grouped by equivalence class.  The singleton class
# column order is a, b, c, d.
TYPE_TABLE = [
    (["", "b", "d", "bd"], ("Se", "I", "Se", "I")),
    (["a", "ab", "ad", "abd"], ("Si", "I", "Se", "L")),
    (["c", "ac"], ("I", "Se", "Si", "Se")),
    (["bc", "abc"], ("L", "Si", "Si", "Se")),
    (["cd", "acd", "bcd", "abcd"], ("L", "L", "Si", "Si")),
]


def test_history_of_ad(g4, d4):
    history = run_history(g4, d4, mask_of("ad"))
    assert history == [(2, "Se"), (1, "I"), (0, "Si"), (3, "L")]


def test_full_type_table(g4, d4):
    for subgraphs, expected in TYPE_TABLE:
        for letters in subgraphs:
            history = run_history(g4, d4, mask_of(letters))
            types = dict(history)
            assert (types[0], types[1], types[2], types[3]) == expected, letters


def test_type_table_first_row_external_edge_is_standard_external(g4, d4):
    # For the class of the tree {b,d}, the external standard edge a must be
    # typed Se; Si would violate "Si edges are internal".
    types = dict(run_history(g4, d4, mask_of("bd")))
    assert types[0] == "Se"


@pytest.mark.parametrize("letters,expected_internal,expected_external", [
    ("bd", "bd", ""),
    ("ab", "b", "d"),
    ("ac", "a", ""),
    ("bc", "", "a"),
    ("cd", "", "ab"),
])
def test_delta_activity_per_tree(g4, d4, letters, expected_internal,
                                 expected_external):
    internal, external = delta_activity(g4, d4, mask_of(letters))
    assert letters_of(internal) == expected_internal
    assert letters_of(external) == expected_external


def test_delta_activity_rejects_non_tree(g4, d4):
    with pytest.raises(ValueError):
        delta_activity(g4, d4, mask_of("ad"))


def test_single_isthmus_activity_any_oracle():
    g = fixture_graph("single_isthmus")
    oracle = from_linear_order([0])
    assert delta_activity(g, oracle, 1) == (1, 0)


def test_delta_ordering_examples(g4, d4):
    assert delta_ordering(g4, d4, mask_of("ac")) == [2, 3, 1, 0]
    single = fixture_graph("single_loop")
    assert delta_ordering(single, from_linear_order([0]), 0) == [0]


def test_ordering_matches_tree_walk_for_trees(g4, d4):
    # walking the explicit tree by internal/external membership must
    # reproduce the visit order
    for t in gr.spanning_trees(g4):
        walked = []
        prefix = ()
        for _ in range(4):
            e = d4.next_edge(prefix)
            walked.append(e)
            prefix += ("r",) if (t >> e) & 1 else ("l",)
        assert walked == delta_ordering(g4, d4, t)


def test_directions_follow_types(g4, d4):
    # the recorded history must satisfy the step equation: re-deriving the
    # direction sequence from the types and re-querying the oracle gives the
    # recorded edges
    for mask in range(16):
        history = run_history(g4, d4, mask)
        prefix = ()
        for eid, etype in history:
            assert d4.next_edge(prefix) == eid
            prefix += (DIRECTION_OF_TYPE[etype],)


@pytest.mark.parametrize("name,seeds", [
    ("parallel_triangle", range(4)),
    ("two_loop_bouquet", range(2)),
    ("cycles_cocycles", range(1)),
])
def test_variant_invariance_exhaustive(name, seeds):
    g = fixture_graph(name)
    m = g.edge_count()
    subgraphs = range(1 << m) if m <= 8 else [0, 5, 1023, 512, 77]
    for seed in seeds:
        oracle = random_oracle(g, seed)
        for mask in subgraphs:
            base = run_history(g, oracle, mask)
            for dl, ci in product((False, True), repeat=2):
                assert run_history(g, oracle, mask, delete_loops=dl,
                                   contract_isthmuses=ci) == base


def test_se_external_si_internal_always(g4):
    for seed in range(4):
        oracle = random_oracle(g4, seed)
        for mask in range(16):
            masks = type_masks(run_history(g4, oracle, mask))
            assert masks["Se"] & mask == 0
            assert masks["Si"] & ~mask == 0


def test_types_loop_isthmus_for_trees(g4):
    # on spanning trees, I edges are internal and L edges external
    for seed in range(4):
        oracle = random_oracle(g4, seed)
        for t in gr.spanning_trees(g4):
            masks = type_masks(run_history(g4, oracle, t))
            assert masks["I"] & ~t == 0
            assert masks["L"] & t == 0


def test_witness_cycle_and_cocycle_for_active_types(g4):
    # an L-typed edge closes a cycle with Si edges and is visited last in
    # it; an I-typed edge crosses a cocycle of Se edges, again visited last
    for seed in range(4):
        oracle = random_oracle(g4, seed)
        for mask in range(16):
            history = run_history(g4, oracle, mask)
            masks = type_masks(history)
            position = {e: k for k, (e, _) in enumerate(history)}
            for eid in gr.edge_ids(masks["L"]):
                found = _witness_cycle(g4, eid, masks["Si"], position)
                assert found, (mask, eid)
            for eid in gr.edge_ids(masks["I"]):
                found = _witness_cocycle(g4, eid, masks["Se"], position)
                assert found, (mask, eid)


def _witness_cycle(g, eid, si_mask, position):
    from test_graph import is_cycle
    candidates = [sub for sub in _submasks(si_mask)]
    for sub in candidates:
        cyc = sub | (1 << eid)
        if is_cycle(g, cyc):
            if all(position[x] < position[eid]
                   for x in gr.edge_ids(sub)):
                return True
    return False


def _witness_cocycle(g, eid, se_mask, position):
    full = g.full_edge_set()
    base = gr.cc(g, full)
    for sub in _submasks(se_mask):
        cut = sub | (1 << eid)
        if gr.cc(g, full & ~cut) == base + 1:
            if all(gr.cc(g, full & ~(cut & ~(1 << d))) == base
                   for d in gr.edge_ids(cut)):
                if all(position[x] < position[eid] for x in gr.edge_ids(sub)):
                    return True
    return False


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def test_internal_active_no_contract_examples(g4, d4):
    assert internal_active_no_contract(g4, d4, mask_of("bd")) == mask_of("bd")
    assert internal_active_no_contract(g4, d4, mask_of("cd")) == 0
    single = fixture_graph("single_isthmus")
    assert internal_active_no_contract(single, from_linear_order([0]), 1) == 1


@pytest.mark.parametrize("name", ["parallel_triangle", "triangle", "cycle4",
                                  "dfs_five"])
def test_internal_active_no_contract_equals_activity(name):
    g = fixture_graph(name)
    for seed in range(3):
        oracle = random_oracle(g, seed)
        for t in gr.spanning_trees(g):
            internal, _ = delta_activity(g, oracle, t)
            assert internal_active_no_contract(g, oracle, t) == internal


def test_forest_active_examples(g4, d4):
    single_loop = fixture_graph("single_loop")
    assert forest_active(single_loop, from_linear_order([0]), 0) == 1
    isthmus = fixture_graph("single_isthmus")
    assert forest_active(isthmus, from_linear_order([0]), 0) == 0
    assert forest_active(isthmus, from_linear_order([0]), 1) == 0
    assert forest_active(g4, d4, mask_of("cd")) == mask_of("ab")


def test_forest_active_maximality(g4):
    # for spanning forests, an active edge closes a cycle and is visited
    # last in its fundamental cycle for the visit order of the forest pass
    for seed in range(4):
        oracle = random_oracle(g4, seed)
        for f in gr.spanning_forests(g4):
            active = forest_active(g4, oracle, f)
            order = _forest_visit_order(g4, oracle, f)
            rank = {e: i for i, e in enumerate(order)}
            expected = 0
            for eid in g4.edge_ids:
                if (f >> eid) & 1:
                    continue
                if gr.cycl(g4, f | (1 << eid)) != 1:
                    continue
                cyc = _forest_cycle(g4, f, eid)
                if all(rank[x] < rank[eid]
                       for x in gr.edge_ids(cyc & ~(1 << eid))):
                    expected |= 1 << eid
            assert active == expected, (seed, f)


def _forest_cycle(g, forest, eid):
    """Unique cycle in forest + e."""
    u, v = g.endpoints(eid)
    if u == v:
        return 1 << eid
    path = gr.tree_path(g, forest, u, v)
    return (1 << eid) | gr.edge_set(path)


def _forest_visit_order(g, oracle, subgraph):
    """Edge visit order of the loop-at-visit forest pass."""
    from tutte_activities import graph as grm
    h = g
    prefix = []
    order = []
    for _ in range(g.edge_count()):
        eid = oracle.next_edge(tuple(prefix))
        order.append(eid)
        loop = grm.classify_edge(h, eid) == grm.LOOP
        if not loop and not ((subgraph >> eid) & 1):
            prefix.append("l")
        elif not loop:
            h = grm.contract(h, eid)
            prefix.append("r")
        else:
            prefix.append("l")
    return order


def test_oracle_returning_visited_edge_rejected(g4):
    class Broken:
        def next_edge(self, prefix, used=None):
            return 0
    with pytest.raises(ValueError, match="unusable"):
        run_history(g4, Broken(), 0)


def test_run_history_requires_connected():
    g = gr.Graph(3, [(0, 0, 1)])
    with pytest.raises(ValueError, match="connected"):
        run_history(g, from_linear_order([0]), 0)


def test_format_history(g4, d4):
    text = format_history(run_history(g4, d4, mask_of("ad")))
    assert text == "2 Se\n1 I\n0 Si\n3 L"


# -- the decision-tree walk ----------------------------------------------------


def _materialized(g, oracle):
    """The explicit tree that answers like `oracle` on every path of g."""
    m = g.edge_count()

    def node(prefix):
        label = oracle.next_edge(prefix)
        if len(prefix) == m - 1:
            return (label, None, None)
        return (label, node(prefix + ("l",)), node(prefix + ("r",)))

    return ExplicitTreeOracle(node(()), g.edge_ids)


def _corpus_oracles(g):
    yield "linear", from_linear_order(list(g.edge_ids))
    yield "random", random_oracle(g, 5)
    yield "explicit", _materialized(g, random_oracle(g, 6))


def test_walk_leaves_are_the_spanning_trees_with_their_activities(corpus):
    for g in corpus:
        trees = gr.spanning_trees(g)
        for name, oracle in _corpus_oracles(g):
            walked = list(decision_walk(g, oracle))
            assert sorted(t for t, _, _ in walked) == trees, (g, name)
            for t, internal, external in walked:
                assert (internal, external) == delta_activity(g, oracle, t), (
                    g, name, t)


def test_forest_walk_leaves_are_the_spanning_forests_with_their_actives(
        corpus):
    doubled_triangle = gr.Graph(3, [(5, 0, 1), (7, 1, 2), (9, 2, 0),
                                    (11, 0, 1)])
    for g in corpus + [doubled_triangle]:
        forests = gr.spanning_forests(g)
        for name, oracle in _corpus_oracles(g):
            walked = list(forest_walk(g, oracle))
            assert sorted(f for f, _ in walked) == forests, (g, name)
            for f, active in walked:
                assert active == forest_active(g, oracle, f), (g, name, f)


def _rebuilt_leaves(g, oracle, forests=False):
    """The leaves of `decision_walk` or `forest_walk`, on rebuilt minors.

    Every node builds its minor with `gr.delete`/`gr.contract` and types
    the edge with `gr.classify_edge`, so nothing here shares `edge_kind`.
    The tree walk deletes its loops and contracts its isthmuses, which
    types every edge alike; the forest walk keeps a non-forest edge and
    branches at every non-loop.
    """
    m = g.edge_count()
    leaves = []

    def rec(h, prefix, inside, internal, external):
        if len(prefix) == m:
            leaves.append((inside, external) if forests
                          else (inside, internal, external))
            return
        eid = oracle.next_edge(prefix)
        bit = 1 << eid
        kind = gr.classify_edge(h, eid)
        if kind == gr.LOOP:
            rec(h if forests else gr.delete(h, eid), prefix + ("l",),
                inside, internal, external | bit)
        elif kind == gr.ISTHMUS and not forests:
            rec(gr.contract(h, eid), prefix + ("r",), inside | bit,
                internal | bit, external)
        else:
            rec(h if forests else gr.delete(h, eid), prefix + ("l",),
                inside, internal, external)
            rec(gr.contract(h, eid), prefix + ("r",), inside | bit,
                internal, external)

    rec(g, (), 0, 0, 0)
    return sorted(leaves)


def test_walks_match_the_rebuilt_minor_walk(corpus):
    rng = random.Random(12)
    graphs = connected_multigraphs(4) + [
        permuted(g, seed) for seed, g in enumerate(rng.sample(corpus, 60))]
    for g in graphs:
        for name, oracle in _corpus_oracles(g):
            assert sorted(decision_walk(g, oracle)) == \
                _rebuilt_leaves(g, oracle), (g, name)
            assert sorted(forest_walk(g, oracle)) == \
                _rebuilt_leaves(g, oracle, forests=True), (g, name)


def test_walk_asks_each_node_once(g4, d4):
    # five trees and ten forests; every path shares its nodes up to the
    # branch point
    for walk, leaves in ((decision_walk, 5), (forest_walk, 10)):
        asked = []

        class Counting:
            def next_edge(self, prefix, used=None):
                asked.append(prefix)
                return d4.next_edge(prefix)

        walked = list(walk(g4, Counting()))
        assert len(asked) == len(set(asked)), walk
        assert len(walked) == leaves, walk
        assert len(asked) < leaves * g4.edge_count(), walk


class _CheckingOracle:
    """Forwards every query, first checking that its `used` is the OR of
    the answers this pass gave to the prefix's ancestors."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.answers = {}

    def next_edge(self, prefix, used=None):
        want = 0
        for j in range(len(prefix)):
            want |= 1 << self.answers[prefix[:j]]  # asked before the prefix
        assert used == want, (prefix, used, want)
        self.answers[prefix] = self.oracle.next_edge(prefix, used)
        return self.answers[prefix]


def test_every_pass_hands_the_oracle_the_answers_on_the_path(corpus):
    rng = random.Random(14)
    graphs = [permuted(g, i) for i, g in enumerate(
        rng.sample([g for g in corpus if g.edge_count() <= 6], 30))]
    graphs.append(gr.Graph(3, [(5, 0, 1), (7, 0, 1), (9, 1, 2), (11, 2, 2)]))
    for g in graphs:
        for oracle in (random_oracle(g, 5), from_linear_order(g.edge_ids)):
            list(decision_walk(g, _CheckingOracle(oracle)))
            list(forest_walk(g, _CheckingOracle(oracle)))
            for s in gr.submasks(g.full_edge_set()):
                run_history(g, _CheckingOracle(oracle), s)
                forest_active(g, _CheckingOracle(oracle), s)
            for t in gr.spanning_trees(g):
                internal_active_no_contract(g, _CheckingOracle(oracle), t)


def test_walk_of_single_edge_graphs():
    assert list(decision_walk(fixture_graph("single_isthmus"),
                              from_linear_order([0]))) == [(1, 1, 0)]
    assert list(decision_walk(fixture_graph("single_loop"),
                              from_linear_order([0]))) == [(0, 0, 1)]


def test_contract_follows_the_mask_and_leaves_its_input(corpus):
    """Contractions from the identity give the classes of the mask.

    The walks hand one root list to both branches of a node, so `_contract`
    must not change the list it is given.
    """
    rng = random.Random(18)
    for i, g in enumerate(corpus):
        g = permuted(g, 100 + i)
        for _ in range(3):
            roots = list(range(g.vertex_count))
            contracted = 0
            order = list(g.edge_ids)
            rng.shuffle(order)
            for eid in order[:rng.randint(1, len(order))]:
                before = roots[:]
                merged = _contract(g, roots, eid)
                assert roots == before, (g, contracted, eid)
                roots = merged
                contracted |= 1 << eid
                expected = gr.class_roots(g, contracted)
                # same partition: the root pairs match one to one
                pairs = set(zip(roots, expected))
                assert len(pairs) == len(set(roots)) == len(set(expected)), \
                    (g, contracted, roots, expected)
                assert all(roots[r] == r for r in roots), (g, roots)


def _random_minor_steps(g, rng):
    """Random delete/contract steps, checking every surviving edge first."""
    h = g
    contracted = deleted = 0
    while h.edge_count():
        roots = gr.class_roots(g, contracted)
        for eid in h.edge_ids:
            assert edge_kind(g, roots, contracted | deleted, eid) == \
                gr.classify_edge(h, eid), (g, contracted, deleted, eid)
        eid = rng.choice(h.edge_ids)
        if h.is_loop(eid) or rng.random() < 0.5:
            h = gr.delete(h, eid)
            deleted |= 1 << eid
        else:
            h = gr.contract(h, eid)
            contracted |= 1 << eid


def test_mask_classifier_equals_rebuilt_minor_classification(corpus):
    rng = random.Random(2024)
    graphs = connected_multigraphs(4) + rng.sample(corpus, 60) + [
        fixture_graph(name) for name in
        ("parallel_triangle", "cycles_cocycles", "dfs_six", "two_loop_bouquet")]
    for g in graphs:
        for _ in range(3):
            _random_minor_steps(g, rng)


def test_mask_classifier_on_ids_not_from_zero():
    g = gr.Graph(3, [(5, 0, 1), (7, 0, 1), (9, 1, 2), (11, 2, 2)])

    def kind(contracted, deleted, eid):
        return edge_kind(g, gr.class_roots(g, contracted),
                         contracted | deleted, eid)

    assert kind(0, 0, 5) == gr.STANDARD
    assert kind(0, 0, 9) == gr.ISTHMUS
    assert kind(0, 0, 11) == gr.LOOP
    assert kind(1 << 5, 0, 7) == gr.LOOP
    assert kind(0, 1 << 5, 7) == gr.ISTHMUS


class _RepeatsOnLeft:
    """Answers edge 2 at the root and again on the root's left child."""

    def next_edge(self, prefix, used=None):
        if prefix in ((), ("l",)):
            return 2
        return 0


def test_walk_rejects_edge_repeated_along_a_path(g4):
    with pytest.raises(ValueError, match="unusable"):
        list(decision_walk(g4, _RepeatsOnLeft()))


def test_walk_rejects_unknown_edge_and_disconnected_graph(g4):
    class Unknown:
        def next_edge(self, prefix, used=None):
            return 9
    with pytest.raises(ValueError, match="unusable edge 9"):
        list(decision_walk(g4, Unknown()))
    with pytest.raises(ValueError, match="connected"):
        list(decision_walk(gr.Graph(3, [(0, 0, 1)]), from_linear_order([0])))
