import pytest

from tutte_activities import graph as gr
from tutte_activities.scan import (BudgetExceeded, _enumerate_decision_functions,
                                   conjecture_scan, decision_tree_activities)
from conftest import complete, fixture_graph, mask_of


def test_single_isthmus_scan():
    g = fixture_graph("single_isthmus")
    report = conjecture_scan(g)
    assert report.survivors == [(1,)]  # the only activity marks the edge
    assert not report.conjecture1_counterexamples
    assert not report.conjecture2_counterexamples
    assert not report.has_standard_edge


def test_single_loop_scan():
    g = fixture_graph("single_loop")
    report = conjecture_scan(g)
    assert report.survivors == [(1,)]


def test_single_vertex_scan():
    # The one decision tree of the edgeless graph is empty, and it realizes
    # the one activity.
    report = conjecture_scan(gr.Graph(1, []))
    assert report.survivors == [(0,)]
    assert not report.conjecture1_counterexamples
    assert not report.conjecture2_counterexamples
    assert "all survivors realized by decision trees" in report.text()


def test_two_parallel_scan():
    g = fixture_graph("two_parallel")
    report = conjecture_scan(g)
    # either edge can play the never-active role, nothing else tiles
    assert report.survivors == [(1, 1), (2, 2)]
    assert not report.conjecture1_counterexamples
    assert not report.conjecture2_counterexamples


def test_budget_guard(g4):
    with pytest.raises(BudgetExceeded):
        conjecture_scan(g4, budget=1000)
    # 1,296 trees of 15 edges: the count is named by its exponent
    with pytest.raises(BudgetExceeded,
                       match=r"^2\^19440 candidate activities exceed budget"):
        conjecture_scan(complete(6))


def test_decision_function_enumeration_counts():
    assert sum(1 for _ in _enumerate_decision_functions(range(0))) == 1
    assert sum(1 for _ in _enumerate_decision_functions(range(1))) == 1
    assert sum(1 for _ in _enumerate_decision_functions(range(2))) == 2
    assert sum(1 for _ in _enumerate_decision_functions(range(3))) == 12
    assert sum(1 for _ in _enumerate_decision_functions(range(4))) == 576


def test_doubled_triangle_scan_findings(g4, d4):
    """The exhaustive scan's landmark output on the doubled triangle.

    48 activities tile the subgraph lattice; 40 of them are induced by
    decision trees and each of those leaves an edge never active.  The
    remaining 8 tile the lattice and reproduce the polynomial but are not
    induced by any decision tree, and each of them activates every edge
    somewhere.  The two counterexample lists coincide, matching the claimed
    equivalence of the two properties.
    """
    report = conjecture_scan(g4)
    assert report.candidate_count == 2 ** 20
    assert len(report.survivors) == 48
    assert not report.not_descriptive
    assert report.has_standard_edge
    assert len(report.conjecture1_counterexamples) == 8
    assert report.conjecture1_counterexamples == \
        report.conjecture2_counterexamples
    # a hand-verified member: psi over trees (ab, ac, bc, bd, cd)
    witness = (mask_of("a"), mask_of("ac"), mask_of("ad"),
               mask_of("ab"), mask_of("a"))
    assert witness in report.survivors
    assert witness in report.conjecture1_counterexamples
    # the fixture decision tree's own activity is among the realized ones
    from tutte_activities.engine import delta_activity
    vector = tuple(i | e for i, e in
                   (delta_activity(g4, d4, t) for t in gr.spanning_trees(g4)))
    assert vector in report.survivors
    assert vector not in report.conjecture1_counterexamples


def test_realized_activities_all_leave_an_edge_inactive(g4):
    # restricted to decision-tree activities the inactive-edge property holds
    full = g4.full_edge_set()
    for vector in decision_tree_activities(g4):
        ever = 0
        for psi in vector:
            ever |= psi
        assert ever != full


def test_every_decision_tree_activity_tiles(g4):
    # realized activities are always among the lattice tilings
    report = conjecture_scan(g4)
    assert decision_tree_activities(g4) <= set(report.survivors)


def test_every_survivor_interval_holds_exactly_one_tree(g4):
    from tutte_activities.partition import SubgraphInterval
    report = conjecture_scan(g4)
    trees = report.trees
    for vector in report.survivors:
        for t, psi in zip(trees, vector):
            interval = SubgraphInterval(t & ~psi, t | psi)
            inside = [x for x in interval.members()
                      if gr.is_spanning_tree(g4, x)]
            assert inside == [t]


def test_scan_is_deterministic(g4):
    a = conjecture_scan(g4)
    b = conjecture_scan(g4)
    assert a.survivors == b.survivors
    assert a.text() == b.text()


def test_scan_on_ids_not_from_zero():
    # the doubled triangle with ids {5, 7, 9, 11} reports what it reports on
    # ids 0..3, read through the relabelling (which keeps the mask order)
    ids = (5, 7, 9, 11)
    ends = ((0, 1), (1, 2), (2, 0), (0, 1))
    plain = gr.Graph(3, [(i, u, v) for i, (u, v) in enumerate(ends)])
    moved = gr.Graph(3, [(e, u, v) for e, (u, v) in zip(ids, ends)])

    def relabel(vector):
        return tuple(gr.edge_set(ids[i] for i in gr.edge_ids(psi))
                     for psi in vector)

    a, b = conjecture_scan(plain), conjecture_scan(moved)
    assert len(b.survivors) == 48
    assert len(b.conjecture1_counterexamples) == 8
    assert len(b.conjecture2_counterexamples) == 8
    assert not b.not_descriptive
    assert b.survivors == [relabel(v) for v in a.survivors]
    assert b.conjecture1_counterexamples == \
        [relabel(v) for v in a.conjecture1_counterexamples]
    assert decision_tree_activities(moved) == \
        {relabel(v) for v in decision_tree_activities(plain)}


def test_scan_on_large_edge_ids():
    # The tiling bitsets index the subgraphs, not their mask values: id 40
    # must not make a 2^41-bit integer.
    g = gr.Graph(3, [(0, 0, 1), (1, 0, 1), (2, 0, 2), (40, 1, 2)])
    report = conjecture_scan(g)
    assert len(report.survivors) == 48
    assert len(report.conjecture1_counterexamples) == 8
    assert len(report.conjecture2_counterexamples) == 8
    assert not report.not_descriptive
