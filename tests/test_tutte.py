import gc
import weakref

import pytest

from tutte_activities import graph as gr
from tutte_activities.classic import embedding_active, ordering_active
from tutte_activities.decision import from_linear_order, random_oracle
from tutte_activities.engine import delta_activity, run_history, type_masks
from tutte_activities.poly import BivariatePoly, x_minus_1_pow, y_minus_1_pow
from tutte_activities.tutte import (tutte_activity, tutte_connected,
                                    tutte_definitional, tutte_delcon,
                                    tutte_delta, tutte_dfs, tutte_forest,
                                    tutte_forest_activity, tutte_half)
from conftest import fixture_graph

GOLDEN_G4 = "x^2 + x*y + x + y^2 + y"


def test_definitional_goldens(g4):
    assert str(tutte_definitional(g4)) == GOLDEN_G4
    assert str(tutte_definitional(fixture_graph("single_isthmus"))) == "x"
    assert str(tutte_definitional(fixture_graph("single_loop"))) == "y"
    assert str(tutte_definitional(fixture_graph("triangle"))) == "x^2 + x + y"


def test_definitional_rejects_disconnected():
    with pytest.raises(ValueError):
        tutte_definitional(gr.Graph(3, [(0, 0, 1)]))


def test_delcon_goldens(g4):
    assert str(tutte_delcon(g4)) == GOLDEN_G4
    assert str(tutte_delcon(fixture_graph("two_loop_bouquet"))) == "y^2"
    assert str(tutte_delcon(fixture_graph("two_parallel"))) == "x + y"


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


def test_dfs_route_rejects_multigraph(g4):
    with pytest.raises(ValueError):
        tutte_dfs(g4)


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
            assert poly.has_nonnegative_integer_coefficients()


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
        oracle = random_oracle(g4, 4)
        ref = weakref.ref(oracle)
        assert str(tutte_delta(g4, oracle)) == GOLDEN_G4
        del oracle
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
