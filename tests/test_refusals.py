"""Refusals that no route of the other tests reaches: one input, one message."""

import pytest

from tutte_activities import graph as gr
from tutte_activities.classic import dfs_active_by_inversion, make_oracle
from tutte_activities.comb_map import CombMap, map_delete, parse_map
from tutte_activities.decision import LEFT, DecisionOracle, order_map_trie
from tutte_activities.poly import BivariatePoly
from conftest import fundamental_cocycle, fundamental_cycle

TRIANGLE = gr.Graph(3, [(0, 0, 1), (1, 1, 2), (2, 0, 2)])
LOOP_MAP = "halfedges 2\nsigma (a b)\nalpha (a b)\nroot a\n"


@pytest.mark.parametrize("call,message", [
    (lambda: CombMap([0, 1, 2], [1, 0, 2], 0),
     "need an even, positive number of half-edges"),
    (lambda: CombMap([0, 0], [1, 0], 0),
     "sigma and alpha must be permutations of 0..2m-1"),
    (lambda: CombMap([0, 1], [1, 0], 2), "root out of range"),
    (lambda: CombMap([0, 1], [1, 0], 0, ["a", "a"]),
     "names must be distinct, one per half-edge"),
    (lambda: CombMap([1.0, 0.0], [1, 0], 0),
     "sigma, alpha and root must be integers"),
    (lambda: CombMap([0, 1], [1, 0], 0.0),
     "sigma, alpha and root must be integers"),
    (lambda: parse_map(LOOP_MAP).edge_id_by_name("c"), "no edge named 'c'"),
    (lambda: map_delete(parse_map(LOOP_MAP), 0),
     "operation would leave an empty map"),
    (lambda: make_oracle("bfs", TRIANGLE), "unknown oracle spec 'bfs'"),
    (lambda: dfs_active_by_inversion(TRIANGLE, 0b111),
     "edge set is not its own DFS forest"),
    (lambda: order_map_trie(TRIANGLE, {t: (0, 1, 1) for t
                                       in gr.spanning_trees(TRIANGLE)}),
     "entry for tree 0x3 is not an edge permutation"),
    (lambda: gr.Graph(0, []), "vertex_count must be positive"),
    (lambda: gr.Graph(2, [(-1, 0, 1)]), "edge ids must be non-negative"),
    (lambda: gr.Graph(2, [(0, 0, 1), (4_000_000_000, 0, 1)]),
     "edge id 4000000000 is above the largest id, 1048576"),
    (lambda: gr.Graph(3, [(0.9, 0, 1), (1, 1, 2)]),
     "edge ids and endpoints must be integers, not (0.9, 0, 1)"),
    (lambda: gr.Graph(2.5, [(0, 0, 2)]),
     "vertex_count must be an integer, not 2.5"),
    (lambda: fundamental_cycle(TRIANGLE, 0b01, 2),
     "endpoints not connected in the given tree"),
    (lambda: fundamental_cocycle(gr.Graph(2, [(0, 0, 1), (1, 1, 1)]),
                                 0b11, 1),
     "a loop cannot belong to a spanning tree"),
    (lambda: BivariatePoly.one() ** -1, "negative power"),
    (lambda: BivariatePoly.from_machine_form("1,0,1/1"),
     "bad machine-form line: '1,0,1/1'"),
    (lambda: BivariatePoly.from_machine_form("(0,0,1/0)"),
     "bad machine-form line: '(0,0,1/0)'"),
    (lambda: BivariatePoly.from_machine_form("(0,0,1)"),
     "bad machine-form line: '(0,0,1)'"),
    (lambda: BivariatePoly.from_machine_form("(0,0,1/2,3)"),
     "bad machine-form line: '(0,0,1/2,3)'"),
    (lambda: BivariatePoly.from_machine_form("(0,0,1/1)\n(0, 0,2/1)"),
     "repeated machine-form term: '(0, 0,2/1)'"),
    (lambda: DecisionOracle([0, 1, 2], {(): 0}).next_edge((LEFT,)),
     "no edge for prefix 'l'"),
    (lambda: gr.parse_graph("vertices 3\nedge 0 0 1\nvertices 2\n"),
     "line 3: repeated 'vertices' line"),
    (lambda: parse_map("halfedges 2\nsigma (a)(b)\nsigma (a b)\n"
                       "alpha (a b)\nroot a\n"),
     "line 3: repeated 'sigma' line"),
], ids=["odd-half-edges", "sigma-not-a-permutation", "root-out-of-range",
        "repeated-names", "float-half-edge", "float-root",
        "unknown-edge-name", "delete-last-edge",
        "unknown-family", "not-its-own-dfs-forest", "trie-not-a-permutation",
        "no-vertices", "negative-id", "huge-id", "float-id",
        "float-vertex-count", "tree-path-across-components",
        "cocycle-of-a-loop", "negative-power", "bad-machine-form-line",
        "machine-form-zero-denominator", "machine-form-no-denominator",
        "machine-form-four-fields", "machine-form-repeated-term",
        "prefix-not-in-table",
        "repeated-vertices", "repeated-sigma"])
def test_refusal_names_its_cause(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("key", ["halfedges", "alpha", "root"])
def test_a_repeated_map_line_is_refused(key):
    lines = LOOP_MAP.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith(key))
    lines.insert(k + 1, lines[k])
    with pytest.raises(ValueError) as exc:
        parse_map("\n".join(lines))
    assert str(exc.value) == f"line {k + 2}: repeated {key!r} line"
