import pathlib

import pytest

from tutte_activities import graph as gr
from tutte_activities import load_decision_tree, load_graph, load_map
from tutte_activities.harness import desk_corpus

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
