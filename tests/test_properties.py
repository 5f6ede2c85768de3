"""Property tests over random small multigraphs with arbitrary edge ids."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tutte_activities import graph as gr  # noqa: E402
from tutte_activities.decision import (from_linear_order,  # noqa: E402
                                       random_oracle)
from tutte_activities.partition import (  # noqa: E402
    class_table, forest_partition_activity)
from tutte_activities.tutte import (  # noqa: E402
    tutte_definitional, tutte_delcon, tutte_delta, tutte_forest_activity)
from conftest import is_partition_of_lattice  # noqa: E402


@st.composite
def multigraphs(draw):
    """Connected, at most 4 vertices and 6 edges, loops and parallels allowed.

    A random spanning tree keeps the graph connected; the remaining edges
    join any two vertices.  Edge ids are distinct draws from 0..4m.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n - 1, 6))
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    ends += [(draw(vertex), draw(vertex)) for _ in range(m - len(ends))]
    ids = draw(st.lists(st.integers(0, 4 * m), min_size=m, max_size=m,
                        unique=True))
    return gr.Graph(n, [(e, u, v) for e, (u, v) in zip(ids, ends)])


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(multigraphs(), st.integers(-5, 1000))
def test_activity_routes_and_classes_on_any_ids(g, seed):
    reference = tutte_delcon(g)
    assert tutte_definitional(g) == reference
    oracle = random_oracle(g, seed)
    linear = from_linear_order(g.edge_ids)
    assert tutte_delta(g, oracle) == reference
    assert tutte_delta(g, linear) == reference
    assert tutte_forest_activity(g, oracle) == reference
    assert tutte_forest_activity(g, linear) == reference
    assert is_partition_of_lattice(
        forest_partition_activity(g, oracle).values(), g.edge_count())
    trees, table = class_table(g, oracle)
    assert sorted(table) == list(gr.submasks(g.full_edge_set()))
    assert trees == gr.spanning_trees(g)
    assert all(table[t] == i for i, t in enumerate(trees))
