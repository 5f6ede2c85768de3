"""Edge typing, histories, and the interval partition of the subgraph lattice.

Running the typing pass on every spanning subgraph groups the subgraphs by
history.  Each class is an interval of the boolean lattice, contains exactly
one spanning tree, and contributes one activity monomial to the Tutte
polynomial.
"""

from pathlib import Path

from tutte_activities import (load_decision_tree, load_graph, partition,
                              representative_tree, run_history)
from tutte_activities import graph as gr
from tutte_activities.engine import format_history

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

g = load_graph(FIXTURES / "graphs" / "parallel_triangle.graph")
oracle = load_decision_tree(FIXTURES / "trees" / "parallel_triangle.tree",
                            g.edge_ids)
letters = "abcd"


def show(mask):
    return "{" + ",".join(letters[e] for e in gr.edge_ids(mask)) + "}"


# The history of one subgraph: visit order plus the type each edge receives.
subgraph = gr.edge_set([0, 3])  # {a,d}
print(f"history of {show(subgraph)}:")
print(format_history(run_history(g, oracle, subgraph),
                     lambda e: letters[e]))

# Histories induce an equivalence; every class is an interval indexed by
# its unique spanning tree.
print("\nclass intervals:")
for tree, interval in sorted(partition(g, oracle).items()):
    members = ", ".join(show(s) for s in interval.members())
    print(f"  tree {show(tree)}: [{show(interval.lower)}, "
          f"{show(interval.upper)}]  = {{{members}}}")

# Equivalence and representatives.
print("\nempty set ~ {b,d}:", run_history(g, oracle, 0)
      == run_history(g, oracle, gr.edge_set([1, 3])))
print("{a} ~ {c}:", run_history(g, oracle, 1) == run_history(g, oracle, 4))
full = g.full_edge_set()
print("representative tree of the full subgraph:",
      show(representative_tree(g, oracle, full)))
