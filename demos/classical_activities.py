"""The four classical activity notions, each realized by a decision oracle.

Ordering activity needs a linear edge order, embedding activity an embedded
map, blossoming activity a pruning walk on the map, DFS activity a vertex
labelling.  Each has a decision oracle whose activity coincides with it,
which is what makes all of them describe the same polynomial.
"""

from pathlib import Path

from tutte_activities import (blossoming_active, blossoming_internal_active,
                              dfs_active, dfs_order_map, embedding_active,
                              from_linear_order, load_graph, load_map,
                              make_oracle, ordering_active,
                              spanning_trees, tau)
from tutte_activities import graph as gr
from tutte_activities.classic import blossoming_first_visit_order
from tutte_activities.engine import delta_activity

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

def letters(mask):
    return "{" + ",".join("abcde"[e] for e in gr.edge_ids(mask)) + "}"


# 1. ordering activity: minimal in the fundamental cycle/cocycle
g = load_graph(FIXTURES / "graphs" / "parallel_triangle.graph")
order = [0, 1, 2, 3]
tree = gr.edge_set([0, 2])
internal, external = ordering_active(g, order, tree)
print("ordering-active for the tree {a,c} under a<b<c<d:",
      "internal", letters(internal), "external", letters(external))
oracle = from_linear_order(order)
print("  same from the level-constant oracle:",
      delta_activity(g, oracle, tree) == ordering_active(g, order, tree))

# 2. embedding activity: minimal for the tour order; realized through the
# mirror map's tour orders
m = load_map(FIXTURES / "maps" / "parallel_triangle.map")
gm = m.underlying_graph()
embedding_oracle = make_oracle("embedding", gm, m)
agree = all(delta_activity(gm, embedding_oracle, t) == embedding_active(m, t)
            for t in spanning_trees(gm))
print("\nembedding activity equals its oracle's activity on every tree:", agree)

# 3. blossoming activity: the pruning walk turns forests into trees
p = load_map(FIXTURES / "maps" / "pruning_planar.map")
gp = p.underlying_graph()
forest = gr.edge_set([p.edge_id_by_name("d")])
print("\npruning the forest {d} leaves the tree:",
      sorted(p.edge_name(e) for e in gr.edge_ids(tau(p, forest))))
t = gr.edge_set([p.edge_id_by_name("c"), p.edge_id_by_name("d")])
print("internally blossoming-active edges of {c,d}:",
      [p.edge_name(e) for e in gr.edge_ids(blossoming_internal_active(p, t))])
print("first-visit order of the walk:",
      " < ".join(p.edge_name(e) for e in blossoming_first_visit_order(p, t)))
blo_int, blo_ext = blossoming_active(p, t)
print("full blossoming activity: internal",
      [p.edge_name(e) for e in gr.edge_ids(blo_int)], "external",
      [p.edge_name(e) for e in gr.edge_ids(blo_ext)])

# 4. DFS activity: greatest-neighbor depth-first search
s = load_graph(FIXTURES / "graphs" / "dfs_five.graph")
tree = gr.edge_set([0, 2, 4])
print("\nmarking-DFS edge order on {a,c,e}:",
      [" abcde"[e + 1] for e in dfs_order_map(s, tree)])
print("DFS-active externals:", ["abcde"[e] for e in gr.edge_ids(dfs_active(s, tree))])
dfs_oracle = make_oracle("dfs", s)
print("  same external set from the DFS oracle:",
      delta_activity(s, dfs_oracle, tree)[1] == dfs_active(s, tree))
