"""Tutte polynomial machinery built on decision-tree edge activities."""

from .graph import (Graph, cc, classify_edge, cycl, edge_ids, edge_set,
                    format_graph, is_connected, is_spanning_tree, load_graph,
                    parse_graph, save_graph, spanning_forests, spanning_trees)
from .comb_map import (CombMap, format_map, genus, load_map, map_contract,
                       map_delete, mirror, motion_function, parse_map,
                       save_map, tour_order)
from .poly import BivariatePoly
from .decision import (DecisionOracle, ExplicitTreeOracle, from_linear_order,
                       from_order_map, load_decision_tree, parse_decision_tree,
                       random_oracle)
from .engine import (decision_walk, delta_activity, delta_ordering,
                     forest_walk, internal_active_no_contract, run_history)
from .classic import (blossoming_active, blossoming_internal_active,
                      dfs_active, dfs_order_map, embedding_active,
                      make_oracle, ordering_active, tau)
from .tutte import (tutte_connected, tutte_definitional, tutte_delcon,
                    tutte_delta, tutte_dfs, tutte_forest,
                    tutte_forest_activity, tutte_half)
from .partition import (SubgraphInterval, forest_partition_activity,
                        forest_partition_types, partition, representative_tree)
from .harness import crosscheck, desk_corpus
from .scan import conjecture_scan

__all__ = [name for name in dir() if not name.startswith("_")]
