"""History equivalence and the tree-indexed interval partition of 2^E.

Two spanning subgraphs are equivalent when the typing pass produces the same
history.  Each equivalence class is the subgraph interval
[S - Act(S), S + Act(S)] and contains exactly one spanning tree, whose edges
are those typed Si or I.  Summed per class, the subgraph-definition weights
collapse to the tree's activity monomial; the classes therefore tile the
boolean lattice of subgraphs by spanning trees.
"""

from __future__ import annotations

from . import graph as gr
from .engine import (TYPE_I, TYPE_SI, active_mask, decision_walk,
                     forest_active, run_history, type_masks)

MATERIALIZE_MAX_EDGES = 20


class SubgraphInterval:
    """All subgraphs between a lower and an upper edge set (inclusive)."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper):
        if lower & ~upper:
            raise ValueError("lower bound must be contained in upper bound")
        self.lower = lower
        self.upper = upper

    def __contains__(self, mask):
        return not (self.lower & ~mask) and not (mask & ~self.upper)

    def size(self):
        return 1 << gr.popcount(self.upper & ~self.lower)

    def members(self):
        for s in gr.submasks(self.upper & ~self.lower):
            yield self.lower | s

    def __eq__(self, other):
        return (isinstance(other, SubgraphInterval)
                and self.lower == other.lower and self.upper == other.upper)

    def __repr__(self):
        return f"SubgraphInterval({self.lower:#x}, {self.upper:#x})"


def equivalent(g, oracle, mask_a, mask_b) -> bool:
    """Whether two subgraphs share the same history."""
    return (run_history(g, oracle, mask_a) == run_history(g, oracle, mask_b))


def representative_tree(g, oracle, mask) -> int:
    """The spanning tree equivalent to the subgraph: its Si and I edges."""
    masks = type_masks(run_history(g, oracle, mask))
    return masks[TYPE_SI] | masks[TYPE_I]


def interval_of(g, oracle, mask) -> SubgraphInterval:
    """The equivalence class of a subgraph as an interval."""
    act = active_mask(run_history(g, oracle, mask))
    return SubgraphInterval(mask & ~act, mask | act)


def partition(g, oracle):
    """Map each spanning tree to its interval [T - I(T), T + E(T)].

    The trees are the leaves of one decision-tree walk, in ascending order.
    """
    return {t: SubgraphInterval(t & ~internal, t | external)
            for t, internal, external in sorted(decision_walk(g, oracle))}


def class_table(g, oracle):
    """Array over subgraph masks: index of the class tree (or -1).

    Materialized assignment of every subgraph to its interval; capped to
    keep the table size sane.
    """
    m = g.edge_count()
    if m > MATERIALIZE_MAX_EDGES:
        raise ValueError(
            f"materialization is capped at {MATERIALIZE_MAX_EDGES} edges; "
            "use representative_tree for point queries")
    parts = partition(g, oracle)
    trees = sorted(parts)
    table = [-1] * (1 << m)
    for idx, t in enumerate(trees):
        for member in parts[t].members():
            if table[member] != -1:
                raise AssertionError("intervals overlap")
            table[member] = idx
    if any(x == -1 for x in table):
        raise AssertionError("intervals do not cover the subgraph lattice")
    return trees, table


def forest_partition_types(g, oracle):
    """Map each spanning forest to [F, F + (type-L edges of F)].

    The forests typed like the walk's leaf (T, I, E) are T minus any part of
    I, and each has type-L edges E.  Forests come in ascending order.
    """
    out = {}
    for t, internal, external in decision_walk(g, oracle):
        for dropped in gr.submasks(internal):
            f = t ^ dropped
            out[f] = SubgraphInterval(f, f | external)
    return dict(sorted(out.items()))


def forest_partition_activity(g, oracle):
    """Map each spanning forest to [F, F + active(F)] with the forest rule."""
    out = {}
    for f in gr.spanning_forests(g):
        out[f] = SubgraphInterval(f, f | forest_active(g, oracle, f))
    return out


def is_partition_of_lattice(intervals, m) -> bool:
    """Whether the intervals tile all 2^m subgraphs without overlap."""
    seen = 0
    total = 0
    for interval in intervals:
        for member in interval.members():
            bit = 1 << member
            if seen & bit:
                return False
            seen |= bit
            total += 1
    return total == (1 << m)
