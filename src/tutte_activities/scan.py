"""Exhaustive scan for strongly Tutte-descriptive activities.

An activity assigns each spanning tree a set of edges.  It is strongly
Tutte-descriptive when the intervals [T - psi(T), T + psi(T)] over the
spanning trees tile the whole subgraph lattice.  The scan enumerates every
assignment (with heavy pruning on the tiling condition), then reports two
findings for the survivors: whether each one is realized by some decision
tree, and whether each one leaves some edge inactive in every tree whenever
the graph has a standard edge.  Counterexamples are reported verbatim and
never asserted absent.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from . import graph as gr
from .decision import LEFT, RIGHT, DecisionOracle
from .engine import decision_walk
from .poly import BivariatePoly
from .tutte import tutte_definitional


class BudgetExceeded(ValueError):
    pass


def _enumerate_decision_functions(edge_ids):
    """Yield every prefix->edge table of a decision tree over the edge ids."""
    def subtrees(prefix, unused):
        if not unused:
            yield {}
            return
        for e in unused:
            rest = tuple(f for f in unused if f != e)
            for left, right in product(subtrees(prefix + (LEFT,), rest),
                                       subtrees(prefix + (RIGHT,), rest)):
                yield {prefix: e, **left, **right}

    yield from subtrees((), tuple(sorted(edge_ids)))


def decision_tree_activities(g):
    """All activity vectors realized by decision trees, as a set.

    A vector lists the active-edge mask of every spanning tree, trees in
    ascending mask order.  Exponential in the edge count; meant for the
    tiny graphs of the scan.
    """
    trees = gr.spanning_trees(g)
    # One oracle whose table is swapped per decision tree: building 576
    # oracles per graph cost the scan about 2%.
    oracle = DecisionOracle(g.edge_ids)
    seen = set()
    for table in _enumerate_decision_functions(oracle.edge_ids):
        oracle.table = table
        active = {t: internal | external for t, internal, external
                  in decision_walk(g, oracle)}
        seen.add(tuple(active[t] for t in trees))
    return seen


def _interval_bits(tree, psi, index):
    """Bitset over subgraph indices of the interval [T - psi, T + psi]."""
    lower = tree & ~psi
    bits = 0
    for s in gr.submasks(psi):
        bits |= 1 << index[lower | s]
    return bits


class ScanReport:
    def __init__(self, g, trees, candidate_count, survivors,
                 unrealized, has_standard_edge, no_inactive_edge,
                 not_descriptive):
        self.graph = g
        self.trees = trees
        self.candidate_count = candidate_count
        self.survivors = survivors
        self.unrealized = unrealized
        self.has_standard_edge = has_standard_edge
        self.no_inactive_edge = no_inactive_edge
        self.not_descriptive = not_descriptive

    @property
    def conjecture1_counterexamples(self):
        return self.unrealized

    @property
    def conjecture2_counterexamples(self):
        return self.no_inactive_edge if self.has_standard_edge else []

    def text(self):
        lines = [
            f"graph: {self.graph.vertex_count} vertices, "
            f"{self.graph.edge_count()} edges",
            f"candidate activities: {self.candidate_count}",
            f"strongly descriptive: {len(self.survivors)}",
        ]
        if self.not_descriptive:
            lines.append(
                f"ANOMALY: {len(self.not_descriptive)} tiling activities "
                f"fail the polynomial identity: {self.not_descriptive}")
        if self.unrealized:
            lines.append(
                f"counterexample (realizability): activities not induced by "
                f"any decision tree: {self.unrealized}")
        else:
            lines.append("all survivors realized by decision trees")
        if self.has_standard_edge:
            if self.no_inactive_edge:
                lines.append(
                    f"counterexample (inactive edge): survivors with every "
                    f"edge active somewhere: {self.no_inactive_edge}")
            else:
                lines.append("every survivor leaves some edge never active")
        else:
            lines.append("no standard edge; inactive-edge check not applicable")
        return "\n".join(lines)


def conjecture_scan(g, budget=2 ** 22) -> ScanReport:
    """Enumerate activities, keep lattice tilings, check the two findings."""
    if not gr.is_connected(g):
        raise ValueError("graph must be connected")
    trees = gr.spanning_trees(g)
    m = g.edge_count()
    candidate_count = (1 << m) ** len(trees)
    if candidate_count > budget:
        raise BudgetExceeded(
            f"{candidate_count} candidate activities exceed budget {budget}")

    full_mask = g.full_edge_set()
    # Bit i stands for the i-th subgraph, whatever the edge ids.
    index = {s: i for i, s in enumerate(gr.submasks(full_mask))}
    options = []
    for t in trees:
        options.append([(psi, _interval_bits(t, psi, index))
                        for psi in gr.submasks(full_mask)])

    full = _interval_bits(0, full_mask, index)
    survivors = []
    chosen = []

    def rec(idx, used_bits):
        if idx == len(trees):
            if used_bits == full:
                survivors.append(tuple(chosen))
            return
        for psi, bits in options[idx]:
            if used_bits & bits:
                continue
            chosen.append(psi)
            rec(idx + 1, used_bits | bits)
            chosen.pop()

    rec(0, 0)
    survivors.sort()

    reference = tutte_definitional(g)
    not_descriptive = []
    for vector in survivors:
        total = BivariatePoly(Counter(
            (gr.popcount(psi & t), gr.popcount(psi & ~t))
            for t, psi in zip(trees, vector)))
        if total != reference:
            not_descriptive.append(vector)

    realized = decision_tree_activities(g)
    unrealized = [v for v in survivors if v not in realized]

    has_standard = any(gr.classify_edge(g, eid) == gr.STANDARD
                       for eid in g.edge_ids)
    no_inactive = []
    for vector in survivors:
        ever_active = 0
        for psi in vector:
            ever_active |= psi
        if ever_active == full_mask:
            no_inactive.append(vector)

    return ScanReport(g, trees, candidate_count, survivors, unrealized,
                      has_standard, no_inactive, not_descriptive)
