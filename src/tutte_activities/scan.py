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

from . import graph as gr
from .engine import decision_walk
from .poly import BivariatePoly
from .tutte import tutte_definitional


class BudgetExceeded(Exception):
    pass


class _DictOracle:
    """Decision oracle backed by an explicit prefix -> edge table."""

    def __init__(self, table):
        self.table = table

    def next_edge(self, prefix):
        return self.table[tuple(prefix)]


def _enumerate_decision_functions(m):
    """Yield every prefix->edge table of a depth-m decision tree."""
    assignments = {}

    def rec(pending):
        if not pending:
            yield dict(assignments)
            return
        prefix, used = pending[0]
        rest = pending[1:]
        for e in range(m):
            if e in used:
                continue
            assignments[prefix] = e
            if len(prefix) + 1 < m:
                children = [(prefix + ("l",), used | {e}),
                            (prefix + ("r",), used | {e})]
            else:
                children = []
            yield from rec(children + rest)
        assignments.pop(prefix, None)

    yield from rec([((), frozenset())])


def decision_tree_activities(g):
    """All activity vectors realized by decision trees, as a set.

    A vector lists the active-edge mask of every spanning tree, trees in
    ascending mask order.  Exponential in the edge count; meant for the
    tiny graphs of the scan.
    """
    trees = gr.spanning_trees(g)
    m = g.edge_count()
    seen = set()
    for table in _enumerate_decision_functions(m):
        active = {t: internal | external for t, internal, external
                  in decision_walk(g, _DictOracle(table))}
        seen.add(tuple(active[t] for t in trees))
    return seen


def _interval_bits(g, tree, psi):
    """Bitset over subgraph indices of the interval [T - psi, T + psi]."""
    lower = tree & ~psi
    bits = 0
    for s in gr.submasks(psi):
        bits |= 1 << (lower | s)
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

    options = []
    for t in trees:
        options.append([(psi, _interval_bits(g, t, psi))
                        for psi in range(1 << m)])

    full = (1 << (1 << m)) - 1
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
        total = BivariatePoly.zero()
        for t, psi in zip(trees, vector):
            total = total + BivariatePoly.monomial(
                gr.popcount(psi & t), gr.popcount(psi & ~t))
        if total != reference:
            not_descriptive.append(vector)

    realized = decision_tree_activities(g)
    unrealized = [v for v in survivors if v not in realized]

    full_mask = g.full_edge_set()
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
