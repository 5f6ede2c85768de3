"""Computations of the Tutte polynomial.

Every route returns an exact BivariatePoly.  The subgraph-sum definition and
the deletion/contraction recursion need no extra data; the remaining routes
take a decision oracle (or a ready-made activity) and sum monomials over
spanning trees, forests, connected subgraphs or all subgraphs.  Each route
tallies the exponents of its terms and expands the tally once.

The oracle's subgraph sums read one walk of the decision tree.  The
subgraphs typed like the leaf (T, I, E) are those of [T - I, T + E]: each
types I as I, E as L, the rest of T as Si and every other edge as Se.  Summed
over such a class, the forest, connected and half-weight expansions each give
the leaf's activity monomial x^|I| y^|E|, so those three routes return the
activity route's polynomial.  What they rest on, that every subgraph of the
interval has that history, is checked against the typing pass by the
crosscheck harness.  The forest sums use base (x-1) on the component count;
the single-isthmus graph forces that choice (a bare x base would give x+1
instead of x).
"""

from __future__ import annotations

from collections import Counter

from . import graph as gr
from .classic import dfs_active
from .engine import decision_walk, forest_active
from .poly import BivariatePoly


def tutte_definitional(g) -> BivariatePoly:
    """Sum (x-1)^(cc(S)-cc(G)) (y-1)^cycl(S) over all spanning subgraphs."""
    if not gr.is_connected(g):
        raise ValueError("graph must be connected")
    tally = Counter((gr.cc(g, s) - 1, gr.cycl(g, s))
                    for s in gr.submasks(g.full_edge_set()))
    return BivariatePoly(tally).substitute_shift(-1, -1)


def tutte_delcon(g) -> BivariatePoly:
    """Deletion/contraction recursion pivoting on the smallest edge id."""
    if not gr.is_connected(g):
        raise ValueError("graph must be connected")

    def rec(h):
        if h.edge_count() == 0:
            return BivariatePoly.one()
        eid = h.edges[0][0]
        kind = gr.classify_edge(h, eid)
        if kind == gr.LOOP:
            return BivariatePoly.y() * rec(gr.delete(h, eid))
        if kind == gr.ISTHMUS:
            return BivariatePoly.x() * rec(gr.contract(h, eid))
        return rec(gr.delete(h, eid)) + rec(gr.contract(h, eid))

    return rec(g)


def tutte_activity(g, activity) -> BivariatePoly:
    """Sum x^|internal active| y^|external active| over spanning trees.

    `activity` maps a spanning-tree mask to the (internal, external) pair.
    """
    tally = Counter()
    for t in gr.spanning_trees(g):
        internal, external = activity(t)
        tally[gr.popcount(internal), gr.popcount(external)] += 1
    return BivariatePoly(tally)


def tutte_delta(g, oracle) -> BivariatePoly:
    """The activity route: one monomial per leaf of the decision-tree walk."""
    return BivariatePoly(Counter(
        (gr.popcount(internal), gr.popcount(external))
        for _, internal, external in decision_walk(g, oracle)))


def tutte_forest(g, oracle) -> BivariatePoly:
    """Sum (x-1)^(cc(F)-1) y^(#type-L edges) over spanning forests.

    The forests of the leaf (T, I, E) are T - D for D within I, with
    1 + |D| components and type-L set E: by the binomial theorem the class
    sums to x^|I| y^|E|.
    """
    return tutte_delta(g, oracle)


def tutte_connected(g, oracle) -> BivariatePoly:
    """Sum x^(#type-I edges) (y-1)^cycl(K) over connected subgraphs.

    The connected subgraphs of the leaf (T, I, E) are T + A for A within E,
    with cyclomatic number |A| and type-I set I: the class sums to
    x^|I| y^|E|.
    """
    return tutte_delta(g, oracle)


def tutte_half(g, oracle) -> BivariatePoly:
    """Sum (x/2)^(#type-I) (y/2)^(#type-L) over all spanning subgraphs.

    The leaf (T, I, E) holds 2^(|I|+|E|) subgraphs, each of weight
    (x/2)^|I| (y/2)^|E|: the class sums to x^|I| y^|E|.
    """
    return tutte_delta(g, oracle)


def _forest_sum(g, active) -> BivariatePoly:
    """Sum (x-1)^(cc(F)-1) y^|active(F)| over spanning forests."""
    tally = Counter((gr.cc(g, f) - 1, gr.popcount(active(f)))
                    for f in gr.spanning_forests(g))
    return BivariatePoly(tally).substitute_shift(-1, 0)


def tutte_forest_activity(g, oracle) -> BivariatePoly:
    """Sum (x-1)^(cc(F)-1) y^|active(F)| with the loop-at-visit forest rule."""
    return _forest_sum(g, lambda f: forest_active(g, oracle, f))


def tutte_dfs(g) -> BivariatePoly:
    """Sum (x-1)^(cc(F)-1) y^|DFS-active(F)| over spanning forests."""
    if not gr.is_connected(g):
        raise ValueError("graph must be connected")
    return _forest_sum(g, lambda f: dfs_active(g, f))
