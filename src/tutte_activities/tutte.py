"""Independent computations of the Tutte polynomial.

Every route returns an exact BivariatePoly.  The subgraph-sum definition and
the deletion/contraction recursion need no extra data; the remaining routes
take a decision oracle (or a ready-made activity) and sum monomials over
spanning trees, forests, connected subgraphs or all subgraphs.  The forest
sums use base (x-1) on the component count; the single-isthmus graph forces
that choice (a bare x base would give x+1 instead of x).
"""

from __future__ import annotations

from fractions import Fraction

from . import graph as gr
from .classic import dfs_active
from .engine import (TYPE_I, TYPE_L, decision_walk, forest_active,
                     run_history, type_masks)
from .poly import BivariatePoly, x_minus_1_pow, y_minus_1_pow


def tutte_definitional(g) -> BivariatePoly:
    """Sum (x-1)^(cc(S)-cc(G)) (y-1)^cycl(S) over all spanning subgraphs."""
    if not gr.is_connected(g):
        raise ValueError("graph must be connected")
    m = g.edge_count()
    counts = {}
    for mask in range(1 << m):
        key = (gr.cc(g, mask) - 1, gr.cycl(g, mask))
        counts[key] = counts.get(key, 0) + 1
    total = BivariatePoly.zero()
    for (a, b), mult in sorted(counts.items()):
        total = total + (x_minus_1_pow(a) * y_minus_1_pow(b)).scale(mult)
    return total


def tutte_delcon(g, memoize=False) -> BivariatePoly:
    """Deletion/contraction recursion pivoting on the smallest edge id.

    With memoize=True, intermediate results are cached under an
    isomorphism-invariant key, trading canonicalization time for shared
    subproblems; results are identical either way.
    """
    if not gr.is_connected(g):
        raise ValueError("graph must be connected")
    cache = {} if memoize else None

    def rec(h):
        if h.edge_count() == 0:
            return BivariatePoly.one()
        if cache is not None:
            from .harness import canonical_form
            key = canonical_form(h)
            hit = cache.get(key)
            if hit is not None:
                return hit
        eid = h.edges[0][0]
        kind = gr.classify_edge(h, eid)
        if kind == gr.LOOP:
            value = BivariatePoly.y() * rec(gr.delete(h, eid))
        elif kind == gr.ISTHMUS:
            value = BivariatePoly.x() * rec(gr.contract(h, eid))
        else:
            value = rec(gr.delete(h, eid)) + rec(gr.contract(h, eid))
        if cache is not None:
            cache[key] = value
        return value

    return rec(g)


def tutte_activity(g, activity) -> BivariatePoly:
    """Sum x^|internal active| y^|external active| over spanning trees.

    `activity` maps a spanning-tree mask to the (internal, external) pair.
    """
    total = BivariatePoly.zero()
    for t in gr.spanning_trees(g):
        internal, external = activity(t)
        total = total + BivariatePoly.monomial(gr.popcount(internal),
                                               gr.popcount(external))
    return total


def tutte_delta(g, oracle) -> BivariatePoly:
    """The activity route: one monomial per leaf of the decision-tree walk."""
    counts = {}
    for _, internal, external in decision_walk(g, oracle):
        key = (gr.popcount(internal), gr.popcount(external))
        counts[key] = counts.get(key, 0) + 1
    return BivariatePoly(counts)


def _type_counts(g, oracle, mask):
    masks = type_masks(run_history(g, oracle, mask))
    return gr.popcount(masks[TYPE_I]), gr.popcount(masks[TYPE_L])


def tutte_forest(g, oracle) -> BivariatePoly:
    """Sum (x-1)^(cc(F)-1) y^(#type-L edges) over spanning forests."""
    total = BivariatePoly.zero()
    for f in gr.spanning_forests(g):
        _, nl = _type_counts(g, oracle, f)
        total = total + x_minus_1_pow(gr.cc(g, f) - 1) * \
            BivariatePoly.monomial(0, nl)
    return total


def tutte_connected(g, oracle) -> BivariatePoly:
    """Sum x^(#type-I edges) (y-1)^cycl(K) over connected subgraphs."""
    total = BivariatePoly.zero()
    m = g.edge_count()
    for mask in range(1 << m):
        if gr.cc(g, mask) != 1:
            continue
        ni, _ = _type_counts(g, oracle, mask)
        total = total + BivariatePoly.monomial(ni, 0) * \
            y_minus_1_pow(gr.cycl(g, mask))
    return total


def tutte_half(g, oracle) -> BivariatePoly:
    """Sum (x/2)^(#type-I) (y/2)^(#type-L) over all spanning subgraphs.

    Individual terms have fractional coefficients; the total must come out
    with integer ones, which the callers assert against the other routes.
    """
    total = BivariatePoly.zero()
    m = g.edge_count()
    half = {}
    for mask in range(1 << m):
        ni, nl = _type_counts(g, oracle, mask)
        half[(ni, nl)] = half.get((ni, nl), 0) + 1
    for (ni, nl), mult in sorted(half.items()):
        coeff = Fraction(mult, 2 ** (ni + nl))
        total = total + BivariatePoly.monomial(ni, nl, coeff)
    return total


def tutte_forest_activity(g, oracle) -> BivariatePoly:
    """Sum (x-1)^(cc(F)-1) y^|active(F)| with the loop-at-visit forest rule."""
    total = BivariatePoly.zero()
    for f in gr.spanning_forests(g):
        active = forest_active(g, oracle, f)
        total = total + x_minus_1_pow(gr.cc(g, f) - 1) * \
            BivariatePoly.monomial(0, gr.popcount(active))
    return total


def tutte_dfs(g) -> BivariatePoly:
    """Sum (x-1)^(cc(F)-1) y^|DFS-active(F)| over spanning forests."""
    if not gr.is_connected(g):
        raise ValueError("graph must be connected")
    total = BivariatePoly.zero()
    for f in gr.spanning_forests(g):
        active = dfs_active(g, f)
        total = total + x_minus_1_pow(gr.cc(g, f) - 1) * \
            BivariatePoly.monomial(0, gr.popcount(active))
    return total
