"""Cross-check harness and small-graph generators.

The crosscheck runs every polynomial route and the structural theorems on
one graph (optionally with an embedding) and reports one line per check,
with the first counterexample when something fails.  The generators
enumerate small connected multigraphs up to isomorphism for exhaustive
testing; isomorphism uses brute-force canonical labelling, which is fine at
these sizes.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations

from . import graph as gr
from .classic import (blossoming_active, blossoming_internal_active,
                      dfs_active, dfs_active_by_inversion, dfs_forest,
                      embedding_active, maximal_active, order_map_oracle,
                      ordering_active, tau)
from .comb_map import CombMap, mirror, tour_order
from .decision import from_linear_order, random_oracle
from .engine import (TYPE_I, TYPE_L, TYPE_SE, TYPE_SI, decision_walk,
                     delta_activity, delta_ordering,
                     internal_active_no_contract, run_history, type_masks)
from .partition import SubgraphInterval, class_table, representative_tree
from .tutte import (tutte_definitional, tutte_delcon, tutte_delta,
                    tutte_dfs, tutte_forest_activity)


# -- canonical forms and generators -------------------------------------------


def canonical_form(g: gr.Graph):
    """Isomorphism-invariant key: lexicographically least relabelled edge list."""
    n = g.vertex_count
    best = None
    for perm in permutations(range(n)):
        key = tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v]))
            for _, u, v in g.edges))
        if best is None or key < best:
            best = key
    return (n, best)


def connected_multigraphs(max_edges, max_vertices=None):
    """All connected multigraphs (loops allowed) up to isomorphism.

    Every vertex must be covered, so a graph with m edges has at most m+1
    vertices.  Results are sorted by (vertex count, edge count, shape).
    """
    out = []
    seen = set()
    for m in range(1, max_edges + 1):
        n_cap = m + 1 if max_vertices is None else min(m + 1, max_vertices)
        for n in range(1, n_cap + 1):
            slots = [(u, v) for u in range(n) for v in range(u, n)]
            for combo in combinations_with_replacement(slots, m):
                edges = [(i, u, v) for i, (u, v) in enumerate(combo)]
                g = gr.Graph(n, edges)
                if not gr.is_connected(g):
                    continue
                key = canonical_form(g)
                if key in seen:
                    continue
                seen.add(key)
                out.append(g)
    out.sort(key=lambda g: (g.vertex_count, g.edge_count(),
                            canonical_form(g)))
    return out


def connected_simple_graphs(n_vertices, max_edges):
    """Connected simple loop-free graphs on a fixed vertex count, up to iso."""
    pairs = list(combinations(range(n_vertices), 2))
    out = []
    seen = set()
    for m in range(n_vertices - 1, min(len(pairs), max_edges) + 1):
        for combo in combinations(pairs, m):
            edges = [(i, u, v) for i, (u, v) in enumerate(combo)]
            g = gr.Graph(n_vertices, edges)
            if not gr.is_connected(g):
                continue
            key = canonical_form(g)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return out


def desk_corpus(minimum=200):
    """Deterministic corpus of connected graphs, <= 6 vertices, <= 8 edges.

    Exhaustive over small multigraphs, complete for simple graphs up to five
    vertices, plus a few six-vertex representatives.
    """
    graphs = list(connected_multigraphs(6, max_vertices=4))
    seen = {canonical_form(g) for g in graphs}
    for n in (5,):
        for g in connected_simple_graphs(n, 8):
            key = canonical_form(g)
            if key not in seen:
                seen.add(key)
                graphs.append(g)
    six = [
        gr.Graph(6, [(i, i, i + 1) for i in range(5)]),                 # path
        gr.Graph(6, [(i, 0, i + 1) for i in range(5)]),                 # star
        gr.Graph(6, [(i, i, (i + 1) % 6) for i in range(6)]),           # cycle
        gr.Graph(6, [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 4),
                     (4, 4, 5), (5, 5, 0), (6, 0, 3)]),                 # theta
        gr.Graph(6, [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 2, 3),
                     (4, 3, 4), (5, 4, 5), (6, 5, 3)]),                 # two triangles
    ]
    for g in six:
        key = canonical_form(g)
        if key not in seen:
            seen.add(key)
            graphs.append(g)
    if len(graphs) < minimum:
        raise AssertionError(
            f"corpus generator produced only {len(graphs)} graphs")
    return graphs


# -- crosscheck --------------------------------------------------------------


class CheckResult:
    def __init__(self, name, ok, detail=""):
        self.name = name
        self.ok = ok
        self.detail = detail

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        suffix = f"  ({self.detail})" if self.detail and not self.ok else ""
        return f"{status}  {self.name}{suffix}"


class CrosscheckReport:
    def __init__(self, results):
        self.results = results

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def text(self):
        lines = [r.line() for r in self.results]
        failed = sum(1 for r in self.results if not r.ok)
        lines.append(f"{len(self.results) - failed}/{len(self.results)} checks passed")
        return "\n".join(lines)


def _check(results, name, fn):
    try:
        detail = fn()
        results.append(CheckResult(name, True, detail or ""))
    except AssertionError as exc:
        results.append(CheckResult(name, False, str(exc)))


def _poly_route_checks(results, g, reference, name, oracle):
    def route(label, fn):
        def body():
            value = fn()
            assert value == reference, (
                f"{label} gave {value} instead of {reference}")
        _check(results, f"{label}[{name}]", body)

    route("tree-activity-sum", lambda: tutte_delta(g, oracle))
    route("forest-activity-sum", lambda: tutte_forest_activity(g, oracle))


def _structural_checks(results, g, name, oracle):
    def variants():
        for mask in gr.submasks(g.full_edge_set()):
            base = run_history(g, oracle, mask)
            for dl in (False, True):
                for ci in (False, True):
                    other = run_history(g, oracle, mask, delete_loops=dl,
                                        contract_isthmuses=ci)
                    assert other == base, (
                        f"variant ({dl},{ci}) diverged on subgraph {mask:#x}")
    _check(results, f"variant-invariance[{name}]", variants)

    def maximality():
        for t in gr.spanning_trees(g):
            order = delta_ordering(g, oracle, t)
            internal, external = delta_activity(g, oracle, t)
            expected = maximal_active(g, order, t)
            assert (internal, external) == expected, (
                f"maximality mismatch on tree {t:#x}")
    _check(results, f"maximality-rule[{name}]", maximality)

    def tiles():
        trees, _ = class_table(g, oracle)
        assert len(trees) == len(gr.spanning_trees(g))
    _check(results, f"interval-partition[{name}]", tiles)

    # The forest, connected and half-weight expansions equal the activity
    # route because every subgraph of a leaf's interval has its history.
    def walk_classes():
        full = g.full_edge_set()
        for t, internal, external in decision_walk(g, oracle):
            expected = {TYPE_SI: t & ~internal, TYPE_I: internal,
                        TYPE_L: external, TYPE_SE: full & ~(t | external)}
            for s in SubgraphInterval(t & ~internal, t | external).members():
                assert type_masks(run_history(g, oracle, s)) == expected, (
                    f"subgraph {s:#x} not typed like its leaf tree {t:#x}")
    _check(results, f"walk-classes[{name}]", walk_classes)

    def representative():
        for mask in gr.submasks(g.full_edge_set()):
            t = representative_tree(g, oracle, mask)
            assert gr.is_spanning_tree(g, t), f"non-tree class index {t:#x}"
            assert run_history(g, oracle, t) == run_history(g, oracle, mask), (
                f"subgraph {mask:#x} not equivalent to its tree")
    _check(results, f"representative-tree[{name}]", representative)

    def algint():
        for t in gr.spanning_trees(g):
            internal, _ = delta_activity(g, oracle, t)
            assert internal_active_no_contract(g, oracle, t) == internal, (
                f"contract-free internal actives differ on tree {t:#x}")
    _check(results, f"internal-actives-no-contract[{name}]", algint)


def _map_checks(results, m: CombMap):
    g = m.underlying_graph()
    mm = mirror(m)
    trees = gr.spanning_trees(g)

    def embedding_vs_mirror():
        for t in trees:
            _, mirror_order = tour_order(mm, t)
            assert embedding_active(m, t) == maximal_active(g, mirror_order, t), (
                f"mirror max rule diverges on tree {t:#x}")
    _check(results, "embedding-mirror-max", embedding_vs_mirror)

    embedding = order_map_oracle("embedding", g, m)

    def embedding_as_delta():
        for t in trees:
            assert delta_activity(g, embedding, t) == embedding_active(m, t), (
                f"embedding route diverges on tree {t:#x}")
    _check(results, "embedding-as-decision-oracle", embedding_as_delta)

    def embedding_descriptive():
        ref = tutte_definitional(g)
        value = tutte_delta(g, embedding)
        assert value == ref, f"embedding activity sums to {value}, not {ref}"
    _check(results, "embedding-descriptive", embedding_descriptive)

    def blossoming_checks():
        oracle = order_map_oracle("blossoming", g, m)
        for t in trees:
            internal = blossoming_internal_active(m, t)
            full = blossoming_active(m, t)
            assert full[0] == internal, f"pruning rule internal mismatch {t:#x}"
            assert delta_activity(g, oracle, t) == full, (
                f"blossoming oracle mismatch on {t:#x}")
        ref = tutte_definitional(g)
        assert tutte_delta(g, oracle) == ref
    _check(results, "blossoming-as-decision-oracle", blossoming_checks)

    def tau_preimage():
        for t in trees:
            internal = blossoming_internal_active(m, t)
            window = SubgraphInterval(t & ~internal, t)
            for f in gr.spanning_forests(g):
                assert (tau(m, f) == t) == (f in window), (
                    f"pruning preimage of {t:#x} wrong at forest {f:#x}")
    _check(results, "pruning-preimage-interval", tau_preimage)


def _dfs_checks(results, g):
    def active_rules():
        for f in gr.spanning_forests(g):
            assert dfs_active(g, f) == dfs_active_by_inversion(g, f), (
                f"inversion rule differs on forest {f:#x}")
    _check(results, "dfs-inversion-rule", active_rules)

    def as_delta():
        oracle = order_map_oracle("dfs", g)
        for t in gr.spanning_trees(g):
            internal, external = delta_activity(g, oracle, t)
            assert external == dfs_active(g, t), (
                f"dfs external actives differ on tree {t:#x}")
    _check(results, "dfs-as-decision-oracle", as_delta)

    def descriptive():
        ref = tutte_definitional(g)
        assert tutte_dfs(g) == ref, f"dfs route gave {tutte_dfs(g)}, not {ref}"
    _check(results, "dfs-descriptive", descriptive)


def crosscheck(g, oracles=None, comb_map=None, seeds=range(3)):
    """Run every route and theorem on one graph; return a report."""
    results = []
    if oracles is None:
        oracles = {"linear": from_linear_order(list(g.edge_ids))}
        for s in seeds:
            oracles[f"random:{s}"] = random_oracle(g, s)

    reference = tutte_definitional(g)

    def delcon():
        value = tutte_delcon(g)
        assert value == reference, f"{value} != {reference}"
    _check(results, "definitional-vs-delcon", delcon)

    polys = {}

    def identical_routes():
        assert len(set(polys.values())) <= 1
    for name, oracle in sorted(oracles.items()):
        _poly_route_checks(results, g, reference, name, oracle)
        _structural_checks(results, g, name, oracle)
        polys[name] = tutte_delta(g, oracle)
    _check(results, "oracles-agree", identical_routes)

    def ordering_reduction():
        order = list(g.edge_ids)
        oracle = from_linear_order(order)
        for t in gr.spanning_trees(g):
            assert ordering_active(g, order, t) == delta_activity(g, oracle, t)
    _check(results, "ordering-reduction", ordering_reduction)

    if comb_map is not None:
        _map_checks(results, comb_map)
    try:
        dfs_forest(g, 0)
    except ValueError:
        pass  # multiple edges: the DFS family does not apply
    else:
        _dfs_checks(results, g)
    return CrosscheckReport(results)
