"""Cross-check harness and small-graph generators.

The crosscheck runs every polynomial route and the structural theorems on
one graph (optionally with an embedding) and reports one line per check,
with the first counterexample when something fails.  Every oracle it can
name, the classical families' included, is built from its spec by
`classic.make_oracle` and takes the same per-oracle checks.  Each fact the
checks share is computed once, such as one typing table per oracle.  The
generators enumerate small connected multigraphs up to isomorphism for
exhaustive testing.  They grow edge lists and extend only those that equal
their exact canonical form, found by a labelling search that branches only
where vertices tie (`canonical_form`); all 1,681 connected multigraphs with
at most seven edges come out in about a second.
"""

from __future__ import annotations

from . import graph as gr
from .classic import (blossoming_active, blossoming_internal_active,
                      dfs_active, dfs_active_by_inversion, dfs_order_map,
                      embedding_active, make_oracle, maximal_active,
                      ordering_active, tau)
from .comb_map import CombMap, mirror, tour_order
from .engine import (TYPE_I, TYPE_L, TYPE_SE, TYPE_SI, decision_walk,
                     delta_ordering, forest_walk, internal_active_no_contract,
                     run_history, type_masks)
from .partition import MATERIALIZE_MAX_EDGES, SubgraphInterval, class_table
from .tutte import (tutte_definitional, tutte_delcon, tutte_delta,
                    tutte_forest_activity)


# -- canonical forms and generators -------------------------------------------


def canonical_form(g: gr.Graph):
    """Isomorphism-invariant key: lexicographically least relabelled edge list.

    The key is (n, the least over vertex labellings of the sorted list of
    (min, max) label pairs), found without trying all n! labellings.  Read
    the pairs as counts over the slots (0, 0), (0, 1), ..., (n-1, n-1) in
    lexicographic order: row k holds the loops at label k, then the edges
    from k to labels k+1, ..., n-1.  Two sorted lists of m pairs first
    differ where one has more copies of a slot, and that one is the
    smaller; so the least list is the greatest count vector read row by row.

    Labels are given in order.  Rows 0..k-1 are greatest only when the
    unlabelled vertices sit in an ordered partition, each earlier row
    splitting every cell by multiplicity to its vertex, descending.  Label
    k goes to a vertex of the first cell, which fixes row k.  Only the
    vertices that give the greatest row k are tried further; they tie on
    rows 0..k, but later rows can tell them apart, so each of them branches.
    A branch whose rows fall below the best complete labelling stops.
    """
    return _canonical(g.vertex_count, [(u, v) for _, u, v in g.edges])


def _canonical(n, pairs):
    """`canonical_form` of the graph on n vertices with these end pairs."""
    mult = [[0] * n for _ in range(n)]
    for u, v in pairs:
        mult[u][v] += 1
        if u != v:
            mult[v][u] += 1
    best = []  # the rows of the best complete labelling so far

    def search(cells, rows):
        nonlocal best
        if not cells:
            best = max(best, rows)
            return
        first, rest = cells[0], cells[1:]
        top, options = None, []
        for v in first:
            to_v = mult[v]
            row, split = [to_v[v]], []
            for cell in ([w for w in first if w != v], *rest):
                groups = {}
                for w in cell:
                    groups.setdefault(to_v[w], []).append(w)
                for count in sorted(groups, reverse=True):
                    split.append(groups[count])
                    row += [count] * len(groups[count])
            if top is None or row > top:
                top, options = row, [split]
            elif row == top:
                options.append(split)
        rows = rows + [top]
        if rows < best[:len(rows)]:
            return
        for split in options:
            search(split, rows)

    search([list(range(n))], [])
    key = []
    for k, row in enumerate(best):
        for j, count in enumerate(row):
            key += [(k, k + j)] * count
    return (n, tuple(key))


def _least_lists(n, max_edges, loops):
    """Each class of connected graphs on n vertices with at most max_edges
    edges, as its `_canonical` key, by edge count and then key.

    An orderly search (Read, 1978): a list grows by a slot at or after its
    last one (strictly after when `loops` is false, which also bars loops)
    and a child is kept only when `_canonical` returns it.  Dropping the
    largest pair of a least list leaves a least list, so each class is
    reached once, at its least member.  A list whose components, isolated
    vertices counted, cannot all be joined by the edges left is dropped.
    """
    slots = [(u, v) for u in range(n) for v in range(u + (not loops), n)]
    found = []

    def grow(combo, labels, parts, start):
        if parts == 1:
            found.append(combo)
        for i in range(start, len(slots)):
            u, v = slots[i]
            a, b = labels[u], labels[v]
            child, child_parts = combo + ((u, v),), parts - (a != b)
            if (child_parts - 1 > max_edges - len(child)
                    or _canonical(n, child)[1] != child):
                continue
            grow(child, [a if x == b else x for x in labels], child_parts,
                 i + (not loops))

    if n - 1 <= max_edges:
        grow((), list(range(n)), n, 0)
    return sorted(found, key=len)  # stable: preorder is lexicographic


def _graph(n, pairs):
    return gr.Graph(n, [(i, u, v) for i, (u, v) in enumerate(pairs)])


def connected_multigraphs(max_edges, max_vertices=None):
    """All connected multigraphs (loops allowed) up to isomorphism.

    Every vertex must be covered, so a graph with m edges has at most m+1
    vertices.  Results are sorted by (vertex count, edge count, shape).
    """
    n_cap = max_edges + 1 if max_vertices is None else min(max_edges + 1,
                                                            max_vertices)
    return [_graph(n, combo) for n in range(1, n_cap + 1)
            for combo in _least_lists(n, max_edges, True) if combo]


def connected_simple_graphs(n_vertices, max_edges):
    """Connected simple loop-free graphs on a fixed vertex count, up to iso."""
    if n_vertices < 1:
        raise ValueError(f"n_vertices must be at least 1, not {n_vertices}")
    return [_graph(n_vertices, combo)
            for combo in _least_lists(n_vertices, max_edges, False)]


DESK_CORPUS_MINIMUM = 200


def desk_corpus():
    """Deterministic corpus of connected graphs, <= 6 vertices, <= 8 edges.

    Exhaustive over small multigraphs, complete for simple graphs up to five
    vertices, plus a few six-vertex representatives.
    """
    # The three families have 1-4, 5 and 6 vertices: none repeats another's.
    graphs = connected_multigraphs(6, max_vertices=4)
    graphs += connected_simple_graphs(5, 8)
    graphs += [
        gr.Graph(6, [(i, i, i + 1) for i in range(5)]),                 # path
        gr.Graph(6, [(i, 0, i + 1) for i in range(5)]),                 # star
        gr.Graph(6, [(i, i, (i + 1) % 6) for i in range(6)]),           # cycle
        gr.Graph(6, [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 4),
                     (4, 4, 5), (5, 5, 0), (6, 0, 3)]),                 # theta
        gr.Graph(6, [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 2, 3),
                     (4, 3, 4), (5, 4, 5), (6, 5, 3)]),                 # two triangles
    ]
    if len(graphs) < DESK_CORPUS_MINIMUM:
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


def _route_check(results, label, name, value, reference):
    def body():
        assert value == reference, (
            f"{label} gave {value} instead of {reference}")
    _check(results, f"{label}[{name}]", body)


def _structural_checks(results, g, trees, name, oracle):
    full = g.full_edge_set()
    histories = {s: run_history(g, oracle, s) for s in gr.submasks(full)}
    types = {s: type_masks(history) for s, history in histories.items()}

    def variants():
        for mask, base in histories.items():
            for dl, ci in ((False, True), (True, False), (True, True)):
                other = run_history(g, oracle, mask, delete_loops=dl,
                                    contract_isthmuses=ci)
                assert other == base, (
                    f"variant ({dl},{ci}) diverged on subgraph {mask:#x}")
    _check(results, f"variant-invariance[{name}]", variants)

    def maximality():
        for t in trees:
            expected = maximal_active(g, [e for e, _ in histories[t]], t)
            assert (types[t][TYPE_I], types[t][TYPE_L]) == expected, (
                f"maximality mismatch on tree {t:#x}")
    _check(results, f"maximality-rule[{name}]", maximality)

    def tiles():
        assert len(class_table(g, oracle)[0]) == len(trees)
    _check(results, f"interval-partition[{name}]", tiles)

    # The forest, connected and half-weight expansions equal the activity
    # route because every subgraph of a leaf's interval has its history.
    def walk_classes():
        for t, internal, external in decision_walk(g, oracle):
            expected = {TYPE_SI: t & ~internal, TYPE_I: internal,
                        TYPE_L: external, TYPE_SE: full & ~(t | external)}
            for s in SubgraphInterval(t & ~internal, t | external).members():
                assert types[s] == expected, (
                    f"subgraph {s:#x} not typed like its leaf tree {t:#x}")
    _check(results, f"walk-classes[{name}]", walk_classes)

    def representative():
        for mask, history in histories.items():
            t = types[mask][TYPE_SI] | types[mask][TYPE_I]
            assert gr.is_spanning_tree(g, t), f"non-tree class index {t:#x}"
            assert histories[t] == history, (
                f"subgraph {mask:#x} not equivalent to its tree")
    _check(results, f"representative-tree[{name}]", representative)

    def algint():
        for t in trees:
            internal = types[t][TYPE_I]
            assert internal_active_no_contract(g, oracle, t) == internal, (
                f"contract-free internal actives differ on tree {t:#x}")
    _check(results, f"internal-actives-no-contract[{name}]", algint)
    return types  # the type masks of every subgraph


def _map_checks(results, m: CombMap, g, trees, forests, typings):
    embedded = {t: embedding_active(m, t) for t in trees}
    pruned = {t: blossoming_internal_active(m, t) for t in trees}
    mm = mirror(m)

    def embedding_vs_mirror():
        for t in trees:
            assert embedded[t] == maximal_active(g, tour_order(mm, t)[1], t), (
                f"mirror max rule diverges on tree {t:#x}")
    _check(results, "embedding-mirror-max", embedding_vs_mirror)

    def activities(name, t):  # (internal, external) actives from the typing
        return typings[name][t][TYPE_I], typings[name][t][TYPE_L]

    def embedding_as_delta():
        for t in trees:
            assert activities("embedding", t) == embedded[t], (
                f"embedding route diverges on tree {t:#x}")
    _check(results, "embedding-as-decision-oracle", embedding_as_delta)

    def blossoming_checks():
        for t in trees:
            full = blossoming_active(m, t)
            assert full[0] == pruned[t], f"pruning rule internal mismatch {t:#x}"
            assert activities("blossoming", t) == full, (
                f"blossoming oracle mismatch on {t:#x}")
    _check(results, "blossoming-as-decision-oracle", blossoming_checks)

    def tau_preimage():
        tree_of = {f: tau(m, f) for f in forests}
        for t in trees:
            window = SubgraphInterval(t & ~pruned[t], t)
            for f in forests:
                assert (tree_of[f] == t) == (f in window), (
                    f"pruning preimage of {t:#x} wrong at forest {f:#x}")
    _check(results, "pruning-preimage-interval", tau_preimage)


def _dfs_checks(results, g, oracle, trees, forests):
    actives = {f: dfs_active(g, f) for f in forests}

    def active_rules():
        for f in forests:
            assert actives[f] == dfs_active_by_inversion(g, f), (
                f"inversion rule differs on forest {f:#x}")
    _check(results, "dfs-inversion-rule", active_rules)

    # Every oracle's forest-activity sum is the polynomial, so the DFS oracle
    # is checked against the native rule: its forest actives and visit orders.
    def as_oracle():
        for f, active in forest_walk(g, oracle):
            assert active == actives[f], (
                f"dfs actives differ on forest {f:#x}")
        for t in trees:
            assert delta_ordering(g, oracle, t) == dfs_order_map(g, t), (
                f"dfs visit order differs on tree {t:#x}")
    _check(results, "dfs-as-decision-oracle", as_oracle)


def crosscheck(g, spec=None, comb_map=None, seeds=range(3)):
    """Run every route and theorem on one graph; return a report.

    Each oracle, built by `make_oracle`, takes the same per-oracle checks:
    `linear`, `random:<s>` per seed, `embedding` and `blossoming` when the
    map `comb_map` is given (it must embed g), `dfs` unless g has multiple
    edges, and the oracle that `spec` names.  The native rules of the
    classical families are then checked against their oracles' typings.
    The checks type all 2^m subgraphs per oracle, so g may have at most
    MATERIALIZE_MAX_EDGES edges, the cap of `class_table`.
    """
    if g.edge_count() > MATERIALIZE_MAX_EDGES:
        raise ValueError(
            f"crosscheck is capped at {MATERIALIZE_MAX_EDGES} edges, since it "
            f"types all 2^m subgraphs per oracle; the graph has "
            f"{g.edge_count()}")
    names = ["linear", *(f"random:{s}" for s in seeds)]
    if comb_map is not None:
        names += ["embedding", "blossoming"]
    if spec is not None:
        names.append(spec)
    oracles = {name: make_oracle(name, g, comb_map)
               for name in dict.fromkeys(names)}
    if "dfs" not in oracles:
        try:
            oracles["dfs"] = make_oracle("dfs", g)
        except ValueError:
            pass  # multiple edges: the DFS family does not apply
    results = []

    reference = tutte_definitional(g)
    trees = gr.spanning_trees(g)
    forests = gr.spanning_forests(g)

    def delcon():
        value = tutte_delcon(g)
        assert value == reference, f"{value} != {reference}"
    _check(results, "definitional-vs-delcon", delcon)

    polys = {}
    typings = {}

    def identical_routes():
        assert len(set(polys.values())) <= 1
    for name, oracle in sorted(oracles.items()):
        polys[name] = tutte_delta(g, oracle)
        _route_check(results, "tree-activity-sum", name, polys[name],
                     reference)
        _route_check(results, "forest-activity-sum", name,
                     tutte_forest_activity(g, oracle), reference)
        typings[name] = _structural_checks(results, g, trees, name, oracle)
    _check(results, "oracles-agree", identical_routes)

    def ordering_reduction():
        order = list(g.edge_ids)
        linear = typings["linear"]
        for t in trees:
            assert ordering_active(g, order, t) == (
                linear[t][TYPE_I], linear[t][TYPE_L])
    _check(results, "ordering-reduction", ordering_reduction)

    if comb_map is not None:
        _map_checks(results, comb_map, g, trees, forests, typings)
    if "dfs" in oracles:
        _dfs_checks(results, g, oracles["dfs"], trees, forests)
    return CrosscheckReport(results)
