"""Map-based activity theorems over generated embeddings.

The map fixtures cover the worked examples; these tests build rotation
systems for every small connected multigraph and check the embedding and
blossoming machinery against them, so the theorems are exercised well away
from the hand-picked cases.
"""

import random
from collections import defaultdict

import pytest

from tutte_activities import graph as gr
from tutte_activities.classic import (blossoming_active,
                                      blossoming_first_visit_order,
                                      blossoming_internal_active,
                                      embedding_active, make_oracle,
                                      maximal_active, prune_run, tau)
from tutte_activities.comb_map import CombMap, genus, mirror, tour_order
from tutte_activities.decision import LEFT, RIGHT, from_order_map
from tutte_activities.engine import decision_walk, delta_activity
from tutte_activities.harness import canonical_form, connected_multigraphs
from tutte_activities.poly import BivariatePoly
from tutte_activities.tutte import tutte_definitional, tutte_delta
from conftest import (FIXTURES, blossoming_subtree_charge, delete,
                      fixture_map, seeded_rotation)


def rotation_embedding(g, twist=0):
    """Some embedding of the graph: half-edges 2e and 2e+1 per edge.

    The rotation at each vertex lists its half-edges in edge order; `twist`
    rotates every list to vary the embedding (and usually the genus).
    """
    at_vertex = defaultdict(list)
    for eid, u, v in g.edges:
        at_vertex[u].append(2 * eid)
        at_vertex[v].append(2 * eid + 1)
    n_half = 2 * g.edge_count()
    sigma = [0] * n_half
    for v, hs in at_vertex.items():
        if twist:
            hs = hs[twist % len(hs):] + hs[:twist % len(hs)]
        for i, h in enumerate(hs):
            sigma[h] = hs[(i + 1) % len(hs)]
    alpha = [h ^ 1 for h in range(n_half)]
    return CombMap(sigma, alpha, 0)


GRAPHS = [g for g in connected_multigraphs(4) if g.edge_count() >= 1]


def test_generated_embeddings_have_the_right_graph():
    for g in GRAPHS:
        for twist in (0, 1):
            m = rotation_embedding(g, twist)
            assert canonical_form(m.underlying_graph()) == canonical_form(g)
            assert genus(m) >= 0


@pytest.mark.parametrize("twist", [0, 1])
def test_embedding_theorems_everywhere(twist):
    for g in GRAPHS:
        m = rotation_embedding(g, twist)
        gm = m.underlying_graph()
        mm = mirror(m)
        trees = gr.spanning_trees(gm)
        table = {t: tour_order(mm, t)[1] for t in trees}
        oracle = from_order_map(gm, table)
        for t in trees:
            native = embedding_active(m, t)
            assert native == maximal_active(gm, table[t], t)
            assert native == delta_activity(gm, oracle, t)
        assert tutte_delta(gm, oracle) == tutte_definitional(gm)


@pytest.mark.parametrize("twist", [0, 1])
def test_blossoming_theorems_everywhere(twist):
    for g in GRAPHS:
        m = rotation_embedding(g, twist)
        gm = m.underlying_graph()
        trees = gr.spanning_trees(gm)
        table = {t: blossoming_first_visit_order(m, t) for t in trees}
        oracle = from_order_map(gm, table)
        planar = genus(m) == 0
        for t in trees:
            internal = blossoming_internal_active(m, t)
            run = prune_run(m, t)
            assert run.isthmus_at_first_visit == internal
            assert sum(run.charges.values()) == 0
            full = blossoming_active(m, t)
            assert full[0] == internal
            assert delta_activity(gm, oracle, t) == full
            # pruning preimage of the tree is its lower interval
            lower = t & ~internal
            for f in gr.spanning_forests(gm):
                inside = (lower & ~f) == 0 and (f & ~t) == 0
                assert (tau(m, f) == t) == inside
            # charge criterion: always necessary, sufficient on the plane
            for eid in gr.edge_ids(t):
                holds = blossoming_subtree_charge(m, t, eid) in (0, 1)
                if (internal >> eid) & 1:
                    assert holds
                elif planar:
                    assert not holds
        assert tutte_delta(gm, oracle) == tutte_definitional(gm)


def test_tau_terminates_on_every_forest():
    for g in GRAPHS:
        for twist in (0, 1):
            m = rotation_embedding(g, twist)
            gm = m.underlying_graph()
            for f in gr.spanning_forests(gm):
                out = tau(m, f)
                assert gr.is_spanning_tree(gm, out) or \
                    (out == 0 and gm.vertex_count == 1)


def _spliced_prune_reference(m, forest_mask):
    """The pruning walk on a copy of the rotation that deleted edges are
    spliced out of: (tree, first visits, isthmuses at first visit, charges).

    Every step, revisits included, classifies its edge afresh in the graph
    that `delete` rebuilt after each deletion.
    """
    g0 = current = m.underlying_graph()
    n_half = len(m.sigma)
    sigma = list(m.sigma)
    alpha = m.alpha
    edge_of = m.edge_of()
    vertex_of = m.vertex_of()
    pairs = m.edge_pairs()
    all_edges = g0.full_edge_set()
    dead = 0
    visited = set()
    first_visit = []
    isthmus_first = 0
    charges = {v: 0 for v in range(g0.vertex_count)}

    def alive(h):
        return not (dead >> edge_of[h]) & 1

    h = m.root
    for _ in range(4 * n_half * n_half + 16):
        if len(visited) == len(pairs):
            break
        eid = edge_of[h]
        first = eid not in visited
        if first:
            visited.add(eid)
            first_visit.append(eid)
        departure, arrival = vertex_of[h], vertex_of[alpha[h]]
        h_next = sigma[alpha[h]]
        isthmus = gr.classify_edge(current, eid) == gr.ISTHMUS
        if first and isthmus:
            isthmus_first |= 1 << eid
        if not isthmus and not (forest_mask >> eid) & 1:
            halves = pairs[eid]
            for x in range(n_half):
                if x not in halves and alive(x):
                    while sigma[x] in halves:
                        sigma[x] = sigma[sigma[x]]
            dead |= 1 << eid
            current = delete(current, eid)
            charges[departure] -= 1
            charges[arrival] += 1
        for _ in range(n_half + 1):
            if dead == all_edges or alive(h_next):
                break
            h_next = sigma[h_next]
        else:
            raise AssertionError("pruning walk lost its position")
        h = h_next
    else:
        raise AssertionError("pruning walk failed to terminate")
    return all_edges & ~dead, first_visit, isthmus_first, charges


def test_prune_run_matches_the_spliced_rotation_walk(corpus):
    rng = random.Random(15)
    maps = [seeded_rotation(g, rng) for g in corpus if g.edge_count() <= 6
            for _ in range(2)]
    maps += [seeded_rotation(gr.Graph(1, [(i, 0, 0) for i in range(k)]), rng)
             for k in range(1, 6) for _ in range(3)]
    runs = 0
    for m in maps:
        for f in gr.spanning_forests(m.underlying_graph()):
            run = prune_run(m, f)
            assert (run.tree_mask, run.first_visit, run.isthmus_at_first_visit,
                    run.charges) == _spliced_prune_reference(m, f), (m, f)
            runs += 1
    assert runs > 2000


@pytest.mark.parametrize("name", ["parallel_triangle", "parallel_triangle_alt",
                                  "pruning_planar", "nonplanar_parallel",
                                  "two_crossing_loops", "loop_contract_guard"])
def test_prune_run_matches_the_spliced_rotation_walk_on_fixture_maps(name):
    m = fixture_map(name)
    for f in gr.spanning_forests(m.underlying_graph()):
        run = prune_run(m, f)
        assert (run.tree_mask, run.first_visit, run.isthmus_at_first_visit,
                run.charges) == _spliced_prune_reference(m, f), f


def dual_graph(m):
    """One vertex per face; edge e joins the faces of its two half-edges."""
    faces = m.faces()
    face_of = {h: i for i, face in enumerate(faces) for h in face}
    return gr.Graph(len(faces), [(eid, face_of[a], face_of[b])
                                 for eid, (a, b) in enumerate(m.edge_pairs())])


def test_planar_duality_swaps_x_and_y():
    maps = [fixture_map(path.stem)
            for path in sorted((FIXTURES / "maps").glob("*.map"))]
    maps += [rotation_embedding(g, twist) for g in GRAPHS for twist in (0, 1)]
    planar = [m for m in maps if genus(m) == 0]
    assert planar
    for m in planar:
        primal = tutte_definitional(m.underlying_graph())
        swapped = BivariatePoly({(j, i): c
                                 for (i, j), c in primal.terms.items()})
        assert tutte_definitional(dual_graph(m)) == swapped, m


class Mirrored:
    """An oracle read through the mirrored prefix: l and r swapped."""

    SWAP = {LEFT: RIGHT, RIGHT: LEFT}

    def __init__(self, oracle):
        self.oracle = oracle

    def next_edge(self, prefix, used=None):
        return self.oracle.next_edge(tuple(self.SWAP[d] for d in prefix), used)


def test_planar_duality_per_leaf(corpus):
    # On a genus-0 map, deleting e in G contracts e in the dual G*, and a
    # loop of a minor is an isthmus of the dual minor.  So walking G with O
    # gives the leaves (T, I, E) exactly when walking G* with O mirrored
    # gives (E(G) - T, E, I).  `dual_graph` keeps the edge ids.
    rng = random.Random(27)
    maps = [fixture_map(path.stem)
            for path in sorted((FIXTURES / "maps").glob("*.map"))]
    maps += [seeded_rotation(g, rng) for g in connected_multigraphs(4) + corpus
             for _ in range(2)]
    pairs = defaultdict(int)
    unmirrored_mismatches = 0
    for m in maps:
        if genus(m):
            continue
        g = m.underlying_graph()
        g_dual = dual_graph(m)
        reverse = ",".join(map(str, reversed(g.edge_ids)))
        for spec in ("linear", f"linear:{reverse}", "random:0", "random:1",
                     "embedding", "blossoming", "dfs",
                     f"file:{FIXTURES / 'trees' / 'parallel_triangle.tree'}"):
            try:
                oracle = make_oracle(spec, g, m)
            except ValueError:  # dfs needs a simple graph, the file 4 edges
                continue
            expected = sorted((g.full_edge_set() & ~t, external, internal)
                              for t, internal, external
                              in decision_walk(g, oracle))
            assert sorted(decision_walk(g_dual, Mirrored(oracle))) == \
                expected, (m, spec)
            pairs[spec.partition(":")[0]] += 1
            unmirrored_mismatches += \
                sorted(decision_walk(g_dual, oracle)) != expected
    assert set(pairs) == {"linear", "random", "embedding", "blossoming",
                          "dfs", "file"}
    assert unmirrored_mismatches > 0  # so the mirroring is what makes it hold
