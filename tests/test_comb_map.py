import copy
import pickle
import random

import pytest

from tutte_activities import graph as gr
from tutte_activities.comb_map import (CombMap, _cycles_of, format_map, genus,
                                       load_map, map_contract, map_delete,
                                       mirror, motion_function, parse_map,
                                       save_map, tour_order)
from tutte_activities.harness import canonical_form, connected_multigraphs
from conftest import (FIXTURES, contract, delete, edge_mask, fixture_graph,
                      fixture_map, seeded_rotation)


def tour_edge_names(m, tree):
    _, order = tour_order(m, tree)
    return [m.edge_name(e) for e in order]


def tour_half_edge_names(m, tree):
    seq, _ = tour_order(m, tree)
    return [m.name_of(h) for h in seq]


ISTHMUS_MAP = "halfedges 2\nsigma (a)(a')\nalpha (a a')\nroot a\n"
LOOP_MAP = "halfedges 2\nsigma (a a')\nalpha (a a')\nroot a\n"


def test_underlying_graph(embedding_map):
    g = embedding_map.underlying_graph()
    assert g.vertex_count == 3 and g.edge_count() == 4
    assert canonical_form(g) == canonical_form(
        gr.Graph(3, [(0, 0, 1), (1, 1, 2), (2, 0, 2), (3, 0, 1)]))


def test_motion_function_golden(embedding_map):
    m = embedding_map
    tree = edge_mask(m, ["b", "d"])
    assert tour_half_edge_names(m, tree) == \
        ["a", "b", "c", "b'", "d", "c'", "a'", "d'"]
    assert tour_edge_names(m, tree) == ["a", "b", "c", "d"]


def test_motion_single_isthmus_is_two_cycle():
    m = parse_map(ISTHMUS_MAP)
    t = motion_function(m, 1)
    assert t[0] != 0 and t[t[0]] == 0  # swaps the two half-edges


def test_motion_single_loop_tour():
    m = parse_map(LOOP_MAP)
    seq, order = tour_order(m, 0)
    assert [m.name_of(h) for h in seq] == ["a", "a'"]
    assert order == [0]


@pytest.mark.parametrize("name", ["parallel_triangle", "parallel_triangle_alt",
                                  "pruning_planar", "nonplanar_parallel"])
def test_motion_is_cyclic_on_every_tree(name):
    m = fixture_map(name)
    g = m.underlying_graph()
    n = len(m.sigma)
    for tree in gr.spanning_trees(g):
        t = motion_function(m, tree)
        seen = set()
        h = m.root
        for _ in range(n):
            seen.add(h)
            h = t[h]
        assert h == m.root and len(seen) == n


def test_motion_rejects_non_tree(embedding_map):
    with pytest.raises(ValueError):
        motion_function(embedding_map, edge_mask(embedding_map, ["a", "d"]))


def test_mirror_golden(embedding_map):
    mm = mirror(embedding_map)
    assert mm.name_of(mm.root) == "d"
    assert format_map(mm).splitlines()[1] == "sigma (a d b)(a' c' d')(b' c)"
    tree = edge_mask(mm, ["b", "d"])
    assert tour_half_edge_names(mm, tree) == \
        ["d", "a'", "c'", "d'", "b", "c", "b'", "a"]
    assert tour_edge_names(mm, tree) == ["d", "a", "c", "b"]


def test_mirror_twice_restores(embedding_map):
    m2 = mirror(mirror(embedding_map))
    assert m2.sigma == embedding_map.sigma
    assert m2.root == embedding_map.root


@pytest.mark.parametrize("name", ["parallel_triangle", "parallel_triangle_alt",
                                  "pruning_planar"])
def test_mirror_swaps_min_and_max_rules(name):
    from tutte_activities.classic import maximal_active, ordering_active
    m = fixture_map(name)
    g = m.underlying_graph()
    mm = mirror(m)
    for tree in gr.spanning_trees(g):
        _, order = tour_order(m, tree)
        _, mirror_order = tour_order(mm, tree)
        assert ordering_active(g, order, tree) == \
            maximal_active(g, mirror_order, tree)


def test_genus_values(embedding_map):
    assert genus(embedding_map) == 0
    assert genus(fixture_map("pruning_planar")) == 0
    assert genus(fixture_map("two_crossing_loops")) == 1
    assert genus(fixture_map("nonplanar_parallel")) == 1
    assert genus(parse_map(ISTHMUS_MAP)) == 0


def test_map_delete_golden(embedding_map):
    smaller = map_delete(embedding_map, embedding_map.edge_id_by_name("c"))
    assert format_map(smaller) == (
        "halfedges 6\n"
        "sigma (a b d)(a' d')(b')\n"
        "alpha (a a')(b b')(d d')\n"
        "root a\n")


def test_map_contract_golden(embedding_map):
    smaller = map_contract(embedding_map, embedding_map.edge_id_by_name("b"))
    assert format_map(smaller) == (
        "halfedges 6\n"
        "sigma (a c d)(a' d' c')\n"
        "alpha (a a')(d d')(c' c)\n"
        "root a\n")


def test_map_contract_parallel_pair_leaves_loop():
    m = parse_map("halfedges 4\nsigma (a b)(a' b')\nalpha (a a')(b b')\nroot a\n")
    smaller = map_contract(m, 0)
    assert len(smaller.vertex_cycles()) == 1
    assert smaller.edge_count() == 1
    g = smaller.underlying_graph()
    assert g.is_loop(0)


@pytest.mark.parametrize("name", ["parallel_triangle", "pruning_planar",
                                  "nonplanar_parallel"])
def test_minor_commutes_with_underlying_graph(name):
    m = fixture_map(name)
    g = m.underlying_graph()
    for eid in g.edge_ids:
        kind = gr.classify_edge(g, eid)
        if kind != gr.ISTHMUS:
            assert canonical_form(map_delete(m, eid).underlying_graph()) == \
                canonical_form(delete(g, eid))
        if kind != gr.LOOP:
            assert canonical_form(map_contract(m, eid).underlying_graph()) == \
                canonical_form(contract(g, eid))


def test_isthmus_deletion_rejected():
    m = parse_map(ISTHMUS_MAP)
    with pytest.raises(ValueError):
        map_delete(m, 0)


def test_loop_contraction_rejected():
    m = fixture_map("loop_contract_guard")
    with pytest.raises(ValueError):
        map_contract(m, m.edge_id_by_name("a"))
    m2 = parse_map(LOOP_MAP)
    with pytest.raises(ValueError):
        map_contract(m2, 0)


@pytest.mark.parametrize("minor", [map_delete, map_contract])
@pytest.mark.parametrize("eid", [-1, 4])
def test_minors_refuse_an_unknown_edge_id(embedding_map, minor, eid):
    with pytest.raises(ValueError) as exc:
        minor(embedding_map, eid)
    assert str(exc.value) == f"unknown edge id {eid}"


def test_root_moves_when_deleted(embedding_map):
    m = embedding_map  # root a; delete the root edge
    smaller = map_delete(m, m.edge_id_by_name("a"))
    assert smaller.name_of(smaller.root) == "b"  # next half-edge at the vertex


def test_root_kept_when_it_survives(embedding_map):
    smaller = map_delete(embedding_map, embedding_map.edge_id_by_name("c"))
    assert smaller.name_of(smaller.root) == "a"


def test_validation_rejects_bad_maps():
    with pytest.raises(ValueError):  # alpha fixes a half-edge
        CombMap([1, 0, 2, 3], [1, 0, 2, 3], 0)
    with pytest.raises(ValueError):  # disconnected
        CombMap([1, 0, 3, 2], [1, 0, 3, 2], 0)
    with pytest.raises(ValueError):  # not an involution
        CombMap([1, 2, 3, 0], [1, 2, 3, 0], 0)


@pytest.mark.parametrize("name", ["parallel_triangle", "pruning_planar",
                                  "two_crossing_loops", "loop_contract_guard",
                                  "parallel_triangle_alt",
                                  "nonplanar_parallel"])
def test_map_format_round_trip(name):
    m = fixture_map(name)
    text = format_map(m)
    again = parse_map(text)
    assert again == m
    assert format_map(again) == text


def test_save_and_load_keep_a_map_and_its_edge_ids(corpus, tmp_path):
    """Half-edges 2e and 2e+1 on edge e: the reloaded map is the same map.

    A file names such a map's half-edges 0 to 2m-1, and a rotation can
    write them in any order: a vertex with three loops whose rotation lists
    edges 0, 2, 1 writes a rotation of 0, 2, 1 from every start.
    """
    rng = random.Random(1)
    path = tmp_path / "seeded.map"
    for g in corpus:
        for _ in range(2):
            m = seeded_rotation(g, rng)
            save_map(m, path)
            again = load_map(path)
            assert again == m
            assert again.underlying_graph().edges == g.edges


LOOP_LINES = ["halfedges 2", "sigma (a b)", "alpha (a b)", "root a"]


@pytest.mark.parametrize("line,replacement,message", [
    (4, "face (a)", "line 5: unknown directive 'face'"),
    (3, None, "map file needs halfedges, sigma, alpha and root lines"),
    (0, "halfedges 4", "declared 4 half-edges, found 2"),
    (1, "sigma (a b)(a)", "half-edge a appears twice"),
    (1, "sigma (a)", "cycle notation must cover every half-edge"),
    (1, "sigma (a (b))", "nested parenthesis in cycle notation"),
    (1, "sigma a (b)", "token outside cycle parentheses"),
    (1, "sigma (a b", "unbalanced parenthesis in cycle notation"),
    (2, "alpha (a b))", "unbalanced parenthesis in cycle notation"),
    (0, "halfedges", "line 1: expected 'halfedges 2m'"),
    (0, "halfedges 2 sigma (a b)", "line 1: expected 'halfedges 2m'"),
    (0, "halfedges two", "line 1: expected an integer, got 'two'"),
])
def test_map_parser_messages(line, replacement, message):
    lines = list(LOOP_LINES)
    if replacement is None:
        del lines[line]
    else:
        lines[line:line + 1] = [replacement]
    with pytest.raises(ValueError) as exc:
        parse_map("\n".join(lines) + "\n")
    assert str(exc.value) == message


def test_map_directive_may_touch_its_parenthesis():
    glued = "halfedges 2\nsigma(a b)\nalpha(a b) # loop\nroot a\n"
    assert parse_map(glued) == parse_map("\n".join(LOOP_LINES))


def test_faces_match_euler(embedding_map):
    m = embedding_map
    v = len(m.vertex_cycles())
    e = m.edge_count()
    f = len(m.faces())
    assert v - e + f == 2 - 2 * genus(m)


# -- the cached derived structure ---------------------------------------------


def derive_from_scratch(m):
    """The five derived values, recomputed from sigma and alpha alone."""
    cycles = _cycles_of(list(m.sigma))
    vertex_of = [0] * len(m.sigma)
    for vid, cyc in enumerate(cycles):
        for h in cyc:
            vertex_of[h] = vid
    pairs = []
    for h in range(len(m.sigma)):
        if h < m.alpha[h]:
            pairs.append((h, m.alpha[h]))
    edge_of = [0] * len(m.sigma)
    for eid, (h1, h2) in enumerate(pairs):
        edge_of[h1] = eid
        edge_of[h2] = eid
    graph = gr.Graph(len(cycles), [(eid, vertex_of[h1], vertex_of[h2])
                                   for eid, (h1, h2) in enumerate(pairs)])
    return cycles, vertex_of, pairs, edge_of, graph


def cache_maps():
    """Every fixture map and seeded rotation systems of small multigraphs."""
    maps = [parse_map(p.read_text())
            for p in sorted((FIXTURES / "maps").glob("*.map"))]
    rng = random.Random(16)
    maps += [seeded_rotation(g, rng) for g in connected_multigraphs(3)
             for _ in range(2)]
    return maps


ACCESSORS = ("vertex_cycles", "vertex_of", "edge_pairs", "edge_of",
             "underlying_graph")


def assert_derived_from_scratch(m):
    cycles, vertex_of, pairs, edge_of, graph = derive_from_scratch(m)
    assert m.vertex_cycles() == tuple(cycles)
    assert m.vertex_of() == tuple(vertex_of)
    assert m.edge_pairs() == tuple(pairs)
    assert m.edge_of() == tuple(edge_of)
    assert m.underlying_graph() == graph


def test_accessors_equal_a_fresh_derivation():
    for m in cache_maps():
        assert_derived_from_scratch(m)
        for name in ACCESSORS[:4]:
            assert type(getattr(m, name)()) is tuple


def test_accessors_return_one_cached_object():
    for m in cache_maps():
        first = [getattr(m, name)() for name in ACCESSORS]
        again = [getattr(m, name)() for name in ACCESSORS]
        assert all(a is b for a, b in zip(first, again))


def test_cache_does_not_make_the_map_mutable():
    m = fixture_map("parallel_triangle")
    for filled in (False, True):
        if filled:
            m.underlying_graph()
        for name in ("_derived", "sigma", "root", "other"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)


def test_equality_and_hash_ignore_the_cache():
    for m in cache_maps():
        twin = CombMap(m.sigma, m.alpha, m.root, m.names)
        before = hash(m)
        m.underlying_graph()
        assert hash(m) == before == hash(twin)
        assert m == twin and twin == m


def test_new_maps_derive_their_own_structure():
    for m in cache_maps():
        g = m.underlying_graph()  # fills the parent's cache first
        made = [mirror(m)]
        for eid in g.edge_ids if g.edge_count() > 1 else ():
            if gr.classify_edge(g, eid) != gr.ISTHMUS:
                made.append(map_delete(m, eid))
            if not g.is_loop(eid):
                made.append(map_contract(m, eid))
        for new in made:
            assert_derived_from_scratch(new)


def test_copy_and_pickle_round_trip_maps_and_graphs():
    graphs = [fixture_graph(p.stem)
              for p in sorted((FIXTURES / "graphs").glob("*.graph"))]
    filled = fixture_map("parallel_triangle")
    filled.underlying_graph()
    maps = [fixture_map(p.stem)
            for p in sorted((FIXTURES / "maps").glob("*.map"))] + [filled]
    objects = graphs + maps + [m.underlying_graph() for m in maps]
    for obj in objects:
        for again in (copy.copy(obj), copy.deepcopy(obj),
                      pickle.loads(pickle.dumps(obj))):
            assert type(again) is type(obj)
            assert again == obj and hash(again) == hash(obj)
            if isinstance(obj, CombMap):
                assert again.names == obj.names
                assert again._derived is None  # rebuilt, not copied
                assert_derived_from_scratch(again)


# -- map minors against the case-split reference --------------------------------


def case_split_minor(m, eid, contract):
    """Deletion or contraction of edge eid by an explicit case split on sigma.

    The reference for `map_delete` and `map_contract`, with their refusals:
    a rotation that meets a removed half-edge jumps past it, by sigma for a
    deletion and across the edge for a contraction.
    """
    h1, h2 = m.edge_pairs()[eid]
    sig, alp = m.sigma, m.alpha
    if contract and m.vertex_of()[h1] == m.vertex_of()[h2]:
        raise ValueError("contracting a loop would disconnect the map")
    if not contract and gr.classify_edge(m.underlying_graph(), eid) == \
            gr.ISTHMUS:
        raise ValueError("deleting an isthmus would disconnect the map")

    def sigma_d(h):
        if (sig[h] == h1 and sig[h1] == h2) or (sig[h] == h2 and sig[h2] == h1):
            return sig[sig[sig[h]]]
        if (sig[h] == h1 and sig[h1] != h2) or (sig[h] == h2 and sig[h2] != h1):
            return sig[sig[h]]
        return sig[h]

    def sigma_c(h):
        if (sig[h] == h1 and sig[h2] == h2) or (sig[h] == h2 and sig[h1] == h1):
            return sig[sig[h]]
        if (sig[h] == h1 and sig[h2] != h2) or (sig[h] == h2 and sig[h1] != h1):
            return sig[alp[sig[h]]]
        return sig[h]

    new_sigma = sigma_c if contract else sigma_d
    keep = [h for h in range(len(sig)) if h not in (h1, h2)]
    if not keep:
        raise ValueError("operation would leave an empty map")
    new_id = {h: i for i, h in enumerate(keep)}
    root = new_sigma(m.root) if m.root in (h1, h2) else m.root
    names = tuple(m.names[h] for h in keep) if m.names else None
    return CombMap([new_id[new_sigma(h)] for h in keep],
                   [new_id[alp[h]] for h in keep], new_id[root], names)


def outcome(minor, m, eid, *args):
    try:
        r = minor(m, eid, *args)
    except ValueError as exc:
        return "refused", str(exc)
    return r.sigma, r.alpha, r.root, r.names


def test_minors_equal_the_case_split_reference(corpus):
    """Every edge, both minors, on seeded rotation systems with named,
    shuffled half-edges: the same map (sigma, alpha, root and names) or the
    same refusal."""
    rng = random.Random(29)
    graphs = connected_multigraphs(4) + rng.sample(corpus, 60)
    refused = 0
    for g in graphs:
        for _ in range(3):
            m = seeded_rotation(g, rng)
            names = [f"h{h}" for h in range(len(m.sigma))]
            rng.shuffle(names)
            m = CombMap(m.sigma, m.alpha, m.root, names)
            for eid in range(m.edge_count()):
                for minor, contract in ((map_delete, False),
                                        (map_contract, True)):
                    expected = outcome(case_split_minor, m, eid, contract)
                    assert outcome(minor, m, eid) == expected
                    refused += expected[0] == "refused"
    assert refused > 0
