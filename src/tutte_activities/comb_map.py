"""Rooted combinatorial maps: half-edge set with rotation and pairing.

A map is (H, sigma, alpha) with sigma a permutation of the half-edges
(counterclockwise rotation around each vertex), alpha a fixed-point-free
involution pairing the two half-edges of each edge, plus a distinguished
root half-edge.  The group generated by sigma and alpha must act
transitively, so the underlying graph is connected.

Vertices of the underlying graph are the cycles of sigma, edges the orbits
of alpha.  A tour and a minor take one rotation step (`_motion`), across
an edge or around it; deleting an isthmus or contracting a loop is rejected
since either could disconnect the map.
"""

from __future__ import annotations

from operator import index

from .graph import (ISTHMUS, Graph, classify_edge, read_int, read_tokens,
                    require_spanning_tree)


def _cycles_of(perm):
    """Cycles of a permutation (any sequence), ordered by smallest element."""
    n = len(perm)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        h = start
        while not seen[h]:
            seen[h] = True
            cyc.append(h)
            h = perm[h]
        cycles.append(tuple(cyc))
    return cycles


def _invert(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


class CombMap:
    """Immutable rooted combinatorial map."""

    __slots__ = ("sigma", "alpha", "root", "names", "_derived")

    def __init__(self, sigma, alpha, root, names=None):
        try:  # ints and int-likes only, as in `Graph`
            sigma, alpha = tuple(map(index, sigma)), tuple(map(index, alpha))
            root = index(root)
        except TypeError:
            raise ValueError("sigma, alpha and root must be integers") from None
        n = len(sigma)
        if n == 0 or n % 2 != 0:
            raise ValueError("need an even, positive number of half-edges")
        if sorted(sigma) != list(range(n)) or sorted(alpha) != list(range(n)):
            raise ValueError("sigma and alpha must be permutations of 0..2m-1")
        for h in range(n):
            if alpha[h] == h:
                raise ValueError(f"alpha fixes half-edge {h}")
            if alpha[alpha[h]] != h:
                raise ValueError("alpha is not an involution")
        if not (0 <= root < n):
            raise ValueError("root out of range")
        if names is not None:
            names = tuple(names)
            if len(names) != n or len(set(names)) != n:
                raise ValueError("names must be distinct, one per half-edge")
        # transitivity of <sigma, alpha>
        seen = {0}
        stack = [0]
        while stack:
            h = stack.pop()
            for nxt in (sigma[h], alpha[h]):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != n:
            raise ValueError("map is not connected")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_derived", None)

    def __setattr__(self, name, value):
        raise AttributeError("CombMap is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, so the copy starts
        # with an empty `_derived` cache; the default slot restore would call
        # the refusing __setattr__
        return CombMap, (self.sigma, self.alpha, self.root, self.names)

    def edge_count(self):
        return len(self.sigma) // 2

    def name_of(self, h):
        return self.names[h] if self.names else str(h)

    def __eq__(self, other):
        return (isinstance(other, CombMap) and self.sigma == other.sigma
                and self.alpha == other.alpha and self.root == other.root)

    def __hash__(self):
        return hash((self.sigma, self.alpha, self.root))

    def __repr__(self):
        sig = "".join("(" + " ".join(self.name_of(h) for h in c) + ")"
                      for c in self.vertex_cycles())
        return f"CombMap(sigma={sig}, root={self.name_of(self.root)})"

    # -- derived structure ------------------------------------------------
    #
    # Derived together on the first call of any accessor below and cached in
    # `_derived`, so a map that is built but never queried pays nothing.

    def _structure(self):
        """The five derived values, in the order of the accessors below."""
        derived = self._derived
        if derived is None:
            n = len(self.sigma)
            cycles = tuple(_cycles_of(self.sigma))
            vertex = [0] * n
            for vid, cyc in enumerate(cycles):
                for h in cyc:
                    vertex[h] = vid
            pairs = tuple((h, a) for h, a in enumerate(self.alpha) if h < a)
            edge = [0] * n
            for eid, (h1, h2) in enumerate(pairs):
                edge[h1] = edge[h2] = eid
            graph = Graph(len(cycles), [(eid, vertex[h1], vertex[h2])
                                        for eid, (h1, h2) in enumerate(pairs)])
            derived = (cycles, tuple(vertex), pairs, tuple(edge), graph)
            object.__setattr__(self, "_derived", derived)
        return derived

    def vertex_cycles(self):
        """Cycles of sigma, ordered by smallest half-edge id."""
        return self._structure()[0]

    def vertex_of(self):
        """Tuple: half-edge id -> vertex id (rank of its sigma-cycle)."""
        return self._structure()[1]

    def edge_pairs(self):
        """Alpha-orbits as (h, alpha(h)) with h < alpha(h), ordered by h."""
        return self._structure()[2]

    def edge_of(self):
        """Tuple: half-edge id -> edge id (rank of its alpha-orbit)."""
        return self._structure()[3]

    def underlying_graph(self) -> Graph:
        """Vertices are the sigma-cycles, edge ids the alpha-orbit ranks."""
        return self._structure()[4]

    def edge_name(self, eid):
        h1, h2 = self.edge_pairs()[eid]
        return min(self.name_of(h1), self.name_of(h2))

    def edge_id_by_name(self, name):
        for eid, (h1, h2) in enumerate(self.edge_pairs()):
            if self.name_of(h1) == name or self.name_of(h2) == name:
                return eid
        raise ValueError(f"no edge named {name!r}")

    def faces(self):
        """Cycles of sigma composed with alpha."""
        perm = [self.sigma[self.alpha[h]] for h in range(len(self.sigma))]
        return _cycles_of(perm)


def genus(m: CombMap) -> int:
    """Euler genus from |V| - |E| + |F| = 2 - 2g."""
    v = len(m.vertex_cycles())
    e = m.edge_count()
    f = len(m.faces())
    euler = v - e + f
    if (2 - euler) % 2 != 0:
        raise ValueError("inconsistent Euler characteristic")
    return (2 - euler) // 2


# -- motion function and tours -----------------------------------------------


def _motion(m: CombMap, inside: int):
    """The rotation step: h -> sigma(alpha(h)) when h's edge is in `inside`,
    h -> sigma(h) otherwise."""
    sig = m.sigma
    step = list(sig)
    for eid, (h1, h2) in enumerate(m.edge_pairs()):
        if (inside >> eid) & 1:
            step[h1], step[h2] = sig[h2], sig[h1]
    return tuple(step)


def motion_function(m: CombMap, tree_mask: int):
    """Permutation walking the tour of a spanning tree.

    The rotation step with the tree inside: a tour steps across tree edges
    and around the others.  For a spanning tree this is a single cycle on
    all half-edges.
    """
    require_spanning_tree(m.underlying_graph(), tree_mask)
    return _motion(m, tree_mask)


def tour_order(m: CombMap, tree_mask: int):
    """Half-edge visit order of the tour, and the induced edge order.

    Half-edges are listed root, t(root), t^2(root), ...; an edge precedes
    another when its first-visited half-edge comes first.
    """
    t = motion_function(m, tree_mask)
    n = len(m.sigma)
    seq = []
    h = m.root
    for _ in range(n):
        seq.append(h)
        h = t[h]
    if h != m.root or len(set(seq)) != n:
        raise ValueError("motion function is not a single cycle")
    edge = m.edge_of()
    return seq, list(dict.fromkeys(edge[h] for h in seq))


# -- deletion, contraction, mirror -------------------------------------------


def _remove_edge(m: CombMap, eid: int, inside: int) -> CombMap:
    """Drop edge eid; each rotation skips its two half-edges by the step.

    With `inside = 0` the skip goes around the edge's ends (deletion); with
    `inside = 1 << eid` it crosses the edge, merging the two rotations
    (contraction).  A removed root gives way to the half-edge its skip
    reaches.  Half-edge ids are compacted in order.
    """
    if m.edge_count() == 1:
        raise ValueError("operation would leave an empty map")
    removed = m.edge_pairs()[eid]
    sig = m.sigma
    step = _motion(m, inside)

    def skip(h):
        h = sig[h]
        while h in removed:
            h = step[h]
        return h

    keep = [h for h in range(len(sig)) if h not in removed]
    new_id = {h: i for i, h in enumerate(keep)}
    root = skip(m.root) if m.root in removed else m.root
    return CombMap([new_id[skip(h)] for h in keep],
                   [new_id[m.alpha[h]] for h in keep], new_id[root],
                   tuple(m.names[h] for h in keep) if m.names else None)


def map_delete(m: CombMap, eid: int) -> CombMap:
    """Delete a non-isthmus edge, stitching the rotation around each end."""
    if classify_edge(m.underlying_graph(), eid) == ISTHMUS:
        raise ValueError("deleting an isthmus would disconnect the map")
    return _remove_edge(m, eid, 0)


def map_contract(m: CombMap, eid: int) -> CombMap:
    """Contract a non-loop edge, merging the rotations of its endpoints."""
    if m.underlying_graph().is_loop(eid):
        raise ValueError("contracting a loop would disconnect the map")
    return _remove_edge(m, eid, 1 << eid)


def mirror(m: CombMap) -> CombMap:
    """The map with inverted rotation, rooted on sigma^-1 of the old root."""
    inv = _invert(m.sigma)
    return CombMap(inv, m.alpha, inv[m.root], m.names)


# -- text format ---------------------------------------------------------------
#
#   halfedges 2m
#   sigma (a b d)(a' d' c')(b' c)
#   alpha (a a')(b b')(c c')(d d')
#   root a
#
# Half-edges named exactly 0 to 2m-1, as `format_map` writes a map built
# without names, get those ids, so the map and its edge ids survive a save
# and load.  Any other names get ids in order of first appearance in the
# sigma line.  Singleton cycles must be written explicitly.


def _parse_cycles(tokens):
    cycles = []
    current = None
    for tok in tokens:
        if tok == "(":
            if current is not None:
                raise ValueError("nested parenthesis in cycle notation")
            current = []
        elif tok == ")":
            if current is None:
                raise ValueError("unbalanced parenthesis in cycle notation")
            cycles.append(current)
            current = None
        elif current is None:
            raise ValueError("token outside cycle parentheses")
        else:
            current.append(tok)
    if current is not None:
        raise ValueError("unbalanced parenthesis in cycle notation")
    return cycles


def parse_map(text: str) -> CombMap:
    halfedges = None
    sigma_cycles = None
    alpha_cycles = None
    root_name = None
    seen = set()
    for lineno, (key, *body) in read_tokens(text):
        if key in seen:
            raise ValueError(f"line {lineno}: repeated {key!r} line")
        seen.add(key)
        if key == "halfedges":
            if len(body) != 1:
                raise ValueError(f"line {lineno}: expected 'halfedges 2m'")
            halfedges = read_int(lineno, body[0])
        elif key == "sigma":
            sigma_cycles = _parse_cycles(body)
        elif key == "alpha":
            alpha_cycles = _parse_cycles(body)
        elif key == "root":
            root_name = " ".join(body)
        else:
            raise ValueError(f"line {lineno}: unknown directive {key!r}")
    if None in (halfedges, sigma_cycles, alpha_cycles, root_name):
        raise ValueError("map file needs halfedges, sigma, alpha and root lines")

    ids = {}
    for cyc in sigma_cycles + alpha_cycles:
        for name in cyc:
            if name not in ids:
                ids[name] = len(ids)
    if len(ids) != halfedges:
        raise ValueError(f"declared {halfedges} half-edges, found {len(ids)}")
    if set(ids) == {str(h) for h in range(halfedges)}:  # format_map's own
        ids = {name: int(name) for name in ids}

    def perm_from(cycles):
        perm = list(range(halfedges))
        placed = set()
        for cyc in cycles:
            for name, nxt in zip(cyc, cyc[1:] + cyc[:1]):
                if name in placed:
                    raise ValueError(f"half-edge {name} appears twice")
                placed.add(name)
                perm[ids[name]] = ids[nxt]
        if len(placed) != halfedges:
            raise ValueError("cycle notation must cover every half-edge")
        return perm

    sigma = perm_from(sigma_cycles)
    alpha = perm_from(alpha_cycles)
    if root_name not in ids:
        raise ValueError(f"unknown root half-edge {root_name!r}")
    names = [None] * halfedges
    for name, i in ids.items():
        names[i] = name
    return CombMap(sigma, alpha, ids[root_name], names)


def format_map(m: CombMap) -> str:
    def cycles_str(cycles):
        return "".join("(" + " ".join(m.name_of(h) for h in cyc) + ")"
                       for cyc in cycles)

    lines = [
        f"halfedges {len(m.sigma)}",
        f"sigma {cycles_str(m.vertex_cycles())}",
        f"alpha {cycles_str(_cycles_of(m.alpha))}",
        f"root {m.name_of(m.root)}",
    ]
    return "\n".join(lines) + "\n"


def load_map(path) -> CombMap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_map(fh.read())


def save_map(m: CombMap, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_map(m))
