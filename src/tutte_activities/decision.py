"""Decision trees as lazy oracles, plus builders and the compatibility check.

A decision tree for a graph with m edges is a perfect binary tree of depth m
whose node labels along every root-to-leaf path form a permutation of the
edge set.  Oracles expose only the behavioural view: a function from a
direction sequence (the path walked so far) to the next edge.  Explicit
materialization is exponential, so only trees with m <= 16 may be built
eagerly; everything else answers lazily per queried path.  Every oracle
but the linear one answers from one table of direction prefixes
(`DecisionOracle.next_edge`); subclasses differ only in how they fill it.
"""

from __future__ import annotations

import random

from .graph import Graph, read_int, read_tokens, spanning_trees

LEFT = "l"
RIGHT = "r"

_DIRECTIONS = frozenset((LEFT, RIGHT))

EXPLICIT_TREE_MAX_EDGES = 16
_TOO_DEEP = f"explicit trees are limited to {EXPLICIT_TREE_MAX_EDGES} edges"


class DecisionOracle:
    """A decision tree as a table: direction prefix -> next edge.

    `next_edge` answers a prefix in the table by lookup.  A missing prefix is
    checked once, answered by `choose` from the edges not yet on its path,
    and remembered, so the same prefix always yields the same edge and the
    answers along any root-to-leaf path are pairwise distinct.  This base
    class serves a complete table; subclasses fill theirs lazily.

    Every oracle's `next_edge` takes `(prefix, used)`, where `used` is the
    mask of the answers on the prefix's path.  A walk holds that mask
    anyway and has asked every ancestor first (`DfsOracle.choose` relies on
    this), so a miss is answered from `used` directly.  A caller outside a
    walk leaves `used` as None: the ancestors are then asked root first,
    each with the mask of the answers above it.
    """

    def __init__(self, edge_ids, table=None):
        self.edge_ids = tuple(sorted(set(edge_ids)))
        self.m = len(self.edge_ids)
        self.full = sum(1 << e for e in self.edge_ids)
        self.table = {} if table is None else table

    def next_edge(self, prefix, used=None):
        table = self.table
        try:
            answer = table.get(prefix)
        except TypeError:  # a prefix given as a list
            prefix = tuple(prefix)
            answer = table.get(prefix)
        if answer is None:
            self._check_prefix(prefix)
            if used is None:
                used = 0
                for j in range(len(prefix)):
                    used |= 1 << self.next_edge(prefix[:j], used)
            # The unused ids, ascending: the set bits of one string, not one
            # shift of `used` per edge (quadratic on long paths).
            free = bin(self.full & ~used)[:1:-1]
            answer = self.choose(prefix, [e for e, bit in enumerate(free)
                                          if bit == "1"])
            table[prefix] = answer
        return answer

    def choose(self, prefix, unused):
        """The edge for a prefix the table lacks, from the unused ids."""
        raise ValueError(f"no edge for prefix {''.join(prefix)!r}")

    def _check_prefix(self, prefix):
        if len(prefix) >= self.m:
            raise ValueError("direction sequence at least as long as the edge count")
        try:
            ok = _DIRECTIONS.issuperset(prefix)
        except TypeError:  # an unhashable direction
            ok = False
        if not ok:
            for d in prefix:
                if d not in (LEFT, RIGHT):
                    raise ValueError(f"bad direction {d!r}")


class ExplicitTreeOracle(DecisionOracle):
    """Oracle backed by a fully materialized tree.

    Nodes are nested tuples (label, left, right); leaves are (label, None,
    None).  Construction checks depth and the per-path permutation property
    and writes every node into the table.
    """

    def __init__(self, root_node, edge_ids):
        super().__init__(edge_ids)
        if self.m > EXPLICIT_TREE_MAX_EDGES:
            raise ValueError(_TOO_DEEP)
        self.root = root_node
        self._validate(root_node, set(), ())

    def _validate(self, node, used, prefix):
        label, left, right = node
        if label not in self.edge_ids:
            raise ValueError(f"unknown edge label {label!r}")
        if label in used:
            raise ValueError(f"edge {label} repeated along a path")
        used.add(label)
        self.table[prefix] = label
        if left is None and right is None:
            if len(prefix) != self.m - 1:
                raise ValueError("leaf at wrong depth")
        elif left is None or right is None:
            raise ValueError("node must have zero or two children")
        else:
            if len(prefix) >= self.m - 1:
                raise ValueError("tree deeper than the edge count")
            self._validate(left, used, prefix + (LEFT,))
            self._validate(right, used, prefix + (RIGHT,))
        used.discard(label)


class LinearOrderOracle(DecisionOracle):
    """Level-constant oracle: at depth k it answers the (m-k)-th edge.

    Directions and `used` are ignored entirely, so every visit order is the
    reverse of the given linear order.  Nothing is tabled: a walk never asks
    one prefix twice, and the depth alone gives the answer.
    """

    def __init__(self, order):
        order = tuple(order)
        if len(set(order)) != len(order):
            raise ValueError("order must be a permutation of the edges")
        super().__init__(order)
        self.order = order

    def next_edge(self, prefix, used=None):
        self._check_prefix(prefix)
        return self.order[self.m - 1 - len(prefix)]


class OrderMapOracle(DecisionOracle):
    """Lazy oracle realizing a tree-compatible order map.

    The map is read into the table once (see `order_map_trie`): every prefix
    some spanning tree walks is answered by lookup.  Tree-compatibility
    makes that answer independent of the tree that put it there; branches
    walked by no tree fall back to the smallest unused edge id, which keeps
    outputs deterministic.
    """

    def __init__(self, g: Graph, table):
        trie, witness = order_map_trie(g, table)
        if witness is not None:
            t1, t2, k = witness
            raise ValueError(
                f"order map is not tree-compatible: trees {t1:#x} and {t2:#x} "
                f"agree up to step {k} but diverge")
        super().__init__(g.edge_ids, trie)

    def choose(self, prefix, unused):
        return unused[0]


class RandomOracle(DecisionOracle):
    """Seeded lazy oracle: uniform unused edge at every node.

    Each prefix seeds its own generator from the seed and the directions, so
    the seed alone determines every answer, making runs reproducible.
    """

    def __init__(self, edge_ids, seed):
        super().__init__(edge_ids)
        self.seed = seed

    def choose(self, prefix, unused):
        if len(unused) == 1:  # what `choice` returns, without the seeding
            return unused[0]
        return random.Random(f"{self.seed}|{''.join(prefix)}").choice(unused)


# -- builders ------------------------------------------------------------------


def from_linear_order(order):
    return LinearOrderOracle(order)


def from_order_map(g: Graph, table):
    return OrderMapOracle(g, table)


def random_oracle(g: Graph, seed):
    return RandomOracle(g.edge_ids, seed)


# -- tree-compatibility ----------------------------------------------------------


def order_map_trie(g: Graph, table):
    """Read an order map into one trie; return (trie, witness).

    Each spanning tree t walks its order, stepping right exactly when the
    edge is in t; the trie maps every direction prefix walked to the edge
    that comes next.  The map is tree-compatible when no prefix is reached
    with two different next edges, and the witness is None.  Otherwise the
    walk stops at the first such prefix, of length k, and the witness is
    (first tree there, t, k): the two orders agree on their first k edges,
    which lie in both trees or in neither, and differ at position k.
    """
    trees = spanning_trees(g)
    ids = set(g.edge_ids)
    for t in trees:
        if t not in table:
            raise ValueError(f"order map table is missing tree {t:#x}")
        if set(table[t]) != ids or len(table[t]) != len(ids):
            raise ValueError(f"entry for tree {t:#x} is not an edge permutation")
    trie = {}
    owner = {}
    for t in trees:
        prefix = ()
        for k, e in enumerate(table[t]):
            known = trie.get(prefix)
            if known is None:
                trie[prefix] = e
                owner[prefix] = t
            elif known != e:
                return trie, (owner[prefix], t, k)
            prefix += (RIGHT if (t >> e) & 1 else LEFT,)
    return trie, None


# -- s-expression file format ----------------------------------------------------
#
# `(2 (1 (0 (3) (3)) (0 (3) (3))) (3 (1 (0) (0)) (0 (1) (1))))`
# Node label first, then the left and right subtrees; leaves are `(label)`.


def parse_decision_tree(text):
    """Parse the s-expression format into a nested (label, left, right) tree."""
    tokens = [(lineno, tok) for lineno, line in read_tokens(text)
              for tok in line]
    pos = 0

    def peek():
        if pos >= len(tokens):
            raise ValueError("unexpected end of tree")
        return tokens[pos][1]

    def parse_node(depth):
        nonlocal pos
        if depth > EXPLICIT_TREE_MAX_EDGES:  # a tree on m edges nests m deep
            raise ValueError(_TOO_DEEP)
        if peek() != "(":
            raise ValueError("expected '('")
        pos += 1
        if peek() in "()":
            raise ValueError("expected node label")
        label = read_int(*tokens[pos])
        pos += 1
        if peek() == ")":
            pos += 1
            return (label, None, None)
        left = parse_node(depth + 1)
        right = parse_node(depth + 1)
        if peek() != ")":
            raise ValueError("expected ')'")
        pos += 1
        return (label, left, right)

    node = parse_node(1)
    if pos != len(tokens):
        raise ValueError("trailing tokens after tree")
    return node


def format_decision_tree(node):
    label, left, right = node
    if left is None:
        return f"({label})"
    return f"({label} {format_decision_tree(left)} {format_decision_tree(right)})"


def load_decision_tree(path, edge_ids):
    with open(path, "r", encoding="utf-8") as fh:
        return ExplicitTreeOracle(parse_decision_tree(fh.read()), edge_ids)
