"""Decision trees as lazy oracles, plus builders and the compatibility check.

A decision tree for a graph with m edges is a perfect binary tree of depth m
whose node labels along every root-to-leaf path form a permutation of the
edge set.  Oracles expose only the behavioural view: a function from a
direction sequence (the path walked so far) to the next edge.  Explicit
materialization is exponential, so only trees with m <= 16 may be built
eagerly; everything else answers lazily per queried path.
"""

from __future__ import annotations

import random

from .graph import Graph, spanning_trees

LEFT = "l"
RIGHT = "r"

EXPLICIT_TREE_MAX_EDGES = 16


class DecisionOracle:
    """Base interface: next_edge(prefix of directions) -> edge id.

    Implementations must be pure: the same prefix always yields the same
    edge, and the answers along any root-to-leaf path are pairwise distinct.
    """

    def next_edge(self, prefix):
        raise NotImplementedError

    def _check_prefix(self, prefix, m):
        if len(prefix) >= m:
            raise ValueError("direction sequence at least as long as the edge count")
        for d in prefix:
            if d not in (LEFT, RIGHT):
                raise ValueError(f"bad direction {d!r}")


class ExplicitTreeOracle(DecisionOracle):
    """Oracle backed by a fully materialized tree.

    Nodes are nested tuples (label, left, right); leaves are (label, None,
    None).  Construction checks depth and the per-path permutation property.
    """

    def __init__(self, root_node, edge_ids):
        self.edge_ids = frozenset(edge_ids)
        self.m = len(self.edge_ids)
        if self.m > EXPLICIT_TREE_MAX_EDGES:
            raise ValueError(
                f"explicit trees are limited to {EXPLICIT_TREE_MAX_EDGES} edges")
        self.root = root_node
        self._validate(root_node, set(), 0)

    def _validate(self, node, used, depth):
        label, left, right = node
        if label not in self.edge_ids:
            raise ValueError(f"unknown edge label {label!r}")
        if label in used:
            raise ValueError(f"edge {label} repeated along a path")
        used.add(label)
        if left is None and right is None:
            if depth != self.m - 1:
                raise ValueError("leaf at wrong depth")
        elif left is None or right is None:
            raise ValueError("node must have zero or two children")
        else:
            if depth >= self.m - 1:
                raise ValueError("tree deeper than the edge count")
            self._validate(left, used, depth + 1)
            self._validate(right, used, depth + 1)
        used.discard(label)

    def next_edge(self, prefix):
        self._check_prefix(prefix, self.m)
        node = self.root
        for d in prefix:
            node = node[1] if d == LEFT else node[2]
        return node[0]


class LinearOrderOracle(DecisionOracle):
    """Level-constant oracle: at depth k it answers the (m-k)-th edge.

    Directions are ignored entirely, so every visit order is the reverse of
    the given linear order.
    """

    def __init__(self, order):
        order = tuple(order)
        if len(set(order)) != len(order):
            raise ValueError("order must be a permutation of the edges")
        self.order = order
        self.m = len(order)

    def next_edge(self, prefix):
        self._check_prefix(prefix, self.m)
        return self.order[self.m - 1 - len(prefix)]


class OrderMapOracle(DecisionOracle):
    """Lazy oracle realizing a tree-compatible order map.

    The map is read into a trie once (see `order_map_trie`): every prefix
    some spanning tree walks is answered by lookup.  Tree-compatibility
    makes that answer independent of the tree that put it there; branches
    walked by no tree fall back to the smallest unused edge id, which keeps
    outputs deterministic.
    """

    def __init__(self, g: Graph, table):
        self.edge_ids = g.edge_ids
        self.m = g.edge_count()
        self.trie, witness = order_map_trie(g, table)
        if witness is not None:
            t1, t2, k = witness
            raise ValueError(
                f"order map is not tree-compatible: trees {t1:#x} and {t2:#x} "
                f"agree up to step {k} but diverge")

    def next_edge(self, prefix):
        prefix = tuple(prefix)
        answer = self.trie.get(prefix)
        if answer is None:
            self._check_prefix(prefix, self.m)
            used = set()
            for j in range(len(prefix) + 1):
                answer = self.trie.get(prefix[:j])
                if answer is None:
                    answer = min(e for e in self.edge_ids if e not in used)
                used.add(answer)
        return answer


class RandomOracle(DecisionOracle):
    """Seeded lazy oracle: uniform unused edge at every node.

    Memoized per prefix so repeated queries agree; the seed alone determines
    every answer, making runs reproducible.
    """

    def __init__(self, edge_ids, seed):
        self.edge_ids = tuple(sorted(edge_ids))
        self.m = len(self.edge_ids)
        self.seed = seed
        self._memo = {}

    def next_edge(self, prefix):
        prefix = tuple(prefix)
        if prefix in self._memo:
            return self._memo[prefix]
        self._check_prefix(prefix, self.m)
        used = {self.next_edge(prefix[:j]) for j in range(len(prefix))}
        choices = [e for e in self.edge_ids if e not in used]
        rng = random.Random(f"{self.seed}|{''.join(prefix)}")
        answer = rng.choice(choices)
        self._memo[prefix] = answer
        return answer


# -- builders ------------------------------------------------------------------


def explicit_tree(root_node, edge_ids):
    """Build an oracle from a nested (label, left, right) structure."""
    return ExplicitTreeOracle(root_node, edge_ids)


def from_linear_order(order):
    return LinearOrderOracle(order)


def from_order_map(g: Graph, table):
    return OrderMapOracle(g, table)


def random_oracle(g: Graph, seed):
    return RandomOracle(g.edge_ids, seed)


# -- tree-compatibility ----------------------------------------------------------


def check_order_map_table(g: Graph, table):
    """Validate the table: one full edge permutation per spanning tree."""
    ids = set(g.edge_ids)
    for t in spanning_trees(g):
        if t not in table:
            raise ValueError(f"order map table is missing tree {t:#x}")
        if set(table[t]) != ids or len(table[t]) != len(ids):
            raise ValueError(f"entry for tree {t:#x} is not an edge permutation")


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
    check_order_map_table(g, table)
    trie = {}
    owner = {}
    for t in spanning_trees(g):
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


def check_tree_compatible(g: Graph, table):
    """Return None when the order map is realizable by one decision tree.

    Otherwise return the witness (tree, tree', k) of `order_map_trie`.
    """
    return order_map_trie(g, table)[1]


# -- s-expression file format ----------------------------------------------------
#
# `(2 (1 (0 (3) (3)) (0 (3) (3))) (3 (1 (0) (0)) (0 (1) (1))))`
# Node label first, then the left and right subtrees; leaves are `(label)`.


def _tokenize(text):
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_decision_tree(text):
    """Parse the s-expression format into a nested (label, left, right) tree."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        if pos >= len(tokens):
            raise ValueError("unexpected end of tree")
        return tokens[pos]

    def parse_node():
        nonlocal pos
        if peek() != "(":
            raise ValueError("expected '('")
        pos += 1
        if peek() in "()":
            raise ValueError("expected node label")
        label = int(tokens[pos])
        pos += 1
        if peek() == ")":
            pos += 1
            return (label, None, None)
        left = parse_node()
        right = parse_node()
        if peek() != ")":
            raise ValueError("expected ')'")
        pos += 1
        return (label, left, right)

    node = parse_node()
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
        return explicit_tree(parse_decision_tree(fh.read()), edge_ids)
