"""Independent correctness checks, written without the library's routes.

The routes of an item are compared with each other, and every polynomial
is also held against two facts computed here from the edge list alone:
T(1,1) is the number of spanning trees (the matrix-tree determinant, in
exact fractions) and T(2,2) = 2^m.
"""

from __future__ import annotations

import re
from fractions import Fraction

_TERM = re.compile(r"^(\d+)?(?:\*?x(?:\^(\d+))?)?(?:\*?y(?:\^(\d+))?)?$")


def tree_count(vertex_count, edges):
    """Spanning trees of a multigraph by the matrix-tree theorem.

    `edges` holds (id, u, v) triples; loops add nothing and each parallel
    edge counts once more in the Laplacian.
    """
    n = vertex_count
    lap = [[Fraction(0)] * n for _ in range(n)]
    for _, u, v in edges:
        if u != v:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
    minor = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    size = n - 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if minor[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            minor[col], minor[pivot] = minor[pivot], minor[col]
            det = -det
        det *= minor[col][col]
        for r in range(col + 1, size):
            factor = minor[r][col] / minor[col][col]
            if factor:
                for c in range(col, size):
                    minor[r][c] -= factor * minor[col][c]
    return int(det)


def evaluate(terms, x, y):
    """Value of {(i, j): coeff} at (x, y), exactly."""
    return sum((Fraction(c) * Fraction(x) ** i * Fraction(y) ** j
                for (i, j), c in terms.items()), Fraction(0))


def parse_polynomial(text):
    """Terms of a polynomial printed as `x^2 + 3*x*y - y + 1`."""
    text = text.strip()
    if text == "0":
        return {}
    terms = {}
    sign = 1
    for token in text.replace("- ", "-").replace("+ ", "+").split():
        if token[0] in "+-":
            sign, token = (1 if token[0] == "+" else -1), token[1:]
        match = _TERM.match(token)
        if not token or match is None:
            raise ValueError(f"unparsable term {token!r} in {text!r}")
        coeff, xe, ye = match.groups()
        i = int(xe) if xe else (1 if "x" in token else 0)
        j = int(ye) if ye else (1 if "y" in token else 0)
        key = (i, j)
        terms[key] = terms.get(key, 0) + sign * int(coeff or 1)
        sign = 1
    return {k: c for k, c in terms.items() if c}


def check_polynomial(terms, vertex_count, edges, trees=None):
    """Raise AssertionError unless T(1,1) and T(2,2) hold for the graph."""
    if trees is None:
        trees = tree_count(vertex_count, edges)
    t11 = evaluate(terms, 1, 1)
    if t11 != trees:
        raise AssertionError(f"T(1,1) = {t11}, matrix-tree count is {trees}")
    t22 = evaluate(terms, 2, 2)
    if t22 != 2 ** len(edges):
        raise AssertionError(f"T(2,2) = {t22}, expected 2^{len(edges)}")
