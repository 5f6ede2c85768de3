"""Exact sparse bivariate polynomials with rational coefficients.

Terms are stored as a map from (x_exponent, y_exponent) to a nonzero
coefficient: an int when it is integral, else a Fraction.  Every library
route builds integer polynomials, and integer arithmetic stays in int;
fractions come only from callers (the tests' half-weight sums, say).
Integrality of a result is asserted by the callers, never assumed here; the
tests assert it on `terms` directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _shift_axis(terms, axis, d):
    """The terms with exponent e on `axis` expanded as (t + d)^e."""
    powers = [1]
    for _ in range(max(key[axis] for key in terms)):
        powers.append(powers[-1] * d)
    out = {}
    for key, c in terms.items():
        e = key[axis]
        for a in range(e + 1):
            k = (a, key[1]) if axis == 0 else (key[0], a)
            out[k] = out.get(k, 0) + c * comb(e, a) * powers[e - a]
    return out


class BivariatePoly:
    """Immutable polynomial in two variables x and y over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (i, j), c in dict(terms).items():
                if i < 0 or j < 0:
                    raise ValueError("exponents must be non-negative")
                c = _exact(c)
                if c:
                    clean[(i, j)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, x_exp, y_exp, coeff=1):
        return cls({(x_exp, y_exp): coeff})

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return BivariatePoly(terms)

    def __sub__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return BivariatePoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        terms = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                terms[k] = terms.get(k, 0) + c1 * c2
        return BivariatePoly(terms)

    def scale(self, c):
        """Multiply every coefficient by the rational scalar c."""
        c = _exact(c)
        return BivariatePoly({k: v * c for k, v in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = BivariatePoly.one()
        for _ in range(n):
            result = result * self
        return result

    def substitute_shift(self, dx, dy):
        """Return p(x + dx, y + dy), expanded binomially.

        (x + dx)^i (y + dy)^j factors, so x is expanded first and then y,
        each as sum_a C(e, a) d^(e-a) t^a, and an axis whose shift is 0 is
        skipped.  Each axis is one pass over the terms, so when the terms
        x^i y^j fill a staircase, as every route's tally does, the shift costs
        O(sum (i + j)) products; expanding both axes at once costs
        O(sum i*j).
        """
        terms = self.terms
        for axis, d in ((0, _exact(dx)), (1, _exact(dy))):
            if d and terms:
                terms = _shift_axis(terms, axis, d)
        return BivariatePoly(terms)

    def evaluate(self, x, y):
        x, y = _exact(x), _exact(y)
        return sum(c * x**i * y**j for (i, j), c in self.terms.items())

    # -- queries -------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, BivariatePoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- rendering -----------------------------------------------------

    def sorted_terms(self):
        """Terms sorted by (x_exp desc, y_exp desc); the canonical order."""
        return sorted(self.terms.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for (i, j), c in self.sorted_terms():
            mono = []
            if i == 1:
                mono.append("x")
            elif i > 1:
                mono.append(f"x^{i}")
            if j == 1:
                mono.append("y")
            elif j > 1:
                mono.append(f"y^{j}")
            mag = abs(c)
            if not mono or mag != 1:
                mono.insert(0, str(mag))
            body = "*".join(mono)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"BivariatePoly({str(self)!r})"

    def machine_form(self):
        """One `(<x_exp>,<y_exp>,<num>/<den>)` line per term, canonical order."""
        lines = []
        for (i, j), c in self.sorted_terms():
            lines.append(f"({i},{j},{c.numerator}/{c.denominator})")
        return "\n".join(lines)

    @classmethod
    def from_machine_form(cls, text):
        terms = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                if not (line.startswith("(") and line.endswith(")")):
                    raise ValueError
                i_s, j_s, frac = line[1:-1].split(",")
                num, den = frac.split("/")
                key = (int(i_s), int(j_s))
                coeff = Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad machine-form line: {line!r}") from None
            if key in terms:
                raise ValueError(f"repeated machine-form term: {line!r}")
            terms[key] = coeff
        return cls(terms)


def x_minus_1_pow(a):
    """(x-1)^a as a BivariatePoly."""
    return BivariatePoly({(1, 0): 1, (0, 0): -1}) ** a


def y_minus_1_pow(b):
    return BivariatePoly({(0, 1): 1, (0, 0): -1}) ** b
