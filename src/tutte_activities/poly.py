"""Exact sparse bivariate polynomials with rational coefficients.

Terms are stored as a map from (x_exponent, y_exponent) to a nonzero
coefficient: an int when it is integral, else a Fraction.  Rational (not
just integer) coefficients are needed because one of the subgraph
expansions sums powers of x/2 and y/2; integrality of the final result is
asserted by the callers, never assumed here.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


class BivariatePoly:
    """Immutable polynomial in two variables x and y over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (i, j), c in dict(terms).items():
                if i < 0 or j < 0:
                    raise ValueError("exponents must be non-negative")
                c = Fraction(c)
                if c != 0:
                    clean[(i, j)] = c.numerator if c.denominator == 1 else c
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

    @classmethod
    def x(cls):
        return cls({(1, 0): 1})

    @classmethod
    def y(cls):
        return cls({(0, 1): 1})

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + c
        return BivariatePoly(terms)

    def __sub__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) - c
        return BivariatePoly(terms)

    def __neg__(self):
        return BivariatePoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        terms = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                terms[k] = terms.get(k, Fraction(0)) + c1 * c2
        return BivariatePoly(terms)

    def scale(self, c):
        """Multiply every coefficient by the rational scalar c."""
        c = Fraction(c)
        return BivariatePoly({k: v * c for k, v in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = BivariatePoly.one()
        for _ in range(n):
            result = result * self
        return result

    def substitute_shift(self, dx, dy):
        """Return p(x + dx, y + dy), expanded binomially."""
        dx = Fraction(dx)
        dy = Fraction(dy)
        terms = {}
        for (i, j), c in self.terms.items():
            for a in range(i + 1):
                xc = comb(i, a) * dx ** (i - a)
                for b in range(j + 1):
                    yc = comb(j, b) * dy ** (j - b)
                    k = (a, b)
                    terms[k] = terms.get(k, Fraction(0)) + c * xc * yc
        return BivariatePoly(terms)

    def evaluate(self, x, y):
        x = Fraction(x)
        y = Fraction(y)
        return sum((c * x**i * y**j for (i, j), c in self.terms.items()),
                   Fraction(0))

    # -- queries -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def has_integer_coefficients(self):
        return all(c.denominator == 1 for c in self.terms.values())

    def has_nonnegative_integer_coefficients(self):
        return all(c.denominator == 1 and c >= 0 for c in self.terms.values())

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
            if not (line.startswith("(") and line.endswith(")")):
                raise ValueError(f"bad machine-form line: {line!r}")
            i_s, j_s, frac = line[1:-1].split(",")
            num, den = frac.split("/")
            terms[(int(i_s), int(j_s))] = Fraction(int(num), int(den))
        return cls(terms)


def x_minus_1_pow(a):
    """(x-1)^a as a BivariatePoly."""
    return BivariatePoly({(1, 0): 1, (0, 0): -1}) ** a


def y_minus_1_pow(b):
    return BivariatePoly({(0, 1): 1, (0, 0): -1}) ** b
