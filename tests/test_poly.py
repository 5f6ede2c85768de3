import random
from fractions import Fraction

import pytest

from tutte_activities import poly
from tutte_activities.decision import from_linear_order
from tutte_activities.poly import BivariatePoly, x_minus_1_pow, y_minus_1_pow
from tutte_activities.tutte import (tutte_definitional, tutte_delcon,
                                    tutte_delta, tutte_forest_activity)


def test_square_of_x_minus_1():
    assert str(x_minus_1_pow(2)) == "x^2 - 2*x + 1"


def test_canonical_string_order():
    p = BivariatePoly({(2, 0): 1, (1, 1): 1, (1, 0): 1, (0, 2): 1, (0, 1): 1})
    assert str(p) == "x^2 + x*y + x + y^2 + y"


def test_zero_and_constants():
    assert str(BivariatePoly.zero()) == "0"
    assert str(BivariatePoly.constant(Fraction(3, 2))) == "3/2"
    assert str(BivariatePoly({(1, 0): -1})) == "-x"


def test_subgraph_weight_sum_for_doubled_triangle():
    # one edgeless subgraph, four single edges, five acyclic pairs, one
    # two-edge cycle, four three-edge subgraphs, the full graph
    total = (x_minus_1_pow(2)
             + x_minus_1_pow(1).scale(4)
             + BivariatePoly.constant(5)
             + x_minus_1_pow(1) * y_minus_1_pow(1)
             + y_minus_1_pow(1).scale(4)
             + y_minus_1_pow(2))
    assert str(total) == "x^2 + x*y + x + y^2 + y"


def random_poly(rng, max_exp=3, terms=4):
    return BivariatePoly({
        (rng.randrange(max_exp), rng.randrange(max_exp)):
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        for _ in range(terms)})


def test_ring_axioms_exact():
    rng = random.Random(20240817)
    for _ in range(40):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_shift_round_trip():
    rng = random.Random(7)
    for _ in range(25):
        p = random_poly(rng)
        assert p.substitute_shift(1, 1).substitute_shift(-1, -1) == p


def test_shift_expands_binomially():
    p = BivariatePoly.monomial(2, 0)  # x^2 at x -> x+1 gives (x+1)^2
    assert p.substitute_shift(1, 0) == BivariatePoly(
        {(2, 0): 1, (1, 0): 2, (0, 0): 1})
    p = BivariatePoly({(2, 1): 1, (1, 0): 3})  # x^2*y + 3*x at x -> x+1/2
    assert p.substitute_shift(Fraction(1, 2), 0) == BivariatePoly({
        (2, 1): 1, (1, 1): 1, (0, 1): Fraction(1, 4),
        (1, 0): 3, (0, 0): Fraction(3, 2)})


def test_shift_on_both_axes_evaluates_at_the_shifted_point():
    rng = random.Random(24)
    shifts = (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))
    points = [(0, 0), (1, -2), (Fraction(2, 3), Fraction(-5, 7)), (3, 1)]
    for _ in range(6):
        p = random_poly(rng, max_exp=5, terms=6)
        for a in shifts:
            for b in shifts:
                q = p.substitute_shift(a, b)
                for x, y in points:
                    assert q.evaluate(x, y) == p.evaluate(x + a, y + b), \
                        (p, a, b, x, y)


def test_shift_of_integers_keeps_int_coefficients():
    rng = random.Random(25)
    for _ in range(20):
        p = BivariatePoly({(rng.randrange(6), rng.randrange(6)):
                           rng.randrange(-9, 10) for _ in range(6)})
        for a in (0, 1, -1, 2):
            for b in (0, 1, -1, 2):
                q = p.substitute_shift(a, b)
                assert all(type(c) is int for c in q.terms.values())
                assert q.evaluate(2, -3) == p.evaluate(2 + a, -3 + b)
    assert BivariatePoly.zero().substitute_shift(1, -1) == BivariatePoly.zero()


def test_machine_form_round_trip():
    rng = random.Random(99)
    for _ in range(10):
        p = random_poly(rng)
        assert BivariatePoly.from_machine_form(p.machine_form()) == p


def test_scale_and_evaluate():
    p = BivariatePoly({(1, 0): 1, (0, 1): 1})
    assert p.scale(Fraction(1, 2)).evaluate(2, 2) == 2
    assert p.evaluate(3, 4) == 7


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        BivariatePoly({(-1, 0): 1})


def test_integral_coefficients_are_stored_as_int():
    half = BivariatePoly({(1, 0): Fraction(1, 2), (0, 1): 3})
    total = half + half
    assert total == BivariatePoly({(1, 0): 1, (0, 1): 6})
    assert all(type(c) is int for c in total.terms.values())
    assert type(half.terms[1, 0]) is Fraction
    assert total.machine_form() == "(1,0,1/1)\n(0,1,6/1)"
    two = BivariatePoly({(0, 0): Fraction(4, 2)}).terms[0, 0]
    assert two == 2 and type(two) is int
    half = BivariatePoly({(0, 0): 0.5}).terms[0, 0]
    assert half == Fraction(1, 2) and type(half) is Fraction


def test_integer_path_makes_no_fraction(monkeypatch, g4):
    def no_fraction(*args):
        raise AssertionError("Fraction called on an integer path")

    monkeypatch.setattr(poly, "Fraction", no_fraction)
    oracle = from_linear_order(g4.edge_ids)
    for result in (tutte_definitional(g4), tutte_delcon(g4),
                   tutte_delta(g4, oracle), tutte_forest_activity(g4, oracle)):
        assert str(result) == "x^2 + x*y + x + y^2 + y"
        assert all(type(c) is int for c in result.terms.values())
    p = BivariatePoly({(1, 0): 1, (0, 1): 2, (0, 0): -1})  # x + 2*y - 1
    q = BivariatePoly({(1, 1): 1, (0, 0): 3})  # x*y + 3
    cases = [
        (p + q, {(1, 1): 1, (1, 0): 1, (0, 1): 2, (0, 0): 2}),
        (p - q, {(1, 1): -1, (1, 0): 1, (0, 1): 2, (0, 0): -4}),
        (p * q, {(2, 1): 1, (1, 2): 2, (1, 1): -1, (1, 0): 3, (0, 1): 6,
                 (0, 0): -3}),
        (p ** 2, {(2, 0): 1, (1, 1): 4, (0, 2): 4, (1, 0): -2, (0, 1): -4,
                  (0, 0): 1}),
        (p.substitute_shift(-1, -1), {(1, 0): 1, (0, 1): 2, (0, 0): -4}),
        (q.substitute_shift(-1, -1), {(1, 1): 1, (1, 0): -1, (0, 1): -1,
                                      (0, 0): 4}),
    ]
    for result, terms in cases:
        assert result.terms == terms
        assert all(type(c) is int for c in result.terms.values())
