import random
from fractions import Fraction

import pytest

from tutte_activities.poly import BivariatePoly, x_minus_1_pow, y_minus_1_pow


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


def test_integrality_predicates():
    assert BivariatePoly({(0, 0): 2}).has_nonnegative_integer_coefficients()
    assert not BivariatePoly({(0, 0): Fraction(1, 2)}).has_integer_coefficients()
    assert not BivariatePoly({(0, 0): -1}).has_nonnegative_integer_coefficients()


def test_integral_coefficients_are_stored_as_int():
    half = BivariatePoly({(1, 0): Fraction(1, 2), (0, 1): 3})
    total = half + half
    assert total == BivariatePoly({(1, 0): 1, (0, 1): 6})
    assert all(type(c) is int for c in total.terms.values())
    assert type(half.terms[1, 0]) is Fraction
    assert total.machine_form() == "(1,0,1/1)\n(0,1,6/1)"
