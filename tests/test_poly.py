import random

import pytest

from spantree import ExactnessError, MultiPoly


def x(i, n=3):
    return MultiPoly.variable(n, i)


def random_poly(rng, nvars, max_terms=4, max_exp=3, max_coeff=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[exps] = rng.randint(-max_coeff, max_coeff)
    return MultiPoly(nvars, terms)


def test_construction_drops_zero_coefficients():
    p = MultiPoly(2, {(1, 0): 0, (0, 1): 3})
    assert p.terms() == (((0, 1), 3),)
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(2, {(-1, 0): 1})


@pytest.mark.parametrize(
    "terms", [{(1,): 2.5}, {(1,): "2"}, {(1.0,): 1}], ids=["float", "str", "float-exponent"]
)
def test_construction_rejects_non_integer_terms(terms):
    # coefficients and exponents are read as given, never converted
    with pytest.raises(ValueError):
        MultiPoly(1, terms)


def test_difference_of_squares():
    n = 2
    x1, x2 = MultiPoly.variable(n, 1), MultiPoly.variable(n, 2)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


def test_substitute_all_ones():
    p = x(1) * x(2) * x(3) * (x(1) + x(2) + x(3))
    assert p.substitute_all_ones() == 3
    assert MultiPoly.zero(3).substitute_all_ones() == 0


def test_additive_identity_and_int_mixing():
    p = x(1) * 2 + 5
    assert p + 0 == p
    assert p - p == MultiPoly.zero(3)
    assert 1 + p - 1 == p
    assert (p * 0).is_zero()


@pytest.mark.parametrize("value", [0, 3, -7])
def test_a_constant_hashes_as_the_int_it_equals(value):
    for nvars in (0, 2):
        const = MultiPoly.const(nvars, value)
        assert const == value and hash(const) == hash(value)
        assert len({const, value}) == 1
    assert len({MultiPoly.zero(3), 0}) == 1
    assert len({x(1) + value, value}) == 2


def test_constants_of_any_variable_count_are_equal_by_value():
    # equality is transitive through the int, so the set's size does not
    # depend on the order its members are added in
    assert len({MultiPoly.const(2, 3), 3, MultiPoly.const(5, 3)}) == 1
    assert len({3, MultiPoly.const(2, 3), MultiPoly.const(5, 3)}) == 1
    assert MultiPoly.const(2, 3) == MultiPoly.const(5, 3)
    assert MultiPoly.zero(1) == MultiPoly.zero(4)
    assert MultiPoly.const(2, 3) != MultiPoly.const(5, 4)
    assert MultiPoly.variable(2, 1) != MultiPoly.variable(3, 1)


def test_equal_values_hash_equal():
    rng = random.Random(41)
    values = [v for v in range(-3, 4)]
    values += [MultiPoly.const(nvars, c) for nvars in range(4) for c in range(-3, 4)]
    values += [random_poly(rng, nvars, max_coeff=2) for nvars in range(1, 4) for _ in range(40)]
    for a in values:
        for b in values:
            if a == b:
                assert b == a and hash(a) == hash(b), (a, b)


@pytest.mark.parametrize("foreign", ["x", 1.0, None], ids=["str", "float", "None"])
def test_operands_other_than_polys_and_ints_raise_type_error(foreign):
    p = x(1) + 2
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError):
            op(p, foreign)
        with pytest.raises(TypeError):
            op(foreign, p)


def test_int_operands_on_either_side_keep_their_values():
    p = x(1) * 3 + x(2)
    assert 1 + p == p + 1 == MultiPoly(3, {(1, 0, 0): 3, (0, 1, 0): 1, (0, 0, 0): 1})
    assert p - 1 == MultiPoly(3, {(1, 0, 0): 3, (0, 1, 0): 1, (0, 0, 0): -1})
    assert 2 * p == p * 2 == MultiPoly(3, {(1, 0, 0): 6, (0, 1, 0): 2})


def test_variable_count_mismatch():
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError):
            op(MultiPoly.variable(2, 1), MultiPoly.variable(3, 1))
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 3)


def test_ring_laws_randomized():
    rng = random.Random(97)
    for _ in range(150):
        nvars = rng.randint(1, 4)
        p = random_poly(rng, nvars)
        q = random_poly(rng, nvars)
        r = random_poly(rng, nvars)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_exact_div_round_trip():
    rng = random.Random(201)
    for _ in range(120):
        p = random_poly(rng, rng.randint(1, 3))
        k = rng.choice((-1, 1)) * rng.choice((1, 2, 7, rng.randint(1, 10**30)))
        assert (p * k).exact_div(k) == p
    p = x(1) * x(2) * 6 - x(3) * 4 + 2
    assert p.exact_div(-2) == x(3) * 2 - x(1) * x(2) * 3 - 1
    assert MultiPoly.zero(3).exact_div(5) == MultiPoly.zero(3)


def test_exact_div_detects_remainders():
    # one coefficient with a remainder is enough, whatever the signs
    for p, d in ((x(1) * 3 + 1, 3), (x(1) * 6 + 4, 4), (x(1) * 7 - 2, -2), (-x(2) * 6, 4)):
        with pytest.raises(ExactnessError):
            p.exact_div(d)
    with pytest.raises(ZeroDivisionError):
        x(1).exact_div(0)


@pytest.mark.parametrize(
    "divisor", [MultiPoly.const(3, 2), MultiPoly.variable(3, 1), 2.0, "2"],
    ids=["constant-poly", "variable", "float", "str"],
)
def test_exact_div_rejects_non_int_divisors(divisor):
    # the package divides only by integers, never by a polynomial
    with pytest.raises(TypeError):
        (x(1) * 2).exact_div(divisor)


def test_display_graded_lex():
    n = 3
    x1, x2, x3 = (MultiPoly.variable(n, i) for i in (1, 2, 3))
    p = x3 + x1 * x1 * x2 * 3 + x1 * x2 * x2 - 4
    assert str(p) == "3*x1^2*x2 + x1*x2^2 + x3 - 4"
    assert str(MultiPoly.zero(2)) == "0"
    assert str(MultiPoly.const(2, -7)) == "-7"
    assert str(-x1) == "-x1"


def test_display_is_stable_for_equal_polys():
    a = x(1) * x(2) + x(3)
    b = x(3) + x(2) * x(1)
    assert a == b
    assert str(a) == str(b)


def test_lift_renames_variables_into_a_larger_ring():
    p = x(1, 2) * x(1, 2) * x(2, 2) - 3 * x(2, 2) + 5
    lifted = p.lift(4, (3, 1))
    assert lifted == x(3, 4) * x(3, 4) * x(1, 4) - 3 * x(1, 4) + 5
    assert p.lift(2, (1, 2)) == p
    assert MultiPoly.zero(2).lift(5, (4, 2)) == MultiPoly.zero(5)
    for labels in ((1,), (1, 1), (0, 2), (2, 5)):
        with pytest.raises(ValueError):
            p.lift(4, labels)


def test_foreign_operands_and_sizes_are_refused():
    with pytest.raises(ValueError):
        MultiPoly(-1)
    one = MultiPoly.const(2, 1)
    with pytest.raises(TypeError):
        one + "x"
    assert (one == "1") is False
