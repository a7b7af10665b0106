"""Kernel tests: Laurent arithmetic, truncated series, exact determinants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2adjoint.algebra import (
    LaurentPoly,
    NonInvertibleError,
    Rational,
    RingMatrix,
    TruncatedSeries,
    equal_mod_inverses,
    exact_div_difference,
    geometric_sum,
    series_expand,
)


def test_rational_contract():
    r = Rational(6, -4)
    assert (r.numerator, r.denominator) == (-3, 2)  # reduced, denominator > 0
    assert Rational(1, 2) == Rational(2, 4)
    assert Rational(1, 3) + Rational(1, 6) == Rational(1, 2)


def v(name, power=1):
    return LaurentPoly.variable(name, power)


def random_poly(rng, names, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(-max_exp, max_exp) for _ in names)
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return LaurentPoly(names, terms)


def test_constant_and_variable_basics():
    a = v("a")
    assert a + 0 == a
    assert a - a == 0
    assert a * a == v("a", 2)
    assert (a + 1) * (a - 1) == v("a", 2) - 1
    assert LaurentPoly.constant(Fraction(3, 6)).as_fraction() == Fraction(1, 2)


def test_unused_variables_are_pruned():
    p = LaurentPoly(("a", "b"), {(1, 0): 1})
    assert p == v("a")
    assert p.variables == ("a",)


def test_laurent_negative_exponents_and_units():
    u = LaurentPoly.monomial(Fraction(2), {"a": -1, "b": 3})
    assert u.is_unit()
    assert u * u.unit_inverse() == 1
    with pytest.raises(NonInvertibleError):
        (v("a") + 1).unit_inverse()


def test_ring_axioms_on_random_triples():
    rng = random.Random(20240811)
    for _ in range(100):
        p = random_poly(rng, ("a", "b"))
        q = random_poly(rng, ("b", "c"))
        r = random_poly(rng, ("a", "c"))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p


# Property tests: every kernel result is in the normal form the public
# constructor produces, whichever internal path built it.
KERNEL = settings(max_examples=100, deadline=None, derandomize=True, database=None)
NAMES = ("a", "b", "c")
scalars = st.one_of(
    st.integers(-3, 3), st.fractions(-5, 5, max_denominator=4)
)
nonzero_scalars = scalars.filter(bool)


@st.composite
def polys(draw, names=NAMES, max_terms=5):
    # variables in any order; coefficients may be 0 or plain ints
    chosen = draw(st.permutations(names))[: draw(st.integers(0, len(names)))]
    exps = st.tuples(*[st.integers(-3, 3)] * len(chosen))
    return LaurentPoly(chosen, draw(st.dictionaries(exps, scalars, max_size=max_terms)))


units = st.builds(
    LaurentPoly.monomial,
    nonzero_scalars,
    st.dictionaries(st.sampled_from(NAMES + ("d",)), st.integers(-3, 3)),
)


def assert_normal(p):
    assert isinstance(p, LaurentPoly)
    assert type(p.variables) is tuple
    assert list(p.variables) == sorted(set(p.variables))
    for i, name in enumerate(p.variables):
        assert any(e[i] for e in p.terms), f"unused variable {name}"
    for exps, coeff in p.terms.items():
        assert type(exps) is tuple and len(exps) == len(p.variables)
        assert type(coeff) is Fraction and coeff != 0
    rebuilt = LaurentPoly(p.variables, dict(p.terms))
    assert p == rebuilt and hash(p) == hash(rebuilt)


@KERNEL
@given(polys(), polys(), scalars)
def test_arithmetic_results_are_normal(p, q, c):
    for result in (p + q, p - q, p * q, -p, p + c, c - p, c * p, p * p - p * p):
        assert_normal(result)


@KERNEL
@given(polys(max_terms=3), st.integers(0, 4), units, st.integers(-3, 3))
def test_powers_are_normal(p, k, u, j):
    assert_normal(p ** k)
    assert_normal(u ** j)
    assert u ** j * u ** -j == 1


@KERNEL
@given(
    polys(),
    st.dictionaries(
        st.sampled_from(NAMES + ("d",)), st.one_of(polys(max_terms=3), scalars)
    ),
)
def test_substitution_results_are_normal(p, mapping):
    values = {k: v if isinstance(v, LaurentPoly) else LaurentPoly.constant(v)
              for k, v in mapping.items()}
    needs_unit = any(
        e < 0 and not values[name].is_unit()
        for exps in p.terms
        for name, e in zip(p.variables, exps)
        if name in values
    )
    if needs_unit:
        with pytest.raises(NonInvertibleError):
            p.subs(mapping)
    else:
        assert_normal(p.subs(mapping))


@KERNEL
@given(polys(), st.dictionaries(st.sampled_from(NAMES), units, min_size=1))
def test_unit_substitution_matches_term_by_term(p, mapping):
    expected = LaurentPoly.zero()
    for exps, coeff in p.terms.items():
        term = LaurentPoly.constant(coeff)
        for name, e in zip(p.variables, exps):
            term = term * mapping.get(name, v(name)) ** e
        expected = expected + term
    result = p.subs(mapping)
    assert_normal(result)
    assert result == expected


def test_substitution():
    p = v("a", 2) * v("b", -1) + 3
    q = p.subs({"b": LaurentPoly.monomial(1, {"c": 2})})
    assert q == v("a", 2) * v("c", -2) + 3
    with pytest.raises(NonInvertibleError):
        p.subs({"b": v("c") + 1})
    assert p.subs({"a": 2, "b": Fraction(1, 2)}) == 11


def test_scale_exponents_is_adams_substitution():
    p = v("a", 2) * v("b", -1) + v("a") + 1
    assert p.scale_exponents(3) == p.subs(
        {"a": LaurentPoly.monomial(1, {"a": 3}), "b": LaurentPoly.monomial(1, {"b": 3})}
    )


def test_exact_division_by_difference():
    x1, x2 = v("x1"), v("x2")
    p = x1 ** 3 - x2 ** 3
    q = exact_div_difference(p, "x1", "x2")
    assert q == x1 ** 2 + x1 * x2 + x2 ** 2
    with pytest.raises(ValueError):
        exact_div_difference(x1 ** 2 + x2, "x1", "x2")


def test_geometric_sum_reflection_convention():
    x = v("x")
    assert geometric_sum("x", 0, 3) == 1 + x + x ** 2 + x ** 3
    assert geometric_sum("x", 1, 0) == 0
    # sum_{j=1}^{-2} x^j = -(x^-1 + x^0)
    assert geometric_sum("x", 1, -2) == -(v("x", -1) + 1)
    # (1 - x^(m+1)) == (1 - x) * sum_{0..m} for negative m as well
    for m in range(-4, 5):
        lhs = 1 - v("x", m + 1)
        assert lhs == (1 - x) * geometric_sum("x", 0, m)


def test_series_expand_geometric():
    one = LaurentPoly.one()
    x = v("X")
    s = series_expand(one, 1 - x, {"X"}, 3)
    assert s.poly == 1 + x + x ** 2 + x ** 3


def test_series_expand_two_factor_product():
    # 1/((1-X)(1-X^2)) to degree 2, expected by hand multiplication
    x = v("X")
    s = series_expand(1, (1 - x) * (1 - x ** 2), {"X"}, 2)
    assert s.poly == 1 + x + 2 * x ** 2


def test_series_expand_poincare_numerator_to_degree_two():
    # Six-factor denominator with exact T1, T2; frozen from hand expansion.
    X, T1, T2 = v("X"), v("T1"), v("T2")
    num = 1 - T1 ** 3 * T2 ** 3 * X ** 6
    den = (
        (1 - T1 * T2 * X)
        * (1 - T1 * T2 * X ** 2)
        * (1 - T1 ** 3 * X ** 3)
        * (1 - T2 ** 3 * X ** 3)
        * (1 - X ** 2)
        * (1 - X ** 3)
    )
    s = series_expand(num, den, {"X"}, 2)
    expected = 1 + T1 * T2 * X + (T1 ** 2 * T2 ** 2 + T1 * T2 + 1) * X ** 2
    assert s.poly == expected


def test_series_expand_requires_invertible_constant_term():
    x = v("X")
    with pytest.raises(NonInvertibleError) as err:
        series_expand(1, x + x ** 2, {"X"}, 4)
    assert "X" in str(err.value)


def test_series_times_denominator_recovers_numerator():
    rng = random.Random(7)
    x = v("X")
    for _ in range(10):
        den = 1 + rng.randint(-3, 3) * x + rng.randint(-3, 3) * x ** 2
        num = rng.randint(-3, 3) + rng.randint(-3, 3) * x
        s = series_expand(num, den, {"X"}, 8)
        back = s * TruncatedSeries(den, {"X"}, 8)
        assert back == TruncatedSeries(num, {"X"}, 8)


def test_truncation_is_total_degree_across_series_vars():
    x, y = v("X"), v("Y")
    s = TruncatedSeries((1 + x + y) * (1 + x + y), {"X", "Y"}, 1)
    assert s.poly == 1 + 2 * x + 2 * y


def test_series_inverse_with_unit_exact_coefficient():
    q, x = v("q"), v("x")
    s = TruncatedSeries(1 - q ** -1 * x, {"x"}, 5).inverse()
    expected = sum((v("q", -k) * x ** k for k in range(6)), LaurentPoly.zero())
    assert s.poly == expected


def test_series_coefficient_extraction():
    x, t = v("X"), v("T")
    s = TruncatedSeries(1 + t * x + (t ** 2 + 1) * x ** 2, {"X"}, 2)
    assert s.coefficient(2) == t ** 2 + 1
    assert s.coefficient(5) == 0


def test_matrix_identities_and_examples():
    eye = RingMatrix.identity(8)
    assert eye.det() == 1
    a1, a2, a3 = v("a1"), v("a2"), v("a3")
    d = RingMatrix.diagonal([a1, a2, a3])
    assert d.det() == a1 * a2 * a3
    a, b, rho = v("a"), v("b"), v("rho")
    norm = RingMatrix([[a, b], [b * rho, a]])
    assert norm.det() == a ** 2 - b ** 2 * rho


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        RingMatrix([[1, 2, 3], [4, 5, 6]]).det()
    with pytest.raises(ValueError):
        RingMatrix([[1, 2, 3], [4, 5, 6]]).charpoly("t")


def test_det_is_multiplicative_on_random_matrices():
    rng = random.Random(12345)
    for n in (3, 4):
        for _ in range(8):
            m1 = RingMatrix(
                [[random_poly(rng, ("a",), 2, 1) for _ in range(n)] for _ in range(n)]
            )
            m2 = RingMatrix(
                [[random_poly(rng, ("a",), 2, 1) for _ in range(n)] for _ in range(n)]
            )
            assert (m1 * m2).det() == m1.det() * m2.det()


def test_matrix_product_associative_on_random_triples():
    rng = random.Random(999)
    ms = [
        RingMatrix([[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)])
        for _ in range(3)
    ]
    assert (ms[0] * ms[1]) * ms[2] == ms[0] * (ms[1] * ms[2])


def test_charpoly_examples():
    eye = RingMatrix.identity(2)
    t = v("t")
    assert eye.charpoly("t") == (t - 1) ** 2
    mu = v("mu")
    d = RingMatrix.diagonal([mu, mu.unit_inverse()])
    assert d.charpoly("t") == t ** 2 - (mu + mu.unit_inverse()) * t + 1


def test_charpoly_of_block_diagonal_is_product():
    rng = random.Random(4242)
    for _ in range(5):
        b1 = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        b2 = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        block = [
            [b1[0][0], b1[0][1], 0, 0],
            [b1[1][0], b1[1][1], 0, 0],
            [0, 0, b2[0][0], b2[0][1]],
            [0, 0, b2[1][0], b2[1][1]],
        ]
        lhs = RingMatrix(block).charpoly("t")
        rhs = RingMatrix(b1).charpoly("t") * RingMatrix(b2).charpoly("t")
        assert lhs == rhs


def test_charpoly_constant_term_is_signed_det():
    rng = random.Random(31)
    m = RingMatrix([[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
    cp = m.charpoly("t")
    const = cp.subs({"t": 0})
    assert const == -m.det()  # (-1)^3 det


def test_anti_transpose():
    m = RingMatrix([[1, 2], [3, 4]])
    assert m.anti_transpose() == RingMatrix([[4, 2], [3, 1]])


def test_formal_inverse_elimination():
    a, b, rho, n = v("a"), v("b"), v("rho"), v("N")
    value = a ** 2 - b ** 2 * rho
    lhs = n.unit_inverse() * value
    assert equal_mod_inverses(lhs, LaurentPoly.one(), {"N": value})
    assert not equal_mod_inverses(n.unit_inverse() * a, 1, {"N": value})


def test_str_is_deterministic():
    p = v("b") - v("a") + LaurentPoly.monomial(Fraction(1, 2), {"a": -2})
    assert str(p) == "1/2*a^-2 + b - a"


def test_zero_and_unit_edge_cases():
    zero = LaurentPoly.zero()
    assert str(zero) == "0"
    assert zero ** 0 == 1
    with pytest.raises(NonInvertibleError):
        zero.unit_inverse()
    assert v("a") ** -2 == v("a", -2)
    assert (v("a") == "a") is False


@pytest.mark.parametrize(
    "poly, scalar",
    [
        (LaurentPoly.constant(0), 0),
        (LaurentPoly.constant(1), 1),
        (LaurentPoly.constant(Fraction(1, 2)), Fraction(1, 2)),
        (RingMatrix([[LaurentPoly.constant(1)]]), RingMatrix([[1]])),
        (TruncatedSeries(1, {"x"}, 3), 1),
    ],
    ids=["0", "1", "1/2", "1x1-matrix", "series"],
)
def test_equal_values_hash_equal(poly, scalar):
    assert poly == scalar
    assert hash(poly) == hash(scalar)
    assert len({poly, scalar}) == 1


def test_substitution_of_absent_variable_is_identity():
    p = v("a") + 1
    assert p.subs({"zz": 7}) is p


def test_truncated_series_rejects_negative_series_exponent():
    with pytest.raises(ValueError):
        TruncatedSeries(v("X", -1), {"X"}, 3)


def test_truncated_series_incompatible_bounds():
    a = TruncatedSeries(v("X"), {"X"}, 3)
    b = TruncatedSeries(v("X"), {"X"}, 4)
    with pytest.raises(ValueError):
        a + b


def test_truncated_series_bound_zero():
    s = series_expand(1, 1 - v("X"), {"X"}, 0)
    assert s.poly == 1


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        RingMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RingMatrix([])
    with pytest.raises(ValueError):
        RingMatrix([[1, 2]]) * RingMatrix([[1, 2]])
    with pytest.raises(ValueError):
        RingMatrix([[1, 2]]).apply([1, 2, 3])


def test_matrix_add_sub_reject_shape_mismatch():
    wide = RingMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        wide - RingMatrix.identity(3)
    with pytest.raises(ValueError):
        RingMatrix.identity(2) + wide
    assert wide + wide == wide.scale(2)


def test_anti_transpose_is_involution():
    m = RingMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.anti_transpose().anti_transpose() == m
