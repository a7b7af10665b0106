"""Kernel tests: Laurent arithmetic, truncated series, exact determinants."""

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
    geometric_sum,
    is_zero,
    series_expand,
)


def test_rational_contract():
    r = Rational(6, -4)
    assert (r.numerator, r.denominator) == (-3, 2)  # reduced, denominator > 0
    assert Rational(1, 2) == Rational(2, 4)
    assert Rational(1, 3) + Rational(1, 6) == Rational(1, 2)


def v(name, power=1):
    return LaurentPoly.variable(name, power)


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


def test_products_drop_exactly_the_vanished_variables():
    # x^-1 * x must drop x; (x + 1)(x - 1), with no negative exponent,
    # keeps it; a zero factor leaves no variable
    x, y = v("x"), v("y")
    one = v("x", -1) * x
    assert one == 1 and one.variables == ()
    assert (v("x", -1) * y * x).variables == ("y",)
    square = (x + 1) * (x - 1)
    assert square.variables == ("x",)
    assert square.terms == {(2,): 1, (0,): -1}
    assert ((x + y) * LaurentPoly.zero()).variables == ()


def test_laurent_negative_exponents_and_units():
    u = LaurentPoly.monomial(Fraction(2), {"a": -1, "b": 3})
    assert u.is_unit()
    assert u * u.unit_inverse() == 1
    with pytest.raises(NonInvertibleError):
        (v("a") + 1).unit_inverse()


# Property tests: every kernel result is in the normal form the public
# constructor produces, whichever internal path built it.  Coefficients are
# drawn as ints and as Fractions (integral ones too), so both the int and
# the Fraction paths of the kernel run.
KERNEL = settings(max_examples=100, deadline=None, derandomize=True, database=None)
NAMES = ("a", "b", "c")
# Fraction(n, d) rather than st.fractions, which draws about 7x slower
scalars = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
)
nonzero_scalars = scalars.filter(bool)


@st.composite
def polys(draw, names=NAMES, max_terms=5, coeffs=scalars):
    # variables in any order; coefficients may be 0 or plain ints
    chosen = draw(st.permutations(names))[: draw(st.integers(0, len(names)))]
    exps = st.tuples(*[st.integers(-3, 3)] * len(chosen))
    return LaurentPoly(chosen, draw(st.dictionaries(exps, coeffs, max_size=max_terms)))


def monomials(coeffs):
    return st.builds(
        LaurentPoly.monomial,
        coeffs,
        st.dictionaries(st.sampled_from(NAMES + ("d",)), st.integers(-3, 3)),
    )


units = monomials(nonzero_scalars)


def matrices(rows, cols, entries=scalars):
    row = st.lists(entries, min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows).map(RingMatrix)


def assert_normal(p):
    assert isinstance(p, LaurentPoly)
    assert type(p.variables) is tuple
    assert list(p.variables) == sorted(set(p.variables))
    for i, name in enumerate(p.variables):
        assert any(e[i] for e in p.terms), f"unused variable {name}"
    for exps, coeff in p.terms.items():
        assert type(exps) is tuple and len(exps) == len(p.variables)
        # canonical: an int when integral, else a Fraction; never bool/float
        assert type(coeff) is (int if coeff.denominator == 1 else Fraction)
        assert coeff != 0
    rebuilt = LaurentPoly(p.variables, dict(p.terms))
    assert p == rebuilt and hash(p) == hash(rebuilt)


@KERNEL
@given(polys(), polys(), polys())
def test_ring_axioms_on_random_triples(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p


@KERNEL
@given(polys(), polys(), scalars)
def test_arithmetic_results_are_normal(p, q, c):
    for result in (p + q, p - q, p * q, -p, p + c, c - p, c * p, p * p - p * p):
        assert_normal(result)
    x = v("x")
    s = TruncatedSeries(p + x * q, "x", 2)
    for result in (s.poly * (q + x * p), c * s.poly, s.poly + c):
        assert_normal(TruncatedSeries(result, "x", 2).poly)


@KERNEL
@given(polys(), polys())
def test_truncation_results_are_normal(p, q):
    # truncation drops the x^3 q terms, a truncated product the x^2 q^2
    # terms, and series_expand the x^2 terms of (p + x q)(1 + x q): the
    # variables of q may vanish from each result (all of them at p = -1)
    x = v("x")
    assert_normal(TruncatedSeries(p + x ** 3 * q, "x", 2).poly)
    s = TruncatedSeries(p + x * q, "x", 1)
    assert_normal(TruncatedSeries(s.poly * s.poly, "x", 1).poly)
    assert_normal(series_expand(p + x * q, 1 - x * q, "x", 1).poly)


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


int_coeffs = st.integers(-3, 3)
signed_units = monomials(st.sampled_from((1, -1)))


def assert_int_only(p):
    assert_normal(p)
    assert all(type(c) is int for c in p.terms.values())


@KERNEL
@given(
    polys(coeffs=int_coeffs),
    polys(coeffs=int_coeffs),
    st.integers(0, 3),
    signed_units,
    st.integers(-3, 3),
    st.dictionaries(
        st.sampled_from(NAMES + ("d",)),
        st.one_of(int_coeffs, signed_units, polys(max_terms=3, coeffs=int_coeffs)),
    ),
)
def test_integer_inputs_give_integer_results(p, q, k, u, j, mapping):
    for result in (p + q, p - q, p * q, -p, p + 2, 3 - p, 2 * p, p ** k, u ** j):
        assert_int_only(result)
    try:
        substituted = p.subs(mapping)
    except NonInvertibleError:
        pass
    else:
        assert_int_only(substituted)
    # a series whose constant term is a unit with coefficient +-1
    x = v("x")
    den = u + x * p + x ** 2 * q
    num = q + x * p
    inverse = TruncatedSeries(den, "x", 4).inverse()
    for result in (
        TruncatedSeries(num * den, "x", 4),
        inverse,
        series_expand(num, den, "x", 4),
    ):
        assert_int_only(result.poly)
    assert TruncatedSeries(den * inverse.poly, "x", 4) == 1


def test_inverses_of_integers_are_fractions():
    def only_coeff(p):
        (coeff,) = p.terms.values()
        return coeff

    u = LaurentPoly.monomial(2, {"a": 1})
    for p in (u.unit_inverse(), u ** -1, v("a", -1).subs({"a": 2})):
        coeff = only_coeff(p)
        assert type(coeff) is Fraction and coeff == Fraction(1, 2)
    assert type(only_coeff(v("a", -3).subs({"a": -1}))) is int
    assert type(only_coeff((-v("a")).unit_inverse())) is int
    half = LaurentPoly.monomial(Fraction(1, 2), {"a": 1})
    assert type(only_coeff(half ** 0)) is int
    assert type(only_coeff(half * 2)) is int
    assert type(LaurentPoly.constant(Fraction(4, 2)).as_fraction()) is Fraction
    assert only_coeff(LaurentPoly.constant(True)) == 1
    assert type(only_coeff(LaurentPoly.constant(True))) is int
    with pytest.raises(TypeError):
        LaurentPoly.constant(0.5)


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
    s = series_expand(one, 1 - x, "X", 3)
    assert s.poly == 1 + x + x ** 2 + x ** 3


def test_series_expand_two_factor_product():
    # 1/((1-X)(1-X^2)) to degree 2, expected by hand multiplication
    x = v("X")
    s = series_expand(1, (1 - x) * (1 - x ** 2), "X", 2)
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
    s = series_expand(num, den, "X", 2)
    expected = 1 + T1 * T2 * X + (T1 ** 2 * T2 ** 2 + T1 * T2 + 1) * X ** 2
    assert s.poly == expected


def test_series_expand_requires_invertible_constant_term():
    x = v("X")
    with pytest.raises(NonInvertibleError) as err:
        series_expand(1, x + x ** 2, "X", 4)
    assert "X" in str(err.value)


@KERNEL
@given(nonzero_scalars, scalars, scalars, scalars, scalars)
def test_series_times_denominator_recovers_numerator(d0, d1, d2, n0, n1):
    # the numerator carries T, which the denominator lacks
    x, t = v("X"), v("T")
    den = d0 + d1 * x + d2 * x ** 2
    num = n0 * t + n1 * x
    s = series_expand(num, den, "X", 8)
    assert TruncatedSeries(s.poly * den, "X", 8) == TruncatedSeries(num, "X", 8)


def test_series_inverse_with_unit_exact_coefficient():
    q, x = v("q"), v("x")
    s = TruncatedSeries(1 - q ** -1 * x, "x", 5).inverse()
    expected = sum((v("q", -k) * x ** k for k in range(6)), LaurentPoly.zero())
    assert s.poly == expected


def test_series_coefficient_extraction():
    x, t = v("X"), v("T")
    s = TruncatedSeries(1 + t * x + (t ** 2 + 1) * x ** 2, "X", 2)
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


small_polys = st.dictionaries(st.tuples(st.integers(-1, 1)), scalars, max_size=2).map(
    lambda terms: LaurentPoly(("a",), terms)
)


@KERNEL
@given(st.data(), st.sampled_from((3, 4)))
def test_det_is_multiplicative_on_random_matrices(data, n):
    m1 = data.draw(matrices(n, n, small_polys))
    m2 = data.draw(matrices(n, n, small_polys))
    assert (m1 * m2).det() == m1.det() * m2.det()


@KERNEL
@given(st.data(), st.lists(st.integers(1, 4), min_size=4, max_size=4))
def test_matrix_product_associative_on_random_triples(data, dims):
    entries = st.one_of(scalars, polys(max_terms=2))
    a, b, c = (data.draw(matrices(dims[i], dims[i + 1], entries)) for i in range(3))
    assert (a * b) * c == a * (b * c)


# Oracle for the sparse products: mostly-zero matrices whose zeros are 0,
# Fraction(0) and LaurentPoly.zero(), against the textbook triple loop.
sparse_entries = st.one_of(
    st.just(0), st.just(Fraction(0)), st.just(LaurentPoly.zero()),
    scalars, polys(max_terms=2),
)


def textbook_product(a, b):
    return [
        [
            sum((a[i][t] * b[t][j] for t in range(len(b))), LaurentPoly.zero())
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


def same_entry(x, y):
    return is_zero(LaurentPoly.zero() + x - y)


@KERNEL
@given(st.data(), st.lists(st.integers(1, 8), min_size=3, max_size=3))
def test_sparse_products_match_textbook_loop(data, dims):
    n, m, k = dims
    a = data.draw(matrices(n, m, sparse_entries))
    b = data.draw(matrices(m, k, sparse_entries))
    vector = data.draw(st.lists(sparse_entries, min_size=m, max_size=m))
    rows_a, rows_b = [list(r) for r in a.entries], [list(r) for r in b.entries]
    expected = textbook_product(rows_a, rows_b)
    product = a * b
    assert (product.rows, product.cols) == (n, k)
    for got, want in zip(product.entries, expected):
        assert all(same_entry(x, y) for x, y in zip(got, want))
    applied = a.apply(vector)
    want = [row[0] for row in textbook_product(rows_a, [[e] for e in vector])]
    assert len(applied) == n
    assert all(same_entry(x, y) for x, y in zip(applied, want))
    # == against the loop's differently typed entries, then one entry off
    assert product == RingMatrix(expected)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, k - 1))
    expected[i][j] = expected[i][j] + data.draw(nonzero_scalars)
    assert not product == RingMatrix(expected)
    assert product != RingMatrix(expected)


@KERNEL
@given(st.data(), st.integers(1, 5), st.integers(1, 5))
def test_scale_is_the_entrywise_product(data, n, m):
    # scale skips zero entries; each entry must still be scalar * entry
    a = data.draw(matrices(n, m, sparse_entries))
    scalar = data.draw(st.one_of(scalars, polys(max_terms=2)))
    scaled = a.scale(scalar)
    assert (scaled.rows, scaled.cols) == (n, m)
    for got, row in zip(scaled.entries, a.entries):
        assert all(same_entry(x, scalar * e) for x, e in zip(got, row))
    assert scaled == RingMatrix([[scalar * e for e in row] for row in a.entries])


def test_charpoly_examples():
    eye = RingMatrix.identity(2)
    t = v("t")
    assert eye.charpoly("t") == (t - 1) ** 2
    mu = v("mu")
    d = RingMatrix.diagonal([mu, mu.unit_inverse()])
    assert d.charpoly("t") == t ** 2 - (mu + mu.unit_inverse()) * t + 1


@KERNEL
@given(matrices(2, 2), matrices(2, 2))
def test_charpoly_of_block_diagonal_is_product(m1, m2):
    b1, b2 = m1.entries, m2.entries
    block = [
        [b1[0][0], b1[0][1], 0, 0],
        [b1[1][0], b1[1][1], 0, 0],
        [0, 0, b2[0][0], b2[0][1]],
        [0, 0, b2[1][0], b2[1][1]],
    ]
    lhs = RingMatrix(block).charpoly("t")
    assert lhs == m1.charpoly("t") * m2.charpoly("t")


@KERNEL
@given(st.data(), st.integers(1, 4))
def test_charpoly_constant_term_is_signed_det(data, n):
    m = data.draw(matrices(n, n))
    const = m.charpoly("t").subs({"t": 0})
    assert const == (-1) ** n * m.det()


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
        (TruncatedSeries(1, "x", 3), 1),
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
        TruncatedSeries(v("X", -1), "X", 3)
    # a set of names would match no variable and truncate nothing
    with pytest.raises(TypeError):
        TruncatedSeries(v("X", 5), {"X"}, 3)


def test_truncated_series_incompatible_bounds():
    from g2adjoint.lfunc import _first_series_mismatch

    a = TruncatedSeries(v("X"), "X", 3)
    for other in (TruncatedSeries(v("X"), "X", 4), TruncatedSeries(v("X"), "Y", 3)):
        with pytest.raises(ValueError):
            _first_series_mismatch(a, other)
    assert _first_series_mismatch(a, TruncatedSeries(v("X"), "X", 3)) is None


def test_first_series_mismatch_names_the_least_monomial():
    from g2adjoint.lfunc import _first_series_mismatch

    x = v("X")
    a = TruncatedSeries(x, "X", 4)
    for extra, text in (
        (3 * v("T1", -1) * v("T2") ** 2 * x ** 2 + v("T2") * x ** 3,
         "series degree 2, monomial T1^-1*T2^2*X^2"),
        (v("T2") * x ** 2 - 2 * v("T1") * x ** 2, "series degree 2, monomial T2*X^2"),
        (LaurentPoly.constant(5), "series degree 0, monomial 1"),
    ):
        got = _first_series_mismatch(TruncatedSeries(x + extra, "X", 4), a)
        assert got == text


def test_truncated_series_with_other_bounds_are_unequal():
    a = TruncatedSeries(v("X"), "X", 3)
    b = TruncatedSeries(v("X"), "X", 4)
    c = TruncatedSeries(v("X"), "Y", 3)
    assert a != b and a != c
    assert a not in [b, c]
    assert a == TruncatedSeries(v("X"), "X", 3)
    # a non-series is compared with the polynomial exactly, so a series is
    # never equal to a value that hashes differently
    s, x = TruncatedSeries(1, "x", 0), v("x")
    assert s != 1 + x and 1 + x != s
    assert len({s, 1 + x}) == 2


def test_truncated_series_bound_zero():
    s = series_expand(1, 1 - v("X"), "X", 0)
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
