"""Representation-theory tests: Schur characters against the
Gelfand-Tsetlin and bialternant oracles, the adjoint/Frobenius matrices,
symmetric powers against Newton's identity, and the Weyl read-off of
irreducible multiplicities against a greedy peel."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2adjoint.algebra import LaurentPoly, RingMatrix
from g2adjoint.reps import (
    ADJOINT_BASIS,
    NonSplitClass,
    SplitClass,
    adjoint_weights,
    adjugate3,
    conjugation_matrix,
    fr_eigensplit,
    frobenius_matrix,
    r_matrix,
    schur_char,
    schur_expand,
    sl2_char,
    sym,
    sym_power_char,
)

# Derandomized property tests: the same cases on every run.
REPS = settings(max_examples=10, deadline=None, derandomize=True, database=None)


def weyl_dimension(m1, m2):
    return (m1 + 1) * (m2 + 1) * (m1 + m2 + 2) // 2


def gt_character(m1, m2):
    """Independent oracle: sum over Gelfand-Tsetlin patterns with top row
    (m1+m2, m2, 0), substituting alpha3 = 1/(alpha1 alpha2)."""
    lam = (m1 + m2, m2, 0)
    total = sum(lam)
    acc = LaurentPoly.zero()
    for p in range(lam[1], lam[0] + 1):
        for q in range(lam[2], lam[1] + 1):
            for r in range(q, p + 1):
                w3 = total - p - q
                acc = acc + LaurentPoly.monomial(
                    1, {"alpha1": r - w3, "alpha2": p + q - r - w3}
                )
    return acc


@pytest.mark.parametrize("m1,m2", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (3, 2), (2, 4)])
def test_schur_matches_gelfand_tsetlin_oracle(m1, m2):
    assert schur_char(m1, m2) == gt_character(m1, m2)


def coefficient_map(poly, name):
    """Decompose `poly` along one variable: exponent -> LaurentPoly in the
    rest."""
    if name not in poly.variables:
        return {0: poly} if poly.terms else {}
    i = poly.variables.index(name)
    rest = poly.variables[:i] + poly.variables[i + 1:]
    out = {}
    for exps, coeff in poly.terms.items():
        out.setdefault(exps[i], {})[exps[:i] + exps[i + 1:]] = coeff
    return {k: LaurentPoly(rest, t) for k, t in out.items()}


def exact_div_difference(poly, va, vb):
    """Exact division of `poly` by (va - vb); raises if not divisible.

    `poly` must have nonnegative exponents in va.  Synthetic (Horner)
    division treating va as the main variable with coefficients in the
    remaining ring.
    """
    coeffs = coefficient_map(poly, va)
    if any(k < 0 for k in coeffs):
        raise ValueError(f"negative exponent in {va}")
    if not coeffs:
        return LaurentPoly.zero()
    n = max(coeffs)
    r = sym(vb)
    x = sym(va)
    quotient = LaurentPoly.zero()
    carry = LaurentPoly.zero()
    for k in range(n, 0, -1):
        carry = coeffs.get(k, LaurentPoly.zero()) + r * carry
        quotient = quotient + carry * x ** (k - 1)
    remainder = coeffs.get(0, LaurentPoly.zero()) + r * carry
    if remainder:
        raise ValueError(f"not divisible by {va} - {vb}")
    return quotient


def test_exact_division_by_difference():
    x1, x2 = sym("x1"), sym("x2")
    p = x1 ** 3 - x2 ** 3
    q = exact_div_difference(p, "x1", "x2")
    assert q == x1 ** 2 + x1 * x2 + x2 ** 2
    with pytest.raises(ValueError):
        exact_div_difference(x1 ** 2 + x2, "x1", "x2")


def bialternant_character(m1, m2, alpha1=None, alpha2=None):
    """Independent oracle: the Schur polynomial s_(m1+m2, m2, 0) as the
    alternant divided exactly by the three Vandermonde binomials, at
    x1, x2, x3 = alpha1, alpha2, (alpha1 alpha2)^-1 (substituted term by
    term with ** and *, so that LaurentPoly.subs is not used)."""
    mu = (m1 + m2 + 2, m2 + 1, 0)
    names = ("x1", "x2", "x3")
    alternant = LaurentPoly.zero()
    for perm in permutations(range(3)):
        sign = 1
        for x in range(3):
            for y in range(x + 1, 3):
                if perm[x] > perm[y]:
                    sign = -sign
        term = LaurentPoly.monomial(
            sign, {names[i]: mu[perm[i]] for i in range(3)}
        )
        alternant = alternant + term
    quotient = exact_div_difference(alternant, "x1", "x2")
    quotient = exact_div_difference(quotient, "x1", "x3")
    quotient = exact_div_difference(quotient, "x2", "x3")
    a1 = sym("alpha1") if alpha1 is None else alpha1
    a2 = sym("alpha2") if alpha2 is None else alpha2
    values = {"x1": a1, "x2": a2, "x3": (a1 * a2).unit_inverse()}
    acc = LaurentPoly.zero()
    for exps, coeff in quotient.terms.items():
        term = LaurentPoly.constant(coeff)
        for name, e in zip(quotient.variables, exps):
            term = term * values[name] ** e
        acc = acc + term
    return acc


@pytest.mark.parametrize(
    "alpha1,alpha2",
    [
        (None, None),
        (sym("alpha1"), sym("alpha2")),
        (sym("alpha2"), sym("alpha1")),
        (-sym("a", 2), sym("b", -1)),
        (sym("b", -1), -sym("a", 2)),
        (-sym("alpha2"), None),
        (None, -1),
    ],
    ids=["default", "symbolic", "symbolic-swap", "units", "units-swap",
         "alpha1-only", "alpha2-only"],
)
def test_schur_matches_bialternant_oracle(alpha1, alpha2):
    values = {
        name: value
        for name, value in (("alpha1", alpha1), ("alpha2", alpha2))
        if value is not None
    }
    for m1 in range(9):
        for m2 in range(9 - m1):
            assert schur_char(m1, m2).subs(values) == bialternant_character(
                m1, m2, alpha1, alpha2
            ), (m1, m2)


@pytest.mark.parametrize("m1,m2", [(0, 0), (1, 0), (2, 3)])
def test_schur_argument_contract(m1, m2):
    for bad in [(-1 - m1, m2), (m1, -1 - m2)]:
        with pytest.raises(ValueError):
            schur_char(*bad)


@pytest.mark.parametrize("m1,m2", [(0, 0), (1, 1), (2, 0), (3, 1), (4, 4)])
def test_schur_dimension(m1, m2):
    value = int(schur_char(m1, m2).subs({"alpha1": 1, "alpha2": 1}))
    assert value == weyl_dimension(m1, m2)


def test_schur_examples():
    assert schur_char(0, 0) == 1
    weights = adjoint_weights()
    total = LaurentPoly.zero()
    for w in weights:
        total = total + w
    assert schur_char(1, 1) == total  # sum over alpha_i/alpha_j plus 2


def test_schur_rejects_negative():
    with pytest.raises(ValueError):
        schur_char(-1, 0)


def test_schur_weyl_invariance():
    a1, a2 = sym("alpha1"), sym("alpha2")
    a3 = (a1 * a2).unit_inverse()
    for m1 in range(5):
        for m2 in range(5):
            c = schur_char(m1, m2)
            assert c.subs({"alpha1": a2, "alpha2": a1}) == c
            assert c.subs({"alpha1": a2, "alpha2": a3}) == c
            assert c.subs({"alpha1": a3, "alpha2": a2}) == c


def test_sl2_char_values():
    z = sym("z")
    assert sl2_char(0, z) == 1
    assert sl2_char(2, z) == z ** 2 + 1 + z ** -2
    with pytest.raises(ValueError):
        sl2_char(-1, z)


@REPS
@given(st.integers(0, 5), st.integers(0, 5))
def test_sl2_clebsch_gordan(k1, k2):
    z = sym("z")
    lhs = sl2_char(k1, z) * sl2_char(k2, z)
    rhs = LaurentPoly.zero()
    for i in range(min(k1, k2) + 1):
        rhs = rhs + sl2_char(k1 + k2 - 2 * i, z)
    assert lhs == rhs


def frac_matrix(rows):
    return RingMatrix([[Fraction(x) for x in row] for row in rows])


row3 = st.lists(st.integers(-3, 3), min_size=3, max_size=3)
invertible = (
    st.lists(row3, min_size=3, max_size=3)
    .map(frac_matrix)
    .filter(lambda m: m.det() != 0)
)


def matrix_inverse(m):
    det = m.det()
    adj = adjugate3(m)
    return RingMatrix([[adj[i, j] / det for j in range(3)] for i in range(3)])


def adjoint(g):
    """r(g) for an explicit invertible 3x3 matrix g over Fractions."""
    return conjugation_matrix(g, matrix_inverse(g))


def test_r_matrix_identity_and_diagonal():
    identity = frac_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert adjoint(identity) == RingMatrix.identity(8)
    m = r_matrix(SplitClass.symbolic())
    assert m.is_diagonal()
    expected = adjoint_weights()
    for i in range(8):
        assert m[i, i] == expected[i]


def test_r_matrix_takes_only_satake_classes():
    with pytest.raises(TypeError):
        r_matrix(frac_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


@REPS
@given(invertible, invertible)
def test_r_is_homomorphism_on_random_pairs(g, h):
    assert adjoint(g) * adjoint(h) == adjoint(g * h)


@REPS
@given(invertible)
def test_r_has_determinant_one(g):
    assert adjoint(g).det() == 1


@REPS
@given(invertible, invertible)
def test_semidirect_product_law(g, h):
    # r((g, Fr)) r((h, Fr)) = r(g _th^-1) for the composite action
    fr = frobenius_matrix()
    lhs = (adjoint(g) * fr) * (adjoint(h) * fr)
    rhs = adjoint(g * matrix_inverse(h).anti_transpose())
    assert lhs == rhs


def test_frobenius_involution_and_twist():
    fr = frobenius_matrix()
    assert fr * fr == RingMatrix.identity(8)


def test_adjoint_basis_is_traceless_and_independent():
    for b in ADJOINT_BASIS:
        assert b[0, 0] + b[1, 1] + b[2, 2] == 0
    # coordinates of the basis itself are the unit vectors
    from g2adjoint.reps import adjoint_coordinates

    for i, b in enumerate(ADJOINT_BASIS):
        coords = adjoint_coordinates(b)
        assert [int(c) for c in coords] == [1 if j == i else 0 for j in range(8)]


def test_fr_eigensplit_dimensions_and_values():
    plus, minus = fr_eigensplit()
    assert len(plus) == 5 and len(minus) == 3
    mu = sym("mu")
    assert plus == [mu ** 2, mu, LaurentPoly.one(), mu ** -1, mu ** -2]
    assert minus == [mu, LaurentPoly.one(), mu ** -1]
    plus1, minus1 = fr_eigensplit(LaurentPoly.one())
    assert plus1 == [LaurentPoly.one()] * 5
    assert minus1 == [LaurentPoly.one()] * 3


@pytest.mark.parametrize(
    "name, fake",
    [
        # not an involution
        ("frobenius_matrix", lambda: RingMatrix.identity(8).scale(2)),
        # swaps E12 and E13, whose torus weights differ
        ("frobenius_matrix", lambda: RingMatrix(
            [[1 if {i, j} == {0, 1} or (i == j > 1) else 0 for j in range(8)]
             for i in range(8)]
        )),
        # r(Fr) commutes with itself, but the trace count needs a diagonal
        # torus
        ("r_matrix", lambda satake: frobenius_matrix()),
    ],
    ids=["not-involution", "not-commuting", "not-diagonal"],
)
def test_fr_eigensplit_refuses_bad_frobenius(monkeypatch, name, fake):
    # a raise, not an assert: `python -O` must not turn this into a split
    from g2adjoint import reps

    monkeypatch.setattr(reps, name, fake)
    with pytest.raises(ArithmeticError):
        fr_eigensplit()


def newton_sym_power(base_char, k):
    """Independent oracle: Newton's identity n h_n = sum_j p_j h_(n-j),
    with the power sum p_j of the weights as the exponent scaling
    v -> v^j (the Adams operation); n divides every coefficient."""
    def adams(j):
        return LaurentPoly(
            base_char.variables,
            {tuple(j * e for e in exps): c for exps, c in base_char.terms.items()},
        )

    h = [LaurentPoly.one()]
    for n in range(1, k + 1):
        acc = LaurentPoly.zero()
        for j in range(1, n + 1):
            acc = acc + adams(j) * h[n - j]
        assert all(c % n == 0 for c in acc.terms.values()), (n, acc)
        h.append(LaurentPoly(acc.variables, {e: c // n for e, c in acc.terms.items()}))
    return h[k]


@pytest.mark.parametrize("m1,m2", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
def test_sym_power_matches_newton_oracle(m1, m2):
    base = schur_char(m1, m2)
    chars = sym_power_char(base, 5)
    assert len(chars) == 6
    for k in range(6):
        assert chars[k] == newton_sym_power(base, k), k


def test_sym_power_refuses_non_characters():
    # a weight taken a negative number of times has no symmetric power,
    # and a fractional number of times cannot even be built
    with pytest.raises(ValueError):
        sym_power_char(-schur_char(1, 0), 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * schur_char(1, 0)


def test_sym_power_basics():
    base = schur_char(1, 1)
    assert sym_power_char(base, 0) == [1]
    h0, h1, h2 = sym_power_char(base, 2)
    assert h0 == 1
    assert h1 == base
    dim2 = int(h2.subs({"alpha1": 1, "alpha2": 1}))
    assert dim2 == 36
    with pytest.raises(ValueError):
        sym_power_char(base, -1)


@REPS
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(1, 3),
        min_size=1,
        max_size=4,
    )
)
def test_schur_expand_roundtrip(mults):
    char = LaurentPoly.zero()
    for (m1, m2), m in mults.items():
        char = char + m * schur_char(m1, m2)
    assert schur_expand(char) == mults


def test_schur_expand_rejects_non_character():
    with pytest.raises(ValueError):
        schur_expand(-schur_char(1, 0))
    with pytest.raises(ValueError):
        # the lone monomial alpha1^-1 is not Weyl-invariant
        schur_expand(sym("alpha1", -1))
    a1, a2 = sym("alpha1"), sym("alpha2")
    # each is invariant under one simple reflection only
    for half_symmetric in (a1 + a2, a2 + (a1 * a2).unit_inverse()):
        with pytest.raises(ValueError):
            schur_expand(half_symmetric)
    # Weyl-invariant, but not a polynomial in alpha1, alpha2 alone
    with pytest.raises(ValueError, match="not a character"):
        schur_expand(sym("q") * schur_char(1, 1))


def peel_expand(char):
    """Independent oracle: greedy peel-off at the monomial alpha1^u
    alpha2^w of greatest height 3u + w, a highest weight of a genuine
    character, subtracting one Gelfand-Tsetlin character per peel."""
    remaining = char
    out = {}
    while remaining:
        weights = []
        for exps, coeff in remaining.terms.items():
            e = dict(zip(remaining.variables, exps))
            u, w = e.get("alpha1", 0), e.get("alpha2", 0)
            weights.append((3 * u + w, u, w, coeff))
        _, u, w, coeff = top = max(weights)
        if not u >= w >= 0:
            raise ValueError(f"maximal monomial is not dominant ({top})")
        if coeff <= 0:
            raise ValueError(f"negative multiplicity {coeff}")
        out[u - w, w] = out.get((u - w, w), 0) + coeff
        remaining = remaining - coeff * gt_character(u - w, w)
    return out


@pytest.mark.parametrize("m1,m2", [(1, 1), (2, 0)])
def test_schur_expand_matches_peel_oracle(m1, m2):
    for k, char in enumerate(sym_power_char(schur_char(m1, m2), 8)):
        assert schur_expand(char) == peel_expand(char), k


def test_poincare_oracle_builds_one_schur_character(monkeypatch):
    from g2adjoint import lfunc, reps

    calls = {"schur_char": 0, "sym_power_char": 0}

    def counted(name):
        inner = getattr(reps, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        wrapper = counted(name)
        monkeypatch.setattr(reps, name, wrapper)
        monkeypatch.setattr(lfunc, name, wrapper)
    assert lfunc.poincare_oracle(12).passed
    assert calls == {"schur_char": 1, "sym_power_char": 1}


def test_sym_cube_of_adjoint():
    table = schur_expand(sym_power_char(schur_char(1, 1), 3)[3])
    assert sum(m * weyl_dimension(*k) for k, m in table.items()) == 120


def test_nonsplit_class_validation():
    with pytest.raises(ValueError):
        NonSplitClass(sym("mu") + 1)


def test_split_class_validation():
    # the Satake class alone carries the unit contract of alpha1, alpha2
    with pytest.raises(ValueError):
        SplitClass(1 + sym("a"), sym("b"))
    # over the integers 2 alpha1 is no unit
    with pytest.raises(ValueError):
        SplitClass(2 * sym("alpha1"), sym("alpha2"))


def test_conjugation_matrix_against_permutation():
    # conjugation by the cyclic permutation matrix permutes the E_ij basis
    p = frac_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    m = conjugation_matrix(p, matrix_inverse(p))
    assert m * m * m == RingMatrix.identity(8)


def test_split_charpoly_is_product_over_adjoint_weights():
    m = r_matrix(SplitClass.symbolic())
    cp = m.charpoly("t")
    product = LaurentPoly.one()
    t = sym("t")
    for w in adjoint_weights():
        product = product * (t - w)
    assert cp == product
