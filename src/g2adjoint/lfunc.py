"""Local L-factors and the unramified Rankin-Selberg identity.

The distinguished series variable is x = q^(-3s+1); q is carried exactly
as a Laurent variable, as are the Satake coordinates alpha1, alpha2 / mu.
Abstract generating identities use the series variable X with exact
weight variables T, T1, T2.

Everything is certified coefficient-by-coefficient: determinant forms
against displayed factor products, lattice sums against closed forms, the
symmetric-algebra decomposition against the six-factor generating
function, and finally the full unramified integral (each lattice term
built from g2model.modulus_characters, inner_integral_closed and the
Casselman-Shalika values schur_char, sl2_char) against
L(3s-1)/zeta(3s)zeta(6s-2)zeta(9s-3) for both candidate zeta triples.
"""

from __future__ import annotations

import math

from .algebra import (
    LaurentPoly,
    RingMatrix,
    TruncatedSeries,
    geometric_sum,
    poly_sum,
    series_expand,
    series_times,
    sym,
)
from .g2model import modulus_characters
from .report import VerificationReport, merge_reports
from .reps import (
    NonSplitClass,
    SplitClass,
    adjoint_weights,
    adjugate3,
    conjugation_adjugate_matrix,
    fr_eigensplit,
    frobenius_matrix,
    r_matrix,
    schur_char,
    schur_expand,
    sl2_char,
    sym_power_char,
)

POINCARE_DEGREE_LIMIT = 10

# The two unramified cases, under the names that --case and the reports use.
CASES = {"split": SplitClass, "nonsplit": NonSplitClass}


def satake_class(case):
    """The symbolic Satake class of the case named `case` in CASES."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    return CASES[case].symbolic()


def l_factor_denominator(satake, sign=1):
    """det(1 - sign x r(class)) as a Laurent polynomial in x and the class;
    sign=-1 gives the quadratic twist, as r'(g Fr) = -r(g Fr)."""
    m = r_matrix(satake)
    return (RingMatrix.identity(8) - m.scale(sign * sym("x"))).det()


def nonsplit_factor_product():
    """The displayed five-factor reciprocal of the non-split L-factor."""
    x = sym("x")
    mu2 = sym("mu") ** 2
    mu2_inv = mu2.unit_inverse()
    return (
        (1 - mu2 * x)
        * (1 - mu2 * x ** 2)
        * (1 - x ** 2)
        * (1 - mu2_inv * x)
        * (1 - mu2_inv * x ** 2)
    )


def zeta_factor(c1, c0):
    """The local zeta factor zeta(c1*s + c0) rewritten in x = q^(-3s+1).

    Returns its denominator 1 - q^(-c0 - c1/3) x^(c1/3); the factor
    itself is 1/den.
    """
    if c1 % 3 != 0:
        raise ValueError(f"zeta argument {c1}*s{c0:+d} is not expressible in x")
    k = c1 // 3
    e = -c0 - k
    return 1 - LaurentPoly.monomial(1, {"q": e, "x": k})


def inner_integral_shell(vc):
    """Shell-by-shell evaluation of the inner integral at conductor
    valuation v(c) = vc, exact in q and x.

    For vc >= 0 each shell contributes literally: the unit ball gives 1,
    the shell |u| = q^k gives (x/q)^k times the character sum
    (q^k - q^(k-1) for k <= vc, -q^vc at k = vc+1, zero beyond).  For
    vc < 0 the literal shells all vanish; the returned value is the
    standard geometric continuation of the same three-part formula (the
    reading under which the closed form holds for every integer vc).
    """
    q = sym("q")
    q_inv = sym("q", -1)
    x = sym("x")
    if vc >= 0:
        shells = poly_sum(
            (x * q_inv) ** k * (q ** k - q ** (k - 1)) for k in range(1, vc + 1)
        )
        return 1 + shells - (x * q_inv) ** (vc + 1) * q ** vc
    return 1 + (1 - q_inv) * geometric_sum("x", 1, vc) - q_inv * x ** (vc + 1)


def inner_integral_closed(vc):
    """(1 - q^-1 x)(1 - x^(vc+1))/(1 - x), exact for every integer vc."""
    return (1 - sym("q", -1) * sym("x")) * geometric_sum("x", 0, vc)


def poincare_oracle(bound):
    """Brute-force symmetric-algebra decomposition against the six-factor
    closed form, coefficient-by-coefficient to X-degree `bound`."""
    report = VerificationReport("poincare", {"degree": bound})
    t1, t2, x = sym("T1"), sym("T2"), sym("X")
    base = schur_char(1, 1)  # the adjoint character
    # Sym^2 is expanded at every bound, since low-degree-values names it
    table = dict(enumerate(map(schur_expand, sym_power_char(base, max(bound, 2)))))
    lhs = poly_sum(
        mult * t1 ** m1 * t2 ** m2 * x ** k
        for k, mults in table.items() for (m1, m2), mult in mults.items()
    )
    num, den = _split_closed_form()
    rhs = series_expand(num, den * (1 - x ** 2) * (1 - x ** 3), "X", bound)
    mismatch = _first_series_mismatch(TruncatedSeries(lhs, "X", bound), rhs)
    report.check(
        "symmetric-algebra-matches-closed-form",
        mismatch is None,
        f"Sym^k multiplicities agree with the six-factor generating "
        f"function for all k <= {bound}",
        counterexample=mismatch,
    )
    report.check(
        "low-degree-values",
        table[0] == {(0, 0): 1}
        and table[1] == {(1, 1): 1}
        and table[2] == {(2, 2): 1, (1, 1): 1, (0, 0): 1},
        "Sym^0 = trivial, Sym^1 = adjoint, Sym^2 = 27 + 8 + 1",
    )
    return report


def _split_closed_form():
    """Numerator and denominator of the split generating function in T1,
    T2, X; the Poincare series divides it by (1 - X^2)(1 - X^3)."""
    t1, t2, x = sym("T1"), sym("T2"), sym("X")
    num = 1 - t1 ** 3 * t2 ** 3 * x ** 6
    den = math.prod(
        (1 - t1 * t2 * x, 1 - t1 * t2 * x ** 2, 1 - (t1 * x) ** 3, 1 - (t2 * x) ** 3)
    )
    return num, den


def _first_series_mismatch(lhs, rhs):
    """Where two series of one variable and bound first differ (least
    degree, then least monomial), or None when they are equal."""
    if (lhs.var, lhs.bound) != (rhs.var, rhs.bound):
        raise ValueError("series with different truncation data")
    diff = lhs.poly - rhs.poly
    if not diff:
        return None
    slices = TruncatedSeries(diff, lhs.var, lhs.bound).slices()
    degree = min(slices)
    poly = slices[degree]
    mono = LaurentPoly(poly.variables, {min(poly.terms): 1})
    return f"series degree {degree}, monomial {mono}"


def lattice_sum(xname, bound, pairs, weight):
    """Sum over (m1, m2) in `pairs` of x^max (1 + x + ... + x^min) times
    weight(m1, m2), truncated at x-degree `bound`; `weight` is only called
    for pairs that contribute below the bound."""
    return poly_sum(
        geometric_sum(xname, max(m1, m2), min(m1 + m2, bound)) * weight(m1, m2)
        for m1, m2 in pairs if max(m1, m2) <= bound
    )


def _congruent_pairs(bound):
    """(m1, m2) in [0, bound]^2 with 3 | (m1 - m2), m1 outermost."""
    r = range(bound + 1)
    return [(m1, m2) for m1 in r for m2 in r if (m1 - m2) % 3 == 0]


def split_identity_check(bound):
    """The split-case lattice sum over m1, m2 >= 0 with 3 | (m1 - m2) of
    X^max (1 + X + ... + X^min) T1^m1 T2^m2 equals the four-factor closed
    form."""
    report = VerificationReport("split-identity", {"degree": bound})
    lattice = lattice_sum(
        "X", bound, _congruent_pairs(bound),
        lambda m1, m2: LaurentPoly.monomial(1, {"T1": m1, "T2": m2}),
    )
    lhs = TruncatedSeries(lattice, "X", bound)
    rhs = series_expand(*_split_closed_form(), "X", bound)
    mismatch = _first_series_mismatch(lhs, rhs)
    report.check(
        "lattice-sum-equals-four-factor-form",
        mismatch is None,
        f"coefficient-wise to X-degree {bound} (all T1, T2 exponents)",
        counterexample=mismatch,
    )
    report.check(
        "spot-values",
        lhs.coefficient(0) == 1 and lhs.coefficient(1) == sym("T1") * sym("T2"),
        "constant term 1; X^1 coefficient T1*T2 (only (1,1) contributes)",
    )
    return report


def nonsplit_identity_check(bound):
    """The non-split triple identity: double sum, closed form, single sum."""
    report = VerificationReport("nonsplit-identity", {"degree": bound})
    t, x = sym("T"), sym("X")
    double_sum = poly_sum(
        LaurentPoly.monomial(1, {"X": k1 + 2 * k2, "T": k1 + k2 - 2 * i})
        for k2 in range(bound // 2 + 1)
        for k1 in range(bound - 2 * k2 + 1)
        for i in range(min(k1, k2) + 1)
    )
    a = TruncatedSeries(double_sum, "X", bound)
    b = series_expand(1, (1 - x ** 3) * (1 - t * x) * (1 - t * x ** 2), "X", bound)
    single = lattice_sum(
        "X", bound, [(m, m) for m in range(bound + 1)], lambda m, _: t ** m
    )
    c = series_expand(single, 1 - x ** 3, "X", bound)
    m_ab = _first_series_mismatch(a, b)
    m_bc = _first_series_mismatch(b, c)
    report.check(
        "double-sum-equals-closed-form",
        m_ab is None,
        f"sum over (k1, k2, i) of X^(k1+2k2) T^(k1+k2-2i) equals "
        f"1/((1-X^3)(1-TX)(1-TX^2)) to X-degree {bound}",
        counterexample=m_ab,
    )
    report.check(
        "closed-form-equals-single-sum",
        m_bc is None,
        "and equals (1-X^3)^-1 sum_m X^m (1+...+X^m) T^m, with the "
        "exponent read as m",
        counterexample=m_bc,
    )
    report.note_typo("TM-exponent")
    report.check(
        "spot-values",
        all(s.coefficient(0) == 1 and s.coefficient(1) == t for s in (a, b, c)),
        "constant term 1 and X coefficient T in all three expressions",
    )
    return report


def unramified_lhs(satake, bound):
    """The fully reduced unramified integral as a series in x.  With (e_P,
    e_alpha2, e_B) = modulus_characters(m1, m2), the term at (m1, m2) is
    x^(-e_P) (1 + ... + x^(v(c))) at v(c) = -e_alpha2, times q^(e_B + m1 +
    m2) (e_B cancels delta_B^(1/2)), times the Casselman-Shalika value:
    schur_char(m1, m2) for a split class, sl2_char(m, mu^2) at (m, m) for
    a non-split one.  inner_integral_closed(0) = 1 - q^-1 x multiplies the
    sum once."""
    if isinstance(satake, SplitClass):
        values = {"alpha1": satake.alpha1, "alpha2": satake.alpha2}
        points = (
            (m1, m2, schur_char(m1, m2).subs(values))
            for m1, m2 in _congruent_pairs(bound)
        )
    elif isinstance(satake, NonSplitClass):
        z = satake.mu * satake.mu
        points = ((m, m, sl2_char(m, z)) for m in range(bound + 1))
    else:
        raise TypeError(f"not a Satake class: {satake!r}")

    def term(m1, m2, spherical):
        e_p, e_alpha2, e_b = modulus_characters(m1, m2)
        shell = geometric_sum("x", -e_p, min(-e_p - e_alpha2, bound))
        return sym("q", e_b + m1 + m2) * shell * spherical
    lattice = poly_sum(term(*point) for point in points)
    return TruncatedSeries(inner_integral_closed(0) * lattice, "x", bound)


ZETA_TRIPLE_DERIVED = ((3, 0), (6, -2), (9, -3))
ZETA_TRIPLE_PRINTED = ((3, 0), (6, -2), (3, -9))


def unramified_rhs(satake, bound):
    """L(3s-1, pi, r) over each candidate triple's zeta factors, as series in
    x keyed by triple (q^-(3s-1) = x); the L-series is expanded once."""
    l_series = TruncatedSeries(l_factor_denominator(satake), "x", bound).inverse()
    return {
        triple: series_times(math.prod(zeta_factor(*z) for z in triple), l_series)
        for triple in (ZETA_TRIPLE_DERIVED, ZETA_TRIPLE_PRINTED)
    }


def _zeta_arg(c1, c0):
    return f"{c1}s{c0:+d}" if c0 else f"{c1}s"


def _triple_name(triple):
    return "{" + ", ".join(_zeta_arg(*z) for z in triple) + "}"


def proposition_check(case, bound):
    """End-to-end unramified identity with fully symbolic Satake
    parameters, for both candidate zeta triples."""
    satake = satake_class(case)
    report = VerificationReport("proposition", {"case": case, "degree": bound})
    lhs = unramified_lhs(satake, bound)
    outcomes = {
        triple: _first_series_mismatch(lhs, rhs)
        for triple, rhs in unramified_rhs(satake, bound).items()
    }
    derived_ok = outcomes[ZETA_TRIPLE_DERIVED] is None
    printed_ok = outcomes[ZETA_TRIPLE_PRINTED] is None
    report.check(
        "matching-zeta-triple-is-unique",
        derived_ok != printed_ok,
        f"exactly one candidate normalization matches to x-degree {bound}",
    )
    report.check(
        f"integral-equals-L-over-zeta-{_triple_name(ZETA_TRIPLE_DERIVED)}",
        derived_ok,
        f"{case} case, symbolic Satake parameters, identical to x-degree "
        f"{bound}",
        counterexample=outcomes[ZETA_TRIPLE_DERIVED],
    )
    report.check(
        f"printed-triple-{_triple_name(ZETA_TRIPLE_PRINTED)}-fails",
        not printed_ok,
        f"first discrepancy at {outcomes[ZETA_TRIPLE_PRINTED]}",
    )
    report.note_typo("zeta-triple")
    report.info(
        "winning-triple",
        f"{_triple_name(ZETA_TRIPLE_DERIVED)}; the displayed third factor "
        f"{_zeta_arg(*ZETA_TRIPLE_PRINTED[2])} is a typo",
    )
    return report


def _case_names(case):
    """The cases that `case` names, all of CASES for "both"; refuses any other."""
    if case == "both":
        return list(CASES)
    satake_class(case)
    return [case]


def _by_case(suite, case, reports, **parameters):
    """The report of the one case, or for "both" all merged under `suite`."""
    if case != "both":
        return reports[0][1]
    return merge_reports(suite, {"case": case, **parameters}, reports)


def _frobenius_checks():
    """The case-independent checks of verify_lfactor, in report order, and
    the Frobenius eigenvalue lists (plus, minus)."""
    report = VerificationReport("lfactor")
    fr = frobenius_matrix()
    report.check(
        "frobenius-is-involution",
        fr * fr == RingMatrix.identity(8),
        "r(Fr)^2 = 1",
    )
    report.note_typo("adjoint-3x3")

    g = RingMatrix([[sym(f"g{i}{j}") for j in range(1, 4)] for i in range(1, 4)])
    det_g = g.det()
    lhs = (fr * conjugation_adjugate_matrix(g) * fr).scale(det_g)
    rhs = conjugation_adjugate_matrix(adjugate3(g).anti_transpose())
    report.check(
        "frobenius-conjugation-rule",
        lhs == rhs,
        "r(Fr) r(g) r(Fr) = r(_tg^-1) identically in the nine entries of g "
        "(denominators cleared by the adjugate)",
    )

    # a refused Frobenius matrix fails the checks that use its eigenvalues
    refusal = None
    try:
        plus, minus = fr_eigensplit()
    except ArithmeticError as exc:
        plus, minus, refusal = [], [], str(exc)
    mu = sym("mu")
    report.check(
        "frobenius-eigenspace-dimensions",
        (len(plus), len(minus)) == (5, 3),
        "+1 eigenspace dimension 5, -1 eigenspace dimension 3",
        counterexample=refusal,
    )
    report.check(
        "frobenius-eigenvalue-lists",
        plus == [mu ** 2, mu, LaurentPoly.one(), mu ** -1, mu ** -2]
        and minus == [mu, LaurentPoly.one(), mu ** -1],
        "diag(mu,1,mu^-1) acts with mu^2, mu, 1, mu^-1, mu^-2 on the +1 "
        "space and mu, 1, mu^-1 on the -1 space",
        counterexample=refusal,
    )
    report.note_typo("eigenspace-duplication")
    report.note_typo("gl3-class")
    return report, plus, minus


def verify_lfactor(case):
    """Certify the determinant forms of the local L-factors and the
    structure of the representation they come from.  Case "both" merges
    the split and non-split reports; the Frobenius checks, which do not
    depend on the case, run once and open both."""
    names = _case_names(case)
    frobenius, plus, minus = _frobenius_checks()
    reports = [(c, _lfactor_case(c, frobenius, plus, minus)) for c in names]
    return _by_case("lfactor", case, reports)


def _lfactor_case(case, frobenius, plus, minus):
    """The lfactor report of one case: the report `frobenius` of the shared
    checks, then the determinant checks of the case, which use the
    Frobenius eigenvalue lists."""
    report = VerificationReport(
        "lfactor", {"case": case},
        list(frobenius.checks), list(frobenius.typo_keys),
    )
    satake = satake_class(case)
    den = l_factor_denominator(satake)
    x = sym("x")
    if case == "nonsplit":
        report.check(
            "determinant-equals-five-factor-product",
            den == nonsplit_factor_product(),
            "det(1 - x r(g) r(Fr)) = (1-mu^2 x)(1-mu^2 x^2)(1-x^2)"
            "(1-mu^-2 x)(1-mu^-2 x^2), symbolic mu",
        )

        def blocks(sign):
            return math.prod(
                [*(1 - sign * w * x for w in plus), *(1 + sign * w * x for w in minus)]
            )

        report.check(
            "determinant-equals-eigenvalue-blocks",
            den == blocks(1),
            "the -1 eigenvalues enter through 1 + w x factors (pairing "
            "into the x^2 factors)",
        )
        twisted = l_factor_denominator(satake, sign=-1)
        report.check(
            "twisted-variant-flips-block-signs",
            twisted == blocks(-1)
            and twisted == den.subs({"x": -x}),
            "det(1 - x r(g) r'(Fr)) swaps the block signs, i.e. the "
            "quadratic twist x -> -x",
        )
    else:
        report.check(
            "determinant-equals-weight-product",
            den == math.prod(1 - w * x for w in adjoint_weights()),
            "det(1 - x r(diag(alpha))) = prod over the eight adjoint "
            "weights alpha_i/alpha_j (i != j) and 1, 1",
        )
        cp = r_matrix(satake).charpoly("t")
        a1, a2 = sym("alpha1"), sym("alpha2")
        swapped = cp.subs({"alpha1": a2, "alpha2": a1})
        inverted = cp.subs(
            {"alpha1": a1.unit_inverse(), "alpha2": a2.unit_inverse()}
        )
        rotated = cp.subs({"alpha1": a2, "alpha2": (a1 * a2).unit_inverse()})
        report.check(
            "weight-multiset-symmetries",
            swapped == cp and inverted == cp and rotated == cp,
            "characteristic polynomial invariant under permuting the "
            "eigenvalue slots and under alpha -> alpha^-1 (self-duality)",
        )
    return report


def verify_identities(bound):
    """The three power-series identity suites (the Poincare oracle capped
    at POINCARE_DEGREE_LIMIT)."""
    oracle_bound = min(bound, POINCARE_DEGREE_LIMIT)
    return merge_reports(
        "identities",
        {"degree": bound, "poincare_degree": oracle_bound},
        [
            ("poincare", poincare_oracle(oracle_bound)),
            ("split-identity", split_identity_check(bound)),
            ("nonsplit-identity", nonsplit_identity_check(bound)),
        ],
    )


def verify_integral(case, bound):
    """Inner-integral lemma plus the end-to-end unramified identity; case
    "both" merges the split and non-split reports, and the inner-integral
    check, which does not depend on the case, runs once and closes both."""
    names = _case_names(case)
    shell_ok = all(
        inner_integral_shell(vc) == inner_integral_closed(vc)
        for vc in range(-3, 9)
    )

    def verify(case):
        report = proposition_check(case, bound)
        report.check(
            "inner-integral-shell-vs-closed-form",
            shell_ok,
            "shell summation equals (1 - q^-1 x)(1 - x^(v(c)+1))/(1 - x) "
            "for v(c) in [-3, 8], symbolically in q",
        )
        return report

    reports = [(c, verify(c)) for c in names]
    return _by_case("integral", case, reports, degree=bound)
