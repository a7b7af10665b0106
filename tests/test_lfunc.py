"""L-factor, zeta, inner-integral, and generating-identity tests."""

import pytest

from g2adjoint import lfunc
from g2adjoint.algebra import (
    LaurentPoly,
    RingMatrix,
    TruncatedSeries,
    geometric_sum,
    series_expand,
)
from g2adjoint.g2model import modulus_characters
from g2adjoint.lfunc import (
    ZETA_TRIPLE_DERIVED,
    ZETA_TRIPLE_PRINTED,
    inner_integral_closed,
    inner_integral_shell,
    l_factor_denominator,
    lattice_sum,
    nonsplit_factor_product,
    nonsplit_identity_check,
    poincare_oracle,
    proposition_check,
    split_identity_check,
    sym,
    unramified_lhs,
    unramified_rhs,
    verify_integral,
    verify_lfactor,
    zeta_factor,
)
from g2adjoint.reps import NonSplitClass, SplitClass, schur_char, sl2_char


ONE = LaurentPoly.one()


def local_l_factor(satake, bound, sign=1):
    """Series of det(1 - x r(class))^-1 truncated at x-degree `bound`."""
    return series_expand(1, l_factor_denominator(satake, sign), "x", bound)


def inner_integral(vc, bound):
    """The shell-summed inner integral as a truncated series in x.

    Only defined for vc >= -1 (below that the exact value is a genuine
    Laurent object in x; use inner_integral_shell / inner_integral_closed).
    """
    poly = inner_integral_shell(vc)
    if vc < -1:
        raise ValueError("inner integral is not a power series for v(c) < -1")
    return TruncatedSeries(poly, "x", bound)


def split_trivial():
    return SplitClass(ONE, ONE)


def test_zeta_factor_examples():
    q, x = sym("q"), sym("x")
    assert zeta_factor(3, 0) == 1 - q ** -1 * x
    assert zeta_factor(6, -2) == 1 - x ** 2
    assert zeta_factor(9, -3) == 1 - x ** 3
    assert zeta_factor(3, -9) == 1 - q ** 8 * x
    with pytest.raises(ValueError):
        zeta_factor(4, 0)


def test_inner_integral_examples():
    q, x = sym("q"), sym("x")
    assert inner_integral_closed(0) == 1 - q ** -1 * x
    assert inner_integral_closed(-1) == 0
    assert inner_integral_closed(2) == (1 - q ** -1 * x) * (1 + x + x ** 2)
    assert inner_integral_shell(2) == inner_integral_closed(2)


def test_inner_integral_shell_matches_closed_form_on_range():
    for vc in range(-3, 9):
        assert inner_integral_shell(vc) == inner_integral_closed(vc), vc


def test_inner_integral_truncated_series():
    s = inner_integral(3, 2)
    q, x = sym("q"), sym("x")
    assert s.poly == 1 + (1 - q ** -1) * x + (1 - q ** -1) * x ** 2
    with pytest.raises(ValueError):
        inner_integral(-2, 4)


def test_split_l_factor_at_trivial_class():
    x = sym("x")
    series = local_l_factor(split_trivial(), 6)
    expected = series_expand(1, (1 - x) ** 8, "x", 6)
    assert series == expected


def test_nonsplit_l_factor_at_mu_one():
    x = sym("x")
    series = local_l_factor(NonSplitClass(ONE), 6)
    expected = series_expand(1, (1 - x) ** 2 * (1 - x ** 2) ** 3, "x", 6)
    assert series == expected


def test_nonsplit_determinant_is_factor_product():
    den = l_factor_denominator(NonSplitClass.symbolic())
    assert den == nonsplit_factor_product()


def test_l_factor_series_times_denominator_is_one():
    for satake in (SplitClass.symbolic(), NonSplitClass.symbolic()):
        den = l_factor_denominator(satake)
        series = local_l_factor(satake, 5)
        product = TruncatedSeries(series.poly * den, "x", 5)
        assert product == TruncatedSeries(1, "x", 5)


def test_poincare_oracle_small_degree():
    report = poincare_oracle(4)
    assert report.passed, report.to_text()


def test_poincare_oracle_runs_past_the_report_cap():
    # the oracle has no limit of its own; only verify_identities caps it
    report = poincare_oracle(12)
    assert report.passed, report.to_text()


def test_low_degree_values_checks_sym2_at_degree_1(monkeypatch):
    # Sym^2 is expanded at every degree, so a wrong Sym^2 FAILs the check
    # that names it even where the oracle's series stops at X^1
    real = lfunc.sym_power_char

    def wrong_sym2(base, k):
        h = real(base, k)
        if len(h) > 2:
            h[2] = h[2] + 1
        return h

    monkeypatch.setattr(lfunc, "sym_power_char", wrong_sym2)
    status = {c.name: c.status for c in poincare_oracle(1).checks}
    assert status == {
        "symmetric-algebra-matches-closed-form": "pass",
        "low-degree-values": "fail",
    }


def test_split_identity_small_degree():
    report = split_identity_check(8)
    assert report.passed, report.to_text()


def test_nonsplit_identity_small_degree():
    report = nonsplit_identity_check(8)
    assert report.passed, report.to_text()


def test_nonsplit_spot_values_read_the_closed_form(monkeypatch):
    # a closed form with a shifted X coefficient FAILs spot-values too, not
    # only the two comparisons, so the check reads all three expressions
    real = lfunc.series_expand

    def shifted(numerator, denominator, var, bound):
        out = real(numerator, denominator, var, bound)
        if numerator == 1:
            return TruncatedSeries(out.poly + sym("X"), var, bound)
        return out

    monkeypatch.setattr(lfunc, "series_expand", shifted)
    status = {c.name: c.status for c in nonsplit_identity_check(4).checks}
    assert status["double-sum-equals-closed-form"] == "fail"
    assert status["spot-values"] == "fail"


def test_unramified_lhs_low_coefficients():
    q = sym("q")
    lhs = unramified_lhs(SplitClass.symbolic(), 4)
    assert lhs.coefficient(0) == 1
    assert lhs.coefficient(1) == schur_char(1, 1) - q ** -1
    mu = sym("mu")
    nlhs = unramified_lhs(NonSplitClass.symbolic(), 4)
    assert nlhs.coefficient(0) == 1
    assert nlhs.coefficient(1) == mu ** 2 + mu ** -2 - q ** -1


def test_unramified_rhs_low_coefficients():
    series = unramified_rhs(split_trivial(), 3)
    rhs = series[ZETA_TRIPLE_DERIVED]
    assert rhs.coefficient(0) == 1
    q = sym("q")
    assert rhs.coefficient(1) == 8 - q ** -1
    wrong = series[ZETA_TRIPLE_PRINTED]
    assert wrong.coefficient(1) == 8 - q ** -1 - q ** 8


def test_nonsplit_lhs_specializes_to_rhs_at_mu_one():
    lhs = unramified_lhs(NonSplitClass(ONE), 6)
    rhs = unramified_rhs(NonSplitClass(ONE), 6)[ZETA_TRIPLE_DERIVED]
    assert lhs == rhs


def typed_unramified_lhs(satake, bound):
    """The oracle: (1 - q^-1 x) times the lattice sum of x^max (1 + ... +
    x^min) times the Casselman-Shalika value, every exponent typed here."""
    r = range(bound + 1)
    if isinstance(satake, SplitClass):
        values = {"alpha1": satake.alpha1, "alpha2": satake.alpha2}
        pairs = [(m1, m2) for m1 in r for m2 in r if (m1 - m2) % 3 == 0]
        acc = lattice_sum(
            "x", bound, pairs, lambda m1, m2: schur_char(m1, m2).subs(values)
        )
    else:
        z = satake.mu * satake.mu
        acc = lattice_sum("x", bound, [(m, m) for m in r], lambda m, _: sl2_char(m, z))
    return TruncatedSeries((1 - sym("q", -1) * sym("x")) * acc, "x", bound)


def test_unramified_lhs_equals_the_typed_lattice_sum():
    for satake in (SplitClass.symbolic(), NonSplitClass.symbolic()):
        assert unramified_lhs(satake, 8) == typed_unramified_lhs(satake, 8)


def test_modulus_characters_and_inner_integral_give_the_lattice_weight():
    # x^(-e_P) times the inner integral at v(c) = -e_alpha2 is the typed
    # weight (1 - q^-1 x) x^max (1 + ... + x^min) at every lattice point
    prefactor = 1 - sym("q", -1) * sym("x")
    r = range(13)
    for m1, m2 in [(m1, m2) for m1 in r for m2 in r if (m1 - m2) % 3 == 0]:
        e_p, e_alpha2, _ = modulus_characters(m1, m2)
        hi, lo = max(m1, m2), min(m1, m2)
        assert sym("x", -e_p) * inner_integral_closed(-e_alpha2) == (
            prefactor * geometric_sum("x", hi, hi + lo)
        ), (m1, m2)


INTEGRAL_CHECK = "integral-equals-L-over-zeta-{3s, 6s-2, 9s-3}"


def integral_status(case):
    report = proposition_check(case, 4)
    return {c.name: c.status for c in report.checks}[INTEGRAL_CHECK]


def shifted_modulus_characters(shift):
    def mutant(m1, m2):
        return tuple(map(sum, zip(modulus_characters(m1, m2), shift)))

    return mutant


@pytest.mark.parametrize(
    "shift",
    [(-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
)
def test_shifted_modulus_character_fails_the_integral(monkeypatch, shift):
    monkeypatch.setattr(lfunc, "modulus_characters", shifted_modulus_characters(shift))
    for case in ("split", "nonsplit"):
        assert integral_status(case) == "fail", case


def test_raised_parabolic_exponent_is_refused(monkeypatch):
    # e_P + 1 puts x^-1 at the origin, which no series may hold
    monkeypatch.setattr(
        lfunc, "modulus_characters", shifted_modulus_characters((1, 0, 0))
    )
    for case in ("split", "nonsplit"):
        with pytest.raises(ValueError, match="negative exponent"):
            proposition_check(case, 4)


def test_swapped_modulus_characters_fail_the_split_integral(monkeypatch):
    def swapped(m1, m2):
        e_p, e_alpha2, e_b = modulus_characters(m1, m2)
        return e_alpha2, e_p, e_b

    monkeypatch.setattr(lfunc, "modulus_characters", swapped)
    assert integral_status("split") == "fail"
    # the non-split lattice is the diagonal, where max = min
    assert integral_status("nonsplit") == "pass"


@pytest.mark.parametrize(
    "prefactor",
    [1 - sym("q", -2) * sym("x"), 1 + sym("q", -1) * sym("x")],
    ids=str,
)
def test_wrong_inner_integral_prefactor_fails_the_integral(monkeypatch, prefactor):
    monkeypatch.setattr(
        lfunc,
        "inner_integral_closed",
        lambda vc: prefactor * geometric_sum("x", 0, vc),
    )
    for case in ("split", "nonsplit"):
        assert integral_status(case) == "fail", case


def test_proposition_builds_one_l_series_per_case(monkeypatch):
    calls = {"den": 0, "inverse": 0}
    den, inverse = lfunc.l_factor_denominator, TruncatedSeries.inverse

    def counted_den(*args, **kwargs):
        calls["den"] += 1
        return den(*args, **kwargs)

    def counted_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    monkeypatch.setattr(lfunc, "l_factor_denominator", counted_den)
    monkeypatch.setattr(TruncatedSeries, "inverse", counted_inverse)
    for case in ("split", "nonsplit"):
        calls.update(den=0, inverse=0)
        assert proposition_check(case, 4).passed
        assert calls == {"den": 1, "inverse": 1}, case


def test_proposition_quick_degrees():
    for case in ("split", "nonsplit"):
        report = proposition_check(case, 6)
        assert report.passed, report.to_text()


def test_proposition_rejects_unknown_case(monkeypatch):
    # every entry point refuses a case outside lfunc.CASES with ValueError,
    # before the first check: each of these raises if it is reached
    def reached(*args):
        raise RuntimeError("a check ran")

    for name in ("_frobenius_checks", "inner_integral_shell", "unramified_lhs"):
        monkeypatch.setattr(lfunc, name, reached)
    for call in (
        lambda: proposition_check("ramified", 4),
        lambda: verify_lfactor("ramified"),
        lambda: verify_integral("ramified", 4),
    ):
        with pytest.raises(ValueError, match="unknown case 'ramified'"):
            call()


def test_verify_lfactor_both_cases():
    for case in ("split", "nonsplit"):
        report = verify_lfactor(case)
        assert report.passed, report.to_text()


def test_identity_frobenius_fails_the_eigenspace_checks(monkeypatch):
    # the identity is an involution commuting with every torus, so the
    # trace count accepts it and must report the split (8, 0)
    from g2adjoint import reps

    monkeypatch.setattr(
        reps, "frobenius_matrix", lambda: RingMatrix.identity(8)
    )
    report = verify_lfactor("nonsplit")
    status = {c.name: c.status for c in report.checks}
    assert status["frobenius-eigenspace-dimensions"] == "fail"
    assert status["frobenius-eigenvalue-lists"] == "fail"
    assert not report.passed
    assert tuple(map(len, reps.fr_eigensplit())) == (8, 0)


def test_refused_frobenius_fails_the_report_instead_of_raising(monkeypatch):
    # 2 Id is no involution: fr_eigensplit refuses it, and the checks that
    # use the eigenvalues FAIL with the refusal instead of a traceback
    from g2adjoint import lfunc, reps

    def doubled():
        return RingMatrix.identity(8).scale(2)

    for module in (reps, lfunc):
        monkeypatch.setattr(module, "frobenius_matrix", doubled)
    report = verify_lfactor("nonsplit")
    refusal = "the Frobenius matrix is not an involution"
    checks = {c.name: c for c in report.checks}
    for name in ("frobenius-eigenspace-dimensions", "frobenius-eigenvalue-lists"):
        assert checks[name].status == "fail"
        assert checks[name].counterexample == refusal
    assert checks["frobenius-is-involution"].status == "fail"
    assert checks["determinant-equals-eigenvalue-blocks"].status == "fail"
    assert checks["twisted-variant-flips-block-signs"].status == "fail"
    assert not report.passed
    assert f"counterexample: {refusal}" in report.to_text()


def test_verify_integral_quick():
    report = verify_integral("nonsplit", 8)
    assert report.passed, report.to_text()
