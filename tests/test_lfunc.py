"""L-factor, zeta, inner-integral, and generating-identity tests."""

import pytest

from g2adjoint.algebra import LaurentPoly, RingMatrix, TruncatedSeries, series_expand
from g2adjoint.lfunc import (
    ZETA_TRIPLE_DERIVED,
    ZETA_TRIPLE_PRINTED,
    inner_integral_closed,
    inner_integral_shell,
    l_factor_denominator,
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
from g2adjoint.reps import NonSplitClass, SplitClass, schur_char


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


def test_split_identity_small_degree():
    report = split_identity_check(8)
    assert report.passed, report.to_text()


def test_nonsplit_identity_small_degree():
    report = nonsplit_identity_check(8)
    assert report.passed, report.to_text()


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
    rhs = unramified_rhs(split_trivial(), ZETA_TRIPLE_DERIVED, 3)
    assert rhs.coefficient(0) == 1
    q = sym("q")
    assert rhs.coefficient(1) == 8 - q ** -1
    wrong = unramified_rhs(split_trivial(), ZETA_TRIPLE_PRINTED, 3)
    assert wrong.coefficient(1) == 8 - q ** -1 - q ** 8


def test_nonsplit_lhs_specializes_to_rhs_at_mu_one():
    lhs = unramified_lhs(NonSplitClass(ONE), 6)
    rhs = unramified_rhs(NonSplitClass(ONE), ZETA_TRIPLE_DERIVED, 6)
    assert lhs == rhs


def test_proposition_quick_degrees():
    for case in ("split", "nonsplit"):
        report = proposition_check(case, 6)
        assert report.passed, report.to_text()


def test_proposition_rejects_unknown_case():
    with pytest.raises(ValueError):
        proposition_check("ramified", 4)


def test_verify_lfactor_both_cases():
    for case in ("split", "nonsplit"):
        report = verify_lfactor(case)
        assert report.passed, report.to_text()


def test_identity_frobenius_fails_the_eigenspace_checks(monkeypatch):
    # the identity is an involution commuting with every torus, so the
    # trace count accepts it and must report the split (8, 0)
    from g2adjoint import reps

    monkeypatch.setattr(
        reps, "frobenius_matrix", lambda sign=1: RingMatrix.identity(8)
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

    def doubled(sign=1):
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
