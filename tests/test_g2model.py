"""G2/SU(2,1) model tests: forms, root subgroups, Weyl action, torus,
Iwasawa factorizations, and the E^3 basis identification."""

from fractions import Fraction
from math import factorial

import pytest

from g2adjoint.algebra import LaurentPoly, RingMatrix, equal_mod_inverses, is_zero
from g2adjoint.g2model import (
    G2_PARAMS,
    J8,
    N_RELATION,
    ROOT_PARAMS,
    SU21_PARAMS,
    TRILINEAR,
    V0_VECTOR,
    annihilates_v_rho,
    bracket,
    chevalley_n,
    derivation_defect,
    entries_polynomial_in,
    g2_element,
    g2_generic,
    g2_read_params,
    in_parabolic,
    iwasawa_case1,
    iwasawa_case2,
    matrices_equal_mod,
    matrix_entry_strings,
    modulus_characters,
    one_param,
    preserves_bilinear,
    preserves_trilinear,
    root_matrix,
    so8_defect,
    su21_generic,
    sym,
    torus_matrix,
    trilinear,
    v_rho_vector,
    verify_iwasawa,
    verify_lie_models,
    weyl_rep,
)


def pairing(u, w):
    """<u, w> = u . J . w with J anti-diagonal."""
    n = len(u)
    acc = LaurentPoly.zero()
    for i in range(n):
        acc = acc + u[i] * w[n - 1 - i]
    return acc


def torus_direction(T1, T2):
    """The Cartan direction of g2 with parameters (T1, T2)."""
    return g2_element(T1, T2)


def coroot_element(param, t, t_inverse):
    """h_root(t) = n_root(t) n_root(-1), a torus element."""
    minus_one = LaurentPoly.constant(-1)
    return chevalley_n(param, t, t_inverse) * chevalley_n(
        param, minus_one, minus_one
    )


def _root_weight(param):
    """The linear form in (T1, T2) by which the torus acts on the root line."""
    h = torus_direction(sym("T1"), sym("T2"))
    e = root_matrix(param)
    b = bracket(h, e)
    weight = None
    for i in range(8):
        for j in range(8):
            if not is_zero(e[i, j]):
                cand = b[i, j] * (1 if e[i, j] == 1 else -1)
                if weight is None:
                    weight = cand
                elif weight != cand:
                    raise ArithmeticError(f"{param} is not a weight direction")
    if not b == e.scale(weight):
        raise ArithmeticError(f"{param} is not a weight direction")
    return weight


def _weight_coeffs(weight):
    c1 = weight.subs({"T1": 1, "T2": 0}).as_fraction()
    c2 = weight.subs({"T1": 0, "T2": 1}).as_fraction()
    return c1, c2


def _compute_roots():
    # Basis: alpha1 is the weight of 'a' (short simple), alpha2 the weight
    # of 'b' (long simple); integer coordinates of every parameter weight.
    wa = _weight_coeffs(_root_weight("a"))
    wb = _weight_coeffs(_root_weight("b"))
    det = wa[0] * wb[1] - wa[1] * wb[0]
    roots = {}
    for p in ROOT_PARAMS:
        c1, c2 = _weight_coeffs(_root_weight(p))
        m = (c1 * wb[1] - c2 * wb[0]) / det
        n = (wa[0] * c2 - wa[1] * c1) / det
        if m.denominator != 1 or n.denominator != 1:
            raise ArithmeticError("non-integral root coordinates")
        roots[p] = (int(m), int(n))
    return roots


ROOTS = _compute_roots()
PARAM_OF_ROOT = {coords: p for p, coords in ROOTS.items()}


def exp_series(x, u):
    """exp(u X) for a nilpotent matrix X, summed until a power vanishes:
    the test oracle for the closed form of one_param."""
    result = RingMatrix.identity(8)
    power = RingMatrix.identity(8)
    for k in range(1, 9):
        power = power * x
        if is_zero_matrix(power):
            return result
        result = result + power.scale(u ** k * Fraction(1, factorial(k)))
    raise ArithmeticError("not nilpotent")


def basis_vector(i):
    return [1 if j == i else 0 for j in range(8)]


def is_zero_matrix(m):
    return all(
        (m[i, j].is_zero() if isinstance(m[i, j], LaurentPoly) else m[i, j] == 0)
        for i in range(8)
        for j in range(8)
    )


def test_pairing_norms():
    assert pairing(V0_VECTOR, V0_VECTOR) == -2
    v = v_rho_vector()
    assert pairing(v, v) == 2 * sym("rho")
    assert pairing(v, V0_VECTOR) == 0


def test_trilinear_is_antisymmetric_and_kills_v0():
    for (i, j, k), c in TRILINEAR.items():
        assert TRILINEAR.get((j, i, k), 0) == -c
        assert TRILINEAR.get((i, k, j), 0) == -c
    for i in range(8):
        for j in range(8):
            assert trilinear(V0_VECTOR, basis_vector(i), basis_vector(j)) == 0


def test_lie_model_suite_passes():
    report = verify_lie_models()
    assert report.passed, report.to_text()


def test_zero_parameters_satisfy_everything():
    zero = g2_element(*(LaurentPoly.zero() for _ in G2_PARAMS))
    assert is_zero_matrix(so8_defect(zero))
    assert derivation_defect(zero) is None


def test_su21_display_satisfies_g2_conditions():
    y = su21_generic()
    assert is_zero_matrix(so8_defect(y))
    assert derivation_defect(y) is None
    assert annihilates_v_rho(y)


def _with_symbol_at_2_5(x):
    """x with a stray symbol s added at entry (2, 5)."""
    rows = [list(row) for row in x.entries]
    rows[2][5] = rows[2][5] + sym("s")
    return RingMatrix(rows)


def derivation_defect_512(matrix):
    """First of all 512 ordered basis triples where X fails to act as a
    derivation of T, each contracted with TRILINEAR by hand: the oracle
    for derivation_defect."""
    cols = [[matrix[i, j] for i in range(8)] for j in range(8)]
    for i in range(8):
        for j in range(8):
            for k in range(8):
                acc = LaurentPoly.zero()
                for m in range(8):
                    acc = acc + TRILINEAR.get((m, j, k), 0) * cols[i][m]
                    acc = acc + TRILINEAR.get((i, m, k), 0) * cols[j][m]
                    acc = acc + TRILINEAR.get((i, j, m), 0) * cols[k][m]
                if not acc.is_zero():
                    return (i, j, k)
    return None


def test_derivation_defect_finds_the_least_failing_triple():
    x = g2_generic()
    assert derivation_defect_512(x) is derivation_defect(x) is None
    bad = _with_symbol_at_2_5(x)
    assert derivation_defect_512(bad) == derivation_defect(bad) == (1, 5, 7)


def test_perturbed_display_fails_both_lie_conditions(monkeypatch):
    from g2adjoint import g2model

    real = g2model.g2_generic
    monkeypatch.setattr(
        g2model, "g2_generic", lambda **values: _with_symbol_at_2_5(real(**values))
    )
    checks = {c.name: c for c in verify_lie_models().checks}
    so8 = checks["g2-so8-condition"]
    # (X J + J X^t)[2, 2] = 2 X[2, 5] is the first entry the symbol reaches
    assert (so8.status, so8.counterexample) == ("fail", "entry (2, 2)")
    derivation = checks["g2-derivation-of-trilinear-form"]
    assert derivation.status == "fail"
    assert derivation.counterexample == "basis triple (1, 5, 7)"


def test_entries_polynomial_in_rejects_stray_inverses():
    # b -> z*a/rho puts the ratio b*rho/a in as z
    b_ratio = {"b": sym("z") * sym("a") * sym("rho", -1)}
    ratio = sym("b") * sym("rho") * sym("a", -1)
    assert entries_polynomial_in(RingMatrix([[1, ratio ** 2 - 3 * ratio]]), b_ratio)
    assert not entries_polynomial_in(RingMatrix([[ratio + sym("a", -1)]]), b_ratio)
    assert not entries_polynomial_in(RingMatrix([[0, ratio ** -1]]), b_ratio)


def test_root_system_is_g2():
    values = set(ROOTS.values())
    assert len(values) == 12
    assert values == {
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2),
        (-1, 0), (0, -1), (-1, -1), (-2, -1), (-3, -1), (-3, -2),
    }


def test_bracket_grading():
    for p in ROOT_PARAMS:
        for q in ROOT_PARAMS:
            if p == q:
                continue
            target = (ROOTS[p][0] + ROOTS[q][0], ROOTS[p][1] + ROOTS[q][1])
            br = bracket(root_matrix(p), root_matrix(q))
            if target == (0, 0):
                params = g2_read_params(br)
                rebuilt = torus_direction(params["T1"], params["T2"])
                assert br == rebuilt, (p, q)
            elif target in PARAM_OF_ROOT:
                e = root_matrix(PARAM_OF_ROOT[target])
                coeff = None
                for i in range(8):
                    for j in range(8):
                        if e[i, j] == 1 or e[i, j] == -1:
                            coeff = br[i, j] * e[i, j]
                            break
                    if coeff is not None:
                        break
                assert br == e.scale(coeff), (p, q)
            else:
                assert is_zero_matrix(br), (p, q)


def test_one_param_is_the_power_series_exponential():
    u = sym("u")
    for p in ROOT_PARAMS:
        assert one_param(p, u) == exp_series(root_matrix(p), u), p


def test_one_param_basics():
    for p in ROOT_PARAMS:
        assert one_param(p, LaurentPoly.zero()) == RingMatrix.identity(8)
    u, v = sym("u"), sym("v")
    for p in ("a", "b", "d"):
        lhs = one_param(p, u) * one_param(p, v)
        assert lhs == one_param(p, u + v)
        assert one_param(p, u) * one_param(p, -u) == RingMatrix.identity(8)


def test_one_param_lands_in_g2():
    u = sym("u")
    for p in ROOT_PARAMS:
        g = one_param(p, u)
        assert preserves_bilinear(g), p
        assert preserves_trilinear(g), p
        assert g.apply(list(V0_VECTOR)) == list(V0_VECTOR), p


def test_one_param_entries_are_integral():
    # exponentials have integer polynomial entries: the 1/2 always cancels
    u = sym("u")
    for p in ROOT_PARAMS:
        g = one_param(p, u)
        for i in range(8):
            for j in range(8):
                e = g[i, j]
                if isinstance(e, LaurentPoly):
                    assert all(c.denominator == 1 for c in e.terms.values()), p


def test_coset_representative_stabilizes_v_rho():
    # x_alpha2(rho u) x_{2 alpha1 + alpha2}(-u) fixes v_rho
    u, rho = sym("u"), sym("rho")
    g = one_param("b", rho * u) * one_param("d", -u)
    image = g.apply(list(v_rho_vector()))
    assert image == list(v_rho_vector())


def test_su21_d_direction_matches_root_coordinates():
    # the d direction of the su21 display exponentiates to the same coset
    # representatives (with u -> -u)
    u, rho = sym("u"), sym("rho")
    x = root_matrix("d") - root_matrix("b").scale(rho)
    assert exp_series(x, -u) == one_param("b", rho * u) * one_param("d", -u)


def test_n2_directions_abelian_and_stabilize():
    rho, u, v = sym("rho"), sym("u"), sym("v")
    x_e = root_matrix("e") - root_matrix("c").scale(rho)
    x_f = root_matrix("f")
    assert is_zero_matrix(bracket(x_e, x_f))
    for d in (x_e, x_f):
        image = d.apply(list(v_rho_vector()))
        assert all(
            (e.is_zero() if isinstance(e, LaurentPoly) else e == 0) for e in image
        )


def test_weyl_rep_requires_simple_root():
    with pytest.raises(ValueError):
        weyl_rep("d")


def reflect_long(root):
    # s_alpha2: alpha1 -> alpha1 + alpha2, alpha2 -> -alpha2
    m, n = root
    return (m, m - n)


def test_weyl_conjugation_permutes_root_spaces():
    w2 = weyl_rep("b")
    w2_inv = chevalley_n("b", LaurentPoly.constant(-1), LaurentPoly.constant(-1))
    assert w2 * w2_inv == RingMatrix.identity(8)
    for p in ROOT_PARAMS:
        conj = w2 * root_matrix(p) * w2_inv
        target = root_matrix(PARAM_OF_ROOT[reflect_long(ROOTS[p])])
        assert conj == target or conj == -target, p


def test_weyl_squared_acts_trivially_on_torus():
    w2 = weyl_rep("b")
    w2_inv = chevalley_n("b", LaurentPoly.constant(-1), LaurentPoly.constant(-1))
    h = torus_direction(sym("T1"), sym("T2"))
    w2sq = w2 * w2
    w2sq_inv = w2_inv * w2_inv
    assert w2sq * h * w2sq_inv == h
    # and the single reflection sends the long-root value to its negative
    conj = w2 * h * w2_inv
    assert conj.is_diagonal()
    t1p = conj[0, 0]
    t2p = conj[1, 1] + t1p
    assert conj == torus_direction(t1p, t2p)
    # alpha2 value of the reflected torus element is minus the original
    alpha2 = lambda x1, x2: 2 * x2 - 3 * x1
    assert alpha2(t1p, t2p) == -(alpha2(sym("T1"), sym("T2")))


def test_weyl_claims_hold_for_alternative_representative():
    w2 = chevalley_n("b", LaurentPoly.constant(-1), LaurentPoly.constant(-1))
    w2_inv = weyl_rep("b")
    u1, _, _ = iwasawa_case1()
    assert in_parabolic(w2 * u1 * w2_inv)
    assert in_parabolic(w2 * one_param("d", sym("u")) * w2_inv)


def test_torus_group_law():
    a, b, ap, bp, rho = sym("a"), sym("b"), sym("ap"), sym("bp"), sym("rho")
    left = torus_matrix() * torus_matrix(ap, bp, rho, sym("Np", -1))
    a2 = a * ap + b * bp * rho
    b2 = a * bp + ap * b
    right = torus_matrix(a2, b2, rho, sym("M", -1))
    relations = {
        "N": a ** 2 - b ** 2 * rho,
        "Np": ap ** 2 - bp ** 2 * rho,
        "M": a2 ** 2 - b2 ** 2 * rho,
    }
    assert matrices_equal_mod(left, right, relations) is None


def test_iwasawa_suite_passes():
    report = verify_iwasawa()
    assert report.passed, report.to_text()


def test_wrong_case2_factor_fails_the_report(monkeypatch, capsys):
    # a wrong case-2 derivation must give FAIL, not an ArithmeticError
    from g2adjoint import cli, g2model

    monkeypatch.setattr(
        g2model, "chevalley_n", lambda param, t, t_inverse: RingMatrix.identity(8)
    )
    report = verify_iwasawa()
    status = {c.name: c.status for c in report.checks}
    assert status["case2-product-is-torus-matrix"] == "fail"
    assert cli.main(["verify", "iwasawa"]) == 1
    out, err = capsys.readouterr()
    assert "[FAIL] case2-product-is-torus-matrix" in out
    assert "Traceback" not in out + err


def test_case1_t_prime_diagonal_as_displayed():
    _, t1, _ = iwasawa_case1()
    a, n_inv = sym("a"), sym("N", -1)
    n = N_RELATION
    expected = [n * a ** -1, a, n * a ** -2, 1, 1, a ** 2 * n_inv, a ** -1, a * n_inv]
    for i in range(8):
        assert equal_mod_inverses(t1[i, i], expected[i], {"N": n}), i


def test_case2_t_prime_diagonal_as_displayed():
    _, t2, _ = iwasawa_case2()
    b, rho, n_inv = sym("b"), sym("rho"), sym("N", -1)
    n = N_RELATION
    brho_inv = b ** -1 * rho ** -1
    expected = [
        n * brho_inv, b * rho, n * brho_inv ** 2, 1, 1,
        b ** 2 * rho ** 2 * n_inv, brho_inv, b * rho * n_inv,
    ]
    for i in range(8):
        assert equal_mod_inverses(t2[i, i], expected[i], {"N": n}), i


def test_case1_at_b_equals_zero():
    u1, t1, k1 = iwasawa_case1()

    def at_b0(m):
        return RingMatrix(
            [
                [
                    m[i, j].subs({"b": 0}) if isinstance(m[i, j], LaurentPoly) else m[i, j]
                    for j in range(8)
                ]
                for i in range(8)
            ]
        )

    assert at_b0(u1) == RingMatrix.identity(8)
    assert at_b0(k1) == RingMatrix.identity(8)
    a = sym("a")
    expected = [a, a, 1, 1, 1, 1, a ** -1, a ** -1]
    for i in range(8):
        assert equal_mod_inverses(
            at_b0(t1)[i, i], expected[i], {"N": sym("a") ** 2}
        ), i


def test_iwasawa_factors_are_g2_elements():
    for factor in iwasawa_case1() + iwasawa_case2():
        gram = factor * J8 * factor.transpose()
        assert matrices_equal_mod(gram, J8) is None


def test_case2_parameter_is_forced_entrywise():
    # solving for u' = x_alpha1(u1) entry-wise: the (1,1) entry of
    # t'^{-1} u'^{-1} T is (b rho / N)(a + u1 b rho); killing its 1/N
    # denominator forces u1 = -a/(b rho), the implemented choice
    a, b, rho = sym("a"), sym("b"), sym("rho")
    u1 = sym("u1")
    t = torus_matrix()
    lead = one_param("a", -u1)
    top = (lead * t)[0, 0]
    assert equal_mod_inverses(top, a + u1 * b * rho, {"N": N_RELATION})
    _, t2, _ = iwasawa_case2()
    t2_inv_00 = b * rho * sym("N", -1)
    assert equal_mod_inverses(
        t2_inv_00 * t2[0, 0], 1, {"N": N_RELATION}
    )
    # the linear equation a + u1 b rho = 0 has the unique solution below,
    # matching the constructed factor
    u2, _, _ = iwasawa_case2()
    assert u2 == one_param("a", -a * b ** -1 * rho ** -1)


def test_in_parabolic_negative_control():
    # the negative long root is not in P
    assert not in_parabolic(one_param("l", sym("u")))
    assert in_parabolic(one_param("g", sym("u")))  # Levi root -alpha1 is


def test_printed_norm_formula_fails():
    # with N = a^2 - b*rho^2 (as printed) the torus matrix has det != 1
    # and moves v_rho; the corrected N = a^2 - b^2*rho is forced
    a, b, rho = sym("a"), sym("b"), sym("rho")
    printed = a ** 2 - b * rho ** 2
    t = torus_matrix()
    assert not equal_mod_inverses(t.det(), 1, {"N": printed})
    image = t.apply(list(v_rho_vector()))
    moved = any(
        not equal_mod_inverses(got, want, {"N": printed})
        for got, want in zip(image, v_rho_vector())
    )
    assert moved


def test_printed_case1_compact_factor_fails():
    # the displayed third factor (parameter +b*rho/a) is the inverse of
    # the correct one: the product then misses the torus matrix already
    # in the top block
    u1, t1, k1 = iwasawa_case1()
    k_printed = one_param("g", sym("b") * sym("rho") * sym("a", -1))
    assert matrices_equal_mod(u1 * t1 * k_printed, torus_matrix()) is not None
    assert k1 * k_printed == RingMatrix.identity(8)
    assert matrices_equal_mod(u1 * t1 * k1, torus_matrix()) is None


def test_coroot_elements_are_diagonal_torus():
    t, t_inv = sym("t"), sym("t", -1)
    for p in ("a", "b"):
        h = coroot_element(p, t, t_inv)
        assert h.is_diagonal(), p
        assert preserves_bilinear(h) or matrices_equal_mod(
            h * J8 * h.transpose(), J8
        ) is None


def test_modulus_characters_errors():
    with pytest.raises(ValueError):
        modulus_characters(-1, 2)
    with pytest.raises(ValueError):
        modulus_characters(2, 0)


def test_modulus_characters_values():
    assert modulus_characters(0, 0) == (0, 0, 0)
    assert modulus_characters(1, 1) == (-1, -1, -2)
    assert modulus_characters(3, 0) == (-3, 0, -3)
    assert modulus_characters(4, 1) == (-4, -1, -5)


def test_matrix_entry_strings_deterministic():
    _, _, k2 = iwasawa_case2()
    once = matrix_entry_strings(k2)
    again = matrix_entry_strings(iwasawa_case2()[2])
    assert once == again
    assert once[1][0] != ""


# -- the E^3 basis identification --------------------------------------------

RHO = sym("rho")

W_BASIS = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, -RHO, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, Fraction(-1, 2), Fraction(-1, 2), 0, 0, 0],
    [0, 0, Fraction(-1, 2), 0, 0, RHO * Fraction(1, 2), 0, 0],
    [0, 0, 0, 0, 0, 0, 0, Fraction(1, 2)],
    [0, 0, 0, 0, 0, 0, Fraction(1, 2), 0],
]


def express_in_w_basis(y):
    """Coordinates of y in W_BASIS; asserts membership in W."""
    y = [e if isinstance(e, LaurentPoly) else LaurentPoly.constant(e) for e in y]
    assert (y[3] - y[4]).is_zero()          # orthogonal to v0
    assert (y[5] + RHO * y[2]).is_zero()    # orthogonal to v_rho
    rho_inv = sym("rho", -1)
    return [
        y[0],
        -rho_inv * y[1],
        -2 * y[3],
        -2 * y[2],
        2 * y[7],
        2 * y[6],
    ]


def test_w_basis_is_orthogonal_complement():
    for w in W_BASIS:
        assert pairing(w, V0_VECTOR) == 0
        assert pairing(w, list(v_rho_vector())) == 0


def su21_action_on_w():
    x = su21_generic()
    cols = []
    for w in W_BASIS:
        cols.append(express_in_w_basis(x.apply(list(w))))
    # row-major 6x6 matrix of the action
    return [[cols[j][i] for j in range(6)] for i in range(6)]


def test_su21_action_is_e_linear():
    a = su21_action_on_w()
    # multiplication by tau: per coordinate the block [[0, rho], [1, 0]]
    m_tau = [[LaurentPoly.zero() for _ in range(6)] for _ in range(6)]
    for c in range(3):
        m_tau[2 * c][2 * c + 1] = RHO
        m_tau[2 * c + 1][2 * c] = LaurentPoly.one()
    lhs = RingMatrix(a) * RingMatrix(m_tau)
    rhs = RingMatrix(m_tau) * RingMatrix(a)
    assert lhs == rhs


def su21_as_3x3_over_e():
    """The action as a 3x3 matrix of E-scalars (p, r) meaning p + tau*r."""
    a = su21_action_on_w()
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            p = a[2 * i][2 * j]
            r = a[2 * i + 1][2 * j]
            # E-linearity block shape: [[p, rho r], [r, p]]
            assert (a[2 * i + 1][2 * j + 1] - p).is_zero()
            assert (a[2 * i][2 * j + 1] - RHO * r).is_zero()
            row.append((p, r))
        out.append(row)
    return out


def test_su21_action_is_traceless_anti_hermitian():
    y = su21_as_3x3_over_e()
    trace_p = y[0][0][0] + y[1][1][0] + y[2][2][0]
    trace_r = y[0][0][1] + y[1][1][1] + y[2][2][1]
    assert trace_p.is_zero() and trace_r.is_zero()
    # X J + J conj(X)^t = 0 with J anti-diagonal: X[i][2-j] + conj(X)[j][2-i] = 0
    for i in range(3):
        for j in range(3):
            p1, r1 = y[i][2 - j]
            p2, r2 = y[j][2 - i]
            assert (p1 + p2).is_zero(), (i, j)
            assert (r1 - r2).is_zero(), (i, j)


def test_su21_to_3x3_map_is_injective():
    # each display parameter appears in the 3x3 image, so the map is 1-1
    y = su21_as_3x3_over_e()
    seen = set()
    for row in y:
        for p, r in row:
            seen.update(p.variables)
            seen.update(r.variables)
    assert set(SU21_PARAMS) <= seen
