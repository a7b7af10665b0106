"""Concrete matrix models for G2 and SU(2,1) inside SO8.

Contains the anti-diagonal bilinear form J, the trilinear form on the
orthogonal complement of v0, general elements of both Lie algebras, the
twelve root subgroups with their one-parameter exponentials, the Weyl
representative for the long simple root, the two-parameter torus element
and both of its Iwasawa factorizations, and the modulus-character
bookkeeping of the unramified computation.

Conventions: coordinates are 0-indexed in code, J is the anti-diagonal
identity, v0 = (0,0,0,1,-1,0,0,0), v_rho = (0,0,1,0,0,rho,0,0).  The
quantity N = a^2 - b^2*rho is carried as a formal Laurent variable "N"
appearing only with negative exponents; identities are decided by
clearing N and substituting its defining polynomial (the base ring is a
domain, so this is exact).
"""

from __future__ import annotations

from itertools import combinations, permutations

from .algebra import (
    LaurentPoly,
    RingMatrix,
    equal_mod_inverses,
    poly_sum,
    sym,
)
from .report import VerificationReport

# Parameter names of the G2 display, in order.
G2_PARAMS = ("T1", "T2") + tuple("abcdefghijkl")
SU21_PARAMS = ("T1", "a", "d", "e", "f", "h", "k", "l")

# Parabolic P: Levi roots {+-alpha1}; as matrices it is block upper
# triangular for the blocks {0,1}, {2,3,4,5}, {6,7}.
PARABOLIC_BLOCKS = (0, 0, 1, 1, 1, 1, 2, 2)


# The bilinear form: the anti-diagonal identity matrix.
J8 = RingMatrix([[1 if i + j == 7 else 0 for j in range(8)] for i in range(8)])

V0_VECTOR = (0, 0, 0, 1, -1, 0, 0, 0)


def v_rho_vector():
    return (0, 0, LaurentPoly.one(), 0, 0, sym("rho"), 0, 0)


def _build_trilinear():
    # Wedge terms of the form on the orthogonal complement of v0, written
    # in the eight ambient coordinates (1-based triples, then symmetrized).
    wedges = [
        (1, (7, 4, 2)),
        (1, (7, 5, 2)),
        (1, (1, 4, 8)),
        (1, (1, 5, 8)),
        (1, (6, 4, 3)),
        (1, (6, 5, 3)),
        (2, (3, 2, 8)),
        (-2, (6, 7, 1)),
    ]
    tensor = {}
    for coeff, (p, q, r) in wedges:
        base = (p - 1, q - 1, r - 1)
        for perm in permutations(range(3)):
            sign = 1
            for x in range(3):
                for y in range(x + 1, 3):
                    if perm[x] > perm[y]:
                        sign = -sign
            key = tuple(base[perm.index(t)] for t in range(3))
            tensor[key] = tensor.get(key, 0) + sign * coeff
    return {k: c for k, c in tensor.items() if c}


TRILINEAR = _build_trilinear()


def trilinear(u, v, w):
    """T(u, v, w) for 8-component vectors of scalars."""
    return poly_sum(
        coeff * (u[i] * v[j] * w[k])
        for (i, j, k), coeff in TRILINEAR.items()
        if u[i] and v[j] and w[k]
    )


def g2_element(T1=0, T2=0, a=0, b=0, c=0, d=0, e=0, f=0, g=0, h=0, i=0, j=0,
               k=0, l=0):
    """General element of the G2 Lie algebra in the 8x8 model; parameters
    left out are 0."""
    return RingMatrix(
        [
            [T1, a, c, d, d, e, f, 0],
            [g, T2 - T1, b, -c, -c, d, 0, -f],
            [h, l, 2 * T1 - T2, a, a, 0, -d, -e],
            [i, -h, g, 0, 0, -a, c, -d],
            [i, -h, g, 0, 0, -a, c, -d],
            [j, i, 0, -g, -g, T2 - 2 * T1, -b, -c],
            [k, 0, -i, h, h, -l, T1 - T2, -a],
            [0, -k, -j, -i, -i, -h, -g, -T1],
        ]
    )


def su21_element(T1=0, a=0, d=0, e=0, f=0, h=0, k=0, l=0):
    """General element of the su(2,1) subalgebra (annihilator of v_rho);
    parameters left out are 0."""
    rho = sym("rho")
    return RingMatrix(
        [
            [T1, a, -rho * e, d, d, e, f, 0],
            [rho * a, T1, -rho * d, rho * e, rho * e, d, 0, -f],
            [h, l, 0, a, a, 0, -d, -e],
            [-rho * l, -h, rho * a, 0, 0, -a, -rho * e, -d],
            [-rho * l, -h, rho * a, 0, 0, -a, -rho * e, -d],
            [-rho * h, -rho * l, 0, -rho * a, -rho * a, 0, rho * d, rho * e],
            [k, 0, rho * l, h, h, -l, -T1, -a],
            [0, -k, rho * h, rho * l, rho * l, -h, -rho * a, -T1],
        ]
    )


def g2_generic(**values):
    """The G2 display in its 14 symbols, with `values` put in for some."""
    return g2_element(**({p: sym(p) for p in G2_PARAMS} | values))


def su21_generic():
    return su21_element(*(sym(p) for p in SU21_PARAMS))


# Solving X.v_rho = 0 on the G2 display pins these six parameters.
SU21_SUBSTITUTION = {
    "T2": 2 * sym("T1"),
    "b": -sym("rho") * sym("d"),
    "c": -sym("rho") * sym("e"),
    "g": sym("rho") * sym("a"),
    "i": -sym("rho") * sym("l"),
    "j": -sym("rho") * sym("h"),
}


def g2_read_params(matrix):
    """Read the 14 display parameters off designated entries.  The eight
    su(2,1) parameters sit at the same entries of the su(2,1) display."""
    t1 = matrix[0, 0]
    return {
        "T1": t1,
        "T2": matrix[1, 1] + t1,
        "a": matrix[0, 1],
        "b": matrix[1, 2],
        "c": matrix[0, 2],
        "d": matrix[0, 3],
        "e": matrix[0, 5],
        "f": matrix[0, 6],
        "g": matrix[1, 0],
        "h": matrix[2, 0],
        "i": matrix[3, 0],
        "j": matrix[5, 0],
        "k": matrix[6, 0],
        "l": matrix[2, 1],
    }


def in_g2_span(matrix):
    return matrix == g2_element(**g2_read_params(matrix))


def in_su21_span(matrix):
    params = g2_read_params(matrix)
    return matrix == su21_element(**{p: params[p] for p in SU21_PARAMS})


def bracket(x, y):
    return x * y - y * x


# -- roots ------------------------------------------------------------------

ROOT_PARAMS = tuple("abcdefghijkl")
OPPOSITE_ROOT = {
    "a": "g", "g": "a", "b": "l", "l": "b", "c": "h", "h": "c",
    "d": "i", "i": "d", "e": "j", "j": "e", "f": "k", "k": "f",
}


def root_matrix(param):
    """Nilpotent direction obtained by switching on a single parameter."""
    if param not in ROOT_PARAMS:
        raise ValueError(f"not a root parameter: {param}")
    return g2_element(**{param: 1})


SIMPLE_PARAMS = ("a", "b")  # alpha1 (short), alpha2 (long)
PARABOLIC_PARAMS = ("a", "g", "b", "c", "d", "e", "f")  # Levi {+-alpha1} + radical


def root_exp(param):
    """(E, E^2/2) as integer matrices, E the root matrix of `param`.

    E^3 = 0 and E^2 is even, so exp(t E) = I + t E + t^2 (E^2/2) has
    integer entries (Steinberg, Lectures on Chevalley Groups).
    """
    e = root_matrix(param)
    e2 = e * e
    if any(x for row in (e2 * e).entries for x in row) or any(
        x % 2 for row in e2.entries for x in row
    ):
        raise ArithmeticError(f"non-integral exponential at {param}")
    return e, RingMatrix([[x // 2 for x in row] for row in e2.entries])


ROOT_EXP = {param: root_exp(param) for param in ROOT_PARAMS}


def one_param(param, u):
    """exp(u * E_root) = I + u E + u^2 (E^2/2): the one-parameter unipotent
    subgroup at the root."""
    e, half_e2 = ROOT_EXP[param]
    return RingMatrix.identity(8) + e.scale(u) + half_e2.scale(u * u)


def chevalley_n(param, t, t_inverse):
    """n_root(t) = x_root(t) x_{-root}(-1/t) x_root(t)."""
    return (
        one_param(param, t)
        * one_param(OPPOSITE_ROOT[param], -t_inverse)
        * one_param(param, t)
    )


def weyl_rep(param):
    """Weyl representative n_root(1) for a simple root parameter."""
    if param not in SIMPLE_PARAMS:
        raise ValueError(f"not a simple root parameter: {param}")
    return chevalley_n(param, LaurentPoly.one(), LaurentPoly.one())


def in_parabolic(matrix):
    """Structural membership test: zero below the P block pattern."""
    for i in range(8):
        for j in range(8):
            if PARABOLIC_BLOCKS[i] > PARABOLIC_BLOCKS[j] and matrix[i, j]:
                return False
    return True


# -- torus element and Iwasawa factorizations --------------------------------

N_RELATION = sym("a") ** 2 - sym("b") ** 2 * sym("rho")
# The model's one formal inverse and its defining polynomial
RELATIONS = {"N": N_RELATION}


def torus_matrix():
    """The 8x8 torus element attached to a + b*sqrt(rho); N = a^2 - b^2*rho
    enters only through the formal inverse N^-1.  Other elements of the
    torus are its images under RingMatrix.subs."""
    a, b, rho, n_inv = sym("a"), sym("b"), sym("rho"), sym("N", -1)
    a2, ab, b2 = a * a * n_inv, a * b * n_inv, b * b * n_inv
    return RingMatrix(
        [
            [a, -b, 0, 0, 0, 0, 0, 0],
            [-b * rho, a, 0, 0, 0, 0, 0, 0],
            [0, 0, a2, -ab, -ab, -b2, 0, 0],
            [0, 0, -ab * rho, a2, b2 * rho, ab, 0, 0],
            [0, 0, -ab * rho, b2 * rho, a2, ab, 0, 0],
            [0, 0, -b2 * rho * rho, ab * rho, ab * rho, a2, 0, 0],
            [0, 0, 0, 0, 0, 0, a * n_inv, b * n_inv],
            [0, 0, 0, 0, 0, 0, b * rho * n_inv, a * n_inv],
        ]
    )


def matrices_equal_mod(m1, m2, relations=RELATIONS):
    """Entry-wise equality after clearing the formal inverses."""
    for i in range(m1.rows):
        for j in range(m1.cols):
            if not equal_mod_inverses(m1[i, j], m2[i, j], relations):
                return (i, j)
    return None


def preserves_bilinear(matrix):
    """m J m^t = J modulo N = a^2 - b^2*rho."""
    return matrices_equal_mod(matrix * J8 * matrix.transpose(), J8) is None


def preserves_trilinear(matrix):
    """T(mu, mv, mw) = T(u, v, w) on all basis triples, modulo N."""
    cols = [[matrix[i, j] for i in range(8)] for j in range(8)]
    return all(
        equal_mod_inverses(
            trilinear(cols[i], cols[j], cols[k]),
            TRILINEAR.get((i, j, k), 0),
            RELATIONS,
        )
        for i, j, k in combinations(range(8), 3)
    )


def _levi_torus(s, t, s_inv, t_inv):
    """Diagonal torus element of the Levi GL2: top block diag(s, t)."""
    return RingMatrix.diagonal(
        [s, t, s * t_inv, 1, 1, t * s_inv, t_inv, s_inv]
    )


def iwasawa_case1():
    """Factorization of the torus matrix when |b*rho| <= |a|.

    Returns (u', t', k'): u' = x_alpha1(-b/a) and t' as displayed;
    k' = x_{-alpha1}(-b*rho/a), the sign correction recorded in the typo
    ledger (as printed, k' is the inverse of the correct factor).
    """
    a, b, rho = sym("a"), sym("b"), sym("rho")
    a_inv, n_inv = sym("a", -1), sym("N", -1)
    u = one_param("a", -b * a_inv)
    t = _levi_torus(N_RELATION * a_inv, a, a * n_inv, a_inv)
    k = one_param("g", -b * rho * a_inv)
    return u, t, k


def iwasawa_case2():
    """Factorization of the torus matrix when |b*rho| > |a|.

    The displayed decomposition leaves u' and k' blank; they are derived
    here.  Writing u' = x_alpha1(u1), the top block of t'^{-1} u'^{-1} T
    is [[(b*rho/N)(a + u1*b*rho), *], [-1, a/(b*rho)]]; the only choice
    killing the 1/N denominators (hence integral under |a| < |b*rho|) is
    u1 = -a/(b*rho), which forces the (1,1) entry to 0 and the compact
    factor to n_alpha1(1) x_alpha1(u1).
    """
    a, b, rho = sym("a"), sym("b"), sym("rho")
    brho_inv = sym("b", -1) * sym("rho", -1)
    n_inv = sym("N", -1)
    u1 = -a * brho_inv
    u = one_param("a", u1)
    t = _levi_torus(N_RELATION * brho_inv, b * rho, b * rho * n_inv, brho_inv)
    k = weyl_rep("a") * one_param("a", u1)
    return u, t, k


def entries_polynomial_in(matrix, substitution):
    """True when every entry is a polynomial in a fresh variable z once
    `substitution` puts the claimed ratio in as z (b -> z*a/rho claims
    b*rho/a): z is the only variable left, with no negative power."""
    return all(
        e.variables in ((), ("z",)) and e.min_exponent("z") >= 0
        for row in matrix.subs(substitution).entries
        for e in row
    )


def modulus_characters(m1, m2):
    """Exponents of q for (delta_P(w2 t' w2), |alpha2(t')|, delta_B^{-1/2}(t))
    at the lattice point (m1, m2) = (v(beta1(t)), v(beta2(t))).

    Cross-checked against |N|^2/max(|a|,|b|)^3 and max(|a|,|b|)^3/|N| under
    the valuation dictionary v(N) = m1 + m2, v(t1) = (2*m1+m2)/3,
    v(t2) = (m1+2*m2)/3; the delta_B value is the split-case display
    q^(-m1-m2) = |N| (the printed |N|^(-1) has the wrong sign).
    """
    if m1 < 0 or m2 < 0:
        raise ValueError("valuations must be nonnegative")
    if (m1 - m2) % 3 != 0:
        raise ValueError("(m1, m2) must satisfy 3 | (m1 - m2)")
    v1 = (2 * m1 + m2) // 3
    v2 = (m1 + 2 * m2) // 3
    exp_n = -(m1 + m2)          # |N| = q^(-v(N))
    exp_max = -min(v1, v2)      # max(|a|,|b|) = max(|t1|,|t2|)
    delta_p = 2 * exp_n - 3 * exp_max
    alpha2 = 3 * exp_max - exp_n
    if delta_p != -max(m1, m2) or alpha2 != -min(m1, m2):
        raise ArithmeticError("valuation dictionary is inconsistent")
    return (-max(m1, m2), -min(m1, m2), -(m1 + m2))


# -- the Lie-model suite ------------------------------------------------------


def so8_defect(matrix):
    """X J + J X^t; zero iff X is in so8 for the anti-diagonal form."""
    return matrix * J8 + J8 * matrix.transpose()


def derivation_defect(matrix):
    """First basis triple where X fails to act as a derivation of T.  T is
    alternating, hence so is the defect, and the least failing triple of
    all 512 is the least failing one with i < j < k."""
    cols = [[matrix[i, j] for i in range(8)] for j in range(8)]
    basis = [[int(i == j) for i in range(8)] for j in range(8)]
    for i, j, k in combinations(range(8), 3):
        defect = (
            trilinear(cols[i], basis[j], basis[k])
            + trilinear(basis[i], cols[j], basis[k])
            + trilinear(basis[i], basis[j], cols[k])
        )
        if defect:
            return (i, j, k)
    return None


def annihilates_v_rho(matrix):
    image = matrix.apply(list(v_rho_vector()))
    return not any(image)


def verify_lie_models():
    """Certify both Lie-algebra displays and the stabilizer description."""
    report = VerificationReport("lie", {})
    x = g2_generic()

    # the Lie display has no formal inverse, so the defect is zero exactly
    # when every entry is; the first nonzero one in row-major order is shown
    defect = so8_defect(x)
    bad_entry = next(
        ((i, j) for i in range(8) for j in range(8) if defect[i, j]), None
    )
    report.check(
        "g2-so8-condition",
        bad_entry is None,
        "X J + J X^t = 0 identically in the 14 parameters",
        counterexample=None if bad_entry is None else f"entry {bad_entry}",
    )
    report.note_typo("J-antidiagonal")

    bad = derivation_defect(x)
    report.check(
        "g2-derivation-of-trilinear-form",
        bad is None,
        "T(Xu,v,w) + T(u,Xv,w) + T(u,v,Xw) = 0 on all 512 basis triples",
        counterexample=None if bad is None else f"basis triple {bad}",
    )

    generators = {p: g2_element(**{p: 1}) for p in G2_PARAMS}
    directions = list(generators.values())
    closed = all(
        in_g2_span(bracket(di, dj))
        for a_, di in enumerate(directions)
        for dj in directions[a_ + 1:]
    )
    # read-off coordinates of the 14 generators are the 14 unit vectors,
    # so the span has dimension exactly 14
    unit = all(
        not value - (1 if name == p else 0)
        for p in G2_PARAMS
        for name, value in g2_read_params(generators[p]).items()
    )
    report.check(
        "g2-bracket-closure-rank-14",
        closed and unit,
        "all 91 brackets stay in the span; generators read off as unit vectors",
    )

    y = su21_generic()
    report.check(
        "su21-annihilates-v-rho",
        annihilates_v_rho(y),
        "X . v_rho = 0 identically in the 8 parameters",
    )

    substituted = g2_generic(**SU21_SUBSTITUTION)
    report.check(
        "su21-equals-constrained-g2",
        substituted == y,
        "the su21 display is the G2 display under the v_rho-annihilator "
        "substitution {T2=2T1, b=-rho d, c=-rho e, g=rho a, i=-rho l, j=-rho h}",
    )

    image = g2_generic().apply(list(v_rho_vector()))
    rho = sym("rho")
    expected = [
        sym("c") + rho * sym("e"),
        sym("b") + rho * sym("d"),
        2 * sym("T1") - sym("T2"),
        sym("g") - rho * sym("a"),
        sym("g") - rho * sym("a"),
        rho * (sym("T2") - 2 * sym("T1")),
        -sym("i") - rho * sym("l"),
        -sym("j") - rho * sym("h"),
    ]
    report.check(
        "v-rho-annihilator-is-rank-6-system",
        not any(got - want for got, want in zip(image, expected)),
        "X . v_rho imposes exactly six independent linear constraints, "
        "so the annihilator has dimension 14 - 6 = 8",
    )

    su_dirs = [su21_element(**{p: 1}) for p in SU21_PARAMS]
    su_closed = all(
        in_su21_span(bracket(di, dj))
        for a_, di in enumerate(su_dirs)
        for dj in su_dirs[a_ + 1:]
    )
    report.check(
        "su21-bracket-closure-rank-8",
        su_closed,
        "all 28 brackets of the 8 directions stay in the su21 span",
    )
    return report


def verify_iwasawa():
    """Certify the torus element, both factorizations, and the conjugation
    claims feeding the unramified integral."""
    report = VerificationReport("iwasawa", {})
    t = torus_matrix()

    report.check(
        "torus-determinant-one",
        equal_mod_inverses(t.det(), 1, RELATIONS),
        "det = 1 once N = a^2 - b^2*rho; fails for the printed N = a^2 - b*rho^2",
    )
    report.note_typo("norm-formula")

    for label, name, vector in (
        ("v-rho", "v_rho", v_rho_vector()),
        ("v0", "v0", V0_VECTOR),
    ):
        ok = all(
            equal_mod_inverses(got, want, RELATIONS)
            for got, want in zip(t.apply(list(vector)), vector)
        )
        report.check(f"torus-fixes-{label}", ok, f"t . {name} = {name}")

    report.check("torus-preserves-J", preserves_bilinear(t), "t J t^t = J")
    report.check(
        "torus-preserves-trilinear-form",
        preserves_trilinear(t),
        "T(tu, tv, tw) = T(u, v, w)",
    )

    # the claimed ratios b*rho/a and a/(b*rho) go in as a fresh variable z
    b_ratio = {"b": sym("z") * sym("a") * sym("rho", -1)}
    a_ratio = {"a": sym("z") * sym("b") * sym("rho")}

    u1, t1, k1 = iwasawa_case1()
    mismatch = matrices_equal_mod(u1 * t1 * k1, t)
    report.check(
        "case1-product-is-torus-matrix",
        mismatch is None,
        "u' t' k' = torus matrix, all 64 entries, with the k' parameter "
        "sign corrected to -b*rho/a",
        counterexample=None if mismatch is None else f"entry {mismatch}",
    )
    report.note_typo("case1-k-sign")
    report.check(
        "case1-shapes",
        u1.is_upper_unipotent()
        and t1.is_diagonal()
        and entries_polynomial_in(k1, b_ratio),
        "u' upper unipotent; t' diagonal; k' entries polynomial in b*rho/a",
    )

    u2, t2, k2 = iwasawa_case2()
    mismatch = matrices_equal_mod(u2 * t2 * k2, t)
    report.check(
        "case2-product-is-torus-matrix",
        mismatch is None,
        "derived u', k' with the displayed t' reproduce the torus matrix",
        counterexample=None if mismatch is None else f"entry {mismatch}",
    )
    report.note_typo("case2-blank")
    report.check(
        "case2-shapes",
        u2.is_upper_unipotent()
        and t2.is_diagonal()
        and entries_polynomial_in(u2, a_ratio)
        and entries_polynomial_in(k2, a_ratio),
        "u' upper unipotent in a/(b*rho); t' diagonal as displayed; "
        "k' entries polynomial in a/(b*rho)",
    )

    # a = 0 specialization of case 2 stays a valid factorization
    a0 = {"a": 0}
    mismatch = matrices_equal_mod(
        u2.subs(a0) * t2.subs(a0) * k2.subs(a0),
        t.subs(a0),
        {"N": N_RELATION.subs(a0)},
    )
    report.check(
        "case2-specializes-at-a-equals-0",
        mismatch is None,
        "substituting a = 0 keeps the factorization exact",
    )

    w2 = weyl_rep("b")
    w2_inv = chevalley_n("b", LaurentPoly.constant(-1), LaurentPoly.constant(-1))
    u = sym("u")

    def commutator(u_prime, t):
        """[x_alpha2(u), u'] for u' = x_alpha1(t)."""
        return one_param("b", u) * u_prime * one_param("b", -u) * one_param("a", -t)

    for name, matrix, detail in (
        ("w2-conjugates-case1-u-into-P", u1,
         "w2 u' w2^{-1} lands in the block-upper pattern of P"),
        ("w2-conjugates-commutator-into-P",
         commutator(u1, -sym("b") * sym("a", -1)),
         "w2 [x_alpha2(u), u'] w2^{-1} lands in P, symbolically in u, a, b"),
        ("w2-conjugates-case2-u-into-P", u2, "same for the derived case-2 u'"),
        ("w2-conjugates-case2-commutator-into-P",
         commutator(u2, -sym("a") * sym("b", -1) * sym("rho", -1)),
         "and for w2 [x_alpha2(u), u'] w2^{-1} with the case-2 u'"),
        ("w2-absorbs-x-2a1+a2", one_param("d", u),
         "w2 x_{2 alpha1 + alpha2}(u) w2^{-1} is a one-parameter element in P"),
    ):
        report.check(name, in_parabolic(w2 * matrix * w2_inv), detail)

    exps = modulus_characters(1, 1)
    report.check(
        "modulus-characters-lattice",
        exps == (-1, -1, -2)
        and modulus_characters(0, 0) == (0, 0, 0)
        and modulus_characters(3, 0) == (-3, 0, -3),
        "delta_P -> -max(m1,m2), |alpha2| -> -min(m1,m2), "
        "delta_B^{-1/2} -> -(m1+m2), consistent with the |N| and max(|a|,|b|) "
        "formulas under v(N) = m1+m2",
    )
    report.note_typo("delta-B-sign")

    # derived second-case factors, printable as text and JSON entry strings
    # (N in an entry stands for a^2 - b^2*rho)
    report.extras["case2-u-prime"] = matrix_entry_strings(u2)
    report.extras["case2-t-prime"] = matrix_entry_strings(t2)
    report.extras["case2-k-prime"] = matrix_entry_strings(k2)
    return report


def matrix_entry_strings(matrix):
    """Row-major deterministic rendering of all entries."""
    return [
        [str(matrix[i, j]) for j in range(matrix.cols)] for i in range(matrix.rows)
    ]
