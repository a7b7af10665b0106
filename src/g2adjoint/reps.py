"""Character theory for GL3(C) x Gal(E/F) and the 8-dimensional adjoint
action on traceless 3x3 matrices.

Satake classes, Schur characters from Gelfand-Tsetlin patterns, SL2-type
characters, the matrix of the adjoint representation extended by the
Frobenius involution X -> J X^t J, the Frobenius eigenspace split, and
symmetric powers as complete homogeneous polynomials of the weights, and
their irreducible multiplicities read off the Weyl alternant.

Character polynomials live in the Laurent variables alpha1, alpha2 (with
alpha3 = 1/(alpha1*alpha2) substituted) or mu.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    LaurentPoly,
    RingMatrix,
    poly_sum,
    sym,
)


@dataclass(frozen=True)
class SplitClass:
    """Unramified parameter diag(alpha1, alpha2, alpha3), alpha1 alpha2
    alpha3 = 1 enforced by substituting alpha3 = (alpha1 alpha2)^-1."""

    alpha1: LaurentPoly
    alpha2: LaurentPoly

    def __post_init__(self):
        for value in (self.alpha1, self.alpha2):
            if not value.is_unit():
                raise ValueError("Satake coordinates must be Laurent units")

    @classmethod
    def symbolic(cls):
        return cls(sym("alpha1"), sym("alpha2"))

    @property
    def alpha3(self):
        return (self.alpha1 * self.alpha2).unit_inverse()

    def diagonal(self):
        return RingMatrix.diagonal([self.alpha1, self.alpha2, self.alpha3])


@dataclass(frozen=True)
class NonSplitClass:
    """Parameter (diag(mu, 1, mu^-1), Fr) in the Frobenius coset; the
    middle sign is +1 after adjusting by the center."""

    mu: LaurentPoly

    def __post_init__(self):
        if not self.mu.is_unit():
            raise ValueError("mu must be a Laurent unit")

    @classmethod
    def symbolic(cls):
        return cls(sym("mu"))

    def diagonal(self):
        return RingMatrix.diagonal([self.mu, LaurentPoly.one(), self.mu.unit_inverse()])


def _e(i, j):
    return RingMatrix(
        [[1 if (r, c) == (i, j) else 0 for c in range(3)] for r in range(3)]
    )


# E12, E13, E21, E23, E31, E32: the root vectors, in basis order.
_OFF_DIAGONAL = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))

# Ordered basis of traceless 3x3 matrices, shared by every 8x8 matrix here.
ADJOINT_BASIS = (
    *(_e(i, j) for i, j in _OFF_DIAGONAL),
    _e(0, 0) - _e(1, 1),   # H1
    _e(1, 1) - _e(2, 2),   # H2
)


def adjoint_coordinates(m):
    """Coordinates of a traceless 3x3 matrix in ADJOINT_BASIS."""
    trace = m[0, 0] + m[1, 1] + m[2, 2]
    if trace:
        raise ValueError("matrix is not traceless")
    return [m[ij] for ij in _OFF_DIAGONAL] + [m[0, 0], -m[2, 2]]


def adjugate3(m):
    """Adjugate of a 3x3 matrix: m * adjugate3(m) = det(m) * Id."""
    def c(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [s for s in range(3) if s != j]
        minor = (
            m[rows[0], cols[0]] * m[rows[1], cols[1]]
            - m[rows[0], cols[1]] * m[rows[1], cols[0]]
        )
        return minor if (i + j) % 2 == 0 else -minor

    return RingMatrix([[c(j, i) for j in range(3)] for i in range(3)])


def _adjoint_action(f):
    """8x8 matrix of the linear map f on ADJOINT_BASIS (images as columns)."""
    cols = [adjoint_coordinates(f(b)) for b in ADJOINT_BASIS]
    return RingMatrix(zip(*cols))


def conjugation_matrix(g, g_inv):
    """8x8 matrix of X -> g X g_inv on ADJOINT_BASIS."""
    return _adjoint_action(lambda b: g * b * g_inv)


def conjugation_adjugate_matrix(g):
    """det(g) * r(g): the denominator-free matrix of X -> g X adj(g)."""
    return conjugation_matrix(g, adjugate3(g))


def frobenius_matrix():
    """r(Fr): the involution X -> _tX on ADJOINT_BASIS (the twisted variant
    r'(Fr) = -r(Fr) enters through lfunc.l_factor_denominator)."""
    return _adjoint_action(lambda b: b.anti_transpose())


def r_matrix(satake):
    """The 8x8 matrix of the Satake class under the adjoint representation
    (composed with the Frobenius action in the non-split case)."""
    if not isinstance(satake, (SplitClass, NonSplitClass)):
        raise TypeError(f"not a Satake class: {satake!r}")
    g = satake.diagonal()
    g_inv = RingMatrix.diagonal([g[i, i].unit_inverse() for i in range(3)])
    r = conjugation_matrix(g, g_inv)
    return r if isinstance(satake, SplitClass) else r * frobenius_matrix()


def adjoint_weights():
    """The eight weights of the adjoint representation at
    diag(alpha1, alpha2, (alpha1 alpha2)^-1), in basis order."""
    a1, a2 = sym("alpha1"), sym("alpha2")
    a3 = (a1 * a2).unit_inverse()
    eig = (a1, a2, a3)
    weights = [eig[i] * eig[j].unit_inverse() for i, j in _OFF_DIAGONAL]
    return weights + [LaurentPoly.one(), LaurentPoly.one()]


def schur_char(m1, m2):
    """Character of the GL3 irreducible with highest weight
    m1*w1 + m2*w2 at diag(alpha1, alpha2, (alpha1 alpha2)^-1).

    Counts the Gelfand-Tsetlin patterns with top row (m1+m2, m2, 0): the
    pattern with middle row (p, q) and bottom entry r has weight
    x1^r x2^(p+q-r) x3^(m1+2*m2-p-q).  Evaluate at a Satake class with
    `.subs`.
    """
    if m1 < 0 or m2 < 0:
        raise ValueError("highest weight must be dominant")
    total = m1 + 2 * m2
    counts = {}
    for p in range(m2, m1 + m2 + 1):
        for q in range(m2 + 1):
            w3 = total - p - q
            for r in range(q, p + 1):
                key = (r - w3, p + q - r - w3)
                counts[key] = counts.get(key, 0) + 1
    return LaurentPoly(("alpha1", "alpha2"), counts)


def sl2_char(k, z):
    """z^k + z^(k-2) + ... + z^(-k); z must be a Laurent unit."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return poly_sum(z ** (k - 2 * j) for j in range(k + 1))


def sym_power_char(base_char, k):
    """Characters of Sym^0..Sym^k: the complete homogeneous polynomials
    h_0..h_k of the weights of `base_char`, with multiplicity, as the X^n
    coefficients of prod_w 1/(1 - w X); nothing is divided."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    h = [LaurentPoly.one()] + [LaurentPoly.zero()] * k
    for exps, mult in base_char.terms.items():
        if mult < 0:
            raise ValueError(f"not a character: weight multiplicity {mult}")
        w = LaurentPoly(base_char.variables, {exps: 1})
        for _ in range(mult):
            for n in range(1, k + 1):
                h[n] = h[n] + w * h[n - 1]
    return h


def schur_expand(char):
    """Irreducible multiplicities {(m1, m2): multiplicity} of a character,
    read off the Weyl character formula (Fulton and Harris, Lecture 24).

    With Delta = (alpha1 - alpha2)(alpha1 - alpha3)(alpha2 - alpha3), the
    product char * Delta is the sum of mult(m1, m2) times the alternant of
    the highest weight plus rho.  Of that alternant's six monomials only
    alpha1^(m1+m2+2) alpha2^(m2+1) has exponents u > w > 0, so each such
    term of char * Delta is one multiplicity.  Raises unless `char` is a
    character: char * Delta must change sign under both simple reflections
    and no multiplicity may be negative.
    """
    a1, a2 = sym("alpha1"), sym("alpha2")
    a3 = (a1 * a2).unit_inverse()
    alternating = char * (a1 - a2) * (a1 - a3) * (a2 - a3)
    if (
        alternating.subs({"alpha1": a2, "alpha2": a1}) != -alternating
        or alternating.subs({"alpha2": a3}) != -alternating
        or alternating.variables not in ((), ("alpha1", "alpha2"))
    ):
        raise ValueError(f"not a character of alpha1, alpha2: {char}")
    out = {}
    for (u, w), coeff in alternating.terms.items():
        if u > w > 0:
            if coeff < 0:
                raise ValueError(f"negative multiplicity {coeff}")
            out[u - w - 1, w - 1] = coeff
    return out


def fr_eigensplit(mu=None):
    """Eigenvalues of diag(mu, 1, mu^-1) on the +1 and -1 eigenspaces of
    the Frobenius involution.

    Returns (plus, minus): lists of Laurent monomials in mu, sorted by
    exponent, with dimensions (5, 3).  The torus is diagonal and commutes
    with r(Fr), so r(Fr) is an involution on each torus eigenspace; there
    a weight w of multiplicity d, where r(Fr) has trace t, occurs (d + t)/2
    times in plus and (d - t)/2 times in minus.
    """
    mu = sym("mu") if mu is None else mu
    fr = frobenius_matrix()
    torus = r_matrix(SplitClass(mu, LaurentPoly.one()))
    if fr * fr != RingMatrix.identity(8):
        raise ArithmeticError("the Frobenius matrix is not an involution")
    if not torus.is_diagonal() or torus * fr != fr * torus:
        raise ArithmeticError("the torus does not commute with Frobenius")
    dims, traces = {}, {}
    for i in range(8):
        w = torus[i, i]
        dims[w] = dims.get(w, 0) + 1
        traces[w] = traces.get(w, 0) + fr[i, i]
    plus, minus = [], []
    for w in sorted(dims, key=lambda w: -w.min_exponent("mu")):
        plus += [w] * ((dims[w] + traces[w]) // 2)
        minus += [w] * ((dims[w] - traces[w]) // 2)
    return plus, minus
