"""Finite-field evidence for the double-coset combinatorics.

Enumerates the G2(F_q)-orbit of v_rho by breadth-first closure under a
small generating set (x_{+-alpha1}(1), x_{+-alpha2}(1)), checks it against
the norm-2*rho sphere in V0 (counted independently), and splits it into
parabolic orbits separated by the v3-block predicate.  This is a
desk-scale analogue over F_q of the corresponding statement over a number
field, and the report labels it as such.

Vectors are numpy int64 rows mod p.  The visited set is a sorted array of
int64 keys (the base-p digits of a vector, v0 most significant), so memory
grows with the orbit, the closure is exactly order-independent and the
sorted keys decode to lexicographically sorted vectors.  A (q, rho) whose
norm sphere, an a priori bound on the orbit, exceeds ORBIT_CAP is refused
before any BFS.
"""

from __future__ import annotations

import numpy as np

from .g2model import (
    OPPOSITE_ROOT,
    PARABOLIC_PARAMS,
    ROOT_EXP,
    ROOT_PARAMS,
    SIMPLE_PARAMS,
    TRILINEAR,
)
from .report import VerificationReport, merge_reports

ORBIT_CAP = 10 ** 7


# g2model's integer (E, E^2/2) of every root, as int64 arrays
_ROOT_INT = {
    param: tuple(np.array(m.entries, dtype=np.int64) for m in pair)
    for param, pair in ROOT_EXP.items()
}


def one_param_mod(param, t, p):
    """exp(t E_root) reduced mod p, as an 8x8 numpy array."""
    e, half_e2 = _ROOT_INT[param]
    t = int(t) % p
    return (np.eye(8, dtype=np.int64) + t * e + t * t * half_e2) % p


def _n_mod(param, t, p):
    t_inv = pow(int(t), p - 2, p)
    x1 = one_param_mod(param, t, p)
    x2 = one_param_mod(OPPOSITE_ROOT[param], (-t_inv) % p, p)
    return ((x1 @ x2 % p) @ x1) % p


def coroot_mod(param, t, p):
    """h_root(t) = n_root(t) n_root(-1) mod p."""
    return _n_mod(param, t, p) @ _n_mod(param, p - 1, p) % p


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _validate(q, rho, cap=ORBIT_CAP):
    """Refuse a (q, rho) the orbit suite cannot run, before any BFS."""
    # The norm sphere bounds the orbit.  It has q^6 +- q^3 > q^6 / 2 points
    # and sphere_count takes q^2 steps, so a q with q^6 > 2 cap is refused
    # on the estimate q^6 before it is counted or tested for primality.
    size = q ** 6
    if size <= 2 * cap:
        if not _is_prime(q):
            raise ValueError(f"{q} is not prime")
        if q in (2, 3) or rho % q == 0:
            raise ValueError("need q coprime to 6*rho")
        size = sphere_count(q, rho % q)
    if size > cap:
        raise ValueError(
            f"the orbit may fill the norm sphere of about {size} vectors, "
            f"over the cap of {cap}; its int64 keys alone would take "
            f"{8 * size / 2 ** 20:.0f} MB"
        )


def group_generators(q, which="full"):
    """Generators of G2(F_q) (or of the parabolic P(F_q)) as numpy arrays:
    one-parameter elements for every root and every t in F_q^x, plus the
    coroot torus words h_alpha1(t), h_alpha2(t)."""
    if which == "full":
        params = ROOT_PARAMS
    elif which == "parabolic":
        params = PARABOLIC_PARAMS
    else:
        raise ValueError(f"unknown generator set {which!r}")
    gens = []
    for param in params:
        for t in range(1, q):
            gens.append(one_param_mod(param, t, q))
    for param in SIMPLE_PARAMS:
        for t in range(2, q):
            gens.append(coroot_mod(param, t, q))
    return gens


def _least_primitive_root(q):
    return next(
        g for g in range(2, q) if len({pow(g, k, q) for k in range(1, q)}) == q - 1
    )


def bfs_generators(q, which="full"):
    """The small generating sets every BFS uses; each matrix is also in
    group_generators(q, which).

    full: x_a(1), x_g(1), x_b(1), x_l(1), that is x_{+-alpha1}(1) and
    x_{+-alpha2}(1), which generate G2(F_q) (Steinberg, Lectures on
    Chevalley Groups).  parabolic: x_a(1), x_g(1), x_b(1) and the torus
    elements h_a(g), h_b(g), g the least primitive root mod q.
    """
    x = [one_param_mod(param, 1, q) for param in ("a", "g", "b")]
    if which == "full":
        return x + [one_param_mod("l", 1, q)]
    if which == "parabolic":
        g = _least_primitive_root(q)
        return x + [coroot_mod(param, g, q) for param in SIMPLE_PARAMS]
    raise ValueError(f"unknown generator set {which!r}")


def _j_matrix():
    return np.fliplr(np.eye(8, dtype=np.int64))


def _trilinear_dense():
    t = np.zeros((8, 8, 8), dtype=np.int64)
    for (i, j, k), c in TRILINEAR.items():
        t[i, j, k] = int(c)
    return t


def generator_invariants_hold(gens, q):
    """Every generator preserves J, the trilinear form, and v0."""
    g = np.stack(gens)
    j = _j_matrix()
    v0 = np.array([0, 0, 0, 1, -1, 0, 0, 0], dtype=np.int64) % q
    preserves_j = (g @ j % q @ g.transpose(0, 2, 1) % q == j).all()
    fixes_v0 = (g @ v0 % q == v0).all()
    # T(g x, g y, g z) for all generators at once, one index at a time
    t = _trilinear_dense()
    pulled = np.einsum("lmn,gli->gimn", t, g) % q
    pulled = np.einsum("gimn,gmj->gijn", pulled, g) % q
    pulled = np.einsum("gijn,gnk->gijk", pulled, g) % q
    return bool(preserves_j and fixes_v0 and (pulled == t % q).all())


def _decode(keys, p):
    """Vectors (int64 rows) of base-p keys, v0 the most significant digit."""
    out = np.empty((len(keys), 8), dtype=np.int64)
    for i in range(7, -1, -1):
        keys, out[:, i] = np.divmod(keys, p)
    return out


def _unique_sorted(keys):
    """Sorted distinct values.  np.unique took 70 times as long as np.sort
    on 4M int64 keys (numpy 2.4)."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def orbit(start, gens, p, cap=ORBIT_CAP):
    """Closure of {start} under left multiplication by gens, as an array
    of vectors (lexicographically sorted, hence order-independent).

    The visited set is a sorted array of int64 keys (so p^8 < 2^63), and
    memory grows with the orbit; more than `cap` vectors raise RuntimeError.
    """
    pows = p ** np.arange(7, -1, -1, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64).reshape(1, 8) % p
    seen = start @ pows
    frontier = start
    while len(frontier):
        parts = []
        for g in gens:
            keys = _unique_sorted(frontier @ g.T % p @ pows)
            pos = np.searchsorted(seen, keys).clip(max=len(seen) - 1)
            parts.append(keys[seen[pos] != keys])
        fresh = _unique_sorted(np.concatenate(parts))
        if len(seen) + len(fresh) > cap:
            raise RuntimeError(f"orbit exceeded cap {cap}")
        seen = np.insert(seen, np.searchsorted(seen, fresh), fresh)
        frontier = _decode(fresh, p)
    return _decode(seen, p)


def _norms(vectors, p):
    """<v, v> = sum v_i v_{7-i} mod p."""
    return (vectors * vectors[:, ::-1]).sum(axis=1) % p


def sphere_count(q, rho):
    """Number of v in V0 with <v, v> = 2*rho over F_q, by direct counting
    of the quadratic form v0*v7 + v1*v6 + v2*v5 + v3^2 = rho."""
    pair_counts = np.zeros(q, dtype=np.int64)
    for u in range(q):
        for w in range(q):
            pair_counts[(u * w) % q] += 1
    conv2 = np.zeros(q, dtype=np.int64)
    for s in range(q):
        for t in range(q):
            conv2[(s + t) % q] += pair_counts[s] * pair_counts[t]
    conv3 = np.zeros(q, dtype=np.int64)
    for s in range(q):
        for t in range(q):
            conv3[(s + t) % q] += conv2[s] * pair_counts[t]
    total = 0
    for v3 in range(q):
        total += conv3[(rho - v3 * v3) % q]
    return int(total)


def is_square_mod(rho, q):
    return pow(rho % q, (q - 1) // 2, q) == 1


def double_coset_check(q, rho, cap=ORBIT_CAP):
    """Desk-scale analogue of the two-element double-coset statement:
    the G2(F_q)-orbit of v_rho meets exactly two P(F_q)-orbits, separated
    by vanishing of the last two coordinates."""
    _validate(q, rho, cap)
    square = is_square_mod(rho, q)
    report = VerificationReport(
        "orbits",
        {"q": q, "rho": rho, "rho_class": "square" if square else "non-square"},
    )
    report.info(
        "scope",
        "finite-field analogue over F_q of the double-coset statement, "
        "not a proof of the number-field case",
    )

    full = group_generators(q, "full")
    parabolic = group_generators(q, "parabolic")
    report.check(
        "generators-preserve-J-T-v0",
        generator_invariants_hold(full, q),
        f"{len(full)} generators fix v0 and preserve both forms",
    )

    # Every BFS runs on the small sets of bfs_generators, which are drawn
    # from the lists checked here and below, so they generate subgroups
    # H <= G2(F_q) and H_P <= P(F_q).  The H-orbit lies in the G-orbit,
    # which lies in the norm sphere; orbit-equals-sphere then forces all
    # three to be equal.  Each H_P-orbit equals its part of the partition,
    # and the predicate is P-stable (checked on all of P's generators), so
    # the P-orbit equals the part too.  A set that generates too little
    # can thus make a check FAIL, never PASS falsely.
    gens = bfs_generators(q, "full")
    parabolic_gens = bfs_generators(q, "parabolic")

    v_rho = np.array([0, 0, 1, 0, 0, rho % q, 0, 0], dtype=np.int64)
    orb = orbit(v_rho, gens, q, cap)
    size = len(orb)

    norms = _norms(orb, q)
    in_v0 = (orb[:, 3] == orb[:, 4]).all()
    on_sphere = (norms == (2 * rho) % q).all()
    report.check(
        "orbit-inside-norm-sphere",
        bool(in_v0 and on_sphere),
        "every orbit element lies in V0 and has norm 2*rho",
    )

    sphere = sphere_count(q, rho % q)
    report.check(
        "orbit-equals-sphere",
        size == sphere,
        f"orbit size {size} equals the directly counted sphere size {sphere}",
    )
    expected = q ** 3 * (q ** 3 + (1 if square else -1))
    report.check(
        "orbit-size-closed-form",
        size == expected,
        f"size {size} = q^3(q^3{'+' if square else '-'}1) = {expected}",
    )

    v3_zero = (orb[:, 6] == 0) & (orb[:, 7] == 0)
    part0 = orb[v3_zero]
    part1 = orb[~v3_zero]
    report.info(
        "partition-sizes",
        f"v3 = 0 part: {len(part0)}; v3 != 0 part: {len(part1)}",
    )

    # P is block upper triangular, so rows 7, 8 of each parabolic
    # generator only see columns 7, 8 and the predicate is P-stable
    stable = all((g[6:, :6] == 0).all() for g in parabolic)
    report.check(
        "v3-predicate-is-P-stable",
        stable,
        "parabolic generators have zero lower-left block",
    )

    orbit0 = orbit(v_rho, parabolic_gens, q, cap)
    # part1 is empty only when the BFS missed the sphere; then FAIL, not crash
    orbit1 = orbit(part1[0], parabolic_gens, q, cap) if len(part1) else part1
    two_orbits = (
        len(part1) > 0
        and np.array_equal(orbit0, part0)
        and np.array_equal(orbit1, part1)
    )
    report.check(
        "exactly-two-parabolic-orbits",
        bool(two_orbits),
        "each part of the v3 partition is a single P(F_q)-orbit",
        counterexample=None
        if two_orbits
        else f"P-orbit sizes {len(orbit0)}, {len(orbit1)} vs parts "
        f"{len(part0)}, {len(part1)}",
    )

    # each is nearly the whole orbit (about 300 MB at q=13)
    del part1, orbit1
    reversed_orb = orbit(v_rho, gens[::-1], q, cap)
    report.check(
        "orbit-is-order-independent",
        np.array_equal(reversed_orb, orb),
        "reversed generator discipline yields the identical set",
    )
    return report


def companion_rho(q, rho):
    """Smallest unit of the opposite quadratic class mod q."""
    target = not is_square_mod(rho, q)
    for candidate in range(2, q):
        if is_square_mod(candidate, q) == target:
            return candidate
    raise ValueError("no companion found")


def verify_orbits(q, rho, cap=ORBIT_CAP):
    """Run the double-coset analogue for the requested rho and for a
    companion of the opposite quadratic class."""
    first = double_coset_check(q, rho, cap)
    other = double_coset_check(q, companion_rho(q, rho), cap)
    labeled = [
        (f"rho={r.parameters['rho']}-{r.parameters['rho_class']}", r)
        for r in (first, other)
    ]
    return merge_reports("orbits", {"q": q, "rho": rho}, labeled)
