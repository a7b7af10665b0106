"""Finite-field evidence for the double-coset combinatorics.

Enumerates the G2(F_q)-orbit of v_rho by breadth-first closure under a
two-element generating set (x_{alpha1}(1) x_{-alpha2}(1) and
x_{-alpha1}(1) x_{alpha2}(1), products of commuting root elements),
checks it against the norm-2*rho sphere in V0 (counted independently),
and splits it into parabolic orbits separated by the v3-block predicate.  This is a
desk-scale analogue over F_q of the corresponding statement over a number
field, and the report labels it as such.

Every orbit lies in V0 = v0^perp = {v3 = v4}, so a vector is indexed by
its key, the base-p digits of (v0, v1, v2, v3, v5, v6, v7) with v0 most
significant; key order is the lexicographic order of the vectors.  A BFS
holds int64 keys only: the image of a key under a generator is the sum
of two integer table lookups, one indexed by a leading run of its digits
and one by a trailing run, with no float arithmetic and nothing decoded.
It marks its orbit in an occupancy map of p^7 bytes, one per key, so the
closure is a set (hence order-independent), and the partition and every
comparison of the check are read off maps without decoding the orbit;
norms are read off the digits of its keys.  ORBIT_CAP bounds the bytes
of one map, and of the tables of one BFS; a q whose map is over it is
refused before any BFS.
"""

from __future__ import annotations

import numpy as np

from .g2model import (
    J8,
    OPPOSITE_ROOT,
    PARABOLIC_BLOCKS,
    PARABOLIC_PARAMS,
    ROOT_EXP,
    ROOT_PARAMS,
    SIMPLE_PARAMS,
    TRILINEAR,
    V0_VECTOR,
)
from .report import VerificationReport, merge_reports

# bytes of one occupancy map, and of one BFS's step tables: q = 17 (a
# 391 MB map, 22 MB of tables) runs, q = 19 (an 852 MB map) does not
ORBIT_CAP = 2 ** 29
# vectors per BFS block, and keys per chunk where a map is read or compared
_BLOCK = 1 << 14
_CHUNK = 1 << 18


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


def _validate(q, rho):
    """Refuse a (q, rho) the orbit suite cannot run, before any BFS."""
    # every BFS allocates an occupancy map of q^7 bytes; bounding it first
    # refuses a huge q before it is tested for primality
    if q ** 7 > ORBIT_CAP:
        raise ValueError(
            f"the orbit map of V0 takes q^7 = {q ** 7} bytes "
            f"({q ** 7 / 2 ** 20:.0f} MB), over the cap of {ORBIT_CAP}"
        )
    if not _is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q in (2, 3) or rho % q == 0:
        raise ValueError("need q coprime to 6*rho")


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


def bfs_generators(q, which="full"):
    """The two-element generating sets every BFS uses; each matrix is a
    product mod q of elements of group_generators(q, which).

    alpha1 - alpha2 is not a root, so x_{alpha1} = x_a commutes with
    x_{-alpha2} = x_l and x_{-alpha1} = x_g with x_{alpha2} = x_b
    (Steinberg, Lectures on Chevalley Groups, §3), and each pair of the
    generators x_{+-alpha1}(1), x_{+-alpha2}(1) of G2(F_q) collapses
    into one element.  full: x_a(1) x_l(1) = exp(E_a + E_l) and
    x_g(1) x_b(1) = exp(E_g + E_b).  parabolic: x_a(1) and x_g(1) x_b(1),
    both in P(F_q), with no torus element.  That they generate enough is
    measured by double_coset_check, not proved: a set that generates too
    little makes it FAIL, never PASS.
    """
    a, g, b = (one_param_mod(param, 1, q) for param in ("a", "g", "b"))
    g_b = g @ b % q
    if which == "full":
        return [a @ one_param_mod("l", 1, q) % q, g_b]
    if which == "parabolic":
        return [a, g_b]
    raise ValueError(f"unknown generator set {which!r}")


def _trilinear_dense():
    t = np.zeros((8, 8, 8), dtype=np.int64)
    for (i, j, k), c in TRILINEAR.items():
        t[i, j, k] = int(c)
    return t


def generator_invariants_hold(gens, q):
    """Every generator preserves J, the trilinear form, and v0."""
    g = np.stack(gens)
    j = np.array(J8.entries, dtype=np.int64)
    v0 = np.array(V0_VECTOR, dtype=np.int64) % q
    preserves_j = (g @ j % q @ g.transpose(0, 2, 1) % q == j).all()
    fixes_v0 = (g @ v0 % q == v0).all()
    # T(g x, g y, g z) for all generators at once, one index at a time
    t = _trilinear_dense()
    pulled = np.einsum("lmn,gli->gimn", t, g) % q
    pulled = np.einsum("gimn,gmj->gijn", pulled, g) % q
    pulled = np.einsum("gijn,gnk->gijk", pulled, g) % q
    return bool(preserves_j and fixes_v0 and (pulled == t % q).all())


# The coordinates that index V0 = {v3 = v4}, in key order; v4 is read as v3
_V0 = [0, 1, 2, 3, 5, 6, 7]


def _on_v0(g, p):
    """(g on V0 as a 7x7 matrix over the coordinates _V0, whether g maps
    V0 into V0, that is whether rows v3 and v4 of g agree on V0)."""
    cols = g[:, _V0] % p
    cols[:, 3] = (g[:, 3] + g[:, 4]) % p
    return cols[_V0], bool((cols[3] == cols[4]).all())


class OrbitMap:
    """An orbit in V0 as an occupancy map: `seen[key]` holds for the keys
    of its vectors, and len() is its size."""

    __slots__ = ("seen", "size")

    def __init__(self, seen, size):
        self.seen, self.size = seen, size

    def __len__(self):
        return self.size


def _split(m, p):
    """The cheapest split of m's output digits into leading rows, which
    read a prefix of the input digits, and trailing rows, which read a
    suffix: (rows, prefix length, suffix length) with the fewest table
    entries, p^prefix + p^suffix."""
    reads = m != 0
    splits = []
    for rows in range(1, 7):
        lead = np.flatnonzero(reads[:rows].any(axis=0))
        trail = np.flatnonzero(reads[rows:].any(axis=0))
        prefix = int(lead[-1]) + 1 if len(lead) else 0
        suffix = 7 - int(trail[0]) if len(trail) else 0
        splits.append((rows, prefix, suffix))
    return min(splits, key=lambda split: p ** split[1] + p ** split[2])


def _table(m, rows, cols, p):
    """table[w] = the key part of the output digits `rows` of m v, for the
    v whose digits `cols` spell w in base p (first most significant).
    Only `cols` may be nonzero in those rows of m.  Each row's digit sum
    is broadcast over just the digits it reads, so a row costs one pass
    over the table."""
    pows = p ** np.arange(6, -1, -1, dtype=np.int64)
    axes = np.ix_(*[np.arange(p, dtype=np.int64)] * len(cols))
    table = np.zeros((p,) * len(cols), dtype=np.int64)
    for i in rows:
        acc = sum(c * axis for c, axis in zip(m[i, cols], axes) if c)
        table += acc % p * pows[i]
    return table.ravel()


def _blocks(parts):
    """Pop the key arrays off the list, joined into blocks of at most
    _BLOCK keys, so each part is freed once used."""
    parts.reverse()
    while parts:
        group = [parts.pop()]
        size = len(group[0])
        while parts and size + len(parts[-1]) <= _BLOCK:
            size += len(parts[-1])
            group.append(parts.pop())
        yield np.concatenate(group)


def _steps(gens, p):
    """(d, hi, n, lo) for each generator g, with key(g v) = hi[key // d]
    + lo[key % n] on V0: the leading output digits of g read only the
    first `pre` digits of a key and the trailing ones only the last `suf`
    (_split), so d = p^(7 - pre) and n = p^suf.  ValueError if g does not
    map V0 into V0; RuntimeError, before any table is built, if the
    tables take more than ORBIT_CAP bytes in all."""
    splits = []
    for g in gens:
        m, into_v0 = _on_v0(g, p)
        if not into_v0:
            raise ValueError("a generator does not map V0 into V0")
        splits.append((m, _split(m, p)))
    table_bytes = 8 * sum(p ** pre + p ** suf for _, (_, pre, suf) in splits)
    if table_bytes > ORBIT_CAP:
        raise RuntimeError(
            f"orbit step tables of {table_bytes} bytes exceed cap {ORBIT_CAP}"
        )
    return [
        (
            p ** (7 - pre),
            _table(m, range(rows), range(pre), p),
            p ** suf,
            _table(m, range(rows, 7), range(7 - suf, 7), p),
        )
        for m, (rows, pre, suf) in splits
    ]


def orbit(start, gens, p):
    """Closure of {start} under left multiplication by gens, as an
    OrbitMap over the p^7 keys of V0 (one byte each).

    start must lie in V0 and every generator map V0 into V0 (ValueError
    otherwise).  The frontier holds int64 keys only, and a generator step
    is two integer table lookups, hi[key // d] + lo[key % n] (_steps),
    with no float arithmetic; membership and marking are one fancy index
    each, before anything is appended.  A map of more than ORBIT_CAP
    bytes, or tables of more than ORBIT_CAP bytes in all, raise
    RuntimeError before either is allocated.  The size is the count of
    marked keys, so a generator that is not injective cannot inflate it,
    and the map is a set, hence the same for any order of the generators.
    """
    if p ** 7 > ORBIT_CAP:
        raise RuntimeError(f"orbit map of {p ** 7} bytes exceeds cap {ORBIT_CAP}")
    start = np.asarray(start, dtype=np.int64) % p
    if start[3] != start[4]:
        raise ValueError("start vector is not in V0")
    steps = _steps(gens, p)
    keys = np.array([start[_V0] @ p ** np.arange(6, -1, -1)])
    seen = np.zeros(p ** 7, dtype=bool)
    seen[keys] = True
    frontier = [keys]
    while frontier:
        parts = []
        for keys in _blocks(frontier):
            for d, hi, n, lo in steps:
                # keys - keys // n * n is keys % n and compress() a boolean
                # index, each at under half the cost of numpy's own form
                images = hi[keys // d]
                images += lo[keys - keys // n * n]
                images = images.compress(~seen[images])
                if len(images):
                    seen[images] = True
                    parts.append(images)
        frontier = parts
    return OrbitMap(seen, int(np.count_nonzero(seen)))


def _same_map(a, b):
    """np.array_equal of two maps, a chunk at a time, so that no
    map-sized temporary is made."""
    return all(
        np.array_equal(a[lo:lo + _CHUNK], b[lo:lo + _CHUNK])
        for lo in range(0, len(a), _CHUNK)
    )


def _key_norms(keys, p):
    """<v, v> = sum v_i v_{7-i} = 2(v0 v7 + v1 v6 + v2 v5 + v3^2) mod p
    of the V0 vectors of an array of keys, read off their digits."""
    v0, v1, v2, v3, v5, v6, v7 = np.unravel_index(keys, (p,) * 7)
    return 2 * (v0 * v7 + v1 * v6 + v2 * v5 + v3 * v3) % p


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


def double_coset_check(q, rho):
    """Desk-scale analogue of the two-element double-coset statement:
    the G2(F_q)-orbit of v_rho meets exactly two P(F_q)-orbits, separated
    by vanishing of the last two coordinates."""
    _validate(q, rho)
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

    # Every BFS runs on the two-element sets of bfs_generators, which are
    # products of elements of the lists checked here and below: x_a(1),
    # x_a(1) x_l(1) and x_g(1) x_b(1).  (Each pair commutes, since alpha1
    # - alpha2 is not a root, so the products are exp(E_a + E_l) and
    # exp(E_g + E_b); soundness needs only that they are products.)  So
    # they generate subgroups H <= G2(F_q) and H_P <= P(F_q).  The H-orbit
    # lies in the G-orbit, which lies in the norm sphere;
    # orbit-equals-sphere then forces all three to be equal.  Each
    # H_P-orbit equals its part of the partition, and the predicate is
    # P-stable (checked on all of P's generators), so the P-orbit equals
    # the part too.  A set that generates too little can thus make a
    # check FAIL, never PASS falsely.
    #
    # The BFS runs over the keys of V0 = v0^perp = {v3 = v4}: a generator
    # that fixes v0 and preserves J preserves v0^perp, and v_rho lies in
    # it.  Each BFS generator is also tested on V0 directly; one that
    # leaves V0 is left out of every BFS and makes
    # orbit-inside-norm-sphere FAIL.
    sets = [bfs_generators(q, which) for which in ("full", "parabolic")]
    gens, parabolic_gens = ([g for g in s if _on_v0(g, q)[1]] for s in sets)
    leaving = sum(map(len, sets)) - len(gens) - len(parabolic_gens)

    v_rho = np.array([0, 0, 1, 0, 0, rho % q, 0, 0], dtype=np.int64)
    orb = orbit(v_rho, gens, q)
    size = len(orb)

    two_rho = 2 * rho % q
    on_sphere = all(
        (_key_norms(np.flatnonzero(orb.seen[lo:lo + _CHUNK]) + lo, q) == two_rho).all()
        for lo in range(0, len(orb.seen), _CHUNK)
    )
    report.check(
        "orbit-inside-norm-sphere",
        bool(on_sphere and not leaving),
        "every orbit element lies in V0 and has norm 2*rho",
        counterexample=f"{leaving} BFS generators leave V0" if leaving else None,
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

    # key % q^2 is the digits (v6, v7), so column 0 is the v3 = 0 part
    cols = orb.seen.reshape(-1, q * q)
    part0 = int(np.count_nonzero(cols[:, 0]))
    part1 = size - part0
    report.info(
        "partition-sizes",
        f"v3 = 0 part: {part0}; v3 != 0 part: {part1}",
    )

    # P is block upper triangular (PARABOLIC_BLOCKS), so rows 7, 8 of each
    # parabolic generator only see columns 7, 8 and the predicate is P-stable
    below = np.subtract.outer(PARABOLIC_BLOCKS, PARABOLIC_BLOCKS) > 0
    stable = not np.stack(parabolic)[:, below].any()
    report.check(
        "v3-predicate-is-P-stable",
        stable,
        "parabolic generators have zero lower-left block",
    )

    def parabolic_orbit_is_part(start, zero_part):
        """(size, equality with its part) of the H_P-orbit of start.  Its
        map is dropped on return, so at most two maps are ever live."""
        sub = orbit(start, parabolic_gens, q)
        sub_cols = sub.seen.reshape(-1, q * q)
        outside = slice(1, None) if zero_part else 0
        if sub_cols[:, outside].any():
            return len(sub), False
        # with the other part filled in from the G-map, the maps agree
        # exactly when the H_P-orbit equals its part
        sub_cols[:, outside] = cols[:, outside]
        return len(sub), _same_map(sub.seen, orb.seen)

    size0, equal0 = parabolic_orbit_is_part(v_rho, True)
    # part1 starts at x_j(1) v_rho = (0, 0, 1, 0, 0, rho, 0, -1), a point
    # of the sphere with v7 != 0; if the G2 BFS missed it, the map
    # comparison FAILs
    w1 = one_param_mod("j", 1, q) @ v_rho % q
    size1, equal1 = parabolic_orbit_is_part(w1, False)
    two_orbits = equal0 and equal1
    report.check(
        "exactly-two-parabolic-orbits",
        bool(two_orbits),
        "each part of the v3 partition is a single P(F_q)-orbit",
        counterexample=None
        if two_orbits
        else f"P-orbit sizes {size0}, {size1} vs parts {part0}, {part1}",
    )

    reversed_orb = orbit(v_rho, gens[::-1], q)
    report.check(
        "orbit-is-order-independent",
        _same_map(reversed_orb.seen, orb.seen),
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


def verify_orbits(q, rho):
    """Run the double-coset analogue for the requested rho and for a
    companion of the opposite quadratic class."""
    first = double_coset_check(q, rho)
    other = double_coset_check(q, companion_rho(q, rho))
    labeled = [
        (f"rho={r.parameters['rho']}-{r.parameters['rho_class']}", r)
        for r in (first, other)
    ]
    return merge_reports("orbits", {"q": q, "rho": rho}, labeled)
