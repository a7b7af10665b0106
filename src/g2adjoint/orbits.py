"""Finite-field evidence for the double-coset combinatorics.

The G2(F_q)-orbit O of v_rho is derived, not enumerated.  Breadth-first
closure under a two-element set (x_{alpha1}(1) and x_{-alpha1}(1)
x_{alpha2}(1), a product of commuting root elements) enumerates orbits
of the subgroup H_P of the parabolic P(F_q) it generates: that of v_rho
and that of x_j(1) v_rho.  Both lie in O, and O lies in the norm-2*rho
sphere S in V0, whose size is counted independently.  So when each
H_P-orbit lies on S and on its own side of the v3-block predicate, and
their sizes sum to |S|, they are the two parts of S and O = S: the
statement splits O into exactly two parabolic orbits.  This is a
desk-scale analogue over F_q of the corresponding statement over a number
field, and the report labels it as such.

Every orbit lies in V0 = v0^perp = {v3 = v4}, so a vector is indexed by
its key, the base-p digits of (v0, v1, v2, v3, v5, v6, v7) with v0 most
significant; key order is the lexicographic order of the vectors.  A BFS
holds uint32 keys only (23^7 < 2^32): the image of a key under a
generator is the sum of two integer table lookups, one indexed by a
leading run of its digits and one by a trailing run.  It marks its orbit
in a bit map of p^7 bits, so the closure is a set (hence
order-independent).  The checks test each block of keys as the BFS
expands it: the side of the predicate is key % p^2, and norms are read
off the digits.

What depends on q alone (the generator lists and their verdicts, the
H_P generating set and its step tables) is a FieldSetup, which
verify_orbits builds once and hands to the check of both quadratic
classes; nothing is cached between calls.  Each class runs three BFS:
one over the v3 != 0 part (q^4(q^2 - 1) keys) and two over the v3 = 0
part (q^3(q +- 1) keys), the second in reversed generator order.
fields.ORBIT_CAP bounds the bytes of one map and of all the step tables
a FieldSetup holds, together; a q whose map alone is over it is refused
before any BFS.

The BFS makes no BLAS call.  The CLI loads numpy with one OpenBLAS thread
when the orbit suite runs; importing this module as a library leaves the
host's BLAS settings alone.
"""

from __future__ import annotations

import numpy as np

from . import fields
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

# vectors per BFS block, and bytes per chunk where a map is counted or read
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


def group_generators(q, which="full"):
    """Generators of G2(F_q) (or of the parabolic P(F_q)) as numpy arrays:
    one-parameter elements for every root and every t in F_q^x, plus the
    coroot torus words h_alpha1(t), h_alpha2(t)."""
    if which not in ("full", "parabolic"):
        raise ValueError(f"unknown generator set {which!r}")
    gens = [one_param_mod(param, t, q) for param in ROOT_PARAMS for t in range(1, q)]
    gens += [coroot_mod(param, t, q) for param in SIMPLE_PARAMS for t in range(2, q)]
    return gens if which == "full" else _parabolic(gens, q)


def _parabolic(full, q):
    """The generators of P(F_q) picked out of group_generators(q, "full"):
    the elements of the roots in PARABOLIC_PARAMS, and the coroot words."""
    of_p = [param in PARABOLIC_PARAMS for param in ROOT_PARAMS for _ in range(1, q)]
    return [g for i, g in enumerate(full) if i >= len(of_p) or of_p[i]]


def bfs_generators(q):
    """The two-element set every BFS uses, generating a subgroup H_P of
    P(F_q): x_a(1) = x_{alpha1}(1) and x_g(1) x_b(1), with no torus
    element; each matrix is a product mod q of elements of
    group_generators(q, "parabolic").

    alpha1 - alpha2 is not a root, so x_{-alpha1} = x_g commutes with
    x_{alpha2} = x_b (Steinberg, Lectures on Chevalley Groups, §3) and
    their product is exp(E_g + E_b).  That H_P generates enough is
    measured by double_coset_check, not proved: a set that generates too
    little makes it FAIL, never PASS.
    """
    a, g, b = (one_param_mod(param, 1, q) for param in ("a", "g", "b"))
    return [a, g @ b % q]


def _trilinear_dense():
    t = np.zeros((8, 8, 8), dtype=np.int64)
    for (i, j, k), c in TRILINEAR.items():
        t[i, j, k] = int(c)
    return t


def _pull_back(g, t, q):
    """T(g x, g y, g z) mod q for a stack g of generators and the dense
    trilinear tensor t, as an array [generator, i, j, k]: three batched
    matmuls, one index at a time."""
    gt = g.transpose(0, 2, 1)
    pulled = gt @ t.reshape(8, 64) % q
    pulled = gt[:, None] @ pulled.reshape(-1, 8, 8, 8) % q
    return pulled @ g[:, None] % q


def generator_invariants_hold(gens, q):
    """Every generator preserves J, the trilinear form, and v0, tested on
    one stack of all of them (empty for no generator): the largest temporary,
    8x8x8 int64 per generator, is about 1.25 MB for the 306 at q=23."""
    g = np.array(gens, dtype=np.int64).reshape(-1, 8, 8)
    j = np.array(J8.entries, dtype=np.int64)
    v0 = np.array(V0_VECTOR, dtype=np.int64) % q
    t = _trilinear_dense() % q
    return bool(
        (g @ j % q @ g.transpose(0, 2, 1) % q == j).all()
        and (g @ v0 % q == v0).all()
        and (_pull_back(g, t, q) == t).all()
    )


# The coordinates that index V0 = {v3 = v4}, in key order; v4 is read as v3
_V0 = [0, 1, 2, 3, 5, 6, 7]


def _on_v0(g, p):
    """(g on V0 as a 7x7 matrix over the coordinates _V0, whether g maps
    V0 into V0, that is whether rows v3 and v4 of g agree on V0)."""
    cols = g[:, _V0] % p
    cols[:, 3] = (g[:, 3] + g[:, 4]) % p
    return cols[_V0], bool((cols[3] == cols[4]).all())


class OrbitMap:
    """An orbit in V0 as a bit map: bit key % 8 of byte `seen[key // 8]`
    is set for the keys of its vectors, and len() is its size."""

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
    v whose digits `cols` spell w in base p (first most significant), as
    uint32.  Only `cols` may be nonzero in those rows of m.  Each row's
    digit sum is broadcast over just the digits it reads, so a row costs
    one pass over the table."""
    pows = p ** np.arange(6, -1, -1, dtype=np.uint32)
    axes = np.ix_(*[np.arange(p, dtype=np.uint32)] * len(cols))
    table = np.zeros((p,) * len(cols), dtype=np.uint32)
    for i in rows:
        acc = sum(int(c) * axis for c, axis in zip(m[i, cols], axes) if c)
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
    tables and one orbit map of p^7 bits take more than ORBIT_CAP bytes
    in all."""
    splits = []
    for g in gens:
        m, into_v0 = _on_v0(g, p)
        if not into_v0:
            raise ValueError("a generator does not map V0 into V0")
        splits.append((m, _split(m, p)))
    map_bytes = -(-p ** 7 // 8)
    table_bytes = 4 * sum(p ** pre + p ** suf for _, (_, pre, suf) in splits)
    if map_bytes + table_bytes > fields.ORBIT_CAP:
        raise RuntimeError(f"an orbit map of {map_bytes} bytes and step tables "
                           f"of {table_bytes} bytes exceed cap {fields.ORBIT_CAP}")
    return [
        (
            p ** (7 - pre),
            _table(m, range(rows), range(pre), p),
            p ** suf,
            _table(m, range(rows, 7), range(7 - suf, 7), p),
        )
        for m, (rows, pre, suf) in splits
    ]


def orbit(start, gens, p, steps=None, visit=None):
    """Closure of {start} under left multiplication by gens, as an
    OrbitMap over the p^7 keys of V0 (one bit each).

    start must lie in V0 and every generator map V0 into V0 (ValueError
    otherwise).  The frontier holds uint32 keys only, and a generator step
    is two integer table lookups, hi[key // d] + lo[key % n] (_steps);
    membership is one lookup of each image's byte and marking one
    np.bitwise_or.at, before anything is appended.  `steps`, if given, is
    _steps(gens, p), one entry per generator; otherwise it is built here
    (RuntimeError if it and the map exceed ORBIT_CAP).  `visit`, if given,
    is called on each block of keys the BFS expands; each key, the start
    included, is in one block (in more only if a generator is not
    injective).  The size is the count of set bits, so it cannot be
    inflated, and the map is a set, the same for any generator order.
    """
    start = np.asarray(start, dtype=np.int64) % p
    if start[3] != start[4]:
        raise ValueError("start vector is not in V0")
    if steps is None:
        steps = _steps(gens, p)
    elif len(steps) != len(gens):
        raise ValueError(f"{len(steps)} step tables for {len(gens)} generators")
    key = int(start[_V0] @ p ** np.arange(6, -1, -1))
    seen = np.zeros(-(-p ** 7 // 8), dtype=np.uint8)
    seen[key >> 3] = 1 << (key & 7)
    frontier = [np.array([key], dtype=np.uint32)]
    while frontier:
        parts = []
        for keys in _blocks(frontier):
            if visit is not None:
                visit(keys)
            for d, hi, n, lo in steps:
                # keys - keys // n * n is keys % n, and take() and compress()
                # are a fancy and a boolean index, each at under half the
                # cost of numpy's own form; bitwise_or.at is fast on intp
                images = hi.take(keys // d)
                images += lo.take(keys - keys // n * n)
                byte = (images >> 3).astype(np.intp)
                bit = np.left_shift(1, images & 7, dtype=np.uint8)
                fresh = seen.take(byte) & bit == 0
                if fresh.any():
                    np.bitwise_or.at(seen, byte.compress(fresh), bit.compress(fresh))
                    parts.append(images.compress(fresh))
        frontier = parts
    chunks = range(0, len(seen), _CHUNK)
    size = sum(int(np.bitwise_count(seen[i:i + _CHUNK]).sum()) for i in chunks)
    return OrbitMap(seen, size)


def _same_map(a, b):
    """np.array_equal of two maps, a chunk at a time, so that no
    map-sized temporary is made."""
    return all(
        np.array_equal(a[lo:lo + _CHUNK], b[lo:lo + _CHUNK])
        for lo in range(0, len(a), _CHUNK)
    )


def _key_norms(keys, p):
    """<v, v> = sum v_i v_{7-i} = 2(v0 v7 + v1 v6 + v2 v5 + v3^2) mod p
    of the V0 vectors of an array of keys, read off their digits.

    The digits are split off in uint32 by divisions, which cannot wrap;
    every key below p^7 must fit in uint32 (ValueError otherwise)."""
    if p ** 7 > 2 ** 32:
        raise ValueError(f"keys below {p}^7 do not fit in uint32")
    rest = np.asarray(keys, dtype=np.uint32)
    digits = []
    for _ in range(6):
        high = rest // p
        digits.append(rest - high * p)
        rest = high
    v7, v6, v5, v3, v2, v1 = digits
    norm = 2 * (rest * v7 + v1 * v6 + v2 * v5 + v3 * v3)
    # norm - norm // p * p is norm % p at under half its cost
    return norm - norm // p * p


def sphere_count(q, rho):
    """Number of v in V0 with <v, v> = 2*rho over F_q, by direct counting
    of the quadratic form v0*v7 + v1*v6 + v2*v5 + v3^2 = rho."""
    u = np.arange(q)
    # pairs[s] counts the u w = s, and conv @ c convolves c with pairs
    # cyclically, so conv @ conv @ pairs counts v0 v7 + v1 v6 + v2 v5 = s
    pairs = np.bincount(np.outer(u, u).ravel() % q, minlength=q)
    conv = pairs[np.subtract.outer(u, u) % q]
    return int((conv @ conv @ pairs)[(rho - u * u) % q].sum())


def is_square_mod(rho, q):
    return pow(rho % q, (q - 1) // 2, q) == 1


class FieldSetup:
    """What double_coset_check needs of F_q alone, for both quadratic
    classes: the verdicts on the generator lists, the H_P generating set
    and the step tables of its generators.

    Every BFS runs on the two-element set of bfs_generators, products of
    elements of the lists checked here, so it generates a subgroup H_P of
    P(F_q) <= G2(F_q).  The check starts one BFS at v_rho and one at
    x_j(1) v_rho, and x_j(1) is a checked generator, so both H_P-orbits lie
    in O = G2(F_q) v_rho.  Every checked generator fixes v0 and preserves
    J, so O lies in the norm-2*rho sphere S of V0.  The predicate (the key
    is 0 mod q^2) splits S into two parts.  If each H_P-orbit lies on S
    and on its own side, and their sizes sum to |S|, then each is its whole
    part and O = S; the predicate is P-stable (checked on all of P's
    generators), so each P-orbit equals its part too.  Every verdict
    derived this way requires all three tests, so a set that generates
    too little can make a check FAIL, never PASS falsely.

    The BFS runs over the keys of V0 = v0^perp = {v3 = v4}: a generator
    that fixes v0 and preserves J preserves v0^perp, and v_rho lies in
    it.  Each BFS generator is also tested on V0 directly; one that
    leaves V0 is left out of every BFS and makes orbit-inside-norm-sphere
    FAIL.  ORBIT_CAP bounds the step tables and one map together.
    """

    def __init__(self, q):
        self.q = q
        full = group_generators(q, "full")
        self.full_count = len(full)
        self.invariants_hold = generator_invariants_hold(full, q)
        # P is block upper triangular (PARABOLIC_BLOCKS), so rows 7, 8 of
        # each parabolic generator only see columns 7, 8 and the predicate
        # is P-stable
        below = np.subtract.outer(PARABOLIC_BLOCKS, PARABOLIC_BLOCKS) > 0
        self.p_stable = not np.stack(_parabolic(full, q))[:, below].any()

        bfs = bfs_generators(q)
        self.parabolic_gens = [g for g in bfs if _on_v0(g, q)[1]]
        self.leaving = len(bfs) - len(self.parabolic_gens)
        self.parabolic_steps = _steps(self.parabolic_gens, q)


def double_coset_check(q, rho, setup=None):
    """Desk-scale analogue of the two-element double-coset statement:
    the G2(F_q)-orbit of v_rho meets exactly two P(F_q)-orbits, separated
    by vanishing of the last two coordinates.  The G2-orbit is derived
    from the two H_P-orbits (see FieldSetup), not enumerated.  `setup` is
    a FieldSetup of the same q, built here if not given."""
    fields.validate(q, rho)
    if setup is None:
        setup = FieldSetup(q)
    elif setup.q != q:
        raise ValueError(f"a FieldSetup of q = {setup.q} for q = {q}")
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
    report.check(
        "generators-preserve-J-T-v0",
        setup.invariants_hold,
        f"{setup.full_count} generators fix v0 and preserve both forms",
    )

    gens, steps, leaving = setup.parabolic_gens, setup.parabolic_steps, setup.leaving
    two_rho = 2 * rho % q

    def survey(start, zero_part):
        """(the size of the H_P map of start, whether every key is on the
        zero_part side of the predicate, whether every key has norm 2*rho,
        the map), each key tested in its block as the BFS expands it."""
        holds = [True, True]

        def visit(keys):
            # key % q^2 == 0, as keys // q^2 * q^2 == keys
            holds[0] &= bool(((keys // (q * q) * (q * q) == keys) == zero_part).all())
            holds[1] &= bool((_key_norms(keys, q) == two_rho).all())

        orb = orbit(start, gens, q, steps=steps, visit=visit)
        return len(orb), *holds, orb.seen

    # the part-0 map stays for the comparison with its reversed-order BFS
    v_rho = np.array([0, 0, 1, 0, 0, rho % q, 0, 0], dtype=np.int64)
    size0, side0, norm0, seen0 = survey(v_rho, True)
    order_independent = _same_map(
        orbit(v_rho, gens[::-1], q, steps=steps[::-1]).seen, seen0
    )
    del seen0
    # part 1 starts at x_j(1) v_rho = (0, 0, 1, 0, 0, rho, 0, -1), a point
    # of O with v7 != 0
    w1 = one_param_mod("j", 1, q) @ v_rho % q
    size1, side1, norm1, _ = survey(w1, False)

    size = size0 + size1
    sphere = sphere_count(q, rho % q)
    covered = bool(
        setup.invariants_hold
        and side0 and side1 and norm0 and norm1 and size == sphere
    )
    why = None if covered else (
        f"H_P-orbit sizes {size0} + {size1} vs sphere {sphere}; "
        f"each on its side: {side0 and side1}; "
        f"on the sphere: {norm0 and norm1}"
    )
    report.check(
        "orbit-inside-norm-sphere",
        covered and not leaving,
        "every orbit element lies in V0 and has norm 2*rho",
        counterexample=f"{leaving} BFS generators leave V0" if leaving else why,
    )
    report.check(
        "orbit-equals-sphere",
        covered,
        f"orbit size {size} equals the directly counted sphere size {sphere}",
        counterexample=why,
    )
    expected = q ** 3 * (q ** 3 + (1 if square else -1))
    report.check(
        "orbit-size-closed-form",
        covered and size == expected,
        f"size {size} = q^3(q^3{'+' if square else '-'}1) = {expected}",
        counterexample=why,
    )
    report.info(
        "partition-sizes",
        f"v3 = 0 part: {size0}; v3 != 0 part: {size1}",
    )
    report.check(
        "v3-predicate-is-P-stable",
        setup.p_stable,
        "parabolic generators have zero lower-left block",
    )
    report.check(
        "exactly-two-parabolic-orbits",
        covered,
        "each part of the v3 partition is a single P(F_q)-orbit",
        counterexample=why,
    )
    report.check(
        "orbit-is-order-independent",
        order_independent,
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
    companion of the opposite quadratic class, on one FieldSetup."""
    fields.validate(q, rho)
    setup = FieldSetup(q)
    first = double_coset_check(q, rho, setup=setup)
    other = double_coset_check(q, companion_rho(q, rho), setup=setup)
    labeled = [
        (f"rho={r.parameters['rho']}-{r.parameters['rho_class']}", r)
        for r in (first, other)
    ]
    return merge_reports("orbits", {"q": q, "rho": rho}, labeled)
