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
in a bit map of p^7 bits by adding the bits of each step's fresh images
with np.add.at, and certifies that this marked a set (hence
order-independent): addition that meets a set bit carries, so the map's
count of set bits equals the keys appended only if every step marked
distinct unset bits, and the BFS raises RuntimeError otherwise.  The checks
test each block of keys as the BFS expands it: the side of the predicate
is key % p^2, and the norm is one uint64 product of two table lookups
(Kronecker substitution, _norm_tables).

What depends on q alone (the generator lists and their verdicts, the
H_P generating set, its step tables and the norm tables) is a
FieldSetup, which verify_orbits builds once and hands to the check of
both quadratic classes; nothing is cached between calls.  Each class
runs three BFS: one over the v3 != 0 part (q^4(q^2 - 1) keys) and two
over the v3 = 0 part (q^3(q +- 1) keys), the second in reversed
generator order.  fields.ORBIT_CAP bounds the bytes of one map and of
all the tables a FieldSetup holds, together; a q whose map alone is over
it is refused before any BFS.

The BFS makes no BLAS call.  The CLI loads numpy with one OpenBLAS thread
when the orbit suite runs; importing this module as a library leaves the
host's BLAS settings alone.
"""

from __future__ import annotations

import itertools

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


# g2model's integer E and E^2/2 of every root, stacked in ROOT_PARAMS order
_ROOT_E, _ROOT_HALF_E2 = (
    np.array([ROOT_EXP[param][half].entries for param in ROOT_PARAMS], dtype=np.int64)
    for half in (0, 1)
)


def _exp_mod(params, t, p):
    """exp(t E_root) = I + t E + t^2 E^2/2 mod p for every root of `params`
    and every t of the 1-d array `t`, as an int64 array [root, t, 8, 8]."""
    rows = [ROOT_PARAMS.index(param) for param in params]
    t = (np.asarray(t, dtype=np.int64) % p)[:, None, None]
    return (np.eye(8, dtype=np.int64) + t * _ROOT_E[rows, None]
            + t * t * _ROOT_HALF_E2[rows, None]) % p


def one_param_mod(param, t, p):
    """exp(t E_root) reduced mod p, as an 8x8 numpy array."""
    return _exp_mod([param], [int(t)], p)[0, 0]


def _n_mod(params, t, p):
    """n_root(t) = x_root(t) x_{-root}(-1/t) x_root(t) mod p for every root
    of `params` and every unit of the 1-d array `t`, as [root, t, 8, 8]."""
    t = np.asarray(t, dtype=np.int64) % p
    t_inv = np.array([pow(int(u), -1, p) for u in t], dtype=np.int64)
    x = _exp_mod(params, t, p)
    return x @ _exp_mod([OPPOSITE_ROOT[param] for param in params], -t_inv, p) % p @ x % p


def group_generators(q, which="full"):
    """Generators of G2(F_q) (or of the parabolic P(F_q)) as numpy arrays:
    one-parameter elements for every root and every t in F_q^x, plus the
    coroot torus words h_alpha1(t), h_alpha2(t), each family built as one
    stack."""
    if which not in ("full", "parabolic"):
        raise ValueError(f"unknown generator set {which!r}")
    gens = list(_exp_mod(ROOT_PARAMS, np.arange(1, q), q).reshape(-1, 8, 8))
    # the last t of 2, ..., q - 1 is -1, so n[:, -1:] is n_root(-1)
    n = _n_mod(SIMPLE_PARAMS, np.arange(2, q), q)
    gens += list((n @ n[:, -1:] % q).reshape(-1, 8, 8))
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
    a, g, b = _exp_mod(("a", "g", "b"), [1], q)[:, 0]
    return [a, g @ b % q]


# T is alternating (TRILINEAR holds every permutation of each of its wedges
# l < m < n, with the permutation's sign), and so is its pull-back by any
# matrix: both are fixed by their values at the 56 triples i < j < k
_WEDGES = sorted((key, c) for key, c in TRILINEAR.items() if key[0] < key[1] < key[2])
_WEDGE_ROWS = np.array([key for key, _ in _WEDGES])
_WEDGE_COEFFS = np.array([int(c) for _, c in _WEDGES], dtype=np.int64)
_TRIPLES = np.array(list(itertools.combinations(range(8), 3))).T
_T_AT_TRIPLES = np.array(
    [int(TRILINEAR.get(key, 0)) for key in itertools.combinations(range(8), 3)]
)


def _pulled_back_triples(g, q):
    """T(g e_i, g e_j, g e_k) mod q at the triples i < j < k, for a stack g
    of generators, as an array [generator, triple]: the sum over T's wedges
    l < m < n of c_lmn times the 3x3 minor of g's rows l, m, n at columns
    i, j, k, each minor expanded along row l."""
    rows = g[:, _WEDGE_ROWS]
    first, second, third = rows[:, :, 0], rows[:, :, 1], rows[:, :, 2]
    # pairs[..., a, b] is the 2x2 minor of rows m, n at columns a, b
    pairs = second[..., :, None] * third[..., None, :]
    pairs = pairs - pairs.swapaxes(-1, -2)
    i, j, k = _TRIPLES
    minors = (first[..., i] * pairs[..., j, k] - first[..., j] * pairs[..., i, k]
              + first[..., k] * pairs[..., i, j])
    return (minors * _WEDGE_COEFFS[:, None]).sum(axis=1) % q


def generator_invariants_hold(gens, q):
    """Every generator preserves J, the trilinear form, and v0, tested on
    one stack of all of them (empty for no generator); T is compared at the
    56 triples i < j < k, which fix both alternating forms."""
    g = np.array(gens, dtype=np.int64).reshape(-1, 8, 8)
    j = np.array(J8.entries, dtype=np.int64)
    v0 = np.array(V0_VECTOR, dtype=np.int64) % q
    return bool(
        (g @ j % q @ g.transpose(0, 2, 1) % q == j).all()
        and (g @ v0 % q == v0).all()
        and (_pulled_back_triples(g, q) == _T_AT_TRIPLES % q).all()
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


def _steps(gens, p, reserved=0):
    """(d, hi, n, lo) for each generator g, with key(g v) = hi[key // d]
    + lo[key % n] on V0: the leading output digits of g read only the
    first `pre` digits of a key and the trailing ones only the last `suf`
    (_split), so d = p^(7 - pre) and n = p^suf.  ValueError if g does not
    map V0 into V0; RuntimeError, before any table is built, if the
    tables, one orbit map of p^7 bits and the `reserved` bytes of the
    caller's norm tables take more than ORBIT_CAP bytes in all."""
    splits = []
    for g in gens:
        m, into_v0 = _on_v0(g, p)
        if not into_v0:
            raise ValueError("a generator does not map V0 into V0")
        splits.append((m, _split(m, p)))
    map_bytes = -(-p ** 7 // 8)
    table_bytes = 4 * sum(p ** pre + p ** suf for _, (_, pre, suf) in splits)
    if map_bytes + table_bytes + reserved > fields.ORBIT_CAP:
        raise RuntimeError(f"an orbit map of {map_bytes} bytes, step tables of "
                           f"{table_bytes} bytes and norm tables of {reserved} "
                           f"bytes exceed cap {fields.ORBIT_CAP}")
    return [
        (
            p ** (7 - pre),
            _table(m, range(rows), range(pre), p),
            p ** suf,
            _table(m, range(rows, 7), range(7 - suf, 7), p),
        )
        for m, (rows, pre, suf) in splits
    ]


# _BITS[key % 8] is the bit of a key in its byte
_BITS = np.array([1 << i for i in range(8)], dtype=np.uint8)


def orbit(start, gens, p, steps=None, visit=None):
    """Closure of {start} under left multiplication by gens, as an
    OrbitMap over the p^7 keys of V0 (one bit each).

    start must lie in V0 and every generator map V0 into V0 (ValueError
    otherwise).  The frontier holds uint32 keys only, and a generator step
    is two integer table lookups, hi[key // d] + lo[key % n] (_steps);
    membership is one lookup of each image's byte, and the fresh images
    are marked before they are appended.  `steps`, if given, is
    _steps(gens, p), one entry per generator; otherwise it is built here
    (RuntimeError if it and the map exceed ORBIT_CAP).

    Each step marks its fresh images by adding their bits with np.add.at,
    which is or-ing them when the images are distinct.  A bit added twice
    carries into another bit or out of its byte and leaves the map's count
    of set bits short of the keys appended.  So the BFS raises RuntimeError
    once it has appended more than p^7 keys, and when that count differs
    from the number of keys appended, the start included: a generator set
    that is not injective on its orbit stops the BFS within p^7 keys
    appended and cannot give a wrong map.  A map returned is the closure as a set, the same for any
    generator order, and its size cannot be inflated.

    `visit`, if given, is called on each block of keys the BFS expands;
    each key, the start included, is in exactly one block.
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
    appended, limit = 1, p ** 7
    frontier = [np.array([key], dtype=np.uint32)]
    while frontier:
        parts = []
        for keys in _blocks(frontier):
            if visit is not None:
                visit(keys)
            for d, hi, n, lo in steps:
                # keys - high * n is keys % n, and take() and compress()
                # are a fancy and a boolean index, each at under half the
                # cost of numpy's own form; ufunc.at is fast on intp
                high = keys // d
                images = hi.take(high)
                images += lo.take(keys - (high if d == n else keys // n) * n)
                byte = (images >> 3).astype(np.intp)
                bit = _BITS.take(images & 7)
                fresh = seen.take(byte) & bit == 0
                images = images.compress(fresh)
                if len(images):
                    np.add.at(seen, byte.compress(fresh), bit.compress(fresh))
                    parts.append(images)
                    appended += len(images)
                    if appended > limit:
                        raise RuntimeError(
                            f"the BFS appended {appended} keys, over the "
                            f"{p}^7 of V0: a step is not injective"
                        )
        frontier = parts
    chunks = range(0, len(seen), _CHUNK)
    size = sum(int(np.bitwise_count(seen[i:i + _CHUNK]).sum()) for i in chunks)
    if size != appended:
        raise RuntimeError(
            f"the map holds {size} keys and the BFS appended {appended}: "
            "a step is not injective"
        )
    return OrbitMap(seen, size)


def _same_map(a, b):
    """np.array_equal of two maps, a chunk at a time, so that no
    map-sized temporary is made."""
    return all(
        np.array_equal(a[lo:lo + _CHUNK], b[lo:lo + _CHUNK])
        for lo in range(0, len(a), _CHUNK)
    )


def _norm_tables(p):
    """(p^3, lead, trail, bits): with them, _half_norms reads v0 v7 + v1 v6
    + v2 v5 + v3^2 off a key in one product.

    That sum is the t^3 coefficient of (v0 + v1 t + v2 t^2 + v3 t^3)(v3 +
    v5 t + v6 t^2 + v7 t^3) (Kronecker substitution).  At t = 2^bits, where
    4(p - 1)^2 < 2^bits bounds every coefficient, lead[key // p^3] holds
    the first factor and trail[key % p^4] the second, times 2^(64 - 4 bits):
    the uint64 product then carries the coefficient in its top `bits` bits,
    with the lower coefficients below it and the higher ones wrapped away.
    Both tables are uint64 of p^4 entries and index the same digits.
    ValueError if keys below p^7 do not fit in uint32 or four fields do not
    fit in uint64."""
    if p ** 7 > 2 ** 32:
        raise ValueError(f"keys below {p}^7 do not fit in uint32")
    bits = (4 * (p - 1) ** 2).bit_length()
    if 4 * bits > 64:
        raise ValueError(f"four fields of {bits} bits do not fit in uint64")
    digits = np.indices((p,) * 4, dtype=np.uint64).reshape(4, -1)
    lead = sum(digit << np.uint64(i * bits) for i, digit in enumerate(digits))
    return p ** 3, lead, lead << np.uint64(64 - 4 * bits), bits


def _half_norms(keys, low, tables):
    """v0 v7 + v1 v6 + v2 v5 + v3^2 (half of <v, v> = sum v_i v_{7-i}),
    unreduced, of the V0 vectors of an array of uint32 keys, as uint64;
    `low` is keys % p^4 and `tables` is _norm_tables(p)."""
    d, lead, trail, bits = tables
    return lead.take(keys // d) * trail.take(low) >> np.uint64(64 - bits)


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
    classes: the verdicts on the generator lists, the H_P generating set,
    the step tables of its generators and the norm tables.

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
    FAIL.  ORBIT_CAP bounds the step tables, the norm tables and one map
    together, and is tested before any of them is built.
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
        # the two uint64 norm tables of q^4 entries count under the cap too
        self.parabolic_steps = _steps(self.parabolic_gens, q, reserved=16 * q ** 4)
        self.norm_tables = _norm_tables(q)


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
    tables = setup.norm_tables
    # <v, v> = 2 * half norm is 2*rho mod q when the half norm is rho mod q
    on_sphere = np.arange(1 << tables[-1]) % q == rho % q
    q2, q4 = q * q, q ** 4

    def survey(start, zero_part):
        """(the size of the H_P map of start, whether every key is on the
        zero_part side of the predicate, whether every key has norm 2*rho,
        the map), each key tested in its block as the BFS expands it."""
        holds = [True, True]

        def visit(keys):
            # low is keys % q^4, the digits v3, v5, v6, v7; the key is 0
            # mod q^2 when low is, as low // q^2 * q^2 == low
            low = keys - keys // q4 * q4
            holds[0] &= bool(((low // q2 * q2 == low) == zero_part).all())
            holds[1] &= bool(on_sphere.take(_half_norms(keys, low, tables)).all())

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
