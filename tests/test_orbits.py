"""Finite-field orbit tests: generator integrity, BFS closure, and the
two-parabolic-orbit partition."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2adjoint import fields
from g2adjoint.algebra import LaurentPoly
from g2adjoint.g2model import (
    PARABOLIC_PARAMS,
    ROOT_EXP,
    ROOT_PARAMS,
    SIMPLE_PARAMS,
    TRILINEAR,
    one_param,
    root_exp,
)
from g2adjoint.orbits import (
    _BLOCK,
    _TRIPLES,
    _V0,
    FieldSetup,
    _half_norms,
    _norm_tables,
    _on_v0,
    _parabolic,
    _pulled_back_triples,
    _steps,
    bfs_generators,
    companion_rho,
    double_coset_check,
    generator_invariants_hold,
    group_generators,
    is_square_mod,
    one_param_mod,
    orbit,
    sphere_count,
    verify_orbits,
)
from test_g2model import coroot_element


def reduce_mod(matrix, p):
    """A RingMatrix of integer constants reduced mod p, as a numpy array."""
    return np.array(
        [[int(e) % p for e in row] for row in matrix.entries], dtype=np.int64
    )


def test_one_param_mod_matches_symbolic():
    for p in (5, 7):
        for param in ROOT_PARAMS:
            for t in range(p):
                expected = reduce_mod(one_param(param, LaurentPoly.constant(t)), p)
                assert (one_param_mod(param, t, p) == expected).all(), (p, param, t)


def _coroot_words(q):
    """h_alpha1(t), h_alpha2(t) for t = 2, ..., q - 1 from the exact
    kernel, reduced mod q, in the order of group_generators."""
    return [
        reduce_mod(coroot_element(
            param, LaurentPoly.constant(t), LaurentPoly.constant(pow(t, -1, q))
        ), q)
        for param in SIMPLE_PARAMS for t in range(2, q)
    ]


def test_coroot_elements_are_diagonal_mod_p():
    # the coroot words group_generators appends after the 12(q - 1)
    # one-parameter elements, against the exact kernel's h_root(t)
    for q in (5, 7):
        words = group_generators(q, "full")[12 * (q - 1):]
        expected = _coroot_words(q)
        assert len(words) == len(expected) == 2 * (q - 2)
        for i, (h, symbolic) in enumerate(zip(words, expected)):
            assert not (h - np.diag(np.diag(h))).any(), (q, i)
            assert (h == symbolic).all(), (q, i)


def test_generator_setup_makes_no_kernel_call(monkeypatch):
    # the orbit suite builds its generators from g2model's integer root
    # exponentials; the orbits_q7 benchmark times it on the premise that
    # neither those tables nor the generators touch the exact kernel
    def refuse(*args, **kwargs):
        raise AssertionError("LaurentPoly arithmetic during generator set-up")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "subs"):
        monkeypatch.setattr(LaurentPoly, name, refuse)
    for param in ROOT_PARAMS:
        assert root_exp(param) == ROOT_EXP[param]
    for which in ("full", "parabolic"):
        assert group_generators(5, which)
    assert bfs_generators(5)


def test_generator_counts():
    gens = group_generators(5, "full")
    # 12 roots x 4 parameters + 2 coroots x 3 nontrivial parameters
    assert len(gens) == 12 * 4 + 2 * 3
    par = group_generators(5, "parabolic")
    assert len(par) == 7 * 4 + 2 * 3


def test_parabolic_generators_are_picked_by_their_roots():
    # P's generators are picked out of the full list by position; built
    # again root by root, they are the same matrices
    for q in (5, 7):
        picked = _parabolic(group_generators(q, "full"), q)
        built = [one_param_mod(param, t, q) for param in PARABOLIC_PARAMS
                 for t in range(1, q)]
        built += _coroot_words(q)
        assert sorted(g.tobytes() for g in picked) == sorted(g.tobytes() for g in built)


def test_generators_preserve_structures():
    for q in (5, 7):
        assert generator_invariants_hold(group_generators(q, "full"), q)
    # no generator, nothing to fail
    assert generator_invariants_hold([], 5) is True


def _trilinear_dense():
    t = np.zeros((8, 8, 8), dtype=np.int64)
    for (i, j, k), c in TRILINEAR.items():
        t[i, j, k] = int(c)
    return t


def _sign(perm):
    """The sign of a permutation of range(len(perm)), by its inversions."""
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def test_trilinear_form_is_alternating():
    # generator_invariants_hold compares T only at i < j < k, which is all
    # of T when T is alternating: every permutation of a key is a key, with
    # the coefficient times the permutation's sign, and no key repeats an
    # index (so T vanishes off the permutations of its wedges)
    for key, c in TRILINEAR.items():
        assert len(set(key)) == 3, key
        for perm in itertools.permutations(range(3)):
            permuted = tuple(key[i] for i in perm)
            assert TRILINEAR.get(permuted) == _sign(perm) * c, (key, perm)


@pytest.mark.parametrize("q", [5, 7])
def test_pull_back_matches_einsum(q):
    # three einsum contractions of the dense T, as an oracle for the sums
    # of 3x3 minors at i < j < k, on every generator and on matrices that
    # preserve nothing
    t = _trilinear_dense()
    rng = np.random.default_rng(q)
    g = np.stack(group_generators(q, "full") + list(rng.integers(0, q, (20, 8, 8))))
    pulled = np.einsum("lmn,gli->gimn", t, g) % q
    pulled = np.einsum("gimn,gmj->gijn", pulled, g) % q
    pulled = np.einsum("gijn,gnk->gijk", pulled, g) % q
    i, j, k = _TRIPLES
    assert _TRIPLES.shape == (3, 56) and (i < j).all() and (j < k).all()
    assert np.array_equal(_pulled_back_triples(g, q), pulled[:, i, j, k])
    assert not generator_invariants_hold(list(g[-20:]), q)


def _vectors(keys, p):
    """The V0 vectors (int64 rows of length 8) of an array of keys."""
    out = np.empty((len(keys), 8), dtype=np.int64)
    for i in _V0[::-1]:
        keys, out[:, i] = np.divmod(keys, p)
    out[:, 4] = out[:, 3]
    return out


def _keys_of(orb):
    """All keys of an OrbitMap, in order: the set bits of its bit map."""
    return np.flatnonzero(np.unpackbits(orb.seen, bitorder="little"))


def _flip(orb, key):
    """Flip the bit of `key` in an OrbitMap, leaving its size as it is."""
    orb.seen[key >> 3] ^= np.uint8(1 << (key & 7))


def _vectors_of(orb, q):
    """All vectors of an OrbitMap, in key order."""
    return _vectors(_keys_of(orb), q)


def test_orbit_under_identity_is_singleton():
    eye = np.eye(8, dtype=np.int64)
    start = np.array([0, 0, 1, 0, 0, 2, 0, 0])
    out = orbit(start, [eye], 5)
    assert len(out) == 1 and len(_keys_of(out)) == 1
    assert np.array_equal(_vectors_of(out, 5), [start])


@pytest.mark.parametrize("rho", [2, 4], ids=["non-square", "square"])
def test_visit_sees_every_key_once(rho):
    # the blocks the BFS hands to visit, the start's first, hold every key
    # of the map once, as uint32
    q = 5
    blocks = []
    out = orbit(_part1_start(rho, q), bfs_generators(q), q, visit=blocks.append)
    assert all(block.dtype == np.uint32 for block in blocks)
    assert list(blocks[0]) == [_key(_part1_start(rho, q), q)]
    keys = np.sort(np.concatenate(blocks))
    assert np.array_equal(keys, _keys_of(out)) and len(keys) == len(out)


def test_orbit_cap_is_enforced(monkeypatch):
    monkeypatch.setattr(fields, "ORBIT_CAP", 100)
    gens = group_generators(5, "full")
    with pytest.raises(RuntimeError):
        orbit(np.array([0, 0, 1, 0, 0, 2, 0, 0]), gens, 5)


def _non_injective():
    """v7 -> 0 and v0 += v7: maps V0 into V0 but is not injective."""
    g = np.eye(8, dtype=np.int64)
    g[7, 7] = 0
    g[0, 7] = 1
    return g


def test_a_wrong_bijectivity_verdict_stops_the_bfs():
    # every step is marked by addition, as a step declared a bijection
    # once was; v7 -> 0 and v0 += v7 maps V0 into V0 but is not injective,
    # so two keys of one block can share an image, a duplicate carries into
    # another bit or out of its byte, and the BFS must raise within p^7
    # keys appended, neither hang nor return a map
    gens = _g2_bfs_generators(5) + [_non_injective()]
    visited = []
    with pytest.raises(RuntimeError, match="appended 78429 keys, over the 5"):
        orbit(_v_rho(2, 5), gens, 5, visit=lambda keys: visited.append(len(keys)))
    assert sum(visited) <= 5 ** 7 + _BLOCK


def test_a_non_injective_generator_does_not_inflate_the_size():
    # v7 += v0 beside the non-injective generator: duplicates carry, well
    # below p^7 keys, and the map's count of set bits falls short of the
    # keys appended, so the BFS raises rather than return a wrong map
    shear = np.eye(8, dtype=np.int64)
    shear[7, 0] = 1
    with pytest.raises(RuntimeError, match="map holds 22 keys and the BFS appended 40"):
        orbit(np.array([0, 0, 1, 0, 0, 2, 0, 1]), [shear, _non_injective()], 5)


def _invertible_on_v0(g, q):
    """Whether g on V0 is invertible mod q, by the rounded float
    determinant, exact for small integer matrices."""
    return round(np.linalg.det(_on_v0(g, q)[0].astype(float))) % q != 0


@pytest.mark.parametrize("q", [5, 7])
def test_bijectivity_verdict_matches_the_determinant(q):
    # every generator the check, verify all or a benchmark hands to orbit
    # is a product of root elements, invertible on V0 mod q, which is why
    # the BFS never raises on them
    for g in group_generators(q, "full") + bfs_generators(q):
        assert _invertible_on_v0(g, q), g


def _random_v0_map(rng):
    """An integer generator that maps V0 into V0, sending each coordinate
    of V0 to 0 or +-1 times one coordinate: a signed permutation, or a
    singular map when a source repeats or a sign is 0."""
    source = rng.permutation(7) if rng.random() < 0.6 else rng.integers(0, 7, 7)
    m = np.zeros((7, 7), dtype=np.int64)
    m[np.arange(7), source] = rng.choice([1, -1, 0], size=7, p=[0.45, 0.45, 0.1])
    g = np.zeros((8, 8), dtype=np.int64)
    g[np.ix_(_V0, _V0)] = m
    g[4] = g[3]
    return g


def test_random_generator_sets_give_the_reference_orbit_or_raise():
    # seeded: from a 0/1 start, signed maps stay in {0, +-1}^7, small
    # enough for the plain-Python oracle.  A returned map must hold exactly
    # the oracle's keys, singular sets included; only a singular set may
    # raise, and some must, or the bit-count guard would go untested
    q = 5
    rng = np.random.default_rng(2011)
    outcomes = Counter()
    for _ in range(20):
        gens = [_random_v0_map(rng) for _ in range(rng.integers(1, 4))]
        start = np.zeros(8, dtype=np.int64)
        start[_V0] = rng.integers(0, 2, 7)
        start[4] = start[3]
        singular = not all(_invertible_on_v0(g, q) for g in gens)
        try:
            got = orbit(start, gens, q)
        except RuntimeError:
            outcomes["raised", singular] += 1
            continue
        assert np.array_equal(_vectors_of(got, q), _reference_orbit(start, gens, q))
        assert len(got) == len(_keys_of(got))
        outcomes["returned", singular] += 1
    assert outcomes["raised", True] and outcomes["returned", True], outcomes
    assert outcomes["returned", False] and not outcomes["raised", False], outcomes


def test_tables_over_cap_are_refused_before_any_is_built(monkeypatch):
    from g2adjoint import orbits

    gens = group_generators(5, "full")
    table_bytes = sum(hi.nbytes + lo.nbytes for _, hi, _, lo in _steps(gens, 5))
    # the q^7-bit map and the tables fit under this cap, and not under one
    # byte less, where the map alone still fits
    map_bytes = -(-5 ** 7 // 8)
    assert table_bytes > 1
    monkeypatch.setattr(fields, "ORBIT_CAP", map_bytes + table_bytes)
    assert len(_steps(gens, 5)) == len(gens)

    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(orbits, "_table", refuse)
    with pytest.raises(AssertionError):
        orbit(_v_rho(2, 5), gens, 5)
    monkeypatch.setattr(fields, "ORBIT_CAP", map_bytes + table_bytes - 1)
    with pytest.raises(RuntimeError, match="tables of"):
        orbit(_v_rho(2, 5), gens, 5)


def test_field_set_up_over_cap_is_refused_before_any_table_is_built(monkeypatch):
    from g2adjoint import orbits

    # a FieldSetup holds the step tables and the two uint64 norm tables of
    # q^4 entries, counted with one map under the cap before any is built
    setup = FieldSetup(5)
    step_bytes = sum(hi.nbytes + lo.nbytes for _, hi, _, lo in setup.parabolic_steps)
    norm_bytes = sum(table.nbytes for table in setup.norm_tables[1:3])
    assert norm_bytes == 2 * 8 * 5 ** 4
    total = -(-5 ** 7 // 8) + step_bytes + norm_bytes
    monkeypatch.setattr(fields, "ORBIT_CAP", total)
    assert FieldSetup(5).norm_tables[-1] == setup.norm_tables[-1]

    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(orbits, "_table", refuse)
    monkeypatch.setattr(orbits, "_norm_tables", refuse)
    monkeypatch.setattr(fields, "ORBIT_CAP", total - 1)
    with pytest.raises(RuntimeError, match="norm tables of 10000 bytes"):
        FieldSetup(5)


def test_prebuilt_tables_must_match_their_generators():
    setup = FieldSetup(5)
    with pytest.raises(ValueError, match="2 step tables for 1 generators"):
        orbit(_v_rho(2, 5), setup.parabolic_gens[:1], 5, steps=setup.parabolic_steps)
    with pytest.raises(ValueError, match="q = 5 for q = 7"):
        double_coset_check(7, 2, setup=setup)


def test_sphere_count_matches_closed_form():
    for q in (5, 7, 11):
        for rho in range(1, q):
            sign = 1 if is_square_mod(rho, q) else -1
            assert sphere_count(q, rho) == q ** 6 + sign * q ** 3, (q, rho)


def test_validation_errors():
    with pytest.raises(ValueError):
        double_coset_check(4, 1)
    with pytest.raises(ValueError):
        double_coset_check(3, 1)
    with pytest.raises(ValueError):
        double_coset_check(5, 10)
    with pytest.raises(ValueError):
        group_generators(5, "levi")


def test_companion_rho():
    assert is_square_mod(companion_rho(5, 2), 5)
    assert not is_square_mod(companion_rho(5, 4), 5)


def test_double_coset_q5_nonsquare():
    report = double_coset_check(5, 2)
    assert report.passed, report.to_text()
    sizes = [c for c in report.checks if c.name == "orbit-size-closed-form"]
    assert "15500" in sizes[0].detail


def test_double_coset_q5_square():
    report = double_coset_check(5, 4)
    assert report.passed, report.to_text()
    sizes = [c for c in report.checks if c.name == "orbit-size-closed-form"]
    assert "15750" in sizes[0].detail


def test_verify_orbits_runs_both_classes():
    report = verify_orbits(5, 2)
    assert report.passed
    names = [c.name for c in report.checks]
    assert any(n.startswith("rho=2-non-square/") for n in names)
    assert any(n.startswith("rho=4-square/") for n in names)


def _contains(arrays, matrix):
    return any(np.array_equal(a, matrix) for a in arrays)


def _reference_orbit(start, gens, p):
    """Plain-Python BFS over a set of tuples, sorted lexicographically."""
    start = tuple(int(x) % p for x in start)
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple(int(x) for x in g @ np.array(v) % p)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return np.array(sorted(seen), dtype=np.int64)


def _v_rho(rho, q):
    return np.array([0, 0, 1, 0, 0, rho % q, 0, 0], dtype=np.int64)


def _key(v, q):
    """The key of a V0 vector."""
    return int(np.asarray(v)[_V0] @ q ** np.arange(6, -1, -1))


def _g2_bfs_generators(q):
    """x_a(1) x_l(1) = exp(E_a + E_l) and x_g(1) x_b(1) = exp(E_g + E_b)
    (alpha1 - alpha2 is not a root, so each pair commutes): a two-element
    set for a BFS of the G2-orbit, which the check derives instead and
    the tests keep as an oracle."""
    a, l, g, b = (one_param_mod(param, 1, q) for param in "algb")
    return [a @ l % q, g @ b % q]


# the two-element BFS sets, and the factors of each of their generators
# as root parameters at t = 1
BFS_SETS = {"full": _g2_bfs_generators, "parabolic": bfs_generators}
BFS_FACTORS = {"full": [("a", "l"), ("g", "b")], "parabolic": [("a",), ("g", "b")]}


@pytest.mark.parametrize("which", ["full", "parabolic"])
def test_bfs_generators_are_drawn_from_group_generators(which):
    for q in (5, 7):
        small = BFS_SETS[which](q)
        listed = group_generators(q, which)
        assert len(small) == 2
        for g, params in zip(small, BFS_FACTORS[which]):
            factors = [one_param_mod(param, 1, q) for param in params]
            assert all(_contains(listed, f) for f in factors), (q, which, params)
            product = np.eye(8, dtype=np.int64)
            for f in factors:
                product = product @ f % q
            assert np.array_equal(g, product), (q, which, params)


@pytest.mark.parametrize("q", [5, 7])
def test_double_coset_check_passes_for_every_rho(q):
    # the two-element BFS sets generate enough for every unit rho; that
    # is measured here, not proved
    for rho in range(1, q):
        report = double_coset_check(q, rho)
        assert report.passed, report.to_text()


NORM_TABLES = {q: _norm_tables(q) for q in (5, 7, 17, 23)}


def _key_norms(keys, q):
    """<v, v> = 2 * half norm mod q of an array of uint32 keys, by the
    norm tables."""
    halves = _half_norms(keys, keys % q ** 4, NORM_TABLES[q])
    assert halves.dtype == np.uint64
    return 2 * halves % q


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([5, 7, 17, 23]), st.data())
def test_key_norms_match_decoded_vectors(q, data):
    # keys 0 and q^7 - 1 always: at q = 23 the last is the largest key
    # ORBIT_CAP admits, and its fields must survive the uint64 product
    drawn = data.draw(st.lists(st.integers(0, q ** 7 - 1), max_size=50))
    keys = np.array([0, q ** 7 - 1] + drawn, dtype=np.uint32)
    vectors = _vectors(keys, q)
    expected = (vectors * vectors[:, ::-1]).sum(axis=1) % q
    assert np.array_equal(_key_norms(keys, q), expected)
    # the half norm itself, unreduced
    halves = _half_norms(keys, keys % q ** 4, NORM_TABLES[q])
    assert np.array_equal(halves, (vectors * vectors[:, ::-1]).sum(axis=1) // 2)


def test_key_norms_split_the_largest_q23_key():
    # 23^7 - 1 > 2^31 - 1 has every digit 22: its norm is
    # 2 (3 * 22^2 + 22^2) = 8 * 22^2 = 8 mod 23, as a uint32 key; its half
    # norm 4 * 22^2 = 1936 is the largest coefficient, in 11 bits
    key = np.array([23 ** 7 - 1], dtype=np.uint32)
    assert key[0] > np.iinfo(np.int32).max
    assert list(_key_norms(key, 23)) == [8]
    assert NORM_TABLES[23][-1] == 11
    assert list(_half_norms(key, key % 23 ** 4, NORM_TABLES[23])) == [1936]
    # keys below 29^7 do not fit in uint32
    with pytest.raises(ValueError, match="uint32"):
        _norm_tables(29)


@pytest.mark.parametrize("which", ["full", "parabolic"])
@pytest.mark.parametrize(
    "q, source",
    [(q, "bfs") for q in (5, 7, 13, 17, 19)] + [(5, "group"), (7, "group")],
)
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_step_tables_match_the_matrix_product(q, source, which, data):
    # the two-lookup image of a key against an independent route: decode
    # it, multiply by the 8x8 generator mod q, and key the product again
    gens = BFS_SETS[which](q) if source == "bfs" else group_generators(q, which)
    keys = np.array(
        data.draw(st.lists(st.integers(0, q ** 7 - 1), min_size=1, max_size=100)),
        dtype=np.uint32,
    )
    pows = q ** np.arange(6, -1, -1)
    vectors = _vectors(keys, q)
    for g, (d, hi, n, lo) in zip(gens, _steps(gens, q)):
        expected = (vectors @ g.T % q)[:, _V0] @ pows
        assert np.array_equal(hi[keys // d] + lo[keys % n], expected)


def _part1_start(rho, q):
    """x_j(1) v_rho, where double_coset_check starts the v3 != 0 part."""
    w1 = np.array([0, 0, 1, 0, 0, rho % q, 0, q - 1], dtype=np.int64)
    assert np.array_equal(one_param_mod("j", 1, q) @ _v_rho(rho, q) % q, w1)
    return w1


@pytest.mark.parametrize("rho", [2, 4], ids=["non-square", "square"])
def test_small_generating_sets_give_the_full_orbits(rho):
    q = 5
    v_rho = _v_rho(rho, q)
    small = _g2_bfs_generators(q)
    orb = orbit(v_rho, small, q)
    vectors = _vectors_of(orb, q)
    assert len(orb) == len(vectors)
    assert np.array_equal(vectors, _reference_orbit(v_rho, small, q))
    assert np.array_equal(orb.seen, orbit(v_rho, group_generators(q, "full"), q).seen)
    small_parabolic = bfs_generators(q)
    parabolic = group_generators(q, "parabolic")
    for start in (v_rho, _part1_start(rho, q)):
        got = orbit(start, small_parabolic, q)
        expected = _reference_orbit(start, small_parabolic, q)
        assert np.array_equal(_vectors_of(got, q), expected)
        assert np.array_equal(got.seen, orbit(start, parabolic, q).seen)


@pytest.mark.parametrize("q", [5, 7])
def test_parabolic_orbit_sizes_match_closed_forms(q):
    gens = bfs_generators(q)
    for rho in (1, companion_rho(q, 1)):
        v_rho = _v_rho(rho, q)
        sign = 1 if is_square_mod(rho, q) else -1
        orbit0 = orbit(v_rho, gens, q)
        assert len(orbit0) == q ** 3 * (q + sign), (q, rho)
        assert not _vectors_of(orbit0, q)[:, 6:].any()
        orbit1 = orbit(_part1_start(rho, q), gens, q)
        assert len(orbit1) == q ** 4 * (q ** 2 - 1), (q, rho)
        assert _vectors_of(orbit1, q)[:, 6:].any(axis=1).all()


@pytest.mark.parametrize("q", [5, 7])
def test_the_two_parabolic_orbits_make_up_the_g2_orbit(q):
    # the G2 BFS that the check derives instead of running, as an oracle:
    # the two H_P maps are disjoint and their union is the G2 map
    gens = bfs_generators(q)
    for rho in (1, companion_rho(q, 1)):
        v_rho = _v_rho(rho, q)
        part0 = orbit(v_rho, gens, q).seen
        part1 = orbit(_part1_start(rho, q), gens, q).seen
        assert not (part0 & part1).any(), (q, rho)
        g2 = orbit(v_rho, _g2_bfs_generators(q), q).seen
        assert np.array_equal(part0 | part1, g2), (q, rho)


def test_map_over_cap_is_refused_before_any_bfs(monkeypatch):
    from g2adjoint import orbits

    # q=5: the bit map of V0 has 5^7 bits, 9766 bytes; the check needs
    # room for it, the step tables and the norm tables of its FieldSetup
    setup = FieldSetup(5)
    tables = sum(hi.nbytes + lo.nbytes for _, hi, _, lo in setup.parabolic_steps)
    tables += sum(table.nbytes for table in setup.norm_tables[1:3])
    monkeypatch.setattr(orbits, "orbit", None)
    with pytest.raises(ValueError, match="cap of"):
        double_coset_check(29, 2)
    with pytest.raises(ValueError, match="cap of"):
        verify_orbits(29, 2)
    monkeypatch.setattr(fields, "ORBIT_CAP", 9765)
    with pytest.raises(ValueError, match="cap of 9765"):
        double_coset_check(5, 2)
    monkeypatch.undo()
    monkeypatch.setattr(fields, "ORBIT_CAP", 9766 + tables)
    assert double_coset_check(5, 2).passed


def test_too_small_generating_sets_fail_the_report(monkeypatch):
    from g2adjoint import orbits

    # one element of the set generates only a cyclic group, too little:
    # the report must FAIL, neither crash nor PASS
    real = orbits.bfs_generators
    monkeypatch.setattr(orbits, "bfs_generators", lambda q: real(q)[:1])
    report = double_coset_check(5, 2)
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert {"orbit-equals-sphere", "exactly-two-parabolic-orbits"} <= failed


def test_generator_leaving_v0_fails_the_report(monkeypatch):
    from g2adjoint import orbits

    # adding coordinate 0 to coordinate 3 fixes v0 = e3 - e4 but does
    # not map V0 = {v3 = v4} into itself; orbit() refuses it, and the
    # report must FAIL, neither crash nor PASS
    leave = np.eye(8, dtype=np.int64)
    leave[3, 0] = 1
    with pytest.raises(ValueError, match="V0"):
        orbit(_v_rho(2, 5), [leave], 5)
    with pytest.raises(ValueError, match="V0"):
        orbit(np.array([0, 0, 0, 1, 0, 0, 0, 0]), [], 5)
    real = orbits.bfs_generators
    monkeypatch.setattr(orbits, "bfs_generators", lambda q: real(q) + [leave])
    report = double_coset_check(5, 2)
    assert not report.passed
    failed = [c for c in report.checks if c.status == "fail"]
    assert [c.name for c in failed] == ["orbit-inside-norm-sphere"]
    assert failed[0].counterexample == "1 BFS generators leave V0"


def _swap_into_first_block(real, key, part):
    """orbits.orbit with `key` swapped for the last key of the first block
    that each BFS of part `part` (0: v3 = 0, 1: v3 != 0) hands to its
    visit: the map and its size stay, and only the survey sees the key."""

    def orbit_swapping(start, gens, p, steps=None, visit=None):
        if visit is None or bool(start[7] % p) != part:
            return real(start, gens, p, steps, visit)
        first = True

        def visit_swapped(keys):
            nonlocal first
            if first:
                keys = keys.copy()
                keys[-1] = key
                first = False
            visit(keys)

        return real(start, gens, p, steps, visit_swapped)

    return orbit_swapping


def _orbit_off_sphere(real):
    """orbits.orbit with key 1 (v7 = 1, norm 0 != 2*rho) swapped into the
    survey of each map of the v3 != 0 part for one of its keys: the size
    and the side of the map stay, and only the key-space norm test can see
    it."""
    return _swap_into_first_block(real, 1, 1)


def test_g2_orbit_off_the_sphere_fails_the_report(monkeypatch):
    from g2adjoint import orbits

    # the G2-orbit is derived from the H_P maps, so a map off the sphere
    # must FAIL it
    monkeypatch.setattr(orbits, "orbit", _orbit_off_sphere(orbits.orbit))
    report = double_coset_check(5, 2)
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert "orbit-inside-norm-sphere" in failed


@pytest.mark.parametrize("swapped", [False, True], ids=["added", "swapped"])
def test_a_part_1_key_in_the_part_0_map_fails_the_report(monkeypatch, swapped):
    from g2adjoint import orbits

    # the key of x_j(1) v_rho, a point of the sphere with v7 != 0, crosses
    # into the v3 = 0 part.  Added to both of its maps (so they still
    # agree), it breaks the size sum; swapped for a key of the part in the
    # survey, with both maps as they are, only the side test can see it
    real = orbits.orbit
    crossing = _key(_part1_start(2, 5), 5)

    def orbit_across(start, gens, p, steps=None, visit=None):
        out = real(start, gens, p, steps, visit)
        if not start[7] % p:
            _flip(out, crossing)
            out.size += 1
        return out

    if swapped:
        orbit_across = _swap_into_first_block(real, crossing, 0)
    monkeypatch.setattr(orbits, "orbit", orbit_across)
    report = double_coset_check(5, 2)
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert {"orbit-equals-sphere", "exactly-two-parabolic-orbits"} <= failed
    assert "orbit-is-order-independent" not in failed


def test_a_key_lost_in_reversed_order_fails_the_report(monkeypatch):
    from g2adjoint import orbits

    # the reversed-order BFS of the v3 = 0 part loses a key: the map
    # comparison must FAIL order independence, and only it
    real = orbits.orbit
    first = bfs_generators(5)[0]

    def orbit_losing(start, gens, p, steps=None, visit=None):
        out = real(start, gens, p, steps, visit)
        if not np.array_equal(gens[0], first):
            _flip(out, _keys_of(out)[-1])
            out.size -= 1
        return out

    monkeypatch.setattr(orbits, "orbit", orbit_losing)
    report = double_coset_check(5, 2)
    failed = [c.name for c in report.checks if c.status == "fail"]
    assert failed == ["orbit-is-order-independent"]


@pytest.mark.parametrize("wrong", ["too-small", "too-large"])
def test_wrong_parabolic_orbits_fail_the_partition_check(monkeypatch, wrong):
    from g2adjoint import orbits

    # x_a(1) alone reaches only part of each part; the G2 generators leave
    # the v3 = 0 part.  Either way the H_P maps do not make up the two
    # parts, and the partition check and the derived sphere must FAIL
    real = orbits.bfs_generators
    gens = (lambda q: real(q)[:1]) if wrong == "too-small" else _g2_bfs_generators
    monkeypatch.setattr(orbits, "bfs_generators", gens)
    report = double_coset_check(5, 2)
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert {"orbit-equals-sphere", "exactly-two-parabolic-orbits"} <= failed
    assert not report.passed


def test_verify_orbits_keeps_no_state_between_calls(monkeypatch):
    from g2adjoint import orbits

    # a run without patches first: a set-up kept from it would hide both
    # mutations below, and each class must FAIL under each
    assert verify_orbits(5, 2).passed
    classes = ("rho=2-non-square", "rho=4-square")

    def failed_checks(report):
        return {c.name for c in report.checks if c.status == "fail"}

    real_gens = orbits.bfs_generators
    monkeypatch.setattr(orbits, "bfs_generators", lambda q: real_gens(q)[:1])
    failed = failed_checks(verify_orbits(5, 2))
    for label in classes:
        assert {
            f"{label}/orbit-equals-sphere",
            f"{label}/exactly-two-parabolic-orbits",
        } <= failed

    monkeypatch.undo()
    monkeypatch.setattr(orbits, "orbit", _orbit_off_sphere(orbits.orbit))
    failed = failed_checks(verify_orbits(5, 2))
    for label in classes:
        assert f"{label}/orbit-inside-norm-sphere" in failed


def test_verify_orbits_builds_the_field_set_up_once(monkeypatch):
    from g2adjoint import orbits

    # both classes share one set-up: the full generator list and its
    # verdict once, P's generators picked out of it, one pair of step
    # tables per H_P generator, and the 6 BFS runs of two classes, each
    # through orbits.orbit
    calls = Counter()

    def count(name, key):
        real = getattr(orbits, name)

        def counted(*args, **kwargs):
            calls[key(args)] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(orbits, name, counted)

    count("group_generators", lambda args: args[1])
    count("generator_invariants_hold", lambda args: "invariants")
    count("_table", lambda args: "table")
    count("orbit", lambda args: "orbit")
    assert verify_orbits(5, 2).passed
    assert calls["full"] == calls["invariants"] == 1
    assert calls["parabolic"] == 0
    assert calls["table"] <= 4
    assert calls["orbit"] == 6
