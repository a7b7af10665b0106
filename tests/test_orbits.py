"""Finite-field orbit tests: generator integrity, BFS closure, and the
two-parabolic-orbit partition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2adjoint.algebra import LaurentPoly
from g2adjoint.g2model import ROOT_EXP, ROOT_PARAMS, one_param, root_exp
from g2adjoint.orbits import (
    _V0,
    _key_norms,
    _steps,
    bfs_generators,
    companion_rho,
    coroot_mod,
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
        [
            [
                int(e.as_fraction()) % p if isinstance(e, LaurentPoly) else int(e) % p
                for e in row
            ]
            for row in matrix.entries
        ],
        dtype=np.int64,
    )


def test_one_param_mod_matches_symbolic():
    for p in (5, 7):
        for param in ROOT_PARAMS:
            for t in range(p):
                expected = reduce_mod(one_param(param, LaurentPoly.constant(t)), p)
                assert (one_param_mod(param, t, p) == expected).all(), (p, param, t)


def test_coroot_elements_are_diagonal_mod_p():
    for q in (5, 7):
        for param in ("a", "b"):
            for t in range(2, q):
                h = coroot_mod(param, t, q)
                off = h - np.diag(np.diag(h))
                assert not off.any(), (q, param, t)
                symbolic = coroot_element(
                    param, LaurentPoly.constant(t), LaurentPoly.constant(pow(t, -1, q))
                )
                assert (h == reduce_mod(symbolic, q)).all(), (q, param, t)


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
        assert bfs_generators(5, which)


def test_generator_counts():
    gens = group_generators(5, "full")
    # 12 roots x 4 parameters + 2 coroots x 3 nontrivial parameters
    assert len(gens) == 12 * 4 + 2 * 3
    par = group_generators(5, "parabolic")
    assert len(par) == 7 * 4 + 2 * 3


def test_generators_preserve_structures():
    for q in (5, 7):
        assert generator_invariants_hold(group_generators(q, "full"), q)


def _vectors(keys, p):
    """The V0 vectors (int64 rows of length 8) of an array of keys."""
    out = np.empty((len(keys), 8), dtype=np.int64)
    for i in _V0[::-1]:
        keys, out[:, i] = np.divmod(keys, p)
    out[:, 4] = out[:, 3]
    return out


def _vectors_of(orb, q):
    """All vectors of an OrbitMap, in key order."""
    return _vectors(np.flatnonzero(orb.seen), q)


def test_orbit_under_identity_is_singleton():
    eye = np.eye(8, dtype=np.int64)
    start = np.array([0, 0, 1, 0, 0, 2, 0, 0])
    out = orbit(start, [eye], 5)
    assert len(out) == 1 and np.count_nonzero(out.seen) == 1
    assert np.array_equal(_vectors_of(out, 5), [start])


def test_orbit_cap_is_enforced(monkeypatch):
    from g2adjoint import orbits

    monkeypatch.setattr(orbits, "ORBIT_CAP", 100)
    gens = group_generators(5, "full")
    with pytest.raises(RuntimeError):
        orbit(np.array([0, 0, 1, 0, 0, 2, 0, 0]), gens, 5)


def test_a_non_injective_generator_does_not_inflate_the_size():
    # v7 -> 0 and v0 += v7 maps V0 into V0 but is not injective, so two
    # keys of one block can share an image; the size is the map's count
    g = np.eye(8, dtype=np.int64)
    g[7, 7] = 0
    g[0, 7] = 1
    out = orbit(_v_rho(2, 5), bfs_generators(5, "full") + [g], 5)
    assert len(out) == np.count_nonzero(out.seen) == 5 ** 7


def test_tables_over_cap_are_refused_before_any_is_built(monkeypatch):
    from g2adjoint import orbits

    gens = group_generators(5, "full")
    table_bytes = sum(hi.nbytes + lo.nbytes for _, hi, _, lo in _steps(gens, 5))
    # under this cap the q^7-byte map fits and the tables do not
    assert table_bytes > 5 ** 7
    monkeypatch.setattr(orbits, "ORBIT_CAP", table_bytes)
    assert len(_steps(gens, 5)) == len(gens)

    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(orbits, "_table", refuse)
    with pytest.raises(AssertionError):
        orbit(_v_rho(2, 5), gens, 5)
    monkeypatch.setattr(orbits, "ORBIT_CAP", table_bytes - 1)
    with pytest.raises(RuntimeError, match="tables of"):
        orbit(_v_rho(2, 5), gens, 5)


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


# the factors of each BFS generator, as root parameters at t = 1
BFS_FACTORS = {"full": [("a", "l"), ("g", "b")], "parabolic": [("a",), ("g", "b")]}


@pytest.mark.parametrize("which", ["full", "parabolic"])
def test_bfs_generators_are_drawn_from_group_generators(which):
    for q in (5, 7):
        small = bfs_generators(q, which)
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


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([5, 7, 17]), st.data())
def test_key_norms_match_decoded_vectors(q, data):
    keys = np.array(
        data.draw(st.lists(st.integers(0, q ** 7 - 1), min_size=1, max_size=50)),
        dtype=np.int64,
    )
    vectors = _vectors(keys, q)
    expected = (vectors * vectors[:, ::-1]).sum(axis=1) % q
    assert np.array_equal(_key_norms(keys, q), expected)


@pytest.mark.parametrize("which", ["full", "parabolic"])
@pytest.mark.parametrize(
    "q, source", [(q, "bfs") for q in (5, 7, 13, 17)] + [(5, "group"), (7, "group")]
)
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_step_tables_match_the_matrix_product(q, source, which, data):
    # the two-lookup image of a key against an independent route: decode
    # it, multiply by the 8x8 generator mod q, and key the product again
    gens = (bfs_generators if source == "bfs" else group_generators)(q, which)
    keys = np.array(
        data.draw(st.lists(st.integers(0, q ** 7 - 1), min_size=1, max_size=100)),
        dtype=np.int64,
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
    small = bfs_generators(q, "full")
    orb = orbit(v_rho, small, q)
    vectors = _vectors_of(orb, q)
    assert len(orb) == len(vectors)
    assert np.array_equal(vectors, _reference_orbit(v_rho, small, q))
    assert np.array_equal(orb.seen, orbit(v_rho, group_generators(q, "full"), q).seen)
    small_parabolic = bfs_generators(q, "parabolic")
    parabolic = group_generators(q, "parabolic")
    for start in (v_rho, _part1_start(rho, q)):
        got = orbit(start, small_parabolic, q)
        expected = _reference_orbit(start, small_parabolic, q)
        assert np.array_equal(_vectors_of(got, q), expected)
        assert np.array_equal(got.seen, orbit(start, parabolic, q).seen)


@pytest.mark.parametrize("q", [5, 7])
def test_parabolic_orbit_sizes_match_closed_forms(q):
    gens = bfs_generators(q, "parabolic")
    for rho in (1, companion_rho(q, 1)):
        v_rho = _v_rho(rho, q)
        sign = 1 if is_square_mod(rho, q) else -1
        orbit0 = orbit(v_rho, gens, q)
        assert len(orbit0) == q ** 3 * (q + sign), (q, rho)
        assert not _vectors_of(orbit0, q)[:, 6:].any()
        orbit1 = orbit(_part1_start(rho, q), gens, q)
        assert len(orbit1) == q ** 4 * (q ** 2 - 1), (q, rho)
        assert _vectors_of(orbit1, q)[:, 6:].any(axis=1).all()


def test_map_over_cap_is_refused_before_any_bfs(monkeypatch):
    from g2adjoint import orbits

    # q=5: the occupancy map of V0 has 5^7 = 78125 bytes
    monkeypatch.setattr(orbits, "orbit", None)
    with pytest.raises(ValueError, match="cap of"):
        double_coset_check(23, 2)
    monkeypatch.setattr(orbits, "ORBIT_CAP", 78124)
    with pytest.raises(ValueError, match="cap of 78124"):
        double_coset_check(5, 2)
    monkeypatch.undo()
    monkeypatch.setattr(orbits, "ORBIT_CAP", 78125)
    assert double_coset_check(5, 2).passed


def test_too_small_generating_sets_fail_the_report(monkeypatch):
    from g2adjoint import orbits

    # one element of each set generates only a cyclic group, too little:
    # the report must FAIL, neither crash nor PASS
    real = orbits.bfs_generators
    monkeypatch.setattr(orbits, "bfs_generators", lambda q, which: real(q, which)[:1])
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
    monkeypatch.setattr(
        orbits, "bfs_generators", lambda q, which: real(q, which) + [leave]
    )
    report = double_coset_check(5, 2)
    assert not report.passed
    failed = [c for c in report.checks if c.status == "fail"]
    assert [c.name for c in failed] == ["orbit-inside-norm-sphere"]
    assert failed[0].counterexample == "2 BFS generators leave V0"


def test_g2_orbit_off_the_sphere_fails_the_report(monkeypatch):
    from g2adjoint import orbits

    # the G2 map gains key 0, the zero vector, of norm 0 != 2*rho: the
    # key-space norm check must see it and FAIL
    real = orbits.orbit
    x_al = bfs_generators(5, "full")[0]

    def orbit_off_sphere(start, gens, p):
        out = real(start, gens, p)
        if _contains(gens, x_al) and not out.seen[0]:
            out.seen[0] = True
            out.size += 1
        return out

    monkeypatch.setattr(orbits, "orbit", orbit_off_sphere)
    report = double_coset_check(5, 2)
    failed = {c.name for c in report.checks if c.status == "fail"}
    assert "orbit-inside-norm-sphere" in failed


@pytest.mark.parametrize("wrong", ["too-small", "too-large"])
def test_wrong_parabolic_orbits_fail_the_partition_check(monkeypatch, wrong):
    from g2adjoint import orbits

    # x_a(1) alone reaches only part of each part; the G2 generators leave
    # the v3 = 0 part.  Either way the map comparison must FAIL the
    # partition check, and only it
    real = orbits.bfs_generators

    def gens(q, which):
        if which == "full":
            return real(q, "full")
        return real(q, "parabolic")[:1] if wrong == "too-small" else real(q, "full")

    monkeypatch.setattr(orbits, "bfs_generators", gens)
    report = double_coset_check(5, 2)
    failed = [c.name for c in report.checks if c.status == "fail"]
    assert failed == ["exactly-two-parabolic-orbits"]
