import itertools
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from conftest import random_sl2z, traced_peak
from modgap import modgroup
from modgap.errors import GuardExceeded, InvalidElement
from modgap.modgroup import (
    GroupTable,
    NewSpaceProjector,
    factorize,
    get_group,
    group_order,
    level_average,
    new_space_dimension,
)


def brute_force_count(q):
    # independent pure-python oracle
    n = 0
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if (a * d - b * c) % q == 1:
                        n += 1
    return n


@pytest.mark.parametrize("q,expected", [(2, 6), (4, 48), (5, 120)])
def test_enumeration_matches_brute_force(q, expected):
    assert brute_force_count(q) == expected
    assert get_group(q).order == expected


def test_order_formula_against_brute_force():
    for q in range(2, 13):
        assert group_order(q) == brute_force_count(q)


@pytest.mark.parametrize("q", [*range(2, 13), 16, 25, 27])
def test_enumeration_is_the_lexicographic_det_one_list(q):
    brute = [t for t in itertools.product(range(q), repeat=4)
             if (t[0] * t[3] - t[1] * t[2]) % q == 1]
    table = get_group(q)
    assert table.elems.tolist() == [list(t) for t in brute]
    # the key table is -1 exactly off the group
    keys = [((a * q + b) * q + c) * q + d for a, b, c, d in brute]
    expected = np.full(q**4, -1)
    expected[keys] = np.arange(len(keys))
    assert np.array_equal(table.key_to_index, expected)


@pytest.mark.parametrize("q", [*range(2, 13), 16, 25, 27])
def test_inverse_is_the_adjugate(q):
    table = get_group(q)
    a, b, c, d = table.elems.T
    assert np.array_equal(table.elems[table.inverse], np.stack([d, -b % q, -c % q, a], axis=1))


def _retained_bytes(table):
    return sum(arr.nbytes for arr in (table.elems, table.key_to_index, table.inverse,
                                      table._columns, table._rows))


def test_enumeration_peak_is_near_the_table_it_keeps(monkeypatch):
    # a q^4 int64 grid, eight bytes an entry, would be 8x the int32 key table
    table, peak = traced_peak(lambda: modgroup._enumerate.__wrapped__(32))
    assert peak < 2 * _retained_bytes(table)
    # a fresh cache, so get_group builds q=49 here whatever ran before
    monkeypatch.setattr(modgroup, "_enumerate", lru_cache(modgroup._enumerate.__wrapped__))
    table, peak = traced_peak(lambda: get_group(49, max_q=49))
    assert peak < 2 * _retained_bytes(table)


def test_q81_group_table_stays_under_400_mb_of_process_rss():
    code = ("import resource; from modgap.modgroup import get_group; get_group(81, max_q=81); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    env = {**os.environ, "PYTHONPATH": str(Path(modgroup.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 400 * 1024  # ru_maxrss is in KiB on Linux


def test_guard_range():
    with pytest.raises(GuardExceeded):
        get_group(40)
    with pytest.raises(GuardExceeded):
        get_group(1)


def test_elements_lex_sorted_unique_det_one(t5):
    e = t5.elems
    det = (e[:, 0] * e[:, 3] - e[:, 1] * e[:, 2]) % 5
    assert np.all(det == 1)
    keys = ((e[:, 0] * 5 + e[:, 1]) * 5 + e[:, 2]) * 5 + e[:, 3]
    assert np.all(np.diff(keys) > 0)


def test_index_and_inverse_tables(t5, rng):
    for _ in range(50):
        i = int(rng.integers(t5.order))
        j = int(t5.inverse[i])
        assert t5.products(i, j) == t5.identity_index
        assert t5.products(j, i) == t5.identity_index
        assert t5.index_of(t5.matrix(i)) == i


def test_translations_are_cayley_rows(t5, rng):
    for _ in range(10):
        i = int(rng.integers(t5.order))
        lt = t5.left_translation(i)
        rt = t5.right_translation(i)
        k = int(rng.integers(t5.order))
        assert lt[k] == t5.products(i, k)
        assert rt[k] == t5.products(k, i)


@pytest.mark.parametrize("q", [2, 6, 8, 25, 32])
def test_right_translation_is_the_product_kernel(q, rng):
    # the row-image lookup gives the products of the general kernel, also
    # on an index array of elements and for an index array of factors
    t = get_group(q)
    for i in rng.choice(t.order, min(t.order, 20), replace=False):
        assert np.array_equal(t.right_translation(int(i)), t.products(slice(None), int(i)))
    of = rng.integers(t.order, size=(3, 5))
    hs = rng.integers(t.order, size=4)
    assert np.array_equal(t.right_translation(hs, of=of), t.products(of[None], hs[:, None, None]))


def _exact_product_index(t, i, j):
    # python-int 2x2 product of two table elements, reduced mod q
    (a, b, c, d), (e, f, g, h) = (tuple(int(v) for v in t.elems[k]) for k in (i, j))
    q = t.q
    return t.index_of(((a * e + b * g) % q, (a * f + b * h) % q,
                       (c * e + d * g) % q, (c * f + d * h) % q))


@pytest.mark.parametrize("q", [2, 4, 9, 12])
def test_products_match_exact_integer_products(q, rng):
    t = get_group(q)
    exact = np.vectorize(lambda i, j: _exact_product_index(t, i, j))
    i, j = (int(v) for v in rng.integers(t.order, size=2))
    assert t.products(i, j) == _exact_product_index(t, i, j)
    g = rng.integers(t.order, size=(5, 1))
    h = rng.integers(t.order, size=7)
    out = t.products(g, h)
    assert out.shape == (5, 7)
    assert np.array_equal(out, exact(g, h))
    sl = slice(1, None, 3)
    every = np.arange(t.order)
    assert np.array_equal(t.products(sl, j), exact(every[sl], j))
    assert np.array_equal(t.products(i, sl), exact(i, every[sl]))
    assert np.array_equal(t.products(g, sl), exact(g, every[sl]))


# reduction of an integer matrix mod q goes through GroupTable.index_of
def test_reduce_mod_examples():
    for q, m, reduced in [(7, [[1, 0], [0, 1]], (1, 0, 0, 1)), (2, [[1, 2], [1, 3]], (1, 0, 1, 1)),
                          (3, [[1, 1], [2, 3]], (1, 1, 2, 0))]:
        t = get_group(q)
        assert t.matrix(t.index_of(m)).to_tuple() == reduced


def test_reduce_mod_takes_exact_integers_of_any_size():
    # 2^64 = 1 mod 5; an int64 conversion overflowed here
    t = get_group(5)
    assert t.index_of([[2**64 + 1, 1], [2**64, 1]]) == t.index_of([[2, 1], [1, 1]])


def test_reduce_mod_rejects_bad_determinant():
    # determinant 2 mod 5 is not an element
    with pytest.raises(InvalidElement):
        get_group(5).index_of([[1, 0], [0, 2]])


def test_reduction_is_homomorphism(rng):
    for q, q2 in [(4, 2), (12, 6), (9, 3)]:
        t = get_group(q)
        t2 = get_group(q2)
        for _ in range(200):
            g = random_sl2z(rng)
            h = random_sl2z(rng)
            gh = g @ h
            assert t2.index_of(gh) == t2.products(t2.index_of(g), t2.index_of(h))
            # reducing mod q then mod q2 agrees with reducing mod q2
            gq = t.matrix(t.index_of(g)).to_tuple()
            assert t2.index_of(gq) == t2.index_of(g)


def test_level_average_constants_and_pullbacks(rng):
    t = get_group(4)
    const = np.full(t.order, 2.5)
    assert np.allclose(level_average(t, const, 2), const)
    phi = rng.standard_normal(t.order)
    avg = level_average(t, phi, 2)
    # fiber-constant and idempotent
    assert np.allclose(level_average(t, avg, 2), avg)
    fid, counts, nf = t.fibers(2)
    assert nf == 6 and np.all(counts == t.order / 6)
    for f in range(nf):
        vals = avg[fid == f]
        assert np.allclose(vals, vals[0])


@pytest.mark.parametrize("q", [5, 12])
def test_level_average_matches_a_per_fiber_loop(q, rng):
    # one path for functions and column blocks, real and complex; the
    # summation order may differ from the loop's, so equal to rounding
    t = get_group(q)
    n = t.order
    inputs = (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n),
              rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))
    for q2 in [d for d in range(1, q) if q % d == 0]:
        fid, _, nf = t.fibers(q2)
        for phi in inputs:
            ref = np.empty_like(phi)
            for f in range(nf):
                ref[fid == f] = phi[fid == f].mean(axis=0)
            assert np.abs(level_average(t, phi, q2) - ref).max() < 1e-14


def test_level_average_rejects_non_divisor():
    t = get_group(4)
    phi = np.zeros(t.order)
    with pytest.raises(ValueError):
        level_average(t, phi, 3)
    with pytest.raises(ValueError):
        level_average(t, phi, 4)


def test_new_space_dimensions():
    assert new_space_dimension(5) == 119
    assert new_space_dimension(4) == 48 - 6
    assert new_space_dimension(12) == 1152 - 144 - 48 + 6


def test_new_space_dimension_against_rank():
    # pullback span rank oracle at q=4: functions lifted from level 2
    t = get_group(4)
    t2 = get_group(2)
    fid, _, nf = t.fibers(2)
    basis = np.zeros((t.order, nf))
    basis[np.arange(t.order), fid] = 1.0
    rank = np.linalg.matrix_rank(basis)
    assert rank == t2.order
    assert new_space_dimension(4) == t.order - rank


@pytest.mark.parametrize("q", [4, 5, 12])
def test_projector_invariants(q, rng):
    p = NewSpaceProjector(get_group(q))
    t = p.table
    phi = rng.standard_normal(t.order) + 1j * rng.standard_normal(t.order)
    v = p.apply(phi)
    assert np.abs(p.apply(v) - v).max() < 1e-10  # idempotent
    psi = rng.standard_normal(t.order)
    # self-adjoint
    lhs = np.vdot(p.apply(phi), psi)
    rhs = np.vdot(phi, p.apply(psi))
    assert abs(lhs - rhs) < 1e-10
    # annihilates pullbacks from every proper divisor level
    for q2 in [d for d in range(1, q) if q % d == 0]:
        if q2 == 1:
            pb = np.full(t.order, 1.7)
        else:
            pb = level_average(t, rng.standard_normal(t.order), q2)
        assert np.abs(p.apply(pb)).max() < 1e-10
    # trace equals the advertised dimension
    probe = np.eye(t.order)
    assert round(float(np.trace(p.apply(probe)))) == p.dimension


@pytest.mark.parametrize("q", [8, 9, 16, 24, 32])
def test_stabiliser_coordinates_cover_every_coset(q):
    cosets = get_group(q).cosets()
    reps, perm, _, _, where = cosets.stabiliser
    m = reps.size
    assert np.array_equal(np.sort(where), np.arange(cosets.n))  # a bijection onto the cosets
    assert np.array_equal(perm[np.divmod(where, m)], np.arange(cosets.n))
    assert np.array_equal(where[reps], np.arange(m))


def test_new_space_is_convolution_invariant(rng):
    from modgap.measures import GroupMeasure

    q = 6
    p = NewSpaceProjector(get_group(q))
    t = p.table
    c = np.zeros(t.order, dtype=complex)
    idx = rng.choice(t.order, 10, replace=False)
    c[idx] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    mu = GroupMeasure(t, c)
    phi = p.apply(rng.standard_normal(t.order))
    out = mu.convolve(GroupMeasure(t, phi)).coeffs
    assert np.abs(p.apply(out) - out).max() < 1e-10


def test_group_csv_dump(tmp_path, t5):
    out = tmp_path / "g5.csv"
    t5.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,a,b,c,d,inverse_index"
    assert len(lines) == 1 + t5.order


def test_modulus_factorization():
    assert factorize(12) == ((2, 2), (3, 1))
    assert NewSpaceProjector(get_group(12)).levels == (6, 4)
