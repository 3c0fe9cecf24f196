from fractions import Fraction

import numpy as np
import pytest

from conftest import admissible_words, branch_matrix, measure_on
from modgap.errors import (
    AdmissibilityError,
    DomainError,
    GuardExceeded,
    Guards,
    ModulusMismatch,
)
from modgap.measures import (
    GroupMeasure,
    MeasureParams,
    build_mu,
    build_mu1,
    build_nu,
    cocycle,
)
from modgap.modgroup import get_group
from modgap.symdyn import (
    build_system,
    resolve_point,
    schottky_system,
    word,
)


def sparse_measure(table, rng, k=8, complex_coeffs=True):
    c = np.zeros(table.order, dtype=complex)
    idx = rng.choice(table.order, k, replace=False)
    vals = rng.standard_normal(k)
    if complex_coeffs:
        vals = vals + 1j * rng.standard_normal(k)
    c[idx] = vals
    return GroupMeasure(table, c)


# -- cocycle ----------------------------------------------------------------


def test_cocycle_empty_word(spec12):
    assert cocycle(word(spec12, ()), 7).to_tuple() == (1, 0, 0, 1)


def test_cocycle_reversed_product(spec12):
    # stored (most recent, first applied) = (block 11, block 12):
    # the cocycle multiplies first-applied leftmost
    w = word(spec12, (0, 1))
    m11 = np.array([[1, 1], [1, 2]])
    m12 = np.array([[1, 2], [1, 3]])
    expect = tuple(int(v) for v in (m12 @ m11).reshape(4) % 7)
    assert cocycle(w, 7).to_tuple() == expect


def test_cocycle_concatenation_rule(spec12, rng):
    # cocycle(w1 + w2) = cocycle(w2) @ cocycle(w1) for stored concatenation
    t = get_group(7)
    for _ in range(500):
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(1, 5))
        w1 = word(spec12, tuple(rng.integers(4, size=n1)))
        w2 = word(spec12, tuple(rng.integers(4, size=n2)))
        whole = word(spec12, w1.letters + w2.letters)
        i = t.index_of(cocycle(whole, 7))
        j = int(t.products(t.index_of(cocycle(w2, 7)), t.index_of(cocycle(w1, 7))))
        assert i == j


def test_cocycle_matches_exact_integer_product(spec12, rng):
    for q in (3, 4, 5, 8, 9):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            w = word(spec12, tuple(rng.integers(4, size=n)))
            a, b, c, d = branch_matrix(word(spec12, tuple(reversed(w.letters))))
            assert cocycle(w, q).to_tuple() == (a % q, b % q, c % q, d % q)


# -- builders ----------------------------------------------------------------


def test_mu1_frozen_example(spec12):
    p = MeasureParams(spec=spec12, q=2, s=0.5, r_len=1, base=0.0)
    m = build_mu1(p)
    t = get_group(2)
    got = {
        tuple(int(v) for v in t.elems[i]): m.coeffs[i].real for i in m.support
    }
    assert got == pytest.approx(
        {
            (1, 1, 1, 0): 0.5,
            (1, 0, 1, 1): 1 / 3,
            (1, 1, 0, 1): 1 / 3,
            (1, 0, 0, 1): 0.2,
        }
    )
    assert m.l1 == pytest.approx(float(Fraction(41, 30)))


def test_mu1_r0_is_identity_dirac(spec12):
    m = build_mu1(MeasureParams(spec=spec12, q=3, s=0.5, r_len=0))
    t = get_group(3)
    assert m.n_support == 1
    assert m.coeffs[t.identity_index] == 1.0


def test_mu1_mass_independent_of_q(spec12):
    masses = {
        q: build_mu1(MeasureParams(spec=spec12, q=q, s=0.5, r_len=3, base=0.0)).l1
        for q in (2, 5, 9)
    }
    vals = list(masses.values())
    assert vals[0] == pytest.approx(vals[1]) == pytest.approx(vals[2])


def test_nu_prefix_scaling(spec12):
    p0 = MeasureParams(spec=spec12, q=2, s=0.5, r_len=1, base=0.0)
    p1 = MeasureParams(spec=spec12, q=2, s=0.5, r_len=1, prefix=(0,), base=0.0)
    mu1 = build_mu1(p0)
    nu = build_nu(p1)
    assert np.allclose(nu.coeffs, 0.5 * mu1.coeffs)
    # empty prefix: nu is exactly mu1
    assert np.allclose(build_nu(p0).coeffs, mu1.coeffs, atol=1e-12)
    assert np.all(nu.coeffs.real[nu.support] > 0)


def test_nu_rejects_inadmissible_prefix(schottky):
    p = MeasureParams(spec=schottky, q=3, s=0.4, r_len=1, prefix=(0, 1))
    with pytest.raises(AdmissibilityError):
        build_nu(p)


def test_nu_restricts_suffixes_in_subshift(schottky):
    # suffix words may not start with the inverse of the prefix's last letter
    p = MeasureParams(spec=schottky, q=3, s=0.4, r_len=1, prefix=(0,))
    nu = build_nu(p)
    mu1 = build_mu1(MeasureParams(spec=schottky, q=3, s=0.4, r_len=1))
    assert nu.n_support < mu1.n_support or nu.l1 < mu1.l1


def test_numeric_schottky_base_resolves_to_its_interval():
    # 0.5 lies in the interval of H (letter 3); every letter once had it as
    # its representative, and the base resolved to letter 0's interval
    sch = build_system({"mode": "schottky", "base_point": 0.5})
    assert resolve_point(sch, None) == resolve_point(sch, 0.5) == (0.5, 3)
    with pytest.raises(DomainError):
        resolve_point(sch, None, innermost=2)  # H may not follow h
    masses = [build_mu1(MeasureParams(spec=sch, q=7, s=0.3, r_len=3, base=b)).l1
              for b in (None, 0.5)]
    assert masses[0] == masses[1]
    mid = schottky_system()
    assert resolve_point(mid, None) == (mid.letters[0].rep, 0) == (12 / 5, 0)


def test_mu_reduces_to_mu1(spec12):
    p = MeasureParams(spec=spec12, q=2, s=complex(0.5, 0.0), r_len=2, x=0.0, base=0.0)
    assert np.allclose(build_mu(p).coeffs, build_mu1(p).coeffs, atol=1e-12)


def test_mu_phases_only(spec12):
    # collision-free setting: per-point modulus is the b=0 coefficient
    base = MeasureParams(spec=spec12, q=7, s=complex(0.5, 0.0), r_len=1, x=0.3, base=0.3)
    osc = MeasureParams(spec=spec12, q=7, s=complex(0.5, 2.0), r_len=1, x=0.3, base=0.3)
    m0 = build_mu(base)
    m1 = build_mu(osc)
    assert m1.n_support == 4
    assert np.allclose(np.abs(m1.coeffs), np.abs(m0.coeffs))
    assert m1.l1 == pytest.approx(m0.l1)


def test_mu_support_matches_mu1(spec12):
    p = MeasureParams(spec=spec12, q=5, s=complex(0.5, 1.0), r_len=3, x=0.2, base=0.6)
    mu = build_mu(p)
    mu1 = build_mu1(p)
    assert set(mu.support) <= set(mu1.support)
    assert mu.l1 <= mu1.l1 * np.exp(0.5 * 2.0)  # crude distortion cap


def test_mu_domination_by_nu(spec12):
    # |mu| <= C nu with C controlled by the measured per-word distortion
    from modgap.symdyn import evaluate_branch, word

    a, x, o = 0.5, 0.1, 0.9
    p = MeasureParams(
        spec=spec12, q=5, s=complex(a, 1.0), r_len=4, prefix=(2,), x=x, base=o
    )
    mu = build_mu(p)
    nu = build_nu(p)
    # smallest C with |mu| <= C nu pointwise; mu has no mass off nu's support
    on = nu.coeffs.real > 0
    assert not np.any(mu.coeffs[~on])
    C = float(np.max(np.abs(mu.coeffs[on]) / nu.coeffs.real[on]))
    # per-word log ratio: composed derivative at x against the split
    # prefix/suffix derivatives at the base point
    ld_prefix_o = evaluate_branch(word(spec12, (2,)), x=o)[0].log_deriv
    c_dist = 0.0
    for w in admissible_words(spec12, 4):
        full = word(spec12, (2,) + w.letters)
        ld_full_x = evaluate_branch(full, x=x)[0].log_deriv
        ld_suffix_o = evaluate_branch(w, x=o)[0].log_deriv
        c_dist = max(c_dist, abs(ld_full_x - ld_prefix_o - ld_suffix_o))
    assert C <= np.exp(a * c_dist) + 1e-9
    assert C >= 1.0 - 1e-12


def test_guard_exceeded(spec12):
    p = MeasureParams(spec=spec12, q=3, s=0.5, r_len=12, guards=Guards(max_words=1000))
    with pytest.raises(GuardExceeded):
        build_mu1(p)


# -- algebra -----------------------------------------------------------------


def test_dirac_convolution(t5, rng):
    for _ in range(20):
        i, j = (int(v) for v in rng.integers(t5.order, size=2))
        d = measure_on(t5, [i], [1.0]).convolve(measure_on(t5, [j], [1.0]))
        assert d.n_support == 1
        assert d.support[0] == t5.products(i, j)


def test_identity_is_two_sided_unit(t5, rng):
    e = measure_on(t5, [t5.identity_index], [1.0])
    m = sparse_measure(t5, rng)
    assert np.allclose(e.convolve(m).coeffs, m.coeffs, atol=1e-12)
    assert np.allclose(m.convolve(e).coeffs, m.coeffs, atol=1e-12)


def test_convolution_associative(t5, rng):
    a = sparse_measure(t5, rng, 5)
    b = sparse_measure(t5, rng, 7)
    c = sparse_measure(t5, rng, 6)
    lhs = a.convolve(b).convolve(c)
    rhs = a.convolve(b.convolve(c))
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_convolution_mass_inequality(t5, rng):
    a = sparse_measure(t5, rng)
    b = sparse_measure(t5, rng)
    assert a.convolve(b).l1 <= a.l1 * b.l1 + 1e-12


def test_modulus_mismatch(t5):
    other = measure_on(get_group(7), [0], [1.0])
    with pytest.raises(ModulusMismatch):
        measure_on(t5, [0], [1.0]).convolve(other)


def test_reduction_moves_each_mass_to_its_level(rng):
    t12, t4 = get_group(12), get_group(4)
    m = measure_on(t12, rng.choice(t12.order, 40, replace=False), rng.random(40) + 1j)
    want = np.zeros(t4.order, dtype=complex)
    for g in m.support:
        want[t4.index_of(tuple(int(v) % 4 for v in t12.elems[g]))] += m.coeffs[g]
    assert np.allclose(m.reduced(t4).coeffs, want, rtol=0, atol=1e-14)
    with pytest.raises(ModulusMismatch):
        m.reduced(get_group(5))


def test_reverse_involution_and_dirac(t5, rng):
    m = sparse_measure(t5, rng)
    assert np.allclose(m.reverse().reverse().coeffs, m.coeffs, atol=1e-12)
    i = int(rng.integers(t5.order))
    d = measure_on(t5, [i], [1j]).reverse()
    assert d.support[0] == t5.inverse[i]
    assert d.coeffs[t5.inverse[i]] == -1j


def test_reverse_conv_self_is_hermitian(t5, rng):
    m = sparse_measure(t5, rng)
    h = m.reverse().convolve(m)
    assert np.allclose(h.coeffs, h.reverse().coeffs, atol=1e-12)


def test_convolution_youngs_inequality(t5, rng):
    for _ in range(1000):
        m = sparse_measure(t5, rng, k=int(rng.integers(1, 12)))
        phi = rng.standard_normal(t5.order) + 1j * rng.standard_normal(t5.order)
        out = m.convolve(GroupMeasure(t5, phi)).coeffs
        assert np.linalg.norm(out) <= m.l1 * np.linalg.norm(phi) + 1e-9


def test_convolution_with_a_dirac_is_a_right_translation(t5, rng):
    # (mu * delta_g)(x g) = mu(x), one term per cell
    m = sparse_measure(t5, rng)
    g = int(rng.integers(t5.order))
    out = m.convolve(measure_on(t5, [g], [1.0])).coeffs
    assert np.array_equal(out[t5.right_translation(g)], m.coeffs)


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("k", [0, 1, 4, "full"])
def test_convolution_matches_the_dense_matrix(t5, rng, monkeypatch, k, chunk):
    # mu * nu = M(mu) nu, M the dense left-convolution matrix; a small
    # _CHUNK splits one convolution over several chunks of support pairs
    from modgap import measures
    from modgap.spectral import dense_conv_matrix

    if chunk is not None:
        monkeypatch.setattr(measures, "_CHUNK", chunk)
    n = t5.order
    full = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    mu = GroupMeasure(t5, full) if k == "full" else sparse_measure(t5, rng, k=k)
    for nu in (sparse_measure(t5, rng, k=5), GroupMeasure(t5, full[::-1])):
        for a, b in ((mu, nu), (nu, mu)):
            out = a.convolve(b).coeffs
            ref = dense_conv_matrix(a) @ b.coeffs
            assert np.allclose(out, ref, rtol=0, atol=1e-12 * max(1.0, a.l1 * b.l1))


def test_cocycle_splitting_identity(spec12):
    # Dirac at the R-word cocycle = convolution of the block Diracs
    for r_prime in (2, 3):
        L = 2
        t = get_group(5)
        for w in admissible_words(spec12, L * r_prime):
            target = measure_on(t, [t.index_of(cocycle(w, 5))], [1.0])
            n = len(w.letters)
            prod = None
            for j in range(1, r_prime + 1):
                block = word(spec12, w.letters[n - j * L : n - (j - 1) * L])
                d = measure_on(t, [t.index_of(cocycle(block, 5))], [1.0])
                prod = d if prod is None else prod.convolve(d)
            assert np.allclose(prod.coeffs, target.coeffs, atol=1e-12)


def test_support_coverage_grows(spec12):
    cov = [
        build_mu1(MeasureParams(spec=spec12, q=5, s=0.5, r_len=r)).n_support / 120
        for r in (1, 2, 3, 4, 6)
    ]
    assert all(b >= a for a, b in zip(cov, cov[1:]))
    assert cov[0] == pytest.approx(4 / 120)
    assert cov[-1] == 1.0


def test_measure_csv_roundtrip(tmp_path, spec12):
    m = build_mu1(MeasureParams(spec=spec12, q=3, s=0.5, r_len=2))
    out = tmp_path / "m.csv"
    m.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,a,b,c,d,re_coef,im_coef"
    assert len(lines) == 1 + m.n_support


def test_norm_caches_consistent(t5, rng):
    m = sparse_measure(t5, rng)
    assert m.l1 == pytest.approx(np.abs(m.coeffs).sum(), abs=1e-12)
    assert m.l2 == pytest.approx(np.linalg.norm(m.coeffs), abs=1e-12)


def test_support_matches_nonzero_on_edge_entries(t5):
    coeffs = np.zeros(t5.order, dtype=complex)
    coeffs[[3, 7, 11, 19, 23, 40]] = [-0.0, 1e-300j, np.nan, complex(0.0, -0.0),
                                      complex(-1e-300, 0.0), complex(np.nan, np.nan)]
    coeffs[50] = complex(-0.0, -0.0)
    support = GroupMeasure(t5, coeffs).support
    np.testing.assert_array_equal(support, [7, 11, 23, 40])
    np.testing.assert_array_equal(support, np.nonzero(coeffs)[0])
