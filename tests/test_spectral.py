import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    eta_gap_oracle,
    measure_on,
    split_blocks_oracle,
    stabiliser_isometries,
    traced_peak,
    unsplit_blocks,
)
from modgap import decouple, spectral
from modgap.decouple import enumerate_etas, make_context, build_eta
from modgap.errors import ConvergenceError, DomainError, EstimationError, GuardExceeded, ModgapError
from modgap.measures import GroupMeasure, MeasureParams, build_mu, build_mu1, build_nu
from modgap.modgroup import NewSpaceProjector, get_group
from modgap.spectral import (
    _lanczos,
    ConvOperator,
    LemmaExpandTester,
    dense_conv_matrix,
    dense_operator_norm,
    dense_subspace_projector,
    digit_difference_quotients,
    eta_gap,
    fit_decay_exponent,
    isotypic_blocks,
    letter_pair_quotients,
    main_sweep,
    mu1_decay,
    nu_autocorrelation,
    operator_norm,
    sweep_r_length,
    trace_identity_check,
    write_sweep_csv,
    zariski_check,
)


def test_identity_dirac_norm(t5):
    identity = measure_on(t5, [t5.identity_index], [1.0])
    rep = operator_norm(ConvOperator(identity, "mean_zero"))
    assert rep.norm == pytest.approx(1.0, abs=1e-9)


def test_uniform_measure_annihilates_mean_zero(t5):
    uniform = GroupMeasure(t5, np.full(t5.order, 1.0 / t5.order))
    rep = operator_norm(ConvOperator(uniform, "mean_zero"))
    assert rep.norm == 0.0


def test_lanczos_matches_dense_oracle(spec12, a12):
    # spec invariant: match to 1e-7 on every group with |G| <= 400
    for q in (2, 3, 4, 5, 6, 7):
        p = MeasureParams(spec=spec12, q=q, s=complex(a12, 1.0), r_len=2, x=0.2, base=0.6)
        mu = build_mu(p)
        for sub in ("mean_zero", "new_space"):
            rep = operator_norm(ConvOperator(mu, sub))
            oracle = dense_operator_norm(mu, sub)
            assert abs(rep.norm - oracle) < 1e-7
            assert rep.converged and rep.residual < 1e-3


def test_mu1_q2_dense_match(spec12):
    p = MeasureParams(spec=spec12, q=2, s=0.5, r_len=1, base=0.0)
    m = build_mu1(p)
    rep = operator_norm(ConvOperator(m, "mean_zero"))
    assert abs(rep.norm - dense_operator_norm(m, "mean_zero")) < 1e-8


def test_operator_preserves_subspace(spec12, a12, rng):
    q = 8
    p = MeasureParams(spec=spec12, q=q, s=complex(a12, 1.0), r_len=2)
    mu = build_mu(p)
    proj = NewSpaceProjector(get_group(q))
    v = proj.apply(rng.standard_normal(get_group(q).order))
    out = mu.convolve(GroupMeasure(mu.table, v)).coeffs
    assert np.linalg.norm(out - proj.apply(out)) < 1e-9 * max(np.linalg.norm(out), 1)


def test_norm_ordering_across_subspaces(spec12, a12):
    p = MeasureParams(spec=spec12, q=8, s=a12, r_len=4)
    m = build_mu1(p)
    n_new = operator_norm(ConvOperator(m, "new_space")).norm
    n_mz = operator_norm(ConvOperator(m, "mean_zero")).norm
    assert n_new <= n_mz + 1e-9
    assert n_mz <= m.l1 + 1e-9


def test_left_right_convention_norms_agree(t5, rng):
    # the right-regular action has the same operator norm as the left one
    c = np.zeros(t5.order, dtype=complex)
    idx = rng.choice(t5.order, 9, replace=False)
    c[idx] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    m = GroupMeasure(t5, c)
    M_left = dense_conv_matrix(m)
    n = t5.order
    M_right = np.zeros((n, n), dtype=complex)
    for g in m.support:
        M_right[t5.right_translation(int(g)), np.arange(n)] += m.coeffs[g]
    P0 = np.eye(n) - np.full((n, n), 1.0 / n)
    s_left = np.linalg.svd(M_left @ P0, compute_uv=False)[0]
    s_right = np.linalg.svd(M_right @ P0, compute_uv=False)[0]
    assert abs(s_left - s_right) < 1e-9


def test_convergence_error_carries_best_estimate(spec12, a12):
    p = MeasureParams(spec=spec12, q=5, s=a12, r_len=2)
    m = build_mu1(p)
    with pytest.raises(ConvergenceError) as exc:
        operator_norm(ConvOperator(m, "mean_zero"), tol=1e-30, max_iter=3)
    assert exc.value.report is not None
    assert exc.value.report.norm > 0
    with pytest.raises(ValueError, match="max_iter"):
        operator_norm(ConvOperator(m, "mean_zero"), max_iter=0)


# -- isotypic block representation ----------------------------------------------


def _sweep_mu(spec, a, q):
    """The headline sweep's measure at q; almost fully supported."""
    r_len = sweep_r_length(q, 2, 2.2)
    return build_mu(MeasureParams(spec=spec, q=q, s=complex(a, 1.0), r_len=r_len))


def _block_norms(mu, ts):
    """Exact norm of each bare block M_t, by SVD of the unsplit oracle."""
    return [float(np.linalg.svd(m, compute_uv=False)[0]) for m in unsplit_blocks(mu, ts)]


def _lifts(cosets, t):
    """The (|G|, n) lifts to V_t of the coset basis vectors."""
    return np.exp(2j * np.pi * t * cosets.beta / cosets.q)[:, None] * np.eye(cosets.n)[cosets.cid]


@pytest.mark.parametrize("q", [6, 8, 9, 12])
def test_blocks_are_the_restrictions_to_each_character(q, rng):
    # at every t, not only the maximal one, M_t in coset coordinates is the
    # dense convolution matrix on V_t; at every unit t, V_t lies in E_q
    t = get_group(q)
    cosets = t.cosets()
    proj = NewSpaceProjector(t)
    mu = GroupMeasure(t, rng.standard_normal(t.order) + 1j * rng.standard_normal(t.order))
    conv = dense_conv_matrix(mu)
    blocks = unsplit_blocks(mu, range(q))
    for char in range(q):
        lifts = _lifts(cosets, char)
        assert np.abs(blocks[char] - (conv @ lifts)[cosets.section]).max() < 1e-12
        if math.gcd(char, q) == 1:
            assert np.abs(proj.apply(lifts) - lifts).max() < 1e-12


@pytest.mark.parametrize("q", [16, 18, 20, 24])
def test_unit_blocks_attain_the_new_space_norm(spec12, a12, q, rng):
    # the largest bare unit block against the largest block M_t P_t over
    # every orbit, with P_t the dense E_q projector on the lifts to V_t
    t = get_group(q)
    cosets = t.cosets()
    proj = NewSpaceProjector(t)
    reps = cosets.torus_orbits()
    measures = (_sweep_mu(spec12, a12, q), _random_measure(t, t.order, rng))
    blocks = [unsplit_blocks(mu, reps) for mu in measures]
    projected = np.zeros((len(measures), len(reps)))
    for k, char in enumerate(reps):
        p = proj.apply(_lifts(cosets, char))[cosets.section]
        for i, b in enumerate(blocks):
            projected[i, k] = np.linalg.svd(b[k] @ p, compute_uv=False)[0]
    units = [c for c in reps if math.gcd(c, q) == 1]
    for mu, row in zip(measures, projected):
        assert max(_block_norms(mu, units)) == pytest.approx(row.max(), rel=1e-12)


@pytest.mark.parametrize("q", [2, 3, 4, 6, 8, 9, 10, 12])
def test_block_engine_matches_dense_oracle(spec12, a12, q):
    mu = _sweep_mu(spec12, a12, q)
    assert mu.n_support * q >= mu.table.order
    for sub in ("full", "mean_zero", "new_space"):
        rep = operator_norm(ConvOperator(mu, sub), tol=1e-13)
        assert rep.block is not None and rep.converged
        oracle = dense_operator_norm(mu, sub)
        assert rep.norm == pytest.approx(oracle, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("q", [8, 9, 13])
def test_torus_orbit_representatives_attain_the_maximum(spec12, a12, q):
    mu = _sweep_mu(spec12, a12, q)
    every = _block_norms(mu, range(q))
    reps = mu.table.cosets().torus_orbits()
    assert len(reps) == {8: 8, 9: 5, 13: 3}[q]
    assert max(every[t] for t in reps) == pytest.approx(max(every), rel=1e-12)
    # blocks of one orbit t -> u^2 t have equal norms
    units = [u for u in range(1, q) if math.gcd(u, q) == 1]
    for t in range(q):
        for u in units:
            assert every[u * u * t % q] == pytest.approx(every[t], rel=1e-10, abs=1e-14)


def test_block_certificate_past_the_dense_guard(spec12, a12):
    q = 19
    mu = _sweep_mu(spec12, a12, q)
    table = mu.table
    assert table.order > 2500
    proj = NewSpaceProjector(table)
    rep = operator_norm(ConvOperator(mu, "new_space"))
    t = rep.block
    assert math.gcd(t, q) == 1
    (m,) = unsplit_blocks(mu, [t])
    f = np.linalg.svd(m)[2][0].conj()  # top right singular vector
    phi = _lifts(table.cosets(), t) @ f
    assert np.linalg.norm(proj.apply(phi) - phi) <= 1e-10 * np.linalg.norm(phi)
    gain = np.linalg.norm(mu.convolve(GroupMeasure(table, phi)).coeffs) / np.linalg.norm(phi)
    assert gain == pytest.approx(rep.norm, rel=1e-8)
    # Parseval along the unipotent characters; the split keeps each block's
    # Frobenius norm
    every = isotypic_blocks(mu, range(q))
    frob = float(np.sum(np.abs(every) ** 2))
    assert frob == pytest.approx(table.order * mu.l2**2, rel=1e-12)


def _stabiliser(q):
    """The u with u^2 = 1 mod q."""
    return [u for u in range(1, q) if u * u % q == 1]


@pytest.mark.parametrize("q", [9, 16, 25, 27, 32])
def test_stabiliser_commutes_with_every_block(q, rng):
    # with u I s_i = s_pi(i) u_gamma(i), R_u f(i) = e(t gamma(i) / q) f(pi(i))
    # moves every coset for u != 1 and commutes with every M_t (Frobenius norms)
    table = get_group(q)
    cosets = table.cosets()
    mu = _random_measure(table, table.order, rng)
    ts = cosets.torus_orbits()
    units = _stabiliser(q)
    perm, gamma = cosets.left_action([table.index_of([[u, 0], [0, u]]) for u in units])
    assert all(u == 1 or (p != np.arange(cosets.n)).all() for u, p in zip(units, perm))
    for t, m in zip(ts, unsplit_blocks(mu, ts)):
        for p, g in zip(perm, gamma):
            phase = np.exp(2j * np.pi * t * g / q)
            r_m = phase[:, None] * m[p]  # R_u M_t
            m_r = np.empty_like(m)
            m_r[:, p] = m * phase  # M_t R_u
            assert np.linalg.norm(m_r - r_m) <= 1e-13 * np.linalg.norm(m)


@pytest.mark.parametrize("q", [8, 9, 12, 13, 16, 24])
def test_split_blocks_keep_every_singular_value(q, rng):
    # the |S| blocks of M_t are its compressions to the chi-eigenspaces of S:
    # pooled, they carry its singular values, and with the isometries E_chi,
    # E_chi[perm_z(r), r] = chi(z) e(-t gamma_z(r) / q) / sqrt|S|, side by
    # side as one unitary E, E^H M_t E is block diagonal with them
    table = get_group(q)
    cosets = table.cosets()
    n = cosets.n
    mu = _random_measure(table, table.order, rng)
    split = isotypic_blocks(mu, range(q))
    size = len(_stabiliser(q))
    m = n // size
    assert split.shape == (q, size, m, m)
    for t, (blocks, block) in enumerate(zip(split, unsplit_blocks(mu, range(q)))):
        pooled = np.sort(np.concatenate([np.linalg.svd(b, compute_uv=False) for b in blocks]))
        exact = np.linalg.svd(block, compute_uv=False)[::-1]
        assert np.abs(pooled - exact).max() <= 1e-12 * exact[-1]
        e = stabiliser_isometries(cosets, t).transpose(1, 0, 2).reshape(n, n)
        assert np.abs(e.conj().T @ e - np.eye(n)).max() < 1e-12
        diagonal = np.zeros((n, n), dtype=complex)
        for x, b in enumerate(blocks):
            diagonal[x * m:(x + 1) * m, x * m:(x + 1) * m] = b
        assert np.abs(e.conj().T @ block @ e - diagonal).max() <= 1e-12 * exact[-1]


@pytest.mark.parametrize("q", [8, 12, 24, 25])
def test_folded_monomials_are_the_compressed_translations(q, rng):
    # on the chi-eigenspace of S, E_chi^H M_t(delta(g)) E_chi is the monomial
    # f(r) -> chi(z) e(t b / q) f(r') with g^-1 s_r = s_c u_beta = z s_r' u_b,
    # (z, r') read from the S-orbit coordinates of c and b = beta - gamma_z(r')
    table = get_group(q)
    cosets = table.cosets()
    reps, _, gamma, chars, where = cosets.stabiliser
    m = reps.size
    for g in rng.integers(table.order, size=3):
        idx = table.products(table.inverse[g], cosets.section[reps])
        z, r2 = np.divmod(where[cosets.cid[idx]], m)
        b = cosets.beta[idx] - gamma[z, r2]
        delta = measure_on(table, [g], [1.0])
        for t, block in enumerate(unsplit_blocks(delta, range(q))):
            for chi, e in zip(chars, stabiliser_isometries(cosets, t)):
                folded = np.zeros((m, m), dtype=complex)
                folded[np.arange(m), r2] = chi[z] * np.exp(2j * np.pi * t * b / q)
                assert np.abs(e.conj().T @ block @ e - folded).max() < 1e-12


@pytest.mark.parametrize("q", [9, 16, 25, 27, 32])
def test_sweep_norm_meets_the_exact_unit_blocks(spec12, a12, q):
    # the residual-gated Ritz value of the largest split block sits within the
    # residual squared (over the spectral gap) of the top eigenvalue, so at
    # tol=1e-8 it meets the exact unsplit unit blocks to rounding
    (row,), _ = main_sweep(spec12, [q], a12, b=1.0)
    mu = _sweep_mu(spec12, a12, q)
    units = [t for t in mu.table.cosets().torus_orbits() if math.gcd(t, q) == 1]
    assert row.opnorm_eq == pytest.approx(max(_block_norms(mu, units)), rel=1e-12)


@pytest.mark.parametrize("q", [8, 9, 16])
def test_lanczos_brackets_every_block(spec12, a12, q):
    # lam, the Rayleigh quotient of the Ritz vector, is a lower bound up to
    # rounding, and its explicit residual bounds how far below it sits; on
    # every split block that operator_norm solves
    mu = _sweep_mu(spec12, a12, q)
    ts = ConvOperator(mu, "new_space").orbits()
    rng = np.random.default_rng(7)
    blocks = isotypic_blocks(mu, ts)
    for m in blocks.reshape(-1, *blocks.shape[2:]):
        exact = float(np.linalg.svd(m, compute_uv=False)[0]) ** 2
        v0 = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
        lam, residual, steps, converged = _lanczos(
            lambda v, m=m: m.conj().T @ (m @ v), v0, 1e-8, 5000)
        assert converged and steps <= m.shape[1]
        assert lam <= exact * (1 + 1e-12)
        assert exact - lam <= residual + 1e-12 * exact


def _solve_every_block(mu, ts, tol=1e-8, seed=7):
    """`operator_norm` without the skip: every split block above the zero
    floor solved, with the start vectors drawn in block order. Returns
    (norm, block, residual, iters, (lam or None per block), top)."""
    split = isotypic_blocks(mu, ts)
    orbit = np.repeat(ts, split.shape[1])
    split = split.reshape(-1, *split.shape[2:])
    floor = split.shape[-1] * np.finfo(float).eps * mu.l1**2
    rng = np.random.default_rng(seed)
    results, lams, iters = [], [], 0
    for t, m in zip(orbit, split):
        if np.vdot(m, m).real <= floor:
            results.append((0.0, 0.0, t))
            lams.append(None)
            continue
        v0 = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
        lam, residual, steps, done = _lanczos(
            lambda v, m=m: np.conj(np.conj(m @ v) @ m), v0, tol, 5000)
        assert done
        iters += steps
        results.append((lam, residual, t))
        lams.append(lam)
    top = max(r[0] for r in results)
    _, residual, block = min((r for r in results if r[0] >= (1.0 - 100.0 * tol) * top),
                             key=lambda r: r[2])
    return math.sqrt(top), int(block), residual, iters, lams, top


@pytest.fixture(scope="module")
def sweep_rows(spec12, a12):
    rows, _ = main_sweep(spec12, range(2, 33), a12, b=1.0)
    return {r.q: r for r in rows}


@pytest.mark.parametrize("q", range(2, 33))
def test_skipped_blocks_keep_every_bit(spec12, a12, sweep_rows, q):
    # the sweep solves only the blocks whose Frobenius bound reaches the best
    # Rayleigh quotient so far; its norm, block and residual are those of
    # solving every block from the same start vectors
    mu = _sweep_mu(spec12, a12, q)
    op = ConvOperator(mu, "new_space")
    norm, block, residual, iters, lams, _ = _solve_every_block(mu, op.orbits())
    row = sweep_rows[q]
    assert not row.skipped_reason
    assert (row.opnorm_eq, row.max_block) == (norm, block)
    rep = operator_norm(op)
    assert (rep.norm, rep.block, rep.residual) == (norm, block, residual)
    assert (row.iters, row.solved) == (rep.iters, rep.solved)
    assert rep.iters <= iters and rep.solved <= sum(lam is not None for lam in lams)


@pytest.mark.parametrize("q", [8, 12, 16, 24])
def test_skipped_blocks_cannot_attain_the_norm(spec12, a12, q, monkeypatch):
    # each block skipped has its exact top eigenvalue below the window of the
    # maximum, and at these moduli the skip saves Lanczos steps
    mu = _sweep_mu(spec12, a12, q)
    op = ConvOperator(mu, "new_space")
    _, _, _, iters, lams, top = _solve_every_block(mu, op.orbits())
    starts = []

    def recording(apply, v0, tol, max_iter):
        starts.append(v0)
        return _lanczos(apply, v0, tol, max_iter)

    monkeypatch.setattr(spectral, "_lanczos", recording)
    rep = operator_norm(op)
    assert rep.iters < iters and rep.solved == len(starts)
    # the solved blocks, named by their start vectors, drawn as the oracle draws them
    rng = np.random.default_rng(7)
    split = isotypic_blocks(mu, op.orbits())
    split = split.reshape(-1, *split.shape[2:])
    skipped = []
    for lam, m in zip(lams, split):
        if lam is None:
            continue
        v0 = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
        if not any(np.array_equal(v0, s) for s in starts):
            skipped.append(m)
    assert len(skipped) == sum(lam is not None for lam in lams) - rep.solved > 0
    for m in skipped:
        exact = float(np.linalg.svd(m, compute_uv=False)[0]) ** 2
        assert exact < (1.0 - 100.0 * 1e-8) * top


@pytest.mark.parametrize("q", [8, 13, 16, 19, 32])
def test_block_build_matches_the_per_column_translations(spec12, a12, q, rng):
    # the build packs the coset grid's rows once per call; each column's
    # blocks are bit-equal to one right translation regathered on the grid
    table = get_group(q)
    for mu in (_sweep_mu(spec12, a12, q), _random_measure(table, table.order // 3, rng)):
        ts = ConvOperator(mu, "new_space").orbits()
        assert np.array_equal(isotypic_blocks(mu, ts), split_blocks_oracle(mu, ts))
        if q <= 16:
            ts = ConvOperator(mu, "full").orbits()
            assert np.array_equal(isotypic_blocks(mu, ts), split_blocks_oracle(mu, ts))


@pytest.mark.parametrize("q", [8, 13, 16, 19, 32])
def test_block_build_holds_one_column_beside_the_blocks(spec12, a12, q):
    # past the blocks themselves, the build holds O(|G|) bytes: the packed
    # grid rows and one column's gathers, whatever the number of columns
    mu = _sweep_mu(spec12, a12, q)
    ts = ConvOperator(mu, "new_space").orbits()
    isotypic_blocks(mu, ts)  # the coset tables are built once per group
    blocks, peak = traced_peak(lambda: isotypic_blocks(mu, ts))
    assert peak <= blocks.nbytes + 64 * mu.table.order


def test_support_rule_picks_the_representation(rng):
    # no support-size rule is left: a |G|/q-point and a (|G|/q - 1)-point
    # measure both take the split blocks and name the character they solve
    q = 8
    t = get_group(q)
    n = t.order // q
    for size in (n, n - 1):
        mu = _random_measure(t, size, rng)
        op = ConvOperator(mu, "new_space")
        rep = operator_norm(op, tol=1e-13)
        assert rep.block in op.orbits()
        assert rep.norm == pytest.approx(dense_operator_norm(mu, "new_space"), rel=1e-9)


# -- sparse measures on the split blocks ----------------------------------------


def _random_measure(table, size, rng):
    c = np.zeros(table.order, dtype=complex)
    idx = rng.choice(table.order, size, replace=False)
    c[idx] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return GroupMeasure(table, c)


@pytest.mark.parametrize("q", [2, 3, 4, 6, 8, 9, 10, 12])
def test_sparse_blocks_match_dense_oracle(spec12, a12, q, rng):
    # every support size goes through the same split blocks: 1, 4 and
    # |G|/q - 1 points, and a 4-point per-block measure
    t = get_group(q)
    n = t.order // q
    measures = [_random_measure(t, size, rng) for size in sorted({1, min(4, n - 1), n - 1})]
    measures += [e.measure for e in list(enumerate_etas(spec12, q, a12, 2, base=0.0))[:1]]
    for mu in measures:
        for sub in ("full", "mean_zero", "new_space"):
            op = ConvOperator(mu, sub)
            rep = operator_norm(op, tol=1e-13, max_iter=50_000)
            assert rep.block in op.orbits() and rep.converged
            assert rep.iters <= n * len(op.orbits())
            oracle = dense_operator_norm(mu, sub)
            assert rep.norm == pytest.approx(oracle, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("q", [6, 8, 9, 12])
def test_coset_action_densifies_to_the_blocks(q, rng):
    # g^-1 s_c = s_pi(c) u_b(c) gives M_t[c, pi(c)] += mu(g) e(t b(c) / q)
    t = get_group(q)
    cosets = t.cosets()
    mu = _random_measure(t, 7, rng)
    supp = mu.support
    perm, beta = cosets.left_action(t.inverse[supp])
    assert all(np.array_equal(np.sort(p), np.arange(cosets.n)) for p in perm)
    rows = np.broadcast_to(np.arange(cosets.n), perm.shape)
    blocks = unsplit_blocks(mu, range(q))
    for char in range(q):
        dense = np.zeros((cosets.n, cosets.n), dtype=complex)
        np.add.at(dense, (rows, perm),
                  mu.coeffs[supp][:, None] * np.exp(2j * np.pi * char * beta / q))
        assert np.abs(dense - blocks[char]).max() < 1e-12


def test_sparse_gap_past_the_dense_guard(spec12, a12):
    # the q=16 minimiser of the per-block gap table, against the pinned
    # dense eigen-solve in perfbench/refs.json
    import json
    from pathlib import Path

    refs = json.loads((Path(__file__).parents[1] / "perfbench" / "refs.json").read_text())
    eta = build_eta(make_context(spec12, 16, 2, 2, ((1,), (0,)), a12, base=0.0), 1)
    assert eta.measure.table.order > 2500
    rep = eta_gap(eta)
    assert rep.c1 == pytest.approx(refs["eta-gaps"]["L=2,q=16"]["min_c1"], abs=1e-6)


def test_sparse_gap_stops_within_tol(spec12, a12):
    # the q=16 minimiser at q=32, past the moduli of the gap table, against
    # a reference independent of eta_gap's pieces: a tight Lanczos solve of
    # every mean-zero split block. eta_gap meets it within its residual
    eta = build_eta(make_context(spec12, 32, 2, 2, ((1,), (0,)), a12, base=0.0), 1)
    op = ConvOperator(eta.measure, "mean_zero")
    limit = operator_norm(op, tol=1e-12, max_iter=50_000)
    assert limit.converged and limit.block in op.orbits()
    rep = eta_gap(eta)
    assert abs(rep.norm**2 - limit.norm**2) <= limit.residual + 1e-12 * rep.norm**2


def test_stacked_lanczos_stops_within_tol(spec12, a12):
    # the same minimiser through operator_norm's default stop: its gap is
    # within 2e-8 of the tight solve's
    eta = build_eta(make_context(spec12, 32, 2, 2, ((1,), (0,)), a12, base=0.0), 1)
    op = ConvOperator(eta.measure, "mean_zero")
    limit = operator_norm(op, tol=1e-12, max_iter=50_000)
    rep = operator_norm(op)
    assert rep.block in op.orbits()
    assert 1 - rep.norm / rep.l1 == pytest.approx(1 - limit.norm / limit.l1, abs=2e-8)


@pytest.mark.parametrize("q", [4, 8, 16])
def test_stacked_lanczos_brackets_the_eta_norm(spec12, a12, q):
    # the 4-point per-block measures on the split blocks, against the exact
    # block norms, and the dense oracle where it fits
    for eta in enumerate_etas(spec12, q, a12, 2, base=0.0):
        op = ConvOperator(eta.measure, "mean_zero")
        rep = operator_norm(op)
        assert rep.block in op.orbits() and rep.converged
        assert rep.iters <= op.table.cosets().n * len(op.orbits())
        exacts = [max(_block_norms(eta.measure, op.orbits())) ** 2]
        if op.table.order <= 2500:
            exacts.append(dense_operator_norm(eta.measure, "mean_zero") ** 2)
        lam = rep.norm**2
        for exact in exacts:
            assert lam <= exact * (1 + 1e-12)
            assert exact - lam <= rep.residual + 1e-12 * exact


def test_lanczos_stops_at_the_problem_dimension(spec12, a12):
    # with a stop it can never meet, each split block ends as invariant
    # within its dimension: at q=4, |S| = 2 splits each of the 3 mean-zero
    # orbits' 12-dimensional blocks into 2 of dimension 6, 36 steps in all
    eta = next(enumerate_etas(spec12, 4, a12, 2, base=0.0))
    op = ConvOperator(eta.measure, "mean_zero")
    blocks = isotypic_blocks(eta.measure, op.orbits())
    assert blocks.shape == (3, 2, 6, 6)
    rep = operator_norm(op, tol=0.0)
    assert rep.converged and rep.iters <= 3 * 2 * 6
    assert rep.norm == pytest.approx(dense_operator_norm(eta.measure, "mean_zero"), rel=1e-12)


def test_sparse_zero_and_dirac(t5):
    zero = operator_norm(ConvOperator(GroupMeasure(t5, np.zeros(t5.order)), "full"))
    assert zero.norm == 0.0 and zero.block == 0
    dirac = measure_on(t5, [17], [2.0 - 1.5j])
    rep = operator_norm(ConvOperator(dirac, "full"))
    assert rep.norm == pytest.approx(dirac.l1, rel=1e-12)


def test_tied_blocks_report_the_same_block_whatever_the_seed(spec12, a12):
    # at q=8 the blocks t = 1 and t = 7 tie exactly
    mu = _sweep_mu(spec12, a12, 8)
    oracle = dense_operator_norm(mu, "new_space")
    reps = [operator_norm(ConvOperator(mu, "new_space"), seed=s) for s in (0, 1, 2, 3, 4, 7, 11)]
    assert {r.block for r in reps} == {1}
    assert all(r.norm == pytest.approx(oracle, rel=1e-8) for r in reps)


def test_dense_conv_matrix_is_the_cayley_matrix(t5, rng):
    mu = _random_measure(t5, 9, rng)
    M = dense_conv_matrix(mu)
    for x, y in rng.integers(t5.order, size=(200, 2)):
        assert M[x, y] == mu.coeffs[t5.products(x, t5.inverse[y])]


# -- weighted expansion -------------------------------------------------------


def test_lemma_expand_equal_weights_equality(t5, spec12):
    tester = LemmaExpandTester(t5, letter_pair_quotients(spec12, t5))
    rep = tester.check(np.full(len(tester.elements), 2.5))
    assert rep.k_ratio == pytest.approx(1.0)
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)
    assert rep.passed


def test_lemma_expand_random_and_spike_draws(spec12, rng):
    for q in (3, 4, 5, 7):
        t = get_group(q)
        tester = LemmaExpandTester(t, letter_pair_quotients(spec12, t))
        assert tester.c0 > 0
        for _ in range(25):
            kap = 1.0 + 0.2 * rng.random(len(tester.elements))
            rep = tester.check(kap)
            assert rep.passed and rep.k_ratio <= 1.2
        spike = np.ones(len(tester.elements))
        spike[int(rng.integers(len(spike)))] = 100.0
        rep = tester.check(spike)
        assert rep.passed  # the bound is a theorem; slack grows with K
        assert rep.k_ratio > 5


def _weighted(table, elements, kappas) -> GroupMeasure:
    """The measure sum_h kappa_h delta_h."""
    coeffs = np.zeros(table.order)
    np.add.at(coeffs, elements, kappas)
    return GroupMeasure(table, coeffs)


@pytest.mark.parametrize("q", [3, 5, 7, 8, 12])
def test_lemma_expand_centring_is_the_dense_projection(spec12, q, rng):
    # c0 and lhs from the pieces against P0 @ M @ P0 with the dense
    # mean-zero projector, on draws, a spike and equal weights
    t = get_group(q)
    tester = LemmaExpandTester(t, letter_pair_quotients(spec12, t))
    P0 = dense_subspace_projector(t, "mean_zero")

    def dense_top(kappas):
        S = P0 @ dense_conv_matrix(_weighted(t, tester.elements, kappas)) @ P0
        return float(np.linalg.eigvalsh(0.5 * (S + S.T))[-1])

    J = len(tester.elements)
    assert tester.c0 == pytest.approx(1 - dense_top(np.ones(J)) / J, rel=1e-12, abs=1e-12)
    spike = np.ones(J)
    spike[0] = 25.0
    for kap in [*(1 + 0.2 * rng.random((5, J))), spike, np.full(J, 2.5)]:
        rep = tester.check(kap)
        lhs = dense_top(kap)
        assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)
        assert rep.passed and lhs <= rep.rhs * (1 + 1e-9) + 1e-12


def test_lemma_expand_keeps_the_constants_zero():
    # SL2(Z/2) is S3; on its five non-identity elements every nontrivial
    # irreducible's symmetric part is negative definite (-1 on both), so
    # the top on the mean-zero functions is the constants' 0 and c0 = 1
    t = get_group(2)
    others = [g for g in range(t.order) if g != t.identity_index]
    tester = LemmaExpandTester(t, others)
    assert tester.c0 == 1.0
    P0 = dense_subspace_projector(t, "mean_zero")
    S = P0 @ dense_conv_matrix(_weighted(t, others, np.ones(5))) @ P0
    assert np.linalg.eigvalsh(0.5 * (S + S.T))[-1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("q", [16, 25, 27, 32])
def test_lemma_expand_meets_the_split_blocks_past_the_dense_guard(spec12, q, rng):
    # c0 and one draw's lhs against the top eigenvalue of the split blocks
    # of (nu + reverse nu) / 2 over the mean-zero orbits, or the constants' 0
    t = get_group(q)
    tester = LemmaExpandTester(t, letter_pair_quotients(spec12, t))

    def split_top(kappas):
        nu = _weighted(t, tester.elements, kappas)
        sym = GroupMeasure(t, 0.5 * (nu.coeffs + nu.reverse().coeffs))
        blocks = isotypic_blocks(sym, ConvOperator(sym, "mean_zero").orbits())
        return max(0.0, float(np.linalg.eigvalsh(blocks).max()))

    J = len(tester.elements)
    assert tester.c0 == pytest.approx(1 - split_top(np.ones(J)) / J, rel=1e-12)
    kap = 1 + 0.2 * rng.random(J)
    rep = tester.check(kap)
    assert rep.lhs == pytest.approx(split_top(kap), rel=1e-12)
    assert rep.passed


def test_lemma_expand_rejects_bad_coefficients(t5, spec12):
    tester = LemmaExpandTester(t5, letter_pair_quotients(spec12, t5))
    with pytest.raises(ValueError):
        tester.check(np.zeros(len(tester.elements)))


# -- per-block gap -------------------------------------------------------------


def test_eta_gap_positive_and_dense_checked(spec12, a12):
    etas = list(enumerate_etas(spec12, 5, a12, 2))
    for eta in etas[:4]:
        rep = eta_gap(eta)
        assert rep.c1 > 0 and not rep.gap_failure
        oracle = dense_operator_norm(eta.measure, "mean_zero")
        assert abs(rep.norm - oracle) < 1e-7


def test_eta_gap_detects_proper_subgroup_support(t5):
    # a measure living on the lower-triangular subgroup has no gap
    idxs = digit_difference_quotients([1, 2], 5, t5)
    c = np.zeros(t5.order, dtype=complex)
    for i in idxs:
        c[i] = 1.0
    from modgap.decouple import EtaMeasure

    supp = np.flatnonzero(c)
    eta = EtaMeasure(
        context=None, j=1, table=t5, inners=((0,),) * len(idxs), betas=(1.0,) * len(idxs),
        support=supp, weights=c.real[supp],
    )
    rep = eta_gap(eta)
    assert rep.gap_failure
    assert rep.c1 == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16])
def test_eta_gap_is_the_largest_block_norm(spec12, a12, q):
    # exact: the largest bare block over the mean-zero orbits, partner
    # orbits included; the dense oracle checks the minimiser where it fits
    reps = []
    for eta in enumerate_etas(spec12, q, a12, 2, base=0.0):
        rep = eta_gap(eta)
        assert rep.iters == 0
        ts = ConvOperator(eta.measure, "mean_zero").orbits()
        assert rep.norm == pytest.approx(max(_block_norms(eta.measure, ts)), rel=1e-12)
        reps.append((rep.c1, rep.norm, eta))
    _, norm, eta = min(reps, key=lambda r: r[0])
    if eta.measure.table.order <= 2500:
        assert norm == pytest.approx(dense_operator_norm(eta.measure, "mean_zero"), rel=1e-12)


def _translation_class_loop(table, supp, weights):
    """The canonical form one x at a time: the least sorted support, as min
    over Python tuples, and the weights of the least x that attains it."""
    forms = []
    for col in table.products(supp[:, None], table.inverse[supp]).T:
        order = np.argsort(col)
        forms.append((tuple(col[order].tolist()), weights[order]))
    key = min(k for k, _ in forms)
    return key, next(ws for k, ws in forms if k == key)


@pytest.mark.parametrize("q", [8, 13])
def test_translation_class_matches_the_loop(spec12, a12, q, rng):
    # the same key and weights, bit for bit, with the table's weights and
    # positive re-weightings of them. On the unipotent subgroup every x gives
    # the same support: its windows take the order of the least x, and their
    # norm is the largest block norm whatever x is taken. Every case is one
    # window of a single batch, which runs cold and then warm on the cached
    # supports; the warm pass gives the unipotent support new weights
    spectral._support_class.cache_clear()
    t = get_group(q)
    etas = [e for L in (2, 3) for e in enumerate_etas(spec12, q, a12, L, base=0.0)]
    cases = [(e.support, e.weights) for e in etas]
    cases += [(s, w * rng.uniform(0.5, 2, w.size)) for s, w in cases[:40]]
    unipotent = np.sort([t.index_of([[1, b], [0, 1]]) for b in range(q)])
    for _ in ("cold", "warm"):
        tied = [(unipotent, rng.integers(1, 3, size=q).astype(float)) for _ in range(5)]
        batch = cases + tied
        bounds = np.cumsum([0] + [s.size for s, _ in batch])
        forms = spectral._canonical_forms(t, np.concatenate([s for s, _ in batch]),
                                          np.concatenate([w for _, w in batch]), bounds)
        seen = []
        for key, (windows, weights) in forms.items():
            for w, ws in zip(windows.tolist(), weights):
                ref_key, ref_ws = _translation_class_loop(t, *batch[w])
                assert key == ref_key and np.array_equal(ws, ref_ws)
                seen.append(w)
        assert sorted(seen) == list(range(len(batch)))
        # one miss per distinct support, all of them in the cold pass
        supports = {s.tobytes() for s, _ in cases} | {unipotent.tobytes()}
        assert spectral._support_class.cache_info().misses == len(supports)
        for supp, w in tied:
            eta = replace(etas[0], support=supp, weights=w)
            ts = ConvOperator(eta.measure, "mean_zero").orbits()
            assert eta_gap(eta).norm == pytest.approx(max(_block_norms(eta.measure, ts)),
                                                      rel=1e-12)
    _, order = spectral._support_class(t, tuple(unipotent.tolist()))
    assert order.shape == (q,) and not order.flags.writeable


def _assert_agrees_with_the_oracle(rep, eta):
    ratio, norm, l1 = eta_gap_oracle(eta)
    assert 1 - rep.c1 == pytest.approx(ratio, rel=1e-14, abs=0)
    assert rep.norm == pytest.approx(norm, rel=1e-14, abs=0)
    assert rep.l1 == pytest.approx(l1, rel=1e-14, abs=0)


@pytest.mark.parametrize("system, L, q", [
    *(("zaremba12", L, q) for L in (2, 3) for q in (4, 5, 7, 8, 9, 11, 13, 16)),
    ("schottky", 3, 5), ("schottky", 3, 8),
])
def test_eta_gap_agrees_with_the_one_measure_oracle(spec12, a12, schottky, system, L, q):
    # every measure of the gap table, read from its stack's batched solve,
    # against the same measure solved alone; the standalone rebuild of a
    # window (a stack of one) meets the oracle too
    spec, a, base = (spec12, a12, 0.0) if system == "zaremba12" else (schottky, 0.3, None)
    table = get_group(q)
    etas = list(enumerate_etas(spec, q, a, L, base=base))
    assert len(etas) > 1
    for k, eta in enumerate(etas):
        rep = eta_gap(eta)
        _assert_agrees_with_the_oracle(rep, eta)
        if k % 7 == 0:
            alone = build_eta(eta.context, eta.j, table)
            assert np.array_equal(alone.support, eta.support)
            assert np.array_equal(alone.weights, eta.weights)
            _assert_agrees_with_the_oracle(eta_gap(alone), eta)


@pytest.mark.parametrize("q", [5, 8])
def test_eta_gap_does_not_depend_on_cache_state(spec12, a12, q):
    # each c1 from warm window-weight and support caches equals the c1 of
    # the same window rebuilt and solved with both caches cleared first
    table = get_group(q)
    etas = list(enumerate_etas(spec12, q, a12, 2, base=0.0))
    for eta in etas:
        eta_gap(eta)
    warm = [eta_gap(build_eta(e.context, e.j, table)).c1 for e in etas]
    for eta, c1 in zip(etas, warm):
        decouple._window_stack.cache_clear()
        spectral._support_class.cache_clear()
        spectral._stack_gaps.cache_clear()
        assert eta_gap(build_eta(eta.context, eta.j, table)).c1 == c1


def _holding(eta, m):
    """eta with its sparse support and weights replaced by those of m."""
    supp = m.support
    return replace(eta, support=supp, weights=m.coeffs[supp].real)


@pytest.mark.parametrize("q", [8, 16])
def test_eta_gap_of_a_right_translate_is_bit_identical(spec12, a12, q, rng):
    eta = build_eta(make_context(spec12, q, 2, 2, ((1,), (0,)), a12, base=0.0), 2)
    table = eta.measure.table
    supp = eta.measure.support
    c1 = eta_gap(eta).c1
    for g in rng.integers(table.order, size=5):
        moved = measure_on(table, table.products(supp, g), eta.measure.coeffs[supp])
        assert eta_gap(_holding(eta, moved)).c1 == c1


@pytest.mark.parametrize("q", [8, 16])
def test_a_replaced_eta_does_not_read_its_stacks_gap(spec12, a12, q):
    # an enumerated eta holds its stack; one replaced with its weights
    # reversed is solved from those weights, as the oracle solves it, also
    # where that moves the gap, and a replaced eta with the same support
    # and weights reads the value of the stack's solve
    moved = 0
    for eta in enumerate_etas(spec12, q, a12, 3, base=0.0):
        assert eta.stacked is not None
        c1 = eta_gap(eta).c1
        supp = eta.measure.support
        reversed_ = _holding(eta, measure_on(eta.table, supp, eta.measure.coeffs[supp][::-1]))
        assert reversed_.stacked is None
        rep = eta_gap(reversed_)
        _assert_agrees_with_the_oracle(rep, reversed_)
        moved += abs(rep.c1 - c1) > 1e-9
        assert eta_gap(_holding(eta, eta.measure)).c1 == pytest.approx(c1, rel=1e-14, abs=0)
    assert moved > 0


def test_gap_solves_are_bounded(spec12, a12, monkeypatch, cold_class_build):
    # the matrices spectral hands to eigvalsh: reading the first measure of a
    # stack solves one block of at most 256 windows, not the whole stack
    # (4096 windows at L=4), and no call holds more than 2**14 entries of B.
    # They are the k solves per piece at the vertices of `_piece_bounds` and
    # the exact solves of the pieces `_candidates` keeps: at least one per
    # window, and fewer than every piece of every window
    shapes, kept = [], []
    eigvalsh, candidates = np.linalg.eigvalsh, spectral._candidates

    def record(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    def keep(canon, sizes):
        masks = candidates(canon, sizes)
        kept.append((canon.shape, masks))
        return masks

    monkeypatch.setattr(spectral.np.linalg, "eigvalsh", record)
    monkeypatch.setattr(spectral, "_candidates", keep)
    table = get_group(16)
    for L, n_windows in ((3, 256), (4, 4096)):
        spectral._stack_gaps.cache_clear()
        etas = enumerate_etas(spec12, 16, a12, L, base=0.0)
        eta = next(e for e in etas if e.j == 2)
        assert eta.stacked[1].bounds.size - 1 == n_windows
        shapes.clear()
        kept.clear()
        eta_gap(eta)
        key, _ = spectral._support_class(table, tuple(eta.support.tolist()))
        pieces = sum(gens.shape[1] // (d * d)
                     for d, gens in spectral._class_generators(table, key))
        [((n, k), masks)] = kept  # one class holds the block
        assert n == min(n_windows, 256)
        assert all(m * d * d <= 2**14 for m, d, _ in shapes)
        exact = sum(int(m.sum()) for m in masks)
        assert (sum(m.sum(axis=1) for m in masks) >= 1).all()
        assert exact < pieces * n
        assert sum(m for m, _, _ in shapes) == exact + k * pieces


def _piece_norms(canon, sizes):
    """Every piece's norm for every window, one (windows, pieces) array per size."""
    out = []
    for d, gens in sizes:
        b = (canon @ gens).reshape(-1, d, d)
        top = np.linalg.eigvalsh(np.conj(b.swapaxes(1, 2)) @ b)[:, -1]
        out.append(np.sqrt(np.maximum(top, 0)).reshape(canon.shape[0], -1))
    return out


def _assert_bracketed(canon, sizes):
    """lower <= exact <= upper for every piece of every window (within 1e-12
    relative), and every piece that attains a window's norm is kept."""
    exact = _piece_norms(canon, sizes)
    for (d, gens), f in zip(sizes, exact):
        upper, lower = spectral._piece_bounds(canon, canon.sum(axis=1), gens, d)
        assert (lower <= f * (1 + 1e-12)).all()
        assert (f <= upper * (1 + 1e-12)).all()
    top = np.max([f.max(axis=1) for f in exact], axis=0)[:, None]
    for f, keep in zip(exact, spectral._candidates(canon, sizes)):
        assert keep[f == top].all()


def test_piece_bounds_bracket_every_window_of_the_gap_table(spec12, a12, monkeypatch):
    # every bounded block `eta_gap` meets on the C07 table, as it is handed to
    # `_candidates`, and the same block with the vertices of its simplex added
    # as windows (at random masses), where the upper bound is attained
    seen = []
    candidates = spectral._candidates

    def record(canon, sizes):
        seen.append((canon, sizes))
        return candidates(canon, sizes)

    monkeypatch.setattr(spectral, "_candidates", record)
    spectral._stack_gaps.cache_clear()
    for L in (2, 3):
        for q in (4, 5, 7, 8, 9, 11, 13, 16):
            for eta in enumerate_etas(spec12, q, a12, L, base=0.0):
                eta_gap(eta)
    rng = np.random.default_rng(26)
    bounded = [(canon, sizes) for canon, sizes in seen if len(canon) > 5]
    # per modulus: the 16 windows of L=2, j=2 and the 16 and 256 of L=3; the
    # four windows of L=2, j=1 are too few to bound
    assert [len(canon) for canon, _ in bounded] == [16] * 8 + [16, 256] * 8
    for canon, sizes in bounded:
        _assert_bracketed(canon, sizes)
        p = canon / canon.sum(axis=1, keepdims=True)
        lo = p.min(axis=0)
        vertices = (lo + (1 - lo.sum()) * np.eye(4)) * rng.uniform(0.5, 2, (4, 1))
        _assert_bracketed(np.concatenate([canon, vertices]), sizes)


def test_a_piece_whose_bound_meets_the_best_lower_bound_is_kept(monkeypatch):
    # the margin raises the upper bounds: a piece whose upper bound sits a
    # rounding below the window's best lower bound is kept, one a millionth
    # below it is dropped
    upper = np.tile([1 - 1e-12, 0.5, 1 - 1e-6], (6, 1))
    lower = np.tile([1.0, 0.2, 0.1], (6, 1))
    monkeypatch.setattr(spectral, "_piece_bounds", lambda *args: (upper, lower))
    [keep] = spectral._candidates(np.ones((6, 4)), ((1, np.zeros((4, 3))),))
    assert keep.tolist() == [[True, False, False]] * 6


def _block_agrees_with_the_oracle(eta, weights):
    """`_gaps` of one block of windows on eta's support, one row of weights
    each, against each window solved alone by the oracle."""
    n = len(weights)
    bounds = np.arange(n + 1) * eta.support.size
    norms, l1s = spectral._gaps(eta.table, np.tile(eta.support, n),
                                np.concatenate(weights), bounds)
    for w, norm, l1 in zip(weights, norms, l1s):
        ratio, ref_norm, ref_l1 = eta_gap_oracle(replace(eta, weights=w))
        assert norm == pytest.approx(ref_norm, rel=1e-14, abs=0)
        assert l1 == pytest.approx(ref_l1, rel=1e-14, abs=0)
        assert norm / l1 == pytest.approx(ratio, rel=1e-14, abs=0)


def _an_eta(spec12, a12):
    return next(e for e in enumerate_etas(spec12, 16, a12, 3, base=0.0) if e.j == 2)


def test_a_standalone_eta_meets_the_oracle(spec12, a12):
    # a stack of one window: its simplex collapses, so every piece is solved
    for eta in list(enumerate_etas(spec12, 16, a12, 3, base=0.0))[::37]:
        alone = build_eta(eta.context, eta.j, eta.table)
        assert alone.stacked[1].bounds.size == 2
        _assert_agrees_with_the_oracle(eta_gap(alone), alone)


def test_a_block_of_one_normalised_weight_vector_meets_the_oracle(spec12, a12, monkeypatch):
    # eight windows whose weights are multiples of one vector: the simplex
    # is held open at its floor width, and the block is still bounded
    eta = _an_eta(spec12, a12)
    calls = []
    piece_bounds = spectral._piece_bounds
    monkeypatch.setattr(spectral, "_piece_bounds",
                        lambda *args: calls.append(args) or piece_bounds(*args))
    _block_agrees_with_the_oracle(eta, [eta.weights * c for c in (1, 2, 0.5, 3, 7, 0.1, 1, 9)])
    assert calls


def test_the_bounds_hold_on_reducible_pieces(spec12, a12, monkeypatch, cold_class_build):
    # the level split keeps no reducible piece up to q=32, so here every
    # chi-eigenspace of a unit block is kept whole, one reducible piece, as
    # a piece that merges invariant pieces may be; the bounds ask only for a
    # convex, homogeneous norm, so the pruned solve meets the oracle
    monkeypatch.setattr(spectral, "_clusters", lambda w: [0, w.size])
    etas = [e for e in enumerate_etas(spec12, 16, a12, 3, base=0.0) if e.j == 2]
    key, _ = spectral._support_class(etas[0].table, tuple(etas[0].support.tolist()))
    assert max(d for d, _ in spectral._class_generators(etas[0].table, key)) == 48
    assert len(etas) == 256
    for eta in etas[::5]:
        _assert_agrees_with_the_oracle(eta_gap(eta), eta)


@pytest.mark.parametrize("q", [16, 24, 25, 12, 18, 27])
def test_eta_gap_with_complex_weights_at_q16_is_the_largest_block_norm(spec12, a12, q, rng):
    # positive re-weightings of the table's measures against the largest
    # bare block over every mean-zero orbit: the class build keeps one of
    # the orbits t and -t and one of each pair of conjugate characters,
    # which loses no norm with real weights. |S| = 4, 8 and 2 at q = 16, 24
    # and 25, beyond the moduli of test_eta_gap_is_the_largest_block_norm.
    # At q = 12, 18 and 27 the class build splits only the unit blocks of
    # the levels 2, 3, 4, 6, 12, of 2, 3, 6, 9, 18 and of 3, 9, 27, and
    # reads eta mod each level there
    for j in (1, 2):
        eta = build_eta(make_context(spec12, q, 2, 2, ((1,), (0,)), a12, base=0.0), j)
        supp = eta.measure.support
        for _ in range(2):
            scale = rng.uniform(0.5, 2, supp.size)
            m = measure_on(eta.measure.table, supp, eta.measure.coeffs[supp] * scale)
            rep = eta_gap(_holding(eta, m))
            ts = ConvOperator(m, "mean_zero").orbits()
            assert rep.norm == pytest.approx(max(_block_norms(m, ts)), rel=1e-12)


@pytest.mark.parametrize("q", [12, 18, 27])
def test_a_lower_level_attains_the_norm_of_a_kernel_measure(spec12, a12, q, rng):
    # the table's measures reach their norm at level q; a measure on 12
    # points of the kernel of reduction to a lower level l | q is its mass
    # times delta(1) mod l, of norm its mass at level l and below, and no
    # unit block of q comes near it, so the class build must reach l
    eta = build_eta(make_context(spec12, q, 2, 2, ((1,), (0,)), a12, base=0.0), 1)
    table = eta.table
    for level in (d for d in range(2, q) if q % d == 0):
        kernel = np.flatnonzero((table.elems % level == [1, 0, 0, 1]).all(axis=1))
        supp = np.sort(rng.choice(kernel, min(kernel.size, 12), replace=False))
        m = measure_on(table, supp, rng.uniform(0.5, 2, supp.size))
        ts = ConvOperator(m, "mean_zero").orbits()
        norms = _block_norms(m, ts)
        assert eta_gap(_holding(eta, m)).norm == pytest.approx(max(norms), rel=1e-12)
        assert max(norms) == pytest.approx(m.l1, rel=1e-12)
        assert max(n for t, n in zip(ts, norms) if math.gcd(t, q) == 1) < 0.99 * m.l1


def _unit_orbits(level):
    """The least t of each class of units mod level under t -> +-u^2 t."""
    units = [u for u in range(1, level) if math.gcd(u, level) == 1]
    return {min(s * u * u * t % level for u in units for s in (1, -1)) for t in units}


def _recording_splits(monkeypatch):
    """The (level, t) of every `_character_pieces` call from here on."""
    calls = []
    pieces = spectral._character_pieces
    monkeypatch.setattr(spectral, "_character_pieces",
                        lambda table, t: calls.append((table.q, t)) or pieces(table, t))
    return calls


@pytest.mark.parametrize("q", [8, 12, 16, 18])
def test_a_class_build_splits_only_the_unit_orbits_of_each_level(q, monkeypatch,
                                                                 cold_class_build):
    calls = _recording_splits(monkeypatch)
    spectral._class_generators(get_group(q), (0, 1, 2, 3))
    assert sorted(calls) == sorted((level, t) for level in range(2, q + 1) if q % level == 0
                                   for t in _unit_orbits(level))


def test_a_level_is_split_once_per_process(monkeypatch, cold_class_build):
    # 2, 4 and 8 divide 16: after a class at q=8, one at q=16 splits level 16 alone
    calls = _recording_splits(monkeypatch)
    spectral._class_generators(get_group(8), (0, 1, 2, 3))
    assert {level for level, _ in calls} == {2, 4, 8}
    calls.clear()
    spectral._class_generators(get_group(16), (0, 1, 2, 3))
    assert sorted(calls) == [(16, t) for t in sorted(_unit_orbits(16))]


def test_eta_gap_rejects_weights_outside_the_positive_reals(spec12, a12):
    # complex (even with no imaginary part), negative and zero weights, on a
    # replaced eta, which `eta_gap` solves from its own weights
    eta = _an_eta(spec12, a12)
    negative, zero = eta.weights.copy(), eta.weights.copy()
    negative[1] *= -1
    zero[0] = 0.0
    for weights in (eta.weights * np.exp(1j), eta.weights.astype(complex), negative, zero):
        with pytest.raises(DomainError, match="positive real weights"):
            eta_gap(replace(eta, weights=weights))
    assert issubclass(DomainError, ModgapError) and issubclass(DomainError, ValueError)


@pytest.mark.parametrize("q, count", [(5, 9), (7, 11), (13, 17), (8, 30), (16, 76)])
def test_conjugacy_classes(q, count):
    # p + 4 classes at an odd prime p; each class is closed under conjugation
    table = get_group(q)
    reps, sizes = spectral._conjugacy_classes(table)
    assert len(reps) == len(sizes) == count
    assert sizes.sum() == table.order
    g = np.arange(table.order)
    for r, size in zip(reps, sizes):
        assert np.unique(table.products(table.products(g, r), table.inverse)).size == size


def test_a_split_invariant_piece_is_caught(spec12, a12, monkeypatch, cold_class_build):
    # splitting the largest eigenvalue cluster leaves a piece that the
    # generators move out of itself; the fixture empties the per-level
    # pieces, which would otherwise survive from earlier tests
    clusters = spectral._clusters

    def split_largest(w):
        bounds = clusters(w)
        lo = max(zip(bounds, bounds[1:]), key=lambda b: b[1] - b[0])[0]
        return sorted({*bounds, lo + 1})

    monkeypatch.setattr(spectral, "_clusters", split_largest)
    eta = next(enumerate_etas(spec12, 8, a12, 2, base=0.0))
    with pytest.raises(EstimationError, match="not invariant"):
        eta_gap(eta)


def test_eta_gap_uniform_in_q_at_fixed_l(spec12, a12):
    # every per-block gap stays positive on the prime-power and prime
    # branches; the q-free content of the gap is argued and checked in
    # the acceptance suite's C07b (test_07_flat_expansion_uniformity)
    c1s = {}
    for q in (4, 8, 9, 16):
        c1s[q] = min(e.c1 for e in map(eta_gap, enumerate_etas(spec12, q, a12, 2)))
    assert all(v > 0 for v in c1s.values())


# -- decay, trace, autocorrelation ---------------------------------------------


def test_mu1_decay_ratios(spec12, a12):
    p = MeasureParams(spec=spec12, q=5, s=a12, r_len=2)
    rep = mu1_decay(p, [2, 4, 6], 2)
    assert rep.strictly_decreasing
    assert rep.c2 > 0
    assert rep.slope <= math.log(1 - rep.c2) + 1e-12


def test_mu1_decay_on_smallest_group(spec12, a12):
    p = MeasureParams(spec=spec12, q=2, s=a12, r_len=2)
    rep = mu1_decay(p, [2, 4, 6], 2)
    assert rep.strictly_decreasing
    # dense-oracle agreement on the 6-element group
    m = build_mu1(MeasureParams(spec=spec12, q=2, s=a12, r_len=4))
    assert operator_norm(ConvOperator(m, "mean_zero")).norm == pytest.approx(
        dense_operator_norm(m, "mean_zero"), abs=1e-8
    )


def test_mu1_decay_validates_lengths(spec12, a12):
    p = MeasureParams(spec=spec12, q=5, s=a12, r_len=2)
    with pytest.raises(ValueError):
        mu1_decay(p, [2, 3], 2)


def test_trace_identity_dirac(t5):
    d = measure_on(t5, [17], [1.0])
    rep = trace_identity_check(d)
    # reverse(d)*d is the identity Dirac: both sides equal |G|
    assert rep.trace_lhs == pytest.approx(t5.order)
    assert rep.trace_rhs == pytest.approx(t5.order)


def test_trace_identity_and_multiplicity(spec12, a12):
    for q, need in [(5, 2), (7, 3)]:
        p = MeasureParams(spec=spec12, q=q, s=a12, r_len=2)
        rep = trace_identity_check(build_mu1(p), nu=build_nu(p))
        assert rep.trace_rel_err < 1e-8
        assert rep.multiplicity >= need
        assert rep.cprime is not None and rep.cprime > 0


def test_autocorrelation_psi_norm(spec12, a12):
    rep = nu_autocorrelation(MeasureParams(spec=spec12, q=2, s=a12, r_len=1), r_max=6)
    assert rep.psi_norm_sq == pytest.approx(5.0 / 6.0)
    assert rep.psi_norm_sq == pytest.approx(rep.psi_norm_sq_expected)


def test_autocorrelation_minimal_r(spec12, a12):
    rep = nu_autocorrelation(MeasureParams(spec=spec12, q=5, s=a12, r_len=1), r_max=10)
    assert rep.minimal_r is not None
    assert rep.rows[-1].achieved
    assert all(not r.achieved for r in rep.rows[:-1])


# -- generation check and sweep --------------------------------------------------


def test_zariski_standard_generators(t5):
    gens = [t5.index_of((1, 1, 0, 1)), t5.index_of((1, 0, 1, 1))]
    ok, size = zariski_check(t5, gens)
    assert ok and size == 120


def test_zariski_rejects_lower_triangular(t5):
    ok, size = zariski_check(t5, digit_difference_quotients([1, 2], 5, t5))
    assert not ok
    assert size == 5  # unipotent subgroup generated by [[1,0],[1,1]]


def test_zariski_accepts_block_pairs(spec12, t5):
    ok, size = zariski_check(t5, letter_pair_quotients(spec12, t5))
    assert ok and size == 120


def test_sweep_rows_and_alpha(spec12, a12, tmp_path):
    rows, alpha = main_sweep(spec12, [4, 5, 7], a12, b=1.0, L=2, c_log=2.2)
    assert [r.q for r in rows] == [4, 5, 7]
    assert all(not r.skipped_reason for r in rows)
    assert all(0 < r.ratio < 1 for r in rows)
    assert alpha is not None
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, out)
    header = out.read_text().splitlines()[0]
    assert header == (
        "q,group_order,dim_Eq,l1_mass,opnorm_Eq,ratio,q_pow_minus_quarter,"
        "R_used,L,R_prime,a,b,iters,seconds,skipped_reason"
    )


def test_sweep_skips_degenerate_system(tmp_path):
    # single-digit alphabet: the letter-pair quotients are unipotent
    from modgap.symdyn import zaremba_system

    spec1 = zaremba_system([1])
    rows, alpha = main_sweep(spec1, [5, 7], 0.1, L=2)
    assert all(r.skipped_reason for r in rows)
    assert alpha is None
    out = tmp_path / "skip.csv"
    write_sweep_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    # numeric fields are empty on skipped rows
    fields = lines[1].split(",")
    assert fields[0] == "5" and fields[4] == "" and fields[5] == ""


def test_sweep_jobs_clamped_to_moduli_and_cores(spec12, a12, monkeypatch):
    import concurrent.futures as cf
    import os

    seen = []

    class InlineExecutor:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cf, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    rows, _ = main_sweep(spec12, [2, 3], a12, jobs=8)
    assert [r.q for r in rows] == [2, 3] and seen == [2]
    rows, _ = main_sweep(spec12, [2, 3, 4, 5], a12, jobs=8)
    assert len(rows) == 4 and seen == [2, 3]
    main_sweep(spec12, [2, 3], a12, jobs=1)
    assert seen == [2, 3]  # one worker runs in-process


def test_sweep_q2_smoke(spec12, a12):
    rows, _ = main_sweep(spec12, [2], a12, b=0.0, L=2)
    (r,) = rows
    assert not r.skipped_reason
    assert math.isfinite(r.ratio)


def test_fit_decay_exponent_two_points():
    from modgap.spectral import SweepRow

    rows = [
        SweepRow(q=4, ratio=0.5),
        SweepRow(q=16, ratio=0.25),
    ]
    assert fit_decay_exponent(rows) == pytest.approx(0.5)
