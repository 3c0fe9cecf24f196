import math
import tracemalloc

import numpy as np
import pytest

from modgap import spectral
from modgap.errors import Guards
from modgap.measures import GroupMeasure, _accumulate, _cocycle_track
from modgap.modgroup import get_group
from modgap.symdyn import (
    DELTA_BRACKET,
    SystemSpec,
    Word,
    _admissible_id_matrix,
    check_word_count,
    letter_image,
    letter_log_deriv,
    orbit_log_derivs,
    resolve_point,
    schottky_system,
    walk_words,
    zaremba_system,
)


@pytest.fixture(scope="session")
def spec12():
    return zaremba_system([1, 2])


@pytest.fixture(scope="session")
def schottky():
    return schottky_system()


@pytest.fixture(scope="session")
def a12():
    # near the critical exponent of the {1,2} alphabet
    return 0.5322


@pytest.fixture(scope="session")
def t5():
    return get_group(5)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def cold_class_build():
    """Empty the caches of `spectral`'s class build, its per-level pieces
    (`_new_pieces`) and the solved window blocks before and after the test,
    so a test that patches the build sees it run, and no piece it built
    outlives it."""
    caches = (spectral._class_generators, spectral._new_pieces, spectral._stack_gaps)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def random_sl2z(rng, n_factors=6):
    """Random SL2(Z) matrix as a product of elementary matrices (exact)."""
    m = np.eye(2, dtype=object)
    for _ in range(n_factors):
        k = int(rng.integers(-3, 4))
        if rng.integers(2):
            f = np.array([[1, k], [0, 1]], dtype=object)
        else:
            f = np.array([[1, 0], [k, 1]], dtype=object)
        m = m @ f
    return m


def measure_on(table, support, weights) -> GroupMeasure:
    """The measure with the given weights at the given group indices, zero elsewhere."""
    coeffs = np.zeros(table.order, dtype=np.complex128)
    coeffs[support] = weights
    return GroupMeasure(table, coeffs)


def admissible_words(spec: SystemSpec, n: int, guard: int = Guards.max_words) -> list[Word]:
    """All admissible words of length n, in lexicographic stored order."""
    check_word_count(spec, n, guard)
    ids = _admissible_id_matrix(spec, n)
    return [Word(spec, tuple(int(v) for v in row)) for row in ids]


def branch_matrix(w: Word) -> tuple[int, int, int, int]:
    """Exact integer composition matrix (most recent letter leftmost).

    Entries grow exponentially with length; intended for short words in
    consistency checks only.
    """
    a, b, c, d = 1, 0, 0, 1
    for k in w.letters:
        la, lb, lc, ld = w.spec.letters[k].matrix
        a, b, c, d = (
            a * la + b * lc,
            a * lb + b * ld,
            c * la + d * lc,
            c * lb + d * ld,
        )
    return a, b, c, d


def unsplit_blocks(measure, ts) -> np.ndarray:
    """The blocks M_t of left convolution on V_t, unsplit: an array (len(ts), n, n).

    M_t[i, j] = sum_beta mu(s_i u_beta s_j^-1) e(-t beta / q) in the coset
    coordinates of `UnipotentCosets`, one right translation per column j.
    """
    table = measure.table
    cosets = table.cosets()
    q, n = table.q, cosets.n
    ts = np.asarray(ts, dtype=np.int64)
    dft = np.exp(-2j * np.pi * np.outer(np.arange(q), ts) / q)
    blocks = np.empty((ts.size, n, n), dtype=np.complex128)
    for j, s in enumerate(cosets.section):
        rows = table.right_translation(int(table.inverse[s]))[cosets.grid]
        blocks[:, :, j] = (measure.coeffs[rows] @ dft).T
    return blocks


def split_blocks_oracle(measure, ts) -> np.ndarray:
    """The split blocks of `spectral.isotypic_blocks`, one right translation
    per representative column r' regathered on the coset grid: an array
    (len(ts), |S|, m, m)."""
    table = measure.table
    cosets = table.cosets()
    reps, perm, gamma, chars, _ = cosets.stabiliser
    q = table.q
    ts = np.asarray(ts, dtype=np.int64)
    dft = np.exp(-2j * np.pi * np.outer(ts, np.arange(q)) / q)
    twist = np.exp(2j * np.pi * (ts[:, None, None] * gamma % q) / q)
    blocks = np.empty((ts.size, len(chars), reps.size, reps.size), dtype=np.complex128)
    for j, r in enumerate(reps):
        rows = table.right_translation(int(table.inverse[cosets.section[r]]))[cosets.grid]
        col = (dft @ measure.coeffs[rows].T)[:, perm] * twist
        blocks[..., j] = chars @ col
    return blocks


def stabiliser_isometries(cosets, t) -> np.ndarray:
    """The isometries E_chi onto the chi-eigenspaces of the torus stabiliser S
    in V_t, one per character, an array (|S|, n, n/|S|):
    E_chi[perm_z(r), r] = chi(z) e(-t gamma_z(r) / q) / sqrt|S|."""
    _, perm, gamma, chars, _ = cosets.stabiliser
    size, m = perm.shape
    e = np.zeros((size, cosets.n, m), dtype=complex)
    e[:, perm, np.arange(m)] = chars[:, :, None] * np.exp(-2j * np.pi * t * gamma / cosets.q)
    return e / math.sqrt(size)


def traced_peak(f):
    """(f(), the peak of traced allocations in bytes while f ran)."""
    tracemalloc.start()
    try:
        result = f()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bisect_delta(spec, n, tol=1e-4, x=None):
    """Plain bisection on Z_n(a)^(1/n) - 1, one exp pass over every
    log-derivative a step: the oracle of `symdyn.estimate_delta`."""
    logs = orbit_log_derivs(spec, n, x)
    buf = np.empty_like(logs)

    def froot(a):
        np.multiply(logs, a, out=buf)
        return float(np.exp(buf, out=buf).sum()) ** (1.0 / n) - 1.0

    lo, hi = DELTA_BRACKET
    if froot(lo) < 0.0:
        if logs.size == 1:
            return 0.0
        lo = 0.0
    assert froot(hi) <= 0.0, "root out of bracket"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if froot(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def breadth_expand_orbit(spec, n, x0, j0, guard, track=None):
    """The unchunked breadth expansion, the oracle of `symdyn._expand_orbit`:
    (xs, lds, outer, track indices or None) over all admissible n-letter
    words at once, in enumeration order."""
    check_word_count(spec, n, guard)
    xs = np.array([x0], dtype=np.float64)
    lds = np.zeros(1, dtype=np.float64)
    outer = np.full(1, -1 if j0 is None else j0, dtype=np.int16)
    idx = None if track is None else np.array([track[0]], dtype=np.int64)
    for _ in range(n):
        xs_parts, ld_parts, outer_parts, idx_parts = [], [], [], []
        for k in range(spec.n_letters):
            inv = spec.inverse_of(k)
            sel = slice(None) if inv is None else outer != inv
            x_sel = xs[sel]
            ld_parts.append(lds[sel] + letter_log_deriv(spec, k, x_sel))
            xs_parts.append(letter_image(spec, k, x_sel))
            if idx is not None:
                idx_parts.append(track[1][k][idx[sel]])
            outer_parts.append(np.full(x_sel.size, k, dtype=np.int16))
        xs = np.concatenate(xs_parts)
        lds = np.concatenate(ld_parts)
        outer = np.concatenate(outer_parts)
        if idx is not None:
            idx = np.concatenate(idx_parts)
    return xs, lds, outer, idx


def _after_prefix(p, outer):
    """The suffixes whose outermost letter may follow the prefix."""
    return p.spec.follows[p.prefix[-1], outer] if p.prefix else slice(None)


def breadth_mu1(p) -> GroupMeasure:
    """`measures.build_mu1` on the breadth oracle, summed by one `bincount`."""
    t = p.table()
    o, j0 = resolve_point(p.spec, p.base)
    _, lds, outer, cidx = breadth_expand_orbit(p.spec, p.r_len, o, j0, p.guards.max_words,
                                               _cocycle_track(p.spec, t))
    keep = _after_prefix(p, outer)
    return _accumulate(t, cidx[keep], np.exp(p.a * lds[keep]))


def breadth_mu(p) -> GroupMeasure:
    """`measures.build_mu` on the breadth oracle, summed by one `bincount`."""
    t = p.table()
    x0, j0 = resolve_point(p.spec, p.x)
    xs, lds, outer, cidx = breadth_expand_orbit(p.spec, p.r_len, x0, j0, p.guards.max_words,
                                                _cocycle_track(p.spec, t))
    keep = _after_prefix(p, outer)
    _, lds = walk_words(p.spec, p.prefix, xs[keep], lds[keep])
    return _accumulate(t, cidx[keep], np.exp(complex(p.s) * lds))


def eta_gap_oracle(eta):
    """(1 - c1, norm, l1) of one per-block measure solved on its own: the
    oracle of `spectral.eta_gap`. Its canonical form up to right translation
    comes from `spectral._support_class`, the weights reordered as for the
    least x that attains the key, then one (k,) @ (k, pieces * d * d)
    product and one `eigvalsh` per piece size of `spectral._class_generators`."""
    table = eta.table
    key, order = spectral._support_class(table, tuple(eta.support.tolist()))
    weights = eta.weights[order]
    top = 0.0
    for d, gens in spectral._class_generators(table, key):
        b = (weights @ gens).reshape(-1, d, d)
        top = max(top, float(np.linalg.eigvalsh(np.conj(b.swapaxes(1, 2)) @ b)[:, -1].max()))
    norm = math.sqrt(top)
    l1 = math.fsum(weights.tolist())
    return norm / l1, norm, l1


def dense_trace_oracle(measure):
    """(tr K^2, top, multiplicity) for K, convolution by
    kappa = reverse(mu) * mu, from dense |G| x |G| matrices: the oracle of
    `spectral.trace_identity_check`. The trace is that of the squared Cayley
    matrix of kappa; top and its multiplicity are read from the eigenvalues
    of P K P, P the dense projector onto E_q, with the same threshold."""
    kappa = measure.reverse().convolve(measure)
    M = spectral.dense_conv_matrix(kappa)
    lhs = float(np.real(np.einsum("ij,ji->", M, M)))
    P = spectral.dense_subspace_projector(measure.table, "new_space")
    S = P @ M @ P
    eigs = np.linalg.eigvalsh(0.5 * (S + S.conj().T))
    top = float(eigs[-1])
    thresh = top - max(1e-12, 1e-6 * abs(top))
    return lhs, top, int((eigs >= thresh).sum())
