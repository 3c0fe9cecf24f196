import math

import numpy as np
import pytest

from modgap.errors import Guards
from modgap.modgroup import get_group
from modgap.symdyn import (
    SystemSpec,
    Word,
    _admissible_id_matrix,
    check_word_count,
    schottky_system,
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


def stabiliser_isometries(cosets, t) -> np.ndarray:
    """The isometries E_chi onto the chi-eigenspaces of the torus stabiliser S
    in V_t, one per character, an array (|S|, n, n/|S|):
    E_chi[perm_z(r), r] = chi(z) e(-t gamma_z(r) / q) / sqrt|S|."""
    _, perm, gamma, chars, _ = cosets.stabiliser
    size, m = perm.shape
    e = np.zeros((size, cosets.n, m), dtype=complex)
    e[:, perm, np.arange(m)] = chars[:, :, None] * np.exp(-2j * np.pi * t * gamma / cosets.q)
    return e / math.sqrt(size)
