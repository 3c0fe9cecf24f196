"""Spectral estimation for convolution operators on SL2(Z/q).

The operator of a measure mu acts on functions by left convolution,
(mu * phi)(x) = sum_g mu(g) phi(g^-1 x), restricted to a chosen
subspace: all functions, mean-zero functions, or the new subspace at
level q. Its adjoint is convolution by the reversed measure, so the norm
is the square root of the top eigenvalue of K = reverse(mu) * mu, found
by one Lanczos solver with full reorthogonalisation (`_lanczos`). K itself
is never formed.

Left convolution commutes with right translation by the unipotent
U = {[[1, b], [0, 1]]}, so functions split into q character blocks V_t of
dimension |G|/q (Mackey; Diaconis, Group Representations in Probability
and Statistics, ch. 3), and one block per orbit of the diagonal torus on
the characters suffices. No subspace needs a projection: the norm on the
new subspace is the largest norm of a block M_t with t a unit mod q, on
the mean-zero functions the largest with t != 0, and on all functions the
largest of all (proof in `operator_norm`). The central elements u I with
u^2 = 1 mod q, the torus stabiliser S, commute with every M_t and move the
cosets freely, so each M_t splits into |S| dense blocks of size
|G|/(q|S|) (`UnipotentCosets.stabiliser`), built from mu in |G|^2/(q|S|)
steps (`isotypic_blocks`) whatever its support. The blocks whose Frobenius
norm can reach the largest norm found so far are solved one by one.

Nothing of length |G| is iterated. Dense |G| x |G| matrices are built
only as oracles, for small groups.

The per-block gap (`eta_gap`) needs no iteration. Right translation of a
measure is unitary on the mean-zero functions, so a measure and its right
translates have one norm, and the per-block measures of one modulus fall
into a few right-translation classes. Each unit block V_t of each level
l | q splits once into G-invariant pieces, by the characters of S and then
into the eigenspaces of a Hermitian element of its commutant; together
they hold every nontrivial irreducible of SL2(Z/q). A piece keeps the
|G|/(q|S|) coordinates of its chi-eigenspace of S, on which a group
element acts as a monomial matrix. Left convolution preserves each piece and its complement,
so the largest norm over the pieces, of small dense matrices, is exact.
Isomorphic pieces have one norm, so only one piece per character,
evaluated on the conjugacy classes, is solved. The measures cut from one
window stack share their class and differ only in their weights, so up to
256 of them are solved together, with one matmul and one batched
eigen-solve per piece size and chunk. Closed-form bounds on each piece's
norm, convex in the weights, leave about one piece per window to solve.

The module also hosts the verification routines built on that engine:
the weighted-expansion lemma, the per-block flat-expansion gap, the
exponential decay in the word length, the trace identity with its
eigenvalue-multiplicity count, the autocorrelation threshold, the
generation check for inner-letter quotients, and the headline sweep of
the operator-norm to mass ratio against q^(-1/4).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .decouple import EtaMeasure
from .errors import ConvergenceError, DomainError, EstimationError, GuardExceeded, Guards
from .measures import GroupMeasure, MeasureParams, build_mu, build_mu1, build_nu, cocycle
from .modgroup import (
    GroupTable,
    NewSpaceProjector,
    distinct,
    factorize,
    get_group,
    group_order,
    new_space_dimension,
)
from .symdyn import SystemSpec, word

DENSE_GUARD = 2500  # group order up to which the dense oracles build |G| x |G| matrices
_RITZ_EVERY = 4  # Lanczos steps between eigen-solves of the tridiagonal T
_HECKE_TERMS = 32  # random Hecke operators in the commutant element that splits each V_t
# relative eigenvalue gap between two pieces of V_t; across a smaller gap the
# eigenvectors mix neighbouring pieces by more than _INVARIANCE_TOL
_SPLIT_GAP = 1e-5
_INVARIANCE_TOL = 1e-10  # largest part of a generator's image allowed to leave a piece
_GENERATORS = ((0, -1, 1, 0), (1, 1, 0, 1))  # they generate SL2(Z/q)
_CLASS_CACHE = 16  # right-translation classes whose compressed generators `eta_gap` keeps
_SUPPORT_CACHE = 256  # supports whose least sorted form `_support_class` keeps
_GAP_BLOCK = 256  # windows of a stack that `eta_gap` solves together
_GAP_CACHE = 4  # solved blocks of windows that `eta_gap` keeps
_B_ENTRIES = 2**14  # complex entries of B per batched eigen-solve in `_gaps`
_BOUND_MARGIN = 1e-9  # relative slack of `_candidates`' rule, far above the bounds' rounding
_SIMPLEX_FLOOR = 2.0**-10  # least width 1 - sum(lo) of `_piece_bounds`' simplex
SUBSPACES = ("full", "mean_zero", "new_space")

SWEEP_COLUMNS = [
    "q",
    "group_order",
    "dim_Eq",
    "l1_mass",
    "opnorm_Eq",
    "ratio",
    "q_pow_minus_quarter",
    "R_used",
    "L",
    "R_prime",
    "a",
    "b",
    "iters",
    "seconds",
    "skipped_reason",
]


class ConvOperator:
    """Left-convolution action of a measure restricted to a subspace."""

    def __init__(self, measure: GroupMeasure, subspace: str):
        if subspace not in SUBSPACES:
            raise ValueError(f"subspace must be one of {SUBSPACES}")
        self.measure = measure
        self.table = measure.table
        self.subspace = subspace

    @property
    def dim(self) -> int:
        n = self.table.order
        if self.subspace == "full":
            return n
        if self.subspace == "mean_zero":
            return n - 1
        return new_space_dimension(self.table.q)

    def orbits(self) -> tuple[int, ...]:
        """The torus-orbit representatives t whose blocks V_t carry the
        norm on the subspace (see `operator_norm`): the units t on
        `new_space`, t != 0 on `mean_zero`, every orbit on `full`."""
        ts = self.table.cosets().torus_orbits()
        if self.subspace == "new_space":
            return tuple(t for t in ts if math.gcd(t, self.table.q) == 1)
        if self.subspace == "mean_zero":
            return tuple(t for t in ts if t)
        return ts


@dataclass
class GapReport:
    q: int
    subspace: str
    subspace_dim: int
    l1: float
    norm: float
    rel_gap: float
    iters: int
    residual: float
    seconds: float
    converged: bool
    block: int
    solved: int  # split blocks that Lanczos ran on


def isotypic_blocks(measure: GroupMeasure, ts) -> np.ndarray:
    """The blocks M_t of left convolution by mu on the character blocks V_t,
    each split by the torus stabiliser S into |S| blocks of size m = n/|S|.

    M_t[i, j] = sum_beta mu(s_i u_beta s_j^-1) e(-t beta / q) in the coset
    coordinates of `UnipotentCosets`. M_t commutes with the monomial R_z of
    every z in S (`UnipotentCosets.stabiliser`), so it is the orthogonal sum
    of its compressions B_chi = E_chi^H M_t E_chi to the chi-eigenspaces:
    B_chi[r, r'] = sum_z chi(z) e(t gamma_z(r) / q) M_t[perm_z(r), r'] over
    the S-orbit representatives r, r'. Returns an array (len(ts), |S|, m, m);
    the singular values of M_t are those of its |S| blocks together. Only the
    m representative columns r' of M_t are built, then a DFT along beta, so
    the cost is |G| * m for all ts together and reverse(mu) * mu is never
    formed. Column r' reads mu at s_i u_beta s_r'^-1 over the coset grid
    (i, beta): the grid's packed rows are taken once, and each column needs
    only the q^2 row images of s_r'^-1 and one key per grid entry
    (`GroupTable.row_products`).
    """
    table = measure.table
    cosets = table.cosets()
    reps, perm, gamma, chars, _ = cosets.stabiliser
    q = table.q
    ts = np.asarray(ts, dtype=np.int64)
    dft = np.exp(-2j * np.pi * np.outer(ts, np.arange(q)) / q)
    twist = np.exp(2j * np.pi * (ts[:, None, None] * gamma % q) / q)  # (t, z, r)
    blocks = np.empty((ts.size, len(chars), reps.size, reps.size), dtype=np.complex128)
    grid_rows = table.packed_rows(cosets.grid).astype(np.int32)  # below q^2
    for j, h in enumerate(table.inverse[cosets.section[reps]]):
        # mu(s_i u_beta s_r'^-1) at grid[i, beta], then e(t gamma_z(r) / q) M_t[perm_z(r), r'];
        # one expression, so no column's arrays outlive it
        blocks[..., j] = chars @ (
            (dft @ measure.coeffs.take(table.row_products(h, grid_rows)).T)[:, perm] * twist)
    return blocks


def _lanczos(apply, v0, tol, max_iter):
    """Top eigenvalue of a Hermitian positive semi-definite K, given as
    `apply` on vectors of the length of the start vector `v0`, by Lanczos
    with full reorthogonalisation (Golub & Van Loan, Matrix Computations,
    sec. 10.1).

    Step k makes one apply, subtracts alpha_k v_k + beta_{k-1} v_{k-1} and
    makes one Gram-Schmidt pass against the whole basis, which grows with
    the steps taken. Every _RITZ_EVERY steps the top Ritz pair (theta, s)
    of the tridiagonal T_k is checked: the Ritz vector's residual is
    beta_k |s_k|, and the run stops once it is at most tol * theta. At a
    breakdown (beta_k <= 1e-14 max alpha <= 1e-14 theta) or at k = dim the
    Krylov space is invariant and theta is exact. Returns (lam, residual,
    steps, converged), with lam the Rayleigh quotient of the Ritz vector y
    and residual the explicit ||K y - lam y||, from one more apply;
    converged is False when max_iter < dim steps did not meet the stop.
    """
    dim = v0.size
    limit = min(dim, max_iter)
    # room for four Ritz checks; grows by doubling below, never past `limit` rows
    basis = np.empty((min(limit, 4 * _RITZ_EVERY), dim), dtype=np.complex128)
    basis[0] = v0 / np.linalg.norm(v0)
    alpha, beta = [], []
    for k in range(1, limit + 1):
        v, V = basis[k - 1], basis[:k]
        w = apply(v)
        alpha.append(float(np.vdot(v, w).real))
        w -= alpha[-1] * v
        if k > 1:
            w -= beta[-1] * basis[k - 2]
        w -= np.conj(V @ np.conj(w)) @ V
        beta.append(math.sqrt(np.vdot(w, w).real))
        invariant = k == dim or beta[-1] <= 1e-14 * max(alpha)
        if invariant or k % _RITZ_EVERY == 0 or k == limit:
            # eigh reads the lower triangle: the diagonal and beta_1..beta_{k-1}
            thetas, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))
            theta, s = thetas[-1], s[:, -1]
            done = invariant or beta[-1] * abs(s[-1]) <= tol * theta
            if done or k == limit:
                break
        if k == len(basis):
            basis = np.concatenate([basis, np.empty((min(k, limit - k), dim), basis.dtype)])
        basis[k] = w / beta[-1]
    y = s @ V
    y /= np.linalg.norm(y)
    w = apply(y)
    lam = max(float(np.vdot(y, w).real), 0.0)
    return lam, float(np.linalg.norm(w - lam * y)), k, done


def operator_norm(
    op: ConvOperator,
    tol: float = 1e-8,
    max_iter: int = 5000,
    seed: int = 7,
) -> GapReport:
    """Largest singular value of the restricted convolution action.

    Solves K = reverse(mu) * mu as M_t^H M_t on the bare blocks M_t
    of the torus orbits that `ConvOperator.orbits` keeps for the subspace.
    No projection is needed, because the norm on each subspace is the
    largest ||M_t|| over those orbits:

    * `full`: every orbit; the V_t span all functions.
    * `new_space`: the units t, gcd(t, q) = 1.
      - V_t lies in E_q when t is a unit. A pullback from level q/p is fixed
        by right translation by u_{q/p}, which acts on V_t as e(t/p) != 1.
      - Every irreducible representation pi in E_q contains a unit
        character. Suppose every t in pi|_U has p | t. Then pi(u_{q/p}) = 1,
        so pi is trivial on the normal closure of u_{q/p} inside the kernel
        of reduction to q/p. That closure is the whole kernel: the kernel is
        sl2(F_p) at exponent >= 2 and SL2(F_p) at exponent 1, and the
        conjugates of E12 span it, also at p = 2, where E12, E21 and
        I + E12 + E21 are conjugate although sl2(F_2) is reducible. So pi
        factors through level q/p. The Chinese remainder theorem combines
        the primes.
      - V_t is Ind_U^G psi_t, so by Frobenius reciprocity V_t contains every
        pi whose restriction to U contains psi_t, and mu acts on each copy
        of pi as pi(mu).
    * `mean_zero`: t != 0. V_t holds no constants for t != 0, and a
      nontrivial pi trivial on U would be trivial on the normal closure of
      U, which is SL2(Z/q), since SL2(Z/q) is generated by unipotents.

    One irreducible representation holds characters of several orbits, so
    blocks of different orbits can tie exactly (t = 1, 7 at q = 8).

    Each block is solved by `_lanczos`, which stops when the Ritz
    residual is at most tol * theta. The reported value is the Rayleigh
    quotient of the Ritz vector, a lower bound on the top eigenvalue of
    K up to rounding, since K is Hermitian positive; by the residual it
    lies within `residual` of an eigenvalue of K.
    The blocks are split by the torus stabiliser S (`isotypic_blocks`):
    ||M_t|| is the largest norm of its |S| blocks B_chi, and each B_chi is
    solved on its own. `block` is the smallest t with a block within
    100 * tol of the maximum, with its `residual`. A block whose trace
    ||B_chi||_F^2 is at most dim * eps * ||mu||_1^2, with dim = n/|S| its
    dimension (numpy's matrix_rank tolerance, with ||mu||_1^2 bounding the
    block's norm), is reported as exactly 0.

    Only the blocks that can attain the norm are solved. The trace bounds
    the block's norm, ||B_chi||^2 <= ||B_chi||_F^2, so the blocks are solved
    in descending trace, and the rest are skipped once a trace, raised by
    _BOUND_MARGIN, is below (1 - 100 * tol) times the best Rayleigh quotient
    so far: a skipped block is neither the maximum nor within the window
    that names `block`. Each block's start vector is drawn in block order
    before any solve, so a block that is solved starts where it would if
    every block were, and the norm, `block` and `residual` are those of
    solving them all. `solved` counts the blocks solved and `iters` sums
    their Lanczos steps. Raises ConvergenceError carrying the best estimate
    if a solved block reaches max_iter steps, short of its dimension,
    without meeting the stop.
    """
    t0 = time.perf_counter()
    if op.dim < 1:
        raise ValueError("subspace dimension is zero")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    table = op.table
    ts = op.orbits()
    blocks = isotypic_blocks(op.measure, ts)
    split = blocks.reshape(-1, *blocks.shape[2:])
    orbit = np.repeat(ts, blocks.shape[1])
    floor = blocks.shape[-1] * np.finfo(float).eps * op.measure.l1**2
    frob = [np.vdot(m, m).real for m in split]
    # start vectors in block order, whichever blocks are solved
    rng = np.random.default_rng(seed)
    starts = {k: rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
              for k, m in enumerate(split) if frob[k] > floor}
    results = {k: (0.0, 0.0) for k, f in enumerate(frob) if f <= floor}  # (lam, residual)
    converged = True
    total_iters = solved = 0
    best = 0.0
    for k in sorted(starts, key=lambda k: -frob[k]):
        # ||B||_F^2 >= ||B||^2: this block and every later one stay below the
        # window of the maximum that names `block`
        if frob[k] * (1 + _BOUND_MARGIN) < (1.0 - 100.0 * tol) * best:
            break
        # M^H M v, as conj(conj(M v) M) to spare a copy of M^H
        lam, residual, steps, done = _lanczos(
            lambda v, m=split[k]: np.conj(np.conj(m @ v) @ m), starts[k], tol, max_iter)
        total_iters += steps
        solved += 1
        converged = converged and done
        best = max(best, lam)
        results[k] = (lam, residual)
    # blocks of different torus orbits can tie exactly (t = 1, 7 at q = 8):
    # name the smallest t within the solver's resolution of the maximum
    block, k = min((int(orbit[k]), k) for k, (lam, _) in results.items()
                   if lam >= (1.0 - 100.0 * tol) * best)
    residual = results[k][1]
    norm_est = math.sqrt(best)
    l1 = op.measure.l1
    report = GapReport(
        q=table.q,
        subspace=op.subspace,
        subspace_dim=op.dim,
        l1=l1,
        norm=norm_est,
        rel_gap=1.0 - norm_est / l1 if l1 > 0 else float("nan"),
        iters=total_iters,
        residual=residual,
        seconds=time.perf_counter() - t0,
        converged=converged,
        block=block,
        solved=solved,
    )
    if not converged:
        raise ConvergenceError(
            f"Lanczos hit {max_iter} steps at q={table.q}",
            report=report,
        )
    return report


# ---------------------------------------------------------------------------
# dense oracles


def dense_conv_matrix(measure: GroupMeasure, guard: int = DENSE_GUARD) -> np.ndarray:
    """Dense matrix of phi -> mu * phi; M[x, y] = mu(x y^-1), so each
    support point g fills the cells (g y, y). GuardExceeded above `guard`
    group elements; the only check of the dense-oracle limit, which no
    config sets: the oracles serve the tests and perfbench's references."""
    t = measure.table
    n = t.order
    if n > guard:
        raise GuardExceeded(f"group order {n} exceeds the dense-oracle limit {guard}")
    real = bool(np.all(measure.coeffs.imag == 0.0))
    coeffs = measure.coeffs.real if real else measure.coeffs
    M = np.zeros((n, n), dtype=coeffs.dtype)
    cols = np.arange(n)
    for g in measure.support:
        M[t.left_translation(int(g)), cols] = coeffs[g]
    return M


def dense_subspace_projector(table: GroupTable, subspace: str) -> np.ndarray:
    n = table.order
    if subspace == "full":
        return np.eye(n)
    if subspace == "mean_zero":
        return np.eye(n) - np.full((n, n), 1.0 / n)
    return NewSpaceProjector(table).apply(np.eye(n))


def dense_operator_norm(measure: GroupMeasure, subspace: str, guard: int = DENSE_GUARD) -> float:
    """Oracle: top singular value of the restricted action A = M P.

    It is the square root of the largest eigenvalue of the Hermitian Gram
    matrix A^H A, clipped at 0 against rounding; no block structure is used.
    """
    M = dense_conv_matrix(measure, guard)
    P = dense_subspace_projector(measure.table, subspace)
    A = M @ P
    lam = float(np.linalg.eigvalsh(A.conj().T @ A)[-1])
    return math.sqrt(max(lam, 0.0))


# ---------------------------------------------------------------------------
# weighted expansion lemma


@dataclass(frozen=True)
class LemmaExpandReport:
    j_size: int
    c0: float
    kappa_bar: float
    k_ratio: float
    lhs: float
    rhs: float
    hypothesis_ok: bool
    passed: bool


class LemmaExpandTester:
    """Measures the unweighted gap once, then checks weighted coefficient
    draws against the kappa_bar * (1 - C0 + sqrt(K-1)) * |J| bound.

    The elements are compressed once onto the pieces of `_class_generators`,
    which hold every nontrivial irreducible of SL2(Z/q) once, up to
    isomorphism and complex conjugation."""

    def __init__(self, table: GroupTable, elements):
        self.elements = [int(h) for h in elements]
        self.sizes = _class_generators(table, tuple(self.elements))
        self.c0 = 1.0 - self._mean_zero_top(np.ones(len(self.elements))) / len(self.elements)

    def _mean_zero_top(self, kappas) -> float:
        """Top eigenvalue of the symmetric part of P0 M P0, with M the
        convolution by nu = sum_h kappa_h delta_h and P0 = I - 11^T/|G|.

        On a piece M acts as B = kappa @ gens, so the symmetric part acts as
        (B + B^H)/2; on the constants it is 0. The kappas are positive reals
        (`check`), so a conjugate piece gives conj of that matrix, of the
        same spectrum, and isomorphic pieces give the same spectrum."""
        top = 0.0
        for d, gens in self.sizes:
            b = (kappas @ gens).reshape(-1, d, d)
            top = max(top, 0.5 * float(np.linalg.eigvalsh(b + np.conj(b.swapaxes(1, 2))).max()))
        return top

    def check(self, kappas) -> LemmaExpandReport:
        kappas = np.asarray(kappas, dtype=float)
        if kappas.shape != (len(self.elements),) or np.any(kappas <= 0):
            raise ValueError("need one positive coefficient per element")
        J = len(self.elements)
        kbar = float(kappas.mean())
        K = float(kappas.max() / kbar)
        hypothesis_ok = self.c0 > 0
        if hypothesis_ok:
            lhs = self._mean_zero_top(kappas)
            rhs = kbar * (1.0 - self.c0 + math.sqrt(max(K - 1.0, 0.0))) * J
            passed = lhs <= rhs * (1.0 + 1e-9) + 1e-12
        else:
            lhs = float("nan")
            rhs = float("nan")
            passed = False
        return LemmaExpandReport(
            j_size=J,
            c0=self.c0,
            kappa_bar=kbar,
            k_ratio=K,
            lhs=lhs,
            rhs=rhs,
            hypothesis_ok=hypothesis_ok,
            passed=passed,
        )


# ---------------------------------------------------------------------------
# per-block gap, decay, trace identity, autocorrelation


@dataclass(frozen=True)
class EtaGapReport:
    q: int
    c1: float
    norm: float
    l1: float
    iters: int
    gap_failure: bool


@lru_cache(maxsize=_SUPPORT_CACHE)
def _support_class(table: GroupTable, supp: tuple[int, ...]):
    """The weight-free part of `_canonical_forms`: (key, order).

    Over x in supp, the support supp x^-1 is sorted; key is the least sorted
    support, and the read-only (len(supp),) array order is the sorting
    permutation of the least x that attains it. Several x can: on the
    unipotent subgroup every x gives the same support.
    """
    arr = np.array(supp)
    shifted = table.products(arr[:, None], table.inverse[arr])  # [k, x] = supp_k x^-1
    order = np.argsort(shifted, axis=0)
    cols = np.take_along_axis(shifted, order, axis=0)
    x = np.lexsort(cols[::-1])[0]  # stable, and its last key takes precedence: the least x
    order = order[:, x]
    order.setflags(write=False)
    return tuple(cols[:, x].tolist()), order


def _canonical_forms(table: GroupTable, support: np.ndarray, weights: np.ndarray,
                     bounds: np.ndarray) -> dict:
    """Canonical forms up to right translation of the measures
    sum_k weights[k] delta(support[k]) over the entries bounds[w]:bounds[w+1]
    of each window w.

    Over x in a window's support, the support supp x^-1 is sorted and the
    weights reordered with it; the least sorted support is the key, and the
    weights are reordered as for the least x that attains it. That x is a
    right translation, which leaves the norm unchanged, so any attaining x
    would do. The sorted supports do not depend on the weights, so the key
    and the order come from `_support_class`, once per distinct support,
    and the weights of every window on that support are reordered by one
    gather. Empty windows are left out.

    Returns {key: (windows, weights)}: the windows of one class and their
    reordered weights, one row each.
    """
    by_support: dict[tuple[int, ...], list[int]] = {}
    for w in np.flatnonzero(np.diff(bounds)).tolist():
        by_support.setdefault(tuple(support[bounds[w] : bounds[w + 1]].tolist()), []).append(w)
    groups: dict[tuple, list] = {}
    for supp, ws in by_support.items():
        key, order = _support_class(table, supp)
        ws = np.array(ws)
        groups.setdefault(key, []).append((ws, weights[bounds[ws][:, None] + order]))
    return {k: tuple(map(np.concatenate, zip(*parts))) for k, parts in groups.items()}


def _clusters(w: np.ndarray) -> list[int]:
    """Boundaries of the clusters of the sorted eigenvalues w: a cluster ends
    where the next gap exceeds _SPLIT_GAP times the spectral radius."""
    cut = np.flatnonzero(np.diff(w) > _SPLIT_GAP * np.abs(w).max()) + 1
    return [0, *cut.tolist(), w.size]


@lru_cache(maxsize=None)
def _conjugacy_classes(table: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """Representatives and sizes of the conjugacy classes of the group.

    A class is an orbit of conjugation by the two generators, which generate
    the group: labels fall to the least index of their orbit.
    """
    perms = [table.products(table.products(g, slice(None)), table.inverse[g])
             for g in (table.index_of(g) for g in _GENERATORS)]  # x -> g x g^-1
    label = np.arange(table.order)
    while True:
        new = np.minimum.reduce([label, *(label[p] for p in perms)])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    reps, sizes = np.unique(label, return_counts=True)
    return reps, sizes


def _character_pieces(table: GroupTable, t: int) -> list[tuple[int, np.ndarray]]:
    """Pairs (x, v) of G-invariant pieces that split V_t: v is an orthonormal
    basis (n/|S|, d) of the piece in the coordinates of the chi_x-eigenspace of S.
    `_new_pieces` calls it at unit t alone, where V_t holds only
    irreducibles new at level q.

    The pieces are the eigenspaces of a seeded Hermitian element of the
    commutant of left translation on V_t, H = sum_k (c_k T_k + conj(c_k) T_k^H)
    with complex c_k, and Hecke operators T_g = P_t R_g: right translation
    by g, then the projection onto V_t. In coset coordinates, with
    s_i u_b g = s_j u_beta, T_g[i, j] collects e(t (beta - b) / q) / q over
    b, from the products s_i u_b g of the coset grid, and T_g^H = T_{g^-1}.
    Left translations commute with H, so every eigenspace is invariant; a
    generic H has irreducible eigenspaces. Complex c_k also separate the
    copies of a representation whose multiplicity space is quaternionic,
    which a real combination of the Hermitian parts T_k + T_k^H cannot.

    H commutes with the torus stabiliser S too (`UnipotentCosets.stabiliser`),
    so it is folded into the chi-eigenspaces: only the rows of H at the
    S-orbit representatives r are built, n/|S| * q steps per term, each term
    binned by the S-orbit coordinates (z, r') of its coset into H_chi[r, r'] =
    sum_z chi(z) e(-t gamma_z(r') / q) H[r, perm_z(r')] of E_chi^H H E_chi.
    Each H_chi is diagonalised and its eigenvalues grouped by `_clusters`.
    S is central and acts on an irreducible by its central character; random
    g almost never fall in the centre, and without this split pieces of two
    representations stay merged at q=16.
    """
    cosets = table.cosets()
    reps, _, gamma, chars, where = cosets.stabiliser
    q, n, m = table.q, cosets.n, reps.size
    rng = np.random.default_rng([q, t])
    gs = rng.integers(table.order, size=_HECKE_TERMS)
    coef = ([1, 1j] @ rng.standard_normal((2, gs.size))) / q
    gs, coef = np.concatenate([gs, table.inverse[gs]]), np.concatenate([coef, coef.conj()])
    idx = table.right_translation(gs, of=cosets.grid[reps])  # s_r u_b g_k
    # per element, s_r u_b g_k = z s_r' u_(beta - gamma_z(r')) with c = z m + r'
    c = where[cosets.cid]
    beta = (cosets.beta - gamma.flat[c]) % q
    cells = (np.arange(m)[:, None] * n + c[idx]).reshape(-1)
    # roots[beta, b] = e(t (beta - b) / q)
    roots = np.exp(2j * np.pi * np.arange(q) / q)[t * (np.arange(q)[:, None] - np.arange(q)) % q]
    phase = (coef[:, None, None] * roots[beta[idx], np.arange(q)]).reshape(-1)
    h = np.bincount(cells, phase.real, m * n) + 1j * np.bincount(cells, phase.imag, m * n)
    pieces = []
    for x, h_chi in enumerate(np.einsum("xz,rzs->xrs", chars, h.reshape(m, -1, m))):
        w, v = np.linalg.eigh(h_chi)
        bounds = _clusters(w)
        pieces += [(x, v[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return pieces


def _folded(table: GroupTable, elements) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, perm, beta), each (len(elements), m): g^-1 s_r = z s_perm(r) u_beta
    for every element g at the S-orbit heads r, the data of g's folded
    monomial f(r) -> chi(z) e(t beta / q) f(perm(r)) on a chi-eigenspace of V_t."""
    cosets = table.cosets()
    heads, _, gamma, _, where = cosets.stabiliser
    idx = table.products(table.inverse[elements][:, None], cosets.section[heads])
    z, perm = np.divmod(where[cosets.cid[idx]], heads.size)
    return z, perm, cosets.beta[idx] - gamma[z, perm]


@lru_cache(maxsize=None)
def _new_pieces(table: GroupTable) -> tuple[tuple[int, int, np.ndarray], ...]:
    """The G-invariant pieces (t, x, w) of the unit blocks V_t of SL2(Z/q),
    q = table.q, one per isomorphism class up to complex conjugation, with w
    the piece's basis in its chi_x-eigenspace (`_character_pieces`). They
    hold exactly the irreducibles new at level q (see `_class_generators`),
    and no class element goes into them, so they are built once per level,
    whatever modulus q divides.

    Each piece W is checked invariant under the generators [[0,-1],[1,0]]
    and [[1,1],[0,1]] of SL2(Z/q), which act on its chi-eigenspace of S as
    folded monomials of unit norm (`_folded`): EstimationError if a column
    of their image of W leaves span W by more than _INVARIANCE_TOL. A piece
    that merges two invariant pieces is harmless; one that splits one gives
    a wrong norm.

    Every piece is checked, but only one per character is kept: pieces
    with characters chi and chi' on the conjugacy classes C are isomorphic
    iff sum_C |C| |chi - chi'|^2 / |G| < 1/2 (the sum is the integer
    sum_pi (m_pi - m'_pi)^2 over the irreducible pi), and isomorphic pieces
    give unitarily equivalent compressions. The weights are real (`_gaps`
    checks them), so a piece whose character is conj(chi) of a kept one is
    dropped too: its compression with real weights is conj(B), of the same
    norm. For the same reason only one of the orbits of t and -t is split.
    """
    q = table.q
    cosets = table.cosets()
    ts = tuple(t for t in cosets.torus_orbits()  # the units, one of t and -t
               if math.gcd(t, q) == 1 and min(cosets.torus_orbit(-t % q)) >= t)
    reps, sizes = _conjugacy_classes(table)
    weight = sizes / table.order
    signs = cosets.stabiliser[3]
    z, perm, beta = _folded(table, [table.index_of(g) for g in _GENERATORS] + reps.tolist())
    cols = np.arange(perm.shape[1])
    pieces, chars = [], []
    for t in ts:
        phase = np.exp(2j * np.pi * t * beta / q)
        for x, w in _character_pieces(table, t):
            mono = signs[x, z] * phase
            mw = mono[:2, :, None] * w[perm[:2]]
            off = np.linalg.norm(mw - w @ (w.conj().T @ mw), axis=1).max()
            if off > _INVARIANCE_TOL:
                raise EstimationError(
                    f"piece of dimension {w.shape[1]} at q={q}, t={t} is not "
                    f"invariant: {off:.2e} of a generator's image leaves it"
                )
            pieces.append((t, x, np.ascontiguousarray(w)))
            # chi(g^-1) = tr(W^H M_t W) = sum_r mono(r) P[perm(r), r], P = W W^H
            chars.append((mono[2:] * (w @ w.conj().T)[perm[2:], cols]).sum(axis=1))
    # dist[i, j] = sum_C |C| |chi_i - chi_j|^2 / |G|, or to conj(chi_j) if smaller
    chi = np.array(chars)
    norms = np.abs(chi) ** 2 @ weight
    dist = norms[:, None] + norms - 2 * np.maximum((chi * weight @ chi.conj().T).real,
                                                   (chi * weight @ chi.T).real)
    return tuple(pieces[i] for i in np.flatnonzero(~np.tril(dist < 0.5, -1).any(axis=1)))


@lru_cache(maxsize=_CLASS_CACHE)
def _class_generators(table: GroupTable, key: tuple[int, ...]):
    """The class elements delta(key[k]) compressed to one piece per
    isomorphism class, up to complex conjugation, of the G-invariant pieces
    of the mean-zero functions on G = SL2(Z/q), for measures of real weights.

    Returns one (d, gens) pair per piece size d, with gens a read-only
    (len(key), pieces * d * d) array of the flattened compressions.

    The pieces are those of the unit blocks of every level l | q, l > 1
    (`_new_pieces`). A nontrivial irreducible pi factors through reduction
    to a least level l, since the kernels K_a, K_b of reduction to a and b
    give K_a K_b = K_gcd(a, b) by the Chinese remainder theorem; pi is new
    at level l, so by the argument of `operator_norm` it holds a unit
    character and occurs in a unit block of SL2(Z/l). A unit block of level
    l holds only irreducibles new at l, so pieces of two levels are never
    isomorphic, and eta acts on a level-l piece as its reduction mod l.
    The key elements are reduced mod each level, looked up in its table and
    compressed onto its kept pieces, and the pieces of every level are
    merged by size, the lower levels first.
    """
    q = table.q
    elems = table.elems[list(key)]
    by_size: dict[int, list[np.ndarray]] = {}
    for level in (get_group(div, q) for div in range(2, q + 1) if q % div == 0):
        signs = level.cosets().stabiliser[3]
        z, perm, beta = _folded(level, level.indices_of(elems))
        for t, x, w in _new_pieces(level):
            mono = signs[x, z] * np.exp(2j * np.pi * t * beta / level.q)
            by_size.setdefault(w.shape[1], []).append(w.conj().T @ (mono[:, :, None] * w[perm]))
    out = []
    for d, group in by_size.items():
        arr = np.stack(group, axis=1).reshape(len(key), -1)
        arr.setflags(write=False)
        out.append((d, arr))
    return tuple(out)


def _top_eigenvalues(b: np.ndarray) -> np.ndarray:
    """The top eigenvalue of B^H B for every matrix B of the stack b, from
    `eigvalsh` calls of at most _B_ENTRIES complex entries of b each (a
    matrix alone if larger)."""
    per = max(1, _B_ENTRIES // (b.shape[1] * b.shape[2]))
    return np.concatenate([np.linalg.eigvalsh(np.conj(c.swapaxes(1, 2)) @ c)[:, -1]
                           for c in np.split(b, range(per, len(b), per))])


def _piece_bounds(beta: np.ndarray, mass: np.ndarray, gens: np.ndarray,
                  d: int) -> tuple[np.ndarray, np.ndarray]:
    """(upper, lower), each (windows, pieces): bounds on the norm
    f_p(beta_w) = ||sum_k beta_w[k] G_kp|| of each piece p of one size d of
    `_class_generators` (gens), for windows with positive weights beta (one
    row each, masses mass = row sums), the one domain `_gaps` admits.

    f_p is convex and 1-homogeneous. Upper: the normalised weights
    p_w = beta_w / mass_w lie in the simplex with vertices v_i = lo +
    (1 - sum lo) e_i, lo their coordinatewise minimum, at barycentric
    weights (p_w - lo) / (1 - sum lo) >= 0, so f_p(beta_w) <= mass_w *
    sum_i lambda_wi f_p(v_i), from k * pieces exact norms at the vertices.
    Where the windows nearly share one normalised weight vector, lo is
    scaled down until 1 - sum lo >= _SIMPLEX_FLOOR, which keeps the
    barycentric weights' rounding small. Lower: with (y_p, x_p) the top
    singular pair of B_p at the centroid of the p_w, f_p(beta) >=
    Re y_p^H B_p(beta) x_p = <g_p, beta>, g_pk = Re y_p^H G_kp x_p; it
    holds for any unit x_p, y_p, so y_p is normalised explicitly."""
    k = beta.shape[1]
    p = beta / mass[:, None]
    lo = p.min(axis=0)
    if lo.sum() > 1 - _SIMPLEX_FLOOR:
        lo *= (1 - _SIMPLEX_FLOOR) / lo.sum()
    width = 1 - lo.sum()
    vertices = ((lo + width * np.eye(k)) @ gens).reshape(-1, d, d)
    at_vertex = np.sqrt(np.maximum(_top_eigenvalues(vertices), 0)).reshape(k, -1)
    upper = mass[:, None] * ((p - lo) / width @ at_vertex)
    b = (p.mean(axis=0) @ gens).reshape(-1, d, d)  # B_p at the centroid
    x = np.linalg.eigh(np.conj(b.swapaxes(1, 2)) @ b)[1][:, :, -1]
    y = (b @ x[:, :, None])[:, :, 0]
    y /= np.maximum(np.linalg.norm(y, axis=1, keepdims=True), np.finfo(float).tiny)
    g = np.einsum("pi,kpij,pj->pk", y.conj(), gens.reshape(k, -1, d, d), x).real
    return upper, beta @ g.T


def _candidates(canon: np.ndarray, sizes) -> list[np.ndarray]:
    """Per piece size (d, gens) of `_class_generators` (sizes), keep[w, p]:
    whether piece p can attain the norm of window w, for the windows of one
    class (`_canonical_forms`: their positive weights canon, one row each).

    A piece is dropped when its upper bound of `_piece_bounds`, raised by
    the relative margin _BOUND_MARGIN, stays below the window's largest
    lower bound over the pieces of every size: the rounding of both bounds
    is below 1e-12 relative, so the piece's computed norm falls below the
    window's computed maximum, and the maximum over the kept pieces is the
    same number, bit for bit, as over every piece. Every piece is kept (a
    block with no bound) where the windows are at most k + 1, as the one
    window of a measure solved alone."""
    n, k = canon.shape
    if n <= k + 1:
        return [np.ones((n, gens.shape[1] // (d * d)), dtype=bool) for d, gens in sizes]
    bounds = [_piece_bounds(canon, canon.sum(axis=1), gens, d) for d, gens in sizes]
    best = np.max([lower.max(axis=1) for _, lower in bounds], axis=0)[:, None]
    return [~(upper * (1 + _BOUND_MARGIN) < best) for upper, _ in bounds]


def _gaps(table: GroupTable, support: np.ndarray, weights: np.ndarray,
          bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(norm, l1) of the mean-zero action of each window's measure, in the
    layout of `_canonical_forms`: per class and piece size, the pieces that
    can attain each window's norm (`_candidates`), then one (windows, k) @
    (k, pieces * d * d) product per chunk of at most _B_ENTRIES complex
    entries of B (a piece alone if larger), one batched B^H B and one
    `eigvalsh` of the kept pieces of the chunk, and the largest top
    eigenvalue over them. A chunk with no kept piece is skipped.

    DomainError unless the weights have a real dtype and are all positive:
    the per-block measures of the decoupling are, and the class build and
    the bounds hold for them alone."""
    if np.iscomplexobj(weights) or not (weights > 0).all():
        raise DomainError("eta_gap needs positive real weights")
    top = np.zeros(bounds.size - 1)
    for key, (ws, canon) in _canonical_forms(table, support, weights, bounds).items():
        sizes = _class_generators(table, key)
        for (d, gens), keep in zip(sizes, _candidates(canon, sizes)):
            pieces = gens.shape[1] // (d * d)
            per = max(1, _B_ENTRIES // (d * d))  # matrices per eigen-solve
            rows, cols = max(1, per // pieces), min(pieces, per)
            for lo in range(0, ws.size, rows):
                for c in range(0, pieces, cols):
                    sel = keep[lo : lo + rows, c : c + cols]
                    if sel.any():
                        b = canon[lo : lo + rows] @ gens[:, c * d * d : (c + cols) * d * d]
                        at = np.broadcast_to(ws[lo : lo + rows, None], sel.shape)[sel]
                        lam = _top_eigenvalues(b.reshape(-1, d, d)[sel.reshape(-1)])
                        np.maximum.at(top, at, lam)
    l1 = [math.fsum(weights[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])]
    return np.sqrt(top), np.array(l1)


@lru_cache(maxsize=_GAP_CACHE)
def _stack_gaps(table: GroupTable, supports, block: int) -> tuple[np.ndarray, np.ndarray]:
    """`_gaps` of windows block * _GAP_BLOCK up to (block + 1) * _GAP_BLOCK of
    a window stack's supports at q (`decouple._Supports`, keyed by identity)."""
    bounds = supports.bounds[block * _GAP_BLOCK : (block + 1) * _GAP_BLOCK + 1]
    entries = slice(bounds[0], bounds[-1])
    gaps = _gaps(table, supports.support[entries], supports.weights[entries], bounds - bounds[0])
    for arr in gaps:
        arr.setflags(write=False)
    return gaps


def eta_gap(eta: EtaMeasure, tol=1e-8, seed=7) -> EtaGapReport:
    """Relative mean-zero gap 1 - norm/mass of one per-block measure.

    The weights must be positive reals, as every measure the decoupling
    builds has them (beta = exp(a * fsum) > 0): DomainError otherwise, also
    for an eta made by `dataclasses.replace`. The norm is exact up to
    rounding; nothing iterates, so `iters` is 0 and `seed` is unused. Both
    stay as long as their callers read them: perfbench's eta-gaps workload
    and reference script alone pass `seed=`, and the workload records
    `iters`. Two facts make it exact and cheap:

    * Right translation is unitary on the mean-zero functions: convolution
      by eta * delta(g) is convolution by eta after left translation by g.
      So eta is first put in the canonical form of its right-translation
      class (`_canonical_forms`); on the C07 table one class per modulus
      holds every eta. The least sorted support is cached per (table,
      support): the table carries q, since the support holds the block
      cocycles mod q, but the weights are not in the key. A support depends
      only on the block's outer word, so the C07 table meets 4 supports per
      modulus at L=2 and 15-16 at L=3 and sorts each once, not once per eta.
    * Left convolution preserves every G-invariant subspace of a character
      block V_t, and the orthogonal complement of one too, so the norm is
      the largest over the invariant pieces of `_character_pieces`. Every
      nontrivial irreducible is new at one level l | q, l > 1, and occurs
      in a unit block of SL2(Z/l), so the mean-zero norm is the largest
      over the levels of eta mod l on the unit blocks of level l, each
      level split once per process (`_new_pieces`). On a piece W it is
      that of B = sum_k beta_k W^H M_t(delta(g_k)) W, the top eigenvalue of
      B^H B. Isomorphic pieces give the same norm, and with real weights so
      do conjugate ones, so one piece per character up to conjugation is
      solved (`_class_generators`).

    The measures of one window stack share their class and differ only in
    their weights, so they are solved together (`_gaps`): an eta cut from a
    stack (`EtaMeasure.stacked`) reads its norm and mass from the block of
    _GAP_BLOCK windows of the stack that holds it, solved on the first read
    and cached for _GAP_CACHE blocks (`_stack_gaps`), with one matmul and
    one batched `eigvalsh` per piece size and chunk of at most _B_ENTRIES
    entries of B. Any other eta, such as one made by `dataclasses.replace`,
    is solved alone by the same kernel. The compressed generators are
    cached, keyed by class; at q <= 16 no kept piece exceeds 24 dimensions.
    The pieces are cached per level and hold no class element, so the
    moduli of one process share the levels they have in common.
    The weights are read sparse, and no dense |G| vector is built.

    Only the pieces that can attain a window's norm are solved exactly
    (`_candidates`). A piece's norm is convex and 1-homogeneous in the
    weights: it is bounded above on the simplex that holds a block's
    normalised weights, from its norms at the k vertices, and below by the
    top singular pair at the centroid (`_piece_bounds`). A piece is dropped
    when its upper bound, raised by 1e-9 relative (_BOUND_MARGIN, far above
    the bounds' rounding), stays below the window's best lower bound, so
    every norm is the same number as from every piece. Blocks of at most
    k + 1 windows (a measure solved alone) keep every piece. On the C07
    table (k = 4) the 2304 windows of the 24 bounded blocks keep one piece
    each; with the 32 windows of L=2, j=1, solved whole, that is 2860 exact
    solves instead of 40,588.

    A vanishing gap is reported, not raised; it flags a modulus whose
    inner-letter quotients stay inside a proper subgroup or a block
    length too small for flatness. Vanishing means below 100 * tol: the
    resolution that acceptance check C07b states, kept until a rounding
    bound of the batched eigen-solve replaces it.
    """
    table = eta.table
    if eta.stacked is None:
        norms, l1s = _gaps(table, eta.support, eta.weights, np.array([0, eta.support.size]))
        i = 0
    else:
        _, supports, i = eta.stacked
        norms, l1s = _stack_gaps(table, supports, i // _GAP_BLOCK)
        i %= _GAP_BLOCK
    norm, l1 = float(norms[i]), float(l1s[i])
    c1 = 1.0 - norm / l1
    return EtaGapReport(
        q=table.q,
        c1=c1,
        norm=norm,
        l1=l1,
        iters=0,
        gap_failure=c1 <= 100.0 * tol,
    )


@dataclass(frozen=True)
class DecayRow:
    r_len: int
    l1: float
    norm: float
    ratio: float


@dataclass(frozen=True)
class DecayReport:
    q: int
    rows: tuple[DecayRow, ...]
    strictly_decreasing: bool
    slope: float
    c2: float


def mu1_decay(params: MeasureParams, r_values, L: int, subspace="mean_zero",
              tol=1e-8, max_iter=5000, seed=7) -> DecayReport:
    """Norm-to-mass ratio of the positive measure as the word length grows.

    Each length must be a multiple of the block length L. Fits
    log(ratio) against R; the decay constant is 1 - exp(slope).
    """
    rows = []
    for r in r_values:
        if r % L != 0:
            raise ValueError(f"R={r} is not a multiple of L={L}")
        m = build_mu1(replace(params, r_len=int(r)))
        rep = operator_norm(ConvOperator(m, subspace), tol=tol, max_iter=max_iter, seed=seed)
        rows.append(DecayRow(r_len=int(r), l1=m.l1, norm=rep.norm, ratio=rep.norm / m.l1))
    ratios = [row.ratio for row in rows]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    slope = float(
        np.polyfit([row.r_len for row in rows], np.log([max(r, 1e-300) for r in ratios]), 1)[0]
    )
    return DecayReport(
        q=params.q,
        rows=tuple(rows),
        strictly_decreasing=decreasing,
        slope=slope,
        c2=1.0 - math.exp(slope),
    )


@dataclass(frozen=True)
class TraceReport:
    q: int
    trace_lhs: float
    trace_rhs: float
    trace_rel_err: float
    top_eigenvalue: float
    multiplicity: int
    norm_on_new_space: float
    cprime: float | None


def _orbit_spectra(measure: GroupMeasure):
    """(t, |orbit(t)|, lam) for every torus orbit t of the measure's group,
    lam an array (|S|, m) of the eigenvalues of K = reverse(mu) * mu on V_t:
    K acts there as M_t^H M_t, whose eigenvalues are those of B^H B over the
    split blocks B of `isotypic_blocks`.

    The orbits are built |S| at a time, so each column's gather of mu serves
    |S| orbits. The units make |S| orbits (the units mod their squares are
    S's size), so no batch holds more blocks than `operator_norm` holds on
    E_q."""
    cosets = measure.table.cosets()
    ts = cosets.torus_orbits()
    size = len(cosets.stabiliser[3])
    for lo in range(0, len(ts), size):
        b = isotypic_blocks(measure, ts[lo:lo + size])
        for t, lam in zip(ts[lo:lo + size], np.linalg.eigvalsh(np.conj(b.swapaxes(-1, -2)) @ b)):
            yield t, len(cosets.torus_orbit(t)), lam


def _top_count(spectra, thresh: float) -> int:
    """The eigenvalues of `_orbit_spectra` at least thresh, with multiplicity."""
    return sum(size * int((lam >= thresh).sum()) for _, size, lam in spectra)


def trace_identity_check(measure: GroupMeasure, nu: GroupMeasure | None = None) -> TraceReport:
    """Verify tr(K^2) = |G| ||kappa||_2^2 for K, convolution by
    kappa = reverse(mu) * mu, and count the top eigenvalue's multiplicity on
    the new subspace E_q, both from the split blocks of `isotypic_blocks`
    (`_orbit_spectra`); no |G| x |G| matrix is formed.

    * The left side is sum_t |orbit(t)| sum lam^2 over the torus orbits t,
      since the V_t of one orbit share their spectrum (`torus_orbits`). The
      right side holds because tr(K^2) = sum_{x, y} |kappa(x y^-1)|^2.
    * The top eigenvalue on E_q is the largest over the unit t (see
      `operator_norm`); eigenvalues within max(1e-12, 1e-6 |top|) of it
      count as top.
    * The multiplicity comes by levels. L^2(SL2(Z/q)) is the orthogonal sum
      of the pullbacks of E_l over l | q, and K acts on the pullback of E_l
      as the K of mu mod l. So F_l, the count of top eigenvalues of mu mod l
      on all of L^2(SL2(Z/l)), is the sum of the counts on E_l' over l' | l,
      and by Moebius inversion the count on E_q is
      sum_{d | rad q} moebius(d) F_{q/d}. F_l is counted on the blocks of
      mu mod l (`GroupMeasure.reduced`), and F_1 = [|sum mu|^2 >= thresh].
      EstimationError if the count is below 1: top is an eigenvalue on E_q.

    When nu is given, the norm bound C' [|G| ||reverse(nu)*nu||_2^2 / q]^(1/4)
    is evaluated and the fitted C' reported.
    """
    table = measure.table
    q = table.q
    kappa = measure.reverse().convolve(measure)
    rhs = table.order * kappa.l2**2
    spectra = list(_orbit_spectra(measure))
    lhs = sum(size * float((lam**2).sum()) for _, size, lam in spectra)
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    top = max(float(lam.max()) for t, _, lam in spectra if math.gcd(t, q) == 1)
    thresh = top - max(1e-12, 1e-6 * abs(top))  # eigenvalues this close count as top

    moebius = [(1, 1)]  # (d, moebius(d)) over the divisors d of rad q
    for p, _ in factorize(q):
        moebius += [(d * p, -sign) for d, sign in moebius]
    mult = 0
    for d, sign in moebius:
        if d == 1:
            count = _top_count(spectra, thresh)
        elif d == q:  # level 1: K acts on the constants as |sum mu|^2
            count = int(abs(measure.coeffs.sum()) ** 2 >= thresh)
        else:
            count = _top_count(_orbit_spectra(measure.reduced(get_group(q // d, q))), thresh)
        mult += sign * count
    if mult < 1:
        raise EstimationError(f"top eigenvalue {top:.6g} on E_{q} counted {mult} times")
    norm_new = math.sqrt(max(top, 0.0))

    cprime = None
    if nu is not None:
        w = nu.reverse().convolve(nu)
        denom = (table.order * w.l2**2 / q) ** 0.25
        cprime = norm_new / denom if denom > 0 else float("inf")
    return TraceReport(
        q=q,
        trace_lhs=lhs,
        trace_rhs=rhs,
        trace_rel_err=rel,
        top_eigenvalue=top,
        multiplicity=mult,
        norm_on_new_space=norm_new,
        cprime=cprime,
    )


@dataclass(frozen=True)
class AutocorrRow:
    r_len: int
    lhs: float
    rhs: float
    achieved: bool


@dataclass(frozen=True)
class AutocorrReport:
    q: int
    minimal_r: int | None
    rows: tuple[AutocorrRow, ...]
    psi_norm_sq: float
    psi_norm_sq_expected: float


def nu_autocorrelation(params: MeasureParams, r_max: int = 12) -> AutocorrReport:
    """Find the smallest word length with ||reverse(nu)*nu||_2 below twice
    the flat-measure level ||nu||_1^2 / |G|^(1/2)."""
    t = params.table()
    n = t.order
    rows = []
    minimal = None
    for r in range(1, r_max + 1):
        try:
            nu = build_nu(replace(params, r_len=r))
        except GuardExceeded:
            break
        w = nu.reverse().convolve(nu)
        lhs = w.l2
        rhs = 2.0 * nu.l1**2 / math.sqrt(n)
        ok = lhs <= rhs
        rows.append(AutocorrRow(r_len=r, lhs=lhs, rhs=rhs, achieved=ok))
        if ok and minimal is None:
            minimal = r
            break
    psi = -np.full(n, 1.0 / n)
    psi[t.identity_index] += 1.0
    return AutocorrReport(
        q=t.q,
        minimal_r=minimal,
        rows=tuple(rows),
        psi_norm_sq=float(psi @ psi),
        psi_norm_sq_expected=1.0 - 1.0 / n,
    )


# ---------------------------------------------------------------------------
# generation check and headline sweep


def zariski_check(table: GroupTable, generator_indices) -> tuple[bool, int]:
    """Close a set of group elements under multiplication.

    In a finite group the multiplicative closure of a nonempty set is the
    subgroup it generates. Returns (closure is the whole group, closure
    order).
    """
    gens = sorted(set(int(g) for g in generator_indices))
    if not gens:
        return False, 0
    visited = np.zeros(table.order, dtype=bool)
    visited[table.identity_index] = True
    frontier = np.array([table.identity_index], dtype=np.intp)
    rts = table.right_translation(gens)
    while frontier.size:
        # one gather for every generator; the closure is a set, so the
        # level's order does not matter
        cand = np.take(rts, frontier, axis=1)
        frontier = distinct(cand[~np.take(visited, cand)]).astype(np.intp)
        visited[frontier] = True
    size = int(visited.sum())
    return size == table.order, size


def letter_pair_quotients(spec: SystemSpec, table: GroupTable) -> list[int]:
    """Indices of cocycle(k) * cocycle(k')^-1 over all letter pairs."""
    letters = np.array([table.index_of(cocycle(word(spec, (k,)), table.q))
                        for k in range(spec.n_letters)])
    return distinct(table.products(letters[:, None], table.inverse[letters])).tolist()


def digit_difference_quotients(digits, q: int, table: GroupTable) -> list[int]:
    """The degenerate single-generator products: lower-triangular
    [[1,0],[a-b,1]] for digits a, b. Their closure is a proper subgroup."""
    idxs = set()
    for a in digits:
        for b in digits:
            idxs.add(table.index_of((1, 0, (a - b) % q, 1)))
    return sorted(idxs)


@dataclass
class SweepRow:
    q: int
    skipped_reason: str = ""
    group_order: int | None = None
    dim_eq: int | None = None
    l1_mass: float | None = None
    opnorm_eq: float | None = None
    ratio: float | None = None
    r_used: int | None = None
    L: int | None = None
    r_prime: int | None = None
    a: float | None = None
    b: float | None = None
    iters: int | None = None
    seconds: float | None = None
    max_block: int | None = None  # report only; not a CSV column
    solved: int | None = None  # report only; not a CSV column

    def csv_values(self) -> list[str]:
        def fmt(v, spec="%.12g"):
            return "" if v is None else (spec % v)

        return [
            str(self.q),
            "" if self.group_order is None else str(self.group_order),
            "" if self.dim_eq is None else str(self.dim_eq),
            fmt(self.l1_mass),
            fmt(self.opnorm_eq),
            fmt(self.ratio),
            "%.12g" % self.q ** -0.25 if not self.skipped_reason else "",
            "" if self.r_used is None else str(self.r_used),
            "" if self.L is None else str(self.L),
            "" if self.r_prime is None else str(self.r_prime),
            fmt(self.a),
            fmt(self.b),
            "" if self.iters is None else str(self.iters),
            fmt(self.seconds, "%.3f"),
            self.skipped_reason,
        ]


def sweep_r_length(q: int, L: int, c_log: float, r_prime_min: int = 2) -> int:
    """Word length for modulus q: ceil(c_log * log q) rounded up to a
    multiple of L, at least r_prime_min blocks."""
    raw = math.ceil(c_log * math.log(q))
    r_prime = max(r_prime_min, math.ceil(raw / L))
    return L * r_prime

def _sweep_one(spec, q, a, b, L, c_log, r_prime_min, tol, max_iter, seed, guards):
    t0 = time.perf_counter()
    try:
        table = get_group(q, guards.max_q)
    except GuardExceeded as e:
        return SweepRow(q=q, skipped_reason=str(e))
    ok, sub = zariski_check(table, letter_pair_quotients(spec, table))
    if not ok:
        return SweepRow(
            q=q,
            group_order=table.order,
            dim_eq=new_space_dimension(q),
            skipped_reason=f"letter-pair quotients generate proper subgroup of order {sub}",
        )
    r_used = sweep_r_length(q, L, c_log, r_prime_min)
    params = MeasureParams(spec=spec, q=q, s=complex(a, b), r_len=r_used, guards=guards)
    try:
        mu = build_mu(params)
    except GuardExceeded as e:
        return SweepRow(q=q, group_order=table.order, skipped_reason=str(e))
    try:
        rep = operator_norm(ConvOperator(mu, "new_space"), tol=tol, max_iter=max_iter, seed=seed)
    except ConvergenceError as e:
        return SweepRow(
            q=q,
            group_order=table.order,
            dim_eq=new_space_dimension(q),
            skipped_reason=f"Lanczos did not converge: best {e.report.norm:.6g}",
        )
    return SweepRow(
        q=q,
        group_order=table.order,
        dim_eq=new_space_dimension(q),
        l1_mass=mu.l1,
        opnorm_eq=rep.norm,
        ratio=rep.norm / mu.l1,
        r_used=r_used,
        L=L,
        r_prime=r_used // L,
        a=a,
        b=b,
        iters=rep.iters,
        seconds=time.perf_counter() - t0,
        max_block=rep.block,
        solved=rep.solved,
    )


def main_sweep(
    spec: SystemSpec,
    q_list,
    a: float,
    b: float = 0.0,
    L: int = 2,
    c_log: float = 2.2,
    r_prime_min: int = 2,
    tol: float = 1e-8,
    max_iter: int = 5000,
    seed: int = 7,
    guards: Guards = Guards(),
    jobs: int = 1,
):
    """Operator norm of the oscillatory measure on the new subspace, per
    modulus, with the word length growing like log q.

    Rows for moduli that fail the generation check (or any guard, such as
    q > guards.max_q) carry a reason and empty numeric fields. Returns (rows,
    fitted decay exponent alpha or None)."""
    args = [
        (spec, q, a, b, L, c_log, r_prime_min, tol, max_iter, seed, guards) for q in q_list
    ]
    workers = min(jobs, len(args), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(_sweep_one_star, args))
    else:
        rows = [_sweep_one(*a_) for a_ in args]
    return rows, fit_decay_exponent(rows)


def _sweep_one_star(args):
    return _sweep_one(*args)


def fit_decay_exponent(rows) -> float | None:
    """Least-squares exponent alpha with ratio ~ q^-alpha over valid rows."""
    pts = [(r.q, r.ratio) for r in rows if not r.skipped_reason and r.ratio and r.ratio > 0]
    if len(pts) < 2:
        return None
    qs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    return float(-np.polyfit(qs, ys, 1)[0])


def write_sweep_csv(rows, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SWEEP_COLUMNS)
        for row in rows:
            w.writerow(row.csv_values())
