"""Spectral estimation for convolution operators on SL2(Z/q).

The operator of a measure mu acts on functions by left convolution,
(mu * phi)(x) = sum_g mu(g) phi(g^-1 x), restricted to a chosen
subspace: all functions, mean-zero functions, or the new subspace at
level q. Its adjoint is convolution by the reversed measure, so the norm
is the square root of the top eigenvalue of K = reverse(mu) * mu, found
by one power-iteration loop. K itself is never formed.

Left convolution commutes with right translation by the unipotent
U = {[[1, b], [0, 1]]}, so functions split into q character blocks V_t of
dimension |G|/q (Mackey; Diaconis, Group Representations in Probability
and Statistics, ch. 3), and one block per orbit of the diagonal torus on
the characters suffices. No subspace needs a projection: the norm on the
new subspace is the largest norm of a block M_t with t a unit mod q, on
the mean-zero functions the largest with t != 0, and on all functions the
largest of all (proof in `operator_norm`). The blocks come in two
representations, chosen from the measure:

* dense blocks, for |supp mu| >= |G|/q: one (|G|/q)^2 matrix per orbit,
  built from mu in |G|^2/q steps (`isotypic_blocks`) and iterated one by
  one;
* stacked sparse blocks, for sparser measures: each support point g
  permutes the cosets up to a unipotent phase, so M_t is a gather through
  |supp mu| permutations, built from the support in |supp mu| * |G|/q
  steps (`_sparse_blocks`). All orbits are iterated together as one
  problem over their direct sum, an (|G|/q, orbits) array.

Nothing of length |G| is iterated. Dense |G| x |G| matrices are built
only for small groups, as oracles and for eigenvalue multiplicity counts.

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

import numpy as np

from .decouple import BlockContext, EtaMeasure
from .errors import ConvergenceError, GuardExceeded, Guards
from .measures import GroupMeasure, MeasureParams, build_mu, build_mu1, build_nu, cocycle
from .modgroup import (
    GroupTable,
    NewSpaceProjector,
    get_group,
    group_order,
    new_space_dimension,
)
from .symdyn import SystemSpec, word

DENSE_GUARD = Guards.dense_oracle
_CHUNK = 1 << 18  # entries (points x cosets x blocks) per chunk of `_sparse_blocks`
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
    block: int | None = None


def isotypic_blocks(measure: GroupMeasure, ts) -> np.ndarray:
    """The blocks M_t of left convolution by mu on the character blocks V_t.

    M_t[i, j] = sum_beta mu(s_i u_beta s_j^-1) e(-t beta / q) in the coset
    coordinates of `UnipotentCosets`; returns an array (len(ts), n, n). One
    right translation per coset column j, then a DFT along beta, so the
    cost is |G| * n for all ts together and reverse(mu) * mu is never formed.
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


def _sparse_blocks(table: GroupTable, elements, weights, ts):
    """F -> (M_t F[:, k])_k for the measure sum_k weights[k] delta(elements[k]),
    on an (n, len(ts)) stack of coset coordinates, one column per character.

    With g^-1 s_c = s_pi(c) u_b(c) (`UnipotentCosets.left_action`),
    (M_t f)(c) = sum_g mu(g) e(t b(c) / q) f(pi(c)): a gather through one
    coset permutation per support point. Storage is the (pi, b) integers of
    the support and a q x len(ts) phase table, built in |supp| * |G|/q steps;
    the support is walked in chunks of at most _CHUNK entries.
    """
    cosets = table.cosets()
    perm, beta = cosets.left_action(table.inverse[elements])
    phases = np.exp(2j * np.pi * np.outer(np.arange(table.q), ts) / table.q)
    cols = np.arange(len(ts))
    size = cosets.n * cols.size
    step = max(1, _CHUNK // size)

    def chunk(lo):  # mu(g) e(t b(c) / q) and the flat index of (pi(c), t), per point
        sl = slice(lo, lo + step)
        return ((weights[sl, None, None] * phases[beta[sl]]).reshape(-1, size),
                (perm[sl, :, None] * cols.size + cols).reshape(-1, size))

    kept = chunk(0) if weights.size <= step else None  # a single chunk is built once

    def apply(f: np.ndarray) -> np.ndarray:
        flat = f.reshape(-1)
        out = np.zeros(size, dtype=np.complex128)
        for lo in range(0, weights.size, step):
            w, idx = kept or chunk(lo)
            out += np.add.reduce(w * flat.take(idx), axis=0)
        return out.reshape(f.shape)

    return apply


def operator_norm(
    op: ConvOperator,
    tol: float = 1e-8,
    max_iter: int = 5000,
    seed: int = 7,
) -> GapReport:
    """Largest singular value of the restricted convolution action.

    Power-iterates K = reverse(mu) * mu as M_t^H M_t on the bare blocks M_t
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

    Each problem stops when the geometric-tail estimate of the Rayleigh
    quotient's remaining rise, step / (1 - r), is at most tol * theta, with
    step = |theta_k - theta_{k-1}| and r the ratio of the last two steps,
    capped at 0.999; it reports the Rayleigh quotient of the last iterate.
    With |supp mu| >= |G|/q the blocks are dense (`isotypic_blocks`) and
    each is iterated on its own: `iters` sums the blocks' iterations, and
    `block` is the smallest t whose block lies within 100 * tol of the
    maximum, with its `residual`. A block whose trace ||M_t||_F^2 is at most
    dim * eps * ||mu||_1^2 (numpy's matrix_rank tolerance, with ||mu||_1^2
    bounding the block's norm) is reported as exactly 0. A sparser measure
    gets the stacked sparse blocks, one problem over the direct sum of the
    orbits with one Rayleigh quotient and one stopping test, and `block` is
    None. The norm is the maximum in both cases. Raises ConvergenceError
    carrying the best estimate if any iteration hits the cap.
    """
    t0 = time.perf_counter()
    if op.dim < 1:
        raise ValueError("subspace dimension is zero")
    table = op.table
    cosets = table.cosets()
    ts = op.orbits()
    results = []  # (lam, residual, block)
    problems = []  # (block, vector shape, apply K)
    if op.measure.n_support * table.q >= table.order:
        floor = cosets.n * np.finfo(float).eps * op.measure.l1**2
        for t, m in zip(ts, isotypic_blocks(op.measure, ts)):
            if np.vdot(m, m).real <= floor:
                results.append((0.0, 0.0, t))
            else:  # M^H M v, as conj(conj(M v) M) to spare a copy of M^H
                problems.append((t, m.shape[1], lambda v, m=m: np.conj(np.conj(m @ v) @ m)))
    else:  # one problem over the direct sum of the blocks
        supp = op.measure.support
        weights = op.measure.coeffs[supp]
        apply_m = _sparse_blocks(table, supp, weights, ts)
        # M_t^H is M_t of reverse(mu): conjugate weights at the inverses
        apply_mh = _sparse_blocks(table, table.inverse[supp], weights.conj(), ts)
        problems.append((None, (cosets.n, len(ts)), lambda f: apply_mh(apply_m(f))))

    rng = np.random.default_rng(seed)
    converged = True
    total_iters = 0
    for block, shape, apply in problems:
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v /= np.linalg.norm(v)
        lam = 0.0
        lam_prev = step_prev = None
        done = False
        iters = 0
        for iters in range(1, max_iter + 1):
            w = apply(v)
            lam = max(float(np.real(np.vdot(v, w))), 0.0)
            nw = np.linalg.norm(w)
            if nw <= 1e-300:
                lam = 0.0
                done = True
                break
            v = w / nw
            if lam_prev is not None:
                step = abs(lam - lam_prev)
                if step_prev is not None:
                    r = step / step_prev if step < 0.999 * step_prev else 0.999
                    if step <= (1.0 - r) * tol * max(lam, 1e-30):
                        done = True
                        break
                step_prev = step
            lam_prev = lam
        total_iters += iters
        converged = converged and done
        # the residual apply also gives the Rayleigh quotient of the last
        # iterate, which is no smaller (K is positive) and is what it certifies
        w = apply(v)
        lam = max(float(np.real(np.vdot(v, w))), 0.0)
        results.append((lam, float(np.linalg.norm(w - lam * v)), block))
    top = max(r[0] for r in results)
    # blocks of different torus orbits can tie exactly (t = 1, 7 at q = 8):
    # name the smallest t within the solver's resolution of the maximum
    _, residual, block = min((r for r in results if r[0] >= (1.0 - 100.0 * tol) * top),
                             key=lambda r: r[2] or 0)
    norm_est = math.sqrt(top)
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
    )
    if not converged:
        raise ConvergenceError(
            f"power iteration hit {max_iter} iterations at q={table.q}",
            report=report,
        )
    return report


# ---------------------------------------------------------------------------
# dense oracles


def dense_conv_matrix(measure: GroupMeasure, guard: int = DENSE_GUARD) -> np.ndarray:
    """Dense matrix of phi -> mu * phi; M[x, y] = mu(x y^-1), so each
    support point g fills the cells (g y, y). GuardExceeded above `guard`
    group elements; the only check of the dense-oracle limit."""
    t = measure.table
    n = t.order
    if n > guard:
        raise GuardExceeded(f"group order {n} exceeds guards.dense_oracle={guard}")
    real = bool(np.all(measure.coeffs.imag == 0.0))
    coeffs = measure.coeffs.real if real else measure.coeffs
    M = np.zeros((n, n), dtype=coeffs.dtype)
    cols = np.arange(n)
    for g in measure.support:
        M[t.left_translation(int(g)), cols] = coeffs[g]
    return M


def dense_subspace_projector(
    table: GroupTable, subspace: str, projector: NewSpaceProjector | None = None
) -> np.ndarray:
    n = table.order
    if subspace == "full":
        return np.eye(n)
    if subspace == "mean_zero":
        return np.eye(n) - np.full((n, n), 1.0 / n)
    proj = projector if projector is not None else NewSpaceProjector(table)
    return proj.apply_columns(np.eye(n))


def dense_operator_norm(
    measure: GroupMeasure, subspace: str, projector=None, guard: int = DENSE_GUARD
) -> float:
    """Oracle: top singular value of the restricted action A = M P.

    It is the square root of the largest eigenvalue of the Hermitian Gram
    matrix A^H A, clipped at 0 against rounding; no block structure is used.
    """
    M = dense_conv_matrix(measure, guard)
    P = dense_subspace_projector(measure.table, subspace, projector)
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
    draws against the kappa_bar * (1 - C0 + sqrt(K-1)) * |J| bound."""

    def __init__(self, table: GroupTable, elements, guard: int = DENSE_GUARD):
        self.table = table
        self.elements = [int(h) for h in elements]
        self.guard = guard
        # first, so that the dense guard is checked before any dense allocation
        MA = self._weighted_matrix(np.ones(len(self.elements)))
        self._P0 = dense_subspace_projector(table, "mean_zero")
        S = self._P0 @ MA @ self._P0
        lam = float(np.linalg.eigvalsh(0.5 * (S + S.T))[-1])
        self.c0 = 1.0 - lam / len(self.elements)

    def _weighted_matrix(self, kappas) -> np.ndarray:
        """Convolution matrix of the weighted measure sum_h kappa_h delta_h."""
        coeffs = np.zeros(self.table.order)
        np.add.at(coeffs, self.elements, kappas)
        return dense_conv_matrix(GroupMeasure(self.table, coeffs), self.guard)

    def check(self, kappas) -> LemmaExpandReport:
        kappas = np.asarray(kappas, dtype=float)
        if kappas.shape != (len(self.elements),) or np.any(kappas <= 0):
            raise ValueError("need one positive coefficient per element")
        J = len(self.elements)
        kbar = float(kappas.mean())
        K = float(kappas.max() / kbar)
        hypothesis_ok = self.c0 > 0
        if hypothesis_ok:
            S = self._P0 @ self._weighted_matrix(kappas) @ self._P0
            lhs = float(np.linalg.eigvalsh(0.5 * (S + S.T))[-1])
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


def eta_gap(eta: EtaMeasure, tol=1e-8, max_iter=5000, seed=7, failure_tol=None) -> EtaGapReport:
    """Relative mean-zero gap 1 - norm/mass of one per-block measure.

    A vanishing gap is reported, not raised; it flags a modulus whose
    inner-letter quotients stay inside a proper subgroup or a block
    length too small for flatness. Vanishing means within the power
    iteration's own resolution (it approaches the norm from below).
    """
    rep = operator_norm(
        ConvOperator(eta.measure, "mean_zero"), tol=tol, max_iter=max_iter, seed=seed
    )
    c1 = 1.0 - rep.norm / rep.l1
    failure_tol = 100.0 * tol if failure_tol is None else failure_tol
    return EtaGapReport(
        q=eta.measure.table.q,
        c1=c1,
        norm=rep.norm,
        l1=rep.l1,
        iters=rep.iters,
        gap_failure=c1 <= failure_tol,
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


def trace_identity_check(
    measure: GroupMeasure,
    projector: NewSpaceProjector | None = None,
    nu: GroupMeasure | None = None,
    guard: int = DENSE_GUARD,
    mult_rtol: float = 1e-6,
) -> TraceReport:
    """Verify tr[(A*A)^2] = |G| ||reverse(mu)*mu||_2^2 and count the top
    eigenvalue's multiplicity on the new subspace.

    The left side is the trace of the squared dense operator matrix (an
    independent route through the full Cayley action); the right side is
    the squared 2-norm of the autocorrelation measure. When nu is given,
    the norm bound C' [|G| ||reverse(nu)*nu||_2^2 / q]^(1/4) is evaluated
    and the fitted C' reported.
    """
    t = measure.table
    kappa = measure.reverse().convolve(measure)
    M = dense_conv_matrix(kappa, guard)
    lhs = float(np.real(np.einsum("ij,ji->", M, M)))
    rhs = t.order * kappa.l2**2
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)

    proj = projector if projector is not None else NewSpaceProjector(t)
    P = dense_subspace_projector(t, "new_space", proj)
    S = P @ M @ P
    S = 0.5 * (S + (S.T.conj() if np.iscomplexobj(S) else S.T))
    eigs = np.linalg.eigvalsh(S)
    top = float(eigs[-1])
    thresh = top - max(1e-12, mult_rtol * abs(top))
    mult = int((eigs >= thresh).sum())
    norm_new = math.sqrt(max(top, 0.0))

    cprime = None
    if nu is not None:
        w = nu.reverse().convolve(nu)
        denom = (t.order * w.l2**2 / t.q) ** 0.25
        cprime = norm_new / denom if denom > 0 else float("inf")
    return TraceReport(
        q=t.q,
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
    frontier = np.array([table.identity_index], dtype=np.int64)
    rts = [table.right_translation(g) for g in gens]
    while frontier.size:
        nxt = []
        for rt in rts:
            cand = rt[frontier]
            fresh = cand[~visited[cand]]
            if fresh.size:
                fresh = np.unique(fresh)
                visited[fresh] = True
                nxt.append(fresh)
        frontier = np.concatenate(nxt) if nxt else np.empty(0, dtype=np.int64)
    size = int(visited.sum())
    return size == table.order, size


def letter_pair_quotients(spec: SystemSpec, table: GroupTable) -> list[int]:
    """Indices of cocycle(k) * cocycle(k')^-1 over all letter pairs."""
    letters = np.array([table.index_of(cocycle(word(spec, (k,)), table.q))
                        for k in range(spec.n_letters)])
    return np.unique(table.products(letters[:, None], table.inverse[letters])).tolist()


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
            skipped_reason=f"power iteration did not converge: best {e.report.norm:.6g}",
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
