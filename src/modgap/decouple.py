"""Block decoupling of the positive transfer measure.

A suffix word of length R = R' * L splits uniquely into R' blocks of L
letters. Each block's Birkhoff contribution depends on everything below
it; decoupling replaces it by a weight that sees only the block itself
plus the outer part of the block below (a bounded window), at a
multiplicative cost that decays geometrically in L thanks to uniform
contraction. The measure then factors, per choice of the outer words, as
a convolution of small per-block measures whose coefficients are nearly
flat.

Block j's measure eta_j depends only on the window (o_j, o_{j-1}) of
outer words, and for j >= 2 it is one measure eta(o_j, o_{j-1}) whatever
j is. So the sum of eta_1 * ... * eta_R' over all S^R' outer-word
tuples is exactly the transfer chain S_1[o] = eta_1(o),
S_j[o'] = sum_o S_{j-1}[o] * eta(o', o), summed over o at j = R': the
paper's transfer-operator recursion, applied to its own decoupled
majorant (see `decoupled_upper_bound`).

The implied constant of the replacement error is not prescribed
anywhere; it is fitted by exhaustive measurement at small L, frozen with
a 1.25 safety multiplier, and every later domination check runs against
that frozen constant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, GuardExceeded, Guards
from .measures import GroupMeasure, MeasureParams, build_mu1, cocycle
from .modgroup import GroupTable, get_group
from .symdyn import (
    SystemSpec,
    Word,
    estimate_contraction,
    evaluate_branch,
    resolve_point,
    word,
)

DEFAULT_SAFETY = 1.25


def split_word(w: Word, L: int) -> tuple[Word, ...]:
    """Split into blocks of L letters, index 1 first (deepest block first).

    Blocks concatenate back to the word in reverse index order; the
    splitting is unique.
    """
    n = len(w.letters)
    if L < 1 or n % L != 0:
        raise ValueError(f"word length {n} is not a multiple of L={L}")
    r_prime = n // L
    blocks = []
    for j in range(1, r_prime + 1):
        lo = n - j * L
        blocks.append(Word(w.spec, w.letters[lo : lo + L]))
    return tuple(blocks)


@dataclass(frozen=True)
class BlockContext:
    """Fixed data of one decoupling context.

    `outer[j-1]` holds block j's outer letters (length L minus the inner
    slot width). `base_interval` pins the base point's interval in
    subshift mode so block 1's inner slot stays admissible against it.
    `decoupled_upper_bound` builds its measures on contexts of one block
    (block 1) or two (a window of outer words).
    """

    spec: SystemSpec
    q: int
    L: int
    r_prime: int
    outer: tuple[tuple[int, ...], ...]
    a: float
    base: float
    base_interval: int | None = None

    @property
    def width(self) -> int:
        return self.spec.block_width

    def block_word(self, j: int, inner: tuple[int, ...]) -> Word:
        return word(self.spec, self.outer[j - 1] + inner)


@dataclass(frozen=True)
class EtaMeasure:
    """One per-block decoupled measure: a Dirac per admissible inner choice."""

    measure: GroupMeasure
    context: BlockContext
    j: int
    inners: tuple[tuple[int, ...], ...]
    betas: tuple[float, ...]

    @property
    def coefficient_spread(self) -> float:
        """max/min over the inner-letter coefficients.

        This stays O(1) in L (different letters have genuinely different
        derivatives); the L-decaying flatness lives in flatness_ratio,
        which compares weights across deep continuations of one window.
        """
        return max(self.betas) / min(self.betas)


@dataclass(frozen=True)
class FittedDecoupling:
    """Frozen replacement-error constant for one system and weight exponent.

    err_by_L maps block length to the measured worst log-scale
    replacement error (exhaustive over words at that L). The frozen
    per-block cost is exp(c_scale * gamma^-L) with
    c_scale = safety * max_L err(L) * gamma^L; c_impl is the a-free
    normalization err(L) <= a * c_impl * gamma^-(L-1).
    """

    spec: SystemSpec
    a: float
    base: float
    gamma_per_letter: float
    err_by_L: tuple[tuple[int, float], ...]
    c_impl: float
    c_scale: float
    safety: float

    def per_block_cost(self, L: int) -> float:
        return math.exp(self.c_scale * self.gamma_per_letter ** (-L))


def make_context(spec, q, L, r_prime, outer, a, base=None) -> BlockContext:
    o, j0 = resolve_point(spec, base)
    if spec.mode != "zaremba" and L < spec.block_width + 1:
        raise ValueError(
            f"subshift decoupling needs L >= {spec.block_width + 1} "
            "so inner slots are separated by outer letters"
        )
    return BlockContext(spec, q, L, r_prime, tuple(tuple(w) for w in outer), a, o, j0)


def outer_words(spec: SystemSpec, L: int, r_prime: int, guard: int = Guards.contexts):
    """The S admissible outer words of one block, lexicographic, as id tuples.

    GuardExceeded when the S^r_prime contexts they make exceed `guard`;
    the only check of that limit.
    """
    from .symdyn import _admissible_id_matrix, count_admissible

    outer_len = L - spec.block_width
    if outer_len < 0:
        raise ValueError(f"L={L} shorter than the inner slot width")
    total = count_admissible(spec, outer_len) ** r_prime
    if total > guard:
        raise GuardExceeded(f"{total} contexts exceed guards.contexts={guard}")
    return [tuple(int(v) for v in r) for r in _admissible_id_matrix(spec, outer_len)]


def enumerate_contexts(spec: SystemSpec, L: int, r_prime: int, guard: int = Guards.contexts):
    """All admissible outer-word tuples, lexicographic, as id tuples."""
    return list(itertools.product(outer_words(spec, L, r_prime, guard), repeat=r_prime))


def inner_slots(ctx: BlockContext, j: int) -> tuple[tuple[int, ...], ...]:
    """Admissible inner tuples for block j, given the fixed outer words.

    Constraints: the slot follows block j's outer letters, is internally
    admissible, and is followed by block j-1's outer letters (or, for
    j = 1, by the base interval in subshift mode).
    """
    spec = ctx.spec
    left = ctx.outer[j - 1][-1] if ctx.outer[j - 1] else None
    if j >= 2:
        right = ctx.outer[j - 2][0] if ctx.outer[j - 2] else None
    else:
        right = ctx.base_interval
    out = []
    for t in itertools.product(range(spec.n_letters), repeat=ctx.width):
        if left is not None and not spec.allowed(left, t[0]):
            continue
        if any(not spec.allowed(t[i], t[i + 1]) for i in range(len(t) - 1)):
            continue
        if right is not None and not spec.allowed(t[-1], right):
            continue
        out.append(t)
    return tuple(out)


def beta(ctx: BlockContext, j: int, inner: tuple[int, ...]) -> float:
    """Replacement weight of block j for one inner choice.

    For j >= 2 this is exp of the block's Birkhoff sum along the window
    word (block j followed by block j-1's outer part) at the base point;
    for j = 1 the block alone is evaluated at the base point.
    """
    spec = ctx.spec
    block = ctx.outer[j - 1] + tuple(inner)
    if j == 1:
        w = word(spec, block)
        x = ctx.base if spec.mode == "zaremba" else None
        ev, _ = evaluate_branch(w, x=x, s=complex(ctx.a, 0.0))
        tau = ev.log_deriv
    else:
        window = block + ctx.outer[j - 2]
        w = word(spec, window)
        x = ctx.base if spec.mode == "zaremba" else None
        ev, _ = evaluate_branch(w, x=x, s=complex(ctx.a, 0.0))
        tau = math.fsum(ev.increments[: len(block)])
    return math.exp(ctx.a * tau)


def build_eta(ctx: BlockContext, j: int, table: GroupTable | None = None) -> EtaMeasure:
    """The block-j measure: beta-weighted Diracs at the block cocycles."""
    table = get_group(ctx.q) if table is None else table
    inners = inner_slots(ctx, j)
    if not inners:
        raise AdmissibilityError(
            f"no admissible inner choice for block {j}; malformed subshift context"
        )
    coeffs = np.zeros(table.order, dtype=np.complex128)
    betas = []
    for inner in inners:
        b = beta(ctx, j, inner)
        betas.append(b)
        idx = table.index_of(cocycle(ctx.block_word(j, inner), ctx.q))
        coeffs[idx] += b
    return EtaMeasure(
        measure=GroupMeasure(table, coeffs),
        context=ctx,
        j=j,
        inners=inners,
        betas=tuple(betas),
    )


# ---------------------------------------------------------------------------
# error fitting


def _block_log_deriv(spec: SystemSpec, block: tuple[int, ...], pts: np.ndarray):
    """log|(block composition)'| at an array of points, per-letter."""
    from .symdyn import letter_image, letter_log_deriv

    ld = np.zeros_like(pts)
    xs = pts
    for k in reversed(block):
        ld = ld + letter_log_deriv(spec, k, xs)
        xs = letter_image(spec, k, xs)
    return ld, xs


def measure_replacement_errors(spec: SystemSpec, a: float, base, L: int):
    """Worst log-scale replacement error at block length L, exhaustively.

    For every pair (lower block, upper block) the true contribution of
    the upper block is its Birkhoff sum at the lower block's image of the
    base point; the replacement sees only the lower block's outer part.
    """
    return _replacement_survey(spec, a, base, L)[0]


# a window image on a pole of a letter gives an infinite log-derivative,
# rejected below with the block named rather than warned about
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _replacement_survey(spec: SystemSpec, a: float, base, L: int):
    """Exhaustive comparison of true block weights against their windows.

    Returns (max |log true - log beta|, the largest within-window log
    spread of true weights including beta). The second quantity is the
    flatness constant: all deep continuations that one replacement window
    stands in for carry weights within that log range of each other.
    Raises ValueError, naming L and the upper block, where a
    log-derivative is not finite.
    """
    from .symdyn import _admissible_id_matrix

    o, j0 = resolve_point(spec, base)
    blocks = _admissible_id_matrix(spec, L)
    blocks = [tuple(int(v) for v in r) for r in blocks]
    if j0 is not None:
        blocks = [b for b in blocks if spec.allowed(b[-1], j0)]
    width = spec.block_width
    outer_of = [b[: L - width] for b in blocks]
    outer_words = sorted(set(outer_of))
    outer_pos = {ow: i for i, ow in enumerate(outer_words)}
    outer_idx = np.array([outer_pos[ow] for ow in outer_of])

    img_block = {}
    img_outer = {}
    for b in blocks:
        _, img = _block_log_deriv(spec, b, np.array([o]))
        img_block[b] = float(img[0])
    for ow in outer_words:
        _, img = _block_log_deriv(spec, ow, np.array([o]))
        img_outer[ow] = float(img[0])

    n_outer = len(outer_words)
    worst = 0.0
    worst_spread = 0.0
    pts_true_all = np.array([img_block[b] for b in blocks])
    pts_beta = np.array([img_outer[ow] for ow in outer_words])
    for upper in blocks:
        if spec.mode != "zaremba":
            ok = np.array([spec.allowed(upper[-1], b[0]) for b in blocks])
            if not ok.any():
                continue
        else:
            ok = np.ones(len(blocks), dtype=bool)
        ld_true, _ = _block_log_deriv(spec, upper, pts_true_all[ok])
        ld_beta_all, _ = _block_log_deriv(spec, upper, pts_beta)
        oidx = outer_idx[ok]
        errs = np.abs(a * (ld_true - ld_beta_all[oidx]))
        top = float(errs.max())  # nan or inf if any error is
        if not math.isfinite(top):
            raise ValueError(
                f"non-finite log-derivative at L={L}, upper block {upper}: a window "
                "image lies on a pole of a letter"
            )
        worst = max(worst, top)
        # within-window spread of true weights, beta included
        lo = np.full(n_outer, np.inf)
        hi = np.full(n_outer, -np.inf)
        np.minimum.at(lo, oidx, ld_true)
        np.maximum.at(hi, oidx, ld_true)
        seen = np.isfinite(lo)
        lo[seen] = np.minimum(lo[seen], ld_beta_all[seen])
        hi[seen] = np.maximum(hi[seen], ld_beta_all[seen])
        worst_spread = max(worst_spread, float((a * (hi[seen] - lo[seen])).max()))
    return worst, worst_spread


def flatness_ratio(spec: SystemSpec, a: float, L: int, base=None) -> float:
    """Worst ratio between weights one replacement window stands in for.

    Within a fixed window (upper block plus the lower block's outer
    part), the true weights over all admissible deep continuations,
    together with the replacement weight itself, differ by a factor that
    decays geometrically in L by uniform contraction. Returns that
    maximal ratio exp(spread).
    """
    _, worst_spread = _replacement_survey(spec, a, base, L)
    return math.exp(worst_spread)


def fit_decoupling_constant(
    spec: SystemSpec,
    a: float,
    base=None,
    L_values=(2, 3),
    safety: float = DEFAULT_SAFETY,
) -> FittedDecoupling:
    gamma = estimate_contraction(spec).per_letter
    o, _ = resolve_point(spec, base)
    err_by_L = []
    c_scale = 0.0
    c_impl = 0.0
    for L in L_values:
        err = measure_replacement_errors(spec, a, o, L)
        err_by_L.append((L, err))
        c_scale = max(c_scale, err * gamma**L)
        if a > 0:
            c_impl = max(c_impl, err * gamma ** (L - 1) / a)
    return FittedDecoupling(
        spec=spec,
        a=a,
        base=o,
        gamma_per_letter=gamma,
        err_by_L=tuple(err_by_L),
        c_impl=c_impl,
        c_scale=safety * c_scale,
        safety=safety,
    )


# ---------------------------------------------------------------------------
# the decoupled bound


@dataclass(frozen=True)
class BoundReport:
    L: int
    r_prime: int
    q: int
    n_contexts: int
    scale: float
    fitted_c: float
    coefficient_spread: float


def decoupled_upper_bound(
    spec: SystemSpec,
    q: int,
    a: float,
    L: int,
    r_prime: int,
    fitted: FittedDecoupling,
    base=None,
    guards: Guards = Guards(),
):
    """Assemble the decoupled majorant of the positive transfer measure.

    The majorant is scale * sum over the S^r_prime admissible outer-word
    tuples (o_1, ..., o_R') of eta_1 * ... * eta_R', with scale the
    frozen per-block replacement cost to the power of the number of
    replaced blocks. Block j's measure depends only on the window
    (o_j, o_{j-1}): `inner_slots` and `beta` read no other outer word,
    and for j >= 2 not j itself, so one eta(o', o) serves every j >= 2.
    By distributivity of convolution the sum is therefore exactly the
    transfer chain

        S_1[o] = eta_1(o),
        S_j[o'] = sum_o S_{j-1}[o] * eta(o', o),
        bound = scale * sum_o S_R'[o],

    which builds S + S^2 measures and makes (R'-1) * S^2 convolutions
    instead of R' measures and R'-1 convolutions per context. With
    r_prime = 1 no replacement happens and the result is the measure
    itself. `guards` bounds the modulus and the number of contexts.
    """
    table = get_group(q, guards.max_q)
    words = outer_words(spec, L, r_prime, guards.contexts)
    scale = fitted.per_block_cost(L) ** (r_prime - 1)

    def window(outer):
        # block len(outer)'s measure on one window, kept as (support, weights)
        j = len(outer)
        eta = build_eta(make_context(spec, q, L, j, outer, a, base), j, table)
        supp = eta.measure.support
        return supp, eta.measure.coeffs[supp], eta.coefficient_spread

    firsts = [window((o,)) for o in words]
    pairs = [[window((o, o2)) for o in words] for o2 in words] if r_prime > 1 else []
    spread = max(w[2] for w in itertools.chain(firsts, *pairs))
    chain = [GroupMeasure.from_support(table, supp, wt) for supp, wt, _ in firsts]
    for _ in range(r_prime - 1):
        chain = [
            GroupMeasure(table, sum(
                s.convolve(GroupMeasure.from_support(table, supp, wt)).coeffs
                for s, (supp, wt, _) in zip(chain, row)
            ))
            for row in pairs
        ]
    acc = sum(m.coeffs for m in chain)
    bound = GroupMeasure(table, acc * scale)
    report = BoundReport(
        L=L,
        r_prime=r_prime,
        q=q,
        n_contexts=len(words) ** r_prime,
        scale=scale,
        fitted_c=fitted.c_scale,
        coefficient_spread=spread,
    )
    return bound, report


@dataclass(frozen=True)
class DominationReport:
    passed: bool
    n_violations: int
    max_violation: float
    min_slack_factor: float
    mass_ratio: float
    slack_histogram: tuple[tuple[float, int], ...]


def verify_domination(mu1: GroupMeasure, bound: GroupMeasure, rtol=1e-9, atol=1e-12):
    """Pointwise comparison over the full group; violations are reported,
    never raised."""
    mu1._check_same_group(bound)
    m = mu1.coeffs.real
    b = bound.coeffs.real
    gap = m - b
    viol = gap > atol + rtol * np.maximum(b, 0.0)
    n_viol = int(viol.sum())
    max_viol = float(gap[viol].max()) if n_viol else 0.0
    on_supp = m > atol
    slack = b[on_supp] / m[on_supp]
    hist_counts, hist_edges = np.histogram(slack, bins=10)
    histogram = tuple(
        (float(hist_edges[i + 1]), int(hist_counts[i])) for i in range(len(hist_counts))
    )
    return DominationReport(
        passed=n_viol == 0,
        n_violations=n_viol,
        max_violation=max_viol,
        min_slack_factor=float(slack.min()) if slack.size else float("inf"),
        mass_ratio=bound.l1 / mu1.l1 if mu1.l1 > 0 else float("inf"),
        slack_histogram=histogram,
    )


def enumerate_etas(spec, q, a, L, r_prime=2, base=None, dedupe=True,
                   guards: Guards = Guards()):
    """Yield the per-block measures of every context, optionally deduplicated
    by (support, rounded coefficients) fingerprint. `guards` bounds the
    modulus and the number of contexts."""
    table = get_group(q, guards.max_q)
    seen = set()
    for outer in enumerate_contexts(spec, L, r_prime, guards.contexts):
        ctx = make_context(spec, q, L, r_prime, outer, a, base)
        for j in range(1, r_prime + 1):
            eta = build_eta(ctx, j, table)
            if dedupe:
                supp = eta.measure.support
                fp = (
                    tuple(int(i) for i in supp),
                    tuple(np.round(eta.measure.coeffs[supp].real, 12)),
                )
                if fp in seen:
                    continue
                seen.add(fp)
            yield eta
