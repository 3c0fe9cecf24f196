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
majorant (see `decoupled_upper_bound`). A step of the chain makes no
convolution: per o' it is one product of the window weights W[h, o] =
eta(o', o)(h) with the rows S_{j-1}[o], read back along the right
translations by h^-1.

The implied constant of the replacement error is not prescribed
anywhere; it is fitted by exhaustive measurement at small L, frozen with
a 1.25 safety multiplier, and every later domination check runs against
that frozen constant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AdmissibilityError, DomainError, GuardExceeded, Guards
from .measures import GroupMeasure, _accumulate, _cocycle_track
from .modgroup import GroupTable, get_group
from .symdyn import (
    SystemSpec,
    _admissible_id_matrix,
    _window_point,
    count_admissible,
    estimate_contraction,
    resolve_point,
    walk_words,
)

DEFAULT_SAFETY = 1.25
_SURVEY_CHUNK = 1 << 16  # (upper, lower) block pairs per chunk of the survey
_WINDOW_CACHE = 1024  # windows whose q-free weights `_window_weights` keeps


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
    outer_len = L - spec.block_width
    if outer_len < 0:
        raise ValueError(f"L={L} shorter than the inner slot width")
    total = count_admissible(spec, outer_len) ** r_prime
    if total > guard:
        raise GuardExceeded(f"{total} contexts exceed guards.contexts={guard}")
    return [tuple(int(v) for v in r) for r in _admissible_id_matrix(spec, outer_len)]


# perfbench's tracer patches this and regen_refs.py calls it: it goes with a benchmark change
def enumerate_contexts(spec: SystemSpec, L: int, r_prime: int, guard: int = Guards.contexts):
    """All admissible outer-word tuples, lexicographic, as id tuples."""
    return list(itertools.product(outer_words(spec, L, r_prime, guard), repeat=r_prime))


def inner_slots(ctx: BlockContext, j: int) -> tuple[tuple[int, ...], ...]:
    """Admissible inner tuples for block j, given the fixed outer words.

    Constraints: the slot follows block j's outer letters, is internally
    admissible, and is followed by block j-1's outer letters (or, for
    j = 1, by the base interval in subshift mode).
    """
    lower = ctx.outer[j - 2] if j >= 2 else ()
    return _slots(ctx.spec, ctx.outer[j - 1], lower, j, ctx.base_interval)


def _slots(spec: SystemSpec, outer, lower, j: int, base_interval):
    """`inner_slots` from the words it reads: block j's outer word, the lower
    word and, for block 1, the base interval."""
    right = (lower[0] if lower else None) if j >= 2 else base_interval
    slots = _admissible_id_matrix(spec, spec.block_width)
    if outer:
        slots = slots[spec.follows[outer[-1], slots[:, 0]]]
    if right is not None:
        slots = slots[spec.follows[slots[:, -1], right]]
    return tuple(map(tuple, slots.tolist()))


def _start_points(spec: SystemSpec, base: float, interval, innermost) -> np.ndarray:
    """Where window walks start, by innermost letter id, from the resolved
    base point and its interval: the base point in Zaremba mode, else
    `symdyn._window_point`. The survey starts here too."""
    if spec.mode == "zaremba":
        return np.full(np.shape(innermost), base)
    points = [_window_point(spec, k, base, interval) for k in range(spec.n_letters)]
    return np.array(points)[innermost]


@lru_cache(maxsize=_WINDOW_CACHE)
def _window_weights(spec: SystemSpec, L: int, a: float, base: float, base_interval,
                    outer: tuple[int, ...], lower: tuple[int, ...], j: int):
    """The q-free part of `build_eta`: (inners, blocks, betas) of one window.

    Keyed on exactly what the walk reads: the system, L, a, the resolved
    base point and its interval, block j's outer word, the lower word and
    j. The modulus is not in the key: the weights never see it, so the
    moduli of one run share each window's walk. `blocks` is read-only. A
    full cache of _WINDOW_CACHE windows holds about 1 MB (README, guards).
    """
    inners = _slots(spec, outer, lower, j, base_interval)
    if not inners:
        raise AdmissibilityError(
            f"no admissible inner choice for block {j}; malformed subshift context"
        )
    blocks = np.array([outer + inner for inner in inners], dtype=np.intp)
    blocks.setflags(write=False)
    innermost = lower[-1] if lower else blocks[:, -1]
    x, _ = walk_words(spec, lower, _start_points(spec, base, base_interval, innermost))
    incs = []
    for col in reversed(range(L)):
        x, inc = walk_words(spec, blocks[:, col : col + 1], x)
        incs.append(inc)
    betas = tuple(math.exp(a * math.fsum(row)) for row in np.transpose(incs).tolist())
    return inners, blocks, betas


def build_eta(ctx: BlockContext, j: int, table: GroupTable | None = None) -> EtaMeasure:
    """The block-j measure: beta-weighted Diracs at the block cocycles.

    beta = exp(a * fsum of the block's log-derivative increments) along the
    window word, block j then block j-1's outer part (block 1 alone),
    walked from `_start_points` of its innermost letter. The betas do not
    depend on q, so they come from `_window_weights`, cached on the system,
    L, a, base point and interval, the window's two outer words and j, but
    not on the modulus; only the cocycles mod q are walked here.
    """
    table = get_group(ctx.q) if table is None else table
    lower = ctx.outer[j - 2] if j >= 2 else ()
    inners, blocks, betas = _window_weights(ctx.spec, ctx.L, ctx.a, ctx.base, ctx.base_interval,
                                            ctx.outer[j - 1], lower, j)
    start, maps = _cocycle_track(ctx.spec, table)
    idx = np.full(len(inners), start)
    for col in reversed(range(ctx.L)):
        idx = maps[blocks[:, col], idx]
    return EtaMeasure(
        measure=_accumulate(table, idx, np.array(betas)),
        context=ctx,
        j=j,
        inners=inners,
        betas=betas,
    )


# ---------------------------------------------------------------------------
# error fitting


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
    Raises DomainError, naming L and the upper block, where a
    log-derivative is not finite.

    True weights start at the base point, replacement windows where
    `build_eta`'s do (`_start_points`), so the error is that of the weights
    the bound uses. Walks (upper, lower) block pairs about _SURVEY_CHUNK at
    a time. The blocks are lexicographic, so the lower blocks that share an
    outer word, and so a replacement window, are contiguous.
    """
    o, j0 = resolve_point(spec, base)
    blocks = _admissible_id_matrix(spec, L).astype(np.intp)
    if j0 is not None:
        blocks = blocks[spec.follows[blocks[:, -1], j0]]
    n_blocks = len(blocks)
    outer = blocks[:, : L - spec.block_width]
    first = np.ones(n_blocks, dtype=bool)
    first[1:] = (outer[1:] != outer[:-1]).any(axis=1)
    starts = np.flatnonzero(first)  # one outer-word group per start
    group = np.cumsum(first) - 1
    pts_true, _ = walk_words(spec, blocks, np.full(n_blocks, o))
    windows = outer[starts]

    worst = 0.0
    worst_spread = 0.0
    step = max(1, _SURVEY_CHUNK // n_blocks)
    for lo in range(0, n_blocks, step):
        upper = blocks[lo : lo + step, None, :]
        ok = spec.follows[upper[:, :, -1], blocks[:, 0]]  # (upper, lower)
        _, ld_true = walk_words(spec, upper, pts_true)
        # a window's innermost letter ends its outer word, or the upper block
        tail = windows[:, -1] if windows.size else upper[:, :, -1]
        pts_beta, _ = walk_words(spec, windows, _start_points(spec, o, j0, tail))
        _, ld_beta = walk_words(spec, upper, pts_beta)
        errs = np.abs(a * (ld_true - ld_beta[:, group]))
        bad = ok & ~np.isfinite(errs)
        if bad.any():
            row = tuple(int(v) for v in upper[bad.any(axis=1).argmax(), 0])
            raise DomainError(
                f"non-finite log-derivative at L={L}, upper block {row}: a window "
                "image lies on a pole of a letter"
            )
        worst = max(worst, float(np.where(ok, errs, 0.0).max()))
        # within-window spread of true weights, beta included
        lo_w = np.minimum.reduceat(np.where(ok, ld_true, np.inf), starts, axis=1)
        hi_w = np.maximum.reduceat(np.where(ok, ld_true, -np.inf), starts, axis=1)
        seen = np.isfinite(lo_w)
        spread = a * (np.maximum(hi_w, ld_beta) - np.minimum(lo_w, ld_beta))
        worst_spread = max(worst_spread, float(np.where(seen, spread, -np.inf).max()))
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
    spec: SystemSpec, a: float, base=None, L_values=None
) -> FittedDecoupling:
    """Freeze the replacement-error constant from exhaustive surveys at the
    block lengths L_values. By default these are the two shortest a bound
    can use, L = width + 1 and width + 2: L = 2, 3 in Zaremba mode, where
    the width is 1; a subshift's `make_context` rejects L <= width."""
    if L_values is None:
        L_values = (spec.block_width + 1, spec.block_width + 2)
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
        c_scale=DEFAULT_SAFETY * c_scale,
        safety=DEFAULT_SAFETY,
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
    (o_j, o_{j-1}): `inner_slots` and `build_eta` read no other outer word,
    and for j >= 2 not j itself, so one eta(o', o) serves every j >= 2.
    By distributivity of convolution the sum is therefore exactly the
    transfer chain

        S_1[o] = eta_1(o),
        S_j[o'] = sum_o S_{j-1}[o] * eta(o', o),
        bound = scale * sum_o S_R'[o],

    which builds S + S^2 measures instead of R' measures and R'-1
    convolutions per context. The chain is held as an (S, |G|) matrix of
    real coefficients (every beta is positive). For each o' let H be the
    union over o of the supports of eta(o', o), which differ where the
    inner slots depend on the lower word, and W[h, o] = eta(o', o)(h);
    since (mu * nu)(x) = sum_h mu(x h^-1) nu(h),

        S_j[o'](x) = sum_{h in H} (W @ S_{j-1})[h, x h^-1],

    one (|H|, S) @ (S, |G|) product and |H| right-translation gathers per
    o' and step, (R'-1) * S products in all. The gather indices of a row
    are built when the row is used, so no more than one row's |H| * |G|
    indices are held at once. With r_prime = 1 no replacement happens and
    the result is the measure itself. `guards` bounds the modulus and the
    number of contexts.
    """
    table = get_group(q, guards.max_q)
    scale = fitted.per_block_cost(L) ** (r_prime - 1)
    n_words = count_admissible(spec, L - spec.block_width)
    chain = np.zeros((n_words, table.order))  # S_1, one row per outer word o
    rows = []  # per o': the union H of the supports of eta(o', o) and W
    row = []
    spread = 0.0
    for i, e in enumerate(enumerate_etas(spec, q, a, L, r_prime, base, guards)):
        spread = max(spread, e.coefficient_spread)
        m = e.measure
        if i < n_words:
            chain[i] = m.coeffs.real
            continue
        row.append((m.support, m.coeffs.real[m.support]))
        if len(row) == n_words:
            hs = np.unique(np.concatenate([supp for supp, _ in row]))
            w = np.zeros((hs.size, n_words))
            for k, (supp, wt) in enumerate(row):
                w[np.searchsorted(hs, supp), k] = wt
            rows.append((hs, w))
            row = []
    for _ in range(r_prime - 1):
        step = np.empty_like(chain)
        for i, (hs, w) in enumerate(rows):
            # entry (k, x) is the flat index of (k, x h_k^-1) in W @ S_{j-1}
            gather = np.stack([table.right_translation(h) for h in table.inverse[hs]])
            gather = gather + table.order * np.arange(hs.size)[:, None]
            step[i] = np.take(w @ chain, gather).sum(axis=0)
        chain = step
    bound = GroupMeasure(table, chain.sum(axis=0) * scale)
    report = BoundReport(
        L=L,
        r_prime=r_prime,
        q=q,
        n_contexts=n_words**r_prime,
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


def enumerate_etas(spec, q, a, L, r_prime=2, base=None, guards: Guards = Guards()):
    """Yield the per-block measures, one per window: eta_1(o) for each
    outer word o, then, for r_prime >= 2, eta(o', o) for each window with
    o' major.

    These are the S + S^2 measures of `decoupled_upper_bound` (S alone at
    r_prime = 1): block j >= 2 of every context carries the measure of its
    window (o_j, o_{j-1}). `guards` bounds the modulus and the number of
    contexts. Each measure comes from `build_eta`, whose window weights are
    cached without q, so a second modulus at the same L walks no window again.
    """
    table = get_group(q, guards.max_q)
    words = outer_words(spec, L, r_prime, guards.contexts)
    windows = [(o,) for o in words]
    if r_prime > 1:
        windows += [(o, o2) for o2 in words for o in words]
    for outer in windows:
        j = len(outer)
        # the module global, which perfbench's tracer wraps to count every eta
        yield build_eta(make_context(spec, q, L, j, outer, a, base), j, table)
