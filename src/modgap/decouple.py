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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import AdmissibilityError, DomainError, GuardExceeded, Guards
from .measures import GroupMeasure, _cocycle_track
from .modgroup import GroupTable, distinct, get_group
from .symdyn import (
    _EXPAND_CHUNK,
    SystemSpec,
    _admissible_id_matrix,
    _expand_orbit,
    _window_point,
    count_admissible,
    estimate_contraction,
    resolve_point,
    walk_words,
)

DEFAULT_SAFETY = 1.25
# `verify_domination` counts b(x) < mu1(x) as a violation only beyond rounding
DOMINATION_RTOL = 1e-9
DOMINATION_ATOL = 1e-12


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
    outer: tuple[tuple[int, ...], ...]
    a: float
    base: float
    base_interval: int | None = None


@dataclass(frozen=True, eq=False)
class EtaMeasure:
    """One per-block decoupled measure: a Dirac per admissible inner choice.

    Held sparse: `support` holds the sorted group indices of the block
    cocycles and `weights` the betas summed on each: positive reals, or
    `spectral.eta_gap` raises DomainError. `measure` is built on first read.

    `stacked` is (windows, supports at q, place) of the stack the measure
    was cut from, set by `build_eta` alone: `spectral.eta_gap` solves the
    stack's windows around it together. A measure built directly or by
    `dataclasses.replace` has none and is solved from its own support and
    weights.
    """

    context: BlockContext
    j: int
    table: GroupTable
    inners: tuple[tuple[int, ...], ...]
    betas: tuple[float, ...]
    support: np.ndarray
    weights: np.ndarray
    stacked: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def measure(self) -> GroupMeasure:
        coeffs = np.zeros(self.table.order, dtype=np.complex128)
        coeffs.real[self.support] = self.weights
        return GroupMeasure(self.table, coeffs)


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


def _outer_length(spec: SystemSpec, L: int) -> int:
    """L minus the inner slot width; AdmissibilityError unless positive, as a
    window is its block plus the outer part of the block below. The only
    check of the block length."""
    if L <= spec.block_width:
        raise AdmissibilityError(
            f"decoupling needs L >= {spec.block_width + 1} (got L={L}) "
            "so inner slots are separated by outer letters"
        )
    return L - spec.block_width


# r_prime is not read: regen_refs.py passes it positionally, so it goes with a benchmark change
def make_context(spec, q, L, r_prime, outer, a, base=None) -> BlockContext:
    outer = tuple(tuple(w) for w in outer)
    admissible = _outer_set(spec, L)
    for w in outer:
        if w not in admissible:
            raise AdmissibilityError(f"outer word {w} is not among the admissible outer "
                                     f"words of L={L} (length {L - spec.block_width})")
    o, j0 = resolve_point(spec, base)
    return BlockContext(spec, q, L, outer, a, o, j0)


@lru_cache(maxsize=8)
def _outer_set(spec: SystemSpec, L: int) -> frozenset:
    """The admissible outer words of a block of L letters, as id tuples; no
    contexts guard, unlike `outer_words`."""
    return frozenset(map(tuple, _admissible_id_matrix(spec, _outer_length(spec, L)).tolist()))


def outer_words(spec: SystemSpec, L: int, r_prime: int, guard: int = Guards.contexts):
    """The S admissible outer words of one block, lexicographic, as id tuples.

    GuardExceeded when the S^r_prime contexts they make exceed `guard`;
    the only check of that limit, and of r_prime >= 1 (ValueError).
    """
    if r_prime < 1:
        raise ValueError(f"need r_prime >= 1 (got r_prime={r_prime})")
    outer_len = _outer_length(spec, L)
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
    slots = _admissible_id_matrix(ctx.spec, ctx.spec.block_width)
    ok = _slot_mask(ctx.spec, slots, np.array([ctx.outer[j - 1]], dtype=np.intp),
                    np.array([lower], dtype=np.intp), j, ctx.base_interval)
    return tuple(map(tuple, slots[ok[0]].tolist()))


def _slot_mask(spec: SystemSpec, slots, uppers, lowers, j: int, base_interval) -> np.ndarray:
    """`inner_slots` of stacked windows: ok[w, z] when slot z may sit between
    the upper word uppers[w] and the lower word lowers[w] (not read for
    block 1, which the base interval bounds instead)."""
    ok = spec.follows[uppers[:, -1:], slots[:, 0]]
    if j >= 2:
        ok &= spec.follows[slots[:, -1], lowers[:, :1]]
    elif base_interval is not None:
        ok &= spec.follows[slots[:, -1], base_interval]
    return ok


def _start_points(spec: SystemSpec, base: float, interval, innermost) -> np.ndarray:
    """Where window walks start, by innermost letter id, from the resolved
    base point and its interval: the base point in Zaremba mode, else
    `symdyn._window_point`. The survey starts here too."""
    if spec.mode == "zaremba":
        return np.full(np.shape(innermost), base)
    points = [_window_point(spec, k, base, interval) for k in range(spec.n_letters)]
    return np.array(points)[innermost]


@dataclass(frozen=True)
class _Windows:
    """Stacked windows, walked: rows offsets[w]:offsets[w + 1] hold window w's
    blocks (its upper word, then each admissible inner slot) and their betas.
    The modulus is not in them: the moduli of one run share each walk."""

    blocks: np.ndarray
    betas: np.ndarray
    offsets: np.ndarray

    def spread(self) -> float:
        """The largest max/min of one window's betas; no window is empty."""
        starts = self.offsets[:-1]
        return float((np.maximum.reduceat(self.betas, starts)
                      / np.minimum.reduceat(self.betas, starts)).max())


@lru_cache(maxsize=4)
def _window_stack(spec: SystemSpec, L: int, a: float, base: float, base_interval,
                  j: int) -> _Windows:
    """Every window of `enumerate_etas` for block 1 (j = 1: the S words o) or
    for the blocks above it (j = 2: the S^2 pairs (o', o), o' major), as one
    walk, cached on what the walk reads: the system, L, a, the resolved base
    point and its interval. The modulus is not in the key. Four stacks are
    kept, both kinds at two block lengths (README, guards).

    Each lower word is walked from `_start_points` of its innermost letter,
    then every (window, inner) block one letter column at a time from its
    window's point; a block-1 block starts at the point of its own innermost
    letter. Each beta is exp(a * fsum of its block's increments), row by row.
    """
    words = _admissible_id_matrix(spec, _outer_length(spec, L))
    uppers, lowers = words, None
    if j >= 2:  # the pairs (o', o), o' major
        uppers, lowers = np.repeat(words, len(words), axis=0), np.tile(words, (len(words), 1))
    slots = _admissible_id_matrix(spec, spec.block_width)
    w, z = np.nonzero(_slot_mask(spec, slots, uppers, lowers, j, base_interval))
    blocks = np.concatenate([uppers[w], slots[z]], axis=1)
    if j == 1:
        start = _start_points(spec, base, base_interval, blocks[:, -1])
    else:
        start, _ = walk_words(spec, lowers, _start_points(spec, base, base_interval, lowers[:, -1]))
        start = start[w]
    betas = np.empty(len(blocks))
    for lo in range(0, len(blocks), _EXPAND_CHUNK):  # rows a slice, as the expander's chunks
        rows = slice(lo, lo + _EXPAND_CHUNK)
        x = start[rows]
        incs = np.empty((x.size, L))
        for col in reversed(range(L)):
            x, incs[:, L - 1 - col] = walk_words(spec, blocks[rows, col : col + 1], x)
        betas[rows] = [math.exp(a * math.fsum(r)) for r in incs.tolist()]
    for arr in (blocks, betas):
        arr.setflags(write=False)
    return _Windows(blocks, betas, np.searchsorted(w, np.arange(len(uppers) + 1)))


@dataclass(frozen=True, eq=False)
class _Supports:
    """Stacked windows at one modulus: window w's sorted support and summed
    betas are entries bounds[w]:bounds[w+1]. Equal only to itself, so a cache
    keys on it by identity."""

    support: np.ndarray
    weights: np.ndarray
    bounds: np.ndarray


def _window_supports(spec: SystemSpec, table: GroupTable, windows: _Windows) -> _Supports:
    """The stacked windows at one modulus, as `_Supports`.

    The block cocycles are one gather per letter column; each window's betas
    are summed per group element in row order, as `np.bincount` sums."""
    start, maps = _cocycle_track(spec, table)
    idx = np.full(len(windows.blocks), start)
    for col in reversed(range(windows.blocks.shape[1])):
        idx = maps[windows.blocks[:, col], idx]
    window = np.repeat(np.arange(len(windows.offsets) - 1), np.diff(windows.offsets))
    keys, inverse = np.unique(window * table.order + idx, return_inverse=True)
    bounds = np.searchsorted(keys, np.arange(len(windows.offsets)) * table.order)
    return _Supports(keys % table.order, np.bincount(inverse, windows.betas), bounds)


def _require_slots(offsets: np.ndarray, j: int) -> None:
    """AdmissibilityError when a window of these row offsets has no inner slot."""
    if not np.diff(offsets).all():
        raise AdmissibilityError(
            f"no admissible inner choice for block {j}; malformed subshift context"
        )


def _cut(windows: _Windows, supports: _Supports, lo: int, hi: int, j: int):
    """Windows lo:hi of a stack, with `_window_supports` at one modulus:
    (the group indices and summed betas of their entries, and the window of
    each entry, counted from lo). AdmissibilityError when one of them has
    no inner slot."""
    _require_slots(windows.offsets[lo : hi + 1], j)
    bounds = supports.bounds
    entries = slice(bounds[lo], bounds[hi])
    window = np.repeat(np.arange(hi - lo), np.diff(bounds[lo : hi + 1]))
    return supports.support[entries], supports.weights[entries], window


def build_eta(ctx: BlockContext, j: int, table: GroupTable | None = None,
              cut=None) -> EtaMeasure:
    """The block-j measure: beta-weighted Diracs at the block cocycles.

    beta = exp(a * fsum of the block's log-derivative increments) along the
    window word, block j then block j-1's outer part (block 1 alone),
    walked from `_start_points` of its innermost letter. It is cut from
    `_window_stack` at window o (block 1) or o' * S + o (block j >= 2 with
    outer word o' over the lower block's o), in `outer_words` order.
    `enumerate_etas` passes `cut` = ((the stack, its supports at this
    modulus, the window's place), the window's inner slots, its betas),
    checked and listed once per stack; without it the outer words are
    looked up and only the window's rows are gathered mod q, as a stack of
    one window, and checked. Either way the measure keeps the stack
    (`EtaMeasure.stacked`).
    """
    table = get_group(ctx.q) if table is None else table
    if cut is None:
        words = outer_words(ctx.spec, ctx.L, 1)
        i = words.index(ctx.outer[j - 1])
        if j >= 2:
            i = i * len(words) + words.index(ctx.outer[j - 2])
        stack = _window_stack(ctx.spec, ctx.L, ctx.a, ctx.base, ctx.base_interval, min(j, 2))
        lo, hi = stack.offsets[i : i + 2]
        windows = _Windows(stack.blocks[lo:hi], stack.betas[lo:hi], np.array([0, hi - lo]))
        _require_slots(windows.offsets, j)
        inners = windows.blocks[:, ctx.L - ctx.spec.block_width :].tolist()
        cut = ((windows, _window_supports(ctx.spec, table, windows), 0),
               tuple(map(tuple, inners)), tuple(windows.betas.tolist()))
    stacked, inners, betas = cut
    _, supports, i = stacked
    lo, hi = supports.bounds[i : i + 2]
    eta = EtaMeasure(
        context=ctx,
        j=j,
        table=table,
        inners=inners,
        betas=betas,
        support=supports.support[lo:hi],
        weights=supports.weights[lo:hi],
    )
    object.__setattr__(eta, "stacked", stacked)  # frozen, and not an init field
    return eta


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
    Raises DomainError, naming L and the first upper block, where a
    log-derivative is not finite.

    True weights start at the base point, replacement windows where
    `build_eta`'s do (`_start_points`), so the error is that of the weights
    the bound uses. An upper block may sit on a lower block when its
    innermost letter may precede the lower block's first letter.

    The upper blocks are walked by `symdyn._expand_orbit` from every lower
    block's image of the base point and every window's point at once, so
    the walks of a shared suffix are made once. The lower blocks are
    lexicographic, so those that share an outer word, and so a window, are
    contiguous. An upper block's log-derivative -2 log|C_u x + D_u| is
    monotone on the cylinder that holds a window's members, so its least
    and greatest value over them are at the members with the least and the
    greatest image of the base point, and only those two are walked.
    a (t - beta) is monotone in t, so its largest modulus over a window is
    reached at one of the two, and so is the spread.
    """
    outer_len = _outer_length(spec, L)
    o, j0 = resolve_point(spec, base)
    words = _admissible_id_matrix(spec, L)
    use = np.ones(spec.n_letters, dtype=bool) if j0 is None else spec.follows[:, j0]
    blocks = words if j0 is None else words[use[words[:, -1]]]
    outer = blocks[:, :outer_len]
    cut = np.ones(len(blocks) + 1, dtype=bool)
    cut[1:-1] = (outer[1:] != outer[:-1]).any(axis=1)
    bounds = np.flatnonzero(cut)  # of the outer-word groups
    starts = bounds[:-1]
    pts_true, _ = walk_words(spec, blocks, np.full(len(blocks), o))
    # each window's members by image, then its least and greatest
    order = np.lexsort((pts_true, np.cumsum(cut[:-1])))
    least, greatest = order[starts], order[bounds[1:] - 1]
    windows = outer[starts]
    pts_beta, _ = walk_words(spec, windows, _start_points(spec, o, j0, windows[:, -1]))
    # seen[k, g]: an upper block with innermost letter k may sit on window g, on
    # all its members, since they share the outer word and so its first letter
    seen = spec.follows[:, windows[:, 0]] & use[:, None]
    n = len(windows)
    points = np.concatenate([pts_true[least], pts_true[greatest], pts_beta])

    worst = 0.0
    worst_spread = 0.0
    done = 0
    for _, lds, _, _ in _expand_orbit(spec, L, points, None, Guards.max_words):
        lds = lds.reshape(-1, points.size)
        inner = words[done : done + len(lds), -1]
        at_least, at_greatest, beta = lds[:, :n], lds[:, n : 2 * n], lds[:, 2 * n :]
        lo, hi = np.minimum(at_least, at_greatest), np.maximum(at_least, at_greatest)
        errs = np.maximum(np.abs(a * (lo - beta)), np.abs(a * (hi - beta)))
        # within-window spread of true weights, beta included
        spread = a * (np.maximum(hi, beta) - np.minimum(lo, beta))
        if not seen.all():
            on = seen[inner]
            errs, spread = np.where(on, errs, 0.0), np.where(on, spread, -np.inf)
        top = float(errs.max())  # nan or inf where a window image lies on a pole
        if not math.isfinite(top):
            row = tuple(int(v) for v in words[done + (~np.isfinite(errs)).any(axis=1).argmax()])
            raise DomainError(
                f"non-finite log-derivative at L={L}, upper block {row}: a window "
                "image lies on a pole of a letter"
            )
        worst = max(worst, top)
        worst_spread = max(worst_spread, float(spread.max()))
        done += len(lds)
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


def fit_decoupling_constant(spec: SystemSpec, a: float, base=None) -> FittedDecoupling:
    """Freeze the replacement-error constant from exhaustive surveys at the
    two shortest block lengths a bound can use, L = width + 1 and width + 2:
    2 and 3 in Zaremba mode and 3 and 4 for the Schottky pair, since a
    block needs an outer letter beside its inner slot (`_outer_length`)."""
    gamma = estimate_contraction(spec).per_letter
    o, _ = resolve_point(spec, base)
    err_by_L = []
    c_scale = 0.0
    c_impl = 0.0
    for L in (spec.block_width + 1, spec.block_width + 2):
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
    # the largest max/min of one eta's betas: O(1) in L, as different letters
    # have genuinely different derivatives; the L-decaying flatness is
    # flatness_ratio's, across deep continuations of one window
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

    which needs S + S^2 measures instead of R' measures and R'-1
    convolutions per context. They are read straight from the stacked
    windows of `enumerate_etas` and their supports at q, with no measure
    object. The chain is held as an (S, |G|) matrix of real coefficients
    (every beta is positive). For each o' let H be the union over o of the
    supports of eta(o', o), which differ where the inner slots depend on
    the lower word, and W[h, o] = eta(o', o)(h); since
    (mu * nu)(x) = sum_h mu(x h^-1) nu(h),

        S_j[o'](x) = sum_{h in H} (W @ S_{j-1})[h, x h^-1],

    one (|H|, S) @ (S, |G|) product per o' and step, (R'-1) * S products
    in all. The gather indices of a row, its |H| right translations by
    h^-1, depend on the row alone: they are built once per row on its first
    use, one call of `right_translation`, and held as int32 through the
    middle steps, sum |H| * |G| of them, with S^R' at most guards.contexts
    (so S <= 58 at R' >= 3 under the default 200,000). The last step drops
    each after use, so at r_prime = 2 no more than one row's |H| * |G| are
    held at once. With r_prime = 1 no replacement happens and the result is
    the measure itself. `guards` bounds the modulus and the number of
    contexts.
    """
    table = get_group(q, guards.max_q)
    scale = fitted.per_block_cost(L) ** (r_prime - 1)
    n_words = len(outer_words(spec, L, r_prime, guards.contexts))
    chain, rows, spread = _chain_terms(spec, table, L, a, base, n_words, r_prime)
    gathers = [None] * len(rows)  # each row's, from its first use to the last step
    for _ in range(r_prime - 2):
        step = np.empty_like(chain)
        for i, row in enumerate(_chain_step(table, rows, chain, gathers, keep=True)):
            step[i] = row
        chain = step
    # the last step is summed over o' as it goes, in row order: S_R' is never held
    total = (sum(_chain_step(table, rows, chain, gathers, keep=False)) if r_prime > 1
             else chain.sum(axis=0))
    bound = GroupMeasure(table, total * scale)
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


def _chain_terms(spec: SystemSpec, table: GroupTable, L: int, a: float, base, n_words: int,
                 r_prime: int):
    """What `decoupled_upper_bound` reads of the S + S^2 windows: the chain's
    first matrix S_1, the (H, W) of every o' row and the largest spread of
    one window's betas."""
    o, j0 = resolve_point(spec, base)
    chain = np.zeros((n_words, table.order))  # S_1, one row per outer word o
    spread = 0.0
    rows = []  # per o': the union H of the supports of eta(o', o) and W
    for j in (1, 2) if r_prime > 1 else (1,):
        windows = _window_stack(spec, L, a, o, j0, j)
        supports = _window_supports(spec, table, windows)
        if j == 1:
            support, weights, window = _cut(windows, supports, 0, n_words, j)
            chain[window, support] = weights
        else:
            for i in range(n_words):  # the windows (o', o) of o' = i, o minor
                support, weights, window = _cut(windows, supports, i * n_words,
                                                (i + 1) * n_words, j)
                hs = distinct(support)
                w = np.zeros((hs.size, n_words))
                w[np.searchsorted(hs, support), window] = weights
                rows.append((hs, w))
        spread = max(spread, windows.spread())
    return chain, rows, spread


def _chain_step(table: GroupTable, rows, chain: np.ndarray, gathers: list, keep: bool):
    """S_j[o'] = sum_{h in H} (W @ S_{j-1})[h, x h^-1], one o' row at a time,
    from the (H, W) of each row and S_{j-1} = chain.

    gathers[i] is row i's gather index, or None until its first use builds
    it; it stays in `gathers` for the next step when `keep`, else it is
    dropped once its row is made."""
    for i, (hs, w) in enumerate(rows):
        gather = gathers[i] if gathers[i] is not None else _row_gather(table, hs)
        gathers[i] = gather if keep else None
        yield np.take(w @ chain, gather).sum(axis=0)


def _row_gather(table: GroupTable, hs: np.ndarray) -> np.ndarray:
    """Entry (k, x) is the flat index of (k, x h_k^-1) in a (|H|, |G|)
    product, int32 as `right_translation` gives: a float64 product of 2^31
    entries would take 16 GiB."""
    offsets = np.arange(hs.size, dtype=np.int32) * np.int32(table.order)
    return table.right_translation(table.inverse[hs]) + offsets[:, None]


@dataclass(frozen=True)
class DominationReport:
    passed: bool
    n_violations: int
    max_violation: float
    min_slack_factor: float
    mass_ratio: float
    slack_histogram: tuple[tuple[float, int], ...]


def verify_domination(mu1: GroupMeasure, bound: GroupMeasure):
    """Pointwise comparison over the full group; violations are reported,
    never raised."""
    mu1._check_same_group(bound)
    m = mu1.coeffs.real
    b = bound.coeffs.real
    gap = m - b
    viol = gap > DOMINATION_ATOL + DOMINATION_RTOL * np.maximum(b, 0.0)
    n_viol = int(viol.sum())
    max_viol = float(gap[viol].max()) if n_viol else 0.0
    on_supp = m > DOMINATION_ATOL
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
    contexts. The windows of each kind are walked as one stack, cached
    without q, so a second modulus at the same L walks no window again; their
    cocycles at q are one gather per letter column. Each stack is checked
    for empty windows and listed once, and each measure is cut from it by
    `build_eta`, with its context built from `outer_words` without a
    second check of the words.
    """
    table = get_group(q, guards.max_q)
    words = outer_words(spec, L, r_prime, guards.contexts)
    o, j0 = resolve_point(spec, base)
    for j in (1, 2) if r_prime > 1 else (1,):
        stack = _window_stack(spec, L, a, o, j0, j)
        _require_slots(stack.offsets, j)
        supports = _window_supports(spec, table, stack)
        inners = list(map(tuple, stack.blocks[:, L - spec.block_width :].tolist()))
        betas = stack.betas.tolist()
        offsets = stack.offsets.tolist()
        windows = [(w,) for w in words] if j == 1 else [(w, w2) for w2 in words for w in words]
        for i, (outer, lo, hi) in enumerate(zip(windows, offsets, offsets[1:])):
            cut = (stack, supports, i), tuple(inners[lo:hi]), tuple(betas[lo:hi])
            # the module global, which perfbench's tracer wraps to count every eta
            yield build_eta(BlockContext(spec, q, L, outer, a, o, j0), j, table, cut)
