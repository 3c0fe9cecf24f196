import math
import re
import weakref

import numpy as np
import pytest
from conftest import traced_peak

from modgap import decouple, symdyn
from modgap.decouple import (
    FittedDecoupling,
    _replacement_survey,
    build_eta,
    decoupled_upper_bound,
    enumerate_contexts,
    enumerate_etas,
    fit_decoupling_constant,
    flatness_ratio,
    inner_slots,
    make_context,
    measure_replacement_errors,
    outer_words,
    verify_domination,
)
from modgap.errors import AdmissibilityError, DomainError
from modgap.measures import MeasureParams, _cocycle_track, build_mu1
from modgap.modgroup import GroupTable, get_group
from modgap.symdyn import (
    _admissible_id_matrix,
    _window_point,
    build_system,
    evaluate_branch,
    letter_image,
    letter_log_deriv,
    resolve_point,
    schottky_system,
    walk_words,
    word,
    zaremba_system,
)


@pytest.fixture(scope="module")
def fitted(spec12_mod, a12_mod):
    return fit_decoupling_constant(spec12_mod, a12_mod, base=0.0)


@pytest.fixture(scope="module")
def spec12_mod():
    from modgap.symdyn import zaremba_system

    return zaremba_system([1, 2])


@pytest.fixture(scope="module")
def a12_mod():
    return 0.5322


def _beta(ctx, j, inner):
    eta = build_eta(ctx, j)
    return eta.betas[eta.inners.index(inner)]


def test_beta_frozen_value(spec12):
    # block 1 is its outer letter then its inner one, walked from the base point
    ctx = make_context(spec12, 2, 2, 1, [(0,)], 0.5, base=0.0)
    ev = evaluate_branch(word(spec12, (0, 0)), x=0.0)[0]
    assert _beta(ctx, 1, (0,)) == pytest.approx(math.exp(0.5 * ev.log_deriv))


def test_beta_zeroth_power(spec12):
    ctx = make_context(spec12, 3, 2, 2, [(1,), (2,)], 0.0, base=0.0)
    eta = build_eta(ctx, 2)
    assert eta.inners == inner_slots(ctx, 2)
    assert eta.betas == (1.0,) * len(eta.inners)


def test_beta_uses_shifted_window_point(spec12, a12):
    # for j >= 2 the weight is the block's Birkhoff sum at the image of
    # the base point under the previous block's outer part
    from modgap.symdyn import evaluate_branch

    ctx = make_context(spec12, 5, 2, 2, [(1,), (3,)], a12, base=0.0)
    inner = (2,)
    block = ctx.outer[1] + inner
    shift_img = evaluate_branch(word(spec12, ctx.outer[0]), x=0.0)[0].image
    ev = evaluate_branch(word(spec12, block), x=shift_img)[0]
    assert _beta(ctx, 2, inner) == pytest.approx(math.exp(a12 * ev.log_deriv))


def test_replacement_error_bound_form(spec12_mod, a12_mod, fitted):
    # err(L) <= a * c_impl * gamma^-(L-1) for all measured L, including one
    # outside the fitting set
    gamma = fitted.gamma_per_letter
    for L in (2, 3, 4):
        err = measure_replacement_errors(spec12_mod, a12_mod, 0.0, L)
        assert err <= a12_mod * fitted.c_impl * gamma ** (-(L - 1)) * 1.0000001


def test_replacement_error_decay_rate(spec12_mod, a12_mod):
    errs = [measure_replacement_errors(spec12_mod, a12_mod, 0.0, L) for L in (2, 3, 4)]
    assert errs[0] / errs[1] >= 4.0  # at least the worst-case contraction
    assert errs[1] / errs[2] >= 4.0
    slope = np.polyfit([2, 3, 4], np.log(errs), 1)[0]
    assert math.exp(-slope) >= 4.0


def test_eta_support_and_coefficients(spec12, a12):
    ctx = make_context(spec12, 5, 2, 2, [(0,), (1,)], a12, base=0.0)
    eta = build_eta(ctx, 2)
    assert len(eta.inners) == 4
    assert eta.measure.n_support == 4
    assert all(b > 0 for b in eta.betas)
    assert eta.measure.l1 == pytest.approx(sum(eta.betas))


def test_eta_support_is_block_cocycle(spec12, a12):
    from modgap.measures import cocycle
    from modgap.modgroup import get_group

    t = get_group(7)
    ctx = make_context(spec12, 7, 2, 2, [(0,), (1,)], a12, base=0.0)
    eta = build_eta(ctx, 1, t)
    for inner, b in zip(eta.inners, eta.betas):
        idx = t.index_of(cocycle(word(spec12, ctx.outer[0] + inner), 7))
        assert eta.measure.coeffs[idx].real == pytest.approx(b)


def test_schottky_degenerate_pair_list(schottky):
    # upper outer ends in a generator, lower outer starts with its inverse
    ctx = make_context(schottky, 5, 4, 2, [(1, 3), (3, 0)], 0.3)
    pairs = inner_slots(ctx, 2)
    labels = sorted("".join(schottky.letters[k].label for k in p) for p in pairs)
    assert labels == sorted(["gh", "gH", "hG", "hh", "HG", "HH"])


def test_schottky_needs_separating_outer(schottky):
    with pytest.raises(ValueError):
        make_context(schottky, 5, 2, 2, [(), ()], 0.3)


@pytest.mark.parametrize("system, L, outer, bad", [
    ("zaremba12", 2, [(0, 1)], "(0, 1)"),  # two letters where L=2 leaves one
    ("zaremba12", 3, [(0, 1), (4, 0)], "(4, 0)"),  # no letter 4
    ("schottky", 4, [(1, 3), (0, 1)], "(0, 1)"),  # g, then its inverse
])
def test_outer_words_are_checked(system, L, outer, bad, spec12, schottky):
    # a standalone build_eta once ended in "ValueError: (0, 1) is not in list"
    spec = spec12 if system == "zaremba12" else schottky
    base = 0.0 if spec is spec12 else None
    message = rf"^outer word {re.escape(bad)} .* of L={L} \(length {L - spec.block_width}\)$"
    with pytest.raises(AdmissibilityError, match=message):
        build_eta(make_context(spec, 5, L, 1, outer, 0.5, base), 1)


def test_replacement_survey_rejects_a_pole(monkeypatch, schottky):
    # windows that start on the pole -d/c of their innermost letter have an
    # infinite log-derivative, which once turned into nan and dropped out of
    # the max; the error names the first upper block that sits on such a window
    window_point = decouple._window_point

    def pole(spec, k, x, j, letters=range(4)):
        if k not in letters:
            return window_point(spec, k, x, j)
        _, _, c, d = spec.letters[k].matrix
        return -d / c

    monkeypatch.setattr(decouple, "_window_point", pole)
    with pytest.raises(DomainError, match=r"L=3, upper block \(0, 0, 0\): a window"):
        fit_decoupling_constant(schottky, 0.3, base=None)
    # only the windows that end in letter 1 start on a pole
    monkeypatch.setattr(decouple, "_window_point",
                        lambda spec, k, x, j: pole(spec, k, x, j, letters=(1,)))
    with pytest.raises(DomainError, match=r"L=3, upper block \(0, 0, 2\): a window"):
        _replacement_survey(schottky, 0.3, None, 3)


def test_default_schottky_system_decouples(schottky):
    # the midpoint base once put replacement windows on a pole of a letter;
    # the default fit once included L = width, where a window has no outer
    # letter and make_context rejects the block length
    fitted = fit_decoupling_constant(schottky, 0.3)
    assert [L for L, _ in fitted.err_by_L] == [3, 4]
    assert all(L > schottky.block_width for L, _ in fitted.err_by_L)
    p = MeasureParams(spec=schottky, q=5, s=0.3, r_len=6)
    bound, _ = decoupled_upper_bound(schottky, 5, 0.3, 3, 2, fitted)
    dom = verify_domination(build_mu1(p), bound)
    assert dom.passed and dom.n_violations == 0


SHORT_BLOCK_CALLS = {
    "decoupled_upper_bound": lambda spec, a, base, L: decoupled_upper_bound(
        spec, 5, a, L, 2, FittedDecoupling(spec, a, 0.0, 2.0, (), 0.0, 0.5, 1.25), base),
    "flatness_ratio": lambda spec, a, base, L: flatness_ratio(spec, a, L, base),
    "measure_replacement_errors": lambda spec, a, base, L: measure_replacement_errors(
        spec, a, base, L),
    "enumerate_etas": lambda spec, a, base, L: next(enumerate_etas(spec, 5, a, L, 2, base)),
    "make_context": lambda spec, a, base, L: make_context(spec, 5, L, 1, [()], a, base),
}


@pytest.mark.parametrize("call", sorted(SHORT_BLOCK_CALLS))
@pytest.mark.parametrize("system,L", [("zaremba", 1), ("schottky", 2)])
def test_a_block_with_no_outer_letter_is_rejected(spec12_mod, a12_mod, schottky, call, system,
                                                  L):
    # a window is its block plus the outer part of the block below, so L must
    # exceed the inner slot width; the bound once summed Schottky L=2 inner
    # slots that no outer letter separates
    spec, a, base = (spec12_mod, a12_mod, 0.0) if system == "zaremba" else (schottky, 0.3, None)
    with pytest.raises(AdmissibilityError, match=rf"needs L >= {L + 1} \(got L={L}\)"):
        SHORT_BLOCK_CALLS[call](spec, a, base, L)


R_PRIME_CALLS = {
    "decoupled_upper_bound": lambda spec, a, r: decoupled_upper_bound(
        spec, 5, a, 2, r, FittedDecoupling(spec, a, 0.0, 2.0, (), 0.0, 0.5, 1.25), 0.0),
    "enumerate_etas": lambda spec, a, r: next(enumerate_etas(spec, 5, a, 2, r, 0.0)),
    "enumerate_contexts": lambda spec, a, r: enumerate_contexts(spec, 2, r),
}


@pytest.mark.parametrize("call", sorted(R_PRIME_CALLS))
@pytest.mark.parametrize("r_prime", [0, -1])
def test_fewer_than_one_block_is_rejected(spec12_mod, a12_mod, call, r_prime):
    # r_prime = -1 once gave a bound of 0.25 contexts, and r_prime = 0 one of 1
    with pytest.raises(ValueError, match=rf"need r_prime >= 1 \(got r_prime={r_prime}\)"):
        R_PRIME_CALLS[call](spec12_mod, a12_mod, r_prime)


def _walk_block(spec, block, pts):
    ld = np.zeros_like(pts)
    for k in reversed(block):
        ld = ld + letter_log_deriv(spec, k, pts)
        pts = letter_image(spec, k, pts)
    return ld, pts


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def reference_survey(spec, a, base, L):
    """Reference: the replacement survey as one loop over the upper blocks,
    with per-block images and `.at` reductions of the window spread."""
    o, j0 = resolve_point(spec, base)
    blocks = [tuple(int(v) for v in r) for r in _admissible_id_matrix(spec, L)]
    if j0 is not None:
        blocks = [b for b in blocks if spec.allowed(b[-1], j0)]
    width = spec.block_width
    outer_of = [b[: L - width] for b in blocks]
    outer_list = sorted(set(outer_of))
    outer_pos = {ow: i for i, ow in enumerate(outer_list)}
    outer_idx = np.array([outer_pos[ow] for ow in outer_of])
    pts_true_all = np.array([_walk_block(spec, b, np.array([o]))[1][0] for b in blocks])
    # each window starts at the base point, or at the window point of its
    # innermost letter in subshift mode
    pts_beta = np.array([
        _walk_block(spec, ow, np.array([o if spec.mode == "zaremba"
                                        else _window_point(spec, ow[-1], o, j0)]))[1][0]
        for ow in outer_list])
    worst = 0.0
    worst_spread = 0.0
    for upper in blocks:
        ok = np.array([spec.allowed(upper[-1], b[0]) for b in blocks])
        if not ok.any():
            continue
        ld_true, _ = _walk_block(spec, upper, pts_true_all[ok])
        ld_beta_all, _ = _walk_block(spec, upper, pts_beta)
        oidx = outer_idx[ok]
        errs = np.abs(a * (ld_true - ld_beta_all[oidx]))
        top = float(errs.max())
        if not math.isfinite(top):
            raise ValueError(
                f"non-finite log-derivative at L={L}, upper block {upper}: a window "
                "image lies on a pole of a letter"
            )
        worst = max(worst, top)
        lo = np.full(len(outer_list), np.inf)
        hi = np.full(len(outer_list), -np.inf)
        np.minimum.at(lo, oidx, ld_true)
        np.maximum.at(hi, oidx, ld_true)
        seen = np.isfinite(lo)
        lo[seen] = np.minimum(lo[seen], ld_beta_all[seen])
        hi[seen] = np.maximum(hi[seen], ld_beta_all[seen])
        worst_spread = max(worst_spread, float((a * (hi[seen] - lo[seen])).max()))
    return worst, worst_spread


SURVEY_CASES = (
    [("zaremba12", base, L) for base in (0.0, None) for L in (2, 3, 4)]
    + [("zaremba123", 0.0, L) for L in (2, 3)]
    + [("schottky", 2.45, L) for L in (3, 4, 5)]
    + [("schottky", None, L) for L in (3, 4)]  # some windows start off the base point
    + [("zaremba12", 0.0, 5), ("schottky", 2.45, 6)]
)
SURVEY_SYSTEMS = {
    "zaremba12": lambda: zaremba_system([1, 2]),
    "zaremba123": lambda: zaremba_system([1, 2, 3]),
    "schottky": schottky_system,
}


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("system,base,L", SURVEY_CASES)
def test_replacement_survey_matches_the_per_block_loop(monkeypatch, system, base, L,
                                                       chunked):
    spec = SURVEY_SYSTEMS[system]()
    if chunked:
        # one upper block a chunk of the expansion: chunk edges split the
        # upper blocks that share a window
        monkeypatch.setattr(symdyn, "_EXPAND_CHUNK", 1)
    got = _outcome(_replacement_survey, spec, 0.5322, base, L)
    ref = _outcome(reference_survey, spec, 0.5322, base, L)
    assert got == ref
    assert not isinstance(ref, str)


@pytest.mark.parametrize("system,base,L", [("zaremba12", 0.0, 3), ("zaremba12", 0.0, 4),
                                           ("zaremba123", 0.0, 3)]
                         + [("schottky", base, L) for base in (2.45, None) for L in (4, 5)])
def test_an_upper_block_is_extreme_on_a_window_at_its_extreme_images(system, base, L):
    # the survey walks only each window's members of least and greatest image:
    # an upper block's log-derivative is monotone on the cylinder that holds
    # them, so its extremes over all members are its values at those two
    spec = SURVEY_SYSTEMS[system]()
    o, j0 = resolve_point(spec, base)
    blocks = [tuple(int(v) for v in r) for r in _admissible_id_matrix(spec, L)]
    if j0 is not None:
        blocks = [b for b in blocks if spec.allowed(b[-1], j0)]
    images = np.array([_walk_block(spec, b, np.array([o]))[1][0] for b in blocks])
    windows = {}
    for i, b in enumerate(blocks):
        windows.setdefault(b[: L - spec.block_width], []).append(i)
    checked = 0
    for upper in blocks:
        ld, _ = _walk_block(spec, upper, images)
        for members in windows.values():
            if not spec.allowed(upper[-1], blocks[members[0]][0]):
                continue
            at = ld[members]
            least, greatest = (members[k] for k in (images[members].argmin(),
                                                    images[members].argmax()))
            assert (at.min(), at.max()) == tuple(sorted((ld[least], ld[greatest])))
            checked += 1
    assert checked > len(windows)


def test_flatness_decays_geometrically(spec12_mod, a12_mod):
    ks = {L: flatness_ratio(spec12_mod, a12_mod, L, base=0.0) for L in (2, 3, 4, 5)}
    excess = [ks[L] - 1 for L in (2, 3, 4, 5)]
    assert all(e > 0 for e in excess)
    for hi, lo in zip(excess, excess[1:]):
        assert lo < 0.5 * hi
    assert ks[3] < 1.1 and ks[4] < 1.1


def test_coefficient_spread_is_order_one(spec12, a12):
    # the raw inner-letter coefficients are genuinely not flat; the
    # decaying flatness lives across deep continuations of one window
    ctx = make_context(spec12, 5, 3, 2, [(0, 0), (1, 2)], a12, base=0.0)
    eta = build_eta(ctx, 2)
    assert max(eta.betas) / min(eta.betas) > 1.5


def test_bound_equals_mu1_for_single_block(spec12_mod, a12_mod, fitted):
    p = MeasureParams(spec=spec12_mod, q=5, s=a12_mod, r_len=3, base=0.0)
    bound, rep = decoupled_upper_bound(spec12_mod, 5, a12_mod, 3, 1, fitted, base=0.0)
    assert rep.scale == 1.0
    assert np.allclose(bound.coeffs, build_mu1(p).coeffs, atol=1e-10)


def per_context_bound(spec, q, a, L, r_prime, fitted, base=None):
    """Reference: the decoupled majorant summed context by context, R' etas
    and R'-1 convolutions for each outer-word tuple. Returns (coefficients,
    contexts, scale, coefficient spread)."""
    table = get_group(q)
    acc = np.zeros(table.order, dtype=np.complex128)
    spread = 1.0
    contexts = enumerate_contexts(spec, L, r_prime)
    for outer in contexts:
        ctx = make_context(spec, q, L, r_prime, outer, a, base)
        etas = [build_eta(ctx, j, table) for j in range(1, r_prime + 1)]
        prod = etas[0].measure
        for e in etas[1:]:
            prod = prod.convolve(e.measure)
        acc += prod.coeffs
        spread = max(spread, *(max(e.betas) / min(e.betas) for e in etas))
    scale = fitted.per_block_cost(L) ** (r_prime - 1)
    return acc * scale, len(contexts), scale, spread


def _assert_chain_matches(spec, q, a, L, r_prime, fit, base):
    bound, rep = decoupled_upper_bound(spec, q, a, L, r_prime, fit, base=base)
    ref, n_contexts, scale, spread = per_context_bound(spec, q, a, L, r_prime, fit, base)
    assert np.abs(bound.coeffs - ref).max() <= 1e-12 * np.abs(ref).max()
    assert (rep.n_contexts, rep.scale, rep.coefficient_spread) == (n_contexts, scale, spread)


def _schottky_fit(schottky):
    return FittedDecoupling(schottky, 0.3, 0.0, 2.0, (), 0.0, 0.5, 1.25)


@pytest.mark.parametrize("system", ["zaremba", "schottky"])
@pytest.mark.parametrize("q,L,r_prime", [(3, 2, 1), (3, 2, 2), (5, 2, 3), (4, 3, 2), (5, 2, 4)])
def test_chain_matches_per_context_sum(spec12_mod, a12_mod, fitted, schottky, system,
                                       q, L, r_prime):
    if system == "zaremba":
        _assert_chain_matches(spec12_mod, q, a12_mod, L, r_prime, fitted, 0.0)
    else:
        # subshift blocks need an outer letter beside the 2-letter inner slot;
        # base=None pins block 1's slot against the base interval
        _assert_chain_matches(schottky, q, 0.3, L + 1, r_prime, _schottky_fit(schottky), None)


def _window_rows(spec, q, a, L, base):
    """eta(o', o) of every window, one list over o per outer word o'."""
    etas = list(enumerate_etas(spec, q, a, L, 2, base))
    S = len(outer_words(spec, L, 2))
    return [etas[S + i * S : S + (i + 1) * S] for i in range(S)]


@pytest.mark.parametrize("q,L,r_prime", [(4, 3, 2), (4, 3, 3), (5, 3, 3), (4, 4, 2)])
def test_chain_takes_the_union_of_supports_that_differ_across_a_row(schottky, q, L, r_prime):
    # the inner slot depends on the lower word, so one o' row of eta(o', o)
    # does not share one support
    rows = _window_rows(schottky, q, 0.3, L, None)
    assert any(len({e.measure.support.tobytes() for e in row}) > 1 for row in rows)
    _assert_chain_matches(schottky, q, 0.3, L, r_prime, _schottky_fit(schottky), None)


@pytest.mark.parametrize("q,L,r_prime", [(2, 3, 2), (3, 3, 2), (3, 3, 3), (3, 4, 2)])
def test_chain_sums_blocks_that_share_a_cocycle(schottky, q, L, r_prime):
    # at small q two inner choices of one window land on one group element
    etas = [e for row in _window_rows(schottky, q, 0.3, L, None) for e in row]
    assert any(e.measure.n_support < len(e.inners) for e in etas)
    _assert_chain_matches(schottky, q, 0.3, L, r_prime, _schottky_fit(schottky), None)


@pytest.mark.parametrize("q,L", [(8, 2), (5, 3)])
def test_a_chain_translates_each_row_once_whatever_its_length(monkeypatch, spec12_mod, a12_mod,
                                                              fitted, q, L):
    # a row's gather indices depend on the row alone, so a longer chain
    # reuses them instead of translating again: one call per o' row
    decoupled_upper_bound(spec12_mod, q, a12_mod, L, 2, fitted, base=0.0)  # warm caches
    calls = []
    translate = GroupTable.right_translation
    monkeypatch.setattr(GroupTable, "right_translation",
                        lambda self, *args, **kw: calls.append(1) or translate(self, *args, **kw))
    counts = []
    for r_prime in (3, 4):
        calls.clear()
        decoupled_upper_bound(spec12_mod, q, a12_mod, L, r_prime, fitted, base=0.0)
        counts.append(len(calls))
    assert counts == [len(outer_words(spec12_mod, L, 1))] * 2


def _row_sizes(spec, q, a, L, r_prime):
    """(S, sum of |H| over the o' rows, the largest |H|) of one chain."""
    S = len(outer_words(spec, L, 1))
    _, rows, _ = decouple._chain_terms(spec, get_group(q), L, a, 0.0, S, r_prime)
    return S, sum(hs.size for hs, _ in rows), max(hs.size for hs, _ in rows)


def test_a_long_chain_peaks_at_its_held_gathers(spec12_mod, a12_mod, fitted):
    # R' = 4 holds every row's int32 gather through the middle steps, beside
    # S_{j-1}, S_j and one row's (|H|, |G|) temporaries
    q, L, r_prime = 16, 3, 4
    S, sum_h, max_h = _row_sizes(spec12_mod, q, a12_mod, L, r_prime)
    order = get_group(q).order
    decoupled_upper_bound(spec12_mod, q, a12_mod, L, r_prime, fitted, base=0.0)  # warm caches
    _, peak = traced_peak(lambda: decoupled_upper_bound(spec12_mod, q, a12_mod, L, r_prime,
                                                        fitted, base=0.0))
    held = 4 * sum_h * order
    assert held <= peak <= held + 2 * 8 * S * order + 4 * 8 * max_h * order


@pytest.mark.parametrize("r_prime", [2, 3])
def test_row_gathers_are_held_through_the_middle_steps_only(monkeypatch, spec12_mod, a12_mod,
                                                            fitted, r_prime):
    # when a row's gather is built, every earlier row's is still held after a
    # middle step; in the last step only the one row before it is, as its
    # product is summed
    alive, built = [], []
    build = decouple._row_gather

    def tracked(table, hs):
        alive.append(sum(ref() is not None for ref in built))
        gather = build(table, hs)
        built.append(weakref.ref(gather))
        return gather

    monkeypatch.setattr(decouple, "_row_gather", tracked)
    decoupled_upper_bound(spec12_mod, 5, a12_mod, 3, r_prime, fitted, base=0.0)
    S = len(outer_words(spec12_mod, 3, 1))
    assert alive == (list(range(S)) if r_prime > 2 else [0] + [1] * (S - 1))


def test_a_two_block_chain_peaks_no_higher_than_a_gather_per_step(spec12_mod, a12_mod, fitted):
    # the traced peak of L=5, R'=2 at q=16 when each step built every row's
    # gather afresh: 23.3 MiB (numpy 2.4, x86_64)
    decoupled_upper_bound(spec12_mod, 16, a12_mod, 5, 2, fitted, base=0.0)  # warm caches
    _, peak = traced_peak(lambda: decoupled_upper_bound(spec12_mod, 16, a12_mod, 5, 2, fitted,
                                                        base=0.0))
    assert peak <= 23.3 * 2**20


@pytest.mark.parametrize("L,r_prime,q", [(2, 2, 3), (2, 2, 5), (3, 2, 4), (2, 3, 5)])
def test_pointwise_domination(spec12_mod, a12_mod, fitted, L, r_prime, q):
    p = MeasureParams(spec=spec12_mod, q=q, s=a12_mod, r_len=L * r_prime, base=0.0)
    mu1 = build_mu1(p)
    bound, rep = decoupled_upper_bound(spec12_mod, q, a12_mod, L, r_prime, fitted, base=0.0)
    dom = verify_domination(mu1, bound)
    assert dom.passed and dom.n_violations == 0
    assert dom.min_slack_factor >= 1.0 - 1e-9
    # mass ratio in [1, exp(2 c gamma^-L)^(R'-1)]
    gamma = fitted.gamma_per_letter
    upper = math.exp(2 * fitted.c_scale * gamma**-L) ** (r_prime - 1)
    assert 1.0 - 1e-12 <= dom.mass_ratio <= upper


def test_verify_domination_report_paths(spec12_mod, a12_mod):
    p = MeasureParams(spec=spec12_mod, q=3, s=a12_mod, r_len=2, base=0.0)
    mu1 = build_mu1(p)
    ok = verify_domination(mu1, mu1.scaled(2.0))
    assert ok.passed and ok.min_slack_factor == pytest.approx(2.0)
    bad = verify_domination(mu1, mu1.scaled(0.5))
    assert not bad.passed
    assert bad.n_violations > 0 and bad.max_violation > 0


def test_context_enumeration_counts(spec12, schottky):
    assert len(enumerate_contexts(spec12, 2, 2)) == 16
    assert len(enumerate_contexts(spec12, 3, 2)) == 256
    # schottky outer words of length 1, both slots: 4 * 4
    assert len(enumerate_contexts(schottky, 3, 2)) == 16


@pytest.mark.parametrize("system,L,r_prime", [("zaremba", L, r) for L in (2, 3) for r in (1, 2, 3)]
                         + [("schottky", 3, 2), ("schottky", 4, 3)])
def test_enumerate_etas_yields_each_distinct_measure_once(spec12_mod, a12_mod, schottky,
                                                          system, L, r_prime):
    spec, a, base = (spec12_mod, a12_mod, 0.0) if system == "zaremba" else (schottky, 0.3, None)
    q = 5
    table = get_group(q)

    def key(eta):
        m = eta.measure
        return m.support.tobytes(), m.coeffs[m.support].tobytes()

    walked = set()  # every block of every context
    for outer in enumerate_contexts(spec, L, r_prime):
        ctx = make_context(spec, q, L, r_prime, outer, a, base)
        walked.update(key(build_eta(ctx, j, table)) for j in range(1, r_prime + 1))
    keys = [key(e) for e in enumerate_etas(spec, q, a, L, r_prime, base)]
    S = len(outer_words(spec, L, r_prime))
    assert len(keys) == (S if r_prime == 1 else S + S * S)
    assert len(set(keys)) == len(keys)
    assert set(keys) == walked


@pytest.mark.parametrize("system,L", [("zaremba", 2), ("zaremba", 3), ("schottky", 3),
                                      ("schottky", 4)])
def test_enumerated_etas_equal_their_standalone_builds(spec12_mod, a12_mod, schottky, system, L):
    # enumerate_etas cuts each stack in one pass and builds each context
    # from outer_words unchecked; a standalone build_eta looks the words up,
    # checks its window and gathers it alone: the same measure, bit for bit
    spec, a, base = (spec12_mod, a12_mod, 0.0) if system == "zaremba" else (schottky, 0.3, None)
    table = get_group(5)
    for eta in enumerate_etas(spec, 5, a, L, 2, base):
        ctx = make_context(spec, 5, L, 2, eta.context.outer, a, base)
        alone = build_eta(ctx, eta.j, table)
        assert eta.context == ctx
        assert (eta.inners, eta.betas) == (alone.inners, alone.betas)
        for arr, ref in ((eta.support, alone.support), (eta.weights, alone.weights)):
            assert arr.dtype == ref.dtype and np.array_equal(arr, ref)


def test_a_stack_with_an_empty_window_is_rejected_before_any_eta(spec12_mod, a12_mod,
                                                                  monkeypatch):
    # each stack is checked once, so not even the measures before the empty
    # window are yielded
    stack = decouple._window_stack

    def emptied(*args):
        w = stack(*args)
        offsets = w.offsets.copy()
        offsets[2] = offsets[1]
        return decouple._Windows(w.blocks, w.betas, offsets)

    monkeypatch.setattr(decouple, "_window_stack", emptied)
    etas = enumerate_etas(spec12_mod, 5, a12_mod, 3, 2, 0.0)
    with pytest.raises(AdmissibilityError, match="no admissible inner choice for block 1"):
        next(etas)


def _walk_window(ctx, j, table):
    """The per-window walk with no cache, weights and cocycles in one loop:
    (inners, betas, coefficients)."""
    spec = ctx.spec
    inners = inner_slots(ctx, j)
    blocks = np.array([ctx.outer[j - 1] + inner for inner in inners], dtype=np.intp)
    lower = ctx.outer[j - 2] if j >= 2 else ()
    innermost = lower[-1] if lower else blocks[:, -1]
    x, _ = walk_words(spec, lower,
                      decouple._start_points(spec, ctx.base, ctx.base_interval, innermost))
    start, maps = _cocycle_track(spec, table)
    idx = np.full(len(inners), start)
    incs = []
    for col in reversed(range(ctx.L)):
        x, inc = walk_words(spec, blocks[:, col : col + 1], x)
        incs.append(inc)
        idx = maps[blocks[:, col], idx]
    betas = tuple(math.exp(ctx.a * math.fsum(row)) for row in np.transpose(incs).tolist())
    coeffs = np.bincount(idx, weights=betas, minlength=table.order).astype(np.complex128)
    return inners, betas, coeffs


@pytest.mark.parametrize("system,L", [("zaremba", 2), ("zaremba", 3), ("schottky", 3),
                                      ("schottky", 4)])
def test_window_weights_do_not_depend_on_the_modulus(spec12_mod, a12_mod, schottky, system, L):
    # the same inners, betas, supports and weights at q = 5 and 16, equal to
    # the uncached walk; the windows are walked as one stack per block kind
    # at q = 5 and not again at q = 16, so q is not in the cache key
    spec, a, base = (spec12_mod, a12_mod, 0.0) if system == "zaremba" else (schottky, 0.3, None)
    decouple._window_stack.cache_clear()
    seen = {}
    S = len(outer_words(spec, L, 2))
    for q in (5, 16):
        table = get_group(q)
        for eta in enumerate_etas(spec, q, a, L, 2, base):
            inners, betas, coeffs = _walk_window(eta.context, eta.j, table)
            assert eta.inners == inners and eta.betas == betas
            assert np.array_equal(eta.measure.coeffs, coeffs)
            assert np.array_equal(eta.support, np.flatnonzero(coeffs))
            assert np.array_equal(eta.weights, coeffs.real[eta.support])
            assert seen.setdefault(eta.context.outer, (inners, betas)) == (inners, betas)
        assert decouple._window_stack.cache_info().misses == 2  # one walk per block kind
    ctx = eta.context  # the last window, j = 2
    for j, n_windows in ((1, S), (2, S * S)):
        windows = decouple._window_stack(spec, L, a, ctx.base, ctx.base_interval, j)
        assert len(windows.offsets) == n_windows + 1
        assert not windows.blocks.flags.writeable and not windows.betas.flags.writeable
    assert decouple._window_stack.cache_info().misses == 2


def test_schottky_inner_slots_nonempty_everywhere(schottky):
    for outer in enumerate_contexts(schottky, 4, 2):
        ctx = make_context(schottky, 3, 4, 2, outer, 0.3)
        for j in (1, 2):
            assert len(inner_slots(ctx, j)) >= 6


def _base_point_betas(eta):
    """The weights of `beta` with every word evaluated at x=None (the base
    point, or a midpoint system's first admissible interval) in subshift
    mode, and at the context's base in Zaremba mode."""
    ctx, j = eta.context, eta.j
    spec = ctx.spec
    out = []
    for inner in eta.inners:
        block = ctx.outer[j - 1] + inner
        letters = block if j == 1 else block + ctx.outer[j - 2]
        x = ctx.base if spec.mode == "zaremba" else None
        try:
            ev, _ = evaluate_branch(word(spec, letters), x=x)
        except DomainError:  # the base interval may not follow this word
            out.append(None)
            continue
        out.append(math.exp(ctx.a * math.fsum(ev.increments[: len(block)])))
    return out


@pytest.mark.parametrize("system,L", [("zaremba", 2), ("zaremba", 3), ("schottky", 3),
                                      ("schottky", 4)])
def test_window_points_keep_base_point_weights(spec12_mod, a12_mod, schottky, system, L):
    # Zaremba and midpoint-system weights are exactly those of x=None
    spec, a, base = (spec12_mod, a12_mod, 0.0) if system == "zaremba" else (schottky, 0.3, None)
    for eta in enumerate_etas(spec, 5, a, L, 2, base):
        assert list(eta.betas) == _base_point_betas(eta)


def test_zaremba_default_fit_keeps_block_lengths_2_and_3(spec12_mod, a12_mod):
    fitted = fit_decoupling_constant(spec12_mod, a12_mod, 0.0)
    assert [L for L, _ in fitted.err_by_L] == [2, 3]


def test_a_base_point_beside_the_system_reaches_the_window_weights():
    # a numeric base point given as the run's base, not the system's, once
    # reached build_mu1 and the survey's true weights but not the eta weights
    inside = list(enumerate_etas(build_system({"mode": "schottky", "base_point": 0.5}),
                                 5, 0.3, 3, 2))
    beside = list(enumerate_etas(build_system({"mode": "schottky"}), 5, 0.3, 3, 2, base=0.5))
    assert [e.betas for e in beside] == [e.betas for e in inside]
    assert all(np.array_equal(e.measure.coeffs, f.measure.coeffs)
               for e, f in zip(beside, inside))


def test_numeric_schottky_base_decouples_every_window():
    # the base point 0.5 lies in the interval of H, which may not follow h:
    # such windows are evaluated in the first interval that may
    spec = build_system({"mode": "schottky", "base_point": 0.5})
    etas = list(enumerate_etas(spec, 5, 0.3, 3, 2))
    S = len(outer_words(spec, 3, 2))
    assert len(etas) == S + S * S
    moved = 0
    for eta in etas:
        for b, ref in zip(eta.betas, _base_point_betas(eta)):
            assert b > 0
            if ref is None:
                moved += 1
            else:  # a window that admits the base interval keeps the base point
                assert b == ref
    assert moved > 0
