import math

import numpy as np
import pytest

from modgap.decouple import (
    FittedDecoupling,
    beta,
    build_eta,
    decoupled_upper_bound,
    enumerate_contexts,
    enumerate_etas,
    fit_decoupling_constant,
    flatness_ratio,
    inner_slots,
    make_context,
    measure_replacement_errors,
    split_word,
    verify_domination,
)
from modgap.measures import MeasureParams, build_mu1
from modgap.modgroup import get_group
from modgap.symdyn import word


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


def test_split_round_trip(spec12, rng):
    for _ in range(50):
        ids = tuple(rng.integers(4, size=8))
        w = word(spec12, ids)
        blocks = split_word(w, 2)
        assert len(blocks) == 4
        rebuilt = sum((list(b.letters) for b in reversed(blocks)), [])
        assert tuple(rebuilt) == ids
        assert all(len(b) == 2 for b in blocks)


def test_split_single_block(spec12):
    w = word(spec12, (0, 1, 2))
    (b,) = split_word(w, 3)
    assert b.letters == w.letters


def test_split_requires_divisibility(spec12):
    with pytest.raises(ValueError):
        split_word(word(spec12, (0, 1, 2)), 2)


def test_beta_frozen_value(spec12):
    ctx = make_context(spec12, 2, 1, 1, [()], 0.5, base=0.0)
    assert beta(ctx, 1, (0,)) == pytest.approx(0.5)


def test_beta_zeroth_power(spec12):
    ctx = make_context(spec12, 3, 2, 2, [(1,), (2,)], 0.0, base=0.0)
    for inner in inner_slots(ctx, 2):
        assert beta(ctx, 2, inner) == 1.0


def test_beta_uses_shifted_window_point(spec12, a12):
    # for j >= 2 the weight is the block's Birkhoff sum at the image of
    # the base point under the previous block's outer part
    from modgap.symdyn import evaluate_branch

    ctx = make_context(spec12, 5, 2, 2, [(1,), (3,)], a12, base=0.0)
    inner = (2,)
    block = ctx.outer[1] + inner
    shift_img = evaluate_branch(word(spec12, ctx.outer[0]), x=0.0)[0].image
    ev = evaluate_branch(word(spec12, block), x=shift_img)[0]
    assert beta(ctx, 2, inner) == pytest.approx(math.exp(a12 * ev.log_deriv))


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


def test_replacement_survey_rejects_a_pole(schottky):
    # at the midpoint base some window images of the subshift sit on a pole;
    # their log-derivatives once turned into nan and dropped out of the max
    with pytest.raises(ValueError, match=r"L=3, upper block \("):
        fit_decoupling_constant(schottky, 0.3, base=None, L_values=(3, 4))


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
    assert eta.coefficient_spread > 1.5


def test_bound_equals_mu1_for_single_block(spec12_mod, a12_mod, fitted):
    p = MeasureParams(spec=spec12_mod, q=5, s=a12_mod, r_len=3, base=0.0)
    bound, rep = decoupled_upper_bound(spec12_mod, 5, a12_mod, 3, 1, fitted, base=0.0)
    assert rep.scale == 1.0
    assert bound.allclose(build_mu1(p), atol=1e-10)


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
        spread = max(spread, *(e.coefficient_spread for e in etas))
    scale = fitted.per_block_cost(L) ** (r_prime - 1)
    return acc * scale, len(contexts), scale, spread


@pytest.mark.parametrize("system", ["zaremba", "schottky"])
@pytest.mark.parametrize("q,L,r_prime", [(3, 2, 1), (3, 2, 2), (5, 2, 3), (4, 3, 2), (5, 2, 4)])
def test_chain_matches_per_context_sum(spec12_mod, a12_mod, fitted, schottky, system,
                                       q, L, r_prime):
    if system == "zaremba":
        spec, a, base, fit = spec12_mod, a12_mod, 0.0, fitted
    else:
        # subshift blocks need an outer letter beside the 2-letter inner slot;
        # base=None pins block 1's slot against the base interval
        spec, a, base, L = schottky, 0.3, None, L + 1
        fit = FittedDecoupling(spec, a, 0.0, 2.0, (), 0.0, 0.5, 1.25)
    bound, rep = decoupled_upper_bound(spec, q, a, L, r_prime, fit, base=base)
    ref, n_contexts, scale, spread = per_context_bound(spec, q, a, L, r_prime, fit, base)
    assert np.abs(bound.coeffs - ref).max() <= 1e-12 * np.abs(ref).max()
    assert (rep.n_contexts, rep.scale, rep.coefficient_spread) == (n_contexts, scale, spread)


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


def test_enumerate_etas_dedupes(spec12, a12):
    all_etas = list(enumerate_etas(spec12, 5, a12, 2, dedupe=False))
    unique = list(enumerate_etas(spec12, 5, a12, 2, dedupe=True))
    assert len(all_etas) == 32
    assert len(unique) < len(all_etas)


def test_schottky_inner_slots_nonempty_everywhere(schottky):
    for outer in enumerate_contexts(schottky, 4, 2):
        ctx = make_context(schottky, 3, 4, 2, outer, 0.3)
        for j in (1, 2):
            assert len(inner_slots(ctx, j)) >= 6
