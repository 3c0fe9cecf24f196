"""The chunked orbit expander against the unchunked breadth oracle.

A small word budget makes the chunks ragged: in subshift mode a prefix
may precede only some of the inner words, and a budget below the letter
count leaves no inner letters at all. Every comparison is exact.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import breadth_expand_orbit, breadth_mu, breadth_mu1, traced_peak
from modgap import symdyn
from modgap.errors import GuardExceeded, Guards
from modgap.measures import MeasureParams, _cocycle_track, build_mu, build_mu1
from modgap.modgroup import get_group
from modgap.symdyn import (
    estimate_delta,
    orbit_log_derivs,
    resolve_point,
    schottky_system,
    zaremba_system,
)

# (system, evaluation point, word length); the Schottky pair at x=2.3 sits
# in the first letter's interval, and at its midpoints on the first interval
# too, so both have a base interval j0
CASES = {
    "zaremba12": (zaremba_system([1, 2]), None, 6),
    "zaremba12-x0.1": (zaremba_system([1, 2]), 0.1, 6),
    "zaremba123": (zaremba_system([1, 2, 3]), None, 4),
    "schottky-midpoints": (schottky_system(), None, 7),
    "schottky-x2.3": (schottky_system(), 2.3, 7),
}
BUDGETS = [1, 5, 40, 1 << 15]


@pytest.fixture(params=BUDGETS, ids=lambda b: f"budget{b}")
def budget(request, monkeypatch):
    monkeypatch.setattr(symdyn, "_EXPAND_CHUNK", request.param)
    return request.param


def chunks_and_oracle(case, q=5):
    spec, x, n = CASES[case]
    x0, j0 = resolve_point(spec, x)
    track = _cocycle_track(spec, get_group(q))
    chunks = list(symdyn._expand_orbit(spec, n, x0, j0, Guards.max_words, track))
    return chunks, breadth_expand_orbit(spec, n, x0, j0, Guards.max_words, track)


@pytest.mark.parametrize("case", CASES)
def test_chunks_concatenate_to_the_breadth_expansion(case, budget):
    chunks, oracle = chunks_and_oracle(case)
    assert all(c[0].size <= budget for c in chunks)
    for got, want in zip(zip(*chunks), oracle):
        np.testing.assert_array_equal(np.concatenate(got), want)


def test_small_budget_makes_ragged_chunks(monkeypatch):
    monkeypatch.setattr(symdyn, "_EXPAND_CHUNK", 5)
    chunks, _ = chunks_and_oracle("schottky-x2.3")
    assert len({c[0].size for c in chunks}) > 1


@pytest.mark.parametrize("case", CASES)
def test_log_derivs_match_the_oracle(case, budget):
    spec, x, n = CASES[case]
    oracle = breadth_expand_orbit(spec, n, *resolve_point(spec, x), Guards.max_words)[1]
    np.testing.assert_array_equal(orbit_log_derivs(spec, n, x), oracle)


@pytest.mark.parametrize("case, prefix", [(c, ()) for c in CASES] + [
    ("schottky-midpoints", (0, 2)), ("schottky-x2.3", (0, 2)), ("schottky-x2.3", (3,))])
def test_measures_match_the_oracle(case, prefix, budget):
    spec, x, n = CASES[case]
    p = MeasureParams(spec=spec, q=5, s=complex(0.5322, 3.1), r_len=n, prefix=prefix,
                      x=x, base=x)
    np.testing.assert_array_equal(build_mu1(p).coeffs, breadth_mu1(p).coeffs)
    np.testing.assert_array_equal(build_mu(p).coeffs, breadth_mu(p).coeffs)


@pytest.mark.parametrize("case", CASES)
def test_start_points_are_walked_as_one_expansion(case, budget):
    # each word comes out with every start point in turn, each walked as
    # that point's own expansion walks it; chunks count words times points
    spec, x, n = CASES[case]
    x0, j0 = resolve_point(spec, x)
    points = x0 + np.array([0.0, 1e-3, -2e-3])
    chunks = list(symdyn._expand_orbit(spec, n, points, j0, Guards.max_words))
    assert all(c[0].size <= max(budget, points.size) for c in chunks)
    for got, want in zip(zip(*chunks), zip(*(breadth_expand_orbit(spec, n, p, j0, Guards.max_words)
                                             for p in points))):
        if want[0] is not None:
            got = np.concatenate(got).reshape(-1, points.size)
            np.testing.assert_array_equal(got, np.stack(want, axis=1))


@pytest.mark.parametrize("case, after", [("schottky-midpoints", 2), ("schottky-x2.3", 2),
                                         ("schottky-x2.3", 3), ("zaremba12", 1)])
def test_words_after_a_letter_skip_their_chunks_before_the_walk(case, after, budget):
    # no chunk holds a word whose outermost letter may not follow `after`,
    # so the prefix mask once applied after the walk drops nothing
    spec, x, n = CASES[case]
    x0, j0 = resolve_point(spec, x)
    track = _cocycle_track(spec, get_group(5))
    chunks = list(symdyn._expand_orbit(spec, n, x0, j0, Guards.max_words, track, after))
    assert all(spec.follows[after, c[2]].all() for c in chunks)
    oracle = breadth_expand_orbit(spec, n, x0, j0, Guards.max_words, track)
    keep = spec.follows[after, oracle[2]]
    for got, want in zip(zip(*chunks), oracle):
        np.testing.assert_array_equal(np.concatenate(got), want[keep])


def test_word_guard_fires_before_any_allocation(spec12):
    with pytest.raises(GuardExceeded, match=rf"^{4**40} words of length 40 exceed "
                       r"guards.max_words=1000000$"):
        estimate_delta(spec12, 40, guard=1_000_000)


def test_log_derivs_peak_below_one_and_a_half_results(spec12):
    logs, peak = traced_peak(lambda: orbit_log_derivs(spec12, 10))
    assert logs.nbytes == 8 << 20
    assert peak < 1.5 * logs.nbytes  # the unchunked expansion peaked at 38.5 MiB


def test_mu1_peak_within_one_chunk_of_its_coefficients(spec12, a12):
    p = MeasureParams(spec=spec12, q=8, s=a12, r_len=9)
    build_mu1(replace(p, r_len=2))  # the group table and the cocycle track
    mu1, peak = traced_peak(lambda: build_mu1(p))
    # 64 bytes per word of budget (the unchunked expansion of 4^9 words peaked at 11.8 MiB)
    assert peak - mu1.coeffs.nbytes < 64 * symdyn._EXPAND_CHUNK
