import math
import pickle

import numpy as np
import pytest

from conftest import admissible_words, bisect_delta, branch_matrix, traced_peak
from modgap import symdyn
from modgap.errors import (
    AdmissibilityError,
    DomainError,
    EstimationError,
    GuardExceeded,
    NonContractingError,
)
from modgap.symdyn import (
    build_system,
    check_word_count,
    count_admissible,
    estimate_contraction,
    estimate_delta,
    evaluate_branch,
    orbit_log_derivs,
    partition_sum,
    schottky_system,
    walk_words,
    word,
    zaremba_system,
)


def test_zaremba_letters_are_two_digit_blocks(spec12):
    mats = [l.matrix for l in spec12.letters]
    assert mats == [(1, 1, 1, 2), (1, 2, 1, 3), (1, 1, 2, 3), (1, 2, 2, 5)]
    assert all(a * d - b * c == 1 for a, b, c, d in mats)


def test_single_digit_alphabet():
    spec = zaremba_system([1])
    assert [l.matrix for l in spec.letters] == [(1, 1, 1, 2)]


def test_build_system_errors():
    with pytest.raises(ValueError):
        zaremba_system([])
    with pytest.raises(ValueError):
        zaremba_system([0, 12])
    with pytest.raises(ValueError):
        schottky_system([("g", (12, 7, 5, 3))])  # inverse partner missing


def test_schottky_structure(schottky):
    assert schottky.n_letters == 4
    pairing = [l.inverse for l in schottky.letters]
    assert pairing == [1, 0, 3, 2]
    assert schottky.block_width == 2


def test_word_counts(spec12, schottky):
    assert count_admissible(spec12, 3) == 64
    assert len(admissible_words(spec12, 3)) == 64
    assert count_admissible(schottky, 1) == 4
    assert count_admissible(schottky, 2) == 12
    assert len(admissible_words(schottky, 2)) == 12


def test_letter_ids_hold_every_letter_of_a_wide_alphabet():
    # 99 parabolic pairs make 198 letters, more than an int8 id holds
    spec = schottky_system([m for k in range(1, 100) for m in ((1, 2 * k, 0, 1), (1, -2 * k, 0, 1))])
    ids = symdyn._admissible_id_matrix(spec, 2)
    assert len(ids) == count_admissible(spec, 2) == 198 * 197
    assert ids.min() == 0 and ids.max() == spec.n_letters - 1
    assert spec.follows[ids[:, 0], ids[:, 1]].all()


@pytest.mark.parametrize("make", [lambda: zaremba_system([1, 2]), lambda: schottky_system()])
def test_equal_specs_hash_equal(make):
    first, second = make(), make()
    assert first == second and first is not second
    assert hash(first) == hash(second)
    # the cached hash stays behind: str hashes are salted per process
    copy = pickle.loads(pickle.dumps(first))
    assert "_hash" not in copy.__dict__
    assert copy == first and hash(copy) == hash(first)


def test_admissible_words_guard(spec12):
    with pytest.raises(GuardExceeded):
        check_word_count(spec12, 5, guard=100)


def test_inverse_succession_rejected(schottky):
    with pytest.raises(AdmissibilityError):
        word(schottky, (0, 1))
    w = word(schottky, (0, 2))
    assert len(w) == 2


def test_branch_eval_frozen_values(spec12):
    ev, wt = evaluate_branch(word(spec12, (0,)), x=0.0, s=0.5)
    assert abs(wt - 0.5) < 1e-14
    assert abs(ev.image - 0.5) < 1e-14  # (0+1)/(0+2)
    ev, wt = evaluate_branch(word(spec12, (1,)), x=0.0, s=1.0)
    assert abs(wt - 1.0 / 9.0) < 1e-14
    # empty word is the identity branch
    ev, wt = evaluate_branch(word(spec12, ()), x=0.3, s=0.7 + 2j)
    assert wt == 1.0 and ev.image == 0.3


def test_weight_modulus_and_phase(spec12):
    w = word(spec12, (0, 1, 2))
    ev, wt = evaluate_branch(w, x=0.25, s=complex(0.6, 3.0))
    assert abs(abs(wt) - math.exp(0.6 * ev.log_deriv)) < 1e-12
    assert abs(math.remainder(np.angle(wt) - 3.0 * ev.log_deriv, 2 * math.pi)) < 1e-9


def test_increments_sum_and_alignment(spec12, rng):
    for _ in range(100):
        ids = tuple(rng.integers(4, size=6))
        ev, _ = evaluate_branch(word(spec12, ids), x=float(rng.random()))
        assert abs(sum(ev.increments) - ev.log_deriv) < 1e-10
        assert len(ev.increments) == 6


def test_cocycle_of_composition(spec12, rng):
    # log|(w1 w2)'(x)| = log|w1'(w2 x)| + log|w2'(x)|
    for _ in range(300):
        ids1 = tuple(rng.integers(4, size=int(rng.integers(1, 5))))
        ids2 = tuple(rng.integers(4, size=int(rng.integers(1, 5))))
        x = float(rng.random())
        ev2, _ = evaluate_branch(word(spec12, ids2), x=x)
        ev1, _ = evaluate_branch(word(spec12, ids1), x=ev2.image)
        ev, _ = evaluate_branch(word(spec12, ids1 + ids2), x=x)
        assert abs(ev.log_deriv - ev1.log_deriv - ev2.log_deriv) < 1e-10


def test_matrix_mobius_consistency(spec12, rng):
    # exact integer matrices for short words agree with per-letter evaluation
    for _ in range(200):
        n = int(rng.integers(1, 9))
        ids = tuple(rng.integers(4, size=n))
        w = word(spec12, ids)
        x = float(rng.random())
        a, b, c, d = branch_matrix(w)
        assert a * d - b * c == 1
        ev, _ = evaluate_branch(w, x=x)
        assert abs(ev.image - (a * x + b) / (c * x + d)) < 1e-9
        assert abs(ev.log_deriv - (-2.0 * math.log(abs(c * x + d)))) < 1e-9


def test_images_nest_inside_unit_interval(spec12, rng):
    for _ in range(100):
        ids = tuple(rng.integers(4, size=5))
        w = word(spec12, ids)
        # refining a word with deeper letters keeps the image inside the
        # image of the part already applied on top
        lead = word(spec12, ids[:-1])
        for x in (0.0, 0.5, 1.0):
            ev, _ = evaluate_branch(w, x=x)
            assert 0.0 <= ev.image <= 1.0
        lo_s, hi_s = sorted(evaluate_branch(lead, x=x)[0].image for x in (0.0, 1.0))
        lo_w, hi_w = sorted(evaluate_branch(w, x=x)[0].image for x in (0.0, 1.0))
        assert lo_s - 1e-12 <= lo_w and hi_w <= hi_s + 1e-12


@pytest.mark.parametrize("system", ["zaremba", "schottky"])
def test_walk_words_matches_evaluate_branch(spec12, schottky, rng, system):
    if system == "zaremba":
        spec = zaremba_system([1, 2, 3])
        ids = rng.integers(spec.n_letters, size=(60, 5))
        xs = rng.random(60)
    else:
        # admissible words through the base points evaluate_branch picks
        spec = schottky
        ids = np.array([w.letters for w in admissible_words(spec, 4)])
        xs = np.array([evaluate_branch(word(spec, r))[0].x for r in ids])
    evals = [evaluate_branch(word(spec, r), x=x)[0] for r, x in zip(ids, xs)]
    # (B, n) words through B points
    imgs, lds = walk_words(spec, ids, xs)
    assert imgs.tolist() == [ev.image for ev in evals]
    assert np.abs(lds - [ev.log_deriv for ev in evals]).max() <= 1e-13
    # one word through many points
    same = xs[(ids == ids[0]).all(axis=1)] if system == "schottky" else xs
    imgs, lds = walk_words(spec, ids[0], same)
    evals = [evaluate_branch(word(spec, ids[0]), x=x)[0] for x in same]
    assert imgs.tolist() == [ev.image for ev in evals]
    assert np.abs(lds - [ev.log_deriv for ev in evals]).max() <= 1e-13
    # a walk continued from its images and running sum is the whole walk
    whole = walk_words(spec, ids, xs)
    split = walk_words(spec, ids[:, :2], *walk_words(spec, ids[:, 2:], xs))
    assert all(np.array_equal(u, v) for u, v in zip(whole, split))


def test_domain_errors(spec12, schottky):
    with pytest.raises(DomainError):
        evaluate_branch(word(spec12, (0,)), x=1.5)
    with pytest.raises(DomainError):
        evaluate_branch(word(schottky, (0,)), x=100.0)
    with pytest.raises(DomainError):
        # point in the interval forbidden after letter 0 (its inverse's)
        evaluate_branch(word(schottky, (0,)), x=-0.6)


def test_contraction_estimates(spec12, schottky):
    ce = estimate_contraction(spec12)
    assert ce.sup_abs_deriv == 0.25
    assert ce.per_letter == 4.0
    assert ce.per_digit == 2.0
    cs = estimate_contraction(schottky)
    assert cs.per_letter == pytest.approx(25.0)
    assert cs.per_digit == pytest.approx(25.0)


def test_parabolic_letter_rejected():
    bad = schottky_system([("p", (1, 1, 0, 1)), ("P", (1, -1, 0, 1))])
    with pytest.raises(NonContractingError):
        estimate_contraction(bad)


def test_partition_sum_small_cases(spec12):
    # single letters: Z_1(a) = sum over blocks of (1/d)^(2a) at o=0
    z = partition_sum(spec12, 1, 0.5, x=0.0)
    assert abs(z - (1 / 2 + 1 / 3 + 1 / 3 + 1 / 5)) < 1e-12
    assert partition_sum(spec12, 0, 0.7) == 1.0


@pytest.mark.parametrize("a", [0.0, 0.01, 0.5, 0.99])
def test_partition_terms_chunk_by_chunk(spec12, a):
    # 32 chunks at n=10 against one pass over the whole array; the sums differ in order only
    logs = orbit_log_derivs(spec12, 10)
    z, dz = symdyn._partition_terms(logs, a)
    assert z == pytest.approx(np.exp(a * logs).sum(), rel=1e-13)
    assert dz == pytest.approx((logs * np.exp(a * logs)).sum(), rel=1e-13)
    assert partition_sum(spec12, 10, a) == z


def test_delta_estimates_frozen(spec12):
    d10 = estimate_delta(spec12, 10, 1e-4)
    d5 = estimate_delta(spec12, 5, 1e-4)
    assert 0.52 <= d10 <= 0.54
    assert abs(d10 - d5) <= 0.005
    # one-letter system collapses to zero
    assert estimate_delta(zaremba_system([1]), 8, 1e-4) < 0.02
    # monotone in the alphabet
    assert d5 < estimate_delta(zaremba_system([1, 2, 3]), 5, 1e-4)


# a pair of generators with huge entries: its root at n=1 lies below the
# bracket's left end, 0.01, so the bisection starts from 0
_N = 10**13
DEEP_SCHOTTKY = schottky_system([("g", (_N, _N * _N - 1, 1, _N)), ("G", (_N, 1 - _N * _N, -1, _N)),
                                 ("h", (_N, 1, _N * _N - 1, _N)), ("H", (_N, -1, 1 - _N * _N, _N))])
DELTA_CASES = [
    *[(zaremba_system([1, 2]), n, tol, x) for n in (1, 2, 3, 5, 8, 10)
      for tol in (1e-3, 1e-4, 1e-5, 1e-8) for x in (None, 0.1)],
    *[(zaremba_system([1, 2, 3]), n, tol, None) for n in (3, 5) for tol in (1e-4, 1e-8)],
    *[(zaremba_system([1]), n, 1e-4, None) for n in (1, 8)],
    *[(schottky_system(), n, tol, None) for n in (4, 6, 8) for tol in (1e-4, 1e-8)],
    *[(DEEP_SCHOTTKY, n, tol, None) for n in (1, 3) for tol in (1e-4, 1e-8)],
]


def _case_id(case):
    spec, n, tol, x = case
    name = spec.mode + "".join(map(str, spec.digits)) + ("-deep" if spec is DEEP_SCHOTTKY else "")
    return f"{name}-n{n}-tol{tol:g}" + ("" if x is None else f"-x{x}")


@pytest.mark.parametrize("case", DELTA_CASES, ids=map(_case_id, DELTA_CASES))
def test_delta_is_the_bisection_midpoint(case):
    # the Newton replay ends at the bisection's own dyadic midpoint, bit for bit
    assert estimate_delta(*case) == bisect_delta(*case)


@pytest.mark.parametrize("case", DELTA_CASES[::5], ids=map(_case_id, DELTA_CASES[::5]))
def test_delta_with_every_midpoint_evaluated(case, monkeypatch):
    # a margin so wide that no midpoint is decided from the Newton root
    monkeypatch.setattr(symdyn, "_ROOT_MARGIN", math.inf)
    assert estimate_delta(*case) == bisect_delta(*case)


@pytest.mark.parametrize("margin", [1e-9, math.inf])
def test_delta_out_of_bracket_is_reported(spec12, margin, monkeypatch):
    monkeypatch.setattr(symdyn, "_ROOT_MARGIN", margin)
    monkeypatch.setattr(symdyn, "DELTA_BRACKET", (0.01, 0.3))
    with pytest.raises(EstimationError, match=r"no sign change in \[0.01, 0.3\]"):
        estimate_delta(spec12, 6)


def test_delta_peak_below_one_and_a_half_log_arrays(spec12):
    estimate_delta(spec12, 3)
    d, peak = traced_peak(lambda: estimate_delta(spec12, 10))
    assert d == 0.5321502685546874  # perfbench's pinned set-up value
    assert peak < 1.5 * (8 << 20)  # the log array plus one buffer as large peaked at 16 MiB


def test_delta_makes_few_passes_over_the_log_array(spec12, monkeypatch):
    passes = []
    kernel = symdyn._partition_terms
    monkeypatch.setattr(symdyn, "_partition_terms",
                        lambda logs, a: passes.append(logs.size) or kernel(logs, a))
    assert estimate_delta(spec12, 10) == 0.5321502685546874
    assert passes and set(passes) == {4**10}
    assert len(passes) <= 8  # bisection alone made 16


def test_delta_root_property(spec12):
    tol = 1e-4
    n = 8
    d = estimate_delta(spec12, n, tol)
    z = partition_sum(spec12, n, d) ** (1.0 / n)
    assert 1 - 5 * tol <= z <= 1 + 5 * tol


def test_delta_monotonicity_guard():
    # an expanding "system" cannot be fed to the estimator
    bad = schottky_system([("p", (1, 1, 0, 1)), ("P", (1, -1, 0, 1))])
    with pytest.raises(EstimationError):
        estimate_delta(bad, 4, 1e-3)


def test_base_point_insensitivity(spec12):
    # base-point dependence is a boundary effect that shrinks with n
    gap5 = abs(estimate_delta(spec12, 5, 1e-5) - estimate_delta(spec12, 5, 1e-5, x=0.1))
    gap10 = abs(
        estimate_delta(spec12, 10, 1e-5) - estimate_delta(spec12, 10, 1e-5, x=0.1)
    )
    assert gap10 < gap5
    assert gap10 < 0.02


def test_build_system_config_block():
    spec = build_system({"mode": "zaremba", "digits": [2, 1], "base_point": 0.25})
    assert spec.digits == (1, 2)
    assert spec.base_point == 0.25
    sch = build_system({"mode": "schottky"})
    assert sch.n_letters == 4
    with pytest.raises(ValueError):
        build_system({"mode": "nope"})
