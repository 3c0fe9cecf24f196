"""Symbolic dynamics: alphabets, admissibility, branch weights.

Two system families are supported.

* Continued-fraction full shift with restricted digits: the letters are
  all two-digit blocks [[0,1],[1,a]]@[[0,1],[1,b]] = [[1,b],[a,1+ab]]
  over a digit alphabet, so every letter has determinant +1 and contracts
  [0,1] uniformly. Every letter sequence is admissible.

* Free-group subshift ("schottky" mode): letters are hyperbolic integer
  matrices closed under inversion; a letter may not be followed by its
  inverse. Each letter carries a target interval (the real diameter of
  the isometric circle of its inverse) and a representative point.

Words store letter ids with the most recently applied letter first, so
the Mobius composition matrix is the left-to-right product of the letter
matrices. Branch weights are accumulated letter by letter along the
orbit (never through large integer matrix entries), giving the Birkhoff
sum of log-derivatives; the Gibbs weight at s = a + ib is
|w'(x)|^a * exp(i b log|w'(x)|).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AdmissibilityError,
    DomainError,
    EstimationError,
    GuardExceeded,
    Guards,
    NonContractingError,
)

DELTA_BRACKET = (0.01, 0.99)

# disjoint-isometric-circle hyperbolic pair in SL2(Z); intervals
# (2.2, 2.6), (-0.8, -0.4), (-2.6, -2.2), (0.4, 0.8) are pairwise disjoint
DEFAULT_SCHOTTKY_GENERATORS = (
    ("g", (12, 7, 5, 3)),
    ("h", (12, -7, -5, 3)),
)


@dataclass(frozen=True)
class Letter:
    label: str
    matrix: tuple[int, int, int, int]  # row-major (a, b, c, d), det +1
    digits: tuple[int, ...] = ()
    inverse: int | None = None
    interval: tuple[float, float] | None = None
    rep: float | None = None


@dataclass(frozen=True)
class SystemSpec:
    mode: str  # "zaremba" | "schottky"
    letters: tuple[Letter, ...]
    block_width: int  # decoupling inner-slot width in letters
    symbols_per_letter: int
    base_point: float
    digits: tuple[int, ...] = ()

    @property
    def n_letters(self) -> int:
        return len(self.letters)

    def inverse_of(self, k: int) -> int | None:
        return self.letters[k].inverse

    def allowed(self, first: int, second: int) -> bool:
        """May `second` follow `first` in stored order (first more recent)?"""
        inv = self.letters[first].inverse
        return inv is None or inv != second


@dataclass(frozen=True)
class Word:
    spec: SystemSpec
    letters: tuple[int, ...]  # most recently applied letter first

    @property
    def length(self) -> int:
        return len(self.letters)

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class BranchEval:
    word: Word
    x: float
    image: float
    log_deriv: float
    increments: tuple[float, ...]  # aligned with word.letters


@dataclass(frozen=True)
class ContractionEstimate:
    sup_abs_deriv: float
    per_letter: float
    per_digit: float
    letter_sups: tuple[float, ...]


# ---------------------------------------------------------------------------
# system construction


def _zaremba_block(da: int, db: int) -> tuple[int, int, int, int]:
    return (1, db, da, 1 + da * db)


def zaremba_system(digits, base_point="midpoint") -> SystemSpec:
    digits = tuple(sorted(set(int(d) for d in digits)))
    if not digits:
        raise ValueError("digit alphabet is empty")
    if any(d < 1 or d > 9 for d in digits):
        raise ValueError(f"digits must lie in 1..9, got {digits}")
    base = 0.5 if base_point == "midpoint" else float(base_point)
    if not 0.0 <= base <= 1.0:
        raise DomainError(f"base point {base} outside [0, 1]")
    letters = tuple(
        Letter(label=f"{da}{db}", matrix=_zaremba_block(da, db), digits=(da, db))
        for da in digits
        for db in digits
    )
    return SystemSpec(
        mode="zaremba",
        letters=letters,
        block_width=1,
        symbols_per_letter=2,
        base_point=base,
        digits=digits,
    )


def _mat_inverse(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def schottky_system(generators=None, base_point="midpoint") -> SystemSpec:
    """Build a subshift spec from a letter list closed under inversion.

    `generators` is a list of (label, (a, b, c, d)) pairs or bare
    matrices; it must contain the inverse of every entry. When omitted,
    a built-in well-separated hyperbolic pair (and its inverses) is used.
    """
    if generators is None:
        gens = []
        for label, m in DEFAULT_SCHOTTKY_GENERATORS:
            gens.append((label, m))
            gens.append((label.upper(), _mat_inverse(m)))
    else:
        gens = []
        for i, entry in enumerate(generators):
            if isinstance(entry, (list, tuple)) and len(entry) == 2 and isinstance(entry[0], str):
                label, m = entry
            else:
                label, m = f"s{i}", entry
            m = tuple(int(v) for v in np.asarray(m).reshape(4))
            gens.append((label, m))
    mats = [m for _, m in gens]
    for _, m in gens:
        a, b, c, d = m
        if a * d - b * c != 1:
            raise ValueError(f"letter {m} has determinant != 1")
    inverse_of = []
    for m in mats:
        mi = _mat_inverse(m)
        if mi not in mats:
            raise ValueError(f"letter {m} has no inverse partner in the alphabet")
        inverse_of.append(mats.index(mi))

    letters = []
    for (label, m), inv in zip(gens, inverse_of):
        a, b, c, d = m
        if c != 0:
            center = a / c
            radius = 1.0 / abs(c)
            interval = (center - radius, center + radius)
            rep = center if base_point == "midpoint" else float(base_point)
        else:
            interval = None
            rep = 0.0
        letters.append(
            Letter(label=label, matrix=m, inverse=inv, interval=interval, rep=rep)
        )
    return SystemSpec(
        mode="schottky",
        letters=tuple(letters),
        block_width=2,
        symbols_per_letter=1,
        base_point=0.0,
        digits=(),
    )


def build_system(config: dict) -> SystemSpec:
    """Build a SystemSpec from a config block (see README for the schema)."""
    mode = config.get("mode", "zaremba")
    base = config.get("base_point", "midpoint")
    if mode == "zaremba":
        if "digits" not in config:
            raise ValueError("zaremba config needs a 'digits' list")
        return zaremba_system(config["digits"], base)
    if mode == "schottky":
        return schottky_system(config.get("generators"), base)
    raise ValueError(f"unknown system mode {mode!r}")


# ---------------------------------------------------------------------------
# words and admissibility


def word(spec: SystemSpec, letter_ids) -> Word:
    ids = tuple(int(k) for k in letter_ids)
    for k in ids:
        if not 0 <= k < spec.n_letters:
            raise AdmissibilityError(f"letter id {k} out of range")
    for i in range(len(ids) - 1):
        if not spec.allowed(ids[i], ids[i + 1]):
            raise AdmissibilityError(
                f"letter {ids[i + 1]} may not follow {ids[i]} "
                f"({spec.letters[ids[i]].label} then its inverse)"
            )
    return Word(spec, ids)


def count_admissible(spec: SystemSpec, n: int) -> int:
    if n < 0:
        raise ValueError("word length must be >= 0")
    if n == 0:
        return 1
    nl = spec.n_letters
    if spec.mode == "zaremba":
        return nl**n
    T = np.array(
        [[1 if spec.allowed(i, j) else 0 for j in range(nl)] for i in range(nl)],
        dtype=np.int64,
    )
    vec = np.ones(nl, dtype=np.int64)
    for _ in range(n - 1):
        vec = T @ vec
    return int(vec.sum())


def check_word_count(spec: SystemSpec, n: int, guard: int = Guards.max_words) -> None:
    """GuardExceeded if more than `guard` words of length n are admissible.

    The only check of the word limit: every expansion calls it first.
    """
    cnt = count_admissible(spec, n)
    if cnt > guard:
        raise GuardExceeded(f"{cnt} words of length {n} exceed guards.max_words={guard}")


def _admissible_id_matrix(spec: SystemSpec, n: int) -> np.ndarray:
    nl = spec.n_letters
    if n == 0:
        return np.zeros((1, 0), dtype=np.int8)
    arr = np.arange(nl, dtype=np.int8).reshape(-1, 1)
    inv = np.array(
        [-1 if l.inverse is None else l.inverse for l in spec.letters], dtype=np.int8
    )
    cols = np.arange(nl, dtype=np.int8)
    for _ in range(n - 1):
        allowed = inv[arr[:, -1]][:, None] != cols[None, :]
        ridx, js = np.nonzero(allowed)
        arr = np.concatenate([arr[ridx], js[:, None].astype(np.int8)], axis=1)
    return arr


def admissible_words(spec: SystemSpec, n: int, guard: int = Guards.max_words) -> list[Word]:
    """All admissible words of length n, in lexicographic stored order."""
    check_word_count(spec, n, guard)
    ids = _admissible_id_matrix(spec, n)
    return [Word(spec, tuple(int(v) for v in row)) for row in ids]


# ---------------------------------------------------------------------------
# branch evaluation


def letter_image(spec: SystemSpec, k: int, x):
    a, b, c, d = spec.letters[k].matrix
    return (a * x + b) / (c * x + d)


def letter_log_deriv(spec: SystemSpec, k: int, x):
    # det is +1 for every letter, so |gamma'(x)| = (cx + d)^-2
    a, b, c, d = spec.letters[k].matrix
    return -2.0 * np.log(np.abs(c * x + d))


def _locate_interval(spec: SystemSpec, x: float) -> int:
    for j, letter in enumerate(spec.letters):
        if letter.interval is None:
            continue
        lo, hi = letter.interval
        if lo - 1e-12 <= x <= hi + 1e-12:
            return j
    raise DomainError(f"point {x} lies in no letter interval")


def resolve_point(spec: SystemSpec, x, innermost: int | None = None):
    """Resolve an evaluation point to (x, interval id or None).

    In subshift mode the point must sit in an interval that may follow
    the innermost letter; x=None picks the first admissible letter's
    representative.
    """
    if spec.mode == "zaremba":
        if x is None:
            return spec.base_point, None
        x = float(x)
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"point {x} outside [0, 1]")
        return x, None
    if x is None:
        if innermost is None:
            return spec.letters[0].rep, 0
        for j in range(spec.n_letters):
            if spec.allowed(innermost, j):
                return spec.letters[j].rep, j
        raise DomainError("no admissible base interval")
    x = float(x)
    j = _locate_interval(spec, x)
    if innermost is not None and not spec.allowed(innermost, j):
        raise DomainError(
            f"point {x} lies in the forbidden interval after letter "
            f"{spec.letters[innermost].label}"
        )
    return x, j


def evaluate_branch(w: Word, x=None, s: complex = complex(1.0, 0.0)):
    """Evaluate a branch at x with Gibbs weight exponent s = a + ib.

    Returns (BranchEval, weight) with weight = |w'(x)|^a e^{i b log|w'(x)|},
    accumulated per letter along the orbit.
    """
    spec = w.spec
    innermost = w.letters[-1] if w.letters else None
    x0, _ = resolve_point(spec, x, innermost)
    p = x0
    incs_inner_first = []
    for k in reversed(w.letters):
        incs_inner_first.append(float(letter_log_deriv(spec, k, p)))
        p = float(letter_image(spec, k, p))
    log_deriv = math.fsum(incs_inner_first)
    ev = BranchEval(
        word=w,
        x=x0,
        image=p,
        log_deriv=log_deriv,
        increments=tuple(reversed(incs_inner_first)),
    )
    weight = cmath.exp(complex(s) * log_deriv)
    return ev, weight


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


# ---------------------------------------------------------------------------
# contraction and critical exponent


def _min_abs_denominator(c: float, d: float, lo: float, hi: float) -> float:
    v0, v1 = c * lo + d, c * hi + d
    if v0 == 0.0 or v1 == 0.0 or (v0 < 0) != (v1 < 0):
        return 0.0  # pole inside the closed interval
    return min(abs(v0), abs(v1))


def estimate_contraction(spec: SystemSpec) -> ContractionEstimate:
    """Worst-case |letter'| over each letter's admissible domain.

    |gamma'| = (cx+d)^-2 is monotone on intervals without the pole, so
    the supremum is attained at an interval endpoint and is exact.
    Raises if any letter fails strict contraction (sup >= 1).
    """
    sups = []
    for k, letter in enumerate(spec.letters):
        _, _, c, d = letter.matrix
        if spec.mode == "zaremba":
            domains = [(0.0, 1.0)]
        else:
            domains = [
                spec.letters[j].interval
                for j in range(spec.n_letters)
                if spec.allowed(k, j) and spec.letters[j].interval is not None
            ]
            if not domains:
                domains = [(letter.rep or 0.0,) * 2]
        m = min(_min_abs_denominator(float(c), float(d), lo, hi) for lo, hi in domains)
        if m <= 0.0:
            raise NonContractingError(
                f"letter {letter.label} has a pole inside its domain"
            )
        sup = 1.0 / (m * m)
        if sup >= 1.0:
            raise NonContractingError(
                f"letter {letter.label} is not uniformly contracting "
                f"(sup |gamma'| = {sup:.6g})"
            )
        sups.append(sup)
    sup = max(sups)
    per_letter = 1.0 / sup
    return ContractionEstimate(
        sup_abs_deriv=sup,
        per_letter=per_letter,
        per_digit=per_letter ** (1.0 / spec.symbols_per_letter),
        letter_sups=tuple(sups),
    )


def _expand_orbit(spec: SystemSpec, n: int, x0: float, j0: int | None, guard: int,
                  track=None):
    """Vectorized breadth expansion over all admissible n-letter words.

    Level m holds, for every admissible suffix of length m (the m most
    deeply nested letters), the orbit point, the accumulated
    log-derivative, and the current outermost letter. Extension prepends
    an outer letter; admissibility constrains it against the previous
    outermost letter (and against the base interval at the first step).
    Enumeration order is fixed (letter-major), so reductions downstream
    are bit-stable.

    `track` = (start, maps) follows one integer per word as well, such as a
    group element's index: it starts at `start`, and prepending letter k
    sends i to maps[k][i]. Returns (xs, lds, outer, track indices or None).
    """
    check_word_count(spec, n, guard)
    xs = np.array([x0], dtype=np.float64)
    lds = np.zeros(1, dtype=np.float64)
    outer = np.full(1, -1, dtype=np.int16)
    idx = None if track is None else np.array([track[0]], dtype=np.int64)
    for step in range(n):
        xs_parts, ld_parts, outer_parts, idx_parts = [], [], [], []
        for k in range(spec.n_letters):
            if step == 0:
                if j0 is not None and not spec.allowed(k, j0):
                    continue
                sel = slice(None)
            else:
                inv = spec.inverse_of(k)
                if inv is None:
                    sel = slice(None)
                else:
                    sel = outer != inv
            x_sel = xs[sel]
            if x_sel.size == 0:
                continue
            ld_parts.append(lds[sel] + letter_log_deriv(spec, k, x_sel))
            xs_parts.append(letter_image(spec, k, x_sel))
            if idx is not None:
                idx_parts.append(track[1][k][idx[sel]])
            outer_parts.append(np.full(x_sel.size, k, dtype=np.int16))
        xs = np.concatenate(xs_parts) if xs_parts else np.empty(0)
        lds = np.concatenate(ld_parts) if ld_parts else np.empty(0)
        outer = np.concatenate(outer_parts) if outer_parts else np.empty(0, np.int16)
        if idx is not None:
            idx = np.concatenate(idx_parts) if idx_parts else np.empty(0, np.int64)
    return xs, lds, outer, idx


@lru_cache(maxsize=32)
def _orbit_logs_cached(spec: SystemSpec, n: int, x0: float, j0, guard: int):
    _, lds, _, _ = _expand_orbit(spec, n, x0, j0, guard)
    lds.setflags(write=False)
    return lds


def orbit_log_derivs(spec: SystemSpec, n: int, x=None, guard: int = Guards.max_words):
    """log|w'(o)| for every admissible n-letter word, in enumeration order."""
    x0, j0 = resolve_point(spec, x)
    return _orbit_logs_cached(spec, n, x0, j0, guard)


def partition_sum(spec: SystemSpec, n: int, a: float, x=None,
                  guard: int = Guards.max_words) -> float:
    """Z_n(a) = sum over admissible n-letter words of |w'(o)|^a."""
    logs = orbit_log_derivs(spec, n, x, guard)
    return float(np.exp(a * logs).sum())


def estimate_delta(spec: SystemSpec, n: int, tol: float = 1e-4, x=None,
                   guard: int = Guards.max_words) -> float:
    """Critical exponent estimate: the root of Z_n(a)^(1/n) - 1.

    Z_n is strictly decreasing in a whenever every word contracts
    (all log-derivatives negative), which is verified up front; bisection
    then brackets the root to tol. A single-word system has its root at
    a = 0 exactly and returns 0.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    logs = orbit_log_derivs(spec, n, x, guard)
    if logs.size == 0:
        raise EstimationError("no admissible words; empty system")
    if float(logs.max()) >= 0.0:
        raise EstimationError(
            "a word fails contraction; partition sum is not monotone in a"
        )

    def froot(a):
        return float(np.exp(a * logs).sum()) ** (1.0 / n) - 1.0

    lo, hi = DELTA_BRACKET
    if froot(lo) < 0.0:
        if logs.size == 1:
            return 0.0
        lo = 0.0  # Z_n(0) = count > 1, so the root sits in (0, 0.01)
    if froot(hi) > 0.0:
        raise EstimationError(
            f"no sign change in [{lo}, {hi}]; critical exponent out of bracket"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if froot(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
