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

In array form a block of words is an (..., n) array of letter ids:
`walk_words` walks it through points, and `SystemSpec.follows` is the
admissibility rule as a table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

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
_EXPAND_CHUNK = 1 << 15  # most words in the inner level of `_expand_orbit`
_ROOT_MARGIN = 1e-9  # |log Z_n| within which `estimate_delta` evaluates a midpoint

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
    base_point: float | None  # None: a subshift at its interval midpoints
    digits: tuple[int, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # str hashes are salted per process, so a pickled hash would be stale
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @cached_property
    def _hash(self) -> int:
        """The dataclass fields' hash, once: every lru_cache keyed on a spec
        hashes it on each lookup, and hashing the letters is slow."""
        return hash((self.mode, self.letters, self.block_width, self.symbols_per_letter,
                     self.base_point, self.digits))

    @property
    def n_letters(self) -> int:
        return len(self.letters)

    @cached_property
    def id_dtype(self) -> np.dtype:
        """The smallest signed integer type of letter-id arrays: it holds
        every id and the -1 that marks no letter."""
        return np.min_scalar_type(-self.n_letters)

    @cached_property
    def follows(self) -> np.ndarray:
        """K x K table, follows[i, j] = allowed(i, j)."""
        k = range(self.n_letters)
        table = np.array([[self.allowed(i, j) for j in k] for i in k], dtype=bool)
        table.setflags(write=False)
        return table

    @cached_property
    def entries(self) -> np.ndarray:
        """The letter matrices as float rows a, b, c, d: column k is letter k."""
        rows = np.array([letter.matrix for letter in self.letters], dtype=np.float64).T
        rows.setflags(write=False)
        return rows

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
            rep = center
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
        base_point=None if base_point == "midpoint" else float(base_point),
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


def count_admissible(spec: SystemSpec, n: int, j0: int | None = None) -> int:
    """Admissible n-letter words; with a base interval j0, only those whose
    innermost letter may be applied there."""
    if n < 0:
        raise ValueError("word length must be >= 0")
    if n == 0:
        return 1
    nl = spec.n_letters
    if spec.mode == "zaremba":
        return nl**n
    T = spec.follows.astype(np.int64)
    vec = np.array([j0 is None or spec.allowed(k, j0) for k in range(nl)], dtype=np.int64)
    for _ in range(n - 1):
        vec = T @ vec
    return int(vec.sum())


def check_word_count(spec: SystemSpec, n: int, guard: int = Guards.max_words) -> int:
    """The number of admissible words of length n; GuardExceeded if it is
    more than `guard`.

    The only check of the word limit: every expansion calls it first.
    """
    cnt = count_admissible(spec, n)
    if cnt > guard:
        raise GuardExceeded(f"{cnt} words of length {n} exceed guards.max_words={guard}")
    return cnt


def _admissible_id_matrix(spec: SystemSpec, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((1, 0), dtype=spec.id_dtype)
    arr = np.arange(spec.n_letters, dtype=spec.id_dtype).reshape(-1, 1)
    for _ in range(n - 1):
        ridx, js = np.nonzero(spec.follows[arr[:, -1]])
        arr = np.concatenate([arr[ridx], js[:, None].astype(spec.id_dtype)], axis=1)
    return arr


# ---------------------------------------------------------------------------
# branch evaluation


def letter_image(spec: SystemSpec, k: int, x):
    """Image of x under letter k."""
    a, b, c, d = spec.letters[k].matrix
    return (a * x + b) / (c * x + d)


def letter_log_deriv(spec: SystemSpec, k: int, x):
    """log|letter k'(x)|."""
    # det is +1 for every letter, so |gamma'(x)| = (cx + d)^-2
    _, _, c, d = spec.letters[k].matrix
    return -2.0 * np.log(np.abs(c * x + d))


def walk_words(spec: SystemSpec, ids, x, ld=0.0):
    """Walk words through points: (images, log-derivatives).

    `ids` is an (..., n) array of letter ids, most recent letter first,
    whose leading axes broadcast against x. The innermost letter is
    applied first, and each letter's log-derivative is added to `ld` in
    turn, so a caller's running sum keeps its order.
    """
    ids = np.asarray(ids, dtype=np.intp)
    for i in reversed(range(ids.shape[-1])):
        # the steps of `letter_log_deriv` and `letter_image`, for a column of ids
        a, b, c, d = np.take(spec.entries, ids[..., i], axis=1)  # 3-5x faster than [:, ids]
        den = c * x + d
        ld = ld + -2.0 * np.log(np.abs(den))
        x = (a * x + b) / den
    return x, ld


def _locate_interval(spec: SystemSpec, x: float) -> int:
    for j, letter in enumerate(spec.letters):
        if letter.interval is None:
            continue
        lo, hi = letter.interval
        if lo - 1e-12 <= x <= hi + 1e-12:
            return j
    raise DomainError(f"point {x} lies in no letter interval")


def _first_interval_after(spec: SystemSpec, innermost: int | None = None) -> int:
    """Id of the first letter interval that may follow `innermost` (the
    first interval of all for None)."""
    for j in range(spec.n_letters):
        if innermost is None or spec.allowed(innermost, j):
            return j
    raise DomainError("no admissible base interval")


def resolve_point(spec: SystemSpec, x, innermost: int | None = None):
    """Resolve an evaluation point to (x, interval id or None).

    x=None reads the system's base point. In subshift mode the point must
    sit in an interval that may follow the innermost letter; a subshift
    without a base point (at its midpoints) picks the first such
    interval's representative.
    """
    if x is None:
        x = spec.base_point
    if x is None:
        j = _first_interval_after(spec, innermost)
        return spec.letters[j].rep, j
    x = float(x)
    if spec.mode == "zaremba":
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"point {x} outside [0, 1]")
        return x, None
    j = _locate_interval(spec, x)
    if innermost is not None and not spec.allowed(innermost, j):
        raise DomainError(
            f"point {x} lies in the forbidden interval after letter "
            f"{spec.letters[innermost].label}"
        )
    return x, j


def _window_point(spec: SystemSpec, innermost: int, x: float, j: int) -> float:
    """Evaluation point of a subshift word whose innermost letter is
    `innermost`, given the resolved base point x in interval j: x where
    interval j may follow that letter, else the representative of the first
    interval that may (the rule of a system at its interval midpoints).
    `resolve_point` raises instead, as it must for a point given explicitly."""
    if spec.allowed(innermost, j):
        return x
    return spec.letters[_first_interval_after(spec, innermost)].rep


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


def _expand_orbit(spec: SystemSpec, n: int, x0, j0: int | None, guard: int,
                  track=None, after: int | None = None):
    """Walk all admissible n-letter words in chunks, in enumeration order.

    x0 is one start point or a vector of them; every word is walked from
    each. The innermost n - m letters are expanded once, breadth first:
    level l holds, for every admissible suffix of length l (the l most
    deeply nested letters) and every start point, the orbit point, the
    accumulated log-derivative, and the current outermost letter. Extension
    prepends an outer letter; admissibility constrains it against the
    previous outermost letter (and against the base interval at the first
    step). m is the least value that leaves at most _EXPAND_CHUNK words
    times start points in that inner level, or n.

    Each admissible outer m-letter prefix, in lexicographic stored order,
    is then walked over the inner words it may precede, innermost prefix
    letter first, by the same letter steps. Words come out in enumeration
    order (letter-major, outermost letter first), each with its start points
    in their order, so reductions downstream are bit-stable, and an
    expansion holds the inner level plus one chunk.

    `track` = (start, maps) follows one integer per word as well, such as a
    group element's index: it starts at `start`, and prepending letter k
    sends i to maps[k][i]. `after` keeps only the words whose outermost
    letter may follow that letter (a fixed prefix's innermost letter): outer
    prefixes that may not are skipped before their walk. The word guard is
    checked and the inner level built at the call; the returned iterator
    walks one chunk per prefix, each (xs, lds, outer, track indices or None).
    """
    words = check_word_count(spec, n, guard)
    xs = np.array(x0, dtype=np.float64, ndmin=1)
    points = xs.size
    m = 0 if words * points <= _EXPAND_CHUNK else next(
        (m for m in range(1, n + 1) if count_admissible(spec, n - m) * points <= _EXPAND_CHUNK), n)
    lds = np.zeros(points, dtype=np.float64)
    # the base interval stands in for the outermost letter before step 0
    outer = np.full(points, -1 if j0 is None else j0, dtype=spec.id_dtype)
    idx = None if track is None else np.full(points, track[0], dtype=np.int64)
    # every letter at once, over the (letter, entry) pairs that are admissible:
    # letter-major, so the new level is in enumeration order
    inverse = np.array([-2 if v.inverse is None else v.inverse for v in spec.letters])[:, None]
    letters = np.arange(spec.n_letters, dtype=spec.id_dtype)
    for _ in range(n - m):
        keep = outer != inverse
        counts = keep.sum(axis=1)
        a, b, c, d = np.repeat(spec.entries, counts, axis=1)
        x = xs[None].repeat(len(keep), axis=0)[keep]
        ld = lds[None].repeat(len(keep), axis=0)[keep]
        outer = np.repeat(letters, counts)
        idx = None if idx is None else np.take(track[1], idx, axis=1)[keep]
        # the steps of `letter_log_deriv` and `letter_image`
        den = c * x + d
        lds = ld + -2.0 * np.log(np.abs(den))
        xs = (a * x + b) / den
    if m == 0:
        if after is not None:
            keep = spec.follows[after, outer]
            xs, lds, outer = xs[keep], lds[keep], outer[keep]
            idx = None if idx is None else idx[keep]
        return iter([(xs, lds, outer, idx)])
    prefixes = _admissible_id_matrix(spec, m)
    if after is not None:
        prefixes = prefixes[spec.follows[after, prefixes[:, 0]]]
    return (_walk_prefix(spec, prefix, xs, lds, outer, idx, track)
            for prefix in prefixes.tolist())


def _walk_prefix(spec: SystemSpec, prefix, xs, lds, outer, idx, track):
    """One chunk of `_expand_orbit`: the outer letters `prefix` walked over the
    inner words they may precede."""
    inv = spec.inverse_of(prefix[-1])
    sel = slice(None) if inv is None else outer != inv
    x, ld = walk_words(spec, prefix, xs[sel], lds[sel])
    i = None
    if idx is not None:
        i = idx[sel]
        for k in reversed(prefix):
            i = track[1][k][i]
    return x, ld, np.full(x.size, prefix[0], dtype=spec.id_dtype), i


def orbit_log_derivs(spec: SystemSpec, n: int, x=None, guard: int = Guards.max_words):
    """log|w'(o)| for every admissible n-letter word, in enumeration order.

    The chunks of `_expand_orbit` are written into one preallocated array,
    so the expansion holds the result plus one chunk.
    """
    x0, j0 = resolve_point(spec, x)
    chunks = _expand_orbit(spec, n, x0, j0, guard)  # checks the guard first
    out = np.empty(count_admissible(spec, n, j0), dtype=np.float64)
    pos = 0
    for _, lds, _, _ in chunks:
        out[pos:pos + lds.size] = lds
        pos += lds.size
    return out


def _partition_terms(logs: np.ndarray, a: float) -> tuple[float, float]:
    """Z(a) = sum of exp(a * l) and dZ/da = sum of l * exp(a * l) over `logs`.

    One pass, one _EXPAND_CHUNK slice of `logs` at a time, in a buffer of
    one chunk; Z adds the chunk sums in order.
    """
    buf = np.empty(min(logs.size, _EXPAND_CHUNK), dtype=np.float64)
    z = dz = 0.0
    for i in range(0, logs.size, _EXPAND_CHUNK):
        c = logs[i:i + _EXPAND_CHUNK]
        e = np.exp(np.multiply(c, a, out=buf[:c.size]), out=buf[:c.size])
        z += float(e.sum())
        dz += float(np.dot(c, e))
    return z, dz


def partition_sum(spec: SystemSpec, n: int, a: float, x=None,
                  guard: int = Guards.max_words) -> float:
    """Z_n(a) = sum over admissible n-letter words of |w'(o)|^a."""
    return _partition_terms(orbit_log_derivs(spec, n, x, guard), a)[0]


def estimate_delta(spec: SystemSpec, n: int, tol: float = 1e-4, x=None,
                   guard: int = Guards.max_words) -> float:
    """Critical exponent estimate: the root of Z_n(a)^(1/n) - 1, bisected to tol.

    Every word must contract (all log-derivatives l < 0), which is verified
    up front; a single-word system has its root at a = 0 exactly and
    returns 0. Then g = log Z_n is decreasing and convex in a: g' is the
    Gibbs mean of l, so g' <= max l = -m < 0, and g'' is its variance.

    Newton on g starts from the bracket's left end, whose pass over the
    log-derivatives is also the bracket check, and rises monotonically to
    the root r without overshooting while g > 0. As |g'| >= m everywhere, r
    lies within |g(a)|/m of any point a, on the side of the sign of g(a):
    after a step s_k from a_k, r - a_k <= s_k |g'(a_k)| / |g'(r)| <= s_k
    |g'(a_k)| / m. Newton stops once |g| <= _ROOT_MARGIN.

    The bisection over the bracket is then replayed with tol unchanged, so
    it ends at the same dyadic midpoint, and each midpoint p is decided by
    where it lies against r. Farther than _ROOT_MARGIN/m from the interval
    that holds r, |g(p)| >= m * dist(p, r) > _ROOT_MARGIN, far above the
    rounding error of log Z_n (a few ulps per term and log2 of the word
    count from the sum, about 1e-14 at n = 10), so Z_n(p)^(1/n) - 1
    evaluated has that sign too. Only the midpoints nearer are evaluated.
    """
    if n < 1 or not tol > 0:  # no bisection ends at width tol <= 0
        raise ValueError(f"need n >= 1 and tol > 0 (got n={n}, tol={tol})")
    logs = orbit_log_derivs(spec, n, x, guard)
    if logs.size == 0:
        raise EstimationError("no admissible words; empty system")
    m = -float(logs.max())
    if m <= 0.0:
        raise EstimationError(
            "a word fails contraction; partition sum is not monotone in a"
        )

    lo, hi = DELTA_BRACKET
    a = lo
    z, dz = _partition_terms(logs, a)
    if z ** (1.0 / n) < 1.0:  # Z_n^(1/n) - 1 < 0
        if logs.size == 1:
            return 0.0
        lo = 0.0  # Z_n(0) = count > 1, so the root sits in (0, 0.01)
    g = math.log(z)
    while abs(g) > _ROOT_MARGIN:
        a -= g * z / dz
        z, dz = _partition_terms(logs, a)
        g = math.log(z)
    r_lo, r_hi = a + min(g, 0.0) / m, a + max(g, 0.0) / m

    def positive(p):  # Z_n(p)^(1/n) - 1 > 0
        if p < r_lo - _ROOT_MARGIN / m:
            return True
        if p > r_hi + _ROOT_MARGIN / m:
            return False
        return _partition_terms(logs, p)[0] ** (1.0 / n) > 1.0

    if positive(hi):
        raise EstimationError(
            f"no sign change in [{lo}, {hi}]; critical exponent out of bracket"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
