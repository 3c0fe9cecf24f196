"""Finitely supported complex measures on SL2(Z/q).

The central objects are congruence transfer measures: sums of Dirac
masses at the mod-q cocycle of each admissible branch, weighted by the
branch's Gibbs weight. The cocycle of a word is the product of its
letter matrices with the most deeply nested letter leftmost (each letter
contributes where its orbit segment sits), reduced mod q after every
multiplication.

Measure construction streams the word expansion chunk by chunk in a
fixed enumeration order, so coefficients are reproducible bit for bit.
Coefficients are held in a dense complex vector (at the guarded group
sizes this is under a megabyte); support indices are cached lazily and
convolution walks the pairs of the two supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import Guards, ModulusMismatch
from .modgroup import GroupTable, ModMatrix, get_group
from .symdyn import (
    SystemSpec,
    Word,
    _expand_orbit,
    evaluate_branch,
    resolve_point,
    walk_words,
    word,
)

__all__ = [
    "GroupMeasure",
    "MeasureParams",
    "cocycle",
    "build_mu1",
    "build_nu",
    "build_mu",
]

_CHUNK = 1 << 17  # support pairs per chunk of `GroupMeasure.convolve`


def cocycle(w: Word, q: int) -> ModMatrix:
    """Mod-q cocycle of a word: letter product, first-applied leftmost.

    For stored letters (l1, ..., lN) with l1 the most recent, this is
    M_{lN} @ ... @ M_{l1} mod q, reduced after every multiplication.
    """
    a, b, c, d = 1 % q, 0, 0, 1 % q
    for k in w.letters:
        la, lb, lc, ld = w.spec.letters[k].matrix
        a, b, c, d = (
            (la * a + lb * c) % q,
            (la * b + lb * d) % q,
            (lc * a + ld * c) % q,
            (lc * b + ld * d) % q,
        )
    return ModMatrix(a, b, c, d, q)


class GroupMeasure:
    """A finitely supported complex measure on SL2(Z/q)."""

    __slots__ = ("table", "coeffs", "_l1", "_l2", "_support")

    def __init__(self, table: GroupTable, coeffs: np.ndarray):
        coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (table.order,):
            raise ValueError("coefficient vector has wrong length")
        self.table = table
        self.coeffs = coeffs
        self._l1 = None
        self._l2 = None
        self._support = None

    # -- cached norms and support -----------------------------------------

    @property
    def l1(self) -> float:
        if self._l1 is None:
            self._l1 = float(np.abs(self.coeffs).sum())
        return self._l1

    @property
    def l2(self) -> float:
        if self._l2 is None:
            self._l2 = float(np.sqrt((self.coeffs.real**2 + self.coeffs.imag**2).sum()))
        return self._l2

    @property
    def support(self) -> np.ndarray:
        if self._support is None:
            self._support = np.flatnonzero(self.coeffs != 0)
            self._support.setflags(write=False)
        return self._support

    @property
    def n_support(self) -> int:
        return int(self.support.size)

    # -- algebra -----------------------------------------------------------

    def _check_same_group(self, other: "GroupMeasure"):
        if self.table.q != other.table.q:
            raise ModulusMismatch(
                f"measures on different moduli: {self.table.q} vs {other.table.q}"
            )

    def convolve(self, other: "GroupMeasure") -> "GroupMeasure":
        """(mu * nu)(x) = sum_{g h = x} mu(g) nu(h).

        Walks the support pairs (g, h), about _CHUNK at a time: their
        products index the bins and mu(g) nu(h) are the weights. Each bin
        sums in the order of g within a chunk.
        """
        self._check_same_group(other)
        t = self.table
        a, b = self.support, other.support
        out = np.zeros(t.order, dtype=np.complex128)
        step = max(1, _CHUNK // max(b.size, 1))
        for lo in range(0, a.size, step):
            g = a[lo:lo + step]
            out += _accumulate(t, t.products(g[:, None], b).ravel(),
                               np.outer(self.coeffs[g], other.coeffs[b]).ravel()).coeffs
        return GroupMeasure(t, out)

    def reverse(self) -> "GroupMeasure":
        """Coefficient at g becomes the conjugate of the one at g^-1."""
        return GroupMeasure(self.table, np.conj(self.coeffs[self.table.inverse]))

    def scaled(self, factor) -> "GroupMeasure":
        return GroupMeasure(self.table, self.coeffs * factor)

    def to_csv(self, path) -> None:
        import csv

        t = self.table
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "a", "b", "c", "d", "re_coef", "im_coef"])
            for i in self.support:
                a, b, c, d = (int(v) for v in t.elems[i])
                w.writerow(
                    [int(i), a, b, c, d, repr(self.coeffs[i].real), repr(self.coeffs[i].imag)]
                )

    def __repr__(self):
        return (
            f"GroupMeasure(q={self.table.q}, support={self.n_support}, "
            f"l1={self.l1:.6g})"
        )


@dataclass(frozen=True)
class MeasureParams:
    """Data determining a transfer measure: system, modulus, lengths, weight.

    `prefix` is the fixed outer word (most recent letter first), `r_len`
    the number of summed suffix letters, `s = a + ib` the weight
    exponent. `x` is the evaluation point of the oscillatory measure and
    `base` the reference point of the positive majorants; both default
    to the system's base point. `guards` supplies max_q for the table and
    max_words for the suffix expansion.
    """

    spec: SystemSpec
    q: int
    s: complex
    r_len: int
    prefix: tuple[int, ...] = ()
    x: float | None = None
    base: float | None = None
    guards: Guards = Guards()

    @property
    def a(self) -> float:
        return complex(self.s).real

    @property
    def b(self) -> float:
        return complex(self.s).imag

    @property
    def m_len(self) -> int:
        return len(self.prefix)

    def prefix_word(self) -> Word:
        return word(self.spec, self.prefix)

    def table(self) -> GroupTable:
        return get_group(self.q, self.guards.max_q)


# ---------------------------------------------------------------------------
# streaming construction


@lru_cache(maxsize=64)
def _cocycle_track(spec: SystemSpec, table: GroupTable):
    """The cocycle track of `symdyn._expand_orbit`: start at the identity,
    and prepending letter k maps index i to maps[k, i], the index of
    elems[i] @ M_k mod q, which matches the first-applied-leftmost product
    convention. The maps are stacked, so `maps[ks, idx]` walks a column of
    letters at once."""
    maps = np.stack([table.right_translation(table.index_of(letter.matrix))
                     for letter in spec.letters])
    maps.setflags(write=False)
    return table.identity_index, maps


def _prefix_mask(spec: SystemSpec, prefix, outer: np.ndarray):
    """Keep suffixes whose outermost letter may follow the prefix."""
    if not prefix:
        return slice(None)
    return spec.follows[prefix[-1], outer]


def _accumulate(table: GroupTable, cidx: np.ndarray, weights: np.ndarray) -> GroupMeasure:
    """Sum the weights per group index, in enumeration order."""
    coeffs = np.bincount(cidx, weights=weights.real, minlength=table.order).astype(np.complex128)
    if np.iscomplexobj(weights):
        coeffs.imag = np.bincount(cidx, weights=weights.imag, minlength=table.order)
    return GroupMeasure(table, coeffs)


def build_mu1(p: MeasureParams) -> GroupMeasure:
    """Positive majorant: weight |w'(o)|^a at the suffix cocycle.

    The oscillation parameter b plays no role. In subshift mode the sum
    runs over suffixes admissible after the prefix (and applicable at
    the base point); the total mass does not depend on q. Each chunk of
    the expansion is added into the coefficients with `np.add.at`, which
    sums every bin in enumeration order, as one `bincount` would.
    """
    t = p.table()
    o, j0 = resolve_point(p.spec, p.base)
    coeffs = np.zeros(t.order, dtype=np.float64)  # np.add.at is ~50x slower with a cast
    for _, lds, outer, cidx in _expand_orbit(p.spec, p.r_len, o, j0, p.guards.max_words,
                                             _cocycle_track(p.spec, t)):
        keep = _prefix_mask(p.spec, p.prefix, outer)
        np.add.at(coeffs, cidx[keep], np.exp(p.a * lds[keep]))
    return GroupMeasure(t, coeffs)


def build_nu(p: MeasureParams) -> GroupMeasure:
    """Prefix-weighted majorant: |prefix'(o)|^a times the suffix majorant."""
    prefix_w = p.prefix_word()  # validates admissibility
    o, _ = resolve_point(p.spec, p.base)
    if p.m_len == 0:
        scalar = 1.0
    else:
        ev, w = evaluate_branch(prefix_w, x=o if p.spec.mode == "zaremba" else None,
                                s=complex(p.a, 0.0))
        scalar = w.real
    return build_mu1(p).scaled(scalar)


def build_mu(p: MeasureParams) -> GroupMeasure:
    """Oscillatory transfer measure.

    Each admissible suffix contributes exp((a+ib) log|(prefix+suffix)'(x)|)
    at the suffix cocycle; the log-derivative continues through the fixed
    prefix letters at the suffix image points. Support locations agree
    with the majorant's (cocycles do not depend on the evaluation point).
    """
    p.prefix_word()  # validate
    t = p.table()
    x0, j0 = resolve_point(p.spec, p.x)
    coeffs = np.zeros(t.order, dtype=np.complex128)
    for xs, lds, outer, cidx in _expand_orbit(p.spec, p.r_len, x0, j0, p.guards.max_words,
                                              _cocycle_track(p.spec, t)):
        keep = _prefix_mask(p.spec, p.prefix, outer)
        _, lds = walk_words(p.spec, p.prefix, xs[keep], lds[keep])
        np.add.at(coeffs, cidx[keep], np.exp(complex(p.s) * lds))
    return GroupMeasure(t, coeffs)
