"""Exact arithmetic and harmonic analysis on the finite groups SL2(Z/q).

This module owns the group-level machinery everything else builds on:
full enumeration of SL2(Z/q) with O(1) index lookup, reduction maps
between divisor levels, fiber averaging along those reductions, the
orthogonal projector onto the new subspace at level q (functions
orthogonal to every pullback from a proper divisor level), and the right
cosets of the unipotent subgroup U = {[[1, b], [0, 1]]}, whose characters
t split functions into blocks V_t of dimension |G|/q; V_t lies in the new
subspace when t is a unit mod q (proof in `spectral.operator_norm`). Left
multiplication permutes those cosets, up to a unipotent factor
(`UnipotentCosets.left_action`).

`GroupTable.products` is the one product kernel: every product of two
table elements (single products, left translations, the coset action and,
in `measures`, convolution) is an index lookup of its vectorised entries.
Right translation by one element reads the same keys from the q^2 row
images of that element (`GroupTable.right_translation`); the dense block
builder's hot path reads them at the packed rows of its coset grid, packed
once per build (`GroupTable.row_products`).

Enumeration scans the q^3 entry tuples (b, c, d) once per top-left entry
a and fills the q^4 int32 key table slice by slice; no q^4 array but that
table is ever held. The guarded range is q <= `Guards.max_q`, set by the
config's `guards.max_q`. Tables are immutable after construction and safe
to share between readers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GuardExceeded, Guards, InvalidElement


def factorize(q: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of q as ((p, e), ...), primes increasing."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    out = []
    n = q
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def group_order(q: int) -> int:
    """|SL2(Z/q)| = q^3 * prod_{p | q} (1 - p^-2), computed exactly."""
    if q == 1:
        return 1
    order = q**3
    for p, _ in factorize(q):
        order = order // (p * p) * (p * p - 1)
    return order


def new_space_dimension(q: int) -> int:
    """dim of the new subspace at level q.

    Inclusion-exclusion over squarefree divisors d of the radical of q:
    the pullback spans from maximal levels q/p intersect in lower levels,
    and the trace of the product of complement projectors telescopes to
    sum_d mu(d) |SL2(Z/(q/d))|.
    """
    primes = [p for p, _ in factorize(q)]
    dim = 0
    for mask in range(1 << len(primes)):
        d = 1
        bits = 0
        for i, p in enumerate(primes):
            if mask >> i & 1:
                d *= p
                bits += 1
        dim += (-1) ** bits * group_order(q // d)
    return dim


@dataclass(frozen=True)
class ModMatrix:
    """An element of SL2(Z/q), entries reduced to [0, q)."""

    a: int
    b: int
    c: int
    d: int
    q: int

    def __post_init__(self):
        q = self.q
        if q < 2:
            raise InvalidElement(f"modulus must be >= 2, got {q}")
        for v in (self.a, self.b, self.c, self.d):
            if not 0 <= v < q:
                raise InvalidElement(f"entry {v} not reduced mod {q}")
        if (self.a * self.d - self.b * self.c) % q != 1:
            raise InvalidElement(
                f"determinant is not 1 mod {q}: "
                f"[[{self.a},{self.b}],[{self.c},{self.d}]]"
            )

    def to_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


class GroupTable:
    """Complete enumeration of SL2(Z/q) with index and inverse tables.

    Elements are stored lexicographically by (a, b, c, d). A packed-key
    array of length q^4 gives O(1) membership and product lookup, and the
    inverse table is precomputed from the adjugate. Instances are
    immutable; reduction fibers are cached per divisor level.
    """

    def __init__(self, q: int, elems, key_to_index, inverse):
        self.q = q
        self.elems = elems
        self.key_to_index = key_to_index
        self.inverse = inverse
        self.order = int(elems.shape[0])
        self._columns = np.ascontiguousarray(elems.T, dtype=np.int32)
        # the packed rows a q + b and c q + d of every element
        self._rows = np.stack([elems[:, 0] * q + elems[:, 1], elems[:, 2] * q + elems[:, 3]])
        for arr in (self.elems, self.key_to_index, self.inverse, self._columns, self._rows):
            arr.setflags(write=False)
        self._identity = int(self.index_of((1 % self.q, 0, 0, 1 % self.q)))
        self._fibers: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}
        self._cosets: UnipotentCosets | None = None

    # -- lookup ---------------------------------------------------------

    def _pack(self, a, b, c, d):
        q = self.q
        return ((a * q + b) * q + c) * q + d

    @property
    def identity_index(self) -> int:
        return self._identity

    def index_of(self, mat) -> int:
        if isinstance(mat, ModMatrix):
            a, b, c, d = mat.to_tuple()
        else:
            # Python ints reduce exact entries of any size
            a, b, c, d = (int(v) % self.q for v in np.asarray(mat, dtype=object).reshape(4))
        idx = int(self.key_to_index[self._pack(a, b, c, d)])
        if idx < 0:
            raise InvalidElement(f"not an element of SL2(Z/{self.q}): {(a, b, c, d)}")
        return idx

    def matrix(self, i: int) -> ModMatrix:
        a, b, c, d = (int(v) for v in self.elems[i])
        return ModMatrix(a, b, c, d, self.q)

    # -- products -------------------------------------------------------

    def products(self, g, h) -> np.ndarray:
        """Indices of elems[g] @ elems[h], broadcast over g and h.

        g and h may each be an index, an index array or a slice. The
        entries are computed on contiguous int32 columns: every key is
        below q^4, the length of key_to_index, and q^4 < 2^31 up to q=215.
        """
        q = self.q
        ga, gb, gc, gd = self._columns[:, g]
        ha, hb, hc, hd = self._columns[:, h]
        return self.key_to_index[self._pack(
            (ga * ha + gb * hc) % q,
            (ga * hb + gb * hd) % q,
            (gc * ha + gd * hc) % q,
            (gc * hb + gd * hd) % q,
        )]

    def left_translation(self, i: int) -> np.ndarray:
        """t[k] = index(elems[i] @ elems[k]); one row of the Cayley table."""
        return self.products(i, slice(None))

    def right_translation(self, i, of=slice(None)) -> np.ndarray:
        """t[k] = index(elems[k] @ elems[i]); for an index array i, one such
        row per entry, and for an index array `of`, t[k] = index(elems[of[k]]
        @ elems[i]), of the shape of `of`.

        Each row of elems[k] @ h is a row of elems[k] times h, so the key of
        the product is read from one table of the q^2 row images under h,
        at the two packed rows of elems[k] (`row_products`): the same
        products as `products(slice(None), i)`, with two lookups in a q^2
        table in place of its entry arithmetic over |G| (about 3x fewer ns
        per element at q = 13 to 49, x86_64).
        """
        return self.row_products(i, self.packed_rows(of))

    def packed_rows(self, of=slice(None)) -> np.ndarray:
        """The packed rows a q + b and c q + d of elems[of], an array (2, ...)."""
        return self._rows[:, of]

    def row_products(self, i, rows) -> np.ndarray:
        """Indices of g @ elems[i] for the elements g of packed rows
        (rows[0], rows[1]) (`packed_rows`), of the shape of rows[0]; for an
        index array i, one such array per entry. A caller that multiplies
        the same elements g by many elements i packs their rows once.

        The keys are int32, below q^4, and gathered with `np.take`, which
        reads int32 indices without the conversion that fancy indexing
        makes on every call.
        """
        q = self.q
        x, y = self._row_grid
        ha, hb, hc, hd = self._columns[:, i, None]
        image = (x * ha + y * hc) % q * q + (x * hb + y * hd) % q
        keys = np.take(image, rows[0], axis=-1)
        keys *= q * q
        keys += np.take(image, rows[1], axis=-1)
        return self.key_to_index.take(keys)

    @cached_property
    def _row_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The entries (x, y) of every packed row x q + y, int32."""
        grid = np.divmod(np.arange(self.q * self.q, dtype=np.int32), np.int32(self.q))
        for arr in grid:
            arr.setflags(write=False)
        return grid

    # -- reduction fibers -------------------------------------------------

    def fibers(self, q2: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Fiber data of the reduction homomorphism to level q2.

        Returns (fid, counts, n_fibers): fid[k] is a contiguous id of the
        mod-q2 class of element k, counts[f] the fiber size.
        """
        if q2 < 1 or self.q % q2 != 0:
            raise ValueError(f"{q2} does not divide {self.q}")
        cached = self._fibers.get(q2)
        if cached is not None:
            return cached
        if q2 == 1:
            fid = np.zeros(self.order, dtype=np.int64)
            counts = np.array([self.order], dtype=np.float64)
            result = (fid, counts, 1)
        else:
            A = self.elems % q2
            keys = ((A[:, 0] * q2 + A[:, 1]) * q2 + A[:, 2]) * q2 + A[:, 3]
            _, fid, counts = np.unique(keys, return_inverse=True, return_counts=True)
            result = (fid.astype(np.int64), counts.astype(np.float64), len(counts))
        self._fibers[q2] = result
        return result

    def cosets(self) -> "UnipotentCosets":
        """Right cosets of the upper unipotent subgroup, built once per table."""
        if self._cosets is None:
            self._cosets = UnipotentCosets(self)
        return self._cosets

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "a", "b", "c", "d", "inverse_index"])
            for i in range(self.order):
                a, b, c, d = (int(v) for v in self.elems[i])
                w.writerow([i, a, b, c, d, int(self.inverse[i])])

    def __repr__(self):
        return f"GroupTable(q={self.q}, order={self.order})"


class UnipotentCosets:
    """Right cosets gU of U = {u_b = [[1, b], [0, 1]]} in SL2(Z/q).

    The coset gU is fixed by the first column of g, a primitive vector mod
    q, so there are n = |G|/q of them. The section s_i is the first element
    of coset i in table order, and every element factors uniquely as
    s_i u_beta. Right translation by U commutes with left convolution, so
    functions on G split into q character blocks
    V_t = {phi : phi(g u_b) = e(t b / q) phi(g)}. A function in V_t is
    fixed by its coset coordinates f(i) = phi(s_i), and ||phi||^2 = q ||f||^2.
    """

    def __init__(self, table: GroupTable):
        q = table.q
        A = table.elems
        _, section, cid = np.unique(
            A[:, 0] * q + A[:, 2], return_index=True, return_inverse=True
        )
        s = A[section[cid]]
        # elems[k] = s u_beta: beta is the top-right entry of s^-1 elems[k]
        beta = (s[:, 3] * A[:, 1] - s[:, 1] * A[:, 3]) % q
        self.table = table
        self.q = q
        self.n = int(section.size)
        self.section = section
        self.cid = cid.reshape(-1)
        self.beta = beta
        # grid[i, beta] = index of s_i u_beta
        self.grid = np.empty((self.n, q), dtype=np.int64)
        self.grid[self.cid, beta] = np.arange(table.order)
        for arr in (self.section, self.cid, self.beta, self.grid):
            arr.setflags(write=False)

    def torus_orbits(self) -> tuple[int, ...]:
        """Smallest t of each orbit of t -> u^2 t over units u mod q.

        Right translation by diag(u, u^-1) maps V_t onto V_{u^-2 t}. It
        commutes with left convolution and with every level average (the
        congruence kernels are normal), so the blocks of one orbit have the
        same restricted norm. An orbit keeps gcd(t, q) fixed.
        """
        q = self.q
        squares = {u * u % q for u in range(1, q) if math.gcd(u, q) == 1}
        reps, seen = [], set()
        for t in range(q):
            if t not in seen:
                reps.append(t)
                seen.update(s * t % q for s in squares)
        return tuple(reps)

    @cached_property
    def stabiliser(self) -> tuple[np.ndarray, ...]:
        """The split of every V_t by the torus stabiliser S = {u : u^2 = 1 mod q}.

        For u in S, diag(u, u^-1) is the central element z = u I. It commutes
        with left convolution and with right translation by U, and it moves
        the cosets freely, z s_i = s_perm(i) u_gamma(i), since u v = v for a
        primitive v forces u = 1. On V_t in coset coordinates, phi -> phi(z .)
        is the monomial matrix R_z f(i) = e(t gamma_z(i) / q) f(perm_z(i)),
        and z -> R_z is a representation of S. Every element of S squares to
        1, so S = (Z/2)^k and its characters chi are +-1 valued; each orbit
        carries the regular representation, so the chi-eigenspace of V_t has
        one unit vector per S-orbit r, E_chi[perm_z(r), r] =
        chi(z) e(-t gamma_z(r) / q) / sqrt|S|, and V_t is the orthogonal sum
        of the |S| eigenspaces, each of dimension n/|S|.

        Returns (reps, perm, gamma, chars, where): reps, the least coset of
        each S-orbit; perm[z, r] and gamma[z, r], the action of the z-th
        element of S (the 0-th is 1) on reps[r]; chars[x, z] = chi_x(z); the
        S-orbit coordinates where[c] = z m + r iff perm[z, r] = c, m = n/|S|.
        """
        q = self.q
        units, bits = [1], [0]  # S in F_2 coordinates: bits[k] of units[k]
        for u in range(2, q):
            if u * u % q == 1 and u not in units:
                bit = len(units)
                units += [u * v % q for v in units]
                bits += [b | bit for b in bits]
        chars = np.array([[(-1) ** bin(x & b).count("1") for b in bits] for x in range(len(bits))])
        perm, gamma = self.left_action([self.table.index_of([[u, 0], [0, u]]) for u in units])
        reps = np.flatnonzero(perm.min(axis=0) == np.arange(self.n))
        out = (reps, perm[:, reps], gamma[:, reps], chars, np.argsort(perm[:, reps], axis=None))
        for arr in out:
            arr.setflags(write=False)
        return out

    def left_action(self, h) -> tuple[np.ndarray, np.ndarray]:
        """Left multiplication of cosets by the elements h[k].

        Returns (perm, beta), each of shape (len(h), n), with
        h[k] s_c = s_perm[k, c] u_beta[k, c]; each row of perm is a
        permutation of the cosets. Built from the n section rows alone, so
        the cost is len(h) * n, not |G|.
        """
        idx = self.table.products(np.asarray(h, dtype=np.int64)[:, None], self.section)
        return self.cid[idx], self.beta[idx]

    def __repr__(self):
        return f"UnipotentCosets(q={self.q}, n={self.n})"


def distinct(idx) -> np.ndarray:
    """The sorted distinct entries of an index array: `np.unique` without the
    `numpy.ma` import that its plain form makes on first use (numpy 2.4)."""
    idx = np.sort(idx, axis=None)
    return idx[np.concatenate(([True], idx[1:] != idx[:-1]))] if idx.size else idx


def get_group(q: int, max_q: int = Guards.max_q) -> GroupTable:
    """Enumerate SL2(Z/q) completely, once per q whatever the guard.

    For each top-left entry a in turn, keeps the tuples (b, c, d) of one
    precomputed q^3 grid with a d - b c = 1 mod q, so elements come out in
    lexicographic order and downstream indexing is reproducible. Raises
    GuardExceeded for q outside [2, max_q]; the only check of that limit.
    """
    if q < 2 or q > max_q:
        raise GuardExceeded(f"modulus {q} outside guarded range [2, {max_q}]")
    return _enumerate(q)


@lru_cache(maxsize=None)
def _enumerate(q: int) -> GroupTable:
    q3 = q**3
    bcd = np.indices((q, q, q), dtype=np.int64).reshape(3, -1)
    # b c + 1 mod q on the (b, c) x d grid: det 1 when a d equals it
    target = ((bcd[0] * bcd[1] + 1) % q).reshape(q * q, q)
    times = np.arange(q) * np.arange(q)[:, None] % q  # times[a, d] = a d mod q
    # the flat (b, c, d) positions of slice a are its packed keys minus a q^3,
    # increasing, so the keys come out in lexicographic order
    keys = np.concatenate([a * q3 + np.flatnonzero(target == times[a]) for a in range(q)])
    key_to_index = np.full(q**4, -1, dtype=np.int32)
    key_to_index[keys] = np.arange(keys.size, dtype=np.int32)
    elems = np.stack([keys // q3, *bcd[:, keys % q3]], axis=1)

    # inverse of [[a,b],[c,d]] with det 1 is [[d,-b],[-c,a]]
    a, b, c, d = elems.T
    inverse = key_to_index[((d * q + (-b % q)) * q + (-c % q)) * q + a]

    table = GroupTable(q, elems, key_to_index, inverse)
    if table.order != group_order(q):
        raise AssertionError(
            f"enumeration of SL2(Z/{q}) found {table.order} elements, "
            f"formula gives {group_order(q)}"
        )
    return table


def _fiber_average(phi: np.ndarray, fid, n_fibers) -> np.ndarray:
    """Conditional average of phi over reduction fibers, along axis 0.

    The fibers of a reduction homomorphism all have |ker| elements, so a
    stable sort by fid lays them out as a (|ker|, n_fibers) index array, and
    the mean over its first axis is the fiber average, for a function and
    for a column block alike.
    """
    layout = np.ascontiguousarray(np.argsort(fid, kind="stable").reshape(n_fibers, -1).T)
    return np.asarray(phi)[layout].mean(axis=0)[fid]


def level_average(table: GroupTable, phi: np.ndarray, q2: int) -> np.ndarray:
    """Average phi over the fibers of reduction mod q2 (a proper divisor).

    The result is the pullback of a function on SL2(Z/q2); the map is the
    orthogonal projector onto that pullback space, hence idempotent.
    """
    if q2 < 1 or q2 >= table.q or table.q % q2 != 0:
        raise ValueError(f"{q2} is not a proper divisor of {table.q}")
    phi = np.asarray(phi)
    if phi.shape[0] != table.order:
        raise ValueError("phi has wrong length for this group")
    fid, _, nf = table.fibers(q2)
    return _fiber_average(phi, fid, nf)


class NewSpaceProjector:
    """Orthogonal projector onto the new subspace at level q.

    The subspace is the orthocomplement, inside all functions on the
    group, of every pullback from a proper divisor level. Only maximal
    proper divisors q/p matter, and their fiber averages commute (the
    congruence kernels are normal subgroups), so applying I - avg once
    per maximal divisor is already the exact orthogonal projector.
    Storage is one fiber-id array per divisor, O(|G|) each.
    """

    def __init__(self, table: GroupTable):
        self.table = table
        self.q = table.q
        # maximal proper divisors q/p: every proper divisor divides one
        self.levels = tuple(self.q // p for p, _ in factorize(self.q))
        self.dimension = new_space_dimension(self.q)
        self._fiber_data = [table.fibers(q2) for q2 in self.levels]

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """Project a function, or each column of a (|G|, k) block."""
        out = np.asarray(phi, dtype=complex if np.iscomplexobj(phi) else float)
        out = out.copy()
        for fid, _, nf in self._fiber_data:
            out -= _fiber_average(out, fid, nf)
        return out

    apply_columns = apply  # perfbench/regen_refs.py calls it by this name

    def __repr__(self):
        return f"NewSpaceProjector(q={self.q}, dim={self.dimension})"
