"""Exact linear algebra over the prime field GF(p).

Matrices are numpy int64 arrays with entries reduced mod p, applied to
1-D coordinate vectors as ``(M @ v) % p``.  Subspaces are stored as
row-reduced bases, so equal subspaces compare equal.  Polynomials are
tuples of coefficients, lowest degree first, with no trailing zeros.
"""

from __future__ import annotations

import bisect
import itertools
import random

import numpy as np

# Moduli must lie below P_MAX.  The package multiplies residues in int64:
# a product of two residues stays below 2^42 and a product of three (the
# fixture builders' sign * a * b) below 2^63.  Every contraction is one
# factor at a time, reduced mod p before the next, so its int64 sum holds at
# most a table dimension's worth of two-residue products, exact for up to
# 2^21 terms.  The largest prime allowed is 2097143.
P_MAX = 2**21

# Miller-Rabin with the first twelve primes as bases is exact for every n
# below 3.18 * 10^23, which covers all 64-bit integers.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class UnsupportedModulus(ValueError):
    """The modulus is not a prime below P_MAX, so GF(p) arithmetic here is not exact."""


class ConsistencyFailure(RuntimeError):
    """A result the mathematics guarantees failed to hold on computed data."""


class NotInvertible(ValueError):
    pass


class NotCommutative(ValueError):
    """The matrices do not commute."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact below 3.18 * 10^23)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(p) -> int:
    """p as an int when it is a prime below P_MAX; UnsupportedModulus otherwise."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        raise UnsupportedModulus(f"the modulus must be an integer, got {p!r}")
    p = int(p)
    if not is_prime(p):
        raise UnsupportedModulus(f"the modulus {p} is not prime")
    if p >= P_MAX:
        raise UnsupportedModulus(
            f"the prime {p} is not below {P_MAX}; int64 products would overflow")
    return p


def _holds_bool(data) -> bool:
    """True if nested lists or tuples hold a bool: numpy reads [True, 2] as
    integers, so the dtype alone does not show it."""
    if isinstance(data, (list, tuple)):
        return not set(map(type, data)) <= {int} and any(map(_holds_bool, data))
    return isinstance(data, (bool, np.bool_))


def _int_array(data) -> np.ndarray:
    """data as an int64 array; ValueError for a bool, float or string entry
    instead of the truncation np.asarray(data, dtype=np.int64) would make."""
    if type(data) is np.ndarray and data.dtype == np.int64:  # the package's own arrays
        return data
    arr = np.asarray(data)
    if arr.size and (arr.dtype.kind not in "iu" or _holds_bool(data)):
        kind = "bool" if arr.dtype.kind in "iu" else arr.dtype
        raise ValueError(f"entries must be integers, got {kind} entries")
    return arr.astype(np.int64, copy=False)


def as_vector(data, p: int) -> np.ndarray:
    v = _int_array(data) % p
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def _int_matrix(data) -> np.ndarray:
    """data as a 2-D int64 array, not reduced; the caller's own int64 array
    is returned as it is."""
    m = _int_array(data)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def as_matrix(data, p: int) -> np.ndarray:
    return _int_matrix(data) % p


def rref(mat, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Row-reduce mod p.  Returns (nonzero rows, pivot columns).  Works in place
    on a copy, each step from its pivot column on (the rows not yet reduced are
    zero to its left) and only in the rows nonzero there.

    A (B, m, n) stack is reduced item by item in one pass (_stacked_rref):
    it returns the (B, m, n) stack of reduced items, each with its nonzero
    rows on top and zero rows below, and a tuple of each item's pivot
    columns."""
    m = np.asarray(mat, dtype=np.int64) % p
    if m.ndim == 3:
        return _stacked_rref(m, p)
    if m.ndim != 2:
        raise ValueError("rref expects a 2-D array or a stack of them")
    nrows, ncols = m.shape
    r, pivots = 0, []
    for c in range(ncols):
        if r == nrows:
            break
        nz = m[r:, c].nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            m[r], m[r + nz[0]] = m[r + nz[0]].copy(), m[r].copy()
        row = m[r, c:]
        if row[0] != 1:
            row *= pow(int(row[0]), -1, p)
            row %= p
        other = m[:, c].nonzero()[0]
        if other.size > 1:
            other = other[other != r]
            rest = m[other, c:]
            rest -= np.outer(rest[:, 0], row)
            rest %= p
            m[other, c:] = rest
        pivots.append(c)
        r += 1
    return m[:r], tuple(pivots)


def _stacked_rref(m: np.ndarray, p: int) -> tuple[np.ndarray, tuple]:
    """rref of every item of a (B, m, n) stack, reduced mod p, in place.

    A row with a single entry, in a column no other row of its item is
    nonzero in, is a pivot row as it stands (as in pivot_columns): no other
    row ever needs that column eliminated, and the row itself is zero
    elsewhere.  The other nonzero rows are live, and only the columns they
    are nonzero in can hold another pivot, since a step adds a multiple of
    a live row to a row.  Each such column c is one step for every item at
    once, over the whole stack: an item with a live row not yet a pivot
    row that is nonzero in c takes the first such row as its pivot row;
    then each of its other rows becomes lead * row - row[c] * pivot row,
    lead the pivot row's entry in c.  That scales rows by units and adds
    multiples of the pivot row, so no row space changes, and no row moves.
    A row that is never a pivot row ends zero, as it is zero in every pivot
    column and was zero in each other column when that column's step found
    no pivot.  At the end the pivot rows are ordered by their pivot columns
    and scaled to lead 1, which is the reduced form of the 2-D path, with
    the same pivots."""
    count, nrows, ncols = m.shape
    if not m.size:
        return m, ((),) * count
    items = np.arange(count)
    nonzero = m != 0
    first = nonzero.argmax(axis=2)
    solo = (nonzero.sum(axis=2) == 1) & (nonzero.sum(axis=1)[items[:, None], first] == 1)
    column = np.where(solo, first, ncols)  # each pivot row's pivot column
    live = nonzero & ~solo[..., None]
    for c in np.flatnonzero(live.reshape(-1, ncols).any(axis=0)).tolist():
        found = (m[:, :, c] != 0) & (column == ncols)
        at = found.argmax(axis=1)
        has = found[items, at]
        if not has.any():
            continue
        pivot = m[items, at]
        factor = m[:, :, c] * has[:, None]
        factor[items, at] = 0
        if p > 2:  # over GF(2) every lead is 1
            m *= np.where(has, pivot[:, c], 1)[:, None, None]
        m -= factor[:, :, None] * pivot[:, None, :]
        m %= p
        column[items[has], at[has]] = c
    order = np.argsort(column, axis=1, kind="stable")
    m, column = m[items[:, None], order], column[items[:, None], order]
    if p > 2:
        b, r = (column < ncols).nonzero()
        lead = m[b, r, column[b, r]].tolist()
        inverse = {x: pow(x, -1, p) for x in set(lead)}
        m[b, r] = (m[b, r] * np.array([inverse[x] for x in lead], dtype=np.int64)[:, None]) % p
    return m, tuple(tuple(row[:bisect.bisect_left(row, ncols)]) for row in column.tolist())


def rank(mat, p: int):
    """The rank of a matrix; for a (B, m, n) stack, each item's rank as an
    int64 array of length B, from one stacked rref.  Items of different
    shapes may share a stack padded with zero rows and columns, which
    change no item's rank or pivots."""
    reduced, pivots = rref(mat, p)
    if reduced.ndim == 3:
        return np.array([len(c) for c in pivots], dtype=np.int64)
    return len(pivots)


def _single_entry_columns(row, col, ncols: int) -> np.ndarray:
    """Mask over the ncols columns of a sparse matrix, given by the row and
    column of each nonzero entry: True at each column holding a row's only
    entry."""
    order = np.argsort(row)
    row, col = row[order], col[order]
    new = np.ones(row.size + 1, dtype=bool)  # where each row's entries start, and the end
    np.not_equal(row[1:], row[:-1], out=new[1:-1])
    single = np.zeros(ncols, dtype=bool)
    single[col[new[:-1] & new[1:]]] = True
    return single


def pivot_columns(row, col, val, block, p: int) -> np.ndarray:
    """The pivot columns of rref of a sparse matrix, sorted.

    The matrix is given by its nonzero entries: val[e], nonzero mod p, at
    (row[e], col[e]), one entry per position, with block[e] the block of
    the entry's row.  Rows of different blocks must share no column.

    Pivots depend only on the row space R: c is a pivot iff some vector of R
    has its first nonzero coordinate at c.  A row with a single entry, at
    column c, puts the unit vector e_c in R, so c is a pivot; let S be these
    columns.  Subtracting multiples of those e_c zeroes the columns S in
    every other row without changing R, so R = span(e_c : c in S) + R', R'
    spanned by the other rows restricted to the columns outside S.  A vector
    e + r' of R has its first nonzero coordinate where e or r' has it, the
    two supports being disjoint, so the pivots are S and those of R'.  As
    blocks share no column, R' is the direct sum of the blocks' row spaces
    and its pivots are the union of theirs.  So only the rows without a
    single entry are row-reduced, each block made dense over its own rows
    and columns alone: never larger than the block's own dense matrix.
    """
    row, col, val, block = (np.asarray(x, dtype=np.int64) for x in (row, col, val, block))
    pivot = _single_entry_columns(row, col, col.max() + 1 if col.size else 0)
    rest = ~pivot[col]
    order = np.argsort(block[rest])
    row, col, val, block = row[rest][order], col[rest][order], val[rest][order], block[rest][order]
    edges = [0, *(np.flatnonzero(block[1:] != block[:-1]) + 1), block.size] if block.size else []
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows, r = np.unique(row[lo:hi], return_inverse=True)
        cols, c = np.unique(col[lo:hi], return_inverse=True)
        dense = np.zeros((rows.size, cols.size), dtype=np.int64)
        dense[r, c] = val[lo:hi]
        pivot[cols[list(rref(dense, p)[1])]] = True
    return np.flatnonzero(pivot)


class Subspace:
    """Subspace of GF(p)^ambient with a canonical row-reduced basis.

    Two Subspace objects are equal iff they are the same subspace of the
    same ambient space.
    """

    __slots__ = ("p", "ambient", "basis", "pivots")

    def __init__(self, p: int, ambient: int, basis: np.ndarray, pivots: tuple[int, ...]):
        # Invariant: basis is in reduced row echelon form with the given pivots.
        self.p = p
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots
        basis.setflags(write=False)

    @classmethod
    def from_vectors(cls, vectors, p: int, ambient: int | None = None) -> "Subspace":
        rows = [as_vector(v, p) for v in vectors]
        if ambient is None:
            if not rows:
                raise ValueError("ambient dimension required for an empty span")
            ambient = rows[0].shape[0]
        for v in rows:
            if v.shape[0] != ambient:
                raise ValueError("mixed vector lengths")
        if not rows:
            return cls.zero(p, ambient)
        red, pivots = rref(np.array(rows, dtype=np.int64), p)
        return cls(p, ambient, red, pivots)

    @classmethod
    def zero(cls, p: int, ambient: int) -> "Subspace":
        return cls(p, ambient, np.zeros((0, ambient), dtype=np.int64), ())

    @classmethod
    def full(cls, p: int, ambient: int) -> "Subspace":
        return cls(p, ambient, np.eye(ambient, dtype=np.int64), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, vec) -> bool:
        v = as_vector(vec, self.p)
        if v.shape[0] != self.ambient:
            raise ValueError("ambient mismatch")
        c = v[list(self.pivots)]
        return np.array_equal((c @ self.basis) % self.p, v)

    def coords_of(self, vec) -> np.ndarray:
        """Coordinates w.r.t. the canonical basis; ValueError if not contained."""
        v = as_vector(vec, self.p)
        if v.shape[0] != self.ambient:
            raise ValueError("ambient mismatch")
        c = v[list(self.pivots)] if self.dim else np.zeros(0, dtype=np.int64)
        if not np.array_equal((c @ self.basis) % self.p if self.dim else np.zeros(self.ambient, dtype=np.int64), v):
            raise ValueError("vector not in subspace")
        return c

    def _zassenhaus(self, other: "Subspace") -> tuple["Subspace", "Subspace"]:
        if (self.p, self.ambient) != (other.p, other.ambient):
            raise ValueError("mismatched ambient spaces")
        d = self.ambient
        top = np.hstack([self.basis, self.basis])
        bot = np.hstack([other.basis, np.zeros_like(other.basis)])
        red, pivots = rref(np.vstack([top, bot]), self.p)
        sum_rows = [red[t, :d] for t, c in enumerate(pivots) if c < d]
        int_rows = [red[t, d:] for t, c in enumerate(pivots) if c >= d]
        return (
            Subspace.from_vectors(sum_rows, self.p, d),
            Subspace.from_vectors(int_rows, self.p, d),
        )

    def sum(self, other: "Subspace") -> "Subspace":
        return self._zassenhaus(other)[0]

    def intersection(self, other: "Subspace") -> "Subspace":
        return self._zassenhaus(other)[1]

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(row) for row in self.basis)

    def coordinate_complement(self) -> "Subspace":
        """Span of the standard basis vectors at non-pivot coordinates.

        Always a direct complement of this subspace in GF(p)^ambient.
        """
        free = [j for j in range(self.ambient) if j not in self.pivots]
        return Subspace(self.p, self.ambient, np.eye(self.ambient, dtype=np.int64)[free],
                        tuple(free))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.ambient == other.ambient
            and self.pivots == other.pivots
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.ambient, self.pivots, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, ambient={self.ambient}, dim={self.dim})"


def kernel(mat, p: int) -> Subspace:
    """Kernel of mat as a subspace of the source GF(p)^ncols."""
    m = as_matrix(mat, p)
    red, pivots = rref(m, p)
    n = m.shape[1]
    free = np.ones(n, dtype=bool)
    free[list(pivots)] = False
    rows = np.eye(n, dtype=np.int64)[free]
    rows[:, list(pivots)] = -red[:, free].T % p
    return Subspace.from_vectors(rows, p, n)


def sparse_kernel(row, col, val, ncols: int, p: int) -> Subspace:
    """kernel of a sparse matrix with ncols columns, the same Subspace
    kernel returns for the dense matrix.

    The matrix is given by its nonzero entries, as in pivot_columns, in one
    block.  The kernel depends only on the row space R.  A row with a single
    entry, at column c, puts e_c in R and forces coordinate c of every
    kernel vector to 0; let S be these columns.  As in pivot_columns, R =
    span(e_c : c in S) + R', R' spanned by the other rows restricted to the
    columns outside S, so the kernel is the kernel of R' on those columns,
    with zeros inserted at S.  Inserting zero coordinates keeps a basis
    reduced, with its pivots moved to the same columns, so this is the
    canonical basis kernel returns.  Only the rows without a single entry
    are made dense, over the columns outside S; when there are none, the
    kernel is spanned by the unit vectors outside S and nothing is
    row-reduced.
    """
    row, col, val = (np.asarray(x, dtype=np.int64) for x in (row, col, val))
    single = _single_entry_columns(row, col, ncols)
    keep, rest = np.flatnonzero(~single), ~single[col]
    if rest.any():
        rows, r = np.unique(row[rest], return_inverse=True)
        dense = np.zeros((rows.size, keep.size), dtype=np.int64)
        dense[r, np.searchsorted(keep, col[rest])] = val[rest]
        inner = kernel(dense, p)
    else:
        inner = Subspace.full(p, keep.size)
    basis = np.zeros((inner.dim, ncols), dtype=np.int64)
    basis[:, keep] = inner.basis
    return Subspace(p, ncols, basis, tuple(keep[list(inner.pivots)].tolist()))


def image(mat, p: int) -> Subspace:
    """Column space of mat as a subspace of the target GF(p)^nrows."""
    m = as_matrix(mat, p)
    red, pivots = rref(m.T, p)
    return Subspace(p, m.shape[0], red, pivots)


def mat_pow(mat, e: int, p: int) -> np.ndarray:
    """mat^e mod p; for a stack of square matrices, the stack of their powers."""
    m = _int_array(mat) % p
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError("mat_pow expects a square matrix or a stack of them")
    if e < 0:
        raise ValueError("negative exponent")
    out = np.broadcast_to(np.eye(m.shape[-1], dtype=np.int64), m.shape).copy()
    base = m
    while e:
        if e & 1:
            out = (out @ base) % p
        e >>= 1
        if e:
            base = (base @ base) % p
    return out


def mat_inv(mat, p: int) -> np.ndarray:
    m = as_matrix(mat, p)
    d = m.shape[0]
    if m.shape != (d, d):
        raise ValueError("mat_inv expects a square matrix")
    red, pivots = rref(np.hstack([m, np.eye(d, dtype=np.int64)]), p)
    if pivots != tuple(range(d)):
        raise NotInvertible("matrix is singular")
    return red[:, d:]


def _poly_norm(coeffs, p: int) -> tuple[int, ...]:
    c = [int(x) % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_monic(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return tuple((x * inv) % p for x in a)


def _poly_mul(a, b, p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _poly_norm(out, p)


def _poly_divmod(a, b, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = [int(x) % p for x in a]
    db = len(b) - 1
    lead_inv = pow(b[-1], -1, p)
    if len(a) - 1 < db:
        return (), _poly_norm(a, p)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = (a[i] * lead_inv) % p
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _poly_norm(q, p), _poly_norm(a, p)


def _poly_gcd(a, b, p: int) -> tuple[int, ...]:
    a, b = _poly_norm(a, p), _poly_norm(b, p)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return _poly_monic(a, p)


def _poly_deriv(a, p: int) -> tuple[int, ...]:
    return _poly_norm([(i * a[i]) % p for i in range(1, len(a))], p)


def _poly_powmod(a, e: int, mod, p: int) -> tuple[int, ...]:
    """a^e modulo the polynomial mod."""
    result, base = _poly_divmod((1,), mod, p)[1], _poly_divmod(a, mod, p)[1]
    while e:
        if e & 1:
            result = _poly_divmod(_poly_mul(result, base, p), mod, p)[1]
        e >>= 1
        if e:
            base = _poly_divmod(_poly_mul(base, base, p), mod, p)[1]
    return result


def _poly_sub(a, b, p: int) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return _poly_norm([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                       for i in range(n)], p)


# Seeds the Cantor-Zassenhaus draws; the roots do not depend on it.
_SPLIT_SEED = 0


def split_roots(poly, p: int) -> tuple[int, ...]:
    """The roots, ascending, of a product of distinct linear factors over GF(p).

    p = 2 tests 0 and 1.  Odd p splits each factor of degree two or more by
    Cantor-Zassenhaus, gcd with (t + delta)^((p-1)/2) - 1 for delta drawn
    from a generator seeded with _SPLIT_SEED: run time polynomial in log p,
    and a result that does not depend on the seed.  Raises ValueError unless
    poly is nonzero and has deg(poly) distinct roots in GF(p).
    """
    f = _poly_monic(_poly_norm(poly, p), p)
    if not f:
        raise ValueError("the zero polynomial has every root")
    # gcd(f, t^p - t) is the product of the distinct linear factors of f.
    if _poly_gcd(f, _poly_sub(_poly_powmod((0, 1), p, f, p), (0, 1), p), p) != f:
        raise ValueError(f"{f} is not a product of distinct linear factors mod {p}")
    rng = random.Random(_SPLIT_SEED)
    roots, pending = [], [f]
    while pending:
        g = pending.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) > 2 and p == 2:
            roots += [0, 1]
        elif len(g) > 2:
            while True:
                shifted = _poly_powmod((rng.randrange(p), 1), (p - 1) // 2, g, p)
                h = _poly_gcd(g, _poly_sub(shifted, (1,), p), p)
                if 1 < len(h) < len(g):
                    break
            pending += [h, _poly_monic(_poly_divmod(g, h, p)[0], p)]
    return tuple(sorted(roots))


def minimal_polynomial(mat, p: int) -> tuple[int, ...]:
    """Monic minimal polynomial, coefficients lowest degree first.

    Row-reduces the powers I, mat, ..., mat^d as the columns of one
    d^2 x (d+1) matrix: the first column that is not a pivot is the first
    power the lower ones span, and its reduced entries are the coefficients.
    """
    m = as_matrix(mat, p)
    d = m.shape[0]
    if m.shape != (d, d):
        raise ValueError("minimal_polynomial expects a square matrix")
    powers = [np.eye(d, dtype=np.int64)]
    for _ in range(d):
        powers.append((powers[-1] @ m) % p)
    red, pivots = rref(np.array(powers).reshape(d + 1, d * d).T, p)
    j = len(pivots)
    return _poly_norm([(-int(c)) % p for c in red[:j, j]] + [1], p)


def is_semisimple(mat, p: int) -> bool:
    """True iff the minimal polynomial of mat is squarefree mod p."""
    mp = minimal_polynomial(mat, p)
    der = _poly_deriv(mp, p)
    if not der:
        return len(mp) == 1
    return len(_poly_gcd(mp, der, p)) == 1


def semisimple_power(mat, p: int) -> tuple[np.ndarray, int]:
    """Smallest l with p^l >= dim, and mat**(p^l), which is semisimple."""
    m = as_matrix(mat, p)
    d = m.shape[0]
    if m.shape != (d, d):
        raise ValueError("semisimple_power expects a square matrix")
    l = 0
    while p**l < d:
        l += 1
    g = mat_pow(m, p**l, p)
    if not is_semisimple(g, p):
        raise ConsistencyFailure(f"the p^{l}-th power is not semisimple")
    return g, l


def _reduced_pivots(flat) -> list | None:
    """The pivot columns of flat when it is in reduced row echelon form with
    no zero row, so that rref returns it unchanged; else None."""
    if not flat.shape[1]:
        return None
    lead = (flat != 0).argmax(axis=1)  # 0 for a zero row, whose entry there is not 1
    if (lead[1:] <= lead[:-1]).any() or not np.array_equal(flat[:, lead], np.eye(lead.size)):
        return None
    return lead.tolist()


def primitive_idempotents(mats, p: int) -> tuple[Subspace, list, list]:
    """Primitive idempotents of a commutative algebra of matrices over GF(p).

    mats are d linearly independent m x m matrices whose span A holds the
    identity; an element of A is its coordinate vector in that basis.
    Frobenius a -> a^p is linear on A, and its fixed subalgebra
    B = ker(Frobenius - id) is a product of copies of GF(p), one per local
    factor of A (Berlekamp 1967; Ronyai, J. Symb. Comput. 1990).  Starting
    from the unit, every basis vector b of B splits each current idempotent
    e into the nonzero e * [b = c], [b = c] = 1 - (b - c)^(p-1), c running
    over the roots of the minimal polynomial of b on B.

    A separator b with b * b = b needs neither the minimal polynomial nor a
    power: b(b - 1) = 0, so b = 1 has the one root 1 and [b = 1] = 1 splits
    nothing, and otherwise (b is a nonzero basis vector) the roots are 0
    and 1, with [b = 0] = 1 - b^(p-1) = 1 - b and [b = 1] = 1 - (1 - b)^(p-1)
    = b, since (b - 1)^(p-1) = (1 - b)^(p-1) (p - 1 is even or p = 2) and
    1 - b is idempotent.  As A is commutative, e * [b = c] = [b = c] * e,
    so the multiplication matrices of the indicators, applied to every
    current idempotent in one product, split a whole round.  Frobenius is
    one stacked power of the basis's multiplication matrices; when it is
    the identity, A is reduced and split, A = B = GF(p)^d, and B is the
    whole space, with no kernel to solve.  When the matrices, flattened,
    are already in reduced row echelon form (a Subspace basis), a
    coordinate vector is read at the pivots.  The identity and every
    product M_i M_j with i <= j are checked to lie in the span; the
    products commute, so these are all of them.

    Returns B, the primitive idempotents sorted by their coordinates, and
    every split into two or more parts as (e, b, parts), parts in ascending
    order of c.  Raises NotCommutative when the matrices do not commute,
    and ValueError when they are not square and linearly independent, or a
    product or the identity lies outside their span.
    """
    stack = np.array(mats, dtype=np.int64) % p
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("expected a stack of square matrices")
    d, m = stack.shape[0], stack.shape[1]
    if d == 1:
        # The span of one matrix M holds the identity exactly when M = cI,
        # c != 0: then A = GF(p) with unit 1/c, and nothing splits.
        if not stack.any():
            raise ValueError("the matrices are linearly dependent")
        c = int(stack[0, 0, 0])
        if not np.array_equal(stack[0], c * np.eye(m, dtype=np.int64)):
            raise ValueError("a product of the matrices lies outside their span")
        return Subspace.full(p, 1), [np.array([pow(c, -1, p)], dtype=np.int64)], []
    flat = stack.reshape(d, m * m)
    pivots = _reduced_pivots(flat)
    reduced = pivots is not None
    if not reduced:
        pivots = list(rref(flat, p)[1])
        if len(pivots) != d:
            raise ValueError("the matrices are linearly dependent")
        to_coords = mat_inv(flat[:, pivots], p)

    def coords(rows):
        x = rows[:, pivots] if reduced else (rows[:, pivots] @ to_coords) % p
        if not np.array_equal((x @ flat) % p, rows):
            raise ValueError("a product of the matrices lies outside their span")
        return x

    products = (stack[:, None] @ stack[None]) % p
    if not np.array_equal(products, products.transpose(1, 0, 2, 3)):
        raise NotCommutative("the matrices do not commute")
    # pairs[i, j] holds the coordinates of M_i M_j; the products commute,
    # so those with i <= j are all of them.  mult[i] multiplies by the i-th
    # basis element: its column j is M_i M_j.
    upper = np.arange(d)[:, None] <= np.arange(d)
    pairs = np.empty((d, d, d), dtype=np.int64)
    pairs[upper] = coords(products[upper].reshape(-1, m * m))
    pairs[~upper] = pairs.transpose(1, 0, 2)[~upper]
    mult = pairs.transpose(0, 2, 1)
    unit = coords(np.eye(m, dtype=np.int64).reshape(1, m * m))[0]
    flat_mult = mult.reshape(d, d * d)
    eye = np.eye(d, dtype=np.int64)

    def times(rows):
        """The multiplication matrices of the elements rows."""
        return (rows @ flat_mult).reshape(-1, d, d) % p

    def power(rows, e):
        """The e-th powers of the elements rows, one stacked power."""
        return (mat_pow(times(rows), e, p) @ unit) % p

    frobenius = ((mat_pow(mult, p, p) @ unit) % p).T
    fixed = Subspace.full(p, d) if np.array_equal(frobenius, eye) else kernel(frobenius - eye, p)
    parts, splits = [unit], []
    for b in fixed.basis:
        if len(parts) == fixed.dim:
            break
        on_b = times(b)[0]
        if np.array_equal((on_b @ b) % p, b):
            if np.array_equal(b, unit):
                continue  # [b = 1] = 1 splits nothing
            indicators = np.array([(unit - b) % p, b])
        else:
            roots = split_roots(minimal_polynomial(restricted_matrix(on_b, fixed, fixed), p), p)
            indicators = (unit - power((b - np.array(roots)[:, None] * unit) % p, p - 1)) % p
        # pieces[i, j] = e_i * [b = c_j], computed as [b = c_j] * e_i
        pieces = ((np.array(parts) @ times(indicators).transpose(0, 2, 1)) % p).transpose(1, 0, 2)
        refined = []
        for e, row in zip(parts, pieces):
            nonzero = [q for q in row if q.any()]
            if len(nonzero) > 1:
                splits.append((e, b, nonzero))
            refined += nonzero
        parts = refined
    if len(parts) != fixed.dim:
        raise ConsistencyFailure(
            f"{len(parts)} idempotents for a {fixed.dim}-dimensional fixed subalgebra")
    return fixed, sorted(parts, key=lambda v: tuple(int(t) for t in v)), splits


def restricted_matrix(op, source: Subspace, target: Subspace) -> np.ndarray:
    """Matrix of op : source -> target in the canonical bases; for a stack
    of operators, the stack of their matrices, found in one solve.

    Raises ValueError if an operator does not map source into target.
    A whole space (dim == ambient) has the identity as its canonical basis,
    so when source and target are both whole the matrix is the reduced
    operator itself, and containment in the whole target cannot fail:
    nothing is solved or checked past the shape and prime checks.
    """
    if source.p != target.p:
        raise ValueError("mismatched primes")
    p = source.p
    m = _int_array(op) % p
    if m.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D matrix or a stack of them, got shape {m.shape}")
    if m.shape[-2:] != (target.ambient, source.ambient):
        raise ValueError("operator shape does not match the given spaces")
    if source.dim == source.ambient and target.dim == target.ambient:
        return m
    images = (m @ source.basis.T) % p
    coords = images[..., list(target.pivots), :]
    if not np.array_equal((coords.swapaxes(-1, -2) @ target.basis) % p, images.swapaxes(-1, -2)):
        raise ValueError("vector not in subspace")
    return coords


def direct_sum_check(parts: list[Subspace], ambient: Subspace, full: bool = False) -> bool:
    """True iff the parts are independent subspaces of ambient.

    With full=True also require that they span all of ambient.  One rank
    computation over all the parts' bases decides independence.  When
    ambient is the whole space every part lies in it, so containment is
    checked only for a proper ambient.
    """
    whole = ambient.dim == ambient.ambient
    for part in parts:
        if (part.p, part.ambient) != (ambient.p, ambient.ambient):
            raise ValueError("mismatched ambient spaces")
        if not whole and not part.is_subspace_of(ambient):
            return False
    total = sum(part.dim for part in parts)
    if total and rank(np.vstack([part.basis for part in parts]), ambient.p) != total:
        return False
    return not full or total == ambient.dim


def enumerate_vectors(dim: int, p: int):
    """All vectors of GF(p)^dim in lexicographic order, first coordinate most significant."""
    for tup in itertools.product(range(p), repeat=dim):
        yield np.array(tup, dtype=np.int64)


def vector_blocks(dim: int, p: int, rows: int):
    """enumerate_vectors' sequence as row blocks: each block fixes the leading
    coordinates and runs the last t over all of GF(p)^t, for the largest t
    with p^t <= rows (t = 1 when p > rows)."""
    t = min(dim, 1)
    while t < dim and p ** (t + 1) <= rows:
        t += 1
    tail = np.array(list(itertools.product(range(p), repeat=t)), dtype=np.int64).reshape(p ** t, t)
    for head in itertools.product(range(p), repeat=dim - t):
        yield np.hstack([np.tile(np.array(head, dtype=np.int64), (len(tail), 1)), tail])
