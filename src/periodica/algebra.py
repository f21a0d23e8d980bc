"""Finite-dimensional graded-commutative algebras over GF(p).

A GradedAlgebra stores one multiplication matrix per degree pair (i, j):
shape (dim(i+j), dim(i) * dim(j)), column a * dim(j) + b holding the
product of the a-th degree-i and b-th degree-j basis vectors.  Degrees
outside 0..top_degree are zero.  Missing tables are zero maps.  Tables
are read-only once built, so the generators and the axiom verdicts are
computed once per algebra.

The axiom checks run on the nonzero table entries, not on whole tables.
Associativity is a join of entry pairs, summed per product of three basis
vectors, so its cost follows the nonzero entries, which grow as k in a
connected sum of k leaves.  The join runs over ranges of the left factor
of at most _JOIN_ROWS pairs each.  In a dense basis, where nearly every
entry is nonzero, the join holds more pairs than the tables hold entries,
and the check is slower than whole-table products (about 1.5x on a
rebased CP(8) x CP(8) at p = 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fplin

# The axiom checks key a product of basis vectors (t, x, g, y) as one int64
# below T^4, for T the total dimension, so T^4 must stay below 2^63.
MAX_TOTAL_DIM = 55_000


class AlgebraDefect(ValueError):
    """The multiplication tables violate a ring axiom."""


class _computed_once:
    """An attribute computed on first use, like functools.cached_property,
    but stored with setattr: cached_property writes through the instance's
    __dict__, which on CPython 3.11 leaves every later attribute lookup on
    that instance about twice as slow."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        setattr(obj, self.name, value)
        return value


def _as_int(value, what: str) -> int:
    """value as an int; ValueError for a bool, float or str instead of int()."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _object(value, what: str) -> dict:
    """value when it is a dict; ValueError for a list or any other JSON value."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class Element:
    """Homogeneous element: degree plus coordinates in the degree basis."""

    degree: int
    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, degree: int, vec) -> "Element":
        """Element from integer coordinates; ValueError for a bool, float or str entry."""
        return cls(degree, tuple(fplin._int_array(vec).tolist()))

    def as_vector(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=np.int64)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)


# A step of the associativity join holds at most this many entry pairs,
# unless the pairs of one left factor x alone are more.  Steps this small
# keep the sort's arrays in cache; every corpus fixture in the tests and the
# benchmark fits in one step.
_JOIN_ROWS = 1 << 14


class _Join:
    """The pairs (o, i) of an outer and an inner table entry with
    link[o] == at[i] < groups, each keyed outer_key[o] + inner_key[i] with
    the value outer_val[o] * inner_val[i]; the outer entries in order of
    their left factor x."""

    def __init__(self, x, link, outer_key, outer_val, at, inner_key, inner_val, groups: int):
        order = np.argsort(x)
        self.x, self.link = x[order], link[order]
        self.outer_key, self.outer_val = outer_key[order], outer_val[order]
        order = np.argsort(at)
        self.inner_key, self.inner_val = inner_key[order], inner_val[order]
        count = np.bincount(at, minlength=groups)
        self.first = np.cumsum(count) - count  # where each group's inner entries start
        self.count = count[self.link]

    def pairs_per_x(self, size: int) -> np.ndarray:
        return np.bincount(self.x, weights=self.count, minlength=size)

    def pairs(self, x0: int, x1: int) -> tuple[np.ndarray, np.ndarray]:
        """The keys and values of the pairs whose x lies in x0..x1 - 1."""
        lo, hi = np.searchsorted(self.x, (x0, x1))
        count = self.count[lo:hi]
        # the first inner entry of each pair's group, plus the pair's place in it
        inner = np.repeat(self.first[self.link[lo:hi]] - (np.cumsum(count) - count), count)
        inner += np.arange(inner.size)
        key = np.repeat(self.outer_key[lo:hi], count) + self.inner_key[inner]
        return key, np.repeat(self.outer_val[lo:hi], count) * self.inner_val[inner]


def _unbalanced(key, val, p: int) -> np.ndarray:
    """The distinct keys whose values do not sum to 0 mod p."""
    order = np.argsort(key)
    key = key[order]
    new = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    first = np.flatnonzero(new)
    return key[first[np.add.reduceat(val[order], first) % p != 0]]


class GradedAlgebra:
    def __init__(self, p: int, top_degree: int, dims, mult, labels=None):
        p = fplin.check_modulus(p)
        top_degree = _as_int(top_degree, "top_degree")
        if top_degree < 0:
            raise ValueError("need top_degree >= 0")
        self.p = p
        self.n = top_degree
        dims = list(dims)
        if len(dims) != top_degree + 1:
            raise ValueError("dims must cover degrees 0..top_degree")
        self.dims = tuple(_as_int(d, "a dimension") for d in dims)
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        if sum(self.dims) >= MAX_TOTAL_DIM:
            raise ValueError(f"total dimension {sum(self.dims)} is not below {MAX_TOTAL_DIM}")
        self.mult: dict[tuple[int, int], np.ndarray] = {}
        for (i, j), m in mult.items():
            if i < 0 or j < 0 or i + j > top_degree:
                raise ValueError(f"multiplication table for out-of-range degrees ({i}, {j})")
            arr = fplin.as_matrix(m, p)
            want = (self.dim(i + j), self.dim(i) * self.dim(j))
            if arr.shape != want:
                raise ValueError(f"table ({i}, {j}) has shape {arr.shape}, expected {want}")
            if arr.size and arr.any():
                arr.setflags(write=False)
                self.mult[(i, j)] = arr
        self.labels: dict[int, tuple[str, ...]] = {}
        if labels:
            for i, names in labels.items():
                i = int(i)
                if not 0 <= i <= top_degree:
                    raise ValueError(f"labels for degree {i} outside 0..{top_degree}")
                if len(names) != self.dim(i):
                    raise ValueError(f"labels for degree {i} do not match dim {self.dim(i)}")
                self.labels[i] = tuple(str(s) for s in names)

    def dim(self, i: int) -> int:
        if 0 <= i <= self.n:
            return self.dims[i]
        return 0

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def mult_map(self, i: int, j: int) -> np.ndarray:
        """Multiplication table (i, j), zero-filled when absent."""
        m = self.mult.get((i, j))
        if m is None:
            return np.zeros((self.dim(i + j), self.dim(i) * self.dim(j)), dtype=np.int64)
        return m

    def mult3(self, i: int, j: int) -> np.ndarray:
        """Table (i, j) reshaped to (dim(i+j), dim(i), dim(j))."""
        return self.mult_map(i, j).reshape(self.dim(i + j), self.dim(i), self.dim(j))

    def cup(self, i: int, a, j: int, b) -> np.ndarray:
        """Product of a (degree i) and b (degree j), a vector in degree i + j."""
        if i + j > self.n:
            return np.zeros(0, dtype=np.int64)
        av = fplin.as_vector(a, self.p)
        bv = fplin.as_vector(b, self.p)
        if av.shape[0] != self.dim(i) or bv.shape[0] != self.dim(j):
            raise ValueError("vector length does not match degree dimension")
        return ((self.mult3(i, j) @ bv) % self.p @ av) % self.p

    def cup_matrix(self, i: int, x, j: int) -> np.ndarray:
        """Matrix of w -> x . w from degree j to degree i + j."""
        xv = fplin.as_vector(x, self.p)
        if xv.shape[0] != self.dim(i):
            raise ValueError("vector length does not match degree dimension")
        if i + j > self.n:
            return np.zeros((0, self.dim(j)), dtype=np.int64)
        return np.einsum("tab,a->tb", self.mult3(i, j), xv) % self.p

    def basis_element(self, i: int, t: int) -> np.ndarray:
        v = np.zeros(self.dim(i), dtype=np.int64)
        v[t] = 1
        return v

    @_computed_once
    def unit_defect(self) -> str | None:
        """None when degree 0 is spanned by a two-sided unit, else why not."""
        if self.dim(0) != 1:
            return f"degree 0 must be one-dimensional, got {self.dim(0)}"
        for j in range(self.n + 1):
            eye = np.eye(self.dim(j), dtype=np.int64)
            if not np.array_equal(self.mult3(0, j)[:, 0], eye):
                return f"unit fails on the left in degree {j}"
            if not np.array_equal(self.mult3(j, 0)[:, :, 0], eye):
                return f"unit fails on the right in degree {j}"
        return None

    @_computed_once
    def generators(self) -> dict[int, tuple[int, ...]]:
        """Per degree, the basis indices outside the pivots of the decomposables.

        The decomposables of degree d are spanned by the products of degrees
        (i, d - i) with 0 < i < d.  The basis vectors at the returned indices
        span a complement of them, so by induction on the degree they
        generate the algebra.  Degrees without generators are left out, and
        so is degree 0 when it is spanned by a two-sided unit: the unit
        passes every check that runs over the generators by itself.
        """
        out = {}
        for d in range(0 if self.unit_defect else 1, self.n + 1):
            products = [self.mult[(i, d - i)].T for i in range(1, d) if (i, d - i) in self.mult]
            pivots = fplin.rref(np.vstack(products), self.p)[1] if products else ()
            gens = tuple(t for t in range(self.dim(d)) if t not in pivots)
            if gens:
                out[d] = gens
        return out

    @_computed_once
    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every nonzero table entry as arrays (t, a, b, v): the product of
        basis vectors a and b has coordinate v on basis vector t.  Indices
        are global: the index within the degree plus the dimensions of the
        degrees below."""
        off = np.cumsum((0, *self.dims))
        dims = np.array(self.dims, dtype=np.int64)
        tables = list(self.mult.values())
        flat = np.concatenate([np.zeros(0, dtype=np.int64)] + [m.ravel() for m in tables])
        at = np.flatnonzero(flat)
        start = np.cumsum([0] + [m.size for m in tables])
        which = np.searchsorted(start, at, side="right") - 1  # the table of each entry
        i, j = np.array(list(self.mult), dtype=np.int64).reshape(-1, 2)[which].T
        c, ab = np.divmod(at - start[which], dims[i] * dims[j])
        a, b = np.divmod(ab, dims[j])
        return off[i + j] + c, off[i] + a, off[j] + b, flat[at]

    def _degrees(self) -> np.ndarray:
        """The degree of each global basis index."""
        return np.repeat(np.arange(self.n + 1), self.dims)

    def _is_generator(self) -> np.ndarray:
        """Whether each global basis index is one of the generators."""
        out = np.zeros(self.total_dim, dtype=bool)
        off = np.cumsum((0, *self.dims))
        for d, gens in self.generators.items():
            out[off[d] + np.array(gens)] = True
        return out

    @_computed_once
    def associativity_defect(self) -> str | None:
        """None when the product is associative, else the least degrees
        (|x|, |g|, |y|), ordered by |g| first, where it fails.

        Light's test: the g with (xg)y = x(gy) for all x, y are closed under
        products, so checking g over the generators covers every element.
        Each side is a join of table entries, (u; x, g) meaning the product
        xg has coordinate u.  (xg)y pairs each entry (u; x, g) with the
        entries (t; u, y), and x(gy) each entry (t; x, w) with the entries
        (w; g, y).  The two sides must agree mod p at every key (t, x, g, y).
        The join runs over contiguous ranges of x of at most _JOIN_ROWS pairs
        each; an x with more pairs is a range alone.  Every index is below
        the total dimension T, so a key is below T^4 < 2^63 (MAX_TOTAL_DIM).
        A key sums at most 2T < 2^17 products of two residues below 2^21,
        so its sum stays below 2^59 before it is reduced mod p.
        """
        t, a, b, v = self._entries
        p, size, deg = self.p, self.total_dim, self._degrees()
        gen = self._is_generator()
        xg, gy = np.flatnonzero(gen[b]), np.flatnonzero(gen[a])
        # The key (t, x, g, y) is ((t * size + x) * size + g) * size + y.
        # (xg)y: each entry (u; x, g) meets the entries (t; u, y) of group u.
        # x(gy): each entry (t; x, w) meets the entries (w; g, y) of group
        # size + w, with the opposite sign.
        join = _Join(
            x=np.concatenate([a[xg], a]),
            link=np.concatenate([t[xg], size + b]),
            outer_key=np.concatenate([((a * size + b) * size)[xg], (t * size + a) * size ** 2]),
            outer_val=np.concatenate([v[xg], -v]),
            at=np.concatenate([a, size + t[gy]]),
            inner_key=np.concatenate([t * size ** 3 + b, (a * size + b)[gy]]),
            inner_val=np.concatenate([v, v[gy]]),
            groups=2 * size)
        per_x = join.pairs_per_x(size)
        ends = np.cumsum(per_x)
        failed, x0 = [], 0
        while x0 < size:
            x1 = max(int(np.searchsorted(ends, ends[x0] - per_x[x0] + _JOIN_ROWS, "right")), x0 + 1)
            failed.append(_unbalanced(*join.pairs(x0, x1), p))
            x0 = x1
        key = np.concatenate([np.zeros(0, dtype=np.int64), *failed])
        if not key.size:
            return None
        key, y = np.divmod(key, size)
        key, g = np.divmod(key, size)
        x = key % size
        first = np.lexsort((deg[y], deg[x], deg[g]))[0]
        return f"associativity fails for degrees ({deg[x[first]]}, {deg[g[first]]}, {deg[y[first]]})"

    @_computed_once
    def commutativity_defect(self) -> str | None:
        """None when gy = (-1)^(|g||y|) yg for every generator g and every y,
        else the least degrees (|g|, |y|) where it fails.  For an associative
        algebra that is graded commutativity: the graded centre is closed
        under products.  Each entry (t; g, y) must cancel the sign times the
        entry (t; y, g), key by key (t, g, y)."""
        t, a, b, v = self._entries
        p, size, deg = self.p, self.total_dim, self._degrees()
        gen = self._is_generator()
        gy, yg = gen[a], gen[b]
        odd = (deg[a] % 2 == 1) & (deg[b] % 2 == 1) & (p != 2)
        key = np.concatenate([(t[gy] * size + a[gy]) * size + b[gy],
                              (t[yg] * size + b[yg]) * size + a[yg]])
        val = np.concatenate([v[gy], np.where(odd, v, -v)[yg] % p])
        key = _unbalanced(key, val, p)
        if not key.size:
            return None
        key, y = np.divmod(key, size)
        g = key % size
        first = np.lexsort((deg[y], deg[g]))[0]
        return f"graded commutativity fails for degrees ({deg[g[first]]}, {deg[y[first]]})"

    def validate(self) -> None:
        """Check unit, associativity and graded commutativity; raise AlgebraDefect.

        Both identities are checked with one factor a generator only.
        """
        if self.unit_defect is not None:
            raise AlgebraDefect(self.unit_defect)
        if self.associativity_defect is not None:
            raise AlgebraDefect(self.associativity_defect)
        if self.commutativity_defect is not None:
            raise AlgebraDefect(self.commutativity_defect)

    def pairing_matrix(self, i: int) -> np.ndarray:
        """Pairing H^i x H^(n-i) -> H^n as a dim(i) x dim(n-i) matrix (dim(n) must be 1)."""
        if self.dim(self.n) != 1:
            raise AlgebraDefect("top degree is not one-dimensional")
        return self.mult_map(i, self.n - i).reshape(self.dim(i), self.dim(self.n - i))

    def to_dict(self) -> dict:
        out = {
            "p": self.p,
            "top_degree": self.n,
            "dims": list(self.dims),
            "mult": {f"{i},{j}": m.tolist() for (i, j), m in sorted(self.mult.items())},
        }
        if self.labels:
            out["labels"] = {str(i): list(names) for i, names in sorted(self.labels.items())}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GradedAlgebra":
        data = _object(data, "the algebra")
        mult = {}
        for key, m in _object(data.get("mult", {}), "mult").items():
            i, j = (int(s) for s in key.split(","))
            mult[(i, j)] = m
        labels = {int(k): v for k, v in _object(data.get("labels", {}), "labels").items()} or None
        return cls(data["p"], data["top_degree"], data["dims"], mult, labels)

    def __repr__(self) -> str:
        return f"GradedAlgebra(p={self.p}, top_degree={self.n}, dims={list(self.dims)})"


def verify_poincare_duality(alg: GradedAlgebra) -> bool:
    """True iff dim H^0 = dim H^n = 1 and every degree pairing is perfect."""
    if alg.dim(0) != 1 or alg.dim(alg.n) != 1:
        return False
    for i in range(alg.n + 1):
        if alg.dim(i) != alg.dim(alg.n - i):
            return False
        pm = alg.pairing_matrix(i)
        if fplin.rank(pm, alg.p) != alg.dim(i):
            return False
    return True
