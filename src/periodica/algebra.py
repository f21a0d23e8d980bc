"""Finite-dimensional graded-commutative algebras over GF(p).

A GradedAlgebra stores one multiplication matrix per degree pair (i, j):
shape (dim(i+j), dim(i) * dim(j)), column a * dim(j) + b holding the
product of the a-th degree-i and b-th degree-j basis vectors.  Degrees
outside 0..top_degree are zero.  Missing tables are zero maps.  The
constructor checks each table, then reduces all of them mod p into one new
buffer and keeps the nonzero ones as read-only views of it (a Steenrod
action stores its maps the same way), so the generators and the axiom
verdicts are computed once per algebra.  from_dict reads the JSON tables
in one pass when every one is a list of equal-length lists of ints that
fit in int64; other input goes to the constructor as it is, which checks
it table by table.

Every check reads the nonzero table entries, listed once per algebra from
the buffer, not whole tables.  The unit is read off the entries with the
unit as a factor.  The generators and the duality verdict are pivots of sparse matrices of
entries (fplin.pivot_columns): a row with a single entry gives its pivot
directly, and only the other rows are made dense, one degree at a time.
Associativity is a join of entry pairs, summed per product of three basis
vectors, so its cost follows the nonzero entries, which grow as k in a
connected sum of k leaves.  The join runs over ranges of the left factor
of at most _JOIN_ROWS pairs each.  In a dense basis, where nearly every
entry is nonzero, the join holds more pairs than the tables hold entries,
and the check is slower than whole-table products (about 1.5x on a
rebased CP(8) x CP(8) at p = 3); so are the pivots when the entry list is
counted in, as most rows there hold several entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain

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
        """The coordinates as int64; ValueError for a bool, float or str entry."""
        return fplin._int_array(self.coeffs)


# A step of a join holds at most this many entry pairs, unless the pairs of
# one value of the range variable alone are more.  Steps this small keep the
# sort's arrays in cache; every corpus fixture in the tests and the
# benchmark fits in one step.
_JOIN_ROWS = 1 << 14


class _Groups:
    """Entries grouped by a label below `groups`, each with its columns
    (arrays, one value per entry) in label order."""

    def __init__(self, label, groups: int, *columns):
        order = np.argsort(label)
        self.columns = [c[order] for c in columns]
        self.count = np.bincount(label, minlength=groups)
        self.first = np.cumsum(self.count) - self.count  # where each group starts

    def span(self, x0: int, x1: int) -> slice:
        """Where the entries labelled x0..x1 - 1 lie in the columns."""
        return slice(self.first[x0], self.first[x1 - 1] + self.count[x1 - 1])

    def meet(self, link) -> tuple[np.ndarray, np.ndarray]:
        """Every pair (o, e) of an index o into link and an entry e, an
        index into the columns, labelled link[o]."""
        count = self.count[link]
        o = np.repeat(np.arange(link.size), count)
        # the first entry of each pair's group, plus the pair's place in it
        e = np.repeat(self.first[link] - (np.cumsum(count) - count), count)
        e += np.arange(e.size)
        return o, e


def _ranges(per_x: np.ndarray):
    """Contiguous ranges x0..x1 - 1 of at most _JOIN_ROWS pairs, by the pair
    counts per_x of each x; an x with more pairs is a range alone."""
    ends = np.cumsum(per_x)
    x0 = 0
    while x0 < per_x.size:
        x1 = max(int(np.searchsorted(ends, ends[x0] - per_x[x0] + _JOIN_ROWS, "right")), x0 + 1)
        yield x0, x1
        x0 = x1


def _unbalanced(key, val, p: int) -> np.ndarray:
    """The distinct keys whose values do not sum to 0 mod p."""
    order = np.argsort(key)
    key = key[order]
    new = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    first = np.flatnonzero(new)
    return key[first[np.add.reduceat(val[order], first) % p != 0]]


_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.setflags(write=False)


def _reduced(tables: dict, p: int) -> tuple[dict, tuple]:
    """The 2-D int64 arrays in tables, keyed by pairs of integers, reduced
    mod p into one new read-only buffer, and the nonzero ones as views of
    it, in their order.  Returns the views and (buffer, at, start) for
    _nonzero_entries: at lists the buffer's nonzero positions, start[t]
    where the t-th view begins."""
    arrays = list(tables.values())
    flat = np.concatenate([_EMPTY] + [m.ravel() for m in arrays])
    # a builder's tables are already reduced, and one scan for an entry
    # outside 0..p-1 (negative ones read as large unsigned) costs far less
    # than the division
    if flat.view(np.uint64).max(initial=0) >= p:
        np.remainder(flat, p, out=flat)
    flat.setflags(write=False)
    # the method forms, as np.flatnonzero and np.searchsorted cost more
    # than the work on the few small tables of a window
    at = flat.nonzero()[0]
    bounds = list(accumulate([m.size for m in arrays], initial=0))
    count = at.searchsorted(bounds).tolist()  # nonzero entries before each bound
    kept, start = {}, []
    for t, (key, m) in enumerate(tables.items()):
        if count[t] < count[t + 1]:
            kept[key] = flat[bounds[t]:bounds[t + 1]].reshape(m.shape)
            start.append(bounds[t])
    return kept, (flat, at, start)


def _nonzero_entries(tables: dict, buffer: tuple) -> tuple[np.ndarray, ...]:
    """Every nonzero entry of tables, as arrays (i, j, r, c, v): entry (r, c)
    of tables[(i, j)] is v.  tables and buffer are what _reduced returned."""
    flat, at, start = buffer
    start = np.array(start, dtype=np.int64)
    which = np.searchsorted(start, at, side="right") - 1  # the table of each entry
    i, j = np.array(list(tables), dtype=np.int64).reshape(-1, 2)[which].T
    width = np.array([m.shape[1] for m in tables.values()], dtype=np.int64)
    r, c = np.divmod(at - start[which], width[which])
    return i, j, r, c, flat[at]


def _tables_from_json(data: dict, what: str) -> dict:
    """{(a, b): table} from a JSON object {"a,b": table}; ValueError when two
    keys name one pair.  The tables are read in one pass when each is a
    non-empty list of equal-length lists of ints that fit in int64; any
    other tables are handed on as they are, so that the constructor checks
    them one by one and refuses them as it refuses any input."""
    tables, names = {}, {}
    for key, m in data.items():
        i, j = (int(s) for s in key.split(","))
        if (i, j) in names:
            raise ValueError(f"{what} names ({i}, {j}) twice, as {names[(i, j)]!r} and {key!r}")
        names[(i, j)] = key
        tables[(i, j)] = m
    shapes, rows = [], []
    for m in tables.values():
        if type(m) is not list or set(map(type, m)) != {list}:
            return tables
        widths = set(map(len, m))
        if len(widths) != 1:
            return tables
        shapes.append((len(m), *widths))
        rows += m
    flat = list(chain.from_iterable(rows))
    if not set(map(type, flat)) <= {int}:
        return tables
    try:
        flat = np.array(flat, dtype=np.int64)
    except OverflowError:
        return tables
    ends = accumulate(r * w for r, w in shapes)
    return {key: flat[end - r * w:end].reshape(r, w)
            for key, (r, w), end in zip(tables, shapes, ends)}


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
        tables = {}
        for (i, j), m in mult.items():
            if i < 0 or j < 0 or i + j > top_degree:
                raise ValueError(f"multiplication table for out-of-range degrees ({i}, {j})")
            arr = fplin._int_matrix(m)
            want = (self.dim(i + j), self.dim(i) * self.dim(j))
            if arr.shape != want:
                raise ValueError(f"table ({i}, {j}) has shape {arr.shape}, expected {want}")
            tables[(i, j)] = arr
        self.mult, self._buffer = _reduced(tables, p)
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
        """None when degree 0 is spanned by a two-sided unit, else why not:
        the least degree with a basis vector y where 1y = y or y1 = y
        fails, the left side first.  Read off the table entries (t; 1, y)
        and (t; y, 1): the unit acts on y when each side has the one entry
        (y; 1, y), of value 1, for that y."""
        if self.dim(0) != 1:
            return f"degree 0 must be one-dimensional, got {self.dim(0)}"
        t, a, b, v = self._entries
        size, deg = self.total_dim, self._degrees()
        fails = {}
        for side, one, y in (("left", a, b), ("right", b, a)):
            at = one == 0  # the global index of the class of degree 0
            acts = (np.bincount(y[at], minlength=size) == 1) & \
                (np.bincount(y[at & (t == y) & (v == 1)], minlength=size) == 1)
            fails[side] = int(deg[~acts].min(initial=self.n + 1))
        side = min(fails, key=fails.get)
        if fails[side] > self.n:
            return None
        return f"unit fails on the {side} in degree {fails[side]}"

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
        off = np.cumsum((0, *self.dims))
        out = {}
        for d in range(self.n + 1):
            gens = tuple(np.flatnonzero(self._is_generator[off[d]:off[d + 1]]).tolist())
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
        i, j, c, ab, v = _nonzero_entries(self.mult, self._buffer)
        a, b = np.divmod(ab, np.array(self.dims, dtype=np.int64)[j])
        return off[i + j] + c, off[i] + a, off[j] + b, v

    def _degrees(self) -> np.ndarray:
        """The degree of each global basis index."""
        return np.repeat(np.arange(self.n + 1), self.dims)

    @_computed_once
    def _is_generator(self) -> np.ndarray:
        """Whether each global basis index is one of the generators.

        The pivots of the decomposables are those of one sparse matrix: a
        row per product ab of positive degrees, its entries (t; a, b) in
        column t, blocked by the degree of t.
        """
        t, a, b, v = self._entries
        deg = self._degrees()
        rows = (deg[a] > 0) & (deg[b] > 0)
        out = deg >= (0 if self.unit_defect else 1)
        out[fplin.pivot_columns(a[rows] * self.total_dim + b[rows], t[rows], v[rows],
                                deg[t[rows]], self.p)] = False
        out.setflags(write=False)
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
        gen = self._is_generator
        xg, gy = np.flatnonzero(gen[b]), np.flatnonzero(gen[a])
        # The key (t, x, g, y) is ((t * size + x) * size + g) * size + y.
        # (xg)y: each entry (u; x, g) meets the entries (t; u, y) of group u.
        # x(gy): each entry (t; x, w) meets the entries (w; g, y) of group
        # size + w, with the opposite sign.
        x, link = np.concatenate([a[xg], a]), np.concatenate([t[xg], size + b])
        outer = _Groups(x, size, link,
                        np.concatenate([((a * size + b) * size)[xg], (t * size + a) * size ** 2]),
                        np.concatenate([v[xg], -v]))
        inner = _Groups(np.concatenate([a, size + t[gy]]), 2 * size,
                        np.concatenate([t * size ** 3 + b, (a * size + b)[gy]]),
                        np.concatenate([v, v[gy]]))
        failed = []
        for x0, x1 in _ranges(np.bincount(x, weights=inner.count[link], minlength=size)):
            to, key, val = (c[outer.span(x0, x1)] for c in outer.columns)
            o, e = inner.meet(to)
            failed.append(_unbalanced(key[o] + inner.columns[0][e], val[o] * inner.columns[1][e], p))
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
        gen = self._is_generator
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
        mult = _tables_from_json(_object(data.get("mult", {}), "mult"), "mult")
        labels = {int(k): v for k, v in _object(data.get("labels", {}), "labels").items()} or None
        return cls(data["p"], data["top_degree"], data["dims"], mult, labels)

    def __repr__(self) -> str:
        return f"GradedAlgebra(p={self.p}, top_degree={self.n}, dims={list(self.dims)})"


def verify_poincare_duality(alg: GradedAlgebra) -> bool:
    """True iff dim H^0 = dim H^n = 1 and every degree pairing is perfect.

    The pairings are the blocks of one sparse matrix: the entries (top; a, b)
    of the products onto the top class, row a, column b, blocked by the
    degree of a.  The pairing of degree i has rank at most dim(i) and at
    most dim(n - i), so the ranks sum to the total dimension exactly when
    every pairing is perfect.
    """
    if alg.dim(0) != 1 or alg.dim(alg.n) != 1:
        return False
    t, a, b, v = alg._entries
    top = t == alg.total_dim - 1
    pivots = fplin.pivot_columns(a[top], b[top], v[top], alg._degrees()[a[top]], alg.p)
    return pivots.size == alg.total_dim
