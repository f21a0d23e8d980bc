"""Finite-dimensional graded-commutative algebras over GF(p).

A GradedAlgebra stores one multiplication matrix per degree pair (i, j):
shape (dim(i+j), dim(i) * dim(j)), column a * dim(j) + b holding the
product of the a-th degree-i and b-th degree-j basis vectors.  Degrees
outside 0..top_degree are zero.  Missing tables are zero maps.  Tables
are read-only once built, so the generators and the axiom verdicts are
computed once per algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fplin


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
    def associativity_defect(self) -> str | None:
        """None when the product is associative, else the degrees where it fails.

        Light's test: the g with (xg)y = x(gy) for all x, y are closed under
        products, so checking g over the generators covers every element.
        """
        p, n, mult = self.p, self.n, self.mult
        degrees = [d for d in range(n + 1) if self.dim(d)]
        for i, gens in self.generators.items():
            g = list(gens)
            for j in degrees:
                for k in degrees:
                    if i + j + k > n:
                        break
                    # each side is zero when one of its two tables is absent
                    if ((j, i) not in mult or (j + i, k) not in mult) and \
                            ((i, k) not in mult or (j, i + k) not in mult):
                        continue
                    left = np.einsum("tuc,uag->tagc", self.mult3(j + i, k), self.mult3(j, i)[:, :, g]) % p
                    right = np.einsum("tav,vgc->tagc", self.mult3(j, i + k), self.mult3(i, k)[:, g]) % p
                    if not np.array_equal(left, right):
                        return f"associativity fails for degrees ({j}, {i}, {k})"
        return None

    @_computed_once
    def commutativity_defect(self) -> str | None:
        """None when gy = (-1)^(|g||y|) yg for every generator g and every y,
        else the degrees where it fails.  For an associative algebra that is
        graded commutativity: the graded centre is closed under products."""
        p, n = self.p, self.n
        for i, gens in self.generators.items():
            g = list(gens)
            for j in range(n + 1 - i):
                if self.dim(j) == 0 or ((i, j) not in self.mult and (j, i) not in self.mult):
                    continue
                sign = p - 1 if (i % 2 and j % 2 and p != 2) else 1
                if not np.array_equal((sign * self.mult3(j, i)[:, :, g].transpose(0, 2, 1)) % p,
                                      self.mult3(i, j)[:, g]):
                    return f"graded commutativity fails for degrees ({i}, {j})"
        return None

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
