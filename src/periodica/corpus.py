"""Fixture builders: truncated polynomial models, products and connected sums.

Every build returns a validated algebra, an optional verified Steenrod
action, and an expectation record derived from the family shape alone so
the main algorithms can be tested against independent ground truth.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from . import fplin
from .algebra import AlgebraDefect, GradedAlgebra, verify_poincare_duality
from .steenrod import SteenrodAction, operation_shift, verify_action

DEFAULT_TOP_BOUND = 64

ATOM_FAMILIES = ("Sphere", "ComplexProj", "QuatProj", "TruncatedPoly")
FAMILIES = ATOM_FAMILIES + ("Product", "ConnectedSum")


class SizeBound(ValueError):
    """Requested fixture exceeds the configured top-degree bound."""


@dataclass(frozen=True)
class FixtureSpec:
    family: str
    args: tuple
    p: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    def _body(self) -> str:
        inner = ",".join(a._body() if isinstance(a, FixtureSpec) else str(a)
                         for a in self.args)
        return f"{self.family}({inner})"

    def __str__(self) -> str:
        return f"{self._body()}@{self.p}"


@dataclass(frozen=True)
class Expectation:
    """Ground truth a fixture family promises; None fields are not asserted."""
    periodic: bool | None
    min_period: int | None
    irreducible: bool | None
    summand_count: int | None


@dataclass(frozen=True)
class Fixture:
    spec: FixtureSpec
    algebra: GradedAlgebra
    action: SteenrodAction | None
    expectation: Expectation


def sphere(n: int, p: int = 2) -> FixtureSpec:
    return FixtureSpec("Sphere", (n,), p)


def complex_proj(m: int, p: int = 2) -> FixtureSpec:
    return FixtureSpec("ComplexProj", (m,), p)


def quat_proj(m: int, p: int = 2) -> FixtureSpec:
    return FixtureSpec("QuatProj", (m,), p)


def truncated_poly(g: int, t: int, p: int = 2) -> FixtureSpec:
    return FixtureSpec("TruncatedPoly", (g, t), p)


def product(a: FixtureSpec, b: FixtureSpec) -> FixtureSpec:
    if a.p != b.p:
        raise ValueError("product factors must share the prime")
    return FixtureSpec("Product", (a, b), a.p)


def connected_sum(a: FixtureSpec, b: FixtureSpec) -> FixtureSpec:
    if a.p != b.p:
        raise ValueError("connected summands must share the prime")
    return FixtureSpec("ConnectedSum", (a, b), a.p)


_TOKEN = re.compile(r"\s*([A-Za-z]+|\d+|[(),@])")


def parse_spec(text: str, default_p: int = 2) -> FixtureSpec:
    """Parse strings like "ConnectedSum(ComplexProj(4),ComplexProj(4))@2"."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad spec syntax at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take(expect=None):
        nonlocal idx
        if idx >= len(tokens):
            raise ValueError("spec ended early")
        tok = tokens[idx]
        if expect is not None and tok != expect:
            raise ValueError(f"expected {expect!r}, got {tok!r}")
        idx += 1
        return tok

    def node():
        name = take()
        if name not in FAMILIES:
            raise ValueError(f"unknown family {name!r}")
        take("(")
        args = []
        while True:
            tok = peek()
            if tok == ")" or tok is None:
                break
            args.append(int(take()) if tok.isdigit() else node())
            if peek() == ",":
                take(",")
        take(")")
        return name, tuple(args)

    tree = node()
    p = default_p
    if peek() == "@":
        take("@")
        p = int(take())
    if idx != len(tokens):
        raise ValueError(f"trailing spec tokens {tokens[idx:]!r}")
    p = fplin.check_modulus(p)

    def stamp(t):
        name, args = t
        return FixtureSpec(name, tuple(stamp(a) if isinstance(a, tuple) else a
                                       for a in args), p)

    return stamp(tree)


def _atom_shape(spec: FixtureSpec) -> tuple[int, int]:
    """(generator degree, truncation exponent) of an atomic family."""
    if spec.family == "Sphere":
        (n,) = spec.args
        return int(n), 1
    if spec.family == "ComplexProj":
        (m,) = spec.args
        return 2, int(m)
    if spec.family == "QuatProj":
        (m,) = spec.args
        return 4, int(m)
    (g, t) = spec.args
    return int(g), int(t)


def top_degree_of(spec: FixtureSpec) -> int:
    if spec.family == "Product":
        return top_degree_of(spec.args[0]) + top_degree_of(spec.args[1])
    if spec.family == "ConnectedSum":
        left = top_degree_of(spec.args[0])
        right = top_degree_of(spec.args[1])
        if left != right:
            raise ValueError("connected summands must share the top degree")
        return left
    g, t = _atom_shape(spec)
    return g * t


def _with_units(dims, mult):
    """Add the multiplication rows forced by the degree-0 unit."""
    for j, d in enumerate(dims):
        if d == 0:
            continue
        eye = np.eye(d, dtype=np.int64)
        mult.setdefault((0, j), eye)
        if j:
            mult.setdefault((j, 0), eye)
    return mult


def _build_truncated(p: int, g: int, t: int):
    """Single-generator truncated algebra with its power-operation rules."""
    if g < 1 or t < 1:
        raise ValueError("need generator degree >= 1 and truncation >= 1")
    if p != 2 and g % 2 and t > 1:
        raise ValueError("an odd-degree generator squares to zero at odd primes")
    n = g * t
    dims = [1 if i % g == 0 and i // g <= t else 0 for i in range(n + 1)]
    mult = {}
    for a in range(1, t + 1):
        for b in range(1, t + 1 - a):
            mult[(g * a, g * b)] = np.array([[1]], dtype=np.int64)
    labels = {g * m: (f"y^{m}" if m > 1 else "y",) for m in range(1, t + 1)}
    labels[0] = ("1",)
    alg = GradedAlgebra(p, n, dims, _with_units(dims, mult), labels)
    maps = {}
    if p == 2:
        for m in range(1, t + 1):
            for s in range(1, t + 1 - m):
                c = math.comb(m, s) % 2
                if c:
                    maps[(g * s, g * m)] = np.array([[c]], dtype=np.int64)
    elif g % 2 == 0:
        w = g // 2
        if (p - 1) % w and t > 1:
            return alg, None
        for m in range(1, t + 1):
            s = 1
            while True:
                e = s * (p - 1)
                if g * m + 2 * e > n:
                    break
                if e % w == 0:
                    m2 = m + e // w
                    c = math.comb(w * m, s) % p
                    if m2 <= t and c:
                        maps[(s, g * m)] = np.array([[c]], dtype=np.int64)
                s += 1
    return alg, SteenrodAction(alg, maps)


def _kunneth_blocks(A: GradedAlgebra, B: GradedAlgebra):
    """Per degree k, {i: offset} of the nonzero blocks A_i (x) B_(k-i).

    Blocks run in ascending i; inside a block the basis vector
    a (x) b sits at offset + a * B.dim(k-i) + b.
    """
    blocks, dims = [], []
    for k in range(A.n + B.n + 1):
        offsets, size = {}, 0
        for i in range(max(0, k - B.n), min(A.n, k) + 1):
            if A.dim(i) and B.dim(k - i):
                offsets[i] = size
                size += A.dim(i) * B.dim(k - i)
        blocks.append(offsets)
        dims.append(size)
    return blocks, dims


def _build_product(A: GradedAlgebra, actA, B: GradedAlgebra, actB):
    """Tensor product; (a (x) b)(c (x) d) = (-1)^(deg b * deg c) ac (x) bd.

    Each table and each operation is filled block by block from the
    factors' nonzero tables and maps.
    """
    p = A.p
    n = A.n + B.n
    blocks, dims = _kunneth_blocks(A, B)
    m3a = {key: A.mult3(*key) for key in A.mult}
    m3b = {key: B.mult3(*key) for key in B.mult}
    mult = {}
    for k in range(n + 1):
        for l in range(n + 1 - k):
            if not (dims[k] and dims[l] and dims[k + l]):
                continue
            table = np.zeros((dims[k + l], dims[k], dims[l]), dtype=np.int64)
            for i1, u in blocks[k].items():
                for i2, v in blocks[l].items():
                    ma, mb = m3a.get((i1, i2)), m3b.get((k - i1, l - i2))
                    if ma is None or mb is None:
                        continue
                    (ta, a1, a2), (tb, b1, b2) = ma.shape, mb.shape
                    block = np.einsum("xac,ybd->xyabcd", ma, mb).reshape(ta * tb, a1 * b1, a2 * b2)
                    if (k - i1) * i2 % 2:
                        block = -block
                    row = blocks[k + l][i1 + i2]
                    table[row:row + ta * tb, u:u + a1 * b1, v:v + a2 * b2] = block % p
            if table.any():
                mult[(k, l)] = table.reshape(dims[k + l], dims[k] * dims[l])
    alg = GradedAlgebra(p, n, dims, mult)
    if actA is None or actB is None:
        return alg, None

    def op(act, s, j):
        """Operation s on degree j, or None when it is zero."""
        return act.op_matrix(s, j) if s == 0 else act.maps.get((s, j))

    maps = {}
    for k in range(1, n + 1):
        if dims[k] == 0:
            continue
        s = 1
        while k + operation_shift(p, s) <= n:
            t = k + operation_shift(p, s)
            table = np.zeros((dims[t], dims[k]), dtype=np.int64)
            for i, u in blocks[k].items():
                for h in range(s + 1):
                    oa, ob = op(actA, h, i), op(actB, s - h, k - i)
                    if oa is None or ob is None:
                        continue
                    (xa, ya), (xb, yb) = oa.shape, ob.shape
                    row = blocks[t][i + operation_shift(p, h)]
                    table[row:row + xa * xb, u:u + ya * yb] = (
                        np.einsum("xa,yb->xyab", oa, ob).reshape(xa * xb, ya * yb) % p)
            if table.any():
                maps[(s, k)] = table
            s += 1
    return alg, SteenrodAction(alg, maps)


def _build_connected_sum(A: GradedAlgebra, actA, B: GradedAlgebra, actB):
    """A and B glued at their ends: positive products of the two sides
    vanish, and both fundamental classes become the one top class."""
    p = A.p
    n = A.n
    if B.n != n or n < 2:
        raise ValueError("connected summands must share a top degree >= 2")
    if A.dim(0) != 1 or B.dim(0) != 1 or A.dim(n) != 1 or B.dim(n) != 1:
        raise ValueError("connected summands need one-dimensional ends")
    dims = [1] + [A.dim(i) + B.dim(i) for i in range(1, n)] + [1]

    def rows(t, side):
        """Rows of degree t that side 0 (A) or 1 (B) occupies."""
        if t == n:
            return slice(0, 1)
        return slice(0, A.dim(t)) if side == 0 else slice(A.dim(t), dims[t])

    mult = {}
    for i in range(1, n):
        for j in range(1, n + 1 - i):
            if not (dims[i] and dims[j] and dims[i + j]):
                continue
            table = np.zeros((dims[i + j], dims[i], dims[j]), dtype=np.int64)
            table[rows(i + j, 0), :A.dim(i), :A.dim(j)] = A.mult3(i, j)
            table[rows(i + j, 1), A.dim(i):, A.dim(j):] = B.mult3(i, j)
            if table.any():
                mult[(i, j)] = table.reshape(dims[i + j], dims[i] * dims[j])
    alg = GradedAlgebra(p, n, dims, _with_units(dims, mult))
    if actA is None or actB is None:
        return alg, None
    maps = {}
    for side, act in enumerate((actA, actB)):
        for (s, j), m in act.maps.items():
            if j == 0 or j >= n:
                continue
            t = j + operation_shift(p, s)
            table = maps.setdefault((s, j), np.zeros((dims[t], dims[j]), dtype=np.int64))
            table[rows(t, side), rows(j, side)] = m
    maps = {key: m for key, m in maps.items() if m.any()}
    return alg, SteenrodAction(alg, maps)


def _atom_expectation(g: int, t: int) -> Expectation:
    if t == 1:
        if g >= 2:
            return Expectation(True, 1, True, 0)
        return Expectation(False, None, None, None)
    if t == 2:
        return Expectation(False, None, None, None)
    if t == 3:
        return Expectation(True, g, None, None)
    return Expectation(True, g, True, 1)


def _sphere_plane_expectation(m: int) -> Expectation:
    """S^2 x CP^m: GF(p)[y]/(y^(m+1)) tensor an exterior class s in degree 2.

    Cupping with y shifts by 2, so the period is 2 once m >= 2.  For m >= 3
    the direct window ring in degree 2 is GF(p)[s]/(s^2), which is local:
    one summand, irreducible.  S^2 x CP^1 is S^2 x S^2, not periodic.
    """
    if m == 1:
        return Expectation(False, None, None, None)
    if m == 2:
        return Expectation(True, 2, None, None)
    return Expectation(True, 2, True, 1)


def _leaves(spec: FixtureSpec):
    if spec.family == "ConnectedSum":
        return _leaves(spec.args[0]) + _leaves(spec.args[1])
    return (spec,)


def _expectation(spec: FixtureSpec) -> Expectation:
    if spec.family == "Product":
        a, b = spec.args
        if a.family == "Sphere" and b.family == "Sphere":
            return Expectation(False, None, None, None)
        if a == sphere(2, a.p) and b.family == "ComplexProj":
            return _sphere_plane_expectation(int(b.args[0]))
        return Expectation(None, None, None, None)
    if spec.family == "ConnectedSum":
        leaves = _leaves(spec)
        if len(set(leaves)) != 1:
            return Expectation(None, None, None, None)
        leaf = _expectation(leaves[0])
        if leaf.periodic is False:
            return leaf
        if leaf.periodic is None or leaf.min_period is None:
            return Expectation(None, None, None, None)
        count = None
        if leaf.summand_count is not None:
            count = leaf.summand_count * len(leaves)
        irr = None
        if count is not None:
            irr = leaf.irreducible if count <= 1 else False
        return Expectation(True, leaf.min_period, irr, count)
    return _atom_expectation(*_atom_shape(spec))


def build(spec: FixtureSpec, bound: int = DEFAULT_TOP_BOUND) -> Fixture:
    """Build, validate and package a fixture with its expectation record.

    Raises AlgebraDefect or ActionDefect if the built tables fail a check.
    """
    top = top_degree_of(spec)
    if top > bound:
        raise SizeBound(f"top degree {top} exceeds the bound {bound}")

    def rec(node):
        if node.family == "Product":
            la, aa = rec(node.args[0])
            lb, ab = rec(node.args[1])
            return _build_product(la, aa, lb, ab)
        if node.family == "ConnectedSum":
            la, aa = rec(node.args[0])
            lb, ab = rec(node.args[1])
            return _build_connected_sum(la, aa, lb, ab)
        g, t = _atom_shape(node)
        return _build_truncated(node.p, g, t)

    alg, act = rec(spec)
    alg.validate()
    if not verify_poincare_duality(alg):
        raise AlgebraDefect(f"fixture {spec} fails the duality pairing check")
    if act is not None:
        verify_action(alg, act)
    return Fixture(spec, alg, act, _expectation(spec))
