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
from .algebra import AlgebraDefect, GradedAlgebra, _nonzero_entries, verify_poincare_duality
from .steenrod import SteenrodAction, operation_shift, operations, verify_action

DEFAULT_TOP_BOUND = 64
# Specs nest at most this many levels (an atom is one level): printing,
# comparing and building a spec recurse once or more per level.
MAX_SPEC_DEPTH = 256

# The number of int arguments each atomic family takes.
ATOM_ARITY = {"Sphere": 1, "ComplexProj": 1, "QuatProj": 1, "TruncatedPoly": 2}
FAMILIES = tuple(ATOM_ARITY) + ("Product", "ConnectedSum")


class SizeBound(ValueError):
    """Requested fixture exceeds the configured top-degree bound."""


@dataclass(frozen=True)
class FixtureSpec:
    family: str
    args: tuple
    p: int
    depth = 1  # levels of nesting, set on each Product and ConnectedSum

    def __post_init__(self):
        """Refuse a family with the wrong number or kind of arguments, or
        nested deeper than MAX_SPEC_DEPTH."""
        args, want = self.args, ATOM_ARITY.get(self.family)
        if want is not None:
            # want is 1 or 2, so the first and the last argument are all of them
            if type(args) is tuple and len(args) == want and int is type(args[0]) is type(args[-1]):
                return
            raise ValueError(f"{self.family} takes {want} int argument"
                             f"{'s' if want > 1 else ''}, got {self._args_text()}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not (type(args) is tuple and len(args) == 2 and isinstance(args[0], FixtureSpec)
                and isinstance(args[1], FixtureSpec) and args[0].p == self.p == args[1].p):
            raise ValueError(f"{self.family} takes two fixture specs at the prime {self.p}, "
                             f"got {self._args_text()}")
        depth = 1 + max(args[0].depth, args[1].depth)
        if depth > MAX_SPEC_DEPTH:
            raise _too_deep(self.family)
        object.__setattr__(self, "depth", depth)

    def _args_text(self) -> str:
        if type(self.args) is not tuple:
            return repr(self.args)
        return "(" + ",".join(str(a) for a in self.args) + ")"

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


def product(a: FixtureSpec, b: FixtureSpec) -> FixtureSpec:
    return FixtureSpec("Product", (a, b), a.p)


def connected_sum(a: FixtureSpec, b: FixtureSpec) -> FixtureSpec:
    return FixtureSpec("ConnectedSum", (a, b), a.p)


def _too_deep(family: str) -> ValueError:
    return ValueError(f"{family} takes fixture specs nested at most {MAX_SPEC_DEPTH} levels deep")


_TOKEN = re.compile(r"\s*([A-Za-z]+|\d+|[(),@])")
_TOKENS = re.compile(f"(?:{_TOKEN.pattern})*")


def parse_spec(text: str, default_p: int = 2) -> FixtureSpec:
    """Parse strings like "ConnectedSum(ComplexProj(4),ComplexProj(4))@2"."""
    end = _TOKENS.match(text).end()
    if end < len(text):
        raise ValueError(f"bad spec syntax at {text[end:]!r}")
    tokens = _TOKEN.findall(text)
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

    def node(depth):
        name = take()
        if name not in FAMILIES:
            raise ValueError(f"unknown family {name!r}")
        take("(")
        args = []
        while True:
            tok = peek()
            if tok == ")" or tok is None:
                break
            if not tok.isdigit() and depth == MAX_SPEC_DEPTH:
                raise _too_deep(name)
            args.append(int(take()) if tok.isdigit() else node(depth + 1))
            if peek() == ",":
                take(",")
        take(")")
        return name, tuple(args)

    tree = node(1)
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
        return n, 1
    if spec.family == "ComplexProj":
        (m,) = spec.args
        return 2, m
    if spec.family == "QuatProj":
        (m,) = spec.args
        return 4, m
    (g, t) = spec.args
    return g, t


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
            for s in operations(p, g * m, n):
                e = s * (p - 1)
                if e % w == 0:
                    m2 = m + e // w
                    c = math.comb(w * m, s) % p
                    if m2 <= t and c:
                        maps[(s, g * m)] = np.array([[c]], dtype=np.int64)
    return alg, SteenrodAction(alg, maps)


def _kunneth_blocks(A: GradedAlgebra, B: GradedAlgebra):
    """Offsets [k, i] of the blocks A_i (x) B_(k-i) in degree k, and the dims.

    Blocks run in ascending i; inside a block the basis vector
    a (x) b sits at offset + a * B.dim(k-i) + b.  An offset [k, i] with no
    block A_i (x) B_(k-i) is 0.
    """
    i, j = np.indices((A.n + 1, B.n + 1))
    blocks = np.zeros((A.n + B.n + 1, A.n + 1), dtype=np.int64)
    blocks[i + j, i] = np.outer(A.dims, B.dims)  # the size of A_i (x) B_j
    ends = np.cumsum(blocks, axis=1)
    offsets = np.zeros_like(blocks)
    offsets[i + j, i] = (ends - blocks)[i + j, i]
    return offsets, ends[:, -1].tolist()


def _factor_entries(alg: GradedAlgebra) -> np.ndarray:
    """The nonzero table entries of alg as the columns of a (6, count)
    array, each column (i, j, c, a, b, v): v at row c, column (a, b) of
    table (i, j)."""
    i, j, c, ab, v = _nonzero_entries(alg.mult, alg._buffer)
    return np.array([i, j, c, *np.divmod(ab, np.array(alg.dims, dtype=np.int64)[j]), v])


def _op_entries(act: SteenrodAction) -> np.ndarray:
    """The nonzero entries of act's operations, P^0 the identity included,
    as the columns of a (5, count) array, each column (s, j, x, a, v): v at
    row x, column a of operation s on degree j."""
    dims = act.alg.dims
    j = np.repeat(np.arange(len(dims)), dims)
    x = np.arange(j.size) - np.repeat(np.cumsum(dims) - dims, dims)
    eye = (np.zeros_like(j), j, x, x, np.ones_like(j))
    return np.concatenate([eye, _nonzero_entries(act.maps, act._buffer)], axis=1)


def _scatter(codes, rows, cols, vals, shape) -> dict:
    """{code: table} in ascending code, where entry e puts vals[e] at
    (rows[e], cols[e]) of table codes[e], and shape(code) is a table's shape.
    No two entries may share a position."""
    shapes = {int(c): shape(int(c)) for c in np.flatnonzero(np.bincount(codes))}
    width = np.zeros(max(shapes, default=-1) + 1, dtype=np.int64)
    base = np.zeros_like(width)
    size = 0
    for c, (r, w) in shapes.items():
        base[c], width[c] = size, w
        size += r * w
    buf = np.zeros(size, dtype=np.int64)
    buf[base[codes] + rows * width[codes] + cols] = vals
    return {c: buf[base[c]:base[c] + r * w].reshape(r, w) for c, (r, w) in shapes.items()}


def _build_product(A: GradedAlgebra, actA, B: GradedAlgebra, actB):
    """Tensor product; (a (x) b)(c (x) d) = (-1)^(deg b * deg c) ac (x) bd.

    Each nonzero product entry comes from one pair of nonzero factor table
    entries, and each nonzero operation entry from one pair of nonzero
    factor operation entries under the Cartan formula
    P^s(a (x) b) = sum over h of P^h a (x) P^(s-h) b (P^0 the identity),
    so both are filled from all entry pairs at once.  Tables are keyed
    (k, l) ascending, operations by source degree and then s.
    """
    p = A.p
    w = A.n + B.n + 1  # a key (hi, lo) is coded hi * w + lo
    off, dims = _kunneth_blocks(A, B)
    dB, dk = np.array(B.dims), np.array(dims)
    (i1, i2, c1, a1, b1, v1) = _factor_entries(A)[:, :, None]
    (j1, j2, c2, a2, b2, v2) = _factor_entries(B)[:, None, :]
    k, l = i1 + j1, i2 + j2
    row = off[k + l, i1 + i2] + c1 * dB[j1 + j2] + c2
    col = (off[k, i1] + a1 * dB[j1] + a2) * dk[l] + off[l, i2] + b1 * dB[j2] + b2
    val = np.where(j1 * i2 % 2, -v1 * v2, v1 * v2) % p
    tables = _scatter((k * w + l).ravel(), row.ravel(), col.ravel(), val.ravel(),
                      lambda c: (dims[c // w + c % w], dims[c // w] * dims[c % w]))
    alg = GradedAlgebra(p, w - 1, dims, {divmod(c, w): t for c, t in tables.items()})
    if actA is None or actB is None:
        return alg, None

    (h, i, x, a, va) = _op_entries(actA)[:, :, None]
    (r, j, y, b, vb) = _op_entries(actB)[:, None, :]
    s, k = h + r, i + j
    ti, tj = i + operation_shift(p, h), j + operation_shift(p, r)
    row = off[ti + tj, ti] + x * dB[tj] + y
    col = off[k, i] + a * dB[j] + b
    keep = (s >= 1) & (k >= 1)
    ops = _scatter((k * w + s)[keep], row[keep], col[keep], (va * vb % p)[keep],
                   lambda c: (dims[c // w + operation_shift(p, c % w)], dims[c // w]))
    return alg, SteenrodAction(alg, {divmod(c, w)[::-1]: m for c, m in ops.items()})


def _build_connected_sum(leaves):
    """The (algebra, action) leaves glued at their ends, in order: products
    of classes from two different leaves vanish, and every leaf's fundamental
    class becomes the one top class.

    In each degree 0 < i < n the leaves' blocks follow one another in leaf
    order, so every table and every operation is filled once, block by block.
    """
    algs = [alg for alg, _ in leaves]
    p, n = algs[0].p, algs[0].n
    if n < 2 or any(alg.n != n for alg in algs):
        raise ValueError("connected summands must share a top degree >= 2")
    if any(alg.dim(0) != 1 or alg.dim(n) != 1 for alg in algs):
        raise ValueError("connected summands need one-dimensional ends")
    # off[L][i]: where leaf L's block of degree i starts; every leaf's unit
    # and top class sit at row 0
    sizes = np.array([alg.dims for alg in algs])
    sizes[:, [0, n]] = 0
    off = (np.cumsum(sizes, axis=0) - sizes).tolist()
    dims = [1, *sizes.sum(axis=0)[1:n].tolist(), 1]
    blocks = {}
    for o, alg in zip(off, algs):
        for i, j in alg.mult:
            if i and j:
                blocks.setdefault((i, j), []).append((o, alg.mult3(i, j)))
    mult = {}
    for i, j in sorted(blocks):
        table = np.zeros((dims[i + j], dims[i], dims[j]), dtype=np.int64)
        for o, m in blocks[(i, j)]:
            t, a, b = m.shape
            table[o[i + j]:o[i + j] + t, o[i]:o[i] + a, o[j]:o[j] + b] = m
        mult[(i, j)] = table.reshape(dims[i + j], dims[i] * dims[j])
    alg = GradedAlgebra(p, n, dims, _with_units(dims, mult))
    if any(act is None for _, act in leaves):
        return alg, None
    maps = {}
    for o, (_, act) in zip(off, leaves):
        for (s, j), m in act.maps.items():
            if j:
                t = j + operation_shift(p, s)
                table = maps.setdefault((s, j), np.zeros((dims[t], dims[j]), dtype=np.int64))
                table[o[t]:o[t] + m.shape[0], o[j]:o[j] + m.shape[1]] = m
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
            return _sphere_plane_expectation(b.args[0])
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

    built = {}  # subtree -> (algebra, action), so identical leaves are built once

    def rec(node):
        if node not in built:
            if node.family == "Product":
                built[node] = _build_product(*rec(node.args[0]), *rec(node.args[1]))
            elif node.family == "ConnectedSum":
                built[node] = _build_connected_sum([rec(leaf) for leaf in _leaves(node)])
            else:
                built[node] = _build_truncated(node.p, *_atom_shape(node))
        return built[node]

    alg, act = rec(spec)
    alg.validate()
    if not verify_poincare_duality(alg):
        raise AlgebraDefect(f"fixture {spec} fails the duality pairing check")
    if act is not None:
        verify_action(alg, act)
    return Fixture(spec, alg, act, _expectation(spec))
