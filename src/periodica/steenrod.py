"""Power operations on graded algebras over GF(p).

For p = 2 the operations are the squares Sq^s raising degree by s; for
odd p the reduced powers P^s raising degree by 2s(p-1).  An action
stores one matrix per (s, source degree); missing maps are zero and
s = 0 is the identity.  Also: the mod-2 relation calculus on formal
monomials (rewriting to admissible form) and the expression of a
non-2-power Sq^k through compositions led by Sq^(2^i).

The Cartan check joins the nonzero entries of the tables and the maps,
keyed by (t, g, y) below T^3 for T the total dimension, like the axiom
checks of the algebra module.  Its cost follows the nonzero entries, so a
wide connected sum is cheap; in a dense basis the join holds more pairs
than the whole-map products it replaced and runs about as fast as they
did (rebased CP(8) x CP(8) at p = 3).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import fplin
from .algebra import (GradedAlgebra, _Groups, _nonzero_entries, _object, _ranges, _reduced,
                      _tables_from_json, _unbalanced)


class ActionDefect(ValueError):
    """A stored action violates one of the operation axioms."""


class IsPowerOfTwo(ValueError):
    """Sq^k is indecomposable for k a power of two."""


class InducedActionFailure(RuntimeError):
    """The ambient action does not descend to the periodic subquotient."""


def operation_shift(p: int, s: int) -> int:
    """Degree raised by the s-th operation."""
    return s if p == 2 else 2 * s * (p - 1)


def operations(p: int, j: int, top: int) -> range:
    """The s >= 1 whose operation takes degree j to a degree <= top."""
    return range(1, (top - j) // operation_shift(p, 1) + 1)


class SteenrodAction:
    def __init__(self, alg: GradedAlgebra, maps):
        self.alg = alg
        self.p = alg.p
        tables = {}
        for (s, j), m in maps.items():
            if s < 1:
                raise ValueError("store only operations with s >= 1; s = 0 is implied")
            arr = fplin._int_matrix(m)
            t = j + operation_shift(self.p, s)
            if t > alg.n:
                continue
            want = (alg.dim(t), alg.dim(j))
            if arr.shape != want:
                raise ValueError(f"operation ({s}, {j}) has shape {arr.shape}, expected {want}")
            tables[(s, j)] = arr
        self.maps, self._buffer = _reduced(tables, self.p)

    def target_degree(self, s: int, j: int) -> int:
        return j + operation_shift(self.p, s)

    def op_matrix(self, s: int, j: int) -> np.ndarray:
        if s == 0:
            return np.eye(self.alg.dim(j), dtype=np.int64)
        m = self.maps.get((s, j))
        if m is None:
            return np.zeros((self.alg.dim(self.target_degree(s, j)), self.alg.dim(j)), dtype=np.int64)
        return m

    def apply(self, s: int, j: int, vec) -> np.ndarray:
        v = fplin.as_vector(vec, self.p)
        return (self.op_matrix(s, j) @ v) % self.p

    def to_dict(self) -> dict:
        return {"maps": {f"{s},{j}": m.tolist() for (s, j), m in sorted(self.maps.items())}}

    @classmethod
    def from_dict(cls, alg: GradedAlgebra, data: dict) -> "SteenrodAction":
        data = _object(data, "the action")
        return cls(alg, _tables_from_json(_object(data.get("maps", {}), "maps"), "maps"))


def _cartan_defect(alg: GradedAlgebra, act: SteenrodAction) -> str | None:
    """None when P^s(gy) = sum over h + k = s of P^h(g) P^k(y) for every
    s >= 1, generator g and basis vector y, else the least (|g|, |y|, s)
    where it fails.

    Both sides are joins of entries, keyed (t, g, y) below T^3 for T the
    total dimension; the degrees of t, g and y fix s, as the shift is
    injective in s.  P^s(gy): each table entry (u; g, y) meets the entries
    (t; u) of the operations on u.  P^h(g) P^k(y): each entry (x; g) of an
    operation on g, and (g; g) for P^0, meets the table entries (t; x, b),
    and each of those the entries (b; y) of an operation onto b, and (b; b)
    for P^0 when h >= 1.  Each product is reduced mod p before the sums, so
    a key sums at most T + T^2 < 2^32 terms below 2^21.  The join runs over
    ranges of g of at most _JOIN_ROWS pairs each; a g with more pairs is a
    range alone.
    """
    t, a, b, v = alg._entries
    p, size, deg = alg.p, alg.total_dim, alg._degrees()
    # the operation entries (x; u): P^s(u), s >= 1, has coordinate ov on x,
    # with global indices as in alg._entries
    s, j, ox, ou, ov = _nonzero_entries(act.maps, act._buffer)
    off = np.cumsum((0, *alg.dims))
    ox, ou = off[j + operation_shift(p, s)] + ox, off[j] + ou
    gen = alg._is_generator
    every, one = np.arange(size), np.ones(size, dtype=np.int64)
    # P^s(gy), grouped by g, and the operations by their source u
    gy = gen[a]
    products = _Groups(a[gy], size, t[gy], (a * size + b)[gy], v[gy])
    on_source = _Groups(ou, size, ox * size ** 2, ov)
    # P^h(g), grouped by g, each entry (x; g) with the group of the
    # operations onto b that its product entries meet: b for h = 0, size + b
    # for h >= 1, where P^0 joins them
    og = gen[ou]
    g, x = np.concatenate([ou[og], every[gen]]), np.concatenate([ox[og], every[gen]])
    lift = np.where(np.arange(g.size) < og.sum(), size, 0)
    powers = _Groups(g, size, x, g * size, np.concatenate([ov[og], one[gen]]), lift)
    by_left = _Groups(a, size, t * size ** 2, b, v)
    onto = _Groups(np.concatenate([ox, size + ox, size + every]), 2 * size,
                   np.concatenate([ou, ou, every]), np.concatenate([ov, ov, one]))
    # the pairs of each g: of P^s(gy), and of both steps of P^h(g) P^k(y)
    after = np.concatenate([np.bincount(a, weights=onto.count[h + b], minlength=size)
                            for h in (0, size)])
    per_g = np.bincount(np.concatenate([a[gy], g]), minlength=size, weights=np.concatenate(
        [on_source.count[t[gy]], by_left.count[x] + after[lift + x]]))
    failed = []
    for g0, g1 in _ranges(per_g):
        u, key, val = (c[products.span(g0, g1)] for c in products.columns)
        o, e = on_source.meet(u)
        left_key = key[o] + on_source.columns[0][e]
        left_val = val[o] * on_source.columns[1][e] % p
        x, key, val, lift = (c[powers.span(g0, g1)] for c in powers.columns)
        o, e = by_left.meet(x)
        key = key[o] + by_left.columns[0][e]
        val = val[o] * by_left.columns[2][e] % p
        o, e = onto.meet(lift[o] + by_left.columns[1][e])
        failed.append(_unbalanced(np.concatenate([left_key, key[o] + onto.columns[0][e]]),
                                  np.concatenate([left_val, -(val[o] * onto.columns[1][e] % p)]), p))
    key = np.concatenate([np.zeros(0, dtype=np.int64), *failed])
    if not key.size:
        return None
    t, key = np.divmod(key, size ** 2)
    g, y = np.divmod(key, size)
    shift = deg[t] - deg[g] - deg[y]
    first = np.lexsort((shift, deg[y], deg[g]))[0]
    s = shift[first] if p == 2 else shift[first] // (2 * (p - 1))
    return f"Cartan formula fails for s={s} on degrees ({deg[g[first]]}, {deg[y[first]]})"


def verify_action(alg: GradedAlgebra, act: SteenrodAction) -> None:
    """Check instability, the top-power axiom and the Cartan formula.

    The Cartan formula is checked for P(xy) with x a generator of the
    algebra and y anything.  The x that satisfy it against every y are
    closed under products in an associative algebra, so this covers every
    product in either order; a non-associative algebra is refused.
    """
    if act.alg is not alg and act.alg.to_dict() != alg.to_dict():
        raise ActionDefect("action was built over a different algebra")
    p, n = alg.p, alg.n
    for (s, j), m in act.maps.items():
        unstable = s > j if p == 2 else 2 * s > j
        if unstable and m.any():
            raise ActionDefect(f"operation ({s}, {j}) must vanish above the degree")
    for j in range(1, n + 1):
        if alg.dim(j) == 0:
            continue
        s = j if p == 2 else (j // 2 if j % 2 == 0 else None)
        if s is None or s == 0:
            continue
        if act.target_degree(s, j) > n:
            continue
        # column b of the power is the p-th power of the b-th basis vector;
        # all of them are zero when a table of the chain is absent
        chain = [(j, j)] if p == 2 else [(j, e * j) for e in range(1, p)]
        if any(key not in alg.mult for key in chain):
            power = (s, j) not in act.maps
        elif p == 2:
            power = np.array_equal(act.op_matrix(s, j), alg.mult3(j, j).diagonal(axis1=1, axis2=2))
        else:
            want = np.eye(alg.dim(j), dtype=np.int64)
            for e in range(1, p):
                want = np.einsum("tbc,cb->tb", alg.mult3(j, e * j), want) % p
            power = np.array_equal(act.op_matrix(s, j), want)
        if not power:
            raise ActionDefect(f"top operation on degree {j} is not the {'square' if p == 2 else 'p-th power'}")
    if alg.associativity_defect is not None:
        raise ActionDefect(f"the Cartan check needs an associative algebra: {alg.associativity_defect}")
    cartan = _cartan_defect(alg, act)
    if cartan is not None:
        raise ActionDefect(cartan)


def binom_odd(n: int, k: int) -> bool:
    """True iff C(n, k) is odd."""
    return 0 <= k <= n and (k & (n - k)) == 0


@lru_cache(maxsize=None)
def _normal_form_mono(mono: tuple[int, ...]) -> frozenset:
    for t in range(len(mono) - 1):
        a, b = mono[t], mono[t + 1]
        if a < 2 * b:
            out: set = set()
            for j in range(a // 2 + 1):
                if not binom_odd(b - 1 - j, a - 2 * j):
                    continue
                mid = (a + b - j,) if j == 0 else (a + b - j, j)
                out ^= _normal_form_mono(mono[:t] + mid + mono[t + 2 :])
            return frozenset(out)
    return frozenset({mono})


def adem_normal_form(monos) -> frozenset:
    """Mod-2 sum of monomials rewritten to admissible form."""
    out: set = set()
    for mono in monos:
        mono = tuple(int(i) for i in mono)
        if any(i < 1 for i in mono):
            raise ValueError("monomial entries must be >= 1")
        out ^= _normal_form_mono(mono)
    return frozenset(out)


def _xor_into(target: set, mono: tuple) -> None:
    if mono in target:
        target.remove(mono)
    else:
        target.add(mono)


@lru_cache(maxsize=None)
def decompose_sq(k: int) -> dict:
    """Write Sq^k as a sum of composites Sq^(2^i) . Q_i, for k not a power of 2.

    Returns {2^i: tuple of admissible monomials of Q_i}.  The identity is
    re-checked through the admissible normal form before returning.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k & (k - 1) == 0:
        raise IsPowerOfTwo(f"Sq^{k} is indecomposable")
    for a in range(1, k):
        b = k - a
        if a < 2 * b and binom_odd(b - 1, a):
            break
    else:
        raise AssertionError("unreachable: a splitting pair always exists")
    terms: set = {(a, b)}
    for j in range(1, a // 2 + 1):
        if binom_odd(b - 1 - j, a - 2 * j):
            _xor_into(terms, (k - j, j))
    by_lead: dict[int, set] = {}
    for mono in terms:
        lead, tail = mono[0], mono[1:]
        if lead & (lead - 1) == 0:
            group = by_lead.setdefault(lead, set())
            _xor_into(group, tail)
        else:
            for pw, q_monos in decompose_sq(lead).items():
                group = by_lead.setdefault(pw, set())
                for q in q_monos:
                    _xor_into(group, q + tail)
    result = {}
    check: set = set()
    for pw in sorted(by_lead):
        q = adem_normal_form(by_lead[pw])
        if not q:
            continue
        result[pw] = tuple(sorted(q))
        for mono in q:
            check ^= {(pw,) + mono}
    if adem_normal_form(check) != frozenset({(k,)}):
        raise fplin.ConsistencyFailure(f"the terms for Sq{k} do not recombine to Sq{k}")
    return result


def induced_action_on_window(window, act: SteenrodAction) -> SteenrodAction:
    """Restrict a parent action to a window subquotient.

    Needs p * k <= n - 1 for the certificate degree k.  Checks that every
    operation kills the degree-1 kernel, that operation images of window
    representatives stay inside the window spaces, and that operations
    applied to the inducing element stay multiples of it; failures raise
    InducedActionFailure since they contradict a verified certificate.
    A target degree is skipped only when the parent's is empty too.

    "P^s(x) is a multiple of x" is tested only in degree t = n - 1, against
    the window's top space, the image of x from degree n - 1 - k.  Below
    it the test cannot fail: for 1 + k <= t <= n - 2, window degree t is
    the whole parent degree, and subquotient has checked that cupping with
    x is a bijection from window degree t - k onto it, so x times parent
    degree t - k is all of parent degree t.  For a direct or window
    certificate this is the window test's surjectivity, which subquotient
    re-verifies; for a product certificate it also follows by composing
    the factors' surjective ranges.  The restricted tables are read with
    fplin.restricted_matrix, which solves nothing between whole degrees.
    """
    parent = window.parent
    p, n, k = window.p, window.n, window.k
    if p * k > n - 1:
        raise InducedActionFailure(f"need p*k <= n-1, got {p * k} > {n - 1}")
    xv = window.certificate.element.as_vector() % p
    for s in operations(p, k, n - 1):
        if k + operation_shift(p, s) == n - 1 and parent.dim(n - 1):
            if not window.spaces[n - 1].contains(act.apply(s, k, xv)):
                raise InducedActionFailure(
                    f"operation {s} of the inducing element is not one of its "
                    f"multiples in degree {n - 1}")
    for u in window.degree1_kernel.basis:
        for s in operations(p, 1, n - 1):
            if act.apply(s, 1, u).any():
                raise InducedActionFailure(
                    f"a degree-1 kernel class survives operation {s}")
    maps = {}
    for j in window.nonzero_degrees:
        for s in operations(p, j, n - 1):
            t = j + operation_shift(p, s)
            if not parent.dim(t):
                continue
            try:
                table = fplin.restricted_matrix(act.op_matrix(s, j), window.spaces[j],
                                                window.spaces[t])
            except ValueError:
                raise InducedActionFailure(
                    f"operation ({s}, {j}) leaves the window at degree {t}")
            if table.any():
                maps[(s, j)] = table
    return SteenrodAction(window, maps)

