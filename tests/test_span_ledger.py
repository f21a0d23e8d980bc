"""The product span's prefix ledger, checked against the engine it replaced.

ReferenceSpan is _ProductSpan as it was before the ledger: _grow_to walks
degrees 1..k for every k, _multiply deduplicates each block with np.unique
and _unit_degree decides the linear premise afresh for every degree.  Both
engines must give the same keys in the same order, the same factors and
the same refusals, whatever order the degrees are asked in.
"""

import random

import numpy as np
import pytest

from periodica import periodicity as P
from periodica.periodicity import SearchCapExceeded, _block_products, _centroid_decides, _tiles
from test_derived_tables import PERIOD_SPECS
from test_direct_decision import CORPUS_SPECS, build

SPECS = tuple(dict.fromkeys(CORPUS_SPECS + PERIOD_SPECS))
CAPS = (1, 2, 4, 8, 30, 500, P.DEFAULT_SEARCH_CAP)
SEEDS = (1, 2)


class ReferenceSpan(P._ProductSpan):
    """The span grown from degree 1 for every k, blocks deduplicated by np.unique."""

    def _grow_to(self, k):
        alg, cap = self.alg, self.cap
        low = min(self.top, k - 1)
        for d in range(1, low + 1):
            size = alg.p ** alg.dim(d)
            if size > cap:
                raise SearchCapExceeded(f"degree {d} has {size} candidates, cap {cap}")
        total = fresh = 0
        for d in range(1, k + 1):
            direct = len(self._direct(d)) if d <= low else 0
            if d not in self._products:
                held = {tuple(v) for v in self._direct(d).tolist()} if direct else set()
                self._products[d] = self._multiply(d, held, cap - total - direct)
            count = len(self._reach_keys(d)) if d < k else len(self._products[k][0])
            total += count
            fresh += count - direct
            if fresh and total > cap:
                raise SearchCapExceeded(f"product search stored over {cap} vectors")
        return self._products[k][0]

    def _unit_degree(self, d):
        found = [e for e in range(1, min(self.top, d - 1) + 1) if len(self._direct(e))]
        b = found[0] if found else None
        if b and _centroid_decides(self.alg, b) and all(e % b == 0 for e in found):
            return b
        return None

    def _multiply(self, d, held, limit):
        b = self._unit_degree(d)
        if b is None:
            blocks = [(b, self._reach_keys(d - b), self._direct(b))
                      for b in range(1, min(self.top, d - 1) + 1)]
        elif d % b:
            blocks = []
        else:
            blocks = [(b, self._reach_keys(d - b)[:1], self._direct(b))]
        alg, p = self.alg, self.alg.p
        index, parents, fresh = {}, [], 0
        for b, keys, inducers in blocks:
            m3 = alg.mult3(d - b, b)
            for r0, r1, s0, s1 in _tiles(len(keys), len(inducers)):
                flat = _block_products(m3, keys[r0:r1], inducers[s0:s1], p)
                first = np.sort(np.unique(flat, axis=0, return_index=True)[1])
                width = s1 - s0
                for j, row in zip(first.tolist(), flat[first].tolist()):
                    t = tuple(row)
                    if t in index:
                        continue
                    index[t] = len(parents)
                    parents.append((b, r0 + j // width, s0 + j % width))
                    if t not in held:
                        fresh += 1
                        if fresh > limit:
                            raise SearchCapExceeded(
                                f"product search stored over {self.cap} vectors")
        return index, parents


def answers(span, degrees):
    """Per call, span(k)'s keys in order with their factors, or its refusal."""
    out = []
    for k in degrees:
        try:
            out.append([(t, span.factors(k, t)) for t in span.span(k)])
        except SearchCapExceeded as exc:
            out.append(str(exc))
    return out


def orders(n):
    """Degrees 1..n-1 ascending, descending, and twice over in two seeded shuffles."""
    up = list(range(1, n))
    yield up
    yield up[::-1]
    for seed in SEEDS:
        twice = up + up
        random.Random(seed).shuffle(twice)
        yield twice


@pytest.mark.parametrize("text", SPECS)
def test_ledger_matches_the_reference(text):
    """Every cap and call order gives the reference's answers, call for call."""
    alg = build(text)
    for cap in CAPS:
        for degrees in orders(alg.n):
            got = answers(P._ProductSpan(alg, cap), degrees)
            assert got == answers(ReferenceSpan(alg, cap), degrees), (cap, degrees)


def test_minimum_period_counts_each_degree_once(monkeypatch):
    """On Product(Sphere(2),ComplexProj(10))@3 (n = 22), minimum_period sorts
    at most 2(n - 1) reaches and multiplies each degree once; the reference,
    which walks degrees 1..k for every k, sorts many more.  At cap 30
    degree 12's products pass the cap: it is multiplied once as span(12)'s
    last term and once in the prefix, which then refuses every later k
    without multiplying it again."""
    alg = build("Product(Sphere(2),ComplexProj(10))@3")
    reached, multiplied = [], []
    reach_keys, multiply = P._ProductSpan._reach_keys, P._ProductSpan._multiply

    def counted_reach_keys(self, a):
        reached.append(a)
        return reach_keys(self, a)

    def counted_multiply(self, d, held, limit):
        multiplied.append(d)
        return multiply(self, d, held, limit)

    monkeypatch.setattr(P._ProductSpan, "_reach_keys", counted_reach_keys)
    monkeypatch.setattr(P._ProductSpan, "_multiply", counted_multiply)
    want = P.minimum_period(alg)
    assert alg.n == 22 and len(reached) <= 2 * (alg.n - 1)
    assert multiplied == list(range(1, alg.n))
    multiplied.clear()
    P.minimum_period(alg, cap=30)
    assert multiplied == [*range(1, 13), 12]
    reached.clear()
    monkeypatch.setattr(P, "_ProductSpan", ReferenceSpan)
    assert P.minimum_period(alg) == want
    assert len(reached) > 4 * (alg.n - 1)
