"""The window's source degrees and the direct bound, stated once in
periodica.periodicity.window_ranges and direct_bound, checked against the
readers that wrote them out for themselves.

old_window_failure, old_ruled_out and old_window_gap are those readers
before they used the two definitions, kept verbatim (renamed old_*) as the
reference; the decomposition's is test_decomposition's
old_verify_decomposition.  The search, certificates and windows are
covered by the reference tests of their own modules and the golden files.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodica import corpus, fplin
from periodica import decomposition as D
from periodica import periodicity as P
from test_decomposition import _forgeries, _outcome, old_verify_decomposition, window_of
from test_derived_tables import CORPUS_SPECS as TABLE_SPECS
from test_direct_decision import CORPUS_SPECS as DECISION_SPECS


def old_window_failure(alg, k, xv):
    """First violated window condition for cupping with xv, or None.

    Returns (source degree, "surjectivity" | "injectivity").
    """
    p = alg.p
    top = alg.n - 1 - k
    for i in range(1, top + 1):
        if alg.dim(i) == 0 and alg.dim(i + k) == 0:
            continue
        r = fplin.rank(alg.cup_matrix(k, xv, i), p)
        if i < top and r < alg.dim(i + k):
            return i, "surjectivity"
        if i > 1 and r < alg.dim(i):
            return i, "injectivity"
    return None


def old_window_gap(alg, k: int) -> tuple[int, ...]:
    """Degrees with nonzero dimension that no window condition for k touches."""
    n = alg.n
    covered = set()
    covered.update(range(1, n - 1 - k))
    covered.update(range(1 + k, n - 1))
    covered.update(range(2, n - k))
    covered.update(range(2 + k, n))
    return tuple(i for i in range(1, n) if i not in covered and alg.dim(i) > 0)


def old_ruled_out(alg, k: int) -> bool:
    """True when the dimensions alone fail a window condition for k.

    Cupping from degree i to i + k has rank at most min(dim i, dim i+k), so
    no degree-k element is surjective where dim i < dim i+k, or injective
    where dim i+k < dim i.  A product of direct inducers passes the window
    conditions too, so no product certificate reaches k either.
    """
    top = alg.n - 1 - k
    return any((i < top and alg.dim(i) < alg.dim(i + k))
               or (i > 1 and alg.dim(i + k) < alg.dim(i)) for i in range(1, top + 1))


# The corpus tests' fixtures, then the two whose windows of interest start
# above degree 1 (from degree 2 and from degree 4).
SPECS = tuple(dict.fromkeys(TABLE_SPECS + DECISION_SPECS + (
    "Product(Sphere(3),ComplexProj(6))@2", "Product(Sphere(5),ComplexProj(6))@3")))

# Degrees with at most this many vectors are window-tested in full.
SMALL = 64


@functools.lru_cache(maxsize=None)
def algebra(text):
    return corpus.build(corpus.parse_spec(text)).algebra


def _vectors(alg, k):
    """Every degree-k vector when there are at most SMALL, else zero, the
    all-ones vector and the basis vectors."""
    d, p = alg.dim(k), alg.p
    if p ** d <= SMALL:
        return list(fplin.enumerate_vectors(d, p))
    return [np.zeros(d, dtype=np.int64), np.ones(d, dtype=np.int64), *np.eye(d, dtype=np.int64)]


@pytest.mark.parametrize("text", SPECS)
def test_window_matches_the_parent(text):
    alg = algebra(text)
    for k in range(1, alg.n):
        assert P._ruled_out(alg, k) == old_ruled_out(alg, k), k
        assert P.window_gap(alg, k) == old_window_gap(alg, k), k
        for v in _vectors(alg, k):
            assert P._window_failure(alg, k, v) == old_window_failure(alg, k, v), (k, v)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(SPECS), st.data())
def test_window_failure_matches_the_parent_on_sampled_vectors(text, data):
    alg = algebra(text)
    k = data.draw(st.integers(1, alg.n - 1))
    d = alg.dim(k)
    v = np.array(data.draw(st.lists(st.integers(0, alg.p - 1), min_size=d, max_size=d)),
                 dtype=np.int64)
    assert P._window_failure(alg, k, v) == old_window_failure(alg, k, v)


def test_ranges_and_bound_match_the_parent():
    for n, k in itertools.product(range(1, 40), range(-2, 40)):
        onto, into = P.window_ranges(n, k)
        top = n - 1 - k
        assert [i for i in range(1, top + 1) if i < top] == list(onto), (n, k)
        assert [i for i in range(1, top + 1) if i > 1] == list(into), (n, k)
        assert (k <= P.direct_bound(n)) == (3 * k <= n - 1), (n, k)


# Windows with a nonzero degree 1, where the ring action's low range and
# the decomposition's bijectivity check start, then windows without one.
LOW_WINDOWS = ("Product(Sphere(1),ComplexProj(4))@2", "Product(Sphere(1),ComplexProj(5))@3")
WINDOWS = LOW_WINDOWS + ("ConnectedSum(ComplexProj(4),ComplexProj(4))@2", "QuatProj(3)@2",
                         "Sphere(8)@2", "Product(Sphere(2),ComplexProj(4))@5")


@pytest.mark.parametrize("text", WINDOWS)
def test_ring_action_ranges_match_the_parent(text):
    w = window_of(text)
    k, n = w.k, w.n
    for u, (low, high, _) in w.ring_action.items():
        assert (low is not None, high is not None) == (u <= n - 1 - k, u >= 1 + k), u


@pytest.mark.parametrize("text", LOW_WINDOWS)
def test_verify_decomposition_matches_the_parent_from_degree_one(text):
    w = window_of(text)
    for forged in _forgeries(w, D.decompose(w)):
        assert (_outcome(D.verify_decomposition, w, forged)
                == _outcome(old_verify_decomposition, w, forged))
