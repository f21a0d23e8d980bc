"""fplin.primitive_idempotents and periodicity._unit_test against
idempotents_reference, the code before the Frobenius shortcut and the
stacked unit test: every output byte for byte, every refusal by type and
message.

The specs are those of the carried-test and decompose-oracle checks, in
their own basis and in a random one: every direct degree's centroid, its
idempotents and its unit test, and the degree-k ring of every window the
minimum period certifies.  The draws add split, local and non-reduced
algebras, residue fields GF(p^e), stacks that do not commute and stacks
that are not closed, and random products V x V -> W."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idempotents_reference as R
from periodica import decomposition as D, fplin
from periodica import periodicity as P
from rebasing import rebased
from test_carried_tests import SPECS as CARRIED_SPECS
from test_centroid import NONCOMMUTATIVE, _ring_table
from test_decomposition import ORACLE_WINDOWS
from test_direct_decision import _degree_two_algebra, build, nested
from test_fplin import irreducible_polys, polynomial_algebra, random_invertible

SPECS = tuple(dict.fromkeys(CARRIED_SPECS + tuple(ORACLE_WINDOWS)))


def _bytes(x):
    """x down to dtypes, shapes, bytes and the types of its numbers."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, fplin.Subspace):
        return "Subspace", x.p, x.ambient, x.pivots, tuple(map(type, x.pivots)), _bytes(x.basis)
    if isinstance(x, P._UnitTest):
        return "UnitTest", x.p, _bytes(x.tests), _bytes(x.generator)
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [_bytes(y) for y in x]
    return type(x).__name__, x


def outcome(run, *args):
    """What run returns, as _bytes, or the type and message of what it raises."""
    try:
        return _bytes(run(*args))
    except Exception as e:  # compared, not handled: both sides must raise alike
        return type(e), str(e)


def assert_same(name, *args):
    got = outcome(getattr(fplin if name == "primitive_idempotents" else P, name), *args)
    assert got == outcome(getattr(R, name), *args), (name, args)
    return got


def assert_degree_matches(alg, k):
    """The idempotents of degree k's centroid, when it has the dimension of
    A^k, and the unit test of degree k."""
    d, centroid = alg.dim(k), P._centroid(alg, k)
    if centroid.dim == d:
        assert_same("primitive_idempotents", centroid.basis.reshape(d, d, d), alg.p)
    assert_same("_unit_test", alg, k)


def direct_windows(alg):
    """The window of the minimum period's certificate, when it is direct."""
    cert = P.minimum_period(alg).certificate
    if cert is not None and cert.mode == "direct" and cert.k <= P.direct_bound(alg.n):
        yield P.subquotient(alg, cert)


@pytest.mark.parametrize("text", SPECS)
def test_centroids_and_window_rings_match_the_reference(text):
    algebras = (build(text), rebased(build(text), len(text)))
    for alg in algebras:
        for k in range(2, P.direct_bound(alg.n) + 1):
            if alg.dim(k):
                assert_degree_matches(alg, k)
        for w in direct_windows(alg):
            assert_same("primitive_idempotents", w.ring_action[w.k][0], w.p)


# --- drawn stacks -----------------------------------------------------------

KINDS = ("split", "local", "non-reduced", "field", "noncommuting", "not closed")


@st.composite
def _stacks(draw):
    """A stack of matrices of one KINDS kind over p, in the basis it was
    built in, a random basis, or the reduced basis of its span."""
    p = draw(st.sampled_from((2, 3, 5)))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    irr = irreducible_polys(p, 3)
    linear, wide = [g for g in irr if len(g) == 2], [g for g in irr if len(g) > 2]

    def some(pool, most):
        return [pool[int(i)] for i in rng.choice(len(pool), size=min(most, len(pool)),
                                                 replace=False)]

    if kind == "split":
        factors = some(linear, int(rng.integers(1, 5)))
    elif kind == "local":
        factors = [some(irr, 1)[0]] * int(rng.integers(2, 4))
    elif kind == "field":
        factors = some(wide, int(rng.integers(1, 3)))
    else:
        factors = some(irr, int(rng.integers(1, 4)))
        factors += factors[:1]
    mats = polynomial_algebra(factors, p)
    d, m = mats.shape[0], mats.shape[1]
    if kind == "noncommuting":
        mats = np.concatenate([mats, rng.integers(0, p, size=(1, m, m))])
    elif kind == "not closed" and d > 1:
        mats = np.delete(mats, int(rng.integers(1 if rng.random() < 0.7 else 0, d)), axis=0)
    basis = draw(st.sampled_from(("built", "random", "reduced")))
    if basis == "random":
        mats = np.tensordot(random_invertible(rng, mats.shape[0], p), mats, 1) % p
    elif basis == "reduced":
        mats = fplin.Subspace.from_vectors(mats.reshape(len(mats), -1), p).basis.reshape(-1, m, m)
    return mats, p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_stacks())
def test_drawn_stacks_match_the_reference(case):
    mats, p = case
    assert_same("primitive_idempotents", mats, p)


@st.composite
def _tables(draw):
    """A (t, a, b) product table V x V -> W: random and symmetric, or a ring
    GF(p)[t]/(f) with f's factors of degree up to 2 in a random basis."""
    p = draw(st.sampled_from((2, 3, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        irr = irreducible_polys(p, 2)
        factors = [irr[int(i)] for i in rng.integers(0, len(irr), size=int(rng.integers(1, 4)))]
        return _ring_table(factors, p, rng), p
    d, w = (int(x) for x in rng.integers(1, 5, size=2))
    m3 = rng.integers(0, p, size=(w, d, d)) * (rng.random((w, d, d)) < 0.4)
    return (m3 + m3.transpose(0, 2, 1)) % p, p


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_tables())
def test_drawn_products_match_the_reference(case):
    table, p = case
    assert_degree_matches(_degree_two_algebra(table, p), 2)


def test_a_centroid_that_does_not_commute_matches_the_reference():
    alg = _degree_two_algebra(np.array(NONCOMMUTATIVE), 2)
    assert_degree_matches(alg, 2)
    mats = P._centroid(alg, 2).basis.reshape(4, 4, 4)
    assert outcome(fplin.primitive_idempotents, mats, 2) == (
        fplin.NotCommutative, "the matrices do not commute")


# --- the calls the reduced, split case saves ---------------------------------

@pytest.fixture
def inner_calls(monkeypatch):
    """The fplin.rref, kernel and minimal_polynomial calls made while
    fplin.primitive_idempotents runs, by name."""
    calls, inside = [], []
    for name in ("rref", "kernel", "minimal_polynomial"):
        real = getattr(fplin, name)
        monkeypatch.setattr(fplin, name, lambda *a, real=real, name=name:
                            (inside and calls.append(name)) or real(*a))
    real = fplin.primitive_idempotents

    def tracked(mats, p):
        inside.append(True)
        try:
            return real(mats, p)
        finally:
            inside.pop()

    monkeypatch.setattr(fplin, "primitive_idempotents", tracked)
    return calls


# The decompose benchmark's fixtures, 6 x CP(4)@2 among them.
SPLIT_SPECS = ORACLE_WINDOWS[:9]


def test_the_split_specs_are_the_benchmark_fixtures():
    assert f"{nested(6, 'ComplexProj(4)')}@2" in SPLIT_SPECS
    assert all(text.startswith("ConnectedSum") for text in SPLIT_SPECS)


@pytest.mark.parametrize("text", SPLIT_SPECS)
def test_split_rings_are_split_without_row_reduction(text, inner_calls):
    """E and the window ring of each fixture are GF(p)^d in a reduced
    basis: Frobenius is the identity, every separator is idempotent, and
    primitive_idempotents reduces no matrix, on the centroid that finds the
    certificate and on the window ring that decompose and
    verify_decomposition read."""
    alg = build(text)
    cert = P.find_inducing_element(alg, 2)
    window = P.subquotient(alg, cert)
    D.verify_decomposition(window, D.decompose(window))
    assert P._unit_test(alg, 2) is not None
    assert inner_calls == []
