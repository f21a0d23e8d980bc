"""The centroid and its idempotents, checked against the dense code they replaced.

dense_unit_test (with dense_centroid) is periodicity._unit_test as it was
before the centroid system was solved from the table's nonzero entries,
verbatim but for the module prefixes and for dense_centroid being split out.
test_fplin's old_primitive_idempotents is fplin.primitive_idempotents
before idempotent separators skipped the minimal polynomial and its roots
(and before its one-dimensional shortcut, which test_fplin shows returns
and raises the same).  loop_kernel is fplin.kernel with its basis built one
free column at a time.  They are the references for those fast paths:
every output must match them byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodica import decomposition as D, fplin
from periodica import periodicity as P
from rebasing import rebased
from test_decomposition import ORACLE_WINDOWS, _periodic_specs, random_window, window_of
from test_direct_decision import BENCHMARK_SPECS, CORPUS_SPECS, _degree_two_algebra, build, nested
from test_fplin import (irreducible_polys, old_primitive_idempotents, polynomial_algebra,
                        random_invertible, random_semisimple)


def loop_kernel(mat, p):
    m = fplin.as_matrix(mat, p)
    red, pivots = fplin.rref(m, p)
    n = m.shape[1]
    free = [j for j in range(n) if j not in pivots]
    rows = []
    for f in free:
        v = np.zeros(n, dtype=np.int64)
        v[f] = 1
        for t, c in enumerate(pivots):
            v[c] = (-red[t, f]) % p
        rows.append(v)
    return fplin.Subspace.from_vectors(rows, p, n)


def dense_centroid(alg, k):
    p, d = alg.p, alg.dim(k)
    m3 = alg.mult3(k, k)
    # Equation (t, a, b) reads (a T(b) - T(a) b)_t = (M_t T - T^T M_t)[a, b]
    # = 0, with M_t = m3[t]; its row holds the coefficient of T[c, e] at
    # c * d + e.  Only equations with a nonzero term are built.
    t, a, b = np.nonzero(m3.any(axis=2)[:, :, None] | m3.any(axis=1)[:, None, :])
    rows, each = np.zeros((len(t), d, d), dtype=np.int64), np.arange(len(t))
    rows[each, :, b] = m3[t, a, :]
    rows[each, :, a] -= m3[t, :, b]
    system = rows.reshape(len(t), d * d) % p
    return fplin.kernel(system[system.any(axis=1)], p)


def dense_unit_test(alg, k):
    p, d = alg.p, alg.dim(k)
    centroid = dense_centroid(alg, k)
    if centroid.dim != d:
        return None
    mats = centroid.basis.reshape(d, d, d)
    if not np.array_equal((mats[:, None] @ mats[None]) % p, (mats[None] @ mats[:, None]) % p):
        return None
    fixed, idempotents, _ = old_primitive_idempotents(mats, p)
    # Rows of quotient: the functionals that vanish on rad(E) V.  When the
    # Frobenius-fixed subalgebra is all of E, E is GF(p)^d and rad(E) = 0.
    quotient = np.eye(d, dtype=np.int64)
    if fixed.dim < d:
        exponent = 1
        while exponent < d:
            exponent *= p
        powers = np.array([fplin.mat_pow(m, exponent, p) for m in mats]).reshape(d, d * d)
        radical = (fplin.kernel(powers.T, p).basis @ centroid.basis) % p
        quotient = fplin.kernel(radical.reshape(-1, d, d).transpose(0, 2, 1).reshape(-1, d), p).basis
    tests, generator = [], np.zeros(d, dtype=np.int64)
    for coords in idempotents:
        ej = (coords @ centroid.basis).reshape(d, d) % p
        tests.append((quotient @ ej) % p)
        generator += next(col for col in ej.T if ((tests[-1] @ col) % p).any())
    return P._UnitTest(p, np.array(tests), generator % p)


def _bytes(*arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def subspace_bytes(s):
    return s.p, s.ambient, s.pivots, _bytes(s.basis)


def unit_test_bytes(test):
    return None if test is None else (test.p, _bytes(test.tests, test.generator))


def idempotents_outcome(run, mats, p):
    """Everything primitive_idempotents returns, down to dtypes and bytes, or
    the message of the ValueError it raised (NotCommutative is one)."""
    try:
        fixed, parts, splits = run(mats, p)
    except ValueError as e:
        return str(e)
    return (subspace_bytes(fixed), _bytes(*parts),
            [(_bytes(e, b), _bytes(*pieces)) for e, b, pieces in splits])


@pytest.fixture
def split_root_calls(monkeypatch):
    """The fplin.split_roots calls made so far in the test, one entry each."""
    calls = []
    real = fplin.split_roots
    monkeypatch.setattr(fplin, "split_roots", lambda poly, p: calls.append(p) or real(poly, p))
    return calls


def test_kernel_matches_the_column_loop():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        for _ in range(60):
            r, c = (int(x) for x in rng.integers(0, 7, size=2))
            m = rng.integers(0, p, size=(r, c)) * (rng.random((r, c)) < rng.random())
            assert subspace_bytes(fplin.kernel(m, p)) == subspace_bytes(loop_kernel(m, p))


def test_sparse_kernel_matches_kernel():
    """Single-entry rows, rows they reduce to zero, repeated rows and rows
    untouched by them, against the dense kernel."""
    rng = np.random.default_rng(8)
    for p in (2, 3, 5):
        for _ in range(80):
            rows, cols = (int(x) for x in rng.integers(1, 9, size=2))
            dense = rng.integers(1, p, size=(rows, cols)) * (rng.random((rows, cols)) < 0.3)
            dense[rng.random(rows) < 0.4] = 0
            single = rng.random(rows) < 0.5
            dense[single] = 0
            dense[single, rng.integers(0, cols, size=int(single.sum()))] = rng.integers(1, p)
            row, col = np.nonzero(dense)
            got = fplin.sparse_kernel(row, col, dense[row, col], cols, p)
            assert subspace_bytes(got) == subspace_bytes(fplin.kernel(dense, p)), (p, dense)


def test_stacked_powers_match_one_at_a_time():
    rng = np.random.default_rng(9)
    for p in (2, 3, 5):
        for e in range(7):
            stack = rng.integers(0, p, size=(4, 3, 3))
            want = [fplin.mat_pow(m, e, p) for m in stack]
            assert _bytes(*fplin.mat_pow(stack, e, p)) == _bytes(*want)


def test_the_centroid_of_a_wide_chain_is_not_row_reduced(monkeypatch):
    """Every row of 8 x CP(6)@2's centroid system has a single entry, so its
    kernel is read off without one rref call."""
    alg = build(f"{nested(8, 'ComplexProj(6)')}@2")
    want = dense_centroid(alg, 2)
    calls = []
    real = fplin.rref
    monkeypatch.setattr(fplin, "rref", lambda mat, p: calls.append(p) or real(mat, p))
    got = P._centroid(alg, 2)
    assert not calls
    assert got.dim == 8 and subspace_bytes(got) == subspace_bytes(want)


@pytest.mark.parametrize("text", BENCHMARK_SPECS + CORPUS_SPECS)
def test_unit_test_matches_the_dense_centroid(text):
    """The centroid and the unit test of every direct degree, in the fixture's
    basis and in a random one, where the system's rows have several entries."""
    for alg in (build(text), rebased(build(text), 4)):
        for k in range(2, P.direct_bound(alg.n) + 1):
            if alg.dim(k):
                want = dense_centroid(alg, k), dense_unit_test(alg, k)
                assert subspace_bytes(P._centroid(alg, k)) == subspace_bytes(want[0])
                assert unit_test_bytes(P._unit_test(alg, k)) == unit_test_bytes(want[1])


def _ring_table(factors, p, rng):
    """The products of GF(p)[t]/(f), f the product of factors, in a random
    basis, as a (t, a, b) table: a commutative ring, so its centroid is
    itself and the unit test is not None."""
    mats = polynomial_algebra(factors, p)  # mats[a][:, b] is t^a t^b
    change = random_invertible(rng, mats.shape[0], p)
    back = fplin.mat_inv(change.T, p)
    return np.einsum("ut,atb,ca,db->ucd", back, mats, change, change) % p


# A symmetric product GF(2)^4 x GF(2)^4 -> GF(2)^3 whose centroid has
# dimension 4 but does not commute (test_direct_decision).
NONCOMMUTATIVE = [[[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
                  [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 1]],
                  [[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]]


def _commutes(space, d, p):
    mats = space.basis.reshape(-1, d, d)
    return np.array_equal((mats[:, None] @ mats[None]) % p, (mats[None] @ mats[:, None]) % p)


def test_unit_test_matches_the_dense_oracle_on_random_products(split_root_calls):
    """Random symmetric products V x V -> W, mostly with no unit test, and
    random rings, whose separators are mostly not idempotent."""
    rng = np.random.default_rng(12)
    tables = [(np.array(NONCOMMUTATIVE), 2)]
    for p in (2, 3, 5):
        irr = irreducible_polys(p, 2)
        for _ in range(40):
            d, w = (int(x) for x in rng.integers(1, 5, size=2))
            m3 = rng.integers(0, p, size=(w, d, d)) * (rng.random((w, d, d)) < 0.4)
            factors = [irr[int(i)] for i in rng.integers(0, len(irr), size=int(rng.integers(1, 4)))]
            tables += [((m3 + m3.transpose(0, 2, 1)) % p, p), (_ring_table(factors, p, rng), p)]
    outcomes, roots_found = {"none": 0, "noncommutative": 0, "test": 0}, 0
    for table, p in tables:
        alg = _degree_two_algebra(table, p)
        before = len(split_root_calls)
        got = P._unit_test(alg, 2)
        roots_found += len(split_root_calls) - before
        assert unit_test_bytes(got) == unit_test_bytes(dense_unit_test(alg, 2)), (p, table)
        centroid, d = dense_centroid(alg, 2), alg.dim(2)
        noncommutative = centroid.dim == d and not _commutes(centroid, d, p)
        outcomes["test" if got else "noncommutative" if noncommutative else "none"] += 1
    assert all(outcomes.values()), outcomes
    assert roots_found


def _algebras(rng, p):
    """Matrix algebras with the identity: GF(p)[M] for a random semisimple
    M and GF(p)[t]/(f) for f with repeated factors, each in a random basis
    and in the reduced basis of its span."""
    out = []
    for d in range(1, 7):
        m = random_semisimple(rng, d, p)
        powers = fplin.Subspace.from_vectors(
            [fplin.mat_pow(m, e, p).ravel() for e in range(d)], p, d * d)
        out.append(powers.basis.reshape(-1, d, d))
    irr = irreducible_polys(p, 2)
    for _ in range(4):
        factors = [irr[int(i)] for i in rng.integers(0, len(irr), size=int(rng.integers(1, 4)))]
        out.append(polynomial_algebra(factors * 2, p))
    mixed = []
    for mats in out:
        change = random_invertible(rng, mats.shape[0], p)
        mixed.append(np.tensordot(change, mats, 1) % p)
    return out + mixed


def test_idempotents_match_the_dense_oracle(split_root_calls):
    """Byte for byte, with separators that are idempotent (the reduced bases
    of products of fields) and that are not (the random bases)."""
    rng = np.random.default_rng(17)
    cases, roots_found = 0, 0
    for p in (2, 3, 5):
        for mats in _algebras(rng, p):
            before = len(split_root_calls)
            got = idempotents_outcome(fplin.primitive_idempotents, mats, p)
            roots_found += len(split_root_calls) - before
            assert got == idempotents_outcome(old_primitive_idempotents, mats, p), (p, mats)
            cases += 1
    assert cases == 60 and roots_found


def test_idempotent_separators_find_no_roots(split_root_calls):
    """The diagonal matrices: every separator is idempotent, so the splits
    come without a minimal polynomial."""
    for p in (2, 3, 5):
        mats = [np.diag(row) for row in np.eye(4, dtype=np.int64)]
        got = idempotents_outcome(fplin.primitive_idempotents, mats, p)
        assert got[2] and not split_root_calls
        assert got == idempotents_outcome(old_primitive_idempotents, mats, p)
        split_root_calls.clear()


def test_refusals_match_the_dense_oracle():
    c = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    eye = np.eye(3, dtype=np.int64)
    nilpotent = np.array([[0, 1], [0, 0]])
    cases = [[eye, c], [eye, c, (eye + c) % 2], [np.zeros((2, 3), dtype=np.int64)], [],
             [np.eye(2, dtype=np.int64), nilpotent, nilpotent.T, np.array([[1, 0], [0, 0]])],
             [np.eye(2, dtype=np.int64), nilpotent.T, nilpotent], np.zeros((2, 0, 0), dtype=np.int64)]
    for mats in cases:
        want = idempotents_outcome(old_primitive_idempotents, mats, 2)
        assert isinstance(want, str)
        assert want == idempotents_outcome(fplin.primitive_idempotents, mats, 2)
    with pytest.raises(fplin.NotCommutative, match="the matrices do not commute"):
        fplin.primitive_idempotents(cases[4], 2)


def decompose_bytes(w):
    """decompose's summands and every SplitRecord, as dicts and as the bytes
    of the elements' coefficients."""
    result = D.decompose(w)
    records = [(r.split_element, r.separator, *r.replacements) for r in result.trace]
    return result.to_dict(), [[(e.degree, e.coeffs) for e in elements] for elements in records]


def assert_decompose_matches_the_dense_oracle(w, monkeypatch):
    got = decompose_bytes(w)
    with monkeypatch.context() as m:
        m.setattr(fplin, "primitive_idempotents", old_primitive_idempotents)
        assert got == decompose_bytes(w)


@pytest.mark.parametrize("text", [t for t in ORACLE_WINDOWS if not t.startswith("Sphere")])
def test_decompose_matches_the_dense_oracle(text, monkeypatch):
    assert_decompose_matches_the_dense_oracle(window_of(text), monkeypatch)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_periodic_specs(), st.integers(0, 2**16), st.booleans())
def test_decompose_matches_the_dense_oracle_on_random_specs(text, seed, rebase):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_decompose_matches_the_dense_oracle(random_window(text, seed, rebase), monkeypatch)
