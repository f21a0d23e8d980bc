"""Exact oracles for the GF(p) linear algebra layer.

Small cases are checked against full enumeration of the vector space;
larger cases against structural invariants (rank-nullity, conjugation).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodica import fplin
from periodica.fplin import Subspace


def poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def poly_eval_matrix(coeffs, mat, p: int) -> np.ndarray:
    """Evaluate a polynomial (low coefficients first) at a square matrix."""
    m = fplin.as_matrix(mat, p)
    d = m.shape[0]
    out = np.zeros((d, d), dtype=np.int64)
    power = np.eye(d, dtype=np.int64)
    for c in coeffs:
        if c % p:
            out = (out + (c % p) * power) % p
        power = (power @ m) % p
    return out


def irreducible_polys(p, max_deg=3):
    """Monic irreducibles of degree <= 3 (degree 2 and 3: no roots suffices)."""
    out = []
    for deg in range(1, max_deg + 1):
        for tail in itertools.product(range(p), repeat=deg):
            poly = tuple(tail) + (1,)
            if deg == 1 or all(poly_eval(poly, a, p) for a in range(p)):
                out.append(poly)
    return out


def companion(poly, p):
    d = len(poly) - 1
    m = np.zeros((d, d), dtype=np.int64)
    for i in range(1, d):
        m[i, i - 1] = 1
    for i in range(d):
        m[i, d - 1] = (-poly[i]) % p
    return m


def random_invertible(rng, d, p):
    while True:
        m = rng.integers(0, p, size=(d, d))
        if fplin.rank(m, p) == d:
            return m % p


def random_semisimple(rng, d, p):
    """Conjugated direct sum of companion blocks of distinct irreducibles."""
    while True:
        pool = irreducible_polys(p)
        rng.shuffle(pool)
        blocks = []
        left = d
        for poly in pool:
            deg = len(poly) - 1
            if deg <= left:
                blocks.append(companion(poly, p))
                left -= deg
            if left == 0:
                break
        if left == 0:
            break
    m = np.zeros((d, d), dtype=np.int64)
    at = 0
    for b in blocks:
        k = b.shape[0]
        m[at : at + k, at : at + k] = b
        at += k
    t = random_invertible(rng, d, p)
    return (t @ m @ fplin.mat_inv(t, p)) % p


def brute_kernel_vectors(m, p):
    return [v for v in fplin.enumerate_vectors(m.shape[1], p) if not ((m @ v) % p).any()]


def brute_image_vectors(m, p):
    return {tuple((m @ v) % p) for v in fplin.enumerate_vectors(m.shape[1], p)}


@pytest.mark.parametrize("data", [[[0.9]], [[True]], [["1"]], [[True, 2]], [[1, 2.0]],
                                  np.array([[1.0]]), np.array([[True]]), [2**70]])
def test_non_integer_entries_are_refused(data):
    with pytest.raises(ValueError, match="integers"):
        (fplin.as_vector if np.ndim(data) == 1 else fplin.as_matrix)(data, 3)


def test_integer_entries_pass():
    assert fplin.as_matrix([[4, -1]], 3).tolist() == [[1, 2]]
    assert fplin.as_matrix(np.array([[4, 5]], dtype=np.int32), 3).dtype == np.int64
    assert fplin.as_vector([np.int64(4), 5], 3).tolist() == [1, 2]
    assert fplin.as_vector(np.array([7], dtype=np.uint8), 3).tolist() == [1]
    assert fplin.as_vector([], 3).shape == (0,)


def test_rref_canonical():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        for _ in range(30):
            m = rng.integers(0, p, size=(rng.integers(1, 5), rng.integers(1, 5))) % p
            red, pivots = fplin.rref(m, p)
            assert red.shape[0] == len(pivots)
            again, pivots2 = fplin.rref(red, p)
            assert np.array_equal(again, red) and pivots2 == pivots
            # row spaces agree
            s1 = Subspace.from_vectors(list(m), p, m.shape[1])
            s2 = Subspace.from_vectors(list(red), p, m.shape[1]) if red.shape[0] else Subspace.zero(p, m.shape[1])
            assert s1 == s2
            for t, c in enumerate(pivots):
                col = red[:, c]
                assert col[t] == 1 and np.count_nonzero(col) == 1


# fplin.rref before it worked in place, kept verbatim as its reference.
def old_rref(mat, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Row-reduce mod p.  Returns (nonzero rows, pivot columns)."""
    m = np.array(mat, dtype=np.int64) % p
    if m.ndim != 2:
        raise ValueError("rref expects a 2-D array")
    nrows, ncols = m.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            m[other] = (m[other] - np.outer(m[other, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m[:r], tuple(pivots)


def _rref_cases(rng, p):
    """Dense matrices of sizes 1x1 to 64x64, two 48x2304 ones (one with 1%
    nonzero entries), 256x256 with three entries per row, and matrices with
    zero rows and columns; entries run over -p..2p so some need reducing."""
    sizes = (1, 2, 3, 5, 8, 13, 21, 34, 64)
    out = [rng.integers(-p, 2 * p, size=(r, c)) for r in sizes for c in sizes]
    wide = rng.integers(-p, 2 * p, size=(48, 2304))
    out += [wide, wide * (rng.random(wide.shape) < 0.01)]
    sparse = np.zeros((256, 256), dtype=np.int64)
    rows = np.repeat(np.arange(256), 3)
    sparse[rows, rng.integers(0, 256, size=rows.size)] = rng.integers(1, p, size=rows.size)
    out.append(sparse)
    for r, c in ((6, 9), (9, 6), (20, 20)):
        m = rng.integers(0, p, size=(r, c))
        m[rng.random(r) < 0.4] = 0
        m[:, rng.random(c) < 0.4] = 0
        out += [m, np.zeros((r, c), dtype=np.int64)]
    return out + [np.zeros((0, 4), dtype=np.int64), np.zeros((4, 0), dtype=np.int64)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, fplin.P_MAX - 9])
def test_rref_matches_the_reference(p):
    """Same reduced rows, dtype and pivots as the reference, and the
    caller's array, or list, is left as it was."""
    rng = np.random.default_rng(p)
    for m in _rref_cases(rng, p):
        before = m.copy()
        got, want = fplin.rref(m, p), old_rref(m, p)
        assert got[1] == want[1], m.shape
        assert (got[0].dtype, got[0].shape) == (want[0].dtype, want[0].shape)
        assert got[0].tobytes() == want[0].tobytes(), m.shape
        assert np.array_equal(m, before)
    rows = [[p + 1, -1], [2, 2 * p]]
    assert fplin.rref(rows, p)[0].tobytes() == old_rref(rows, p)[0].tobytes()
    assert rows == [[p + 1, -1], [2, 2 * p]]


def test_kernel_image_against_enumeration():
    rng = np.random.default_rng(13)
    for p in (2, 3):
        for _ in range(25):
            m = rng.integers(0, p, size=(rng.integers(0, 4), rng.integers(0, 4)))
            ker = fplin.kernel(m, p)
            img = fplin.image(m, p)
            kv = brute_kernel_vectors(m, p)
            iv = brute_image_vectors(m, p)
            assert p**ker.dim == len(kv)
            assert all(ker.contains(v) for v in kv)
            assert p**img.dim == len(iv)
            assert all(img.contains(np.array(v)) for v in iv)
            assert ker.dim + img.dim == m.shape[1]


def test_rank_nullity_larger():
    rng = np.random.default_rng(14)
    for p in (2, 7):
        for _ in range(20):
            m = rng.integers(0, p, size=(rng.integers(1, 9), rng.integers(1, 9)))
            assert fplin.kernel(m, p).dim + fplin.rank(m, p) == m.shape[1]
            assert fplin.image(m, p).dim == fplin.rank(m, p)


def _sparse_pivots(dense, block_of_row, p):
    """pivot_columns on the nonzero entries of dense, rows numbered apart."""
    r, c = np.nonzero(dense % p)
    return tuple(fplin.pivot_columns(7 * r + 3, c, dense[r, c] % p,
                                     np.asarray(block_of_row, dtype=np.int64)[r], p).tolist())


@pytest.mark.parametrize("p", [2, 3, fplin.P_MAX - 9])
@pytest.mark.parametrize("rows", [
    [[0, 0, 0], [0, 1, 1], [0, 0, 0]],             # zero rows
    [[0, 2, 0], [0, 1, 0], [1, 1, 1], [0, 1, 1]],  # single-entry rows sharing a column
    [[1, 1, 0], [0, 1, 1], [1, 0, 1]],             # no single-entry row
    [[0, 0, 5], [4, 0, 0], [0, 3, 0]],             # only single-entry rows
    [],
])
def test_pivot_columns_of_named_shapes(p, rows):
    dense = np.array(rows, dtype=np.int64).reshape(-1, 3)
    assert _sparse_pivots(dense, [0] * len(dense), p) == fplin.rref(dense, p)[1]


@st.composite
def _block_matrices(draw):
    """p, a matrix whose rows each lie in one block's columns (the blocks'
    columns interleaved), and each row's block."""
    p = draw(st.sampled_from((2, 3, fplin.P_MAX - 9)))
    blocks = draw(st.integers(1, 3))
    col_block = draw(st.lists(st.integers(0, blocks - 1), max_size=7))
    row_block = draw(st.lists(st.integers(0, blocks - 1), max_size=8))
    entry = st.one_of(st.just(0), st.just(1), st.integers(1, p - 1))
    dense = np.zeros((len(row_block), len(col_block)), dtype=np.int64)
    for r, b in enumerate(row_block):
        for c, cb in enumerate(col_block):
            if cb == b:
                dense[r, c] = draw(entry)
    return p, dense, row_block


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_block_matrices())
def test_pivot_columns_match_rref(case):
    p, dense, row_block = case
    assert _sparse_pivots(dense, row_block, p) == fplin.rref(dense, p)[1]


@st.composite
def _matrix_stacks(draw):
    """A (B, m, n) stack over one of four primes, each of B, m and n from 0
    up: entries unreduced (negative or past p), about half of them zero, and
    in some items a row that is a multiple of another."""
    p = draw(st.sampled_from((2, 3, 5, 2097143)))
    shape = tuple(draw(st.integers(0, 5)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(-p, 2 * p, size=shape) * (rng.random(shape) < 0.5)
    if shape[1] >= 2:
        copied = rng.random(shape[0]) < 0.5
        stack[copied, -1] = stack[copied, 0] * int(rng.integers(0, p))
    return p, stack


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_matrix_stacks())
def test_stacked_rank_and_rref_match_each_matrix(case):
    """Stacked rref gives each item the reduced rows and pivots of its own
    2-D rref, zero rows below them, and stacked rank each item's rank; the
    input is left as given."""
    p, stack = case
    given_stack = stack.copy()
    reduced, pivots = fplin.rref(stack, p)
    ranks = fplin.rank(stack, p)
    assert np.array_equal(stack, given_stack)
    assert reduced.shape == stack.shape and reduced.dtype == np.int64
    assert len(pivots) == len(stack)
    assert ranks.dtype == np.int64 and ranks.shape == (len(stack),)
    for item, red, piv, r in zip(stack, reduced, pivots, ranks.tolist()):
        want, want_pivots = fplin.rref(item, p)
        assert piv == want_pivots and r == len(want_pivots) == fplin.rank(item, p)
        assert red[:r].tobytes() == want.tobytes()
        assert not red[r:].any()


@pytest.mark.parametrize("shape", [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (2, 0, 0)])
def test_stacked_rank_of_empty_items(shape):
    for p in (2, 3, 5, 2097143):
        reduced, pivots = fplin.rref(np.zeros(shape, dtype=np.int64), p)
        assert reduced.shape == shape and pivots == ((),) * shape[0]
        assert fplin.rank(np.ones(shape, dtype=np.int64), p).tolist() == [0] * shape[0]
    with pytest.raises(ValueError, match="2-D array or a stack"):
        fplin.rref(np.zeros((1, 1, 1, 1), dtype=np.int64), 2)


def test_subspace_membership_and_coords():
    rng = np.random.default_rng(15)
    for p in (2, 3, 5):
        for _ in range(25):
            d = int(rng.integers(1, 6))
            k = int(rng.integers(0, d + 1))
            vs = [rng.integers(0, p, size=d) for _ in range(k)]
            s = Subspace.from_vectors(vs, p, d)
            for _ in range(5):
                c = rng.integers(0, p, size=s.dim)
                v = (c @ s.basis) % p if s.dim else np.zeros(d, dtype=np.int64)
                assert s.contains(v)
                got = s.coords_of(v)
                assert np.array_equal((got @ s.basis) % p if s.dim else v, v)
            if s.dim < d:
                outside = s.coordinate_complement().basis[0]
                assert not s.contains(outside)
                with pytest.raises(ValueError):
                    s.coords_of(outside)


def test_sum_intersection_against_enumeration():
    rng = np.random.default_rng(16)
    for p in (2, 3):
        for _ in range(20):
            d = int(rng.integers(1, 5))
            u = Subspace.from_vectors([rng.integers(0, p, size=d) for _ in range(rng.integers(0, 3))], p, d)
            w = Subspace.from_vectors([rng.integers(0, p, size=d) for _ in range(rng.integers(0, 3))], p, d)
            both = u.intersection(w)
            tot = u.sum(w)
            n_both = sum(1 for v in fplin.enumerate_vectors(d, p) if u.contains(v) and w.contains(v))
            assert p**both.dim == n_both
            for row in both.basis:
                assert u.contains(row) and w.contains(row)
            # dim formula and spanning
            assert tot.dim == u.dim + w.dim - both.dim
            for row in np.vstack([u.basis, w.basis]) if u.dim + w.dim else []:
                assert tot.contains(row)


def test_coordinate_complement_is_direct():
    rng = np.random.default_rng(17)
    for p in (2, 5):
        for _ in range(25):
            d = int(rng.integers(1, 7))
            s = Subspace.from_vectors([rng.integers(0, p, size=d) for _ in range(rng.integers(0, d + 1))], p, d)
            c = s.coordinate_complement()
            assert s.dim + c.dim == d
            assert s.intersection(c).dim == 0
            assert s.sum(c) == Subspace.full(p, d)


def test_minimal_polynomial_of_companion_blocks():
    for p in (2, 3, 5):
        for poly in irreducible_polys(p):
            m = companion(poly, p)
            assert fplin.minimal_polynomial(m, p) == poly
    # nilpotent Jordan block: t^3
    j = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert fplin.minimal_polynomial(j, 2) == (0, 0, 0, 1)
    assert fplin.minimal_polynomial(np.eye(4, dtype=np.int64), 3) == (2, 1)
    assert fplin.minimal_polynomial(np.zeros((0, 0), dtype=np.int64), 2) == (1,)


def test_minimal_polynomial_brute_minimality():
    rng = np.random.default_rng(18)
    for p in (2, 3):
        for _ in range(15):
            d = int(rng.integers(1, 4))
            m = rng.integers(0, p, size=(d, d))
            mp = fplin.minimal_polynomial(m, p)
            assert mp[-1] == 1
            assert not poly_eval_matrix(mp, m, p).any()
            # no annihilating monic polynomial of lower degree
            for deg in range(1, len(mp) - 1):
                for tail in itertools.product(range(p), repeat=deg):
                    cand = tuple(tail) + (1,)
                    assert poly_eval_matrix(cand, m, p).any()


def test_is_semisimple_known_and_random():
    rng = np.random.default_rng(19)
    assert fplin.is_semisimple(np.eye(3, dtype=np.int64), 2)
    assert not fplin.is_semisimple(np.array([[1, 1], [0, 1]]), 2)
    assert not fplin.is_semisimple(np.array([[0, 1], [0, 0]]), 5)
    for p in (2, 3):
        for _ in range(15):
            d = int(rng.integers(1, 7))
            s = random_semisimple(rng, d, p)
            assert fplin.is_semisimple(s, p)
    # conjugation does not change the answer
    j = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    t = random_invertible(np.random.default_rng(20), 3, 5)
    assert not fplin.is_semisimple((t @ j @ fplin.mat_inv(t, 5)) % 5, 5)


def test_semisimple_power():
    rng = np.random.default_rng(21)
    for p in (2, 3):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            m = rng.integers(0, p, size=(d, d))
            g, l = fplin.semisimple_power(m, p)
            assert p**l >= d and (l == 0 or p ** (l - 1) < d)
            assert np.array_equal(g, fplin.mat_pow(m, p**l, p))
            assert fplin.is_semisimple(g, p)


def polynomial_algebra(factors, p):
    """GF(p)[t]/(f) for f the product of the given factors, as the powers
    1, C, ..., C^(deg f - 1) of the companion matrix C of f."""
    f = (1,)
    for g in factors:
        f = fplin._poly_mul(f, g, p)
    c = companion(f, p)
    return np.array([fplin.mat_pow(c, i, p) for i in range(len(f) - 1)], dtype=np.int64)


def assert_idempotents_split_the_algebra(mats, p, count):
    """count primitive idempotents, orthogonal, summing to the identity,
    each split's parts summing to the part split."""
    fixed, idempotents, splits = fplin.primitive_idempotents(mats, p)
    assert fixed.dim == len(idempotents) == count
    assert [tuple(e) for e in idempotents] == sorted(tuple(e) for e in idempotents)
    as_matrix = [np.tensordot(e, mats, 1) % p for e in idempotents]
    for i, a in enumerate(as_matrix):
        assert a.any()
        for j, b in enumerate(as_matrix):
            assert np.array_equal(a @ b % p, a if i == j else 0 * a)
    assert np.array_equal(sum(as_matrix) % p, np.eye(mats.shape[1], dtype=np.int64))
    for e, _, parts in splits:
        assert len(parts) >= 2 and np.array_equal(sum(parts) % p, e)


def test_primitive_idempotents_of_polynomial_quotients():
    """One primitive idempotent per distinct irreducible factor of f."""
    for p in (2, 3, 5):
        irr = irreducible_polys(p)
        linear, quadratic, cubic = ([g for g in irr if len(g) == n] for n in (2, 3, 4))
        cases = [
            ([linear[0]], 1),
            ([linear[0]] * 4, 1),
            ([quadratic[0]] * 2, 1),
            (linear[:2] + quadratic[:1] + cubic[:1], 4),
            ([linear[0], linear[0], quadratic[0]], 2),
            ([linear[1]] * 2 + [cubic[0]] * 2 + [linear[0]], 3),
        ]
        for factors, count in cases:
            assert_idempotents_split_the_algebra(polynomial_algebra(factors, p), p, count)


@st.composite
def _polynomial_algebras(draw):
    """p, factors of f (irreducibles, each once or twice), and their count."""
    p = draw(st.sampled_from((2, 3, 5)))
    irr = irreducible_polys(p)
    chosen = draw(st.lists(st.sampled_from(irr), min_size=1, max_size=3, unique=True))
    factors = [g for g in chosen for _ in range(draw(st.integers(1, 2)))]
    return p, factors, len(chosen)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_polynomial_algebras(), st.integers(0, 2**16))
def test_primitive_idempotents_in_a_random_basis(case, seed):
    """GF(p)[t]/(f) for a random f, given in a random basis of the algebra."""
    p, factors, count = case
    mats = polynomial_algebra(factors, p)
    t = random_invertible(np.random.default_rng(seed), mats.shape[0], p)
    assert_idempotents_split_the_algebra(np.tensordot(t, mats, 1) % p, p, count)


def test_primitive_idempotents_refuse_what_is_not_an_algebra():
    c = companion((1, 0, 0, 1), 2)
    eye = np.eye(3, dtype=np.int64)
    nilpotent = np.array([[0, 1], [0, 0]])
    cases = {
        "a product leaves the span": [eye, c],
        "dependent": [eye, c, (eye + c) % 2],
        "no identity": [nilpotent],
        "not commutative": [np.eye(2, dtype=np.int64), nilpotent, nilpotent.T,
                            np.array([[1, 0], [0, 0]])],
        "not square": [np.zeros((2, 3), dtype=np.int64)],
        "not a stack": [],
    }
    for name, mats in cases.items():
        with pytest.raises(ValueError):
            fplin.primitive_idempotents(mats, 2)


def test_direct_sum_check():
    rng = np.random.default_rng(24)
    for p in (2, 3):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            t = random_invertible(rng, d, p)
            cut1 = int(rng.integers(1, d))
            cut2 = int(rng.integers(cut1, d + 1))
            parts = [
                Subspace.from_vectors(list(t[:cut1]), p, d),
                Subspace.from_vectors(list(t[cut1:cut2]), p, d) if cut2 > cut1 else Subspace.zero(p, d),
                Subspace.from_vectors(list(t[cut2:]), p, d) if cut2 < d else Subspace.zero(p, d),
            ]
            full_space = Subspace.full(p, d)
            assert fplin.direct_sum_check(parts, full_space, full=True)
            assert fplin.direct_sum_check(parts[:2], full_space)
            # repeating a nonzero part breaks independence
            big = max(parts, key=lambda s: s.dim)
            assert not fplin.direct_sum_check([big, big], full_space)
    # not contained in ambient
    amb = Subspace.from_vectors([np.array([1, 0])], 2, 2)
    out = Subspace.from_vectors([np.array([0, 1])], 2, 2)
    assert not fplin.direct_sum_check([out], amb)



def test_direct_sum_check_tests_containment_only_in_a_proper_ambient(monkeypatch):
    rng = np.random.default_rng(31)
    for p in (2, 3, 5):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            t = random_invertible(rng, d, p)
            cut = int(rng.integers(1, d))
            inside = Subspace.from_vectors(list(t[:cut]), p, d)
            outside = Subspace.from_vectors([t[cut]], p, d)
            both = inside.sum(outside)
            # a part outside a proper ambient is refused, one inside is not
            assert not fplin.direct_sum_check([outside], inside)
            assert not fplin.direct_sum_check([inside, outside], inside)
            assert fplin.direct_sum_check([inside], inside, full=True)
            assert fplin.direct_sum_check([inside, outside], both, full=True)
    # every vector lies in the whole space, so no part is tested against it
    monkeypatch.setattr(Subspace, "is_subspace_of", lambda self, other: pytest.fail(
        "containment tested against the whole space"))
    parts = [Subspace.from_vectors([np.array([1, 1, 0])], 2, 3),
             Subspace.from_vectors([np.array([0, 1, 1]), np.array([0, 0, 1])], 2, 3)]
    assert fplin.direct_sum_check(parts, Subspace.full(2, 3), full=True)


def test_restricted_matrix_of_a_stack_is_the_stack_of_restricted_matrices():
    rng = np.random.default_rng(32)
    for p in (2, 5):
        for _ in range(20):
            ds, dt, count = (int(x) for x in rng.integers(1, 5, size=3))
            source = Subspace.from_vectors(
                [rng.integers(0, p, size=ds) for _ in range(rng.integers(1, ds + 1))], p, ds)
            ops = rng.integers(0, p, size=(count, dt, ds))
            images = ((ops @ source.basis.T) % p).transpose(0, 2, 1).reshape(-1, dt)
            target = Subspace.from_vectors(list(images), p, dt)
            got = fplin.restricted_matrix(ops, source, target)
            want = [fplin.restricted_matrix(op, source, target) for op in ops]
            assert got.shape == (count, target.dim, source.dim)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
            # the images span target, so some operator leaves a proper
            # subspace of it, and that refuses the whole stack
            if target.dim:
                small = Subspace.from_vectors(list(target.basis[1:]), p, dt)
                with pytest.raises(ValueError):
                    fplin.restricted_matrix(ops, source, small)
    with pytest.raises(ValueError):
        fplin.restricted_matrix(np.zeros((1, 1, 2, 2), dtype=np.int64),
                                Subspace.full(2, 2), Subspace.full(2, 2))


def test_restricted_matrix():
    rng = np.random.default_rng(25)
    for p in (2, 5):
        for _ in range(20):
            ds = int(rng.integers(1, 5))
            dt = int(rng.integers(1, 5))
            op = rng.integers(0, p, size=(dt, ds))
            source = Subspace.from_vectors([rng.integers(0, p, size=ds) for _ in range(rng.integers(1, ds + 1))], p, ds)
            target = fplin.image(op, p)
            r = fplin.restricted_matrix(op, source, target)
            assert r.shape == (target.dim, source.dim)
            for _ in range(4):
                c = rng.integers(0, p, size=source.dim)
                v = (c @ source.basis) % p if source.dim else np.zeros(ds, dtype=np.int64)
                w = (op @ v) % p
                assert np.array_equal((r @ c) % p if source.dim else np.zeros(target.dim, dtype=np.int64), target.coords_of(w))
    tiny = Subspace.from_vectors([np.array([1, 0])], 2, 2)
    with pytest.raises(ValueError):
        fplin.restricted_matrix(np.eye(2, dtype=np.int64), Subspace.full(2, 2), tiny)


def test_mat_inv_and_pow():
    rng = np.random.default_rng(26)
    for p in (2, 3, 5):
        for _ in range(15):
            d = int(rng.integers(1, 6))
            m = random_invertible(rng, d, p)
            inv = fplin.mat_inv(m, p)
            assert np.array_equal((m @ inv) % p, np.eye(d, dtype=np.int64))
            e = int(rng.integers(0, 9))
            ref = np.eye(d, dtype=np.int64)
            for _ in range(e):
                ref = (ref @ m) % p
            assert np.array_equal(fplin.mat_pow(m, e, p), ref)
    with pytest.raises(fplin.NotInvertible):
        fplin.mat_inv(np.array([[1, 1], [1, 1]]), 2)


def test_enumerate_vectors_order():
    got = [tuple(v) for v in fplin.enumerate_vectors(2, 3)]
    assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert len(list(fplin.enumerate_vectors(0, 5))) == 1
    assert len(list(fplin.enumerate_vectors(3, 2))) == 8


def test_is_prime_against_trial_division():
    def slow(n):
        return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(3000) if fplin.is_prime(n)] == [n for n in range(3000) if slow(n)]
    # strong pseudoprimes to small bases, Carmichael numbers, and primes near the bound
    for n in (561, 1105, 2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051):
        assert not fplin.is_prime(n), n
    for n in (2097143, 2097169, 4194301, 2**31 - 1, 4294967311, 2**61 - 1):
        assert fplin.is_prime(n), n


def test_check_modulus():
    assert fplin.check_modulus(2) == 2
    assert fplin.check_modulus(np.int64(5)) == 5
    assert fplin.check_modulus(2097143) == 2097143  # the largest prime below P_MAX
    for bad in (0, 1, 4, 9, 561, 2097169, 4194301, 2**31 - 1, 2.0, "3", True, None):
        with pytest.raises(fplin.UnsupportedModulus):
            fplin.check_modulus(bad)
    assert issubclass(fplin.UnsupportedModulus, ValueError)


def test_products_near_the_bound_are_exact():
    """Residues just below p = 2097143 multiply without int64 overflow."""
    from periodica.algebra import GradedAlgebra
    p = 2097143
    table = np.full((2, 9), p - 1, dtype=np.int64)
    alg = GradedAlgebra(p, 4, [1, 0, 3, 0, 2], {(2, 2): table})
    a = np.array([p - 1, p - 2, p - 3], dtype=np.int64)
    want = [sum((p - 1) * int(x) * int(y) for x in a for y in a) % p] * 2
    assert alg.cup(2, a, 2, a).tolist() == want
    assert (alg.cup_matrix(2, a, 2) @ a % p).tolist() == want


def test_split_roots_finds_distinct_roots(monkeypatch):
    rng = np.random.default_rng(30)
    for p in (2, 3, 5, 7, 101, 2097143):
        for _ in range(20):
            count = int(rng.integers(0, min(p, 6) + 1))
            roots = sorted(int(r) for r in rng.choice(min(p, 10**6), size=count, replace=False))
            poly = (1,)
            for r in roots:
                poly = fplin._poly_mul(poly, ((-r) % p, 1), p)
            scaled = tuple(3 * c % p for c in poly) if p > 3 else poly
            assert fplin.split_roots(scaled, p) == tuple(roots), (p, roots)
            with monkeypatch.context() as m:
                m.setattr(fplin, "_SPLIT_SEED", 11)
                assert fplin.split_roots(poly, p) == tuple(roots)


def test_split_roots_refuses_polynomials_that_do_not_split():
    for poly, p in (((1, 0, 1), 3), ((0, 0, 1), 5), ((1, 1, 1), 2), ((0, 0, 1), 2),
                    ((), 7), ((2, 0, 0, 1), 7)):
        with pytest.raises(ValueError):
            fplin.split_roots(poly, p)


def test_consistency_checks_raise_typed_errors(monkeypatch):
    """The re-checks stay on under python -O."""
    m = np.array([[0, 1], [0, 0]])
    monkeypatch.setattr(fplin, "is_semisimple", lambda mat, p: False)
    with pytest.raises(fplin.ConsistencyFailure):
        fplin.semisimple_power(m, 2)


# fplin.primitive_idempotents before it decided a one-dimensional algebra
# directly, verbatim but for the fplin. prefixes: the reference for that
# fast path.
def old_primitive_idempotents(mats, p: int):
    stack = np.array(mats, dtype=np.int64) % p
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("expected a stack of square matrices")
    d, m = stack.shape[0], stack.shape[1]
    flat = stack.reshape(d, m * m)
    pivots = list(fplin.rref(flat, p)[1])
    if len(pivots) != d:
        raise ValueError("the matrices are linearly dependent")
    to_coords = fplin.mat_inv(flat[:, pivots], p)

    def coords(rows):
        x = (rows[:, pivots] @ to_coords) % p
        if not np.array_equal((x @ flat) % p, rows):
            raise ValueError("a product of the matrices lies outside their span")
        return x

    products = (stack[:, None] @ stack[None]) % p
    if not np.array_equal(products, products.transpose(1, 0, 2, 3)):
        raise ValueError("the matrices do not commute")
    # mult[i] multiplies by the i-th basis element: its column j is M_i M_j.
    mult = coords(products.reshape(d * d, m * m)).reshape(d, d, d).transpose(0, 2, 1)
    unit = coords(np.eye(m, dtype=np.int64).reshape(1, m * m))[0]
    flat_mult = mult.reshape(d, d * d)

    def times(a):
        return (a @ flat_mult).reshape(d, d) % p

    def power(a, e):
        return (fplin.mat_pow(times(a), e, p) @ unit) % p

    frobenius = np.array([power(a, p) for a in np.eye(d, dtype=np.int64)],
                         dtype=np.int64).reshape(d, d).T
    fixed = fplin.kernel((frobenius - np.eye(d, dtype=np.int64)) % p, p)
    parts, splits = [unit], []
    for b in fixed.basis:
        if len(parts) == fixed.dim:
            break
        roots = fplin.split_roots(fplin.minimal_polynomial(
            fplin.restricted_matrix(times(b), fixed, fixed), p), p)
        indicators = [(unit - power((b - c * unit) % p, p - 1)) % p for c in roots]
        refined = []
        for e in parts:
            pieces = [q for q in ((times(e) @ ind) % p for ind in indicators) if q.any()]
            if len(pieces) > 1:
                splits.append((e, b, pieces))
            refined += pieces
        parts = refined
    if len(parts) != fixed.dim:
        raise fplin.ConsistencyFailure(
            f"{len(parts)} idempotents for a {fixed.dim}-dimensional fixed subalgebra")
    return fixed, sorted(parts, key=lambda v: tuple(int(t) for t in v)), splits


def _idempotents_outcome(run, mats, p):
    """Everything primitive_idempotents returns, down to dtypes and bytes,
    or the type and message of what it raised."""
    def arrays(xs):
        return [(x.dtype.str, x.shape, x.tobytes()) for x in xs]
    try:
        fixed, parts, splits = run(mats, p)
    except (ValueError, fplin.ConsistencyFailure) as e:
        return type(e), str(e)
    return ((fixed.p, fixed.ambient, fixed.pivots, *arrays([fixed.basis])), arrays(parts),
            [(*arrays([e, b]), arrays(pieces)) for e, b, pieces in splits])


def test_one_dimensional_idempotents_match_the_reference():
    """A single matrix spans an algebra holding the identity exactly when it
    is a nonzero scalar; everything else raises as it did before."""
    rng = np.random.default_rng(14)
    cases = 0
    for p in (2, 3, 5, 7):
        for m in range(1, 5):
            eye = np.eye(m, dtype=np.int64)
            nilpotent = np.eye(m, k=1, dtype=np.int64)
            stacks = [[c * eye] for c in range(p)]               # every scalar, zero included
            stacks += [[(c + p) * eye] for c in range(p)]        # unreduced entries
            stacks += [[c * eye + nilpotent] for c in range(p)]  # scalar plus nilpotent
            stacks += [[np.diag(np.arange(m) % p)], [nilpotent],
                       *([rng.integers(0, p, size=(m, m))] for _ in range(4))]
            for mats in stacks:
                got = _idempotents_outcome(fplin.primitive_idempotents, mats, p)
                assert got == _idempotents_outcome(old_primitive_idempotents, mats, p), \
                    (p, mats)
                cases += 1
            scalar_outcomes = [_idempotents_outcome(fplin.primitive_idempotents, [c * eye], p)
                               for c in range(1, p)]
            assert all(isinstance(o[0], tuple) for o in scalar_outcomes)
        for mats in (np.zeros((1, 2, 3), dtype=np.int64), np.zeros((1, 0, 0), dtype=np.int64)):
            assert (_idempotents_outcome(fplin.primitive_idempotents, mats, p)
                    == _idempotents_outcome(old_primitive_idempotents, mats, p))
    assert cases == 300
