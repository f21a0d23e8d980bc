"""Splitting periodic windows into annihilating summands.

The connected-sum cases have hand-computed splitting traces; verification
is additionally stress-tested against deliberately corrupted results.  The
idempotent computation is compared with the witness-search split loop it
replaced, kept below as a capped reference, and verify_decomposition with
the pass per nonzero degree it replaced (decomposition_reference).
"""

import functools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import decomposition_reference as R
from periodica import corpus, decomposition as D, fplin
from periodica import periodicity as P
from periodica.algebra import Element, _as_int
from periodica.decomposition import VerificationFailure
from rebasing import rebased
from test_fplin import random_semisimple


def build(text):
    return corpus.build(corpus.parse_spec(text))


def window_of(text):
    fx = build(text)
    rep = P.minimum_period(fx.algebra)
    return P.subquotient(fx.algebra, rep.certificate, action=fx.action)


def ring_power(window, a, e):
    """a^e in the degree-k ring, by repeated squaring of D.ring_product;
    ValueError for an exponent that is not a positive int (a bool, float
    or str included)."""
    e = _as_int(e, "the exponent")
    if e < 1:
        raise ValueError("exponent must be positive")
    base = D._vector_of(window, a, window.k)
    result = None
    while e:
        if e & 1:
            result = base.copy() if result is None else D.ring_product(window, result, base)
        e >>= 1
        if e:
            base = D.ring_product(window, base, base)
    return result


def test_connected_sum_of_two_planes_splits():
    w = window_of("ConnectedSum(ComplexProj(4),ComplexProj(4))@2")
    start = time.perf_counter()
    result = D.decompose(w)
    elapsed = time.perf_counter() - start
    assert result.summand_count == 2
    assert [s.element.coeffs for s in result.summands] == [(0, 1), (1, 0)]
    for s in result.summands:
        assert [s.spaces[u].dim for u in (2, 4, 6)] == [1, 1, 1]
        assert [s.spaces[u].dim for u in (1, 3, 5, 7)] == [0, 0, 0, 0]
    report = D.verify_decomposition(w, result)
    assert report.ok and report.violations == ()
    assert elapsed < 1.0


def replay(w, record):
    """Each part is split_element * [separator = c] for the c with
    separator * part = c * part, the c ascend, and the parts sum to
    split_element."""
    p = w.p
    unit = w.to_window(w.k, w.certificate.element.as_vector())
    e, b = record.split_element.as_vector(), record.separator.as_vector()
    assert np.array_equal(ring_power(w, b, p), b)
    values = []
    for part in record.replacements:
        q = part.as_vector()
        on_part = D.ring_product(w, b, q)
        lead = int(np.flatnonzero(q)[0])
        c = int(on_part[lead]) * pow(int(q[lead]), -1, p) % p
        assert np.array_equal(on_part, c * q % p)
        indicator = (unit - ring_power(w, (b - c * unit) % p, p - 1)) % p
        assert np.array_equal(D.ring_product(w, e, indicator), q)
        values.append(c)
    assert values == sorted(set(values)) and len(values) >= 2
    total = sum(part.as_vector() for part in record.replacements) % p
    assert np.array_equal(total, e)


def test_frozen_splitting_trace():
    w = window_of("ConnectedSum(ComplexProj(4),ComplexProj(4))@2")
    result = D.decompose(w)
    assert len(result.trace) == 1
    r = result.trace[0]
    assert r.split_element.coeffs == (1, 1)
    assert r.separator.coeffs == (1, 0)
    assert [e.coeffs for e in r.replacements] == [(0, 1), (1, 0)]
    assert r.part_dims == ((1, 0, 0), (2, 1, 1), (3, 0, 0), (4, 1, 1),
                           (5, 0, 0), (6, 1, 1), (7, 0, 0))
    replay(w, r)


def test_trace_replays():
    for text in ("ConnectedSum(ConnectedSum(ComplexProj(4),ComplexProj(4)),ComplexProj(4))@2",
                 "ConnectedSum(ConnectedSum(ComplexProj(4),ComplexProj(4)),ComplexProj(4))@3",
                 "ConnectedSum(ConnectedSum(QuatProj(4),QuatProj(4)),QuatProj(4))@5"):
        w = window_of(text)
        result = D.decompose(w)
        assert len(result.trace) == result.summand_count - 1, text
        dims = {s.element.coeffs: {u: space.dim for u, space in sorted(s.spaces.items())}
                for s in result.summands}
        for r in result.trace:
            replay(w, r)
            for i, part in enumerate(r.replacements):
                op = D.multiplication_operator(w, part)
                assert [row[1 + i] for row in r.part_dims] == [
                    fplin.rank(op.blocks[u], w.p) for u in range(1, w.n)]
                assert [row[0] for row in r.part_dims] == list(range(1, w.n))
        # the parts never split again are exactly the summand elements
        split = {r.split_element.coeffs for r in result.trace}
        leaves = {e.coeffs for r in result.trace for e in r.replacements} - split
        assert leaves == set(dims), text


def test_summands_annihilate_each_other():
    w = window_of("ConnectedSum(ComplexProj(4),ComplexProj(4))@2")
    result = D.decompose(w)
    a, b = result.summands
    for u in (2, 4):
        # a's element multiplies b's space to zero, degreewise
        av = w.embed(2, a.element.as_vector())
        for col in b.spaces[u].basis:
            prod = w.parent.cup(2, av, u, w.embed(u, col))
            assert not w.to_window(u + 2, prod).any(), u


def test_irreducible_window_is_single_summand():
    w = window_of("ComplexProj(4)@2")
    result = D.decompose(w)
    assert result.summand_count == 1
    assert result.trace == []
    assert D.verify_decomposition(w, result).ok


def test_sphere_window_is_empty():
    w = window_of("Sphere(8)@2")
    result = D.decompose(w)
    assert result.summand_count == 0
    assert D.verify_decomposition(w, result).ok


def test_triple_sum_gives_three_summands():
    w = window_of("ConnectedSum(ConnectedSum(ComplexProj(4),ComplexProj(4)),ComplexProj(4))@2")
    result = D.decompose(w)
    assert result.summand_count == 3
    assert D.verify_decomposition(w, result).ok
    elements = sorted(s.element.coeffs for s in result.summands)
    assert elements == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_quaternionic_sum_splits():
    w = window_of("ConnectedSum(QuatProj(4),QuatProj(4))@2")
    result = D.decompose(w)
    assert result.summand_count == 2
    assert D.verify_decomposition(w, result).ok


def test_mod3_sum_splits():
    w = window_of("ConnectedSum(ComplexProj(4),ComplexProj(4))@3")
    result = D.decompose(w)
    assert result.summand_count == 2
    assert D.verify_decomposition(w, result).ok


def test_window_mode_refused():
    w = window_of("QuatProj(3)@2")
    with pytest.raises(ValueError):
        D.decompose(w)


def test_verification_catches_swapped_elements():
    w = window_of("ConnectedSum(ComplexProj(4),ComplexProj(4))@2")
    result = D.decompose(w)
    a, b = result.summands
    forged = D.DecompositionResult(
        [D.Summand(b.element, a.spaces), D.Summand(a.element, b.spaces)],
        result.trace)
    report = D.verify_decomposition(w, forged)
    assert not report.ok and report.violations


def test_verification_catches_overlapping_spaces():
    w = window_of("ConnectedSum(ComplexProj(4),ComplexProj(4))@2")
    result = D.decompose(w)
    a, b = result.summands
    forged = D.DecompositionResult([a, D.Summand(b.element, a.spaces)], result.trace)
    report = D.verify_decomposition(w, forged)
    assert not report.ok and report.violations


def test_verification_catches_a_zero_summand():
    w = window_of("ConnectedSum(ComplexProj(4),ComplexProj(4))@2")
    result = D.decompose(w)
    zero = D.Summand(Element(2, (0, 0)),
                     {u: fplin.Subspace.zero(w.p, w.dim(u)) for u in range(1, w.n)})
    forged = D.DecompositionResult(result.summands + [zero], result.trace)
    report = D.verify_decomposition(w, forged)
    assert report.violations == ("summand 2 is zero",)


def ring_homomorphism_holds(window, a, b):
    """Composition of actions matches the action of the ring product, and
    evaluating an action on the certified element recovers the acting
    element (so distinct elements act distinctly)."""
    k = window.k
    av = D._vector_of(window, a, k)
    bv = D._vector_of(window, b, k)
    op_a = D.multiplication_operator(window, av)
    op_b = D.multiplication_operator(window, bv)
    op_ab = D.multiplication_operator(window, D.ring_product(window, av, bv))
    for u in range(1, window.n):
        composed = (op_a.blocks[u] @ op_b.blocks[u]) % window.p
        if not np.array_equal(composed, op_ab.blocks[u]):
            return False
    xv = window.to_window(k, window.certificate.element.as_vector())
    for v, op in ((av, op_a), (bv, op_b)):
        if not np.array_equal((op.blocks[k] @ xv) % window.p, v):
            return False
    return True


def test_multiplication_operator_consistency():
    w = window_of("ConnectedSum(ComplexProj(4),ComplexProj(4))@2")
    x1 = Element(2, (1, 0))
    x2 = Element(2, (0, 1))
    op = D.multiplication_operator(w, x1)
    for u in range(1, w.n):
        assert op.blocks[u].shape == (w.dim(u), w.dim(u))
    assert ring_homomorphism_holds(w, x1, x2)
    assert ring_homomorphism_holds(w, x1, x1)
    assert not D.ring_product(w, x1, x2).any()


def test_ring_power():
    w = window_of("ConnectedSum(ComplexProj(4),ComplexProj(4))@2")
    x = Element(2, (1, 1))
    sq = ring_power(w, x, 2)
    assert np.array_equal(sq, D.ring_product(w, x, x))
    assert np.array_equal(ring_power(w, x, 1), x.as_vector())


def test_ring_power_refuses_an_exponent_that_is_not_an_int():
    w = window_of("ConnectedSum(ComplexProj(4),ComplexProj(4))@2")
    x = Element(2, (1, 1))
    for e in (2.0, "2", None, True, False):
        with pytest.raises(ValueError):
            ring_power(w, x, e)
    assert np.array_equal(ring_power(w, x, np.int64(2)), ring_power(w, x, 2))


def test_random_sums_recover_summand_count():
    rng = np.random.default_rng(5)
    leaves = {"ComplexProj(4)": (2, 3), "QuatProj(4)": (2,)}
    for leaf, counts in leaves.items():
        for r in counts:
            text = leaf
            for _ in range(r - 1):
                text = f"ConnectedSum({text},{leaf})"
            w = window_of(f"{text}@2")
            result = D.decompose(w)
            assert result.summand_count == r, (leaf, r)
            assert D.verify_decomposition(w, result).ok
            # each summand element is supported on exactly one leaf
            for s in result.summands:
                assert sum(1 for c in s.element.coeffs if c) == 1


# The witness-search split loop the idempotent computation replaced: the
# reference it must match, capped at p^d splitting candidates per search.

ORACLE_CAP = 2**16


def _sub_in_ambient(space, rows, p):
    """Lift rows given in space coordinates back to ambient coordinates."""
    if rows.shape[0] == 0:
        return fplin.Subspace.zero(p, space.ambient)
    return fplin.Subspace.from_vectors((rows @ space.basis) % p, p, space.ambient)


def _acts_invertibly(window, op, spaces):
    for u, space in spaces.items():
        if space.dim == 0:
            continue
        try:
            m = fplin.restricted_matrix(op.blocks[u], space, space)
        except ValueError:
            return False
        if fplin.rank(m, window.p) < space.dim:
            return False
    return True


def _splitting_witness(window, element, spaces, cap, memo):
    """Lex-first pair (a, b) with a + b = element, neither acting invertibly."""
    k, p = window.k, window.p
    d = window.dim(k)
    if p ** d > cap:
        raise P.SearchCapExceeded(f"{p ** d} splitting candidates exceed the cap {cap}")
    xv = element.as_vector()

    def bad(v):
        key = tuple(int(t) for t in v)
        op = memo.get(key)
        if op is None:
            op = memo[key] = D.multiplication_operator(window, v)
        return not _acts_invertibly(window, op, spaces)

    for a in fplin.enumerate_vectors(d, p):
        b = (xv - a) % p
        if bad(a) and bad(b):
            return Element.of(k, a), Element.of(k, b)
    return None


def operator_order(mat, p, cap=10**6):
    """Multiplicative order of an invertible matrix mod p."""
    m = fplin.as_matrix(mat, p)
    d = m.shape[0]
    if m.shape != (d, d):
        raise ValueError("operator_order expects a square matrix")
    if d == 0:
        return 1
    if fplin.rank(m, p) != d:
        raise fplin.NotInvertible("singular matrix has no multiplicative order")
    ident = np.eye(d, dtype=np.int64)
    cur = m
    r = 1
    while not np.array_equal(cur, ident):
        cur = (cur @ m) % p
        r += 1
        if r > cap:
            raise RuntimeError(f"order exceeds cap {cap}")
    return r


def test_operator_order():
    assert operator_order(np.zeros((0, 0), dtype=np.int64), 3) == 1
    assert operator_order(np.eye(4, dtype=np.int64), 2) == 1
    cyc = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert operator_order(cyc, 2) == 3
    assert operator_order(2 * np.eye(1, dtype=np.int64), 5) == 4
    with pytest.raises(fplin.NotInvertible):
        operator_order(np.zeros((2, 2), dtype=np.int64), 2)
    with pytest.raises(RuntimeError):
        operator_order(3 * np.eye(1, dtype=np.int64), 7, cap=2)
    rng = np.random.default_rng(22)
    for p in (2, 3):
        for _ in range(10):
            m = random_semisimple(rng, int(rng.integers(1, 5)), p)
            if fplin.rank(m, p) < m.shape[0]:
                continue
            r = operator_order(m, p)
            assert np.array_equal(fplin.mat_pow(m, r, p), np.eye(m.shape[0], dtype=np.int64))
            for q in range(1, r):
                assert not np.array_equal(fplin.mat_pow(m, q, p), np.eye(m.shape[0], dtype=np.int64))


def _family_order(window, op, spaces):
    order = 1
    for u, space in spaces.items():
        if space.dim == 0:
            continue
        m = fplin.restricted_matrix(op.blocks[u], space, space)
        order = math.lcm(order, operator_order(m, window.p))
    return order


def oracle_decompose(window, cap=ORACLE_CAP):
    """Summands of the old split loop, in its order."""
    cert = window.certificate
    k, n, p = window.k, window.n, window.p
    total = window.total_dim
    if total == 0:
        return []
    exponent = 0
    while p ** exponent < total:
        exponent += 1
    xv = window.to_window(k, cert.element.as_vector())
    full = {u: fplin.Subspace.full(p, window.dim(u)) for u in range(1, n)}
    summands = [D.Summand(Element.of(k, xv), full)]
    memo = {}
    for _ in range(total + 1):
        hit = None
        for idx, s in enumerate(summands):
            w = _splitting_witness(window, s.element, s.spaces, cap, memo)
            if w is not None:
                hit = (idx, w)
                break
        if hit is None:
            break
        idx, (a, b) = hit
        s = summands[idx]
        frob_a = ring_power(window, a.as_vector(), p ** exponent)
        frob_b = ring_power(window, b.as_vector(), p ** exponent)
        op_a = D.multiplication_operator(window, frob_a)
        op_b = D.multiplication_operator(window, frob_b)
        ker_a, ker_b, middle = {}, {}, {}
        for u in range(1, n):
            space = s.spaces[u]
            ra = fplin.restricted_matrix(op_a.blocks[u], space, space)
            rb = fplin.restricted_matrix(op_b.blocks[u], space, space)
            ka = _sub_in_ambient(space, fplin.kernel(ra, p).basis, p)
            kac = _sub_in_ambient(space, fplin.image(ra, p).basis, p)
            kb = _sub_in_ambient(space, fplin.kernel(rb, p).basis, p)
            kbc = _sub_in_ambient(space, fplin.image(rb, p).basis, p)
            ker_a[u], ker_b[u], middle[u] = ka, kb, kac.intersection(kbc)
        order_a = _family_order(window, op_a, middle)
        order_b = _family_order(window, op_b, middle)
        head = ring_power(window, frob_a, order_a)
        tail = ring_power(window, frob_b, order_b)
        tail = (tail - D.ring_product(window, head, tail)) % p
        xi = s.element.as_vector()
        repl_a = D.ring_product(window, D.ring_product(window, xi, head), xi)
        repl_b = D.ring_product(window, D.ring_product(window, xi, tail), xi)
        first = D.Summand(Element.of(k, repl_a),
                          {u: middle[u].sum(ker_b[u]) for u in range(1, n)})
        second = D.Summand(Element.of(k, repl_b), ker_a)
        summands[idx:idx + 1] = [first, second]
    else:
        raise VerificationFailure("splitting loop failed to terminate")
    return summands


def oracle_flags_split(window, summand, cap=ORACLE_CAP):
    """The old verifier's irreducibility check: True when the summand splits."""
    try:
        return _splitting_witness(window, summand.element, summand.spaces, cap, {}) is not None
    except (ValueError, D.OverlapMismatch):
        return True


def _chain(k, leaf):
    return functools.reduce(lambda a, b: f"ConnectedSum({a},{b})", [leaf] * k)


def assert_matches_oracle(w, in_order=True):
    """Same summand elements, same spaces byte for byte, in the same order;
    or, with in_order=False, the old summands sorted by element."""
    want = oracle_decompose(w)
    got = D.decompose(w).summands
    if not in_order:
        want = sorted(want, key=lambda s: s.element.coeffs)
    assert [s.element for s in got] == [s.element for s in want]
    for a, b in zip(got, want):
        assert sorted(a.spaces) == sorted(b.spaces)
        for u in a.spaces:
            assert a.spaces[u] == b.spaces[u]
            assert a.spaces[u].basis.tobytes() == b.spaces[u].basis.tobytes()


def merged(result, i, j, p):
    """A forgery: summands i and j replaced by one with the summed element and spaces."""
    a, b = result.summands[i], result.summands[j]
    both = D.Summand(Element.of(a.element.degree, (a.element.as_vector()
                                                    + b.element.as_vector()) % p),
                     {u: a.spaces[u].sum(b.spaces[u]) for u in a.spaces})
    rest = [s for t, s in enumerate(result.summands) if t not in (i, j)]
    return D.DecompositionResult([both] + rest, []), both


def assert_flags_merged_forgeries(w):
    """Every merge of two summands splits under the old check, and the new
    one reports it as splitting further."""
    result = D.decompose(w)
    for i in range(result.summand_count):
        for j in range(i + 1, result.summand_count):
            forged, both = merged(result, i, j, w.p)
            assert oracle_flags_split(w, both)
            report = D.verify_decomposition(w, forged)
            assert any(v.startswith("summand 0 splits further at")
                       for v in report.violations), report.violations


ORACLE_WINDOWS = [
    # the decompose benchmark's fixtures
    *(f"{_chain(k, 'ComplexProj(6)')}@2" for k in (2, 3, 4, 5)),
    f"{_chain(2, 'ComplexProj(6)')}@5",
    *(f"{_chain(k, 'ComplexProj(4)')}@2" for k in (4, 6)),
    *(f"{_chain(k, 'ComplexProj(4)')}@3" for k in (3, 4)),
    # reduced windows from the corpus
    "ComplexProj(4)@2", "ComplexProj(6)@3", "QuatProj(4)@2", "QuatProj(4)@3",
    "Sphere(8)@2", "TruncatedPoly(2,5)@3", "TruncatedPoly(4,4)@5",
    "ConnectedSum(ComplexProj(4),ComplexProj(4))@2",
    "ConnectedSum(ComplexProj(4),ComplexProj(4))@3",
    "ConnectedSum(QuatProj(4),QuatProj(4))@2",
    f"{_chain(3, 'QuatProj(4)')}@5",
    f"{_chain(3, 'ComplexProj(6)')}@5",
    # non-reduced windows
    "Product(Sphere(2),ComplexProj(8))@2", "Product(Sphere(2),ComplexProj(8))@3",
    "Product(Sphere(2),ComplexProj(4))@2", "Product(Sphere(2),ComplexProj(5))@5",
    "ConnectedSum(Product(Sphere(2),ComplexProj(4)),Product(Sphere(2),ComplexProj(4)))@2",
    "ConnectedSum(Product(Sphere(2),ComplexProj(4)),ComplexProj(5))@3",
]


@pytest.mark.parametrize("text", ORACLE_WINDOWS)
def test_decompose_matches_the_split_loop(text):
    w = window_of(text)
    assert_matches_oracle(w)
    assert_flags_merged_forgeries(w)


@st.composite
def _periodic_specs(draw):
    """Small connected sums and sphere products that have direct windows."""
    p = draw(st.sampled_from((2, 3, 5)))
    if draw(st.booleans()):
        half = draw(st.sampled_from((4, 5, 6)))
        leaves = [f"ComplexProj({half})", f"Product(Sphere(2),ComplexProj({half - 1}))"]
        if half % 2 == 0:
            leaves.append(f"QuatProj({half // 2})")
        parts = draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3))
        body = functools.reduce(lambda a, b: f"ConnectedSum({a},{b})", parts)
    else:
        sphere = draw(st.sampled_from((2, 4)))
        body = f"Product(Sphere({sphere}),ComplexProj({draw(st.integers(3, 5))}))"
    return f"{body}@{p}"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_periodic_specs(), st.integers(0, 2**16), st.booleans())
def test_decompose_matches_the_split_loop_on_random_specs(text, seed, rebase):
    """A random inducing element of a random degree, so that the unit and
    the idempotents carry coefficients other than 0 and 1.  In a random
    basis the old loop's order is no longer sorted, so there only the sets
    must agree."""
    w = random_window(text, seed, rebase)
    assert_matches_oracle(w, in_order=not rebase)
    assert_flags_merged_forgeries(w)


def random_window(text, seed, rebase):
    """The window of a random inducing element of a random degree of the
    spec, in a random basis when rebase is set."""
    alg = build(text).algebra
    if rebase:
        alg = rebased(alg, seed)
    rng = np.random.default_rng(seed)
    degrees = [k for k in range(1, (alg.n - 1) // 3 + 1)
               if 0 < alg.dim(k) and alg.p ** alg.dim(k) <= 125]
    assume(degrees)
    k = degrees[int(rng.integers(len(degrees)))]
    cert = None
    for _ in range(20):
        x = Element.of(k, rng.integers(0, alg.p, alg.dim(k)))
        out = P.induces_periodicity(alg, x)
        if isinstance(out, P.PeriodicityCertificate):
            cert = out
            break
    assume(cert is not None)
    return P.subquotient(alg, cert)


def test_large_prime_window_answers_without_a_cap():
    """p = 2097143 and d = 3: p^d splitting candidates are far past any cap."""
    p = 2097143
    fx = build(f"{_chain(3, 'ComplexProj(6)')}@{p}")
    x = (1, 5, p - 7)
    w = P.subquotient(fx.algebra, P.PeriodicityCertificate(2, Element(2, x), "direct"))
    with pytest.raises(P.SearchCapExceeded):
        oracle_decompose(w, cap=P.DEFAULT_SEARCH_CAP)
    result = D.decompose(w)
    assert [s.element.coeffs for s in result.summands] == [(0, 0, p - 7), (0, 5, 0), (1, 0, 0)]
    for s in result.summands:
        assert ({u: space.dim for u, space in sorted(s.spaces.items())}
                == {u: 1 if u % 2 == 0 else 0 for u in range(1, 12)})
    assert D.verify_decomposition(w, result).ok
    for r in result.trace:
        replay(w, r)
    forged, _ = merged(result, 0, 2, p)
    report = D.verify_decomposition(w, forged)
    assert any(v.startswith("summand 0 splits further at") for v in report.violations)


# The idempotent code that fplin.primitive_idempotents replaced, kept
# verbatim as its reference: the Frobenius matrix of the window ring from
# ring powers, the indicator idempotents, and the local-factor count from
# the Frobenius kernel of the span of the restricted operators.

def old_frobenius_matrix(window):
    """Matrix of a -> a^p on the degree-k ring, linear because p is prime."""
    k, p = window.k, window.p
    d = window.dim(k)
    columns = [ring_power(window, window.basis_element(k, i), p) for i in range(d)]
    return np.array(columns, dtype=np.int64).reshape(d, d).T


def old_indicator(window, unit, b, c):
    """[b = c] = unit - (b - c * unit)^(p-1).

    For b fixed by Frobenius this is the idempotent on whose local factors
    b takes the value c.
    """
    p = window.p
    return (unit - ring_power(window, (b - c * unit) % p, p - 1)) % p


def old_primitive_idempotents(window):
    """The primitive idempotents of the degree-k ring, sorted by coefficients,
    and the splits that found them.

    They are the primitive idempotents of the Frobenius-fixed subalgebra B.
    Starting from the unit, every basis vector b of B splits each current
    idempotent e into the nonzero e * [b = c], c running over the roots of
    the minimal polynomial of b on B.  Each split into two or more parts is
    listed as (e, b, parts), parts in ascending order of c.
    """
    k, p = window.k, window.p
    unit = D._unit(window)
    d = window.dim(k)
    fixed = fplin.kernel((old_frobenius_matrix(window) - np.eye(d, dtype=np.int64)) % p, p)
    parts, splits = [unit], []
    for b in fixed.basis:
        if len(parts) == fixed.dim:
            break
        on_b = fplin.restricted_matrix(D._action_block(window, b, k), fixed, fixed)
        indicators = [old_indicator(window, unit, b, c)
                      for c in fplin.split_roots(fplin.minimal_polynomial(on_b, p), p)]
        refined = []
        for e in parts:
            pieces = [q for q in (D.ring_product(window, e, ind) for ind in indicators) if q.any()]
            if len(pieces) > 1:
                splits.append((e, b, pieces))
            refined += pieces
        parts = refined
    if len(parts) != fixed.dim:
        raise VerificationFailure(
            f"{len(parts)} idempotents for a {fixed.dim}-dimensional fixed subalgebra")
    return sorted(parts, key=D._key), splits


def old_local_factor_count(window, operators, spaces):
    """dim ker(Frobenius - id) on the algebra A the given operators span on
    the summand; 1 exactly when A is local, 0 when the summand is zero.

    ValueError when an operator does not map the summand into itself or A
    is not closed under p-th powers.
    """
    p = window.p
    degrees = [u for u, s in sorted(spaces.items()) if s.dim]
    if not degrees:
        return 0
    sizes = [spaces[u].dim for u in degrees]
    flat = [np.concatenate([fplin.restricted_matrix(op.blocks[u], spaces[u], spaces[u]).ravel()
                            for u in degrees]) for op in operators]
    algebra = fplin.Subspace.from_vectors(flat, p, sum(s * s for s in sizes))
    frobenius = []
    for row in algebra.basis:
        blocks, at = [], 0
        for s in sizes:
            blocks.append(fplin.mat_pow(row[at:at + s * s].reshape(s, s), p, p).ravel())
            at += s * s
        frobenius.append(algebra.coords_of(np.concatenate(blocks)))
    frob = np.array(frobenius, dtype=np.int64).reshape(algebra.dim, algebra.dim).T
    return fplin.kernel((frob - np.eye(algebra.dim, dtype=np.int64)) % p, p).dim


def _same_vectors(got, want):
    return [v.dtype.str + v.tobytes().hex() for v in got] == [
        v.dtype.str + v.tobytes().hex() for v in want]


def acting_idempotents(window, idempotents, spaces):
    """How many of the primitive idempotents act on the spaces nonzero."""
    p = window.p
    return sum(any(((D.multiplication_operator(window, e).blocks[u] @ spaces[u].basis.T)
                    % p).any() for u in window.nonzero_degrees if spaces[u].dim)
               for e in idempotents)


def assert_idempotents_match_the_parent(w):
    """Same idempotents, splits and fixed subalgebra as the old code, byte
    for byte.  On the whole window, on every summand, on every merge of two
    summands and on every degree of one, the local-factor count of the old
    code is the number of idempotents acting nonzero, as verify_decomposition
    reads it."""
    p, k, d = w.p, w.k, w.dim(w.k)
    got, got_splits = D.primitive_idempotents(w)
    want, want_splits = old_primitive_idempotents(w)
    assert _same_vectors(got, want)
    assert len(got_splits) == len(want_splits)
    for (e, b, parts), (e0, b0, parts0) in zip(got_splits, want_splits):
        assert _same_vectors([e, b, *parts], [e0, b0, *parts0])
    basis = np.eye(d, dtype=np.int64)
    fixed = fplin.primitive_idempotents([D._action_block(w, v, k) for v in basis], p)[0]
    assert fixed == fplin.kernel((old_frobenius_matrix(w) - basis) % p, p)
    operators = [D.multiplication_operator(w, v) for v in basis]
    result = D.decompose(w)
    full = {u: fplin.Subspace.full(p, w.dim(u)) for u in range(1, w.n)}
    cases = [full] + [s.spaces for s in result.summands]
    for i in range(result.summand_count):
        cases += [merged(result, i, j, p)[1].spaces for j in range(i + 1, result.summand_count)]
    cases += [{**{u: fplin.Subspace.zero(p, w.dim(u)) for u in full}, u: full[u]} for u in full]
    for spaces in cases:
        assert acting_idempotents(w, got, spaces) == old_local_factor_count(w, operators, spaces)
    assert acting_idempotents(w, got, full) == result.summand_count


@pytest.mark.parametrize("text", [t for t in ORACLE_WINDOWS if not t.startswith("Sphere")])
def test_idempotents_match_the_parent(text):
    assert_idempotents_match_the_parent(window_of(text))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_periodic_specs(), st.integers(0, 2**16), st.booleans())
def test_idempotents_match_the_parent_on_random_specs(text, seed, rebase):
    assert_idempotents_match_the_parent(random_window(text, seed, rebase))


def test_malformed_element_is_a_violation():
    w = window_of("ConnectedSum(ComplexProj(4),ComplexProj(4))@2")
    a, b = D.decompose(w).summands
    cases = [((1,), "summand 0 element has 1 coordinates, need 2"),
             ((1, 0, 0), "summand 0 element has 3 coordinates, need 2")]
    cases += [((0, bad), "summand 0 element has a non-integer coefficient")
              for bad in (True, 1.0, "1")]
    for coeffs, violation in cases:
        forged = D.DecompositionResult([D.Summand(Element(2, coeffs), a.spaces), b], [])
        report = D.verify_decomposition(w, forged)
        assert not report.ok
        assert violation in report.violations, coeffs
        assert report == R.verify_decomposition(w, forged)


# The operator assembly and verification that the window's ring_action
# replaced, kept verbatim (renamed old_*) as their reference.  They build
# every operator block from cup matrices, one element at a time, and solve
# one restricted matrix per (operator, summand, degree).

def old_multiplication_operator(window, a):
    """Assemble the degree-preserving operator of a degree-k element.

    Low degrees unshift after cupping, high degrees cup after unshifting;
    the overlap 1+k..n-1-k must agree under both readings.
    """
    k, n = window.k, window.n
    if 3 * k > n - 1:
        raise ValueError("the action needs 3k <= n-1")
    av = D._vector_of(window, a, k)
    blocks = {u: old_action_block(window, av, u) for u in range(1, n)}
    return D.MultOperator(Element.of(k, av), blocks)


def old_action_block(window, av, u):
    """Matrix of v -> unshift(a cup v) on window degree u, for a degree-k
    vector a; in degree k it is multiplication by a on the degree-k ring."""
    k, n, p = window.k, window.n, window.p
    low = high = None
    if u <= n - 1 - k:
        low = (window.shift_invs[u] @ window.cup_matrix(k, av, u)) % p
    if u >= 1 + k:
        high = (window.cup_matrix(k, av, u - k) @ window.shift_invs[u - k]) % p
    if low is not None and high is not None and not np.array_equal(low, high):
        raise D.OverlapMismatch(f"action formulas disagree in degree {u}")
    return low if low is not None else high


def old_block_local_factor_count(window, operators, spaces):
    """Number of local factors of the algebra A the given operators span on
    the summand, as block-diagonal matrices over its nonzero degrees: 1
    exactly when A is local, 0 when the summand is zero.

    ValueError when an operator does not map the summand into itself or A
    is not closed under products.
    """
    p = window.p
    degrees = [u for u, s in sorted(spaces.items()) if s.dim]
    if not degrees:
        return 0
    ends = np.cumsum([spaces[u].dim for u in degrees])
    size = int(ends[-1])
    flat = []
    for op in operators:
        block = np.zeros((size, size), dtype=np.int64)
        for u, end in zip(degrees, ends):
            at = end - spaces[u].dim
            block[at:end, at:end] = fplin.restricted_matrix(op.blocks[u], spaces[u], spaces[u])
        flat.append(block.ravel())
    algebra = fplin.Subspace.from_vectors(flat, p, size * size)
    return fplin.primitive_idempotents(algebra.basis.reshape(-1, size, size), p)[0].dim


def old_verify_decomposition(window, result, operator=old_multiplication_operator):
    """Check a decomposition from scratch: degreewise direct sum, each
    element a degree-k window vector inducing on its own summand and
    annihilating the rest, and each summand local: the algebra the degree-k
    ring induces on it, as block-diagonal restricted operators, has one
    primitive idempotent (fplin.primitive_idempotents).  A summand that is
    not local is reported with a pair (e, unit - e) of idempotents that both
    act on it nontrivially.  Violations come back as report data.

    operator builds the basis elements' operators; D.multiplication_operator
    reads them from the window's ring_action, as the span-closure check did
    after ring_action replaced the cup-matrix assembly."""
    k, n, p = window.k, window.n, window.p
    violations = []
    summands = result.summands
    if not summands:
        if window.total_dim:
            violations.append("empty decomposition of a nonzero window")
        return D.DecompositionReport(not violations, tuple(violations))
    for u in range(1, n):
        parts = []
        for i, s in enumerate(summands):
            space = s.spaces.get(u)
            if space is None or space.ambient != window.dim(u):
                violations.append(f"summand {i} carries no subspace of degree {u}")
                return D.DecompositionReport(False, tuple(violations))
            parts.append(space)
        if not fplin.direct_sum_check(parts, fplin.Subspace.full(p, window.dim(u)), full=True):
            violations.append(f"summands do not direct-sum to degree {u}")
    for i, s in enumerate(summands):
        if s.element.degree != k:
            violations.append(f"summand {i} element has degree {s.element.degree}")
            continue
        if len(s.element.coeffs) != window.dim(k):
            violations.append(f"summand {i} element has {len(s.element.coeffs)} "
                              f"coordinates, need {window.dim(k)}")
            continue
        xiv = s.element.as_vector()
        for u in range(1, n):
            cupm = window.cup_matrix(k, xiv, u)
            for j, other in enumerate(summands):
                if j != i and other.spaces[u].dim and (
                        (cupm @ other.spaces[u].basis.T) % p).any():
                    violations.append(
                        f"summand {i} element does not annihilate summand {j} in degree {u}")
            if u <= n - 1 - k and s.spaces[u].dim:
                target = s.spaces[u + k]
                if s.spaces[u].dim != target.dim:
                    violations.append(
                        f"summand {i} degrees {u} and {u + k} have unequal dimension")
                    continue
                try:
                    m = fplin.restricted_matrix(cupm, s.spaces[u], target)
                except ValueError:
                    violations.append(
                        f"summand {i} is not stable under its element at degree {u}")
                    continue
                if fplin.rank(m, p) < target.dim:
                    violations.append(
                        f"summand {i} element is not bijective at degree {u}")
    try:
        operators = [operator(window, window.basis_element(k, j))
                     for j in range(window.dim(k))]
    except (ValueError, D.OverlapMismatch):
        violations.append("the window does not support the degree-k action")
        return D.DecompositionReport(False, tuple(violations))
    idempotents = None
    for i, s in enumerate(summands):
        if s.element.degree != k:
            continue
        try:
            local = old_block_local_factor_count(window, operators, s.spaces)
        except ValueError:
            violations.append(f"summand {i} does not support the degree-k action")
            continue
        if local == 0:
            violations.append(f"summand {i} is zero")
        elif local > 1:
            if idempotents is None:
                idempotents = D.primitive_idempotents(window)[0]
            violations.append(f"summand {i} splits further" + old_split_witness(
                window, idempotents, s.spaces))
    return D.DecompositionReport(not violations, tuple(violations))


def old_split_witness(window, idempotents, spaces):
    """" at a/b" for the first primitive idempotent a that acts on the
    summand as neither zero nor the identity, and b = unit - a."""
    p = window.p
    total = sum(s.dim for s in spaces.values())
    for e in idempotents:
        op = D.multiplication_operator(window, e)
        r = sum(fplin.rank((op.blocks[u] @ spaces[u].basis.T) % p, p)
                for u in window.nonzero_degrees if spaces[u].dim)
        if 0 < r < total:
            return f" at {D._key(e)}/{D._key((D._unit(window) - e) % p)}"
    return ""


def _outcome(fn, *args):
    """fn's result as text, or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # the reference's failures must be matched too
        return f"raised {type(exc).__name__}: {exc}"


def _forgeries(w, result):
    """The decomposition and mutants of it: every merged pair, dropped
    summand, pair of swapped elements and perturbed element, each degree's
    space swapped between the first two summands, a space of the first
    summand the ring does not keep, a wrong-degree element, an appended
    zero summand and the _space_forgeries."""
    p, k, d = w.p, w.k, w.dim(w.k)
    summands = result.summands
    s = len(summands)
    out = [result]
    for i in range(s):
        out += [merged(result, i, j, p)[0] for j in range(i + 1, s)]
        out.append(D.DecompositionResult(summands[:i] + summands[i + 1:], []))
        for j in range(i + 1, s):
            swapped = list(summands)
            swapped[i] = D.Summand(summands[j].element, summands[i].spaces)
            swapped[j] = D.Summand(summands[i].element, summands[j].spaces)
            out.append(D.DecompositionResult(swapped, []))
        bumped = summands[i].element.as_vector()
        bumped[i % d] = (bumped[i % d] + 1) % p
        out.append(D.DecompositionResult(
            summands[:i] + [D.Summand(Element.of(k, bumped), summands[i].spaces)]
            + summands[i + 1:], []))
    if s >= 2:
        a, b = summands[:2]
        for u in range(1, w.n):
            if a.spaces[u] != b.spaces[u]:
                out.append(D.DecompositionResult(
                    [D.Summand(a.element, {**a.spaces, u: b.spaces[u]}),
                     D.Summand(b.element, {**b.spaces, u: a.spaces[u]})] + summands[2:], []))
        u = next((u for u in range(1, w.n) if a.spaces[u].dim and b.spaces[u].dim), None)
        if u is not None:
            mixed = fplin.Subspace.from_vectors([a.spaces[u].basis[0] + b.spaces[u].basis[0]],
                                                p, w.dim(u))
            out.append(D.DecompositionResult(
                [D.Summand(a.element, {**a.spaces, u: mixed})] + summands[1:], []))
    if s:
        out.append(D.DecompositionResult(
            [D.Summand(Element(k + 1, summands[0].element.coeffs), summands[0].spaces)]
            + summands[1:], []))
    zero = D.Summand(Element(k, (0,) * d),
                     {u: fplin.Subspace.zero(p, w.dim(u)) for u in range(1, w.n)})
    out.append(D.DecompositionResult(summands + [zero], []))
    return out + [forged for forged, _, _ in _space_forgeries(w, result)]


def _space_forgeries(w, result):
    """(forgery, i, u), where summand i has no space of degree u: the last
    summand without its degree-k space, and the first with a degree-(n-1)
    space one coordinate too long."""
    summands = result.summands
    if not summands:
        return []
    last, first = len(summands) - 1, summands[0]
    dropped = {u: space for u, space in summands[last].spaces.items() if u != w.k}
    long = {**first.spaces, w.n - 1: fplin.Subspace.zero(w.p, w.dim(w.n - 1) + 1)}
    return [(D.DecompositionResult(summands[:last] + [D.Summand(summands[last].element, dropped)],
                                   []), last, w.k),
            (D.DecompositionResult([D.Summand(first.element, long)] + summands[1:], []),
             0, w.n - 1)]


def _same_blocks(got, want):
    assert sorted(got.blocks) == sorted(want.blocks)
    for u in want.blocks:
        g, h = got.blocks[u], want.blocks[u]
        assert (g.dtype, g.shape, g.tobytes()) == (h.dtype, h.shape, h.tobytes()), u
    assert got.element == want.element


@pytest.mark.parametrize("text", ORACLE_WINDOWS)
def test_verify_decomposition_matches_the_parent(text):
    """Byte-identical reports on the decomposition and every forgery, all
    checked on one window, so its ring_action is shared and every report is
    computed afresh."""
    w = window_of(text)
    result = D.decompose(w)
    for forged in _forgeries(w, result):
        want = _outcome(old_verify_decomposition, w, forged)
        assert _outcome(D.verify_decomposition, w, forged) == want
        assert _outcome(D.verify_decomposition, w, forged) == want


def _padding_forgeries(w, result):
    """Forgeries whose summands differ in dimension from degree to degree,
    so that the stacked check pads rows, columns and blocks unevenly: in
    each nonzero degree, the first summand also takes the second's space
    there and the second keeps none; the first summand takes all of one
    degree, so that degree stacks more rows than its dimension; and each
    degree's spaces rotated among the summands by the degree."""
    summands = result.summands
    s = len(summands)
    zero = {u: fplin.Subspace.zero(w.p, w.dim(u)) for u in range(1, w.n)}
    out = []
    if s >= 2:
        a, b = summands[:2]
        for u in w.nonzero_degrees:
            out.append(D.DecompositionResult(
                [D.Summand(a.element, {**a.spaces, u: a.spaces[u].sum(b.spaces[u])}),
                 D.Summand(b.element, {**b.spaces, u: zero[u]})] + summands[2:], []))
    for u in w.nonzero_degrees[:1] if s else ():
        full = fplin.Subspace.full(w.p, w.dim(u))
        out.append(D.DecompositionResult(
            [D.Summand(summands[0].element, {**summands[0].spaces, u: full})] + summands[1:], []))
    out.append(D.DecompositionResult(
        [D.Summand(summands[i].element,
                   {u: summands[(i + u) % s].spaces[u] for u in range(1, w.n)})
         for i in range(s)], []))
    return out


@pytest.mark.parametrize("text", ORACLE_WINDOWS)
def test_stacked_verification_matches_the_per_degree_pass(text):
    """The same report, or the same exception, as the per-degree pass
    (decomposition_reference) on the decomposition, every _forgeries mutant
    and every _padding_forgeries mutant."""
    w = window_of(text)
    result = D.decompose(w)
    forgeries = _forgeries(w, result) + _padding_forgeries(w, result)
    for forged in forgeries:
        assert (_outcome(D.verify_decomposition, w, forged)
                == _outcome(R.verify_decomposition, w, forged))
    assert any(not D.verify_decomposition(w, f).ok for f in forgeries) or w.total_dim == 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_periodic_specs(), st.integers(0, 2**16), st.booleans())
def test_stacked_verification_matches_on_random_windows(text, seed, rebase):
    """As above on random_window's windows, where the unit and elements
    carry coefficients other than 0 and 1."""
    w = random_window(text, seed, rebase)
    result = D.decompose(w)
    for forged in _forgeries(w, result) + _padding_forgeries(w, result):
        assert (_outcome(D.verify_decomposition, w, forged)
                == _outcome(R.verify_decomposition, w, forged))


@pytest.mark.parametrize("text", ["ComplexProj(6)@2", "ComplexProj(8)@3",
                                  "Product(Sphere(2),ComplexProj(8))@2"])
def test_stacked_verification_matches_on_window_mode_windows(text):
    """Window-mode windows with a nonzero degree-k ring, where 3k > n - 1,
    so the degree-k action is not supported and some degrees have no
    ring_action reading: the first window-mode inducer of each degree,
    split as all of the window and nothing, and every forgery of that."""
    alg = build(text).algebra
    windows = 0
    for k in range(1, alg.n):
        for v in fplin.enumerate_vectors(alg.dim(k), alg.p):
            cert = P.induces_periodicity(alg, Element.of(k, v)) if v.any() else None
            if isinstance(cert, P.PeriodicityCertificate) and cert.mode == "window":
                break
        else:
            continue
        w = P.subquotient(alg, cert)
        spaces = [{u: make(w.p, w.dim(u)) for u in range(1, w.n)}
                  for make in (fplin.Subspace.full, fplin.Subspace.zero)]
        result = D.DecompositionResult([D.Summand(cert.element, s) for s in spaces], [])
        for forged in _forgeries(w, result) + _padding_forgeries(w, result):
            assert (_outcome(D.verify_decomposition, w, forged)
                    == _outcome(R.verify_decomposition, w, forged))
        windows += 1
    assert windows


@pytest.mark.parametrize("text", [t for t in ORACLE_WINDOWS if not t.startswith("Sphere")])
def test_a_summand_without_a_space_is_the_one_violation(text):
    """A missing degree, or a space of the wrong ambient, stops the check at
    that degree with one violation."""
    w = window_of(text)
    forgeries = _space_forgeries(w, D.decompose(w))
    assert len(forgeries) == 2
    for forged, i, u in forgeries:
        report = D.verify_decomposition(w, forged)
        assert report == D.DecompositionReport(
            False, (f"summand {i} carries no subspace of degree {u}",))


@pytest.mark.parametrize("text", ["ConnectedSum(ComplexProj(4),ComplexProj(4))@2",
                                  "ConnectedSum(ComplexProj(4),ComplexProj(4))@3"])
def test_a_space_over_another_prime_is_no_subspace(text):
    """A summand space that holds the right vectors but is declared over
    another prime is refused in every degree, as a space of the wrong
    ambient is; the per-degree pass raised ValueError in some degrees and
    passed it in others."""
    w = window_of(text)
    first, *rest = D.decompose(w).summands
    for u in range(1, w.n):
        space = first.spaces[u]
        other = fplin.Subspace(w.p + 2, space.ambient, space.basis.copy(), space.pivots)
        report = D.verify_decomposition(
            w, D.DecompositionResult([D.Summand(first.element, {**first.spaces, u: other})]
                                     + rest, []))
        assert report == D.DecompositionReport(
            False, (f"summand 0 carries no subspace of degree {u}",)), u


def test_verify_decomposition_on_a_zero_ring_matches_the_parent():
    """Window-mode windows of Sphere(8)@2 have a zero degree-k ring and 3k >
    n - 1, so the parent built no operator at all; forged summands there get
    the parent's reports, and the per-degree pass's."""
    alg = build("Sphere(8)@2").algebra
    for k in range(3, alg.n):
        cert = P.induces_periodicity(alg, Element(k, ()))
        assert cert.mode == "window"
        w = P.subquotient(alg, cert)
        for forged in _forgeries(w, D.DecompositionResult([], [])):
            assert (_outcome(D.verify_decomposition, w, forged)
                    == _outcome(old_verify_decomposition, w, forged)
                    == _outcome(R.verify_decomposition, w, forged))


@pytest.mark.parametrize("text", [t for t in ORACLE_WINDOWS if not t.startswith("Sphere")])
def test_operator_blocks_match_the_parent(text):
    """Every basis element's and primitive idempotent's operator, and the
    basis stacks verify_decomposition reads, byte for byte."""
    w = window_of(text)
    k, d = w.k, w.dim(w.k)
    stacks = D._basis_operators(w)
    for a, v in enumerate(np.eye(d, dtype=np.int64)):
        want = old_multiplication_operator(w, v)
        _same_blocks(D.multiplication_operator(w, v), want)
        for u, block in want.blocks.items():
            assert stacks[u][a].tobytes() == block.tobytes()
        _same_blocks(D.multiplication_operator(w, Element.of(k, v)),
                     old_multiplication_operator(w, Element.of(k, v)))
    for e in D.primitive_idempotents(w)[0]:
        _same_blocks(D.multiplication_operator(w, e), old_multiplication_operator(w, e))
    unit = Element.of(k, D._unit(w) + w.p)  # unreduced coordinates are kept as given
    _same_blocks(D.multiplication_operator(w, unit), old_multiplication_operator(w, unit))


def _is_read_only_empty(m, shape):
    return (m.dtype, m.shape, m.flags.writeable) == (np.dtype(np.int64), shape, False)


@pytest.mark.parametrize("text", [t for t in ORACLE_WINDOWS if not t.startswith("Sphere")])
def test_empty_degrees_keep_their_entries(text):
    """Every window here is zero in some degrees.  Each such degree keeps an
    entry in every dict: read-only (0, 0) int64 shift maps and operator
    blocks, read-only (dim k, 0, 0) int64 ring-action stacks in the readings
    of its range with agree True, zero image spaces and zero trace counts."""
    w = window_of(text)
    k, n, p = w.k, w.n, w.p
    assert w.nonzero_degrees == tuple(u for u in range(1, n) if w.dim(u))
    empty = [u for u in range(1, n) if not w.dim(u)]
    assert empty
    onto, into = P.window_ranges(n, k)
    result = D.decompose(w)
    operators = [D.multiplication_operator(w, s.element) for s in result.summands]
    stacks = D._basis_operators(w)
    for u in empty:
        if onto.start <= u < into.stop:
            assert _is_read_only_empty(w.shifts[u], (0, 0))
            assert _is_read_only_empty(w.shift_invs[u], (0, 0))
        low, high, agree = w.ring_action[u]
        assert agree is True
        for stack, reads in ((low, onto.start <= u < into.stop),
                             (high, onto.start <= u - k < into.stop)):
            assert (stack is not None) == reads
            assert stack is None or _is_read_only_empty(stack, (w.dim(k), 0, 0))
        assert _is_read_only_empty(stacks[u], (w.dim(k), 0, 0))
        for op in operators:
            assert _is_read_only_empty(op.blocks[u], (0, 0))
        for s in result.summands:
            assert s.spaces[u] == fplin.Subspace.zero(p, 0)
            assert _is_read_only_empty(s.spaces[u].basis, (0, 0))
        for record in result.trace:
            assert record.part_dims[u - 1] == (u,) + (0,) * len(record.replacements)


@pytest.mark.parametrize("text", [
    "ConnectedSum(ComplexProj(6),ComplexProj(6))@3",
    "ConnectedSum(ConnectedSum(ComplexProj(6),ComplexProj(6)),ComplexProj(6))@2",
    "Product(Sphere(2),ComplexProj(8))@2",
])
def test_overlap_mismatch_is_decided_per_element(text):
    """A window whose shift_invs are corrupted at one overlap degree before
    its first operator: each element raises OverlapMismatch exactly when the
    parent's assembly does, with the same message, and otherwise gets the
    same blocks; verify_decomposition reports as the parent and the
    per-degree pass do."""
    base = window_of(text)
    clean = D.decompose(base)
    k, n = base.k, base.n
    for u in range(1 + k, n - k):
        w = window_of(text)
        if not w.dim(u):
            continue
        assert "ring_action" not in vars(w)
        w.shift_invs[u] = w.shift_invs[u].copy()
        w.shift_invs[u][0, 0] = (w.shift_invs[u][0, 0] + 1) % w.p
        raised = 0
        vectors = list(fplin.enumerate_vectors(w.dim(k), w.p))
        for v in vectors:
            want = _outcome(old_multiplication_operator, w, v)
            if want.startswith("raised"):
                raised += 1
                assert _outcome(D.multiplication_operator, w, v) == want
            else:
                _same_blocks(D.multiplication_operator(w, v), old_multiplication_operator(w, v))
        assert 0 < raised < len(vectors), u
        assert not all(agree for _, _, agree in w.ring_action.values())
        assert (_outcome(D.verify_decomposition, w, clean)
                == _outcome(old_verify_decomposition, w, clean)
                == _outcome(R.verify_decomposition, w, clean))


def _with_changed_action(text, u, change):
    """The window of text, with change applied to a copy of each reading of
    ring_action in degree u before its first read, so the readings still
    agree.  One changed table entry would not do: every table ring_action
    reads feeds an overlap degree from one side only, where the readings
    would then disagree."""
    w = window_of(text)
    assert "ring_action" not in vars(w)
    action = dict(window_of(text).ring_action)
    low, high, agree = action[u]
    low, high = (None if r is None else change(r.copy()) % w.p for r in (low, high))
    w.ring_action = {**action, u: (low, high, agree)}
    return w


def _action_changes(w, summands):
    """(degree, change): every single entry of a basis element's block
    raised by one; and every block times the projection onto the first
    summand along the others, an action that multiplies as before but under
    which the unit acts on the other summands as zero."""
    for u in w.nonzero_degrees:
        for a, x, y in np.ndindex(w.dim(w.k), w.dim(u), w.dim(u)):
            def bump(stack, a=a, x=x, y=y):
                stack[a, x, y] += 1
                return stack
            yield u, bump
        columns = np.vstack([s.spaces[u].basis for s in summands]).T
        keep = np.zeros(w.dim(u), dtype=np.int64)
        keep[:summands[0].spaces[u].dim] = 1
        projection = (columns * keep) @ fplin.mat_inv(columns, w.p)
        yield u, lambda stack, projection=projection: projection @ stack


@pytest.mark.parametrize("text, parent_passes_some", [
    ("ConnectedSum(ComplexProj(4),ComplexProj(4))@3", False),
    ("Product(Sphere(2),ComplexProj(4))@2", True),
    ("ConnectedSum(Product(Sphere(2),ComplexProj(4)),ComplexProj(5))@3", True),
])
def test_a_non_multiplicative_action_is_not_supported(text, parent_passes_some):
    """Each _action_changes window, against the parent's span-closure check
    on the same action: the check never reports ok where the parent does
    not, and it differs only by naming summands that do not support the
    degree-k action, where the parent passed them or had them split
    further.  On the Sphere(2) products the parent passes some of the
    changed windows that are rejected here.  The per-degree pass reports
    exactly as the check does."""
    base = window_of(text)
    clean = D.decompose(base)
    stricter = changed = 0
    for u, change in _action_changes(base, clean.summands):
        w = _with_changed_action(text, u, change)
        got = D.verify_decomposition(w, clean)
        assert got == R.verify_decomposition(w, clean)
        want = old_verify_decomposition(w, clean, D.multiplication_operator)
        assert want.ok or not got.ok
        unsupported = {v for v in got.violations
                       if v.endswith(" does not support the degree-k action")}
        assert set(got.violations) - set(want.violations) <= unsupported
        for v in set(want.violations) - set(got.violations):
            i = v.split()[1]
            assert v.startswith(f"summand {i} splits further")
            assert f"summand {i} does not support the degree-k action" in unsupported
        stricter += want.ok and not got.ok
        changed += got != want
    assert changed and bool(stricter) == parent_passes_some


@pytest.mark.parametrize("leaves, leaf, degrees", [(8, "ComplexProj(6)", 5),
                                                     (3, "ComplexProj(12)", 11)])
def test_verification_makes_one_rank_call_per_window(monkeypatch, leaves, leaf, degrees):
    """On 8xCP(6)@2 (5 nonzero degrees) and 3xCP(12)@2 (11), whatever the
    window length, verify_decomposition solves no restricted matrix, builds
    no cup matrix (the parent of the one-pass-per-degree check made 352 and
    232 of them on 8xCP(6)@2) and makes exactly one fplin.rank call; and
    decompose, which verifies its result once, followed by a second
    verify_decomposition computes the ring's idempotents once and makes
    two rank calls."""
    text = f"{_chain(leaves, leaf)}@2"
    w = window_of(text)
    result = D.decompose(w)
    calls = dict.fromkeys(["restricted_matrix", "cup_matrix", "rank", "primitive_idempotents"], 0)

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    for owner, name in ((fplin, "restricted_matrix"), (P.SubquotientAlgebra, "cup_matrix"),
                        (fplin, "rank"), (fplin, "primitive_idempotents")):
        counted(owner, name)
    assert D.verify_decomposition(w, result).ok
    assert result.summand_count == leaves and len(w.nonzero_degrees) == degrees
    assert calls["restricted_matrix"] == calls["cup_matrix"] == 0, calls
    assert calls["rank"] == 1, calls
    fresh = window_of(text)
    calls["primitive_idempotents"] = calls["rank"] = 0
    assert D.verify_decomposition(fresh, D.decompose(fresh)).ok
    assert calls["primitive_idempotents"] == 1 and calls["rank"] == 2, calls
