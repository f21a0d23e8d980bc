"""The derived-table builders against the per-basis-pair loops they replaced.

Product and connected-sum tables, window tables and induced window actions
are now copied from whole blocks of their sources.  The loops below build
them with one cup (or one operation) per pair of basis vectors; they are
kept verbatim as the reference, and the new builders must agree with them
byte for byte on the tables and on the actions.
"""

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodica import corpus, fplin, steenrod
from periodica import periodicity as P
from periodica.algebra import Element, GradedAlgebra
from periodica.corpus import _with_units
from periodica.periodicity import (PeriodicityCertificate, SubquotientAlgebra,
                                   WellDefinednessFailure, verify_certificate)
from periodica.steenrod import InducedActionFailure, SteenrodAction, operation_shift, verify_action
from rebasing import rebased_with_action

# --- the reference loops, verbatim apart from their names -------------------

def _kunneth_slots(A: GradedAlgebra, B: GradedAlgebra):
    """Per-degree list of (left degree, left index, right index) basis slots."""
    n = A.n + B.n
    slots = {k: [] for k in range(n + 1)}
    for i in range(A.n + 1):
        for ai in range(A.dim(i)):
            for j in range(B.n + 1):
                for bj in range(B.dim(j)):
                    slots[i + j].append((i, ai, bj))
    for k in slots:
        slots[k].sort()
    return slots


def old_build_product(A: GradedAlgebra, actA, B: GradedAlgebra, actB):
    p = A.p
    n = A.n + B.n
    slots = _kunneth_slots(A, B)
    index = {k: {s: t for t, s in enumerate(slots[k])} for k in slots}
    dims = [len(slots[k]) for k in range(n + 1)]
    mult = {}
    for k in range(n + 1):
        for l in range(n + 1 - k):
            dk, dl, dt = dims[k], dims[l], dims[k + l]
            if dk == 0 or dl == 0 or dt == 0:
                continue
            table = np.zeros((dt, dk * dl), dtype=np.int64)
            for u, (i1, a1, b1) in enumerate(slots[k]):
                for v, (i2, a2, b2) in enumerate(slots[l]):
                    sign = p - 1 if ((k - i1) * i2) % 2 else 1
                    if i1 + i2 > A.n or (k - i1) + (l - i2) > B.n:
                        continue
                    va = A.cup(i1, A.basis_element(i1, a1), i2, A.basis_element(i2, a2))
                    vb = B.cup(k - i1, B.basis_element(k - i1, b1),
                               l - i2, B.basis_element(l - i2, b2))
                    for ta in range(va.shape[0]):
                        if va[ta] == 0:
                            continue
                        for tb in range(vb.shape[0]):
                            if vb[tb] == 0:
                                continue
                            row = index[k + l][(i1 + i2, ta, tb)]
                            table[row, u * dl + v] = (
                                table[row, u * dl + v] + sign * va[ta] * vb[tb]) % p
            if table.any():
                mult[(k, l)] = table
    alg = GradedAlgebra(p, n, dims, mult)
    if actA is None or actB is None:
        return alg, None
    maps = {}
    for k in range(1, n + 1):
        if dims[k] == 0:
            continue
        s = 1
        while k + operation_shift(p, s) <= n:
            t = k + operation_shift(p, s)
            table = np.zeros((dims[t], dims[k]), dtype=np.int64)
            for u, (i, ai, bi) in enumerate(slots[k]):
                j = k - i
                for h in range(s + 1):
                    ta = i + operation_shift(p, h)
                    tb = j + operation_shift(p, s - h)
                    if ta > A.n or tb > B.n:
                        continue
                    va = actA.apply(h, i, A.basis_element(i, ai))
                    vb = actB.apply(s - h, j, B.basis_element(j, bi))
                    for xa in range(va.shape[0]):
                        if va[xa] == 0:
                            continue
                        for xb in range(vb.shape[0]):
                            if vb[xb] == 0:
                                continue
                            row = index[t][(ta, xa, xb)]
                            table[row, u] = (table[row, u] + va[xa] * vb[xb]) % p
            if table.any():
                maps[(s, k)] = table
            s += 1
    return alg, SteenrodAction(alg, maps)


def old_build_connected_sum(A: GradedAlgebra, actA, B: GradedAlgebra, actB):
    p = A.p
    n = A.n
    if B.n != n or n < 2:
        raise ValueError("connected summands must share a top degree >= 2")
    if A.dim(0) != 1 or B.dim(0) != 1 or A.dim(n) != 1 or B.dim(n) != 1:
        raise ValueError("connected summands need one-dimensional ends")
    dims = [1] + [A.dim(i) + B.dim(i) for i in range(1, n)] + [1]

    def block(i, side_vec, side):
        out = np.zeros(dims[i], dtype=np.int64)
        if i == 0 or i == n:
            return side_vec.copy()
        off = 0 if side == 0 else A.dim(i)
        out[off:off + side_vec.shape[0]] = side_vec
        return out

    mult = {}
    for i in range(1, n):
        for j in range(1, n + 1 - i):
            dt = dims[i + j] if i + j <= n else 0
            if dims[i] == 0 or dims[j] == 0 or dt == 0:
                continue
            table = np.zeros((dt, dims[i] * dims[j]), dtype=np.int64)
            for side, alg in ((0, A), (1, B)):
                offi = 0 if side == 0 else A.dim(i)
                offj = 0 if side == 0 else A.dim(j)
                for a in range(alg.dim(i)):
                    for b in range(alg.dim(j)):
                        v = alg.cup(i, alg.basis_element(i, a), j, alg.basis_element(j, b))
                        col = (offi + a) * dims[j] + (offj + b)
                        table[:, col] = block(i + j, v, side)
            if table.any():
                mult[(i, j)] = table
    alg = GradedAlgebra(p, n, dims, _with_units(dims, mult))
    if actA is None or actB is None:
        return alg, None
    maps = {}
    for side, src, act in ((0, A, actA), (1, B, actB)):
        for (s, j), m in act.maps.items():
            if j == 0 or j >= n:
                continue
            t = j + operation_shift(p, s)
            table = maps.setdefault((s, j), np.zeros((dims[t], dims[j]), dtype=np.int64))
            offj = 0 if side == 0 else A.dim(j)
            for b in range(src.dim(j)):
                table[:, offj + b] = block(t, m[:, b], side)
    maps = {key: m for key, m in maps.items() if m.any()}
    return alg, SteenrodAction(alg, maps)


def old_induced_action_on_window(window, act: SteenrodAction) -> SteenrodAction:
    """Restrict a parent action to a window subquotient.

    Needs p * k <= n - 1 for the certificate degree k.  Checks that every
    operation kills the degree-1 kernel, that operation images of window
    representatives stay inside the window spaces, and that operations
    applied to the inducing element stay multiples of it; failures raise
    InducedActionFailure since they contradict a verified certificate.
    """
    parent = window.parent
    p, n, k = window.p, window.n, window.k
    if p * k > n - 1:
        raise InducedActionFailure(f"need p*k <= n-1, got {p * k} > {n - 1}")
    xv = window.certificate.element.as_vector() % p
    s = 1
    while True:
        t = k + operation_shift(p, s)
        if t > n - 1:
            break
        v = act.apply(s, k, xv)
        img = fplin.image(parent.cup_matrix(k, xv, t - k), p)
        if not img.contains(v):
            raise InducedActionFailure(
                f"operation {s} of the inducing element is not one of its multiples in degree {t}")
        s += 1
    for u in window.degree1_kernel.basis:
        s = 1
        while True:
            t = 1 + operation_shift(p, s)
            if t > n - 1:
                break
            if act.apply(s, 1, u).any():
                raise InducedActionFailure(
                    f"a degree-1 kernel class survives operation {s}")
            s += 1
    maps = {}
    for j in range(1, n):
        dj = window.dim(j)
        if dj == 0:
            continue
        s = 1
        while True:
            t = j + operation_shift(p, s)
            if t > n - 1:
                break
            table = np.zeros((window.dim(t), dj), dtype=np.int64)
            for b in range(dj):
                v = act.apply(s, j, window.embed(j, window.basis_element(j, b)))
                try:
                    table[:, b] = window.to_window(t, v)
                except ValueError:
                    raise InducedActionFailure(
                        f"operation ({s}, {j}) leaves the window at degree {t}")
            if table.any():
                maps[(s, j)] = table
            s += 1
    return SteenrodAction(window, maps)


def old_subquotient(alg, cert: PeriodicityCertificate, action=None) -> SubquotientAlgebra:
    """Build the window subquotient for a certified inducing element.

    Re-verifies the certificate, checks the two well-definedness cases
    (degree-1 kernel classes multiply to zero inside the window; products
    landing in degree n-1 lie in the image of the inducing element), checks
    every shift map is bijective, and attaches the induced Steenrod action
    when one is supplied and p*k <= n-1.
    """
    if not verify_certificate(alg, cert):
        raise WellDefinednessFailure("certificate does not re-verify on this algebra")
    n, p, k = alg.n, alg.p, cert.k
    xv = cert.element.as_vector() % p
    ker1 = fplin.kernel(alg.cup_matrix(k, xv, 1), p)
    spaces = {}
    for i in range(1, n):
        if i == n - 1:
            spaces[i] = fplin.image(alg.cup_matrix(k, xv, n - 1 - k), p)
        elif i == 1:
            spaces[i] = ker1.coordinate_complement()
        else:
            spaces[i] = fplin.Subspace.full(p, alg.dim(i))
    for u in ker1.basis:
        for j in range(1, n - 1):
            for b in range(alg.dim(j)):
                prod = alg.cup(1, u, j, alg.basis_element(j, b))
                if prod.size and prod.any():
                    raise WellDefinednessFailure(
                        f"a degree-1 kernel class has a nonzero product into degree {1 + j}")
    top = spaces.get(n - 1)
    for i in range(1, n - 1):
        j = n - 1 - i
        if j < i:
            break
        for a in range(spaces[i].dim):
            for b in range(spaces[j].dim):
                v = alg.cup(i, spaces[i].basis[a], j, spaces[j].basis[b])
                if not top.contains(v):
                    raise WellDefinednessFailure(
                        "a product in the top window degree escapes the image "
                        "of the inducing element")
    shifts = {}
    for i in range(1, n - k):
        src, tgt = spaces[i], spaces[i + k]
        if src.dim != tgt.dim:
            raise WellDefinednessFailure(
                f"window dimensions differ across the shift at degree {i}")
        try:
            m = fplin.restricted_matrix(alg.cup_matrix(k, xv, i), src, tgt)
        except ValueError as exc:
            raise WellDefinednessFailure(
                f"multiplication image escapes the window at degree {i}: {exc}")
        try:
            fplin.mat_inv(m, p)
        except fplin.NotInvertible:
            raise WellDefinednessFailure(f"shift map at degree {i} is not bijective")
        shifts[i] = m
    mult = {}
    for i in range(1, n - 1):
        for j in range(1, n - i):
            di, dj, dt = spaces[i].dim, spaces[j].dim, spaces[i + j].dim
            if di == 0 or dj == 0 or dt == 0:
                continue
            table = np.zeros((dt, di * dj), dtype=np.int64)
            for a in range(di):
                for b in range(dj):
                    v = alg.cup(i, spaces[i].basis[a], j, spaces[j].basis[b])
                    table[:, a * dj + b] = spaces[i + j].coords_of(v)
            if table.any():
                mult[(i, j)] = table
    shift_invs = {i: fplin.mat_inv(m, p) for i, m in shifts.items()}
    window = SubquotientAlgebra(alg, cert, spaces, shifts, shift_invs, mult, ker1)
    if action is not None and p * k <= n - 1:
        window.action = old_induced_action_on_window(window, action)
    return window


# --- differential tests ------------------------------------------------------

def _chain(k, leaf):
    return functools.reduce(lambda a, _: f"ConnectedSum({a},{leaf})", range(k - 1), leaf)


PERIOD_SPECS = (  # the period benchmark's fixtures
    f"{_chain(2, 'ComplexProj(5)')}@5", f"{_chain(2, 'ComplexProj(7)')}@5",
    f"{_chain(2, 'ComplexProj(8)')}@5", f"{_chain(3, 'ComplexProj(4)')}@5",
    f"{_chain(3, 'ComplexProj(8)')}@3", f"{_chain(4, 'ComplexProj(5)')}@3",
    f"{_chain(3, 'QuatProj(3)')}@5",
    "Product(Sphere(2),ComplexProj(8))@3", "Product(Sphere(2),ComplexProj(10))@3",
    "Product(Sphere(3),QuatProj(3))@3", "Product(ComplexProj(3),ComplexProj(4))@5",
    "Product(ComplexProj(3),ComplexProj(4))@3", "Product(ComplexProj(2),ComplexProj(5))@3",
)
DECOMPOSE_SPECS = (  # the decompose benchmark's fixtures
    *(f"{_chain(k, 'ComplexProj(6)')}@2" for k in (2, 3, 4, 5)),
    f"{_chain(2, 'ComplexProj(6)')}@5",
    *(f"{_chain(k, 'ComplexProj(4)')}@2" for k in (4, 6)),
    *(f"{_chain(k, 'ComplexProj(4)')}@3" for k in (3, 4)),
)
TABLES_SPECS = tuple(  # the tables benchmark's fixtures
    f"Product(ComplexProj({a}),ComplexProj({b}))@{p}"
    for a, b, p in ((4, 4, 2), (6, 6, 2), (7, 7, 2), (5, 5, 3), (6, 6, 3), (8, 8, 3),
                    (5, 7, 3), (6, 6, 5), (6, 8, 5)))
CORPUS_SPECS = (  # the corpus tests' fixtures, then windows from the decomposition tests
    "Sphere(3)@2", "Sphere(8)@2", "ComplexProj(4)@2", "ComplexProj(6)@2",
    "QuatProj(3)@2", "QuatProj(4)@2", "Product(Sphere(3),Sphere(3))@2",
    "Product(ComplexProj(2),Sphere(2))@2",
    "ConnectedSum(ComplexProj(4),ComplexProj(4))@2",
    "ConnectedSum(QuatProj(3),QuatProj(3))@2",
    "ComplexProj(4)@3", "QuatProj(3)@3", "Sphere(6)@5",
    "TruncatedPoly(2,3)@2", "TruncatedPoly(4,2)@3", "TruncatedPoly(6,3)@7",
    "Product(Sphere(3),Sphere(3))@3", "Product(Sphere(2),ComplexProj(4))@5",
    "ConnectedSum(Product(Sphere(2),ComplexProj(4)),ComplexProj(5))@3",
    "ConnectedSum(ConnectedSum(ComplexProj(4),ComplexProj(4)),ComplexProj(4))@2",
)
# Both factors have blocks of dimension above one, so the order of the
# operation blocks inside a tensor block matters.
NESTED_SPECS = tuple(
    f"Product(ConnectedSum(ComplexProj({m}),ComplexProj({m})),"
    f"ConnectedSum(ComplexProj({m}),ComplexProj({m})))@{p}" for m, p in ((2, 2), (3, 3)))
# The S^1 class spans the degree-1 kernel of the period-2 class.
KERNEL_SPECS = tuple(f"ConnectedSum(ComplexProj(4),Product(Sphere(1),Sphere(7)))@{p}"
                     for p in (2, 3))

def _fold_connected_sum(parts):
    """The leaves glued pairwise from the left by the binary reference."""
    return functools.reduce(lambda left, right: old_build_connected_sum(*left, *right), parts)


# family -> (new, reference), each taking the list of built children
BUILDERS = {"Product": (lambda parts: corpus._build_product(*parts[0], *parts[1]),
                        lambda parts: old_build_product(*parts[0], *parts[1])),
            "ConnectedSum": (corpus._build_connected_sum, _fold_connected_sum)}


def assert_same_tables(new, old):
    (alg, act), (ref, ref_act) = new, old
    assert alg.to_dict() == ref.to_dict()
    assert (act is None) == (ref_act is None)
    if act is not None:
        assert act.to_dict() == ref_act.to_dict()


def assemble(spec, seed=None):
    """The algebra and action of spec from the new builders, checked against
    the reference at every Product node and every ConnectedSum chain (the new
    builder glues a chain's leaves in one pass, the reference folds them
    pairwise).  With a seed every factor and every leaf is first moved to a
    random basis (rebasing.rebased)."""
    if spec.family not in BUILDERS:
        return corpus._build_truncated(spec.p, *corpus._atom_shape(spec))
    nodes = corpus._leaves(spec) if spec.family == "ConnectedSum" else spec.args
    parts = [assemble(node, seed) for node in nodes]
    if seed is not None:
        parts = [rebased_with_action(*part, seed + t) for t, part in enumerate(parts)]
    new, old = BUILDERS[spec.family]
    out = new(parts)
    assert_same_tables(out, old(parts))
    return out


def assert_windows_match(alg, act, degrees):
    """subquotient and the reference agree for every certificate found."""
    found = P.search_degrees(alg, degrees)
    certs = [c for c in found.values() if isinstance(c, P.PeriodicityCertificate)]
    for cert in certs:
        window = P.subquotient(alg, cert, action=act)
        ref = old_subquotient(alg, cert, action=act)
        assert_same_tables((window, window.action), (ref, ref.action))
    return len(certs)


@pytest.mark.parametrize(
    "text", PERIOD_SPECS + DECOMPOSE_SPECS + TABLES_SPECS + CORPUS_SPECS + NESTED_SPECS)
def test_builders_match_the_pair_loops(text):
    spec = corpus.parse_spec(text)
    alg, act = assemble(spec)
    fx = corpus.build(spec)
    assert_same_tables((fx.algebra, fx.action), (alg, act))


@pytest.mark.parametrize("text", PERIOD_SPECS + DECOMPOSE_SPECS + CORPUS_SPECS + KERNEL_SPECS)
def test_windows_match_the_pair_loops(text):
    fx = corpus.build(corpus.parse_spec(text))
    count = assert_windows_match(fx.algebra, fx.action, range(1, fx.algebra.n))
    assert count == len(P.minimum_period(fx.algebra).all_periods)


@pytest.mark.parametrize("op, message", [
    ((1, 6), "operation (1, 6) leaves the window at degree 7"),
    ((5, 2), "operation 5 of the inducing element is not one of its multiples in degree 7"),
])
def test_an_operation_into_a_degree_empty_only_in_the_window_is_refused(op, message):
    """Degree 7 of KERNEL_SPECS[0] at p = 2 holds the S^7 class, and its
    window degree, the image of x from the zero degree 5, is empty.  A
    forged operation into it is refused, as by the reference."""
    fx = corpus.build(corpus.parse_spec(KERNEL_SPECS[0]))
    alg = fx.algebra
    window = P.subquotient(alg, P.find_inducing_element(alg, 2))
    assert (window.dim(7), alg.dim(7)) == (0, 1)
    forged = SteenrodAction(alg, {**fx.action.maps,
                                  op: np.ones((1, alg.dim(op[1])), dtype=np.int64)})
    for induced in (steenrod.induced_action_on_window, old_induced_action_on_window):
        with pytest.raises(InducedActionFailure, match=re.escape(message)):
            induced(window, forged)


@pytest.mark.parametrize("p", [2, 3])
def test_window_tables_are_read_at_the_pivots_of_a_proper_top_image(p):
    """GF(p)[x, w]/(w^2, degree > 4) plus a class z in degree 4 that every
    positive class kills, with degree 4 in the basis (z, x^2, xw): the top
    window degree, the image of x, has pivots (1, 2).  At p = 2, Sq^2 x = x^2
    lands there too."""
    eye = functools.partial(np.eye, dtype=np.int64)
    mult = {(0, 0): eye(1), (0, 2): eye(2), (2, 0): eye(2), (0, 4): eye(3), (4, 0): eye(3),
            (2, 2): [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0]]}
    alg = GradedAlgebra(p, 5, [1, 0, 2, 0, 3, 0], mult)
    alg.validate()
    act = SteenrodAction(alg, {(2, 2): [[0, 0], [1, 0], [0, 0]]}) if p == 2 else None
    if act is not None:
        verify_action(alg, act)
    cert = PeriodicityCertificate(2, Element(2, (1, 0)), "window")
    window = P.subquotient(alg, cert, action=act)
    assert window.spaces[4].pivots == (1, 2) and (2, 2) in window.mult
    assert (window.action is not None) == (p == 2)
    ref = old_subquotient(alg, cert, action=act)
    assert_same_tables((window, window.action), (ref, ref.action))


def _atoms(top):
    out = [f"Sphere({top})"]
    if top % 2 == 0:
        out.append(f"ComplexProj({top // 2})")
    if top % 4 == 0:
        out.append(f"QuatProj({top // 4})")
    return out


@st.composite
def _bodies(draw, top, depth):
    kinds = ("atom", "Product", "ConnectedSum") if depth and top >= 2 else ("atom",)
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return draw(st.sampled_from(_atoms(top)))
    if kind == "Product":
        a = draw(st.integers(1, top - 1))
        return f"Product({draw(_bodies(a, depth - 1))},{draw(_bodies(top - a, depth - 1))})"
    return f"ConnectedSum({draw(_bodies(top, depth - 1))},{draw(_bodies(top, depth - 1))})"


@st.composite
def _nested_specs(draw):
    body = draw(_bodies(draw(st.integers(2, 8)), 2))
    return f"{body}@{draw(st.sampled_from((2, 3, 5)))}"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_nested_specs(), st.integers(0, 2**16))
def test_builders_and_windows_match_the_pair_loops_on_random_specs(text, seed):
    """Factors in a random basis, so coefficients other than 0 and 1 and the
    signs of odd-degree classes reach both builders."""
    alg, act = assemble(corpus.parse_spec(text), seed)
    alg.validate()
    if act is not None:
        verify_action(alg, act)
    small = [k for k in range(1, alg.n) if alg.p ** alg.dim(k) <= 125]
    assert_windows_match(alg, act, small)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 8).flatmap(lambda top: st.lists(_bodies(top, 1), min_size=2, max_size=6)),
       st.sampled_from((2, 3, 5)), st.integers(0, 2**16))
def test_gluing_leaves_matches_the_left_fold(bodies, p, seed):
    """Two to six mixed leaves glued in one pass equal the binary gluings
    folded from the left, on leaves in a random basis."""
    leaves = [rebased_with_action(*assemble(corpus.parse_spec(f"{body}@{p}")), seed + t)
              for t, body in enumerate(bodies)]
    assert_same_tables(corpus._build_connected_sum(leaves), _fold_connected_sum(leaves))


def _nested(leaves, left_size):
    """leaves as a ConnectedSum tree whose left subtree takes left_size(k) of its k leaves."""
    if len(leaves) == 1:
        return leaves[0]
    m = left_size(len(leaves))
    return f"ConnectedSum({_nested(leaves[:m], left_size)},{_nested(leaves[m:], left_size)})"


@pytest.mark.parametrize("p", [2, 3])
def test_tree_shape_does_not_change_the_sum(p):
    """The basis runs over the leaves left to right, however they nest:
    left-nested, right-nested and balanced trees give the same tables."""
    leaves = ["ComplexProj(4)", "Product(Sphere(2),ComplexProj(3))", "QuatProj(2)",
              "Product(Sphere(3),Sphere(5))", "ComplexProj(4)"]
    fixtures = [corpus.build(corpus.parse_spec(f"{_nested(leaves, left_size)}@{p}"))
                for left_size in (lambda k: k - 1, lambda k: 1, lambda k: k // 2)]
    assert fixtures[0].action is not None
    for fx in fixtures[1:]:
        assert_same_tables((fx.algebra, fx.action), (fixtures[0].algebra, fixtures[0].action))


def test_gluing_keeps_the_per_leaf_errors():
    cp2, s3, s1 = (corpus._build_truncated(2, g, t) for g, t in ((2, 2), (3, 1), (1, 1)))
    wide_top = (GradedAlgebra(2, 4, [1, 0, 0, 0, 2], {}), None)
    for leaves, message in (([cp2, cp2, s3], "share a top degree >= 2"),
                            ([s1, s1], "share a top degree >= 2"),
                            ([cp2, cp2, wide_top], "one-dimensional ends")):
        for glue in (corpus._build_connected_sum, _fold_connected_sum):
            with pytest.raises(ValueError, match=message):
                glue(leaves)
