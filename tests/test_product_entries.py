"""The product builder against the block loops it replaced.

`corpus._build_product` now forms every pair of the factors' nonzero table
and operation entries in one step and scatters them into the product
tables.  The builder below fills each table block by block with one einsum
per pair of factor blocks; it is kept verbatim as the reference, and both
must give the same tables and operations, in the same key order.
"""

import numpy as np
import pytest

from periodica import corpus
from periodica.algebra import GradedAlgebra
from periodica.steenrod import SteenrodAction, operation_shift
from rebasing import rebased_with_action

# --- the reference builder, verbatim apart from its names -------------------

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


def block_build_product(A: GradedAlgebra, actA, B: GradedAlgebra, actB):
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

# --- the comparison ---------------------------------------------------------

TABLES_SPECS = tuple(
    f"Product(ComplexProj({a}),ComplexProj({b}))@{p}"
    for a, b, p in ((4, 4, 2), (6, 6, 2), (7, 7, 2), (5, 5, 3), (6, 6, 3), (8, 8, 3),
                    (5, 7, 3), (6, 6, 5), (6, 8, 5)))
PERIOD_SPECS = ("Product(Sphere(2),ComplexProj(8))@3", "Product(Sphere(2),ComplexProj(10))@3",
                "Product(Sphere(3),QuatProj(3))@3")
# Odd-degree classes on both sides, where (-1)^(deg b * deg c) is -1 at p = 3.
ODD_SPECS = ("Product(Sphere(3),Sphere(5))@2", "Product(Sphere(3),Sphere(5))@3",
             "Product(Sphere(1),ComplexProj(3))@3", "Product(TruncatedPoly(3,3),Sphere(5))@2",
             "Product(Product(Sphere(1),Sphere(3)),Product(Sphere(1),Sphere(5)))@3")
OTHER_SPECS = (
    "Product(TruncatedPoly(6,2),ComplexProj(2))@5",  # the factor has no action
    "Product(Product(Sphere(1),Sphere(3)),Product(ComplexProj(2),Sphere(3)))@2",
    "Product(Product(ComplexProj(2),ComplexProj(2)),QuatProj(2))@3",
    "Product(ConnectedSum(ComplexProj(3),ComplexProj(3)),ComplexProj(2))@3",
    "Product(ConnectedSum(ComplexProj(2),ComplexProj(2)),"
    "ConnectedSum(ComplexProj(2),ComplexProj(2)))@2",
)


def assert_same_build(new, old):
    """Same dims, the same keys in the same order, and equal int64 arrays."""
    (alg, act), (ref, ref_act) = new, old
    assert alg.dims == ref.dims
    assert list(alg.mult) == list(ref.mult)
    for key, m in ref.mult.items():
        assert alg.mult[key].dtype == np.int64 and np.array_equal(alg.mult[key], m), key
    assert (act is None) == (ref_act is None)
    if act is not None:
        assert list(act.maps) == list(ref_act.maps)
        for key, m in ref_act.maps.items():
            assert act.maps[key].dtype == np.int64 and np.array_equal(act.maps[key], m), key


def assemble(spec, seed=None):
    """The algebra and action of spec, each Product node checked against the
    reference.  With a seed the factors of each product are first moved to
    a random basis, so that their tables have many entries."""
    if spec.family == "Product":
        left, right = (assemble(node, seed) for node in spec.args)
        if seed is not None:
            left, right = rebased_with_action(*left, seed), rebased_with_action(*right, seed + 1)
        out = corpus._build_product(*left, *right)
        assert_same_build(out, block_build_product(*left, *right))
        return out
    if spec.family == "ConnectedSum":
        return corpus._build_connected_sum([assemble(node, seed) for node in corpus._leaves(spec)])
    return corpus._build_truncated(spec.p, *corpus._atom_shape(spec))


@pytest.mark.parametrize("text", TABLES_SPECS + PERIOD_SPECS + ODD_SPECS + OTHER_SPECS)
def test_product_matches_the_block_loops(text):
    spec = corpus.parse_spec(text)
    alg, act = assemble(spec)
    fx = corpus.build(spec)
    assert_same_build((fx.algebra, fx.action), (alg, act))


@pytest.mark.parametrize("text", (
    "Product(ComplexProj(3),ComplexProj(3))@3", "Product(Sphere(3),QuatProj(2))@2",
    "Product(ConnectedSum(ComplexProj(2),ComplexProj(2)),Sphere(3))@3",
    "Product(Product(Sphere(1),Sphere(3)),ComplexProj(2))@5"))
@pytest.mark.parametrize("seed", (3, 11))
def test_rebased_product_matches_the_block_loops(text, seed):
    assemble(corpus.parse_spec(text), seed)


def test_action_is_none_when_a_factor_has_none():
    _, act = assemble(corpus.parse_spec("Product(TruncatedPoly(6,2),ComplexProj(2))@5"))
    assert act is None


def test_operations_on_degree_zero_are_dropped():
    """The product keeps no operation on degree 0, even from factor maps
    on degree 0 (which no valid action has)."""
    alg, _ = corpus._build_truncated(2, 1, 1)
    act = SteenrodAction(alg, {(1, 0): [[1]]})
    out = corpus._build_product(alg, act, alg, act)
    assert_same_build(out, block_build_product(alg, act, alg, act))
    assert all(j >= 1 for _, j in out[1].maps)
