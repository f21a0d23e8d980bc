"""Fixture builders: parsing, construction invariants, and expectations.

Expectations here are frozen by hand from the closed forms of truncated
polynomial rings, so the main algorithms can be tested against them without
circularity.
"""

import numpy as np
import pytest

from periodica import corpus, decomposition, fplin, periodicity
from periodica.algebra import AlgebraDefect, GradedAlgebra, verify_poincare_duality
from periodica.corpus import Expectation, SizeBound, build, parse_spec
from periodica.steenrod import verify_action

STANDARD = (
    "Sphere(3)@2", "Sphere(8)@2", "ComplexProj(4)@2", "ComplexProj(6)@2",
    "QuatProj(3)@2", "QuatProj(4)@2", "Product(Sphere(3),Sphere(3))@2",
    "Product(ComplexProj(2),Sphere(2))@2",
    "ConnectedSum(ComplexProj(4),ComplexProj(4))@2",
    "ConnectedSum(QuatProj(3),QuatProj(3))@2",
    "ComplexProj(4)@3", "QuatProj(3)@3", "Sphere(6)@5",
    "TruncatedPoly(2,3)@2", "TruncatedPoly(4,2)@3", "TruncatedPoly(6,3)@7",
)


def test_parse_round_trip():
    for text in STANDARD + ("ConnectedSum(ConnectedSum(ComplexProj(4),ComplexProj(4)),ComplexProj(4))@2",):
        spec = parse_spec(text)
        assert str(spec) == text
        assert parse_spec(str(spec)) == spec


def test_parse_defaults_and_prime_stamping():
    assert parse_spec("Sphere(3)").p == 2
    assert parse_spec("Sphere(3)", default_p=5).p == 5
    spec = parse_spec("Product(Sphere(3),ComplexProj(2))@3")
    assert spec.p == 3
    assert all(arg.p == 3 for arg in spec.args)


MALFORMED = {
    "Product(ComplexProj(4))@2": "Product", "ConnectedSum(ComplexProj(2))@2": "ConnectedSum",
    "ComplexProj(ComplexProj(2))@2": "ComplexProj", "Product(ComplexProj(2),7)@2": "Product",
    "ComplexProj()@2": "ComplexProj", "TruncatedPoly(2)@3": "TruncatedPoly",
    "Sphere(2,3)@2": "Sphere", "QuatProj(1,1)@2": "QuatProj",
    "ConnectedSum(Sphere(2),Sphere(2),Sphere(2))@2": "ConnectedSum",
}


def test_parse_rejects_garbage():
    for text in ("Sphere", "Sphere(3", "Blob(2)@2", "Sphere(3)@4x", "Sphere(-1)@2"):
        with pytest.raises(ValueError):
            parse_spec(text)
    for text, family in MALFORMED.items():
        with pytest.raises(ValueError, match=f"^{family} takes"):
            parse_spec(text)
    for args in ((True,), (2.0,), ("2",), (np.int64(2),)):
        with pytest.raises(ValueError, match="^Sphere takes 1 int argument"):
            corpus.FixtureSpec("Sphere", args, 2)
    with pytest.raises(ValueError, match=r"^Sphere takes 1 int argument, got \[2\]"):
        corpus.FixtureSpec("Sphere", [2], 2)
    with pytest.raises(ValueError, match="^Product takes two fixture specs at the prime 2"):
        corpus.product(corpus.sphere(2, 2), corpus.sphere(2, 3))
    with pytest.raises(ValueError, match="^ConnectedSum takes two fixture specs at the prime 3"):
        corpus.FixtureSpec("ConnectedSum", (corpus.sphere(2, 2), corpus.sphere(2, 2)), 3)
    assert str(corpus.connected_sum(corpus.sphere(2, 3), corpus.sphere(2, 3))) == (
        "ConnectedSum(Sphere(2),Sphere(2))@3")


def test_size_bound():
    with pytest.raises(SizeBound):
        build(parse_spec("QuatProj(20)@2"))
    build(parse_spec("QuatProj(16)@2"))  # top degree 64 is the default cap


def test_odd_prime_odd_generator_truncation():
    with pytest.raises(ValueError):
        build(parse_spec("TruncatedPoly(3,2)@3"))
    fx = build(parse_spec("TruncatedPoly(3,1)@3"))  # exterior generator is fine
    assert fx.algebra.dims == (1, 0, 0, 1)


def test_every_fixture_validates():
    for text in STANDARD:
        fx = build(parse_spec(text))
        fx.algebra.validate()
        assert verify_poincare_duality(fx.algebra), text
        if fx.action is not None:
            verify_action(fx.algebra, fx.action)


def test_dims_oracles():
    cases = {
        "ComplexProj(4)@2": (1, 0, 1, 0, 1, 0, 1, 0, 1),
        "Product(Sphere(3),Sphere(3))@2": (1, 0, 0, 2, 0, 0, 1),
        "ConnectedSum(ComplexProj(4),ComplexProj(4))@2": (1, 0, 2, 0, 2, 0, 2, 0, 1),
        "QuatProj(3)@2": (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1),
        "Product(ComplexProj(2),Sphere(2))@2": (1, 0, 2, 0, 2, 0, 1),
    }
    for text, dims in cases.items():
        assert build(parse_spec(text)).algebra.dims == dims, text


def test_expectation_oracles():
    cases = {
        "Sphere(8)@2": Expectation(True, 1, True, 0),
        "Sphere(3)@2": Expectation(True, 1, True, 0),
        "TruncatedPoly(2,2)@2": Expectation(False, None, None, None),
        "TruncatedPoly(2,3)@2": Expectation(True, 2, None, None),
        "ComplexProj(4)@2": Expectation(True, 2, True, 1),
        "QuatProj(3)@2": Expectation(True, 4, None, None),
        "QuatProj(4)@2": Expectation(True, 4, True, 1),
        "Product(Sphere(3),Sphere(3))@2": Expectation(False, None, None, None),
        "ConnectedSum(ComplexProj(4),ComplexProj(4))@2": Expectation(True, 2, False, 2),
        "ConnectedSum(QuatProj(4),QuatProj(4))@2": Expectation(True, 4, False, 2),
        # mixed-leaf sums and general products stay unasserted
        "ConnectedSum(ComplexProj(8),QuatProj(4))@2": Expectation(None, None, None, None),
        "Product(ComplexProj(4),Sphere(2))@2": Expectation(None, None, None, None),
    }
    for text, expected in cases.items():
        assert build(parse_spec(text)).expectation == expected, text


def test_sphere_plane_products_meet_their_expectation():
    """Non-reduced windows: S^2 x CP^m has period 2 and, from m = 3, one
    local summand; a connected sum of r copies has r summands."""
    assert build(parse_spec("Product(Sphere(2),ComplexProj(1))@2")).expectation == Expectation(
        False, None, None, None)
    assert build(parse_spec("Product(Sphere(2),ComplexProj(2))@3")).expectation == Expectation(
        True, 2, None, None)
    leaf = "Product(Sphere(2),ComplexProj({}))"
    for p in (2, 3, 5):
        for text in [leaf.format(m) for m in range(1, 7)] + [
                f"ConnectedSum({leaf.format(4)},{leaf.format(4)})"]:
            fx = build(parse_spec(f"{text}@{p}"))
            exp = fx.expectation
            rep = periodicity.minimum_period(fx.algebra)
            assert (rep.period is not None) == exp.periodic, (text, p)
            assert rep.period == exp.min_period, (text, p)
            if exp.summand_count is not None:
                window = periodicity.subquotient(fx.algebra, rep.certificate)
                result = decomposition.decompose(window)
                assert result.summand_count == exp.summand_count, (text, p)
    assert build(parse_spec(f"{leaf.format(5)}@3")).expectation == Expectation(True, 2, True, 1)
    assert build(parse_spec(
        f"ConnectedSum({leaf.format(4)},{leaf.format(4)})@2")).expectation == Expectation(
        True, 2, False, 2)


def test_composite_and_oversized_moduli_are_refused():
    for text in ("ComplexProj(4)@4", "ComplexProj(4)@9", "ComplexProj(4)@1",
                 "ComplexProj(4)@4194301"):
        with pytest.raises(fplin.UnsupportedModulus):
            parse_spec(text)
    for p in (4, 9, 0, 2097169):
        with pytest.raises(fplin.UnsupportedModulus):
            GradedAlgebra(p, 0, [1], {})
    assert parse_spec("ComplexProj(4)@2097143").p == 2097143


def test_connected_sum_requires_matching_tops():
    with pytest.raises(ValueError):
        build(parse_spec("ConnectedSum(Sphere(3),Sphere(4))@2"))


def test_connected_sum_ring_structure():
    fx = build(parse_spec("ConnectedSum(ComplexProj(4),ComplexProj(4))@2"))
    alg = fx.algebra
    x1 = np.array([1, 0], dtype=np.int64)
    x2 = np.array([0, 1], dtype=np.int64)
    # cross products vanish below the top degree
    assert not alg.cup(2, x1, 2, x2).any()
    assert not alg.cup(2, x1, 4, alg.cup(2, x2, 2, x2)).any()
    # both fourth powers hit the shared fundamental class
    top1 = alg.cup(2, x1, 6, alg.cup(2, x1, 4, alg.cup(2, x1, 2, x1)))
    top2 = alg.cup(2, x2, 6, alg.cup(2, x2, 4, alg.cup(2, x2, 2, x2)))
    assert top1.tolist() == [1] and top2.tolist() == [1]


def test_kunneth_action_is_cartan_expansion():
    fx = build(parse_spec("Product(ComplexProj(2),Sphere(2))@2"))
    act = fx.action
    # degree-2 basis in slot order: 1 x z, then y x 1; degree 4: y x z, y^2 x 1
    out = act.apply(2, 2, [0, 1])
    assert out.tolist() == [0, 1]  # Sq2(y x 1) = y^2 x 1 by Cartan
    out = act.apply(2, 2, [1, 0])
    assert not out.any()  # Sq2(1 x z) = 1 x z^2 = 0 in the sphere factor


def test_odd_prime_action_gate():
    # generator degree 6, w = 3: no action table unless 3 divides p - 1
    assert build(parse_spec("TruncatedPoly(6,3)@5")).action is None
    fx = build(parse_spec("TruncatedPoly(6,3)@7"))
    assert fx.action is not None
    verify_action(fx.algebra, fx.action)


def test_build_is_deterministic():
    a = build(parse_spec("ConnectedSum(ComplexProj(4),ComplexProj(4))@2"))
    b = build(parse_spec("ConnectedSum(ComplexProj(4),ComplexProj(4))@2"))
    assert a.algebra.to_dict() == b.algebra.to_dict()
    assert a.action.to_dict() == b.action.to_dict()
    assert a.expectation == b.expectation


@pytest.mark.parametrize("text, algebras", [
    ("ConnectedSum(ConnectedSum(ConnectedSum(ComplexProj(4),ComplexProj(4)),ComplexProj(4)),"
     "ComplexProj(4))@2", 2),
    ("Product(ConnectedSum(ComplexProj(2),ComplexProj(2)),"
     "ConnectedSum(ComplexProj(2),ComplexProj(2)))@3", 3)])
def test_builds_share_nothing_and_build_each_subtree_once(monkeypatch, text, algebras):
    """Identical subtrees are built once inside one build call, but nothing
    outlives the call: a second build of the spec shares no algebra, action
    or table array with the first."""
    made = []

    class Counted(GradedAlgebra):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(corpus, "GradedAlgebra", Counted)
    first = build(parse_spec(text))
    assert len(made) == algebras
    second = build(parse_spec(text))
    assert first.algebra is not second.algebra and first.action is not second.action

    def arrays(fx):
        return [*fx.algebra.mult.values(), *fx.action.maps.values()]

    assert not any(np.shares_memory(a, b) for a in arrays(first) for b in arrays(second))


def test_random_nested_specs_build_clean():
    rng = np.random.default_rng(23)
    atoms = ["Sphere(2)", "Sphere(4)", "ComplexProj(2)", "ComplexProj(3)", "QuatProj(2)"]
    for _ in range(20):
        p = (2, 3, 5)[rng.integers(3)]
        kind = rng.integers(3)
        if kind == 0:
            text = atoms[rng.integers(len(atoms))]
        elif kind == 1:
            text = f"Product({atoms[rng.integers(len(atoms))]},{atoms[rng.integers(len(atoms))]})"
        else:
            base = atoms[rng.integers(len(atoms))]
            text = f"ConnectedSum({base},{base})"
        fx = build(parse_spec(f"{text}@{p}"))
        fx.algebra.validate()
        assert verify_poincare_duality(fx.algebra)
        if fx.action is not None:
            verify_action(fx.algebra, fx.action)


def test_failed_duality_check_is_a_typed_defect(monkeypatch):
    monkeypatch.setattr(corpus, "verify_poincare_duality", lambda alg: False)
    with pytest.raises(AlgebraDefect, match="duality"):
        build(parse_spec("ComplexProj(4)@2"))


def loop_kunneth_blocks(A: GradedAlgebra, B: GradedAlgebra):
    """The Python double loop that corpus._kunneth_blocks replaced, verbatim
    apart from its name."""
    offsets = np.zeros((A.n + B.n + 1, A.n + 1), dtype=np.int64)
    dims = []
    for k in range(A.n + B.n + 1):
        size = 0
        for i in range(max(0, k - B.n), min(A.n, k) + 1):
            offsets[k, i] = size
            size += A.dim(i) * B.dim(k - i)
        dims.append(size)
    return offsets, dims


_ATOMS = ("Sphere(2)", "Sphere(4)", "ComplexProj(2)", "ComplexProj(3)", "QuatProj(2)")
# Every product spec built in this file, with all the pairs that
# test_random_nested_specs_build_clean can draw.
PRODUCT_SPECS = (
    "Product(Sphere(3),Sphere(3))@2", "Product(ComplexProj(2),Sphere(2))@2",
    "Product(Sphere(3),ComplexProj(2))@3", "Product(ComplexProj(4),Sphere(2))@2",
    "Product(Sphere(3),Sphere(3))@3",
    *(f"Product(Sphere(2),ComplexProj({m}))@{p}" for m in range(1, 7) for p in (2, 3, 5)),
    *(f"ConnectedSum(Product(Sphere(2),ComplexProj(4)),Product(Sphere(2),ComplexProj(4)))@{p}"
      for p in (2, 3, 5)),
    "Product(ConnectedSum(ComplexProj(2),ComplexProj(2)),"
    "ConnectedSum(ComplexProj(2),ComplexProj(2)))@3",
    *(f"Product({a},{b})@{p}" for a in _ATOMS for b in _ATOMS for p in (2, 3, 5)),
)


def _products(spec):
    """Every Product node of spec, innermost first."""
    if spec.family in ("Product", "ConnectedSum"):
        for arg in spec.args:
            yield from _products(arg)
    if spec.family == "Product":
        yield spec


def test_kunneth_blocks_match_the_loop():
    """The outer product and cumsum give the loop's offsets, 0 where degree
    k has no block A_i (x) B_(k-i), and its dims as Python ints."""
    for text in PRODUCT_SPECS:
        for node in _products(parse_spec(text)):
            A, B = (build(arg).algebra for arg in node.args)
            offsets, dims = corpus._kunneth_blocks(A, B)
            want_offsets, want_dims = loop_kunneth_blocks(A, B)
            assert offsets.dtype == np.int64 and offsets.shape == want_offsets.shape, text
            assert np.array_equal(offsets, want_offsets), text
            assert dims == want_dims and all(type(d) is int for d in dims), text
