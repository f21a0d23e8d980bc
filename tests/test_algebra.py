"""Ring-level oracles: axioms, cup products, duality, serialization."""

import numpy as np
import pytest

from periodica import corpus
from periodica.algebra import (MAX_TOTAL_DIM, AlgebraDefect, Element, GradedAlgebra,
                               verify_poincare_duality)
from test_generator_checks import pairing_matrix


def build(text):
    return corpus.build(corpus.parse_spec(text))


def test_element_round_trip():
    e = Element.of(3, np.array([2, 0, 1], dtype=np.int64))
    assert e.degree == 3
    assert e.coeffs == (2, 0, 1)
    assert np.array_equal(e.as_vector(), np.array([2, 0, 1]))
    assert Element.of(1, np.array([4], dtype=np.uint8)).coeffs == (4,)


@pytest.mark.parametrize("entries", [[0.9], [True], [1, False], ["1"], np.array([1.0])])
def test_element_refuses_non_integer_entries(entries):
    with pytest.raises(ValueError, match="must be integers"):
        Element.of(2, entries)


def test_truncated_polynomial_cup_products():
    alg = build("ComplexProj(4)@2").algebra
    assert alg.dims == (1, 0, 1, 0, 1, 0, 1, 0, 1)
    for i in range(1, 4):
        for j in range(1, 4):
            out = alg.cup(2 * i, [1], 2 * j, [1])
            if i + j <= 4:
                assert out.tolist() == [1], (i, j)
    assert alg.cup(2, [1], 2, [0]).tolist() == [0]


def test_cup_matrix_is_multiplication_matrix():
    alg = build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2").algebra
    x = np.array([1, 1], dtype=np.int64)
    m = alg.cup_matrix(2, x, 2)
    for t in range(alg.dim(2)):
        basis = alg.basis_element(2, t)
        direct = alg.cup(2, x, 2, basis)
        assert np.array_equal((m @ basis) % 2, direct)


def test_graded_commutativity_sign_mod_3():
    alg = build("Product(Sphere(3),Sphere(5))@3").algebra
    a = alg.basis_element(3, 0)
    b = alg.basis_element(5, 0)
    ab = alg.cup(3, a, 5, b)
    ba = alg.cup(5, b, 3, a)
    assert np.array_equal(ab, (-ba) % 3)
    alg.validate()


def test_validate_catches_broken_unit():
    alg = build("Sphere(4)@2").algebra
    mult = dict(alg.mult)
    mult[(0, 4)] = np.zeros_like(mult[(0, 4)])
    broken = GradedAlgebra(alg.p, alg.n, alg.dims, mult)
    with pytest.raises(AlgebraDefect):
        broken.validate()


def test_validate_catches_broken_associativity():
    alg = build("ComplexProj(4)@2").algebra
    mult = dict(alg.mult)
    mult[(2, 4)] = np.zeros_like(mult[(2, 4)])
    broken = GradedAlgebra(alg.p, alg.n, alg.dims, mult)
    with pytest.raises(AlgebraDefect):
        broken.validate()


def test_poincare_duality_detects_degenerate_pairing():
    # y*y = 0 with a formal top class: a valid ring whose pairing is not perfect
    dims = (1, 1, 1)
    mult = {
        (0, 0): np.array([[1]], dtype=np.int64),
        (0, 1): np.array([[1]], dtype=np.int64),
        (1, 0): np.array([[1]], dtype=np.int64),
        (0, 2): np.array([[1]], dtype=np.int64),
        (2, 0): np.array([[1]], dtype=np.int64),
        (1, 1): np.array([[0]], dtype=np.int64),
    }
    alg = GradedAlgebra(2, 2, dims, mult)
    alg.validate()
    assert not verify_poincare_duality(alg)


def test_total_dimension_below_the_bound():
    """The axiom checks key products of basis vectors in int64 only below
    MAX_TOTAL_DIM; at the bound the algebra is refused."""
    assert GradedAlgebra(2, 1, [1, MAX_TOTAL_DIM - 2], {}).total_dim == MAX_TOTAL_DIM - 1
    with pytest.raises(ValueError, match="total dimension"):
        GradedAlgebra(2, 1, [1, MAX_TOTAL_DIM - 1], {})


def test_unit_check_reads_the_entries_of_a_large_degree():
    """No (0, 3) table, so 1y = 0 for the 54 996 classes y of degree 3.
    The check reads the table entries: it needs no dim(3) x dim(3)
    identity, which would take 24 GB of int64."""
    one = [[1]]
    mult = {(0, 0): one, (0, 1): one, (1, 0): one, (0, 2): one, (2, 0): one}
    alg = GradedAlgebra(3, 3, [1, 1, 1, 54_996], mult)
    assert alg.unit_defect == "unit fails on the left in degree 3"
    with pytest.raises(AlgebraDefect, match="left in degree 3"):
        alg.validate()
    assert not verify_poincare_duality(alg)


def test_serialization_round_trip():
    for text in ("ComplexProj(4)@2", "QuatProj(3)@2", "Product(Sphere(3),Sphere(3))@2",
                 "ComplexProj(4)@3", "ConnectedSum(QuatProj(3),QuatProj(3))@2"):
        alg = build(text).algebra
        back = GradedAlgebra.from_dict(alg.to_dict())
        assert back.p == alg.p and back.n == alg.n and back.dims == alg.dims
        assert set(back.mult) == set(alg.mult)
        for key, table in alg.mult.items():
            assert np.array_equal(back.mult[key], table), key
        back.validate()


def test_pairing_matrix_square_and_invertible():
    alg = build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2").algebra
    for i in range(alg.n + 1):
        m = pairing_matrix(alg, i)
        assert m.shape == (alg.dim(i), alg.dim(alg.n - i))
    assert verify_poincare_duality(alg)


def test_random_fixture_axioms():
    rng = np.random.default_rng(7)
    atoms = ["Sphere(3)", "Sphere(4)", "ComplexProj(2)", "ComplexProj(3)", "QuatProj(2)"]
    for _ in range(12):
        a = atoms[rng.integers(len(atoms))]
        b = atoms[rng.integers(len(atoms))]
        p = (2, 3, 5)[rng.integers(3)]
        fx = build(f"Product({a},{b})@{p}")
        fx.algebra.validate()
        assert verify_poincare_duality(fx.algebra)
        # cup against mult_map on random picks
        alg = fx.algebra
        degs = [i for i in range(1, alg.n) if alg.dim(i)]
        for _ in range(4):
            i = degs[rng.integers(len(degs))]
            j = degs[rng.integers(len(degs))]
            if i + j > alg.n:
                continue
            u = rng.integers(0, p, size=alg.dim(i))
            v = rng.integers(0, p, size=alg.dim(j))
            out = alg.cup(i, u, j, v)
            kron = np.kron(u, v) % p
            assert np.array_equal(out, (alg.mult_map(i, j) @ kron) % p)
