"""fplin.primitive_idempotents and periodicity._unit_test as they stood
before Frobenius skipped its kernel when it is the identity and the unit
test was read off one stacked product, verbatim but for the module
prefixes, _unit_test calling the primitive_idempotents here: the
references that the live code must match byte for byte, outputs and
exceptions alike."""

import numpy as np

from periodica import fplin
from periodica import periodicity as P


def primitive_idempotents(mats, p: int) -> tuple[fplin.Subspace, list, list]:
    """Primitive idempotents of a commutative algebra of matrices over GF(p).

    mats are d linearly independent m x m matrices whose span A holds the
    identity; an element of A is its coordinate vector in that basis.
    Frobenius a -> a^p is linear on A, and its fixed subalgebra
    B = ker(Frobenius - id) is a product of copies of GF(p), one per local
    factor of A (Berlekamp 1967; Ronyai, J. Symb. Comput. 1990).  Starting
    from the unit, every basis vector b of B splits each current idempotent
    e into the nonzero e * [b = c], [b = c] = 1 - (b - c)^(p-1), c running
    over the roots of the minimal polynomial of b on B.

    A separator b with b * b = b needs neither the minimal polynomial nor a
    power: b(b - 1) = 0, so b = 1 has the one root 1 and [b = 1] = 1 splits
    nothing, and otherwise (b is a nonzero basis vector) the roots are 0
    and 1, with [b = 0] = 1 - b^(p-1) = 1 - b and [b = 1] = 1 - (1 - b)^(p-1)
    = b, since (b - 1)^(p-1) = (1 - b)^(p-1) (p - 1 is even or p = 2) and
    1 - b is idempotent.  As A is commutative, e * [b = c] = [b = c] * e,
    so the multiplication matrices of the indicators, applied to every
    current idempotent in one product, split a whole round.  Frobenius is
    one stacked power of the basis's multiplication matrices.  When the
    matrices, flattened, are already in reduced row echelon form (a
    Subspace basis), a coordinate vector is read at the pivots.  The
    identity and every product M_i M_j with i <= j are checked to lie in
    the span; the products commute, so these are all of them.

    Returns B, the primitive idempotents sorted by their coordinates, and
    every split into two or more parts as (e, b, parts), parts in ascending
    order of c.  Raises NotCommutative when the matrices do not commute,
    and ValueError when they are not square and linearly independent, or a
    product or the identity lies outside their span.
    """
    stack = np.array(mats, dtype=np.int64) % p
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("expected a stack of square matrices")
    d, m = stack.shape[0], stack.shape[1]
    if d == 1:
        # The span of one matrix M holds the identity exactly when M = cI,
        # c != 0: then A = GF(p) with unit 1/c, and nothing splits.
        if not stack.any():
            raise ValueError("the matrices are linearly dependent")
        c = int(stack[0, 0, 0])
        if not np.array_equal(stack[0], c * np.eye(m, dtype=np.int64)):
            raise ValueError("a product of the matrices lies outside their span")
        return fplin.Subspace.full(p, 1), [np.array([pow(c, -1, p)], dtype=np.int64)], []
    flat = stack.reshape(d, m * m)
    pivots = fplin._reduced_pivots(flat)
    reduced = pivots is not None
    if not reduced:
        pivots = list(fplin.rref(flat, p)[1])
        if len(pivots) != d:
            raise ValueError("the matrices are linearly dependent")
        to_coords = fplin.mat_inv(flat[:, pivots], p)

    def coords(rows):
        x = rows[:, pivots] if reduced else (rows[:, pivots] @ to_coords) % p
        if not np.array_equal((x @ flat) % p, rows):
            raise ValueError("a product of the matrices lies outside their span")
        return x

    products = (stack[:, None] @ stack[None]) % p
    if not np.array_equal(products, products.transpose(1, 0, 2, 3)):
        raise fplin.NotCommutative("the matrices do not commute")
    # pairs[i, j] holds the coordinates of M_i M_j; the products commute,
    # so those with i <= j are all of them.  mult[i] multiplies by the i-th
    # basis element: its column j is M_i M_j.
    upper = np.arange(d)[:, None] <= np.arange(d)
    pairs = np.empty((d, d, d), dtype=np.int64)
    pairs[upper] = coords(products[upper].reshape(-1, m * m))
    pairs[~upper] = pairs.transpose(1, 0, 2)[~upper]
    mult = pairs.transpose(0, 2, 1)
    unit = coords(np.eye(m, dtype=np.int64).reshape(1, m * m))[0]
    flat_mult = mult.reshape(d, d * d)

    def times(rows):
        """The multiplication matrices of the elements rows."""
        return (rows @ flat_mult).reshape(-1, d, d) % p

    def power(rows, e):
        """The e-th powers of the elements rows, one stacked power."""
        return (fplin.mat_pow(times(rows), e, p) @ unit) % p

    frobenius = power(np.eye(d, dtype=np.int64), p).T
    fixed = fplin.kernel((frobenius - np.eye(d, dtype=np.int64)) % p, p)
    parts, splits = [unit], []
    for b in fixed.basis:
        if len(parts) == fixed.dim:
            break
        on_b = times(b)[0]
        if np.array_equal((on_b @ b) % p, b):
            if np.array_equal(b, unit):
                continue  # [b = 1] = 1 splits nothing
            indicators = np.array([(unit - b) % p, b])
        else:
            roots = fplin.split_roots(
                fplin.minimal_polynomial(fplin.restricted_matrix(on_b, fixed, fixed), p), p)
            indicators = (unit - power((b - np.array(roots)[:, None] * unit) % p, p - 1)) % p
        # pieces[i, j] = e_i * [b = c_j], computed as [b = c_j] * e_i
        pieces = ((np.array(parts) @ times(indicators).transpose(0, 2, 1)) % p).transpose(1, 0, 2)
        refined = []
        for e, row in zip(parts, pieces):
            nonzero = [q for q in row if q.any()]
            if len(nonzero) > 1:
                splits.append((e, b, nonzero))
            refined += nonzero
        parts = refined
    if len(parts) != fixed.dim:
        raise fplin.ConsistencyFailure(
            f"{len(parts)} idempotents for a {fixed.dim}-dimensional fixed subalgebra")
    return fixed, sorted(parts, key=lambda v: tuple(int(t) for t in v)), splits


def _unit_test(alg, k: int) -> P._UnitTest | None:
    """The centroid's test for degree-k direct inducers; None when there are none.

    Let V = A^k and E = {T in End(V) : a T(b) = T(a) b for all a, b in V},
    the centroid of the product V x V -> A^(2k) (Wilson, J. Algebra 322,
    2009; Brooksbank and Wilson, Trans. AMS 364, 2012).  Suppose x0
    induces, with 2 <= k and 3k <= n-1, in an associative graded-commutative
    algebra.  Cupping with x0 is then a bijection from A^k onto A^(2k) and
    from A^(2k) into A^(3k), so a * b = (x0 .)^(-1)(ab) makes V a
    commutative ring R with unit x0.  Every T in E is multiplication by
    T(x0) in R (put a = x0), and every multiplication lies in E (cancel x0
    from x0 (a (r * b)) = x0 ((r * a) b)), so E is R acting on itself:
    dim E = dim V and E is commutative.  The inducers are then the units of
    R: an inducer's cup is bijective onto A^(2k); a unit u with inverse v
    has uv = x0 x0, which makes cupping with u injective and, by counting
    dimensions, surjective across the window (k >= 2 is needed at degree
    1).  The units of R are the generators of V as an E-module, and by
    Nakayama's lemma on each local factor E e_j these are the v outside
    every N_j = rad(E) V + (1 - e_j) V.

    So this returns None when dim E != dim V or E is not commutative, and
    otherwise the linear test for lying outside every N_j, with one vector
    that passes it: the sum over j of the first column of e_j outside N_j.
    If any inducer exists the passing vectors are exactly the inducers, so
    window-testing one of them decides them all.  rad(E) is the kernel of
    a -> a^(p^m) for p^m >= dim E, a linear map on a commutative algebra
    over GF(p), found with one stacked power of E's basis, and v lies in
    N_j exactly when e_j v lies in rad(E) V.  E comes from _centroid, its
    system read off the table's nonzero entries; whether it commutes is
    checked once, by fplin.primitive_idempotents, which raises
    NotCommutative when it does not.
    """
    p, d = alg.p, alg.dim(k)
    centroid = P._centroid(alg, k)
    if centroid.dim != d:
        return None
    mats = centroid.basis.reshape(d, d, d)
    try:
        fixed, idempotents, _ = primitive_idempotents(mats, p)
    except fplin.NotCommutative:
        return None
    # Rows of quotient: the functionals that vanish on rad(E) V.  When the
    # Frobenius-fixed subalgebra is all of E, E is GF(p)^d and rad(E) = 0.
    quotient = np.eye(d, dtype=np.int64)
    if fixed.dim < d:
        exponent = 1
        while exponent < d:
            exponent *= p
        powers = fplin.mat_pow(mats, exponent, p).reshape(d, d * d)
        radical = (fplin.kernel(powers.T, p).basis @ centroid.basis) % p
        quotient = fplin.kernel(radical.reshape(-1, d, d).transpose(0, 2, 1).reshape(-1, d), p).basis
    tests, generator = [], np.zeros(d, dtype=np.int64)
    for coords in idempotents:
        ej = (coords @ centroid.basis).reshape(d, d) % p
        tests.append((quotient @ ej) % p)
        generator += next(col for col in ej.T if ((tests[-1] @ col) % p).any())
    return P._UnitTest(p, np.array(tests), generator % p)
