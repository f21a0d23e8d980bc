"""Multiplicative periodicity: window tests, certificates and subquotients.

An element x of degree k passes the window test for an algebra with top
degree n when cupping with x is surjective from degree i for
1 <= i < n-1-k and injective for 1 < i <= n-1-k; the degree k is direct
when 3k <= n-1.  window_ranges and direct_bound state these bounds, and
every check reads them there.  x induces periodicity when
induces_periodicity certifies it, in one of three modes tried in this
order: "direct" (the window test in a direct degree), "window" (a window
pass whose gap, the nonzero degrees no window condition touches, is
empty), and "product" (a product of direct inducers).  Every caller that
asks whether x induces (element_induces, is_irreducible,
nonperiodic_subspace, the window checkers and the command line) asks it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fplin, steenrod
from .algebra import Element, GradedAlgebra, _as_int, _computed_once
from .fplin import ConsistencyFailure

DEFAULT_SEARCH_CAP = 2**20

# The shift map and operator block of every empty window degree.
EMPTY_BLOCK = np.zeros((0, 0), dtype=np.int64)
EMPTY_BLOCK.setflags(write=False)


class WellDefinednessFailure(RuntimeError):
    """Subquotient construction met data that contradicts its certificate."""


class SearchCapExceeded(RuntimeError):
    """An exhaustive enumeration would pass the configured cap."""


class HypothesisNotMet(RuntimeError):
    """A checked statement's hypotheses fail on the given input."""


@dataclass(frozen=True)
class PeriodicityCertificate:
    k: int
    element: Element
    mode: str
    factors: tuple[Element, ...] = ()


@dataclass(frozen=True)
class WindowRefusal:
    k: int
    element: Element
    failed_degree: int
    failed_condition: str


@dataclass(frozen=True)
class SearchVerdict:
    k: int
    status: str
    reason: str


@dataclass(frozen=True)
class MinimumPeriodReport:
    period: int | None
    certificate: PeriodicityCertificate | None
    all_periods: tuple[int, ...]
    inconclusive: tuple[int, ...]
    divisibility_checked: bool


def window_ranges(n: int, k: int) -> tuple[range, range]:
    """The source degrees i where cupping with a degree-k element must be
    surjective onto degree i + k, then those where it must be injective."""
    return range(1, n - 1 - k), range(2, n - k)


def direct_bound(n: int) -> int:
    """The largest direct degree for top degree n: k is direct when 3k <= n-1."""
    return (n - 1) // 3


def _window_failure(alg, k, xv):
    """First violated window condition for cupping with xv, or None.

    Returns (source degree, "surjectivity" | "injectivity").
    """
    onto, into = window_ranges(alg.n, k)
    for i in range(onto.start, into.stop):
        if alg.dim(i) == 0 and alg.dim(i + k) == 0:
            continue
        r = fplin.rank(alg.cup_matrix(k, xv, i), alg.p)
        if i in onto and r < alg.dim(i + k):
            return i, "surjectivity"
        if i in into and r < alg.dim(i):
            return i, "injectivity"
    return None


def window_gap(alg, k: int) -> tuple[int, ...]:
    """Degrees with nonzero dimension that no window condition for k touches."""
    onto, into = window_ranges(alg.n, k)
    sources = set(onto) | set(into)
    covered = sources | {i + k for i in sources}
    return tuple(i for i in range(1, alg.n) if i not in covered and alg.dim(i) > 0)


def _check_degree(alg, k: int) -> None:
    if not 1 <= k <= alg.n - 1:
        raise ValueError(f"degree {k} outside 1..{alg.n - 1}")


def _element_vector(alg, x: Element) -> np.ndarray:
    """x's coordinates mod p; ValueError for a degree outside 1..n-1 or a
    vector of the wrong length."""
    _check_degree(alg, x.degree)
    xv = fplin.as_vector(x.as_vector(), alg.p)
    if xv.shape[0] != alg.dim(x.degree):
        raise ValueError("element length does not match its degree")
    return xv


def _check_limits(cap: int) -> None:
    """ValueError unless cap is an int >= 1 (a bool, float, str or None is
    refused, not rounded or compared)."""
    if _as_int(cap, "the search cap") < 1:
        raise ValueError(f"the search cap must be at least 1, got {cap}")


def verify_certificate(alg, cert: PeriodicityCertificate) -> bool:
    """Re-run the checks that justify a certificate; True iff all still hold.
    False for a certificate whose element has a non-integer coefficient."""
    k = cert.k
    if not 1 <= k <= alg.n - 1 or cert.element.degree != k:
        return False
    try:
        xv = cert.element.as_vector() % alg.p
    except ValueError:
        return False
    if xv.shape[0] != alg.dim(k):
        return False
    if cert.mode == "direct":
        return k <= direct_bound(alg.n) and _window_failure(alg, k, xv) is None
    if cert.mode == "window":
        return _window_failure(alg, k, xv) is None and not window_gap(alg, k)
    if cert.mode == "product":
        deg, acc = 0, None
        for f in cert.factors:
            if not verify_certificate(alg, PeriodicityCertificate(f.degree, f, "direct")):
                return False
            fv = f.as_vector() % alg.p
            if acc is None:
                deg, acc = f.degree, fv
            else:
                acc = alg.cup(deg, acc, f.degree, fv)
                deg += f.degree
        return deg == k and np.array_equal(acc, xv)
    return False


def _ruled_out(alg, k: int) -> bool:
    """True when the dimensions alone fail a window condition for k.

    Cupping from degree i to i + k has rank at most min(dim i, dim i+k), so
    no degree-k element is surjective where dim i < dim i+k, or injective
    where dim i+k < dim i.  A product of direct inducers passes the window
    conditions too, so no product certificate reaches k either.
    """
    onto, into = window_ranges(alg.n, k)
    return (any(alg.dim(i) < alg.dim(i + k) for i in onto)
            or any(alg.dim(i + k) < alg.dim(i) for i in into))


def _product_degree(alg, k: int) -> bool:
    """Whether k is a sum of at least two degrees e <= (n-1)//3 that
    _ruled_out leaves open: only such a degree can hold a product of direct
    inducers, since every factor's degree is one of them."""
    degrees = [e for e in range(1, direct_bound(alg.n) + 1) if not _ruled_out(alg, e)]
    sums = set()  # the totals below k of at least one such degree
    for total in range(1, k):
        if total in degrees or any(total - e in sums for e in degrees):
            sums.add(total)
    return any(k - e in sums for e in degrees)


def _centroid_decides(alg, k: int) -> bool:
    """Whether _unit_test decides the direct degree k: 2 <= k, 3k <= n-1,
    degree k is nonzero and the tables pass the ring axioms its proof uses."""
    return (2 <= k <= direct_bound(alg.n) and alg.dim(k) > 0
            and alg.associativity_defect is None and alg.commutativity_defect is None)


@dataclass(frozen=True)
class _UnitTest:
    """The vectors v that generate V = A^k over the centroid E.

    v generates V exactly when tests[j] @ v is nonzero for every j: the
    rows of tests[j] span the functionals that vanish on
    N_j = rad(E) V + (1 - e_j) V.  generator is one such v.
    """
    p: int
    tests: np.ndarray
    generator: np.ndarray

    def units(self):
        """The generators among all of V, in lexicographic order, one block
        of at most _TILE candidates at a time."""
        m, r, d = self.tests.shape
        for block in fplin.vector_blocks(d, self.p, _TILE):
            hits = (block @ self.tests.reshape(m * r, d).T) % self.p
            yield block[hits.reshape(len(block), m, r).any(axis=2).all(axis=1)]


def _centroid(alg, k: int) -> fplin.Subspace:
    """The centroid E of A^k x A^k -> A^(2k) as the kernel of its linear
    system, a subspace of the d x d matrices T (T[c, e] at c * d + e), with
    the basis fplin.kernel gives.

    Equation (t, a, b) reads (a T(b) - T(a) b)_t = sum over c of
    m3[t, a, c] T[c, b] - m3[t, c, b] T[c, a] = 0, m3 = mult3(k, k).  So a
    nonzero entry m3[t, x, y] = v puts v at T[y, b] in equation (t, x, b)
    and -v at T[x, a] in equation (t, a, y), for every a and b: the system
    is built from the table's nonzero entries alone, equal terms summed,
    and solved by fplin.sparse_kernel, where a single-entry row forces its
    unknown to 0 and only the other rows are made dense.
    """
    p, d = alg.p, alg.dim(k)
    m3 = alg.mult3(k, k)
    t, x, y = (u[:, None] for u in np.nonzero(m3))
    v, s = np.repeat(m3[t, x, y], d), np.arange(d)
    row = np.concatenate([((t * d + x) * d + s).ravel(), ((t * d + s) * d + y).ravel()])
    col = np.concatenate([(y * d + s).ravel(), (x * d + s).ravel()])
    keys, at = np.unique(row * d * d + col, return_inverse=True)
    val = np.zeros(keys.size, dtype=np.int64)
    np.add.at(val, at, np.concatenate([v, -v]))
    val %= p
    keys, val = keys[val != 0], val[val != 0]
    return fplin.sparse_kernel(keys // (d * d), keys % (d * d), val, d * d, p)


def _unit_test(alg, k: int) -> _UnitTest | None:
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
    centroid = _centroid(alg, k)
    if centroid.dim != d:
        return None
    mats = centroid.basis.reshape(d, d, d)
    try:
        fixed, idempotents, _ = fplin.primitive_idempotents(mats, p)
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
    return _UnitTest(p, np.array(tests), generator % p)


# Products per einsum block; bounds the memory one block of the span takes.
_TILE = 4096


def _tiles(rows: int, cols: int):
    """Row-major (r0, r1, s0, s1) tiles of a rows x cols block, each at most _TILE."""
    if not cols:
        return
    if cols >= _TILE:
        for r in range(rows):
            for s0 in range(0, cols, _TILE):
                yield r, r + 1, s0, min(s0 + _TILE, cols)
    else:
        step = _TILE // cols
        for r0 in range(0, rows, step):
            yield r0, min(r0 + step, rows), 0, cols


def _block_products(m3, left, right, p):
    """Row r * len(right) + s holds left[r] * right[s] under the (t, a, b) table m3.

    One factor at a time, reduced in between, so int64 sums stay exact.
    """
    t, a, _ = m3.shape
    (rows, _), (cols, _) = left.shape, right.shape
    with_right = ((m3 @ right.T) % p).transpose(1, 0, 2).reshape(a, t * cols)
    out = (left @ with_right).reshape(rows, t, cols).transpose(0, 2, 1)
    return out.reshape(rows * cols, t) % p


class _ProductSpan:
    """Products of direct inducers for one search, grown degree by degree.

    The degree-d products multiply a reach vector of degree a = d - b by a
    direct inducer of degree b, for b = 1 .. min((n-1)//3, d-1) in turn,
    reach vectors in sorted order and inducers in enumeration order; the
    first factorization met wins, so certificates are deterministic.  The
    reach of degree a is its direct inducers (when 3a <= n-1) followed by
    the degree-a products not among them.  Each (a, b) block is two matrix
    products, whose rows are kept by first occurrence in row order.  A
    degree's window passes are decided in one place, passes: the dimension
    bound, then the centroid, then enumeration; the direct inducers are
    those passes stacked.  Direct inducers, products and reaches are kept
    per degree for the engine's lifetime only, with the centroid tests of
    the direct degrees; nothing is stored on the algebra.  span states the
    one rule by which growth refuses past the cap: a count over the reaches
    below k, kept once per search as a prefix, plus degree k's own term.

    Where a premise holds, degree d is one linear image instead: the
    products r * U of the first sorted reach row r of degree d - b, with
    parents (b, 0, s), so a degree costs |U| products, not |reach| * |U|.
    Let b be the least degree <= min((n-1)//3, d-1) with direct inducers,
    U those inducers.  The premise: the centroid decides b
    (_centroid_decides) and every degree <= min((n-1)//3, d-1) with direct
    inducers is a multiple of b.  Then the degree-d products are empty
    unless b divides d, and otherwise they are exactly x0^(d/b - 1) U for
    any x0 in U, all met first in the row r, in the block engine's order.

    Proof.  Every factor degree is a multiple of b, so every reach degree
    below d is too, and a degree d that b does not divide gets no product.
    By _unit_test's proof R = A^b is a commutative ring with unit x0 and
    product u * v = (x0 .)^(-1)(uv), and U is its unit group, so uv =
    x0 (u * v) and u U = x0 (u * U) = x0 U for every u in U.  The direct
    inducers of degree mb >= 2b are exactly x0^(m-1) U, as the unit_test
    method proves.  By induction on the degree, every reach row of degree
    mb is then in x0^(m-1) U (a product of x0^i u and x0^j v is
    x0^(i+j+1) (u * v)), the reach of every multiple of b up to d - b is
    nonempty (the (mb, b) block of degree (m+1)b is), and every block of
    degree d = (j+1)b lies in x0^j U, while the first row r = x0^(j-1) u
    of the (d - b, b) block gives r U = x0^(j-1) x0 U = x0^j U, all of
    it.  The block engine keeps first occurrences with b' ascending (no
    b' < b has inducers), rows sorted and inducers in enumeration order,
    so it meets the whole set in row r and nothing new after it: the keys,
    their order, the parents and the point where a refusal fires are the
    same.

    Cupping with x0 is injective from degree i for 1 < i <= n-1-b, into
    every degree up to n-1, so u -> r u is injective on U, but it is not
    surjective onto degree n-1; the proof uses neither fact, and r * U is
    deduplicated by first occurrence like every block, so the engine does
    not rest on injectivity at the top either.  Where the premise fails the
    block engine runs as above.
    """

    def __init__(self, alg, cap: int):
        self.alg = alg
        self.cap = cap
        self.top = direct_bound(alg.n)
        self._inducers = {}  # d -> direct inducers, one per row, enumeration order
        self._products = {}  # d -> (key -> row, [(b, reach row, inducer row)])
        self._reach = {}     # a -> (sorted keys as rows, product row or -1 - inducer row)
        self._spans = {}     # k -> span(k), or the message of the refusal
        self._tests = {}     # d -> unit_test(d)
        self._bases = {}     # min(top, d - 1) -> _unit_degree(d)
        self._ledger = [(0, 0)]  # d -> span's (T, N) through the reach of degree d
        self._refused = None     # the first degree whose reach breaks span's rule 2
        # span's rule 1 refuses every k past this degree
        self._wide = next((d for d in range(1, self.top + 1) if alg.p ** alg.dim(d) > cap), alg.n)

    def span(self, k: int) -> dict:
        """Degree-k products as key -> row, in the order they were found.

        The cap rule of the product search, stated here once.  The reach of
        a degree d is its direct inducers (when 3d <= n-1) together with its
        products of direct inducers.  Raises SearchCapExceeded when
        1. some degree d <= min((n-1)//3, k-1) has p^dim(d) > cap
           candidates, checked first ("degree d has ... candidates"); or
        2. T > cap and N > 0, where T is |reach(d)| summed over d < k plus
           the number of degree-k products, and N is the part of T that is
           not a direct inducer of a degree below k ("product search stored
           over cap vectors").
        T and N are a prefix over the degrees below k plus degree k's term.
        For d < k, d <= min((n-1)//3, k-1) exactly when d <= (n-1)//3, so
        degree d's count, its direct inducers and the arguments of its
        products do not depend on k: _prefix counts each degree once per
        search, and a degree where rule 2 first holds refuses every later k
        as well.  Only the last term depends on k: it counts degree-k
        products, not the reach, and none of them is a direct inducer of a
        degree below k.  So refusals are not monotone in k: a product equal
        to a direct inducer counts toward N only at its own degree, and
        each k's answer is kept on its own.
        """
        if k not in self._spans:
            try:
                self._spans[k] = self._grow_to(k)
            except SearchCapExceeded as exc:
                self._spans[k] = str(exc)
        out = self._spans[k]
        if isinstance(out, str):
            raise SearchCapExceeded(out)
        return out

    def factors(self, k: int, key: tuple) -> tuple[Element, ...]:
        """The direct inducers, in multiplication order, whose product is key."""
        return self._factors(k, self.span(k)[key])

    def _factors(self, d, row):
        b, r, s = self._products[d][1][row]
        keys, origin = self._reach[d - b]
        head = ((Element.of(d - b, keys[r]),) if origin[r] < 0
                else self._factors(d - b, origin[r]))
        return head + (Element.of(b, self._inducers[b][s]),)

    def unit_test(self, d: int) -> _UnitTest | None:
        """The test for the direct inducers of degree d, where the centroid
        decides d; None when there are none.  Computed once per search.

        Let b be divisor(d): the least divisor of d with 2 <= b < d that the
        dimensions do not rule out (_ruled_out), the centroid decides
        (_centroid_decides) and unit_test(b) is not None, and x0 b's
        generator.  When b exists, this is b's test carried along L, the
        matrix of cupping with x0^(d/b - 1) from A^b to A^d: the tests
        tests_b L^(-1) and the generator L x0 = x0^(d/b), with no centroid
        and no window test at d.  Otherwise it is _unit_test(alg, d) when
        its generator passes the window test, else None, and then no
        degree-d vector passes (see _unit_test).

        Proof that the carried test passes exactly the degree-d inducers.
        By _unit_test's proof, b's test passes exactly the units of the
        ring R_b = A^b with unit x0 and product u * v = (x0 .)^(-1)(uv), and
        these are the degree-b inducers.  Then:
        - L is bijective: 3d <= n-1, so each x0 . maps A^(jb) onto
          A^((j+1)b) inside the window, and L is their composite.
        - If L^(-1) w = u is a unit of R_b, w = x0^(d/b - 1) u passes the
          window test: cupping with w is the composite of cupping with u
          and with x0 d/b - 1 times, and from a source degree i the j-th of
          them starts at i + jb, inside each one's surjective (injective)
          range whenever i is inside w's; compose the cup ranges.
        - If w is an inducer and v = L^(-1) w, then w a = x0^(d/b) (v * a)
          for a in A^b, and w is injective from degree b (2 <= b and
          b + d <= n-1), so v * is injective, hence bijective, on R_b, and
          v is a unit.
        A singular L contradicts the ring axioms _centroid_decides checked
        and raises ConsistencyFailure.  Under the cap, passes(d) yields the
        same vectors in the same order either way; past it,
        find_inducing_element's rule 5 answers x0^(d/b), a direct inducer,
        instead of d's own Nakayama generator.

        A lone call at d also computes the centroids of the divisors b
        tried before the one used: those the dimensions leave open but that
        have no inducer.  search_degrees, which asks every degree in turn,
        computes them anyway.
        """
        if d not in self._tests:
            alg = self.alg
            b = self.divisor(d)
            if b is not None:
                self._tests[d] = self._carried(self._tests[b], b, d)
            else:
                test = _unit_test(alg, d)
                passes = test is not None and _window_failure(alg, d, test.generator) is None
                self._tests[d] = test if passes else None
        return self._tests[d]

    def divisor(self, d: int) -> int | None:
        """The least divisor b of d with 2 <= b < d that the dimensions do not
        rule out, the centroid decides and where unit_test(b) is not None;
        None when there is none.  Every such b is direct."""
        alg = self.alg
        return next((b for b in range(2, d) if d % b == 0 and not _ruled_out(alg, b)
                     and _centroid_decides(alg, b) and self.unit_test(b) is not None), None)

    def power(self, x0, b: int, m: int) -> np.ndarray:
        """x0^m for the degree-b vector x0, multiplied from the left one
        factor at a time."""
        out = x0
        for e in range(b, m * b, b):  # out = x0^(e/b) becomes x0^(e/b + 1)
            out = self.alg.cup(b, x0, e, out)
        return out

    def _carried(self, test, b, d):
        """test, the degree-b unit test, carried to degree d along cupping
        with its generator's power (see unit_test)."""
        alg, p, x0 = self.alg, self.alg.p, test.generator
        carry = alg.cup_matrix(d - b, self.power(x0, b, d // b - 1), b)
        try:
            back = fplin.mat_inv(carry, p)
        except fplin.NotInvertible:
            raise ConsistencyFailure(
                f"cupping with the power of a degree-{b} inducer is singular onto degree {d}")
        return _UnitTest(p, (test.tests @ back) % p, (carry @ x0) % p)

    def passes(self, d: int):
        """The degree-d window passes in lexicographic order, lazily, as row
        blocks: none when the dimensions rule d out; where the centroid
        decides d, its units, or none when unit_test(d) is None; otherwise
        each vector window-tested in turn."""
        alg = self.alg
        if _ruled_out(alg, d):
            return
        if _centroid_decides(alg, d):
            test = self.unit_test(d)
            if test is not None:
                yield from (block for block in test.units() if len(block))
            return
        for v in fplin.enumerate_vectors(alg.dim(d), alg.p):
            if _window_failure(alg, d, v) is None:
                yield v[None]

    def _grow_to(self, k):
        """span(k): rule 1, then degree k's products, with nothing held,
        counted on top of the prefix through k - 1 (see span).  Where the
        prefix does not refuse, its T > cap only with N = 0, so degree k
        refuses exactly when it has products and they bring T past the cap."""
        alg, cap = self.alg, self.cap
        if k > self._wide:
            raise SearchCapExceeded(
                f"degree {self._wide} has {alg.p ** alg.dim(self._wide)} candidates, cap {cap}")
        total = self._prefix(k - 1)
        if k not in self._products:
            self._products[k] = self._multiply(k, set(), cap - total)
        count = len(self._products[k][0])
        if count and total + count > cap:
            raise SearchCapExceeded(f"product search stored over {cap} vectors")
        return self._products[k][0]

    def _prefix(self, m):
        """span's T through the reach of degree m, each degree counted once
        per search; refuses when rule 2 holds at a degree <= m."""
        ledger, cap = self._ledger, self.cap
        while len(ledger) <= m and self._refused is None:
            d = len(ledger)
            total, fresh = ledger[-1]
            direct = len(self._direct(d)) if d <= self.top else 0
            if d not in self._products:
                held = {tuple(v) for v in self._direct(d).tolist()} if direct else set()
                try:
                    self._products[d] = self._multiply(d, held, cap - total - direct)
                except SearchCapExceeded:
                    self._refused = d
                    break
            count = len(self._reach_keys(d))
            total, fresh = total + count, fresh + count - direct
            if fresh and total > cap:
                self._refused = d
            else:
                ledger.append((total, fresh))
        if len(ledger) <= m:
            raise SearchCapExceeded(f"product search stored over {cap} vectors")
        return ledger[m][0]

    def _unit_degree(self, d):
        """The least degree b <= min((n-1)//3, d-1) with direct inducers when
        the linear premise holds for degree d, else None (see the class).
        It depends on d only through that bound, so it is decided once per
        bound."""
        m = min(self.top, d - 1)
        if m not in self._bases:
            found = [e for e in range(1, m + 1) if len(self._direct(e))]
            b = found[0] if found else None
            holds = b and _centroid_decides(self.alg, b) and all(e % b == 0 for e in found)
            self._bases[m] = b if holds else None
        return self._bases[m]

    def _multiply(self, d, held, limit):
        """The degree-d products as (key -> row, parents); refuses once more
        than limit of them lie outside held, where span's rule 2 holds."""
        b = self._unit_degree(d)
        if b is None:
            blocks = [(b, self._reach_keys(d - b), self._direct(b))
                      for b in range(1, min(self.top, d - 1) + 1)]
        elif d % b:
            blocks = []
        else:
            blocks = [(b, self._reach_keys(d - b)[:1], self._direct(b))]
        alg, p = self.alg, self.alg.p
        index, parents, fresh = {}, [], 0
        for b, keys, inducers in blocks:
            m3 = alg.mult3(d - b, b)
            for r0, r1, s0, s1 in _tiles(len(keys), len(inducers)):
                flat = _block_products(m3, keys[r0:r1], inducers[s0:s1], p)
                width = s1 - s0
                for j, row in enumerate(flat.tolist()):
                    t = tuple(row)
                    if t in index:
                        continue
                    index[t] = len(parents)
                    parents.append((b, r0 + j // width, s0 + j % width))
                    if t not in held:
                        fresh += 1
                        if fresh > limit:
                            raise SearchCapExceeded(
                                f"product search stored over {self.cap} vectors")
        return index, parents

    def _reach_keys(self, a):
        if a not in self._reach:
            direct = self._direct(a).tolist() if a <= self.top else []
            origin = {tuple(v): -1 - i for i, v in enumerate(direct)}
            for t, row in self._products[a][0].items():
                origin.setdefault(t, row)
            keys = sorted(origin)
            self._reach[a] = (np.array(keys, dtype=np.int64).reshape(len(keys), self.alg.dim(a)),
                              [origin[t] for t in keys])
        return self._reach[a][0]

    def _direct(self, d):
        """The direct inducers of degree d, one per row: passes(d) stacked."""
        if d not in self._inducers:
            self._inducers[d] = np.vstack(
                [np.zeros((0, self.alg.dim(d)), dtype=np.int64), *self.passes(d)])
        return self._inducers[d]


def induces_periodicity(alg, x: Element, cap: int = DEFAULT_SEARCH_CAP, *,
                        _span: _ProductSpan | None = None):
    """Whether x induces periodicity: a certificate, or a refusal naming why not.

    The first rule that holds gives the certificate:
    1. Direct (3k <= n-1): x passes the window test.  Nothing else is tried.
    2. Window: x passes the window test and window_gap(alg, k) is empty.
    3. Product: x is a product of direct inducers; the certificate names
       the factors.  When the product search passes cap, x is accepted if
       it is the power of a divisor's inducer that find_inducing_element
       answers there (_power_certificate), with that certificate; else
       SearchCapExceeded is raised.
    Otherwise the WindowRefusal names the first failed window condition,
    or else the first gap degree with the condition "gap".

    _span shares one product span across calls.  Raises ValueError for a
    degree outside 1..n-1, a vector of the wrong length or cap < 1.
    """
    _check_limits(cap)
    k = x.degree
    xv = _element_vector(alg, x)
    fail = _window_failure(alg, k, xv)
    if k <= direct_bound(alg.n):
        if fail is not None:
            return WindowRefusal(k, x, *fail)
        return PeriodicityCertificate(k, x, "direct")
    gap = window_gap(alg, k)
    if fail is None and not gap:
        return PeriodicityCertificate(k, x, "window")
    span = _ProductSpan(alg, cap) if _span is None else _span
    key = tuple(xv.tolist())
    try:
        products = span.span(k)
    except SearchCapExceeded:
        power = _power_certificate(span, k)
        if power is None or power.element.coeffs != key:
            raise
        return power
    if key in products:
        return PeriodicityCertificate(k, x, "product", span.factors(k, key))
    return WindowRefusal(k, x, *(fail or (gap[0], "gap")))


def _certificate(alg, k: int, v, mode: str):
    """The certificate for the degree-k window pass v; exhausted when v is None."""
    if v is None:
        return SearchVerdict(
            k, "exhausted",
            f"all {alg.p ** alg.dim(k)} degree-{k} candidates fail the window conditions")
    return PeriodicityCertificate(k, Element.of(k, v), mode)


def _power_certificate(span: _ProductSpan, k: int) -> PeriodicityCertificate | None:
    """x0^(k/b) with factors (x0, ..., x0), for b = span.divisor(k) and x0
    the generator of span.unit_test(b); None when k has no such divisor."""
    b = span.divisor(k)
    if b is None:
        return None
    x0 = span.unit_test(b).generator
    return PeriodicityCertificate(k, Element.of(k, span.power(x0, b, k // b)), "product",
                                  (Element.of(b, x0),) * (k // b))


def find_inducing_element(alg, k: int, cap: int = DEFAULT_SEARCH_CAP,
                          *, _span: _ProductSpan | None = None):
    """Search degree k for an inducing element.

    Returns a PeriodicityCertificate or a SearchVerdict with status
    "exhausted" (provably none) or "inconclusive" (capped search found
    nothing), from the first rule that answers:

    1. Unless k is direct (3k <= n-1) with p^dim(k) <= cap: the least
       degree-k product of direct inducers.
    2. Window mode (3k > n-1) with nonzero degrees no window condition
       touches: exhausted when the product search ends, _ruled_out, or k
       is no sum of product factor degrees (_product_degree), else the
       power of rule 6, else inconclusive.
    3. p^dim(k) <= cap: the least window pass in lexicographic order, from
       _ProductSpan.passes (none when the dimensions rule k out, the least
       unit where the centroid decides k), else exhausted.
    4. Past the cap: exhausted when the dimensions rule k out (_ruled_out).
    5. Direct where the centroid decides k (see _unit_test): the generator
       of _ProductSpan.unit_test(k), else exhausted.  That is x0^(k/b)
       when a least divisor b of k carries its test to k (x0 the
       generator at b), and otherwise k's own Nakayama generator when it
       passes the window test.
    6. Powers: x0^(k/b) as a product certificate with factors (x0, ...,
       x0), for the least divisor b of k that _ProductSpan.divisor finds
       and x0 the generator of its test.  A power of an inducer induces.
    7. dim A^k = 1: the first of (0) and (1) that passes the window test,
       else exhausted.  Cupping with c v has the rank of cupping with v for
       c != 0, so this is the least pass the enumeration would give.
    Otherwise inconclusive.  As with rule 5, a certificate of rule 6 past
    the cap is not the least one.

    _span shares one product span across calls (search_degrees).  Raises
    ValueError for k outside 1..n-1 or cap < 1.
    """
    _check_degree(alg, k)
    _check_limits(cap)
    space = alg.p ** alg.dim(k)
    direct = k <= direct_bound(alg.n)
    mode = "direct" if direct else "window"
    if _span is None:
        _span = _ProductSpan(alg, cap)
    if not (direct and space <= cap):
        try:
            products, complete = _span.span(k), True
        except SearchCapExceeded:
            products, complete = {}, False
        if products:
            t = min(products)
            return PeriodicityCertificate(k, Element.of(k, t), "product", _span.factors(k, t))
        gap = () if direct else window_gap(alg, k)
        if gap:
            if complete or _ruled_out(alg, k) or not _product_degree(alg, k):
                return SearchVerdict(k, "exhausted", f"no product of inducers reaches degree {k}"
                                     f" and degrees {gap} escape the window")
            return (_power_certificate(_span, k)
                    or SearchVerdict(k, "inconclusive", "product search passed the cap"))
    if space <= cap:
        return _certificate(alg, k, next((b[0] for b in _span.passes(k)), None), mode)
    if _ruled_out(alg, k):
        return _certificate(alg, k, None, mode)
    if direct and _centroid_decides(alg, k):
        test = _span.unit_test(k)
        return _certificate(alg, k, None if test is None else test.generator, mode)
    power = _power_certificate(_span, k)
    if power is not None:
        return power
    if alg.dim(k) == 1:
        least = next((v for v in ([0], [1]) if _window_failure(alg, k, np.array(v)) is None), None)
        return _certificate(alg, k, least, mode)
    return SearchVerdict(k, "inconclusive", f"{space} candidates exceed cap {cap};"
                         " no product or power of inducers found")


def search_degrees(alg, degrees, cap: int = DEFAULT_SEARCH_CAP) -> dict:
    """find_inducing_element for each degree, all sharing one product span."""
    _check_limits(cap)
    span = _ProductSpan(alg, cap)
    return {k: find_inducing_element(alg, k, cap=cap, _span=span) for k in degrees}


def minimum_period(alg, cap: int = DEFAULT_SEARCH_CAP, *, seed=None) -> MinimumPeriodReport:
    """Scan every degree for inducing elements and report the least period.

    All degrees 1..n-1 are scanned so the report also carries every other
    period found; when 3 * period <= n - 2 each of those must be a multiple
    of the minimum, and ConsistencyFailure is raised when one is not.
    seed is ignored: the search draws nothing at random, and the keyword is
    accepted only so that callers which still pass it keep running.
    """
    n = alg.n
    found = search_degrees(alg, range(1, n), cap=cap)
    periods = [k for k, out in found.items() if isinstance(out, PeriodicityCertificate)]
    inconclusive = [k for k, out in found.items()
                    if isinstance(out, SearchVerdict) and out.status == "inconclusive"]
    period = periods[0] if periods else None
    certificate = found[period] if periods else None
    checked = period is not None and 3 * period <= n - 2
    if checked:
        for k in periods:
            if k % period:
                raise ConsistencyFailure(
                    f"period {k} is not a multiple of the minimum {period}")
    return MinimumPeriodReport(period, certificate, tuple(periods),
                               tuple(inconclusive), checked)


class SubquotientAlgebra(GradedAlgebra):
    """Degrees 1..n-1 of a parent algebra, collapsed along an inducing element.

    A graded algebra with top degree n whose degrees 0 and n are zero.
    Window degree 1 is the coordinate section complementing the kernel of
    multiplication by the element, degree n-1 is the image of that
    multiplication from degree n-1-k, and every other window degree is the
    full parent degree.  Products and shift maps are stored in window
    coordinates; cupping with the element is a recorded bijection from each
    window degree i <= n-k-1 onto window degree i+k.

    nonzero_degrees lists the window degrees of positive dimension, and the
    per-degree loops of the window pipeline (subquotient, ring_action,
    induced_action_on_window and the decomposition module) read it.  A
    degree is skipped only where its check is vacuous: it has no source
    vector, or no target coordinate at the level the check reads (the
    window's, or the parent's for a check on parent vectors).  An empty
    degree keeps its entry in every returned dict, shared and read-only:
    (0, 0) int64 shift maps and operator blocks, (dim k, 0, 0) ring-action
    stacks that agree, and Subspace.zero(p, 0) image spaces.
    """

    def __init__(self, parent, certificate, spaces, shifts, shift_invs, mult, degree1_kernel):
        n = parent.n
        super().__init__(parent.p, n, [0] + [spaces[i].dim for i in range(1, n)] + [0], mult)
        self.nonzero_degrees = tuple(i for i in range(1, n) if self.dims[i])
        self.parent = parent
        self.certificate = certificate
        self.k = certificate.k
        self.spaces = spaces
        self.shifts = shifts
        self.shift_invs = shift_invs
        self.degree1_kernel = degree1_kernel
        self.action = None
        if parent.dim(1):
            stacked = np.vstack([spaces[1].basis, degree1_kernel.basis])
            self._deg1_proj = fplin.mat_inv(stacked.T, self.p)[:spaces[1].dim]
        else:
            self._deg1_proj = np.zeros((0, 0), dtype=np.int64)

    def embed(self, i: int, vec) -> np.ndarray:
        """Parent coordinates of a window vector."""
        v = fplin.as_vector(vec, self.p)
        return (v @ self.spaces[i].basis) % self.p

    def to_window(self, i: int, vec) -> np.ndarray:
        """Window coordinates of a parent vector.

        Degree 1 projects along the kernel; elsewhere the vector must lie in
        the window space (ValueError otherwise).
        """
        v = fplin.as_vector(vec, self.p)
        if i == 1 and self.n - 1 != 1:
            return (self._deg1_proj @ v) % self.p
        return self.spaces[i].coords_of(v)

    def shift(self, i: int, vec) -> np.ndarray:
        return (self.shifts[i] @ fplin.as_vector(vec, self.p)) % self.p

    def unshift(self, i: int, vec) -> np.ndarray:
        """Preimage in window degree i of a window degree-(i+k) vector."""
        return (self.shift_invs[i] @ fplin.as_vector(vec, self.p)) % self.p

    def window_dims(self) -> tuple[int, ...]:
        return self.dims[1:self.n]

    @_computed_once
    def ring_action(self) -> dict:
        """The degree-k basis's action on each window degree u, as
        (low, high, agree): low[a] is v -> unshift(e_a v) for u <= n-1-k,
        high[a] is v -> e_a unshift(v) for u >= 1+k, each a
        (dim k, dim u, dim u) stack or None outside its range, and agree
        says the two readings coincide on every e_a.  An empty degree holds
        one shared read-only (dim k, 0, 0) stack in each reading of its
        range, and agree is True.  Computed once per window; an element's
        action is the contraction of its coordinates with a stack."""
        k, n, p = self.k, self.n, self.p
        onto, into = window_ranges(n, k)
        reads = {u: (onto.start <= u < into.stop, onto.start <= u - k < into.stop)
                 for u in range(1, n)}
        empty = np.zeros((self.dim(k), 0, 0), dtype=np.int64)
        empty.setflags(write=False)
        out = {u: (empty if low else None, empty if high else None, True)
               for u, (low, high) in reads.items()}
        for u in self.nonzero_degrees:
            in_low, in_high = reads[u]
            low = high = None
            if in_low:
                low = (self.shift_invs[u] @ self.mult3(k, u).transpose(1, 0, 2)) % p
            if in_high:
                high = (self.mult3(k, u - k).transpose(1, 0, 2) @ self.shift_invs[u - k]) % p
            out[u] = (low, high, low is None or high is None or np.array_equal(low, high))
        return out

    @_computed_once
    def degree_stacks(self) -> tuple:
        """ring_action and the degree-k cup tables with the nonzero degrees
        u on a leading axis, each padded with zeros to the largest window
        dimension c, as (action, cups): action[d] is the (dim k, c, c)
        ring_action stack of u, read low where u has that reading and high
        elsewhere (zero where it has neither), and cups[d] the (c, dim k, c)
        table mult3(k, u) into degree u + k, zero where u + k is empty.
        Computed once per window.  A padded coordinate is zero in every
        vector and every image, so the unpadded corner of each product is
        the unpadded product."""
        k, c = self.k, max(self.window_dims(), default=0)
        degrees, dk = self.nonzero_degrees, self.dim(k)
        action = np.zeros((len(degrees), dk, c, c), dtype=np.int64)
        cups = np.zeros((len(degrees), c, dk, c), dtype=np.int64)
        for d, u in enumerate(degrees):
            low, high, _ = self.ring_action[u]
            if low is not None or high is not None:
                action[d, :, :self.dim(u), :self.dim(u)] = high if low is None else low
            if self.dim(u + k):
                cups[d, :self.dim(u + k), :, :self.dim(u)] = self.mult3(k, u)
        return action, cups

    @_computed_once
    def ring_idempotents(self) -> tuple:
        """fplin.primitive_idempotents of the degree-k ring, as its
        multiplication matrices (the degree-k slice of ring_action): the
        fixed subalgebra, the idempotents and the splits.  Computed once
        per window; what it raises is raised again on every read."""
        return fplin.primitive_idempotents(self.ring_action[self.k][0], self.p)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "k": self.k,
            "dims": list(self.window_dims()),
            "spaces": {i: s.basis.tolist() for i, s in sorted(self.spaces.items())},
            "shifts": {i: m.tolist() for i, m in sorted(self.shifts.items())},
            "mult": {f"{i},{j}": m.tolist() for (i, j), m in sorted(self.mult.items())},
        }

    def __repr__(self) -> str:
        return (f"SubquotientAlgebra(p={self.p}, n={self.n}, k={self.k}, "
                f"dims={list(self.window_dims())})")


def subquotient(alg, cert: PeriodicityCertificate, action=None) -> SubquotientAlgebra:
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
    onto, into = window_ranges(n, k)
    xv = cert.element.as_vector() % p
    # A zero parent degree 1 (n-1) has a zero kernel (image) in it.
    ker1 = (fplin.kernel(alg.cup_matrix(k, xv, 1), p) if alg.dim(1)
            else fplin.Subspace.zero(p, 0))
    spaces = {}
    for i in range(1, n):
        if i == n - 1:
            spaces[i] = (fplin.image(alg.cup_matrix(k, xv, into.stop - 1), p) if alg.dim(i)
                         else fplin.Subspace.zero(p, 0))
        elif i == 1:
            spaces[i] = ker1.coordinate_complement()
        else:
            spaces[i] = fplin.Subspace.full(p, alg.dim(i))
    nonzero = tuple(i for i in range(1, n) if spaces[i].dim)
    # u lies in parent degree 1, and window degrees 2..n-2 are the parent's
    for u in ker1.basis:
        for j in sorted({1, *nonzero} - {n - 1}):
            if alg.cup_matrix(1, u, j).any():
                raise WellDefinednessFailure(
                    f"a degree-1 kernel class has a nonzero product into degree {1 + j}")
    # Row a * dim(j) + b of products[(i, j)] is the parent product of the
    # a-th and b-th window basis vectors.  Window degrees 2..n-2 are full,
    # so only products landing in degree n-1 can leave the window.
    products = {(i, j): _block_products(alg.mult3(i, j), spaces[i].basis, spaces[j].basis, p)
                for i in range(1, n - 1) for j in range(1, n - i)
                if spaces[i].dim and spaces[j].dim}
    top = spaces[n - 1]
    for (i, j), prods in products.items():
        if i + j == n - 1 and not np.array_equal(
                (prods[:, list(top.pivots)] @ top.basis) % p, prods):
            raise WellDefinednessFailure(
                "a product in the top window degree escapes the image "
                "of the inducing element")
    shifts, shift_invs = {}, {}
    for i in range(onto.start, into.stop):
        src, tgt = spaces[i], spaces[i + k]
        if src.dim != tgt.dim:
            raise WellDefinednessFailure(
                f"window dimensions differ across the shift at degree {i}")
        if i not in nonzero:
            shifts[i] = shift_invs[i] = EMPTY_BLOCK
            continue
        try:
            m = fplin.restricted_matrix(alg.cup_matrix(k, xv, i), src, tgt)
        except ValueError as exc:
            raise WellDefinednessFailure(
                f"multiplication image escapes the window at degree {i}: {exc}")
        try:
            shift_invs[i] = fplin.mat_inv(m, p)
        except fplin.NotInvertible:
            raise WellDefinednessFailure(f"shift map at degree {i} is not bijective")
        shifts[i] = m
    mult = {}
    for (i, j), prods in products.items():
        table = prods[:, list(spaces[i + j].pivots)].T.copy()
        if table.any():
            mult[(i, j)] = table
    window = SubquotientAlgebra(alg, cert, spaces, shifts, shift_invs, mult, ker1)
    if action is not None and p * k <= n - 1:
        window.action = steenrod.induced_action_on_window(window, action)
    return window


def element_induces(alg, k: int, vec, cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """Whether the degree-k vector vec induces periodicity (induces_periodicity).

    Raises ValueError for k outside 1..n-1, a vector of the wrong length or
    cap < 1.
    """
    return isinstance(induces_periodicity(alg, Element.of(k, vec), cap), PeriodicityCertificate)


@dataclass(frozen=True)
class IrreducibilityReport:
    irreducible: bool
    witness: tuple[Element, Element] | None


def is_irreducible(window, x: Element, cap: int = DEFAULT_SEARCH_CAP) -> IrreducibilityReport:
    """True when every splitting x = a + b keeps an inducing summand.

    Exhausts all decompositions of x inside the window's degree-k space; on
    failure the witness pair is the lexicographically first counterexample.
    Raises ValueError for a degree outside 1..n-1, a vector of the wrong
    length or cap < 1.
    """
    _check_limits(cap)
    k = x.degree
    xv = _element_vector(window, x)
    dk = window.dim(k)
    if window.p ** dk > cap:
        raise SearchCapExceeded(f"{window.p ** dk} decompositions exceed cap {cap}")
    span = _ProductSpan(window, cap)
    memo: dict[tuple, bool] = {}

    def induces(v):
        t = tuple(v.tolist())
        if t not in memo:
            memo[t] = isinstance(induces_periodicity(window, Element(k, t), cap, _span=span),
                                 PeriodicityCertificate)
        return memo[t]

    for a in fplin.enumerate_vectors(dk, window.p):
        b = (xv - a) % window.p
        if not induces(a) and not induces(b):
            return IrreducibilityReport(False, (Element.of(k, a), Element.of(k, b)))
    return IrreducibilityReport(True, None)


@dataclass(frozen=True)
class ClosureViolation:
    left: Element
    right: Element
    total: Element


def nonperiodic_subspace(window, k: int, cap: int = DEFAULT_SEARCH_CAP):
    """The set of degree-k non-inducing vectors, as a Subspace when it is one.

    Returns a ClosureViolation naming the first pair whose sum escapes the
    set otherwise.  Raises ValueError for cap < 1.
    """
    _check_limits(cap)
    p = window.p
    dk = window.dim(k)
    if p ** dk > cap:
        raise SearchCapExceeded(f"{p ** dk} candidates exceed cap {cap}")
    span = _ProductSpan(window, cap)
    bad = [v for v in fplin.enumerate_vectors(dk, p)
           if not isinstance(induces_periodicity(window, Element.of(k, v), cap, _span=span),
                             PeriodicityCertificate)]
    if len(bad) <= 1:
        return fplin.Subspace.zero(p, dk)
    keys = {tuple(int(c) for c in v) for v in bad}
    for a in bad:
        for b in bad:
            s = (a + b) % p
            if tuple(int(c) for c in s) not in keys:
                return ClosureViolation(Element.of(k, a), Element.of(k, b),
                                        Element.of(k, s))
    space = fplin.Subspace.from_vectors(bad, p, dk)
    if p ** space.dim != len(bad):
        raise ConsistencyFailure(
            f"{len(bad)} additively closed vectors span a space of dimension {space.dim}")
    return space


@dataclass(frozen=True)
class PowerIndexReport:
    element: Element
    value: int | None

    @property
    def defined(self) -> bool:
        return self.value is not None


def inducing_power_index(window, y: Element, cap: int = DEFAULT_SEARCH_CAP) -> PowerIndexReport:
    """Least s for which the s-th Steenrod power of y induces periodicity.

    Scans s = 0, 1, ... while the image degree stays inside the window;
    undefined (value None) when no power in range induces.  Raises
    ValueError for a degree outside 1..n-1, a vector of the wrong length or
    cap < 1.
    """
    _check_limits(cap)
    yv = _element_vector(window, y)
    act = window.action
    if act is None:
        raise ValueError("window has no attached Steenrod structure")
    for s in (0, *steenrod.operations(window.p, y.degree, window.n - 1)):
        img = act.apply(s, y.degree, yv)
        if element_induces(window, y.degree + steenrod.operation_shift(window.p, s), img, cap):
            return PowerIndexReport(y, s)
    return PowerIndexReport(y, None)


@dataclass(frozen=True)
class AdditivityReport:
    product: Element
    product_value: int | None
    left_value: int | None
    right_value: int | None
    hypotheses: tuple[str, ...]
    consistent: bool


def check_power_index_additivity(window, y: Element, z: Element,
                                 cap: int = DEFAULT_SEARCH_CAP) -> AdditivityReport:
    """Check that power indices add along the product yz.

    Applies when the index of yz is defined, or when both factor indices are
    defined and the shifted factor degrees still fit in the window; raises
    HypothesisNotMet otherwise, and ValueError for cap < 1.
    """
    _check_limits(cap)
    p, n = window.p, window.n
    if y.degree + z.degree > n - 1:
        raise HypothesisNotMet("the product degree leaves the window")
    xv = window.cup(y.degree, y.as_vector(), z.degree, z.as_vector())
    x = Element.of(y.degree + z.degree, xv)
    ix = inducing_power_index(window, x, cap)
    iy = inducing_power_index(window, y, cap)
    iz = inducing_power_index(window, z, cap)
    hyps = []
    if ix.value is not None:
        hyps.append("product-index-defined")
    if iy.value is not None and iz.value is not None:
        shifted = (y.degree + steenrod.operation_shift(p, iy.value)
                   + z.degree + steenrod.operation_shift(p, iz.value))
        if shifted <= n - 1:
            hyps.append("factor-indices-defined")
    if not hyps:
        raise HypothesisNotMet("no degree hypothesis holds for this pair")
    consistent = (ix.value is not None and iy.value is not None
                  and iz.value is not None and ix.value == iy.value + iz.value)
    return AdditivityReport(x, ix.value, iy.value, iz.value, tuple(hyps), consistent)


@dataclass(frozen=True)
class ProductsFactorsReport:
    product_induces: bool
    left_induces: bool
    right_induces: bool
    consistent: bool


def check_products_factors(window, y: Element, z: Element,
                           cap: int = DEFAULT_SEARCH_CAP) -> ProductsFactorsReport:
    """Check that yz induces periodicity exactly when y and z both do.

    Raises ValueError for cap < 1.
    """
    _check_limits(cap)
    if y.degree + z.degree > window.n - 1:
        raise ValueError("the product degree leaves the window")
    pv = window.cup(y.degree, y.as_vector(), z.degree, z.as_vector())
    pi = element_induces(window, y.degree + z.degree, pv, cap)
    yi = element_induces(window, y.degree, y.as_vector(), cap)
    zi = element_induces(window, z.degree, z.as_vector(), cap)
    return ProductsFactorsReport(pi, yi, zi, pi == (yi and zi))


@dataclass(frozen=True)
class PreimageReport:
    operation: int
    image_induces: bool
    element_induces: bool
    consistent: bool


def check_steenrod_preimage(window, y: Element, s: int,
                            cap: int = DEFAULT_SEARCH_CAP) -> PreimageReport:
    """At p = 2: if the s-th square of y induces periodicity then y must too.

    Raises ValueError for s < 0, a degree outside 1..n-1, a vector of the
    wrong length or cap < 1.
    """
    _check_limits(cap)
    if window.p != 2:
        raise ValueError("the preimage check is implemented for p = 2 only")
    if s < 0:
        raise ValueError(f"the operation index must be at least 0, got {s}")
    yv = _element_vector(window, y)
    act = window.action
    if act is None:
        raise ValueError("window has no attached Steenrod structure")
    t = y.degree + s
    img_ind = (t <= window.n - 1
               and element_induces(window, t, act.apply(s, y.degree, yv), cap))
    y_ind = element_induces(window, y.degree, yv, cap)
    return PreimageReport(s, img_ind, y_ind, (not img_ind) or y_ind)


@dataclass(frozen=True)
class FormVerdict:
    conformant: bool
    p: int
    k: int
    lam: int | None
    alpha: int | None
    conditions: tuple[str, ...]
    description: str


def check_minimum_period_form(p: int, k: int, n: int, irreducible: bool = False,
                              window_dim: int | None = None) -> FormVerdict:
    """Arithmetic form a minimum period must take.

    p = 2: a power of 2.  Odd p: 1, or 2*lam*p^alpha; the extra requirement
    that lam divides p-1 is asserted when 2(p-1)k <= n-1 holds or, for an
    irreducible window, when its degree-k dimension is 1 (at p = 3 both
    readings agree since lam <= 2).  Raises UnsupportedModulus, a
    ValueError, unless p is a supported prime, and ValueError for k < 1.
    """
    fplin.check_modulus(p)
    if k < 1:
        raise ValueError("periods are positive")
    if p == 2:
        a = k.bit_length() - 1
        if (1 << a) == k:
            return FormVerdict(True, p, k, None, a, (), f"{k} = 2^{a}")
        return FormVerdict(False, p, k, None, None, (), f"{k} is not a power of 2")
    if k == 1:
        return FormVerdict(True, p, k, None, None, (), "trivial period 1")
    alpha, m = 0, k
    while m % p == 0:
        m //= p
        alpha += 1
    conditions = []
    if 2 * (p - 1) * k <= n - 1:
        conditions.append("degree-bound")
    if irreducible and window_dim == 1:
        conditions.append("one-dimensional-window")
    base = f"2*lam*{p}^{alpha} with lam <= {p - 1}"
    if m % 2:
        return FormVerdict(False, p, k, None, None, tuple(conditions),
                           f"{k} does not have the form {base}")
    lam = m // 2
    ok = 1 <= lam <= p - 1
    if ok and (p == 3 or conditions):
        ok = (p - 1) % lam == 0
    desc = f"{k} = 2*{lam}*{p}^{alpha}" if ok else f"{k} does not have the form {base}"
    return FormVerdict(ok, p, k, lam if ok else None, alpha if ok else None,
                       tuple(conditions), desc)


@dataclass(frozen=True)
class CombinedPeriodVerdict:
    period: int | None
    hypothesis_met: bool
    missing: tuple[str, ...]


def combine_periods(k: int, h1_vanishes_mod2: bool, h1_vanishes_mod3: bool) -> CombinedPeriodVerdict:
    """Rational period gcd(4, k) implied by an integral period k.

    Needs the degree-1 groups mod 2 and mod 3 to vanish; without both flags
    the verdict records the missing hypotheses instead of a period.
    Raises ValueError for k < 1.
    """
    if k < 1:
        raise ValueError("periods are positive")
    missing = []
    if not h1_vanishes_mod2:
        missing.append("degree-1 group mod 2 must vanish")
    if not h1_vanishes_mod3:
        missing.append("degree-1 group mod 3 must vanish")
    if missing:
        return CombinedPeriodVerdict(None, False, tuple(missing))
    return CombinedPeriodVerdict(math.gcd(4, k), True, ())
