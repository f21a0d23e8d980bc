"""Splitting a collapsed window into irreducibly periodic summands.

The degree-k slice R of a window is a finite commutative ring: multiply two
elements, then shift the product back down; the certified element is its
unit.  Each ring element acts on the whole window by a degree-preserving
operator (cup, then unshift).  Because p is prime, Frobenius a -> a^p is
linear on R, and its fixed subalgebra B = ker(Frobenius - id) is a product
of copies of GF(p), one per local factor of R (Berlekamp 1967; Ronyai,
J. Symb. Comput. 1990).  The summands are the primitive idempotents of B
and the images of their operators.  They are found by linear algebra and
root finding, polynomial in dim R and log p, never by enumerating R.
Every split lands in a replayable trace.
"""

from dataclasses import dataclass

import numpy as np

from . import fplin
from .algebra import Element, _as_int
from .fplin import Subspace
from .periodicity import EMPTY_BLOCK, SubquotientAlgebra, direct_bound, window_ranges


class OverlapMismatch(RuntimeError):
    """The two defining formulas for the action disagree on an overlap degree."""


class VerificationFailure(RuntimeError):
    """An internal re-check failed; valid inputs must never trigger this."""


@dataclass(eq=False)
class MultOperator:
    """Degree-preserving action of a degree-k window element.

    blocks[u] is the square matrix on window degree u sending v to the
    unshift of (element cup v); EMPTY_BLOCK on an empty degree.
    """
    element: Element
    blocks: dict


def _vector_of(window, a, expected_degree=None):
    if isinstance(a, Element):
        if expected_degree is not None and a.degree != expected_degree:
            raise ValueError(f"element has degree {a.degree}, need {expected_degree}")
        return a.as_vector()
    return fplin.as_vector(a, window.p)


def _check_action(window: SubquotientAlgebra) -> None:
    if window.k > direct_bound(window.n):
        raise ValueError("the action needs 3k <= n-1")


def multiplication_operator(window: SubquotientAlgebra, a) -> MultOperator:
    """Assemble the degree-preserving operator of a degree-k element.

    Low degrees unshift after cupping, high degrees cup after unshifting;
    the overlap 1+k..n-1-k must agree under both readings.  Each block
    contracts the element with the window's ring_action.
    """
    k, n = window.k, window.n
    _check_action(window)
    av = _vector_of(window, a, k)
    xv = fplin.as_vector(av, window.p)
    if xv.shape[0] != window.dim(k):
        raise ValueError("vector length does not match degree dimension")
    blocks = dict.fromkeys(range(1, n), EMPTY_BLOCK)
    blocks.update((u, _action_block(window, xv, u)) for u in window.nonzero_degrees)
    return MultOperator(Element.of(k, av), blocks)


def _action_block(window: SubquotientAlgebra, av, u: int) -> np.ndarray:
    """Matrix of v -> unshift(a cup v) on window degree u, for a degree-k
    vector a; in degree k it is multiplication by a on the degree-k ring.
    Where the basis's two readings disagree, a's own readings are compared."""
    p = window.p
    low, high, agree = window.ring_action[u]
    block = np.einsum("a,auv->uv", av, low if low is not None else high) % p
    if not agree and not np.array_equal(block, np.einsum("a,auv->uv", av, high) % p):
        raise OverlapMismatch(f"action formulas disagree in degree {u}")
    return block


def _basis_operators(window: SubquotientAlgebra) -> dict:
    """Per window degree u, the operator blocks of the degree-k basis
    elements as one (dim k, dim u, dim u) stack: slices of ring_action.
    Raises as multiplication_operator would on some basis element."""
    k, n = window.k, window.n
    if not window.dim(k):
        return {u: np.zeros((0, window.dim(u), window.dim(u)), dtype=np.int64)
                for u in range(1, n)}
    _check_action(window)
    stacks = {}
    for u in range(1, n):
        low, high, agree = window.ring_action[u]
        if not agree:
            raise OverlapMismatch(f"action formulas disagree in degree {u}")
        stacks[u] = low if low is not None else high
    return stacks


def ring_product(window: SubquotientAlgebra, a, b) -> np.ndarray:
    """Product of two degree-k window elements, shifted back to degree k."""
    k = window.k
    av = _vector_of(window, a, k)
    bv = _vector_of(window, b, k)
    return window.unshift(k, window.cup(k, av, k, bv))


def ring_power(window: SubquotientAlgebra, a, e: int) -> np.ndarray:
    """a^e in the degree-k ring; ValueError for an exponent that is not a
    positive int (a bool, float or str included)."""
    e = _as_int(e, "the exponent")
    if e < 1:
        raise ValueError("exponent must be positive")
    base = _vector_of(window, a, window.k)
    result = None
    while e:
        if e & 1:
            result = base.copy() if result is None else ring_product(window, result, base)
        e >>= 1
        if e:
            base = ring_product(window, base, base)
    return result


def check_ring_homomorphism(window: SubquotientAlgebra, a, b) -> bool:
    """Composition of actions matches the action of the ring product, and
    evaluating an action on the certified element recovers the acting
    element (so distinct elements act distinctly)."""
    k = window.k
    av = _vector_of(window, a, k)
    bv = _vector_of(window, b, k)
    op_a = multiplication_operator(window, av)
    op_b = multiplication_operator(window, bv)
    op_ab = multiplication_operator(window, ring_product(window, av, bv))
    for u in range(1, window.n):
        composed = (op_a.blocks[u] @ op_b.blocks[u]) % window.p
        if not np.array_equal(composed, op_ab.blocks[u]):
            return False
    xv = window.to_window(k, window.certificate.element.as_vector())
    for v, op in ((av, op_a), (bv, op_b)):
        if not np.array_equal((op.blocks[k] @ xv) % window.p, v):
            return False
    return True


def _key(v) -> tuple:
    return tuple(int(t) for t in v)


def _unit(window) -> np.ndarray:
    return window.to_window(window.k, window.certificate.element.as_vector())


def primitive_idempotents(window: SubquotientAlgebra) -> tuple[list, list]:
    """The primitive idempotents of the degree-k ring, sorted by coefficients,
    and the splits that found them, as (e, b, parts).

    fplin.primitive_idempotents on the ring's multiplication matrices, the
    degree-k slice of ring_action; coordinates in that basis are window
    vectors.
    """
    low = window.ring_action[window.k][0]
    _, idempotents, splits = fplin.primitive_idempotents(low, window.p)
    return idempotents, splits


@dataclass(eq=False)
class Summand:
    element: Element
    spaces: dict

    def degree_dims(self) -> dict:
        return {u: s.dim for u, s in sorted(self.spaces.items())}

    def to_dict(self) -> dict:
        return {
            "element": {"degree": self.element.degree,
                        "coeffs": list(self.element.coeffs)},
            "spaces": {str(u): s.basis.tolist() for u, s in sorted(self.spaces.items())},
        }


@dataclass(eq=False)
class SplitRecord:
    """One idempotent split by one separator of the Frobenius-fixed subalgebra.

    replacements are the nonzero split_element * [separator = c], in
    ascending order of c, and sum to split_element; part_dims holds one row
    (u, dim of each part's image in window degree u) per degree.
    """
    split_element: Element
    separator: Element
    replacements: tuple
    part_dims: tuple

    def to_dict(self) -> dict:
        def elt(e):
            return {"degree": e.degree, "coeffs": list(e.coeffs)}
        return {
            "split_element": elt(self.split_element),
            "separator": elt(self.separator),
            "replacements": [elt(e) for e in self.replacements],
            "part_dims": [list(row) for row in self.part_dims],
        }


@dataclass(eq=False)
class DecompositionResult:
    summands: list
    trace: list

    @property
    def summand_count(self) -> int:
        return len(self.summands)

    def to_dict(self) -> dict:
        return {
            "summand_count": self.summand_count,
            "summands": [s.to_dict() for s in self.summands],
            "trace": [r.to_dict() for r in self.trace],
        }


def _image_spaces(window, e) -> dict:
    """The image of e's operator in every window degree."""
    op = multiplication_operator(window, e)
    spaces = dict.fromkeys(range(1, window.n), Subspace.zero(window.p, 0))
    spaces.update((u, fplin.image(op.blocks[u], window.p)) for u in window.nonzero_degrees)
    return spaces


def decompose(window: SubquotientAlgebra) -> DecompositionResult:
    """Split the window into irreducibly periodic summands.

    Needs a direct certificate.  Returns one summand per primitive
    idempotent e of the degree-k ring, in ascending order of e's
    coefficients: e itself, and the image of its operator in each window
    degree.  The trace holds every split.  The result goes through
    verify_decomposition once before it is returned and any violation
    raises VerificationFailure, so a returned decomposition always
    satisfies the direct-sum, action and irreducibility conclusions and
    need not be verified again.
    """
    cert = window.certificate
    k, n = window.k, window.n
    if cert.mode != "direct" or k > direct_bound(n):
        raise ValueError("decomposition needs a direct certificate with 3k <= n-1")
    if window.total_dim == 0:
        return DecompositionResult([], [])
    finals, splits = primitive_idempotents(window)
    summands = [Summand(Element.of(k, f), _image_spaces(window, f)) for f in finals]

    def dims(q):
        # q is the sum of the primitive idempotents f with q * f = f, so its
        # image is the direct sum of theirs.
        times_q = _action_block(window, q, k)
        below = [s for s, f in zip(summands, finals)
                 if np.array_equal((times_q @ f) % window.p, f)]
        return [sum(s.spaces[u].dim for s in below) if u in window.nonzero_degrees else 0
                for u in range(1, n)]

    trace = [SplitRecord(split_element=Element.of(k, e),
                         separator=Element.of(k, b),
                         replacements=tuple(Element.of(k, q) for q in parts),
                         part_dims=tuple(zip(range(1, n), *map(dims, parts))))
             for e, b, parts in splits]
    result = DecompositionResult(summands, trace)
    report = verify_decomposition(window, result)
    if not report.ok:
        raise VerificationFailure("; ".join(report.violations))
    return result


@dataclass(frozen=True)
class DecompositionReport:
    ok: bool
    violations: tuple


def _local_factor_count(window, operators, spaces) -> int:
    """Number of local factors of the algebra A the given operators span on
    the summand, as block-diagonal matrices over its nonzero degrees: 1
    exactly when A is local, 0 when the summand is zero.  operators[u]
    stacks the operators' blocks on degree u, and each degree is one
    restricted solve for all of them.

    ValueError when an operator does not map the summand into itself or A
    is not closed under products.
    """
    p = window.p
    degrees = [u for u, s in sorted(spaces.items()) if s.dim]
    if not degrees:
        return 0
    ends = np.cumsum([spaces[u].dim for u in degrees])
    size = int(ends[-1])
    count = window.dim(window.k)
    blocks = np.zeros((count, size, size), dtype=np.int64)
    for u, end in zip(degrees, ends):
        at = end - spaces[u].dim
        blocks[:, at:end, at:end] = fplin.restricted_matrix(operators[u], spaces[u], spaces[u])
    algebra = Subspace.from_vectors(blocks.reshape(count, size * size), p, size * size)
    return fplin.primitive_idempotents(algebra.basis.reshape(-1, size, size), p)[0].dim


def verify_decomposition(window: SubquotientAlgebra,
                         result: DecompositionResult) -> DecompositionReport:
    """Check a decomposition from scratch: degreewise direct sum, each
    element a degree-k window vector inducing on its own summand and
    annihilating the rest, and each summand local: the algebra the degree-k
    ring induces on it, as block-diagonal restricted operators, has one
    primitive idempotent (fplin.primitive_idempotents).  A summand that is
    not local is reported with a pair (e, unit - e) of idempotents that both
    act on it nontrivially.  Violations come back as report data."""
    k, n, p = window.k, window.n, window.p
    onto, into = window_ranges(n, k)
    nonzero = window.nonzero_degrees
    violations = []
    summands = result.summands
    if not summands:
        if window.total_dim:
            violations.append("empty decomposition of a nonzero window")
        return DecompositionReport(not violations, tuple(violations))
    for u in range(1, n):
        parts = []
        for i, s in enumerate(summands):
            space = s.spaces.get(u)
            if space is None or space.ambient != window.dim(u):
                violations.append(f"summand {i} carries no subspace of degree {u}")
                return DecompositionReport(False, tuple(violations))
            parts.append(space)
        if u in nonzero and not fplin.direct_sum_check(parts, Subspace.full(p, window.dim(u)),
                                                       full=True):
            violations.append(f"summands do not direct-sum to degree {u}")
    # Every summand's basis in nonzero degree u, stacked; summand j holds
    # rows starts[u][j]:starts[u][j + 1].
    stacked = {u: np.vstack([s.spaces[u].basis for s in summands]) for u in nonzero}
    starts = {u: np.cumsum([0] + [s.spaces[u].dim for s in summands]) for u in nonzero}
    for i, s in enumerate(summands):
        if s.element.degree != k:
            violations.append(f"summand {i} element has degree {s.element.degree}")
            continue
        if len(s.element.coeffs) != window.dim(k):
            violations.append(f"summand {i} element has {len(s.element.coeffs)} "
                              f"coordinates, need {window.dim(k)}")
            continue
        try:
            xiv = s.element.as_vector()
        except ValueError:
            violations.append(f"summand {i} element has a non-integer coefficient")
            continue
        for u in nonzero:
            if u + k in nonzero:
                cupm = window.cup_matrix(k, xiv, u)
                hit = ((cupm @ stacked[u].T) % p).any(axis=0)
                hit[starts[u][i]:starts[u][i + 1]] = False
                if hit.any():
                    for j in range(len(summands)):
                        if hit[starts[u][j]:starts[u][j + 1]].any():
                            violations.append(f"summand {i} element does not annihilate "
                                              f"summand {j} in degree {u}")
            if onto.start <= u < into.stop and s.spaces[u].dim:
                target = s.spaces[u + k]
                if s.spaces[u].dim != target.dim:
                    violations.append(
                        f"summand {i} degrees {u} and {u + k} have unequal dimension")
                    continue
                # target is nonzero, so degree u + k is too and cupm is this degree's
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
        operators = _basis_operators(window)
    except (ValueError, OverlapMismatch):
        violations.append("the window does not support the degree-k action")
        return DecompositionReport(False, tuple(violations))
    idempotents = None
    for i, s in enumerate(summands):
        if s.element.degree != k:
            continue
        try:
            local = _local_factor_count(window, operators, s.spaces)
        except ValueError:
            violations.append(f"summand {i} does not support the degree-k action")
            continue
        if local == 0:
            violations.append(f"summand {i} is zero")
        elif local > 1:
            if idempotents is None:
                idempotents = primitive_idempotents(window)[0]
            violations.append(f"summand {i} splits further" + _split_witness(
                window, idempotents, s.spaces))
    return DecompositionReport(not violations, tuple(violations))


def _split_witness(window, idempotents, spaces) -> str:
    """" at a/b" for the first primitive idempotent a that acts on the
    summand as neither zero nor the identity, and b = unit - a."""
    p = window.p
    total = sum(s.dim for s in spaces.values())
    for e in idempotents:
        op = multiplication_operator(window, e)
        r = sum(fplin.rank((op.blocks[u] @ spaces[u].basis.T) % p, p)
                for u in window.nonzero_degrees if spaces[u].dim)
        if 0 < r < total:
            return f" at {_key(e)}/{_key((_unit(window) - e) % p)}"
    return ""
