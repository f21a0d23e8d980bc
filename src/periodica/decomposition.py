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
    for u, (_, _, agree) in window.ring_action.items():
        if not agree:
            raise OverlapMismatch(f"action formulas disagree in degree {u}")
    return {u: high if low is None else low for u, (low, high, _) in window.ring_action.items()}


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


def _key(v) -> tuple:
    return tuple(int(t) for t in v)


def _unit(window) -> np.ndarray:
    return window.to_window(window.k, window.certificate.element.as_vector())


def primitive_idempotents(window: SubquotientAlgebra) -> tuple[list, list]:
    """The primitive idempotents of the degree-k ring, sorted by coefficients,
    and the splits that found them, as (e, b, parts): window.ring_idempotents,
    computed once per window; coordinates there are window vectors."""
    return window.ring_idempotents[1:]


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


def _stack(summands, u: int) -> tuple:
    """The summands' degree-u bases stacked, and each row's summand and pivot."""
    spaces = [s.spaces[u] for s in summands]
    return (np.concatenate([s.basis for s in spaces]),
            np.repeat(np.arange(len(spaces)), [s.dim for s in spaces]),
            np.array([c for s in spaces for c in s.pivots], dtype=np.int64))


def _block_coords(images, same: np.ndarray, target: tuple, p: int) -> tuple:
    """Coordinates [..., t, q] of images[..., t, :], the image of stacked row
    t, read at the pivots of target = _stack(...) rows q with same[t, q] (row
    t's own summand); and per row t whether its image leaves that summand."""
    basis, _, pivots = target
    coords = images[..., pivots] * same
    return coords, ((coords @ basis) % p != images).any(axis=-1)


def verify_decomposition(window: SubquotientAlgebra,
                         result: DecompositionResult) -> DecompositionReport:
    """Check a decomposition from scratch: degreewise direct sum, each
    element a degree-k window vector inducing on its own summand and
    annihilating the rest, and each summand local; violations as data.

    One pass per nonzero degree u multiplies the stacked summand bases once
    by all elements' cup matrices into degree u + k and once by the basis
    operators of R, the degree-k ring.  Each image, read at its own
    summand's pivots (_block_coords), decides annihilation and stability.
    With every summand stable and of matching dimensions, one rank of the
    elements' images decides that degree u + k is a direct sum and that
    each element is bijective at u; a shortfall ranks each summand's block.

    Locality: R is the product of the local rings R f_j, f_j the primitive
    idempotents (window.ring_idempotents, computed once per window and
    shared with decompose).  If R's basis operators, restricted to a
    summand, multiply by R's structure constants and R's unit acts as the
    identity, R induces on it a ring image of R, the product of the nonzero
    images of the R f_j, each local: the summand is local exactly when one
    f_j acts on it nonzero.  Both hypotheses are checked on all summands at
    once, their blocks padded to one size; a summand failing one does not
    support the degree-k action, one that is not local is named with the
    first f_j acting on it and unit - f_j.
    """
    k, n, p = window.k, window.n, window.p
    into = window_ranges(n, k)[1]
    nonzero = window.nonzero_degrees
    summands = result.summands
    if not summands:
        violations = ["empty decomposition of a nonzero window"] if window.total_dim else []
        return DecompositionReport(not violations, tuple(violations))

    def unsummed(degrees):
        return [f"summands do not direct-sum to degree {u}" for u in degrees
                if not fplin.direct_sum_check([s.spaces[u] for s in summands],
                                              Subspace.full(p, window.dim(u)), full=True)]

    for u in range(1, n):
        for i, s in enumerate(summands):
            space = s.spaces.get(u)
            if space is None or space.ambient != window.dim(u):
                return DecompositionReport(False, (*unsummed(t for t in nonzero if t < u),
                                                   f"summand {i} carries no subspace of degree {u}"))
    count, dk = len(summands), window.dim(k)
    found = [[] for _ in summands]  # each summand's violations in the pass
    valid, vectors = [], []
    for i, s in enumerate(summands):
        if s.element.degree != k:
            found[i].append(f"summand {i} element has degree {s.element.degree}")
        elif len(s.element.coeffs) != dk:
            found[i].append(f"summand {i} element has {len(s.element.coeffs)} "
                            f"coordinates, need {dk}")
        else:
            try:
                vectors.append(s.element.as_vector() % p)
                valid.append(i)
            except ValueError:
                found[i].append(f"summand {i} element has a non-integer coefficient")
    valid = np.array(valid, dtype=np.int64)
    is_valid = np.bincount(valid, minlength=count) > 0
    elements = np.array(vectors, dtype=np.int64).reshape(valid.size, dk)
    position = np.cumsum(is_valid) - 1  # a valid summand's row in elements
    try:
        operators = _basis_operators(window)
    except (ValueError, OverlapMismatch):
        operators = None
    idempotents = np.zeros((0, dk), dtype=np.int64)
    if operators is not None:
        unit, structure = _unit(window), operators[k]
        try:
            idempotents = np.array(primitive_idempotents(window)[0]) if dk else idempotents
        except (ValueError, fplin.ConsistencyFailure):
            pass  # R is no commutative ring, so no summand is found local
    layout = {u: _stack(summands, u) for u in nonzero}
    # Each summand's restricted basis operators, one block per nonzero
    # degree, padded to the largest block: [summand, degree, x, y, a].
    width = max((s.spaces[u].dim for s in summands for u in nonzero), default=0)
    blocks = np.zeros((count, len(nonzero), width, width, dk), dtype=np.int64)
    identity = np.zeros(blocks.shape[:-1], dtype=np.int64)
    unsupported, size, summed = np.zeros(count, dtype=bool), np.zeros(count, dtype=np.int64), set()
    for d, u in enumerate(nonzero):
        basis, own, _ = layout[u]
        dims = np.bincount(own, minlength=count)
        size += dims
        if valid.size and u + k in nonzero:
            cups = (elements @ window.mult3(k, u)) % p
            cupped = ((cups @ basis.T) % p).transpose(1, 2, 0)  # [element, row, coordinate]
            hit = cupped.any(axis=-1) & (own != valid[:, None])
            if hit.any():
                for e, j in np.argwhere(hit @ (own[:, None] == np.arange(count))):
                    found[valid[e]].append(f"summand {valid[e]} element does not annihilate "
                                           f"summand {j} in degree {u}")
        if u < into.stop:
            target = layout.get(u + k)
            checked = is_valid & (dims > 0)
            matched = dims == (0 if target is None else np.bincount(target[1], minlength=count))
            good = checked & matched
            for i in (checked ^ good).nonzero()[0]:
                found[i].append(f"summand {i} degrees {u} and {u + k} have unequal dimension")
            if good.any():
                diagonal = cupped[position[own], np.arange(own.size)]
                coords, leaves = _block_coords(diagonal, own[:, None] == target[1], target, p)
                unstable = good & (np.bincount(own[leaves], minlength=count) > 0)
                for i in unstable.nonzero()[0]:
                    found[i].append(f"summand {i} is not stable under its element at degree {u}")
                if (is_valid.all() and matched.all() and not unstable.any()
                        and fplin.rank(diagonal, p) == own.size == window.dim(u + k)):
                    summed.add(u + k)
                else:
                    for i in (good & ~unstable).nonzero()[0]:
                        if fplin.rank(coords[own == i][:, target[1] == i], p) < dims[i]:
                            found[i].append(f"summand {i} element is not bijective at degree {u}")
        if operators is not None:
            same = own[:, None] == own
            coords, leaves = _block_coords((basis @ operators[u].transpose(0, 2, 1)) % p,
                                           same, layout[u], p)
            unsupported[own[leaves.any(axis=0)]] = True
            local = np.arange(own.size) - np.searchsorted(own, own)
            t, q = same.nonzero()
            blocks[own[t], d, local[q], local[t]] = coords[:, t, q].T
            identity[own, d, local, local] = 1
    violations = unsummed(u for u in nonzero if u not in summed)
    violations += [v for vs in found for v in vs]
    if operators is None:
        violations.append("the window does not support the degree-k action")
        return DecompositionReport(False, tuple(violations))
    blocks = blocks.transpose(0, 1, 4, 2, 3)  # [summand, degree, a, x, y]
    products = (blocks[:, :, :, None] @ blocks[:, :, None]) % p
    unsupported |= ((np.einsum("a,sdaxy->sdxy", unit, blocks) % p != identity).any(axis=(1, 2, 3))
                    | (products != np.einsum("sdcxy,acb->sdabxy", blocks, structure) % p)
                    .any(axis=(1, 2, 3, 4, 5)))
    acts = (np.einsum("sdaxy,ja->sjdxy", blocks, idempotents) % p).any(axis=(2, 3, 4))
    verdicts = zip(size.tolist(), (unsupported | ~acts.any(axis=1)).tolist(),
                   acts.sum(axis=1).tolist())
    for i, (s, (dim, bad, factors)) in enumerate(zip(summands, verdicts)):
        if s.element.degree != k:
            continue
        if not dim:
            violations.append(f"summand {i} is zero")
        elif bad:
            violations.append(f"summand {i} does not support the degree-k action")
        elif factors > 1:
            e = idempotents[acts[i].argmax()]
            violations.append(f"summand {i} splits further at {_key(e)}/{_key((unit - e) % p)}")
    return DecompositionReport(not violations, tuple(violations))
