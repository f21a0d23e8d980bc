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

The window's degrees are worked on together, on a leading degree axis,
not one at a time.  Arrays that differ in size from degree to degree are
padded with zeros to one size: the operator blocks whose images are the
summands (one stacked rref per window), and in verify_decomposition the
summands' bases, the cup tables and the ring action.  A padded row is the
zero vector and a padded column is zero in every row, so padding changes
no product in the unpadded corner, and no rank or pivot: a zero row adds
nothing to a row space and a zero column is never a pivot.
"""

from dataclasses import dataclass

import numpy as np

from . import fplin
from .algebra import Element
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
    the overlap 1+k..n-1-k must agree under both readings.  One contraction
    of the element with the window's padded ring_action (degree_stacks)
    gives every block, cut back to its degree; where the basis's two
    readings disagree, the element's own readings are compared
    (_action_block).
    """
    k, n = window.k, window.n
    _check_action(window)
    av = _vector_of(window, a, k)
    xv = fplin.as_vector(av, window.p)
    if xv.shape[0] != window.dim(k):
        raise ValueError("vector length does not match degree dimension")
    stacked = np.einsum("a,daxy->dxy", xv, window.degree_stacks[0]) % window.p
    blocks = dict.fromkeys(range(1, n), EMPTY_BLOCK)
    for d, u in enumerate(window.nonzero_degrees):
        if not window.ring_action[u][2]:
            _action_block(window, xv, u)  # raises where the readings of a differ
        blocks[u] = stacked[d, :window.dim(u), :window.dim(u)]
    return MultOperator(Element.of(k, av), blocks)


def _action_block(window: SubquotientAlgebra, av, u: int) -> np.ndarray:
    """Matrix of v -> unshift(a cup v) on window degree u, for a degree-k
    vector a; in degree k it is multiplication by a on the degree-k ring.
    For a stack of vectors, the stack of their matrices.  Where the basis's
    two readings disagree, a's own readings are compared."""
    p = window.p
    low, high, agree = window.ring_action[u]
    block = np.einsum("...a,auv->...uv", av, low if low is not None else high) % p
    if not agree and not np.array_equal(block, np.einsum("...a,auv->...uv", av, high) % p):
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


def _image_spaces(window, elements) -> list:
    """The image of each element's operator in every window degree.  The
    blocks of all elements in all nonzero degrees, padded with zero rows
    and columns to the widest degree, are reduced in one stacked rref: a
    zero column is never a pivot and a zero row adds nothing to the row
    space, so each item's reduced rows, cut back to its degree, are those
    of its own block."""
    p, degrees = window.p, window.nonzero_degrees
    operators = [multiplication_operator(window, e) for e in elements]
    width = max(map(window.dim, degrees), default=0)
    blocks = np.zeros((len(operators), len(degrees), width, width), dtype=np.int64)
    for d, u in enumerate(degrees):
        blocks[:, d, :window.dim(u), :window.dim(u)] = np.reshape(
            [op.blocks[u] for op in operators], (-1, window.dim(u), window.dim(u)))
    reduced, pivots = fplin.rref(blocks.swapaxes(-1, -2).reshape(-1, width, width), p)
    spaces = []
    for i, rows in enumerate(reduced.reshape(blocks.shape)):
        image = dict.fromkeys(range(1, window.n), Subspace.zero(p, 0))
        for d, u in enumerate(degrees):
            columns = pivots[i * len(degrees) + d]
            image[u] = Subspace(p, window.dim(u), rows[d, :len(columns), :window.dim(u)], columns)
        spaces.append(image)
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
    summands = [Summand(Element.of(k, f), spaces)
                for f, spaces in zip(finals, _image_spaces(window, finals))]

    # A part q is the sum of the primitive idempotents f with q * f = f, so
    # its image is the direct sum of theirs.  All parts go in one stack:
    # below[q, i] says that f_i is one of q's idempotents.
    every_part = np.array([q for _, _, parts in splits for q in parts],
                          dtype=np.int64).reshape(-1, window.dim(k))
    columns = np.transpose(finals)
    below = ((_action_block(window, every_part, k) @ columns) % window.p == columns).all(axis=1)
    sizes = [[s.spaces[u].dim for u in range(1, n)] for s in summands]
    part_dims = iter((below.astype(np.int64) @ np.array(sizes, dtype=np.int64)).tolist())
    trace = [SplitRecord(split_element=Element.of(k, e),
                         separator=Element.of(k, b),
                         replacements=tuple(Element.of(k, q) for q in parts),
                         part_dims=tuple(zip(range(1, n), *[next(part_dims) for _ in parts])))
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


def _layout(window, summands, degrees) -> tuple:
    """The summands' bases in the given degrees, on a leading degree axis,
    and one zero degree after them, as (basis, pivots, dims).  basis[d, i,
    x] is row x of summand i's basis in degree d, padded with zero rows to
    the largest summand and zero columns to the widest degree; pivots[d, i]
    holds one column per row, the unit vector at that row's pivot (zero on
    a padded row), so that images @ pivots[d, i] reads images at summand
    i's pivots; dims[d, i] is summand i's dimension in degree d."""
    count = len(summands)
    spaces = [s.spaces[u] for u in degrees for s in summands]
    flat = np.array([space.dim for space in spaces], dtype=np.int64)
    dims = np.zeros((len(degrees) + 1, count), dtype=np.int64)
    dims[:-1] = flat.reshape(len(degrees), count)
    widths = np.array([window.dim(u) for u in degrees], dtype=np.int64)
    size, width = int(flat.max(initial=0)), int(widths.max(initial=0))
    # Each row of the concatenated bases: its degree, summand and place.
    degree, summand = np.divmod(np.repeat(np.arange(flat.size), flat), count)
    place = np.arange(degree.size) - np.repeat(flat.cumsum() - flat, flat)
    pivots = np.zeros((len(degrees) + 1, count, width, size), dtype=np.int64)
    columns = [c for space in spaces for c in space.pivots]
    pivots[degree, summand, np.array(columns, dtype=np.int64), place] = 1
    # Each entry of the concatenated bases, at its row's place.
    basis = np.zeros((len(degrees) + 1) * count * size * width, dtype=np.int64)
    if spaces:
        row_width = widths[degree]
        start = ((degree * count + summand) * size + place) * width
        basis[np.repeat(start - (row_width.cumsum() - row_width), row_width)
              + np.arange(row_width.sum())] = np.concatenate([s.basis for s in spaces], axis=None)
    return basis.reshape(len(degrees) + 1, count, size, width), pivots, dims


def _unsummed(window, degrees, dims, ranks) -> list:
    """A violation for each degree whose summand bases, dims[d] rows of
    them, have rank short of their row count or a row count short of the
    degree's dimension."""
    return [f"summands do not direct-sum to degree {u}"
            for u, rank, rows in zip(degrees, ranks.tolist(), dims.sum(axis=1).tolist())
            if not rank == rows == window.dim(u)]


def _stacked_rows(basis) -> np.ndarray:
    """Each degree's summand bases of a _layout as one stack of rows."""
    degrees, count, size, width = basis.shape
    return basis[:-1].reshape(degrees - 1, count * size, width)


def _block_coords(images, pivots, basis, p: int) -> tuple:
    """Coordinates [..., x, y] of images[..., x, :] on row y of a summand's
    basis, read at its pivots (pivots as in _layout); and per image x
    whether it leaves the span of those rows."""
    coords = images @ pivots
    return coords, ((coords @ basis) % p != images).any(axis=-1)


def verify_decomposition(window: SubquotientAlgebra,
                         result: DecompositionResult) -> DecompositionReport:
    """Check a decomposition from scratch: degreewise direct sum, each
    element a degree-k window vector inducing on its own summand and
    annihilating the rest, and each summand local; violations as data.

    One array pass checks every nonzero degree u at once.  The degrees lie
    on a leading axis (_layout), and each degree holds every summand's
    basis, padded with zero rows to the largest summand and with zero
    columns to the widest degree; the window's cup tables and ring_action
    are padded alike (window.degree_stacks, computed once per window).  A
    padded row is the zero vector, so its images and coordinates are zero
    and it adds nothing to a rank; a padded column is zero in every vector
    and every image, so it changes no product and no rank either.  The pass
    multiplies the bases by all elements into degree u + k and by the basis
    operators of R, the degree-k ring.  Each image, read at its own
    summand's pivots (_block_coords), decides annihilation and stability.
    One fplin.rank call over a stack of padded items then gives every rank:
    per degree, the summands' bases, which direct-sum exactly when their
    rank is their row count and the degree's dimension; and per stable
    summand and degree u of matching dimensions, the coordinates of its
    element's images in degree u + k, a block that is bijective at u
    exactly when it has full rank.

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
    for u in range(1, n):
        for i, s in enumerate(summands):
            space = s.spaces.get(u)
            if space is None or space.ambient != window.dim(u) or space.p != p:
                below = [t for t in nonzero if t < u]
                basis, _, dims = _layout(window, summands, below)
                return DecompositionReport(False, (
                    *_unsummed(window, below, dims, fplin.rank(_stacked_rows(basis), p)),
                    f"summand {i} carries no subspace of degree {u}"))
    count, dk = len(summands), window.dim(k)
    found = [[] for _ in summands]  # each summand's violations in the pass
    elements = np.zeros((count, dk), dtype=np.int64)  # zero where no valid element
    is_valid = np.zeros(count, dtype=bool)
    for i, s in enumerate(summands):
        if s.element.degree != k:
            found[i].append(f"summand {i} element has degree {s.element.degree}")
        elif len(s.element.coeffs) != dk:
            found[i].append(f"summand {i} element has {len(s.element.coeffs)} "
                            f"coordinates, need {dk}")
        else:
            try:
                elements[i] = s.element.as_vector() % p
                is_valid[i] = True
            except ValueError:
                found[i].append(f"summand {i} element has a non-integer coefficient")
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
    basis, pivots, dims = _layout(window, summands, nonzero)
    degrees, size = len(nonzero), basis.shape[2]
    action, cups = window.degree_stacks
    rows = _stacked_rows(basis)
    # Every element's image of every row, in degree u + k:
    # cupped[degree, coordinate, element, summand, row].
    cupped = ((elements @ ((cups @ rows[:, None].swapaxes(-1, -2)) % p)) % p
              ).reshape(degrees, cups.shape[1], count, count, size)
    annihilates = cupped.any(axis=(1, 4)) & ~np.eye(count, dtype=bool)
    # Each summand's images under its own element, read in its space in
    # degree u + k (the zero degree where u + k is empty), for u < n - k.
    after = {u: d for d, u in enumerate(nonzero)}
    target = [after.get(u + k, degrees) for u in nonzero]
    checked = is_valid & (dims[:-1] > 0) & (np.array(nonzero, dtype=np.int64)[:, None] < into.stop)
    matched = dims[:-1] == dims[target]
    good = checked & matched
    images = np.diagonal(cupped, axis1=2, axis2=3).transpose(0, 3, 2, 1)
    coords, leaves = _block_coords(images, pivots[target], basis[target], p)
    unstable = good & leaves.any(axis=-1)
    bijective = good & ~unstable
    stack = np.zeros((degrees + bijective.sum(), rows.shape[1], max(rows.shape[2], size)),
                     dtype=np.int64)
    stack[:degrees, :, :rows.shape[2]] = rows
    stack[degrees:, :size, :size] = coords[bijective]
    ranks = fplin.rank(stack, p)
    short = np.zeros_like(bijective)
    short[bijective] = ranks[degrees:] < dims[:-1][bijective]
    flags = (checked & ~matched, unstable, short)
    if annihilates.any() or any(f.any() for f in flags):
        events = [(i, d, 0, j) for d, i, j in np.argwhere(annihilates).tolist()]
        events += [(i, d, kind, 0) for kind, f in enumerate(flags, 1)
                   for d, i in np.argwhere(f).tolist()]
        for i, d, kind, j in sorted(events):
            u = nonzero[d]
            found[i].append((
                f"summand {i} element does not annihilate summand {j} in degree {u}",
                f"summand {i} degrees {u} and {u + k} have unequal dimension",
                f"summand {i} is not stable under its element at degree {u}",
                f"summand {i} element is not bijective at degree {u}")[kind])
    violations = _unsummed(window, nonzero, dims, ranks[:degrees])
    violations += [v for vs in found for v in vs]
    if operators is None:
        violations.append("the window does not support the degree-k action")
        return DecompositionReport(False, tuple(violations))
    # Each summand's restricted basis operators, one block per nonzero
    # degree, padded to the largest summand: coords[degree, a, summand] is
    # the matrix of basis element a acting on row vectors of coordinates,
    # so coords[a] @ coords[b] must be the block of the product of b and a,
    # whose coordinates are structure[b, :, a].
    images = (basis[:-1, None] @ action[:, :, None].swapaxes(-1, -2)) % p
    coords, leaves = _block_coords(images, pivots[:-1, None], basis[:-1, None], p)
    flat = coords.reshape(degrees, dk, count * size * size)
    identity = np.eye(size, dtype=bool) & (np.arange(size) < dims[:-1, :, None])[..., None]
    unit_acts = ((unit @ flat) % p).reshape(identity.shape) == identity
    expected = (structure.transpose(2, 0, 1).reshape(dk * dk, dk) @ flat) % p
    multiplies = ((coords[:, :, None] @ coords[:, None]) % p).reshape(expected.shape) == expected
    unsupported = (leaves.any(axis=(0, 1, 3)) | ~unit_acts.all(axis=(0, 2, 3))
                   | ~multiplies.reshape(degrees, dk * dk, count, size * size).all(axis=(0, 1, 3)))
    acts = ((idempotents @ flat) % p).reshape(degrees, len(idempotents), count, size * size)
    acts = acts.any(axis=(0, 3)).T
    verdicts = zip(dims.sum(axis=0).tolist(), (unsupported | ~acts.any(axis=1)).tolist(),
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
