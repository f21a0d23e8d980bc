"""verify_decomposition of periodica.decomposition as it stood with one
pass per nonzero degree, verbatim with the helpers `_stack` and
`_block_coords` it alone used: the reference that the stacked pass, one
array pass per window, must match report for report.  The helpers the
rewrite left alone (`_basis_operators`, `_unit`, `primitive_idempotents`,
`_key`) and the report type are imported from the live module.
"""

import numpy as np

from periodica import fplin
from periodica.decomposition import (
    DecompositionReport,
    DecompositionResult,
    OverlapMismatch,
    _basis_operators,
    _key,
    _unit,
    primitive_idempotents,
)
from periodica.fplin import Subspace
from periodica.periodicity import SubquotientAlgebra, window_ranges


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
