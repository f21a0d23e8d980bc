"""A change of basis for test algebras.

Imported by the test modules: pytest puts this directory on the import path.
"""

import numpy as np

from periodica import fplin
from periodica.algebra import GradedAlgebra
from periodica.steenrod import SteenrodAction


def _changes(alg, seed):
    """Per degree, an invertible matrix whose rows are the new basis vectors."""
    rng = np.random.default_rng(seed)
    p, change = alg.p, {0: np.eye(alg.dim(0), dtype=np.int64)}
    for i in range(1, alg.n + 1):
        change[i] = rng.integers(0, p, size=(alg.dim(i), alg.dim(i)))
        while fplin.rank(change[i], p) < alg.dim(i):
            change[i] = rng.integers(0, p, size=(alg.dim(i), alg.dim(i)))
    return change


def rebased(alg, seed):
    """The same algebra in a random basis of each positive degree, so that
    products no longer come out in lexicographic order."""
    p, change = alg.p, _changes(alg, seed)
    mult = {}
    for i, j in alg.mult:
        back = fplin.mat_inv(change[i + j].T, p)
        table = np.einsum("ut,tab,ca,db->ucd", back, alg.mult3(i, j), change[i], change[j]) % p
        mult[(i, j)] = table.reshape(alg.dim(i + j), alg.dim(i) * alg.dim(j))
    return GradedAlgebra(p, alg.n, alg.dims, mult)


def rebased_with_action(alg, act, seed):
    """rebased(alg, seed) and the action act carried into the same basis
    (None stays None)."""
    new = rebased(alg, seed)
    if act is None:
        return new, None
    p, change = alg.p, _changes(alg, seed)
    maps = {}
    for (s, j), m in act.maps.items():
        back = fplin.mat_inv(change[act.target_degree(s, j)].T, p)
        maps[(s, j)] = (back @ ((m @ change[j].T) % p)) % p
    return new, SteenrodAction(new, maps)
