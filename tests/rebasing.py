"""A change of basis for test algebras.

Imported by the test modules: pytest puts this directory on the import path.
"""

import numpy as np

from periodica import fplin
from periodica.algebra import GradedAlgebra


def rebased(alg, seed):
    """The same algebra in a random basis of each positive degree, so that
    products no longer come out in lexicographic order."""
    rng = np.random.default_rng(seed)
    p, change = alg.p, {0: np.eye(alg.dim(0), dtype=np.int64)}
    for i in range(1, alg.n + 1):
        change[i] = rng.integers(0, p, size=(alg.dim(i), alg.dim(i)))
        while fplin.rank(change[i], p) < alg.dim(i):
            change[i] = rng.integers(0, p, size=(alg.dim(i), alg.dim(i)))
    mult = {}
    for i, j in alg.mult:
        back = fplin.mat_inv(change[i + j].T, p)
        table = np.einsum("ut,tab,ca,db->ucd", back, alg.mult3(i, j), change[i], change[j]) % p
        mult[(i, j)] = table.reshape(alg.dim(i + j), alg.dim(i) * alg.dim(j))
    return GradedAlgebra(p, alg.n, alg.dims, mult)
