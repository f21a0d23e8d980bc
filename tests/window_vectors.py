"""Parent coordinates of window vectors, for tests that check a window
against its parent.

Imported by the test modules: pytest puts this directory on the import path.
"""

import numpy as np

from periodica import fplin


def embed(window, i: int, vec) -> np.ndarray:
    """Parent coordinates of a window degree-i vector: its coordinates
    times the canonical basis of window.spaces[i]."""
    v = fplin.as_vector(vec, window.p)
    return (v @ window.spaces[i].basis) % window.p
