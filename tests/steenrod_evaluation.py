"""Evaluation of composite operations and re-derivation of a window's
action, for the tests: no library code needs them."""

import numpy as np

from periodica import fplin
from periodica.steenrod import (ActionDefect, SteenrodAction, induced_action_on_window,
                                operation_shift, verify_action)


def evaluate_monomial(act: SteenrodAction, mono, j: int, vec) -> tuple[int, np.ndarray]:
    """Apply a composite operation, rightmost factor first."""
    d, v = j, fplin.as_vector(vec, act.p)
    for s in reversed(tuple(mono)):
        v = act.apply(s, d, v)
        d = act.target_degree(s, d)
        if d > act.alg.n:
            return d, np.zeros(0, dtype=np.int64)
    return d, v


def evaluate_sum(act: SteenrodAction, monos, j: int, vec) -> tuple[int, np.ndarray]:
    """Apply a formal sum of composites of equal total degree shift."""
    monos = [tuple(m) for m in monos]
    if not monos:
        raise ValueError("empty sum has no well-defined target degree")
    shifts = {sum(m) for m in monos}
    if len(shifts) != 1:
        raise ValueError("mixed total degrees in one sum")
    t = j + operation_shift(act.p, sum(monos[0]))
    if t > act.alg.n:
        return t, np.zeros(0, dtype=np.int64)
    out = np.zeros(act.alg.dim(t), dtype=np.int64)
    for mono in monos:
        d, v = evaluate_monomial(act, mono, j, vec)
        if d == t and v.size:
            out = (out + v) % act.p
    return t, out


def verify_induced_action(window, parent_action: SteenrodAction,
                          induced: SteenrodAction) -> None:
    """Re-derive the window action and check the axioms over window products."""
    rebuilt = induced_action_on_window(window, parent_action)
    if rebuilt.to_dict() != induced.to_dict():
        raise ActionDefect("stored window action differs from the re-derived one")
    verify_action(window, induced)
