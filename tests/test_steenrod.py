"""Steenrod-layer oracles.

The admissible normal form is checked three ways: against the frozen
classical identities, against an independent one-step expansion of the
rewriting coefficients, and by evaluating both sides on corpus actions.
"""

import itertools
import math

import numpy as np
import pytest

from periodica import corpus, fplin, steenrod
from periodica.algebra import GradedAlgebra
from periodica.steenrod import (ActionDefect, IsPowerOfTwo, SteenrodAction,
                                adem_normal_form, decompose_sq, evaluate_sum,
                                operation_shift)


def build(text):
    return corpus.build(corpus.parse_spec(text))


def binom_parity(n, k):
    return 1 if 0 <= k <= n and math.comb(n, k) % 2 else 0


def one_step_expansion(a, b):
    """Rewrite Sq^a Sq^b, a < 2b, straight from the coefficient sum."""
    out = set()
    for j in range(0, a // 2 + 1):
        if binom_parity(b - 1 - j, a - 2 * j):
            mono = (a + b - j, j) if j else (a + b - j,)
            out ^= {mono}
    return out


def test_frozen_classical_identities():
    assert adem_normal_form([(1, 1)]) == frozenset()
    assert adem_normal_form([(1, 2)]) == frozenset({(3,)})
    assert adem_normal_form([(2, 2)]) == frozenset({(3, 1)})
    assert adem_normal_form([(2, 3)]) == frozenset({(5,), (4, 1)})
    assert adem_normal_form([(3, 2)]) == frozenset()


def test_normal_form_matches_coefficient_formula():
    # for two-factor inputs one rewriting step already lands on admissibles
    for b in range(1, 13):
        for a in range(1, 2 * b):
            expected = one_step_expansion(a, b)
            got = adem_normal_form([(a, b)])
            assert got == frozenset(expected), (a, b)
            for mono in got:
                assert len(mono) == 1 or mono[0] >= 2 * mono[1], (a, b, mono)


def test_normal_form_fixes_admissibles():
    for mono in [(4,), (4, 2), (6, 3, 1), (8, 4, 2, 1)]:
        assert adem_normal_form([mono]) == frozenset({mono})


def test_normal_form_by_evaluation_on_corpus_actions():
    rng = np.random.default_rng(11)
    fixtures = [build(t) for t in ("ComplexProj(6)@2", "QuatProj(3)@2",
                                   "ConnectedSum(ComplexProj(4),ComplexProj(4))@2")]
    for _ in range(60):
        length = int(rng.integers(1, 4))
        mono = tuple(int(rng.integers(1, 7)) for _ in range(length))
        nf = adem_normal_form([mono])
        for fx in fixtures:
            act = fx.action
            alg = fx.algebra
            for j in range(1, alg.n + 1):
                if alg.dim(j) == 0 or j + sum(mono) > alg.n:
                    continue
                for t in range(alg.dim(j)):
                    vec = alg.basis_element(j, t)
                    d1, v1 = evaluate_sum(act, [mono], j, vec)
                    if not nf:
                        assert not v1.any(), (mono, j)
                        continue
                    d2, v2 = evaluate_sum(act, sorted(nf), j, vec)
                    assert d1 == d2 and np.array_equal(v1, v2), (mono, j)


def test_decompose_sq_every_non_power_up_to_24():
    powers = {1, 2, 4, 8, 16}
    for k in range(1, 25):
        if k in powers:
            with pytest.raises(IsPowerOfTwo):
                decompose_sq(k)
            continue
        parts = decompose_sq(k)
        assert parts, k
        recombined = []
        for lead, monos in parts.items():
            assert lead in powers, (k, lead)
            for mono in monos:
                assert len(mono) == 1 or all(
                    mono[i] >= 2 * mono[i + 1] for i in range(len(mono) - 1)), (k, mono)
                recombined.append((lead,) + tuple(mono))
        assert adem_normal_form(recombined) == frozenset({(k,)}), k


def test_operation_shift():
    assert operation_shift(2, 3) == 3
    assert operation_shift(3, 1) == 4
    assert operation_shift(5, 2) == 16


def test_operations_are_the_shifts_that_stay_at_or_below_top():
    for p, j, top in itertools.product((2, 3, 5, 7), range(12), range(-2, 30)):
        want = [s for s in range(1, 40) if j + operation_shift(p, s) <= top]
        assert list(steenrod.operations(p, j, top)) == want, (p, j, top)


def test_action_values_on_projective_spaces():
    # Sq^2 y^m = m y^(m+1) on the mod-2 complex projective space
    act = build("ComplexProj(5)@2").action
    for m in range(1, 5):
        out = act.apply(2, 2 * m, [1])
        assert out.tolist() == [m % 2], m
    # instability: the top operation is the cup square
    assert act.apply(4, 4, [1]).tolist() == [1]
    # mod-3 analogue: first power operation raises degree by 4
    act3 = build("ComplexProj(5)@3").action
    for m in range(1, 4):
        out = act3.apply(1, 2 * m, [1])
        assert out.tolist() == [m % 3], m


def test_verify_action_catches_corruption():
    fx = build("ComplexProj(4)@2")
    alg, act = fx.algebra, fx.action
    steenrod.verify_action(alg, act)
    maps = dict(act.maps)
    maps[(2, 2)] = np.zeros_like(maps[(2, 2)])
    with pytest.raises(ActionDefect):
        steenrod.verify_action(alg, SteenrodAction(alg, maps))


@pytest.mark.parametrize("p, dims, key", [
    (2, [0, 0, 30_000, 0, 1], (2, 2)),        # Sq^2 on degree 2: the square, in degree 4
    (3, [0, 0, 30_000, 0, 1, 0, 1], (1, 2)),  # P^1 on degree 2: the cube, in degree 6
])
def test_top_power_of_a_large_degree_without_its_square_table(p, dims, key):
    """No (2, 2) table, so every p-th power in degree 2 is zero and the top
    operation there must be zero too.  A zero-filled (2, 2) table would
    take dim(4) * 30 000^2 int64 entries (7.2 GB)."""
    alg = GradedAlgebra(p, len(dims) - 1, dims, {})
    steenrod.verify_action(alg, SteenrodAction(alg, {}))
    op = np.zeros((1, 30_000), dtype=np.int64)
    op[0, -1] = 1
    with pytest.raises(ActionDefect, match="top operation on degree 2"):
        steenrod.verify_action(alg, SteenrodAction(alg, {key: op}))


def test_induced_action_on_direct_window():
    from periodica import periodicity as P
    fx = build("ComplexProj(4)@2")
    rep = P.minimum_period(fx.algebra)
    window = P.subquotient(fx.algebra, rep.certificate, action=fx.action)
    assert window.action is not None
    induced = steenrod.induced_action_on_window(window, fx.action)
    steenrod.verify_induced_action(window, fx.action, induced)
    assert induced.to_dict() == window.action.to_dict()


def test_induced_action_gate():
    from periodica import periodicity as P
    # quaternionic plane: p*k = 8 exceeds n - 1 = 7 in the complex case at k = 4
    fx = build("ComplexProj(4)@2")
    rep = P.minimum_period(fx.algebra)
    window = P.subquotient(fx.algebra, rep.certificate, action=fx.action)
    with pytest.raises(steenrod.InducedActionFailure):
        # forging a window with an oversized period must refuse the gate
        steenrod.induced_action_on_window(_FakeWindow(window, fx.algebra.n), fx.action)


class _FakeWindow:
    def __init__(self, window, n):
        self.parent = window.parent
        self.certificate = window.certificate
        self.p = window.p
        self.n = n
        self.k = n  # p * k > n - 1 on purpose


def test_decompose_sq_recheck_is_a_typed_error(monkeypatch):
    """The recombination check stays on under python -O."""
    real = steenrod.adem_normal_form
    monkeypatch.setattr(steenrod, "adem_normal_form", lambda monos: real(monos) | {(99,)})
    with pytest.raises(fplin.ConsistencyFailure):
        decompose_sq.__wrapped__(6)  # past the cache
