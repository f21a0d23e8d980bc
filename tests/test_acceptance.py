"""End-to-end acceptance checks.

One test per criterion; each prints a PASS or FAIL line to the terminal so
a full run reads as a checklist.  Timing limits are asserted where the
criterion carries one.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from periodica import connectivity, corpus, decomposition, fplin, steenrod
from periodica import periodicity as P
from periodica.algebra import Element
from periodica.steenrod import IsPowerOfTwo, adem_normal_form, decompose_sq
from window_vectors import embed


def _report(capsys, number, name, fn):
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {number}] {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"[criterion {number}] {name}: PASS")


def build(text):
    return corpus.build(corpus.parse_spec(text))


def window_of(text):
    fx = build(text)
    rep = P.minimum_period(fx.algebra)
    return P.subquotient(fx.algebra, rep.certificate, action=fx.action)


def nonzero_elements(window, degree):
    d = window.dim(degree)
    if d == 0:
        return
    for vec in fplin.enumerate_vectors(d, window.p):
        if vec.any():
            yield Element.of(degree, vec)


def test_criterion_1_connected_sum_decomposition(capsys):
    def body():
        w = window_of("ConnectedSum(ComplexProj(4),ComplexProj(4))@2")
        start = time.perf_counter()
        result = decomposition.decompose(w)
        report = decomposition.verify_decomposition(w, result)
        elapsed = time.perf_counter() - start
        assert result.summand_count == 2
        for s in result.summands:
            assert [s.spaces[u].dim for u in (2, 4, 6)] == [1, 1, 1]
            assert all(s.spaces[u].dim == 0 for u in (1, 3, 5, 7))
        for s, other in ((result.summands[0], result.summands[1]),
                         (result.summands[1], result.summands[0])):
            xv = embed(w, 2, s.element.as_vector())
            for u in (2, 4):
                for row in other.spaces[u].basis:
                    prod = w.parent.cup(2, xv, u, embed(w, u, row))
                    assert not w.to_window(u + 2, prod).any()
        assert report.ok and report.violations == ()
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(capsys, 1, "connected-sum decomposition", body)


MOD2_FIXTURES = [
    ("ComplexProj(4)@2", 2), ("ComplexProj(5)@2", 2), ("ComplexProj(6)@2", 2),
    ("ComplexProj(7)@2", 2), ("ComplexProj(8)@2", 2),
    ("QuatProj(3)@2", 4), ("QuatProj(4)@2", 4), ("QuatProj(5)@2", 4),
    ("ConnectedSum(ComplexProj(4),ComplexProj(4))@2", 2),
    ("ConnectedSum(ComplexProj(6),ComplexProj(6))@2", 2),
    ("ConnectedSum(QuatProj(3),QuatProj(3))@2", 4),
    ("ConnectedSum(QuatProj(5),QuatProj(5))@2", 4),
]


def test_criterion_2_mod2_minimum_periods(capsys):
    def body():
        start = time.perf_counter()
        for spec, expected in MOD2_FIXTURES:
            fx = build(spec)
            assert fx.action is not None, spec
            steenrod.verify_action(fx.algebra, fx.action)
            rep = P.minimum_period(fx.algebra)
            assert rep.period == expected, spec
            assert rep.period & (rep.period - 1) == 0, spec  # power of two
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f}s"
    _report(capsys, 2, "mod-2 minimum periods", body)


MOD3_FIXTURES = [
    ("ComplexProj(4)@3", 2), ("ComplexProj(5)@3", 2),
    ("QuatProj(3)@3", 4), ("QuatProj(4)@3", 4),
]


def test_criterion_3_mod3_minimum_periods(capsys):
    def body():
        for spec, expected in MOD3_FIXTURES:
            fx = build(spec)
            rep = P.minimum_period(fx.algebra)
            assert rep.period == expected, spec
            form = P.check_minimum_period_form(3, rep.period, fx.algebra.n)
            assert form.conformant, (spec, form.description)
    _report(capsys, 3, "mod-3 minimum periods", body)


CLASSICAL_IDENTITIES = [
    ([(1, 1)], set()),
    ([(1, 2)], {(3,)}),
    ([(2, 2)], {(3, 1)}),
    ([(2, 3)], {(5,), (4, 1)}),
    ([(3, 2)], set()),
]


def _evaluate_sum(fx, monos, degree, vec):
    """Apply a sum of composite squares to a degree-homogeneous vector."""
    total = None
    for mono in monos:
        v, d = vec.copy(), degree
        for s in reversed(mono):
            v = fx.action.apply(s, d, v)
            d += s
        total = v if total is None else (total + v) % 2
    return total


def test_criterion_4_normal_forms_and_square_decompositions(capsys):
    def body():
        for lhs, rhs in CLASSICAL_IDENTITIES:
            assert adem_normal_form(lhs) == rhs, lhs
        # cross-check every identity by evaluation over fixture actions
        shift = {tuple(m): sum(m) for pair in CLASSICAL_IDENTITIES for m in pair[0]}
        for spec in ("ComplexProj(6)@2", "QuatProj(3)@2",
                     "ConnectedSum(ComplexProj(4),ComplexProj(4))@2"):
            fx = build(spec)
            alg = fx.algebra
            for lhs, rhs in CLASSICAL_IDENTITIES:
                total_shift = shift[tuple(lhs[0])]
                for u in range(1, alg.n + 1):
                    if alg.dim(u) == 0 or u + total_shift > alg.n:
                        continue
                    for t in range(alg.dim(u)):
                        vec = alg.basis_element(u, t)
                        left = _evaluate_sum(fx, lhs, u, vec)
                        right = (_evaluate_sum(fx, sorted(rhs), u, vec)
                                 if rhs else np.zeros_like(left))
                        assert np.array_equal(left, right), (spec, lhs, u, t)
        for k in range(1, 25):
            if k in (1, 2, 4, 8, 16):
                with pytest.raises(IsPowerOfTwo):
                    decompose_sq(k)
                continue
            parts = decompose_sq(k)
            recombined = adem_normal_form(
                [(power,) + mono for power, monos in parts.items() for mono in monos])
            assert recombined == {(k,)}, k
            for power in parts:
                assert power & (power - 1) == 0 and power < k
    _report(capsys, 4, "admissible normal forms and square decompositions", body)


def test_criterion_5_window_construction_and_induced_actions(capsys):
    def body():
        specs = [spec for spec, _ in MOD2_FIXTURES + MOD3_FIXTURES]
        specs.append("Sphere(8)@2")
        for spec in specs:
            fx = build(spec)
            rep = P.minimum_period(fx.algebra)
            assert rep.period is not None, spec
            w = P.subquotient(fx.algebra, rep.certificate, action=fx.action)
            for i, m in w.shifts.items():
                d = w.dim(i)
                assert m.shape == (d, d) and fplin.rank(m, w.p) == d, (spec, i)
            if fx.action is not None and w.p * w.k <= w.n - 1:
                assert w.action is not None, spec
                steenrod.verify_action(w, w.action)
            else:
                assert w.action is None, spec
    _report(capsys, 5, "window construction and induced actions", body)


CHECKER_WINDOWS = [
    "ComplexProj(4)@2", "ComplexProj(5)@2", "ComplexProj(6)@2", "QuatProj(4)@2",
    "ComplexProj(4)@3", "ComplexProj(5)@3", "QuatProj(4)@3",
]


def test_criterion_6_window_consistency_checkers(capsys):
    def body():
        for spec in CHECKER_WINDOWS:
            w = window_of(spec)
            assert w.total_dim <= 12, spec
            xw = w.to_window(w.k, w.certificate.element.as_vector())
            assert P.is_irreducible(w, Element.of(w.k, xw)).irreducible, spec
            checked = 0
            for u in range(1, w.n):
                for v in range(1, w.n - u):
                    for y in nonzero_elements(w, u):
                        for z in nonzero_elements(w, v):
                            r = P.check_products_factors(w, y, z)
                            assert r.consistent, (spec, y, z)
                            checked += 1
                            try:
                                a = P.check_power_index_additivity(w, y, z)
                            except P.HypothesisNotMet:
                                continue
                            assert a.consistent, (spec, y, z, a)
            assert checked > 0, spec
            for y in nonzero_elements(w, w.k):
                if P.element_induces(w, w.k, y.as_vector()):
                    assert P.is_irreducible(w, y).irreducible, (spec, y)
            if w.p == 2:
                for u in range(1, w.n):
                    for y in nonzero_elements(w, u):
                        for s in range(0, w.n - u):
                            r = P.check_steenrod_preimage(w, y, s)
                            assert r.consistent, (spec, y, s)
    _report(capsys, 6, "window consistency checkers", body)


def _random_invertible(rng, d, p):
    while True:
        m = rng.integers(0, p, size=(d, d), dtype=np.int64)
        if fplin.rank(m, p) == d:
            return m


def test_criterion_7_randomized_linear_algebra(capsys):
    def body():
        rng = np.random.default_rng(2026)
        start = time.perf_counter()
        for _ in range(200):
            p = int(rng.choice((2, 3, 5)))
            d = int(rng.integers(2, 9))
            rows = _random_invertible(rng, d, p)
            cuts = sorted(rng.choice(range(1, d), size=min(2, d - 1), replace=False))
            blocks = np.split(rows, cuts)
            ambient = fplin.Subspace.full(p, d)
            parts = [fplin.Subspace.from_vectors(list(b), p, d) for b in blocks]
            # independent blocks of an invertible matrix split the space
            assert fplin.direct_sum_check(parts, ambient)
            assert fplin.direct_sum_check(parts, ambient, full=True)
            assert not fplin.direct_sum_check(parts[:-1], ambient, full=True)
            overlap = parts + [fplin.Subspace.from_vectors([rows[0]], p, d)]
            assert not fplin.direct_sum_check(overlap, ambient)
        for _ in range(100):
            p = int(rng.choice((2, 3, 5)))
            d = int(rng.integers(2, 9))
            m = rng.integers(0, p, size=(d, d), dtype=np.int64)
            g, l = fplin.semisimple_power(m, p)
            assert fplin.is_semisimple(g, p)
            assert np.array_equal(g, fplin.mat_pow(m, p**l, p))
            assert p**l >= d and (l == 0 or p ** (l - 1) < d)
            # conjugation preserves semisimplicity; a Jordan block breaks it
            t = _random_invertible(rng, d, p)
            conj = (t @ g @ fplin.mat_inv(t, p)) % p
            assert fplin.is_semisimple(conj, p)
            jordan = np.eye(d, dtype=np.int64)
            jordan[0, 1] = 1
            assert not fplin.is_semisimple(jordan, p)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.3f}s"
    _report(capsys, 7, "randomized linear-algebra suites", body)


FOUR_WEIGHT_GRID = [
    (40, (2, 2, 4, 4)), (48, (4, 4, 4, 4)), (48, (2, 4, 6, 8)),
    (56, (2, 2, 6, 6)), (64, (4, 6, 6, 8)), (64, (2, 4, 4, 6)),
    (72, (4, 4, 8, 8)), (80, (2, 6, 8, 8)), (20, (4, 4, 4, 4)),
]


def test_criterion_8_degree_propagation_derivations(capsys):
    def body():
        for n in range(32, 84, 4):
            scenario, params = connectivity.codim_cascade_scenario(n)
            assert params["f3"] >= math.ceil(Fraction(3 * n, 8)), n
            der = connectivity.derive(scenario.goal, scenario.facts)
            assert der.final == connectivity.periodic("M", 4, 1, n - 1, "rational"), n
            assert connectivity.verify_derivation(der, scenario.facts), n
        for n, weights in FOUR_WEIGHT_GRID:
            assert n % 4 == 0 and all(wt % 2 == 0 for wt in weights)
            scenario, params = connectivity.four_weight_scenario(n, weights)
            der = connectivity.derive(scenario.goal, scenario.facts)
            assert der.final == connectivity.Fact("OddBettiVanish", ("F",))
            assert connectivity.verify_derivation(der, scenario.facts), (n, weights)
    _report(capsys, 8, "degree-propagation derivations", body)


def test_criterion_9_period_combination(capsys):
    def body():
        for k in range(1, 17):
            v = P.combine_periods(k, True, True)
            assert v.hypothesis_met and v.period == math.gcd(4, k) and v.missing == ()
            for flags in ((False, True), (True, False), (False, False)):
                r = P.combine_periods(k, *flags)
                assert not r.hypothesis_met and r.period is None
                assert len(r.missing) == flags.count(False)
    _report(capsys, 9, "period combination", body)
