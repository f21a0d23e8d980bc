"""Periodicity detection, windows, and the window-level consistency checkers.

Numeric oracles are frozen from hand calculations on truncated polynomial
rings and their connected sums.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periodica import corpus, decomposition, fplin
from periodica import periodicity as P
from periodica.algebra import Element, GradedAlgebra
from periodica.periodicity import (ClosureViolation, ConsistencyFailure, PeriodicityCertificate,
                                   SearchCapExceeded, WellDefinednessFailure, WindowRefusal,
                                   _window_failure)
from rebasing import rebased
from window_vectors import embed


def build(text):
    return corpus.build(corpus.parse_spec(text))


def window_of(fx):
    rep = P.minimum_period(fx.algebra)
    return P.subquotient(fx.algebra, rep.certificate, action=fx.action)


def test_direct_certificate_on_complex_projective():
    alg = build("ComplexProj(4)@2").algebra
    out = P.induces_periodicity(alg, Element(2, (1,)))
    assert isinstance(out, PeriodicityCertificate)
    assert out.mode == "direct" and out.k == 2
    assert P.verify_certificate(alg, out)


def test_refusal_names_first_failure():
    alg = build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2").algebra
    out = P.induces_periodicity(alg, Element(2, (1, 0)))
    assert isinstance(out, WindowRefusal)
    assert out.failed_degree == 2 and out.failed_condition == "surjectivity"


def test_window_certificate_above_the_direct_bound():
    """QuatProj(3) (n = 12): 3k > n-1 at k = 4, and 4:1 passes the window
    test with an empty gap, so it is certified in window mode."""
    alg = build("QuatProj(3)@2").algebra
    out = P.induces_periodicity(alg, Element(4, (1,)))
    assert out == PeriodicityCertificate(4, Element(4, (1,)), "window")
    assert P.verify_certificate(alg, out) and P.element_induces(alg, 4, [1])


def test_window_pass_with_an_empty_gap_comes_before_the_product():
    """y^2 for y = 2:1 is a product of direct inducers on both ComplexProj(4)
    (n = 8) and ComplexProj(6) (n = 12).  Only on ComplexProj(4) does
    degree 4 escape the window conditions, so only there is it certified
    as a product."""
    y = Element(2, (1,))
    out = P.induces_periodicity(build("ComplexProj(4)@2").algebra, Element(4, (1,)))
    assert out == PeriodicityCertificate(4, Element(4, (1,)), "product", (y, y))
    out = P.induces_periodicity(build("ComplexProj(6)@2").algebra, Element(4, (1,)))
    assert out == PeriodicityCertificate(4, Element(4, (1,)), "window")


def test_window_mode_refusal_names_a_failed_condition_before_the_gap():
    """On ComplexProj(4) (n = 8) degree 4 escapes the window conditions at
    k = 4, and 4:0 also fails surjectivity from degree 2."""
    alg = build("ComplexProj(4)@2").algebra
    x = Element(4, (0,))
    assert P.induces_periodicity(alg, x) == WindowRefusal(4, x, 2, "surjectivity")
    with pytest.raises(SearchCapExceeded):
        P.induces_periodicity(alg, x, cap=1)


def test_minimum_period_oracles():
    cases = {
        "ComplexProj(4)@2": (2, (2, 4, 6), True),
        "ConnectedSum(ComplexProj(4),ComplexProj(4))@2": (2, (2, 4, 6), True),
        "QuatProj(3)@2": (4, (4,), False),
        "Sphere(8)@2": (1, (1, 2, 3, 4, 5, 6, 7), True),
        "ComplexProj(4)@3": (2, (2, 4, 6), True),
        "QuatProj(3)@3": (4, (4,), False),
    }
    for text, (period, all_periods, checked) in cases.items():
        rep = P.minimum_period(build(text).algebra)
        assert rep.period == period, text
        assert rep.all_periods == all_periods, text
        assert rep.divisibility_checked == checked, text
        assert rep.inconclusive == ()


def test_no_period_on_sphere_product():
    rep = P.minimum_period(build("Product(Sphere(3),Sphere(3))@2").algebra)
    assert rep.period is None and rep.all_periods == ()
    assert rep.inconclusive == ()


def test_window_mode_certificate():
    alg = build("QuatProj(3)@2").algebra
    cert = P.minimum_period(alg).certificate
    assert cert.mode == "window" and cert.k == 4
    assert P.verify_certificate(alg, cert)
    assert P.window_gap(alg, 4) == ()
    assert P.window_gap(alg, 8) != ()
    assert P.window_gap(alg, 9) != ()


def test_truncation_degree_two_never_periodic():
    for text in ("TruncatedPoly(2,2)@2", "TruncatedPoly(4,2)@3"):
        rep = P.minimum_period(build(text).algebra)
        assert rep.period is None, text


def test_subquotient_window_dims():
    w = window_of(build("ComplexProj(4)@2"))
    assert w.window_dims() == (0, 1, 0, 1, 0, 1, 0)
    assert w.total_dim == 3
    w = window_of(build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2"))
    assert w.window_dims() == (0, 2, 0, 2, 0, 2, 0)
    assert w.total_dim == 6
    w = window_of(build("QuatProj(3)@2"))
    assert w.window_dims() == (0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)
    assert w.certificate.mode == "window"


def test_subquotient_shifts_are_bijections():
    for text in ("ComplexProj(4)@2", "ConnectedSum(ComplexProj(4),ComplexProj(4))@2",
                 "QuatProj(4)@2", "ComplexProj(4)@3"):
        w = window_of(build(text))
        for i, m in w.shifts.items():
            assert m.shape[0] == m.shape[1] == w.dim(i)
            if w.dim(i):
                assert fplin.rank(m, w.p) == w.dim(i), (text, i)


def test_subquotient_round_trips():
    rng = np.random.default_rng(3)
    w = window_of(build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2"))
    for i in range(1, w.n - w.k):
        d = w.dim(i)
        if d == 0:
            continue
        for _ in range(4):
            v = rng.integers(0, w.p, size=d)
            assert np.array_equal(w.to_window(i, embed(w, i, v)), v % w.p)
            assert np.array_equal(w.unshift(i, w.shift(i, v)), v % w.p)


def test_forged_certificate_rejected():
    alg = build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2").algebra
    forged = PeriodicityCertificate(2, Element(2, (1, 0)), "direct")
    assert not P.verify_certificate(alg, forged)
    with pytest.raises(WellDefinednessFailure):
        P.subquotient(alg, forged)


def _ones(*dims):
    """Unit tables (0, j) and (j, 0) for the given dimensions."""
    out = {}
    for j, d in enumerate(dims):
        if d:
            out[(0, j)] = out[(j, 0)] = np.eye(d, dtype=np.int64)
    return out


# x of degree 2 on an algebra with top degree 5: window mode (3k > n-1), so
# the lemmas that keep a direct window well defined do not apply.
WINDOW_CERT = PeriodicityCertificate(2, Element(2, (1, 0)), "window")
SQUARES = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]  # x.x, x.w = w.x, w.w


def test_degree1_kernel_class_with_a_nonzero_product_is_refused():
    """GF(2)[u, a, x, w]/(u^2, a^2, ua, xu, uw - xa, wa, degree > 4), |u| = |a| = 1:
    u spans the degree-1 kernel of x, yet u.w = xa is not zero."""
    mult = {**_ones(1, 2, 2, 1, 3), (1, 2): [[0, 1, 1, 0]], (2, 1): [[0, 1, 1, 0]],
            (2, 2): SQUARES}
    alg = GradedAlgebra(2, 5, [1, 2, 2, 1, 3, 0], mult)
    alg.validate()
    assert P.verify_certificate(alg, WINDOW_CERT)
    with pytest.raises(WellDefinednessFailure, match="degree-1 kernel class .* degree 3"):
        P.subquotient(alg, WINDOW_CERT)


@pytest.mark.parametrize("p", [2, 3])
def test_top_product_outside_the_image_is_refused(p):
    """GF(p)[x, w]/(degree > 4): w.w lies outside x.(degree 2) = span(x^2, xw)."""
    alg = GradedAlgebra(p, 5, [1, 0, 2, 0, 3, 0], {**_ones(1, 0, 2, 0, 3), (2, 2): SQUARES})
    alg.validate()
    assert P.verify_certificate(alg, WINDOW_CERT)
    with pytest.raises(WellDefinednessFailure, match="escapes the image"):
        P.subquotient(alg, WINDOW_CERT)


def test_top_product_outside_the_image_in_the_mirrored_order_is_refused():
    """Tables that are not graded-commutative: u.v = x^2 lies in the image,
    v.u = z does not.  Every pair landing in the top degree is checked."""
    mult = {**_ones(1, 1, 1, 1, 2), (1, 2): [[1]], (2, 1): [[1]], (2, 2): [[1], [0]],
            (1, 3): [[1], [0]], (3, 1): [[0], [1]]}
    alg = GradedAlgebra(2, 5, [1, 1, 1, 1, 2, 0], mult)
    cert = PeriodicityCertificate(2, Element(2, (1,)), "window")
    assert P.verify_certificate(alg, cert)
    with pytest.raises(WellDefinednessFailure, match="escapes the image"):
        P.subquotient(alg, cert)


def test_element_induces_uses_products_above_the_bound():
    alg = build("ComplexProj(4)@2").algebra
    # k = 4: beyond the direct bound, y^2 is a product of direct inducers
    assert P.element_induces(alg, 4, np.array([1], dtype=np.int64))
    cs = build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2").algebra
    assert P.element_induces(cs, 2, np.array([1, 1], dtype=np.int64))
    assert not P.element_induces(cs, 2, np.array([1, 0], dtype=np.int64))


@pytest.mark.parametrize("k, vec", [(0, [1]), (12, [1]), (-1, [1]), (6, [1, 1]), (6, [])])
def test_element_induces_refuses_out_of_range_input(k, vec):
    alg = build("ComplexProj(6)@2").algebra
    with pytest.raises(ValueError):
        P.element_induces(alg, k, vec)


@pytest.mark.parametrize("cap", [0, -5])
def test_searches_refuse_a_cap_below_one(cap):
    alg = build("ComplexProj(4)@2").algebra
    for search in (lambda: P.find_inducing_element(alg, 2, cap=cap),
                   lambda: P.search_degrees(alg, [], cap=cap),
                   lambda: P.minimum_period(alg, cap=cap)):
        with pytest.raises(ValueError, match="cap"):
            search()


@pytest.mark.parametrize("bad", [True, 2.5, "5", None])
def test_searches_refuse_a_cap_that_is_not_an_int(bad):
    """A cap of True ran as cap 1, 2.5 left degree 6 of ComplexProj(4)@2
    inconclusive, and "5" and None raised TypeError; each is a ValueError
    naming the argument."""
    fx = build("ComplexProj(4)@2")
    alg, w, x = fx.algebra, window_of(fx), Element(2, (1,))
    for call in (lambda: P.minimum_period(alg, cap=bad),
                 lambda: P.find_inducing_element(alg, 2, cap=bad),
                 lambda: P.induces_periodicity(alg, x, cap=bad),
                 lambda: P.is_irreducible(w, x, cap=bad)):
        with pytest.raises(ValueError, match="the search cap must be an integer"):
            call()
    # the searches draw nothing at random, so they take no sample count or seed
    for search in (P.find_inducing_element, P.search_degrees):
        for knob in ("samples", "seed"):
            with pytest.raises(TypeError):
                search(alg, [2] if search is P.search_degrees else 2, **{knob: bad})
    assert P.minimum_period(alg, cap=np.int64(5)) == P.minimum_period(alg, cap=5)


def test_minimum_period_ignores_its_seed():
    """TruncatedPoly(6,3)@7 has dim A^6 = 1 and 7 candidates there; at cap 1
    sampling once answered (5) with seed 0 and (6) with seed 7."""
    alg = build("TruncatedPoly(6,3)@7").algebra
    got = P.minimum_period(alg, cap=1)
    assert P.minimum_period(alg, cap=1, seed=7) == got
    assert got.certificate == PeriodicityCertificate(6, Element(6, (1,)), "window")


def test_irreducibility_reports():
    w = window_of(build("ComplexProj(4)@2"))
    rep = P.is_irreducible(w, Element(2, (1,)))
    assert rep.irreducible and rep.witness is None

    w = window_of(build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2"))
    rep = P.is_irreducible(w, Element(2, (1, 1)))
    assert not rep.irreducible
    assert rep.witness == (Element(2, (0, 1)), Element(2, (1, 0)))

    # 4:1 is its own window-mode inducer, so (0, 4:1) keeps an inducing summand
    w = window_of(build("QuatProj(3)@2"))
    rep = P.is_irreducible(w, Element(4, (1,)))
    assert rep.irreducible and rep.witness is None


def test_irreducibility_cap():
    w = window_of(build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2"))
    with pytest.raises(SearchCapExceeded):
        P.is_irreducible(w, Element(2, (1, 1)), cap=1)


@pytest.mark.parametrize("x, match", [
    (Element(2, (1,)), "length"), (Element(2, (1, 1, 0)), "length"),
    (Element(0, (1,)), "degree"), (Element(8, (1,)), "degree")])
def test_irreducibility_refuses_a_malformed_element(x, match):
    w = window_of(build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2"))
    with pytest.raises(ValueError, match=match):
        P.is_irreducible(w, x)


@pytest.mark.parametrize("coeffs", [(1.5, 1), ("1", "1"), (1.2, 1.7), (True, 1)])
def test_a_non_integer_coefficient_is_refused_everywhere(coeffs):
    """Element.as_vector refuses what Element.of refuses instead of
    truncating or parsing it, so no check certifies such an element."""
    fx = build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2")
    alg, w, x = fx.algebra, window_of(fx), Element(2, coeffs)
    for call in (lambda: P.induces_periodicity(alg, x),
                 lambda: P.check_products_factors(w, x, Element(2, (1, 1))),
                 lambda: P.is_irreducible(w, x),
                 lambda: P.inducing_power_index(w, x),
                 lambda: decomposition.multiplication_operator(w, x)):
        with pytest.raises(ValueError, match="must be integers"):
            call()
    square = Element.of(4, alg.cup(2, [1, 1], 2, [1, 1]))
    assert P.verify_certificate(alg, PeriodicityCertificate(4, square, "product",
                                                            (Element(2, (1, 1)),) * 2))
    product = PeriodicityCertificate(4, square, "product", (x, Element(2, (1, 1))))
    for cert in (PeriodicityCertificate(2, x, "direct"), product):
        assert not P.verify_certificate(alg, cert)
    with pytest.raises(WellDefinednessFailure):
        P.subquotient(alg, PeriodicityCertificate(2, x, "direct"))


def test_nonperiodic_subspace():
    w = window_of(build("ComplexProj(4)@2"))
    out = P.nonperiodic_subspace(w, 2)
    assert isinstance(out, fplin.Subspace) and out.dim == 0

    w = window_of(build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2"))
    out = P.nonperiodic_subspace(w, 2)
    assert isinstance(out, ClosureViolation)
    assert out.left == Element(2, (0, 1))
    assert out.right == Element(2, (1, 0))
    assert out.total == Element(2, (1, 1))


def test_inducing_power_index():
    w = window_of(build("ComplexProj(4)@2"))
    assert P.inducing_power_index(w, Element(2, (1,))).value == 0
    assert P.inducing_power_index(w, Element(2, (0,))).value is None
    w = window_of(build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2"))
    assert not P.inducing_power_index(w, Element(2, (1, 0))).defined


def test_power_index_additivity():
    w = window_of(build("ComplexProj(4)@2"))
    rep = P.check_power_index_additivity(w, Element(2, (1,)), Element(2, (1,)))
    assert rep.consistent
    assert rep.product_value == 0 and rep.left_value == 0 and rep.right_value == 0


def test_products_factors_biconditional():
    w = window_of(build("ComplexProj(4)@2"))
    rep = P.check_products_factors(w, Element(2, (1,)), Element(2, (1,)))
    assert rep.consistent and rep.product_induces


def test_steenrod_preimage():
    w = window_of(build("ComplexProj(4)@2"))
    rep = P.check_steenrod_preimage(w, Element(2, (1,)), 2)
    assert rep.consistent


def _cs_window():
    return window_of(build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2"))


def test_steenrod_preimage_refuses_a_negative_operation():
    """Sq^-1 was read as the zero map, so the check passed vacuously."""
    with pytest.raises(ValueError, match="operation index"):
        P.check_steenrod_preimage(_cs_window(), Element(2, (1, 1)), -1)


def test_window_checkers_refuse_a_degree_past_the_window():
    """A degree-9 element on an n = 8 window had an undefined power index."""
    w, y = _cs_window(), Element(9, (1,))
    with pytest.raises(ValueError, match="degree 9"):
        P.inducing_power_index(w, y)
    with pytest.raises(ValueError, match="degree 9"):
        P.check_steenrod_preimage(w, y, 1)


def test_window_checkers_refuse_a_vector_of_the_wrong_length():
    w, y = _cs_window(), Element(2, (1, 1, 0))
    with pytest.raises(ValueError, match="length"):
        P.inducing_power_index(w, y)
    with pytest.raises(ValueError, match="length"):
        P.check_steenrod_preimage(w, y, 1)


CAP_TAKERS = {
    "induces_periodicity": lambda w, x, cap: P.induces_periodicity(w, x, cap),
    "element_induces": lambda w, x, cap: P.element_induces(w, 2, x.as_vector(), cap),
    "is_irreducible": lambda w, x, cap: P.is_irreducible(w, x, cap),
    "nonperiodic_subspace": lambda w, x, cap: P.nonperiodic_subspace(w, 2, cap),
    "inducing_power_index": lambda w, x, cap: P.inducing_power_index(w, x, cap),
    "check_power_index_additivity":
        lambda w, x, cap: P.check_power_index_additivity(w, x, x, cap),
    "check_products_factors": lambda w, x, cap: P.check_products_factors(w, x, x, cap),
    "check_steenrod_preimage": lambda w, x, cap: P.check_steenrod_preimage(w, x, 1, cap),
}


@pytest.mark.parametrize("cap", [0, -3])
@pytest.mark.parametrize("name", CAP_TAKERS)
def test_window_questions_refuse_a_cap_below_one(name, cap):
    """A cap below one is bad input, not an inconclusive search."""
    with pytest.raises(ValueError, match="cap"):
        CAP_TAKERS[name](_cs_window(), Element(2, (1, 1)), cap)


def test_minimum_period_form_oracles():
    assert P.check_minimum_period_form(2, 2, 8).description == "2 = 2^1"
    assert P.check_minimum_period_form(2, 4, 16).conformant
    assert not P.check_minimum_period_form(2, 6, 20).conformant
    assert P.check_minimum_period_form(3, 2, 12).lam == 1
    assert P.check_minimum_period_form(3, 4, 20).lam == 2
    v = P.check_minimum_period_form(3, 12, 40)
    assert v.conformant and v.lam == 2 and v.alpha == 1
    assert not P.check_minimum_period_form(3, 10, 40).conformant
    # lam must divide p - 1 only when the degree bound holds
    assert P.check_minimum_period_form(5, 6, 20).conformant
    assert not P.check_minimum_period_form(5, 6, 50).conformant
    assert not P.check_minimum_period_form(5, 3, 20).conformant
    v = P.check_minimum_period_form(5, 6, 20, irreducible=True, window_dim=1)
    assert not v.conformant  # the one-dimensional window also forces lam | p-1


def test_combine_periods():
    import math
    for k in range(1, 17):
        v = P.combine_periods(k, True, True)
        assert v.hypothesis_met and v.period == math.gcd(4, k)
    for flags in ((False, True), (True, False), (False, False)):
        v = P.combine_periods(8, *flags)
        assert not v.hypothesis_met and v.period is None and v.missing


def test_minimum_period_form_refuses_an_unsupported_modulus():
    """p = 0, 1 and 4 are each refused.  p = 1 once looped forever, so the
    calls run in a child process under a timeout."""
    script = ("from periodica import fplin, periodicity as P\n"
              "for p in (0, 1, 4):\n"
              "    try:\n"
              "        P.check_minimum_period_form(p, 6, 20)\n"
              "    except fplin.UnsupportedModulus:\n"
              "        print(p, 'refused')\n")
    env = {**os.environ, "PYTHONPATH": str(Path(P.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.splitlines() == ["0 refused", "1 refused", "4 refused"]


@pytest.mark.parametrize("k", [0, -3])
def test_combine_periods_refuses_a_period_below_one(k):
    with pytest.raises(ValueError, match="positive"):
        P.combine_periods(k, True, True)


def test_product_certificate_factors_are_direct_certificates():
    alg = build("ComplexProj(4)@2").algebra
    x, y = Element(2, (1,)), Element(4, (1,))
    assert P.verify_certificate(alg, PeriodicityCertificate(2, x, "product", (x,)))
    assert P.verify_certificate(alg, PeriodicityCertificate(4, y, "product", (x, x)))
    # The unit has degree 0 and y degree 4 > (8-1)//3: neither is a direct inducer.
    for k, z, factors in ((2, x, (Element(0, (1,)), x)), (2, x, (x, Element(0, (1,)))),
                          (4, y, (y,)), (2, x, ())):
        assert not P.verify_certificate(alg, PeriodicityCertificate(k, z, "product", factors))


def test_found_certificates_verify():
    rng = np.random.default_rng(17)
    texts = ["ComplexProj(4)@2", "ComplexProj(5)@2", "QuatProj(4)@2",
             "ConnectedSum(ComplexProj(5),ComplexProj(5))@2", "ComplexProj(4)@3"]
    for text in texts:
        alg = build(text).algebra
        rep = P.minimum_period(alg)
        for k in rep.all_periods:
            out = P.find_inducing_element(alg, k)
            assert isinstance(out, PeriodicityCertificate)
            assert P.verify_certificate(alg, out), (text, k)


def test_search_verdicts():
    alg = build("Product(Sphere(3),Sphere(3))@2").algebra
    out = P.find_inducing_element(alg, 3)
    assert out.status == "exhausted"
    # past a tiny cap a window-mode degree of dimension 2 that no power of a
    # divisor's inducer reaches stays open
    hs = build("ConnectedSum(QuatProj(3),QuatProj(3))@2").algebra
    out = P.find_inducing_element(hs, 4, cap=1)
    assert out == P.SearchVerdict(
        4, "inconclusive", "4 candidates exceed cap 1; no product or power of inducers found")
    assert P.find_inducing_element(hs, 4).mode == "window"
    # degree 1 has dimension 1, so testing (0) and (1) decides it at any cap
    one = build("ConnectedSum(ComplexProj(2),Product(Sphere(1),Sphere(3)))@2").algebra
    assert P.find_inducing_element(one, 1, cap=1).status == "exhausted"
    assert P.find_inducing_element(one, 1).status == "exhausted"


def test_period_divisibility_failure_is_typed(monkeypatch):
    alg = build("ComplexProj(6)@2").algebra
    cert = P.find_inducing_element(alg, 2)
    monkeypatch.setattr(P, "search_degrees",
                        lambda alg, degrees, **kw: {2: cert, 3: cert})
    with pytest.raises(ConsistencyFailure):
        P.minimum_period(alg)


def test_nonperiodic_subspace_size_check_is_typed(monkeypatch):
    w = window_of(build("ComplexProj(4)@2"))
    monkeypatch.setattr(P, "induces_periodicity", lambda *args, **kwargs: None)
    monkeypatch.setattr(fplin.Subspace, "from_vectors",
                        classmethod(lambda cls, vs, p, dim: fplin.Subspace.zero(p, dim)))
    with pytest.raises(ConsistencyFailure):
        P.nonperiodic_subspace(w, 2)


# The per-degree product span the engine replaced: the reference it must match.

def _direct_inducers_by_degree(alg, max_degree: int, cap: int):
    """Exhaustive direct inducers in each degree d <= max_degree with 3d <= n-1."""
    out = {}
    for d in range(1, max_degree + 1):
        if 3 * d > alg.n - 1:
            break
        size = alg.p ** alg.dim(d)
        if size > cap:
            raise SearchCapExceeded(f"degree {d} has {size} candidates, cap {cap}")
        out[d] = [v for v in fplin.enumerate_vectors(alg.dim(d), alg.p)
                  if _window_failure(alg, d, v) is None]
    return out


def _product_span(alg, k: int, cap: int):
    """Degree-k products of direct inducers, keyed by vector with factor lists.

    First factorization in (degree, prefix, factor) lexicographic order wins,
    so the result is deterministic.
    """
    max_degree = min((alg.n - 1) // 3, k - 1)
    inducers = _direct_inducers_by_degree(alg, max_degree, cap)
    reach: dict[int, dict[tuple, tuple[Element, ...]]] = {}
    for d, vs in inducers.items():
        reach[d] = {}
        for v in vs:
            reach[d].setdefault(tuple(int(c) for c in v), (Element.of(d, v),))
    stored = sum(len(m) for m in reach.values())
    for d in range(2, k + 1):
        grown = reach.setdefault(d, {})
        for b in sorted(inducers):
            a = d - b
            if a < 1 or a not in reach or a == d:
                continue
            for ta in sorted(reach[a]):
                fa = reach[a][ta]
                for vb in inducers[b]:
                    w = alg.cup(a, np.array(ta, dtype=np.int64), b, vb)
                    tw = tuple(int(c) for c in w)
                    if tw not in grown:
                        grown[tw] = fa + (Element.of(b, vb),)
                        stored += 1
                        if stored > cap:
                            raise SearchCapExceeded(
                                f"product search stored over {cap} vectors")
    return reach.get(k, {})


def _refusal_or(fn):
    try:
        return fn()
    except SearchCapExceeded as exc:
        return str(exc)


def assert_span_matches_reference(alg, caps):
    """Every degree, queried upward and downward through one shared engine,
    gives the reference's keys in its order with its factors, or its refusal."""
    for cap in caps:
        want = {k: _refusal_or(lambda: list(_product_span(alg, k, cap).items()))
                for k in range(1, alg.n)}
        for degrees in (range(1, alg.n), range(alg.n - 1, 0, -1)):
            span = P._ProductSpan(alg, cap)
            for k in degrees:
                got = _refusal_or(lambda: [(t, span.factors(k, t)) for t in span.span(k)])
                assert got == want[k], (cap, k)


SPAN_CAPS = (50, 500, P.DEFAULT_SEARCH_CAP)


@pytest.mark.parametrize("text", [
    "ComplexProj(4)@2", "ComplexProj(6)@3", "QuatProj(4)@2", "Sphere(8)@2",
    "TruncatedPoly(2,5)@3", "ConnectedSum(ComplexProj(4),ComplexProj(4))@2",
    "ConnectedSum(ComplexProj(5),ComplexProj(5))@5",
    "ConnectedSum(ConnectedSum(ComplexProj(4),ComplexProj(4)),ComplexProj(4))@5",
    "ConnectedSum(QuatProj(3),QuatProj(3))@2", "Product(Sphere(3),QuatProj(3))@3",
    "Product(Sphere(2),ComplexProj(8))@3", "Product(ComplexProj(2),ComplexProj(3))@3",
])
def test_product_span_matches_reference(text):
    assert_span_matches_reference(build(text).algebra, SPAN_CAPS)


@pytest.mark.parametrize("text", ["ConnectedSum(ComplexProj(5),ComplexProj(5))@5",
                                  "Product(Sphere(2),ComplexProj(8))@3"])
def test_product_span_matches_reference_on_windows(text):
    assert_span_matches_reference(window_of(build(text)), SPAN_CAPS)


def _closed(top):
    """Fixture bodies with top degree top that can be connected-summed."""
    bodies = [f"Sphere({top})"]
    if top % 2 == 0:
        bodies.append(f"ComplexProj({top // 2})")
    if top % 4 == 0:
        bodies.append(f"QuatProj({top // 4})")
    bodies += [f"Product(Sphere({i}),Sphere({top - i}))" for i in range(2, top // 2 + 1)]
    return st.sampled_from(bodies)


@st.composite
def _small_specs(draw):
    if draw(st.booleans()):
        parts = draw(st.lists(_closed(draw(st.integers(4, 8))), min_size=2, max_size=3))
        body = functools.reduce(lambda a, b: f"ConnectedSum({a},{b})", parts)
    else:
        left, right = draw(_closed(draw(st.integers(1, 6)))), draw(_closed(draw(st.integers(1, 6))))
        body = f"Product({left},{right})"
    return f"{body}@{draw(st.sampled_from((2, 3, 5)))}"


def test_rebased_algebra_keeps_its_periods():
    alg = rebased(build("ConnectedSum(ComplexProj(4),ComplexProj(4))@3").algebra, 1)
    alg.validate()
    rep = P.minimum_period(alg)
    assert (rep.period, rep.all_periods) == (2, (2, 4, 6))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_specs(), st.integers(0, 2**16), st.integers(1, 120))
def test_product_span_matches_reference_on_random_specs(text, seed, cap):
    alg = build(text).algebra
    assume(max(alg.p ** d for d in alg.dims) <= 125)
    assert_span_matches_reference(rebased(alg, seed), (cap,) + SPAN_CAPS)


@pytest.mark.parametrize("text", ["ComplexProj(8)@3", "ConnectedSum(ComplexProj(6),ComplexProj(6))@3"])
def test_product_span_refuses_at_every_cap_the_reference_does(text):
    assert_span_matches_reference(build(text).algebra, range(1, 31))


def _nested(k, leaf):
    return functools.reduce(lambda a, b: f"ConnectedSum({a},{b})", [leaf] * k)


CP6_4 = f"{_nested(4, 'ComplexProj(6)')}@5"


def test_product_span_refuses_at_the_boundary_of_its_count():
    """On 3 x ComplexProj(4) at p = 5 every degree past 2 is grown as one
    linear image, and span's count T reaches 64, 128 and 192 at degrees 3,
    4 and 6.  Every degree is checked against the reference at the caps
    T(k) - 1, T(k) and T(k) + 1 of every k."""
    alg = build(f"{_nested(3, 'ComplexProj(4)')}@5").algebra
    span = P._ProductSpan(alg, P.DEFAULT_SEARCH_CAP)
    totals = [sum(len(span._reach_keys(d)) for d in range(1, k)) + len(span.span(k))
              for k in range(1, alg.n)]
    assert totals == [0, 0, 64, 128, 128, 192, 192]
    assert {span._unit_degree(d) for d in range(3, alg.n)} == {2}
    assert_span_matches_reference(alg, sorted({t + e for t in totals for e in (-1, 0, 1)} - {-1, 0}))


def _every_span(alg, cap):
    span = P._ProductSpan(alg, cap)
    return [_refusal_or(lambda: [(t, span.factors(k, t)) for t in span.span(k)])
            for k in range(1, alg.n)]


@pytest.mark.parametrize("text, b", [
    (CP6_4, 2), ("ConnectedSum(QuatProj(6),QuatProj(6))@3", 4),
    ("Product(Sphere(3),QuatProj(3))@3", 4),
    ("Sphere(8)@2", None), ("Product(Sphere(1),Sphere(5))@2", None),
])
def test_linear_span_matches_the_block_engine(text, b, monkeypatch):
    """Where the premise holds (least inducer degree b), every degree past b
    is grown as one linear image; where it fails, by the blocks.  Either
    way each degree's keys, order, factors and refusals are the ones the
    block engine gives with the premise switched off."""
    alg = build(text).algebra
    span = P._ProductSpan(alg, P.DEFAULT_SEARCH_CAP)
    span.span(alg.n - 1)
    assert {span._unit_degree(d) for d in range((b or 1) + 1, alg.n)} == {b}
    linear = [_every_span(alg, cap) for cap in SPAN_CAPS]
    monkeypatch.setattr(P._ProductSpan, "_unit_degree", lambda self, d: None)
    assert linear == [_every_span(alg, cap) for cap in SPAN_CAPS]


def test_linear_span_multiplies_one_reach_row(monkeypatch):
    """On 4 x ComplexProj(6) at p = 5 each even degree d >= 4 passes |U| =
    256 rows to _block_products, for the unit group U of degree 2, where
    the block engine passes |reach(d - 2)| * |U| = 65536."""
    alg = build(CP6_4).algebra
    rows, grown = {}, []
    multiply, block = P._ProductSpan._multiply, P._block_products

    def counted_multiply(self, d, held, limit):
        grown.append(d)
        return multiply(self, d, held, limit)

    def counted_block(m3, left, right, p):
        rows[grown[-1]] = rows.get(grown[-1], 0) + len(left) * len(right)
        return block(m3, left, right, p)

    monkeypatch.setattr(P._ProductSpan, "_multiply", counted_multiply)
    monkeypatch.setattr(P, "_block_products", counted_block)
    span = P._ProductSpan(alg, P.DEFAULT_SEARCH_CAP)
    span.span(alg.n - 1)
    units = len(span._direct(2))
    assert units == 256 and len(span._reach_keys(2)) == 256
    assert rows == {d: units for d in range(4, alg.n, 2)}


def test_unreachable_window_degrees_are_exhausted_at_any_cap():
    """On 9 x ComplexProj(6) degree 11 has a nonempty window gap and every
    inducer degree is even, so no product reaches it: exhausted, although
    degree 2 alone has 5^9 candidates, past the cap.  Degree 10 gets x0^5,
    x0 the degree-2 generator."""
    alg = build(f"{_nested(9, 'ComplexProj(6)')}@5").algebra
    out = P.find_inducing_element(alg, 11)
    assert out.status == "exhausted" and out.reason.startswith("no product of inducers")
    x0 = P.find_inducing_element(alg, 2).element
    ten = P.find_inducing_element(alg, 10)
    assert ten.mode == "product" and ten.factors == (x0,) * 5
    assert P.verify_certificate(alg, ten)


def test_block_products_are_exact_near_the_bound():
    """Residues just below p = 2097143: each block product matches Python integers."""
    p = 2097143
    rng = np.random.default_rng(3)
    m3 = rng.integers(p - 50, p, size=(3, 4, 2))
    left = rng.integers(p - 50, p, size=(5, 4))
    right = rng.integers(p - 50, p, size=(6, 2))
    got = P._block_products(m3, left, right, p)
    for r in range(5):
        for s in range(6):
            want = [sum(int(m3[t, a, b]) * int(left[r, a]) * int(right[s, b])
                        for a in range(4) for b in range(2)) % p for t in range(3)]
            assert got[r * 6 + s].tolist() == want
