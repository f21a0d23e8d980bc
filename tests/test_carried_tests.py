"""Unit tests carried along powers of x0, checked against the centroid they
replace.

_ProductSpan.unit_test(d) carries the test of the least divisor b of d that
has direct inducers to degree d, along cupping with x0^(d/b - 1), x0 the
generator at b.  reference_test is what it computed before: _unit_test(alg,
d) and its window check.  Both must pass the same vectors, block for block,
and the carried generator must be x0^(d/b) and verify.
"""

from itertools import zip_longest

import numpy as np
import pytest

from periodica import periodicity as P
from periodica.algebra import Element
from periodica.periodicity import PeriodicityCertificate, _window_failure
from rebasing import rebased
from test_centroid import unit_test_bytes
from test_derived_tables import CORPUS_SPECS, NESTED_SPECS, PERIOD_SPECS
from test_direct_decision import CORPUS_SPECS as SEARCH_SPECS, build, nested

# Degrees with several multiples of 2 below the direct bound.
MULTIPLE_SPECS = ("Product(Sphere(2),ComplexProj(12))@5", "TruncatedPoly(2,12)@3")
# Degree 2 has no inducer, so degrees 4 and 6 solve their own centroids.
PASSED_OVER = "Product(Sphere(2),QuatProj(5))@3"
SPECS = tuple(dict.fromkeys(PERIOD_SPECS + CORPUS_SPECS + SEARCH_SPECS + NESTED_SPECS
                            + MULTIPLE_SPECS + (PASSED_OVER,)))
SEEDS = (1, 2)


def reference_test(alg, d):
    """_unit_test(alg, d) when its generator passes the window test, else None."""
    test = P._unit_test(alg, d)
    return test if test is not None and _window_failure(alg, d, test.generator) is None else None


def carried(alg):
    """(d, b, x0) for each direct degree d the centroid decides whose test is
    carried from b: the least divisor 2 <= b < d that the dimensions leave
    open, the centroid decides and that has inducers; x0 the generator at b."""
    for d in range(2, P.direct_bound(alg.n) + 1):
        if not P._centroid_decides(alg, d):
            continue
        for b in range(2, d):
            if d % b == 0 and not P._ruled_out(alg, b) and P._centroid_decides(alg, b):
                test = reference_test(alg, b)
                if test is not None:
                    yield d, b, test.generator
                    break


def power(alg, b, x0, m):
    """x0^m, x0 of degree b, multiplied from the left one factor at a time."""
    out = x0
    for j in range(1, m):
        out = alg.cup(b, x0, j * b, out)
    return out


def algebras(text):
    alg = build(text)
    return [alg, *(rebased(alg, seed) for seed in SEEDS)]


def test_unit_tests_match_the_centroid():
    """Every degree the centroid decides, in the fixture's basis and in two
    random ones, against the reference: a test computed at d is the same
    bytes, and a carried one passes the same vectors, block for block, with
    the generator x0^(d/b), which verifies.  It moves off d's own Nakayama
    generator only in a random basis."""
    pairs = carries = 0
    moved = [0, 0]  # in the fixture's basis, in a random one
    for text in SPECS:
        for basis, alg in enumerate(algebras(text)):
            span = P._ProductSpan(alg, P.DEFAULT_SEARCH_CAP)
            carry = {d: (b, x0) for d, b, x0 in carried(alg)}
            for d in range(2, P.direct_bound(alg.n) + 1):
                if not P._centroid_decides(alg, d):
                    continue
                pairs += 1
                got, want = span.unit_test(d), reference_test(alg, d)
                if d not in carry:
                    assert unit_test_bytes(got) == unit_test_bytes(want), (text, basis, d)
                    continue
                carries += 1
                assert want is not None, (text, basis, d)
                for g, w in zip_longest(got.units(), want.units()):
                    assert np.array_equal(g, w), (text, basis, d)
                b, x0 = carry[d]
                assert np.array_equal(got.generator, power(alg, b, x0, d // b)), (text, basis, d)
                assert _window_failure(alg, d, got.generator) is None
                cert = PeriodicityCertificate(d, Element.of(d, got.generator), "direct")
                assert P.verify_certificate(alg, cert)
                moved[basis > 0] += not np.array_equal(got.generator, want.generator)
    assert (pairs, carries, moved) == (180, 36, [0, 18])


def test_a_moved_certificate_is_the_power_of_x0():
    """Past the cap, rule 5 at a direct multiple answers x0^(d/b), which
    verifies, where d's own Nakayama generator is another vector."""
    alg = rebased(build("Product(Sphere(2),ComplexProj(12))@5"), 1)
    x0 = P.find_inducing_element(alg, 2, cap=1).element.as_vector()
    moved = 0
    for d in (4, 6):
        out = P.find_inducing_element(alg, d, cap=1)
        own = reference_test(alg, d).generator
        assert out == PeriodicityCertificate(d, Element.of(d, power(alg, 2, x0, d // 2)), "direct")
        assert P.verify_certificate(alg, out)
        moved += not np.array_equal(out.element.as_vector(), own)
    assert moved


@pytest.mark.parametrize("text", ["Product(Sphere(2),ComplexProj(10))@3",
                                  f"{nested(2, 'ComplexProj(8)')}@5"])
def test_a_search_solves_one_centroid(text, monkeypatch):
    """Degrees 4 and 6 read degree 2's test: minimum_period solves the
    centroid at degree 2 only."""
    calls = []
    real = P._centroid
    monkeypatch.setattr(P, "_centroid", lambda alg, k: calls.append(k) or real(alg, k))
    assert P.minimum_period(build(text)).period == 2
    assert calls == [2]


def test_a_divisor_without_inducers_is_passed_over(monkeypatch):
    """Product(Sphere(2),QuatProj(5))@3 has no degree-2 inducer (the sphere
    class squares to zero), so a lone call at degree 4 solves degree 2's
    centroid, finds no test there, and solves degree 4's own."""
    alg = build(PASSED_OVER)
    calls = []
    real = P._centroid
    monkeypatch.setattr(P, "_centroid", lambda alg, k: calls.append(k) or real(alg, k))
    got = P._ProductSpan(alg, P.DEFAULT_SEARCH_CAP).unit_test(4)
    assert calls == [2, 4] and not P._ruled_out(alg, 2)
    assert got is not None and unit_test_bytes(got) == unit_test_bytes(reference_test(alg, 4))
