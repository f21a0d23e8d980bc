"""Window passes decided by the dimension bound and the centroid, checked
against the enumeration they replaced.

_reference_passes is the scan the search made before the dimension bound
and the centroid: one window test per candidate.  reference_search()
patches it in for periodicity._ProductSpan.passes, the one place that
decides a degree's passes, and turns the dimension bound and the centroid
off, and with them the powers of a divisor's inducer, so that past the cap
only the dimension-1 rule is left and a search run inside it gives the
answers the enumeration gave.
"""

import contextlib
import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodica import corpus, fplin
from periodica import periodicity as P
from periodica.algebra import Element, GradedAlgebra
from periodica.periodicity import PeriodicityCertificate, SearchVerdict, _window_failure
from rebasing import rebased


def _reference_passes(self, d):
    """Scan degree d in lexicographic order, yielding each window pass as a row."""
    alg = self.alg
    for v in fplin.enumerate_vectors(alg.dim(d), alg.p):
        if _window_failure(alg, d, v) is None:
            yield v[None]


def stacked(alg, d, blocks):
    """The degree-d row blocks as one array."""
    return np.vstack([np.zeros((0, alg.dim(d)), dtype=np.int64), *blocks])


@contextlib.contextmanager
def reference_search():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P._ProductSpan, "passes", _reference_passes)
        mp.setattr(P, "_centroid_decides", lambda alg, k: False)
        mp.setattr(P, "_ruled_out", lambda alg, k: False)
        yield


def build(text):
    return corpus.build(corpus.parse_spec(text)).algebra


def nested(k, leaf):
    return functools.reduce(lambda a, b: f"ConnectedSum({a},{b})", [leaf] * k)


def power_of_a_divisor(alg, k):
    """x0^(k/b) with factors (x0, ..., x0), for the least divisor b of k
    with 2 <= b < k that the dimensions leave open, the centroid decides
    (so b is direct) and that has an inducer, x0 the generator of its
    test; None when there is no such b."""
    span = P._ProductSpan(alg, P.DEFAULT_SEARCH_CAP)
    for b in range(2, k):
        if k % b == 0 and not P._ruled_out(alg, b) and P._centroid_decides(alg, b):
            test = span.unit_test(b)
            if test is not None:
                x0 = out = test.generator
                for j in range(1, k // b):
                    out = alg.cup(b, x0, j * b, out)
                return PeriodicityCertificate(k, Element.of(k, out), "product",
                                              (Element.of(b, x0),) * (k // b))
    return None


def assert_matches_reference(alg, cap=P.DEFAULT_SEARCH_CAP):
    """Every degree's answer equals the enumeration's, except that past the
    cap an inconclusive answer may become a certificate or exhausted (as
    the uncapped enumeration says), a direct certificate may become another
    one, and a window certificate may become the power x0^(k/b) of a
    divisor's inducer.  Every certificate re-verifies."""
    degrees = range(1, alg.n)
    got = P.search_degrees(alg, degrees, cap=cap)
    with reference_search():
        want = P.search_degrees(alg, degrees, cap=cap)
        moved = [k for k in degrees if got[k] != want[k]]
        truth = (P.search_degrees(alg, degrees)
                 if any(isinstance(want[k], SearchVerdict) for k in moved) else None)
    for k in moved:
        if isinstance(want[k], SearchVerdict):
            assert want[k].status == "inconclusive", k
            assert type(got[k]) is type(truth[k]), k
            if isinstance(truth[k], SearchVerdict):
                assert got[k].status == "exhausted", k
        elif want[k].mode == "window" and got[k].mode == "product":
            assert alg.p ** alg.dim(k) > cap, k
            assert got[k] == power_of_a_divisor(alg, k), k
        else:
            assert want[k].mode == got[k].mode == "direct", k
            assert alg.p ** alg.dim(k) > cap, k
    for out in got.values():
        assert not isinstance(out, PeriodicityCertificate) or P.verify_certificate(alg, out)
    return got


def assert_passes_match(alg):
    """_ProductSpan.passes gives the enumeration's window passes, row for
    row, at every degree, and _direct stacks them at the direct degrees."""
    for d in range(1, alg.n):
        if alg.p ** alg.dim(d) > 5**5:
            continue
        span = P._ProductSpan(alg, P.DEFAULT_SEARCH_CAP)
        want = stacked(alg, d, _reference_passes(span, d))
        assert np.array_equal(stacked(alg, d, span.passes(d)), want), d
        if d <= P.direct_bound(alg.n):
            assert np.array_equal(span._direct(d), want), d


# The specs of the benchmark's period and decompose workloads.
BENCHMARK_SPECS = (
    f"{nested(2, 'ComplexProj(5)')}@5", f"{nested(2, 'ComplexProj(7)')}@5",
    f"{nested(2, 'ComplexProj(8)')}@5", f"{nested(3, 'ComplexProj(4)')}@5",
    f"{nested(3, 'ComplexProj(8)')}@3", f"{nested(4, 'ComplexProj(5)')}@3",
    f"{nested(3, 'QuatProj(3)')}@5", "Product(Sphere(2),ComplexProj(8))@3",
    "Product(Sphere(2),ComplexProj(10))@3", "Product(Sphere(3),QuatProj(3))@3",
    "Product(ComplexProj(3),ComplexProj(4))@5", "Product(ComplexProj(3),ComplexProj(4))@3",
    "Product(ComplexProj(2),ComplexProj(5))@3",
    *(f"{nested(k, 'ComplexProj(6)')}@2" for k in (2, 3, 4, 5)),
    f"{nested(2, 'ComplexProj(6)')}@5",
    *(f"{nested(k, 'ComplexProj(4)')}@2" for k in (4, 6)),
    *(f"{nested(k, 'ComplexProj(4)')}@3" for k in (3, 4)),
)

# Fixtures the other test modules use.
CORPUS_SPECS = (
    "ComplexProj(4)@2", "ComplexProj(6)@3", "ComplexProj(8)@2", "QuatProj(4)@3",
    "QuatProj(5)@2", "Sphere(8)@2", "Sphere(6)@5", "TruncatedPoly(2,5)@3",
    "TruncatedPoly(4,4)@5", "TruncatedPoly(6,3)@7",
    "ConnectedSum(ComplexProj(4),QuatProj(2))@2", "ConnectedSum(ComplexProj(8),QuatProj(4))@2",
    "ConnectedSum(QuatProj(5),QuatProj(5))@2",
    "ConnectedSum(Product(Sphere(2),ComplexProj(4)),ComplexProj(5))@3",
    "ConnectedSum(Product(Sphere(2),ComplexProj(4)),Product(Sphere(2),ComplexProj(4)))@2",
    "Product(ComplexProj(2),ComplexProj(3))@2", "Product(ComplexProj(3),QuatProj(2))@5",
    "Product(Product(Sphere(1),Sphere(3)),Sphere(2))@2",
    "Product(Product(Sphere(3),Sphere(3)),Sphere(5))@5", "Product(Sphere(2),ComplexProj(5))@5",
    "Product(Sphere(3),ComplexProj(3))@3", "Product(Sphere(3),Sphere(5))@3",
    "Product(Sphere(1),Sphere(5))@2",
    "ConnectedSum(ComplexProj(2),Product(Sphere(1),Sphere(3)))@2",
)


@pytest.mark.parametrize("text", BENCHMARK_SPECS + CORPUS_SPECS)
def test_fixtures_match_the_enumeration(text):
    alg = build(text)
    assert_matches_reference(alg)
    assert_matches_reference(rebased(alg, 5))
    assert_passes_match(rebased(alg, 6))


@pytest.mark.parametrize("text", BENCHMARK_SPECS)
def test_minimum_period_and_degree_two_are_unchanged(text):
    alg = build(text)
    got = P.minimum_period(alg), P.find_inducing_element(alg, 2)
    with reference_search():
        assert got == (P.minimum_period(alg), P.find_inducing_element(alg, 2))


def _closed(top):
    bodies = [f"Sphere({top})"]
    if top % 2 == 0:
        bodies.append(f"ComplexProj({top // 2})")
    if top % 4 == 0:
        bodies.append(f"QuatProj({top // 4})")
    bodies += [f"Product(Sphere({i}),Sphere({top - i}))" for i in range(1, top // 2 + 1)]
    return st.sampled_from(bodies)


@st.composite
def _specs(draw):
    if draw(st.booleans()):
        parts = draw(st.lists(_closed(draw(st.integers(4, 10))), min_size=2, max_size=4))
        body = functools.reduce(lambda a, b: f"ConnectedSum({a},{b})", parts)
    else:
        body = f"Product({draw(_closed(draw(st.integers(1, 8))))},{draw(_closed(draw(st.integers(1, 6))))})"
    return f"{body}@{draw(st.sampled_from((2, 3, 5)))}"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_specs(), st.integers(0, 2**16), st.sampled_from((1, 4, 30, P.DEFAULT_SEARCH_CAP)),
       st.booleans())
def test_random_specs_match_the_enumeration(text, seed, cap, rebase):
    alg = build(text)
    if max(alg.p ** d for d in alg.dims) > 5**5:
        return
    if rebase:
        alg = rebased(alg, seed)
    assert_matches_reference(alg, cap=cap)


def test_degree_one_stays_on_the_enumerator():
    period_one = build("Product(Sphere(1),Sphere(5))@2")
    assert not P._centroid_decides(period_one, 1)
    assert assert_matches_reference(period_one)[1].mode == "direct"
    none = build("ConnectedSum(ComplexProj(2),Product(Sphere(1),Sphere(3)))@2")
    assert assert_matches_reference(none)[1].status == "exhausted"


def test_zero_dimensional_direct_degree():
    alg = build("Sphere(8)@2")
    assert not P._centroid_decides(alg, 2)
    assert assert_matches_reference(alg)[2] == PeriodicityCertificate(2, Element(2, ()), "direct")


def _degree_two_algebra(m3, p):
    """Degrees 0, 2 and 4 of dimensions 1, dim V and dim W, top degree 7,
    with the products m3 : V x V -> W and a unit; every triple product is zero."""
    m3 = np.array(m3)
    w, d, _ = m3.shape
    dims = [1, 0, d, 0, w, 0, 0, 0]
    mult = {(0, j): np.eye(dims[j], dtype=np.int64) for j in (0, 2, 4)}
    mult.update({(j, 0): np.eye(dims[j], dtype=np.int64) for j in (2, 4)})
    mult[(2, 2)] = m3.reshape(w, d * d)
    return GradedAlgebra(p, 7, dims, mult)


def test_noncommutative_centroid_means_no_inducer():
    # A symmetric product GF(2)^4 x GF(2)^4 -> GF(2)^3 whose centroid has
    # dimension 4 but does not commute.
    m3 = [[[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
          [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 1]],
          [[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]]
    alg = _degree_two_algebra(m3, 2)
    alg.validate()
    assert P._centroid_decides(alg, 2)
    assert P._unit_test(alg, 2) is None
    assert assert_matches_reference(alg)[2].status == "exhausted"


def test_tables_failing_the_axioms_stay_on_the_enumerator():
    # x_a x_b = y_a, a product that is not commutative
    m3 = np.array([[[1, 1], [0, 0]], [[0, 0], [1, 1]]])
    alg = _degree_two_algebra(m3, 3)
    assert alg.commutativity_defect is not None
    assert not P._centroid_decides(alg, 2)
    assert_matches_reference(alg)


def test_unit_test_passes_exactly_the_direct_inducers():
    """Where an inducer exists, the linear test passes exactly the window passes."""
    for text in ("ConnectedSum(ComplexProj(5),ComplexProj(5))@5",
                 "Product(Sphere(2),ComplexProj(8))@3", f"{nested(3, 'ComplexProj(4)')}@3"):
        alg = rebased(build(text), 2)
        test = P._unit_test(alg, 2)
        units = np.vstack(list(test.units()))
        assert np.array_equal(units, stacked(alg, 2, _reference_passes(P._ProductSpan(alg, 1), 2)))
        assert _window_failure(alg, 2, test.generator) is None


@pytest.mark.parametrize("text, k", [
    ("Product(Sphere(1),Sphere(5))@5", 1), ("QuatProj(3)@5", 4), ("TruncatedPoly(6,3)@7", 6)])
def test_under_the_cap_a_search_stops_at_its_least_pass(text, k, monkeypatch):
    """Where the centroid does not decide k, an under-cap search window-tests
    degree k only up to its least pass: passes yields lazily."""
    alg = build(text)
    assert not P._centroid_decides(alg, k)
    vectors = list(fplin.enumerate_vectors(alg.dim(k), alg.p))
    least = next(i for i, v in enumerate(vectors) if _window_failure(alg, k, v) is None)
    tested = []

    def counted(alg, d, xv):
        tested.append(d)
        return _window_failure(alg, d, xv)

    monkeypatch.setattr(P, "_window_failure", counted)
    out = P.find_inducing_element(alg, k)
    assert out.element == Element.of(k, vectors[least])
    assert tested.count(k) == least + 1 < len(vectors)


def test_a_degree_the_dimensions_rule_out_is_not_window_tested(monkeypatch):
    tested = []
    monkeypatch.setattr(P, "_window_failure", lambda *args: tested.append(args))
    ruled_out = 0
    for text in CORPUS_SPECS:
        alg = build(text)
        span = P._ProductSpan(alg, P.DEFAULT_SEARCH_CAP)
        for k in range(1, alg.n):
            if P._ruled_out(alg, k):
                ruled_out += 1
                assert next(span.passes(k), None) is None, (text, k)
    assert ruled_out and not tested


def test_past_the_cap_direct_degrees_are_decided():
    """Past the cap the Nakayama generator answers a direct degree exactly."""
    big = build(f"{nested(21, 'ComplexProj(6)')}@2")
    assert P.find_inducing_element(big, 2) == \
        PeriodicityCertificate(2, Element(2, (1,) * 21), "direct")
    alg = build(f"{nested(6, 'ComplexProj(6)')}@5")
    out = P.find_inducing_element(alg, 2, cap=100)
    assert out.mode == "direct" and P.verify_certificate(alg, out)
    none = build("Product(ComplexProj(3),ComplexProj(4))@5")
    assert P.find_inducing_element(none, 2, cap=4).status == "exhausted"


@pytest.mark.parametrize("cap", [1, 4])
def test_past_the_cap_powers_and_dimension_one_match_their_definitions(cap, monkeypatch):
    """Past the cap a power answer is x0^(k/b) for the least divisor b of k
    with an inducer, and it induces at the default cap; a dimension-1
    answer is the least window pass, the first of passes(k).  Each fixture
    runs in its own basis and rebased."""
    answers = []
    real = P._power_certificate
    monkeypatch.setattr(P, "_power_certificate",
                        lambda span, k: answers.append((span.alg, k)) or real(span, k))
    powers = ones = 0
    for alg in (a for text in CORPUS_SPECS for a in (build(text), rebased(build(text), 1))):
        found = P.search_degrees(alg, range(1, alg.n), cap=cap)
        for k in (k for a, k in answers if a is alg):
            out, power = found[k], power_of_a_divisor(alg, k)
            if power is not None:
                powers += 1
                assert out == power, (alg, k)
                assert P.verify_certificate(alg, out), (alg, k)
                assert isinstance(P.induces_periodicity(alg, out.element), PeriodicityCertificate)
            elif alg.dim(k) == 1 and getattr(out, "status", None) != "inconclusive":
                ones += 1
                first = next(P._ProductSpan(alg, alg.p).passes(k), None)
                if first is None:
                    assert out.status == "exhausted", (alg, k)
                else:
                    assert out.element == Element.of(k, first[0]), (alg, k)
        answers.clear()
    assert (powers, ones) == {1: (72, 6), 4: (42, 2)}[cap]


def test_found_certificates_satisfy_the_predicate():
    """Every certificate the search finds induces periodicity by the one
    predicate, whatever rule found it."""
    found = 0
    for text in BENCHMARK_SPECS + CORPUS_SPECS:
        alg = build(text)
        span = P._ProductSpan(alg, P.DEFAULT_SEARCH_CAP)
        for k, out in P.search_degrees(alg, range(1, alg.n)).items():
            if isinstance(out, PeriodicityCertificate):
                found += 1
                verdict = P.induces_periodicity(alg, out.element, _span=span)
                assert isinstance(verdict, PeriodicityCertificate), (text, k, verdict)
    assert found == 157


def test_past_the_cap_the_predicate_accepts_the_search_powers():
    """On 24xCP(6)@2 the product search refuses past the cap from degree 4
    on, and degrees 6, 8 and 10 are answered by x0^(k/2).  The predicate
    returns those same certificates; any other element of those degrees is
    still refused with the span's SearchCapExceeded."""
    alg = build(f"{nested(24, 'ComplexProj(6)')}@2")
    found = P.search_degrees(alg, range(1, alg.n))
    certified = {k: out for k, out in found.items() if isinstance(out, PeriodicityCertificate)}
    assert sorted(certified) == [2, 4, 6, 8, 10]
    for k, out in certified.items():
        verdict = P.induces_periodicity(alg, out.element)
        assert isinstance(verdict, PeriodicityCertificate), (k, verdict)
        if k >= 6:
            assert verdict == out and out.mode == "product"
            coeffs = list(out.element.coeffs)
            assert P.induces_periodicity(alg, Element(k, [c + alg.p for c in coeffs])) == out
            coeffs[0] = (coeffs[0] + 1) % alg.p
            with pytest.raises(P.SearchCapExceeded, match="degree 2 has 16777216 candidates"):
                P.induces_periodicity(alg, Element(k, coeffs))


VERDICTS = Path(__file__).parent / "golden" / "search_verdicts.json"


def _as_json(out):
    if isinstance(out, SearchVerdict):
        return {"status": out.status, "reason": out.reason}
    return {"mode": out.mode, "element": list(out.element.coeffs),
            "factors": [[f.degree, list(f.coeffs)] for f in out.factors]}


def search_verdicts():
    """search_degrees over every degree of each CORPUS_SPECS algebra, for
    each cap, as JSON-ready lists keyed by spec and cap."""
    doc = {}
    for text in CORPUS_SPECS:
        alg = build(text)
        for cap in (1, 4, 30, 500, P.DEFAULT_SEARCH_CAP):
            found = P.search_degrees(alg, range(1, alg.n), cap=cap)
            doc[f"{text} cap={cap}"] = [_as_json(out) for out in found.values()]
    return doc


def test_search_verdicts_are_pinned():
    assert search_verdicts() == json.loads(VERDICTS.read_text(encoding="utf-8"))


if __name__ == "__main__":
    # Rewrite the pinned verdicts: PYTHONPATH=src python tests/test_direct_decision.py
    cases = (f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(v) for v in found) + "\n]"
             for key, found in search_verdicts().items())
    VERDICTS.write_text("{\n" + ",\n".join(cases) + "\n}\n", encoding="utf-8")
