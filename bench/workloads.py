"""The benchmark's workloads: their inputs, their queries and the oracle.

A workload's `setup` builds fresh fixtures from its fixed inputs; one pass
answers every query of the workload against those fixtures.  Each query
returns its result, and `check` compares that result with the answer
pinned here, returning None when it agrees and a message when it does not.
Queries look the library functions up when they run, so a tracer that
wraps them sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from periodica import (algebra, connectivity, corpus, decomposition, periodicity,
                       steenrod)


@dataclass(frozen=True)
class Query:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: tuple
    setup: Callable[[], dict]
    queries: Callable[[dict, int], list]


def connected_sum(k: int, leaf: str = "ComplexProj(6)") -> str:
    """Body of a left-nested ConnectedSum of k copies of leaf."""
    body = leaf
    for _ in range(k - 1):
        body = f"ConnectedSum({body},{leaf})"
    return body


def build_fixtures(specs) -> dict:
    return {spec: corpus.build(corpus.parse_spec(spec)) for spec in specs}


# --- period: minimum_period over every degree -------------------------------

@dataclass(frozen=True)
class PeriodCase:
    spec: str
    period: int | None
    all_periods: tuple


def _check_period(case: PeriodCase, expectation, rep) -> str | None:
    if rep.inconclusive:
        return f"inconclusive in degrees {rep.inconclusive}"
    if (rep.period, rep.all_periods) != (case.period, case.all_periods):
        return (f"period {rep.period}, periods {rep.all_periods}; "
                f"expected {case.period}, {case.all_periods}")
    if expectation.min_period is not None and rep.period != expectation.min_period:
        return f"period {rep.period} disagrees with the corpus {expectation.min_period}"
    if expectation.periodic is not None and (rep.period is not None) != expectation.periodic:
        return f"periodic is {rep.period is not None}, the corpus says {expectation.periodic}"
    return None


def period_workload(cases) -> Workload:
    def queries(fixtures, seed):
        out = []
        for case in cases:
            fx = fixtures[case.spec]
            out.append(Query(
                case.spec,
                lambda alg=fx.algebra: periodicity.minimum_period(alg, seed=seed),
                lambda rep, case=case, exp=fx.expectation: _check_period(case, exp, rep)))
        return out
    return Workload(
        "period",
        "minimum_period on thirteen fixtures: per-vector cup and the product span dominate, "
        "decomposition does no work",
        tuple(c.spec for c in cases),
        lambda: build_fixtures(c.spec for c in cases),
        queries)


# --- decompose: certificate, window, split, re-verification -----------------

@dataclass(frozen=True)
class DecomposeCase:
    spec: str
    summands: int


def _decompose_chain(fx):
    cert = periodicity.find_inducing_element(fx.algebra, 2)
    if not isinstance(cert, periodicity.PeriodicityCertificate):
        return cert, None, None
    window = periodicity.subquotient(fx.algebra, cert, action=fx.action)
    result = decomposition.decompose(window)
    return cert, result, decomposition.verify_decomposition(window, result)


def _check_decompose(case: DecomposeCase, expectation, out) -> str | None:
    cert, result, report = out
    if result is None:
        return f"no degree-2 certificate: {cert.status}: {cert.reason}"
    if result.summand_count != case.summands:
        return f"{result.summand_count} summands, expected {case.summands}"
    if expectation.summand_count not in (None, result.summand_count):
        return f"the corpus expects {expectation.summand_count} summands"
    if not report.ok:
        return "verify_decomposition: " + "; ".join(report.violations)
    return None


def decompose_workload(cases) -> Workload:
    def queries(fixtures, seed):
        return [Query(case.spec,
                      lambda fx=fixtures[case.spec]: _decompose_chain(fx),
                      lambda out, case=case, exp=fixtures[case.spec].expectation:
                          _check_decompose(case, exp, out))
                for case in cases]
    return Workload(
        "decompose",
        "certificate, window, split and re-check: rref, restricted_matrix and the splitting "
        "search dominate, no product span",
        tuple(c.spec for c in cases),
        lambda: build_fixtures(c.spec for c in cases),
        queries)


# --- derive: forward chaining in connectivity, no numpy ---------------------

def _derive(scenario):
    derivation = connectivity.derive(scenario.goal, scenario.facts)
    return derivation, connectivity.verify_derivation(derivation, scenario.facts)


def _check_derive(goal, out) -> str | None:
    derivation, verified = out
    if derivation.goal != goal:
        return "the derivation targets another goal"
    if verified is not True:
        return "verify_derivation rejected the derivation"
    return None


def derive_workload(cascade_ns, weight_cases) -> Workload:
    """The cascade template is called inside the pass: its search for
    codimensions that derive, saturated attempts included, is measured work.
    The four-weight template only assembles facts, so it is the set-up."""
    def setup():
        return {f"four-weight n={n} {ws}": connectivity.four_weight_scenario(n, ws)[0]
                for n, ws in weight_cases}

    def queries(fixtures, seed):
        goals = {n: connectivity.periodic("M", 4, 1, n - 1, "rational") for n in cascade_ns}
        out = [Query(f"cascade n={n}",
                     lambda n=n: _derive(connectivity.codim_cascade_scenario(n)[0]),
                     lambda result, goal=goals[n]: _check_derive(goal, result))
               for n in cascade_ns]
        odd_betti = connectivity.Fact("OddBettiVanish", ("F",))
        out += [Query(label, lambda s=s: _derive(s),
                      lambda result: _check_derive(odd_betti, result))
                for label, s in fixtures.items()]
        return out
    inputs = (f"codim_cascade_scenario(n) for n in {cascade_ns[0]}..{cascade_ns[-1]} "
              f"step 4 ({len(cascade_ns)} scenarios)",
              *(f"four_weight_scenario({n}, {ws})" for n, ws in weight_cases))
    return Workload(
        "derive",
        "cascade and four-weight scenarios: pure-Python forward chaining, no numpy, so numpy "
        "work should not move it",
        inputs, setup, queries)


# --- tables: build, serialise, validate, duality, Steenrod action -----------

@dataclass(frozen=True)
class TablesCase:
    spec: str
    cp_a: int
    cp_b: int

    def dims(self) -> list:
        """Kunneth dimensions of CP(a) x CP(b): one class in each even degree
        of each factor, so degree 2m has one class per split m = i + j."""
        return [0 if d % 2 else sum(1 for i in range(self.cp_a + 1)
                                    if 0 <= d // 2 - i <= self.cp_b)
                for d in range(2 * (self.cp_a + self.cp_b) + 1)]


def _tables_chain(spec):
    fx = corpus.build(spec)
    alg = algebra.GradedAlgebra.from_dict(fx.algebra.to_dict())
    alg.validate()
    dual = algebra.verify_poincare_duality(alg)
    act = steenrod.SteenrodAction.from_dict(alg, fx.action.to_dict())
    steenrod.verify_action(alg, act)
    return alg, dual


def _check_tables(case: TablesCase, out) -> str | None:
    alg, dual = out
    if list(alg.dims) != case.dims():
        return f"dimensions {list(alg.dims)} differ from the Kunneth count"
    if dual is not True:
        return "verify_poincare_duality failed"
    return None


def tables_workload(cases) -> Workload:
    """Building the tables is the measured work here, so the set-up only
    parses the specs."""
    def queries(fixtures, seed):
        return [Query(case.spec,
                      lambda spec=fixtures[case.spec]: _tables_chain(spec),
                      lambda out, case=case: _check_tables(case, out))
                for case in cases]
    return Workload(
        "tables",
        "build, round-trip and check product tables: whole-table einsums and the Cartan "
        "check, not the per-vector cup loop",
        tuple(c.spec for c in cases),
        lambda: {c.spec: corpus.parse_spec(c.spec) for c in cases},
        queries)


# Every query is short (a few milliseconds to about 0.35 s on a 2-core
# Xeon VM), so a run repeats each one many times; see run.py for why.
PERIOD_CASES = (
    PeriodCase(f"{connected_sum(2, 'ComplexProj(5)')}@5", 2, (2, 4, 6, 8)),
    PeriodCase(f"{connected_sum(2, 'ComplexProj(7)')}@5", 2, tuple(range(2, 13, 2))),
    PeriodCase(f"{connected_sum(2, 'ComplexProj(8)')}@5", 2, tuple(range(2, 15, 2))),
    PeriodCase(f"{connected_sum(3, 'ComplexProj(4)')}@5", 2, (2, 4, 6)),
    PeriodCase(f"{connected_sum(3, 'ComplexProj(8)')}@3", 2, tuple(range(2, 15, 2))),
    PeriodCase(f"{connected_sum(4, 'ComplexProj(5)')}@3", 2, (2, 4, 6, 8)),
    PeriodCase(f"{connected_sum(3, 'QuatProj(3)')}@5", 4, (4,)),
    PeriodCase("Product(Sphere(2),ComplexProj(8))@3", 2, tuple(range(2, 17, 2))),
    PeriodCase("Product(Sphere(2),ComplexProj(10))@3", 2, tuple(range(2, 21, 2))),
    PeriodCase("Product(Sphere(3),QuatProj(3))@3", 4, (4, 8, 12)),
    PeriodCase("Product(ComplexProj(3),ComplexProj(4))@5", None, ()),
    PeriodCase("Product(ComplexProj(3),ComplexProj(4))@3", None, ()),
    PeriodCase("Product(ComplexProj(2),ComplexProj(5))@3", None, ()),
)
DECOMPOSE_CASES = (
    *(DecomposeCase(f"{connected_sum(k)}@2", k) for k in (2, 3, 4, 5)),
    DecomposeCase(f"{connected_sum(2)}@5", 2),
    *(DecomposeCase(f"{connected_sum(k, 'ComplexProj(4)')}@2", k) for k in (4, 6)),
    *(DecomposeCase(f"{connected_sum(k, 'ComplexProj(4)')}@3", k) for k in (3, 4)),
)
CASCADE_NS = tuple(range(28, 1997, 4))
WEIGHT_CASES = ((40, (2, 4, 6, 8)), (48, (2, 2, 4, 8)),
                (64, (2, 6, 10, 14)), (100, (4, 8, 12, 16)))
TABLES_CASES = tuple(
    TablesCase(f"Product(ComplexProj({a}),ComplexProj({b}))@{p}", a, b)
    for a, b, p in ((4, 4, 2), (6, 6, 2), (7, 7, 2), (5, 5, 3), (6, 6, 3), (8, 8, 3),
                    (5, 7, 3), (6, 6, 5), (6, 8, 5)))


def all_workloads() -> dict:
    return {w.name: w for w in (period_workload(PERIOD_CASES),
                                decompose_workload(DECOMPOSE_CASES),
                                derive_workload(CASCADE_NS, WEIGHT_CASES),
                                tables_workload(TABLES_CASES))}
