"""Quick check of the benchmark itself on tiny inputs; asserts no timings.

    python3 -m pytest -q bench/smoke.py

The file name keeps it out of the package's own test collection.
"""

import json
import os
import tempfile
from pathlib import Path

import run

run.import_package()

import hostclock  # noqa: E402
import tracing  # noqa: E402
from periodica import algebra, periodicity  # noqa: E402
from workloads import (DecomposeCase, PeriodCase, Query, TablesCase,  # noqa: E402
                       Workload, all_workloads, connected_sum, decompose_workload,
                       derive_workload, period_workload, tables_workload)

TINY = {
    "period": period_workload((PeriodCase("ComplexProj(6)@5", 2, (2, 4, 6, 8, 10)),)),
    "decompose": decompose_workload((DecomposeCase(f"{connected_sum(2)}@2", 2),)),
    "derive": derive_workload((28,), ((40, (2, 4, 6, 8)),)),
    "tables": tables_workload((TablesCase("Product(ComplexProj(2),ComplexProj(3))@3", 2, 3),)),
}

# Per-layer metrics each tiny workload must drive above zero.
NONZERO = {
    "period": ("periodicity.find_inducing_element.calls", "algebra.cup_matrix.calls",
               "fplin.enumerate_vectors.yielded", "periodicity.candidate_yield",
               "corpus.build.self_s"),
    "decompose": ("decomposition.multiplication_operator.calls", "decomposition.split_yield",
                  "periodicity.SubquotientAlgebra.cup_matrix.calls",
                  "fplin.restricted_matrix.calls", "fplin.rref.calls"),
    "derive": ("connectivity.derive.calls", "connectivity.derive_yield",
               "connectivity.verify_derivation.self_s"),
    "tables": ("corpus.build.self_s", "algebra.validate.self_s",
               "steenrod.verify_action.self_s"),
}


def test_tiny_workloads_pass_the_oracle_traced_and_untraced():
    for name, workload in TINY.items():
        bench = run.Run(workload, seed=5)
        bench.iteration()
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            bench.iteration(tracer)
        assert bench.failed == [], (name, bench.failed)
        assert bench.attempted == 2 * len(workload.queries(workload.setup(), 5))
        metrics = tracing.layer_metrics(tracer)
        assert set(metrics) == {m for m, _ in tracing.PER_LAYER} - {"trace.overhead_s"}
        for metric in NONZERO[name]:
            assert metrics[metric] > 0, (name, metric)


def test_tracer_restores_every_patched_name():
    classes = (algebra.GradedAlgebra, periodicity.SubquotientAlgebra)

    def methods():
        return {(cls, name): vars(cls).get(name)
                for cls in classes for name in tracing.METHODS if hasattr(cls, name)}
    before, find = methods(), periodicity.find_inducing_element
    with tracing.installed(tracing.Tracer()):
        assert periodicity.find_inducing_element is not find
        during = methods()
        assert all(during[key] is not before[key] for key in during)
    assert periodicity.find_inducing_element is find
    assert methods() == before


def test_wrong_answers_and_raises_count_as_failed():
    def boom():
        raise ZeroDivisionError("boom")
    workload = Workload("synthetic", "failure accounting", (), dict, lambda fixtures, seed: [
        Query("right", lambda: 1, lambda r: None if r == 1 else "wrong"),
        Query("wrong", lambda: 2, lambda r: None if r == 1 else "wrong"),
        Query("raises", boom, lambda r: None),
    ])
    bench = run.Run(workload, seed=1)
    bench.iteration()
    bench.iteration()
    assert bench.attempted == 6 and bench.failed_frac == 4 / 6
    assert sorted(line.split(":")[0] for line in bench.failed) == [
        "raises", "raises", "wrong", "wrong"]


def test_a_mismatched_pin_fails_the_real_oracle():
    bench = run.Run(period_workload((PeriodCase("ComplexProj(6)@5", 3, (3,)),)), seed=1)
    bench.iteration()
    assert bench.attempted == 1 and bench.failed_frac == 1


def test_host_clock_follows_each_step_with_reference_units():
    clock = hostclock.HostClock()
    clock.follow(0.0)
    assert clock.units == 0
    clock.follow(0.004)
    assert clock.units >= 1 and clock.seconds >= hostclock.REF_SHARE * 0.004
    assert clock.scale() == hostclock.REF_UNIT_S * clock.units / clock.seconds


def test_self_time_is_duration_minus_children():
    spans = [tracing.Span("outer", 0.0, 10.0, -1), tracing.Span("left", 1.0, 4.0, 0),
             tracing.Span("leaf", 2.0, 3.0, 1), tracing.Span("right", 5.0, 9.0, 0)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    tracer = tracing.Tracer()
    tracer.call("outer", lambda: [tracer.call("left", lambda: tracer.call("leaf", int)),
                                  tracer.call("right", int)])
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spans.jsonl")
        tracer.write(path)
        rows = [json.loads(line) for line in Path(path).read_text().splitlines()]
    assert [(r["name"], r["parent"]) for r in rows] == [
        ("outer", -1), ("left", 0), ("leaf", 1), ("right", 0)]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(all_workloads())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in all_workloads().items()}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
