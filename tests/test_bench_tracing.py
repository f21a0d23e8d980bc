"""The benchmark's tracer (bench/tracing.py) wraps periodica functions and
methods by name at run time.  Every name it wraps must still resolve, and
leaving the tracer must put every patched attribute back, so that deleting
or renaming a traced name fails here instead of in a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import periodica
from periodica import connectivity

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # @dataclass resolves the module's string annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _module(name):
    return importlib.import_module(f"periodica.{name}")


def test_every_traced_function_resolves(tracing):
    missing = [f"{mod}.{name}" for mod, names in tracing.FUNCTIONS.items()
               for name in names if not callable(getattr(_module(mod), name, None))]
    assert missing == []
    assert callable(getattr(_module("fplin"), "enumerate_vectors", None))


def test_every_traced_method_resolves(tracing):
    missing = []
    for mod, cls in tracing.CLASSES:
        owner = getattr(_module(mod), cls, None)
        missing += [f"{mod}.{cls}" if owner is None else f"{mod}.{cls}.{name}"
                    for name in tracing.METHODS if not callable(getattr(owner, name, None))]
    assert missing == []


def test_leaving_the_tracer_restores_every_patched_attribute(tracing):
    owners = [_module(mod) for mod in tracing.FUNCTIONS] + [periodica]
    owners += [getattr(_module(mod), cls) for mod, cls in tracing.CLASSES]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert [dict(vars(owner)) for owner in owners] != before
        scenario, _ = connectivity.four_weight_scenario(40, (2, 2, 4, 4))
        connectivity.derive(scenario.goal, scenario.facts)
    assert [s.name for s in tracer.spans] == ["connectivity.four_weight_scenario",
                                              "connectivity.derive"]
    after = [dict(vars(owner)) for owner in owners]
    for owner, old, new in zip(owners, before, after):
        assert new.keys() == old.keys(), owner
        assert [k for k in old if new[k] is not old[k]] == [], owner
