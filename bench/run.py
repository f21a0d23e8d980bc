"""Benchmark of the periodica package: one workload per run.

    python3 bench/run.py --workload period --seed 1 --seconds 20 --trace 0

Imports periodica from `src/` of the checkout this file sits in.  One
process, one caller, closed loop: each query starts when the last one
returns.  A run repeats iterations until `--seconds` would be exceeded; an
iteration builds fresh fixtures (timed as set-up) and then makes one pass
over every query in an order drawn from the seed (timed as wall time), so
a cache an earlier pass filled cannot make a later pass free.  Every answer
is checked against the oracle in workloads.py after its pass.

Each query and each set-up is followed by reference work (hostclock.py),
and `wall_s` and `setup_s` are scaled to a host of fixed speed, because the
shared host's own speed drifts by up to half.  The unscaled times are
printed too, for people.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
it alternates untraced and traced iterations and reports the per-layer
metrics of the traced ones plus the tracing overhead.  The last line of
standard output is one JSON object; the lines before it are for people.
Exit status: 0 when every answer is right, 1 when one is wrong, 2 when the
package cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
# An untraced iteration repeats a cheaper set-up until its set-ups add up to
# this, so that the median of a set-up of a fraction of a millisecond rests
# on enough samples.
SETUP_MIN_S = 0.02


def import_package():
    """Import periodica from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "periodica" / "__init__.py").is_file():
        print(f"bench: no periodica package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    # The package does integer arithmetic only, so BLAS threads would sit
    # idle; keep the process to the one thread the closed loop needs.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy
    import periodica
    return periodica, numpy


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(queries, order, clock) -> tuple[float, list]:
    """Answer every query in the given order, each followed by the clock's
    reference work; return the queries' summed wall time and, per query,
    (result, None) or (None, error message) if it raised."""
    wall_s, outcomes = 0.0, [None] * len(queries)
    for i in order:
        start = perf_counter()
        try:
            outcomes[i] = (queries[i].run(), None)
        except Exception as exc:  # a raise is a failed query, not a crash
            outcomes[i] = (None, f"{type(exc).__name__}: {exc}")
        took = perf_counter() - start
        wall_s += took
        clock.follow(took)
    return wall_s, outcomes


def failures(queries, outcomes) -> list[str]:
    out = []
    for query, (result, error) in zip(queries, outcomes):
        problem = error if error is not None else query.check(result)
        if problem is not None:
            out.append(f"{query.label}: {problem}")
    return out


class Run:
    """One benchmark run: its iterations, samples and failure counts."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = []

    @property
    def failed_frac(self) -> float:
        return len(self.failed) / self.attempted

    def iteration(self, tracer=None) -> tuple[list, float, float]:
        """Set up fresh fixtures, keep the last of them, and make one pass;
        return the set-up times, the pass's wall time and the host clock's
        scale over the iteration.  An untraced iteration sets up at least
        SETUP_REPEATS times and for at least SETUP_MIN_S, because one set-up
        is short next to a pass and its median needs more samples."""
        call = tracer.call if tracer is not None else (lambda _name, fn, *a: fn(*a))
        clock = HostClock()
        setups = []
        gc.collect()
        while not setups or tracer is None and (len(setups) < SETUP_REPEATS
                                                or sum(setups) < SETUP_MIN_S):
            start = perf_counter()
            fixtures = call("bench.setup", self.workload.setup)
            setups.append(perf_counter() - start)
        clock.follow(sum(setups))
        queries = self.workload.queries(fixtures, self.seed)
        order = list(range(len(queries)))
        self.rng.shuffle(order)
        gc.collect()
        wall_s, outcomes = call("bench.pass", run_pass, queries, order, clock)
        self.attempted += len(queries)
        self.failed += failures(queries, outcomes)
        return setups, wall_s, clock.scale()


def summary(name: str, values: list, unit: str) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return f"{name:<16} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="with --trace 1, write the last traced "
                                    "iteration's spans to this file as JSON lines")
    args = ap.parse_args(argv)
    if args.spans and not args.trace:
        ap.error("--spans needs --trace 1")

    periodica, numpy = import_package()
    import tracing
    from workloads import all_workloads
    from periodica import periodicity

    workloads = all_workloads()
    if args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    run = Run(workloads[args.workload], args.seed)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.workload.why}")
    print(f"# inputs {'; '.join(run.workload.inputs)}")
    print(f"# machine nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} periodica={periodica.__version__} "
          f"commit={git_commit()} search_cap={periodicity.DEFAULT_SEARCH_CAP}")

    deadline = perf_counter() + args.seconds
    # Unscaled and scaled set-up and pass times, and scaled traced passes.
    setups, walls, scaled_setups, scaled_walls, scaled_traced, layers = [], [], [], [], [], []
    tracer = tracing.Tracer()
    while True:
        began = perf_counter()
        setup_times, wall_s, scale = run.iteration()
        setups += setup_times
        walls.append(wall_s)
        scaled_setups += [t * scale for t in setup_times]
        scaled_walls.append(wall_s * scale)
        if args.trace:
            tracer.clear()
            with tracing.installed(tracer):
                _, wall_s, scale = run.iteration(tracer)
            scaled_traced.append(wall_s * scale)
            layers.append(tracing.layer_metrics(tracer, scale))
        if perf_counter() + (perf_counter() - began) > deadline:
            break

    if args.trace:
        metrics = tracing.median_metrics(layers)
        metrics["trace.overhead_s"] = (statistics.median(scaled_traced)
                                       - statistics.median(scaled_walls))
        units = dict(tracing.PER_LAYER)
        print(summary("traced wall_s", scaled_traced, "s"))
        if args.spans:
            tracer.write(args.spans)
    else:
        metrics = {
            "wall_s": statistics.median(scaled_walls),
            "setup_s": statistics.median(scaled_setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END
    print(summary("wall_s", scaled_walls, "s"))
    print(summary("setup_s", scaled_setups, "s"))
    print(summary("unscaled wall", walls, "s"))
    print(summary("unscaled setup", setups, "s"))
    for name, value in metrics.items():
        print(f"{name:<50} {value:.6g} {units[name]}")
    failed = len(run.failed)
    print(f"failed_frac  {run.failed_frac:.6g}  ({failed} of {run.attempted} queries)")
    for line in run.failed[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not run.failed else 1


if __name__ == "__main__":
    sys.exit(main())
