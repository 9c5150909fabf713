"""sparsebn benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` beside this
directory. Workloads are described in ``workloads.py`` and BENCHMARK.json.

Set-up (import, ground-truth generation, statement compilation) is repeated
and timed apart from the op loop; ``setup_s`` is the median. With
``--trace 0`` the op set then runs in whole passes, fresh inputs for each,
until another pass would overrun ``--seconds``. Every op's output is checked
after its pass, outside the timed loop. Times are rescaled to a reference
machine speed (``speed.py``). With ``--trace 1`` the op set (a smaller one
for ``sensitivity_thinning``) runs three times: plain, as the reference for
the tracing overhead; traced; and with the failure cache off, which gives the
number of queries the cache skipped. Spans are summed per name and written to
``.perfbench/trace-<workload>-seed<seed>.json``.

Earlier lines of standard output are a report for people; the last line is
one JSON object with the fields ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every check passed, 1 when one failed,
and 2 when the library or the golden results cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from speed import PERIOD_S, REFERENCE_S, probe_s
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, result_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
KEPT_SPANS = (
    "builder.build",
    "builder.select_winner",
    "builder.boundary_stratum",
    "builder.is_imap",
    "builder.is_minimal_imap",
    "expert.compile_statements",
    "harness.random_dag",
    "harness.full_expert_info",
    "harness.sensitivity_experiment",
)


def load_library():
    """Import sparsebn afresh, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "sparsebn" or m.startswith("sparsebn.")]:
        del sys.modules[name]
    sb = importlib.import_module("sparsebn")
    return SimpleNamespace(
        sb=sb,
        harness=sys.modules["sparsebn.harness"],
        cli=None,
        probe_period_s=PERIOD_S,
        build=sb.build,
        is_imap=sb.is_imap,
        is_minimal_imap=sb.is_minimal_imap,
        random_dag=sb.random_dag,
        full_expert_info=sb.full_expert_info,
        compile_statements=sb.compile_statements,
        sensitivity_experiment=sb.sensitivity_experiment,
    )


def set_up(workload, seed: int, size: int):
    """Median set-up time over SETUP_REPEATS imports and input generations,
    each rescaled to reference speed by the probes before and after it."""
    times = []
    before = probe_s()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = load_library()
        inputs = workload.generate(lib, seed, size)
        took = time.perf_counter() - start
        after = probe_s()
        times.append(took * REFERENCE_S / ((before + after) / 2))
        before = after
    lib.cli = importlib.import_module("sparsebn.cli")  # encodes results for checks
    return statistics.median(times), lib, inputs


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: as robust as the median, but it moves smoothly
    where the latencies of a mixture of input sizes leave a gap at the median."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def measure(workload, lib, inputs, seed, size, seconds, golden) -> tuple[dict, dict, list]:
    """Whole passes until another would overrun ``seconds``; at least one."""
    latencies: list[float] = []  # at reference speed
    measured: list[float] = []
    failures: list[str] = []
    wall = 0.0  # as measured
    passes = 0
    calls = None
    while True:
        done = workload.run_pass(lib, inputs)
        wall += done.wall_s
        latencies += done.rescaled_s()
        measured += done.latencies_s
        passes += 1
        if calls is None:
            calls = done.oracle_calls
        if done.oracle_calls == calls:
            failures += workload.check(lib, inputs, done, golden)
        else:
            failures += [f"pass {passes}: oracle calls changed between passes"] * len(done.keys)
        if wall + wall / passes > seconds:
            break
        done = inputs = None  # so that peak RSS holds one pass's data, not two
        inputs = workload.generate(lib, seed, size)
    summary = {
        "passes": passes,
        "ops": len(latencies),
        "loop_s": wall,
        "ops_per_s_as_measured": len(latencies) / wall,
        "op_ms.p50": statistics.median(latencies) * 1000.0,
        "op_ms.iqm_as_measured": interquartile_mean(measured) * 1000.0,
    }
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_ms.iqm": (interquartile_mean(latencies) * 1000.0, "ms"),
        "oracle_calls": (calls, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if len(latencies) >= 2:
        p95 = statistics.quantiles(latencies, n=20)[18]
        beyond = sum(1 for x in latencies if x > p95)
        summary["op_ms.p95"] = p95 * 1000.0 if beyond >= 10 else "not reported"
        summary["op_ms.p95_samples_beyond"] = beyond
    return summary, metrics, failures


def install_tracer(tracer: Tracer, lib, observed: dict) -> SimpleNamespace:
    """Patch every layer boundary; return the entry points the benchmark calls."""
    sb = lib.sb
    oracle, builder = sys.modules["sparsebn.oracle"], sys.modules["sparsebn.builder"]

    def count_independent(answer):
        observed["independent"] += answer

    def record_tie(candidates):
        observed["ties"].append(len(candidates))

    tracer.patch(oracle, "check_query", "dsep.check_query")
    tracer.patch(oracle, "d_separated_checked", "dsep.d_separated_checked")
    tracer.patch(builder, "d_separated_checked", "dsep.d_separated_checked")
    tracer.patch(builder, "select_winner", "builder.select_winner")
    tracer.patch(builder, "boundary_stratum", "builder.boundary_stratum")
    tracer.patch(builder, "is_imap", "builder.is_imap")
    tracer.patch(lib.harness, "build", "builder.build")
    tracer.patch(lib.harness, "compile_statements", "expert.compile_statements")
    tracer.patch(sb.DsepOracle, "is_independent", "oracle.is_independent", count_independent)
    tracer.patch(sb.ExpertInfo, "maximal_candidates", "expert.maximal_candidates", record_tie)
    tracer.patch(sb.ExpertInfo, "priority_compare", "expert.priority_compare")
    tracer.patch(sb.Dag, "ancestor_closures", "dag.ancestor_closures")
    tracer.patch(sb.Dag, "add_arc", "dag.add_arc")
    traced = SimpleNamespace(**vars(lib))
    for attr, name in (
        ("build", "builder.build"),
        ("is_imap", "builder.is_imap"),
        ("is_minimal_imap", "builder.is_minimal_imap"),
        ("random_dag", "harness.random_dag"),
        ("full_expert_info", "harness.full_expert_info"),
        ("compile_statements", "expert.compile_statements"),
        ("sensitivity_experiment", "harness.sensitivity_experiment"),
    ):
        setattr(traced, attr, tracer.wrap(name, getattr(lib, attr)))
    return traced


def trace(workload, lib, inputs, seed, size, golden) -> tuple[dict, dict, int, list]:
    """Plain, traced and uncached passes; per-layer metrics from the spans.

    Times are rescaled to reference speed by the probes at the traced pass's
    ends; none is taken inside it, so that no probe falls inside a span."""
    lib.probe_period_s = math.inf
    plain = workload.run_pass(lib, inputs)
    failures = workload.check(lib, inputs, plain, golden)

    tracer = Tracer(keep=KEPT_SPANS)
    observed = {"independent": 0, "ties": []}
    traced_lib = install_tracer(tracer, lib, observed)
    try:
        traced_inputs = workload.generate(traced_lib, seed, size)
        covered_before = tracer.root_s
        started = time.perf_counter()
        traced = workload.run_pass(traced_lib, traced_inputs)
        elapsed = time.perf_counter() - started - sum(t for _, t in traced.probe.samples)
        covered = tracer.root_s - covered_before
    finally:
        tracer.restore()
    failures += workload.check(lib, traced_inputs, traced, golden)

    uncached = workload.run_uncached(lib, workload.generate(lib, seed, size))
    for key, cached_result, uncached_result in zip(plain.keys, plain.results, uncached.results):
        if result_digest(lib, cached_result) != result_digest(lib, uncached_result):
            failures.append(f"op {key}: the uncached build differs from the cached one")
    attempted = len(plain.keys) + len(traced.keys) + len(uncached.keys)

    skips = uncached.oracle_calls - plain.oracle_calls
    queries = tracer.calls("oracle.is_independent")
    ties = observed["ties"]
    scale = sum(traced.rescaled_s()) / traced.wall_s
    metrics = {}
    for name in (
        "dsep.d_separated_checked",
        "dsep.check_query",
        "oracle.is_independent",
        "builder.select_winner",
        "builder.boundary_stratum",
        "expert.maximal_candidates",
        "dag.ancestor_closures",
        "dag.add_arc",
    ):
        metrics[f"{name}.calls"] = (tracer.calls(name), "count")
        metrics[f"{name}.self_s"] = (tracer.self_s(name) * scale, "s")
    metrics["oracle.is_independent.independent_ratio"] = (
        observed["independent"] / queries if queries else 0.0, "ratio")
    metrics["builder.cache_skips"] = (skips, "count")
    metrics["builder.cache_skip_base"] = (uncached.oracle_calls, "count")
    metrics["builder.cache_skip_ratio"] = (
        skips / uncached.oracle_calls if uncached.oracle_calls else 0.0, "ratio")
    metrics["builder.tie_size.mean"] = (statistics.fmean(ties) if ties else 0.0, "nodes")
    metrics["builder.tie_size.max"] = (max(ties, default=0), "nodes")
    metrics["builder.build.self_s"] = (tracer.self_s("builder.build") * scale, "s")
    metrics["expert.priority_compare.calls"] = (tracer.calls("expert.priority_compare"), "count")
    for name in ("expert.compile_statements", "harness.random_dag", "harness.full_expert_info"):
        metrics[f"{name}.self_s"] = (tracer.self_s(name) * scale, "s")
    metrics["trace.overhead_ratio"] = (sum(traced.rescaled_s()) / sum(plain.rescaled_s()), "ratio")
    metrics["trace.uncovered_s"] = ((elapsed - covered) * scale, "s")

    summary = {
        "plain_pass_s": plain.wall_s,
        "traced_pass_s": traced.wall_s,
        "oracle_calls": plain.oracle_calls,
    }
    tracer.write(
        ROOT / ".perfbench" / f"trace-{workload.name}-seed{seed}.json",
        {"workload": workload.name, "seed": seed, **summary},
    )
    print(f"  {'span (self time as measured)':<34} {'calls':>10} {'self_s':>9} {'share':>7}")
    for name, (count, _, self_s) in sorted(tracer.totals.items(), key=lambda kv: -kv[1][2]):
        if count:
            share = self_s / traced.wall_s
            print(f"  {name:<34} {count:>10} {self_s:>9.4f} {share:>7.1%}")
    return summary, metrics, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", type=int, default=None,
        help="op-set size (specs, trials or cases) in place of the workload's; "
        "for smoke tests",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    size = args.size or (workload.trace_size if args.trace else workload.default_size)

    if not (ROOT / "src" / "sparsebn" / "__init__.py").is_file():
        print(f"sparsebn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden_path = HERE / "golden.json"
    if not golden_path.is_file():
        print(f"golden results not found at {golden_path}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    golden = json.loads(golden_path.read_text(encoding="utf-8"))[workload.name]["ops"]
    # golden results exist for the default seed's inputs; paper_full_info has
    # the same inputs at every seed
    golden_here = golden if workload.golden_check_size is None or args.seed == DEFAULT_SEED else None

    setup_s, lib, inputs = set_up(workload, args.seed, size)
    print(f"workload {workload.name} seed {args.seed} size {size} trace {args.trace}")
    if args.trace:
        summary, metrics, attempted, failures = trace(
            workload, lib, inputs, args.seed, size, golden_here)
    else:
        summary, metrics, failures = measure(
            workload, lib, inputs, args.seed, size, args.seconds, golden_here)
        metrics["setup_s"] = (setup_s, "s")
        attempted = summary["ops"]
    if golden_here is None:
        # other seeds check invariants only, so also replay a slice of the
        # default seed's inputs against the golden results, untimed
        check_inputs = workload.generate(lib, DEFAULT_SEED, workload.golden_check_size)
        done = workload.run_pass(lib, check_inputs)
        failures += workload.check(lib, check_inputs, done, golden)
        attempted += len(done.keys)
        summary["golden_ops"] = len(done.keys)
    else:
        summary["golden_ops"] = "all"
    summary["failed_frac"] = len(failures) / attempted
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
