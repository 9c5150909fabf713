"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Each workload runs at a tiny size, at the default seed and at another
   seed, plain and traced. Each run must exit 0, pass its checks and print
   exactly the metrics BENCHMARK.json names, with their units.
2. The golden check is live: a result with one arc removed fails it, while
   the unmodified results pass.

Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import subprocess
import sys

from run import HERE, ROOT, load_library
from workloads import DEFAULT_SEED, WORKLOADS, golden_failures

SIZES = {"paper_full_info": 2, "sensitivity_thinning": 1, "verify_minimal": 30}


def check_metrics_emitted(bench: dict) -> list[str]:
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[kind]}
        for name, size in SIZES.items():
            for seed in (DEFAULT_SEED, 3):
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                    "--size", str(size),
                ]
                done = subprocess.run(
                    command, capture_output=True, text=True, timeout=300, cwd=ROOT
                )
                where = f"{name} seed {seed} trace {trace}"
                if done.returncode != 0:
                    problems.append(f"{where}: exit {done.returncode}\n{done.stdout}{done.stderr}")
                    continue
                result = json.loads(done.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    problems.append(f"{where}: metrics {sorted(got.items())}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{where}: {result['failed']} failed")
                print(f"ok  {where}: {len(got)} metrics")
    return problems


def without_one_arc(lib, result):
    parent, child = result.network.arcs()[0]
    thinned = lib.sb.Dag(result.network.names())
    for arc in result.network.arcs():
        if arc != (parent, child):
            thinned.add_arc(*arc)
    return dataclasses.replace(result, network=thinned)


def check_golden_is_live() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    lib = load_library()
    lib.cli = importlib.import_module("sparsebn.cli")
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    problems = []
    for name, size in SIZES.items():
        workload = WORKLOADS[name]
        ops = golden[name]["ops"]
        inputs = workload.generate(lib, DEFAULT_SEED, size)
        done = workload.run_pass(lib, inputs)
        if workload.check(lib, inputs, done, ops):
            problems.append(f"{name}: unmodified results fail the checks")
        at = next(i for i, r in enumerate(done.results) if r.network.arc_count)
        broken = without_one_arc(lib, done.results[at])
        if not golden_failures(lib, ops, done.keys[at], broken):
            problems.append(f"{name}: golden check accepts a result missing an arc")
        done.results[at] = broken
        if len(workload.check(lib, inputs, done, ops)) != 1:
            problems.append(f"{name}: the broken op is not counted as one failure")
        print(f"ok  {name}: a result missing one arc fails its checks")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_golden_is_live() + check_metrics_emitted(bench)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
