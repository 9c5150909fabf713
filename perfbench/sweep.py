"""Run the benchmark over several seeds; report medians, quartiles and spread.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                               [--trace 0|1] [--out FILE] [--against FILE]

Each run is a fresh process, one after another. Per workload and metric the
report gives the median, the first and third quartiles, and the spread: the
distance between the quartiles as a share of the median. For end-to-end
metrics a spread of more than a third of the metric's bound in BENCHMARK.json
is flagged. ``--against`` compares the medians with an earlier ``--out``
file: the change is signed so that a positive share is a regression, and one
beyond the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}"
        )
    return json.loads(lines[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else {}
    values: dict[str, dict[str, list[float]]] = {}
    flagged = 0
    for workload in args.workloads.split(","):
        series = values.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} ops failed their checks")
                flagged += 1
            for name, metric in result["metrics"].items():
                series.setdefault(name, []).append(metric["value"])
        print(f"\n{workload} ({len(parse_seeds(args.seeds))} seeds)")
        print(f"  {'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
        for name, vals in series.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            spec = specs.get(name, {})
            note = ""
            bound = spec.get("bound")
            if bound is not None and name != "setup_s" and spread > bound / 3:
                note = f"  spread > bound/3 ({bound / 3:.3f})"
                flagged += 1
            before = earlier.get(workload, {}).get(name)
            if before and bound is not None:
                old = statistics.median(before)
                worse = (med - old) / old if spec["better"] == "lower" else (old - med) / old
                note += f"  vs earlier {worse:+.3f}" + (" > bound" if worse > bound else "")
                flagged += worse > bound
            unit = spec.get("unit", "")
            print(f"  {name + ' [' + unit + ']':<44} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f}{note}")
    if args.out:
        args.out.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
