"""Record golden.json: every op's result digest and query count, per workload.

    python3 perfbench/record_golden.py

Runs each workload once at the default seed and default size. Record only
from a commit whose results are known good; the benchmark then checks every
later commit against them.
"""

from __future__ import annotations

import importlib
import json
import sys

from run import HERE, ROOT, load_library
from workloads import DEFAULT_SEED, GOLDEN_DIGITS, WORKLOADS, result_digest


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    lib = load_library()
    lib.cli = importlib.import_module("sparsebn.cli")
    golden = {}
    for name, workload in WORKLOADS.items():
        inputs = workload.generate(lib, DEFAULT_SEED, workload.default_size)
        done = workload.run_pass(lib, inputs)
        failures = workload.check(lib, inputs, done, None)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        golden[name] = {
            "oracle_calls": done.oracle_calls,
            "ops": {
                key: [result_digest(lib, result)[:GOLDEN_DIGITS], result.oracle_calls]
                for key, result in zip(done.keys, done.results)
            },
        }
        print(f"{name}: {len(done.keys)} ops, {done.oracle_calls} oracle calls")
    lines = [f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in golden.items()]
    (HERE / "golden.json").write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
