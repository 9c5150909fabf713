"""The three benchmark workloads: inputs from a seed, one pass, output checks.

A pass runs a workload's op set once, in one thread, each op starting when
the previous one returned. Inputs derive from the seed alone. At
``DEFAULT_SEED`` they are the acceptance suite's own inputs, and every op's
result must match ``golden.json``, recorded from the unmodified library by
``record_golden.py``. At other seeds the checks fall back to properties that
hold for every input.

``lib`` is a namespace holding the library's modules (``sb``, ``harness``,
``cli``), the entry points the benchmark calls (``build``, ``is_imap``,
...), which a traced run replaces with span-recording wrappers, and how often
a pass probes the machine's speed (``probe_period_s``; a traced pass probes
only at its ends, so that no probe falls inside a span).
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field

from speed import SpeedProbe

DEFAULT_SEED = 0
GOLDEN_DIGITS = 16  # hex digits of each result's sha256 kept in golden.json


def derived_seed(label: str, seed: int) -> int:
    """A 32-bit seed for one purpose, from the benchmark seed."""
    return random.Random(f"{label}:{seed}").randrange(2**32)


def result_digest(lib, result) -> str:
    """sha256 over the fields the acceptance suite compares byte for byte."""
    parts = [
        lib.cli.model_text(result.network),
        repr([(w.kind.value, w.node, w.detail) for w in result.warnings]),
        repr(result.node_order),
        repr(sorted((node, tuple(sorted(s))) for node, s in result.strata.items())),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@dataclass
class Pass:
    """One pass: per-op keys, latencies and build results, plus its queries."""

    keys: list[str] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    verdicts: list[tuple[bool, bool]] = field(default_factory=list)
    records: list = field(default_factory=list)  # sensitivity study records
    experiment_ok: bool = True

    @property
    def oracle_calls(self) -> int:
        return sum(r.oracle_calls for r in self.results)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies_s)

    def rescaled_s(self) -> list[float]:
        """Op latencies at the probe's reference speed."""
        return self.probe.rescale(self.latencies_s)


@dataclass
class BuildOp:
    key: str
    truth: object  # the ground-truth Dag
    info: object  # the compiled ExpertInfo


class _BuildWorkload:
    """Workloads whose op set is a list of independent builds."""

    golden_check_size: int | None = None  # None: golden results at every seed

    def run_pass(self, lib, ops: list[BuildOp]) -> Pass:
        out = Pass(probe=SpeedProbe(lib.probe_period_s))
        clock = time.perf_counter
        out.probe.between_ops(0, force=True)
        for done, op in enumerate(ops, 1):
            start = clock()
            self.run_op(lib, op, out)
            out.latencies_s.append(clock() - start)
            out.keys.append(op.key)
            out.probe.between_ops(done, force=done == len(ops))
        return out

    def run_op(self, lib, op: BuildOp, out: Pass) -> None:
        names = op.truth.names()
        out.results.append(lib.build(lib.sb.DsepOracle(op.truth), names, op.info))

    def run_uncached(self, lib, ops: list[BuildOp]) -> Pass:
        """The same builds with the failure cache off."""
        out = Pass()
        config = lib.sb.BuildConfig(use_cache=False)
        for op in ops:
            names = op.truth.names()
            out.results.append(
                lib.build(lib.sb.DsepOracle(op.truth), names, op.info, config)
            )
            out.keys.append(op.key)
        return out


class PaperFullInfo(_BuildWorkload):
    """Acceptance criterion 2: 20 paper-scale builds under full information.

    The set of ground truths is fixed by the criterion. The seed permutes the
    build order and the order of each build's expert statements; the compiled
    information, and so every result, is the same at every seed.
    """

    name = "paper_full_info"
    default_size = trace_size = 20

    def generate(self, lib, seed: int, size: int) -> list[BuildOp]:
        specs = [lib.sb.RandomDagSpec(26, 36, seed=9000 + i) for i in range(size)]
        rng = None
        if seed != DEFAULT_SEED:
            rng = random.Random(derived_seed(self.name, seed))
            rng.shuffle(specs)
        ops = []
        for spec in specs:
            truth = lib.random_dag(spec)
            statements = lib.full_expert_info(truth)
            if rng is not None:
                rng.shuffle(statements)
            info = lib.compile_statements(statements, truth.names())
            ops.append(BuildOp(str(spec.seed), truth, info))
        return ops

    def check(self, lib, ops, done: Pass, golden: dict | None) -> list[str]:
        truths = {op.key: set(op.truth.arcs()) for op in ops}
        failures = []
        for key, result in zip(done.keys, done.results):
            if set(result.network.arcs()) != truths[key]:
                failures.append(f"spec {key}: ground truth not recovered")
            else:
                failures += golden_failures(lib, golden, key, result)
        return failures


class VerifyMinimal(_BuildWorkload):
    """Acceptance criterion 4's generator: build, then verify minimality.

    Each case is a 4-7 node ground truth with a random share of its full
    expert information (none in case 0). At the default seed the first 200
    cases are criterion 4's.
    """

    name = "verify_minimal"
    default_size = trace_size = 2000
    golden_check_size = 200

    def generate(self, lib, seed: int, size: int) -> list[BuildOp]:
        if seed == DEFAULT_SEED:
            rng, base = random.Random(4242), 50_000
        else:
            rng = random.Random(derived_seed(self.name, seed))
            base = rng.randrange(2**31)
        ops = []
        for case in range(size):
            # criterion 4 draws the node count; other seeds cycle through the
            # counts, so that every seed has the same mix of case sizes
            n = rng.randint(4, 7) if seed == DEFAULT_SEED else 4 + case % 4
            arcs = rng.randint(0, min(2 * n - 2, n * (n - 1) // 2))
            truth = lib.random_dag(lib.sb.RandomDagSpec(n, arcs, seed=base + case))
            if case == 0:
                statements = []
            else:
                keep = rng.random()
                statements = [
                    s for s in lib.full_expert_info(truth) if rng.random() < keep
                ]
            info = lib.compile_statements(statements, truth.names())
            ops.append(BuildOp(str(case), truth, info))
        return ops

    def run_op(self, lib, op: BuildOp, out: Pass) -> None:
        super().run_op(lib, op, out)
        network = out.results[-1].network
        oracle = lib.sb.DsepOracle(op.truth)
        verdicts = (lib.is_imap(network, oracle), lib.is_minimal_imap(network, oracle))
        out.verdicts.append(verdicts)

    def check(self, lib, ops, done: Pass, golden: dict | None) -> list[str]:
        failures = []
        for key, result, (imap, minimal) in zip(done.keys, done.results, done.verdicts):
            if not (imap and minimal):
                failures.append(f"case {key}: is_imap={imap} is_minimal_imap={minimal}")
            else:
                failures += golden_failures(lib, golden, key, result)
        return failures


@dataclass
class Study:
    truth: object
    trials: int
    experiment_seed: int


class SensitivityThinning:
    """Acceptance criterion 3: delete one cause statement, rebuild, repeat.

    The ground truth is criterion 3's; the seed picks the deletion orders. At
    the default seed the trials are the first ones of criterion 3's study.
    One op is one rebuild: statement compilation, the build and the
    harness's bookkeeping up to the next compilation.
    """

    name = "sensitivity_thinning"
    default_size = 20  # trials of 37 rebuilds each
    trace_size = 6  # a traced run makes three passes
    golden_check_size = 1

    def generate(self, lib, seed: int, size: int) -> Study:
        truth = lib.random_dag(lib.sb.RandomDagSpec(26, 36, seed=7))
        # compiled once here so that set-up covers statement compilation; the
        # study compiles its own statements at every rebuild
        lib.compile_statements(lib.full_expert_info(truth), truth.names())
        experiment_seed = 11 if seed == DEFAULT_SEED else derived_seed(self.name, seed)
        return Study(truth, size, experiment_seed)

    def run_pass(self, lib, study: Study, config=None) -> Pass:
        """Runs the study; op boundaries are the study's compile calls."""
        harness = lib.harness
        build, compile_statements = harness.build, harness.compile_statements
        clock = time.perf_counter
        out = Pass(probe=SpeedProbe(lib.probe_period_s))
        starts: list[float] = []
        ends: list[float] = []

        def marking_compile(*args, **kwargs):
            if out.results:  # the previous rebuild ends here
                ends.append(clock())
                out.probe.between_ops(len(ends))
                starts.append(clock())
            return compile_statements(*args, **kwargs)

        def capturing_build(*args, **kwargs):
            result = build(*args, **kwargs)
            out.results.append(result)
            return result

        harness.build, harness.compile_statements = capturing_build, marking_compile
        out.probe.between_ops(0, force=True)
        try:
            starts.append(clock())
            records = lib.sensitivity_experiment(
                study.truth,
                deletions_per_step=1,
                trials=study.trials,
                seed=study.experiment_seed,
                config=config,
            )
            ends.append(clock())
        finally:
            harness.build, harness.compile_statements = build, compile_statements
        out.probe.between_ops(len(ends), force=True)
        out.latencies_s = [end - start for start, end in zip(starts, ends)]
        out.keys = [str(i) for i in range(len(records))]
        out.records = records
        out.experiment_ok = lib.sb.summarize_experiment(records).all_ok
        return out

    def run_uncached(self, lib, study: Study) -> Pass:
        return self.run_pass(lib, study, lib.sb.BuildConfig(use_cache=False))

    def check(self, lib, study, done: Pass, golden: dict | None) -> list[str]:
        if not done.experiment_ok:
            return [f"rebuild {k}: summarize_experiment(...).all_ok is false" for k in done.keys]
        failures = []
        full = study.truth.arc_count
        for key, record, result in zip(done.keys, done.records, done.results):
            if record.expert_arc_count == full and not record.exact_recovery:
                failures.append(f"rebuild {key}: full information did not recover the truth")
            else:
                failures += golden_failures(lib, golden, key, result)
        return failures


def golden_failures(lib, golden: dict | None, key: str, result) -> list[str]:
    if golden is None:
        return []
    want = golden.get(key)
    if want is None:
        return [f"op {key}: no golden record"]
    digest, calls = want
    if result.oracle_calls != calls:
        return [f"op {key}: {result.oracle_calls} oracle calls, golden {calls}"]
    if result_digest(lib, result)[:GOLDEN_DIGITS] != digest:
        return [f"op {key}: result differs from the golden result"]
    return []


WORKLOADS = {w.name: w for w in (PaperFullInfo(), SensitivityThinning(), VerifyMinimal())}
