"""Random ground-truth models and the arc-deletion sensitivity experiment.

The experiment starts from expert statements that describe a ground-truth
network completely (every arc as a cause statement, roots labelled
hypotheses, leaves labelled evidence), rebuilds the network, then repeatedly
deletes random cause statements and rebuilds, recording how the rebuilt
network's arc count and oracle cost respond as expert information thins out.
Node labels are never deleted; only arc knowledge is.
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TextIO

from .builder import BuildConfig, _Replay, build, is_imap
from .dag import Dag
from .expert import CauseOf, Evidence, ExpertStatement, Hypothesis, compile_statements
from .oracle import DsepOracle

CSV_HEADER = "trial,expert_arcs,rebuilt_arcs,oracle_calls,exact_recovery,elapsed_ms"
ARC_SLACK = 1.0
CALL_SLACK_FRACTION = 0.05


class InfeasibleSpecError(ValueError):
    """The requested node/arc counts cannot be realized."""


@dataclass(frozen=True)
class RandomDagSpec:
    node_count: int
    arc_count: int
    max_in_degree: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class ExperimentRecord:
    trial: int
    expert_arc_count: int
    rebuilt_arc_count: int
    oracle_calls: int
    exact_recovery: bool
    trial_seed: int
    elapsed_ms: float = field(compare=False)


def random_dag(spec: RandomDagSpec) -> Dag:
    """Random DAG: a random permutation fixes a topological order, then the
    requested number of forward arcs is drawn without replacement.

    Deterministic for a given spec. Raises InfeasibleSpecError when the arc
    count exceeds what the node count and in-degree cap allow. Time and
    memory are O(n²) whatever the arc count: ~150 MB at 2,000 nodes.
    """
    n, m, cap = spec.node_count, spec.arc_count, spec.max_in_degree
    if n < 1:
        raise InfeasibleSpecError("node_count must be >= 1")
    if m < 0:
        raise InfeasibleSpecError("arc_count must be >= 0")
    if cap is not None and cap < 1:
        raise InfeasibleSpecError("max_in_degree must be >= 1")
    capacity = sum(
        position if cap is None else min(position, cap) for position in range(n)
    )
    if m > capacity:
        raise InfeasibleSpecError(
            f"cannot place {m} arcs on {n} nodes"
            + ("" if cap is None else f" with max in-degree {cap}")
        )

    rng = random.Random(spec.seed)
    order = list(range(n))
    rng.shuffle(order)
    candidates = [
        (order[i], order[j]) for i in range(n) for j in range(i + 1, n)
    ]
    rng.shuffle(candidates)

    dag = Dag(f"N{i}" for i in range(n))
    in_degree = [0] * n
    placed = 0
    for parent, child in candidates:
        if placed == m:
            break
        if cap is not None and in_degree[child] >= cap:
            continue
        dag._adopt(child, 1 << parent)  # forward in ``order``, so it closes no cycle
        in_degree[child] += 1
        placed += 1
    assert placed == m
    return dag


def full_expert_info(dag: Dag) -> list[ExpertStatement]:
    """Statements describing the whole DAG: labels for every root and leaf
    plus one cause statement per arc. A node that is both root and leaf is
    labelled hypothesis only, keeping the label sets disjoint."""
    names, roots = dag.names(), dag.roots()
    statements: list[ExpertStatement] = [Hypothesis(names[v]) for v in roots]
    hypotheses = set(roots)
    statements += [Evidence(names[v]) for v in dag.leaves() if v not in hypotheses]
    statements += [CauseOf(names[parent], names[child]) for parent, child in dag.arcs()]
    return statements


def sensitivity_experiment(
    ground_truth: Dag,
    deletions_per_step: int = 1,
    trials: int = 1,
    seed: int = 0,
    config: BuildConfig | None = None,
    verify_imaps: bool = False,
) -> list[ExperimentRecord]:
    """Delete/rebuild cycle against a d-separation oracle over ground_truth.

    Each trial rebuilds under full expert information first, then removes
    ``deletions_per_step`` random cause statements (without replacement) and
    rebuilds until none remain. All randomness derives from ``seed``; records
    come back ordered by (trial, step) and compare equal across replays
    (elapsed_ms is informational and excluded from equality).

    The rebuilds of a study share one table of build steps: each rebuild
    follows the longest run of steps that any earlier rebuild of the study
    took, from the first, and searches only from there. The results, counts
    included, equal fresh builds. ``verify_imaps`` re-checks every rebuilt
    network against the oracle with ``is_imap``.
    """
    if deletions_per_step < 1:
        raise ValueError("deletions_per_step must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    universe = ground_truth.names()
    true_arcs = set(ground_truth.arcs())
    master = random.Random(seed)
    trial_seeds = [master.randrange(2**32) for _ in range(trials)]
    oracle = DsepOracle(ground_truth)
    replay = _Replay()

    records: list[ExperimentRecord] = []
    for trial, trial_seed in enumerate(trial_seeds):
        rng = random.Random(trial_seed)
        statements = full_expert_info(ground_truth)
        labels = [s for s in statements if not isinstance(s, CauseOf)]
        causes = [s for s in statements if isinstance(s, CauseOf)]
        while True:
            info = compile_statements(labels + causes, universe)
            started = time.perf_counter()
            result = build(oracle, universe, info, config, _replay=replay)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            if verify_imaps and not is_imap(result.network, oracle):
                raise RuntimeError(
                    f"trial {trial}: rebuilt network with {len(causes)} expert "
                    "arcs is not an I-map of the ground truth"
                )
            records.append(
                ExperimentRecord(
                    trial=trial,
                    expert_arc_count=len(causes),
                    rebuilt_arc_count=result.network.arc_count,
                    oracle_calls=result.oracle_calls,
                    exact_recovery=set(result.network.arcs()) == true_arcs,
                    trial_seed=trial_seed,
                    elapsed_ms=elapsed_ms,
                )
            )
            if not causes:
                break
            for _ in range(min(deletions_per_step, len(causes))):
                causes.pop(rng.randrange(len(causes)))
    return records


def write_records_csv(records: Iterable[ExperimentRecord], out: TextIO) -> None:
    """CSV form of the records; LF line endings, booleans as true/false."""
    out.write(CSV_HEADER + "\n")
    for r in records:
        out.write(
            "{},{},{},{},{},{:.3f}\n".format(
                r.trial,
                r.expert_arc_count,
                r.rebuilt_arc_count,
                r.oracle_calls,
                "true" if r.exact_recovery else "false",
                r.elapsed_ms,
            )
        )


@dataclass
class ExperimentSummary:
    levels: list[int]
    mean_rebuilt_arcs: dict[int, float]
    mean_oracle_calls: dict[int, float]
    endpoint_recovery_ok: bool
    arc_trend_ok: bool
    call_trend_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.endpoint_recovery_ok and self.arc_trend_ok and self.call_trend_ok


def summarize_experiment(records: Sequence[ExperimentRecord]) -> ExperimentSummary:
    """Per-level averages and qualitative trend checks.

    The curves are averaged per expert-arc level. Both are expected to be
    non-increasing as expert arcs grow: the arc curve within ``ARC_SLACK``
    arcs, the call curve within ``CALL_SLACK_FRACTION`` of its largest level
    mean. The full-information endpoint must recover the ground truth in
    every trial.
    """
    if not records:
        raise ValueError("no records to summarize")
    by_level: dict[int, list[ExperimentRecord]] = {}
    for r in records:
        by_level.setdefault(r.expert_arc_count, []).append(r)
    levels = sorted(by_level)
    mean_arcs = {
        lvl: sum(r.rebuilt_arc_count for r in rs) / len(rs)
        for lvl, rs in by_level.items()
    }
    mean_calls = {
        lvl: sum(r.oracle_calls for r in rs) / len(rs) for lvl, rs in by_level.items()
    }
    call_slack = CALL_SLACK_FRACTION * max(mean_calls.values())
    arc_trend_ok = all(
        mean_arcs[hi] <= mean_arcs[lo] + ARC_SLACK
        for lo, hi in zip(levels, levels[1:])
    )
    call_trend_ok = all(
        mean_calls[hi] <= mean_calls[lo] + call_slack
        for lo, hi in zip(levels, levels[1:])
    )
    endpoint_ok = all(r.exact_recovery for r in by_level[levels[-1]])
    return ExperimentSummary(
        levels=levels,
        mean_rebuilt_arcs=mean_arcs,
        mean_oracle_calls=mean_calls,
        endpoint_recovery_ok=endpoint_ok,
        arc_trend_ok=arc_trend_ok,
        call_trend_ok=call_trend_ok,
    )
