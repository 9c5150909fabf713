import io

import pytest

from sparsebn import (
    BuildConfig,
    CauseOf,
    DsepOracle,
    Evidence,
    ExperimentRecord,
    Hypothesis,
    InfeasibleSpecError,
    RandomDagSpec,
    build,
    full_expert_info,
    random_dag,
    sensitivity_experiment,
    summarize_experiment,
    write_records_csv,
)
from sparsebn import builder, harness

from conftest import make_dag, result_bytes
from reference import CONFIGS, reference_build


# ----------------------------------------------------------- random models


def test_random_dag_counts_and_determinism():
    spec = RandomDagSpec(26, 36, seed=7)
    dag = random_dag(spec)
    assert dag.node_count == 26
    assert dag.arc_count == 36
    assert dag == random_dag(spec)
    assert dag != random_dag(RandomDagSpec(26, 36, seed=8))


def test_random_dag_full_triangle():
    dag = random_dag(RandomDagSpec(3, 3, seed=1))
    assert dag.arc_count == 3
    # the only 3-node, 3-arc DAG is a fully connected triangle
    assert sorted(len(dag.parents(v)) for v in range(3)) == [0, 1, 2]


def test_random_dag_infeasible():
    with pytest.raises(InfeasibleSpecError):
        random_dag(RandomDagSpec(4, 7, seed=1))


def test_random_dag_respects_in_degree_cap():
    dag = random_dag(RandomDagSpec(10, 9, max_in_degree=1, seed=3))
    assert all(len(dag.parents(v)) <= 1 for v in range(10))
    with pytest.raises(InfeasibleSpecError):
        random_dag(RandomDagSpec(10, 10, max_in_degree=1, seed=3))


# ------------------------------------------------------- expert statements


def test_full_expert_info_common_cause(fig_common_cause):
    assert full_expert_info(fig_common_cause) == [
        Hypothesis("T"),
        Evidence("T1"),
        Evidence("T2"),
        CauseOf("T", "T1"),
        CauseOf("T", "T2"),
    ]


def test_full_expert_info_chain():
    chain = make_dag("A B C", [("A", "B"), ("B", "C")])
    assert full_expert_info(chain) == [
        Hypothesis("A"),
        Evidence("C"),
        CauseOf("A", "B"),
        CauseOf("B", "C"),
    ]


def test_full_expert_info_single_node_is_hypothesis_only():
    assert full_expert_info(make_dag("X")) == [Hypothesis("X")]


# ------------------------------------------------------------- experiment


def test_experiment_record_count_and_levels(fig_common_cause):
    records = sensitivity_experiment(fig_common_cause, trials=1, seed=5)
    assert [r.expert_arc_count for r in records] == [2, 1, 0]
    assert all(r.trial == 0 for r in records)
    # full information recovers the network exactly
    assert records[0].exact_recovery
    assert records[0].rebuilt_arc_count == 2


def test_experiment_first_record_always_recovers():
    gt = random_dag(RandomDagSpec(8, 10, seed=21))
    records = sensitivity_experiment(gt, trials=4, seed=9)
    per_trial_first = {}
    for r in records:
        per_trial_first.setdefault(r.trial, r)
    assert len(per_trial_first) == 4
    assert all(r.exact_recovery for r in per_trial_first.values())
    assert all(r.expert_arc_count == 10 for r in per_trial_first.values())


def test_experiment_expert_arcs_decrease_within_trial():
    gt = random_dag(RandomDagSpec(7, 8, seed=2))
    records = sensitivity_experiment(gt, deletions_per_step=2, trials=2, seed=2)
    for trial in (0, 1):
        counts = [r.expert_arc_count for r in records if r.trial == trial]
        assert counts[0] == 8
        assert counts[-1] == 0
        assert all(a > b for a, b in zip(counts, counts[1:]))


def test_experiment_replay_determinism():
    gt = random_dag(RandomDagSpec(7, 8, seed=2))
    first = sensitivity_experiment(gt, trials=3, seed=13)
    second = sensitivity_experiment(gt, trials=3, seed=13)
    assert first == second  # elapsed_ms excluded from record equality
    assert sensitivity_experiment(gt, trials=3, seed=14) != first


def test_experiment_networks_are_imaps_at_desk_scale():
    gt = random_dag(RandomDagSpec(6, 7, seed=6))
    # verify_imaps raises if any rebuilt network fails the I-map check
    records = sensitivity_experiment(gt, trials=2, seed=3, verify_imaps=True)
    assert len(records) == 2 * 8
    assert all(r.oracle_calls > 0 for r in records)


def test_experiment_networks_are_imaps_at_paper_scale():
    gt = random_dag(RandomDagSpec(26, 36, seed=7))  # criterion 3's ground truth
    records = sensitivity_experiment(gt, trials=2, seed=11, verify_imaps=True)
    assert len(records) == 2 * 37


def test_resumed_rebuilds_match_fresh_and_reference_builds(monkeypatch):
    # every rebuild the study makes, most of them following steps an earlier
    # rebuild searched, equals a fresh build and the reference build
    captured = []
    searched = 0

    def capturing_build(model, universe, info, config, **kwargs):
        result = build(model, universe, info, config, **kwargs)
        captured.append((model, universe, info, config, result))
        return result

    def counted(*args, _real=builder.select_winner):
        nonlocal searched
        searched += 1
        return _real(*args)

    monkeypatch.setattr(harness, "build", capturing_build)
    monkeypatch.setattr(builder, "select_winner", counted)
    for n, arcs, seed in ((5, 6, 1), (6, 8, 2), (7, 10, 3), (8, 12, 4), (8, 9, 5)):
        truth = random_dag(RandomDagSpec(n, arcs, seed=seed))
        for config in CONFIGS:
            for deletions in (1, 2):
                sensitivity_experiment(truth, deletions, trials=2, seed=seed, config=config)
    # most steps are resumed, not searched
    assert searched < sum(len(universe) for _, universe, *_ in captured) / 2
    for model, universe, info, config, result in captured:
        fresh = build(DsepOracle(model.ground_truth), universe, info, config)
        want = reference_build(model, universe, info, config)
        for other in (fresh, want):
            assert result_bytes(result) == result_bytes(other), config
            assert result.oracle_calls == other.oracle_calls, config
            assert result.minimality_guaranteed == other.minimality_guaranteed


class _Searches:
    """Counts the ``builder.select_winner`` calls, one per searched step."""

    def __init__(self, monkeypatch):
        self.count = 0
        real = builder.select_winner

        def counted(*args):
            self.count += 1
            return real(*args)

        monkeypatch.setattr(builder, "select_winner", counted)


def _study(monkeypatch, truth, **kwargs):
    """The study's records, each with its rebuild's searched steps, expert
    info, config and result; and the search counter."""
    searches = _Searches(monkeypatch)
    rebuilds = []

    def capturing_build(model, universe, info, config, **kw):
        searches.count = 0
        result = build(model, universe, info, config, **kw)
        rebuilds.append((searches.count, info, config, result))
        return result

    monkeypatch.setattr(harness, "build", capturing_build)
    records = sensitivity_experiment(truth, **kwargs)
    assert len(records) == len(rebuilds)
    return list(zip(records, rebuilds)), searches


def test_a_study_searches_its_full_information_build_once(monkeypatch):
    truth = random_dag(RandomDagSpec(8, 12, seed=4))
    study, _ = _study(monkeypatch, truth, trials=3, seed=5)
    first = [
        searched
        for record, (searched, *_) in study
        if record.expert_arc_count == truth.arc_count
    ]
    assert first == [truth.node_count, 0, 0]


def test_a_rebuild_follows_the_steps_of_an_earlier_trial(monkeypatch):
    # each trial ends with the labels-only rebuild, which after the first
    # trial searches nothing, where a replay of the rebuild before it in its
    # own trial would search
    truth = random_dag(RandomDagSpec(8, 12, seed=4))
    universe = truth.names()
    for config in (BuildConfig(), BuildConfig(trust_expert=True)):
        study, searches = _study(monkeypatch, truth, trials=3, seed=5, config=config)
        own_trial = []
        for trial in (1, 2):
            (_, (_, before, *_)), (_, (searched, info, _, result)) = [
                entry for entry in study if entry[0].trial == trial
            ][-2:]
            assert searched == 0
            replay, oracle = builder._Replay(), DsepOracle(truth)
            build(oracle, universe, before, config, _replay=replay)
            searches.count = 0
            build(oracle, universe, info, config, _replay=replay)
            own_trial.append(searches.count)
            fresh = build(DsepOracle(truth), universe, info, config)
            want = reference_build(DsepOracle(truth), universe, info, config)
            for other in (fresh, want):
                assert result_bytes(result) == result_bytes(other), config
                assert result.oracle_calls == other.oracle_calls, config
                assert result.minimality_guaranteed == other.minimality_guaranteed
        assert any(own_trial), config


def test_experiment_validates_arguments(fig_common_cause):
    with pytest.raises(ValueError):
        sensitivity_experiment(fig_common_cause, deletions_per_step=0)
    with pytest.raises(ValueError):
        sensitivity_experiment(fig_common_cause, trials=0)


# -------------------------------------------------------------- CSV output


def test_csv_format(fig_common_cause):
    records = sensitivity_experiment(fig_common_cause, trials=2, seed=1)
    out = io.StringIO()
    write_records_csv(records, out)
    lines = out.getvalue().split("\n")
    assert lines[0] == "trial,expert_arcs,rebuilt_arcs,oracle_calls,exact_recovery,elapsed_ms"
    assert lines[-1] == ""  # trailing LF
    assert len(lines) == 1 + len(records) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "2"
    assert first[4] in ("true", "false")
    float(first[5])  # parses


# ----------------------------------------------------------------- summary


def test_summary_trends_and_endpoint():
    gt = random_dag(RandomDagSpec(10, 12, seed=31))
    records = sensitivity_experiment(gt, trials=8, seed=17)
    summary = summarize_experiment(records)
    assert summary.levels == list(range(13))
    assert summary.endpoint_recovery_ok
    assert summary.mean_rebuilt_arcs[12] == 12.0


def test_summary_detects_broken_trend():
    rows = [
        ExperimentRecord(0, level, rebuilt, 100 - level, level == 2, 1, 0.0)
        for level, rebuilt in [(0, 5), (1, 9), (2, 5)]
    ]
    summary = summarize_experiment(rows)
    assert not summary.arc_trend_ok  # 5 -> 9 climbs by more than the slack
    assert summary.call_trend_ok
    assert not summary.all_ok


def test_summary_rejects_empty():
    with pytest.raises(ValueError):
        summarize_experiment([])
