"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them). Tolerances and
runtime budgets are pinned in the assertions.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

from sparsebn import (
    BuildConfig,
    CauseOf,
    DsepOracle,
    Evidence,
    Hypothesis,
    RandomDagSpec,
    WarningKind,
    build,
    compile_statements,
    d_separated,
    d_separated_bruteforce,
    full_expert_info,
    is_imap,
    is_minimal_imap,
    random_dag,
    sensitivity_experiment,
    summarize_experiment,
)
from sparsebn.cli import main, model_text

from conftest import arc_names, make_dag, result_bytes, with_forward_arc


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def _common_cause_model():
    return make_dag("T T1 T2", [("T", "T1"), ("T", "T2")])


def _built(ground_truth, statements, config=None):
    info = compile_statements(statements, ground_truth.names())
    return build(DsepOracle(ground_truth), ground_truth.names(), info, config)


def _paper_scale_specs():
    return [RandomDagSpec(26, 36, seed=9000 + i) for i in range(20)]


def _property_cases(count=200, seed=4242):
    rng = random.Random(seed)
    for case in range(count):
        n = rng.randint(4, 7)
        arcs = rng.randint(0, min(2 * n - 2, n * (n - 1) // 2))
        ground_truth = random_dag(RandomDagSpec(n, arcs, seed=50_000 + case))
        if case == 0:
            statements = []  # the empty-expert-info case is always present
        else:
            keep = rng.random()
            statements = [s for s in full_expert_info(ground_truth) if rng.random() < keep]
        yield case, ground_truth, statements


def test_criterion_1_fig1_reproduction():
    with criterion(1, "fig-1 reproduction"):
        started = time.perf_counter()
        model = _common_cause_model()

        guided = _built(model, [Hypothesis("T"), Evidence("T1"), Evidence("T2")])
        assert arc_names(guided.network) == {("T", "T1"), ("T", "T2")}
        assert guided.network.arc_count == 2

        # cause-chain statements force insertion order T2, T1, T
        reversed_order = _built(model, [CauseOf("T2", "T1"), CauseOf("T1", "T")])
        assert reversed_order.node_order == [2, 1, 0]
        assert reversed_order.network.arc_count == 3

        assert time.perf_counter() - started < 1.0


def test_criterion_2_full_information_recovery_at_paper_scale():
    with criterion(2, "full-information recovery at 26 nodes / 36 arcs"):
        started = time.perf_counter()
        for spec in _paper_scale_specs():
            ground_truth = random_dag(spec)
            result = _built(ground_truth, full_expert_info(ground_truth))
            assert set(result.network.arcs()) == set(ground_truth.arcs()), spec
            oracle = DsepOracle(ground_truth)
            assert is_minimal_imap(result.network, oracle), spec

            # one spurious forward arc keeps an I-map but breaks minimality
            padded = with_forward_arc(ground_truth)
            assert is_imap(padded, oracle), spec
            assert not is_minimal_imap(padded, oracle), spec
        assert time.perf_counter() - started < 10.0


def test_criterion_3_sensitivity_trends():
    with criterion(3, "sensitivity trends"):
        started = time.perf_counter()
        ground_truth = random_dag(RandomDagSpec(26, 36, seed=7))
        records = sensitivity_experiment(ground_truth, deletions_per_step=1, trials=20, seed=11)
        assert len(records) == 20 * 37

        summary = summarize_experiment(records)
        assert summary.arc_trend_ok, summary.mean_rebuilt_arcs
        assert summary.call_trend_ok, summary.mean_oracle_calls
        assert summary.endpoint_recovery_ok
        full_level = summary.levels[-1]
        assert full_level == 36
        assert summary.mean_rebuilt_arcs[full_level] == 36.0
        assert time.perf_counter() - started < 300.0


def test_criterion_4_minimal_imap_property_suite():
    with criterion(4, "minimal I-map property suite"):
        started = time.perf_counter()
        for case, ground_truth, statements in _property_cases():
            result = _built(ground_truth, statements)
            oracle = DsepOracle(ground_truth)
            assert is_imap(result.network, oracle), case
            assert is_minimal_imap(result.network, oracle), case
        assert time.perf_counter() - started < 120.0


def test_criterion_5_dsep_oracle_equivalence():
    with criterion(5, "d-separation implementations agree"):
        started = time.perf_counter()
        rng = random.Random(77)
        for i in range(100):
            n = rng.randint(3, 8)
            arcs = rng.randint(0, min(2 * n, n * (n - 1) // 2))
            dag = random_dag(RandomDagSpec(n, arcs, seed=70_000 + i))
            for x, y in itertools.combinations(range(n), 2):
                others = [v for v in range(n) if v not in (x, y)]
                for r in range(len(others) + 1):
                    for z in itertools.combinations(others, r):
                        assert d_separated(dag, [x], z, [y]) == d_separated_bruteforce(
                            dag, [x], z, [y]
                        ), (dag.arcs(), x, z, y)
        assert time.perf_counter() - started < 120.0


def test_criterion_6_cache_soundness():
    with criterion(6, "failure-cache soundness"):
        strict_saving = False
        for case, ground_truth, statements in _property_cases():
            info = compile_statements(statements, ground_truth.names())
            cached = build(
                DsepOracle(ground_truth), ground_truth.names(), info,
                BuildConfig(use_cache=True),
            )
            uncached = build(
                DsepOracle(ground_truth), ground_truth.names(), info,
                BuildConfig(use_cache=False),
            )
            # identical networks, warnings, order, and strata, byte for byte;
            # the oracle-call count is the one field allowed to differ
            assert result_bytes(cached) == result_bytes(uncached), case
            assert cached.oracle_calls <= uncached.oracle_calls, case
            strict_saving |= cached.oracle_calls < uncached.oracle_calls
        assert strict_saving


def test_criterion_7_bounded_search_mode():
    with criterion(7, "bounded-search mode"):
        for spec in _paper_scale_specs():
            ground_truth = random_dag(spec)
            statements = full_expert_info(ground_truth)
            n = ground_truth.node_count
            p = max(len(ground_truth.parents(v)) for v in range(n))
            info = compile_statements(statements, ground_truth.names())

            bounded = build(
                DsepOracle(ground_truth), ground_truth.names(), info,
                BuildConfig(max_parents=p),
            )
            unbounded = build(DsepOracle(ground_truth), ground_truth.names(), info)
            assert bounded.network == unbounded.network, spec
            assert bounded.warnings == unbounded.warnings == []

            budget = n * n * sum(math.comb(n, k) for k in range(p + 1))
            assert bounded.oracle_calls <= budget, spec


def test_criterion_8_contradiction_detection(tmp_path, capsys):
    with criterion(8, "contradiction detection"):
        model_file = tmp_path / "model.txt"
        model_file.write_text(model_text(_common_cause_model()))
        out_file = str(tmp_path / "built.txt")

        fixtures = [
            ("cause T T1\ncause T1 T\n", "cause_cycle"),
            ("hypothesis T\ncause T1 T\n", "hypothesis_with_cause"),
            ("evidence T1\ncause T1 T2\n", "evidence_with_effect"),
        ]
        for text, expected_kind in fixtures:
            expert_file = tmp_path / "expert.txt"
            expert_file.write_text(text)
            code = main(["build", str(model_file), str(expert_file), out_file])
            report = capsys.readouterr().out
            assert code == 1, expected_kind
            assert expected_kind in report

        # a declared cause that the true model does not support must warn
        expert_file = tmp_path / "expert.txt"
        expert_file.write_text("cause T1 T2\n")
        code = main(["build", str(model_file), str(expert_file), out_file])
        report = capsys.readouterr().out
        assert code == 0
        assert WarningKind.MISSING_DECLARED_CAUSE.value in report
