import itertools
import random

import pytest

from sparsebn import (
    BuildConfig,
    CauseOf,
    DsepOracle,
    Evidence,
    ExpertInfo,
    Hypothesis,
    IndependenceModel,
    RandomDagSpec,
    StratumNotFoundError,
    WarningKind,
    boundary_stratum,
    build,
    compile_statements,
    d_separated,
    d_separated_bruteforce,
    full_expert_info,
    is_imap,
    is_minimal_imap,
    random_dag,
    select_winner,
)

from conftest import arc_names, make_dag, result_bytes


def _build(ground_truth, statements=(), declared=(), **config_kwargs):
    oracle = DsepOracle(ground_truth, declared=declared)
    info = compile_statements(list(statements), ground_truth.names())
    config = BuildConfig(**config_kwargs) if config_kwargs else None
    result = build(oracle, ground_truth.names(), info, config)
    # the build's own counter and the oracle's must agree
    assert oracle.call_count == result.oracle_calls
    return result


def _check_result_invariants(result):
    network = result.network
    assert sorted(result.node_order) == list(range(network.node_count))
    position = {v: i for i, v in enumerate(result.node_order)}
    for parent, child in network.arcs():
        assert position[parent] < position[child]
    for v in range(network.node_count):
        assert network.parents(v) == result.strata[v]


# ---------------------------------------------------------- boundary search


def test_stratum_of_first_node_is_empty_without_queries(fig_common_cause):
    oracle = DsepOracle(fig_common_cause)
    assert boundary_stratum(oracle, [], 1) == frozenset()
    assert oracle.call_count == 0


def test_stratum_single_parent(fig_common_cause):
    oracle = DsepOracle(fig_common_cause)
    assert boundary_stratum(oracle, [0], 1) == {0}


def test_stratum_forced_full_set(fig_common_cause):
    # adding the cause after both sensors requires the whole predecessor set
    oracle = DsepOracle(fig_common_cause)
    assert boundary_stratum(oracle, [1, 2], 0) == {1, 2}


def test_stratum_not_found_within_bound():
    collider = make_dag("A B C", [("A", "C"), ("B", "C")])
    oracle = DsepOracle(collider)
    with pytest.raises(StratumNotFoundError):
        boundary_stratum(oracle, [0, 1], 2, config=BuildConfig(max_parents=1))


def test_stratum_candidate_in_existing_rejected(fig_common_cause):
    with pytest.raises(ValueError):
        boundary_stratum(DsepOracle(fig_common_cause), [0, 1], 1)


def test_stratum_skips_cached_failures(fig_common_cause):
    oracle = DsepOracle(fig_common_cause)
    cache = {0: {0}}  # pretend the empty subset already failed for candidate 0
    boundary_stratum(oracle, [1, 2], 0, cache=cache)
    # only the two singleton subsets were queried; size 2 is call-free
    assert oracle.call_count == 2


# ---------------------------------------------------------- winner selection


def test_unique_top_priority_candidate_wins(fig_common_cause):
    info = compile_statements(
        [Hypothesis("T"), Evidence("T1"), Evidence("T2")], fig_common_cause.names()
    )
    oracle = DsepOracle(fig_common_cause)
    winner, stratum = select_winner(oracle, info, [], {0, 1, 2})
    assert winner == 0
    assert stratum == frozenset()


def test_smaller_stratum_beats_lower_index():
    # X (lower index) needs both placed parents, Y needs only one
    gt = make_dag("P1 P2 X Y", [("P1", "X"), ("P2", "X"), ("P1", "Y")])
    info = ExpertInfo.empty(gt.names())
    winner, stratum = select_winner(DsepOracle(gt), info, [0, 1], {2, 3})
    assert winner == 3
    assert stratum == {0}


def test_equal_strata_tie_breaks_by_index():
    gt = make_dag("P X Y", [("P", "X"), ("P", "Y")])
    info = ExpertInfo.empty(gt.names())
    winner, stratum = select_winner(DsepOracle(gt), info, [0], {1, 2})
    assert winner == 1
    assert stratum == {0}


# ------------------------------------------------------------------- builds


def test_expert_guided_build_recovers_perfect_map(fig_common_cause):
    result = _build(
        fig_common_cause, [Hypothesis("T"), Evidence("T1"), Evidence("T2")]
    )
    assert arc_names(result.network) == {("T", "T1"), ("T", "T2")}
    assert result.node_order == [0, 1, 2]
    assert result.warnings == []
    _check_result_invariants(result)


def test_reversed_order_build_is_fully_connected(fig_common_cause):
    # forcing insertion order T2, T1, T via a cause chain: every node ends up
    # needing all its predecessors
    result = _build(fig_common_cause, [CauseOf("T2", "T1"), CauseOf("T1", "T")])
    assert result.node_order == [2, 1, 0]
    assert result.network.arc_count == 3
    oracle = DsepOracle(fig_common_cause)
    assert is_minimal_imap(result.network, oracle)
    _check_result_invariants(result)


def _minimal_parent_sets_by_order(model, order):
    # independent enumeration: smallest screening predecessor subset per node,
    # independence judged by the path-enumeration test
    arcs_per_node = []
    for i, node in enumerate(order):
        existing = list(order[:i])
        for size in range(len(existing) + 1):
            hit = next(
                (
                    combo
                    for combo in itertools.combinations(sorted(existing), size)
                    if not set(existing) - set(combo)
                    or d_separated_bruteforce(
                        model, [node], combo, set(existing) - set(combo)
                    )
                ),
                None,
            )
            if hit is not None:
                arcs_per_node.append(len(hit))
                break
    return sum(arcs_per_node)


def test_chain_without_expert_info_stays_sparse():
    chain = make_dag("A B C", [("A", "B"), ("B", "C")])
    # enumerate all 6 insertion orders: placing the chain's middle node last
    # forces a fully connected network (3 arcs); every other order gives 2
    counts = {
        order: _minimal_parent_sets_by_order(chain, order)
        for order in itertools.permutations(range(3))
    }
    assert counts == {
        (0, 1, 2): 2,
        (0, 2, 1): 3,
        (1, 0, 2): 2,
        (1, 2, 0): 2,
        (2, 0, 1): 3,
        (2, 1, 0): 2,
    }

    # the greedy choice lands on one of the 2-arc orders
    result = _build(chain)
    assert result.network.arc_count == 2
    assert is_minimal_imap(result.network, DsepOracle(chain))


def test_full_information_recovery_small():
    for seed in range(12):
        n = 4 + seed % 4
        gt = random_dag(RandomDagSpec(n, min(2 * n - 3, n * (n - 1) // 2), seed=seed))
        result = _build(gt, full_expert_info(gt))
        assert set(result.network.arcs()) == set(gt.arcs()), seed
        assert result.warnings == []
        _check_result_invariants(result)


def test_missing_declared_cause_warning():
    gt = make_dag("A B C", [("A", "B")])
    result = _build(gt, [CauseOf("C", "B")])
    kinds = [w.kind for w in result.warnings]
    assert kinds == [WarningKind.MISSING_DECLARED_CAUSE]
    warning = result.warnings[0]
    assert warning.node == gt.index_of("B")
    assert "C" in warning.detail
    # the oracle still rules: the true parent set is kept
    assert arc_names(result.network) == {("A", "B")}


def test_parent_bound_fallback_keeps_all_predecessors():
    collider = make_dag("A B C", [("A", "C"), ("B", "C")])
    result = _build(collider, max_parents=1)
    assert [w.kind for w in result.warnings] == [WarningKind.PARENT_BOUND_FALLBACK]
    assert result.warnings[0].node == 2
    assert arc_names(result.network) == {("A", "C"), ("B", "C")}
    assert not result.minimality_guaranteed
    _check_result_invariants(result)


def test_bound_wide_enough_changes_nothing():
    gt = make_dag("A B C D", [("A", "B"), ("B", "C"), ("B", "D")])
    bounded = _build(gt, full_expert_info(gt), max_parents=1)
    unbounded = _build(gt, full_expert_info(gt))
    assert bounded.network == unbounded.network
    assert bounded.warnings == []


def test_overlay_conflict_surfaces_as_warning():
    gt = make_dag("A B", [("A", "B")])
    declared = [(frozenset([1]), frozenset(), frozenset([0]))]
    result = _build(gt, declared=declared)
    assert result.network.arc_count == 0
    assert [w.kind for w in result.warnings] == [WarningKind.OVERLAY_CONFLICT]
    assert result.warnings[0].node == 1


def test_trust_expert_forces_declared_causes_into_parents():
    chain = make_dag("A B C", [("A", "B"), ("B", "C")])
    statements = [CauseOf("A", "C")]

    plain = _build(chain, statements)
    assert arc_names(plain.network) == {("A", "B"), ("B", "C")}
    assert [w.kind for w in plain.warnings] == [WarningKind.MISSING_DECLARED_CAUSE]
    assert plain.minimality_guaranteed

    trusted = _build(chain, statements, trust_expert=True)
    assert arc_names(trusted.network) == {("A", "B"), ("A", "C"), ("B", "C")}
    assert trusted.warnings == []
    assert not trusted.minimality_guaranteed
    oracle = DsepOracle(chain)
    assert is_imap(trusted.network, oracle)
    assert not is_minimal_imap(trusted.network, oracle)


def test_universe_mismatch_rejected(fig_common_cause):
    info = ExpertInfo.empty(["T", "T1"])
    with pytest.raises(ValueError):
        build(DsepOracle(fig_common_cause), ["T", "T1"], info)


def test_build_is_deterministic():
    gt = random_dag(RandomDagSpec(6, 8, seed=3))
    statements = full_expert_info(gt)[:4]
    first = _build(gt, statements)
    second = _build(gt, statements)
    assert first == second


def test_cache_soundness_module_scale():
    rng = random.Random(55)
    saw_strict_saving = False
    for case in range(25):
        n = rng.randint(4, 7)
        arcs = rng.randint(0, min(2 * n - 2, n * (n - 1) // 2))
        gt = random_dag(RandomDagSpec(n, arcs, seed=900 + case))
        statements = [s for s in full_expert_info(gt) if rng.random() < 0.5]
        with_cache = _build(gt, statements, use_cache=True)
        without_cache = _build(gt, statements, use_cache=False)
        assert with_cache.network == without_cache.network
        assert with_cache.warnings == without_cache.warnings
        assert with_cache.strata == without_cache.strata
        assert with_cache.node_order == without_cache.node_order
        assert with_cache.oracle_calls <= without_cache.oracle_calls
        saw_strict_saving |= with_cache.oracle_calls < without_cache.oracle_calls
    assert saw_strict_saving


class _SetQueryOracle(IndependenceModel):
    """Implements only ``is_independent``: builds reach it through the
    default ``is_independent_mask`` adapter."""

    def __init__(self, ground_truth):
        self.ground_truth = ground_truth
        self.calls = 0

    def is_independent(self, x, z, y):
        self.calls += 1
        return d_separated(self.ground_truth, x, z, y)


@pytest.mark.parametrize("use_cache", [True, False])
def test_default_mask_adapter_builds_like_dsep_oracle(use_cache):
    config = BuildConfig(use_cache=use_cache)
    for n, seed in ((8, 31), (9, 32), (10, 33)):
        gt = random_dag(RandomDagSpec(n, n + 4, seed=seed))
        full = full_expert_info(gt)
        for statements in ([], full[: len(full) // 2], full):
            info = compile_statements(statements, gt.names())
            expected = build(DsepOracle(gt), gt.names(), info, config)
            oracle = _SetQueryOracle(gt)
            adapted = build(oracle, gt.names(), info, config)
            assert result_bytes(adapted) == result_bytes(expected), (n, len(statements))
            assert adapted.oracle_calls == expected.oracle_calls == oracle.calls


def test_minimal_imap_property_module_scale():
    rng = random.Random(4242)
    for case in range(30):
        n = rng.randint(4, 7)
        arcs = rng.randint(0, min(2 * n - 2, n * (n - 1) // 2))
        gt = random_dag(RandomDagSpec(n, arcs, seed=700 + case))
        statements = [s for s in full_expert_info(gt) if rng.random() < 0.4]
        result = _build(gt, statements)
        _check_result_invariants(result)
        assert is_minimal_imap(result.network, DsepOracle(gt)), (case, gt.arcs())


# ------------------------------------------------------------- map checkers


def test_ground_truth_is_its_own_minimal_imap(fig_common_cause):
    oracle = DsepOracle(fig_common_cause)
    assert is_imap(fig_common_cause, oracle)
    assert is_minimal_imap(fig_common_cause, oracle)


def test_fully_connected_network_is_imap(fig_common_cause):
    full = make_dag("T T1 T2", [("T", "T1"), ("T", "T2"), ("T1", "T2")])
    assert is_imap(full, DsepOracle(fig_common_cause))


def test_reversed_sensor_network_is_minimal_imap(fig_common_cause):
    reversed_net = make_dag("T T1 T2", [("T2", "T1"), ("T2", "T"), ("T1", "T")])
    oracle = DsepOracle(fig_common_cause)
    assert is_imap(reversed_net, oracle)
    assert is_minimal_imap(reversed_net, oracle)


def test_spurious_arc_fails_minimality(fig_common_cause):
    padded = make_dag("T T1 T2", [("T", "T1"), ("T", "T2"), ("T1", "T2")])
    oracle = DsepOracle(fig_common_cause)
    # deleting the spurious sensor-to-sensor arc leaves an I-map
    assert is_imap(padded, oracle)
    assert not is_minimal_imap(padded, oracle)


def test_imap_check_rejects_network_over_other_universe(fig_common_cause):
    wider = make_dag("T T1 T2 T3", [("T", "T3")])
    with pytest.raises(ValueError):
        is_imap(wider, DsepOracle(fig_common_cause))


def test_single_node_network_is_minimal():
    single = make_dag("X")
    assert is_minimal_imap(single, DsepOracle(single))
