import itertools
import random
import time
from collections import Counter

import pytest

from sparsebn import (
    BuildConfig,
    CauseOf,
    Dag,
    DsepOracle,
    Evidence,
    ExpertInfo,
    Hypothesis,
    Independence,
    IndependenceModel,
    InvalidQueryError,
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
)
from sparsebn import builder
from sparsebn.dag import mask_of, nodes_of

from conftest import (
    CountingOracle,
    arc_names,
    counted_build as _build,
    exhaustive_is_imap,
    exhaustive_is_minimal_imap,
    make_dag,
    result_bytes,
)
from reference import CONFIGS, reference_build


def _check_result_invariants(result):
    network = result.network
    assert sorted(result.node_order) == list(range(network.node_count))
    position = {v: i for i, v in enumerate(result.node_order)}
    for parent, child in network.arcs():
        assert position[parent] < position[child]
    for v in range(network.node_count):
        assert network.parents(v) == result.strata[v]


# ---------------------------------------------------------- boundary search


def search(model, existing, candidate, cache=None, config=None):
    """The internal search for one candidate, over node lists: what it returns."""
    max_parents = (config or BuildConfig()).max_parents
    query = model.is_independent_mask
    dependent = [model.dependent_mask(v) for v in range(len(model.universe))]
    winner, parents, asked = builder.boundary_stratum(
        query, mask_of(existing), [candidate], [0], dependent, max_parents, cache
    )
    return winner, nodes_of(parents), asked


def boundary_stratum(model, existing, candidate, cache=None, config=None):
    """The internal search for one candidate, over node lists: its stratum."""
    return search(model, existing, candidate, cache, config)[1]


def select_winner(model, info, existing, candidates):
    """The internal winner selection, over node lists: winner and stratum."""
    query, config = model.is_independent_mask, BuildConfig()
    dependent = [model.dependent_mask(v) for v in range(info.info_dag.node_count)]
    existing = mask_of(existing)
    maximal = info.maximal_candidates(mask_of(candidates))
    required = [0] * len(maximal)
    winner, parents, _ = builder.select_winner(
        query, existing, maximal, required, dependent, None, config
    )
    return winner, nodes_of(parents)


def test_stratum_of_first_node_is_empty_without_queries(fig_common_cause):
    oracle = CountingOracle(fig_common_cause)
    assert boundary_stratum(oracle, [], 1) == frozenset()
    assert oracle.calls == 0


def test_stratum_single_parent(fig_common_cause):
    oracle = DsepOracle(fig_common_cause)
    assert boundary_stratum(oracle, [0], 1) == {0}


def test_stratum_forced_full_set(fig_common_cause):
    # adding the cause after both sensors requires the whole predecessor set,
    # which wins without a query: only the empty set and the singletons count
    oracle = CountingOracle(fig_common_cause)
    assert search(oracle, [1, 2], 0) == (0, {1, 2}, 3)
    assert oracle.calls == 3


def test_stratum_not_found_within_bound():
    collider = make_dag("A B C", [("A", "C"), ("B", "C")])
    oracle = DsepOracle(collider)
    bound = BuildConfig(max_parents=1)
    # the empty set and both singletons were asked before the bound ran out;
    # the whole set comes back, and the caller tells the fallback by its size
    assert search(oracle, [0, 1], 2, config=bound) == (2, {0, 1}, 3)


def test_stratum_skips_cached_failures(fig_common_cause):
    oracle = CountingOracle(fig_common_cause)
    cache = {0: {0: 0}}  # pretend candidate 0 already tried size 0 (the empty set)
    boundary_stratum(oracle, [1, 2], 0, cache=cache)
    # only the two singleton subsets were queried; size 2 is call-free
    assert oracle.calls == 2


def test_lex_rank_matches_enumeration():
    # a subset's rank is how many equal-size subsets of the pool the
    # lexicographic walk asks before it: all of them but the ones the failure
    # cache skips, those inside the stale mask
    rng = random.Random(31)
    for case in range(300):
        nodes = sorted(rng.sample(range(12), rng.randint(0, 8)))
        free = mask_of(nodes)
        if case % 3 == 0:
            stale = None
        elif case % 3 == 1:  # the leading pool nodes all stale
            stale = mask_of(nodes[: rng.randint(0, len(nodes))]) | rng.getrandbits(12)
        else:
            stale = rng.getrandbits(12)
        for k in range(len(nodes) + 1):
            asked = 0
            for combo in itertools.combinations(nodes, k):
                chosen = mask_of(combo)
                assert builder._lex_rank(free, chosen, stale) == asked, (
                    case, free, chosen, stale,
                )
                asked += stale is None or bool(chosen & ~stale)


class _MaskedCountingOracle(CountingOracle):
    """Counts the questions that reach d-separation past DsepOracle's mask."""

    dependent_mask = DsepOracle.dependent_mask


def _mask_cases():
    rng = random.Random(4343)
    for seed in range(9000, 9020):
        gt = random_dag(RandomDagSpec(26, 36, seed=seed))
        full = full_expert_info(gt)
        labels = [s for s in full if not isinstance(s, CauseOf)]
        for statements in (full, full[: len(full) // 2], labels):
            yield gt, statements
    for case in range(300):
        n = rng.randint(4, 7)
        arcs = rng.randint(0, min(2 * n - 2, n * (n - 1) // 2))
        gt = random_dag(RandomDagSpec(n, arcs, seed=80_000 + case))
        keep = rng.random()
        yield gt, [s for s in full_expert_info(gt) if rng.random() < keep]


@pytest.mark.parametrize(
    "config",
    [
        {},
        {"use_cache": False},
        {"max_parents": 1},
        {"max_parents": 2},
        {"trust_expert": True},
        {"trust_expert": True, "max_parents": 2},
    ],
    ids=repr,
)
def test_dependent_mask_changes_no_result_or_count(config):
    # the mask answers questions without the model and counts them by rank;
    # without it (CountingOracle) the build's count is the model's own
    real = counted = 0
    for gt, statements in _mask_cases():
        oracle = _MaskedCountingOracle(gt)
        info = compile_statements(statements, gt.names())
        masked = build(oracle, gt.names(), info, BuildConfig(**config))
        unmasked = _build(gt, statements, **config)
        assert result_bytes(masked) == result_bytes(unmasked), (gt.arcs(), config)
        assert masked.oracle_calls == unmasked.oracle_calls, (gt.arcs(), config)
        real, counted = real + oracle.calls, counted + masked.oracle_calls
    assert real < counted


class _RecordingOracle(DsepOracle):
    """Records the (x, z) masks of every query it answers; it declares no
    dependence mask, so every question a build counts reaches it."""

    def __init__(self, ground_truth):
        super().__init__(ground_truth)
        self.asked = []

    def is_independent_mask(self, x, z, y):
        self.asked.append((x, z))
        return super().is_independent_mask(x, z, y)

    def dependent_mask(self, v):
        return 0


def test_reused_cache_asks_only_new_subsets_at_exhausted_sizes():
    # X has parents A and B; C is unrelated to X
    gt = make_dag("A B C X", [("A", "X"), ("B", "X")])
    A, B, C, X = 1, 2, 4, 8  # node masks
    oracle = _RecordingOracle(gt)
    cache = {}
    assert boundary_stratum(oracle, [0, 1], 3, cache=cache) == {0, 1}
    assert oracle.asked == [(X, 0), (X, A), (X, B)]
    assert cache == {3: {0: A | B, 1: A | B}}

    oracle.asked.clear()
    assert boundary_stratum(oracle, [0, 1, 2], 3, cache=cache) == {0, 1}
    # sizes 0 and 1 were exhausted at {A, B}: of them only {C} is new
    assert oracle.asked == [(X, C), (X, A | B)]
    assert cache == {3: {0: A | B | C, 1: A | B | C}}


def _recorded_build(gt, info, **config_kwargs):
    oracle = _RecordingOracle(gt)
    result = build(oracle, gt.names(), info, BuildConfig(**config_kwargs))
    return result, oracle.asked


def test_cached_build_asks_each_uncached_query_once():
    rng = random.Random(808)
    cases = []
    for case in range(40):
        n = rng.randint(4, 7)
        arcs = rng.randint(0, min(2 * n - 2, n * (n - 1) // 2))
        gt = random_dag(RandomDagSpec(n, arcs, seed=60_000 + case))
        keep = rng.random()
        cases.append((gt, [s for s in full_expert_info(gt) if rng.random() < keep]))
    for seed in (9003, 9011, 9016):
        gt = random_dag(RandomDagSpec(26, 36, seed=seed))
        cases.append((gt, [s for s in full_expert_info(gt) if rng.random() < 0.5]))
    configs = ({}, {"max_parents": 1}, {"max_parents": 2}, {"trust_expert": True})
    saw_repeat = False
    for gt, statements in cases:
        info = compile_statements(statements, gt.names())
        for config in configs:
            cached, asked = _recorded_build(gt, info, **config)
            _, uncached_asked = _recorded_build(gt, info, use_cache=False, **config)
            assert len(set(asked)) == len(asked) == cached.oracle_calls, config
            assert set(asked) == set(uncached_asked), config
            saw_repeat |= len(uncached_asked) > len(asked)
    assert saw_repeat


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


def test_build_enters_each_search_layer_once_per_node(monkeypatch, diamond):
    # build reaches both layers through their module globals, once per node
    # placed, a parent-bound fallback included; with nothing declared, the
    # search queries the model's own method, with no wrapper in between
    calls, queries = Counter(), set()
    for name in ("select_winner", "boundary_stratum"):

        def counted(*args, _name=name, _real=getattr(builder, name)):
            calls[_name] += 1
            queries.add(getattr(args[0], "__func__", args[0]))
            return _real(*args)

        monkeypatch.setattr(builder, name, counted)
    paper = random_dag(RandomDagSpec(26, 36, seed=9000))
    collider = make_dag("A B C", [("A", "C"), ("B", "C")])
    for gt, statements, config in (
        (diamond, [], {}),
        (paper, full_expert_info(paper), {}),
        (collider, [], {"max_parents": 1}),
    ):
        calls.clear()
        _build(gt, statements, **config)
        n = gt.node_count
        assert calls == {"select_winner": n, "boundary_stratum": n}, gt.names()
    assert queries == {CountingOracle.is_independent_mask}


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


def test_trusted_causes_over_the_bound_fall_back_to_all_earlier_nodes():
    # C's two declared causes cannot fit one parent, so no subset is tried and
    # C keeps every earlier node, the unrelated D included
    gt = make_dag("A B C D", [("A", "B"), ("B", "C")])
    statements = [CauseOf("A", "C"), CauseOf("B", "C")]
    result = _build(gt, statements, trust_expert=True, max_parents=1)
    assert [(w.kind, w.node) for w in result.warnings] == [
        (WarningKind.PARENT_BOUND_FALLBACK, 2)
    ]
    assert result.node_order[-1] == 2
    assert result.strata[2] == {0, 1, 3}
    assert not result.minimality_guaranteed
    _check_result_invariants(result)


def test_empty_universe_builds_nothing():
    result = _build(Dag([]))
    assert result.network.arc_count == 0
    assert result.node_order == []
    assert result.oracle_calls == 0
    assert result.warnings == []


def test_bound_wide_enough_changes_nothing():
    gt = make_dag("A B C D", [("A", "B"), ("B", "C"), ("B", "D")])
    bounded = _build(gt, full_expert_info(gt), max_parents=1)
    unbounded = _build(gt, full_expert_info(gt))
    assert bounded.network == unbounded.network
    assert bounded.warnings == []


def test_overlay_conflict_surfaces_as_warning():
    gt = make_dag("A B C", [("A", "B"), ("B", "C")])
    # both declarations contradict the chain; warnings follow the order the
    # build hits them, not the order they were declared
    declared = [
        Independence(("C",), (), ("A", "B")),
        Independence(("B",), (), ("A",)),
    ]
    result = _build(gt, declared)
    assert result.network.arc_count == 0
    assert [(w.kind, w.node, w.detail) for w in result.warnings] == [
        (
            WarningKind.OVERLAY_CONFLICT,
            1,
            "declared independence I({B}; {}; {A}) contradicts the model",
        ),
        (
            WarningKind.OVERLAY_CONFLICT,
            2,
            "declared independence I({C}; {}; {A, B}) contradicts the model",
        ),
    ]
    assert result.oracle_calls == 2


def test_malformed_declaration_raises(fig_common_cause):
    declared = Independence(("T1",), ("T1",), ("T2",))
    with pytest.raises(InvalidQueryError, match="pairwise disjoint"):
        _build(fig_common_cause, [declared])


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


def _outcome(result):
    return result_bytes(result), result.oracle_calls, result.minimality_guaranteed


def test_build_matches_the_reference_build():
    # 300 small truths, each with a random share of its full statements and
    # every third with a random declared triple, under six configs
    rng = random.Random(13)
    kinds = Counter()
    for case in range(300):
        n = rng.randint(4, 7)
        arcs = rng.randint(0, min(n * (n - 1) // 2, 2 * n))
        truth = random_dag(RandomDagSpec(n, arcs, seed=case))
        statements = [s for s in full_expert_info(truth) if rng.random() < 0.6]
        if case % 3 == 0:
            a, b, *others = rng.sample(truth.names(), n)
            statements.append(
                Independence((a,), tuple(o for o in others if rng.random() < 0.5), (b,))
            )
        info = compile_statements(statements, truth.names())
        oracle = DsepOracle(truth)
        for config in CONFIGS:
            want = reference_build(oracle, truth.names(), info, config)
            got = build(oracle, truth.names(), info, config)
            assert _outcome(got) == _outcome(want), (case, config)
            kinds.update({w.kind for w in want.warnings})
    assert set(kinds) == set(WarningKind)  # every warning kind was compared


class _Unnamed(IndependenceModel):
    """d-separation in a ground truth, with no universe of its own."""

    def __init__(self, ground_truth):
        self._oracle = DsepOracle(ground_truth)

    def is_independent(self, x, z, y):
        return self._oracle.is_independent(x, z, y)


def test_a_replay_resumes_only_the_same_model_universe_and_config(monkeypatch):
    searched = 0

    def counted(*args, _real=builder.select_winner):
        nonlocal searched
        searched += 1
        return _real(*args)

    monkeypatch.setattr(builder, "select_winner", counted)
    truth = random_dag(RandomDagSpec(8, 12, seed=4))
    names = truth.names()
    renamed = [name.lower() for name in names]
    full = compile_statements(full_expert_info(truth), names)
    declared = compile_statements(
        full_expert_info(truth) + [Independence(("N0",), (), ("N1",))], names
    )
    oracle, other, unnamed = DsepOracle(truth), DsepOracle(truth), _Unnamed(truth)
    replay = builder._Replay()

    def steps_searched(model, info=full, config=None, universe=names):
        nonlocal searched
        searched = 0
        result = build(model, universe, info, config, _replay=replay)
        steps = searched
        assert _outcome(result) == _outcome(build(model, universe, info, config))
        return steps

    n = truth.node_count
    assert steps_searched(oracle) == n  # nothing to resume yet
    assert steps_searched(oracle) == 0  # every step replays
    assert steps_searched(other) == n  # another model object
    assert steps_searched(other) == 0
    assert steps_searched(other, config=BuildConfig(max_parents=2)) == n
    assert steps_searched(other, config=BuildConfig(max_parents=2)) == 0
    assert steps_searched(unnamed) == n
    assert steps_searched(unnamed) == 0
    renamed_truth = make_dag(renamed, [(renamed[p], renamed[c]) for p, c in truth.arcs()])
    renamed_info = compile_statements(full_expert_info(renamed_truth), renamed)
    assert steps_searched(unnamed, info=renamed_info, universe=renamed) == n
    assert steps_searched(unnamed, info=renamed_info, universe=renamed) == 0
    # neither resumes nor records: declared triples, or no failure cache
    assert steps_searched(oracle) == n
    assert steps_searched(oracle, info=declared) == n
    assert steps_searched(oracle, info=declared) == n
    assert steps_searched(oracle) == n
    assert steps_searched(oracle, config=BuildConfig(use_cache=False)) == n
    assert steps_searched(oracle, config=BuildConfig(use_cache=False)) == n
    assert steps_searched(oracle) == n


class _Failing(CountingOracle):
    """A CountingOracle that raises once it has answered ``limit`` questions."""

    limit = None

    def is_independent_mask(self, x, z, y):
        if self.calls == self.limit:
            raise RuntimeError("model failed")
        return super().is_independent_mask(x, z, y)


def test_a_replay_survives_a_build_that_raised():
    # an aborted step is never recorded, and its cache writes go with its
    # build, so the next build searches that step from a clean cache
    truth = random_dag(RandomDagSpec(9, 14, seed=8))
    names = truth.names()
    statements = full_expert_info(truth)
    labels = [s for s in statements if not isinstance(s, CauseOf)]
    info = compile_statements(labels, names)
    fresh = build(DsepOracle(truth), names, info)
    for limit in (5, 40, 100):
        model, replay = _Failing(truth), builder._Replay()
        build(model, names, compile_statements(statements, names), _replay=replay)
        model.calls, model.limit = 0, limit
        with pytest.raises(RuntimeError):
            build(model, names, info, _replay=replay)
        model.limit = None
        assert _outcome(build(model, names, info, _replay=replay)) == _outcome(fresh)


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


def _verification_cases(count=1200, seed=2024):
    """(case, candidate, ground truth) over 2-7 nodes. Candidates cycle through
    random DAGs, built networks (minimal I-maps), built networks with one arc
    dropped (no I-maps) and with one forward arc added (I-maps, not minimal)."""
    rng = random.Random(seed)
    for case in range(count):
        n = rng.randint(2, 7)
        most = n * (n - 1) // 2
        arcs = rng.randint(0, min(2 * n - 2, most))
        gt = random_dag(RandomDagSpec(n, arcs, seed=rng.randrange(2**32)))
        kind = case % 4
        if kind == 0:
            spec = RandomDagSpec(n, rng.randint(0, most), seed=rng.randrange(2**32))
            yield case, random_dag(spec), gt
            continue
        result = _build(gt, [s for s in full_expert_info(gt) if rng.random() < 0.5])
        candidate = result.network
        if kind == 2 and candidate.arc_count:
            dropped = rng.choice(candidate.arcs())
            kept = [arc for arc in candidate.arcs() if arc != dropped]
            candidate = Dag(gt.names())
            for arc in kept:
                candidate.add_arc(*arc)
        elif kind == 3:
            order = result.node_order
            forward = [
                (u, v)
                for i, u in enumerate(order)
                for v in order[i + 1 :]
                if not candidate.has_arc(u, v)
            ]
            if forward:
                candidate.add_arc(*rng.choice(forward))
        yield case, candidate, gt


def test_ordered_markov_checks_match_exhaustive_reference():
    started = time.perf_counter()
    verdicts = Counter()
    for case, candidate, gt in _verification_cases():
        oracle = DsepOracle(gt)
        expected = (
            exhaustive_is_imap(candidate, oracle),
            exhaustive_is_minimal_imap(candidate, oracle),
        )
        got = (is_imap(candidate, oracle), is_minimal_imap(candidate, oracle))
        assert got == expected, (case, candidate.arcs(), gt.arcs())
        verdicts[expected] += 1
    assert set(verdicts) == {(False, False), (True, False), (True, True)}, verdicts
    assert time.perf_counter() - started < 10.0
