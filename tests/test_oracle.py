import random

import pytest

from sparsebn import (
    DsepOracle,
    Independence,
    InvalidQueryError,
    RandomDagSpec,
    WarningKind,
    build,
    compile_statements,
    d_separated,
    full_expert_info,
    random_dag,
)
from sparsebn.dsep import d_separated_checked

from conftest import counted_build, make_dag, result_bytes


def test_fig_common_cause_query(fig_common_cause):
    oracle = DsepOracle(fig_common_cause)
    assert oracle.is_independent([1], [0], [2]) is True
    assert oracle.is_independent([1], [], [2]) is False


def test_invalid_queries_raise(fig_common_cause):
    oracle = DsepOracle(fig_common_cause)
    with pytest.raises(InvalidQueryError):
        oracle.is_independent([1], [], [])
    with pytest.raises(InvalidQueryError):
        oracle.is_independent([1], [1], [2])


def test_counter_matches_instrumented_replay():
    rng = random.Random(5)
    dag = random_dag(RandomDagSpec(6, 7, seed=5))
    oracle = DsepOracle(dag)
    queries = []
    for _ in range(200):
        pool = list(range(6))
        rng.shuffle(pool)
        x, y = [pool[0]], [pool[1]]
        z = [v for v in pool[2:] if rng.random() < 0.5]
        queries.append((x, z, y))
    answers = [oracle.is_independent(*q) for q in queries]
    # replay is deterministic
    assert [oracle.is_independent(*q) for q in queries] == answers


def test_dependent_mask_is_sound_and_exact():
    # a node in v's mask stays dependent on v under every conditioning set;
    # one outside it is separated from v by v's or its own parents (the local
    # Markov property picks whichever of the two is the later node)
    rng = random.Random(23)
    for i in range(60):
        n = rng.randint(2, 9)
        arcs = rng.randint(0, n * (n - 1) // 2)
        dag = random_dag(RandomDagSpec(n, arcs, seed=i))
        oracle = DsepOracle(dag)
        for v in range(n):
            mask = oracle.dependent_mask(v)
            assert not mask >> v & 1
            for y in range(n):
                if y == v:
                    continue
                others = [u for u in range(n) if u not in (v, y)]
                if mask >> y & 1:
                    for _ in range(10):
                        z = sum(1 << u for u in others if rng.random() < 0.5)
                        assert not d_separated_checked(dag, 1 << v, z, 1 << y)
                else:
                    assert any(
                        d_separated_checked(dag, 1 << v, z, 1 << y)
                        for z in (dag._parent_masks[v], dag._parent_masks[y])
                    ), (dag.arcs(), v, y)


def test_declared_triple_overrides_dependent_mask():
    # against a plain DsepOracle, whose mask puts A in B's way: the declared
    # triple still answers the build's one question
    gt = make_dag("A B", [("A", "B")])
    oracle = DsepOracle(gt)
    assert oracle.dependent_mask(1) == 1
    info = compile_statements([Independence(("B",), (), ("A",))], gt.names())
    result = build(oracle, gt.names(), info)
    assert result.network.arc_count == 0
    assert [w.kind for w in result.warnings] == [WarningKind.OVERLAY_CONFLICT]
    assert result.oracle_calls == 1


def _assert_declared_answer_overrides(declared):
    # A -> B: a build's one query, I(B; {}; A), is answered by the declaration,
    # counted once and reported as contradicting the model
    gt = make_dag("A B", [("A", "B")])
    assert not d_separated(gt, [1], [], [0])
    result = counted_build(gt, [declared])
    assert result.network.arc_count == 0
    assert [(w.kind, w.node, w.detail) for w in result.warnings] == [
        (
            WarningKind.OVERLAY_CONFLICT,
            1,
            "declared independence I({B}; {}; {A}) contradicts the model",
        )
    ]
    assert result.oracle_calls == 1


def test_declared_triple_overrides_graph():
    _assert_declared_answer_overrides(Independence(("B",), (), ("A",)))


def test_declared_triple_matches_swapped_sides():
    _assert_declared_answer_overrides(Independence(("A",), (), ("B",)))


def test_consistent_declared_triple_records_no_conflict(fig_common_cause):
    plain = counted_build(fig_common_cause)
    overlaid = counted_build(fig_common_cause, [Independence(("T1",), ("T",), ("T2",))])
    assert overlaid.warnings == []
    assert result_bytes(overlaid) == result_bytes(plain)
    assert overlaid.oracle_calls == plain.oracle_calls


def test_overlay_is_monotone():
    # declarations only ever answer True, so declaring d-separations that hold
    # leaves every answer, so every result, and the query count as they were
    rng = random.Random(17)
    for i in range(20):
        gt = random_dag(RandomDagSpec(6, rng.randint(0, 10), seed=100 + i))
        names = gt.names()
        declared = []
        for _ in range(30):
            pool = list(range(6))
            rng.shuffle(pool)
            cut = rng.randint(1, 5)
            z = pool[1 : rng.randint(1, cut)]
            y = pool[1 + len(z) : cut + 1]
            if d_separated(gt, pool[:1], z, y):
                declared.append(
                    Independence(
                        (names[pool[0]],),
                        tuple(names[v] for v in z),
                        tuple(names[v] for v in y),
                    )
                )
        statements = [s for s in full_expert_info(gt) if rng.random() < 0.5]
        plain = counted_build(gt, statements)
        overlaid = counted_build(gt, statements + declared)
        assert result_bytes(overlaid) == result_bytes(plain), i
        assert overlaid.oracle_calls == plain.oracle_calls, i


def test_universe_exposed(fig_common_cause):
    assert DsepOracle(fig_common_cause).universe == ("T", "T1", "T2")
