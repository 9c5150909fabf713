import random

import pytest

from sparsebn import (
    CausedBy,
    CauseOf,
    ContradictionError,
    ContradictionKind,
    Evidence,
    ExpertInfo,
    Hypothesis,
    Independence,
    ParseError,
    Priority,
    compile_statements,
    parse_statements,
)
from sparsebn.dag import mask_of

UNIVERSE = ["A", "B", "C", "D"]


def _kinds(err):
    return {f.kind for f in err.findings}


# ---------------------------------------------------------------- parsing


def test_parse_full_grammar():
    text = """
    # roles
    hypothesis A
    evidence B   # trailing comment
    cause A B
    causedby B A

    indep A, B | C | D
    indep A | | B
    """
    statements = parse_statements(text)
    assert statements == [
        Hypothesis("A"),
        Evidence("B"),
        CauseOf("A", "B"),
        CausedBy("B", "A"),
        Independence(("A", "B"), ("C",), ("D",)),
        Independence(("A",), (), ("B",)),
    ]


@pytest.mark.parametrize(
    "line",
    [
        "hypothesis",
        "hypothesis A B",
        "cause A",
        "wibble A",
        "indep A | B",
        "indep | A | B",
        "indep A-b | | C",
        "cause A b-c",
    ],
)
def test_parse_rejects_bad_lines(line):
    with pytest.raises(ParseError):
        parse_statements(line)


def test_parse_error_carries_source_and_line():
    with pytest.raises(ParseError) as exc:
        parse_statements("hypothesis A\nnonsense B\n", source="expert.txt")
    assert "expert.txt:2" in str(exc.value)


# ---------------------------------------------------------------- compile


def test_compile_labels_only():
    info = compile_statements(
        [Hypothesis("A"), Evidence("B"), Evidence("C")], UNIVERSE
    )
    assert info.hypothesis_set == {0}
    assert info.evidence_set == {1, 2}
    assert info.info_dag.arc_count == 0


def test_causedby_normalizes_to_cause():
    via_cause = compile_statements([CauseOf("A", "B")], UNIVERSE)
    via_causedby = compile_statements([CausedBy("B", "A")], UNIVERSE)
    assert via_cause.info_dag == via_causedby.info_dag
    assert via_cause.hypothesis_set == via_causedby.hypothesis_set
    assert via_cause.evidence_set == via_causedby.evidence_set


def test_cause_cycle_detected():
    with pytest.raises(ContradictionError) as exc:
        compile_statements([CauseOf("A", "B"), CauseOf("B", "A")], UNIVERSE)
    assert _kinds(exc.value) == {ContradictionKind.CAUSE_CYCLE}


def test_hypothesis_with_cause_detected():
    with pytest.raises(ContradictionError) as exc:
        compile_statements([Hypothesis("A"), CauseOf("B", "A")], UNIVERSE)
    assert _kinds(exc.value) == {ContradictionKind.HYPOTHESIS_WITH_CAUSE}


def test_evidence_with_effect_detected():
    with pytest.raises(ContradictionError) as exc:
        compile_statements([Evidence("A"), CauseOf("A", "B")], UNIVERSE)
    assert _kinds(exc.value) == {ContradictionKind.EVIDENCE_WITH_EFFECT}


def test_hypothesis_evidence_clash_detected():
    with pytest.raises(ContradictionError) as exc:
        compile_statements([Hypothesis("A"), Evidence("A")], UNIVERSE)
    assert _kinds(exc.value) == {ContradictionKind.HYPOTHESIS_EVIDENCE_CLASH}


def test_unknown_name_detected():
    with pytest.raises(ContradictionError) as exc:
        compile_statements([Hypothesis("Zed")], UNIVERSE)
    assert _kinds(exc.value) == {ContradictionKind.UNKNOWN_NAME}


def test_all_contradictions_reported_not_just_first():
    statements = [
        Hypothesis("A"),
        Evidence("A"),
        CauseOf("B", "A"),
        CauseOf("C", "D"),
        CauseOf("D", "C"),
        Hypothesis("Zed"),
    ]
    with pytest.raises(ContradictionError) as exc:
        compile_statements(statements, UNIVERSE)
    assert _kinds(exc.value) == {
        ContradictionKind.HYPOTHESIS_EVIDENCE_CLASH,
        ContradictionKind.HYPOTHESIS_WITH_CAUSE,
        ContradictionKind.CAUSE_CYCLE,
        ContradictionKind.UNKNOWN_NAME,
    }


def test_declared_independencies_compiled_to_indices():
    info = compile_statements(
        [Independence(("A",), ("B",), ("C", "D"))], UNIVERSE
    )
    assert info.declared_independencies == [
        (frozenset([0]), frozenset([1]), frozenset([2, 3]))
    ]


# ---------------------------------------------------------------- priority


def _info(statements):
    return compile_statements(statements, UNIVERSE)


def test_hypothesis_outranks_everything():
    info = _info([Hypothesis("A"), Evidence("B")])
    assert info.priority_compare(0, 1) is Priority.HIGHER
    assert info.priority_compare(0, 2) is Priority.HIGHER
    assert info.priority_compare(1, 0) is Priority.LOWER


def test_evidence_ranks_below_plain_nodes():
    info = _info([Evidence("A")])
    assert info.priority_compare(0, 1) is Priority.LOWER
    assert info.priority_compare(1, 0) is Priority.HIGHER


def test_ancestor_outranks_descendant():
    info = _info([CauseOf("A", "B"), CauseOf("B", "C")])
    assert info.priority_compare(0, 2) is Priority.HIGHER
    assert info.priority_compare(2, 0) is Priority.LOWER
    assert info.priority_compare(0, 3) is Priority.SAME


def test_unannotated_unrelated_nodes_are_same():
    info = ExpertInfo.empty(UNIVERSE)
    assert info.priority_compare(0, 1) is Priority.SAME
    assert info.priority_compare(2, 2) is Priority.SAME


def _random_infos(rng, count=40):
    """Compiled infos over six nodes with random labels and cause arcs."""
    names = [f"v{i}" for i in range(6)]
    for _ in range(count):
        statements = []
        for v in names:
            roll = rng.random()
            if roll < 0.25:
                statements.append(Hypothesis(v))
            elif roll < 0.5:
                statements.append(Evidence(v))
        hyp = {s.node for s in statements if isinstance(s, Hypothesis)}
        evid = {s.node for s in statements if isinstance(s, Evidence)}
        for _ in range(5):
            a, b = rng.sample(names, 2)
            if b not in hyp and a not in evid:
                statements.append(CauseOf(a, b))
        try:
            info = compile_statements(statements, names)
        except ContradictionError:
            continue
        yield info


def test_priority_antisymmetry_on_random_infos():
    for info in _random_infos(random.Random(31)):
        for a in range(6):
            assert info.priority_compare(a, a) is Priority.SAME
            for b in range(6):
                if a == b:
                    continue
                ab = info.priority_compare(a, b)
                ba = info.priority_compare(b, a)
                assert (ab is Priority.HIGHER) == (ba is Priority.LOWER)
                assert (ab is Priority.SAME) == (ba is Priority.SAME)


# ------------------------------------------------------- maximal candidates


def test_maximal_candidates_prefers_hypothesis():
    info = _info([Hypothesis("A"), Evidence("B")])
    assert info.maximal_candidates(mask_of({0, 1, 2})) == {0}


def test_maximal_candidates_all_same():
    info = ExpertInfo.empty(UNIVERSE)
    assert info.maximal_candidates(mask_of({0, 1, 3})) == {0, 1, 3}


def test_maximal_candidates_ancestor_wins():
    info = _info([CauseOf("A", "B")])
    assert info.maximal_candidates(mask_of({0, 1})) == {0}


def test_maximal_candidates_subset_and_nonempty():
    rng = random.Random(77)
    names = [f"v{i}" for i in range(6)]
    for trial in range(30):
        statements = []
        for _ in range(4):
            a, b = rng.sample(names, 2)
            statements.append(CauseOf(a, b))
        try:
            info = compile_statements(statements, names)
        except ContradictionError:
            continue
        pool = rng.sample(range(6), rng.randint(1, 6))
        winners = info.maximal_candidates(mask_of(pool))
        assert winners
        assert winners <= set(pool)


def test_maximal_candidates_match_pairwise_definition():
    rng = random.Random(32)
    for info in _random_infos(rng, count=100):
        for _ in range(5):
            pool = rng.sample(range(6), rng.randint(1, 6))
            pairwise = {
                c
                for c in pool
                if not any(info.priority_compare(d, c) is Priority.HIGHER for d in pool)
            }
            assert info.maximal_candidates(mask_of(pool)) == pairwise


def test_maximal_candidates_rejects_empty():
    with pytest.raises(ValueError):
        ExpertInfo.empty(UNIVERSE).maximal_candidates(0)
