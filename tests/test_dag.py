import random

import pytest

from sparsebn import CycleError, Dag, DuplicateNodeError, UnknownNodeError
from sparsebn.dag import mask_of

from conftest import make_dag


def test_add_node_assigns_dense_indices():
    dag = Dag()
    assert dag.add_node("T") == 0
    assert dag.add_node("T1") == 1
    assert dag.names() == ["T", "T1"]
    assert dag.index_of("T1") == 1
    assert dag.name_of(0) == "T"


def test_duplicate_name_rejected():
    dag = Dag(["T"])
    with pytest.raises(DuplicateNodeError):
        dag.add_node("T")


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        Dag([""])


def test_constructor_registers_like_add_node():
    one_by_one = Dag()
    for name in ("B", "A", "C"):
        one_by_one.add_node(name)
    dag = Dag(["B", "A", "C"])
    assert dag == one_by_one
    assert [dag.index_of(name) for name in "ABC"] == [1, 0, 2]
    assert dag._mutations == one_by_one._mutations
    # the first bad name raises, as add_node would
    with pytest.raises(DuplicateNodeError, match="'A'"):
        Dag(["A", "B", "A", ""])
    with pytest.raises(ValueError, match="non-empty"):
        Dag(["A", "", "A"])


def test_unknown_lookups():
    dag = Dag(["A"])
    with pytest.raises(UnknownNodeError):
        dag.index_of("B")
    with pytest.raises(UnknownNodeError):
        dag.name_of(3)
    with pytest.raises(UnknownNodeError):
        dag.add_arc(0, 1)


def test_add_arc_and_duplicates_are_noops():
    dag = make_dag("A B C", [("A", "B")])
    dag.add_arc(1, 2)
    dag.add_arc(1, 2)  # duplicate
    assert dag.arcs() == [(0, 1), (1, 2)]
    assert dag.arc_count == 2


def test_three_cycle_rejected_with_cycle_named():
    dag = make_dag("A B C", [("A", "B"), ("B", "C")])
    with pytest.raises(CycleError) as exc:
        dag.add_arc(2, 0)
    assert exc.value.cycle == ["C", "A", "B", "C"]
    # failed insertion leaves the graph untouched
    assert dag.arcs() == [(0, 1), (1, 2)]


def test_self_loop_rejected():
    dag = Dag(["A"])
    with pytest.raises(CycleError):
        dag.add_arc(0, 0)


def test_ancestors_chain():
    dag = make_dag("A B C", [("A", "B"), ("B", "C")])
    assert dag.ancestors(2) == {0, 1}
    assert dag.ancestors(0) == frozenset()
    assert dag.descendants(0) == {1, 2}


def _closure_by_iteration(dag, v):
    # independent oracle: expand parent sets to a fixed point
    anc = set(dag.parents(v))
    while True:
        grown = set(anc)
        for u in anc:
            grown |= dag.parents(u)
        if grown == anc:
            return frozenset(anc)
        anc = grown


def test_ancestors_diamond(diamond):
    expected = _closure_by_iteration(diamond, 3)
    assert expected == {0, 1, 2}
    assert diamond.ancestors(3) == expected


def test_topological_order_respects_arcs_and_breaks_ties_by_index():
    dag = make_dag("A B", [("B", "A")])
    assert dag.topological_order() == [1, 0]
    assert Dag(["X", "Y", "Z"]).topological_order() == [0, 1, 2]


def test_topological_order_diamond(diamond):
    assert diamond.topological_order() == [0, 1, 2, 3]


def test_roots_and_leaves(diamond):
    assert diamond.roots() == [0]
    assert diamond.leaves() == [3]


def test_copy_is_independent(diamond):
    twin = diamond.copy()
    assert twin == diamond
    twin.add_arc(0, 3)
    assert twin != diamond


def test_random_insertions_preserve_invariants():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(1, 8)
        dag = Dag(f"v{i}" for i in range(n))
        for _ in range(3 * n):
            parent, child = rng.randrange(n), rng.randrange(n)
            must_reject = child == parent or child in dag.ancestors(parent)
            try:
                dag.add_arc(parent, child)
                rejected = False
            except CycleError:
                rejected = True
            assert rejected == must_reject

        order = dag.topological_order()
        position = {v: i for i, v in enumerate(order)}
        assert sorted(order) == list(range(n))
        for parent, child in dag.arcs():
            assert position[parent] < position[child]
        for v in range(n):
            assert v not in dag.ancestors(v)
            for u in dag.ancestors(v):
                assert v in dag.descendants(u)


def test_adopt_matches_add_arc_and_refreshes_closures():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 8)
        checked = Dag(f"v{i}" for i in range(n))
        adopted = Dag(f"v{i}" for i in range(n))
        order = list(range(n))
        rng.shuffle(order)
        for i, child in enumerate(order):
            parents = [p for p in order[:i] if rng.random() < 0.5]
            for p in parents:
                checked.add_arc(p, child)
            split = rng.randint(0, len(parents))  # adopting in two parts adds both
            for part in (parents[:split], parents[split:]):
                adopted.ancestor_closures()  # cached before each adoption
                adopted._adopt(child, mask_of(part))
            assert adopted == checked
            assert [adopted.parents(v) for v in range(n)] == [
                checked.parents(v) for v in range(n)
            ]
            closures = adopted.ancestor_closures()
            assert closures == [mask_of(checked.ancestors(v)) | 1 << v for v in range(n)]
