from __future__ import annotations

import pytest

from sparsebn import Dag
from sparsebn.cli import model_text


def make_dag(names, arcs=()):
    """Dag from a name list (or space-separated string) and name-pair arcs."""
    if isinstance(names, str):
        names = names.split()
    dag = Dag(names)
    for parent, child in arcs:
        dag.add_arc(dag.index_of(parent), dag.index_of(child))
    return dag


def arc_names(dag):
    return {(dag.name_of(p), dag.name_of(c)) for p, c in dag.arcs()}


def result_bytes(result):
    """A build result's network, warnings, order and strata as bytes."""
    parts = [
        model_text(result.network),
        repr([(w.kind.value, w.node, w.detail) for w in result.warnings]),
        repr(result.node_order),
        repr(sorted((node, tuple(sorted(s))) for node, s in result.strata.items())),
    ]
    return "\n".join(parts).encode()


@pytest.fixture
def fig_common_cause():
    """Hidden cause T with two sensors T1, T2; a perfect map of its model."""
    return make_dag("T T1 T2", [("T", "T1"), ("T", "T2")])


@pytest.fixture
def diamond():
    """A -> B, A -> C, B -> D, C -> D."""
    return make_dag("A B C D", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
