from __future__ import annotations

import itertools

import pytest

from sparsebn import BuildConfig, Dag, DsepOracle, build, compile_statements
from sparsebn.cli import model_text
from sparsebn.dsep import d_separated_checked


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


class CountingOracle(DsepOracle):
    """A DsepOracle that counts the mask queries it answers, as an independent
    check on the count a build reports. It declares no dependence mask, so
    every question a build counts reaches it."""

    def __init__(self, ground_truth):
        super().__init__(ground_truth)
        self.calls = 0

    def is_independent_mask(self, x, z, y):
        self.calls += 1
        return super().is_independent_mask(x, z, y)

    def dependent_mask(self, v):
        return 0


def counted_build(ground_truth, statements=(), **config_kwargs):
    """Build against a CountingOracle of ``ground_truth``, checking the build's
    own query count against the oracle's."""
    oracle = CountingOracle(ground_truth)
    info = compile_statements(list(statements), ground_truth.names())
    config = BuildConfig(**config_kwargs) if config_kwargs else None
    result = build(oracle, ground_truth.names(), info, config)
    assert oracle.calls == result.oracle_calls
    return result


def result_bytes(result):
    """A build result's network, warnings, order and strata as bytes."""
    parts = [
        model_text(result.network),
        repr([(w.kind.value, w.node, w.detail) for w in result.warnings]),
        repr(result.node_order),
        repr(sorted((node, tuple(sorted(s))) for node, s in result.strata.items())),
    ]
    return "\n".join(parts).encode()


def with_forward_arc(dag):
    """A copy of ``dag`` plus its first missing arc along a topological order."""
    order = dag.topological_order()
    padded = dag.copy()
    padded.add_arc(
        *next(
            (u, v)
            for i, u in enumerate(order)
            for v in order[i + 1 :]
            if not dag.has_arc(u, v)
        )
    )
    return padded


def exhaustive_is_imap(network, model):
    """Reference I-map check: every singleton d-separation of the network,
    under every conditioning set, must hold in the model."""
    query = model.is_independent_mask
    nodes = [1 << v for v in range(network.node_count)]
    for i, x in enumerate(nodes):
        for y in nodes[i + 1 :]:
            others = [v for v in nodes if v != x and v != y]
            for r in range(len(others) + 1):
                for z in map(sum, itertools.combinations(others, r)):
                    if d_separated_checked(network, x, z, y) and not query(x, z, y):
                        return False
    return True


def exhaustive_is_minimal_imap(network, model):
    """Reference minimality check: an I-map that no single arc deletion keeps one."""
    if not exhaustive_is_imap(network, model):
        return False
    for dropped in network.arcs():
        thinned = Dag(network.names())
        for arc in network.arcs():
            if arc != dropped:
                thinned.add_arc(*arc)
        if exhaustive_is_imap(thinned, model):
            return False
    return True


@pytest.fixture
def fig_common_cause():
    """Hidden cause T with two sensors T1, T2; a perfect map of its model."""
    return make_dag("T T1 T2", [("T", "T1"), ("T", "T2")])


@pytest.fixture
def diamond():
    """A -> B, A -> C, B -> D, C -> D."""
    return make_dag("A B C D", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
