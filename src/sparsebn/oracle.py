"""Conditional-independence oracles.

The builder only needs a predicate answering "is x independent of y given
z?" over a fixed variable universe. ``DsepOracle`` backs that predicate with
d-separation in a ground-truth DAG and layers expert-declared independence
triples on top: a declared triple answers True before the graph is consulted,
and any declared triple the graph disagrees with is recorded as a conflict
for the caller to surface.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections.abc import Iterable

from .dag import Dag, NodeSet, mask_of, nodes_of
from .dsep import check_query, d_separated_checked

Triple = tuple[NodeSet, NodeSet, NodeSet]


class IndependenceModel(ABC):
    """Deterministic predicate over I(x, z, y) queries, symmetric in x and y."""

    @abstractmethod
    def is_independent(
        self, x: Iterable[int], z: Iterable[int], y: Iterable[int]
    ) -> bool:
        raise NotImplementedError

    def is_independent_mask(self, x: int, z: int, y: int) -> bool:
        """``is_independent`` over bitmasks (bit v for node v), well-formed only.

        The builder and the I-map checks query here. Overriding is optional:
        the default converts to frozensets and calls ``is_independent``.
        """
        return self.is_independent(nodes_of(x), nodes_of(z), nodes_of(y))


class DsepOracle(IndependenceModel):
    """d-separation in a ground-truth DAG, plus a declared-triple overlay.

    Two entry points: ``is_independent`` validates; ``is_independent_mask``
    trusts its caller. ``call_count`` increments once per well-formed query
    through either, declared-triple hits included, and is safe to read under
    concurrent queries. Conflicting queries (overlay says independent, graph
    says dependent) are appended to ``overlay_conflicts`` in query order.
    """

    def __init__(self, ground_truth: Dag, declared: Iterable[Triple] = ()):
        self._dag = ground_truth
        self._declared: set[tuple[int, int, int]] = set()
        self._lock = threading.Lock()
        self.call_count = 0
        self.overlay_conflicts: list[Triple] = []
        for x, z, y in declared:
            self.declare_independent(x, z, y)

    @property
    def universe(self) -> tuple[str, ...]:
        return tuple(self._dag.names())

    @property
    def ground_truth(self) -> Dag:
        return self._dag

    def declare_independent(
        self, x: Iterable[int], z: Iterable[int], y: Iterable[int]
    ) -> None:
        """Overlay the triple I(x, z, y); matching is exact up to x/y swap."""
        xs, zs, ys = check_query(self._dag, x, z, y)
        x, z, y = mask_of(xs), mask_of(zs), mask_of(ys)
        self._declared |= {(z, x, y), (z, y, x)}

    def is_independent(
        self, x: Iterable[int], z: Iterable[int], y: Iterable[int]
    ) -> bool:
        xs, zs, ys = check_query(self._dag, x, z, y)
        return self.is_independent_mask(mask_of(xs), mask_of(zs), mask_of(ys))

    def is_independent_mask(self, x: int, z: int, y: int) -> bool:
        with self._lock:
            self.call_count += 1
        if self._declared and (z, x, y) in self._declared:
            if not d_separated_checked(self._dag, x, z, y):
                self.overlay_conflicts.append((nodes_of(x), nodes_of(z), nodes_of(y)))
            return True
        return d_separated_checked(self._dag, x, z, y)

    def reset_counter(self) -> None:
        with self._lock:
            self.call_count = 0
