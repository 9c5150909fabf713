"""Conditional-independence oracles.

The builder only needs a predicate answering "is x independent of y given
z?" over a fixed variable universe. ``DsepOracle`` backs that predicate with
d-separation in a ground-truth DAG. Expert-declared independencies are not a
property of the model: ``build`` applies them to whatever model it queries.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable

from .dag import Dag, mask_of, nodes_of
from .dsep import check_query, d_separated_checked


class IndependenceModel(ABC):
    """Deterministic predicate over I(x, z, y) queries, symmetric in x and y.

    ``universe``, when not None, names the model's nodes in index order;
    ``build`` and the I-map checks then require it to match the network's.
    """

    universe: tuple[str, ...] | None = None

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

    def dependent_mask(self, v: int) -> int:
        """Nodes y, as a bitmask, for which I(v; z; y) fails for every z.

        ``build`` answers a question whose y-set meets it "dependent" without
        a model call, which is exact for a semi-graphoid; a y that some z
        separates from v must not be in it. The default, 0, asks the model.
        """
        return 0


class DsepOracle(IndependenceModel):
    """d-separation in a ground-truth DAG.

    Two entry points: ``is_independent`` validates; ``is_independent_mask``
    trusts its caller.
    """

    def __init__(self, ground_truth: Dag):
        self._dag = ground_truth

    @property
    def universe(self) -> tuple[str, ...]:
        return tuple(self._dag.names())

    @property
    def ground_truth(self) -> Dag:
        return self._dag

    def is_independent(
        self, x: Iterable[int], z: Iterable[int], y: Iterable[int]
    ) -> bool:
        xs, zs, ys = check_query(self._dag, x, z, y)
        return self.is_independent_mask(mask_of(xs), mask_of(zs), mask_of(ys))

    def is_independent_mask(self, x: int, z: int, y: int) -> bool:
        return d_separated_checked(self._dag, x, z, y)

    def dependent_mask(self, v: int) -> int:
        # a direct arc is a path that no conditioning set blocks
        return self._dag._parent_masks[v] | self._dag._child_masks[v]
