"""Directed acyclic graph over named nodes.

Nodes are dense integer indices assigned in registration order, with a
one-to-one name mapping. Every iteration and tie-break in this package is
by ascending index, so builds are reproducible byte for byte. Adjacency is
held as bitmasks, bit u standing for node u, the form d-separation uses.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable, Iterator

NodeSet = frozenset[int]


def mask_of(nodes: Iterable[int]) -> int:
    """Bitmask form of a node set: bit v is set iff node v is a member."""
    mask = 0
    for v in nodes:
        mask |= 1 << v
    return mask


def bits(mask: int) -> Iterator[int]:
    """The node indices in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def nodes_of(mask: int) -> NodeSet:
    """Node-set form of a bitmask."""
    return frozenset(bits(mask))


class DuplicateNodeError(ValueError):
    """A node name was registered twice."""


class UnknownNodeError(ValueError):
    """A name or index does not refer to a registered node."""


class CycleError(ValueError):
    """An arc insertion would create a directed cycle.

    The offending cycle is available on ``cycle`` as a list of node names,
    first name repeated at the end.
    """

    def __init__(self, message: str, cycle: list[str]):
        super().__init__(message)
        self.cycle = cycle


class Dag:
    """Mutable DAG. Acyclicity is checked on every arc insertion."""

    __slots__ = (
        "_names",
        "_index",
        "_parent_masks",
        "_child_masks",
        "_mutations",
        "_closures",
    )

    def __init__(self, names: Iterable[str] = ()):
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._parent_masks: list[int] = []
        self._child_masks: list[int] = []
        self._mutations = 0
        self._closures: tuple[int, list[int]] | None = None
        for name in names:
            self.add_node(name)

    @property
    def node_count(self) -> int:
        return len(self._names)

    @property
    def arc_count(self) -> int:
        return sum(mask.bit_count() for mask in self._child_masks)

    def add_node(self, name: str) -> int:
        """Register a node and return its index (dense, registration order)."""
        if not name:
            raise ValueError("node name must be non-empty")
        if name in self._index:
            raise DuplicateNodeError(f"node {name!r} is already registered")
        index = len(self._names)
        self._names.append(name)
        self._index[name] = index
        self._parent_masks.append(0)
        self._child_masks.append(0)
        self._mutations += 1
        return index

    def add_arc(self, parent: int, child: int) -> None:
        """Insert the arc parent -> child; re-inserting an arc is a no-op.

        Raises CycleError if the arc would close a directed cycle (self-loops
        included); the existing graph is left untouched.
        """
        self._check_index(parent)
        self._check_index(child)
        if self._child_masks[parent] >> child & 1:
            return
        if parent == child:
            name = self._names[parent]
            raise CycleError(f"self-loop on {name}", [name, name])
        if self._closure(child, self._child_masks) >> parent & 1:
            path = self._directed_path(child, parent)
            cycle = [self._names[parent]] + [self._names[v] for v in path]
            raise CycleError(
                "arc {} -> {} would create cycle: {}".format(
                    self._names[parent], self._names[child], " -> ".join(cycle)
                ),
                cycle,
            )
        self._child_masks[parent] |= 1 << child
        self._parent_masks[child] |= 1 << parent
        self._mutations += 1

    def has_arc(self, parent: int, child: int) -> bool:
        self._check_index(parent)
        self._check_index(child)
        return bool(self._child_masks[parent] >> child & 1)

    def name_of(self, v: int) -> str:
        self._check_index(v)
        return self._names[v]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownNodeError(f"unknown node {name!r}") from None

    def names(self) -> list[str]:
        """Node names in index order."""
        return list(self._names)

    def parents(self, v: int) -> NodeSet:
        self._check_index(v)
        return nodes_of(self._parent_masks[v])

    def children(self, v: int) -> NodeSet:
        self._check_index(v)
        return nodes_of(self._child_masks[v])

    def roots(self) -> list[int]:
        return [v for v, mask in enumerate(self._parent_masks) if not mask]

    def leaves(self) -> list[int]:
        return [v for v, mask in enumerate(self._child_masks) if not mask]

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs as (parent, child) pairs, sorted ascending."""
        return [
            (parent, child)
            for parent, mask in enumerate(self._child_masks)
            for child in bits(mask)
        ]

    def ancestors(self, v: int) -> NodeSet:
        """All nodes with a directed path to v, excluding v itself."""
        self._check_index(v)
        return nodes_of(self._closure(v, self._parent_masks))

    def descendants(self, v: int) -> NodeSet:
        """All nodes reachable from v, excluding v itself."""
        self._check_index(v)
        return nodes_of(self._closure(v, self._child_masks))

    def topological_order(self) -> list[int]:
        """Parents before children; ties broken by ascending index."""
        indegree = [mask.bit_count() for mask in self._parent_masks]
        heap = [v for v, degree in enumerate(indegree) if degree == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for child in bits(self._child_masks[v]):
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(heap, child)
        # the insertion-time cycle check makes a partial result impossible
        assert len(order) == len(self._names)
        return order

    def ancestor_closures(self) -> list[int]:
        """Per node: the mask of the node and its ancestors; cached per mutation."""
        cached = self._closures
        if cached is not None and cached[0] == self._mutations:
            return cached[1]
        closures = [0] * len(self._names)
        for v in self.topological_order():
            closure = 1 << v
            for p in bits(self._parent_masks[v]):
                closure |= closures[p]  # parents precede v in the order
            closures[v] = closure
        self._closures = (self._mutations, closures)
        return closures

    def copy(self) -> Dag:
        out = Dag()
        out._names = list(self._names)
        out._index = dict(self._index)
        out._parent_masks = list(self._parent_masks)
        out._child_masks = list(self._child_masks)
        out._mutations = self._mutations
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self._names == other._names and self._child_masks == other._child_masks

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"Dag({len(self._names)} nodes, {self.arc_count} arcs)"

    def _check_index(self, v: int) -> None:
        if not isinstance(v, int) or not 0 <= v < len(self._names):
            raise UnknownNodeError(f"unknown node index {v!r}")

    def _closure(self, start: int, adjacency: list[int]) -> int:
        seen = 0
        frontier = adjacency[start]
        while frontier:
            seen |= frontier
            reached = 0
            for v in bits(frontier):
                reached |= adjacency[v]
            frontier = reached & ~seen
        return seen

    def _directed_path(self, src: int, dst: int) -> list[int]:
        # BFS for a shortest src -> dst path; callers guarantee one exists
        prev: dict[int, int | None] = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if u == dst:
                break
            for child in bits(self._child_masks[u]):
                if child not in prev:
                    prev[child] = u
                    queue.append(child)
        path = [dst]
        while prev[path[-1]] is not None:
            path.append(prev[path[-1]])
        path.reverse()
        return path
