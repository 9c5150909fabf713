"""Exact d-separation tests over a Dag.

Two interchangeable implementations are provided. ``d_separated`` closes the
conditioning set under ancestors and then runs a reachability pass over
(node, direction) states, visiting each arc a constant number of times.
``d_separated_bruteforce`` enumerates every simple adjacency path between the
query sets and applies the blocking rules to each path directly; it is only
practical on small graphs and exists as an independent cross-check.
``d_separated`` validates, converts the query to bitmasks (bit v for node v)
once and runs ``d_separated_checked``, the unchecked form hot paths call.

Blocking rules for a path given conditioning set Z: a node where the path's
arrows converge transmits only if it is in Z or has a descendant in Z; every
other node on the path transmits only if it is outside Z.
"""

from __future__ import annotations

from collections.abc import Iterable

from .dag import Dag, NodeSet, UnknownNodeError, bits, mask_of


class InvalidQueryError(ValueError):
    """Query sets violate the contract (overlap, or empty x/y)."""


def check_query(
    dag: Dag, x: Iterable[int], z: Iterable[int], y: Iterable[int]
) -> tuple[NodeSet, NodeSet, NodeSet]:
    """Validate a query and return its sets frozen.

    x and y must be non-empty, all three sets pairwise disjoint, and every
    index registered in ``dag``. z may be empty.
    """
    xs, zs, ys = frozenset(x), frozenset(z), frozenset(y)
    n = dag.node_count
    unknown = [v for v in xs | zs | ys if not (isinstance(v, int) and 0 <= v < n)]
    if unknown:
        raise UnknownNodeError(
            "unknown node index(es): " + ", ".join(sorted(map(repr, unknown)))
        )
    if not xs or not ys:
        raise InvalidQueryError("x and y must be non-empty")
    if xs & ys or xs & zs or ys & zs:
        raise InvalidQueryError("x, z, y must be pairwise disjoint")
    return xs, zs, ys


def d_separated(dag: Dag, x: Iterable[int], z: Iterable[int], y: Iterable[int]) -> bool:
    """True iff every adjacency path between x and y is blocked by z."""
    xs, zs, ys = check_query(dag, x, z, y)
    return d_separated_checked(dag, mask_of(xs), mask_of(zs), mask_of(ys))


def d_separated_checked(dag: Dag, x: int, z: int, y: int) -> bool:
    """``d_separated`` over bitmasks, for queries ``check_query`` would accept."""
    parents = dag._parent_masks
    children = dag._child_masks

    # z plus everything with a descendant in z: exactly the nodes at which a
    # converging-arrows path node may transmit
    z_closure = 0
    if z:
        closures = dag.ancestor_closures()
        for v in bits(z):
            z_closure |= closures[v]

    # breadth-first over (node, direction) states: ``up`` frontier entered
    # from a child (or a search start), ``down`` frontier entered from a parent
    up, down = x, 0
    seen_up = seen_down = 0
    while up or down:
        if (up | down) & y:
            return False
        seen_up |= up
        seen_down |= down
        next_up = next_down = 0
        rest = up | down
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if not low & z:
                next_down |= children[v]
                if low & up:
                    next_up |= parents[v]
            if low & down & z_closure:
                # converging arrows at v are unblocked, bounce to parents
                next_up |= parents[v]
        up = next_up & ~seen_up
        down = next_down & ~seen_down
    return True


def d_separated_bruteforce(
    dag: Dag, x: Iterable[int], z: Iterable[int], y: Iterable[int]
) -> bool:
    """Literal path-enumeration form of ``d_separated``; small graphs only."""
    xs, zs, ys = check_query(dag, x, z, y)
    parents = [dag.parents(v) for v in range(dag.node_count)]
    neighbors = [sorted(ps | dag.children(v)) for v, ps in enumerate(parents)]

    def path_active(path: list[int]) -> bool:
        for i in range(1, len(path) - 1):
            v = path[i]
            converging = path[i - 1] in parents[v] and path[i + 1] in parents[v]
            if converging:
                if v not in zs and zs.isdisjoint(dag.descendants(v)):
                    return False
            elif v in zs:
                return False
        return True

    def search(path: list[int], on_path: set[int]) -> bool:
        v = path[-1]
        if v in ys:
            return path_active(path)
        for w in neighbors[v]:
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                if search(path, on_path):
                    return True
                on_path.remove(w)
                path.pop()
        return False

    for start in sorted(xs):
        if search([start], {start}):
            return False
    return True
