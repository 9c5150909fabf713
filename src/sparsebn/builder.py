"""Incremental construction of a sparse network from an independence oracle.

The network grows one node at a time. The candidates that top the expert
priority race, level by level, to find the smallest predecessor subset that
screens them off from the rest of the network, and the winner's subset
becomes its parents; a unique top-priority candidate is a race of one.

Subset search runs in increasing subset size, ascending lexicographic order
within a size, on int bitmasks (bit v for node v). A subset that failed to
screen a candidate off can never succeed later against a grown network (the
failed dependence persists under supersets of the remainder), and a losing
candidate tries whole sizes, so the cache keeps per candidate and size the
network at which that size was last exhausted, and skips its subsets.

Every query of a build passes one gate, its only call counter. The gate
answers the expert's declared independencies True, whatever the model is,
and asks the model about a declared triple only to report a contradiction.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum

from .dag import Dag, NodeSet, bits, mask_of, nodes_of
from .dsep import check_query
# not called here; perfbench's tracer patches this module global by name
from .dsep import d_separated_checked
from .expert import ExpertInfo
from .oracle import IndependenceModel

# candidate -> {subset size: the existing mask at which it tried every subset
# of that size}; reusable while existing and required masks only grow
FailureCache = dict[int, dict[int, int]]


class StratumNotFoundError(Exception):
    """No qualifying parent set of size <= max_parents exists for a node."""

    def __init__(self, candidate: int, max_parents: int):
        super().__init__(
            f"no parent set of size <= {max_parents} for node {candidate}"
        )
        self.candidate = candidate
        self.max_parents = max_parents


@dataclass(frozen=True)
class BuildConfig:
    max_parents: int | None = None
    use_cache: bool = True
    trust_expert: bool = False

    def __post_init__(self):
        if self.max_parents is not None and self.max_parents < 1:
            raise ValueError("max_parents must be >= 1")


class WarningKind(str, Enum):
    MISSING_DECLARED_CAUSE = "missing_declared_cause"
    OVERLAY_CONFLICT = "overlay_conflict"
    PARENT_BOUND_FALLBACK = "parent_bound_fallback"


@dataclass(frozen=True)
class DeviationWarning:
    kind: WarningKind
    node: int
    detail: str


@dataclass
class BuildResult:
    network: Dag
    warnings: list[DeviationWarning]
    oracle_calls: int
    node_order: list[int]
    _relaxed: bool = field(default=False, repr=False)

    @property
    def strata(self) -> dict[int, NodeSet]:
        """Each node's parent set, in insertion order: the stratum it won with."""
        return {v: self.network.parents(v) for v in self.node_order}

    @property
    def minimality_guaranteed(self) -> bool:
        """False when a bound or trust mode may have forced extra parents."""
        return not self._relaxed


class _Gate:
    """Counts a build's queries; declared triples (as (z, x, y) masks, in both
    x/y orientations) answer True, and those the model denies are recorded."""

    __slots__ = ("query", "declared", "conflicts", "calls")

    def __init__(self, model: IndependenceModel, declared: set[tuple[int, int, int]]):
        self.query = model.is_independent_mask
        self.declared = declared
        self.conflicts: dict[tuple[int, int, int], None] = {}  # first-hit order
        self.calls = 0

    def is_independent_mask(self, x: int, z: int, y: int) -> bool:
        self.calls += 1
        if self.declared and (z, x, y) in self.declared:
            if not self.query(x, z, y):
                self.conflicts.setdefault((x, z, y))
            return True
        return self.query(x, z, y)


def _search(
    model,
    existing: int,
    candidates: Sequence[int],
    required: Sequence[int],
    max_parents: int | None,
    cache: FailureCache | None,
) -> tuple[int, NodeSet]:
    """Race ``candidates`` in lockstep; the first to find a screening subset wins.

    Every candidate tries size k, each subset holding its ``required`` mask,
    before any tries k+1. The whole existing set qualifies without a query
    (independence from nothing is vacuous).
    """
    query = model.is_independent_mask
    races = []
    for c, req in zip(candidates, required):
        pool = [1 << v for v in bits(existing & ~req)]
        done = cache.setdefault(c, {}) if cache is not None else {}
        races.append((c, 1 << c, req, req.bit_count(), pool, done))
    limit = existing.bit_count()
    if max_parents is not None:
        limit = min(max_parents, limit)
    for size in range(limit + 1):
        for c, xbit, req, forced, pool, done in races:
            if size < forced:
                continue
            fresh = ~done[size] if size in done else None  # bits new since then
            for combo in itertools.combinations(pool, size - forced):
                subset = req | sum(combo)
                if fresh is not None and not subset & fresh:
                    continue
                rest = existing ^ subset
                if not rest or query(xbit, subset, rest):
                    return c, nodes_of(subset)
            done[size] = existing
    raise StratumNotFoundError(candidates[0], max_parents)


def boundary_stratum(
    model,
    existing: Iterable[int],
    candidate: int,
    cache: FailureCache | None = None,
    config: BuildConfig | None = None,
    required: Iterable[int] = (),
) -> NodeSet:
    """Smallest subset of ``existing`` screening ``candidate`` off the rest.

    Ties within a size resolve to the lexicographically first subset. With
    ``config.max_parents`` set, sizes beyond the bound are not searched and
    StratumNotFoundError is raised if nothing qualified. ``required`` members
    are forced into every subset tried (trust-the-expert mode). A reused
    ``cache`` needs ``existing`` and ``required`` to only grow.
    """
    config = config or BuildConfig()
    existing_mask = mask_of(existing)
    required_mask = mask_of(required)
    if existing_mask >> candidate & 1:
        raise ValueError("candidate is already part of the network")
    if required_mask & ~existing_mask:
        raise ValueError("required parents must already be in the network")
    return _search(
        model, existing_mask, [candidate], [required_mask], config.max_parents, cache
    )[1]


def select_winner(
    model,
    info: ExpertInfo,
    existing: Iterable[int],
    candidates: Iterable[int],
    cache: FailureCache | None = None,
    config: BuildConfig | None = None,
) -> tuple[int, NodeSet]:
    """Pick the next node to add and its parent set.

    The top-priority candidates are searched in lockstep: every one at
    subset size k before any at k+1, so the winner is the one with the
    smallest stratum, ascending node index breaking ties. A unique
    top-priority candidate is a race of one.

    Raises StratumNotFoundError when max_parents exhausts every tied
    candidate; the reported candidate is the first by index. A reused ``cache``
    needs ``existing`` and the required parents to only grow, as in ``build``.
    """
    config = config or BuildConfig()
    existing_mask = mask_of(existing)
    maximal = sorted(info.maximal_candidates(candidates))
    if config.trust_expert:
        required = [mask_of(info.declared_causes(c)) & existing_mask for c in maximal]
    else:
        required = [0] * len(maximal)
    return _search(model, existing_mask, maximal, required, config.max_parents, cache)


def build(
    model: IndependenceModel,
    universe: Sequence[str],
    info: ExpertInfo | None = None,
    config: BuildConfig | None = None,
) -> BuildResult:
    """Build a network over ``universe`` that is a minimal I-map of ``model``.

    Minimality holds when max_parents is unset and trust_expert is off;
    otherwise the result may carry extra parents and says so via
    ``minimality_guaranteed``. The expert's declared independencies answer
    True for any model; a malformed one raises InvalidQueryError. Deviations
    between the expert's statements and what the oracle supports are reported
    as warnings, never as failures.
    """
    config = config or BuildConfig()
    universe = list(universe)
    if info is None:
        info = ExpertInfo.empty(universe)
    if info.info_dag.names() != universe:
        raise ValueError("expert info was compiled over a different universe")
    _check_model_universe(model, universe)
    declared: set[tuple[int, int, int]] = set()
    for triple in info.declared_independencies:
        x, z, y = map(mask_of, check_query(info.info_dag, *triple))
        declared |= {(z, x, y), (z, y, x)}

    gate = _Gate(model, declared)
    cache: FailureCache | None = {} if config.use_cache else None
    network = Dag(universe)
    warnings: list[DeviationWarning] = []

    existing: NodeSet = frozenset()
    remaining = set(range(len(universe)))
    node_order: list[int] = []
    while remaining:
        try:
            winner, stratum = select_winner(
                gate, info, existing, remaining, cache=cache, config=config
            )
        except StratumNotFoundError as err:
            # the whole existing set always qualifies: nothing is left over
            winner, stratum = err.candidate, existing
            warnings.append(
                DeviationWarning(
                    WarningKind.PARENT_BOUND_FALLBACK,
                    winner,
                    "no parent set of size <= {} found for {}; keeping all {} "
                    "earlier nodes".format(
                        config.max_parents, universe[winner], len(existing)
                    ),
                )
            )
        for parent in sorted(stratum):
            network.add_arc(parent, winner)
        for cause in sorted(info.declared_causes(winner)):
            if cause not in stratum:
                warnings.append(
                    DeviationWarning(
                        WarningKind.MISSING_DECLARED_CAUSE,
                        winner,
                        "declared cause {} of {} is not a parent in the built "
                        "network".format(universe[cause], universe[winner]),
                    )
                )
        node_order.append(winner)
        existing |= {winner}
        remaining.remove(winner)

    for x, z, y in gate.conflicts:
        warnings.append(
            DeviationWarning(
                WarningKind.OVERLAY_CONFLICT,
                min(bits(x)),
                "declared independence I({}; {}; {}) contradicts the model".format(
                    _names(universe, x), _names(universe, z), _names(universe, y)
                ),
            )
        )

    relaxed = config.trust_expert or any(
        w.kind is WarningKind.PARENT_BOUND_FALLBACK for w in warnings
    )
    return BuildResult(
        network=network,
        warnings=warnings,
        oracle_calls=gate.calls,
        node_order=node_order,
        _relaxed=relaxed,
    )


def is_imap(network: Dag, model: IndependenceModel) -> bool:
    """Every d-separation in the network holds as a model independence.

    Checked by the ordered Markov property, one query per node: along a
    topological order, each node is independent of its earlier non-parents
    given its parents. That suffices only for a semi-graphoid model, as every
    probabilistic CI relation and every d-separation is.
    """
    _check_model_universe(model, network.names())
    query = model.is_independent_mask
    return all(query(1 << c, pa, rest) for c, pa, rest in _markov(network) if rest)


def is_minimal_imap(network: Dag, model: IndependenceModel) -> bool:
    """I-map whose every arc is load-bearing: deleting any one breaks it.

    Deleting p -> c changes only c's ordered Markov statement, to
    I(c; parents - p; earlier non-parents + p): one query per arc. The
    semi-graphoid precondition of ``is_imap`` applies.
    """
    if not is_imap(network, model):
        return False
    query = model.is_independent_mask
    return not any(
        query(1 << c, pa ^ 1 << p, rest | 1 << p)
        for c, pa, rest in _markov(network)
        for p in bits(pa)
    )


def _markov(network: Dag) -> Iterator[tuple[int, int, int]]:
    """Per node in topological order: it, its parents and its earlier non-parents."""
    earlier = 0
    for c in network.topological_order():
        parents = mask_of(network.parents(c))
        yield c, parents, earlier & ~parents
        earlier |= 1 << c


def _names(universe: Sequence[str], mask: int) -> str:
    return "{" + ", ".join(universe[v] for v in bits(mask)) + "}"


def _check_model_universe(model: IndependenceModel, universe: list[str]) -> None:
    if model.universe is not None and list(model.universe) != universe:
        raise ValueError("model universe does not match the requested universe")
