"""Incremental construction of a sparse network from an independence oracle.

The network grows one node at a time. The candidates that top the expert
priority race, level by level, to find the smallest predecessor subset that
screens them off from the rest of the network, and the winner's subset
becomes its parents; a unique top-priority candidate is a race of one.

Subset search runs in increasing subset size, ascending lexicographic order
within a size, on int bitmasks (bit v for node v). A subset that failed to
screen a candidate off can never succeed later against a grown network (the
failed dependence persists under supersets of the remainder), so failures are
cached per candidate, as subset masks, and skipped without querying. A placed
node is never a candidate again, so its cache entry is dropped on placement.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum

from .dag import Dag, NodeSet, bits, mask_of, nodes_of
from .dsep import d_separated_checked
from .expert import ExpertInfo
from .oracle import IndependenceModel

FailureCache = dict[int, set[int]]  # candidate -> masks of failed subsets


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
    strata: dict[int, NodeSet] = field(default_factory=dict)
    _relaxed: bool = field(default=False, repr=False)

    @property
    def minimality_guaranteed(self) -> bool:
        """False when a bound or trust mode may have forced extra parents."""
        return not self._relaxed


class _CountingModel:
    """Counts the oracle calls one build makes, whatever the model is."""

    __slots__ = ("query", "calls")

    def __init__(self, base: IndependenceModel):
        self.query = base.is_independent_mask
        self.calls = 0

    def is_independent_mask(self, x: int, z: int, y: int) -> bool:
        self.calls += 1
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
        # uncached, failures live for this call, which tries no pair twice
        failed = cache.setdefault(c, set()) if cache is not None else set()
        races.append((c, 1 << c, req, req.bit_count(), pool, failed))
    limit = existing.bit_count()
    if max_parents is not None:
        limit = min(max_parents, limit)
    for size in range(limit + 1):
        for c, xbit, req, forced, pool, failed in races:
            pick = size - forced
            if pick < 0 or pick > len(pool):
                continue
            for combo in itertools.combinations(pool, pick):
                subset = req | sum(combo)
                if subset in failed:
                    continue
                rest = existing ^ subset
                if not rest or query(xbit, subset, rest):
                    return c, nodes_of(subset)
                failed.add(subset)
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
    are forced into every subset tried (trust-the-expert mode).
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
    candidate; the reported candidate is the first by index.
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
    ``minimality_guaranteed``. Deviations between the expert's statements and
    what the oracle supports are reported as warnings, never as failures.
    """
    config = config or BuildConfig()
    universe = list(universe)
    if info is None:
        info = ExpertInfo.empty(universe)
    if info.info_dag.names() != universe:
        raise ValueError("expert info was compiled over a different universe")
    _check_model_universe(model, universe)

    counting = _CountingModel(model)
    cache: FailureCache | None = {} if config.use_cache else None
    network = Dag(universe)
    warnings: list[DeviationWarning] = []
    conflicts_before = len(getattr(model, "overlay_conflicts", ()))

    existing: NodeSet = frozenset()
    remaining = set(range(len(universe)))
    node_order: list[int] = []
    strata: dict[int, NodeSet] = {}
    while remaining:
        try:
            winner, stratum = select_winner(
                counting, info, existing, remaining, cache=cache, config=config
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
        strata[winner] = stratum
        existing |= {winner}
        remaining.remove(winner)
        if cache is not None:
            cache.pop(winner, None)

    new_conflicts = list(getattr(model, "overlay_conflicts", ()))[conflicts_before:]
    for xs, zs, ys in dict.fromkeys(new_conflicts):
        node = min(xs)
        warnings.append(
            DeviationWarning(
                WarningKind.OVERLAY_CONFLICT,
                node,
                "declared independence I({}; {}; {}) contradicts the model".format(
                    _names(universe, xs), _names(universe, zs), _names(universe, ys)
                ),
            )
        )

    relaxed = config.trust_expert or any(
        w.kind is WarningKind.PARENT_BOUND_FALLBACK for w in warnings
    )
    return BuildResult(
        network=network,
        warnings=warnings,
        oracle_calls=counting.calls,
        node_order=node_order,
        strata=strata,
        _relaxed=relaxed,
    )


def is_imap(network: Dag, model: IndependenceModel) -> bool:
    """Every d-separation in the network holds as a model independence.

    Checked exhaustively over singleton x/y pairs and all conditioning sets,
    so only sensible for small universes.
    """
    _check_model_universe(model, network.names())
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


def is_minimal_imap(network: Dag, model: IndependenceModel) -> bool:
    """I-map whose every arc is load-bearing: deleting any one breaks it."""
    if not is_imap(network, model):
        return False
    for parent, child in network.arcs():
        if is_imap(_without_arc(network, parent, child), model):
            return False
    return True


def _without_arc(dag: Dag, parent: int, child: int) -> Dag:
    out = Dag(dag.names())
    for a, b in dag.arcs():
        if (a, b) != (parent, child):
            out.add_arc(a, b)
    return out


def _names(universe: Sequence[str], indices: Iterable[int]) -> str:
    return "{" + ", ".join(universe[v] for v in sorted(indices)) + "}"


def _check_model_universe(model: IndependenceModel, universe: list[str]) -> None:
    model_universe = getattr(model, "universe", None)
    if model_universe is not None and list(model_universe) != universe:
        raise ValueError("model universe does not match the requested universe")
