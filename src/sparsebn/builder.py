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

A subset that leaves one of the model's ``dependent_mask`` nodes in the
rest fails by decomposition, so only the supersets of those nodes are
enumerated; within a size they keep their relative order. The search still
counts every question the full walk would put, and a build sums the counts:
that is the build's only call counter. A size tried to the end counts
C(pool, k) less the C(stale, k) subsets the cache skipped; a winner counts
its lexicographic rank among the subsets not skipped, plus one.

The search has one exit: when no subset that leaves a rest qualifies within
``max_parents``, the first candidate gets the whole predecessor set, which
needs no query. ``build`` warns when that set exceeds the bound.

A build handed a ``_Replay`` shares its steps with every earlier build over
the same model, universe and config that was handed it. A step's winner,
parents, counted questions and cache writes depend only on the race (the
maximal candidates and their required masks) and on the steps before it:
those fix the placed mask, and the failure cache is their writes, each the
placed mask of its step. So the replay keeps one table of steps, keyed by
the step each follows and its race. A build follows the table from the root,
redoing each step's cache writes, and searches from the first race not in it,
recording each step it searches.

Without declared independencies the search calls the model's
``is_independent_mask`` directly. With them, ``build`` reads no dependence
masks and puts one overlay in front of the model: a declared triple answers
True whatever the model is, counts as one query, and asks the model only to
report a contradiction.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from math import comb

from .dag import Dag, NodeSet, bits, mask_of
from .dsep import check_query
# not called here; perfbench's tracer patches this module global by name
from .dsep import d_separated_checked
from .expert import ExpertInfo
from .oracle import IndependenceModel

# candidate -> {subset size: the existing mask at which it tried every subset
# of that size}; reusable while existing grows and each required mask stays fixed
FailureCache = dict[int, dict[int, int]]


@dataclass(frozen=True)
class BuildConfig:
    """Search options for ``build``; ``max_parents`` and ``trust_expert`` may
    cost minimality. ``use_cache=False`` keeps the output, at more queries,
    only for a model with decomposition (a failed I(c; S; R) stays failed as
    R grows). Minimality, like ``is_imap``, needs a semi-graphoid model."""

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
    minimality_guaranteed: bool  # False when a bound or trust mode may add parents

    @property
    def strata(self) -> dict[int, NodeSet]:
        """Each node's parent set, in insertion order: the stratum it won with."""
        return {v: self.network.parents(v) for v in self.node_order}


def boundary_stratum(
    query: Callable[[int, int, int], bool],
    existing: int,
    candidates: Sequence[int],
    required: Sequence[int],
    dependent: Sequence[int],
    max_parents: int | None,
    cache: FailureCache | None,
    journal: list[int] | None = None,
) -> tuple[int, int, int]:
    """Race ``candidates`` in lockstep for the smallest subset of ``existing``
    that screens one of them off the rest; return the winner, that subset and
    the number of questions counted. ``required`` holds a mask per candidate,
    ``dependent`` one per node.

    Every candidate tries size k, each subset holding its ``required`` mask,
    before any tries k+1; within a size subsets go in ascending lexicographic
    order, so ties resolve to the first candidate in ``candidates``. A subset
    that leaves a node of the candidate's ``dependent`` mask in the rest fails
    without a query, counted all the same. Sizes run up to ``max_parents``
    and stop short of the whole existing set; if nothing qualified, the first
    candidate comes back with the whole set, which needs no query
    (independence from nothing is vacuous), and the questions counted. A
    ``cache`` reused across calls stays valid only while ``existing`` grows
    and each candidate's ``required`` mask stays fixed; a ``journal`` gets
    the candidate and size of each cache write, two ints per write.
    """
    races = []
    for c, req in zip(candidates, required):
        free = existing & ~req
        base = req | dependent[c] & free
        pool = [1 << v for v in bits(free & ~base)]
        done = cache.setdefault(c, {}) if cache is not None else {}
        races.append((c, 1 << c, req, base, free, pool, done))
    limit = existing.bit_count() - 1  # sizes that leave a rest to screen off
    if max_parents is not None:
        limit = min(max_parents, limit)
    asked = 0
    for size in range(limit + 1):
        for c, xbit, req, base, free, pool, done in races:
            k = size - req.bit_count()
            if k < 0:
                continue
            stale = done.get(size)
            extra = size - base.bit_count()
            for combo in itertools.combinations(pool, extra) if extra >= 0 else ():
                subset = base | sum(combo)
                if stale is not None and not subset & ~stale:
                    continue
                if query(xbit, subset, existing ^ subset):
                    return c, subset, asked + _lex_rank(free, subset & free, stale) + 1
            asked += comb(free.bit_count(), k)
            if stale is not None:
                asked -= comb((free & stale).bit_count(), k)
            if journal is not None:
                journal.extend((c, size))
            done[size] = existing
    return candidates[0], existing, asked


def _lex_rank(free: int, chosen: int, stale: int | None) -> int:
    """How many subsets of ``free`` as large as ``chosen`` precede it in
    lexicographic order, leaving out those inside ``stale`` (Knuth, TAOCP 4A
    §7.2.1.3): per unchosen v, those that agree below v and take v next."""
    left = chosen.bit_count()
    above = free.bit_count()
    stale_above = (free & stale).bit_count() if stale is not None else 0
    all_stale = stale is not None
    rank = 0
    while left:
        v = free & -free  # the lowest node left, as a mask
        free ^= v
        above -= 1
        in_stale = all_stale and bool(stale & v)
        stale_above -= in_stale
        if chosen & v:
            left -= 1
            all_stale = in_stale
        else:
            rank += comb(above, left - 1)
            if in_stale:
                rank -= comb(stale_above, left - 1)
    return rank


def select_winner(
    query: Callable[[int, int, int], bool],
    existing: int,
    maximal: list[int],
    required: list[int],
    dependent: Sequence[int],
    cache: FailureCache | None,
    config: BuildConfig,
    journal: list[int] | None = None,
) -> tuple[int, int, int]:
    """Pick the next node to add: race the top-priority candidates
    ``maximal``, in index order, through ``boundary_stratum`` under the
    config's parent bound, and return what it returns, the whole-set fallback
    included. With ``trust_expert`` each candidate's ``required`` mask holds
    its placed declared causes; otherwise it is 0."""
    return boundary_stratum(
        query, existing, maximal, required, dependent, config.max_parents, cache, journal
    )


class _Replay:
    """The steps of the builds over one model object, universe and config,
    kept for later such builds to follow.

    ``steps`` maps ``(at, *maximal)``, or ``(at, *maximal, *required)`` with
    ``trust_expert``, to ``(winner, parents, asked, writes, id)``: ``at`` is
    the id of the step before, -1 at the root; ``writes`` the flat candidate
    and size of each cache write, each storing the step's placed mask; ``id``
    the table's size when the step was recorded.
    """

    def __init__(self):
        self.model: IndependenceModel | None = None
        self.universe: list[str] = []
        self.config: BuildConfig | None = None
        self.steps: dict[tuple[int, ...], tuple[int, int, int, tuple[int, ...], int]] = {}

    def bind(self, model, universe: list[str], config: BuildConfig, declared) -> bool:
        """Whether a build may follow and record steps here; on another model
        object, universe or config, or where it may not, start over empty."""
        usable = config.use_cache and not declared
        same = self.model is model and (self.universe, self.config) == (universe, config)
        if not (usable and same):
            self.steps = {}
            self.model = model if usable else None
            self.universe, self.config = universe, config
        return usable


def _overlay(
    query: Callable[[int, int, int], bool],
    declared: set[tuple[int, int, int]],
    conflicts: dict[tuple[int, int, int], None],
) -> Callable[[int, int, int], bool]:
    """``query`` with the declared triples, as (z, x, y) masks in both x/y
    orientations, answering True; a declared triple the model denies is
    recorded in ``conflicts``, in first-hit order."""

    def overlaid(x: int, z: int, y: int) -> bool:
        if (z, x, y) in declared:
            if not query(x, z, y):
                conflicts.setdefault((x, z, y))
            return True
        return query(x, z, y)

    return overlaid


def build(
    model: IndependenceModel,
    universe: Sequence[str],
    info: ExpertInfo | None = None,
    config: BuildConfig | None = None,
    *,
    _replay: _Replay | None = None,
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
    query = model.is_independent_mask
    conflicts: dict[tuple[int, int, int], None] = {}
    if declared:
        query = _overlay(query, declared, conflicts)
    # a declared triple answers True even against a direct arc
    dependent = [
        0 if declared else model.dependent_mask(v) for v in range(len(universe))
    ]

    steps, at = None, -1  # at: the id of the last step followed or recorded
    if _replay is not None and _replay.bind(model, universe, config, declared):
        steps = _replay.steps
    cache = {} if config.use_cache else None
    network = Dag(universe)
    warnings: list[DeviationWarning] = []

    calls = 0
    relaxed = config.trust_expert  # extra parents may break minimality
    existing = 0
    everyone = (1 << len(universe)) - 1
    node_order: list[int] = []
    while existing != everyone:
        maximal = info.maximal_candidates(everyone ^ existing)
        if config.trust_expert:
            required = [info.declared_causes(c) & existing for c in maximal]
        else:
            required = [0] * len(maximal)
        step = None
        if steps is not None:
            key = (at, *maximal, *required) if config.trust_expert else (at, *maximal)
            step = steps.get(key)
        if step is None:
            journal = None if steps is None else []
            winner, parents, asked = select_winner(
                query, existing, maximal, required, dependent, cache, config, journal
            )
            if journal is not None:
                at = len(steps)
                steps[key] = (winner, parents, asked, tuple(journal), at)
        else:
            winner, parents, asked, writes, at = step
            for c, size in zip(writes[::2], writes[1::2]):
                cache.setdefault(c, {})[size] = existing
        # a winning subset is within the bound; the whole set is the fallback
        if config.max_parents is not None and parents.bit_count() > config.max_parents:
            relaxed = True
            warnings.append(
                DeviationWarning(
                    WarningKind.PARENT_BOUND_FALLBACK,
                    winner,
                    "no parent set of size <= {} found for {}; keeping all {} "
                    "earlier nodes".format(
                        config.max_parents, universe[winner], len(node_order)
                    ),
                )
            )
        calls += asked
        network._adopt(winner, parents)  # the winner has no children: no cycle
        for cause in bits(info.declared_causes(winner) & ~parents):
            warnings.append(
                DeviationWarning(
                    WarningKind.MISSING_DECLARED_CAUSE,
                    winner,
                    "declared cause {} of {} is not a parent in the built "
                    "network".format(universe[cause], universe[winner]),
                )
            )
        node_order.append(winner)
        existing |= 1 << winner

    for x, z, y in conflicts:
        warnings.append(
            DeviationWarning(
                WarningKind.OVERLAY_CONFLICT,
                min(bits(x)),
                "declared independence I({}; {}; {}) contradicts the model".format(
                    _names(universe, x), _names(universe, z), _names(universe, y)
                ),
            )
        )

    return BuildResult(
        network=network,
        warnings=warnings,
        oracle_calls=calls,
        node_order=node_order,
        minimality_guaranteed=not relaxed,
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
    I(c; parents - p; earlier non-parents + p): one query per arc, asked
    per node after that node's own statement, in one walk. The semi-graphoid
    precondition of ``is_imap`` applies.
    """
    _check_model_universe(model, network.names())
    query = model.is_independent_mask
    for c, pa, rest in _markov(network):
        if rest and not query(1 << c, pa, rest):
            return False
        if any(query(1 << c, pa ^ 1 << p, rest | 1 << p) for p in bits(pa)):
            return False
    return True


def _markov(network: Dag) -> Iterator[tuple[int, int, int]]:
    """Per node in topological order: it, its parents and its earlier non-parents."""
    earlier = 0
    for c in network.topological_order():
        parents = network._parent_masks[c]
        yield c, parents, earlier & ~parents
        earlier |= 1 << c


def _names(universe: Sequence[str], mask: int) -> str:
    return "{" + ", ".join(universe[v] for v in bits(mask)) + "}"


def _check_model_universe(model: IndependenceModel, universe: list[str]) -> None:
    if model.universe is not None and list(model.universe) != universe:
        raise ValueError("model universe does not match the requested universe")
