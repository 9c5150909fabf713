"""A literal reading of the build algorithm, as an independent reference.

Node sets are frozensets throughout. The maximal candidates come from
pairwise ``priority_compare``; the candidates race in lockstep by subset
size, and each tries the subsets of the placed nodes that hold its required
causes, in ``itertools.combinations`` order over the sorted placed nodes.
Every subset goes to the model's validating ``is_independent`` unless the
failure cache, a set of the (candidate, subset) pairs that failed, skips it;
a build's count is the number of subsets that were not skipped. The warning
texts repeat ``build``'s, so a change of wording must change both.
"""

from __future__ import annotations

import itertools

from sparsebn import BuildConfig, Dag, WarningKind
from sparsebn.builder import BuildResult, DeviationWarning
from sparsebn.expert import Priority


# the six configs the reference is checked under
CONFIGS = (
    BuildConfig(),
    BuildConfig(use_cache=False),
    BuildConfig(max_parents=1),
    BuildConfig(max_parents=2),
    BuildConfig(trust_expert=True),
    BuildConfig(trust_expert=True, max_parents=2),
)


def _names(universe, nodes):
    return "{" + ", ".join(universe[v] for v in sorted(nodes)) + "}"


def reference_build(model, universe, info, config=None):
    config = config or BuildConfig()
    universe = list(universe)
    declared = set()
    for x, z, y in info.declared_independencies:
        declared |= {(x, z, y), (y, z, x)}
    conflicts = {}

    def ask(x, z, y):
        answer = model.is_independent(x, z, y)
        if (x, z, y) in declared:
            if not answer:
                conflicts.setdefault((x, z, y))
            return True
        return answer

    network, warnings, order = Dag(universe), [], []
    failed, calls, relaxed = set(), 0, config.trust_expert
    existing = frozenset()
    while len(order) < len(universe):
        rest = [v for v in range(len(universe)) if v not in existing]
        maximal = [
            c for c in rest
            if not any(info.priority_compare(d, c) is Priority.HIGHER for d in rest)
        ]
        required = {
            c: info.info_dag.parents(c) & existing if config.trust_expert else frozenset()
            for c in maximal
        }
        limit = len(existing) - 1
        if config.max_parents is not None:
            limit = min(limit, config.max_parents)
        won = None
        for size, c in itertools.product(range(limit + 1), maximal):
            if size < len(required[c]):
                continue
            free = sorted(existing - required[c])
            for extra in itertools.combinations(free, size - len(required[c])):
                subset = required[c] | frozenset(extra)
                if config.use_cache and (c, subset) in failed:
                    continue
                calls += 1
                if ask(frozenset({c}), subset, existing - subset):
                    won = c, subset
                    break
                failed.add((c, subset))
            if won:
                break
        if won is None:
            won = maximal[0], existing
            if config.max_parents is not None and len(existing) > config.max_parents:
                relaxed = True
                warnings.append(DeviationWarning(
                    WarningKind.PARENT_BOUND_FALLBACK, won[0],
                    f"no parent set of size <= {config.max_parents} found for "
                    f"{universe[won[0]]}; keeping all {len(order)} earlier nodes",
                ))
        winner, parents = won
        for parent in sorted(parents):
            network.add_arc(parent, winner)
        for cause in sorted(info.info_dag.parents(winner) - parents):
            warnings.append(DeviationWarning(
                WarningKind.MISSING_DECLARED_CAUSE, winner,
                f"declared cause {universe[cause]} of {universe[winner]} is not a "
                "parent in the built network",
            ))
        order.append(winner)
        existing |= {winner}
    for x, z, y in conflicts:
        warnings.append(DeviationWarning(
            WarningKind.OVERLAY_CONFLICT, min(x),
            f"declared independence I({_names(universe, x)}; {_names(universe, z)}; "
            f"{_names(universe, y)}) contradicts the model",
        ))
    return BuildResult(network, warnings, calls, order, not relaxed)
