"""Expert statements: text grammar, compilation, and the priority order.

An expert may label nodes as hypotheses (roots) or evidence (leaves), state
that one variable causes another, and declare independence triples. The
statements compile into an annotated DAG that is kept separate from the
network under construction and consulted only to rank candidate nodes; the
declared triples are answered by ``build`` itself, whatever the model.

Statement file grammar, one statement per line (``#`` starts a comment):

    hypothesis <name>
    evidence <name>
    cause <name> <name>        cause first, effect second
    causedby <name> <name>     effect first, cause second
    indep <names> | <names> | <names>   comma-separated; middle may be empty
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

from .dag import Dag, CycleError, NodeSet, bits, mask_of


@dataclass(frozen=True)
class Hypothesis:
    node: str


@dataclass(frozen=True)
class Evidence:
    node: str


@dataclass(frozen=True)
class CauseOf:
    cause: str
    effect: str


@dataclass(frozen=True)
class CausedBy:
    effect: str
    cause: str


@dataclass(frozen=True)
class Independence:
    x: tuple[str, ...]
    z: tuple[str, ...]
    y: tuple[str, ...]


ExpertStatement = Hypothesis | Evidence | CauseOf | CausedBy | Independence

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


class ContradictionKind(str, Enum):
    CAUSE_CYCLE = "cause_cycle"
    HYPOTHESIS_WITH_CAUSE = "hypothesis_with_cause"
    EVIDENCE_WITH_EFFECT = "evidence_with_effect"
    HYPOTHESIS_EVIDENCE_CLASH = "hypothesis_evidence_clash"
    UNKNOWN_NAME = "unknown_name"


@dataclass(frozen=True)
class Contradiction:
    kind: ContradictionKind
    nodes: tuple[str, ...]
    detail: str


class ContradictionError(Exception):
    """Compilation failed; ``findings`` lists every detected contradiction."""

    def __init__(self, findings: Sequence[Contradiction]):
        self.findings = list(findings)
        super().__init__(
            "{} contradiction(s) in expert statements: {}".format(
                len(self.findings), "; ".join(f.detail for f in self.findings)
            )
        )


class ParseError(ValueError):
    def __init__(self, message: str, source: str, line_no: int):
        super().__init__(f"{source}:{line_no}: {message}")
        self.source = source
        self.line_no = line_no


class Priority(Enum):
    HIGHER = "higher"
    LOWER = "lower"
    SAME = "same"


class ExpertInfo:
    """Compiled expert statements; immutable once built.

    ``info_dag`` holds one arc per cause relation over the full variable
    universe; the ``hypotheses`` and ``evidence`` node masks are disjoint,
    hypotheses have no parents and evidence nodes no children.
    """

    def __init__(
        self,
        info_dag: Dag,
        hypotheses: int,
        evidence: int,
        declared_independencies: Sequence[tuple[NodeSet, NodeSet, NodeSet]] = (),
    ):
        self.info_dag = info_dag
        self.hypotheses = hypotheses
        self.evidence = evidence
        self.declared_independencies = list(declared_independencies)

    @classmethod
    def empty(cls, universe: Iterable[str]) -> ExpertInfo:
        return cls(Dag(universe), 0, 0)

    def declared_causes(self, v: int) -> int:
        """Mask of the nodes the expert declared as direct causes of v."""
        return self.info_dag._parent_masks[v]

    def priority_compare(self, a: int, b: int) -> Priority:
        """Rank a against b: hypothesis rule, evidence rule, ancestry, else Same.

        Each rule is checked in both directions before falling through, which
        keeps the relation antisymmetric.
        """
        if a == b:
            return Priority.SAME
        hyp, evid = self.hypotheses, self.evidence
        if (hyp >> a & 1) != (hyp >> b & 1):
            return Priority.HIGHER if hyp >> a & 1 else Priority.LOWER
        if (evid >> a & 1) != (evid >> b & 1):
            return Priority.LOWER if evid >> a & 1 else Priority.HIGHER
        closures = self.info_dag.ancestor_closures()
        if closures[b] >> a & 1:
            return Priority.HIGHER
        if closures[a] >> b & 1:
            return Priority.LOWER
        return Priority.SAME

    def maximal_candidates(self, cands: int) -> list[int]:
        """Candidates, given as a node mask, that no other candidate outranks,
        ascending; never empty: the first non-empty tier (hypotheses,
        unlabelled, evidence) less its members' descendants, as labels rank
        across tiers and ancestry within one."""
        if not cands:
            raise ValueError("candidates must be non-empty")
        tier = cands & self.hypotheses or cands & ~self.evidence or cands
        closures = self.info_dag.ancestor_closures()
        return [c for c in bits(tier) if closures[c] & tier == 1 << c]


def parse_statements(text: str, source: str = "<expert>") -> list[ExpertStatement]:
    """Parse statement text; raises ParseError with source and line number."""
    statements: list[ExpertStatement] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def fail(message: str):
            raise ParseError(message, source, line_no)

        def name(token: str) -> str:
            if not _NAME_RE.match(token):
                fail(f"invalid name {token!r} (expected [A-Za-z0-9_]+)")
            return token

        keyword = line.split(None, 1)[0]
        if keyword == "indep":
            fields = line[len("indep") :].split("|")
            if len(fields) != 3:
                fail("indep takes three '|'-separated fields")
            x, z, y = (
                tuple(name(tok.strip()) for tok in field.split(",") if tok.strip())
                for field in fields
            )
            if not x or not y:
                fail("indep needs non-empty first and last fields")
            statements.append(Independence(x, z, y))
            continue
        tokens = line.split()
        if keyword in ("hypothesis", "evidence"):
            if len(tokens) != 2:
                fail(f"{keyword} takes one name")
            cls = Hypothesis if keyword == "hypothesis" else Evidence
            statements.append(cls(name(tokens[1])))
        elif keyword in ("cause", "causedby"):
            if len(tokens) != 3:
                fail(f"{keyword} takes two names")
            first, second = name(tokens[1]), name(tokens[2])
            if keyword == "cause":
                statements.append(CauseOf(first, second))
            else:
                statements.append(CausedBy(first, second))
        else:
            fail(f"unknown statement {keyword!r}")
    return statements


def compile_statements(
    statements: Iterable[ExpertStatement], universe: Sequence[str]
) -> ExpertInfo:
    """Compile statements over the universe into an ExpertInfo.

    Raises ContradictionError listing every contradiction found rather than
    stopping at the first.
    """
    index: dict[str, int] = {}
    for name in universe:
        if name in index:
            raise ValueError(f"duplicate name {name!r} in universe")
        index[name] = len(index)

    findings: list[Contradiction] = []

    def flag(kind: ContradictionKind, nodes: tuple[str, ...], detail: str) -> None:
        finding = Contradiction(kind, nodes, detail)
        if finding not in findings:
            findings.append(finding)

    def known(name: str, context: str) -> bool:
        if name in index:
            return True
        flag(
            ContradictionKind.UNKNOWN_NAME,
            (name,),
            f"unknown name {name!r} in {context}",
        )
        return False

    normalized: list[ExpertStatement] = [
        CauseOf(s.cause, s.effect) if isinstance(s, CausedBy) else s
        for s in statements
    ]

    hypothesis_names: set[str] = set()
    evidence_names: set[str] = set()
    for s in normalized:
        if isinstance(s, Hypothesis) and known(s.node, "hypothesis statement"):
            hypothesis_names.add(s.node)
        elif isinstance(s, Evidence) and known(s.node, "evidence statement"):
            evidence_names.add(s.node)
    for name in sorted(hypothesis_names & evidence_names):
        flag(
            ContradictionKind.HYPOTHESIS_EVIDENCE_CLASH,
            (name,),
            f"{name} declared both hypothesis and evidence",
        )

    info_dag = Dag(universe)
    for s in normalized:
        if not isinstance(s, CauseOf):
            continue
        if not (known(s.cause, "cause statement") and known(s.effect, "cause statement")):
            continue
        bad = False
        if s.effect in hypothesis_names:
            flag(
                ContradictionKind.HYPOTHESIS_WITH_CAUSE,
                (s.effect,),
                f"hypothesis {s.effect} declared to be caused by {s.cause}",
            )
            bad = True
        if s.cause in evidence_names:
            flag(
                ContradictionKind.EVIDENCE_WITH_EFFECT,
                (s.cause,),
                f"evidence {s.cause} declared to be a cause of {s.effect}",
            )
            bad = True
        if bad:
            continue
        try:
            info_dag.add_arc(index[s.cause], index[s.effect])
        except CycleError as err:
            flag(ContradictionKind.CAUSE_CYCLE, tuple(err.cycle), str(err))

    declared: list[tuple[NodeSet, NodeSet, NodeSet]] = []
    for s in normalized:
        if not isinstance(s, Independence):
            continue
        if all(known(n, "indep statement") for n in (*s.x, *s.z, *s.y)):
            declared.append(
                (
                    frozenset(index[n] for n in s.x),
                    frozenset(index[n] for n in s.z),
                    frozenset(index[n] for n in s.y),
                )
            )

    if findings:
        raise ContradictionError(findings)
    return ExpertInfo(
        info_dag,
        mask_of(index[n] for n in hypothesis_names),
        mask_of(index[n] for n in evidence_names),
        declared,
    )
