"""Command-line front end.

Commands: ``build`` (construct a network from a model file and expert
statements), ``dsep`` (query d-separation in a model file), ``experiment``
(run the arc-deletion sensitivity study to CSV), and ``verify`` (check that a
candidate network is a minimal I-map of a model).

Model files are line-based text: ``node <name>`` declarations followed by
``arc <parent> <child>`` lines; ``#`` starts a comment. Exit codes: 0 on
success, 1 on expert contradictions or a failed verification verdict, 2 on
unusable input (parse errors, unknown names, infeasible specs).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .builder import BuildConfig, BuildResult, build, is_imap, is_minimal_imap
from .dag import Dag
from .dsep import d_separated
from .expert import _NAME_RE, ContradictionError, compile_statements, parse_statements
from .harness import (
    InfeasibleSpecError,
    RandomDagSpec,
    random_dag,
    sensitivity_experiment,
    summarize_experiment,
    write_records_csv,
)
from .oracle import DsepOracle

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_BAD_INPUT = 2
MAX_RANDOM_NODES = 2000  # for --random: random_dag is O(n²), ~150 MB at 2,000


class ModelFileError(ValueError):
    def __init__(self, message: str, source: str, line_no: int):
        super().__init__(f"{source}:{line_no}: {message}")


def parse_model_text(text: str, source: str = "<model>") -> Dag:
    """Parse ``node``/``arc`` lines into a Dag; errors carry source:line."""
    dag = Dag()
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "node" and len(tokens) == 2:
                if not _NAME_RE.match(tokens[1]):
                    raise ValueError(f"invalid name {tokens[1]!r}")
                dag.add_node(tokens[1])
            elif tokens[0] == "arc" and len(tokens) == 3:
                dag.add_arc(dag.index_of(tokens[1]), dag.index_of(tokens[2]))
            else:
                raise ValueError(f"expected 'node <name>' or 'arc <parent> <child>'")
        except ValueError as err:  # the Dag's node, name and cycle errors included
            raise ModelFileError(str(err), source, line_no) from err
    return dag


def model_text(dag: Dag) -> str:
    """Model-file form of a Dag; parses back to an equal Dag."""
    lines = [f"node {name}" for name in dag.names()]
    lines += [
        f"arc {dag.name_of(parent)} {dag.name_of(child)}"
        for parent, child in dag.arcs()
    ]
    return "\n".join(lines) + "\n"


def load_model(path: str) -> Dag:
    with open(path, encoding="utf-8") as fh:
        return parse_model_text(fh.read(), source=path)


def build_report(dag: Dag, result: BuildResult) -> str:
    order = ", ".join(dag.name_of(v) for v in result.node_order)
    lines = [
        f"nodes: {dag.node_count}",
        f"arcs: {dag.arc_count}",
        f"insertion order: {order}",
        "parents:",
    ]
    for v, stratum in result.strata.items():  # in insertion order
        parents = sorted(stratum)
        shown = ", ".join(dag.name_of(p) for p in parents) if parents else "(none)"
        lines.append(f"  {dag.name_of(v)} <- {shown}")
    if result.warnings:
        lines.append(f"warnings: {len(result.warnings)}")
        for w in result.warnings:
            lines.append(f"  [{w.kind.value}] {w.detail}")
    else:
        lines.append("warnings: none")
    lines.append(f"oracle calls: {result.oracle_calls}")
    return "\n".join(lines) + "\n"


def _cmd_build(args) -> int:
    model = load_model(args.model)
    with open(args.expert, encoding="utf-8") as fh:
        statements = parse_statements(fh.read(), source=args.expert)
    try:
        info = compile_statements(statements, model.names())
    except ContradictionError as err:
        print(f"expert statements rejected: {len(err.findings)} contradiction(s)")
        for finding in err.findings:
            print(f"  [{finding.kind.value}] {finding.detail}")
        return EXIT_REJECTED
    config = BuildConfig(
        max_parents=args.max_parents,
        use_cache=not args.no_cache,
        trust_expert=args.trust_expert,
    )
    result = build(DsepOracle(model), model.names(), info, config)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(model_text(result.network))
    print(build_report(result.network, result), end="")
    return EXIT_OK


def _split_names(dag: Dag, spec: str) -> list[int]:
    return [dag.index_of(tok.strip()) for tok in spec.split(",") if tok.strip()]


def _cmd_dsep(args) -> int:
    model = load_model(args.model)
    x = _split_names(model, args.x)
    y = _split_names(model, args.y)
    z = _split_names(model, args.given) if args.given else []
    verdict = d_separated(model, x, z, y)
    print("d-separated" if verdict else "not d-separated")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.random:
        try:
            n, arcs, seed = (int(tok) for tok in args.random.split(","))
        except ValueError:
            raise InfeasibleSpecError(
                f"--random expects 'nodes,arcs,seed', got {args.random!r}"
            ) from None
        if n > MAX_RANDOM_NODES:
            raise InfeasibleSpecError(
                f"--random allows at most {MAX_RANDOM_NODES} nodes, got {n}"
            )
        ground_truth = random_dag(RandomDagSpec(n, arcs, seed=seed))
    else:
        ground_truth = load_model(args.model)
    records = sensitivity_experiment(
        ground_truth,
        deletions_per_step=args.deletions,
        trials=args.trials,
        seed=args.seed,
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_records_csv(records, fh)
    summary = summarize_experiment(records)

    def mark(ok: bool) -> str:
        return "ok" if ok else "FAIL"

    print(
        "records={} levels={} endpoint-identity={} arc-trend={} call-trend={}".format(
            len(records),
            len(summary.levels),
            mark(summary.endpoint_recovery_ok),
            mark(summary.arc_trend_ok),
            mark(summary.call_trend_ok),
        )
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    model = load_model(args.model)
    candidate = load_model(args.candidate)
    if set(candidate.names()) != set(model.names()):
        print("node sets differ between model and candidate", file=sys.stderr)
        return EXIT_BAD_INPUT
    # align candidate indices with the model's universe
    aligned = Dag(model.names())
    for parent, child in candidate.arcs():
        aligned.add_arc(
            aligned.index_of(candidate.name_of(parent)),
            aligned.index_of(candidate.name_of(child)),
        )
    oracle = DsepOracle(model)
    minimal = is_minimal_imap(aligned, oracle)
    imap = minimal or is_imap(aligned, oracle)
    print(f"I-map: {'yes' if imap else 'no'}")
    print(f"minimal I-map: {'yes' if minimal else 'no'}")
    return EXIT_OK if minimal else EXIT_REJECTED


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsebn",
        description="Build sparse Bayesian networks from an independence "
        "oracle and expert causal statements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a network from a model and expert file")
    p.add_argument("model", help="ground-truth model file (the oracle)")
    p.add_argument("expert", help="expert statement file")
    p.add_argument("out", help="output model file for the built network")
    p.add_argument("--max-parents", type=int, default=None, metavar="P")
    p.add_argument("--trust-expert", action="store_true")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("dsep", help="query d-separation in a model file")
    p.add_argument("model")
    p.add_argument("x", help="comma-separated names")
    p.add_argument("y", help="comma-separated names")
    p.add_argument("--given", "-z", default="", help="conditioning names")
    p.set_defaults(func=_cmd_dsep)

    p = sub.add_parser("experiment", help="run the arc-deletion sensitivity study")
    p.add_argument("model", nargs="?", help="ground-truth model file")
    p.add_argument(
        "--random", metavar="N,ARCS,SEED", help="generate the ground truth instead"
    )
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deletions", type=int, default=1, metavar="K")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="check a candidate network against a model")
    p.add_argument("model")
    p.add_argument("candidate")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "experiment" and bool(args.model) == bool(args.random):
        print("experiment needs a model file or --random, not both", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # every input error is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
