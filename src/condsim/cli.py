"""Command-line surface: analyze a network or run a certified inference.

Exit statuses: 0 success, 2 usage error, 3 file or parse error, 4 runtime
failure, 5 sampling budget exceeded (a partial report is still emitted).
JSON reports are self-contained; rerun_report re-executes one and
reproduces its estimate bit for bit.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path
from collections.abc import Mapping

from . import __version__
from .dependence import _cost, _value_given, dependence_value
from .errors import (
    CondsimError,
    NetworkFormatError,
    NetworkTooLargeError,
    OverlappingSetsError,
    RowBudgetExceededError,
    UnknownNodeError,
    ZeroDenominatorError,
)
from .exact import exact_conditional
from .dependence import satisfies_ras
from .network import check_disjoint, parse_network, relevant_network
from .reformulate import (
    DEFAULT_SEED,
    InferConfig,
    GreedyTrace,
    InferenceResult,
    _STRATEGIES,
    greedy_select,
    infer,
)
from .sampling import _GENERATOR_KINDS, TrialGeneratorKind


def parse_assignment_text(text: str) -> dict[str, int]:
    """Parse comma-separated Name=0|1 bindings; duplicates are errors."""
    out: dict[str, int] = {}
    if not text.strip():
        return out
    for token in text.split(","):
        token = token.strip()
        if "=" not in token:
            raise ValueError(f"expected Name=0|1, got {token!r}")
        name, _, raw = token.partition("=")
        name = name.strip()
        raw = raw.strip()
        if not name:
            raise ValueError(f"missing node name in {token!r}")
        if raw not in ("0", "1"):
            raise ValueError(f"value for {name} must be 0 or 1, got {raw!r}")
        if name in out:
            raise ValueError(f"node {name} bound more than once")
        out[name] = int(raw)
    return out


def _format_assignment(assignment: Mapping[str, int]) -> str:
    return ", ".join(f"{k}={v}" for k, v in assignment.items())


def _result_dict(result: InferenceResult) -> dict:
    """``result``'s fields by name, with ``subproblem_estimates`` written
    as ``subproblems``: one indexed numerator/denominator entry each."""
    out = {}
    for key, value in asdict(result).items():
        if key == "subproblem_estimates":
            key = "subproblems"
            value = [{"index": i, "numerator": num, "denominator": den}
                     for i, (num, den) in enumerate(value)]
        out[key] = value
    return out


def _finite(value):
    """``value`` with every float that is not finite replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    """Write the report to stdout; a failed write is a runtime failure.

    A JSON report is strict JSON (RFC 8259): a float that is not finite
    is written as null.
    """
    text = (json.dumps(_finite(report), indent=2, allow_nan=False)
            if as_json else "\n".join(lines))
    try:
        print(text, flush=True)
    except OSError as exc:
        raise CondsimError(f"cannot write report: {exc}") from exc


def _costs(trace: GreedyTrace | None, dependence_before: float):
    """predicted_cost of S = () and of greedy's S, read from its trace;
    with no trace, S = () priced from its dependence value."""
    if trace is None:
        cost = _cost(dependence_before, 0, 1.0)
        return cost, cost
    first = trace.steps[0].cost_before if trace.steps else trace.final_cost
    return first, trace.final_cost


def cmd_analyze(args: argparse.Namespace, source: str) -> int:
    full = parse_network(source)
    query = parse_assignment_text(args.query)
    evidence = parse_assignment_text(args.evidence)
    check_disjoint(query, evidence, "query and evidence")
    # With a query, price the network, evidence and S that infer would.
    net, kept = (relevant_network(full, query, evidence) if query
                 else (full, evidence))
    dropped = sorted(evidence.keys() - kept.keys(), key=full.index)
    started = time.perf_counter()
    dep = dependence_value(net, kept)
    selected, trace = greedy_select(net, kept, max_s=args.max_s,
                                    exclude=tuple(query), report=dep)
    cost_before, cost_after = _costs(trace, dep.value)
    dep_after = _value_given(dep, net, {*kept, *selected})
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "tool": "condsim",
        "version": __version__,
        "command": "analyze",
        "network_name": net.name,
        "query": dict(query),
        "evidence": dict(evidence),
        "nodes_kept": net.n,
        "evidence_dropped": dropped,
        "per_node": {name: {"lo": bounds.lo, "hi": bounds.hi,
                            "lambda": lam}
                     for name, (bounds, lam) in dep.per_node.items()},
        "dependence_value": dep.value,
        "dependence_after": dep_after,
        "selected_s": list(selected),
        "greedy_trace": asdict(trace),
        "cost_before": asdict(cost_before),
        "cost_after": asdict(cost_after),
        "elapsed_ms": elapsed_ms,
    }
    lines = [f"network {net.name} ({full.n} nodes, {net.n} kept)",
             f"evidence: {_format_assignment(evidence) or '(none)'}",
             f"evidence dropped: {', '.join(dropped) or '(none)'}",
             "node  lo        hi        lambda"]
    for name, (bounds, lam) in dep.per_node.items():
        lines.append(f"  {name}: {bounds.lo:.6g}  {bounds.hi:.6g}  "
                     f"{lam:.6g}")
    lines.append(f"dependence value D = {dep.value:.6g}")
    lines.append(f"selected S = [{', '.join(selected)}] "
                 f"({trace.stop_reason})")
    for step in trace.steps:
        lines.append(f"  added {{{', '.join(step.added)}}} for node "
                     f"{step.node}: lambda {step.lambda_before:.6g}, "
                     f"ratio {step.candidate_ratio:.6g}")
    lines.append(f"dependence value given S = {dep_after:.6g}")
    lines.append(f"cost before: subproblem {cost_before.subproblem_term:.6g}"
                 f", weight if logic-sampled {cost_before.weight_term:.6g}")
    lines.append(f"cost after:  subproblem {cost_after.subproblem_term:.6g}"
                 f", weight if logic-sampled {cost_after.weight_term:.6g}")
    _emit(report, args.report == "json", lines)
    return 0


def _infer_config(cfg: Mapping) -> InferConfig:
    """The InferConfig that a report's ``config`` dict records."""
    return InferConfig(
        max_s=cfg["max_s"],
        generator=TrialGeneratorKind(cfg["generator"],
                                     cfg["burn_in_sweeps"]),
        row_budget=cfg["row_budget"])


def cmd_infer(args: argparse.Namespace, source: str) -> int:
    net = parse_network(source)
    query = parse_assignment_text(args.query)
    evidence = parse_assignment_text(args.evidence)
    report = {
        "tool": "condsim",
        "version": __version__,
        "command": "infer",
        "network_name": net.name,
        "network_source": source,
        "query": dict(query),
        "evidence": dict(evidence),
        "epsilon": args.epsilon,
        "delta": args.delta,
        "strategy": args.strategy,
        "config": {"max_s": args.max_s,
                   "generator": args.generator,
                   "burn_in_sweeps": args.burn_in_sweeps,
                   "row_budget": args.row_budget},
        "seed": args.seed,
    }
    config = _infer_config(report["config"])
    oracle = None
    if args.exact:
        # On the problem infer answers, and before sampling, so that an
        # oracle that cannot run is a usage error and not a failure
        # after the answer; overlapping bindings get infer's message.
        check_disjoint(query, evidence, "query and evidence")
        kept_net, kept = relevant_network(net, query, evidence)
        try:
            oracle = exact_conditional(kept_net, query, kept)
        except (NetworkTooLargeError, ZeroDenominatorError) as exc:
            raise ValueError(f"--exact: {exc}") from exc
    started = time.perf_counter()
    try:
        result = infer(net, query, evidence, args.epsilon, args.delta,
                       args.strategy, config, args.seed)
    except RowBudgetExceededError as exc:
        report["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
        report["error"] = {"kind": type(exc).__name__,
                           "message": str(exc),
                           "phase": exc.phase,
                           "trials": exc.trials,
                           "cap": exc.cap}
        lines = [f"budget exceeded during {exc.phase or 'sampling'}: {exc}",
                 f"trials so far: {exc.trials}  cap: {exc.cap}"]
        _emit(report, args.report == "json", lines)
        print(f"condsim: {exc}", file=sys.stderr)
        return 5
    report["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
    report["result"] = _result_dict(result)
    # "none": S is empty, one subproblem of weight 1.
    report["weights"] = "exact" if result.selected_s else "none"
    cost_before, cost_after = _costs(result.greedy_trace,
                                     result.dependence_before)
    report["cost_before"] = asdict(cost_before)
    report["cost_after"] = asdict(cost_after)
    lines = [f"network {net.name} ({net.n} nodes, "
             f"{result.nodes_kept} kept)",
             f"Pr[{_format_assignment(query)} | "
             f"{_format_assignment(evidence) or 'nothing'}] "
             f"~ {result.estimate!r}",
             "  evidence dropped: "
             f"{', '.join(result.evidence_dropped) or '(none)'}",
             f"  epsilon {result.epsilon}  delta {result.delta}  "
             f"strategy {result.strategy_used}  seed {result.seed}",
             f"  S = [{', '.join(result.selected_s)}]  "
             f"trials {result.trials_total}",
             f"  weights: {report['weights']}",
             f"  dependence before {result.dependence_before:.6g}  "
             f"after {result.dependence_after:.6g}",
             f"  clamped: {'yes' if result.clamped else 'no'}"]
    if args.exact:
        verdict = satisfies_ras(oracle, result.estimate, args.epsilon)
        report["exact"] = {"oracle": oracle, "satisfies_ras": verdict}
        lines.append(f"  oracle {oracle!r}  within interval: "
                     f"{'yes' if verdict else 'no'}")
    _emit(report, args.report == "json", lines)
    return 0


def rerun_report(report: Mapping) -> InferenceResult:
    """Re-execute an infer run from its own JSON report.

    The random stream and the settings a report records are fixed only
    within a version, so a report that another version wrote is refused
    with a ValueError.
    """
    if report["version"] != __version__:
        raise ValueError(f"report written by condsim {report['version']} "
                         f"cannot replay under condsim {__version__}")
    net = parse_network(report["network_source"])
    config = _infer_config(report["config"])
    return infer(net, {k: int(v) for k, v in report["query"].items()},
                 {k: int(v) for k, v in report["evidence"].items()},
                 report["epsilon"], report["delta"], report["strategy"],
                 config, report["seed"])


def build_parser() -> argparse.ArgumentParser:
    defaults = InferConfig()
    parser = argparse.ArgumentParser(
        prog="condsim",
        description="Randomized approximate inference for binary belief "
                    "networks.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--network", required=True,
                        help="path to a .bnet file")
    shared.add_argument("--max-s", type=int, default=defaults.max_s)
    shared.add_argument("--report", choices=("text", "json"),
                        default="text")

    analyze = sub.add_parser(
        "analyze", parents=[shared],
        help="report dependence diagnostics and the greedy conditioning set")
    analyze.add_argument("--evidence", default="",
                         help="comma-separated Name=0|1 bindings")
    analyze.add_argument("--query", default="", help="price only what "
                         "infer reads: the query and evidence's ancestors")

    run = sub.add_parser(
        "infer", parents=[shared],
        help="estimate a conditional probability with certified relative "
             "error")
    run.add_argument("--query", required=True,
                     help="comma-separated Name=0|1 bindings")
    run.add_argument("--evidence", default="")
    run.add_argument("--epsilon", type=float, required=True,
                     help="relative error target, positive")
    run.add_argument("--delta", type=float, required=True,
                     help="failure probability target in (0, 1]")
    run.add_argument("--strategy", choices=_STRATEGIES, default="auto")
    run.add_argument("--generator", choices=_GENERATOR_KINDS,
                     default=defaults.generator.kind)
    run.add_argument("--burn-in-sweeps", type=int,
                     default=defaults.generator.burn_in_sweeps)
    run.add_argument("--row-budget", type=int, default=defaults.row_budget)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"64-bit seed (default {DEFAULT_SEED})")
    run.add_argument("--exact", action="store_true",
                     help="also run the exact oracle and report the "
                          "interval verdict")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        source = Path(args.network).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"condsim: cannot read network: {exc}", file=sys.stderr)
        return 3
    command = cmd_analyze if args.command == "analyze" else cmd_infer
    try:
        return command(args, source)
    except NetworkFormatError as exc:
        print(f"condsim: parse error: {exc}", file=sys.stderr)
        return 3
    except (UnknownNodeError, OverlappingSetsError, ValueError) as exc:
        print(f"condsim: {exc}", file=sys.stderr)
        return 2
    except CondsimError as exc:
        print(f"condsim: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
