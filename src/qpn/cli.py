"""Command-line interface.

Commands: simulate, tables, check, measure, oracle, validate.  Exit codes:
0 success, 1 verification failure, 2 usage/parse error, 3 runtime/step-limit
error.  All commands are deterministic given their flags; QPN_SEED provides
the default seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import analysis, netfile, oracle
from .errors import (
    ExprSyntaxError,
    InvalidParamsError,
    NetFileError,
    NotIntegerNetError,
    PredicateError,
    QpnError,
    StepLimitError,
    UnknownPlaceError,
)
from .models import ProtocolParams, detection_report
from .net import Policy, RunConfig, TerminalStatus, fire, run, run_final
from .quantum import probabilities
from .reference import (
    DEFAULT_TOL_BLOCKING,
    DEFAULT_TOL_PASSING,
    GRID_M,
    GRID_N,
    NET_ORACLE_TOLERANCE,
    is_anomalous,
    reference_value,
)

__all__ = ["main", "entrypoint", "TableReport", "TableRow", "run_tables"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

# a weight that fails to evaluate is a runtime error (exit 3), but a predicate
# naming an undeclared place is a usage error (exit 2)
_USAGE_ERRORS = (NetFileError, ExprSyntaxError, UnknownPlaceError, NotIntegerNetError,
                 InvalidParamsError, PredicateError)


def _checked_seed(value: int, source: str) -> int:
    if not 0 <= value < 2**64:
        raise InvalidParamsError(f"{source} must be an integer in [0, 2^64), got {value}")
    return value


def _default_seed() -> int:
    """QPN_SEED, or 0 when unset; every command checks it before running."""
    text = os.environ.get("QPN_SEED", "0")
    try:
        value = int(text)
    except ValueError:
        raise InvalidParamsError(f"QPN_SEED is not an integer: {text!r}") from None
    return _checked_seed(value, "QPN_SEED")


def _at_least_one(value: int, flag: str) -> int:
    if value < 1:
        raise InvalidParamsError(f"{flag} must be >= 1, got {value}")
    return value


def _load_file(path: str) -> netfile.NetDocument:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as e:
        raise NetFileError(f"cannot read {path}: {e}") from None
    return netfile.load(text)


def _fmt(value: float) -> str:
    return f"{value:.9f}"


# --- tables -----------------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    mode: str
    n: int
    m: int
    net_value: float
    oracle_value: float
    paper_value: float | None
    delta_net_oracle: float
    delta_net_paper: float | None
    verdict: str  # PASS | FAIL | ANOMALY
    net_report: "oracle.DetectionReport"
    oracle_report: "oracle.DetectionReport"


@dataclass(frozen=True)
class TableReport:
    rows: tuple[TableRow, ...]

    @property
    def failed(self) -> bool:
        return any(row.verdict == "FAIL" for row in self.rows)


def run_tables(
    modes: list[str],
    n_values: list[int],
    m_values: list[int],
    tol_passing: float = DEFAULT_TOL_PASSING,
    tol_blocking: float = DEFAULT_TOL_BLOCKING,
) -> TableReport:
    """Build, run and grade every grid cell; rows in (mode, N, M) order."""
    rows: list[TableRow] = []
    for mode in sorted(modes):
        tolerance = tol_passing if mode == "passing" else tol_blocking
        for n in sorted(n_values):
            for m in sorted(m_values):
                report = detection_report(mode, ProtocolParams(N=n, M=m))
                if mode == "passing":
                    oracle_report = oracle.passing_oracle(n, m)
                    net_value, oracle_value = report.d1, oracle_report.d1
                else:
                    oracle_report = oracle.blocking_oracle(n, m)
                    net_value, oracle_value = report.d2, oracle_report.d2
                paper_value = reference_value(mode, n, m)
                delta_no = abs(net_value - oracle_value)
                delta_np = abs(net_value - paper_value) if paper_value is not None else None
                if delta_no > NET_ORACLE_TOLERANCE:
                    verdict = "FAIL"
                elif is_anomalous(mode, n):
                    verdict = "ANOMALY"
                elif paper_value is not None and delta_np > tolerance:
                    verdict = "FAIL"
                else:
                    verdict = "PASS"
                rows.append(
                    TableRow(
                        mode, n, m, net_value, oracle_value, paper_value,
                        delta_no, delta_np, verdict, report, oracle_report,
                    )
                )
    return TableReport(tuple(rows))


def _emit_tables(report: TableReport, fmt: str) -> None:
    out = sys.stdout
    if fmt == "csv":
        out.write("mode,N,M,net,oracle,paper,delta_net_oracle,delta_net_paper,verdict\n")
        for r in report.rows:
            paper = f"{r.paper_value:.3f}" if r.paper_value is not None else ""
            dnp = f"{r.delta_net_paper:.3e}" if r.delta_net_paper is not None else ""
            out.write(
                f"{r.mode},{r.n},{r.m},{_fmt(r.net_value)},{_fmt(r.oracle_value)},"
                f"{paper},{r.delta_net_oracle:.3e},{dnp},{r.verdict}\n"
            )
    else:
        out.write("| mode | N | M | net | oracle | paper | d(net,oracle) | d(net,paper) | verdict |\n")
        out.write("|---|---|---|---|---|---|---|---|---|\n")
        for r in report.rows:
            paper = f"{r.paper_value:.3f}" if r.paper_value is not None else "-"
            dnp = f"{r.delta_net_paper:.3e}" if r.delta_net_paper is not None else "-"
            out.write(
                f"| {r.mode} | {r.n} | {r.m} | {_fmt(r.net_value)} | {_fmt(r.oracle_value)} |"
                f" {paper} | {r.delta_net_oracle:.3e} | {dnp} | {r.verdict} |\n"
            )


def _cmd_tables(args: argparse.Namespace) -> int:
    modes = ["passing", "blocking"] if args.mode == "both" else [args.mode]
    for flag, tolerance in (("--tol-passing", args.tol_passing), ("--tol-blocking", args.tol_blocking)):
        if not tolerance >= 0.0:
            raise InvalidParamsError(f"{flag} must be a number >= 0, got {tolerance}")
    n_values = _parse_int_list(args.N) if args.N is not None else list(GRID_N)
    m_values = _parse_int_list(args.M) if args.M is not None else list(GRID_M)
    report = run_tables(
        modes, n_values, m_values, tol_passing=args.tol_passing, tol_blocking=args.tol_blocking
    )
    _emit_tables(report, args.format)
    return EXIT_VERIFY if report.failed else EXIT_OK


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidParamsError(f"not a comma-separated integer list: {text!r}") from None
    if not values:
        raise InvalidParamsError(f"empty list: {text!r}")
    return values


# --- simulate ----------------------------------------------------------------------


def _effective_config(doc: netfile.NetDocument, args: argparse.Namespace) -> RunConfig:
    file_config = doc.config or netfile.ConfigOverrides()
    policy = file_config.policy or Policy.DETERMINISTIC_PRIORITY
    if args.policy:
        policy = Policy.BORN_RANDOM if args.policy == "born" else Policy.DETERMINISTIC_PRIORITY
    if args.max_steps is not None:
        max_steps = _at_least_one(args.max_steps, "--max-steps")
    else:
        max_steps = file_config.max_steps or 1_000_000
    if args.seed is not None:
        seed = _checked_seed(args.seed, "--seed")
    else:
        seed = file_config.seed if file_config.seed is not None else _default_seed()
    return RunConfig(policy=policy, seed=seed, max_steps=max_steps)


def _cmd_simulate(args: argparse.Namespace) -> int:
    doc = _load_file(args.file)
    config = _effective_config(doc, args)
    net = doc.net
    m0 = net.initial_marking()
    if args.trace:
        trace = run(net, m0, config)
        _write_trace_csv(args.trace, net, trace)
        final, firings, status = trace.final, len(trace.steps), trace.status
    else:
        result = run_final(net, m0, config)
        final, firings, status = result.marking, result.firings, result.status
    print(f"net: {net.name}")
    print(f"policy: {config.policy.value}  seed: {config.seed}  firings: {firings}")
    print(f"status: {status.value}")
    print("final marking:")
    for place, value in zip(net.places, final):
        if value != 0:
            print(f"  {place.id} = {value!r}")
    if doc.mapping is not None:
        probs = probabilities(doc.mapping, net, final)
        print("probabilities:")
        for label, p in probs.entries:
            print(f"  {label} = {_fmt(p)}")
        print(f"  total = {_fmt(probs.total)}")
    if status != TerminalStatus.QUIESCENT:
        raise StepLimitError(f"run hit the step limit ({config.max_steps})")
    return EXIT_OK


def _csv_field(text: str) -> str:
    """text as an RFC 4180 field: quoted, with inner quotes doubled, if it holds a comma, a quote, CR or LF."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _write_trace_csv(path: str, net, trace) -> None:
    try:
        with open(path, "w", encoding="utf-8") as out:
            cells = [repr(v) for v in trace.initial]
            tids = {t.id: _csv_field(t.id) for t in net.transitions}
            write, join = out.write, ",".join
            write("step,transition," + join(map(_csv_field, net.place_ids())) + "\n")
            write(f"0,,{join(cells)}\n")
            for i, (tid, places, marking) in enumerate(trace.steps.replay(), start=1):
                for p in places:  # a firing writes no other place
                    cells[p] = repr(marking[p])
                write(f"{i},{tids[tid]},{join(cells)}\n")
    except OSError as e:
        raise InvalidParamsError(f"cannot write trace {path}: {e.strerror}") from None


# --- check -------------------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    doc = _load_file(args.file)
    pred = analysis.parse_predicate(args.pred)
    max_states = _at_least_one(args.max_states, "--max-states")
    graph = analysis.reachability_graph(doc.net, max_states=max_states)
    result = analysis.check_invariant(graph, pred)
    if result.holds:
        print(f"holds on all {len(graph.nodes)} reachable markings")
        return EXIT_OK
    path = " ".join(result.path) if result.path else "(initial marking)"
    label = ", ".join(
        f"{pid}={int(v) if v == int(v) else v}"
        for pid, v in zip(doc.net.place_ids(), result.counterexample)
    )
    print(f"counterexample after firing: {path}")
    print(f"marking: {label}")
    return EXIT_VERIFY


# --- measure -----------------------------------------------------------------------


def _outcome_name(key: tuple[str, ...]) -> str:
    return " & ".join(key) if key else "(no marked outcome)"


def _cmd_measure(args: argparse.Namespace) -> int:
    doc = _load_file(args.file)
    if doc.mapping is None:
        raise NetFileError(f"{args.file} declares no quantum mapping (k/map lines)")
    runs = _at_least_one(args.runs, "--runs")
    seed = _default_seed() if args.seed is None else _checked_seed(args.seed, "--seed")
    dist = analysis.empirical_distribution(doc.net, doc.mapping, runs, seed=seed)
    print(f"runs: {dist.runs}  seed: {seed}")
    for key, freq, stderr in dist.items():
        print(f"  {_outcome_name(key)}: {freq:.6f} +- {stderr:.6f}")
    if not args.expect:
        return EXIT_OK
    # each branch's outcome is that of its successor of m0, as a run counts it;
    # branches with one outcome pool their exact probabilities
    m0 = doc.net.initial_marking()
    expected: dict[tuple[str, ...], float] = {}
    for tid, p in oracle.exact_measurement_dist(doc.net):
        key = analysis.outcome(doc.net, doc.mapping, fire(doc.net, m0, tid))
        expected[key] = expected.get(key, 0.0) + p
    worst = 0.0
    failed = False
    for key, p in expected.items():
        freq = dist.frequency(key)
        sigma = (p * (1.0 - p) / dist.runs) ** 0.5
        pull = abs(freq - p) / sigma if sigma > 0 else 0.0
        worst = max(worst, pull)
        status = "ok" if pull <= 4.0 else "OUT OF RANGE"
        print(f"  expect {_outcome_name(key)}: {p:.6f}  observed {freq:.6f}  ({pull:.2f} sigma) {status}")
        if pull > 4.0:
            failed = True
    print(f"worst deviation: {worst:.2f} sigma (limit 4)")
    return EXIT_VERIFY if failed else EXIT_OK


# --- oracle ------------------------------------------------------------------------


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.model == "zeno":
        p10, p01 = oracle.zeno_oracle(args.n)
        print(f"p10 = {p10!r}")
        print(f"p01 = {p01!r}")
        return EXIT_OK
    fn = oracle.passing_oracle if args.model == "passing" else oracle.blocking_oracle
    report = fn(args.n, args.m)
    print(f"d1 = {report.d1!r}")
    print(f"d2 = {report.d2!r}")
    print(f"absorbed = {report.absorbed!r}")
    print(f"discarded = {report.discarded!r}")
    print(f"total = {report.total!r}")
    return EXIT_OK


# --- validate ----------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    doc = _load_file(args.file)
    net = doc.net
    print(f"{args.file}: ok")
    print(f"net {net.name}: {len(net.places)} places, {len(net.transitions)} transitions, "
          f"{len(net.arcs)} arcs")
    if doc.mapping is not None:
        print(f"mapping: k={doc.mapping.k!r}, {len(doc.mapping.assignments)} labels")
    if doc.config is not None and doc.config.any_set():
        print("config overrides present")
    return EXIT_OK


# --- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpn",
        description="Simulate and verify amplitude-token Petri nets (.qpn files).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a .qpn net and print the final state")
    p.add_argument("file")
    p.add_argument("--policy", choices=["det", "born"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None, dest="max_steps")
    p.add_argument("--trace", default=None, help="write the full trace as CSV")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("tables", help="regenerate the protocol rate tables with verdicts")
    p.add_argument("--mode", choices=["passing", "blocking", "both"], default="both")
    p.add_argument("--N", default=None, help="comma-separated inner cycle counts")
    p.add_argument("--M", default=None, help="comma-separated outer cycle counts")
    p.add_argument("--tol-passing", type=float, default=DEFAULT_TOL_PASSING, dest="tol_passing")
    p.add_argument("--tol-blocking", type=float, default=DEFAULT_TOL_BLOCKING, dest="tol_blocking")
    p.add_argument("--format", choices=["csv", "md"], default="csv")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("check", help="check a marking invariant over the reachability graph")
    p.add_argument("file")
    p.add_argument("--pred", required=True, help='predicate, e.g. "m(p3)==m(p5) AND m(p4)==m(p6)"')
    p.add_argument("--max-states", type=int, default=10_000, dest="max_states")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("measure", help="empirical outcome distribution over BornRandom runs")
    p.add_argument("file")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="default: QPN_SEED, else 0")
    p.add_argument("--expect", action="store_true", help="compare against the exact distribution")
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("oracle", help="print reference values without running a net")
    p.add_argument("model", choices=["zeno", "passing", "blocking"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=25)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("validate", help="parse and validate a .qpn file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    return parser


# built by the first main() call and reused: parse_args keeps no state between calls
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        _default_seed()
        return args.fn(args)
    except _USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except QpnError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
