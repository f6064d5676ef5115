"""qpn benchmark: five CLI workloads, end-to-end metrics, and a traced layer run.

Run from the repository root:

    python3 bench/run.py --workload grid-deep --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --selfcheck

The benchmark drives ``qpn`` the way a user does: in process, one
``qpn.cli.main(argv)`` call at a time (a closed loop with one client), with
stdout captured and every output checked.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the public functions of each ``qpn``
module, replays each operation step by step and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  NOTES.md explains the
workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("grid-deep", "grid-wide", "born-sweep", "reach-check", "trace-record")
HELD_OUT_SEED = 20171704  # never used while the benchmark was tuned; see NOTES.md
IMPORT_REPEATS = 5
CAL_ITERATIONS = 25_000  # about 5 ms of interpreter work on a 2-core Xeon VM
CAL_REFERENCE_S = 0.005  # normalised times are seconds on a machine where the loop takes this
CAL_INTERVAL_S = 0.2     # operations closer together than this share calibration samples
SETUP_REPEATS = 5  # at least; an untraced run also sets up again after every pass
REPLAY_RUNS = 200  # Born runs replayed with step() per measure operation

_required = (ROOT / "src" / "qpn" / "__init__.py", ROOT / "tests" / "golden" / "measurement.qpn",
             ROOT / "tests" / "golden" / "tables_n320_m25.csv")


def _import_qpn(cal: Calibration) -> float:
    """Import qpn from this checkout's src/; returns the median import time.

    Each repeat drops every qpn module first, so it pays what a fresh `qpn`
    process pays (the first repeat may also write the bytecode cache).  The
    time is in reference seconds.
    """
    missing = [str(p.relative_to(ROOT)) for p in _required if not p.is_file()]
    if missing:
        print(f"error: not a qpn checkout, missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [n for n in sys.modules if n == "qpn" or n.startswith("qpn.")]:
            del sys.modules[name]
        times.append(cal.timed(lambda: importlib.import_module("qpn.cli"))[2])
    import qpn

    if Path(qpn.__file__).resolve().parent != ROOT / "src" / "qpn":
        print(f"error: imported qpn from {qpn.__file__}, not from this checkout", file=sys.stderr)
        sys.exit(2)
    return statistics.median(times)


# --- operations ----------------------------------------------------------------------


class Session:
    """One benchmark process: its work directory and its operation tally."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, op) -> tuple[float, str, list[str]]:
        """Run one CLI operation and check it; returns (seconds, stdout, problems)."""
        from workloads import run_cli

        start = perf_counter()
        try:
            rc, out, err = run_cli(op.argv)
        except Exception:  # a crash of the program under test is a failed operation
            elapsed = perf_counter() - start
            return elapsed, "", [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        elapsed = perf_counter() - start
        try:
            problems = op.check(rc, out, err)
        except Exception:  # output the checker cannot parse is a failed operation
            problems = ["unparsable output: " + traceback.format_exc(limit=1).strip().splitlines()[-1]]
        return elapsed, out, problems

    def record(self, label: str, problems: list[str]) -> None:
        """Count one attempted operation; it failed if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += [f"{label}: {problem}" for problem in problems]


class Calibration:
    """Speed of the machine, sampled with a fixed interpreter loop between operations.

    On a shared host the same operation can run 1.6x slower for stretches of
    seconds.  Dividing each timing by the loop time measured around it, and
    multiplying by CAL_REFERENCE_S, gives the time on a reference machine; the
    raw timings are reported beside it.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        m = [0.5] * 16
        rows = []
        for i in range(CAL_ITERATIONS):
            j = i & 15
            m[j] = m[j] * 0.999 + 0.001
            if not i & 7:
                rows.append(list(m))
        end = perf_counter()
        self.times.append(end)
        self.values.append(end - start)

    def sample_if_stale(self) -> None:
        if not self.times or perf_counter() - self.times[-1] > CAL_INTERVAL_S:
            self.sample()

    def normalise(self, start: float, end: float) -> float:
        """Duration of [start, end] in reference seconds, from the nearest samples."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        near = [self.values[i] for i in (before, after) if 0 <= i < len(self.values)]
        return (end - start) * CAL_REFERENCE_S / statistics.fmean(near)

    def timed(self, fn):
        """Run fn between two samples; returns (result, raw seconds, reference seconds)."""
        self.sample()
        start = perf_counter()
        result = fn()
        end = perf_counter()
        self.sample()
        return result, end - start, self.normalise(start, end)


def _setup(session: Session, workload: str, seed: int, cal: Calibration, times: list[float]):
    """Generate inputs, write files and run one warm-up operation.

    Appends the set-up time in reference seconds to `times`.
    """
    import workloads

    def once():
        plan = workloads.build(workload, seed, "full", session.workdir / "inputs", ROOT)
        return plan, session.call(plan.warmup)[2]

    (plan, problems), _, reference_s = cal.timed(once)
    times.append(reference_s)
    session.record(plan.warmup.label, problems)
    return plan


def _pass(session: Session, ops, reference: list[str] | None,
          cal: Calibration) -> tuple[list[float], list[float], list[str]]:
    """One pass over the operation list; outputs must repeat byte for byte.

    Returns raw seconds, reference seconds and the outputs of every operation.
    """
    spans, outputs = [], []
    for i, op in enumerate(ops):
        cal.sample_if_stale()
        start = perf_counter()
        elapsed, out, problems = session.call(op)
        if reference is not None and out != reference[i]:
            problems.append("output differs from the first pass with the same inputs")
        session.record(op.label, problems)
        spans.append((start, start + elapsed))
        outputs.append(out)
    cal.sample()
    return ([end - start for start, end in spans],
            [cal.normalise(start, end) for start, end in spans], outputs)


def _quantile95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


# --- untraced run: end-to-end metrics ------------------------------------------------


def measure(workload: str, seed: int, seconds: float, import_s: float, session: Session,
            cal: Calibration) -> dict:
    setup_times: list[float] = []
    plan = _setup(session, workload, seed, cal, setup_times)
    ops = plan.ops
    raw_samples: list[list[float]] = [[] for _ in ops]
    samples: list[list[float]] = [[] for _ in ops]
    pass_times: list[float] = []
    reference = None
    peak_rss_kib = 0
    start = perf_counter()
    while True:
        raw, normalised, outputs = _pass(session, ops, reference, cal)
        if reference is None:
            # the first pass peaks like one CLI process per operation would;
            # later passes only add allocator fragmentation
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reference = reference or outputs
        for column, value in zip(raw_samples, raw):
            column.append(value)
        for column, value in zip(samples, normalised):
            column.append(value)
        pass_times.append(sum(raw))
        if perf_counter() - start + max(pass_times) > seconds:
            break
        # set-up samples spread over the run meet the same machine as the passes
        _setup(session, workload, seed, cal, setup_times)
    while len(setup_times) < SETUP_REPEATS:
        _setup(session, workload, seed, cal, setup_times)
    per_op = [statistics.median(column) for column in samples]
    wall = sum(per_op)
    per_pass = {key: sum(getattr(op, key) for op in ops) for key in ("firings", "cells", "runs", "states", "edges")}
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "firings_per_s": ((per_pass["firings"] + per_pass["edges"]) / wall, "1/s"),
        "peak_rss_mib": (peak_rss_kib / 1024, "MiB"),
    }
    # printed, not part of the result line: raw timings and the metrics that
    # apply to some workloads only
    extra = {
        "raw.wall_s.median_pass": (statistics.median(pass_times), "s"),
        "raw.wall_s.best_of_k": (sum(min(column) for column in raw_samples), "s"),
        "calibration_ms.median": (1e3 * statistics.median(cal.values), "ms"),
        "calibration_ms.min": (1e3 * min(cal.values), "ms"),
        "calibration_ms.max": (1e3 * max(cal.values), "ms"),
    }
    cell_times = [t for op, t in zip(ops, per_op) if op.cells == 1]
    if per_pass["cells"]:
        extra["cells_per_s"] = (per_pass["cells"] / sum(t for op, t in zip(ops, per_op) if op.cells), "1/s")
    if cell_times:
        extra["cell_ms.p50"] = (1e3 * statistics.median(cell_times), "ms")
        extra["cell_ms.p95"] = (1e3 * _quantile95(cell_times), "ms")
    if per_pass["runs"]:
        extra["runs_per_s"] = (per_pass["runs"] / wall, "1/s")
    if per_pass["states"]:
        extra["states_per_s"] = (per_pass["states"] / wall, "1/s")
    return {
        "metrics": metrics,
        "extra": extra,
        "samples": {"passes": len(pass_times), "ops_per_pass": len(ops), "setup_repeats": len(setup_times),
                    "import_repeats": IMPORT_REPEATS, "calibration_samples": len(cal.values)},
        "counts_per_pass": per_pass,
    }


# --- traced run: per-layer metrics -----------------------------------------------------


def _replay(op) -> list[str]:
    """Step-by-step replay of one operation through the traced layer functions."""
    import qpn.analysis
    import qpn.net
    import qpn.netfile
    import qpn.oracle

    kind = op.replay.get("kind")
    if kind is None:
        return []
    doc = qpn.netfile.load(Path(op.replay["path"]).read_text(encoding="utf-8"))
    petri_net = doc.net
    m0 = petri_net.initial_marking()
    problems = set()
    if kind == "born":
        for i in range(min(op.runs, REPLAY_RUNS)):
            config = qpn.net.RunConfig(policy=qpn.net.Policy.BORN_RANDOM,
                                       seed=qpn.analysis.run_seed(op.replay["seed"], i))
            rng = random.Random(config.seed)
            marking, steps = m0, 0
            while (result := qpn.net.step(petri_net, marking, config, rng)) is not None:
                marking, steps = result[1], steps + 1
            final = qpn.net.run_final(petri_net, m0, config)
            if final.marking != marking or final.firings != steps:
                problems.add("step() replay and run_final() disagree")
            if qpn.net.conflict_groups(petri_net, m0) != [petri_net.transition_ids()]:
                problems.add("initial marking is not one conflict group of every branch")
    elif kind == "reach":
        order, quiescent = qpn.oracle.bfs_reach(petri_net, max_states=op.replay["states"] + 1)
        if len(order) != op.replay["states"] or len(quiescent) != op.replay["quiescent"]:
            problems.add(f"oracle.bfs_reach found {len(order)} states, {len(quiescent)} quiescent")
    return sorted(problems)


def _traced_pass(session: Session, tracer, ops, first_op: int, cal: Calibration) -> float:
    """Run ops under the tracer, replay them, and check their exact counts.

    Returns the time spent in the CLI calls, in reference seconds.
    """
    from tracing import op_totals

    calls = []
    for offset, op in enumerate(ops):
        cal.sample_if_stale()
        tracer.op = first_op + offset
        first_span = len(tracer.spans)
        with tracer.span("bench.op"):
            start = perf_counter()
            elapsed, _, problems = session.call(op)
            calls.append((start, start + elapsed))
            problems += _replay(op)
        got = op_totals(tracer.spans, first_span)
        want = {"firings": op.firings, "runs": op.runs, "states": op.states, "edges": op.edges}
        if got != want:
            problems.append(f"exact counts {got}, closed forms give {want}")
        session.record(op.label, problems)
    cal.sample()
    return sum(cal.normalise(start, end) for start, end in calls)


def trace(workload: str, seed: int, session: Session, scale: str = "full") -> dict:
    import workloads
    from tracing import SpanTable, Tracer, is_pristine, layer_metrics

    cal = Calibration()
    if scale == "full":
        plan = _setup(session, workload, seed, cal, [])
    else:
        plan = workloads.build(workload, seed, scale, session.workdir / "inputs", ROOT)
    untraced = sum(_pass(session, plan.ops, None, cal)[1])
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("bench.setup"):
            plan = workloads.build(workload, seed, scale, session.workdir / "traced", ROOT)
        traced = _traced_pass(session, tracer, plan.ops, 0, cal)
        # the tiny sizes of every workload, so that each layer metric has samples
        first = len(plan.ops)
        for name in WORKLOAD_NAMES:
            with tracer.span("bench.setup"):
                cover = workloads.build(name, seed, "tiny", session.workdir / "cover" / name, ROOT)
            _traced_pass(session, tracer, cover.ops, first, cal)
            first += len(cover.ops)
    if not is_pristine():
        session.record("tracer", ["wrappers left installed after the traced run"])
    metrics = layer_metrics(SpanTable(tracer.spans))
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    spans_path = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    return {"metrics": metrics, "extra": {}, "samples": {"spans": len(tracer.spans)},
            "spans_file": str(spans_path.relative_to(ROOT))}


# --- environment and report ---------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def _git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(str(ROOT / ".git" / ref)).strip()
        if not commit:
            for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unknown (not a git checkout)"


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(str(index / "size")).strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "commit": _git_commit(),
    }


def report(workload: str, seed: int, traced: bool, result: dict, session: Session) -> dict:
    print(f"qpn benchmark  workload={workload}  seed={seed}  trace={int(traced)}")
    print("env: " + json.dumps(environment()))
    print("samples: " + json.dumps(result["samples"]))
    if "counts_per_pass" in result:
        print("exact counts per pass: " + json.dumps(result["counts_per_pass"]))
    if "spans_file" in result:
        print(f"spans written to {result['spans_file']}")
    for name, (value, unit) in {**result["metrics"], **result["extra"]}.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    failed = session.failed
    print(f"  {'error_rate':<40} {failed / max(1, session.attempted):>16.6g} "
          f"({failed} failed / {session.attempted} attempted)")
    for failure in session.failures:
        print(f"FAILED {failure}")
    return {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }


# --- modes -------------------------------------------------------------------------------


def run_one(args) -> int:
    cal = Calibration()
    import_s = _import_qpn(cal)
    os.environ.pop("QPN_SEED", None)  # the CLI's default seed must not leak in
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    session = Session(workdir)
    try:
        if args.trace:
            result = trace(args.workload, args.seed, session)
        else:
            result = measure(args.workload, args.seed, args.seconds, import_s, session, cal)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = report(args.workload, args.seed, bool(args.trace), result, session)
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and line["correct"]
        summary["attempted"] += line["attempted"]
        summary["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def selfcheck() -> int:
    """Tiny sizes, both seeds, untraced and traced, plus mutation checks of the checks."""
    cal = Calibration()
    _import_qpn(cal)
    os.environ.pop("QPN_SEED", None)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import selfcheck as checks
    import workloads
    from tracing import Tracer, is_pristine

    workdir = ROOT / ".bench_out" / f"selfcheck-{os.getpid()}"
    problems = []
    try:
        for seed in (1, HELD_OUT_SEED):
            for name in WORKLOAD_NAMES:
                session = Session(workdir / f"{name}-{seed}")
                plan = workloads.build(name, seed, "tiny", session.workdir / "inputs", ROOT)
                session.record(plan.warmup.label, session.call(plan.warmup)[2])
                _pass(session, plan.ops, _pass(session, plan.ops, None, cal)[2], cal)
                result = trace(name, seed, session, scale="tiny")
                # tiny recorded runs allocate too little to move the resident set size
                missing = [m for m, (value, _) in result["metrics"].items()
                           if not value > 0 and m != "net.run_rss_delta_mib"]
                problems += [f"seed {seed} {name}: {f}" for f in session.failures]
                problems += [f"seed {seed} {name}: per-layer metric {m} is not positive" for m in missing]
        problems += checks.checker_problems(workdir / "checkers", ROOT, workloads.run_cli)
        # the traced count check must flag a count that differs from its closed form
        session = Session(workdir / "counts")
        plan = workloads.build("grid-deep", 1, "tiny", session.workdir, ROOT)
        plan.ops[0].firings += 1
        tracer = Tracer()
        with tracer.installed():
            _traced_pass(session, tracer, plan.ops[:1], 0, cal)
        if session.failed != 1:
            problems.append("a firing count off by one was not flagged")
        if not is_pristine():
            problems.append("wrappers left installed after tracing")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAILED {problem}")
    print("selfcheck " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true", help="fast check of every generator and checker")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
