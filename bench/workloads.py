"""Seeded inputs, operations and output checks for the qpn benchmark.

Every workload is a list of operations.  An operation is one ``qpn`` command
line, driven in process through ``qpn.cli.main(argv)``, together with the
exact counts its closed forms predict and a check of everything it prints.
Inputs come only from the workload seed; ``qpn`` sees only the generated
argument lists and ``.qpn`` files.

Two scales exist: ``full`` is what the benchmark measures, ``tiny`` runs the
same generators and checkers in well under a second per workload (the
self-check and the coverage pass of a traced run use it).
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import qpn.cli
from qpn import models, netfile, oracle
from qpn.models import ProtocolParams
from qpn.net import Arc, PetriNet, PlaceDecl, PlaceKind
from qpn.quantum import QuantumMapping
from qpn.reference import NET_ORACLE_TOLERANCE, is_anomalous

WORKLOADS = ("grid-deep", "grid-wide", "born-sweep", "reach-check", "trace-record")

TABLE_HEADER = "mode,N,M,net,oracle,paper,delta_net_oracle,delta_net_paper,verdict"
GOLDEN_TABLE = Path("tests") / "golden" / "tables_n320_m25.csv"
GOLDEN_MEASUREMENT = Path("tests") / "golden" / "measurement.qpn"

# Per-scale sizes.  The full sizes follow the workload definitions in NOTES.md;
# the tiny sizes keep every generator and checker but run in milliseconds.
SIZES = {
    "full": {
        "deep_cells": (("passing", 2500, 25), ("blocking", 2500, 50), ("passing", 320, 150)),
        "zeno_n": (99_500, 100_500),
        "wide_strata": (16, 8),
        "born_runs": 10_000,
        "born_branches": 8,
        "reach_k": (8, 9),
        "reach_false_k": 8,
        "trace_n": (316, 324),
        "trace_m": 100,
    },
    "tiny": {
        "deep_cells": (("passing", 12, 3), ("blocking", 12, 4)),
        "zeno_n": (40, 60),
        "wide_strata": (2, 2),
        "born_runs": 400,
        "born_branches": 8,
        "reach_k": (3, 4),
        "reach_false_k": 3,
        "trace_n": (6, 10),
        "trace_m": 4,
    },
}

Check = Callable[[int, str, str], "list[str]"]


@dataclass
class Op:
    """One CLI call, its closed-form counts, and the check of its output."""

    label: str
    argv: list[str]
    check: Check
    firings: int = 0     # transition firings of the run engine
    cells: int = 0       # table cells
    runs: int = 0        # Born runs
    states: int = 0      # reachable markings
    edges: int = 0       # reachability edges
    replay: dict = field(default_factory=dict)  # inputs for the traced step-by-step replay


@dataclass
class Plan:
    ops: list[Op]
    warmup: Op


def build(workload: str, seed: int, scale: str, workdir: Path, root: Path) -> Plan:
    """Generate the seeded inputs of one workload, write its files, list its ops."""
    rng = random.Random(f"{workload}:{seed}")
    sizes = SIZES[scale]
    workdir.mkdir(parents=True, exist_ok=True)
    builder = {
        "grid-deep": _grid_deep,
        "grid-wide": _grid_wide,
        "born-sweep": _born_sweep,
        "reach-check": _reach_check,
        "trace-record": _trace_record,
    }[workload]
    plan = builder(rng, sizes, workdir, root)
    rng.shuffle(plan.ops)
    return plan


# --- shared helpers ----------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`qpn <argv>` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        # looked up on every call so that a traced run sees the wrapped main
        rc = qpn.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _save(path: Path, net: PetriNet, mapping: QuantumMapping | None = None) -> str:
    path.write_text(netfile.save(netfile.NetDocument(net=net, mapping=mapping)), encoding="utf-8")
    return str(path)


def _expect_rc(rc: int, want: int) -> list[str]:
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


def _final_marking(out: str) -> dict[str, float]:
    """The `final marking:` block of `qpn simulate` (nonzero places only)."""
    lines = out.splitlines()
    marking: dict[str, float] = {}
    try:
        start = lines.index("final marking:") + 1
    except ValueError:
        return marking
    for line in lines[start:]:
        if not line.startswith("  ") or " = " not in line:
            break
        pid, value = line.strip().split(" = ", 1)
        marking[pid] = float(value)
    return marking


def _firings_line(out: str) -> int | None:
    for line in out.splitlines():
        if line.startswith("policy:") and "firings: " in line:
            return int(line.rsplit("firings: ", 1)[1])
    return None


# --- tables (grid-deep, grid-wide) ---------------------------------------------------


def _cell_firings(mode: str, n: int, m: int) -> int:
    if mode == "passing":
        return models.passing_expected_firings(n, m)
    return models.blocking_expected_firings(n, m)


def _oracle_text(mode: str, n: int, m: int) -> str:
    if mode == "passing":
        return f"{oracle.passing_oracle(n, m).d1:.9f}"
    return f"{oracle.blocking_oracle(n, m).d2:.9f}"


def _tables_op(modes: list[str], n: int, m: int, golden: str | None = None) -> Op:
    # rows come out in (mode, N, M) order; the oracle text is computed here so
    # that checking never calls into qpn while a trace is being recorded
    rows = [(mode, n, m, _oracle_text(mode, n, m)) for mode in sorted(modes)]
    mode_arg = modes[0] if len(modes) == 1 else "both"

    def check(rc: int, out: str, err: str) -> list[str]:
        problems = _expect_rc(rc, 0)
        problems += check_table(out, rows)
        if golden is not None and out != golden:
            problems.append(f"rows differ from {GOLDEN_TABLE}")
        return problems

    return Op(
        label=f"tables {mode_arg} N={n} M={m}",
        argv=["tables", "--mode", mode_arg, "--N", str(n), "--M", str(m)],
        check=check,
        firings=sum(_cell_firings(mode, n, m) for mode in modes),
        cells=len(modes),
    )


def check_table(out: str, rows: list[tuple[str, int, int, str]]) -> list[str]:
    """Every row: right cell, PASS or ANOMALY, and |net - oracle| <= 1e-9."""
    lines = out.splitlines()
    if not lines or lines[0] != TABLE_HEADER:
        return ["missing or wrong CSV header"]
    body = lines[1:]
    if len(body) != len(rows):
        return [f"{len(body)} table rows, expected {len(rows)}"]
    problems = []
    for line, (mode, n, m, oracle_text) in zip(body, rows):
        f = line.split(",")
        if len(f) != 9 or f[:3] != [mode, str(n), str(m)]:
            problems.append(f"unexpected row {line!r}")
            continue
        verdict = f[8]
        if verdict not in ("PASS", "ANOMALY") or (verdict == "ANOMALY") != is_anomalous(mode, n):
            problems.append(f"{mode} N={n} M={m}: verdict {verdict}")
        if not float(f[6]) <= NET_ORACLE_TOLERANCE:
            problems.append(f"{mode} N={n} M={m}: |net - oracle| = {f[6]}")
        if f[4] != oracle_text:
            problems.append(f"{mode} N={n} M={m}: oracle column {f[4]}, expected {oracle_text}")
    return problems


def _zeno_op(rng: random.Random, sizes: dict, workdir: Path) -> Op:
    n = rng.randint(*sizes["zeno_n"])
    net, mapping = models.zeno_net(ProtocolParams(N=n))
    path = _save(workdir / f"zeno_n{n}.qpn", net, mapping)
    want_firings = models.zeno_expected_firings(n)
    p10, p01 = oracle.zeno_oracle(n)

    def check(rc: int, out: str, err: str) -> list[str]:
        problems = _expect_rc(rc, 0)
        if _firings_line(out) != want_firings:
            problems.append(f"firings {_firings_line(out)}, expected {want_firings}")
        final = _final_marking(out)
        got10 = final.get("p11", 0.0) ** 2
        got01 = final.get("p12", 0.0) ** 2
        if not (abs(got10 - p10) <= NET_ORACLE_TOLERANCE and abs(got01 - p01) <= NET_ORACLE_TOLERANCE):
            problems.append(f"zeno N={n}: net ({got10!r}, {got01!r}) vs oracle ({p10!r}, {p01!r})")
        if final.get("p9") != float(n):
            problems.append(f"zeno N={n}: p9 = {final.get('p9')!r}")
        return problems

    return Op(label=f"simulate zeno N={n}", argv=["simulate", path], check=check, firings=want_firings)


def _grid_deep(rng: random.Random, sizes: dict, workdir: Path, root: Path) -> Plan:
    golden = (root / GOLDEN_TABLE).read_text(encoding="utf-8")
    ops = [_tables_op([mode], n, m) for mode, n, m in sizes["deep_cells"]]
    ops.append(_tables_op(["passing", "blocking"], 320, 25, golden=golden))
    ops.append(_zeno_op(rng, sizes, workdir))
    return Plan(ops, warmup=_tables_op(["blocking"], 16, 4))


def _strata(lo: int, hi: int, count: int, rng: random.Random) -> list[int]:
    """One value from each of `count` equal slices of [lo, hi]."""
    width = hi - lo + 1
    values = []
    for i in range(count):
        a = lo + (width * i) // count
        b = lo + (width * (i + 1)) // count - 1
        values.append(rng.randint(a, max(a, b)))
    return values


def _grid_wide(rng: random.Random, sizes: dict, workdir: Path, root: Path) -> Plan:
    # N and M are stratified over [2,48] x [2,24], so every seed covers the
    # whole range and the total work barely depends on the seed
    n_strata, m_strata = sizes["wide_strata"]
    ops = []
    for mode in ("passing", "blocking"):
        for n in _strata(2, 48, n_strata, rng):
            for m in _strata(2, 24, m_strata, rng):
                ops.append(_tables_op([mode], n, m))
    return Plan(ops, warmup=_tables_op(["passing"], 8, 4))


# --- born-sweep ------------------------------------------------------------------------


def branch_net(branches: int, rng: random.Random) -> tuple[PetriNet, QuantumMapping]:
    """One counter token split over `branches` transitions with seeded weights.

    Branch i deposits sqrt(a_i/S) on its own amplitude place, so its exact
    Born probability is a_i/S.
    """
    shares = [rng.randint(1, 9) for _ in range(branches)]
    total = sum(shares)
    places = [PlaceDecl("src", PlaceKind.COUNTER, 1)]
    places += [PlaceDecl(f"b{i}", PlaceKind.AMPLITUDE) for i in range(1, branches + 1)]
    arcs = []
    for i, share in enumerate(shares, start=1):
        arcs.append(Arc("src", f"t{i}"))
        arcs.append(Arc(f"t{i}", f"b{i}", f"sqrt({share}/{total})"))
    net = PetriNet(f"branch{branches}", places, [f"t{i}" for i in range(1, branches + 1)], arcs)
    mapping = QuantumMapping(k=1.0, assignments=tuple((f"b{i}", f"e{i}") for i in range(1, branches + 1)))
    return net, mapping


def _measure_op(path: str, labels: list[str], runs: int, seed: int, tag: str) -> Op:
    def check(rc: int, out: str, err: str) -> list[str]:
        problems = _expect_rc(rc, 0)
        lines = out.splitlines()
        if not lines or lines[0] != f"runs: {runs}  seed: {seed}":
            return problems + ["missing runs/seed line"]
        counts = {}
        expects = 0
        for line in lines[1:]:
            body = line.strip()
            if body.startswith("expect "):
                expects += 1
                if not body.endswith(") ok"):
                    problems.append(f"outside 4 sigma: {body}")
            elif ": " in body and " +- " in body:
                label, rest = body.split(": ", 1)
                counts[label] = round(float(rest.split(" +- ")[0]) * runs)
        if sum(counts.values()) != runs or not set(counts) <= set(labels):
            problems.append(f"outcome counts {counts} do not cover {runs} runs over {labels}")
        if expects != len(labels) or not lines[-1].startswith("worst deviation:"):
            problems.append("missing --expect comparison lines")
        return problems

    return Op(
        label=f"measure {tag} runs={runs}",
        argv=["measure", path, "--runs", str(runs), "--seed", str(seed), "--expect"],
        check=check,
        firings=runs,  # every run of these nets fires exactly one transition
        runs=runs,
        replay={"kind": "born", "path": path, "seed": seed},
    )


def _born_sweep(rng: random.Random, sizes: dict, workdir: Path, root: Path) -> Plan:
    # two seeded branch nets next to the golden net, so that the median
    # operation latency lies inside one group of similar operations
    runs = sizes["born_runs"]
    golden = str(root / GOLDEN_MEASUREMENT)
    ops = [_measure_op(golden, ["e1", "e2", "e3"], runs, rng.getrandbits(63), "measurement")]
    for i in range(2):
        net, mapping = branch_net(sizes["born_branches"], rng)
        path = _save(workdir / f"branches_{i}.qpn", net, mapping)
        labels = [label for _, label in mapping.assignments]
        ops.append(_measure_op(path, labels, runs, rng.getrandbits(63), f"{net.name}#{i}"))
    warmup = _measure_op(golden, ["e1", "e2", "e3"], 200, rng.getrandbits(63), "measurement")
    return Plan(ops, warmup)


# --- reach-check -----------------------------------------------------------------------


@dataclass
class ProductNet:
    """k independent sources; source i fires once, into x_i (weight c) or y_i (weight d)."""

    sources: list[tuple[str, str, str, str, str, int, int]]  # s, x, y, a, b, c, d
    place_order: list[str]

    @property
    def k(self) -> int:
        return len(self.sources)

    def initial(self) -> dict[str, int]:
        m = {p: 0 for p in self.place_order}
        for s, *_ in self.sources:
            m[s] = 1
        return m

    def conservation(self) -> str:
        return " AND ".join(
            f"{c * d}*m({s})+{d}*m({x})+{c}*m({y})=={c * d}"
            for s, x, y, _, _, c, d in self.sources
        )


def product_net(k: int, rng: random.Random, name: str) -> tuple[PetriNet, ProductNet]:
    """Counter-only product net with 3^k reachable markings and 2k*3^(k-1) edges."""
    sources = []
    for i in range(k):
        sources.append((f"s{i}", f"x{i}", f"y{i}", f"a{i}", f"b{i}", rng.randint(1, 3), rng.randint(1, 3)))
    place_order = [p for s, x, y, *_ in sources for p in (s, x, y)]
    rng.shuffle(place_order)
    trans_order = [t for src in sources for t in (src[3], src[4])]
    rng.shuffle(trans_order)
    spec = ProductNet(sources, place_order)
    init = spec.initial()
    arcs = []
    for s, x, y, a, b, c, d in sources:
        arcs += [Arc(s, a), Arc(a, x, str(c)), Arc(s, b), Arc(b, y, str(d))]
    net = PetriNet(name, [PlaceDecl(p, PlaceKind.COUNTER, init[p]) for p in place_order], trans_order, arcs)
    return net, spec


def _check_op(path: str, spec: ProductNet, pred: str, false_source: int | None) -> Op:
    k = spec.k
    states, edges = 3**k, 2 * k * 3 ** (k - 1)

    def check_holds(rc: int, out: str, err: str) -> list[str]:
        problems = _expect_rc(rc, 0)
        if out != f"holds on all {states} reachable markings\n":
            problems.append(f"unexpected output {out.strip()!r}")
        return problems

    def check_counterexample(rc: int, out: str, err: str) -> list[str]:
        problems = _expect_rc(rc, 1)
        lines = out.splitlines()
        if len(lines) != 2 or not lines[0].startswith("counterexample after firing: "):
            return problems + [f"unexpected output {out.strip()!r}"]
        return problems + check_counterexample_path(
            spec, false_source, lines[0].split(": ", 1)[1].split(), lines[1]
        )

    holds = false_source is None
    return Op(
        label=f"check k={k} {'holds' if holds else 'false'}",
        argv=["check", path, "--pred", pred, "--max-states", str(states + 1)],
        check=check_holds if holds else check_counterexample,
        states=states,
        edges=edges,
        replay={"kind": "reach", "path": path, "states": states, "quiescent": 2**k},
    )


def check_counterexample_path(spec: ProductNet, j: int, path: list[str], marking_line: str) -> list[str]:
    """Replay the path on the product net; it must end where the predicate fails.

    The predicate holds at the root and fails after source j fires, so the
    first counterexample in BFS order lies one firing from the root.
    """
    m = spec.initial()
    by_transition = {}
    for s, x, y, a, b, c, d in spec.sources:
        by_transition[a] = (s, x, c)
        by_transition[b] = (s, y, d)
    for tid in path:
        if tid not in by_transition or m[by_transition[tid][0]] != 1:
            return [f"counterexample path {path} fires {tid}, which is not enabled"]
        s, target, w = by_transition[tid]
        m[s] = 0
        m[target] += w
    want = "marking: " + ", ".join(f"{p}={m[p]}" for p in spec.place_order)
    problems = []
    if marking_line != want:
        problems.append(f"counterexample marking {marking_line!r}, replay gives {want!r}")
    _, x, y, *_ = spec.sources[j]
    if m[x] + m[y] == 0 or len(path) != 1:
        problems.append(f"counterexample path {path} is not a first BFS violation")
    return problems


def _reach_check(rng: random.Random, sizes: dict, workdir: Path, root: Path) -> Plan:
    ops = []
    for k in sizes["reach_k"]:
        net, spec = product_net(k, rng, f"product{k}")
        path = _save(workdir / f"product_k{k}.qpn", net)
        ops.append(_check_op(path, spec, spec.conservation(), None))
    k = sizes["reach_false_k"]
    net, spec = product_net(k, rng, f"product{k}f")
    path = _save(workdir / f"product_k{k}_false.qpn", net)
    j = rng.randrange(k)
    s, x, y, *_ = spec.sources[j]
    ops.append(_check_op(path, spec, f"m({x})+m({y})==0", j))
    net, spec = product_net(3, rng, "product3w")
    warmup = _check_op(_save(workdir / "product_warmup.qpn", net), spec, spec.conservation(), None)
    return Plan(ops, warmup)


# --- trace-record ---------------------------------------------------------------------


def _trace_op(n: int, m: int, workdir: Path, tag: str) -> Op:
    net, mapping = models.slaz_passing_net(ProtocolParams(N=n, M=m))
    path = _save(workdir / f"passing_{tag}.qpn", net, mapping)
    csv_path = workdir / f"trace_{tag}.csv"
    want_firings = models.passing_expected_firings(n, m)
    d1 = oracle.passing_oracle(n, m).d1
    header = "step,transition," + ",".join(net.place_ids())
    place_ids = net.place_ids()

    def check(rc: int, out: str, err: str) -> list[str]:
        problems = _expect_rc(rc, 0)
        if _firings_line(out) != want_firings:
            problems.append(f"firings {_firings_line(out)}, expected {want_firings}")
        final = _final_marking(out)
        if not abs(final.get("p2", 0.0) ** 2 - d1) <= NET_ORACLE_TOLERANCE:
            problems.append(f"passing N={n} M={m}: D1 {final.get('p2', 0.0) ** 2!r} vs oracle {d1!r}")
        return problems + check_trace_csv(csv_path, header, place_ids, want_firings, final)

    return Op(
        label=f"simulate --trace passing N={n} M={m}",
        argv=["simulate", path, "--trace", str(csv_path)],
        check=check,
        firings=want_firings,
    )


def check_trace_csv(path: Path, header: str, place_ids: list[str], firings: int,
                    final: dict[str, float]) -> list[str]:
    """Rows = firings + 2 (header and initial marking); last row = final marking."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        return [f"trace not written: {e}"]
    if not text.startswith(header + "\n"):
        return ["trace CSV header differs"]
    rows = text.count("\n")
    if rows != firings + 2:
        return [f"trace CSV has {rows} rows, expected {firings + 2}"]
    last = text[text.rfind("\n", 0, len(text) - 1) + 1:].rstrip("\n").split(",")
    values = dict(zip(place_ids, (float(v) for v in last[2:])))
    if last[0] != str(firings) or len(last) != len(place_ids) + 2:
        return [f"last trace row is {last[:2]}"]
    if {p: v for p, v in values.items() if v != 0} != final:
        return ["last trace row differs from the final marking"]
    return []


def _trace_record(rng: random.Random, sizes: dict, workdir: Path, root: Path) -> Plan:
    n = rng.randint(*sizes["trace_n"])
    op = _trace_op(n, sizes["trace_m"], workdir, "main")
    return Plan([op], warmup=_trace_op(6, 3, workdir, "warmup"))
