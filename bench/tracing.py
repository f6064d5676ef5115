"""Spans around the public functions of each ``qpn`` module, for traced runs.

:class:`Tracer` wraps the functions in place while a traced pass runs and puts
the originals back afterwards, so untraced runs execute the program exactly as
shipped.  Spans stay in memory as ``[name, start, end, parent, op, attrs]``
lists and are written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from qpn import analysis, cli, expr, models, net, netfile, oracle, quantum

LAYERS = ("expr", "models", "net", "analysis", "oracle", "netfile", "quantum", "cli")

_NET_KIND = {"slaz-passing": "passing", "slaz-blocking": "blocking", "zeno": "zeno"}

_MIB = 1024 * 1024


def _rss_bytes() -> int:
    """Current resident set size, or 0 where /proc is unavailable."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * resource.getpagesize()
    except (OSError, ValueError, IndexError):
        return 0


def _net_of(args, kwargs):
    return args[0] if args else kwargs["net"]


def _config_of(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["config"]


def _run_final_attrs(args, kwargs, result, before):
    return {"net": _net_of(args, kwargs).name, "policy": _config_of(args, kwargs).policy.value,
            "firings": result.firings}


def _run_attrs(args, kwargs, result, before):
    return {"net": _net_of(args, kwargs).name, "firings": len(result.steps),
            "rss_delta": _rss_bytes() - before}


def _reach_attrs(args, kwargs, result, before):
    return {"states": len(result.nodes), "edges": len(result.edges)}


def _bfs_attrs(args, kwargs, result, before):
    order, quiescent = result
    return {"states": len(order), "quiescent": len(quiescent)}


def _invariant_attrs(args, kwargs, result, before):
    graph = args[0]
    visited = len(graph.nodes) if result.holds else graph.nodes.index(result.counterexample) + 1
    return {"nodes": visited}


def _build_attrs(args, kwargs, result, before):
    built = result[0] if isinstance(result, tuple) else result
    return {"net": built.name}


# (module, function name, span name, attrs hook, measure RSS before the call)
_TARGETS = (
    (expr, "parse", "expr.parse", None, False),
    (models, "zeno_net", "models.build", _build_attrs, False),
    (models, "slaz_blocking_net", "models.build", _build_attrs, False),
    (models, "slaz_passing_net", "models.build", _build_attrs, False),
    (models, "detection_report", "models.detection_report", None, False),
    (net, "run_final", "net.run_final", _run_final_attrs, False),
    (net, "run", "net.run", _run_attrs, True),
    (net, "step", "net.step", None, False),
    (net, "conflict_groups", "net.conflict_groups", None, False),
    (analysis, "parse_predicate", "analysis.parse_predicate", None, False),
    (analysis, "reachability_graph", "analysis.reachability_graph", _reach_attrs, False),
    (analysis, "check_invariant", "analysis.check_invariant", _invariant_attrs, False),
    (analysis, "empirical_distribution", "analysis.empirical_distribution", None, False),
    (oracle, "passing_oracle", "oracle.cell", None, False),
    (oracle, "blocking_oracle", "oracle.cell", None, False),
    (oracle, "exact_measurement_dist", "oracle.exact_measurement_dist", None, False),
    (oracle, "bfs_reach", "oracle.bfs_reach", _bfs_attrs, False),
    (netfile, "load", "netfile.load", None, False),
    (netfile, "save", "netfile.save", None, False),
    (quantum, "probabilities", "quantum.probabilities", None, False),
    (cli, "main", "cli.main", None, False),
    (cli, "_emit_tables", "cli.emit_tables", None, False),
    (cli, "_write_trace_csv", "cli.write_trace_csv", None, False),
)


class Tracer:
    """In-memory span recorder that wraps qpn's public functions while active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str, attrs, rss: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = _rss_bytes() if rss else 0
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if attrs is not None:
                tracer.spans[index][5] = attrs(args, kwargs, result, before)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each target function in the qpn modules."""
        modules = [m for n, m in sys.modules.items() if n == "qpn" or n.startswith("qpn.")]
        for owner, fname, span_name, attrs, rss in _TARGETS:
            original = getattr(owner, fname)
            wrapper = self._wrap(original, span_name, attrs, rss)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        original_compiled = net.PetriNet.compiled
        tracer = self

        def compiled(petri_net):
            # only the first call per net builds (code-generates) the engine
            if petri_net._compiled is not None:
                return original_compiled(petri_net)
            with tracer.span("net.compile") as span:
                span[5] = {"net": petri_net.name}
                return original_compiled(petri_net)

        self._patched.append((net.PetriNet, "compiled", original_compiled))
        net.PetriNet.compiled = compiled

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def is_pristine() -> bool:
    """True when no wrapper is left on any qpn function or on PetriNet.compiled."""
    for name, module in list(sys.modules.items()):
        if name == "qpn" or name.startswith("qpn."):
            if any(hasattr(value, "__wrapped__") for value in vars(module).values()):
                return False
    return net.PetriNet.compiled.__qualname__ == "PetriNet.compiled"


# --- per-layer metrics -----------------------------------------------------------------


class SpanTable:
    """Durations, self times and CLI ancestry of a finished span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        count = len(spans)
        self.duration = [s[2] - s[1] for s in spans]
        child_time = [0.0] * count
        self.in_cli = [False] * count
        for i, (name, _, _, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += self.duration[i]
                self.in_cli[i] = self.in_cli[parent]
            if name == "cli.main":
                self.in_cli[i] = True
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def select(self, name: str, cli_only: bool = False, **attrs) -> list[int]:
        out = []
        for i, span in enumerate(self.spans):
            if span[0] != name or (cli_only and not self.in_cli[i]):
                continue
            if attrs and not all((span[5] or {}).get(k) == v for k, v in attrs.items()):
                continue
            out.append(i)
        return out

    def mean(self, name: str, scale: float, **attrs) -> float:
        picked = self.select(name, **attrs)
        return scale * statistics.fmean(self.duration[i] for i in picked) if picked else 0.0

    def total(self, indices: list[int], key: str) -> int:
        return sum(self.spans[i][5][key] for i in indices)

    def rate(self, indices: list[int], key: str, per_second: bool) -> float:
        """Work per self-second (per_second) or self-nanoseconds per unit of work."""
        work = self.total(indices, key)
        busy = sum(self.self_time[i] for i in indices)
        if not work or busy <= 0:
            return 0.0
        return work / busy if per_second else 1e9 * busy / work


def op_totals(spans: list[list], start: int) -> dict[str, int]:
    """Exact counts recorded under the CLI calls among spans[start:]."""
    totals = {"firings": 0, "runs": 0, "states": 0, "edges": 0}
    in_cli: dict[int, bool] = {}
    for i in range(start, len(spans)):
        name, _, _, parent, _, attrs = spans[i]
        in_cli[i] = name == "cli.main" or in_cli.get(parent, False)
        if not in_cli[i]:
            continue
        if name in ("net.run_final", "net.run"):
            totals["firings"] += attrs["firings"]
            if attrs.get("policy") == "born":
                totals["runs"] += 1
        elif name == "analysis.reachability_graph":
            totals["states"] += attrs["states"]
            totals["edges"] += attrs["edges"]
    return totals


def layer_metrics(table: SpanTable) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run, as {name: (value, unit)}."""
    det_runs = {kind: table.select("net.run_final", cli_only=True, net=name, policy="det")
                for name, kind in _NET_KIND.items()}
    born_runs = table.select("net.run_final", cli_only=True, policy="born")
    cli_runs = table.select("net.run_final", cli_only=True) + table.select("net.run", cli_only=True)
    reach = table.select("analysis.reachability_graph", cli_only=True)
    invariant = table.select("analysis.check_invariant", cli_only=True)
    recorded = table.select("net.run", cli_only=True)
    mains = table.select("cli.main")
    metrics = {
        "expr.parse_us": (table.mean("expr.parse", 1e6), "us"),
        "models.build_ms": (table.mean("models.build", 1e3), "ms"),
        "net.compile_ms": (table.mean("net.compile", 1e3), "ms"),
        "net.ns_per_firing.passing": (table.rate(det_runs["passing"], "firings", False), "ns"),
        "net.ns_per_firing.blocking": (table.rate(det_runs["blocking"], "firings", False), "ns"),
        "net.ns_per_firing.zeno": (table.rate(det_runs["zeno"], "firings", False), "ns"),
        "net.firings": (table.total(cli_runs, "firings"), "count"),
        "net.born_runs": (len(born_runs), "count"),
        "net.born_run_us": (table.mean("net.run_final", 1e6, cli_only=True, policy="born"), "us"),
        "net.step_us": (table.mean("net.step", 1e6), "us"),
        "net.conflict_groups_us": (table.mean("net.conflict_groups", 1e6), "us"),
        "analysis.reach_states_per_s": (table.rate(reach, "states", True), "1/s"),
        "analysis.reach_states": (table.total(reach, "states"), "count"),
        "analysis.reach_edges": (table.total(reach, "edges"), "count"),
        "analysis.check_invariant_us_per_node": (
            1e6 * sum(table.duration[i] for i in invariant) / max(1, table.total(invariant, "nodes")),
            "us"),
        "oracle.bfs_reach_states_per_s": (table.rate(table.select("oracle.bfs_reach"), "states", True), "1/s"),
        "net.run_ns_per_firing": (table.rate(recorded, "firings", False), "ns"),
        "net.run_rss_delta_mib": (max((table.spans[i][5]["rss_delta"] for i in recorded), default=0) / _MIB,
                                  "MiB"),
        "cli.trace_write_s": (table.mean("cli.write_trace_csv", 1.0), "s"),
        "netfile.load_ms": (table.mean("netfile.load", 1e3), "ms"),
        "netfile.save_ms": (table.mean("netfile.save", 1e3), "ms"),
        "oracle.cell_us": (table.mean("oracle.cell", 1e6, cli_only=True), "us"),
        "oracle.exact_measurement_dist_ms": (table.mean("oracle.exact_measurement_dist", 1e3), "ms"),
        "quantum.probabilities_us": (table.mean("quantum.probabilities", 1e6), "us"),
        "cli.overhead_ms": (1e3 * statistics.fmean(table.self_time[i] for i in mains) if mains else 0.0,
                            "ms"),
    }
    for layer in LAYERS:
        busy = sum(t for i, t in enumerate(table.self_time)
                   if table.in_cli[i] and table.spans[i][0].startswith(layer + "."))
        metrics[f"self_s.{layer}"] = (busy, "s")
    return metrics
