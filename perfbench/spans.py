"""In-memory spans around calls into aflow's modules, and the per-layer metrics they give.

A traced child wraps functions at module boundaries from outside the package:
each call records a span (name, start, end, parent, run id, CPU time) plus a
few counts taken from its arguments or result.  Spans stay in memory and are
written out once, when the child ends.  The benchmark then folds the spans of
every command in a chain into the metrics listed under ``per_layer`` in
``BENCHMARK.json``.  Stdlib only: the benchmark process imports this module.
"""

from __future__ import annotations

import functools
import resource
import statistics
import threading
import time
from typing import Callable, Iterable

LAYERS = (
    "datagen", "data_model", "graph_analysis", "persistence", "stats",
    "list_alignment", "forecast", "evaluation", "cli",
)
COMMANDS = ("analyze", "persistent", "correlate", "pipeline", "display-prob")
MODELS = ("naive", "snaive", "ar", "arnet")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans for one process; ``run_id`` ties the processes of one chain together."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._local = threading.local()

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             attrs: Callable | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": stack[-1] if stack else None}
        self.spans.append(span)
        stack.append(span["id"])
        span["cpu0"] = time.process_time()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            span["cpu1"] = time.process_time()
            stack.pop()
        if attrs is not None:
            span.update(attrs(args, kwargs, result))
        return result

    def wrap(self, module, attr: str, name: str | None = None,
             attrs: Callable | None = None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call."""
        fn = getattr(module, attr)
        span_name = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(span_name, fn, args, kwargs, attrs)

        setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# counts recorded at the boundaries


def _snapshot_rows(args, kwargs, network) -> dict:
    rows = sum(
        len(rlist.entries)
        for snap in network.snapshots
        for lists in (snap.relevant, snap.recommended)
        for rlist in lists.values()
    )
    return {"rows": rows}


def _classified(args, kwargs, result) -> dict:
    persistent, ephemeral = result
    return {"persistent": len(persistent.edges),
            "candidates": len(persistent.edges) + len(ephemeral)}


def _matrix(args, kwargs, matrix) -> dict:
    return {"observations": int(matrix.denominators.sum()),
            "denominators": [int(d) for d in matrix.denominators]}


def _run_model(args, kwargs, result) -> dict:
    model = args[2] if len(args) > 2 else kwargs["model_name"]
    return {"model": model}


def _minimize(args, kwargs, result) -> dict:
    return {"nit": int(result.nit), "nfev": int(result.nfev), "success": bool(result.success)}


def install_cli(tracer: Tracer) -> None:
    """Wrap the layer functions a CLI command reaches; aflow.cli must be imported."""
    import aflow.cli
    import aflow.data_model
    import aflow.forecast
    import aflow.graph_analysis
    import aflow.persistence
    import aflow.stats

    special = {
        "parse_snapshots": _snapshot_rows,
        "load_dataset": lambda a, k, r: {"rss_mb": _maxrss_mb()},
        "classify_links": _classified,
        "correlated_link_fractions": lambda a, k, r: {"links": sum(g.n_links for g in r.values())},
        "display_probability_matrix": _matrix,
        "origin_probability_matrix": _matrix,
        "run_model": _run_model,
    }
    for attr, value in list(vars(aflow.cli).items()):
        module = getattr(value, "__module__", "") or ""
        if callable(value) and not isinstance(value, type) and module.startswith("aflow.") \
                and module != "aflow.cli":
            tracer.wrap(aflow.cli, attr, attrs=special.get(attr))
    for attr in ("parse_snapshots", "parse_views", "parse_metadata", "validate_dataset"):
        tracer.wrap(aflow.data_model, attr, attrs=special.get(attr))
    for module in (aflow.persistence, aflow.stats, aflow.graph_analysis):
        tracer.wrap(module, "build_graph", name="graph_analysis.build_graph")
    tracer.wrap(aflow.persistence, "link_presence",
                attrs=lambda a, k, r: {"pairs": len(r[0])})
    tracer.wrap(aflow.forecast, "fit_arnet")
    tracer.wrap(aflow.forecast, "minimize", name="forecast.minimize", attrs=_minimize)


def install_datagen(tracer: Tracer) -> None:
    """Wrap the generator layer and the serializer it writes snapshots with."""
    import aflow.data_model
    import aflow.datagen

    for attr in ("generate", "export_dataset", "generate_paired_lists"):
        tracer.wrap(aflow.datagen, attr)
    for module in (aflow.datagen, aflow.data_model):
        tracer.wrap(module, "serialize_snapshots", name="data_model.serialize_snapshots")


# ---------------------------------------------------------------------------
# folding spans into per-layer metrics


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: _dur(s) - _covered(children.get(s["id"], ())) for s in spans}


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(setup_spans: list[dict], commands: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced chain.

    ``commands`` holds one record per CLI process: its ``command``, the
    ``import_s`` of ``aflow.cli`` in that fresh interpreter, its ``rss_mb``
    (``ru_maxrss`` from ``os.wait4``) and its ``spans``.  Times are totals over
    the chain; layers and commands the workload never reaches read 0.
    """
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for cmd in COMMANDS:
        for suffix in ("s", "cpu_s", "rss_mb", "self_s"):
            m[f"cli.{cmd}.{suffix}"] = 0.0
    for model in MODELS:
        m[f"forecast.run_model.{model}.s"] = 0.0

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    by_name: dict[str, list[dict]] = {}
    for cmd in [{"spans": setup_spans}] + commands:
        selfs = self_times(cmd["spans"])
        for s in cmd["spans"]:
            by_name.setdefault(s["name"], []).append(s)
            add(f"{s['name'].split('.', 1)[0]}.self_s", selfs[s["id"]])
            if s["name"] == "cli.main":
                key = f"cli.{cmd['command']}"
                add(f"{key}.s", _dur(s))
                add(f"{key}.cpu_s", s["cpu1"] - s["cpu0"])
                add(f"{key}.self_s", selfs[s["id"]])
                m[f"{key}.rss_mb"] = max(m.get(f"{key}.rss_mb", 0.0), cmd["rss_mb"])

    def named(name: str) -> list[dict]:
        return by_name.get(name, [])

    def attr_sum(name: str, key: str) -> float:
        return sum(s[key] for s in named(name))

    m["cli.import_s"] = statistics.median(c["import_s"] for c in commands) if commands else 0.0
    for name in (
        "data_model.parse_snapshots", "data_model.parse_views", "data_model.parse_metadata",
        "data_model.validate_dataset", "data_model.serialize_snapshots",
        "graph_analysis.build_graph", "graph_analysis.bowtie_decompose",
        "graph_analysis.indegree_change_ratios", "graph_analysis.link_frequency_histogram",
        "persistence.classify_links", "stats.sample_random_pairs",
        "stats.correlated_link_fractions", "list_alignment.display_probability_matrix",
        "list_alignment.origin_probability_matrix", "evaluation.evaluate_forecasts",
        "evaluation.contribution_report", "datagen.generate", "datagen.export_dataset",
        "datagen.generate_paired_lists",
    ):
        m[f"{name}.s"] = sum((_dur(s) for s in named(name)), 0.0)
    m["data_model.load_dataset.calls"] = len(named("data_model.load_dataset"))
    m["data_model.load_dataset.rss_mb"] = max(
        (s["rss_mb"] for s in named("data_model.load_dataset")), default=0.0)
    m["data_model.parse_snapshots.rows"] = attr_sum("data_model.parse_snapshots", "rows")
    m["graph_analysis.build_graph.calls"] = len(named("graph_analysis.build_graph"))
    m["persistence.link_presence.pairs"] = attr_sum("persistence.link_presence", "pairs")
    candidates = attr_sum("persistence.classify_links", "candidates")
    m["persistence.persistent_ratio"] = (
        attr_sum("persistence.classify_links", "persistent") / candidates if candidates else 0.0)
    m["stats.correlated_link_fractions.links"] = attr_sum("stats.correlated_link_fractions", "links")
    m["list_alignment.observations"] = sum(
        attr_sum(f"list_alignment.{kind}_probability_matrix", "observations")
        for kind in ("display", "origin"))
    for s in named("forecast.run_model"):
        add(f"forecast.run_model.{s['model']}.s", _dur(s))
    arnet = [s for s in named("forecast.run_model") if s["model"] == "arnet"]
    arnet_wall = sum(_dur(s) for s in arnet)
    m["forecast.run_model.arnet.cpu_util"] = (
        sum(s["cpu1"] - s["cpu0"] for s in arnet) / arnet_wall if arnet_wall else 0.0)
    fits = [1000.0 * _dur(s) for s in named("forecast.fit_arnet")]
    m["forecast.fit_arnet.calls"] = len(fits)
    m["forecast.fit_arnet.ms_p50"] = _pct(fits, 50)
    m["forecast.fit_arnet.ms_p95"] = _pct(fits, 95)
    solves = named("forecast.minimize")
    m["forecast.fit_arnet.nit_p50"] = _pct([float(s["nit"]) for s in solves], 50)
    m["forecast.fit_arnet.nfev_sum"] = sum(s["nfev"] for s in solves)
    m["forecast.fit_arnet.not_converged"] = sum(1 for s in solves if not s["success"])
    return m
