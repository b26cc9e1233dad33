"""Command-line interface.

Settings resolve in precedence order: built-in defaults, then a flat
``key=value`` config file (``--config``), then ``AFLOW_<KEY>`` environment
variables, then explicit flags.  Every run that writes artifacts also writes
``run_manifest.json`` with the resolved config, SHA-256 hashes of the input
files and library versions; no timestamps, so reruns are byte-identical.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
Failures print a one-line JSON error record to stderr.

``--threads`` is the number of worker processes for the network-model fits
(default: the cores this process may run on).  OpenBLAS is held to one
thread per process unless ``OPENBLAS_NUM_THREADS`` is already set: the fits
are tiny, and woken BLAS threads only compete with the workers.
"""

from __future__ import annotations

import os

# Must run before numpy is first imported: OpenBLAS reads it once, at load.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import csv
import hashlib
import json
import math
import sys
from datetime import date
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import scipy

from . import __version__
from .data_model import (
    DataFormatError,
    Dataset,
    NumericalError,
    load_dataset,
    parse_snapshots,
)
from .datagen import GenConfig, export_dataset, generate, ground_truth_to_json
from .evaluation import (
    ContributionReport,
    EvalReport,
    contribution_report,
    evaluate_forecasts,
    outlier_artists,
)
from .forecast import (
    MODEL_NAMES,
    ArnetModel,
    FitDiagnostics,
    ForecastConfig,
    ForecastResult,
    run_model,
)
from .graph_analysis import (
    Component,
    bowtie_attention,
    bowtie_decompose,
    build_graph,
    indegree_ccdf,
    indegree_change_ratios,
    link_frequency_histogram,
    view_group_flow,
)
from .list_alignment import DisplayProbabilityMatrix, display_probability_matrix, origin_probability_matrix
from .persistence import (
    PersistentEdge,
    PersistentNetwork,
    apply_view_filters,
    classify_links,
    homophily_stats,
    simulate_persistence_probability,
)
from .stats import correlated_link_fractions, sample_random_pairs


class UsageError(Exception):
    """Bad flags, malformed config entries, unknown settings."""


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API outside Linux
        return os.cpu_count() or 1


DEFAULTS: dict[str, object] = {
    "cutoff": 15,
    "max_rel": 50,
    "max_rec": 15,
    "p": 7,
    "m_star": 7,
    "train_days": 56,
    "horizon": 7,
    "neighbor_mode": "observed",
    "model": "arnet",
    "target_min_views": 100.0,
    "source_view_frac": 0.01,
    "min_indegree": 20,
    "trials": 100000,
    "seed": 0,
    "threads": _available_cores(),
    "random_pairs": 200,
    "alpha": 0.05,
    "n_videos": 60,
    "n_artists": 12,
    "days": 63,
    "edge_density": 0.02,
    "presence_prob": 1.0,
    "noise_scale": 5.0,
    "p_grid": "0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
}


def _coerce(key: str, text: str) -> object:
    kind = type(DEFAULTS[key])
    try:
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        return text
    except ValueError:
        raise UsageError(f"setting {key} expects a {kind.__name__}, got {text!r}") from None


def _parse_config_file(path: Path) -> dict[str, object]:
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    out: dict[str, object] = {}
    for idx, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{idx}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in DEFAULTS:
            raise UsageError(f"{path}:{idx}: unknown setting {key!r}")
        out[key] = _coerce(key, val)
    return out


def resolve_settings(args: argparse.Namespace) -> dict[str, object]:
    """defaults < config file < AFLOW_* environment < explicit flags."""
    settings = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        settings.update(_parse_config_file(Path(config_path)))
    for key in DEFAULTS:
        env_val = os.environ.get(f"AFLOW_{key.upper()}")
        if env_val is not None:
            settings[key] = _coerce(key, env_val)
    for key in DEFAULTS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            settings[key] = flag_val
    return settings


# ---------------------------------------------------------------------------
# artifact helpers


def _fmt(value: object) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    f = float(value)  # type: ignore[arg-type]
    if math.isnan(f):
        return "nan"
    return repr(f)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])


def _write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_manifest(
    out_dir: Path,
    subcommand: str,
    settings: Mapping[str, object],
    input_files: Mapping[str, Path],
) -> None:
    """Reproducibility record: resolved config, input hashes, versions.

    The thread count is an execution detail, not configuration, so it is
    excluded and runs with different --threads stay byte-identical.
    """
    inputs = {
        name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for name, p in sorted(input_files.items())
    }
    manifest = {
        "subcommand": subcommand,
        "config": {k: v for k, v in sorted(settings.items()) if k != "threads"},
        "inputs": inputs,
        "versions": {
            "aflow": __version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    _write_json(out_dir / "run_manifest.json", manifest)


def _data_inputs(data_dir: Path) -> dict[str, Path]:
    return {
        "snapshots.csv": data_dir / "snapshots.csv",
        "views.csv": data_dir / "views.csv",
        "metadata.csv": data_dir / "metadata.csv",
    }


# ---------------------------------------------------------------------------
# artifact readers (for subcommands consuming earlier artifacts)


def read_persistent_edges(path: Path) -> PersistentNetwork:
    if not path.is_file():
        raise DataFormatError(
            f"persistent edges artifact not found: {path}; run the persistent step first"
        )
    edges = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["source", "target", "reciprocal", "raw_presence_count"]:
            raise DataFormatError(f"{path}: unexpected header {header}")
        for row in reader:
            if len(row) != 4:
                raise DataFormatError(f"{path}: malformed row {row}")
            edges.append(PersistentEdge(row[0], row[1], bool(int(row[2])), int(row[3])))
    return PersistentNetwork(tuple(sorted(edges, key=lambda e: (e.source, e.target))))


def read_forecasts(path: Path, model_name: str = "model") -> ForecastResult:
    if not path.is_file():
        raise DataFormatError(f"forecasts artifact not found: {path}")
    per_video: dict[str, dict[date, tuple[float, float]]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["video_id", "date", "y_true", "y_pred"]:
            raise DataFormatError(f"{path}: unexpected header {header}")
        for row in reader:
            if len(row) != 4:
                raise DataFormatError(f"{path}: malformed row {row}")
            per_video.setdefault(row[0], {})[date.fromisoformat(row[1])] = (
                float(row[2]),
                float(row[3]),
            )
    if not per_video:
        raise DataFormatError(f"{path}: no forecast rows")
    video_ids = tuple(sorted(per_video))
    dates = tuple(sorted(per_video[video_ids[0]]))
    for vid in video_ids:
        if tuple(sorted(per_video[vid])) != dates:
            raise DataFormatError(f"{path}: horizon dates differ for {vid}")
    y_true = np.array([[per_video[v][d][0] for d in dates] for v in video_ids])
    y_pred = np.array([[per_video[v][d][1] for d in dates] for v in video_ids])
    return ForecastResult(model_name, video_ids, dates, y_true, y_pred)


def read_models(path: Path) -> tuple[str, ForecastConfig, dict[str, ArnetModel]]:
    if not path.is_file():
        raise DataFormatError(f"models artifact not found: {path}")
    payload = json.loads(path.read_text(encoding="utf-8"))
    name = payload.get("model")
    if name != "arnet":
        raise DataFormatError("contribution analysis needs a network-model artifact")
    config = ForecastConfig(**payload["config"])
    models = {
        vid: ArnetModel(vid, np.asarray(entry["alpha"], dtype=float), dict(entry["beta"]))
        for vid, entry in payload["videos"].items()
    }
    if not models:
        raise DataFormatError(f"{path}: no fitted videos")
    return name, config, models


# ---------------------------------------------------------------------------
# emit helpers shared by single subcommands and the pipeline


def _emit_persistent(out: Path, dataset: Dataset, pn: PersistentNetwork) -> None:
    _write_csv(
        out / "persistent_edges.csv",
        ["source", "target", "reciprocal", "raw_presence_count"],
        [(e.source, e.target, e.reciprocal, e.days_present) for e in pn.edges],
    )
    if pn.edges:
        stats = homophily_stats(pn, dataset.metadata)
        same_artist: float | None = stats.same_artist_fraction
        shared_genre: float | None = stats.shared_genre_fraction
    else:
        same_artist = shared_genre = None
    _write_json(
        out / "homophily.json",
        {
            "n_edges": len(pn.edges),
            "n_sources": len(pn.sources),
            "n_targets": len(pn.targets),
            "n_reciprocal": pn.reciprocal_count,
            "same_artist_fraction": same_artist,
            "shared_genre_fraction": shared_genre,
        },
    )


def _emit_fit(
    out: Path,
    model_name: str,
    config: ForecastConfig,
    models: Mapping[str, object] | None,
    result: ForecastResult,
) -> None:
    videos: dict[str, dict[str, object]] = {}
    if models:
        for vid in sorted(models):
            model = models[vid]
            videos[vid] = {
                "alpha": [float(a) for a in model.alpha],
                "beta": {u: float(b) for u, b in sorted(getattr(model, "beta", {}).items())},
            }
    _write_json(
        out / "models.json",
        {
            "model": model_name,
            "config": {
                "p": config.p,
                "m_star": config.m_star,
                "train_days": config.train_days,
                "horizon": config.horizon,
                "neighbor_mode": config.neighbor_mode,
                "max_iter": config.max_iter,
                "grad_tol": config.grad_tol,
            },
            "videos": videos,
        },
    )
    if model_name == "arnet" and models:
        _emit_fit_diagnostics(out, {vid: models[vid].fit for vid in sorted(models)})
    rows = []
    for i, vid in enumerate(result.video_ids):
        for h, d in enumerate(result.dates):
            rows.append((vid, d.isoformat(), result.y_true[i, h], result.y_pred[i, h]))
    _write_csv(out / "forecasts.csv", ["video_id", "date", "y_true", "y_pred"], rows)


def _emit_fit_diagnostics(out: Path, fits: Mapping[str, FitDiagnostics]) -> None:
    """Per-target optimizer report.

    Fits that did not converge, and fits with at least as many parameters as
    training rows, are also counted in one stderr warning each.
    """
    _write_csv(
        out / "fit_diagnostics.csv",
        ["video_id", "converged", "nit", "nfev", "objective", "n_params", "n_rows", "message"],
        [(vid, d.converged, d.nit, d.nfev, d.objective, d.n_params, d.n_rows, d.message)
         for vid, d in fits.items()],
    )
    for warning, flagged in (
        ("not_converged", sum(not d.converged for d in fits.values())),
        ("underdetermined", sum(d.n_params >= d.n_rows for d in fits.values())),
    ):
        if flagged:
            record = {"warning": warning, "fits": flagged, "of": len(fits),
                      "details": str(out / "fit_diagnostics.csv")}
            print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _emit_eval(out: Path, report: EvalReport) -> None:
    rows: list[tuple[str, str, object]] = [
        ("video", vid, report.per_video[vid]) for vid in sorted(report.per_video)
    ]
    rows.extend(("horizon", str(h + 1), s) for h, s in enumerate(report.per_horizon))
    _write_csv(out / "eval.csv", ["scope", "key", "smape"], rows)
    _write_json(
        out / "eval_summary.json",
        {
            "overall_smape": report.overall,
            "per_horizon_smape": list(report.per_horizon),
            "n_videos": len(report.per_video),
            "horizon": len(report.per_horizon),
        },
    )


def _emit_contribution(out: Path, report: ContributionReport) -> None:
    _write_csv(
        out / "eta.csv",
        ["video_id", "eta"],
        [(vid, report.eta[vid]) for vid in sorted(report.eta)],
    )
    flagged = set(outlier_artists(report.artist_rows))
    _write_csv(
        out / "artist_shift.csv",
        ["artist_id", "total_with", "total_without", "pct_with", "pct_without", "pct_change", "outlier"],
        [
            (r.artist_id, r.total_with, r.total_without, r.pct_with, r.pct_without, r.pct_change, r.artist_id in flagged)
            for r in report.artist_rows
        ],
    )
    _write_json(
        out / "contribution_summary.json",
        {
            "mean_eta": report.mean_eta,
            "same_artist_share": report.same_artist_share,
            "n_videos": len(report.eta),
            "n_outlier_artists": len(flagged),
        },
    )


def _forecast_config(settings: Mapping[str, object]) -> ForecastConfig:
    return ForecastConfig(
        p=int(settings["p"]),
        m_star=int(settings["m_star"]),
        train_days=int(settings["train_days"]),
        horizon=int(settings["horizon"]),
        neighbor_mode=str(settings["neighbor_mode"]),
    )


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_generate(args: argparse.Namespace, settings: dict[str, object]) -> int:
    out = Path(args.out)
    config = GenConfig(
        n_videos=int(settings["n_videos"]),
        n_artists=int(settings["n_artists"]),
        days=int(settings["days"]),
        edge_density=float(settings["edge_density"]),
        presence_prob=float(settings["presence_prob"]),
        noise_scale=float(settings["noise_scale"]),
        seed=int(settings["seed"]),
    )
    dataset, truth = generate(config)
    export_dataset(dataset, out)
    _write_json(out / "ground_truth.json", ground_truth_to_json(truth))
    write_manifest(out, "generate", settings, {})
    print(json.dumps({"videos": dataset.summary.n_videos, "days": dataset.summary.n_days,
                      "edges": len(truth.beta), "out": str(out)}, sort_keys=True))
    return 0


def cmd_validate(args: argparse.Namespace, settings: dict[str, object]) -> int:
    dataset = load_dataset(args.data)
    summary = dataset.summary
    print(
        json.dumps(
            {
                "n_videos": summary.n_videos,
                "n_artists": summary.n_artists,
                "n_days": summary.n_days,
                "mean_edges_per_day": summary.mean_edges_per_day,
                "n_external_targets": summary.n_external_targets,
                "window_start": dataset.window.start.isoformat(),
                "window_end": dataset.window.end.isoformat(),
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_analyze(args: argparse.Namespace, settings: dict[str, object]) -> int:
    dataset = load_dataset(args.data)
    out = Path(args.out)
    cutoff = int(settings["cutoff"])
    day = date.fromisoformat(args.date) if args.date else dataset.window.end

    snap = dataset.network.snapshot_on(day)
    graph = build_graph(snap, dataset.corpus, cutoff)
    bowtie = bowtie_attention(bowtie_decompose(graph), dataset, day)
    counts = {comp: 0 for comp in Component}
    for comp in bowtie.assignment.values():
        counts[comp] += 1
    _write_csv(
        out / "bowtie.csv",
        ["date", "component", "n_nodes", "node_fraction", "view_fraction"],
        [
            (day.isoformat(), comp.value, counts[comp], bowtie.node_fractions[comp],
             bowtie.view_fractions[comp])
            for comp in Component
        ],
    )
    _write_csv(out / "ccdf.csv", ["indegree", "prob_ge"], indegree_ccdf(graph))
    day_views = {vid: float(dataset.views_on(vid, day)) for vid in dataset.corpus}
    flow = view_group_flow(graph, day_views)
    labels = ["bottom25", "q2", "q3", "top25"]
    _write_csv(
        out / "group_flow.csv",
        ["source_group"] + labels,
        [[labels[i]] + [int(flow[i, j]) for j in range(4)] for i in range(4)],
    )
    churn = indegree_change_ratios(
        dataset.network, dataset.corpus, cutoff, int(settings["min_indegree"])
    )
    _write_csv(
        out / "churn.csv",
        ["indegree", "count", "p10", "p25", "p50", "p75", "p90"],
        [(c.indegree, c.count, c.p10, c.p25, c.p50, c.p75, c.p90) for c in churn.values()],
    )
    freq = link_frequency_histogram(dataset.network, dataset.corpus, cutoff)
    _write_csv(out / "link_freq.csv", ["days_present", "n_links"], sorted(freq.items()))
    write_manifest(out, "analyze", settings, _data_inputs(Path(args.data)))
    return 0


def _emit_matrix(path: Path, row_name: str, matrix: DisplayProbabilityMatrix) -> None:
    rows = []
    for i, label in enumerate(matrix.row_labels):
        for j, bin_label in enumerate(matrix.col_labels):
            rows.append([label, bin_label, matrix.probs[i, j]])
    _write_csv(path, [row_name, "bin_label", "probability"], rows)


def cmd_display_prob(args: argparse.Namespace, settings: dict[str, object]) -> int:
    snapshots_path = Path(args.data) / "snapshots.csv"
    network = parse_snapshots(snapshots_path)
    out = Path(args.out)
    disp = display_probability_matrix(network, max_rel=int(settings["max_rel"]))
    orig = origin_probability_matrix(network, max_rec=int(settings["max_rec"]))
    _emit_matrix(out / "display_prob.csv", "rel_rank", disp)
    _emit_matrix(out / "origin_prob.csv", "rec_position", orig)
    write_manifest(out, "display-prob", settings, {"snapshots.csv": snapshots_path})
    return 0


def cmd_persistent(args: argparse.Namespace, settings: dict[str, object]) -> int:
    dataset = load_dataset(args.data)
    out = Path(args.out)
    filters = apply_view_filters(
        dataset, float(settings["target_min_views"]), float(settings["source_view_frac"])
    )
    pn, _ = classify_links(dataset.network, dataset, int(settings["cutoff"]), filters)
    _emit_persistent(out, dataset, pn)
    write_manifest(out, "persistent", settings, _data_inputs(Path(args.data)))
    return 0


def cmd_simulate_persistence(args: argparse.Namespace, settings: dict[str, object]) -> int:
    out = Path(args.out)
    try:
        grid = [float(x) for x in str(settings["p_grid"]).split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"could not parse p_grid {settings['p_grid']!r}") from None
    if not grid:
        raise UsageError("p_grid is empty")
    trials = int(settings["trials"])
    rows = []
    for p in grid:
        xi = simulate_persistence_probability(
            p, n_days=int(settings["days"]), trials=trials, seed=int(settings["seed"])
        )
        rows.append((p, xi, trials))
    _write_csv(out / "xi_curve.csv", ["p", "xi", "trials"], rows)
    write_manifest(out, "simulate-persistence", settings, {})
    return 0


def cmd_correlate(args: argparse.Namespace, settings: dict[str, object]) -> int:
    dataset = load_dataset(args.data)
    out = Path(args.out)
    cutoff = int(settings["cutoff"])
    filters = apply_view_filters(
        dataset, float(settings["target_min_views"]), float(settings["source_view_frac"])
    )
    pn, ephemeral = classify_links(dataset.network, dataset, cutoff, filters)
    if not pn.edges:
        raise DataFormatError("no persistent links found; nothing to correlate")
    groups: dict[str, list[tuple[str, str]]] = {
        "persistent": [(e.source, e.target) for e in pn.edges],
        "reciprocal": [(e.source, e.target) for e in pn.edges if e.reciprocal],
        "ephemeral": list(ephemeral),
        "random": sample_random_pairs(
            dataset, int(settings["random_pairs"]), int(settings["seed"]), cutoff, filters
        ),
    }
    groups = {name: pairs for name, pairs in groups.items() if pairs}
    results = correlated_link_fractions(groups, dataset, alpha=float(settings["alpha"]))
    _write_csv(
        out / "group_fractions.csv",
        ["group", "n_links", "n_significant", "fraction"],
        [
            (g.group, g.n_links, g.n_significant, g.fraction)
            for g in (results[name] for name in sorted(results))
        ],
    )
    link_rows = []
    for name in sorted(results):
        for link in results[name].links:
            link_rows.append((name, link.source, link.target, link.r, link.p))
    _write_csv(
        out / "link_correlations.csv",
        ["group", "source", "target", "r", "p"],
        link_rows,
    )
    write_manifest(out, "correlate", settings, _data_inputs(Path(args.data)))
    return 0


def cmd_fit(args: argparse.Namespace, settings: dict[str, object]) -> int:
    dataset = load_dataset(args.data)
    out = Path(args.out)
    pn = read_persistent_edges(Path(args.persistent))
    config = _forecast_config(settings)
    model_name = str(settings["model"])
    models, result = run_model(dataset, pn, model_name, config, int(settings["threads"]))
    _emit_fit(out, model_name, config, models, result)
    inputs = _data_inputs(Path(args.data))
    inputs["persistent_edges.csv"] = Path(args.persistent)
    write_manifest(out, "fit", settings, inputs)
    return 0


def cmd_evaluate(args: argparse.Namespace, settings: dict[str, object]) -> int:
    out = Path(args.out)
    result = read_forecasts(Path(args.forecasts))
    report = evaluate_forecasts(result)
    _emit_eval(out, report)
    write_manifest(out, "evaluate", settings, {"forecasts.csv": Path(args.forecasts)})
    return 0


def cmd_contribute(args: argparse.Namespace, settings: dict[str, object]) -> int:
    dataset = load_dataset(args.data)
    out = Path(args.out)
    name, config, models = read_models(Path(args.models))
    result = read_forecasts(Path(args.forecasts), name)
    report = contribution_report(dataset, models, result, config)
    _emit_contribution(out, report)
    inputs = _data_inputs(Path(args.data))
    inputs["models.json"] = Path(args.models)
    inputs["forecasts.csv"] = Path(args.forecasts)
    write_manifest(out, "contribute", settings, inputs)
    return 0


def cmd_pipeline(args: argparse.Namespace, settings: dict[str, object]) -> int:
    dataset = load_dataset(args.data)
    out = Path(args.out)
    cutoff = int(settings["cutoff"])
    filters = apply_view_filters(
        dataset, float(settings["target_min_views"]), float(settings["source_view_frac"])
    )
    pn, _ = classify_links(dataset.network, dataset, cutoff, filters)
    _emit_persistent(out, dataset, pn)
    if not pn.edges:
        raise DataFormatError("no persistent links found; cannot run the forecast stage")
    config = _forecast_config(settings)
    threads = int(settings["threads"])
    for model_name in MODEL_NAMES:
        subdir = out / model_name
        models, result = run_model(dataset, pn, model_name, config, threads)
        _emit_fit(subdir, model_name, config, models, result)
        _emit_eval(subdir, evaluate_forecasts(result))
        if model_name == "arnet":
            report = contribution_report(dataset, models, result, config)
            _emit_contribution(subdir, report)
    write_manifest(out, "pipeline", settings, _data_inputs(Path(args.data)))
    return 0


# ---------------------------------------------------------------------------
# parser


THREADS_HELP = "worker processes for network-model fits (default: available cores)"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aflow", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def common(p: argparse.ArgumentParser, data: bool = True, out: bool = True) -> None:
        p.add_argument("--config", help="flat key=value settings file")
        if data:
            p.add_argument("--data", required=True, help="directory with the three input CSVs")
        if out:
            p.add_argument("--out", required=True, help="artifact output directory")

    p = sub.add_parser("generate", help="generate a synthetic dataset with ground truth")
    common(p, data=False)
    for flag in ("seed", "n-videos", "n-artists", "days"):
        p.add_argument(f"--{flag}", type=int)
    for flag in ("edge-density", "presence-prob", "noise-scale"):
        p.add_argument(f"--{flag}", type=float)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("validate", help="parse and cross-check a dataset directory")
    common(p, out=False)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("analyze", help="bow-tie, degree, flow and churn analyses")
    common(p)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--min-indegree", type=int)
    p.add_argument("--date", help="analysis day (ISO), default last window day")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("display-prob", help="relevant/recommended alignment matrices")
    common(p)
    p.add_argument("--max-rel", type=int)
    p.add_argument("--max-rec", type=int)
    p.set_defaults(handler=cmd_display_prob)

    p = sub.add_parser("persistent", help="extract the persistent network")
    common(p)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--target-min-views", type=float)
    p.add_argument("--source-view-frac", type=float)
    p.set_defaults(handler=cmd_persistent)

    p = sub.add_parser("simulate-persistence", help="survival probability of random presence")
    common(p, data=False)
    p.add_argument("--p-grid", dest="p_grid", help="comma-separated presence probabilities")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--days", type=int)
    p.set_defaults(handler=cmd_simulate_persistence)

    p = sub.add_parser("correlate", help="residual correlations across link groups")
    common(p)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--random-pairs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--target-min-views", type=float)
    p.add_argument("--source-view-frac", type=float)
    p.set_defaults(handler=cmd_correlate)

    p = sub.add_parser("fit", help="fit one model family on persistent targets")
    common(p)
    p.add_argument("--persistent", required=True, help="persistent_edges.csv from the persistent step")
    p.add_argument("--model", choices=MODEL_NAMES)
    for flag in ("p", "m-star", "train-days", "horizon"):
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--threads", type=int, help=THREADS_HELP)
    p.add_argument("--neighbor-mode", choices=("observed", "forecast"))
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("evaluate", help="SMAPE report for a forecasts artifact")
    common(p, data=False)
    p.add_argument("--forecasts", required=True)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("contribute", help="network contribution and artist shifts")
    common(p)
    p.add_argument("--models", required=True)
    p.add_argument("--forecasts", required=True)
    p.set_defaults(handler=cmd_contribute)

    p = sub.add_parser("pipeline", help="persistent -> fit x4 -> evaluate -> contribute")
    common(p)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--target-min-views", type=float)
    p.add_argument("--source-view-frac", type=float)
    for flag in ("p", "m-star", "train-days", "horizon"):
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--threads", type=int, help=THREADS_HELP)
    p.add_argument("--neighbor-mode", choices=("observed", "forecast"))
    p.set_defaults(handler=cmd_pipeline)

    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    record = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        settings = resolve_settings(args)
        return args.handler(args, settings)
    except UsageError as exc:
        _emit_error("usage", exc)
        return 1
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        _emit_error("numerical", exc)
        return 3
    except (DataFormatError, ValueError, OSError) as exc:
        _emit_error("data", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
