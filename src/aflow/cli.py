"""Command-line interface.

Every setting is declared once, in ``SETTINGS``, and every subcommand once,
in ``COMMANDS``; the flags, the config-file and environment checks and the
manifests all come from those two tables.  Settings resolve in precedence
order: built-in defaults, then a flat ``key=value`` config file
(``--config``), then ``AFLOW_<KEY>`` environment variables, then explicit
flags.  Every run that writes artifacts also writes ``run_manifest.json``
with the settings its subcommand reads, SHA-256 hashes of the input files
and library versions; no timestamps, so reruns are byte-identical.

``main`` reads ``--data`` once per command and hands the result to the
handler: the parsed ``snapshots.csv`` for ``display-prob``, the loaded
``Dataset`` for every other subcommand that takes ``--data``.  The manifest
hashes the files under ``--data`` that ``Command.data`` names and each
artifact flag's file under its ``ARTIFACTS`` key.

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
import dataclasses
import hashlib
import json
import math
import re
import sys
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__, graph_analysis, list_alignment, persistence, stats
from .data_model import (
    DATASET_FILES,
    DataFormatError,
    Dataset,
    DynamicNetwork,
    NumericalError,
    _bad_ids,
    _id_problem,
    cell,
    csv_rows,
    date_or_none,
    int_or_none,
    load_dataset,
    parse_file,
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
    NEIGHBOR_MODES,
    ArnetModel,
    FitDiagnostics,
    ForecastConfig,
    ForecastResult,
    model_forecasts,
    run_model,
    split_series,
)
from .graph_analysis import (
    Component,
    LinkPresence,
    bowtie_attention,
    bowtie_decompose,
    build_graph,
    daily_link_presence,
    indegree_ccdf,
    indegree_change_ratios,
    link_frequency_histogram,
    view_group_flow,
)
from .list_alignment import DisplayProbabilityMatrix, display_probability_matrix, origin_probability_matrix
from .persistence import (
    PersistentEdge,
    PersistentNetwork,
    ViewFilters,
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


class Setting(NamedTuple):
    """One setting, read from ``--name`` (``_`` as ``-``), ``AFLOW_NAME`` or ``--config``."""

    name: str
    type: type
    default: object
    commands: tuple[str, ...]  # the subcommands that read it
    choices: tuple[str, ...] = ()
    help: str | None = None
    least: int | None = None  # the smallest value the library takes


_LINKS = ("persistent", "correlate", "pipeline")
_FITS = ("fit", "pipeline")

SETTINGS: dict[str, Setting] = {s.name: s for s in (
    Setting("cutoff", int, graph_analysis.CUTOFF, ("analyze",) + _LINKS, least=1),
    Setting("min_indegree", int, graph_analysis.MIN_INDEGREE, ("analyze",)),
    Setting("max_rel", int, list_alignment.MAX_REL, ("display-prob",), least=1),
    Setting("max_rec", int, list_alignment.MAX_REC, ("display-prob",), least=1),
    Setting("target_min_views", float, persistence.TARGET_MIN_MEAN_VIEWS, _LINKS),
    Setting("source_view_frac", float, persistence.SOURCE_VIEW_FRACTION, _LINKS),
    Setting("random_pairs", int, 200, ("correlate",), least=1),
    Setting("alpha", float, stats.SIGNIFICANCE_LEVEL, ("correlate",)),
    Setting("model", str, "arnet", ("fit",), MODEL_NAMES),
    Setting("p", int, ForecastConfig.p, _FITS, least=1),
    Setting("m_star", int, ForecastConfig.m_star, _FITS, least=1),
    Setting("train_days", int, ForecastConfig.train_days, _FITS),
    Setting("horizon", int, ForecastConfig.horizon, _FITS, least=1),
    Setting("neighbor_mode", str, ForecastConfig.neighbor_mode, _FITS, NEIGHBOR_MODES),
    Setting("threads", int, _available_cores(), _FITS,
            help="worker processes for network-model fits (default: available cores)", least=1),
    # numpy's generators take only non-negative seeds
    Setting("seed", int, GenConfig.seed, ("generate", "simulate-persistence", "correlate"), least=0),
    Setting("days", int, GenConfig.days, ("generate", "simulate-persistence"), least=1),
    Setting("n_videos", int, GenConfig.n_videos, ("generate",), least=2),
    Setting("n_artists", int, GenConfig.n_artists, ("generate",), least=1),
    Setting("edge_density", float, GenConfig.edge_density, ("generate",)),
    Setting("presence_prob", float, GenConfig.presence_prob, ("generate",)),
    Setting("noise_scale", float, GenConfig.noise_scale, ("generate",)),
    Setting("p_grid", str, "0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
            ("simulate-persistence",), help="comma-separated presence probabilities"),
    Setting("trials", int, persistence.TRIALS, ("simulate-persistence",), least=1),
)}


def _coerce(key: str, text: str) -> object:
    setting = SETTINGS[key]
    try:
        value = setting.type(text)
    except ValueError:
        raise UsageError(
            f"setting {key} expects a {setting.type.__name__}, got {text!r}") from None
    if setting.choices and value not in setting.choices:
        raise UsageError(
            f"setting {key} expects one of {', '.join(setting.choices)}, got {text!r}")
    return value


def _parse_config_file(path: Path) -> dict[str, object]:
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    out: dict[str, object] = {}
    # Bytes that are not UTF-8 decode to U+FFFD and fail as an unknown key or a bad value.
    for idx, raw in enumerate(path.read_text(encoding="utf-8", errors="replace").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{idx}: expected key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in SETTINGS:
            raise UsageError(f"{path}:{idx}: unknown setting {key!r}")
        try:
            out[key] = _coerce(key, val)
        except UsageError as exc:
            raise UsageError(f"{path}:{idx}: {exc}") from None
    return out


def resolve_settings(args: argparse.Namespace) -> dict[str, object]:
    """defaults < config file < AFLOW_* environment < explicit flags."""
    settings = {key: s.default for key, s in SETTINGS.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        settings.update(_parse_config_file(Path(config_path)))
    for key in SETTINGS:
        env_val = os.environ.get(f"AFLOW_{key.upper()}")
        if env_val is not None:
            settings[key] = _coerce(key, env_val)
    for key in SETTINGS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            settings[key] = flag_val
    for key, s in SETTINGS.items():
        if s.least is not None and settings[key] < s.least:
            raise UsageError(f"setting {key} must be at least {s.least}, got {settings[key]}")
    for key in ("target_min_views", "source_view_frac"):  # nan passes no view filter
        if not math.isfinite(settings[key]):
            raise UsageError(f"setting {key} must be finite, got {settings[key]}")
    if not 0 < settings["alpha"] < 1:
        raise UsageError(f"setting alpha must lie in (0, 1), got {settings['alpha']}")
    try:  # the library configs' own checks, such as a density outside [0, 1]
        GenConfig(**_read_by("generate", settings))
        _forecast_config(settings)
    except DataFormatError as exc:
        raise UsageError(str(exc)) from None
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


def _read_by(subcommand: str, settings: Mapping[str, object]) -> dict[str, object]:
    """The settings ``subcommand`` reads, by name."""
    return {k: v for k, v in sorted(settings.items()) if subcommand in SETTINGS[k].commands}


def _file_sha256(path: Path) -> str:
    """sha256 of a file read in 64 KB chunks.

    A buffer the size of the whole file lands in mmap or in a heap hole
    depending on earlier allocations, which moved a command's peak RSS by
    3 MB with the length of the data directory's path.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    out_dir: Path,
    subcommand: str,
    settings: Mapping[str, object],
    input_files: Mapping[str, Path],
) -> None:
    """Reproducibility record: the settings the subcommand reads, input hashes, versions.

    The thread count is an execution detail, not configuration, so it is
    excluded and runs with different --threads stay byte-identical.
    """
    inputs = {name: _file_sha256(Path(p)) for name, p in sorted(input_files.items())}
    manifest = {
        "subcommand": subcommand,
        "config": {k: v for k, v in _read_by(subcommand, settings).items() if k != "threads"},
        "inputs": inputs,
        "versions": {
            "aflow": __version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": np.__version__,
        },
    }
    _write_json(out_dir / "run_manifest.json", manifest)


# ---------------------------------------------------------------------------
# artifact readers (for subcommands consuming earlier artifacts)

PERSISTENT_HEADER = ["source", "target", "reciprocal", "raw_presence_count"]
FORECASTS_HEADER = ["video_id", "date", "y_true", "y_pred"]


def _finite(text: str) -> float | None:
    value = float(text) if _FLOAT_TEXT.fullmatch(text) else math.nan
    return value if math.isfinite(value) else None


_FLOAT_TEXT = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[-+]?[0-9]+)?")  # what _fmt writes for a finite float
_FLAGS = {"0": False, "1": True}


def read_persistent_edges(path: Path) -> PersistentNetwork:
    if not path.is_file():
        raise DataFormatError("persistent edges artifact not found; run the persistent step first")
    edges, first_line, id_line = [], {}, {}
    for line, row in csv_rows(path, PERSISTENT_HEADER):
        where = f"line {line}"
        if len(row) != 4:
            raise DataFormatError(f"{where}: expected 4 fields, got {len(row)}")
        reciprocal = cell(_FLAGS.get, row[2], where, "reciprocal flag")
        count = cell(int_or_none, row[3], where, "presence count")
        id_line.setdefault(row[0], line)
        id_line.setdefault(row[1], line)
        if row[0] == row[1] and not _id_problem(row[0]):  # a bad id is reported after the rows
            raise DataFormatError(f"{where}: self-loop on {row[0]}")
        first = first_line.setdefault((row[0], row[1]), line)
        if first != line and not (_id_problem(row[0]) or _id_problem(row[1])):
            raise DataFormatError(f"{where}: repeated edge {row[0]} -> {row[1]} (first at line {first})")
        edges.append(PersistentEdge(row[0], row[1], reciprocal, count))
    ids = list(id_line)  # checked once each, after the rows: the first bad id in file order is reported
    if bad := _bad_ids(ids):
        raise DataFormatError(f"line {id_line[ids[bad[0]]]}: {_id_problem(ids[bad[0]])}")
    return PersistentNetwork(tuple(sorted(edges, key=lambda e: (e.source, e.target))))


def read_forecasts(path: Path) -> ForecastResult:
    if not path.is_file():
        raise DataFormatError("forecasts artifact not found")
    per_video: dict[str, dict[date, tuple[float, float]]] = {}
    id_line: dict[str, int] = {}
    for line, row in csv_rows(path, FORECASTS_HEADER):
        where = f"line {line}"
        if len(row) != 4:
            raise DataFormatError(f"{where}: expected 4 fields, got {len(row)}")
        day = cell(date_or_none, row[1], where, "date")
        values = (cell(_finite, row[2], where, "y_true"), cell(_finite, row[3], where, "y_pred"))
        per_day = per_video.setdefault(row[0], {})
        id_line.setdefault(row[0], line)
        if day in per_day and not _id_problem(row[0]):  # as in read_persistent_edges
            raise DataFormatError(f"{where}: repeated row for {row[0]} on {day}")
        per_day[day] = values
    ids = list(id_line)  # as in read_persistent_edges
    if bad := _bad_ids(ids):
        raise DataFormatError(f"line {id_line[ids[bad[0]]]}: {_id_problem(ids[bad[0]])}")
    if not per_video:
        raise DataFormatError("no forecast rows")
    video_ids = tuple(sorted(per_video))
    dates = tuple(sorted(per_video[video_ids[0]]))
    for vid in video_ids:
        if tuple(sorted(per_video[vid])) != dates:
            raise DataFormatError(f"horizon dates differ for {vid}")
    y_true = np.array([[per_video[v][d][0] for d in dates] for v in video_ids])
    y_pred = np.array([[per_video[v][d][1] for d in dates] for v in video_ids])
    return ForecastResult(video_ids, dates, y_true, y_pred)


def _numbers(values: object) -> bool:
    return isinstance(values, list) and all(type(v) in (int, float) for v in values)


def read_models(path: Path) -> tuple[ForecastConfig, dict[str, ArnetModel]]:
    if not path.is_file():
        raise DataFormatError("models artifact not found")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataFormatError(str(exc)) from None
    if not isinstance(payload, dict):
        raise DataFormatError(f"expected a JSON object, got {type(payload).__name__}")
    if payload.get("model") != "arnet":
        raise DataFormatError("contribution analysis needs a network-model artifact")
    kinds = {f.name: type(f.default) for f in dataclasses.fields(ForecastConfig)}
    config = payload.get("config")
    if isinstance(config, dict) and (extra := sorted(config.keys() - kinds.keys())):
        raise DataFormatError("'config' holds keys that are not ForecastConfig fields: "
                              f"{', '.join(extra)}; refit to write a models.json this version reads")
    # type(), not isinstance(): a JSON true is no int
    if not isinstance(config, dict) or any(type(value) is not kinds[key] for key, value in config.items()):
        raise DataFormatError("'config' must map ForecastConfig fields to values of their type")
    missing = sorted(kinds.keys() - config.keys())
    if missing:
        raise DataFormatError(f"'config' lacks the ForecastConfig fields {', '.join(missing)}")
    config = ForecastConfig(**config)
    videos = payload.get("videos")
    if not isinstance(videos, dict) or not all(
        isinstance(entry, dict) and _numbers(entry.get("alpha")) and len(entry["alpha"]) == config.p
        and isinstance(entry.get("beta"), dict) and _numbers(list(entry["beta"].values()))
        for entry in videos.values()
    ):
        raise DataFormatError(
            f"each video needs 'alpha', {config.p} numbers, and 'beta', an object of numbers")
    if not videos:
        raise DataFormatError("no fitted videos")
    ids = [u for vid, entry in videos.items() for u in (vid, *entry["beta"])]  # in file order
    if bad := _bad_ids(ids):
        raise DataFormatError(_id_problem(ids[bad[0]]))
    for vid, entry in videos.items():
        if vid in entry["beta"]:
            raise DataFormatError(f"{vid} has a beta on itself")
        # the bounds fit keeps to; NaN fails every comparison, and an int past every float fails too
        for alpha in entry["alpha"]:
            if not 0 <= alpha <= sys.float_info.max:
                raise DataFormatError(f"{vid} has alpha {alpha}, outside [0, inf)")
        for beta in entry["beta"].values():
            if not 0 <= beta <= 1:
                raise DataFormatError(f"{vid} has beta {beta}, outside [0, 1]")
    models = {
        vid: ArnetModel(vid, np.asarray(entry["alpha"], dtype=float), dict(entry["beta"]))
        for vid, entry in videos.items()
    }
    return config, models


# ---------------------------------------------------------------------------
# emit helpers shared by single subcommands and the pipeline


def _emit_persistent(out: Path, dataset: Dataset, pn: PersistentNetwork) -> None:
    _write_csv(
        out / "persistent_edges.csv",
        PERSISTENT_HEADER,
        [(e.source, e.target, e.reciprocal, e.days_present) for e in pn.edges],
    )
    if pn.edges:
        homophily = homophily_stats(pn, dataset.metadata)
        same_artist: float | None = homophily.same_artist_fraction
        shared_genre: float | None = homophily.shared_genre_fraction
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


def _emit_fit_diagnostics(out: Path, fits: Mapping[str, FitDiagnostics]) -> None:
    """Per-target optimizer report.

    Fits that did not converge, and fits with at least as many parameters as
    training rows, are also counted in one stderr warning each.
    """
    _write_csv(
        out / "fit_diagnostics.csv",
        ["video_id", "converged", "nit", "nfev", "objective", "n_params", "n_rows", "message",
         "start_objective"],
        [(vid, d.converged, d.nit, d.nfev, d.objective, d.n_params, d.n_rows, d.message,
          d.start_objective)
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
    return ForecastConfig(**{f.name: settings[f.name] for f in dataclasses.fields(ForecastConfig)})


# ---------------------------------------------------------------------------
# stages shared by single subcommands and the pipeline


def _persistent_links(
    dataset: Dataset, settings: Mapping[str, object]
) -> tuple[PersistentNetwork, tuple[tuple[str, str], ...], ViewFilters, LinkPresence]:
    """Persistent network and ephemeral links under the view filters, the filters and the link presence."""
    filters = apply_view_filters(dataset, settings["target_min_views"], settings["source_view_frac"])
    presence = daily_link_presence(dataset.network, dataset.corpus, settings["cutoff"])
    pn, ephemeral = classify_links(presence, filters)
    return pn, ephemeral, filters, presence


def _fit_and_emit(
    out: Path,
    dataset: Dataset,
    pn: PersistentNetwork,
    model_name: str,
    config: ForecastConfig,
    threads: int,
) -> tuple[Mapping[str, object] | None, ForecastResult]:
    """Fit one model family, write models.json, fit_diagnostics.csv and forecasts.csv."""
    models, result = run_model(dataset, pn, model_name, config, threads)
    videos = {vid: {"alpha": [float(a) for a in m.alpha],
                    "beta": {u: float(b) for u, b in sorted(m.beta.items())}}
              for vid, m in sorted((models or {}).items())}
    _write_json(out / "models.json",
                {"model": model_name, "config": dataclasses.asdict(config), "videos": videos})
    if model_name == "arnet" and models:
        _emit_fit_diagnostics(out, {vid: models[vid].fit for vid in sorted(models)})
    rows = [(vid, d.isoformat(), result.y_true[i, h], result.y_pred[i, h])
            for i, vid in enumerate(result.video_ids) for h, d in enumerate(result.dates)]
    _write_csv(out / "forecasts.csv", FORECASTS_HEADER, rows)
    return models, result


# ---------------------------------------------------------------------------
# subcommand handlers: each takes what ``main`` read from ``--data``, or None


def cmd_generate(args: argparse.Namespace, settings: dict[str, object], _: None) -> None:
    out = Path(args.out)
    dataset, truth = generate(GenConfig(**_read_by("generate", settings)))
    export_dataset(dataset, out)
    _write_json(out / "ground_truth.json", ground_truth_to_json(truth))
    print(json.dumps({"videos": len(dataset.corpus), "days": dataset.window.n_days,
                      "edges": len(truth.beta), "out": str(out)}, sort_keys=True))


def cmd_validate(args: argparse.Namespace, settings: dict[str, object], dataset: Dataset) -> None:
    table, window = dataset.network.table, dataset.window
    print(
        json.dumps(
            {
                "n_videos": len(dataset.corpus),
                "n_artists": len({m.artist_id for m in dataset.metadata.values()}),
                "n_days": window.n_days,
                "mean_edges_per_day": int(np.count_nonzero(table.kind == 0)) / window.n_days,
                "n_external_targets": len(set(table.ids[np.unique(table.tgt)].tolist()) - dataset.corpus),
                "window_start": window.start.isoformat(),
                "window_end": window.end.isoformat(),
            },
            sort_keys=True,
        )
    )


def cmd_analyze(args: argparse.Namespace, settings: dict[str, object], dataset: Dataset) -> None:
    out = Path(args.out)
    cutoff = settings["cutoff"]
    window = dataset.window
    day = args.date or window.end
    if day not in window:
        raise UsageError(
            f"--date {day} is outside the observation window {window.start}..{window.end}")

    graph = build_graph(dataset.network.snapshot_on(day), dataset.corpus, cutoff)
    bowtie = bowtie_attention(bowtie_decompose(graph), dataset, day)
    _write_csv(
        out / "bowtie.csv",
        ["date", "component", "n_nodes", "node_fraction", "view_fraction"],
        [
            (day.isoformat(), comp.value, bowtie.sizes[comp], bowtie.node_fractions[comp],
             bowtie.view_fractions[comp])
            for comp in Component
        ],
    )
    _write_csv(out / "ccdf.csv", ["indegree", "prob_ge"], indegree_ccdf(graph))
    flow = view_group_flow(graph, dataset.window_views[:, window.index(day)])
    labels = ["bottom25", "q2", "q3", "top25"]
    _write_csv(
        out / "group_flow.csv",
        ["source_group"] + labels,
        [[labels[i]] + [int(flow[i, j]) for j in range(4)] for i in range(4)],
    )
    presence = daily_link_presence(dataset.network, dataset.corpus, cutoff)
    churn = indegree_change_ratios(presence, settings["min_indegree"])
    _write_csv(
        out / "churn.csv",
        ["indegree", "count", "p10", "p25", "p50", "p75", "p90"],
        [(c.indegree, c.count, c.p10, c.p25, c.p50, c.p75, c.p90) for c in churn.values()],
    )
    freq = link_frequency_histogram(presence)
    _write_csv(out / "link_freq.csv", ["days_present", "n_links"], sorted(freq.items()))


def _emit_matrix(path: Path, row_name: str, matrix: DisplayProbabilityMatrix) -> None:
    rows = [[label, bin_label, matrix.probs[i, j]]
            for i, label in enumerate(matrix.row_labels) for j, bin_label in enumerate(matrix.col_labels)]
    _write_csv(path, [row_name, "bin_label", "probability"], rows)


def cmd_display_prob(args: argparse.Namespace, settings: dict[str, object], network: DynamicNetwork) -> None:
    out = Path(args.out)
    disp = display_probability_matrix(network, max_rel=settings["max_rel"])
    orig = origin_probability_matrix(network, max_rec=settings["max_rec"])
    _emit_matrix(out / "display_prob.csv", "rel_rank", disp)
    _emit_matrix(out / "origin_prob.csv", "rec_position", orig)


def cmd_persistent(args: argparse.Namespace, settings: dict[str, object], dataset: Dataset) -> None:
    pn, *_ = _persistent_links(dataset, settings)
    _emit_persistent(Path(args.out), dataset, pn)


def cmd_simulate_persistence(args: argparse.Namespace, settings: dict[str, object], _: None) -> None:
    out = Path(args.out)
    try:
        grid = [float(x) for x in settings["p_grid"].split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"could not parse p_grid {settings['p_grid']!r}") from None
    if not grid:
        raise UsageError("p_grid is empty")
    if bad := [p for p in grid if not 0.0 <= p <= 1.0]:  # nan included
        raise UsageError(f"p_grid value {bad[0]} lies outside [0, 1]")
    trials = settings["trials"]
    rows = []
    for p in grid:
        xi = simulate_persistence_probability(
            p, n_days=settings["days"], trials=trials, seed=settings["seed"]
        )
        rows.append((p, xi, trials))
    _write_csv(out / "xi_curve.csv", ["p", "xi", "trials"], rows)


def cmd_correlate(args: argparse.Namespace, settings: dict[str, object], dataset: Dataset) -> None:
    out = Path(args.out)
    pn, ephemeral, filters, presence = _persistent_links(dataset, settings)
    if not pn.edges:
        raise DataFormatError("no persistent links found; nothing to correlate")
    random_pairs = sample_random_pairs(presence, settings["random_pairs"], settings["seed"], filters)
    if len(random_pairs) < settings["random_pairs"]:
        record = {"warning": "random_pairs_short", "wanted": settings["random_pairs"],
                  "found": len(random_pairs)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
    groups: dict[str, list[tuple[str, str]]] = {
        "persistent": [(e.source, e.target) for e in pn.edges],
        "reciprocal": [(e.source, e.target) for e in pn.edges if e.reciprocal],
        "ephemeral": list(ephemeral),
        "random": random_pairs,
    }
    groups = {name: pairs for name, pairs in groups.items() if pairs}
    results = correlated_link_fractions(groups, dataset, alpha=settings["alpha"])
    _write_csv(
        out / "group_fractions.csv",
        ["group", "n_links", "n_significant", "fraction"],
        [
            (g.group, g.n_links, g.n_significant, g.fraction)
            for g in (results[name] for name in sorted(results))
        ],
    )
    _write_csv(
        out / "link_correlations.csv",
        ["group", "source", "target", "r", "p"],
        [(name, link.source, link.target, link.r, link.p) for name in sorted(results) for link in results[name].links],
    )


def _corpus_only(path: str, ids: Iterable[str], dataset: Dataset) -> None:
    """Reject an artifact at ``path`` that names a video outside the corpus."""
    if unknown := set(ids) - dataset.corpus:
        raise DataFormatError(f"{path}: {min(unknown)} is not a corpus video")


def cmd_fit(args: argparse.Namespace, settings: dict[str, object], dataset: Dataset) -> None:
    pn = parse_file(read_persistent_edges, Path(args.persistent))
    _corpus_only(args.persistent, pn.sources | pn.targets, dataset)
    if bad := [e for e in pn.edges if not 1 <= e.days_present <= dataset.window.n_days]:
        raise DataFormatError(f"{args.persistent}: {bad[0].source} -> {bad[0].target} has presence "
                              f"count {bad[0].days_present}, outside 1..{dataset.window.n_days}")
    _fit_and_emit(Path(args.out), dataset, pn, settings["model"], _forecast_config(settings),
                  settings["threads"])


def cmd_evaluate(args: argparse.Namespace, settings: dict[str, object], _: None) -> None:
    _emit_eval(Path(args.out), evaluate_forecasts(parse_file(read_forecasts, Path(args.forecasts))))


def cmd_contribute(args: argparse.Namespace, settings: dict[str, object], dataset: Dataset) -> None:
    config, models = parse_file(read_models, Path(args.models))
    _corpus_only(args.models, [*models, *(u for m in models.values() for u in m.beta)], dataset)
    result = model_forecasts(dataset, models, config)
    _emit_contribution(Path(args.out), contribution_report(dataset, models, result, config))


def cmd_pipeline(args: argparse.Namespace, settings: dict[str, object], dataset: Dataset) -> None:
    """persistent -> fit x4 -> evaluate -> contribute over one loaded dataset."""
    out = Path(args.out)
    config = _forecast_config(settings)
    split_series(dataset, (), config)  # only its check, before any file is written
    pn, *_ = _persistent_links(dataset, settings)
    _emit_persistent(out, dataset, pn)
    if not pn.edges:
        raise DataFormatError("no persistent links found; cannot run the forecast stage")
    for model_name in MODEL_NAMES:
        subdir = out / model_name
        models, result = _fit_and_emit(subdir, dataset, pn, model_name, config, settings["threads"])
        _emit_eval(subdir, evaluate_forecasts(result))
        if model_name == "arnet":
            _emit_contribution(subdir, contribution_report(dataset, models, result, config))


# ---------------------------------------------------------------------------
# parser


class Command(NamedTuple):
    handler: Callable[[argparse.Namespace, dict[str, object], object], None]
    help: str
    paths: tuple[str, ...]  # keys of PATH_ARGS
    data: tuple[str, ...] = DATASET_FILES  # the files under --data it reads, when it takes --data


def _date_arg(text: str) -> date:
    """``--date`` in the input files' date grammar."""
    parsed = date_or_none(text)
    if parsed is None:
        raise argparse.ArgumentTypeError(f"bad date {text!r}")
    return parsed


PATH_ARGS: dict[str, dict[str, object]] = {
    "data": {"required": True, "help": "directory with the three input CSVs"},
    "out": {"required": True, "help": "artifact output directory"},
    "persistent": {"required": True, "help": "persistent_edges.csv from the persistent step"},
    "models": {"required": True, "help": "models.json from an arnet fit"},
    "forecasts": {"required": True, "help": "forecasts.csv from a fit"},
    "date": {"type": _date_arg, "help": "analysis day (YYYY-MM-DD), default last window day"},
}
ARTIFACTS = {"persistent": "persistent_edges.csv", "models": "models.json", "forecasts": "forecasts.csv"}

COMMANDS: dict[str, Command] = {
    "generate": Command(cmd_generate, "generate a synthetic dataset with ground truth", ("out",)),
    "validate": Command(cmd_validate, "parse and cross-check a dataset directory", ("data",)),
    "analyze": Command(cmd_analyze, "bow-tie, degree, flow and churn analyses",
                       ("data", "out", "date")),
    "display-prob": Command(cmd_display_prob, "relevant/recommended alignment matrices",
                            ("data", "out"), ("snapshots.csv",)),
    "persistent": Command(cmd_persistent, "extract the persistent network", ("data", "out")),
    "simulate-persistence": Command(cmd_simulate_persistence,
                                    "survival probability of random presence", ("out",)),
    "correlate": Command(cmd_correlate, "residual correlations across link groups",
                         ("data", "out")),
    "fit": Command(cmd_fit, "fit one model family on persistent targets",
                   ("data", "out", "persistent")),
    "evaluate": Command(cmd_evaluate, "SMAPE report for a forecasts artifact",
                        ("forecasts", "out")),
    "contribute": Command(cmd_contribute, "network contribution and artist shifts",
                          ("data", "out", "models")),
    "pipeline": Command(cmd_pipeline, "persistent -> fit x4 -> evaluate -> contribute",
                        ("data", "out")),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aflow", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for path in command.paths:
            p.add_argument(f"--{path}", **PATH_ARGS[path])
        read = [s for s in SETTINGS.values() if name in s.commands]
        if read:
            p.add_argument("--config", help="flat key=value settings file")
        for s in read:
            p.add_argument("--" + s.name.replace("_", "-"), type=s.type,
                           choices=s.choices or None, help=s.help or f"default {s.default}")
    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    record = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        settings = resolve_settings(args)
        command = COMMANDS[args.subcommand]
        inputs = {ARTIFACTS[p]: Path(getattr(args, p)) for p in command.paths if p in ARTIFACTS}
        data = None
        if "data" in command.paths:
            inputs.update((name, Path(args.data) / name) for name in command.data)
            # module globals looked up at call time: perfbench's tracer replaces them to count loads
            data = (load_dataset(args.data) if command.data == DATASET_FILES
                    else parse_file(parse_snapshots, inputs["snapshots.csv"]))
        command.handler(args, settings, data)
        if "out" in command.paths:
            write_manifest(Path(args.out), args.subcommand, settings, inputs)
        return 0
    except UsageError as exc:
        _emit_error("usage", exc)
        return 1
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        _emit_error("numerical", exc)
        return 3
    except (DataFormatError, OSError) as exc:
        _emit_error("data", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
