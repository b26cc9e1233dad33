"""The benchmark's workloads: input shapes, the CLI chain each runs, and its output checks.

Inputs come from ``aflow.datagen`` with the seed given on the command line
(``make_inputs`` runs in a child process, the only place aflow is imported).
Every workload is a closed loop: one chain at a time from one process.  The
checks read artifacts with the stdlib only and compare them with the planted
ground truth that ``make_inputs`` writes next to the inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Display kernel planted in the alignment workload: row r-1 holds the chance
# that the tracked entry at relevant rank r shows in each recommended-position
# bin (1, 2-5, 6-10, 11-15).  Every cell stays >= 0.03 so the binomial z-bound
# below is meaningful for every cell.
KERNEL_ROWS = 50


def kernel() -> list[list[float]]:
    rows = []
    for r in range(KERNEL_ROWS):
        rows.append([
            0.35 * math.exp(-r / 6) + 0.03,
            0.25 * math.exp(-r / 15) + 0.04,
            0.15 * math.exp(-r / 30) + 0.05,
            0.08 + 0.002 * r,
        ])
    return rows


# Family-wise bound on |z| over the 200 display cells: a per-cell 3-sigma
# bound would trip by chance on about 4 seeds in 10 at this cell count.
Z_BOUND = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "network" (generate + export_dataset) or "paired" (generate_paired_lists)
    shape: dict
    # One argv per CLI command; "{data}" and "{out}" are filled in per chain.
    chain: tuple[tuple[str, ...], ...]

    def commands(self, data: Path, chain_dir: Path) -> list[tuple[str, list[str]]]:
        out = []
        for argv in self.chain:
            out_dir = chain_dir / argv[0]
            out.append((argv[0], [a.format(data=data, out=out_dir) for a in argv]))
        return out


def _io(command: str, *extra: str) -> tuple[str, ...]:
    return (command, "--data", "{data}", "--out", "{out}") + extra


# Why each workload exists, and the larger shapes these are scaled down from,
# are in BENCHMARK.json and README.md.
WORKLOADS = {
    "links": Workload(
        name="links",
        kind="network",
        shape={"n_videos": 1200, "edge_density": 0.0067, "presence_prob": 0.9},
        chain=(_io("analyze", "--min-indegree", "5"), _io("persistent"), _io("correlate")),
    ),
    "forecast": Workload(
        name="forecast",
        kind="network",
        shape={"n_sources": 300, "n_targets": 400},
        chain=(_io("pipeline"),),
    ),
    "alignment": Workload(
        name="alignment",
        kind="paired",
        shape={"n_pairs": 24000},
        chain=(_io("display-prob"),),
    ),
}

# Shapes small enough for the self-test to run every workload in seconds.
TINY_SHAPES = {
    "links": {"n_videos": 80, "edge_density": 0.06, "presence_prob": 0.9},
    "forecast": {"n_sources": 10, "n_targets": 20},
    "alignment": {"n_pairs": 2500},
}


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path; {} if it is missing."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# input generation (runs in the setup child)


def make_inputs(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Build and write the workload's inputs; returns the planted truth.

    Module attributes are looked up at call time so a tracer's wrappers apply.
    """
    from aflow import data_model, datagen

    if workload.kind == "paired":
        net = datagen.generate_paired_lists(kernel(), int(workload.shape["n_pairs"]), seed=seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "snapshots.csv").write_text(data_model.serialize_snapshots(net), encoding="utf-8")
        return {"kernel": kernel(), "pairs_per_rank": int(workload.shape["n_pairs"]) // KERNEL_ROWS}

    shape = dict(workload.shape)
    if "n_sources" in shape:
        # Structured layout as in acceptance criteria 4/5: targets have base level 0,
        # so their views come from the planted in-edges and the lag profile only.
        # Keep sources at no fewer than 3/4 of the targets: a source then feeds
        # about 5 targets, and almost never more than the rank cutoff of 15, past
        # which a planted edge never enters a daily graph.
        n_sources, n_targets = shape.pop("n_sources"), shape.pop("n_targets")
        config = datagen.GenConfig(
            n_videos=n_sources + n_targets, n_sources=n_sources, in_edges_per_target=4,
            base_levels=(1200.0,) * n_sources + (0.0,) * n_targets, seasonal_amplitude=0.25,
            noise_scale=10.0, presence_prob=1.0, alpha_profile=(0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3),
            seed=seed,
        )
    else:
        config = datagen.GenConfig(seed=seed, **shape)
    dataset, truth = datagen.generate(config)
    datagen.export_dataset(dataset, out_dir)
    return {"edges": [[s, d, b] for (s, d), b in sorted(truth.beta.items())]}


# ---------------------------------------------------------------------------
# output checks (run in the benchmark process)


def _persistent_pairs(path: Path) -> set[tuple[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    return {(r[0], r[1]) for r in rows}


def _overall_smape(path: Path) -> float:
    return float(json.loads(path.read_text(encoding="utf-8"))["overall_smape"])


class Checks:
    """Named pass/fail checks on one chain's artifacts, plus the error against the truth."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []
        self.truth_err = 0.0
        self.extra: dict[str, float] = {}

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.results.append((name, bool(ok), detail))

    def check(self, name: str, fn) -> None:
        """Record ``fn()``'s (ok, detail); an unreadable artifact fails the check."""
        try:
            ok, detail = fn()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.add(name, ok, detail)


def _planted_subset(checks: Checks, edges_path: Path, planted: dict) -> set[tuple[str, str]]:
    """Check that every persistent pair is planted; returns the planted pairs found."""
    try:
        pairs = _persistent_pairs(edges_path)
    except (OSError, IndexError) as exc:
        checks.add("persistent_pairs_planted", False, f"{type(exc).__name__}: {exc}")
        return set()
    extra = pairs - planted.keys()
    checks.add("persistent_pairs_planted", not extra, f"{len(extra)} persistent pairs not planted")
    return pairs & planted.keys()


def _mean_views(path: Path) -> dict[str, float]:
    totals: dict[str, list[float]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for vid, _, views in list(csv.reader(handle))[1:]:
            acc = totals.setdefault(vid, [0.0, 0])
            acc[0] += float(views)
            acc[1] += 1
    return {vid: total / n for vid, (total, n) in totals.items()}


def _check_links(checks: Checks, data: Path, chain_dir: Path, truth: dict) -> None:
    planted = {(s, d): b for s, d, b in truth["edges"]}
    found = _planted_subset(checks, chain_dir / "persistent" / "persistent_edges.csv", planted)
    # Planted links that pass the CLI's default view filters (target mean >= 100,
    # source mean >= 1% of the target's), so the error measures presence
    # smoothing alone and not how heavy the seed's view cascades happen to be.
    means = _mean_views(data / "views.csv")
    eligible = {(s, d) for s, d in planted if means[d] >= 100.0 and means[s] >= 0.01 * means[d]}
    checks.truth_err = 1.0 - len(found & eligible) / len(eligible)


def _check_forecast(checks: Checks, data: Path, chain_dir: Path, truth: dict) -> None:
    planted = {(s, d): b for s, d, b in truth["edges"]}
    out = chain_dir / "pipeline"
    _planted_subset(checks, out / "persistent_edges.csv", planted)

    def arnet_beats_ar():
        arnet = _overall_smape(out / "arnet" / "eval_summary.json")
        ar = _overall_smape(out / "ar" / "eval_summary.json")
        checks.extra["arnet_smape"] = arnet
        return arnet < ar, f"arnet {arnet:.4f} vs ar {ar:.4f}"

    def eta_bounded():
        with open(out / "arnet" / "eta.csv", newline="", encoding="utf-8") as handle:
            etas = [float(r[1]) for r in list(csv.reader(handle))[1:]]
        bad = [e for e in etas if not 0.0 <= e <= 1.0]
        return bool(etas) and not bad, f"{len(bad)} of {len(etas)} etas outside [0, 1]"

    checks.check("arnet_beats_ar", arnet_beats_ar)
    checks.check("eta_in_unit_interval", eta_bounded)
    try:
        fitted = json.loads((out / "arnet" / "models.json").read_text(encoding="utf-8"))["videos"]
    except (OSError, ValueError, KeyError):
        fitted = {}
    # A planted edge without a fitted beta counts as beta 0, as in criterion 4.
    errs = [abs(fitted.get(d, {}).get("beta", {}).get(s, 0.0) - b) for (s, d), b in planted.items()]
    checks.truth_err = sum(errs) / len(errs)


def _check_alignment(checks: Checks, data: Path, chain_dir: Path, truth: dict) -> None:
    path = chain_dir / "display-prob" / "display_prob.csv"
    planted = truth["kernel"]
    n = truth["pairs_per_rank"]
    probs = [[0.0] * len(row) for row in planted]
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            for rank, col, prob in list(csv.reader(handle))[1:]:
                probs[int(rank) - 1][("1", "2-5", "6-10", "11-15").index(col)] = float(prob)
    except (OSError, ValueError, IndexError) as exc:
        checks.add("display_prob_readable", False, f"{type(exc).__name__}: {exc}")

    def denominators():
        # The artifact holds probabilities only; each must be a count over
        # exactly pairs_per_rank observations.
        bad = [(r + 1, p) for r, row in enumerate(probs) for p in row
               if abs(p * n - round(p * n)) > 1e-6] + \
              [(r + 1, sum(row)) for r, row in enumerate(probs) if sum(row) > 1.0 + 1e-12]
        return not bad, f"{len(bad)} cells not a count over {n} pairs per rank"

    def z_bound():
        worst = max(abs(p - k) / math.sqrt(k * (1.0 - k) / n)
                    for prow, krow in zip(probs, planted) for p, k in zip(prow, krow))
        return worst <= Z_BOUND, f"worst |z| {worst:.2f} (bound {Z_BOUND})"

    checks.check("display_denominators", denominators)
    checks.check("display_within_z_bound", z_bound)
    cells = [abs(p - k) for prow, krow in zip(probs, planted) for p, k in zip(prow, krow)]
    checks.truth_err = sum(cells) / len(cells)


CHECKERS = {"links": _check_links, "forecast": _check_forecast, "alignment": _check_alignment}


def check_outputs(workload: Workload, data: Path, chain_dir: Path, truth: dict) -> Checks:
    checks = Checks()
    CHECKERS[workload.name](checks, data, chain_dir, truth)
    return checks
