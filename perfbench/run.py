"""Benchmark aflow end to end: input CSVs to artifacts, through the CLI as a user runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload links --seed 1 --seconds 20 --trace 0

One run builds the workload's inputs from ``--seed`` with ``aflow.datagen``
(several times, for ``setup_s``), then runs the workload's chain of ``aflow``
commands, each a fresh ``python -m aflow.cli`` process, one chain at a time
until ``--seconds`` are used (at least two chains).  Every artifact is hashed
and checked against the planted ground truth; a failed command or check counts
as a failed operation and never stops the run.

``--trace 0`` prints the ``end_to_end`` metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced chains and prints the
``per_layer`` metrics: the traced chain runs each command under
``child.py cli``, which wraps aflow's layer functions from outside the package.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(versions, BLAS environment, load, input hashes) is written under
``.perfbench/records/``.  Without ``src/aflow`` in the working directory the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
MIN_CHAINS = 2
# Stop starting chains after RUN_BUDGET_S; kill any child still running at
# RUN_DEADLINE_S after the run began, so a run always ends inside 180 s.
RUN_BUDGET_S = 120.0
RUN_DEADLINE_S = 165.0
# Confirm a claimed gain on this seed too: it is never used while tuning a change.
CONFIRM_SEED = 1729
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")


class FatalError(Exception):
    """The benchmark cannot produce a result at all (no program, no inputs)."""


class Ledger:
    """Operations attempted and failed: each CLI command and each output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def _left(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def spawn(argv: list[str], env: dict, log: Path, deadline: float) -> tuple[int, float]:
    """Run one child to completion; returns its exit code and ru_maxrss in MB."""
    with open(log, "wb") as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(_left(deadline), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1][:300] if lines else "no output"


def run_chain(workload: workloads.Workload, data: Path, chain_dir: Path, env: dict,
              ledger: Ledger, deadline: float, run_id: str | None = None) -> dict:
    """Run the workload's commands in order; traced under child.py when ``run_id`` is set."""
    chain_dir.mkdir(parents=True)
    commands, rss, names = [], [], []
    start = time.perf_counter()
    for name, argv in workload.commands(data, chain_dir):
        names.append(name)
        log = chain_dir / f"{name}.stderr"
        if run_id is None:
            full = [sys.executable, "-m", "aflow.cli", *argv]
        else:
            trace_file = chain_dir / f"{name}.spans.json"
            full = [sys.executable, str(HERE / "child.py"), "cli", "--spans", str(trace_file),
                    "--run-id", run_id, "--", *argv]
        code, rss_mb = spawn(full, env, log, deadline)
        ledger.record(f"command.{name}", code == 0, f"exit {code}: {_tail(log)}")
        rss.append(rss_mb)
        if run_id is not None and trace_file.is_file():
            record = json.loads(trace_file.read_text(encoding="utf-8"))
            record["rss_mb"] = rss_mb
            commands.append(record)
    wall = time.perf_counter() - start
    digests = {name: workloads.tree_digest(chain_dir / name) for name in names}
    return {"wall": wall, "peak_rss_mb": max(rss), "digests": digests, "commands": commands}


def check_chain(workload: workloads.Workload, data: Path, chain_dir: Path, truth: dict,
                ledger: Ledger, chain: dict, reference: dict | None) -> workloads.Checks:
    checks = workloads.check_outputs(workload, data, chain_dir, truth)
    for name, ok, detail in checks.results:
        ledger.record(f"check.{name}", ok, detail)
    if reference is not None:
        for name, digest in chain["digests"].items():
            same = digest == reference["digests"][name]
            ledger.record(f"deterministic.{name}", same, "artifact digests differ between chains")
    return checks


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def git_state(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True,
                                timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def run_setup(workload: workloads.Workload, seed: int, root: Path, work: Path, env: dict,
              reps: int, traced: bool, deadline: float) -> dict:
    fields = {"name": workload.name, "kind": workload.kind, "shape": workload.shape,
              "chain": workload.chain}
    argv = [sys.executable, str(HERE / "child.py"), "setup", "--workload", json.dumps(fields),
            "--seed", str(seed), "--out", str(work / "data"), "--truth", str(work / "truth.json"),
            "--reps", str(reps)]
    if traced:
        argv += ["--spans", str(work / "setup.spans.json"), "--run-id", f"{workload.name}:{seed}:setup"]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=_left(deadline))
    except subprocess.TimeoutExpired:
        raise FatalError("input generation timed out") from None
    if proc.returncode != 0:
        raise FatalError(f"input generation failed: {proc.stderr.strip()[-500:]}")
    setup = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(setup["aflow_file"]).resolve().is_relative_to((root / "src").resolve()):
        raise FatalError(f"aflow imported from {setup['aflow_file']}, not from this checkout")
    setup["truth"] = json.loads((work / "truth.json").read_text(encoding="utf-8"))
    setup["spans"] = (json.loads((work / "setup.spans.json").read_text(encoding="utf-8"))
                      if traced else [])
    return setup


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


def measure(workload: workloads.Workload, seed: int, seconds: int, trace: bool,
            root: Path) -> tuple[dict, list[str], dict]:
    """One benchmark run; returns the result object, report lines and the run record."""
    work = root / ".perfbench" / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload: workloads.Workload, seed: int, seconds: int, trace: bool,
             root: Path, work: Path) -> tuple[dict, list[str], dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env(root)
    ledger = Ledger()
    record = {
        "workload": workload.name, "shape": workload.shape, "seed": seed,
        "confirm_seed": CONFIRM_SEED, "trace": int(trace), "seconds": seconds,
        "git": git_state(root), "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    setup = run_setup(workload, seed, root, work, env, 1 if trace else SETUP_REPS, trace,
                      deadline)
    truth = setup["truth"]
    record["versions"] = setup["versions"]
    record["inputs_sha256"] = setup["digests"][0]
    inputs_digest = hashlib.sha256(json.dumps(setup["digests"][0], sort_keys=True).encode()).hexdigest()
    record["inputs_digest"] = inputs_digest
    if len(setup["digests"]) > 1:
        same = all(d == setup["digests"][0] for d in setup["digests"])
        ledger.record("check.inputs_identical", same, "one seed built different inputs")

    data = work / "data"
    untraced, traced, checks = [], [], []
    reference = None
    began = time.perf_counter()
    while True:
        index = len(untraced)
        chain_dir = work / f"chain{index}"
        chain = run_chain(workload, data, chain_dir, env, ledger, deadline)
        checks.append(check_chain(workload, data, chain_dir, truth, ledger, chain, reference))
        reference = reference or chain
        untraced.append(chain)
        shutil.rmtree(chain_dir)
        if trace:
            chain_dir = work / f"traced{index}"
            run_id = f"{workload.name}:{seed}:traced{index}"
            chain = run_chain(workload, data, chain_dir, env, ledger, deadline, run_id)
            checks.append(check_chain(workload, data, chain_dir, truth, ledger, chain, reference))
            traced.append(chain)
            shutil.rmtree(chain_dir)
        elapsed = time.perf_counter() - began
        per_chain = elapsed / len(untraced)
        enough = len(untraced) >= (1 if trace else MIN_CHAINS)
        if enough and (elapsed + per_chain > seconds or elapsed > RUN_BUDGET_S):
            break

    walls = [c["wall"] for c in untraced]
    rss = [c["peak_rss_mb"] for c in untraced]
    arnet_smape = checks[0].extra.get("arnet_smape")
    if trace:
        layer_runs = [spans.layer_metrics(setup["spans"], c["commands"]) for c in traced]
        metrics = {k: statistics.median(m[k] for m in layer_runs) for k in layer_runs[0]}
        traced_wall = statistics.median(c["wall"] for c in traced)
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = statistics.median(walls)
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        metrics["forecast.arnet_smape"] = arnet_smape if arnet_smape is not None else 0.0
        if workload.kind == "paired":
            dens = [d for c in traced for cmd in c["commands"] for s in cmd["spans"]
                    if s["name"] == "list_alignment.display_probability_matrix"
                    for d in s["denominators"]]
            exact = bool(dens) and all(d == truth["pairs_per_rank"] for d in dens)
            ledger.record("check.display_denominators_exact", exact,
                          f"denominators are not all {truth['pairs_per_rank']}")
        wanted = spec["per_layer"]
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup["seconds"]),
            "truth_err": checks[0].truth_err,
        }
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise FatalError(f"metrics {sorted(set(metrics) ^ {m['name'] for m in wanted})} "
                         "do not match BENCHMARK.json")

    failed = len(ledger.failures)
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    lines = [f"workload {workload.name} seed {seed} trace {int(trace)}: {len(untraced)} chains "
             f"of {len(workload.chain)} commands, closed loop, one chain at a time",
             f"inputs sha256 {inputs_digest}"]
    if not trace:
        lines += [
            f"wall_s {metrics['wall_s']:.4f} s (median; {_quartiles(walls)})",
            f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (median; {_quartiles(rss)})",
            f"setup_s {metrics['setup_s']:.4f} s (median; {_quartiles(setup['seconds'])})",
            f"truth_err {metrics['truth_err']:.6f} ratio",
        ]
        if arnet_smape is not None:
            lines += [f"arnet_smape {arnet_smape:.6f} %", f"beta_mae {checks[0].truth_err:.6f} -"]
    else:
        lines += [f"{name} {metrics[name]:.6g} {unit}"
                  for name, unit in ((m["name"], m["unit"]) for m in wanted)]
    lines.append(f"failed_frac {failed / ledger.attempted:.6f} ratio ({failed} of "
                 f"{ledger.attempted} operations)")
    lines += [f"FAILED {f}" for f in ledger.failures]
    record.update(loadavg_end=os.getloadavg(), walls=walls, peak_rss_mb=rss,
                  setup_s=setup["seconds"], result=result, failures=ledger.failures)
    return result, lines, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "aflow" / "cli.py").is_file():
        print("perfbench: no src/aflow here; run from the root of an aflow checkout",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    try:
        result, lines, record = measure(workload, args.seed, args.seconds, bool(args.trace), root)
    except FatalError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    records = root / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"run record {path.relative_to(root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
