"""Child processes of the benchmark.

``setup``: build a workload's inputs with ``aflow.datagen`` ``--reps`` times
from one seed, timing each build, and print one JSON line with the times, the
sha256 of every input file per build, and the interpreter and library versions.
Build 0 goes to ``--out``; later builds go next to it and are removed after
hashing.  With ``--spans`` the datagen layer is traced as well.

``cli``: time ``import aflow.cli`` in this fresh interpreter, wrap the layer
functions (see ``spans.install_cli``), run ``aflow.cli.main`` with the
remaining argv, write the spans to ``--spans`` and exit with main's code.

Both expect ``src`` of the checkout on ``PYTHONPATH``; the benchmark sets it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import spans
import workloads


def _blas_name(np) -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):
        return "unknown"


def setup(args: argparse.Namespace) -> int:
    workload = workloads.Workload(**json.loads(args.workload))
    tracer = spans.Tracer(args.run_id) if args.spans else None
    if tracer:
        spans.install_datagen(tracer)
    out = Path(args.out)
    seconds, digests = [], []
    truth = None
    for rep in range(args.reps):
        target = out if rep == 0 else out.with_name(f"{out.name}.rep{rep}")
        start = time.perf_counter()
        truth = workloads.make_inputs(workload, args.seed, target)
        seconds.append(time.perf_counter() - start)
        digests.append(workloads.tree_digest(target))
        if rep:
            shutil.rmtree(target)
    Path(args.truth).write_text(json.dumps(truth), encoding="utf-8")
    if tracer:
        Path(args.spans).write_text(json.dumps(tracer.spans), encoding="utf-8")

    import aflow
    import numpy as np
    import scipy

    print(json.dumps({
        "seconds": seconds,
        "digests": digests,
        "aflow_file": aflow.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas": _blas_name(np)},
    }))
    return 0


def cli(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    import aflow.cli
    import_s = time.perf_counter() - start

    tracer = spans.Tracer(args.run_id)
    spans.install_cli(tracer)
    try:
        code = tracer.call("cli.main", aflow.cli.main, (args.argv,), {})
    finally:
        record = {"command": args.argv[0], "import_s": import_s, "spans": tracer.spans}
        Path(args.spans).write_text(json.dumps(record), encoding="utf-8")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, help="Workload fields as JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--spans")
    p.add_argument("--run-id", default="setup")
    p.set_defaults(handler=setup)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(handler=cli)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
