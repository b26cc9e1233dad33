"""Self-test of the benchmark: every workload at a tiny shape, in seconds.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Asserts that each workload's result names every metric of BENCHMARK.json with
its unit and passes its checks, and that a deliberately failing command (a
missing ``--data`` directory) is counted as a failed operation without
stopping the run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import run
import workloads


def _run(workload: workloads.Workload, trace: bool, root: Path) -> dict:
    result, lines, _ = run.measure(workload, seed=11, seconds=1, trace=trace, root=root)
    print("\n".join(lines))
    return result


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name, shape in workloads.TINY_SHAPES.items():
        tiny = dataclasses.replace(workloads.WORKLOADS[name], shape=shape)
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = _run(tiny, trace, root)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in wanted}, (name, trace)
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert result["attempted"] >= len(tiny.chain) + 1

    tiny = dataclasses.replace(workloads.WORKLOADS["links"], shape=workloads.TINY_SHAPES["links"])
    broken = ("validate", "--data", "{data}/missing")
    result = _run(dataclasses.replace(tiny, chain=tiny.chain + (broken,)), False, root)
    # Two chains, each with one failing command and one digest comparison that still matches.
    assert not result["correct"] and result["failed"] == 2, result
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
