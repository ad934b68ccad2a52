#!/usr/bin/env python3
"""Run every workload of ``BENCHMARK.json`` N times and write
``BENCH_<label>.json``.

    python scripts/bench.py --label LABEL [--runs 10]

Run from the repository root. Each run is one untraced benchmark process
(``perfbench/run.py --trace 0``) of the benchmark's ``run_seconds``. The
runs go in rounds, every workload once per round, and the seed alternates
between 1 and 2 from round to round. Per workload and end-to-end metric
the file holds the median and the quartiles; per run, its seed,
``correct``, ``attempted``, ``failed`` and metric values, or the error of
a run that gave no result. It also records the git revision, whether the
working tree differs from it, and the git tree ids of ``src`` and
``perfbench`` as measured, uncommitted changes to tracked files included
(compare them with ``git rev-parse COMMIT:src``), and the path of the
repository root and its length in characters. Last come the CPU count,
the Python and numpy versions, and the lines that
``scripts/output_hash.py`` prints. Two such files, written on the same
machine before and after a change, compare the change's speed and show
whether its outputs moved.

``peak_rss_mb`` moves by a few 128 KB steps with the directory a run
starts from, so the two sides of a comparison must run from repository
roots whose paths have the same length, such as two sibling clones.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()


def _source_trees() -> dict[str, str]:
    """Tree id of each directory the benchmark runs, in the working tree."""
    measured = _git("stash", "create") or "HEAD"
    return {d: _git("rev-parse", f"{measured}:{d}") for d in ("src", "perfbench")}


def _run(command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process; its result line, or the error it gave."""
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"seed": seed, "error": f"exit {done.returncode}: "
                f"{done.stderr.strip()[-500:]}"}
    return {"seed": seed, **{k: result[k] for k in
                             ("correct", "attempted", "failed")},
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def _summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[dict]] = {name: [] for name in workloads}
    for k in range(args.runs):
        for name in workloads:
            run = _run(spec["command"], name, SEEDS[k % len(SEEDS)], seconds)
            runs[name].append(run)
            print(name, json.dumps(run), flush=True)

    hashes = subprocess.run(
        [sys.executable, "scripts/output_hash.py"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout.splitlines()
    report = {
        "label": args.label,
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "source_trees": _source_trees(),
        "root": str(ROOT),
        "root_length": len(str(ROOT)),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "runs_per_workload": args.runs,
        "seconds_per_run": seconds,
        "seeds": list(SEEDS),
        "output_hash": hashes,
        "workloads": {
            name: {
                "metrics": {
                    m["name"]: {"unit": m["unit"], "better": m["better"],
                                **_summary([r["metrics"][m["name"]]
                                            for r in runs[name]
                                            if "metrics" in r])}
                    for m in spec["end_to_end"]
                    if any("metrics" in r for r in runs[name])
                },
                "runs": runs[name],
            }
            for name in workloads
        },
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
