#!/usr/bin/env python3
"""Quick self-check of the benchmark: every workload at a tiny size.

    python3 perfbench/selfcheck.py

Runs each workload in ``BENCHMARK.json`` untraced and traced with tiny
inputs and every correctness check on, and checks that the result line
has the agreed shape: ``correct`` true, no failed operations, and exactly
the metrics ``BENCHMARK.json`` lists, with their units. The exact counts
must repeat across two traced runs with different seeds. It also checks
that the benchmark refuses to run, without a result, in a copy that
holds only ``BENCHMARK.json`` and the benchmark's own files. Exits 1 on
the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Counts the program makes, which must repeat exactly from run to run.
EXACT_COUNTS = ("molgraph.parse_smiles.calls_per_distinct_smiles",
                "policysim.action_logp.calls_per_sample")


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selfcheck failed: {message}")


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(workload: str, trace: int, seed: int) -> dict:
    done = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--tiny"], ROOT)
    where = f"{workload} --trace {trace} --seed {seed}"
    expect(done.returncode == 0,
           f"{where}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{where}: keys {sorted(result)}")
    expect(result["correct"] is True, f"{where}: {done.stderr}")
    expect(result["failed"] == 0 and result["attempted"] >= 1,
           f"{where}: {result['failed']} of {result['attempted']} failed")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == units, f"{where}: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(got.items()) ^ set(units.items()))}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        expect(isinstance(value, (int, float)) and (trace or value > 0),
               f"{where}: {name}={value}")
    print(f"ok {where}: {result['attempted']} operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_refuses_without_source() -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(["--workload", SPEC["workloads"][0]["name"], "--seed",
                    "0", "--seconds", "1", "--trace", "0"], bare)
        expect(done.returncode != 0, "ran without the package source")
        expect('"metrics"' not in done.stdout, "printed a result")
        print("ok refuses to run without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_refuses_without_source()
    for workload in SPEC["workloads"]:
        check_result(workload["name"], 0, 0)
        first = check_result(workload["name"], 1, 0)
        again = check_result(workload["name"], 1, 1)
        for name in EXACT_COUNTS:
            expect(first[name] == again[name],
                   f"{workload['name']}: {name} {first[name]} then "
                   f"{again[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
