#!/usr/bin/env python3
"""Benchmark of the attrilens reward stack through its CLI.

    python3 perfbench/run.py --workload score-distinct --seed 1 \\
        --seconds 15 --trace 0

Run from the repository root. One process runs one workload: it generates
the inputs from ``--seed`` (from ``src/attrilens/data`` only), then runs
rounds of the workload's CLI commands until ``--seconds`` of them are
measured. The first round's outputs are checked in full and every later
round's outputs must hash the same. Times are reported in seconds at the
reference speed (see ``calibration.py``). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from in-memory spans with ``--trace 1``. Without
``src/attrilens`` beside it, it exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibration import calibrate, scaled
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
# Package import, range-table load, and the first-call loads of the
# descriptor registry and the Crippen/TPSA tables, through public names;
# prints the seconds and the calibrations around them.
SETUP_PROBE = """
import time
from calibration import calibrate
before = calibrate()
start = time.perf_counter()
from attrilens import cli, descriptors, molgraph, rewards
rewards.load_range_table("gpt4o-default")
mol = molgraph.parse_smiles("CCO")
for name in ("MolLogP", "TPSA"):
    descriptors.compute(mol, name)
descriptors.resolve_attribute("logp")
seconds = time.perf_counter() - start
print(seconds, before, calibrate())
"""

E2E_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


def measure_setup(env: dict) -> float:
    """Median scaled setup time over fresh interpreters, each waited for."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, before, after = map(
            float, done.stdout.strip().splitlines()[-1].split())
        samples.append(scaled(seconds, before, after))
    return statistics.median(samples)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_round(cli, workload):
    """Run one round's commands.

    Returns seconds, seconds at the reference speed, and exit code per
    command; calibrations run before the first command and after each.
    """
    times, ref, codes = {}, {}, {}
    before = calibrate()
    for label, argv in workload.commands():
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code if isinstance(exc.code, int) else 2
            times[label] = time.perf_counter() - start
        after = calibrate()
        ref[label] = scaled(times[label], before, after)
        before = after
        codes[label] = code
    return times, ref, codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-check")
    args = parser.parse_args(argv)

    if not (SRC / "attrilens" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'attrilens'}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    if not args.trace:
        setup_s = measure_setup(dict(
            os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)])))

    sys.path.insert(0, str(SRC))
    import attrilens
    from attrilens import cli

    if Path(attrilens.__file__).resolve().parent != SRC / "attrilens":
        print(f"error: imported attrilens from {attrilens.__file__}",
              file=sys.stderr)
        return 2
    import spans

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-",
                                 dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.tiny)
        stats = getattr(workload, "corpus", None)
        if stats is not None:
            print("corpus:", json.dumps(stats.stats, sort_keys=True))

        tracer = spans.Tracer()
        if args.trace:
            tracer.install()
        errors: list[str] = []
        attempted = failed = 0

        def account(codes):
            nonlocal attempted, failed
            attempted += len(codes)
            failed += sum(code != 0 for code in codes.values())
            return {label for label, code in codes.items() if code == 0}

        # lazy loads finish before timing; the first timed round is then
        # checked in full and every later round must hash the same
        with contextlib.redirect_stdout(io.StringIO()):
            exec(SETUP_PROBE, {})
        info0 = tracer.resolve_cache() if args.trace else None
        round_times: list[float] = []
        round_ref: list[float] = []
        per_cmd: dict[str, list[float]] = {}
        digests: dict[Path, str] = {}
        while sum(round_times) < args.seconds:
            tracer.start_round()
            tracer.enabled = bool(args.trace)
            times, ref, codes = run_round(cli, workload)
            tracer.enabled = False
            ok = account(codes)
            round_times.append(sum(times.values()))
            round_ref.append(sum(ref.values()))
            for label, seconds in times.items():
                per_cmd.setdefault(label, []).append(seconds)
            if not digests:
                workload.check(ok, errors)
                digests = {p: sha256(p) for p in workload.outputs()
                           if p.exists()}
                for path, digest in digests.items():
                    print(f"sha256 {path.relative_to(work)} {digest}")
                continue
            for path, digest in digests.items():
                if sha256(path) != digest:
                    errors.append(f"{path.name} changed between rounds")
        tracer.uninstall()

        if args.trace:
            info1 = tracer.resolve_cache()
            values = tracer.metrics(
                len(round_times), workload.records_per_round, round_ref,
                (info0.hits, info0.misses, info1.hits, info1.misses))
            units = dict(spans.LAYER_METRICS)
        else:
            medians = {k: statistics.median(v) for k, v in per_cmd.items()}
            figures = workload.figures(medians)
            print("figures:", json.dumps(figures, sort_keys=True))
            values = {
                "setup_s": setup_s,
                "round_s": statistics.median(round_ref),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = E2E_UNITS
        print(f"rounds (wall s, scaled s): {len(round_times)}:",
              " ".join(f"{t:.3f},{c:.3f}"
                       for t, c in zip(round_times, round_ref)))
        for err in errors[:20]:
            print("check failed:", err, file=sys.stderr)
        result = {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
