"""Speed calibration for a host whose speed swings with its neighbours.

On the reference machine the time of a fixed pure-Python loop moved
between 43 and 96 ms within two minutes, with no steal time. So every
timed piece of work is bracketed by ``calibrate()``, a fixed mix of the
interpreter work the program does (JSON, sorting, dicts, formatting), and
reported in seconds at the reference speed: measured seconds times
``REFERENCE_S`` over the mean calibration time around them. The
calibration is benchmark code, so a faster program lowers the scaled
time in proportion, while a slower host moves both numbers together. The
calibration runs with the garbage collector off, after a full collection,
so the size of the heap the program leaves behind does not enter it.
"""

from __future__ import annotations

import gc
import json
import time

# Calibration time at the reference speed, about its median on the
# 2-vCPU reference machine.
REFERENCE_S = 0.020

_DOC = [{"id": i, "name": f"x{i}", "v": [i, i * 0.5, str(i)]}
        for i in range(300)]


def calibrate() -> float:
    """Seconds the fixed calibration work takes at this moment."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(12):
            rows = json.loads(json.dumps(_DOC))
            pairs = sorted((row["name"], row["v"][1]) for row in rows)
            " ".join(f"{k}:{v:.2f}" for k, v in dict(pairs).items())
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the calibrations around."""
    return seconds * REFERENCE_S / ((before + after) / 2)
