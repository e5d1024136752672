"""Record the expected output of every op in every workload's input pool.

Run from the repository root at the commit whose results are the reference:

    python3 perfbench/make_reference.py

It writes perfbench/reference.json, which run.py checks every op against.
The full-size pools take about four minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import quadsig  # noqa: E402
import workloads as wl  # noqa: E402

NAMES = ("sim_basic", "sim_shape_gain", "cover", "exponent")


def wilson_low(hits: int, trials: int) -> float:
    """Lower end of the 95% Wilson interval of hits / trials."""
    z = 1.959963984540054
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half)


def record(workload) -> dict:
    for rep in range(wl.SETUP_REPS):
        workload.setup(rep, None, "reference")
    out = {}
    for item in workload.items():
        res = workload.run(item, None, "reference")
        if workload.name == "cover":
            samples = wl.VERIFY_SAMPLES
            res["coverage_ci_low"] = wilson_low(round(res["coverage"] * samples), samples)
        out[workload.key(item)] = res
        print(workload.sizes.name, workload.name, workload.key(item), res, flush=True)
    return out


def main() -> None:
    scratch = HERE / "results"
    scratch.mkdir(exist_ok=True)
    reference = {
        "quadsig_version": quadsig.__version__,
        "numpy_version": np.__version__,
    }
    for sizes in (wl.SMOKE, wl.FULL):
        reference[sizes.name] = {
            name: record(wl.make(name, sizes, None, scratch / "reference-cover.json"))
            for name in NAMES
        }
    (scratch / "reference-cover.json").unlink(missing_ok=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
