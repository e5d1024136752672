"""quadsig benchmark: closed-loop workloads with checked results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    for w in sim_basic sim_shape_gain cover exponent; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

Run from the repository root; quadsig is imported from src/.  Workloads:
sim_basic, sim_shape_gain, cover and exponent (see workloads.py for why each
is here).  One client issues one op at a time for S seconds; every op's
result is checked against reference.json and a failed check, or an op that
raises, counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
each op both untraced and traced, with a span around every public call, and
reports the per-layer metrics; layers the workload does not call are covered
by one probe op each.  trace.overhead_frac is the traced ops' time over the
untraced ops' time, minus one, so noise can make it slightly negative.  The
last stdout line is the JSON result; the full record (run settings, tail
percentile, spans) goes to perfbench/results/.

Thread policy: QUADSIG_THREADS and OPENBLAS_NUM_THREADS are cleared, so the
library's defaults apply; --single-thread sets both to 1 instead.  --smoke
selects the reduced sizes the self-test uses.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
THREAD_VARS = ("QUADSIG_THREADS", "OPENBLAS_NUM_THREADS")
WORKLOADS = ("sim_basic", "sim_shape_gain", "cover", "exponent")


def parse_args(argv):
    p = argparse.ArgumentParser(description="quadsig benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes (self-test)")
    p.add_argument("--single-thread", action="store_true",
                   help="set QUADSIG_THREADS and OPENBLAS_NUM_THREADS to 1")
    return p.parse_args(argv)


class Tally:
    """Op outcomes and untraced/traced op durations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times: list[float] = []
        self.traced_times: list[float] = []

    def checked(self, workload, item, tracer, op, **kw):
        """Run one op; return its result, or None when it raised or failed
        its reference check."""
        self.attempted += 1
        try:
            result = workload.run(item, tracer, op, **kw)
            ok = workload.check(item, result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result, ok = None, False
        if not ok:
            self.failed += 1
            print(f"failed op {op} {workload.name} {item}: {result}", file=sys.stderr)
            return None
        return result


def import_seconds() -> float:
    """Time to import quadsig in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import quadsig; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


def measure_setup(workload, tracer, reps) -> float:
    """Median over `reps` set-ups of library import plus workload set-up."""
    times = []
    for rep in range(reps):
        imp = import_seconds()
        t = time.perf_counter()
        workload.setup(rep, tracer, f"setup-{rep}")
        times.append(imp + time.perf_counter() - t)
    return statistics.median(times)


def run_loop(workload, seed, seconds, tracer, tally) -> float:
    """Closed loop over the seed-ordered pool; returns elapsed seconds.  When
    traced, each op runs both untraced and traced, alternating which goes
    first, and the two results must agree exactly."""
    order = workload.order(seed)
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        item = order[i % len(order)]
        sides = (False,) if tracer is None else ((False, True), (True, False))[i % 2]
        results = {}
        for traced in sides:
            t = time.perf_counter()
            results[traced] = tally.checked(workload, item, tracer if traced else None, f"op-{i}")
            (tally.traced_times if traced else tally.times).append(time.perf_counter() - t)
        plain, replay = results[False], results.get(True)
        if plain is not None and replay is not None and not workload.same(plain, replay):
            tally.failed += 1
            print(f"replay mismatch op-{i}: {plain} vs {replay}", file=sys.stderr)
        i += 1
    return time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with
    at least 10 samples beyond it; the maximum when there are 10 or fewer."""
    s = sorted(times)
    k = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def end_to_end(setup_s, elapsed, tally) -> tuple[dict, dict]:
    value, pct, beyond = tail(tally.times)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(tally.times) / elapsed,
        "op_s_p50": statistics.median(tally.times),
        "op_s_tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "op_samples": len(tally.times),
        "op_s_tail_percentile": pct,
        "op_s_tail_samples_beyond": beyond,
        "failed_ops_frac": tally.failed / tally.attempted,
    }
    return metrics, extra


def layer_metrics(spans: dict) -> dict:
    """Per-layer metrics from span self times; only layers that ran appear.
    Simulation layers are per op, the others per call."""
    def total(name):
        return sum(t for t, _ in spans.get(name, ()))

    def count(name, key):
        return sum(c[key] for _, c in spans.get(name, ()))

    def mean(name, key=None):
        rows = spans[name]
        return sum(t if key is None else c[key] for t, c in rows) / len(rows)

    m = {}
    ops = len(spans.get("simulate.op", ()))
    if ops:
        rows = count("scheme.assign", "rows")
        erased = count("trace.count", "erased")
        amplitude = count("trace.count", "amplitude_erased")
        live = count("scheme.query", "live")
        flops = sum(2.0 * c["rows"] * c["centers"] * c["n"] for _, c in spans["scheme.assign"])
        m.update({
            "scheme.assign_s": total("scheme.assign") / ops,
            "scheme.assign_rows": rows / ops,
            "scheme.assign_gflops": flops / total("scheme.assign") / 1e9,
            "scheme.assign_amplitude_erased_frac": amplitude / rows,
            "scheme.assign_gap_erased_frac": (erased - amplitude) / rows,
            "scheme.assign_useful_frac": (rows - erased) / rows,
            "scheme.query_s": total("scheme.query") / ops,
            "scheme.query_live_rows": live / ops,
            "scheme.query_no_frac": count("scheme.query", "no") / live if live else 0.0,
            "simulate.draw_s": total("simulate.draw") / ops,
            "simulate.draw_rows": count("simulate.draw", "rows") / ops,
            "simulate.other_s": total("simulate.op") / ops,
        })
    if "covering.build" in spans:
        m["covering.build_s"] = mean("covering.build")
        m["covering.build_centers"] = mean("covering.build", "centers")
        m["covering.build_centers_over_min"] = sum(
            c["centers"] / c["min_centers"] for _, c in spans["covering.build"]
        ) / len(spans["covering.build"])
    if "covering.verify" in spans:
        flops = sum(2.0 * c["samples"] * c["centers"] * c["n"] for _, c in spans["covering.verify"])
        m["covering.verify_s"] = mean("covering.verify")
        m["covering.verify_gflops"] = flops / total("covering.verify") / 1e9
        m["covering.verify_coverage"] = mean("covering.verify", "coverage")
    if "covering.save" in spans:
        m["covering.save_s"] = mean("covering.save")
        m["covering.save_bytes"] = mean("covering.save", "bytes")
    for name, key in (
        ("scheme.plan", "scheme.plan_s"),
        ("analysis.id_exponent", "analysis.id_exponent_s"),
        ("analysis.id_exponent_symmetric", "analysis.id_exponent_symmetric_s"),
    ):
        if name in spans:
            m[key] = mean(name)
    return m


def probe(wl, sizes, reference, path, tracer, tally) -> None:
    """One traced call of each layer the workload's own ops did not reach,
    recorded under op ids starting with "probe"."""
    seen = {s["name"] for s in tracer.spans}
    if not {"covering.build", "simulate.op", "covering.save"} <= seen:
        sim = wl.make("sim_basic", sizes, reference, path)
        sim.setup(0, tracer, "probe-setup")
        if "simulate.op" not in seen:
            tally.checked(sim, sim.items()[0], tracer, "probe-sim")
        if "covering.save" not in seen:
            wl.save_and_verify(sim.schemes[0][1], wl.SIM_CODE_SEEDS[0], path, tracer,
                               "probe-cover")
    exp = wl.make("exponent", sizes, reference, path)
    exp.setup(0, None, "probe-setup")
    for item in exp.items():
        if "analysis.id_exponent" not in seen:
            tally.checked(exp, item, tracer, "probe-exponent")
        if wl.EXPONENT_GRID[item][0] == 1.0:
            tally.checked(exp, item, tracer, "probe-exponent", symmetric=True)


def gemm_gflops(size: int, reps: int = 8) -> float:
    """Best float64 square GEMM rate of `reps` tries: the machine roofline."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size))
    b = rng.standard_normal((size, size))
    best = float("inf")
    for _ in range(reps):
        t = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t)
    return 2.0 * size**3 / best / 1e9


def single_thread_ops_per_s(args, tally) -> float:
    """sim_basic ops/s in a fresh process with both thread variables at 1."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "sim_basic",
           "--seed", str(args.seed), "--seconds", str(args.seconds / 2),
           "--trace", "0", "--single-thread"] + (["--smoke"] if args.smoke else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True,
                         cwd=ROOT)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    return result["metrics"]["ops_per_s"]["value"]


def blas_record() -> dict:
    """BLAS build and its effective thread count, read from the loaded library."""
    import ctypes
    import glob

    import numpy as np

    info = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def run_record(args) -> dict:
    import numpy as np

    import quadsig

    # The thread count the library's shard loop will use; private, so absent
    # if the library renames it.
    threads = getattr(quadsig.simulate, "_threads", None)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "single_thread": args.single_thread,
        "env": {v: os.environ.get(v) for v in (*THREAD_VARS, "OMP_NUM_THREADS")},
        "quadsig_threads": threads() if threads else None,
        "blas": blas_record(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "quadsig": quadsig.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy and quadsig read the thread variables when they load, so the
    # policy is set before either is imported.
    for var in THREAD_VARS:
        if args.single_thread:
            os.environ[var] = "1"
        else:
            os.environ.pop(var, None)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    try:
        import quadsig
    except ImportError as exc:
        print(f"cannot import quadsig from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(quadsig.__file__).resolve().parents[1] != SRC.resolve():
        print(f"quadsig was imported from {quadsig.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl
    from tracing import Tracer

    RESULTS.mkdir(exist_ok=True)
    sizes = wl.SMOKE if args.smoke else wl.FULL
    reference = json.loads((HERE / "reference.json").read_text())
    cover_path = RESULTS / f"cover-{os.getpid()}.json"
    tracer = Tracer() if args.trace else None
    workload = wl.make(args.workload, sizes, reference, cover_path)
    tally = Tally()

    setup_s = measure_setup(workload, tracer, wl.SETUP_REPS)
    elapsed = run_loop(workload, args.seed, args.seconds, tracer, tally)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        values, extra = end_to_end(setup_s, elapsed, tally)
        declared = spec["end_to_end"]
    else:
        probe(wl, sizes, reference, cover_path, tracer, tally)
        values = layer_metrics(tracer.self_times(lambda op: not op.startswith("probe")))
        for k, v in layer_metrics(tracer.self_times(lambda op: op.startswith("probe"))).items():
            values.setdefault(k, v)
        values["machine.gemm_gflops"] = gemm_gflops(sizes.gemm_size)
        values["scheme.assign_roofline_frac"] = (
            values["scheme.assign_gflops"] / values["machine.gemm_gflops"]
        )
        values["trace.overhead_frac"] = sum(tally.traced_times) / sum(tally.times) - 1.0
        values["simulate.ops_per_s_1thread"] = single_thread_ops_per_s(args, tally)
        extra = {"op_samples": len(tally.times), "spans": len(tracer.spans)}
        declared = spec["per_layer"]
        tracer.write(RESULTS / f"spans-{stem}.jsonl")
    cover_path.unlink(missing_ok=True)

    mismatch = set(values) ^ {m["name"] for m in declared}
    if mismatch:
        raise RuntimeError(f"metrics {sorted(mismatch)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {"run": run_record(args), "metrics": metrics, "extra": extra,
              "attempted": tally.attempted, "failed": tally.failed}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, v in extra.items():
        print(f"{name:40s} {v:.6g}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
