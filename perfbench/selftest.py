"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload in the reduced-size (--smoke) mode, untraced and traced,
and checks that each run emits exactly the metrics BENCHMARK.json names, with
their units.  Then feeds corrupted results through the same checks the
benchmark applies to every op and requires each to count as failed.  Exits
non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


def emitted_metrics(spec) -> None:
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
            assert out.returncode == 0, f"{cmd} exited {out.returncode}:\n{out.stderr}"
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            declared = spec["per_layer" if trace else "end_to_end"]
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, sorted(set(got) ^ set(want)))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], float) and math.isfinite(m["value"]), (name, m)
            if trace:
                assert result["metrics"]["simulate.other_s"]["value"] >= 0.0
            print(f"ok   {workload} trace={trace}: {len(got)} metrics with units")


def corrupted_results_fail(reference) -> None:
    sizes = wl.SMOKE

    def must_fail(workload, item, result, what):
        tally = run.Tally()
        workload.run = lambda *a, **k: result
        assert tally.checked(workload, item, None, "selftest") is None, what
        assert (tally.attempted, tally.failed) == (1, 1), what
        print(f"ok   {workload.name}: {what} counts as failed")

    sim = wl.make("sim_basic", sizes, reference, None)
    item = sim.items()[0]
    good = sim.expected(item)
    assert sim.check(item, good)
    must_fail(sim, item, {**good, "fn": 1}, "a fabricated false negative")
    must_fail(sim, item, {**good, "p_hat": good["ci_high"] + 1e-4}, "p_hat above its interval")
    must_fail(sim, item, {**good, "p_hat": good["ci_low"] - 1e-4}, "p_hat below its interval")

    cover = wl.make("cover", sizes, reference, None)
    item = cover.items()[0]
    good = cover.expected(item)
    assert cover.check(item, good)
    must_fail(cover, item, {**good, "centers": math.ceil(good["centers"] * 1.02)},
              "2% more centers")
    must_fail(cover, item, {**good, "coverage": good["coverage_ci_low"] - 1e-4},
              "coverage below its interval")
    must_fail(cover, item, {**good, "rate": good["limit"] + 1e-3}, "rate above its limit")

    exp = wl.make("exponent", sizes, reference, None)
    item = exp.items()[0]
    good = exp.expected(item)
    assert exp.check(item, good)
    must_fail(exp, item, {"value": good["value"] + 2 * wl.EXPONENT_TOL}, "value off by 2e-6")

    def boom(*a, **k):
        raise FloatingPointError("injected")

    tally = run.Tally()
    exp.run = boom
    assert tally.checked(exp, item, None, "selftest") is None and tally.failed == 1
    print("ok   exponent: an op that raises counts as failed")

    # A traced replay that disagrees with the untraced op is a failure even
    # when both pass their reference checks.
    exp.run = lambda it, tracer, op: {"value": good["value"] + (1e-9 if tracer else 0.0)}
    exp.order = lambda seed: [item]
    tally = run.Tally()
    run.run_loop(exp, 1, 0.0, Tracer(), tally)
    assert (tally.attempted, tally.failed) == (2, 1), (tally.attempted, tally.failed)
    print("ok   exponent: a replay mismatch counts as failed")


def tail_definition() -> None:
    times = [float(i) for i in range(30)]
    assert run.tail(times) == (19.0, 100.0 * 20 / 30, 10)
    assert run.tail(times[:11]) == (0.0, 100.0 / 11, 10)
    assert run.tail(times[:5]) == (4.0, 100.0, 0)
    print("ok   op_s_tail: highest percentile with 10 samples beyond it")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    tail_definition()
    corrupted_results_fail(reference)
    emitted_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
