"""The benchmark's workloads, their ops and the checks on every op's result.

Every workload uses the acceptance-audit settings: GaussianPair(1, 1),
d = 0.02, rate = id_rate + 0.5, epsilon = 0.1, covering audit_samples 5000.
Each op takes its inputs from a fixed pool whose expected outputs were
recorded in reference.json (see make_reference.py); the workload seed only
chooses the order in which the closed loop visits the pool.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import numpy as np

import quadsig as q
from quadsig.simulate import SHARD_SIZE
from tracing import span

PAIR = q.GaussianPair(1.0, 1.0)
D = 0.02
EPSILON = 0.1
RATE = q.id_rate(PAIR, D) + 0.5
AUDIT_SAMPLES = 5000
VERIFY_SAMPLES = 100_000
SETUP_REPS = 3  # set-up runs this many times per run; setup_s is the median
EXPONENT_TOL = 1e-6  # id_exponent's stated objective accuracy


@dataclass(frozen=True)
class Sizes:
    name: str
    sim_n: int
    sim_trials: int
    sim_ops_per_code: int
    cover_n: int
    cover_seeds: int
    exponent_points: int
    gemm_size: int


# "smoke" is the reduced-size mode of the self-test.  Shape-gain planning
# refuses n < 32 at this rate (the shell index costs too many bits).
FULL = Sizes("full", 40, 131_072, 8, 48, 5, 12, 1024)
SMOKE = Sizes("smoke", 32, 65_536, 2, 24, 2, 3, 256)

SIM_CODE_SEEDS = (4001, 4002, 4003)  # one covering per set-up repetition
# About as many covering seeds as a 20-second run completes cover ops, so
# each run visits the whole list and runs differ only in order.
COVER_SEEDS = (4801, 4802, 4803, 4804, 4805)

# (sigma_y2, d, rate above id_rate).  Symmetric and asymmetric pairs; the
# near-floor and near-total d values put the minimizer as close to the
# difference and sum constraints as the program's optima get, and the
# sigma_y2 = 0.01 point is the slowest solve on the grid.
EXPONENT_GRID = (
    (1.0, 1.5, 1.0),
    (1.0, 0.02, 0.5),
    (1.0, 1.98, 6.0),
    (0.5, 0.5, 0.5),
    (2.0, 1.0, 2.0),
    (0.25, 0.2501, 0.1),
    (0.01, 0.8101, 0.01),
    (4.0, 4.9995, 1.0),
    (1.0, 0.5, 0.5),
    (0.25, 1.2, 4.0),
    (4.0, 1.05, 0.5),
    (0.5, 0.09, 2.0),
)


class Workload:
    """One closed-loop workload: set-up, a pool of op inputs, the op itself
    (traced or not), and the reference check on its result."""

    name: str

    def __init__(self, sizes: Sizes, reference: dict | None):
        self.sizes = sizes
        self.reference = reference

    def order(self, seed: int) -> list:
        items = self.items()
        random.Random(seed).shuffle(items)
        return items

    def expected(self, item) -> dict:
        return self.reference[self.sizes.name][self.name][self.key(item)]

    @staticmethod
    def same(a, b) -> bool:
        """Whether an untraced op and its traced replay agree."""
        return a == b


class SimWorkload(Workload):
    """One op is one estimate_maybe_probability call (4 shards at full size)
    on one of the set-up coverings.  Untraced ops call the library; traced ops
    replay the same shards with the library's seed spawning, so the replay
    must reproduce the op's maybe and false-negative counts exactly."""

    def __init__(self, name, mode, family, sizes, reference):
        super().__init__(sizes, reference)
        self.name = name
        self.mode = mode
        self.spec = q.SourceSpec(family, 1.0)
        self.schemes = []

    def setup(self, rep: int, tracer, op: str) -> None:
        n = self.sizes.sim_n
        with span(tracer, "scheme.plan", op):
            plan = q.plan_scheme(PAIR, D, RATE, n, EPSILON, mode=self.mode)
        code = build(n, plan.d0, SIM_CODE_SEEDS[rep], tracer, op)
        self.schemes.append((plan.config, code))

    def items(self) -> list:
        return [
            (rep, 1000 * (rep + 1) + t)
            for rep in range(SETUP_REPS)
            for t in range(self.sizes.sim_ops_per_code)
        ]

    def key(self, item) -> str:
        rep, trial_seed = item
        return f"{SIM_CODE_SEEDS[rep]}/{trial_seed}"

    def run(self, item, tracer, op) -> dict:
        rep, trial_seed = item
        config, code = self.schemes[rep]
        if tracer is not None:
            return self._replay(config, code, trial_seed, tracer, op)
        est = q.estimate_maybe_probability(
            config, code, self.spec, self.spec, self.sizes.sim_trials, trial_seed
        )
        return {
            "hits": round(est.p_hat * est.trials),
            "fn": est.false_negative_count,
            "p_hat": est.p_hat,
            "ci_low": est.ci_low,
            "ci_high": est.ci_high,
        }

    def _replay(self, config, code, trial_seed, tracer, op) -> dict:
        trials = self.sizes.sim_trials
        n = config.n
        num_shards = -(-trials // SHARD_SIZE)
        children = np.random.SeedSequence(trial_seed).spawn(num_shards)
        hits = fn = 0
        with tracer.span("simulate.op", op):
            for i in range(num_shards):
                count = min(SHARD_SIZE, trials - i * SHARD_SIZE)
                rng = np.random.default_rng(children[i])
                with tracer.span("simulate.draw", op) as c:
                    X = self.spec.draw(rng, (count, n))
                    Y = self.spec.draw(rng, (count, n))
                c["rows"] = 2 * count
                with tracer.span("scheme.assign", op) as c:
                    ci, si, er = q.assign_many(config, code, X)
                c.update(rows=count, centers=code.size, n=n)
                with tracer.span("scheme.query", op) as c:
                    maybe = q.query_many(config, code, ci, si, er, Y)
                c.update(live=int(count - er.sum()), no=int((~maybe).sum()))
                with tracer.span("trace.count", op) as c:
                    c.update(
                        amplitude_erased=int(amplitude_erased(config, X).sum()),
                        erased=int(er.sum()),
                    )
                dxy = np.einsum("ij,ij->i", X - Y, X - Y) / n
                fn += int((~maybe & (dxy <= config.d)).sum())
                hits += int(maybe.sum())
        return {"hits": hits, "fn": fn, "p_hat": hits / trials}

    def check(self, item, result) -> bool:
        ref = self.expected(item)
        return result["fn"] == 0 and ref["ci_low"] <= result["p_hat"] <= ref["ci_high"]

    @staticmethod
    def same(a, b) -> bool:
        return a["hits"] == b["hits"] and a["fn"] == b["fn"]


def amplitude_erased(config, X) -> np.ndarray:
    """Rows that assign_many erases by amplitude alone; the remaining erased
    rows are covering gaps."""
    s2 = np.einsum("ij,ij->i", X, X) / config.n
    if config.mode == "basic":
        out = (s2 < config.sigma_x2 - config.eta) | (s2 > config.sigma_x2 + config.eta)
    else:
        out = s2 > config.sigma_max2
    return out | (s2 == 0.0)


def build(n, d0, seed, tracer, op) -> q.CoveringCode:
    with span(tracer, "covering.build", op) as c:
        code = q.build_covering(n, 1.0, d0, seed, AUDIT_SAMPLES)
    if tracer is not None:
        c.update(centers=code.size, min_centers=q.predicted_size_bounds(n, 1.0, d0)[0])
    return code


def save_and_verify(code, seed, path, tracer, op) -> q.CoveringReport:
    """The save and verify half of `quadsig cover` (verify seed = seed + 1)."""
    with span(tracer, "covering.save", op) as c:
        q.save_covering(code, path)
    c["bytes"] = os.path.getsize(path)
    with span(tracer, "covering.verify", op) as c:
        report = q.verify_covering(code, VERIFY_SAMPLES, seed + 1)
    c.update(samples=VERIFY_SAMPLES, centers=code.size, n=code.n,
             coverage=report.sampled_coverage)
    return report


class CoverWorkload(Workload):
    """One op makes the calls of `quadsig cover`: build_covering, save_covering
    and verify_covering, on a covering seed from a fixed list."""

    name = "cover"
    def __init__(self, sizes, reference, cover_path):
        super().__init__(sizes, reference)
        self.path = cover_path
        self.d0 = None

    def setup(self, rep, tracer, op) -> None:
        with span(tracer, "scheme.plan", op):
            self.d0 = q.plan_scheme(PAIR, D, RATE, self.sizes.cover_n, EPSILON).d0

    def items(self) -> list:
        return list(COVER_SEEDS[: self.sizes.cover_seeds])

    def key(self, item) -> str:
        return str(item)

    def run(self, item, tracer, op) -> dict:
        code = build(self.sizes.cover_n, self.d0, item, tracer, op)
        report = save_and_verify(code, item, self.path, tracer, op)
        return {
            "centers": code.size,
            "coverage": report.sampled_coverage,
            "rate": report.rate,
            "limit": report.bound + report.overhead_budget,
        }

    def check(self, item, result) -> bool:
        """No more centers than recorded (1% slack), coverage no lower than
        the recorded interval, and the rate within bound + overhead budget."""
        ref = self.expected(item)
        return (
            result["centers"] <= ref["centers"] * 1.01
            and result["coverage"] >= ref["coverage_ci_low"]
            and result["rate"] <= result["limit"]
        )


class ExponentWorkload(Workload):
    """One op is one id_exponent solve at a grid point; symmetric points are
    also solved by id_exponent_symmetric in the traced run's analysis probe."""

    name = "exponent"
    def setup(self, rep, tracer, op) -> None:
        self.points = []
        for sy2, d, above in EXPONENT_GRID[: self.sizes.exponent_points]:
            pair = q.GaussianPair(1.0, sy2)
            self.points.append((pair, d, q.id_rate(pair, d) + above))

    def items(self) -> list:
        return list(range(self.sizes.exponent_points))

    def key(self, item) -> str:
        sy2, d, above = EXPONENT_GRID[item]
        return f"{sy2}/{d}/{above}"

    def run(self, item, tracer, op, symmetric=False) -> dict:
        pair, d, rate = self.points[item]
        if symmetric:
            with span(tracer, "analysis.id_exponent_symmetric", op):
                sol = q.id_exponent_symmetric(pair.sigma_x2, d, rate)
        else:
            with span(tracer, "analysis.id_exponent", op):
                sol = q.id_exponent(pair, d, rate)
        return {"value": float(sol.value)}

    def check(self, item, result) -> bool:
        return abs(result["value"] - self.expected(item)["value"]) <= EXPONENT_TOL


def make(name: str, sizes: Sizes, reference: dict | None, cover_path) -> Workload:
    if name == "sim_basic":
        # ~91% of rows are amplitude-erased, yet every row pays the
        # nearest-center search: a skip-erased change shows here, and the
        # query layer does little.
        return SimWorkload(name, "basic", "gaussian", sizes, reference)
    if name == "sim_shape_gain":
        # ~0% erased and ~98% of live rows answer "no": every row pays the
        # search and the cap-distance query, so skip-erased predicts no gain
        # here while a faster kernel or query must show one.  Laplace draws
        # use the source layer differently from Gaussian ones.
        return SimWorkload(name, "shape_gain", "laplace", sizes, reference)
    if name == "cover":
        # The same nearest-center kernel on a growing center set, with a
        # Python loop per miss: writes next to sim_*'s reads.  This path is
        # also sim_*'s set-up cost.
        return CoverWorkload(sizes, reference, cover_path)
    if name == "exponent":
        # Pure scalar CPU work in the analysis layer, which no other
        # workload touches.
        return ExponentWorkload(sizes, reference)
    raise ValueError(f"unknown workload {name!r}")
