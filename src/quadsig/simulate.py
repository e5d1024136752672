"""Seeded Monte Carlo for maybe-probabilities, similarity probabilities,
admissibility audits, and empirical exponent fits.  `quadsig simulate` and
robustness_experiment run one per-blocklength loop, `_experiments`.

Trials are split into fixed-size shards; shard i draws its generator from
SeedSequence(seed).spawn(...)[i], and results merge by summation, so estimates
are reproducible bit for bit regardless of how many worker threads run them.
QUADSIG_THREADS caps shard parallelism (default: the usable CPUs).  While more
than one shard thread runs, numpy's OpenBLAS is held at one thread, so shard
threads and BLAS threads do not compete for the cores.  The pool, its lock and
the BLAS pin are covering.py's `_pinned_pool`, which the covering build and
verify also use to draw their next sample block; pooled runs started from
several threads, sharded or not, take turns, one at a time.
"""

from __future__ import annotations

import math
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np

from .analysis import GaussianPair, _check_rate
from .covering import _BATCH, CoveringCode, _pinned_pool, _threads, build_covering
from .errors import DegenerateDataError, PreconditionError, _check_count, _check_real
from .scheme import SchemeConfig, assign_many, plan_scheme, query_many

__all__ = [
    "SourceSpec",
    "TrialEstimate",
    "ExponentFit",
    "sample_pair",
    "estimate_maybe_probability",
    "estimate_similarity_probability",
    "audit_admissibility",
    "fit_exponent",
    "chi_square_tail_bound",
    "robustness_experiment",
]

SHARD_SIZE = 32768

_FAMILIES = ("gaussian", "uniform", "laplace")


@dataclass(frozen=True)
class SourceSpec:
    """Zero-mean i.i.d. source with an exactly-matched variance."""

    family: str
    variance: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}")
        _check_real(self.variance, "variance", 0.0)

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.family == "gaussian":
            return rng.normal(0.0, math.sqrt(self.variance), shape)
        if self.family == "uniform":
            half = math.sqrt(3.0 * self.variance)
            return rng.uniform(-half, half, shape)
        return rng.laplace(0.0, math.sqrt(self.variance / 2.0), shape)


@dataclass(frozen=True)
class TrialEstimate:
    p_hat: float
    trials: int
    ci_low: float
    ci_high: float
    false_negative_count: int

    def __post_init__(self):
        _check_real(self.p_hat, "p_hat", self.ci_low, self.ci_high, "[]")


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    points: list[tuple[int, float]]


def _estimate(hits: int, trials: int, false_negatives: int = 0) -> TrialEstimate:
    """hits / trials with its 95% Wilson interval; zero counts get the
    rule-of-three upper bound."""
    p = hits / trials
    if hits == 0:
        lo, hi = 0.0, min(1.0, 3.0 / trials)
    elif hits == trials:
        lo, hi = max(0.0, 1.0 - 3.0 / trials), 1.0
    else:
        z = 1.959963984540054
        denom = 1.0 + z * z / trials
        center = (p + z * z / (2 * trials)) / denom
        spread = p * (1.0 - p) / trials + z * z / (4 * trials * trials)
        half = z * math.sqrt(spread) / denom
        lo, hi = max(0.0, center - half), min(1.0, center + half)
    return TrialEstimate(p, trials, lo, hi, false_negatives)


def _maybe_and_false_negatives(config, code, X, y_rows) -> tuple[int, int]:
    """Number of pairs (rows of X, Y) that get "maybe", and number of d-similar
    pairs that get "no" (false negatives, which must never occur).

    X is processed in blocks of _BATCH rows; y_rows(lo, hi) returns rows lo:hi
    of Y, called once per block in order, so Y need never exist whole.  d(x, y)
    is computed only for pairs answering "no", the only possible false
    negatives.
    """
    hits = fn = 0
    for lo in range(0, X.shape[0], _BATCH):
        Xb = X[lo : lo + _BATCH]
        Yb = y_rows(lo, lo + Xb.shape[0])
        ci, si, er = assign_many(config, code, Xb)
        no = np.flatnonzero(~query_many(config, code, ci, si, er, Yb))
        diff = Xb[no] - Yb[no]
        fn += int((np.einsum("ij,ij->i", diff, diff) / config.n <= config.d).sum())
        hits += Xb.shape[0] - no.size
    return hits, fn


def sample_pair(
    spec_x: SourceSpec, spec_y: SourceSpec, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One independent (x, y) pair with i.i.d. coordinates; the generator is
    the seed stream, so identical generator states give identical pairs."""
    n = _check_count(n, "n")
    x = spec_x.draw(rng, n)
    y = spec_y.draw(rng, n)
    return x, y


def _run_sharded(trials: int, seed: int, worker):
    """worker(rng, count) -> tuple of summable ints; returns elementwise sums."""
    trials = _check_count(trials, "trials")
    seed = _check_count(seed, "seed", 0)
    num_shards = (trials + SHARD_SIZE - 1) // SHARD_SIZE
    children = np.random.SeedSequence(seed).spawn(num_shards)
    sizes = [min(SHARD_SIZE, trials - i * SHARD_SIZE) for i in range(num_shards)]

    def run(i):
        return worker(np.random.default_rng(children[i]), sizes[i])

    threads = _threads()
    if min(threads, num_shards) == 1:
        results = [run(i) for i in range(num_shards)]
    else:
        with _pinned_pool(threads) as pool:
            futures = [pool.submit(run, i) for i in range(num_shards)]
            wait(futures)
            results = [f.result() for f in futures]
    return tuple(int(sum(parts)) for parts in zip(*results))


def estimate_maybe_probability(
    config: SchemeConfig,
    code: CoveringCode,
    spec_x: SourceSpec,
    spec_y: SourceSpec,
    trials: int,
    seed: int,
) -> TrialEstimate:
    """Monte Carlo estimate of Pr{query says maybe} over independent pairs.

    Every sampled pair that happens to be d-similar is also audited: a "no"
    there is a false negative and is counted (it must never occur).
    """

    def worker(rng: np.random.Generator, count: int):
        # drawing Y block by block, after X, yields the numbers of one draw
        X = spec_x.draw(rng, (count, config.n))
        return _maybe_and_false_negatives(
            config, code, X, lambda lo, hi: spec_y.draw(rng, (hi - lo, config.n))
        )

    hits, fn = _run_sharded(trials, seed, worker)
    return _estimate(hits, trials, fn)


def estimate_similarity_probability(
    spec_x: SourceSpec,
    spec_y: SourceSpec,
    d: float,
    n: int,
    trials: int,
    seed: int,
) -> TrialEstimate:
    """Monte Carlo estimate of Pr{d(X, Y) <= d} for independent sources."""
    n = _check_count(n, "n")
    _check_real(d, "d", 0.0, ends="[)")

    def worker(rng: np.random.Generator, count: int):
        diff = spec_x.draw(rng, (count, n)) - spec_y.draw(rng, (count, n))
        dxy = np.einsum("ij,ij->i", diff, diff) / n
        return (int((dxy <= d).sum()),)

    (hits,) = _run_sharded(trials, seed, worker)
    return _estimate(hits, trials)


def audit_admissibility(
    config: SchemeConfig,
    code: CoveringCode,
    spec_x: SourceSpec,
    trials: int,
    seed: int,
    boundary_fraction: float = 0.02,
) -> TrialEstimate:
    """Adversarial zero-false-negative audit on constructed similar pairs.

    x is drawn from the source; y = x + r*u with u uniform on the sphere and
    r = sqrt(n d) * U^(1/n) (uniform in the ball).  A slice of each shard puts
    r at sqrt(n d) (1 +/- 1e-9) to stress the threshold; pairs that land
    dissimilar (the +1e-9 side) are queried but exempt from the must-maybe
    check.  p_hat is the maybe fraction over all queried pairs.
    """
    _check_real(boundary_fraction, "boundary_fraction", 0.0, 1.0, "[]")

    def worker(rng: np.random.Generator, count: int):
        X = spec_x.draw(rng, (count, config.n))
        U = rng.standard_normal((count, config.n))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        radius = math.sqrt(config.n * config.d) * rng.uniform(0.0, 1.0, count) ** (
            1.0 / config.n
        )
        nb = max(2, int(count * boundary_fraction))
        edge = math.sqrt(config.n * config.d)
        radius[: nb // 2] = edge * (1.0 - 1e-9)
        radius[nb // 2 : nb] = edge * (1.0 + 1e-9)
        return _maybe_and_false_negatives(
            config, code, X, lambda lo, hi: X[lo:hi] + radius[lo:hi, None] * U[lo:hi]
        )

    hits, fn = _run_sharded(trials, seed, worker)
    return _estimate(hits, trials, fn)


def fit_exponent(points: list[tuple[int, float]]) -> ExponentFit:
    """Least-squares slope of -log2 p_hat against n over points with p_hat > 0.

    Raises a ValueError if some n is not a positive integer or some p_hat is
    not a probability in [0, 1] (NaN and infinities included).
    """
    for n, p in points:
        _check_count(n, "n")
        _check_real(p, f"p_hat at n = {n}", 0.0, 1.0, "[]")
    usable = [(n, p) for n, p in points if p > 0.0]
    if len({n for n, _ in usable}) < 2:
        raise DegenerateDataError(
            "need two blocklengths with p_hat > 0; estimates at or below the "
            "Monte Carlo resolution floor carry no slope information"
        )
    ns = np.array([n for n, _ in usable], dtype=float)
    ys = -np.log2([p for _, p in usable])
    slope, intercept = np.polyfit(ns, ys, 1)
    return ExponentFit(slope=float(slope), intercept=float(intercept), points=usable)


def chi_square_tail_bound(n: int, sigma2: float) -> float:
    """Chernoff bound exp(-n^2/4) * 2^(n/2) on Pr{|X|^2 > n^2 sigma2}.

    Scale-free: the threshold n^2 sigma2 grows with the variance, so sigma2
    cancels.  Decays super-exponentially in n; evaluated as one exp, so it
    underflows to 0 where 2^(n/2) alone would overflow.
    """
    n = _check_count(n, "n")
    _check_real(sigma2, "sigma2", 0.0)
    return math.exp(-n * n / 4.0 + (n / 2.0) * math.log(2.0))


def _experiments(
    pair, d, rate, n_list, spec_x, spec_y, trials, seed, epsilon, mode, audit_samples
):
    """Plan, build and estimate the scheme for each blocklength in turn,
    yielding (n, config, code, estimate).

    The k-th covering is seeded with seed + 1000 (k + 1) and its trials with
    seed + k, so a run is reproducible from `seed` alone.
    """
    for k, n in enumerate(n_list):
        plan = plan_scheme(pair, d, rate, n, epsilon, mode=mode)
        code = build_covering(
            n, pair.sigma_x2, plan.d0, seed + 1000 * (k + 1), audit_samples
        )
        yield n, plan.config, code, estimate_maybe_probability(
            plan.config, code, spec_x, spec_y, trials, seed + k
        )


def robustness_experiment(
    pair: GaussianPair,
    d: float,
    target_rate: float,
    n_list: list[int],
    spec_x: SourceSpec,
    spec_y: SourceSpec,
    trials: int,
    seed: int,
    epsilon: float = 0.1,
    mode: str = "basic",
    audit_samples: int = 20_000,
) -> list[tuple[int, TrialEstimate]]:
    """Run the Gaussian-designed scheme against non-Gaussian sources.

    Builds the scheme once per blocklength (seeded deterministically from
    `seed`), then estimates the maybe-probability under the given specs.
    The scheme stays d-admissible whatever the sources, so the estimates'
    false_negative_count must come back zero.
    """
    if not math.isclose(spec_x.variance, pair.sigma_x2, rel_tol=1e-12):
        raise PreconditionError("spec_x variance must match pair.sigma_x2")
    if not math.isclose(spec_y.variance, pair.sigma_y2, rel_tol=1e-12):
        raise PreconditionError("spec_y variance must match pair.sigma_y2")
    _check_rate(pair, d, target_rate)
    _check_count(seed, "seed", 0)
    experiments = _experiments(
        pair, d, target_rate, n_list, spec_x, spec_y, trials, seed, epsilon, mode,
        audit_samples,
    )
    return [(n, est) for n, _, _, est in experiments]
