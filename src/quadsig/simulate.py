"""Seeded Monte Carlo for maybe-probabilities, similarity probabilities,
admissibility audits, and empirical exponent fits.  `quadsig simulate` and
robustness_experiment run one per-blocklength loop, `_experiments`.

Trials are split into fixed-size shards; shard i draws its generator from
SeedSequence(seed).spawn(...)[i], and results merge by summation, so estimates
are reproducible bit for bit regardless of how many worker threads run them.
QUADSIG_THREADS caps shard parallelism (default: the usable CPUs).  While more
than one shard thread runs, numpy's OpenBLAS is held at one thread, so shard
threads and BLAS threads do not compete for the cores.  Shards run through
covering.py's `_pooled`, which holds the pool, its lock and the BLAS pin; the
covering build and verify draw their next sample block through it too, and
pooled runs started from several threads take turns, one at a time.

A shard of an estimate or audit makes two passes over its rows in _BATCH
blocks: the first draws X and assigns it, the second draws Y (or the audit's
U, then its radii) and queries.  Between them a block keeps only the rows
that still need a y, unless most of its rows do (`_live_blocks`).  Every row
is drawn in the stream order of a whole draw, so the counts are those of a
shard that holds X and Y whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import GaussianPair, _check_rate
# _threads is re-exported: benchmark harnesses read the thread count from here
from .covering import _BATCH, CoveringCode, _pooled, _threads, build_covering
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


def _live_blocks(config, code, count, x_rows) -> list:
    """First pass over a shard of `count` pairs: draw X a _BATCH block at a
    time, x_rows(rows) giving its next `rows` rows, and assign each block.

    Returns one (rows, keep, X, centers, shells, erased) per block: `rows` is
    the block's length and `keep` selects the rows kept, whose X, centers,
    shells and erased flags the other four hold.  An erased row answers
    "maybe" whatever its y, so a block of which at most half is live keeps
    its live rows only.  Otherwise the copy would cost more than it frees,
    and `keep` is a slice of every row, which keeps the block as drawn.
    """
    blocks = []
    for lo in range(0, count, _BATCH):
        X = x_rows(min(_BATCH, count - lo))
        centers, shells, erased = assign_many(config, code, X)
        live = np.flatnonzero(~erased)
        keep = live if 2 * live.size <= X.shape[0] else slice(None)
        blocks.append(
            (X.shape[0], keep, X[keep], centers[keep], shells[keep], erased[keep])
        )
    return blocks


def _maybe_and_false_negatives(config, code, count, blocks, y_rows) -> tuple[int, int]:
    """Second pass: the number of the shard's `count` pairs that get "maybe",
    and the number of d-similar pairs that get "no" (false negatives, which
    must never occur).

    `blocks` is `_live_blocks`'s result.  y_rows(lo, rows, keep, X) returns
    the query points of the kept rows of the block of `rows` pairs from pair
    lo, called once per block in order, so Y need never exist whole; this
    pass may overwrite them.  Each block is taken out of `blocks` as it is
    queried, so that its memory can be reused.  d(x, y) is computed for the
    kept rows only, and it counts only where a pair answers "no", the only
    possible false negative.
    """
    hits, fn = count, 0
    for lo in range(0, count, _BATCH):
        rows, keep, X, centers, shells, erased = blocks.pop(0)
        Y = y_rows(lo, rows, keep, X)
        no = ~query_many(config, code, centers, shells, erased, Y)
        # y - x, in Y's memory: it has the bits of -(x - y), so the same squares
        Y -= X
        dxy = np.einsum("ij,ij->i", Y, Y) / config.n
        fn += int(np.count_nonzero(dxy[no] <= config.d))
        hits -= int(np.count_nonzero(no))
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

    with _pooled(run, range(num_shards), num_shards) as results:
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
        # drawing X, then Y, block by block yields the numbers of one draw
        # of each; every Y row is drawn, so the stream is the whole-draw one
        blocks = _live_blocks(
            config, code, count, lambda rows: spec_x.draw(rng, (rows, config.n))
        )
        return _maybe_and_false_negatives(
            config, code, count, blocks,
            lambda lo, rows, keep, X: spec_y.draw(rng, (rows, config.n))[keep],
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
        X = spec_x.draw(rng, (count, n))
        hits = 0
        for lo in range(0, count, _BATCH):
            # y - x, in place: it has the bits of -(x - y), so the same squares
            diff = spec_y.draw(rng, (min(_BATCH, count - lo), n))
            diff -= X[lo : lo + _BATCH]
            hits += int((np.einsum("ij,ij->i", diff, diff) / n <= d).sum())
        return (hits,)

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
        # the stream is all of X, then all of U, then the radii, as in a
        # whole draw of each; only the kept rows of U are held
        blocks = _live_blocks(
            config, code, count, lambda rows: spec_x.draw(rng, (rows, config.n))
        )
        U = []
        for rows, keep, *_ in blocks:
            u = rng.standard_normal((rows, config.n))[keep]
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            U.append(u)
        radius = math.sqrt(config.n * config.d) * rng.uniform(0.0, 1.0, count) ** (
            1.0 / config.n
        )
        nb = max(2, int(count * boundary_fraction))
        edge = math.sqrt(config.n * config.d)
        radius[: nb // 2] = edge * (1.0 - 1e-9)
        radius[nb // 2 : nb] = edge * (1.0 + 1e-9)

        def y_rows(lo, rows, keep, X):
            # y = x + r u, formed in u's memory, which is needed no more
            u = U.pop(0)
            u *= radius[lo : lo + rows][keep, None]
            u += X
            return u

        return _maybe_and_false_negatives(config, code, count, blocks, y_rows)

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
