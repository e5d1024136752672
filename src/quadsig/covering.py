"""Codes that cover a sphere shell with balls, built by greedy random sampling.

Center placement: every center sits at radius sqrt(n (sigma2 - d0)) so that
its ball of radius sqrt(n d0) carves the largest possible cap out of the shell
of radius sqrt(n sigma2); a shell point is then covered iff its angle to some
center is at most theta0 = arcsin(sqrt(d0 / sigma2)).

The builder cannot certify complete coverage the way an explicit covering
construction can; the consuming scheme treats any uncovered direction as an
erasure, so coverage gaps cost extra maybe-mass, never correctness.

Building and verifying ask only whether a sample is covered; signature
assignment needs the nearest center itself.  The two questions keep one
kernel each, `_covered` and `_nearest`: one kernel for both, outputs
unchanged, made build plus verify at n = 48 35-45% slower, and encoding with
`_covered`'s first covering center moves the seeded estimates.  Both screen
in float32, where GEMM runs about twice as fast, and certify in float64: a
float32 cosine of two exactly unit vectors lies within
g = (n + 2) u / (1 - (n + 2) u), u = 2^-24, of the exact one (the rounding of
both inputs, then Higham's dot-product bound).  The band's half-width is
gamma = 2 g (`_gamma`).  The factor 2 is a margin for the two gaps the bound
leaves out, each far below g: the rows are unit only to float64 rounding,
and the answer to reproduce is the float64 product's (`_cosines`), not the
exact cosine.  A sample whose float32 cosine to some center clears
cos theta0 + gamma is covered, and one whose float32 cosines all stay below
cos theta0 - gamma is not.  A nearest center whose float32 cosine beats
every other center's by more than 2 gamma is the float64 product's nearest
center too.  Only the samples the screen leaves open, which are rare, are
decided by the float64 product, so every decision is the float64 one.
Each kernel searches exactly the centers it is handed: the builder hands
it the view of the centers found so far, verify and assignment a code's
unit centers.  `_covered` walks its block in tiles of _TILE rows;
`_nearest` screens the one tile it is given, and `assign_many` walks the
tiles.

Build and verify draw their samples in blocks of _BATCH // 2 rows
(`_unit_blocks`).  With more than one pool thread (QUADSIG_THREADS, default
the usable CPUs), the next block is drawn on the shard pool, through
`_pooled` as the Monte Carlo shards are, while the caller screens this one.
One draw is in flight at a time, so the stream order, and with it every
center and covered count, is the serial one at any thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import json
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError, _check_count, _check_real, _check_vector
from .geometry import cap_fraction_bounds

__all__ = [
    "CoveringCode", "CoveringReport", "build_covering", "verify_covering",
    "nearest_center", "save_covering", "load_covering", "predicted_size_bounds",
    "overhead_budget",
]

_BATCH = 8192  # rows per Monte Carlo block; the covering draws half blocks
_CENTER_CHUNK = 512  # keeps the cosine workspace small and reused
# Rows per GEMM: a (_TILE, _CENTER_CHUNK) float32 cosine tile is 2 MB, so the
# argmax reads it back from cache.  Each search allocates one such workspace.
_TILE = 1024
# build_covering refuses a covering whose certified fewest centers take more
# bytes than this: 2^27 doubles, 1 GiB, past what a greedy build finishes
_CENTER_BYTES = 2**30


def _gamma(n: int) -> float:
    """Half-width of the float32 screen's band at dimension n: twice
    Higham's bound on a float32 cosine of two unit n-vectors (module
    docstring)."""
    nu = (n + 2) * 2.0**-24
    return 2.0 * nu / (1.0 - nu)


def _cosines(units, rows):
    """The float64 certificate: cosines of the unit centers (axis 0) to the
    unit rows (axis 1), or to one row given as a vector.  Every decision the
    float32 screen leaves open is taken from this product."""
    return units @ rows.T


def _reaches(units, rows, thr):
    """Whether some unit center reaches cosine thr, in float64, for each of
    the unit rows (or for one row given as a vector)."""
    return _cosines(units, rows).max(axis=0) >= thr


def _nearest(units, tile) -> tuple[np.ndarray, np.ndarray]:
    """(index, float64 cosine) of the nearest of the unit centers `units`
    for each row of a tile of unit rows; the index is the argmax of
    `_cosines`, ties broken to the lowest index.  The workspace is one
    float32 cosine chunk per row, so a caller hands it at most _TILE rows
    (`assign_many`).

    The screen casts the centers and the tile to float32.  For each center
    chunk it takes the row argmax, masks it and takes a second argmax, and
    folds both into the running best and runner-up.  A row whose best beats
    its runner-up by more than 2 gamma has a unique nearest center: every
    other center's cosine is at most runner-up + gamma < best - gamma.  The
    other rows, near-ties, are re-decided by `_cosines`.  Each row's cosine
    is then one float64 dot product with its center.  It matches the float64
    product's to rounding, so a threshold test on it can differ from one on
    the product only for a cosine within a few ulps of the threshold, as in
    `_covered`.  Whether a row is covered at all is `_covered`'s question.
    """
    t = tile.shape[0]
    gap = 2.0 * _gamma(tile.shape[1])
    idx = np.zeros(t, dtype=np.int64)
    best = np.empty(t)
    units32 = units.astype(np.float32)
    buf = np.empty(t * _CENTER_CHUNK, dtype=np.float32)
    tile32, rows = tile.astype(np.float32), np.arange(t)
    top = np.full(t, -np.inf, dtype=np.float32)
    second = np.full(t, -np.inf, dtype=np.float32)
    for c0 in range(0, len(units), _CENTER_CHUNK):
        k = min(_CENTER_CHUNK, len(units) - c0)
        cos = buf[: t * k].reshape(t, k)
        np.dot(tile32, units32[c0 : c0 + k].T, out=cos)
        loc = cos.argmax(axis=1)
        val = cos[rows, loc]
        cos[rows, loc] = -np.inf
        val2 = cos[rows, cos.argmax(axis=1)]
        np.maximum(second, np.maximum(val2, np.minimum(val, top)), out=second)
        upd = val > top
        idx[upd], top[upd] = c0 + loc[upd], val[upd]
    near = np.flatnonzero(top - second.astype(float) <= gap)
    if near.size:
        idx[near] = _cosines(units, tile[near]).argmax(axis=0)
    return idx, np.einsum("ij,ij->i", tile, units[idx], out=best)


def _covered(units, block, thr) -> np.ndarray:
    """Whether one of the unit centers `units` reaches cosine thr, for each
    row of a block of unit rows; every answer is that of `_reaches` except
    for cosines within a few float64 ulps of thr.

    The screen casts the centers and the block to float32 and walks the
    block in tiles of _TILE rows and the centers in the chunks of
    `_nearest`.  A row leaves its tile as covered once its float32 cosine
    reaches `hi`, and joins the band once it reaches `lo`; hi and lo are
    thr +- gamma (module docstring), rounded outward to float32.  A band row
    that no center covered is re-decided by `_reaches`.
    """
    b, n = block.shape
    gamma = _gamma(n)
    hi = np.nextafter(np.float32(thr + gamma), np.float32(np.inf))
    lo = np.nextafter(np.float32(thr - gamma), np.float32(-np.inf))
    units32 = units.astype(np.float32)
    block32 = block.astype(np.float32)
    buf = np.empty(min(b, _TILE) * _CENTER_CHUNK, dtype=np.float32)
    covered = np.zeros(b, dtype=bool)
    band = np.zeros(b, dtype=bool)
    for r0 in range(0, b, _TILE):
        tile = block32[r0 : r0 + _TILE]
        sel = np.arange(r0, r0 + tile.shape[0])
        for c0 in range(0, len(units), _CENTER_CHUNK):
            k = min(_CENTER_CHUNK, len(units) - c0)
            cos = buf[: sel.size * k].reshape(sel.size, k)
            np.dot(tile, units32[c0 : c0 + k].T, out=cos)
            val = cos[np.arange(sel.size), cos.argmax(axis=1)]
            band[sel[val >= lo]] = True
            keep = val < hi
            if not keep.all():
                covered[sel[~keep]] = True
                tile, sel = tile[keep], sel[keep]
                if sel.size == 0:
                    break
        sel = sel[band[sel]]  # uncovered in float32, but inside the band
        if sel.size:
            covered[sel] = _reaches(units, block[sel], thr)
    return covered


def _check_shell(sigma2: float, d0: float) -> None:
    """Raise a ValueError unless sigma2 and d0 are finite reals, 0 < d0 < sigma2."""
    _check_real(d0, "d0", 0.0, _check_real(sigma2, "sigma2", 0.0))


def _theta0(sigma2: float, d0: float) -> float:
    """Half-angle of the cap a center's cover ball carves out of the shell."""
    return math.asin(math.sqrt(d0 / sigma2))


def _cos_theta0(sigma2: float, d0: float) -> float:
    """cos theta0: a unit sample is covered iff its cosine to a center is >= this."""
    return math.sqrt((sigma2 - d0) / sigma2)


@dataclass(frozen=True)
class CoveringCode:
    """Set of centers whose cover balls blanket the shell of radius sqrt(n*sigma2)."""

    n: int
    sigma2: float
    d0: float
    centers: np.ndarray
    seed: int | None = None
    _units: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_count(self.n, "n")
        _check_shell(self.sigma2, self.d0)
        if self.seed is not None:
            object.__setattr__(self, "seed", _check_count(self.seed, "seed", 0))
        centers = np.asarray(self.centers, dtype=float)
        if centers.ndim != 2 or centers.shape[1] != self.n or centers.shape[0] < 1:
            raise ValueError("centers must be a nonempty (m, n) array")
        if not np.isfinite(centers).all():
            raise ValueError("'centers' must be finite")
        norms = np.linalg.norm(centers, axis=1)
        if not np.allclose(norms, self.center_norm, rtol=1e-9, atol=0.0):
            raise ValueError("every center must have norm sqrt(n * (sigma2 - d0))")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "_units", centers / norms[:, None])

    @property
    def size(self) -> int:
        return self.centers.shape[0]

    @property
    def shell_radius(self) -> float:
        return math.sqrt(self.n * self.sigma2)

    @property
    def cover_radius(self) -> float:
        return math.sqrt(self.n * self.d0)

    @property
    def center_norm(self) -> float:
        return math.sqrt(self.n * (self.sigma2 - self.d0))

    @property
    def theta0(self) -> float:
        return _theta0(self.sigma2, self.d0)

    @property
    def cos_theta0(self) -> float:
        return _cos_theta0(self.sigma2, self.d0)

    @property
    def rate(self) -> float:
        return math.log2(self.size) / self.n


@dataclass(frozen=True)
class CoveringReport:
    rate: float
    bound: float
    overhead_budget: float
    sampled_coverage: float
    samples: int

    def __post_init__(self):
        _check_real(self.sampled_coverage, "sampled_coverage", 0.0, 1.0, "[]")
        _check_real(self.rate, "rate", 0.0, ends="[)")


def overhead_budget(n: int) -> float:
    """Engineering slack allowed on top of the half-log rate bound."""
    n = _check_count(n, "n")
    return (3.0 * math.log2(n) + 10.0) / n


def predicted_size_bounds(n: int, sigma2: float, d0: float) -> tuple[float, float]:
    """(min, max) plausible center counts from the cap-fraction bounds.

    The minimum is certified (no covering can use fewer than 1/upper caps);
    the maximum is the reciprocal lower bound, an optimistic ceiling only.
    A bound whose cap fraction underflows to 0 (n = 4000 at d0 = sigma2 / 2)
    is math.inf: its count is past the largest double.
    """
    _check_shell(sigma2, d0)
    b = cap_fraction_bounds(_theta0(sigma2, d0), n)
    return tuple(1.0 / f if f > 0.0 else math.inf for f in (b.upper, b.lower))


def _threads() -> int:
    """Pool threads: QUADSIG_THREADS if it is an integer, else the usable CPUs."""
    try:
        t = int(os.environ["QUADSIG_THREADS"])
    except (KeyError, ValueError):
        if hasattr(os, "sched_getaffinity"):
            t = len(os.sched_getaffinity(0))
        else:
            t = os.cpu_count() or 1
    return max(1, t)


@functools.cache
def _openblas_threads():
    """(get, set) for the thread count of the OpenBLAS that numpy bundles, or
    None when numpy ships no such library."""
    import glob  # loaded on the first pooled run, not at start-up

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


# The pool's threads are kept across calls: threads made afresh for every
# call would each start on a new malloc arena and grow peak memory from call
# to call.  One pooled run at a time holds the lock.
_lock = threading.Lock()
_pool = None  # (thread count, executor)


def _reset_pool() -> None:
    """A forked child inherits none of the pool's threads: start afresh."""
    global _lock, _pool
    _lock, _pool = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


@contextlib.contextmanager
def _pooled(fn, args, jobs, ahead=None):
    """`with _pooled(fn, args, jobs, ahead) as results:` gives fn(a) for each
    item a of args, in order.  With one pool thread, or `jobs` (the number
    of calls) at most 1, that is a plain map on the caller's thread.
    Otherwise the calls run as the one pooled run, with OpenBLAS held at one
    thread so that pool and BLAS threads do not compete for the cores, and
    at most `ahead` calls (all, for None) in flight.  The next item is taken and submitted on
    the caller's thread after the previous result is taken, before that one
    is given out.  The exit waits for every call in flight, restores BLAS's
    thread count and releases the lock, also after an exception or a `break`.
    The lock is not reentrant: work on the pool must not start a pooled run."""
    global _pool
    threads = _threads()
    if min(threads, jobs) <= 1:
        yield map(fn, args)
        return
    # loaded here, not at start-up: a command that runs no pool loads no
    # thread pool and no logging
    from concurrent.futures import ThreadPoolExecutor, wait

    with _lock:
        if _pool is None or _pool[0] != threads:
            # the old executor's idle threads exit once it is unreferenced
            _pool = (threads, ThreadPoolExecutor(threads, "quadsig-shard"))
        pool, args, flight = _pool[1], iter(args), []
        get, put = _openblas_threads() or (lambda: 0, lambda count: None)
        saved = get()
        put(1)

        def results():
            while flight:
                result = flight.pop(0).result()
                flight.extend(pool.submit(fn, a) for a in itertools.islice(args, 1))
                yield result

        try:
            flight.extend(pool.submit(fn, a) for a in itertools.islice(args, ahead))
            yield results()
        finally:
            wait(flight)
            put(saved)


def _fill_units(rng, buf) -> np.ndarray:
    """Fill buf with the next standard normal rows of rng and scale each row
    to unit norm in place, a tile at a time; the norm is np.linalg.norm's
    arithmetic, so the rows are those of a whole-block draw."""
    rng.standard_normal(out=buf)
    for r0 in range(0, buf.shape[0], _TILE):
        tile = buf[r0 : r0 + _TILE]
        tile /= np.sqrt(np.add.reduce(tile * tile, axis=1))[:, None]
    return buf


def _unit_blocks(rng, n: int, total=math.inf):
    """The uniform unit samples of rng's stream, `total` in all, in blocks
    of at most _BATCH // 2 rows:
    `with _unit_blocks(rng, n, total) as blocks: for block in blocks: ...`

    With more than one pool thread and more than one block, the next block
    is drawn on the pool while the caller works on this one (`_pooled`).
    Only one draw is in flight, submitted after the previous block was
    taken, so the stream order is the serial one.

    Each block is a fresh array allocated on the caller's thread.  Two
    long-lived buffers used in turn raised perfbench sim_basic's peak RSS by
    about 6 MB, through the heap layout that the set-up builds left behind.
    """
    rows = int(min(_BATCH // 2, total))

    def arrays():
        left = total
        while left > 0:
            yield np.empty((int(min(rows, left)), n))
            left -= rows

    return _pooled(functools.partial(_fill_units, rng), arrays(), total / rows, ahead=1)


def build_covering(
    n: int, sigma2: float, d0: float, seed: int, audit_samples: int = 100_000
) -> CoveringCode:
    """Greedy-incremental covering of the shell of radius sqrt(n sigma2).

    Repeatedly samples uniform shell points; any sample farther than
    sqrt(n d0) from all current centers becomes a new center direction.
    Stops once `audit_samples` consecutive samples land covered.
    Deterministic given (n, sigma2, d0, seed, audit_samples).

    Raises a PreconditionError, before drawing any sample, when the
    certified fewest centers, predicted_size_bounds(n, sigma2, d0)[0], take
    more than _CENTER_BYTES (a fixed 1 GiB) as n doubles each.
    """
    n = _check_count(n, "n", 2)
    _check_shell(sigma2, d0)
    seed = _check_count(seed, "seed", 0)
    audit_samples = _check_count(audit_samples, "audit_samples")
    try:
        fewest = predicted_size_bounds(n, sigma2, d0)[0]
    except DomainError:  # caps too wide for the bound: a few centers cover
        fewest = 0.0
    if fewest * n * 8 > _CENTER_BYTES:
        raise PreconditionError(
            f"a covering at n = {n}, d0 / sigma2 = {d0 / sigma2:.6g} needs at "
            f"least {fewest:.3g} centers, {fewest * n * 8:.3g} bytes, more than "
            f"the {_CENTER_BYTES} bytes that build_covering will hold; raise d0"
        )

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cos_thr = _cos_theta0(sigma2, d0)
    units = np.empty((1024, n))
    m = 0
    drawn = 0  # stream index of the block's first sample
    last = -1  # stream index of the newest center; every later sample is covered
    with _unit_blocks(rng, n) as blocks:
        for block in blocks:
            covered = _covered(units[:m], block, cos_thr)
            start = m
            for i in np.flatnonzero(~covered):
                if drawn + i - last - 1 >= audit_samples:
                    break
                # re-check against centers added earlier in this same block
                if m > start and _reaches(units[start:m], block[i], cos_thr):
                    continue
                if m == len(units):
                    units = np.concatenate([units, np.empty_like(units)])
                units[m] = block[i]
                m += 1
                last = drawn + int(i)
            drawn += block.shape[0]
            if drawn - last - 1 >= audit_samples:
                break

    centers = units[:m] * math.sqrt(n * (sigma2 - d0))
    return CoveringCode(n=n, sigma2=sigma2, d0=d0, centers=centers, seed=seed)


def verify_covering(code: CoveringCode, samples: int, seed: int) -> CoveringReport:
    """Empirical coverage check on fresh uniform shell samples."""
    samples = _check_count(samples, "samples")
    seed = _check_count(seed, "seed", 0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    covered = 0
    with _unit_blocks(rng, code.n, samples) as blocks:
        for block in blocks:
            covered += int(_covered(code._units, block, code.cos_theta0).sum())
    return CoveringReport(
        rate=code.rate,
        bound=0.5 * math.log2(code.sigma2 / code.d0),
        overhead_budget=overhead_budget(code.n),
        sampled_coverage=covered / samples,
        samples=samples,
    )


def nearest_center(code: CoveringCode, x) -> tuple[int, float]:
    """Index of the center nearest the radial projection of x onto the shell,
    plus the angle to it.  Ties break to the lowest index; all centers share a
    norm, so nearest-on-shell is the same as smallest angle.
    """
    x = _check_vector(x, "x")
    if x.shape != (code.n,):
        raise ValueError(f"expected a vector of dimension {code.n}")
    scale = np.abs(x).max()
    if scale == 0.0:
        raise ValueError("x must be nonzero")
    x = x / scale  # largest coordinate +-1: the norm can neither overflow nor vanish
    cos = code._units @ (x / np.linalg.norm(x))
    idx = int(np.argmax(cos))
    return idx, math.acos(min(1.0, max(-1.0, float(cos[idx]))))


def _covering_payload(code: CoveringCode) -> dict:
    """The JSON object that describes a code; floats round-trip exactly."""
    return {"n": code.n, "sigma2": code.sigma2, "d0": code.d0, "seed": code.seed,
            "centers": code.centers.tolist()}


def _field(payload, key: str, kinds: tuple = (int, float)):
    """payload[key], or a ValueError naming the field if payload is not a JSON
    object holding it, or holds it as another type (a bool is not a number)."""
    if not isinstance(payload, dict) or key not in payload:
        raise ValueError(f"missing field {key!r} in a JSON {type(payload).__name__}")
    if isinstance(payload[key], bool) or not isinstance(payload[key], kinds):
        want = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"field {key!r} must be {want}, not {payload[key]!r:.40}")
    return payload[key]


def _covering_from_payload(payload) -> CoveringCode:
    return CoveringCode(
        n=_field(payload, "n", (int,)),
        sigma2=_field(payload, "sigma2"),
        d0=_field(payload, "d0"),
        centers=np.asarray(_field(payload, "centers", (list,)), dtype=float),
        seed=_field(payload, "seed", (int, type(None))),
    )


def save_covering(code: CoveringCode, path) -> None:
    """Write the code as self-describing JSON; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_covering_payload(code)) + "\n")


def load_covering(path) -> CoveringCode:
    with open(path, encoding="utf-8") as fh:
        return _covering_from_payload(json.load(fh))
