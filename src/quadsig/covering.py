"""Codes that cover a sphere shell with balls, built by greedy random sampling.

Center placement: every center sits at radius sqrt(n (sigma2 - d0)) so that
its ball of radius sqrt(n d0) carves the largest possible cap out of the shell
of radius sqrt(n sigma2); a shell point is then covered iff its angle to some
center is at most theta0 = arcsin(sqrt(d0 / sigma2)).

The builder cannot certify complete coverage the way an explicit covering
construction can; the consuming scheme treats any uncovered direction as an
erasure, so coverage gaps cost extra maybe-mass, never correctness.

Building, verifying and signature assignment all search the centers through
the one row-tiled kernel `_nearest`.  Building and verifying only ask whether
a sample is covered, so a sample leaves their scan as soon as one center
covers it; only uncovered samples are searched against every center.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _check_vector, cap_fraction_bounds

__all__ = [
    "CoveringCode",
    "CoveringReport",
    "build_covering",
    "verify_covering",
    "nearest_center",
    "save_covering",
    "load_covering",
    "predicted_size_bounds",
    "overhead_budget",
]

_BATCH = 8192  # fixed so the sample stream is reproducible
_CENTER_CHUNK = 512  # keeps the cosine workspace small and reused
# Rows per GEMM: a (_TILE, _CENTER_CHUNK) cosine tile is 4 MB, small enough for
# the argmax to read it back from cache.  Callers with many rows always
# allocate a _TILE * _CENTER_CHUNK workspace, never one sized by their row
# count: one fixed size lets the allocator reuse a single block across calls
# instead of fragmenting the heap.
_TILE = 1024


def _nearest(units, m, block, buf, stop=None) -> tuple[np.ndarray, np.ndarray]:
    """(index, cosine) of the nearest of the first m unit centers for each
    row of a block of unit rows.

    Row-tiled: the block is walked in tiles of at most _TILE rows, and each
    center chunk's cosines land in a (rows, chunk) view of the flat workspace
    `buf` (at least min(rows, _TILE) * _CENTER_CHUNK floats), so the argmax
    runs along contiguous rows of a tile that is still in cache.  Ties break
    to the lowest index because only a strictly larger cosine replaces the
    incumbent.

    With a cosine threshold `stop`, a row whose best cosine has reached it
    after a center chunk is packed out of the tile and searched no further:
    it keeps the best (index, cosine) over the chunks searched so far, so its
    cosine is >= stop but not necessarily the largest.  A row that never
    reaches `stop` is searched against every center, so its index and cosine
    are exact.  Either way `best >= stop` holds exactly where a full search
    would give it.
    """
    b = block.shape[0]
    idx = np.zeros(b, dtype=np.int64)
    best = np.full(b, -2.0)
    for r0 in range(0, b, _TILE):
        tile = block[r0 : r0 + _TILE]
        t = tile.shape[0]
        rows = np.arange(t)
        tidx, tbest = idx[r0 : r0 + t], best[r0 : r0 + t]
        live = None  # block positions of the tile's rows, once it has been packed
        for lo in range(0, m, _CENTER_CHUNK):
            k = min(_CENTER_CHUNK, m - lo)
            cos = buf[: t * k].reshape(t, k)
            np.dot(tile, units[lo : lo + k].T, out=cos)
            loc = cos.argmax(axis=1)
            val = cos[rows, loc]
            upd = val > tbest
            tidx[upd] = lo + loc[upd]
            tbest[upd] = val[upd]
            if stop is None or lo + k == m:
                continue
            keep = tbest < stop
            if keep.all():
                continue
            if live is None:
                live = np.arange(r0, r0 + t)
            idx[live], best[live] = tidx, tbest
            live = live[keep]
            tile, tidx, tbest = tile[keep], tidx[keep], tbest[keep]
            t = tile.shape[0]
            if t == 0:
                break
            rows = np.arange(t)
        if live is not None:
            idx[live], best[live] = tidx, tbest
    return idx, best


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
        if not 0.0 < self.d0 < self.sigma2:
            raise ValueError("need 0 < d0 < sigma2")
        centers = np.asarray(self.centers, dtype=float)
        if centers.ndim != 2 or centers.shape[1] != self.n or centers.shape[0] < 1:
            raise ValueError("centers must be a nonempty (m, n) array")
        norms = np.linalg.norm(centers, axis=1)
        if not np.allclose(norms, self.center_norm, rtol=1e-9, atol=0.0):
            raise ValueError(
                "every center must have norm sqrt(n * (sigma2 - d0))"
            )
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
        return math.asin(math.sqrt(self.d0 / self.sigma2))

    @property
    def cos_theta0(self) -> float:
        return math.sqrt((self.sigma2 - self.d0) / self.sigma2)

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
        if not 0.0 <= self.sampled_coverage <= 1.0:
            raise ValueError("sampled_coverage must lie in [0, 1]")
        if self.rate < 0.0:
            raise ValueError("rate must be nonnegative")


def overhead_budget(n: int) -> float:
    """Engineering slack allowed on top of the half-log rate bound."""
    return (3.0 * math.log2(n) + 10.0) / n


def predicted_size_bounds(n: int, sigma2: float, d0: float) -> tuple[float, float]:
    """(min, max) plausible center counts from the cap-fraction bounds.

    The minimum is certified (no covering can use fewer than 1/upper caps);
    the maximum is the reciprocal lower bound, an optimistic ceiling only.
    """
    theta0 = math.asin(math.sqrt(d0 / sigma2))
    b = cap_fraction_bounds(theta0, n)
    return 1.0 / b.upper, 1.0 / b.lower


def build_covering(
    n: int, sigma2: float, d0: float, seed: int, audit_samples: int = 100_000
) -> CoveringCode:
    """Greedy-incremental covering of the shell of radius sqrt(n sigma2).

    Repeatedly samples uniform shell points; any sample farther than
    sqrt(n d0) from all current centers becomes a new center direction.
    Stops once `audit_samples` consecutive samples land covered.
    Deterministic given (n, sigma2, d0, seed, audit_samples).
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not 0.0 < d0 < sigma2:
        raise ValueError("need 0 < d0 < sigma2")
    if audit_samples < 1:
        raise ValueError("audit_samples must be at least 1")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cos_thr = math.sqrt((sigma2 - d0) / sigma2)
    cap = 1024
    units = np.empty((cap, n))
    buf = np.empty(_TILE * _CENTER_CHUNK)
    m = 0
    consec = 0
    done = False
    while not done:
        block = rng.standard_normal((_BATCH, n))
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        best = _nearest(units, m, block, buf, stop=cos_thr)[1]
        misses = np.flatnonzero(best < cos_thr)
        start_m = m
        pos = 0
        for i in misses:
            run = int(i) - pos
            if consec + run >= audit_samples:
                done = True
                break
            consec += run
            # re-check against centers added earlier in this same batch
            if m > start_m and (units[start_m:m] @ block[i]).max() >= cos_thr:
                consec += 1  # a full run is caught by the next run check
            else:
                consec = 0
                if m == cap:
                    cap *= 2
                    grown = np.empty((cap, n))
                    grown[:m] = units[:m]
                    units = grown
                units[m] = block[i]
                m += 1
            pos = int(i) + 1
        if not done:
            run = _BATCH - pos
            if consec + run >= audit_samples:
                done = True
            else:
                consec += run

    centers = units[:m] * math.sqrt(n * (sigma2 - d0))
    return CoveringCode(n=n, sigma2=sigma2, d0=d0, centers=centers, seed=seed)


def verify_covering(code: CoveringCode, samples: int, seed: int) -> CoveringReport:
    """Empirical coverage check on fresh uniform shell samples."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cos_thr = code.cos_theta0
    buf = np.empty(_TILE * _CENTER_CHUNK)
    covered = 0
    remaining = samples
    while remaining > 0:
        b = min(_BATCH, remaining)
        block = rng.standard_normal((b, code.n))
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        _, cos = _nearest(code._units, code.size, block, buf, stop=cos_thr)
        covered += int((cos >= cos_thr).sum())
        remaining -= b
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
    block = (x / np.linalg.norm(x))[None, :]
    idx, cos = _nearest(code._units, code.size, block, np.empty(_CENTER_CHUNK))
    return int(idx[0]), math.acos(min(1.0, max(-1.0, float(cos[0]))))


def _covering_payload(code: CoveringCode) -> dict:
    """The JSON object that describes a code; floats round-trip exactly."""
    return {
        "n": code.n,
        "sigma2": code.sigma2,
        "d0": code.d0,
        "seed": code.seed,
        "centers": code.centers.tolist(),
    }


def _covering_from_payload(payload: dict) -> CoveringCode:
    return CoveringCode(
        n=int(payload["n"]),
        sigma2=payload["sigma2"],
        d0=payload["d0"],
        centers=np.asarray(payload["centers"], dtype=float),
        seed=payload.get("seed"),
    )


def save_covering(code: CoveringCode, path) -> None:
    """Write the code as self-describing JSON; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_covering_payload(code), fh)
        fh.write("\n")


def load_covering(path) -> CoveringCode:
    with open(path, encoding="utf-8") as fh:
        return _covering_from_payload(json.load(fh))
