"""Codes that cover a sphere shell with balls, built by greedy random sampling.

Center placement: every center sits at radius sqrt(n (sigma2 - d0)) so that
its ball of radius sqrt(n d0) carves the largest possible cap out of the shell
of radius sqrt(n sigma2); a shell point is then covered iff its angle to some
center is at most theta0 = arcsin(sqrt(d0 / sigma2)).

The builder cannot certify complete coverage the way an explicit covering
construction can; the consuming scheme treats any uncovered direction as an
erasure, so coverage gaps cost extra maybe-mass, never correctness.

Building and verifying ask only whether a sample is covered; signature
assignment needs the nearest center itself.  The two questions have one
kernel each.  `_nearest` walks the samples in row tiles and searches every
center in float64.  `_covered` screens in float32, where GEMM runs about
twice as fast, and certifies in float64: a float32 cosine of two exactly
unit vectors lies within g = (n + 2) u / (1 - (n + 2) u), u = 2^-24, of the
exact one (the rounding of both inputs, then Higham's dot-product bound).
The band's half-width is gamma = 2 g.  The factor 2 is a margin for the two
gaps the bound leaves out, each far below g: the rows are unit only to
float64 rounding, and the answer to reproduce is the float64 product's, not
the exact cosine.  A sample whose float32 cosine to some center clears
cos theta0 + gamma is covered, and one whose float32 cosines all stay below
cos theta0 - gamma is not.  Only a sample left inside that band, which is
rare, is decided by a float64 product, so every decision is the float64 one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _check_vector, cap_fraction_bounds

__all__ = [
    "CoveringCode", "CoveringReport", "build_covering", "verify_covering",
    "nearest_center", "save_covering", "load_covering", "predicted_size_bounds",
    "overhead_budget",
]

_BATCH = 8192  # fixed so the sample stream is reproducible
_CENTER_CHUNK = 512  # keeps the cosine workspace small and reused
# Rows per GEMM: a (_TILE, _CENTER_CHUNK) cosine tile is 4 MB, so the argmax
# reads it back from cache.  Each search allocates one such workspace.
_TILE = 1024


def _nearest(units, m, block) -> tuple[np.ndarray, np.ndarray]:
    """(index, cosine) of the nearest of the first m unit centers for each
    row of a block of unit rows.  Ties break to the lowest index: only a
    strictly larger cosine replaces the incumbent.

    The block is walked in tiles of at most _TILE rows.  Each center chunk's
    cosines land in a (rows, chunk) view of one flat workspace, and their row
    argmax, read while the tile is in cache, updates the tile's `idx`/`best`.
    Whether a row is covered at all is `_covered`'s question, not this one's.
    """
    b = block.shape[0]
    idx = np.zeros(b, dtype=np.int64)
    best = np.full(b, -2.0)
    buf = np.empty(min(b, _TILE) * _CENTER_CHUNK)
    for r0 in range(0, b, _TILE):
        tile = block[r0 : r0 + _TILE]
        t = tile.shape[0]
        tidx, tbest, rows = idx[r0 : r0 + t], best[r0 : r0 + t], np.arange(t)
        for lo in range(0, m, _CENTER_CHUNK):
            k = min(_CENTER_CHUNK, m - lo)
            cos = buf[: t * k].reshape(t, k)
            np.dot(tile, units[lo : lo + k].T, out=cos)
            loc = cos.argmax(axis=1)
            val = cos[rows, loc]
            upd = val > tbest
            tidx[upd], tbest[upd] = lo + loc[upd], val[upd]
    return idx, best


def _reaches(units, rows, thr):
    """Whether some unit center reaches cosine thr, in float64, for each of
    the unit rows (or for one row given as a vector)."""
    return (units @ rows.T).max(axis=0) >= thr


def _covered(units, m, block, thr) -> np.ndarray:
    """Whether one of the first m unit centers reaches cosine thr, for
    each row of a block of unit rows; every answer is that of `_reaches`
    except for cosines within a few float64 ulps of thr.

    The screen casts the centers and the block to float32 and walks the tiles
    and chunks of `_nearest`.  A row leaves its tile as covered once its
    float32 cosine reaches `hi`, and joins the band once it reaches `lo`;
    hi and lo are thr +- gamma (module docstring), rounded outward to
    float32.  A band row that no center covered is re-decided by `_reaches`.
    """
    b, n = block.shape
    nu = (n + 2) * 2.0**-24
    gamma = 2.0 * nu / (1.0 - nu)
    hi = np.nextafter(np.float32(thr + gamma), np.float32(np.inf))
    lo = np.nextafter(np.float32(thr - gamma), np.float32(-np.inf))
    units32 = units[:m].astype(np.float32)
    block32 = block.astype(np.float32)
    buf = np.empty(min(b, _TILE) * _CENTER_CHUNK, dtype=np.float32)
    covered = np.zeros(b, dtype=bool)
    band = np.zeros(b, dtype=bool)
    for r0 in range(0, b, _TILE):
        tile = block32[r0 : r0 + _TILE]
        sel = np.arange(r0, r0 + tile.shape[0])
        for c0 in range(0, m, _CENTER_CHUNK):
            k = min(_CENTER_CHUNK, m - c0)
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
            covered[sel] = _reaches(units[:m], block[sel], thr)
    return covered


def _check_shell(sigma2: float, d0: float) -> None:
    """Raise a ValueError unless sigma2 and d0 are finite and 0 < d0 < sigma2."""
    for name, value in (("sigma2", sigma2), ("d0", d0)):
        if not math.isfinite(value):
            raise ValueError(f"{name!r} must be finite, not {value}")
    if not 0.0 < d0 < sigma2:
        raise ValueError("need 0 < d0 < sigma2")


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
        _check_shell(self.sigma2, self.d0)
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
    b = cap_fraction_bounds(_theta0(sigma2, d0), n)
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
    _check_shell(sigma2, d0)
    if audit_samples < 1:
        raise ValueError("audit_samples must be at least 1")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cos_thr = _cos_theta0(sigma2, d0)
    units = np.empty((1024, n))
    m = 0
    drawn = 0  # stream index of the block's first sample
    last = -1  # stream index of the newest center; every later sample is covered
    while drawn - last - 1 < audit_samples:
        block = rng.standard_normal((_BATCH, n))
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        covered = _covered(units, m, block, cos_thr)
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
        drawn += _BATCH

    centers = units[:m] * math.sqrt(n * (sigma2 - d0))
    return CoveringCode(n=n, sigma2=sigma2, d0=d0, centers=centers, seed=seed)


def verify_covering(code: CoveringCode, samples: int, seed: int) -> CoveringReport:
    """Empirical coverage check on fresh uniform shell samples."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    covered = 0
    for lo in range(0, samples, _BATCH):
        block = rng.standard_normal((min(_BATCH, samples - lo), code.n))
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        covered += int(_covered(code._units, code.size, block, code.cos_theta0).sum())
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
    idx, cos = _nearest(code._units, code.size, block)
    return int(idx[0]), math.acos(min(1.0, max(-1.0, float(cos[0]))))


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
        seed=payload.get("seed"),
    )


def save_covering(code: CoveringCode, path) -> None:
    """Write the code as self-describing JSON; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_covering_payload(code)) + "\n")


def load_covering(path) -> CoveringCode:
    with open(path, encoding="utf-8") as fh:
        return _covering_from_payload(json.load(fh))
