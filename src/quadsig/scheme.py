"""Signature assignment and query with zero false negatives by construction.

A signature names a covering-code center plus an amplitude shell; the cell of
every non-erasure signature is contained in a known thick cap, so the query
can answer "no" exactly when the whole cap is farther than sqrt(n*d) from the
query point.  Anything atypical, out of range, or not captured by the covering
degrades to the erasure symbol, which always answers "maybe".

Two modes:
  basic       one amplitude shell (the typical shell of half-width eta);
              everything outside it is erased.
  shape_gain  amplitude quantized into shells of equal per-symbol variance
              step eta up to sigma_max2 = n * sigma_x2; only amplitudes above
              that are erased.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from .analysis import GaussianPair, _check_rate
from .covering import CoveringCode, _covering_from_payload, _covering_payload, _field
from .covering import _TILE, _nearest, _theta0
from .errors import PreconditionError, _check_count, _check_real, _check_vector
from .geometry import CapSpec, _cap_distances, _expansion_cosine
from .geometry import expansion_cone_angle

__all__ = [
    "SchemeConfig",
    "Signature",
    "ERASURE",
    "Verdict",
    "SchemePlan",
    "assign_signature",
    "assign_many",
    "query",
    "query_many",
    "cell_cap",
    "rate_of",
    "plan_scheme",
    "save_scheme",
    "load_scheme",
]


@dataclass(frozen=True)
class SchemeConfig:
    n: int
    d: float
    sigma_x2: float
    eta: float
    mode: str = "basic"
    sigma_max2: float | None = None

    def __post_init__(self):
        _check_count(self.n, "n")
        _check_real(self.d, "d", 0.0)
        sigma_x2 = _check_real(self.sigma_x2, "sigma_x2", 0.0)
        if self.mode not in ("basic", "shape_gain"):
            raise ValueError("mode must be 'basic' or 'shape_gain'")
        # basic mode's one shell must keep a positive inner radius
        _check_real(self.eta, "eta", 0.0, sigma_x2 if self.mode == "basic" else math.inf)
        if self.mode == "shape_gain" and self.sigma_max2 is None:
            object.__setattr__(self, "sigma_max2", self.n * self.sigma_x2)
        if self.sigma_max2 is not None:
            _check_real(self.sigma_max2, "sigma_max2", 0.0)
        # past 2**53 shells the float floor(s2 / eta) cannot name every shell
        if self.mode == "shape_gain" and not self.sigma_max2 / self.eta <= 2.0**53:
            raise ValueError(
                f"eta {self.eta} makes more than 2**53 shells up to sigma_max2 {self.sigma_max2}")

    @property
    def num_shells(self) -> int:
        if self.mode == "basic":
            return 1
        return int(math.ceil(self.sigma_max2 / self.eta))

    def shell_radii(self, index):
        """(inner, outer) radius of amplitude shell `index`; an array of
        indices gives arrays of radii."""
        index = np.asarray(index)
        bad = (index < 0) | (index >= self.num_shells)
        if np.any(bad):
            raise ValueError(
                f"{np.count_nonzero(bad)} shell indices outside "
                f"[0, {self.num_shells}), the first {index[bad].flat[0]}"
            )
        if self.mode == "basic":
            inner2 = np.full(index.shape, self.n * (self.sigma_x2 - self.eta))
            outer2 = np.full(index.shape, self.n * (self.sigma_x2 + self.eta))
        else:
            inner2 = self.n * index * self.eta
            outer2 = self.n * (index + 1) * self.eta
        return np.sqrt(inner2), np.sqrt(outer2)


@dataclass(frozen=True)
class Signature:
    """Covering-center index plus amplitude-shell index, or the erasure symbol."""

    center_index: int | None = None
    shell_index: int | None = None

    def __post_init__(self):
        if self.center_index is not None or self.shell_index is not None:
            _check_count(self.center_index, "center_index", 0)
            _check_count(self.shell_index, "shell_index", 0)

    @property
    def is_erasure(self) -> bool:
        return self.center_index is None


ERASURE = Signature()


class Verdict(Enum):
    NO = "no"
    MAYBE = "maybe"


@dataclass(frozen=True)
class SchemePlan:
    """plan_scheme output: the config plus the covering target and the
    geometry that certifies the construction."""

    config: SchemeConfig
    d0: float
    theta0: float
    theta1: float
    theta_prime: float
    predicted_rate: float


def _check_same_n(config: SchemeConfig, code: CoveringCode) -> None:
    """Refuse a scheme and a covering of different dimensions."""
    if config.n != code.n:
        raise ValueError(f"scheme has n={config.n} but its covering has n={code.n}")


def assign_signature(config: SchemeConfig, code: CoveringCode, x) -> Signature:
    """Map x to (nearest center, amplitude shell), or to the erasure symbol.

    Erasure triggers when the amplitude is out of range for the mode, or when
    the nearest center sits farther than theta0 (a covering gap).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (config.n,):
        raise ValueError(f"expected a vector of dimension {config.n}")
    centers_idx, shells, erased = assign_many(config, code, x[None, :])
    if erased[0]:
        return ERASURE
    return Signature(center_index=int(centers_idx[0]), shell_index=int(shells[0]))


def cell_cap(config: SchemeConfig, code: CoveringCode, sig: Signature) -> CapSpec:
    """Thick cap certified to contain the cell of a non-erasure signature."""
    if sig.is_erasure:
        raise ValueError("the erasure symbol has no cell cap")
    _check_same_n(config, code)
    _check_count(sig.center_index, "center_index", 0, code.size - 1)
    inner, outer = config.shell_radii(sig.shell_index)
    return CapSpec(
        axis=code.centers[sig.center_index],
        half_angle=code.theta0,
        inner_radius=inner,
        outer_radius=outer,
    )


def query(config: SchemeConfig, code: CoveringCode, sig: Signature, y) -> Verdict:
    """Exact admissible query: "no" only when every point of the signature's
    cap is farther than sqrt(n*d) from y."""
    y = _check_vector(y, "y")
    if y.shape != (config.n,):
        raise ValueError(f"expected a vector of dimension {config.n}")
    if sig.is_erasure:
        return Verdict.MAYBE
    maybe = query_many(config, code, np.array([sig.center_index]),
                       np.array([sig.shell_index]), np.array([False]), y[None, :])
    return Verdict.MAYBE if maybe[0] else Verdict.NO


def assign_many(
    config: SchemeConfig, code: CoveringCode, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized assign_signature over the rows of X, an (rows, n) array.

    Returns (center_idx, shell_idx, erased); center/shell entries are
    meaningless where erased is set.  Rows erased by amplitude (out of range,
    zero or non-finite) are never searched and carry center 0; only the
    surviving rows, packed together, go through the nearest-center kernel,
    gathered and normalized _TILE at a time, so that no temporary holds more
    than _TILE rows of X.  The kernel screens one tile per call, and the
    center it gives a row is the float64 product's argmax for that row
    alone, so every center is that of one search over all the packed rows.
    """
    _check_same_n(config, code)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != config.n:
        raise ValueError(f"expected X of shape (rows, {config.n}), not {X.shape}")
    m = X.shape[0]
    norm2 = np.einsum("ij,ij->i", X, X)
    s2 = norm2 / config.n
    erased = (norm2 == 0.0) | ~np.isfinite(norm2)
    if config.mode == "basic":
        erased |= (s2 < config.sigma_x2 - config.eta) | (
            s2 > config.sigma_x2 + config.eta
        )
        shells = np.zeros(m, dtype=np.int64)
    else:
        erased |= s2 > config.sigma_max2
        # erased rows get shell 0, so NaN and inf are never cast to int64
        shells = np.minimum(
            np.floor(np.where(erased, 0.0, s2) / config.eta).astype(np.int64),
            config.num_shells - 1,
        )

    live = np.flatnonzero(~erased)
    centers_idx = np.zeros(m, dtype=np.int64)
    for r0 in range(0, live.size, _TILE):
        rows = live[r0 : r0 + _TILE]
        units = X[rows]
        units /= np.sqrt(norm2[rows])[:, None]
        centers_idx[rows], cos_best = _nearest(code._units, units)
        erased[rows] = cos_best < code.cos_theta0
    return centers_idx, shells, erased


def query_many(
    config: SchemeConfig,
    code: CoveringCode,
    centers_idx: np.ndarray,
    shells_idx: np.ndarray,
    erased: np.ndarray,
    Y: np.ndarray,
) -> np.ndarray:
    """Vectorized query over signature/query-point rows; True means maybe.
    Y holds one query point of dimension n per signature.

    A row whose query point is not finite, or so large that its squared norm
    overflows, answers maybe without reaching the cap-distance formula.  The
    other live rows reach it _TILE at a time, so that no temporary holds more
    than _TILE rows of Y; each row's distance is computed on its own, so the
    answers are those of one call on every live row.
    erased and the integer index arrays must be 1-D, one entry per signature,
    and a row not marked erased must name a center in [0, code.size).
    """
    _check_same_n(config, code)
    Y = np.asarray(Y, dtype=float)
    erased = np.asarray(erased, dtype=bool)
    if erased.ndim != 1:
        raise ValueError(f"expected a 1-D erased, not shape {erased.shape}")
    if Y.shape != (len(erased), config.n):
        raise ValueError(
            f"expected Y of shape ({len(erased)}, {config.n}), one row per "
            f"signature, not {Y.shape}"
        )
    centers_idx, shells_idx = np.asarray(centers_idx), np.asarray(shells_idx)
    for name, idx in (("centers_idx", centers_idx), ("shells_idx", shells_idx)):
        if idx.shape != (len(erased),) or idx.dtype.kind not in "iu":
            raise ValueError(f"expected {name} of shape ({len(erased)},) and an "
                             f"integer dtype, not {idx.shape} {idx.dtype}")
    signed = ~erased
    # reductions under where= copy nothing; a gathered copy per batch raised
    # the peak RSS of a basic-mode estimate by about 5 MB
    lo = centers_idx.min(where=signed, initial=0)
    hi = centers_idx.max(where=signed, initial=0)
    if lo < 0 or hi >= code.size:
        ci = centers_idx[signed]
        bad = (ci < 0) | (ci >= code.size)
        raise ValueError(
            f"{np.count_nonzero(bad)} center indices of live rows outside "
            f"[0, {code.size}), the first {ci[bad][0]}"
        )
    maybe = np.ones(Y.shape[0], dtype=bool)
    finite = np.isfinite(np.einsum("ij,ij->i", Y, Y))
    live = np.flatnonzero(signed & finite)
    inner, outer = config.shell_radii(shells_idx[live])
    for r0 in range(0, live.size, _TILE):
        tile = slice(r0, r0 + _TILE)
        rows = live[tile]
        dist = _cap_distances(Y[rows], code._units[centers_idx[rows]], code.theta0,
                              inner[tile], outer[tile])
        # written so that a NaN distance would still land on "maybe"
        maybe[rows] = ~(dist > math.sqrt(config.n * config.d))
    return maybe


def rate_of(config: SchemeConfig, code: CoveringCode) -> float:
    """Signature rate in bits per symbol, counting the erasure symbol."""
    return math.log2(code.size * config.num_shells + 1) / config.n


def plan_scheme(
    pair: GaussianPair,
    d: float,
    target_rate: float,
    n: int,
    epsilon: float,
    mode: str = "basic",
) -> SchemePlan:
    """Choose the shell half-width eta and covering distortion d0 for a
    d-admissible scheme at blocklength n.

    eta is the largest value in (0, sigma_x2/4] keeping the shrunken
    law-of-cosines bracket above (1 - epsilon) of its eta = 0 value; d0 is the
    midpoint of ((1 - epsilon) sigma_x2 b^2, sigma_x2 b^2) for that bracket b.
    The resulting cone angle theta0 + theta1 is provably below pi/2.
    """
    _check_real(epsilon, "epsilon", 0.0, 1.0)
    _check_rate(pair, d, target_rate)

    def bracket(eta: float) -> float:
        return _expansion_cosine(d, pair.sigma_x2, pair.sigma_y2, eta)

    b0 = bracket(0.0)
    floor = (1.0 - epsilon) * b0 * b0
    eta_hi = pair.sigma_x2 / 4.0
    if bracket(eta_hi) > 0.0 and bracket(eta_hi) ** 2 > floor:
        eta = eta_hi
    else:
        lo, hi = 0.0, eta_hi
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if bracket(mid) > 0.0 and bracket(mid) ** 2 > floor:
                lo = mid
            else:
                hi = mid
        eta = lo * (1.0 - 1e-12)
    if eta <= 0.0:
        raise RuntimeError("no feasible eta; preconditions should prevent this")

    b = bracket(eta)
    d0 = (1.0 - epsilon / 2.0) * pair.sigma_x2 * b * b
    theta0 = _theta0(pair.sigma_x2, d0)
    expansion = expansion_cone_angle(d, pair.sigma_x2, pair.sigma_y2, eta, theta0)
    if not expansion.acute:
        raise RuntimeError("cone angle reached pi/2; construction invariant broken")

    config = SchemeConfig(n=n, d=d, sigma_x2=pair.sigma_x2, eta=eta, mode=mode)
    predicted = 0.5 * math.log2(pair.sigma_x2 / d0) + math.log2(config.num_shells) / n
    if predicted > target_rate:
        raise PreconditionError(
            f"predicted rate {predicted:.6f} exceeds target {target_rate:.6f}; "
            "raise the target rate or adjust epsilon (smaller epsilon tightens "
            "the covering term, larger epsilon coarsens the amplitude shells)"
        )
    return SchemePlan(
        config=config,
        d0=d0,
        theta0=theta0,
        theta1=expansion.theta1,
        theta_prime=expansion.theta_prime,
        predicted_rate=predicted,
    )


def save_scheme(config: SchemeConfig, code: CoveringCode, path) -> None:
    """Persist a scheme config alongside its covering code in one JSON file."""
    scheme_part = {**asdict(config), "d0": code.d0}
    with open(path, "w", encoding="utf-8") as fh:
        payload = {"scheme": scheme_part, "covering": _covering_payload(code)}
        fh.write(json.dumps(payload) + "\n")


def load_scheme(path) -> tuple[SchemeConfig, CoveringCode]:
    """Read a save_scheme file; the scheme's n and d0 must match its covering."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    s = _field(payload, "scheme", (dict,))
    kinds = {"n": (int,), "mode": (str,), "sigma_max2": (int, float, type(None))}
    config = SchemeConfig(**{f.name: _field(s, f.name, kinds.get(f.name, (int, float)))
                             for f in fields(SchemeConfig)})
    code = _covering_from_payload(_field(payload, "covering", (dict,)))
    _check_same_n(config, code)
    if _field(s, "d0") != code.d0:
        raise ValueError(f"scheme has d0={s['d0']} but its covering has d0={code.d0}")
    return config, code
