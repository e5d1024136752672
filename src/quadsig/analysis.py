"""Closed-form identification rate and exponent for memoryless Gaussian pairs.

Rates and exponents are in bits per symbol (base-2 logs); the chi-square
deviation exponent keeps its natural log inside, per its definition
E_Z(rho) = (rho - 1 - ln rho) / (2 ln 2).

The identification exponent at rate R is the minimum over scale factors
rho_x, rho_y > 0, with z1 = rho_x sigma_x2 and z2 = rho_y sigma_y2, of

    E_Z(rho_x) + E_Z(rho_y) - log2 sin min(pi/2, arcsin 2^-R + arccos c),
    c = (z1 + z2 - d) / (2 sqrt(z1 z2)),

subject to |sqrt(z1) - sqrt(z2)| <= sqrt(d) and z1 + z2 >= d.  `_program`
evaluates it, and `_minimize` solves it by a grid scan refined by compass
search: in (rho_x, rho_y) for `id_exponent`, along rho_x = rho_y for
`id_exponent_symmetric`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError

__all__ = [
    "GaussianPair",
    "ExponentSolution",
    "TestChannel",
    "id_rate",
    "id_rate_symmetric",
    "chi_square_exponent",
    "angle_probability_exponent",
    "id_exponent",
    "id_exponent_symmetric",
    "similarity_exponent",
    "gaussian_test_channel",
    "test_channel_moments",
    "test_channel_rate_bound",
    "test_channel_constraint_gap",
]


@dataclass(frozen=True)
class GaussianPair:
    """Variances of the two independent i.i.d. Gaussian sources.

    Means are equal and irrelevant: the quadratic similarity measure is
    translation invariant.
    """

    sigma_x2: float
    sigma_y2: float

    def __post_init__(self):
        if not (self.sigma_x2 > 0.0 and math.isfinite(self.sigma_x2)):
            raise ValueError("sigma_x2 must be positive and finite")
        if not (self.sigma_y2 > 0.0 and math.isfinite(self.sigma_y2)):
            raise ValueError("sigma_y2 must be positive and finite")

    @property
    def swap(self) -> "GaussianPair":
        return GaussianPair(self.sigma_y2, self.sigma_x2)


@dataclass(frozen=True)
class ExponentSolution:
    """Value and minimizer of the identification-exponent program; the two
    flags report whether the minimizer sits on the closure of the difference
    constraint, |sqrt(z1) - sqrt(z2)| = sqrt(d), or of the sum, z1 + z2 = d."""

    value: float
    rho_x: float
    rho_y: float
    on_difference_boundary: bool = False
    on_sum_boundary: bool = False


@dataclass(frozen=True)
class TestChannel:
    """Scaled-and-noised channel x_hat = gain * sqrt(sigma_y/sigma_x) * x + z."""

    gain: float
    noise_var: float


def id_rate(pair: GaussianPair, d: float) -> float:
    """Identification rate in bits per symbol; may be math.inf.

    0 below the variance-mismatch floor, log2(2 s_x s_y / (s_x^2 + s_y^2 - d))
    in the middle regime, and infinite once similarity becomes typical.
    """
    if not d >= 0.0:
        raise ValueError(f"d must be nonnegative, not {d}")
    sx = math.sqrt(pair.sigma_x2)
    sy = math.sqrt(pair.sigma_y2)
    if d < (sx - sy) ** 2:
        return 0.0
    if d >= pair.sigma_x2 + pair.sigma_y2:
        return math.inf
    return math.log2(2.0 * sx * sy / (pair.sigma_x2 + pair.sigma_y2 - d))


def id_rate_symmetric(sigma2: float, d: float) -> float:
    """Identification rate when both sources share variance sigma2."""
    return id_rate(GaussianPair(sigma2, sigma2), d)


def _check_rate(pair: GaussianPair, d: float, rate: float) -> None:
    """Refuse d outside ((sigma_x - sigma_y)^2, sigma_x2 + sigma_y2) and a rate
    at or below the identification rate: there the identification exponent
    and an admissible scheme construction do not exist."""
    sx = math.sqrt(pair.sigma_x2)
    sy = math.sqrt(pair.sigma_y2)
    if not (sx - sy) ** 2 < d < pair.sigma_x2 + pair.sigma_y2:
        raise DomainError("need (sigma_x - sigma_y)^2 < d < sigma_x2 + sigma_y2")
    r_id = id_rate(pair, d)
    if not rate > r_id:
        raise PreconditionError(
            f"rate {rate} must exceed the identification rate {r_id:.6f}"
        )


def chi_square_exponent(rho: float) -> float:
    """Large-deviation rate, in bits, of a normalized chi-square at level rho.

    Nonnegative, convex, zero only at rho = 1.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    return float(_chi_square_exponents(rho))


def _chi_square_exponents(rho):
    """chi_square_exponent over positive scalars or arrays (no validation)."""
    return (rho - 1.0 - np.log(rho)) / (2.0 * math.log(2.0))


def angle_probability_exponent(rate: float, d: float, z1: float, z2: float) -> float:
    """-log2 sin of the (clamped) reach angle arcsin(2^-rate) + law-of-cosines
    angle for squared radii z1, z2 at threshold d.  Zero when the sum clamps
    at pi/2.
    """
    if z1 <= 0.0 or z2 <= 0.0:
        raise DomainError("need z1, z2 > 0")
    c = (z1 + z2 - d) / (2.0 * math.sqrt(z1 * z2))
    if not -1.0 <= c <= 1.0:
        raise DomainError(f"arccos argument {c:.6g} outside [-1, 1]")
    return float(_angle_exponents(rate, d, z1, z2))


def _angle_exponents(rate, d, z1, z2):
    """angle_probability_exponent over positive scalars or arrays z1, z2,
    with the arccos argument clamped to [-1, 1] (no validation)."""
    c = (z1 + z2 - d) / (2.0 * np.sqrt(z1 * z2))
    c = np.maximum(np.minimum(c, 1.0), -1.0)
    ang = np.minimum(math.pi / 2, math.asin(2.0 ** (-rate)) + np.arccos(c))
    return -np.log2(np.sin(ang))


def _program(pair: GaussianPair, d: float, rate: float, rx, ry):
    """The program's objective at positive scale factors rx, ry (scalars or
    broadcasting arrays), inf where (rx, ry) is infeasible."""
    z1, z2 = rx * pair.sigma_x2, ry * pair.sigma_y2
    feasible = (np.abs(np.sqrt(z1) - np.sqrt(z2)) <= math.sqrt(d)) & (z1 + z2 >= d)
    ez = _chi_square_exponents(rx) + _chi_square_exponents(ry)
    return np.where(feasible, ez + _angle_exponents(rate, d, z1, z2), np.inf)


def _refine(f, x, step, moves, tol):
    """Compass search from the point x = (rx, ry): try x + step * move for
    each move in order and keep every one that lowers f(*x); halve the step
    when none does, until it is at most tol.  Returns (f(*x), x) at the end."""
    best = f(*x)
    while step > tol:
        moved = False
        for dx, dy in moves:
            y = (x[0] + step * dx, x[1] + step * dy)
            v = f(*y)
            if v < best:
                best, x, moved = v, y, True
        if not moved:
            step /= 2.0
    return best, x


_BOUNDARY_TOL = 1e-7


def _minimize(pair, d, rate, rx, ry, rho_max, step, moves, tol) -> ExponentSolution:
    """Scan the program on the grid of broadcasting arrays rx, ry, then refine
    its best point within (0, rho_max]^2 by compass search."""
    obj = _program(pair, d, rate, rx, ry)
    k = np.unravel_index(int(np.argmin(obj)), obj.shape)
    if obj[k] == math.inf:
        raise RuntimeError("empty feasible grid; preconditions should prevent this")

    def f(rx, ry):
        inside = 0.0 < rx <= rho_max and 0.0 < ry <= rho_max
        return float(_program(pair, d, rate, rx, ry)) if inside else math.inf

    x0 = tuple(float(np.broadcast_to(r, obj.shape)[k]) for r in (rx, ry))
    value, (rx, ry) = _refine(f, x0, step, moves, tol)
    z1, z2 = rx * pair.sigma_x2, ry * pair.sigma_y2
    diff_gap = math.sqrt(d) - abs(math.sqrt(z1) - math.sqrt(z2))
    return ExponentSolution(
        value=value,
        rho_x=rx,
        rho_y=ry,
        on_difference_boundary=diff_gap <= _BOUNDARY_TOL * math.sqrt(d),
        on_sum_boundary=(z1 + z2) - d <= _BOUNDARY_TOL * max(d, 1.0),
    )


def id_exponent(
    pair: GaussianPair,
    d: float,
    rate: float,
    rho_max: float = 4.0,
    grid: int = 400,
) -> ExponentSolution:
    """Identification exponent: the program's minimum over (rho_x, rho_y).

    Dense [grid x grid] scan over (0, rho_max]^2 with the difference
    constraint treated as closed, followed by compass search along the axes
    to 1e-8 steps.  Objective accuracy ~1e-6 or better on smooth instances.
    """
    _check_rate(pair, d, rate)
    rhos = np.arange(1, grid + 1) * (rho_max / grid)
    axes = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
    return _minimize(
        pair, d, rate, rhos[:, None], rhos[None, :], rho_max, rho_max / grid, axes, 1e-8
    )


def id_exponent_symmetric(sigma2: float, d: float, rate: float) -> ExponentSolution:
    """Identification exponent for equal variances: the program's minimum
    along rho_x = rho_y = rho in [d/(2 sigma2), 1], by a 4001-point scan and
    compass search to 1e-12 steps."""
    pair = GaussianPair(sigma2, sigma2)
    _check_rate(pair, d, rate)
    rhos = np.linspace(d / (2.0 * sigma2), 1.0, 4001)
    step = float(rhos[1] - rhos[0])
    diagonal = ((1.0, 1.0), (-1.0, -1.0))
    return _minimize(pair, d, rate, rhos, rhos, 1.0, step, diagonal, 1e-12)


def similarity_exponent(pair: GaussianPair, d: float) -> float:
    """Exponential decay rate, in bits, of the probability that two
    independent draws are d-similar."""
    total = pair.sigma_x2 + pair.sigma_y2
    if not 0.0 < d <= total:
        raise DomainError("need 0 < d <= sigma_x2 + sigma_y2")
    return chi_square_exponent(d / total)


def gaussian_test_channel(sigma_x: float, sigma_y: float, d: float) -> TestChannel:
    """Explicit Gaussian channel meeting the admissibility constraint with
    equality and achieving the identification rate as its mutual-information
    bound.

    Arguments are standard deviations, not variances.
    """
    if sigma_x <= 0.0 or sigma_y <= 0.0:
        raise ValueError("standard deviations must be positive")
    if d <= (sigma_x - sigma_y) ** 2:
        raise DomainError("noise variance pole: need d > (sigma_x - sigma_y)^2")
    if d > sigma_x**2 + sigma_y**2:
        raise DomainError("need d <= sigma_x^2 + sigma_y^2")
    gain = ((sigma_x + sigma_y) ** 2 - d) / (2.0 * sigma_x * sigma_y)
    noise_var = (
        ((sigma_x + sigma_y) ** 2 - d)
        * (sigma_x**2 + sigma_y**2 - d) ** 2
        / (4.0 * sigma_x * sigma_y * (d - (sigma_x - sigma_y) ** 2))
    )
    return TestChannel(gain=gain, noise_var=noise_var)


def test_channel_moments(
    channel: TestChannel, sigma_x: float, sigma_y: float
) -> tuple[float, float]:
    """Square-root second moments (cross side, own side) of the channel:
    sqrt(E[(sqrt(sx/sy) Y - Xhat)^2]) and sqrt(E[(sqrt(sy/sx) X - Xhat)^2]).
    """
    rho, sz2 = channel.gain, channel.noise_var
    cross = math.sqrt(sigma_x * sigma_y * (1.0 + rho * rho) + sz2)
    own = math.sqrt(sigma_x * sigma_y * (1.0 - rho) ** 2 + sz2)
    return cross, own


def test_channel_rate_bound(
    channel: TestChannel, sigma_x: float, sigma_y: float
) -> float:
    """Mutual-information upper bound (1/2) log2((gain^2 sx sy + sz2) / sz2)."""
    rho, sz2 = channel.gain, channel.noise_var
    if sz2 <= 0.0:
        return math.inf
    return 0.5 * math.log2((rho * rho * sigma_x * sigma_y + sz2) / sz2)


def test_channel_constraint_gap(
    sigma_x: float, sigma_y: float, d: float, lhs: float, rhs: float
) -> float:
    """Slack lhs - rhs - sqrt(d - (sigma_x - sigma_y)^2) of the admissibility
    constraint for caller-supplied moment roots; nonnegative means admissible.
    """
    if d < (sigma_x - sigma_y) ** 2:
        raise DomainError("need d >= (sigma_x - sigma_y)^2")
    return lhs - rhs - math.sqrt(d - (sigma_x - sigma_y) ** 2)
