"""Closed-form identification rate and exponent for memoryless Gaussian pairs.

Rates and exponents are in bits per symbol (base-2 logs); the chi-square
deviation exponent keeps its natural log inside, per its definition
E_Z(rho) = (rho - 1 - ln rho) / (2 ln 2).

The identification exponent at rate R is the minimum over scale factors
rho_x, rho_y > 0, with z1 = rho_x sigma_x2 and z2 = rho_y sigma_y2, of

    E_Z(rho_x) + E_Z(rho_y) - log2 sin min(pi/2, arcsin 2^-R + arccos c),
    c = (z1 + z2 - d) / (2 sqrt(z1 z2)),

subject to |sqrt(z1) - sqrt(z2)| <= sqrt(d) and z1 + z2 >= d.  `_minimize`
solves it by a grid scan refined by compass search: in (rho_x, rho_y) for
`id_exponent`, along rho_x = rho_y for `id_exponent_symmetric`.  The scan
evaluates `_program` over arrays twice: on every 8th row and column, then
on the rows and columns where a lower bound, the chi-square sum plus
`_angle_floor` (the least angle term over a row or column), can still reach
the minimum.  At the 12 perfbench points it keeps 81 to 3,956 of the
160,000 cells, against up to 100,489 with the chi-square sum alone.

The compass search evaluates the program one point at a time, thousands of
times on a hard instance, with `_program_at`.  numpy spends 10-15 us on
such a point, most of it in per-call overhead on 0-d inputs, so
`_program_at` does the correctly rounded steps (products, sums, quotients,
sqrt, abs, min, max and the feasibility tests) on Python floats, where they
give the same bits.  log, arccos, sin and log2 stay numpy's: its float64
results differ from `math`'s on some arguments.  Each value then equals the
array program's bit for bit, so the compass path and every solution bit are
those of the array program, at about a third of the cost.  The path
revisits points and coordinates, so each point, and E_Z at each coordinate,
is evaluated once: 2,378 points for 3,297 visits at the slowest one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, _check_count, _check_real

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
        _check_real(self.sigma_x2, "sigma_x2", 0.0)
        _check_real(self.sigma_y2, "sigma_y2", 0.0)

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

    def __post_init__(self):
        _check_real(self.gain, "gain")
        _check_real(self.noise_var, "noise_var", 0.0, ends="[)")


def id_rate(pair: GaussianPair, d: float) -> float:
    """Identification rate in bits per symbol; may be math.inf.

    0 below the variance-mismatch floor, log2(2 s_x s_y / (s_x^2 + s_y^2 - d))
    in the middle regime, and infinite once similarity becomes typical.
    """
    _check_real(d, "d", 0.0, ends="[)")
    sx, sy = math.sqrt(pair.sigma_x2), math.sqrt(pair.sigma_y2)
    if d < (sx - sy) ** 2:
        return 0.0
    if d >= pair.sigma_x2 + pair.sigma_y2:
        return math.inf
    # at 0 when rounding puts the quotient below 1, as at variances 1e300
    return max(0.0, math.log2(2.0 * sx * sy / (pair.sigma_x2 + pair.sigma_y2 - d)))


def id_rate_symmetric(sigma2: float, d: float) -> float:
    """Identification rate when both sources share variance sigma2."""
    return id_rate(GaussianPair(sigma2, sigma2), d)


def _check_rate(pair: GaussianPair, d: float, rate: float) -> None:
    """Refuse d outside ((sigma_x - sigma_y)^2, sigma_x2 + sigma_y2) and a rate
    at or below the identification rate: there the identification exponent
    and an admissible scheme construction do not exist; and a rate at which
    2^-rate underflows to 0, where the reach angle arcsin 2^-rate vanishes."""
    sx, sy = math.sqrt(pair.sigma_x2), math.sqrt(pair.sigma_y2)
    _check_real(d, "d", (sx - sy) ** 2, pair.sigma_x2 + pair.sigma_y2, error=DomainError)
    rate, r_id = _check_real(rate, "rate", error=PreconditionError), id_rate(pair, d)
    if not rate > r_id:
        raise PreconditionError(
            f"rate {rate} must exceed the identification rate {r_id:.6f}")
    if 2.0**-rate == 0.0:
        raise PreconditionError(f"2^-rate underflows to 0 at rate {rate}")


def chi_square_exponent(rho: float) -> float:
    """Large-deviation rate, in bits, of a normalized chi-square at level rho.

    Nonnegative, convex, zero only at rho = 1.
    """
    return float(_chi_square_exponents(_check_real(rho, "rho", 0.0)))


def _chi_square_exponents(rho):
    """chi_square_exponent over positive scalars or arrays (no validation)."""
    return (rho - 1.0 - np.log(rho)) / (2.0 * math.log(2.0))


def angle_probability_exponent(rate: float, d: float, z1: float, z2: float) -> float:
    """-log2 sin of the (clamped) reach angle arcsin(2^-rate) + law-of-cosines
    angle for squared radii z1, z2 at threshold d.  Zero when the sum clamps
    at pi/2.  A rate of inf, or one at which 2^-rate underflows to 0, gives
    the R -> inf limit, which is inf when the cosine is exactly 1.
    """
    if rate != math.inf:
        _check_real(rate, "rate", 0.0, ends="[)", error=DomainError)
    _check_real(d, "d", error=DomainError)
    _check_real(z1, "z1", 0.0, error=DomainError)
    _check_real(z2, "z2", 0.0, error=DomainError)
    # sqrt(z1) sqrt(z2), not sqrt(z1 z2): the product of tiny radii underflows
    c = (z1 + z2 - d) / (2.0 * math.sqrt(z1) * math.sqrt(z2))
    c = _check_real(c, "arccos argument", -1.0, 1.0, "[]", DomainError)
    with np.errstate(divide="ignore"):  # -log2 sin 0 = inf
        return float(_angle_term(math.asin(2.0 ** (-rate)), c, min))


def _angle_term(reach, c, minimum=np.minimum):
    """-log2 sin min(pi/2, reach + arccos c): the angle term at the reach
    angle arcsin 2^-rate and a cosine c in [-1, 1], over arrays, or over
    floats with minimum=min (no validation)."""
    return -np.log2(np.sin(minimum(math.pi / 2, reach + np.arccos(c))))


def _angle_exponents(rate, d, z1, z2):
    """angle_probability_exponent over positive scalars or arrays z1, z2,
    with the arccos argument clamped to [-1, 1] (no validation)."""
    c = (z1 + z2 - d) / (2.0 * np.sqrt(z1 * z2))
    return _angle_term(math.asin(2.0 ** (-rate)), np.maximum(np.minimum(c, 1.0), -1.0))


def _angle_floor(rate, d, z):
    """The least angle term over a row (or column) at squared radius z: c is
    least at the other radius z - d, where it is sqrt(1 - d/z), or at 0 when
    z <= d, and the term grows with c.  c is lowered by 2^-30 against
    rounding: a cell's float c errs by at most (K + 4) 2^-53 with
    K = (z1 + z2) / (2 sqrt(z1 z2)), under 2^-30 for K < 2^22, and K c <= 1
    where c is least, so a larger K leaves the term flat to the scan's margin."""
    c = np.sqrt(np.maximum(z - d, 0.0) / z) - 2.0**-30
    return _angle_term(math.asin(2.0 ** (-rate)), c)


def _program(pair: GaussianPair, d: float, rate: float, rx, ry):
    """The program's objective at positive scale factors rx, ry, inf where
    (rx, ry) is infeasible: the chi-square sum plus the angle term, which is
    >= 0.  It serves the scan's broadcasting arrays; the refiner evaluates
    one point at a time with `_program_at`, which reproduces it bit for bit."""
    z1, z2 = rx * pair.sigma_x2, ry * pair.sigma_y2
    feasible = (np.abs(np.sqrt(z1) - np.sqrt(z2)) <= math.sqrt(d)) & (z1 + z2 >= d)
    ez = _chi_square_exponents(rx) + _chi_square_exponents(ry)
    return np.where(feasible, ez, np.inf) + _angle_exponents(rate, d, z1, z2)


def _program_at(pair: GaussianPair, d: float, rate: float):
    """The program as a function of one point (rx, ry) of positive floats,
    equal bit for bit to float(_program(pair, d, rate, rx, ry)): the same
    operations in the same order, the correctly rounded ones on floats.  A
    point where z1 z2 under- or overflows is left to `_program`."""
    sx2, sy2, root_d = pair.sigma_x2, pair.sigma_y2, math.sqrt(d)
    reach = math.asin(2.0 ** (-rate))
    ez = functools.cache(_chi_square_exponents)  # each rx and ry recurs on the path

    def program(rx, ry):
        z1, z2 = rx * sx2, ry * sy2
        if not 0.0 < z1 * z2 < math.inf:  # 0 or inf: float / and min depart from numpy
            return float(_program(pair, d, rate, rx, ry))
        if abs(math.sqrt(z1) - math.sqrt(z2)) > root_d or z1 + z2 < d:
            return math.inf
        c = (z1 + z2 - d) / (2.0 * math.sqrt(z1 * z2))
        return float(ez(rx) + ez(ry) + _angle_term(reach, max(min(c, 1.0), -1.0), min))

    return program


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
_COARSE = 8  # the scan's first threshold comes from every 8th row and column


def _minimize(pair, d, rate, rx, ry, rho_max, step, moves, tol) -> ExponentSolution:
    """Scan the program on the grid of ascending broadcasting arrays rx, ry,
    then refine its first best cell, in C order, within (0, rho_max]^2 by
    compass search, evaluating each point once.  The scan takes t, the least
    program on every `_COARSE`th row and column, a value the grid attains,
    then evaluates the program once, on the rows with E_Z(rx) + A(z1) +
    min E_Z(ry) <= t, A being `_angle_floor`, and the columns likewise.  The
    program is at least that sum and rounded addition is monotone, so no
    dropped row or column can tie the grid's minimum, and the pick is the
    full scan's.  Along the diagonal rx is ry, so the two masks agree."""
    z = [float(rx.flat[k]) * pair.sigma_x2 * (float(ry.flat[k]) * pair.sigma_y2) for k in (0, -1)]
    if not 2.0**-1022 <= z[0] <= z[1] < math.inf:
        raise DomainError(f"z1 z2 spans {z} on the grid, past the normal double range")
    coarse = [np.ascontiguousarray(r) for r in (rx[::_COARSE], ry[..., ::_COARSE])]
    t = np.min(_program(pair, d, rate, *coarse))
    # far past an ulp of log, arccos, sin or log2, so rounding that depends on
    # layout, or A's, can only keep more; a nan or inf t keeps everything
    t = t + 2.0**-40 * (1.0 + t)
    ex, ey = _chi_square_exponents(rx), _chi_square_exponents(ry)
    ax, ay = _angle_floor(rate, d, rx * pair.sigma_x2), _angle_floor(rate, d, ry * pair.sigma_y2)
    rx, ry = rx[~(ex + ax + np.min(ey) > t).ravel()], ry[..., ~(ey + ay + np.min(ex) > t).ravel()]
    obj = _program(pair, d, rate, rx, ry)
    if np.min(obj, initial=math.inf) == math.inf:
        raise DomainError(f"no feasible grid cell: rho_max = {rho_max} is too small")
    program = _program_at(pair, d, rate)

    @functools.cache  # the compass path revisits points: evaluate each once
    def f(rx, ry):
        inside = 0.0 < rx <= rho_max and 0.0 < ry <= rho_max
        return program(rx, ry) if inside else math.inf

    x0 = tuple(float(np.broadcast_to(r, obj.shape).flat[np.argmin(obj)]) for r in (rx, ry))
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

    Scan of the [grid x grid] lattice over (0, rho_max]^2, cut to the
    sub-grid that can hold the minimum, with the difference constraint
    closed, then compass search along the axes to 1e-8 steps.  Objective
    accuracy ~1e-6 or better on smooth instances.
    The rate must be finite: a rate at which 2^-rate underflows to 0 (rate
    >= 1075, a limit of the double format) is refused, not taken as R -> inf,
    and so is a grid on which z1 z2 leaves the normal double range.
    """
    _check_rate(pair, d, rate)
    grid = _check_count(grid, "grid")
    rho_max = _check_real(rho_max, "rho_max", 0.0)
    # the last cell may round past rho_max, where the refiner's objective is inf
    rhos = np.minimum(np.arange(1, grid + 1) * (rho_max / grid), rho_max)
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
    return chi_square_exponent(_check_real(d, "d", 0.0, total, "(]", DomainError) / total)


def gaussian_test_channel(sigma_x: float, sigma_y: float, d: float) -> TestChannel:
    """Explicit Gaussian channel meeting the admissibility constraint with
    equality and achieving the identification rate as its mutual-information
    bound.

    Arguments are standard deviations, not variances.
    """
    _check_real(sigma_x, "sigma_x", 0.0)
    _check_real(sigma_y, "sigma_y", 0.0)
    _check_real(d, "d", (sigma_x - sigma_y) ** 2, sigma_x**2 + sigma_y**2, "(]", DomainError)
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
    _check_real(sigma_x, "sigma_x", 0.0)
    _check_real(sigma_y, "sigma_y", 0.0)
    rho, sz2 = channel.gain, channel.noise_var
    cross = math.sqrt(sigma_x * sigma_y * (1.0 + rho * rho) + sz2)
    own = math.sqrt(sigma_x * sigma_y * (1.0 - rho) ** 2 + sz2)
    return cross, own


def test_channel_rate_bound(
    channel: TestChannel, sigma_x: float, sigma_y: float
) -> float:
    """Mutual-information upper bound (1/2) log2((gain^2 sx sy + sz2) / sz2);
    math.inf for a noiseless channel."""
    _check_real(sigma_x, "sigma_x", 0.0)
    _check_real(sigma_y, "sigma_y", 0.0)
    rho, sz2 = channel.gain, channel.noise_var
    if sz2 == 0.0:
        return math.inf
    return 0.5 * math.log2((rho * rho * sigma_x * sigma_y + sz2) / sz2)


def test_channel_constraint_gap(
    sigma_x: float, sigma_y: float, d: float, lhs: float, rhs: float
) -> float:
    """Slack lhs - rhs - sqrt(d - (sigma_x - sigma_y)^2) of the admissibility
    constraint for caller-supplied moment roots; nonnegative means admissible.
    """
    _check_real(sigma_x, "sigma_x", 0.0)
    _check_real(sigma_y, "sigma_y", 0.0)
    _check_real(d, "d", (sigma_x - sigma_y) ** 2, ends="[)", error=DomainError)
    _check_real(lhs, "lhs")
    _check_real(rhs, "rhs")
    return lhs - rhs - math.sqrt(d - (sigma_x - sigma_y) ** 2)
