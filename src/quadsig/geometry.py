"""Exact and bounded computations on n-dimensional spherical caps and cones.

Angles are radians throughout.  A "thick cap" is the intersection of a cone
about an axis with the shell between two radii; it is the geometric footprint
of one signature cell, and the query test reduces to a point-to-cap distance,
computed for a whole batch of points by one vectorized function.  The exact
cap fraction is Li's (2011) closed form in the incomplete beta function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_count, _check_real, _check_vector

__all__ = [
    "CapSpec",
    "CapFractionBounds",
    "ExpansionAngle",
    "angle_between",
    "cap_fraction_bounds",
    "cap_fraction_exact",
    "law_of_cosines_angle",
    "expansion_cone_angle",
    "min_distance_to_thick_cap",
]


@dataclass(frozen=True)
class CapSpec:
    """Thick spherical cap: cone of `half_angle` about `axis`, radii in
    [inner_radius, outer_radius].

    inner_radius == 0 is allowed so the innermost amplitude shell (a cone
    sector reaching the origin) is representable; the origin, the sector's
    apex, is then in the cap.
    """

    axis: np.ndarray
    half_angle: float
    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        axis = _check_vector(self.axis, "axis")
        if not axis.any():
            raise ValueError("cap axis must be nonzero")
        object.__setattr__(self, "axis", axis)
        _check_real(self.half_angle, "half_angle", 0.0, math.pi, "[]")
        outer = _check_real(self.outer_radius, "outer_radius", 0.0, ends="[)")
        _check_real(self.inner_radius, "inner_radius", 0.0, outer, "[]")

    def contains(self, y) -> bool:
        y = _check_vector(y, "y")
        _, r, e = _scaled(y)
        with np.errstate(over="ignore"):  # a radius too large for y's frame reads inf
            inner, outer = np.ldexp([self.inner_radius, self.outer_radius], -e)
        if not inner <= r <= outer:
            return False
        # a zero y got here only with inner radius 0: the cone sector's apex
        return r == 0.0 or angle_between(y, self.axis) <= self.half_angle


@dataclass(frozen=True)
class CapFractionBounds:
    lower: float
    upper: float

    def __post_init__(self):
        upper = _check_real(self.upper, "upper", 0.0, 1.0, "[]")
        _check_real(self.lower, "lower", 0.0, upper, "[]")


@dataclass(frozen=True)
class ExpansionAngle:
    """Half-angle of a cone certified to contain the expanded cell.

    `acute` records whether theta_prime < pi/2, which the scheme construction
    needs for the cap fraction to decay.
    """

    theta1: float
    theta_prime: float
    acute: bool


def _scaled(x) -> tuple[np.ndarray, float, int]:
    """(x 2^-e, its norm, e) for the e that puts x's largest |coordinate| in
    [1/2, 1) (e = 0 for a zero x).  Power-of-two scaling is exact and the
    scaled norm neither overflows nor vanishes: a ratio of scaled dot
    products and norms has the bits of the unscaled ratio wherever that one
    is computed in the normal double range, and is right where it is not."""
    e = math.frexp(float(np.abs(x).max()))[1]
    x = np.ldexp(x, -e)
    return x, float(np.linalg.norm(x)), e


def angle_between(x, y) -> float:
    """Angle arccos(<x,y>/(|x||y|)) in [0, pi] between two nonzero vectors."""
    x = _check_vector(x, "x")
    y = _check_vector(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.size} vs {y.size}")
    x, nx, _ = _scaled(x)
    y, ny, _ = _scaled(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("angle undefined for zero vector")
    c = float(np.dot(x, y) / (nx * ny))
    # rounding can push |c| marginally above 1
    return math.acos(min(1.0, max(-1.0, c)))


def cap_fraction_bounds(theta: float, n: int) -> CapFractionBounds:
    """Two-sided bounds on the surface fraction of a cap of half-angle theta.

    Valid for 0 < theta < arccos(1/sqrt(n)); outside that range the bounds do
    not hold and a DomainError is raised rather than clamping.
    """
    n = _check_count(n, "n", 2, error=DomainError)
    _check_real(theta, "theta", 0.0, math.acos(1.0 / math.sqrt(n)), error=DomainError)
    s = math.sin(theta) ** (n - 1) / math.cos(theta)
    upper = s / math.sqrt(2.0 * math.pi * (n - 1))
    lower = s / (3.0 * math.sqrt(2.0 * math.pi * n))
    return CapFractionBounds(lower=lower, upper=upper)


def cap_fraction_exact(theta: float, n: int) -> float:
    """Surface fraction of a spherical cap of half-angle theta in dimension n.

    Li's closed form ("Concise formulas for the area and volume of a
    hyperspherical cap", 2011), I the regularized incomplete beta function:
    1/2 I_{sin^2 theta}((n - 1)/2, 1/2) up to pi/2, one minus that beyond.
    Near pi/2 the half-cap term is taken as the equal
    1/2 (1 - I_{cos^2 theta}(1/2, (n - 1)/2)), free of sin^2 theta's rounding.
    """
    n = _check_count(n, "n", 2, error=DomainError)
    theta = _check_real(theta, "theta", 0.0, math.pi, "[]", DomainError)
    # imported here: scipy would be most of `import quadsig`'s time
    from scipy.special import betainc, betaincc

    s2, c2, a = math.sin(theta) ** 2, math.cos(theta) ** 2, (n - 1) / 2.0
    half = 0.5 * float(betainc(a, 0.5, s2) if s2 <= c2 else betaincc(0.5, a, c2))
    return half if theta <= math.pi / 2 else 1.0 - half


def law_of_cosines_angle(z1: float, z2: float, d: float) -> float:
    """Angle at the origin of a triangle with squared side lengths z1, z2 and
    opposite squared side d (all normalized per dimension).

    Returns arccos((z1 + z2 - d) / (2 sqrt(z1) sqrt(z2))).
    """
    _check_real(z1, "z1", 0.0, error=DomainError)
    _check_real(z2, "z2", 0.0, error=DomainError)
    _check_real(d, "d", 0.0, ends="[)", error=DomainError)
    lo, hi = abs(math.sqrt(z1) - math.sqrt(z2)), math.sqrt(z1) + math.sqrt(z2)
    _check_real(math.sqrt(d), "sqrt(d) of a feasible triangle", lo, hi, "[]", DomainError)
    # sqrt(z1) sqrt(z2), not sqrt(z1 z2): the product of tiny radii underflows
    c = (z1 + z2 - d) / (2.0 * math.sqrt(z1) * math.sqrt(z2))
    return math.acos(min(1.0, max(-1.0, c)))


def _expansion_cosine(d: float, sigma_x2: float, sigma_y2: float, eta: float) -> float:
    """cos theta1 of the expansion cone: the law-of-cosines bracket shrunk by
    the amplitude-shell half-width eta, which plan_scheme also bisects on."""
    return (sigma_x2 + sigma_y2 - 2.0 * eta - d) / (
        2.0 * math.sqrt((sigma_x2 + eta) * (sigma_y2 + eta))
    )


def expansion_cone_angle(
    d: float, sigma_x2: float, sigma_y2: float, eta: float, theta0: float
) -> ExpansionAngle:
    """Cone half-angle containing the expansion of a typical-shell cap.

    theta1 is the largest possible angle between a cell point and a point of
    the query shell within distance sqrt(n*d); the expanded cell then lies in
    the cone of half-angle theta0 + theta1.
    """
    for name, value in (("d", d), ("sigma_x2", sigma_x2), ("sigma_y2", sigma_y2),
                        ("eta", eta)):
        _check_real(value, name, 0.0, error=DomainError)
    _check_real(theta0, "theta0", 0.0, math.pi / 2, error=DomainError)
    arg = _expansion_cosine(d, sigma_x2, sigma_y2, eta)
    theta1 = math.acos(_check_real(arg, "arccos argument", -1.0, 1.0, "[]", DomainError))
    theta_prime = theta0 + theta1
    return ExpansionAngle(
        theta1=theta1, theta_prime=theta_prime, acute=theta_prime < math.pi / 2
    )


def _cap_distances(Y, axes, half_angle, inner, outer) -> np.ndarray:
    """Minimum Euclidean distance from each row of Y to the thick cap about
    the matching unit row of `axes` (half-angle <= pi/2, radii broadcast).

    Reduces to polar coordinates in the plane spanned by the axis and y: the
    nearest cap point has angular coordinate min(beta, half_angle) and radial
    coordinate clamp(s cos(beta - phi*), inner, outer).  A zero row lies the
    inner radius away whatever its angle; a non-finite row gives NaN.
    """
    s = np.linalg.norm(Y, axis=1)
    s_safe = np.where(s > 0.0, s, 1.0)
    cosb = np.einsum("ij,ij->i", Y / s_safe[:, None], axes)
    beta = np.arccos(np.clip(cosb, -1.0, 1.0))
    delta = np.maximum(beta - half_angle, 0.0)
    r = np.clip(s * np.cos(delta), inner, outer)
    d2 = s * s + r * r - 2.0 * s * r * np.cos(delta)
    return np.sqrt(np.maximum(d2, 0.0))


def min_distance_to_thick_cap(y, cap: CapSpec) -> float:
    """Minimum Euclidean distance from a nonzero y to a thick cap with
    half-angle <= pi/2.

    Where |y|^2 or the outer radius squared would leave the normal double
    range, y and both radii are first scaled by the power of two that puts
    the larger of y's largest |coordinate| and the outer radius near 1, and
    the distance is scaled back: the scaling is exact.
    """
    if cap.half_angle > math.pi / 2:
        raise ValueError("half_angle above pi/2 is not supported")
    y = _check_vector(y, "y")
    if y.shape != cap.axis.shape:
        raise ValueError(f"dimension mismatch: {y.size} vs {cap.axis.size}")
    top = float(np.abs(y).max())
    if top == 0.0:
        raise ValueError("y must be nonzero")
    sizes = [top, cap.outer_radius] if cap.outer_radius > 0.0 else [top]
    in_range = 2.0**-500 < min(sizes) and max(sizes) < 2.0**500
    e = 0 if in_range else math.frexp(max(sizes))[1]
    axis, norm, _ = _scaled(cap.axis)
    d = _cap_distances(
        np.ldexp(y, -e)[None, :], (axis / norm)[None, :], cap.half_angle,
        math.ldexp(cap.inner_radius, -e), math.ldexp(cap.outer_radius, -e),
    )[0]
    with np.errstate(over="ignore"):  # a distance past the double range is inf
        return float(np.ldexp(d, e))
