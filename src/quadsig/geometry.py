"""Exact and bounded computations on n-dimensional spherical caps and cones.

Angles are radians throughout.  A "thick cap" is the intersection of a cone
about an axis with the shell between two radii; it is the geometric footprint
of one signature cell, and the query test reduces to a point-to-cap distance,
computed for a whole batch of points by one vectorized function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

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


def _check_vector(x, name: str = "vector") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"{name} must be a 1-D array with at least one coordinate")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has non-finite coordinates")
    return x


@dataclass(frozen=True)
class CapSpec:
    """Thick spherical cap: cone of `half_angle` about `axis`, radii in
    [inner_radius, outer_radius].

    inner_radius == 0 is allowed so the innermost amplitude shell (a cone
    sector reaching the origin) is representable.
    """

    axis: np.ndarray
    half_angle: float
    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        axis = _check_vector(self.axis, "axis")
        if np.linalg.norm(axis) <= 0.0:
            raise ValueError("cap axis must be nonzero")
        object.__setattr__(self, "axis", axis)
        if not 0.0 <= self.half_angle <= math.pi:
            raise ValueError("half_angle must lie in [0, pi]")
        if not 0.0 <= self.inner_radius <= self.outer_radius:
            raise ValueError("need 0 <= inner_radius <= outer_radius")

    def contains(self, y) -> bool:
        y = _check_vector(y, "y")
        r = np.linalg.norm(y)
        if not self.inner_radius <= r <= self.outer_radius:
            return False
        return angle_between(y, self.axis) <= self.half_angle


@dataclass(frozen=True)
class CapFractionBounds:
    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError("need 0 <= lower <= upper <= 1")


@dataclass(frozen=True)
class ExpansionAngle:
    """Half-angle of a cone certified to contain the expanded cell.

    `acute` records whether theta_prime < pi/2, which the scheme construction
    needs for the cap fraction to decay.
    """

    theta1: float
    theta_prime: float
    acute: bool


def angle_between(x, y) -> float:
    """Angle arccos(<x,y>/(|x||y|)) in [0, pi] between two nonzero vectors."""
    x = _check_vector(x, "x")
    y = _check_vector(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.size} vs {y.size}")
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
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
    if n < 2:
        raise DomainError("dimension must be at least 2")
    limit = math.acos(1.0 / math.sqrt(n))
    if not 0.0 < theta < limit:
        raise DomainError(
            f"theta={theta} outside the bound's hypothesis (0, {limit:.6f}) for n={n}"
        )
    s = math.sin(theta) ** (n - 1) / math.cos(theta)
    upper = s / math.sqrt(2.0 * math.pi * (n - 1))
    lower = s / (3.0 * math.sqrt(2.0 * math.pi * n))
    return CapFractionBounds(lower=lower, upper=upper)


def cap_fraction_exact(theta: float, n: int) -> float:
    """Surface fraction of a spherical cap of half-angle theta in dimension n.

    Computed by adaptive quadrature of the colatitude density sin^(n-2),
    normalized over [0, pi].  Absolute accuracy target 1e-10.
    """
    if n < 2:
        raise DomainError("dimension must be at least 2")
    if not 0.0 <= theta <= math.pi:
        raise DomainError("theta must lie in [0, pi]")
    if theta == 0.0:
        return 0.0
    # imported here so that `import quadsig` does not load scipy.integrate,
    # which would be most of its import time; no other path needs it
    from scipy.integrate import quad

    def dens(phi: float) -> float:
        return math.sin(phi) ** (n - 2)

    # the density concentrates at pi/2 for large n; flag it as a breakpoint
    pts = [math.pi / 2] if theta > math.pi / 2 else None
    num, _ = quad(dens, 0.0, theta, points=pts, epsabs=1e-13, epsrel=1e-13, limit=200)
    den, _ = quad(
        dens, 0.0, math.pi, points=[math.pi / 2], epsabs=1e-13, epsrel=1e-13, limit=200
    )
    return min(1.0, max(0.0, num / den))


def law_of_cosines_angle(z1: float, z2: float, d: float) -> float:
    """Angle at the origin of a triangle with squared side lengths z1, z2 and
    opposite squared side d (all normalized per dimension).

    Returns arccos((z1 + z2 - d) / (2 sqrt(z1 z2))).
    """
    if z1 <= 0.0 or z2 <= 0.0 or d < 0.0:
        raise DomainError("need z1, z2 > 0 and d >= 0")
    lo = abs(math.sqrt(z1) - math.sqrt(z2))
    hi = math.sqrt(z1) + math.sqrt(z2)
    sd = math.sqrt(d)
    if not lo <= sd <= hi:
        raise DomainError(f"infeasible triangle: need {lo:.6g} <= sqrt(d) <= {hi:.6g}")
    c = (z1 + z2 - d) / (2.0 * math.sqrt(z1 * z2))
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
    if eta <= 0.0:
        raise DomainError("eta must be positive")
    if not 0.0 < theta0 < math.pi / 2:
        raise DomainError("theta0 must lie in (0, pi/2)")
    arg = _expansion_cosine(d, sigma_x2, sigma_y2, eta)
    if not -1.0 <= arg <= 1.0:
        raise DomainError(f"arccos argument {arg:.6g} outside [-1, 1]")
    theta1 = math.acos(arg)
    theta_prime = theta0 + theta1
    return ExpansionAngle(
        theta1=theta1, theta_prime=theta_prime, acute=theta_prime < math.pi / 2
    )


def _cap_distances(Y, axes, half_angle, inner, outer) -> np.ndarray:
    """Minimum Euclidean distance from each row of Y to the thick cap about
    the matching unit row of `axes` (half-angle <= pi/2, radii broadcast).

    Reduces to polar coordinates in the plane spanned by the axis and y: the
    nearest cap point has angular coordinate min(beta, half_angle) and radial
    coordinate clamp(s cos(beta - phi*), inner, outer).  A zero row counts as
    on the axis; a non-finite row gives NaN.
    """
    s = np.linalg.norm(Y, axis=1)
    s_safe = np.where(s > 0.0, s, 1.0)
    cosb = np.einsum("ij,ij->i", Y / s_safe[:, None], axes)
    beta = np.arccos(np.clip(cosb, -1.0, 1.0))
    beta = np.where(s > 0.0, beta, 0.0)
    delta = np.maximum(beta - half_angle, 0.0)
    r = np.clip(s * np.cos(delta), inner, outer)
    d2 = s * s + r * r - 2.0 * s * r * np.cos(delta)
    return np.sqrt(np.maximum(d2, 0.0))


def min_distance_to_thick_cap(y, cap: CapSpec) -> float:
    """Minimum Euclidean distance from a nonzero y to a thick cap with
    half-angle <= pi/2."""
    if cap.half_angle > math.pi / 2:
        raise ValueError("half_angle above pi/2 is not supported")
    y = _check_vector(y, "y")
    if y.shape != cap.axis.shape:
        raise ValueError(f"dimension mismatch: {y.size} vs {cap.axis.size}")
    if np.linalg.norm(y) == 0.0:
        raise ValueError("y must be nonzero")
    axis = cap.axis / np.linalg.norm(cap.axis)
    return float(
        _cap_distances(
            y[None, :], axis[None, :], cap.half_angle, cap.inner_radius, cap.outer_radius
        )[0]
    )
