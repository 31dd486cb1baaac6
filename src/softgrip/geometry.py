"""Rigid-finger kinematics: the fingertip x-extent on the arc around the passive
joint, and object deformation for a commanded closing distance.

Angles are radians internally; degrees appear only at external interfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class FingerGeometry:
    """Dimensions of one hybrid finger.

    a, b are the two link offsets (mm) that place the fingertip contact point on a
    circle of radius sqrt(a^2 + b^2) around the joint. The design angle beta is
    atan(a/b), the angle at which the fingertip extent is zero at rest, so object
    deformation is measured from first contact. tip_arm is the moment arm (mm)
    of the fingertip contact force about the joint.

    With a, b > 0, beta lies in (0, 90) deg, and with alpha_max <= 80 deg,
    alpha - beta stays in (-90, 90) deg over [0, alpha_max], so the extent is
    strictly increasing over the joint range. The equilibrium solver and
    tip_extent_inverse rely on both facts.
    """

    a: float = 15.0
    b: float = 40.0
    alpha_max: float = math.radians(80.0)
    tip_arm: float = 40.0

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise DomainError(f"link lengths must be positive, got a={self.a}, b={self.b}")
        if not 0.0 < self.alpha_max <= math.radians(80.0) + 1e-12:
            raise DomainError(f"alpha_max must be in (0, 80 deg], got {self.alpha_max} rad")
        if self.tip_arm <= 0:
            raise DomainError(f"tip_arm must be positive, got {self.tip_arm}")

    @cached_property
    def beta(self) -> float:
        """Design angle (rad), atan(a/b): the fingertip extent is zero at rest."""
        return math.atan2(self.a, self.b)

    @cached_property
    def radius(self) -> float:
        """Distance from joint axis to fingertip contact point (mm)."""
        return math.hypot(self.a, self.b)


def _extent(geom: FingerGeometry, sin, alpha):
    """The fingertip extent at alpha, unchecked; sin is math.sin for a float
    and np.sin for an array."""
    return geom.a + geom.radius * sin(alpha - geom.beta)


def tip_extent(geom: FingerGeometry, alpha):
    """Inward x-extent of the fingertip at bending angle alpha (mm).

    alpha is a float or a numpy array; a float gives a float. Zero at alpha = 0
    (up to rounding) and strictly increasing in alpha over [0, alpha_max], as
    FingerGeometry guarantees.
    """
    array = isinstance(alpha, np.ndarray)
    lo, hi = (alpha.min(), alpha.max()) if array else (alpha, alpha)
    if not (0.0 <= lo and hi <= geom.alpha_max + 1e-12):
        raise DomainError(f"bending angle {lo if lo < 0.0 else hi} rad outside [0, {geom.alpha_max}] rad")
    return _extent(geom, np.sin if array else math.sin, alpha)


def tip_extent_inverse(geom: FingerGeometry, extent: float) -> float:
    """Bending angle whose fingertip extent equals `extent` (mm)."""
    lo = _extent(geom, math.sin, 0.0)
    hi = _extent(geom, math.sin, geom.alpha_max)
    if not lo - 1e-9 <= extent <= hi + 1e-9:
        raise DomainError(f"extent {extent} mm outside reachable [{lo}, {hi}] mm")
    s = (extent - geom.a) / geom.radius
    s = min(1.0, max(-1.0, s))
    alpha = geom.beta + math.asin(s)
    return min(max(alpha, 0.0), geom.alpha_max)


def object_deformation(geom: FingerGeometry, d_c: float, alpha: float) -> float:
    """Object deformation along the closing axis for closing distance d_c (mm).

    May be negative, meaning the fingertip has swung back past the commanded
    closing; callers treat that as loss of contact.
    """
    if d_c < 0:
        raise DomainError(f"closing distance must be non-negative, got {d_c}")
    return d_c - tip_extent(geom, alpha)
