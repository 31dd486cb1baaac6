"""Object models with optional spatial stiffness profiles, and the quasi-static
equilibrium between the pressurized joint and a linear-spring object, plus the
brute-force grid oracle used in verification.

Both the solver and the oracle evaluate the torque balance through the plant
formulas in `pneumatics` and `geometry`. The oracle calls the checked public
functions on arrays. The solver calls their unchecked cores on floats, and
only on [alpha_slack, alpha_max]: past the fabric dead zone the balance is
strictly increasing in the bending angle, so the solver brackets it once on
that interval and narrows the bracket with Illinois (modified regula falsi)
steps. An angle in that interval is non-negative and at most alpha_max, so it
keeps the cavity open (RingModel keeps it open over the joint range, which
holds alpha_max) and lies in the fingertip extent's domain; it is past the
slack, so the torque needs no clip at zero. The public functions' checks
could never fire there; only the gas pressure's clip at zero, which rounding
can reach, stays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, RangeError, StateError
from .geometry import FingerGeometry, _extent, tip_extent, tip_extent_inverse
from .pneumatics import (
    RingModel, RingState, _gas_pressure, _torque, _volume, joint_torque, pressure_at_angle,
)

# Contact torques below this are treated as no resistance at all: the finger
# does not move. Keeps the zero-stiffness limit well defined.
TORQUE_FLOOR = 1e-3  # N*mm

ALPHA_TOL = 1e-7  # rad, final bracket width of the equilibrium solver


@dataclass(frozen=True)
class StiffnessProfile:
    """Spatial stiffness of an object: uniform, or sampled along a line / around an axis.

    Sampled kinds interpolate piecewise-linearly between (coordinate, stiffness)
    pairs; coordinates are mm for linear_positions, degrees in [0, 180] for
    angular_positions.
    """

    kind: str = "uniform"
    base_k: float = 0.0
    samples: tuple = ()

    def __post_init__(self):
        if self.kind not in ("uniform", "linear_positions", "angular_positions"):
            raise ConfigError(f"unknown stiffness profile kind '{self.kind}'")
        if self.kind == "uniform":
            if self.base_k <= 0:
                raise ConfigError(f"uniform profile needs base_k > 0, got {self.base_k}")
            return
        if len(self.samples) < 2:
            raise ConfigError("sampled profile needs at least 2 samples")
        coords = [c for c, _ in self.samples]
        if any(c2 <= c1 for c1, c2 in zip(coords, coords[1:])):
            raise ConfigError("sample coordinates must be strictly increasing")
        if any(k <= 0 for _, k in self.samples):
            raise ConfigError("all sampled stiffness values must be positive")
        if self.kind == "angular_positions" and not (
            0.0 <= coords[0] and coords[-1] <= 180.0
        ):
            raise ConfigError("angular coordinates must lie in [0, 180] deg")


@dataclass(frozen=True)
class ObjectModel:
    """A linear-spring object: stiffness profile, contact opening, damage limit."""

    profile: StiffnessProfile
    surface_offset: float  # gripper opening (mm) at which first contact occurs
    damage_threshold: float | None = None  # N, optional

    def __post_init__(self):
        if self.surface_offset < 0:
            raise ConfigError(f"surface_offset must be non-negative, got {self.surface_offset}")
        if self.damage_threshold is not None and self.damage_threshold <= 0:
            raise ConfigError("damage_threshold must be positive when set")


def stiffness_at(obj: ObjectModel | StiffnessProfile, coord: float) -> float:
    """Local stiffness (N/mm) at a probing coordinate."""
    profile = obj.profile if isinstance(obj, ObjectModel) else obj
    if profile.kind == "uniform":
        return profile.base_k
    coords = np.array([c for c, _ in profile.samples])
    ks = np.array([k for _, k in profile.samples])
    if not coords[0] <= coord <= coords[-1]:
        raise RangeError(f"coordinate {coord} outside sampled span [{coords[0]}, {coords[-1]}]")
    return float(np.interp(coord, coords, ks))


@dataclass(frozen=True)
class EquilibriumResult:
    alpha_star: float  # rad
    force: float  # N
    delta: float  # mm, object deformation
    dp: float  # kPa, pressure change from the lock baseline
    saturated: bool = False


def _pressure(model, state, alpha):
    """Gauge pressure of the locked ring at a float alpha in [0, alpha_max], unchecked."""
    return max(_gas_pressure(model, state.nv_const, _volume(model, alpha)), 0.0)


def _residual(geom, model, state, k_o, d_c, alpha):
    """Joint torque minus contact-force torque at a float alpha in
    [alpha_slack, alpha_max], unchecked."""
    torque = _torque(model, alpha - model.alpha_slack, _pressure(model, state, alpha))
    return torque - k_o * (d_c - _extent(geom, math.sin, alpha)) * geom.tip_arm


def solve_equilibrium(
    geom: FingerGeometry,
    model: RingModel,
    state: RingState,
    k_o: float,
    d_c: float,
) -> EquilibriumResult:
    """Bending angle, force, deformation and dp once the gripper has closed d_c.

    Inside the fabric dead zone the joint exerts no torque, so the finger yields
    freely until the object force vanishes; a closing shallower than the dead-zone
    extent therefore produces bending but no force. Beyond that, both the joint
    torque and the fingertip extent strictly increase with alpha, so the torque
    balance has at most one root on [slack, alpha_max]: it is negative at slack,
    and if it is still negative at alpha_max the object is too stiff for the
    finger to yield (saturated). So is a closing past the extent at alpha_max
    when the dead zone spans the whole joint range. Otherwise the bracket
    narrows to ALPHA_TOL and its midpoint is returned. Each step evaluates the
    balance at the regula falsi point of the bracket, held at least
    ALPHA_TOL / 2 inside it, and halves the value kept at an end that survives
    two steps in a row (Illinois). The midpoint replaces that point when it
    falls outside the open bracket, or when the bracket has not halved over the
    last three steps.
    """
    if not state.locked:
        raise StateError("solve_equilibrium requires a locked ring")
    if d_c < 0:
        raise DomainError(f"closing distance must be non-negative, got {d_c}")

    if k_o * geom.tip_arm * d_c <= TORQUE_FLOOR:
        # object offers no measurable resistance; nothing bends
        return EquilibriumResult(0.0, k_o * d_c, d_c, 0.0)

    slack = min(model.alpha_slack, geom.alpha_max)
    e_slack = _extent(geom, math.sin, slack)
    if d_c <= e_slack:
        # free bend: zero-torque yield until the deformation is absorbed
        alpha = tip_extent_inverse(geom, d_c)
        dp = _pressure(model, state, alpha) - _pressure(model, state, 0.0)
        return EquilibriumResult(alpha, 0.0, 0.0, dp)
    if slack < model.alpha_slack:
        # the dead zone spans the joint range: no torque resists the spring
        return EquilibriumResult(0.0, k_o * d_c, d_c, 0.0, saturated=True)

    # the balance is negative at lo and non-negative at hi throughout
    lo, hi = slack, geom.alpha_max
    f_lo = -k_o * (d_c - e_slack) * geom.tip_arm
    f_hi = _residual(geom, model, state, k_o, d_c, hi)
    if f_hi < 0.0:
        # spring dominates everywhere: rigid-object limit, no fingertip yield
        return EquilibriumResult(0.0, k_o * d_c, d_c, 0.0, saturated=True)
    kept = 0  # end that survived the last step: -1 lo, +1 hi
    widths = (math.inf,) * 3  # bracket widths before the last three steps
    while hi - lo > ALPHA_TOL:
        alpha = lo + (hi - lo) * f_lo / (f_lo - f_hi)
        # at least half a tolerance from either end, so the step that lands
        # next to a converged end closes the bracket on the far side of the root
        alpha = min(max(alpha, lo + 0.5 * ALPHA_TOL), hi - 0.5 * ALPHA_TOL)
        if not lo < alpha < hi or 2.0 * (hi - lo) > widths[0]:
            alpha = 0.5 * (lo + hi)
        widths = (*widths[1:], hi - lo)
        f = _residual(geom, model, state, k_o, d_c, alpha)
        if f < 0.0:
            lo, f_lo = alpha, f
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = alpha, f
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    alpha = 0.5 * (lo + hi)
    delta = d_c - _extent(geom, math.sin, alpha)
    dp = _pressure(model, state, alpha) - _pressure(model, state, 0.0)
    return EquilibriumResult(alpha, k_o * delta, delta, dp)


def solve_equilibrium_bruteforce(
    geom: FingerGeometry,
    model: RingModel,
    state: RingState,
    k_o: float,
    d_c: float,
    step_deg: float = 1e-3,
) -> EquilibriumResult:
    """Grid-scan oracle: residual on a dense angle grid, sign-change cell midpoint.

    Verification only; O(alpha_max / step) residual evaluations, vectorized.
    """
    if not state.locked:
        raise StateError("solve_equilibrium_bruteforce requires a locked ring")
    if d_c < 0:
        raise DomainError(f"closing distance must be non-negative, got {d_c}")
    p0 = pressure_at_angle(state, model, 0.0)

    if k_o * geom.tip_arm * d_c <= TORQUE_FLOOR:
        return EquilibriumResult(0.0, k_o * d_c, d_c, 0.0)

    alphas = np.arange(0.0, geom.alpha_max + 1e-12, math.radians(step_deg))
    torque = joint_torque(model, alphas, pressure_at_angle(state, model, alphas))
    signs = np.signbit(torque - k_o * (d_c - tip_extent(geom, alphas)) * geom.tip_arm)
    crossings = np.nonzero(signs[:-1] & ~signs[1:])[0]
    if crossings.size == 0:
        return EquilibriumResult(0.0, k_o * d_c, d_c, 0.0, saturated=True)
    i = int(crossings[0])
    alpha = 0.5 * (alphas[i] + alphas[i + 1])
    delta = d_c - tip_extent(geom, alpha)
    # free-bend roots carry no force by construction
    force = 0.0 if alpha <= model.alpha_slack else k_o * delta
    dp = pressure_at_angle(state, model, alpha) - p0
    return EquilibriumResult(alpha, force, max(delta, 0.0) if alpha <= model.alpha_slack else delta, dp)
