"""Probe-location planning, stiffness-map assembly from per-location probes,
and grasp-location selection with soft-region avoidance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationTable
from .contact import ObjectModel, stiffness_at
from .errors import ConfigError
from .geometry import FingerGeometry
from .pneumatics import RingModel, SensorModel
from .probing import GripperSim, ProbeConfig, run_probe

@dataclass(frozen=True)
class ProbePlan:
    """Ordered probing locations, mm along the body (linear) or degrees
    (angular), and the fraction of the map's largest k_r below which a
    location is avoided."""

    locations: tuple
    avoid_fraction: float

    def __post_init__(self):
        if len(self.locations) < 2:
            raise ConfigError(f"a probe plan needs at least 2 locations, got {len(self.locations)}")
        for a, b in zip(self.locations, self.locations[1:]):
            if b <= a:
                raise ConfigError(f"locations must be strictly increasing, got {b!r} after {a!r}")
        if not 0.0 <= self.avoid_fraction <= 1.0:
            raise ConfigError(f"avoid_fraction must be in [0, 1], got {self.avoid_fraction!r}")


def make_plan(span: float, n: int, avoid_fraction: float) -> ProbePlan:
    """n equally spaced probing locations over [0, span] (none for n < 0).

    The fixture's profile kind gives the unit: mm along the body for
    linear_positions, wrist angles in degrees for angular_positions.
    """
    return ProbePlan(tuple(float(x) for x in np.linspace(0.0, span, max(n, 0))), avoid_fraction)


@dataclass
class StiffnessMap:
    """Per-location relative stiffness, the chosen grasp location, and avoided spots."""

    entries: list  # [(coordinate, k_r, flags tuple), ...] sorted by coordinate
    chosen: float | None  # None when every entry is flagged
    avoided: list

    def to_dict(self) -> dict:
        return {
            "entries": [
                {"coord": c, "k_r": k, "flags": list(f)} for c, k, f in self.entries
            ],
            "chosen": self.chosen,
            "avoided": list(self.avoided),
        }

    def to_csv(self) -> str:
        lines = ["coord,k_r_n_per_mm,flag"]
        for c, k, f in self.entries:
            lines.append(f"{c!r},{'' if k is None else repr(k)},{'|'.join(f)}")
        return "\n".join(lines) + "\n"

    def to_long_csv(self) -> str:
        """Plot-ready long format: one row per (coordinate, quantity)."""
        lines = ["coord,quantity,value"]
        for c, k, f in self.entries:
            lines.append(f"{c!r},k_r,{'' if k is None else repr(k)}")
            lines.append(f"{c!r},avoided,{int(c in self.avoided)}")
            lines.append(f"{c!r},chosen,{int(c == self.chosen)}")
        return "\n".join(lines) + "\n"


def execute_plan(
    plan: ProbePlan,
    fixture: ObjectModel,
    geom: FingerGeometry,
    ring: RingModel,
    sensor: SensorModel,
    table: CalibrationTable,
    cfg: ProbeConfig,
    *,
    seed: int,
    max_open: float,
) -> StiffnessMap:
    """Probe every planned location against the fixture's local stiffness.

    Each location gets its own simulation handle and a noise stream derived from
    (seed, location index), so the assembled map does not depend on execution
    order. Locations are avoided when flagged, when the estimated force exceeds
    the fixture's damage threshold, or when k_r falls below the plan's
    avoid_fraction of the map maximum. The chosen location maximizes k_r among
    the unflagged entries, ties broken by the smallest coordinate; it is None
    when every entry is flagged, and then every location is avoided.
    """
    entries = []
    for idx, coord in enumerate(plan.locations):
        k_local = stiffness_at(fixture, coord)  # raises RangeError outside the span
        child_seed = np.random.SeedSequence([int(seed), idx])
        sim = GripperSim(
            geom, ring, sensor, k_local, fixture.surface_offset,
            max_open=max_open, seed=child_seed,
        )
        report = run_probe(sim, table, cfg)
        flags = list(report.flags)
        if (
            fixture.damage_threshold is not None
            and report.est_force is not None
            and report.est_force > fixture.damage_threshold
        ):
            flags.append("damage_risk")
        entries.append((float(coord), report.k_r, tuple(flags)))

    valid = [(c, k) for c, k, f in entries if k is not None and not f]
    if not valid:
        return StiffnessMap(entries=entries, chosen=None, avoided=[c for c, _, _ in entries])
    # k_r >= 0 and avoid_fraction <= 1, so the stiffest valid entry is never avoided
    k_max = max(k for _, k in valid)
    avoided = [
        c
        for c, k, f in entries
        if f or k is None or k < plan.avoid_fraction * k_max
    ]
    chosen = min(c for c, k in valid if k == k_max)
    return StiffnessMap(entries=entries, chosen=chosen, avoided=avoided)
