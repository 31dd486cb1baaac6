"""The probing protocol: approach until the pressure signal reveals contact,
refine the contact opening from the free-bend pressure rise, close in fixed
increments, and convert the measured pressure change into estimated force,
relative stiffness and Hooke stiffness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .calibration import CalibrationTable, angle_from_dp, force_from_dp, interp_torque
from .contact import EquilibriumResult, solve_equilibrium
from .errors import ConfigError, RangeError, StateError
from .geometry import FingerGeometry, object_deformation, tip_extent
from .pneumatics import (
    SURE_SIGMAS,
    PressureSensor,
    RingModel,
    RingState,
    SensorModel,
    lock,
    measurement_sigma,
    pressure_at_angle,
)


@dataclass(frozen=True)
class ProbeConfig:
    """Knobs of one probing session; distances mm, pressures gauge kPa."""

    p0: float = 60.0
    approach_step: float = 2.0
    probe_step: float = 6.0
    n_probe_steps: int = 5
    settle_reads: int = 512

    def __post_init__(self):
        if self.n_probe_steps < 1:
            raise ConfigError(f"n_probe_steps must be >= 1, got {self.n_probe_steps}")
        if self.approach_step <= 0 or self.probe_step <= 0:
            raise ConfigError(f"approach_step {self.approach_step!r} and probe_step {self.probe_step!r} must be positive")
        if self.settle_reads < 1:
            raise ConfigError(f"settle_reads must be >= 1, got {self.settle_reads}")
        if self.p0 < 0:
            raise ConfigError(f"p0 must be non-negative, got {self.p0}")

    @property
    def d_c(self) -> float:
        """Total commanded closing distance after contact (mm)."""
        return self.n_probe_steps * self.probe_step

    def threshold(self, sensor: SensorModel) -> float:
        """Contact threshold (kPa): 6 sigma of the settle-averaged measurement plus
        one quantization step, bounding the false-positive rate far below 1e-6
        per step."""
        return SURE_SIGMAS * measurement_sigma(sensor, self.settle_reads) + sensor.quant_step


@dataclass
class ProbeReport:
    """Outcome of one probe: measured trace and the derived stiffness estimates."""

    contact_opening: float | None = None
    # [(cumulative d_c mm, dp kPa rel. contact baseline), ...]
    dp_trace: list = field(default_factory=list)
    est_force: float | None = None
    k_r: float | None = None
    k_o_est: float | None = None
    est_delta: float | None = None
    flags: list = field(default_factory=list)
    p0: float = 0.0
    d_c: float = 0.0

    def trace_csv(self) -> str:
        lines = ["step,dc_mm,dp_kpa"]
        for i, (dc, dp) in enumerate(self.dp_trace, start=1):
            lines.append(f"{i},{dc!r},{dp!r}")
        return "\n".join(lines) + "\n"


def check_travel(max_open: float, surface_offset: float) -> None:
    """The gripper must open, and open at least as wide as the object's surface
    lies."""
    if max_open <= 0:
        raise ConfigError(f"max_open must be positive, got {max_open!r}")
    if surface_offset > max_open:
        raise ConfigError(f"surface_offset {surface_offset!r} exceeds max_open {max_open!r}")


class GripperSim:
    """Simulation handle: one finger, one locked ring, one object, one sensor stream.

    The handle owns its seeded noise stream; concurrent sessions need distinct
    handles. The gripper closes by commanded opening width; each commanded
    opening yields one quasi-static equilibrium of the plant, which close_to
    reports only as a sensor reading. approach closes in steps and yields
    those readings one by one; the steps before the finger can touch the
    object all read the rest pressure, so it draws them in one batched read
    with the law of step-by-step reads. An empty workspace is an object
    whose surface lies at opening 0, which the gripper shuts against without
    touching it.
    The handle holds no estimator state: detect_contact returns the contact
    opening and baseline and probe takes them. The ground-truth equilibrium
    is for tests; the estimator never asks.
    """

    def __init__(
        self,
        geom: FingerGeometry,
        ring: RingModel,
        sensor: SensorModel,
        k_object: float,
        surface_offset: float,
        *,
        max_open: float,
        seed=0,
    ):
        check_travel(max_open, surface_offset)
        self.geom = geom
        self.ring = ring
        self.k_object = k_object
        self.surface_offset = surface_offset
        self.max_open = max_open
        self.stream = PressureSensor(sensor, seed=seed)
        self.opening = max_open
        self.state: RingState | None = None
        self.rest_pressure: float | None = None  # true gauge pressure at alpha 0 once locked
        self.lock_reading: float | None = None

    def pressurize_and_lock(self, p0: float, settle_reads: int) -> None:
        """Open fully, regulate to p0 at rest, close the valve, record the baseline."""
        self.opening = self.max_open
        self.state = lock(RingState(p_gauge=p0, alpha=0.0), self.ring)
        self.rest_pressure = pressure_at_angle(self.state, self.ring, 0.0)
        self.lock_reading = self.stream.read_avg(p0, settle_reads)

    def _plant_pressure(self) -> float:
        pen = max(0.0, self.surface_offset - self.opening)
        if pen <= 0.0:
            return self.rest_pressure
        return self.rest_pressure + solve_equilibrium(self.geom, self.ring, self.state, self.k_object, pen).dp

    def close_to(self, opening: float, settle_reads: int) -> float:
        """Command an opening width and return the measured dp from the lock baseline."""
        if self.state is None:
            raise StateError("gripper must be pressurized and locked first")
        self.opening = max(0.0, opening)
        return self.stream.read_avg(self._plant_pressure(), settle_reads) - self.lock_reading

    def approach(self, step: float, settle_reads: int):
        """Close in step increments down to the fully-shut stop, yielding the
        measured dp after each step.

        The plant knows the steps before the finger reaches the object's
        surface (all of them in an empty workspace): they read the rest
        pressure, so one read_avg_batch draws them all. The steps after go
        through close_to. Every step reads settle_reads readings. The opening
        is set before each yield; the caller sees only the dp values, and may
        stop at any one.
        """
        if self.state is None:
            raise StateError("gripper must be pressurized and locked first")
        free, opening = [], self.opening
        while opening > 0.0:
            opening = max(0.0, opening - step)
            if opening < self.surface_offset:
                break
            free.append(opening)
        readings = self.stream.read_avg_batch(self.rest_pressure, len(free), settle_reads)
        for opening, reading in zip(free, readings):
            self.opening = opening
            yield reading - self.lock_reading
        while self.opening > 0.0:
            yield self.close_to(self.opening - step, settle_reads)

    def true_equilibrium(self) -> EquilibriumResult:
        """Ground-truth equilibrium at the current opening, solved afresh (tests only)."""
        pen = max(0.0, self.surface_offset - self.opening)
        return solve_equilibrium(self.geom, self.ring, self.state, self.k_object, pen)


def detect_contact(sim: GripperSim, table: CalibrationTable, cfg: ProbeConfig):
    """Close in approach_step increments until the pressure signal crosses the
    threshold, then refine the contact opening from the free-bend pressure rise.

    Returns (contact_opening, contact_dp, flags), contact_dp being the
    lock-referenced dp at the step that crossed the threshold. Travel
    exhaustion yields (None, None, ['no_contact']). A crossing reading that
    inverts to an angle where the table's torque is already nonzero (or past
    the table) shows a step that closed beyond the dead zone, where the
    free-bend inversion no longer gives the contact opening: that yields
    (None, None, ['contact_overshoot']).
    """
    sim.pressurize_and_lock(cfg.p0, cfg.settle_reads)
    threshold = cfg.threshold(sim.stream.model)
    for dp in sim.approach(cfg.approach_step, cfg.settle_reads):
        if dp > threshold:
            # invert the dead-zone free bend to estimate the true contact opening
            try:
                alpha_deg = angle_from_dp(table, dp, cfg.p0)
                overshoot = interp_torque(table, alpha_deg, cfg.p0) > 0.0
            except RangeError:  # a reading past the table is past the dead zone too
                overshoot = True
            if overshoot:
                return None, None, ["contact_overshoot"]
            pen_hat = tip_extent(sim.geom, math.radians(alpha_deg))
            return sim.opening + pen_hat, dp, []
    return None, None, ["no_contact"]


def probe(
    sim: GripperSim,
    table: CalibrationTable,
    cfg: ProbeConfig,
    contact_opening: float,
    contact_dp: float,
) -> ProbeReport:
    """Execute the fixed-increment probing steps and derive the stiffness estimates.

    Continues the locked session that detect_contact left in sim, from its
    contact opening and the lock-referenced dp measured there. The trace
    stores dp relative to that contact baseline so approach-phase offsets do
    not bias k_r; the estimation uses the lock-referenced dp, which the table
    is built from. Like every estimate, the saturated flag comes from the
    sensor alone: a last step whose dp does not rise above the contact
    threshold means the finger could not yield to the object.
    """
    trace = []
    for i in range(1, cfg.n_probe_steps + 1):
        command = contact_opening - i * cfg.probe_step
        dp_lock = sim.close_to(command, cfg.settle_reads)
        trace.append((i * cfg.probe_step, dp_lock - contact_dp))

    report = ProbeReport(contact_opening=contact_opening, dp_trace=trace, p0=cfg.p0, d_c=cfg.d_c)
    if command < -cfg.approach_step:
        # the gripper shut well before the commanded closing, so d_c was never
        # applied; a shortfall within one approach step, the accuracy of the
        # contact estimate, cannot be told from a closing that ends at zero
        report.flags.append("travel_exhausted")
        return report
    try:
        alpha_deg, force = force_from_dp(table, sim.geom, max(dp_lock, 0.0), cfg.p0)
    except RangeError:
        alpha_deg = math.inf
    alpha = math.radians(alpha_deg)
    if alpha > sim.geom.alpha_max:
        # beyond the table, or beyond the finger's joint range where the table
        # (a ring property) reaches further than this finger can bend
        report.flags.append("out_of_table")
        return report

    report.est_force = force
    # a last command below zero is clipped at the fully-shut stop: divide by the
    # closing applied from the estimated contact opening, not the one commanded
    applied = min(contact_opening, cfg.d_c)
    report.k_r = report.est_force / applied
    delta_hat = object_deformation(sim.geom, applied, alpha)
    report.est_delta = delta_hat
    if delta_hat > 1e-9:
        report.k_o_est = report.est_force / delta_hat
    elif report.est_force > 1e-9:
        report.flags.append("degenerate_deformation")
    else:
        report.k_o_est = 0.0
    if dp_lock <= cfg.threshold(sim.stream.model):
        report.flags.append("saturated")
    return report


def run_probe(sim: GripperSim, table: CalibrationTable, cfg: ProbeConfig) -> ProbeReport:
    """Full session: detect contact, then probe. no_contact and contact_overshoot
    yield an empty report."""
    opening, dp, flags = detect_contact(sim, table, cfg)
    if opening is None:
        return ProbeReport(flags=flags, p0=cfg.p0, d_c=cfg.d_c)
    return probe(sim, table, cfg, opening, dp)


def sensitivity_sweep(
    geom: FingerGeometry,
    ring: RingModel,
    sensor: SensorModel,
    table: CalibrationTable,
    k_a: float,
    k_b: float,
    *,
    dc_grid,
    base_cfg: ProbeConfig,
    surface_offset: float,
    max_open: float,
):
    """Rank the (p0, d_c) pairs of the table's p0 grid and dc_grid by noise-free
    dp separation over the measurement sigma.

    Returns (ranked, left_out): ranked a list of (p0, d_c, separation_kpa, z)
    sorted by descending z, left_out the (p0, d_c) pairs where either object's
    probe carries a flag (for example a closing past the travel left, which
    is never applied), in grid order. Deterministic: probes run without
    noise, and sigma comes from the sensor model.
    """
    quiet = sensor.noiseless()
    sigma = measurement_sigma(sensor, base_cfg.settle_reads)
    ranked, left_out = [], []
    for p0 in table.p0_grid.tolist():
        for dc in dc_grid:
            cfg = replace(base_cfg, p0=p0, probe_step=float(dc) / base_cfg.n_probe_steps)
            reports = [
                run_probe(GripperSim(geom, ring, quiet, k, surface_offset, max_open=max_open), table, cfg)
                for k in (k_a, k_b)
            ]
            if any(rep.flags for rep in reports):
                left_out.append((p0, float(dc)))
                continue
            sep = abs(reports[0].dp_trace[-1][1] - reports[1].dp_trace[-1][1])
            z = sep / sigma if sigma > 0 else math.inf
            ranked.append((p0, float(dc), sep, z))
    ranked.sort(key=lambda t: (-t[3], t[0], t[1]))
    return ranked, left_out
