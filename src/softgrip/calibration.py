"""Characterization sweeps of the plant, gridded lookup tables with bilinear
interpolation, and the inverse queries used by the estimator
(dp -> angle -> torque -> force).

Table grids are stored in external units: degrees, kPa, N*mm.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, RangeError, SaturationError
from .geometry import FingerGeometry
from .pneumatics import (
    JOINT_RANGE_DEG, RingModel, RingState, joint_torque, leak_path, lock, pressure_at_angle,
)


@dataclass(frozen=True)
class CalibrationTable:
    """Gridded dp(alpha, p0) and torque(alpha, p0) surfaces with provenance metadata.

    The grids and surfaces are read-only copies, so what the lookups derive
    from them (list forms, the dp column blended at a p0) is derived once.
    """

    alpha_grid: np.ndarray  # deg, strictly increasing
    p0_grid: np.ndarray  # kPa, strictly increasing
    dp_surface: np.ndarray  # kPa, shape (n_alpha, n_p0)
    torque_surface: np.ndarray  # N*mm, shape (n_alpha, n_p0)
    meta: dict = field(default_factory=dict)
    # p0 -> (dp column blended at p0, its running maximum), as lists; see angle_from_dp
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("alpha_grid", "p0_grid", "dp_surface", "torque_surface"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.alpha_grid.size < 2 or self.p0_grid.size < 2:
            raise ConfigError("calibration grids need at least 2 points per axis")
        for name, grid in (("alpha_grid", self.alpha_grid), ("p0_grid", self.p0_grid)):
            # a NaN step fails the comparison, and between finite ends an increasing grid is finite
            if not (math.isfinite(grid[0]) and math.isfinite(grid[-1]) and np.all(np.diff(grid) > 0)):
                raise DomainError(f"{name} is not strictly increasing and finite")
        shape = (self.alpha_grid.size, self.p0_grid.size)
        if self.dp_surface.shape != shape or self.torque_surface.shape != shape:
            raise DomainError(
                f"surface shape mismatch: expected {shape}, "
                f"got dp {self.dp_surface.shape}, torque {self.torque_surface.shape}"
            )
        for name in ("dp_surface", "torque_surface"):
            if not np.isfinite(getattr(self, name)).all():
                raise DomainError(f"{name} holds a non-finite value")
        if self.alpha_grid[0] == 0.0 and np.any(np.abs(self.dp_surface[0]) > 1e-9):
            raise DomainError("dp_surface row at alpha=0 must be zero")
        if np.any(np.diff(self.dp_surface, axis=0) < -1e-9):
            raise DomainError("dp_surface must be non-decreasing along the alpha axis")

    # list forms for the scalar lookups: indexing and bisecting a list is
    # several times cheaper than indexing an array from Python

    @cached_property
    def _alphas(self) -> list:
        return self.alpha_grid.tolist()

    @cached_property
    def _p0s(self) -> list:
        return self.p0_grid.tolist()

    @cached_property
    def _dp_rows(self) -> list:
        return self.dp_surface.tolist()

    @cached_property
    def _torque_rows(self) -> list:
        return self.torque_surface.tolist()


# A sweep larger than these is a config error, so that a tiny step fails at once
# instead of in an allocation that cannot succeed. The benchmark's finest axis
# has 801 points (0.1 deg over 80 deg), its largest table 19,481 cells.
MAX_GRID_POINTS = 10_001  # per axis
MAX_TABLE_CELLS = 1_000_000


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... up to the last node at or below stop (within 1e-9 of a step)."""
    if not (step > 0 and math.isfinite(step)):
        raise ConfigError(f"grid step must be positive and finite, got {step:g}")
    intervals = (stop - start) / step  # inf when the step is tiny against the span
    n = math.floor(intervals + 1e-9) if intervals < MAX_GRID_POINTS else MAX_GRID_POINTS
    if n < 1:
        raise ConfigError(f"degenerate grid: start={start}, stop={stop}, step={step}")
    if n >= MAX_GRID_POINTS:
        raise ConfigError(f"grid step {step} over [{start}, {stop}] gives more than {MAX_GRID_POINTS} points")
    return start + step * np.arange(n + 1)


def _alpha_grid(alpha_max_deg: float, alpha_step_deg: float) -> np.ndarray:
    """A sweep's angles, inside the joint range over which the ring model is valid."""
    if alpha_max_deg > JOINT_RANGE_DEG:
        raise ConfigError(f"alpha_max_deg {alpha_max_deg!r} exceeds the {JOINT_RANGE_DEG!r} deg joint range")
    return _grid(0.0, alpha_max_deg, alpha_step_deg)


def _check_cells(n_alpha: int, n_p: int) -> None:
    if n_alpha * n_p > MAX_TABLE_CELLS:
        raise ConfigError(f"calibration table of {n_alpha} x {n_p} cells exceeds {MAX_TABLE_CELLS} cells")


def generate_regulated_sweep(
    model: RingModel, *, alpha_max_deg: float, alpha_step_deg: float, p_max_kpa: float, p_step_kpa: float
) -> CalibrationTable:
    """Torque surface with the regulator holding each pressure (no volume coupling).

    dp_surface is zeroed; it is meaningless in this mode.
    """
    alpha_grid = _alpha_grid(alpha_max_deg, alpha_step_deg)
    p_grid = _grid(0.0, p_max_kpa, p_step_kpa)
    _check_cells(alpha_grid.size, p_grid.size)
    with np.errstate(over="ignore", invalid="ignore"):  # the table rejects what overflows
        torque = joint_torque(model, np.radians(alpha_grid)[:, None], p_grid)
    meta = {
        "mode": "regulated",
        "alpha_step_deg": repr(alpha_step_deg),
        "p_step_kpa": repr(p_step_kpa),
    }
    return CalibrationTable(alpha_grid, p_grid, np.zeros_like(torque), torque, meta)


def generate_locked_sweep(
    model: RingModel, *, p0_grid_kpa, alpha_max_deg: float, alpha_step_deg: float
) -> CalibrationTable:
    """Locked-air-volume sweep: pressurize at alpha=0, lock, sweep alpha upward.

    Records dp relative to the lock baseline and the torque at the instantaneous
    trapped-gas pressure. The sweep is treated as instantaneous (no leakage);
    use hysteresis_sweep for the timed forward/backward comparison.
    """
    alpha_grid = _alpha_grid(alpha_max_deg, alpha_step_deg)
    p0_grid = np.asarray(p0_grid_kpa, dtype=float)
    if p0_grid.size < 2:  # checked here, as RingState cannot check an empty grid
        raise ConfigError(f"p0_grid_kpa needs at least 2 pressures, got {p0_grid.tolist()}")
    # RingState rejects a negative p0, and CalibrationTable a p0 grid that is not strictly increasing
    # and finite, or a surface that overflows
    _check_cells(alpha_grid.size, p0_grid.size)
    alphas = np.radians(alpha_grid)
    with np.errstate(over="ignore", invalid="ignore"):  # the table rejects what overflows
        p = pressure_at_angle(lock(RingState(p_gauge=p0_grid), model), model, alphas[:, None])
        dp = p - p0_grid
        dp[0] = 0.0  # the baseline row is zero by definition; drop float residue
        torque = joint_torque(model, alphas[:, None], p)
    meta = {"mode": "locked", "alpha_step_deg": repr(alpha_step_deg)}
    return CalibrationTable(alpha_grid, p0_grid, dp, torque, meta)


def hysteresis_sweep(model: RingModel, *, p0: float, alpha_max_deg: float, alpha_step_deg: float):
    """Forward then backward locked sweep, one step a second; leakage separates the two phases.

    Returns (alpha_deg, p_forward, p_backward) with pressures in gauge kPa.
    """
    alpha_grid = _alpha_grid(alpha_max_deg, alpha_step_deg)
    path = np.radians(np.concatenate((alpha_grid, alpha_grid[::-1])))
    state = leak_path(lock(RingState(p_gauge=float(p0)), model), model, path)
    p = pressure_at_angle(state, model, path)
    with np.errstate(over="ignore"):
        total = p.sum()  # finite only if every pressure is, and so is any mean of them or of their gaps
    if not math.isfinite(total):
        raise DomainError(f"p0 {p0!r} kPa takes the swept pressures, or their sum, past the float range")
    n = alpha_grid.size
    return alpha_grid, p[:n], p[n:][::-1]


def _cell(grid: list, value: float, label: str) -> tuple[int, float]:
    if not grid[0] - 1e-9 <= value <= grid[-1] + 1e-9:
        raise RangeError(f"{label}={value} outside calibrated hull [{grid[0]}, {grid[-1]}]")
    i = bisect_right(grid, value) - 1
    i = min(max(i, 0), len(grid) - 2)
    t = (value - grid[i]) / (grid[i + 1] - grid[i])
    return i, min(max(t, 0.0), 1.0)


def _bilinear(rows: list, table: CalibrationTable, alpha_deg: float, p0: float) -> float:
    i, ta = _cell(table._alphas, alpha_deg, "alpha_deg")
    j, tp = _cell(table._p0s, p0, "p0_kpa")
    return float(
        (1 - ta) * (1 - tp) * rows[i][j]
        + ta * (1 - tp) * rows[i + 1][j]
        + (1 - ta) * tp * rows[i][j + 1]
        + ta * tp * rows[i + 1][j + 1]
    )


def interp_dp(table: CalibrationTable, alpha_deg: float, p0: float) -> float:
    """Bilinear dp lookup (kPa); exact at grid nodes, no extrapolation."""
    return _bilinear(table._dp_rows, table, alpha_deg, p0)


def interp_torque(table: CalibrationTable, alpha_deg: float, p0: float) -> float:
    """Bilinear torque lookup (N*mm); exact at grid nodes, no extrapolation."""
    return _bilinear(table._torque_rows, table, alpha_deg, p0)


def _dp_column(table: CalibrationTable, p0: float) -> tuple[list, list]:
    """The table's dp column blended at p0 and its running maximum, as lists.

    Kept on the table per p0: a probe inverts all its readings at one p0.
    """
    column = table._columns.get(p0)
    if column is None:
        j, tp = _cell(table._p0s, p0, "p0_kpa")
        col = (1 - tp) * table.dp_surface[:, j] + tp * table.dp_surface[:, j + 1]
        column = table._columns[p0] = (col.tolist(), np.maximum.accumulate(col).tolist())
    return column


def angle_from_dp(table: CalibrationTable, dp: float, p0: float) -> float:
    """Smallest bending angle (deg) at which the interpolated dp reaches the measurement.

    At fixed p0 the bilinear surface is piecewise linear in alpha, so the
    inversion is exact: blend the two bracketing p0 columns, find the first
    node whose running maximum reaches dp (the table lets a column dip by up to
    1e-9), and solve the linear segment that ends there.
    """
    if dp < 0:
        raise DomainError(f"dp must be non-negative, got {dp}")
    col, reach = _dp_column(table, p0)
    if dp > reach[-1] + 1e-12:
        raise SaturationError(f"dp={dp} kPa above the table maximum {reach[-1]} kPa at p0={p0}")
    grid = table._alphas
    if dp <= col[0]:
        return grid[0]
    # cap dp within the 1e-12 saturation slack; then col[k - 1] < dp <= col[k]
    dp = min(dp, reach[-1])
    k = bisect_left(reach, dp)
    t = (dp - col[k - 1]) / (col[k] - col[k - 1])
    return float(grid[k - 1] + t * (grid[k] - grid[k - 1]))


def force_from_dp(table: CalibrationTable, geom: FingerGeometry, dp: float, p0: float):
    """(alpha_deg, force N): the bending angle and normal contact force inferred
    from a measured pressure change, from one table inversion.

    The locked-sweep torque column at (alpha, p0) is recorded at the trapped-gas
    pressure reached at that angle, i.e. already at the current pressure p0 + dp,
    so no further pressure adjustment is applied.
    """
    alpha_deg = angle_from_dp(table, dp, p0)
    return alpha_deg, interp_torque(table, alpha_deg, p0) / geom.tip_arm


# ---------------------------------------------------------------------------
# CSV schema: `# caltab v1`, `# meta: k=v;...`, header row, row-major (alpha outer)


def write_csv(table: CalibrationTable) -> str:
    """CSV text of a table, lossless: full float precision, LF line endings.

    Grid values are formatted once, and the surface cells fill a single
    %-template, row-major with alpha outer. Each alpha row of the template is
    one join over the p0 strings, which hold no "%".
    """
    meta = ";".join(f"{k}={v}" for k, v in table.meta.items())
    alphas = ["%.17g" % a for a in table.alpha_grid.tolist()]
    p0s = ["%.17g" % p for p in table.p0_grid.tolist()]
    template = "\n".join(f"{a}," + f",%.17g,%.17g\n{a},".join(p0s) + ",%.17g,%.17g" for a in alphas)
    cells = np.stack((table.dp_surface, table.torque_surface), axis=-1).ravel().tolist()
    return f"# caltab v1\n# meta: {meta}\nalpha_deg,p0_kpa,dp_kpa,torque_nmm\n" + template % tuple(cells) + "\n"

