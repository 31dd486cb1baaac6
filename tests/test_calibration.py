import hashlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from softgrip.calibration import (
    MAX_GRID_POINTS,
    MAX_TABLE_CELLS,
    CalibrationTable,
    _grid,
    angle_from_dp,
    force_from_dp,
    generate_locked_sweep,
    generate_regulated_sweep,
    hysteresis_sweep,
    interp_dp,
    interp_torque,
    write_csv,
)
from softgrip.config import DEFAULTS
from softgrip.errors import (
    ConfigError,
    DomainError,
    RangeError,
    SaturationError,
    SoftgripError,
)
from softgrip.pneumatics import RingModel, RingState, joint_torque, lock, pressure_at_angle, volume_at_angle

LOCKED = DEFAULTS["calibration"]["locked"]


def _locked(model, **given):
    """generate_locked_sweep with the config default of each setting not given."""
    return generate_locked_sweep(model, **{**LOCKED, **given})


def _regulated(model, **given):
    """generate_regulated_sweep with the config default of each setting not given."""
    return generate_regulated_sweep(model, **{**DEFAULTS["calibration"]["regulated"], **given})


def _hysteresis(model, **given):
    """hysteresis_sweep with the config's defaults: the locked sweep's angles at probe.p0_kpa."""
    defaults = {"p0": DEFAULTS["probe"]["p0_kpa"], "alpha_max_deg": LOCKED["alpha_max_deg"],
                "alpha_step_deg": LOCKED["alpha_step_deg"]}
    return hysteresis_sweep(model, **{**defaults, **given})


def test_regulated_sweep_grid_shape(regulated_table):
    assert regulated_table.alpha_grid.shape == (17,)
    assert regulated_table.p0_grid.shape == (31,)
    assert regulated_table.torque_surface.shape == (17, 31)
    assert np.all(regulated_table.dp_surface == 0.0)


def test_regulated_sweep_matches_plant(ring, regulated_table):
    for i, a_deg in enumerate(regulated_table.alpha_grid):
        for j, p in enumerate(regulated_table.p0_grid):
            expect = joint_torque(ring, math.radians(a_deg), float(p))
            assert regulated_table.torque_surface[i, j] == expect


def test_regulated_sweep_dead_zone_and_growth(regulated_table):
    grid_a = regulated_table.alpha_grid
    grid_p = regulated_table.p0_grid
    surf = regulated_table.torque_surface
    for j, p in enumerate(grid_p):
        if p < 5.0:
            continue
        col = surf[:, j]
        assert np.all(col[grid_a <= 20.0] == 0.0)
        beyond = col[grid_a > 20.0]
        assert np.all(np.diff(beyond) > 0.0)
        assert np.all(beyond > 0.0)


def test_zero_coefficients_zero_surface():
    model = RingModel(c1=0.0, c2=0.0)
    table = _regulated(model)
    assert np.all(table.torque_surface == 0.0)


def test_locked_sweep_grids(locked_table):
    assert list(locked_table.p0_grid) == [0.0, 20.0, 40.0, 60.0, 80.0]
    assert locked_table.alpha_grid[0] == 0.0
    assert locked_table.alpha_grid[-1] == 80.0
    assert np.all(np.diff(locked_table.alpha_grid) == 1.0)


def test_locked_sweep_matches_plant_pointwise(ring, locked_table):
    for j, p0 in enumerate(locked_table.p0_grid):
        state = lock(RingState(p_gauge=float(p0), alpha=0.0), ring)
        for i, a_deg in enumerate(locked_table.alpha_grid):
            alpha = math.radians(a_deg)
            p = pressure_at_angle(state, ring, alpha)
            assert locked_table.dp_surface[i, j] == pytest.approx(p - p0, abs=1e-12)
            assert locked_table.torque_surface[i, j] == pytest.approx(
                joint_torque(ring, alpha, p), rel=1e-12
            )


def test_locked_sweep_baseline_row_zero(locked_table):
    assert np.all(locked_table.dp_surface[0] == 0.0)


def test_locked_sweep_dp_monotone(locked_table):
    assert np.all(np.diff(locked_table.dp_surface, axis=0) > 0.0)
    # higher initial pressure means a steeper rise at every angle
    assert np.all(np.diff(locked_table.dp_surface[1:], axis=1) > 0.0)


def _scalar_locked_sweep(model, p0_grid, alpha_grid):
    """Reference: the locked sweep as a loop of scalar plant calls."""
    dp = np.empty((alpha_grid.size, p0_grid.size))
    torque = np.empty_like(dp)
    for j, p0 in enumerate(p0_grid):
        state = lock(RingState(p_gauge=float(p0), alpha=0.0), model)
        for i, a_deg in enumerate(alpha_grid):
            alpha = math.radians(a_deg)
            p = pressure_at_angle(state, model, alpha)
            dp[i, j] = p - p0 if a_deg > 0.0 else 0.0
            torque[i, j] = joint_torque(model, alpha, p)
    return dp, torque


def _scalar_regulated_sweep(model, alpha_grid, p_grid):
    """Reference: the regulated sweep as a loop of scalar plant calls."""
    return np.array(
        [[joint_torque(model, math.radians(a_deg), float(p)) for p in p_grid] for a_deg in alpha_grid]
    )


def test_sweeps_equal_scalar_loops():
    rng = np.random.default_rng(5)
    for _ in range(8):
        model = RingModel(
            v0=float(rng.uniform(1000.0, 10000.0)),
            kappa=float(rng.uniform(0.0, 0.7)),
            alpha_slack=math.radians(float(rng.uniform(0.0, 30.0))),
            c1=float(rng.uniform(0.0, 60000.0)),
            c2=float(rng.uniform(0.0, 1200.0)),
        )
        step = float(rng.choice([0.5, 1.0, 2.5]))
        p0_grid = np.sort(rng.uniform(0.0, 120.0, 4))
        locked = _locked(model, p0_grid_kpa=p0_grid, alpha_step_deg=step)
        dp, torque = _scalar_locked_sweep(model, locked.p0_grid, locked.alpha_grid)
        assert np.array_equal(locked.dp_surface, dp)
        assert np.array_equal(locked.torque_surface, torque)
        reg = _regulated(model, alpha_step_deg=step, p_step_kpa=7.5)
        assert np.array_equal(reg.torque_surface, _scalar_regulated_sweep(model, reg.alpha_grid, reg.p0_grid))


def _per_p0_locked_sweep(model, p0_grid, alpha_grid):
    """Reference: the locked sweep locked and swept once per p0, one array call each."""
    alphas = np.radians(alpha_grid)
    p = np.stack(
        [pressure_at_angle(lock(RingState(p_gauge=float(p0)), model), model, alphas) for p0 in p0_grid], axis=1
    )
    dp = p - p0_grid
    dp[0] = 0.0
    return dp, joint_torque(model, alphas[:, None], p)


def test_broadcast_locked_sweep_equals_per_p0_loop():
    # one broadcast lock and sweep over the p0 grid gives the per-p0 loop's surfaces bit for bit
    rng = np.random.default_rng(16)
    for _ in range(300):
        model = RingModel(
            v0=float(rng.uniform(1000.0, 10000.0)),
            kappa=float(rng.uniform(0.0, 0.7)),
            alpha_slack=math.radians(float(rng.uniform(0.0, 30.0))),
            c1=float(rng.uniform(0.0, 60000.0)),
            c2=float(rng.uniform(0.0, 1200.0)),
            p_atm=float(rng.uniform(50.0, 150.0)),
            leak_rate=float(rng.uniform(0.0, 1e-2)),
        )
        p0_grid = np.unique(rng.uniform(0.0, 200.0, int(rng.integers(2, 9))))
        if rng.random() < 0.3:
            p0_grid[0] = 0.0
        step = float(rng.choice([0.25, 1.0, 2.5, 7.0]))
        table = _locked(model, p0_grid_kpa=p0_grid, alpha_max_deg=float(rng.uniform(10.0, 80.0)), alpha_step_deg=step)
        dp, torque = _per_p0_locked_sweep(model, table.p0_grid, table.alpha_grid)
        assert np.array_equal(table.dp_surface, dp)
        assert np.array_equal(table.torque_surface, torque)


def test_hysteresis_leak_gap(ring):
    alphas, fwd, bwd = _hysteresis(ring, p0=60.0)
    interior = slice(1, -1)
    assert np.all(bwd[interior] < fwd[interior])


def test_hysteresis_vanishes_without_leak():
    model = RingModel(leak_rate=0.0)
    alphas, fwd, bwd = _hysteresis(model, p0=60.0)
    assert np.max(np.abs(fwd - bwd)) <= 1e-9


def _stepwise_hysteresis(model, p0, alpha_grid):
    """Reference: the timed sweep as a loop of scalar leak steps, one RingState per step."""

    def step(state, a_deg):
        state = replace(state, alpha=math.radians(a_deg))
        if model.leak_rate != 0.0:
            floor = model.p_atm * volume_at_angle(model, state.alpha)
            state = replace(state, nv_const=max(state.nv_const * (1.0 - model.leak_rate), floor))
        return state, pressure_at_angle(state, model, state.alpha)

    state = lock(RingState(p_gauge=p0, alpha=0.0), model)
    forward, backward = [], []
    for a_deg in alpha_grid:
        state, p = step(state, a_deg)
        forward.append(p)
    for a_deg in alpha_grid[::-1]:
        state, p = step(state, a_deg)
        backward.append(p)
    return np.array(forward), np.array(backward[::-1])


@pytest.mark.parametrize(
    "model, p0, step, seconds",
    [
        (RingModel(), 60.0, 1.0, 1.0),
        (RingModel(kappa=0.1, leak_rate=3e-4), 35.5, 0.1, 2.5),
        (RingModel(leak_rate=0.0), 60.0, 1.0, 1.0),
        (RingModel(), 60.0, 2.5, 0.0),
        (RingModel(leak_rate=0.05), 80.0, 1.0, 10.0),  # reaches the atmospheric floor
    ],
)
def test_hysteresis_equals_stepwise_leak_loop(model, p0, step, seconds):
    # the sweep takes 1 s a step; steps of `seconds` are a ring leaking `seconds` times as fast
    model = replace(model, leak_rate=model.leak_rate * seconds)
    alphas, fwd, bwd = _hysteresis(model, p0=p0, alpha_step_deg=step)
    ref_fwd, ref_bwd = _stepwise_hysteresis(model, p0, alphas)
    assert np.array_equal(fwd, ref_fwd)
    assert np.array_equal(bwd, ref_bwd)
    if model.leak_rate == 0.5:
        assert np.any(bwd == 0.0)


def test_interp_exact_at_nodes(locked_table):
    for i in (0, 13, 40, 80):
        for j in range(locked_table.p0_grid.size):
            a = float(locked_table.alpha_grid[i])
            p = float(locked_table.p0_grid[j])
            assert interp_dp(locked_table, a, p) == pytest.approx(
                locked_table.dp_surface[i, j], abs=1e-12
            )
            assert interp_torque(locked_table, a, p) == pytest.approx(
                locked_table.torque_surface[i, j], abs=1e-9
            )


def test_interp_cell_center_is_corner_mean(locked_table):
    i, j = 30, 2
    a = 0.5 * (locked_table.alpha_grid[i] + locked_table.alpha_grid[i + 1])
    p = 0.5 * (locked_table.p0_grid[j] + locked_table.p0_grid[j + 1])
    corners = locked_table.dp_surface[i : i + 2, j : j + 2]
    assert interp_dp(locked_table, float(a), float(p)) == pytest.approx(corners.mean())


def test_interp_continuous_across_cell_edges(locked_table):
    a = float(locked_table.alpha_grid[25])
    p = 30.0
    below = interp_dp(locked_table, a - 1e-10, p)
    above = interp_dp(locked_table, a + 1e-10, p)
    assert abs(below - above) < 1e-6


def test_interp_tracks_plant_between_nodes(ring, locked_table):
    # bilinear error is bounded by curvature; the 1 deg grid keeps it tiny
    rng = np.random.default_rng(3)
    for _ in range(300):
        a_deg = float(rng.uniform(0.0, 80.0))
        p0 = float(rng.uniform(0.0, 80.0))
        state = lock(RingState(p_gauge=p0, alpha=0.0), ring)
        truth = pressure_at_angle(state, ring, math.radians(a_deg)) - p0
        assert interp_dp(locked_table, a_deg, p0) == pytest.approx(truth, abs=1e-2)


def test_interp_rejects_out_of_hull(locked_table):
    with pytest.raises(RangeError):
        interp_dp(locked_table, -1.0, 60.0)
    with pytest.raises(RangeError):
        interp_dp(locked_table, 30.0, 95.0)
    with pytest.raises(RangeError):
        interp_torque(locked_table, 81.0, 60.0)


def test_angle_from_dp_zero(locked_table):
    assert angle_from_dp(locked_table, 0.0, 60.0) == 0.0


def test_angle_from_dp_roundtrip_at_nodes(locked_table):
    for p0 in (0.0, 20.0, 60.0, 80.0):
        for i in range(0, 81, 5):
            a = float(locked_table.alpha_grid[i])
            dp = interp_dp(locked_table, a, p0)
            if dp == 0.0:
                continue
            assert angle_from_dp(locked_table, dp, p0) == pytest.approx(a, abs=2e-3)


def test_angle_from_dp_roundtrip_off_nodes(locked_table):
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = float(rng.uniform(1.0, 79.0))
        p0 = float(rng.uniform(0.0, 80.0))
        dp = interp_dp(locked_table, a, p0)
        assert angle_from_dp(locked_table, dp, p0) == pytest.approx(a, abs=2e-3)


def test_angle_from_dp_noise_propagation(locked_table):
    # a noisy dp maps to an angle error bounded by noise / local slope
    p0, a_star = 60.0, 30.0
    dp_star = interp_dp(locked_table, a_star, p0)
    slope_lo = (
        interp_dp(locked_table, a_star - 2.0, p0) - interp_dp(locked_table, a_star - 3.0, p0)
    )  # kPa per deg, shallowest slope near the operating point
    rng = np.random.default_rng(17)
    sigma = 0.26
    for _ in range(100):
        noisy = max(dp_star + float(rng.normal(0.0, sigma)), 0.0)
        a_hat = angle_from_dp(locked_table, noisy, p0)
        assert abs(a_hat - a_star) <= abs(noisy - dp_star) / slope_lo + 2e-3


def _bisect_angle_from_dp(table, dp, p0, tol_deg=1e-3):
    """Reference: bisection on the interpolated dp curve to tol_deg."""
    lo, hi = float(table.alpha_grid[0]), float(table.alpha_grid[-1])
    if dp <= interp_dp(table, lo, p0):
        return lo
    while hi - lo > tol_deg:
        mid = 0.5 * (lo + hi)
        if interp_dp(table, mid, p0) < dp:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_angle_from_dp_exact_inverse(locked_table):
    rng = np.random.default_rng(41)
    for _ in range(300):
        p0 = float(rng.uniform(0.0, 80.0))
        dp = float(rng.uniform(0.0, interp_dp(locked_table, 80.0, p0)))
        a = angle_from_dp(locked_table, dp, p0)
        assert type(a) is float
        assert interp_dp(locked_table, a, p0) == pytest.approx(dp, abs=1e-9)
        assert a == pytest.approx(_bisect_angle_from_dp(locked_table, dp, p0), abs=1e-3)


def test_angle_from_dp_smallest_angle_on_flat_and_dipping_columns():
    # the validator lets a column dip by up to 1e-9; the first crossing is returned
    alpha = np.array([0.0, 1.0, 2.0, 3.0])
    col = np.array([0.0, 2.0, 2.0 - 5e-10, 3.0])
    table = CalibrationTable(alpha, np.array([0.0, 1.0]), np.c_[col, col], np.zeros((4, 2)))
    assert angle_from_dp(table, 1.0, 0.5) == 0.5
    assert angle_from_dp(table, 2.0, 0.5) == 1.0
    assert angle_from_dp(table, 2.0 - 2.5e-10, 0.5) == pytest.approx(1.0, abs=1e-9)
    assert angle_from_dp(table, 2.5, 0.5) == pytest.approx(2.5)
    assert angle_from_dp(table, 3.0 + 1e-13, 0.5) == 3.0


def test_angle_from_dp_errors(locked_table):
    with pytest.raises(DomainError):
        angle_from_dp(locked_table, -0.1, 60.0)
    dp_max = interp_dp(locked_table, 80.0, 60.0)
    with pytest.raises(SaturationError):
        angle_from_dp(locked_table, dp_max + 1.0, 60.0)


def test_force_from_dp_zero_in_dead_zone(geom, locked_table):
    # small dp maps to angles inside the fabric dead zone: zero torque, zero force
    assert force_from_dp(locked_table, geom, 0.0, 60.0) == (0.0, 0.0)
    dp_at_15deg = interp_dp(locked_table, 15.0, 60.0)
    alpha_deg, force = force_from_dp(locked_table, geom, dp_at_15deg, 60.0)
    assert alpha_deg == pytest.approx(15.0, abs=1e-9)
    assert force == pytest.approx(0.0, abs=1e-9)


def test_force_from_dp_scales_with_moment_arm(geom, locked_table):
    from dataclasses import replace

    dp = interp_dp(locked_table, 45.0, 60.0)
    a1, f1 = force_from_dp(locked_table, geom, dp, 60.0)
    a2, f2 = force_from_dp(locked_table, replace(geom, tip_arm=2 * geom.tip_arm), dp, 60.0)
    assert f1 > 0.0
    assert a1 == a2 == angle_from_dp(locked_table, dp, 60.0)
    assert f2 == pytest.approx(f1 / 2.0)


def test_force_from_dp_matches_plant(ring, geom, locked_table):
    # drive the plant to a known angle and check the inferred force
    p0 = 60.0
    state = lock(RingState(p_gauge=p0, alpha=0.0), ring)
    for a_deg in (30.0, 45.0, 60.0, 75.0):
        alpha = math.radians(a_deg)
        p = pressure_at_angle(state, ring, alpha)
        truth = joint_torque(ring, alpha, p) / geom.tip_arm
        alpha_deg, est = force_from_dp(locked_table, geom, p - p0, p0)
        assert alpha_deg == pytest.approx(a_deg, abs=0.05)
        assert est == pytest.approx(truth, rel=5e-3)


def _per_cell_csv(table):
    """Reference: the CSV text with every cell formatted on its own."""
    fmt = lambda x: format(float(x), ".17g")
    lines = [
        "# caltab v1",
        "# meta: " + ";".join(f"{k}={v}" for k, v in table.meta.items()),
        "alpha_deg,p0_kpa,dp_kpa,torque_nmm",
    ]
    for i, a in enumerate(table.alpha_grid):
        for j, p in enumerate(table.p0_grid):
            cells = (a, p, table.dp_surface[i, j], table.torque_surface[i, j])
            lines.append(",".join(fmt(x) for x in cells))
    return "\n".join(lines) + "\n"


def test_write_csv_equals_per_cell_format(ring, locked_table, regulated_table):
    rng = np.random.default_rng(11)
    specials = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, -2.5]

    def spread(shape):
        """Random signs and magnitudes from 1e-300 to 1e300."""
        return rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape)

    tables = [
        locked_table,
        regulated_table,
        # the benchmark's dense shapes: 161 x 121 regulated, 801 x 17 locked
        _regulated(ring, alpha_step_deg=0.5, p_max_kpa=120.0, p_step_kpa=1.0),
        _locked(ring, alpha_step_deg=0.1, p0_grid_kpa=[5.0 * j for j in range(17)]),
        CalibrationTable(
            [-0.0, 1e300], [-1e-300, 2.5], [[0.0, -0.0], [1e-300, 2.5]], [[-1e300, 1e300], [-0.0, -2.5]]
        ),
    ]
    for n_alpha, n_p0 in ((2, 2), (9, 4), (40, 17)):
        torque = spread((n_alpha, n_p0))
        torque.flat[::3] = rng.choice(specials, torque.flat[::3].size)
        dp = np.sort(spread((n_alpha, n_p0)), axis=0)
        meta = {"mode": "random", "note": "100% of cells"}
        tables.append(CalibrationTable(np.sort(spread(n_alpha)), np.sort(spread(n_p0)), dp, torque, meta))
    for table in tables:
        assert write_csv(table) == _per_cell_csv(table)


def test_table_invariants_enforced():
    with pytest.raises(ConfigError):
        CalibrationTable(np.array([0.0]), np.array([0.0, 1.0]), np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(DomainError, match="strictly increasing"):
        CalibrationTable(
            np.array([0.0, 0.0, 1.0]),
            np.array([0.0, 1.0]),
            np.zeros((3, 2)),
            np.zeros((3, 2)),
        )
    with pytest.raises(DomainError, match="shape"):
        CalibrationTable(
            np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.zeros((3, 2)), np.zeros((2, 2))
        )
    # NaN fails every comparison and inf - inf is NaN, so neither shows as a step <= 0
    for alpha_grid, p0_grid in (
        ([0.0, math.nan, 2.0], [0.0, 1.0, 2.0]),
        ([0.0, 1.0, 2.0], [math.inf] * 3),
        ([0.0, 1.0, math.inf], [0.0, 1.0, 2.0]),
        ([0.0, 1.0, 2.0], [-math.inf, 0.0, 1.0]),
    ):
        with pytest.raises(DomainError, match="_grid is not strictly increasing and finite"):
            CalibrationTable(alpha_grid, p0_grid, np.zeros((3, 3)), np.zeros((3, 3)))
    for bad in (math.nan, math.inf):
        surface = np.zeros((2, 2))
        surface[1, 1] = bad
        with pytest.raises(DomainError, match="dp_surface holds a non-finite value"):
            CalibrationTable([0.0, 1.0], [0.0, 1.0], surface, np.zeros((2, 2)))
        with pytest.raises(DomainError, match="torque_surface holds a non-finite value"):
            CalibrationTable([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)), surface)
    with pytest.raises(DomainError, match="alpha=0"):
        CalibrationTable(
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
            np.array([[1.0, 1.0], [2.0, 2.0]]),
            np.zeros((2, 2)),
        )
    with pytest.raises(DomainError, match="non-decreasing"):
        CalibrationTable(
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
            np.array([[0.0, 0.0], [-1.0, 1.0]]),
            np.zeros((2, 2)),
        )


def test_degenerate_sweep_rejected(ring):
    with pytest.raises(ConfigError):
        _locked(ring, p0_grid_kpa=(60.0,))
    with pytest.raises(ConfigError):
        _regulated(ring, alpha_max_deg=0.0)
    for step in (0.0, -1.0, math.nan, math.inf, 80.0 / MAX_GRID_POINTS):  # the last one point past the cap
        with pytest.raises(ConfigError, match="grid step"):
            _locked(ring, alpha_step_deg=step)
        with pytest.raises(ConfigError, match="grid step"):
            _regulated(ring, p_step_kpa=step)
        with pytest.raises(ConfigError, match="grid step"):
            _hysteresis(ring, alpha_step_deg=step)
    # exactly at the cap: 80 deg and 150 kPa, the default spans, in MAX_GRID_POINTS points
    at_cap = 80.0 / (MAX_GRID_POINTS - 1)
    assert _locked(ring, alpha_step_deg=at_cap).alpha_grid.size == MAX_GRID_POINTS
    assert _hysteresis(ring, alpha_step_deg=at_cap)[0].size == MAX_GRID_POINTS
    p_at_cap = 150.0 / (MAX_GRID_POINTS - 1)
    assert _regulated(ring, p_step_kpa=p_at_cap).p0_grid.size == MAX_GRID_POINTS
    # the table rejects a p0 grid that is not strictly increasing, the ring state a negative p0
    for p0_grid in ((20.0, 0.0), (0.0, 20.0, 20.0)):
        with pytest.raises(DomainError, match="p0_grid is not strictly increasing"):
            _locked(ring, p0_grid_kpa=p0_grid)
    with pytest.raises(DomainError, match="gauge pressure must be non-negative"):
        _locked(ring, p0_grid_kpa=(-5.0, 20.0))
    with pytest.raises(DomainError, match="gauge pressure must be non-negative"):
        _hysteresis(ring, p0=-5.0)


def test_table_cells_are_capped(ring):
    # 1000 x 1000 cells is the cap; one row or one p0 column more is refused
    assert MAX_TABLE_CELLS == 1000 * 1000
    table = _regulated(ring, alpha_step_deg=80.0 / 999, p_step_kpa=150.0 / 999)
    assert table.torque_surface.size == MAX_TABLE_CELLS
    with pytest.raises(ConfigError, match="1000 x 1001 cells"):
        _regulated(ring, alpha_step_deg=80.0 / 999, p_step_kpa=150.0 / 1000)
    p0_grid = [float(p) for p in range(100)]
    table = _locked(ring, p0_grid_kpa=p0_grid, alpha_step_deg=80.0 / 9999)
    assert table.dp_surface.size == MAX_TABLE_CELLS
    with pytest.raises(ConfigError, match="10001 x 100 cells"):
        _locked(ring, p0_grid_kpa=p0_grid, alpha_step_deg=80.0 / 10000)


def test_grid_ends_at_its_last_node_at_or_below_stop():
    # the interval count is floored, so a step that does not divide the span stops short
    assert _grid(0.0, 80.0, 45.0).tolist() == [0.0, 45.0]
    assert _grid(0.0, 150.0, 100.0).tolist() == [0.0, 100.0]
    assert _grid(0.0, 80.0, 35.0).tolist() == [0.0, 35.0, 70.0]
    grid = _grid(0.0, 80.0, 0.3)
    assert grid.size == 267 and grid[-1] == pytest.approx(79.8) and grid[-1] <= 80.0
    # a step that divides the span, within rounding, ends at stop
    for step, size in ((0.1, 801), (80.0 / 999, 1000), (1.0, 81), (5.0, 17)):
        grid = _grid(0.0, 80.0, step)
        assert grid.size == size and grid[-1] == 80.0
        assert np.array_equal(grid, step * np.arange(size))


def test_sweeps_stay_inside_the_joint_range(ring):
    for alpha_max in (80.0 + 1e-9, 200.0, 300.0):
        for sweep in (_locked, _regulated, _hysteresis):
            with pytest.raises(ConfigError, match="exceeds the 80.0 deg joint range"):
                sweep(ring, alpha_max_deg=alpha_max)
    assert _locked(ring, alpha_max_deg=80.0).alpha_grid[-1] == 80.0


def _outcome(fn, *args):
    """repr of fn(*args), or of the package error it raises."""
    try:
        return repr(fn(*args))
    except SoftgripError as exc:
        return repr(exc)


# sha256 over the repr of the table inversions' outcomes on the cases below,
# pinned from the inversions as first written: a faster lookup must keep every
# result, and every error message, bit for bit
INVERSION_DIGEST = "2b070fa2d6817c9888efc76de470e4c9792defdc43107073431597bd75a49ce6"


def test_inversion_outcomes_are_bit_identical(geom, locked_table):
    alpha = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    col = np.array([0.0, 2.0, 2.0 - 5e-10, 2.0, 3.0])  # a flat stretch with a tolerated dip
    torque = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 7.0], [9.0, 11.0], [12.0, 15.0]])  # a dead zone
    flat = CalibrationTable(alpha, np.array([0.0, 10.0]), np.c_[col, 1.5 * col], torque)
    rng = np.random.default_rng(1618)
    outcomes = []
    for table in (locked_table, flat):
        p_lo, p_hi = float(table.p0_grid[0]), float(table.p0_grid[-1])
        a_hi = float(table.alpha_grid[-1])
        pressures = [*table.p0_grid.tolist(), *rng.uniform(p_lo - 5.0, p_hi + 5.0, 300).tolist()]
        for p0 in pressures:
            top = interp_dp(table, a_hi, min(max(p0, p_lo), p_hi))
            dead = interp_dp(table, float(rng.uniform(0.0, 0.25 * a_hi)), min(max(p0, p_lo), p_hi))
            for dp in (0.0, -0.5, dead, 2.0, 2.0 - 2.5e-10, top, top + 1e-13, top + 1.0, float(rng.uniform(0.0, top))):
                outcomes.append(_outcome(angle_from_dp, table, dp, p0))
                outcomes.append(_outcome(force_from_dp, table, geom, dp, p0))
            outcomes.append(_outcome(interp_torque, table, float(rng.uniform(-2.0, a_hi + 2.0)), p0))
    kinds = Counter(o.split("(")[0] for o in outcomes)
    assert min(kinds[kind] for kind in ("RangeError", "SaturationError", "DomainError")) > 50
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == INVERSION_DIGEST
