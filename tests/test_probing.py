import math
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

import softgrip.calibration
import softgrip.probing
from softgrip.calibration import (
    angle_from_dp, generate_locked_sweep, interp_dp, interp_torque, misreads_kink,
)
from softgrip.config import DEFAULTS
from softgrip.contact import solve_equilibrium
from softgrip.errors import ConfigError, RangeError, SaturationError, StateError
from softgrip.geometry import FingerGeometry, tip_extent
from softgrip.pneumatics import (
    PressureSensor, RingModel, RingState, joint_torque, lock, measurement_sigma, pressure_at_angle,
)
from softgrip.probing import (
    GripperSim,
    ProbeConfig,
    check_travel,
    detect_contact,
    force_from_dp,
    probe,
    run_probe,
    sensitivity_sweep,
)

CFG = ProbeConfig()
# sensitivity_sweep's settings as the config sets them by default
SWEEP = {"dc_grid": DEFAULTS["sensitivity"]["dc_grid_mm"], "base_cfg": ProbeConfig(), "surface_offset": 40.0,
         "max_open": DEFAULTS["gripper"]["max_open_mm"]}


def _table_at(ring, p0_grid):
    """The default locked table over the supply pressures p0_grid, which the sweep ranks."""
    return generate_locked_sweep(ring, **{**DEFAULTS["calibration"]["locked"], "p0_grid_kpa": p0_grid})


def _sim(geom, ring, sensor, k, offset=40.0, seed=0):
    return GripperSim(geom, ring, sensor, k, offset, max_open=45.0, seed=seed)


def test_probe_config_totals():
    assert CFG.d_c == 30.0
    with pytest.raises(ConfigError):
        ProbeConfig(n_probe_steps=0)
    with pytest.raises(ConfigError):
        ProbeConfig(probe_step=-1.0)
    with pytest.raises(TypeError):  # the threshold is derived, never set
        ProbeConfig(contact_threshold=3.0)


def test_default_threshold_formula(sensor):
    for reads in (1, 512, 4096):
        expect = 6.0 * measurement_sigma(sensor, reads) + sensor.quant_step
        assert replace(CFG, settle_reads=reads).threshold(sensor) == pytest.approx(expect)


def test_detect_contact_noise_free(geom, ring, quiet_sensor, locked_table):
    sim = _sim(geom, ring, quiet_sensor, 202.39, offset=40.0)
    opening, dp, flags = detect_contact(sim, locked_table, CFG)
    assert flags == []
    assert opening == pytest.approx(40.0, abs=0.05)
    assert dp > CFG.threshold(quiet_sensor)
    assert not hasattr(sim, "contact_opening") and not hasattr(sim, "contact_dp")


def test_detect_contact_off_grid_offsets(geom, ring, quiet_sensor, locked_table):
    for offset in (36.3, 38.0, 40.7, 41.0):
        sim = _sim(geom, ring, quiet_sensor, 150.0, offset=offset)
        opening, _, flags = detect_contact(sim, locked_table, CFG)
        assert flags == []
        assert opening == pytest.approx(offset, abs=CFG.approach_step)


def test_quiet_contact_is_found_at_any_supply_pressure(geom, ring, quiet_sensor, locked_table):
    # a quiet sensor's threshold is 0 kPa, so the lock baseline must read what a
    # contact-free step reads, rounding and all; p0 runs over the table's range, its top included
    rng = np.random.default_rng(33)
    top = float(locked_table.p0_grid[-1])
    for p0, offset in [(top, 40.0), *zip(rng.uniform(0.0, top, 400).tolist(), rng.uniform(5.0, 44.0, 400).tolist())]:
        sim = _sim(geom, ring, quiet_sensor, 150.0, offset=offset)
        opening, _, flags = detect_contact(sim, locked_table, replace(CFG, p0=p0))
        assert flags == [] and abs(opening - offset) <= CFG.approach_step, (p0, offset, opening, flags)


def test_detect_contact_noisy(geom, ring, sensor, locked_table):
    for seed in range(5):
        sim = _sim(geom, ring, sensor, 100.0, offset=40.0, seed=seed)
        opening, _, flags = detect_contact(sim, locked_table, CFG)
        assert flags == []
        assert opening == pytest.approx(40.0, abs=CFG.approach_step)


def test_empty_workspace_reports_no_contact(geom, ring, sensor, locked_table):
    sim = GripperSim(geom, ring, sensor, 100.0, 0.0, max_open=45.0, seed=0)
    report = run_probe(sim, locked_table, CFG)
    assert report.flags == ["no_contact"]
    assert report.contact_opening is None
    assert report.k_r is None


def test_probe_requires_contact(geom, ring, quiet_sensor, locked_table):
    # probe continues a locked session; a fresh handle has none
    sim = _sim(geom, ring, quiet_sensor, 100.0)
    with pytest.raises(StateError):
        probe(sim, locked_table, CFG, 40.0, 0.0)


def test_probe_trace_shape_and_monotonicity(geom, ring, quiet_sensor, locked_table):
    sim = _sim(geom, ring, quiet_sensor, 100.0)
    report = run_probe(sim, locked_table, CFG)
    assert len(report.dp_trace) == CFG.n_probe_steps
    assert [dc for dc, _ in report.dp_trace] == [6.0, 12.0, 18.0, 24.0, 30.0]
    dps = [dp for _, dp in report.dp_trace]
    assert all(b > a for a, b in zip(dps, dps[1:]))
    assert dps[0] > 0.0


def test_noise_free_stiffness_recovery(geom, ring, quiet_sensor, locked_table):
    # the full estimation chain recovers the object's Hooke stiffness
    for k_true in (20.0, 50.83, 100.0, 202.39, 250.0):
        sim = _sim(geom, ring, quiet_sensor, k_true)
        report = run_probe(sim, locked_table, CFG)
        assert report.flags == []
        assert report.k_o_est == pytest.approx(k_true, rel=0.10)
        truth = sim.true_equilibrium()
        assert report.est_force == pytest.approx(truth.force, rel=0.05)


def test_estimates_are_self_consistent(geom, ring, quiet_sensor, locked_table):
    sim = _sim(geom, ring, quiet_sensor, 150.0)
    report = run_probe(sim, locked_table, CFG)
    assert report.k_r == pytest.approx(report.est_force / CFG.d_c)
    assert report.k_o_est == pytest.approx(report.est_force / report.est_delta)
    assert 0.0 < report.est_delta < CFG.d_c


def test_relative_stiffness_preserves_ordering(geom, ring, quiet_sensor, locked_table):
    for p0 in (20.0, 60.0, 80.0):
        cfg = replace(CFG, p0=p0)
        krs = []
        for k in (50.83, 54.87, 202.39):
            sim = _sim(geom, ring, quiet_sensor, k)
            krs.append(run_probe(sim, locked_table, cfg).k_r)
        assert krs[0] < krs[1] < krs[2]


def test_soft_object_low_relative_stiffness(geom, ring, quiet_sensor, locked_table):
    reports = {}
    for k in (25.0, 150.0):
        sim = _sim(geom, ring, quiet_sensor, k)
        reports[k] = run_probe(sim, locked_table, CFG)
    assert reports[25.0].k_r < 0.6 * reports[150.0].k_r


def test_probe_with_supplied_contact_opening(geom, ring, quiet_sensor, locked_table):
    sim = _sim(geom, ring, quiet_sensor, 202.39)
    sim.pressurize_and_lock(CFG.p0, CFG.settle_reads)
    report = probe(sim, locked_table, CFG, 40.0, sim.close_to(40.0, CFG.settle_reads))
    assert report.contact_opening == 40.0
    assert report.k_o_est == pytest.approx(202.39, rel=0.02)


def test_probe_deterministic_for_fixed_seed(geom, ring, sensor, locked_table):
    r1 = run_probe(_sim(geom, ring, sensor, 100.0, seed=123), locked_table, CFG)
    r2 = run_probe(_sim(geom, ring, sensor, 100.0, seed=123), locked_table, CFG)
    assert asdict(r1) == asdict(r2)
    r3 = run_probe(_sim(geom, ring, sensor, 100.0, seed=124), locked_table, CFG)
    assert r3.dp_trace != r1.dp_trace


def test_report_serialization(geom, ring, quiet_sensor, locked_table):
    import json

    sim = _sim(geom, ring, quiet_sensor, 100.0)
    report = run_probe(sim, locked_table, CFG)
    doc = json.loads(json.dumps(asdict(report)))
    assert doc["k_r"] == report.k_r
    assert doc["dp_trace"] == [list(step) for step in report.dp_trace]
    assert doc["p0"] == CFG.p0
    csv = report.trace_csv().splitlines()
    assert csv[0] == "step,dc_mm,dp_kpa"
    assert len(csv) == 1 + len(report.dp_trace)
    step, dc, dp = csv[1].split(",")
    assert (int(step), float(dc), float(dp)) == (1, *report.dp_trace[0])


def test_travel_is_checked_where_the_sim_relies_on_it(geom, ring, sensor):
    # the gripper opens, and at least as wide as the surface; an offset at max_open is in reach
    check_travel(45.0, 45.0)
    check_travel(45.0, 0.0)  # an empty workspace
    with pytest.raises(ConfigError, match=r"^max_open must be positive, got 0.0$"):
        GripperSim(geom, ring, sensor, 100.0, 0.0, max_open=0.0)
    with pytest.raises(ConfigError, match=r"^max_open must be positive, got -1.0$"):
        GripperSim(geom, ring, sensor, 100.0, 0.0, max_open=-1.0)
    with pytest.raises(ConfigError, match=r"^surface_offset 50.0 exceeds max_open 45.0$"):
        GripperSim(geom, ring, sensor, 100.0, 50.0, max_open=45.0)


def test_sim_guards(geom, ring, sensor):
    with pytest.raises(ConfigError):
        GripperSim(geom, ring, sensor, 100.0, 50.0, max_open=45.0)
    with pytest.raises(ConfigError):
        GripperSim(geom, ring, sensor, 100.0, 40.0, max_open=0.0)
    sim = _sim(geom, ring, sensor, 100.0)
    with pytest.raises(StateError):
        sim.close_to(30.0, 8)


def test_sensitivity_sweep_identical_objects_zero(geom, ring, sensor):
    ranked, _ = sensitivity_sweep(
        geom, ring, sensor, _table_at(ring, (20.0, 60.0)), 50.0, 50.0, **{**SWEEP, "dc_grid": (12.0, 30.0)},
    )
    assert all(sep == pytest.approx(0.0, abs=1e-9) for _, _, sep, _ in ranked)


def test_sensitivity_sweep_ranks_by_z(geom, ring, sensor, locked_table):
    ranked, _ = sensitivity_sweep(geom, ring, sensor, locked_table, 50.83, 54.87, **SWEEP)
    zs = [z for _, _, _, z in ranked]
    assert zs == sorted(zs, reverse=True)
    # separation grows with closing depth at a fixed supply pressure
    by_key = {(p0, dc): sep for p0, dc, sep, _ in ranked}
    seps = [by_key[(60.0, dc)] for dc in (20.0, 30.0, 40.0)]
    assert seps[0] < seps[1] < seps[2]


def test_sensitivity_sweep_deterministic(geom, ring, sensor):
    table = _table_at(ring, (40.0, 80.0))
    r1 = sensitivity_sweep(geom, ring, sensor, table, 50.83, 202.39, **{**SWEEP, "dc_grid": (18.0, 30.0)})
    r2 = sensitivity_sweep(geom, ring, sensor, table, 50.83, 202.39, **{**SWEEP, "dc_grid": (18.0, 30.0)})
    assert r1 == r2


def test_sensitivity_sweep_leaves_out_flagged_pairs(geom, ring, sensor, locked_table):
    # a closing past the travel left is flagged travel_exhausted and not ranked;
    # the sweep returns every pair it did not rank, in grid order
    dc_grid = (30.0, 60.0, 90.0)
    ranked, left_out = sensitivity_sweep(
        geom, ring, sensor, locked_table, 50.83, 54.87, **{**SWEEP, "dc_grid": dc_grid},
    )
    assert [(p0, dc) for p0, dc, _, _ in ranked if p0 == 60.0] == [(60.0, 30.0)]
    ranked_pairs = {(p0, dc) for p0, dc, _, _ in ranked}
    grid = [(p0, dc) for p0 in locked_table.p0_grid.tolist() for dc in dc_grid]
    assert left_out == [pair for pair in grid if pair not in ranked_pairs]


def test_saturated_flag_matches_plant_truth(ring, sensor, quiet_sensor, locked_table):
    # the flag comes from the sensor alone; over random fingers, supply
    # pressures and objects it must agree with the plant's equilibrium at the
    # last probe step. Fingers that stop near 45 deg or less can saturate.
    rng = np.random.default_rng(2024)
    saturated = 0
    for i in range(400):
        geom = FingerGeometry(alpha_max=math.radians(rng.uniform(30.0, 80.0)))
        cfg = replace(CFG, p0=float(rng.choice([0.0, 20.0, 40.0, 60.0, 80.0])))
        k = float(10.0 ** rng.uniform(math.log10(3.0), 4.0))
        for model in (sensor, quiet_sensor):
            sim = GripperSim(geom, ring, model, k, 40.0, max_open=45.0, seed=i)
            report = run_probe(sim, locked_table, cfg)
            truth = sim.true_equilibrium().saturated
            assert ("saturated" in report.flags) == truth, (i, model.noise_frac, report.flags)
            saturated += truth
    assert 40 <= saturated <= 760  # both outcomes occur often


def test_probe_reading_past_joint_range_is_out_of_table(ring, sensor, locked_table):
    # the table reaches 80 deg, this finger 34: a 100 N/mm cube bends it to 33.88 deg,
    # and noise reads some of those bends past 34 deg, which are flagged, not a DomainError
    geom = FingerGeometry(alpha_max=math.radians(34.0))
    past = 0
    for seed in range(40):
        sim = _sim(geom, ring, sensor, 100.0, seed=seed)
        sim.pressurize_and_lock(CFG.p0, CFG.settle_reads)
        report = probe(sim, locked_table, CFG, 40.0, 0.0)  # the trace holds the lock-referenced dp
        beyond = angle_from_dp(locked_table, max(report.dp_trace[-1][1], 0.0), CFG.p0) > 34.0
        assert (report.flags == ["out_of_table"]) == beyond, seed
        assert _no_estimates(report) == beyond, seed
        past += beyond
    assert 5 <= past <= 35  # both outcomes occur often


def test_short_fingers_never_raise(ring, sensor, locked_table):
    # fingers that stop at 8-20 deg, inside the 20 deg dead zone: the approach step that
    # crosses the threshold bends the finger to within 0.5 mm of its full extent, where
    # noise reads some bends past alpha_max. Those are contact_overshoot, not a DomainError
    rng = np.random.default_rng(35)
    overshoots = 0
    for seed in range(200):
        geom = FingerGeometry(alpha_max=math.radians(rng.uniform(8.0, 20.0)))
        first = rng.uniform(0.0, 1.5)  # mm of the first closing into the object, below the threshold
        step = tip_extent(geom, geom.alpha_max) - rng.uniform(0.0, 0.5) - first
        cfg = replace(CFG, p0=float(rng.uniform(40.0, 80.0)), approach_step=step)
        k = float(10.0 ** rng.uniform(math.log10(3.0), 3.0))
        sim = GripperSim(geom, ring, sensor, k, 40.0, max_open=40.0 + step - first, seed=seed)
        report = run_probe(sim, locked_table, cfg)
        overshoots += report.flags == ["contact_overshoot"]
    assert 10 <= overshoots <= 190  # past the finger's range often, and not always


def test_force_from_dp_zero_in_dead_zone(geom, locked_table):
    # small dp maps to angles inside the fabric dead zone: a free bend, zero torque, zero force
    assert force_from_dp(locked_table, geom, 0.0, 60.0) == ("free", 0.0, 0.0)
    dp_at_15deg = interp_dp(locked_table, 15.0, 60.0)
    zone, alpha_deg, force = force_from_dp(locked_table, geom, dp_at_15deg, 60.0)
    assert zone == "free" and force == 0.0
    assert alpha_deg == pytest.approx(15.0, abs=1e-9)


def test_force_from_dp_scales_with_moment_arm(geom, locked_table):
    dp = interp_dp(locked_table, 45.0, 60.0)
    z1, a1, f1 = force_from_dp(locked_table, geom, dp, 60.0)
    z2, a2, f2 = force_from_dp(locked_table, replace(geom, tip_arm=2 * geom.tip_arm), dp, 60.0)
    assert z1 == z2 == "loaded" and f1 > 0.0
    assert a1 == a2 == angle_from_dp(locked_table, dp, 60.0)
    assert f2 == pytest.approx(f1 / 2.0)


def test_force_from_dp_matches_plant(ring, geom, locked_table):
    # drive the plant to a known angle and check the inferred force
    p0 = 60.0
    nv = lock(RingState(p_gauge=p0, alpha=0.0), ring)
    for a_deg in (30.0, 45.0, 60.0, 75.0):
        alpha = math.radians(a_deg)
        p = pressure_at_angle(nv, ring, alpha)
        truth = joint_torque(ring, alpha, p) / geom.tip_arm
        zone, alpha_deg, est = force_from_dp(locked_table, geom, p - p0, p0)
        assert zone == "loaded"
        assert alpha_deg == pytest.approx(a_deg, abs=0.05)
        assert est == pytest.approx(truth, rel=5e-3)


def test_force_from_dp_zone_agrees_with_the_lookups(ring, locked_table):
    # the zone is what the table's own lookups say of the reading, on the bundled table and
    # on one whose 19.5 deg slack lies inside its 19-20 deg cell, where the kink shows
    off_grid = _table_at(replace(ring, alpha_slack=math.radians(19.5)), [0.0, 20.0, 40.0, 60.0, 80.0])
    rng = np.random.default_rng(2035)
    zones = Counter()
    for table in (locked_table, off_grid):
        p_lo, p_hi = table.p0_grid[0], table.p0_grid[-1]
        for _ in range(60):
            geom = FingerGeometry(alpha_max=math.radians(rng.uniform(5.0, 80.0)))
            p0 = float(rng.choice(table.p0_grid)) if rng.random() < 0.3 else float(rng.uniform(p_lo, p_hi))
            top = interp_dp(table, float(table.alpha_grid[-1]), p0)
            for dp in rng.uniform(0.0, top + 1.0, 40).tolist():
                zone, alpha_deg, force = force_from_dp(table, geom, dp, p0)
                zones[zone] += 1
                try:
                    angle = angle_from_dp(table, dp, p0)
                except RangeError:
                    angle = math.inf
                if math.radians(angle) > geom.alpha_max:
                    assert (zone, alpha_deg, force) == ("past", None, None)
                    continue
                torque = interp_torque(table, angle, p0)
                assert alpha_deg == angle
                assert (zone == "free") == (torque == 0.0)
                assert (zone == "kink") == misreads_kink(table, angle, p0)
                if zone == "kink":
                    assert force is None
                else:
                    assert force == torque / geom.tip_arm
    assert set(zones) == {"past", "free", "kink", "loaded"}, zones


def _no_estimates(report):
    return (report.est_force, report.k_r, report.k_o_est, report.est_delta) == (None,) * 4


@pytest.mark.parametrize("p0", (0.0, 80.0))
def test_closings_inside_the_dead_zone_are_flagged(geom, ring, sensor, quiet_sensor, locked_table, p0):
    # d_c 10 mm lies inside the 14.6 mm fingertip extent of the fabric dead zone,
    # where the table's torque is zero for any object: the pressure rises above
    # the threshold, yet measures no force, so cube1 and cube3 cannot be told apart
    cfg = replace(CFG, p0=p0, probe_step=2.0)
    sims = [_sim(geom, ring, quiet_sensor, k) for k in (50.83, 202.39)]
    sims += [_sim(geom, ring, sensor, 50.83, seed=seed) for seed in range(200)]
    for sim in sims:
        report = run_probe(sim, locked_table, cfg)
        assert report.flags == ["dead_zone"] and _no_estimates(report), (sim.k_object, report)


@pytest.mark.parametrize("p0", (0.0, 80.0))
def test_no_unflagged_probe_reports_zero_stiffness(geom, ring, sensor, locked_table, p0):
    # d_c 15 mm ends just past the dead zone: noise puts some last readings
    # inside it, and those are flagged rather than reported as k_r 0
    cfg = replace(CFG, p0=p0, probe_step=3.0)
    reports = [run_probe(_sim(geom, ring, sensor, 50.83, seed=seed), locked_table, cfg) for seed in range(200)]
    dead = [rep for rep in reports if "dead_zone" in rep.flags]
    unflagged = [rep for rep in reports if not rep.flags]
    assert dead and unflagged  # both outcomes occur
    assert all(_no_estimates(rep) for rep in dead)
    assert all(rep.k_r > 0.0 for rep in unflagged)


def test_contact_probe_inverts_the_table_twice(geom, ring, sensor, locked_table, monkeypatch):
    # once for the contact opening, once for the final reading's angle and force
    calls = []
    angle_from_dp = softgrip.calibration.angle_from_dp

    def counted(*args):
        calls.append(args)
        return angle_from_dp(*args)

    monkeypatch.setattr(softgrip.probing, "angle_from_dp", counted)
    monkeypatch.setattr(softgrip.calibration, "angle_from_dp", counted)
    report = run_probe(_sim(geom, ring, sensor, 100.0, seed=5), locked_table, CFG)
    assert report.flags == [] and report.k_o_est is not None
    assert len(calls) == 2


def test_probe_solves_each_contact_step_once(geom, ring, sensor, locked_table, monkeypatch):
    # one equilibrium per commanded opening in contact, and none besides
    solves, openings = [], []
    close_to = GripperSim.close_to

    def recorded_solve(*args):
        solves.append(solve_equilibrium(*args))
        return solves[-1]

    def recorded_close_to(self, opening, settle_reads):
        openings.append(max(0.0, opening))
        return close_to(self, opening, settle_reads)

    monkeypatch.setattr(softgrip.probing, "solve_equilibrium", recorded_solve)
    monkeypatch.setattr(GripperSim, "close_to", recorded_close_to)
    sim = _sim(geom, ring, sensor, 100.0, seed=5)
    report = run_probe(sim, locked_table, CFG)
    assert report.flags == []
    assert len(solves) == sum(o < 40.0 for o in openings)
    assert len(solves) >= CFG.n_probe_steps

    # the ground truth is a separate solve that reproduces the last step's
    probe_solves = list(solves)
    truth = sim.true_equilibrium()
    assert len(solves) == len(probe_solves) + 1
    assert truth == probe_solves[-1]
    assert truth == solve_equilibrium(geom, ring, sim.nv, 100.0, 40.0 - sim.opening)

    # out of contact close_to solves nothing and true_equilibrium solves alone
    sim.close_to(42.0, 8)
    count = len(solves)
    free = sim.true_equilibrium()
    assert len(solves) == count + 1
    assert free.delta == 0.0 and free.force == 0.0


def test_probe_flags_travel_exhausted(geom, ring, quiet_sensor, locked_table):
    # commanded closing past the travel left: no estimates, like out_of_table
    report = run_probe(_sim(geom, ring, quiet_sensor, 100.0), locked_table, replace(CFG, probe_step=1e9))
    assert report.flags == ["travel_exhausted"]
    assert report.est_force is None and report.k_r is None and report.k_o_est is None
    assert len(report.dp_trace) == CFG.n_probe_steps
    # a shortfall within one approach step of the contact estimate is accepted
    shallow = replace(CFG, probe_step=(40.0 + 0.9 * CFG.approach_step) / CFG.n_probe_steps)
    report = run_probe(_sim(geom, ring, quiet_sensor, 100.0), locked_table, shallow)
    assert report.flags == [] and report.k_r is not None


def test_clipped_closing_leaves_no_mean_bias(geom, ring, sensor, quiet_sensor, locked_table):
    # d_c 40 mm equals cube1's surface offset, so a noisy contact estimate below
    # 40 mm clips the last command at the fully-shut stop; k_o must divide by
    # the closing applied, or its mean over seeds falls several SE low
    cfg = replace(CFG, p0=80.0, probe_step=8.0)
    quiet = run_probe(_sim(geom, ring, quiet_sensor, 50.83), locked_table, cfg).k_o_est
    reports = [run_probe(_sim(geom, ring, sensor, 50.83, seed=seed), locked_table, cfg) for seed in range(300)]
    assert all(rep.flags == [] for rep in reports)
    assert sum(rep.contact_opening < cfg.d_c for rep in reports) > 100  # the clipped case is common
    k_o = np.array([rep.k_o_est for rep in reports])
    se = k_o.std(ddof=1) / math.sqrt(k_o.size)
    assert abs(k_o.mean() - quiet) < 3.0 * se


@pytest.mark.parametrize("noise", (False, True), ids=("quiet", "noisy"))
@pytest.mark.parametrize("step", range(2, 31, 2))
def test_coarse_approach_step_flags_contact_overshoot(geom, ring, sensor, quiet_sensor, locked_table, step, noise):
    # a step that closes past the dead zone before its reading crosses the
    # threshold cannot locate contact by the free-bend inversion: the probe is
    # flagged and reports nothing. Every unflagged probe keeps criterion 5's
    # tolerances without noise; with noise k_o stays within 40%, above the 26%
    # noise alone gives here and below the 79-219% an unflagged 30 mm step gave.
    cfg = replace(CFG, approach_step=float(step))
    for k in (50.83, 202.39):
        for seed in range(5 if noise else 1):
            sim = _sim(geom, ring, sensor if noise else quiet_sensor, k, seed=seed)
            report = run_probe(sim, locked_table, cfg)
            if report.flags:
                assert report.flags == ["contact_overshoot"]
                assert report.contact_opening is None and report.dp_trace == []
                assert report.est_force is None and report.k_r is None and report.k_o_est is None
                continue
            assert step <= 20  # at 22 mm and more every step overshoots
            truth = sim.true_equilibrium()
            if noise:
                assert report.k_o_est == pytest.approx(k, rel=0.40)
            else:
                assert report.k_o_est == pytest.approx(k, rel=0.10)
                assert report.est_force == pytest.approx(truth.force, rel=0.05)


def test_crossing_reading_past_the_table_is_contact_overshoot(geom, ring, quiet_sensor, locked_table, monkeypatch):
    # a crossing reading the table cannot invert closed past its last angle,
    # so past the dead zone too: flagged, not an error
    def saturated(table, dp, p0):
        raise SaturationError(f"dp={dp} kPa above the table maximum")

    monkeypatch.setattr(softgrip.probing, "angle_from_dp", saturated)
    report = run_probe(_sim(geom, ring, quiet_sensor, 100.0), locked_table, CFG)
    assert report.flags == ["contact_overshoot"]
    assert report.contact_opening is None and report.k_o_est is None


def test_approach_draws_the_contact_free_stretch_in_one_batch(geom, ring, sensor, quiet_sensor, monkeypatch):
    # 45 -> 40 mm in 2 mm steps: 43 and 41 mm are surely free and drawn as one
    # batch of 2; 39 mm and on go through close_to. The openings and noise-free
    # dps are those of close_to step by step.
    batches, closes = [], []
    read_avg_batch, close_to = PressureSensor.read_avg_batch, GripperSim.close_to

    def recorded_batch(self, p_true, k, n):
        batches.append(k)
        return read_avg_batch(self, p_true, k, n)

    def recorded_close_to(self, opening, settle_reads):
        closes.append(opening)
        return close_to(self, opening, settle_reads)

    monkeypatch.setattr(PressureSensor, "read_avg_batch", recorded_batch)
    monkeypatch.setattr(GripperSim, "close_to", recorded_close_to)
    sim = _sim(geom, ring, quiet_sensor, 100.0)
    sim.pressurize_and_lock(CFG.p0, CFG.settle_reads)
    stepped = []
    for dp in sim.approach(CFG.approach_step, CFG.settle_reads):
        stepped.append((sim.opening, dp))
    assert batches == [2] and closes[0] == 41.0 - CFG.approach_step and len(closes) == 21  # 39, 37, ..., 1, 0 mm
    monkeypatch.undo()
    ref = _sim(geom, ring, quiet_sensor, 100.0)
    ref.pressurize_and_lock(CFG.p0, CFG.settle_reads)
    expect = []
    while ref.opening > 0.0:
        dp = ref.close_to(ref.opening - CFG.approach_step, CFG.settle_reads)
        expect.append((ref.opening, dp))
    assert stepped == expect
    assert [o for o, _ in stepped][:3] == [43.0, 41.0, 39.0] and stepped[-1][0] == 0.0

    # an empty workspace: the whole approach is one batch, ending at the shut stop
    empty = GripperSim(geom, ring, sensor, 100.0, 0.0, max_open=45.0, seed=3)
    empty.pressurize_and_lock(CFG.p0, CFG.settle_reads)
    dps = list(empty.approach(CFG.approach_step, CFG.settle_reads))
    assert len(dps) == 23 and empty.opening == 0.0
    assert all(abs(dp) < CFG.threshold(sensor) for dp in dps)

    with pytest.raises(StateError):
        next(_sim(geom, ring, sensor, 100.0).approach(2.0, 8))


def test_unflagged_probes_are_accurate_near_an_off_grid_slack(quiet_sensor):
    # 600 noise-free probes of random plants on a 1 deg table: where the slack lies
    # off the grid, the lookup across its cell invents torque. Unflagged, 18 of these
    # probes miss k_o by more than 10% or the force by more than 5%; the kink flag
    # takes them, 1 probe within both and 2 that would flag degenerate_deformation
    rng = np.random.default_rng(7)
    kinks = 0
    for _ in range(600):
        geom = FingerGeometry(
            a=rng.uniform(5.0, 30.0), b=rng.uniform(20.0, 60.0), alpha_max=math.radians(rng.uniform(40.0, 80.0))
        )
        ring = RingModel(
            kappa=rng.uniform(0.05, 0.6), alpha_slack=math.radians(rng.uniform(0.0, 30.0)),
            c1=rng.uniform(5e3, 6e4), c2=rng.uniform(100.0, 1500.0),
        )
        cfg = ProbeConfig(p0=float(rng.choice([0.0, 20.0, 40.0, 60.0, 80.0])), probe_step=rng.uniform(1.0, 8.0))
        k = 10.0 ** rng.uniform(math.log10(3.0), 3.0)
        sim = _sim(geom, ring, quiet_sensor, k)
        report = run_probe(sim, _table_at(ring, [0.0, 20.0, 40.0, 60.0, 80.0]), cfg)
        kinks += "kink" in report.flags
        if not report.flags:
            truth = sim.true_equilibrium().force
            assert abs(report.k_o_est - k) <= 0.10 * k and abs(report.est_force - truth) <= 0.05 * truth
    assert kinks == 21
