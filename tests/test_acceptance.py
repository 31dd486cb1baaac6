"""End-to-end acceptance gate: each test prints one PASS/FAIL line for the
behavior it certifies and pins the tolerance it is held to."""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from softgrip.calibration import hysteresis_sweep, read_csv, write_csv
from softgrip.cli import EXIT_OK, main
from softgrip.config import DEFAULTS
from softgrip.contact import solve_equilibrium, solve_equilibrium_bruteforce
from softgrip.pneumatics import RingModel, RingState, lock
from softgrip.probing import GripperSim, ProbeConfig, detect_contact, run_probe, sensitivity_sweep

CUBES = {"cube1": 50.83, "cube2": 54.87, "cube3": 202.39}
OFFSET = 40.0
MAX_OPEN = 45.0
LOCKED = DEFAULTS["calibration"]["locked"]


def _report(label: str, ok: bool):
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def _probe_kr(geom, ring, sensor, table, k, cfg, seed=None):
    sim = GripperSim(geom, ring, sensor, k, OFFSET, max_open=MAX_OPEN, seed=seed)
    return run_probe(sim, table, cfg)


def test_criterion_1_cube_ordering(geom, ring, sensor, quiet_sensor, locked_table):
    start = time.perf_counter()
    ok = True

    # noise-free ordering at every unflagged supply pressure, d_c = 30 mm
    for p0 in (0.0, 20.0, 40.0, 60.0, 80.0):
        cfg = ProbeConfig(p0=p0)
        reports = {
            n: _probe_kr(geom, ring, quiet_sensor, locked_table, k, cfg)
            for n, k in CUBES.items()
        }
        if any(r.flags for r in reports.values()):
            continue
        krs = [reports[n].k_r for n in ("cube1", "cube2", "cube3")]
        ok &= krs[0] < krs[1] < krs[2]

    # noisy runs at the sensitivity-optimal operating point
    ranked = sensitivity_sweep(
        geom, ring, sensor, locked_table, CUBES["cube1"], CUBES["cube2"],
        p0_grid=LOCKED["p0_grid_kpa"], dc_grid=DEFAULTS["sensitivity"]["dc_grid_mm"], base_cfg=ProbeConfig(),
        surface_offset=OFFSET, max_open=MAX_OPEN,
    )
    p0_opt, dc_opt = ranked[0][0], ranked[0][1]
    cfg = ProbeConfig(p0=p0_opt, probe_step=dc_opt / 5.0)
    top3 = 0
    one_lt_two = 0
    for seed in range(100):
        krs = {}
        for idx, (name, k) in enumerate(CUBES.items()):
            child = np.random.SeedSequence([seed, idx])
            krs[name] = _probe_kr(geom, ring, sensor, locked_table, k, cfg, seed=child).k_r
        if krs["cube3"] > krs["cube1"] and krs["cube3"] > krs["cube2"]:
            top3 += 1
        if krs["cube1"] < krs["cube2"]:
            one_lt_two += 1
    elapsed = time.perf_counter() - start
    ok &= top3 == 100 and one_lt_two >= 80 and elapsed < 10.0
    print(f"  optimal (p0, d_c) = ({p0_opt}, {dc_opt}); cube3 top {top3}/100; "
          f"cube1<cube2 {one_lt_two}/100; {elapsed:.1f}s")
    _report("criterion 1: cube stiffness ordering", ok)


def test_criterion_2_pressure_angle_linearity(locked_table):
    mask = locked_table.alpha_grid <= 60.0
    alphas = locked_table.alpha_grid[mask]
    worst = 1.0
    for j in range(locked_table.p0_grid.size):
        dps = locked_table.dp_surface[mask, j]
        coef = np.polyfit(alphas, dps, 1)
        resid = dps - np.polyval(coef, alphas)
        r2 = 1.0 - float(np.sum(resid**2) / np.sum((dps - dps.mean()) ** 2))
        worst = min(worst, r2)
    print(f"  worst-column R^2 = {worst:.5f}")
    _report("criterion 2: pressure-angle linearity R^2 >= 0.99", worst >= 0.99)


def test_criterion_3_dead_zone(regulated_table):
    grid_a = regulated_table.alpha_grid
    ok = True
    for j, p in enumerate(regulated_table.p0_grid):
        if p < 5.0:
            continue
        col = regulated_table.torque_surface[:, j]
        ok &= bool(np.all(col[grid_a <= 20.0] == 0.0))
        ok &= bool(np.all(np.diff(col[grid_a >= 20.0]) > 0.0))
    _report("criterion 3: torque dead zone below 20 deg", ok)


def test_criterion_4_solver_oracle_equivalence(geom, ring):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_alpha = 0.0
    ok = True
    for _ in range(200):
        k = float(rng.uniform(10.0, 500.0))
        p0 = float(rng.uniform(0.0, 80.0))
        d_c = float(rng.uniform(2.0, 45.0))
        state = lock(RingState(p_gauge=p0, alpha=0.0), ring)
        fast = solve_equilibrium(geom, ring, state, k, d_c)
        slow = solve_equilibrium_bruteforce(geom, ring, state, k, d_c)
        da = abs(fast.alpha_star - slow.alpha_star)
        worst_alpha = max(worst_alpha, da)
        ok &= da <= math.radians(0.01)
        # force tolerance floored at the oracle's own half-cell resolution
        floor = k * geom.radius * math.radians(5e-4)
        ok &= abs(fast.force - slow.force) <= max(5e-3 * abs(slow.force), floor)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    print(f"  worst angle gap {math.degrees(worst_alpha):.5f} deg over 200 cases; {elapsed:.1f}s")
    _report("criterion 4: solver matches 0.001 deg brute force", ok)


def test_criterion_5_estimator_roundtrip(geom, ring, quiet_sensor, locked_table):
    cfg = ProbeConfig()
    ok = True
    worst_k = 0.0
    for k_true in (20.0, 35.0, 50.83, 54.87, 100.0, 150.0, 202.39, 250.0):
        sim = GripperSim(geom, ring, quiet_sensor, k_true, OFFSET, max_open=MAX_OPEN)
        report = run_probe(sim, locked_table, cfg)
        ok &= report.flags == []
        err = abs(report.k_o_est - k_true) / k_true
        worst_k = max(worst_k, err)
        ok &= err <= 0.10
        truth = sim.true_equilibrium()
        ok &= abs(report.est_force - truth.force) <= 0.05 * truth.force
    print(f"  worst noise-free k_o error {100 * worst_k:.2f}%")
    _report("criterion 5: estimator round-trip within 10% / 5%", ok)


def test_criterion_6_contact_detection(geom, ring, sensor, quiet_sensor, locked_table):
    cfg = ProbeConfig()
    ok = True
    for offset in (36.0, 37.3, 39.0, 40.0, 41.7, 43.0):
        sim = GripperSim(geom, ring, quiet_sensor, 100.0, offset, max_open=MAX_OPEN)
        opening, _, flags = detect_contact(sim, locked_table, cfg)
        ok &= flags == [] and abs(opening - offset) <= cfg.approach_step

    # empty workspace, default threshold, full noise: 1000 approach steps
    steps = 1000
    sim = GripperSim(
        geom, ring, sensor, None, None,
        max_open=steps * cfg.approach_step + 0.5, seed=77,
    )
    opening, _, flags = detect_contact(sim, locked_table, cfg)
    ok &= opening is None and flags == ["no_contact"]
    _report("criterion 6: contact detection and 0/1000 false contacts", ok)


def _scenario_success_rate(config_path, soft_coords, seeds=100):
    import json
    import tempfile, os

    hits = 0
    chosen_soft = False
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(seeds):
            out = os.path.join(tmp, str(seed))
            code = main(
                ["scenario", "--config", config_path, "--seed", str(seed), "--out", out]
            )
            assert code == EXIT_OK
            with open(os.path.join(out, "stiffness_map.json")) as fh:
                doc = json.load(fh)
            if doc["chosen"] in soft_coords:
                chosen_soft = True
            if all(c in doc["avoided"] for c in soft_coords):
                hits += 1
    return hits, chosen_soft


def test_criterion_7_fruit_scenarios():
    import os

    configs = os.path.join(os.path.dirname(__file__), "..", "configs")
    ok = True
    for name, soft in (
        ("banana.json", (80.0, 90.0)),
        ("orange.json", (30.0, 60.0, 90.0)),
    ):
        start = time.perf_counter()
        hits, chosen_soft = _scenario_success_rate(os.path.join(configs, name), soft)
        elapsed = time.perf_counter() - start
        print(f"  {name}: soft spots avoided in {hits}/100 seeds; {elapsed:.1f}s")
        ok &= hits >= 95 and not chosen_soft and elapsed < 20.0
    _report("criterion 7: fruit soft spots avoided, never chosen", ok)


def test_criterion_8_hysteresis_direction(ring):
    alphas, fwd, bwd = hysteresis_sweep(
        ring, p0=60.0, alpha_max_deg=LOCKED["alpha_max_deg"], alpha_step_deg=LOCKED["alpha_step_deg"]
    )
    leaky_ok = bool(np.all(bwd[1:-1] < fwd[1:-1]))
    sealed = RingModel(leak_rate=0.0)
    _, fwd0, bwd0 = hysteresis_sweep(
        sealed, p0=60.0, alpha_max_deg=LOCKED["alpha_max_deg"], alpha_step_deg=LOCKED["alpha_step_deg"]
    )
    sealed_ok = float(np.max(np.abs(fwd0 - bwd0))) <= 1e-9
    _report("criterion 8: leak-driven hysteresis direction", leaky_ok and sealed_ok)


def _dir_digest(path):
    import os

    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def test_criterion_9_determinism_and_io(locked_table, tmp_path):
    import os

    config = os.path.join(os.path.dirname(__file__), "..", "configs", "banana.json")
    digests = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert main(["scenario", "--config", config, "--out", out]) == EXIT_OK
        assert main(["calibrate", "--config", config, "--out", out]) == EXIT_OK
        digests.append(_dir_digest(out))
    deterministic = digests[0] == digests[1]

    path = tmp_path / "table.csv"
    path.write_text(write_csv(locked_table))
    back = read_csv(path)
    lossless = (
        np.array_equal(back.alpha_grid, locked_table.alpha_grid)
        and np.array_equal(back.p0_grid, locked_table.p0_grid)
        and np.array_equal(back.dp_surface, locked_table.dp_surface)
        and np.array_equal(back.torque_surface, locked_table.torque_surface)
    )
    _report("criterion 9: hash-identical reruns and lossless CSV", deterministic and lossless)
