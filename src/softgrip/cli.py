"""Command-line entry point: reproducible calibrate / probe / scenario /
sensitivity runs driven by a JSON config file.

Exit codes: 0 success, 2 config error, 3 runtime flag (no_contact, out_of_table,
travel_exhausted, saturated, no safe grasp, a sensitivity pair left out).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .calibration import generate_locked_sweep, generate_regulated_sweep, hysteresis_sweep, write_csv
from .config import (
    build_fixture,
    build_geometry,
    build_probe_config,
    build_ring,
    build_sensor,
    config_hash,
    load_config,
)
from .contact import stiffness_at
from .errors import ConfigError, PlanningError, SoftgripError
from .planner import execute_plan, make_plan
from .probing import GripperSim, run_probe, sensitivity_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME_FLAG = 3


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_run_meta(out_dir: str, cfg: dict, command: str, noise: bool) -> None:
    meta = {
        "command": command,
        "config_sha256": config_hash(cfg),
        "seed": cfg["seed"],
        "noise": noise,
        "version": __version__,
    }
    _atomic_write(os.path.join(out_dir, "run_meta.json"), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _linear_r2(x: np.ndarray, y: np.ndarray) -> float:
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - float(np.sum(resid**2)) / ss_tot


def cmd_calibrate(cfg: dict, out_dir: str, noise: bool) -> int:
    ring = build_ring(cfg)
    cal = cfg["calibration"]
    reg = generate_regulated_sweep(
        ring,
        alpha_max_deg=cal["regulated"]["alpha_max_deg"],
        alpha_step_deg=cal["regulated"]["alpha_step_deg"],
        p_max_kpa=cal["regulated"]["p_max_kpa"],
        p_step_kpa=cal["regulated"]["p_step_kpa"],
    )
    locked = _locked_table(cfg)
    for table in (reg, locked):
        table.meta["plant_config_sha256"] = config_hash(cfg["plant"])
    _atomic_write(os.path.join(out_dir, "regulated.csv"), write_csv(reg))
    _atomic_write(os.path.join(out_dir, "locked.csv"), write_csv(locked))

    # summary: dead-zone extent, dp-alpha linearity, hysteresis gap
    dead_rows = np.all(reg.torque_surface[:, reg.p0_grid >= 5.0] == 0.0, axis=1)
    dead = float(np.max(reg.alpha_grid, where=dead_rows, initial=0.0))
    fit_mask = locked.alpha_grid <= 60.0
    r2 = min(
        _linear_r2(locked.alpha_grid[fit_mask], locked.dp_surface[fit_mask, j])
        for j in range(locked.p0_grid.size)
    )
    hp0 = cfg["calibration"]["hysteresis"]["p0_kpa"]
    alphas, fwd, bwd = hysteresis_sweep(
        ring,
        p0=hp0,
        alpha_max_deg=cal["locked"]["alpha_max_deg"],
        alpha_step_deg=cal["locked"]["alpha_step_deg"],
        dt_per_step=cfg["calibration"]["hysteresis"]["dt_per_step_s"],
    )
    summary = {
        "dead_zone_extent_deg": dead,
        "dp_alpha_fit_r2_min": r2,
        "hysteresis_gap_kpa_mean": float(np.mean(fwd - bwd)),
        "hysteresis_p0_kpa": hp0,
    }
    _atomic_write(
        os.path.join(out_dir, "calibration_summary.json"),
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )
    _write_run_meta(out_dir, cfg, "calibrate", noise)
    return EXIT_OK


def _locked_table(cfg):
    cal = cfg["calibration"]["locked"]
    return generate_locked_sweep(
        build_ring(cfg),
        p0_grid_kpa=cal["p0_grid_kpa"],
        alpha_max_deg=cal["alpha_max_deg"],
        alpha_step_deg=cal["alpha_step_deg"],
    )


def cmd_probe(cfg: dict, out_dir: str, fixture_name: str, noise: bool) -> int:
    fixture = build_fixture(cfg, fixture_name)
    geom = build_geometry(cfg)
    ring = build_ring(cfg)
    sensor = build_sensor(cfg, noise=noise)
    table = _locked_table(cfg)
    probe_cfg = build_probe_config(cfg)
    if fixture.profile.kind != "uniform":
        raise ConfigError(
            f"fixture '{fixture_name}' has a spatial profile; use the scenario command"
        )
    sim = GripperSim(
        geom,
        ring,
        sensor,
        stiffness_at(fixture, 0.0),
        fixture.surface_offset,
        max_open=cfg["gripper"]["max_open_mm"],
        seed=cfg["seed"],
    )
    report = run_probe(sim, table, probe_cfg)
    doc = report.to_dict()
    doc["fixture"] = fixture_name
    doc["noise"] = noise
    _atomic_write(
        os.path.join(out_dir, f"probe_{fixture_name}.json"),
        json.dumps(doc, indent=2, sort_keys=True) + "\n",
    )
    _atomic_write(os.path.join(out_dir, f"probe_{fixture_name}_trace.csv"), report.trace_csv())
    _write_run_meta(out_dir, cfg, "probe", noise)
    if report.flags:
        print(f"probe finished with flags: {', '.join(report.flags)}", file=sys.stderr)
        return EXIT_RUNTIME_FLAG
    return EXIT_OK


def cmd_scenario(cfg: dict, out_dir: str, noise: bool) -> int:
    plan_cfg = cfg["plan"]
    if not plan_cfg["fixture"]:
        raise ConfigError("plan.fixture must name a fixture")
    fixture = build_fixture(cfg, plan_cfg["fixture"])
    plan = make_plan(plan_cfg["span"], plan_cfg["n"])
    table = _locked_table(cfg)
    stiffness_map = execute_plan(
        plan,
        fixture,
        build_geometry(cfg),
        build_ring(cfg),
        build_sensor(cfg, noise=noise),
        table,
        build_probe_config(cfg),
        seed=cfg["seed"],
        avoid_fraction=plan_cfg["avoid_fraction"],
        max_open=cfg["gripper"]["max_open_mm"],
    )
    _atomic_write(os.path.join(out_dir, "stiffness_map.json"), stiffness_map.to_json())
    _atomic_write(os.path.join(out_dir, "stiffness_map.csv"), stiffness_map.to_csv())
    _atomic_write(os.path.join(out_dir, "stiffness_map_long.csv"), stiffness_map.to_long_csv())
    _write_run_meta(out_dir, cfg, "scenario", noise)
    return EXIT_OK


def cmd_sensitivity(cfg: dict, out_dir: str, fixture_a: str, fixture_b: str, noise: bool) -> int:
    sens = cfg["sensitivity"]
    name_a = fixture_a or sens["fixture_a"]
    name_b = fixture_b or sens["fixture_b"]
    if not name_a or not name_b:
        raise ConfigError("sensitivity needs two fixture names (config or --fixture a,b)")
    fa, fb = build_fixture(cfg, name_a), build_fixture(cfg, name_b)
    if fa.profile.kind != "uniform" or fb.profile.kind != "uniform":
        raise ConfigError("sensitivity sweep expects uniform fixtures")
    if fa.surface_offset != fb.surface_offset:
        raise ConfigError(
            f"sensitivity probes both fixtures at one surface offset; '{name_a}' has "
            f"{fa.surface_offset!r} mm and '{name_b}' has {fb.surface_offset!r} mm"
        )
    ranked = sensitivity_sweep(
        build_geometry(cfg),
        build_ring(cfg),
        build_sensor(cfg, noise=True),  # sigma taken from the configured sensor
        _locked_table(cfg),
        stiffness_at(fa, 0.0),
        stiffness_at(fb, 0.0),
        p0_grid=sens["p0_grid_kpa"],
        dc_grid=sens["dc_grid_mm"],
        base_cfg=build_probe_config(cfg),
        surface_offset=fa.surface_offset,
        max_open=cfg["gripper"]["max_open_mm"],
    )
    lines = ["p0_kpa,dc_mm,separation_kpa,z"]
    for p0, dc, sep, z in ranked:
        lines.append(f"{p0!r},{dc!r},{sep!r},{z!r}")
    _atomic_write(os.path.join(out_dir, "sensitivity.csv"), "\n".join(lines) + "\n")
    _write_run_meta(out_dir, cfg, "sensitivity", noise)
    ranked_pairs = {(p0, dc) for p0, dc, _, _ in ranked}
    dropped = [
        f"p0={float(p0)!r} kPa d_c={float(dc)!r} mm"
        for p0 in sens["p0_grid_kpa"]
        for dc in sens["dc_grid_mm"]
        if (float(p0), float(dc)) not in ranked_pairs
    ]
    if dropped:
        print(f"sensitivity left out flagged pairs: {'; '.join(dropped)}", file=sys.stderr)
        return EXIT_RUNTIME_FLAG
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softgrip",
        description="Pneumatic self-sensing gripper simulator and probing pipeline",
    )
    parser.add_argument("command", choices=["calibrate", "probe", "scenario", "sensitivity"])
    parser.add_argument("--config", required=True, help="path to the JSON scenario config")
    parser.add_argument("--fixture", default=None, help="fixture name (probe) or 'a,b' pair (sensitivity)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--noise", choices=["on", "off"], default="on")
    parser.add_argument("--dry-run", action="store_true", help="validate and print the resolved config")
    parser.add_argument("--out", default=None, help="override the config output_dir")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be non-negative, got {args.seed}")
            cfg["seed"] = args.seed
        out_dir = args.out or cfg["output_dir"]
        noise = args.noise == "on"
        if args.dry_run:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return EXIT_OK
        if args.command == "calibrate":
            return cmd_calibrate(cfg, out_dir, noise)
        if args.command == "probe":
            if not args.fixture:
                raise ConfigError("probe requires --fixture")
            return cmd_probe(cfg, out_dir, args.fixture, noise)
        if args.command == "scenario":
            return cmd_scenario(cfg, out_dir, noise)
        fa, _, fb = (args.fixture or "").partition(",")
        return cmd_sensitivity(cfg, out_dir, fa, fb, noise)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PlanningError as exc:
        print(f"planning error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_FLAG
    except SoftgripError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_FLAG


if __name__ == "__main__":
    raise SystemExit(main())
