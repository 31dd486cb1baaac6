"""Command-line entry point: reproducible calibrate / probe / scenario /
sensitivity runs driven by a JSON config file.

Each command is resolved, then run. ``main`` alone builds the models: each
model and fixture once, so a bad value fails every command alike.
``resolve_<cmd>`` takes them, makes every other check, builds the plan and
tables and returns the run, which makes no check and returns the files it
produced (name -> text, in write order) and a runtime-flag message or None.
Each check lives in the library type or function that relies on it; every
build at resolve goes through ``config.built`` with the config key or
section its values come from, so each config error reads ``config error:
<key or section>: ...``.
``--dry-run`` resolves and prints the config, so it exits 2 exactly when the
run would, with the same message; only a name the run needs but nothing sets
(``--fixture`` for probe, ``plan.fixture``, the sensitivity pair) is left to
the run. ``main`` alone writes, adding ``run_meta.json`` last, so one output
rule holds for every command:

- exit 0: every file is written;
- exit 3 with a flag (no_contact, contact_overshoot, out_of_table,
  travel_exhausted, saturated, no safe grasp, a sensitivity pair left out):
  every file is written and the flag goes to stderr;
- exit 2 (config error), or exit 3 with ``error:``: nothing is written.

Each file is created in place. A file of an earlier run that the run
replaces is first moved aside, and dropped only once every file is written;
a write that fails removes the run's files and the directories the run made,
and puts the moved files back.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import replace

import numpy as np

from . import __version__
from .calibration import generate_locked_sweep, generate_regulated_sweep, hysteresis_sweep, write_csv
from .config import (
    build_fixture, build_geometry, build_probe_config, build_ring, build_sensor, built, config_hash,
    fixture_named, load_config,
)
from .contact import stiffness_at
from .errors import ConfigError, SoftgripError
from .planner import execute_plan, make_plan
from .pneumatics import JOINT_RANGE_DEG, TAIL_SIGMAS, RingState, lock, pressure_at_angle
from .probing import GripperSim, check_travel, run_probe, sensitivity_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME_FLAG = 3

# a command's run: no checks, returns (files, runtime-flag message or None)
Run = Callable[[], "tuple[dict, str | None]"]


def _atomic_write(path: str, text: str) -> None:
    """Create path, which must not exist, holding text; a write that fails removes it.

    One file of a run; main makes the run as a whole all or nothing.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            data = memoryview(text.encode())
            while data:  # os.write may write short
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(path)
        raise


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _min_linear_r2(x: np.ndarray, ys: np.ndarray) -> float:
    """Smallest R^2 of the straight-line fits of the columns of ys against x,
    all in one least-squares solve; a constant column counts as 1.0."""
    # scaling a column by a power of two is exact and leaves its R^2 unchanged;
    # it keeps the squares below in range for dp values near the float limit
    ys = np.ldexp(ys, -np.frexp(np.abs(ys).max(axis=0))[1])
    slope, intercept = np.polyfit(x, ys, 1)
    resid = ys - (slope * x[:, None] + intercept)
    ss_tot = np.sum((ys - ys.mean(axis=0)) ** 2, axis=0)
    ss_res = np.sum(resid**2, axis=0)
    flat = ss_tot == 0.0
    r2 = 1.0 - ss_res / np.where(flat, 1.0, ss_tot)
    return float(np.where(flat, 1.0, r2).min())


# A probe closes from gripper.max_open_mm in probe.approach_step_mm steps, each
# one settle read; contact_search, the benchmark's longest approach, takes 200.
MAX_APPROACH_STEPS = 10_000
# probe.settle_reads is the count of numpy's binomial and multinomial draws,
# which must fit in int64; the benchmark reads at most 6,144.
MAX_SETTLE_READS = 1_000_000
MAX_PROBE_STEPS = 10_000  # probe.n_probe_steps; the bundled configs take 5
MAX_PLAN_PROBES = 10_000  # plan.n; the bundled plans probe at most 10 locations


def _rig(cfg: dict, name: str | None, fixture, ring, sensor, noise: bool):
    """(locked table, sensor) of a probing command; the sensor is quiet without noise.

    The gripper must open past the fixture's surface (check_travel) in bounded approach
    steps, a probe take bounded steps and settle reads, and probe.p0_kpa lie in the table's
    p0 grid.
    """
    max_open, step = cfg["gripper"]["max_open_mm"], cfg["probe"]["approach_step_mm"]
    keys = "gripper.max_open_mm" if fixture is None else f"gripper.max_open_mm and fixtures.{name}.surface_offset_mm"
    built(keys, check_travel, max_open, 0.0 if fixture is None else fixture.surface_offset)
    if max_open / step > MAX_APPROACH_STEPS:
        raise ConfigError(
            f"probe.approach_step_mm {step!r} closes gripper.max_open_mm {max_open!r} "
            f"in {max_open / step:.6g} steps, more than {MAX_APPROACH_STEPS}"
        )
    reads, probe_steps = cfg["probe"]["settle_reads"], cfg["probe"]["n_probe_steps"]
    if reads > MAX_SETTLE_READS:
        raise ConfigError(f"probe.settle_reads {reads} exceeds {MAX_SETTLE_READS}")
    if probe_steps > MAX_PROBE_STEPS:
        raise ConfigError(f"probe.n_probe_steps {probe_steps} exceeds {MAX_PROBE_STEPS}")
    table = built("calibration.locked", generate_locked_sweep, ring, **cfg["calibration"]["locked"])
    lo, hi, p0 = float(table.p0_grid[0]), float(table.p0_grid[-1]), cfg["probe"]["p0_kpa"]
    if not lo <= p0 <= hi:
        raise ConfigError(
            f"probe.p0_kpa {p0!r} lies outside calibration.locked.p0_grid_kpa [{lo!r}, {hi!r}]"
        )
    # a read sums settle_reads readings in ADC steps: each a true pressure, none
    # above hi's at the joint range, plus noise, taken as at most TAIL_SIGMAS
    # sigmas, the most a coarse grid's reading law reaches
    q, locked = sensor.quant_step, lock(RingState(p_gauge=hi), ring)
    top = max(sensor.full_scale, pressure_at_angle(locked, ring, math.radians(JOINT_RANGE_DEG)))
    if q > 0 and not math.isfinite(reads * (top + TAIL_SIGMAS * sensor.sigma) / q):
        raise ConfigError(
            f"plant.sensor.quant_step_kpa {q!r} puts probe.settle_reads {reads} readings of up to {top:.6g} kPa "
            f"plus {TAIL_SIGMAS:g} noise sigmas of {sensor.sigma:.6g} kPa past the float range in ADC steps"
        )
    return table, (sensor if noise else sensor.noiseless())


def _uniform_fixture(fixtures: dict, name: str, source: str, command: str):
    """The fixture of that name, which source (the flag or config key that gave
    the name) must name uniform: command probes it at one location."""
    fixture = fixture_named(fixtures, name, source)
    if fixture.profile.kind != "uniform":
        raise ConfigError(
            f"{source} names fixture '{name}', which has a spatial profile; "
            f"{command} takes a uniform fixture, the scenario command a spatial one"
        )
    return fixture


def _fails(exc: ConfigError) -> Run:
    """The run of a command that needs a name nothing sets."""

    def run():
        raise exc

    return run


def resolve_calibrate(
    cfg: dict, fixture_arg: str | None, noise: bool, geom, ring, sensor, probe_cfg, fixtures
) -> Run:
    if fixture_arg is not None:
        raise ConfigError("calibrate takes no --fixture")
    cal = cfg["calibration"]
    reg = built("calibration.regulated", generate_regulated_sweep, ring, **cal["regulated"])
    locked = built("calibration.locked", generate_locked_sweep, ring, **cal["locked"])
    fit_mask = locked.alpha_grid <= 60.0  # the angles of the dp-alpha linearity fit
    if np.count_nonzero(fit_mask) < 2:
        raise ConfigError(
            f"calibration.locked.alpha_step_deg {cal['locked']['alpha_step_deg']!r} leaves "
            "fewer than 2 angles in [0, 60] deg for the dp-alpha fit"
        )
    hp0 = cfg["probe"]["p0_kpa"]  # the leak gap at the pressure the probes lock
    _, fwd, bwd = built(
        "probe.p0_kpa", hysteresis_sweep,
        ring, p0=hp0, alpha_max_deg=cal["locked"]["alpha_max_deg"], alpha_step_deg=cal["locked"]["alpha_step_deg"],
    )

    def run():
        for table in (reg, locked):
            table.meta["plant_config_sha256"] = config_hash(cfg["plant"])
        files = {"regulated.csv": write_csv(reg), "locked.csv": write_csv(locked)}

        # summary: dead-zone extent, dp-alpha linearity, hysteresis gap
        dead_rows = np.all(reg.torque_surface[:, reg.p0_grid >= 5.0] == 0.0, axis=1)
        dead = float(np.max(reg.alpha_grid, where=dead_rows, initial=0.0))
        r2 = _min_linear_r2(locked.alpha_grid[fit_mask], locked.dp_surface[fit_mask])
        files["calibration_summary.json"] = _json_text({
            "dead_zone_extent_deg": dead,
            "dp_alpha_fit_r2_min": r2,
            "hysteresis_gap_kpa_mean": float(np.mean(fwd - bwd)),
            "hysteresis_p0_kpa": hp0,
        })
        return files, None

    return run


def resolve_probe(
    cfg: dict, fixture_name: str | None, noise: bool, geom, ring, sensor, probe_cfg, fixtures
) -> Run:
    fixture = _uniform_fixture(fixtures, fixture_name, "--fixture", "probe") if fixture_name else None
    table, sensor = _rig(cfg, fixture_name, fixture, ring, sensor, noise)
    if fixture is None:
        return _fails(ConfigError("probe requires --fixture"))
    sim = GripperSim(
        geom, ring, sensor, stiffness_at(fixture, 0.0), fixture.surface_offset,
        max_open=cfg["gripper"]["max_open_mm"], seed=cfg["seed"],
    )

    def run():
        report = run_probe(sim, table, probe_cfg)
        files = {
            f"probe_{fixture_name}.json": _json_text({**vars(report), "fixture": fixture_name, "noise": noise}),
            f"probe_{fixture_name}_trace.csv": report.trace_csv(),
        }
        return files, (f"probe finished with flags: {', '.join(report.flags)}" if report.flags else None)

    return run


def resolve_scenario(
    cfg: dict, fixture_arg: str | None, noise: bool, geom, ring, sensor, probe_cfg, fixtures
) -> Run:
    if fixture_arg is not None:
        raise ConfigError("scenario takes its fixture from plan.fixture, not --fixture")
    plan_cfg = cfg["plan"]
    fixture = fixture_named(fixtures, plan_cfg["fixture"], "plan.fixture") if plan_cfg["fixture"] else None
    if plan_cfg["n"] > MAX_PLAN_PROBES:
        raise ConfigError(f"plan.n {plan_cfg['n']} exceeds {MAX_PLAN_PROBES}")
    plan = built("plan", make_plan, plan_cfg["span"], plan_cfg["n"], plan_cfg["avoid_fraction"])
    samples = fixture.profile.samples if fixture else ()  # () for a uniform fixture or none
    if samples and not (samples[0][0] <= 0.0 and plan_cfg["span"] <= samples[-1][0]):
        raise ConfigError(
            f"plan.span {plan_cfg['span']!r} probes [0, {plan_cfg['span']!r}], but fixture "
            f"'{plan_cfg['fixture']}' is sampled over [{samples[0][0]!r}, {samples[-1][0]!r}]"
        )
    table, sensor = _rig(cfg, plan_cfg["fixture"], fixture, ring, sensor, noise)
    if fixture is None:
        return _fails(ConfigError("plan.fixture must name a fixture"))

    def run():
        stiffness_map = execute_plan(
            plan, fixture, geom, ring, sensor, table, probe_cfg, seed=cfg["seed"],
            max_open=cfg["gripper"]["max_open_mm"],
        )
        files = {
            "stiffness_map.json": _json_text(stiffness_map.to_dict()),
            "stiffness_map.csv": stiffness_map.to_csv(),
            "stiffness_map_long.csv": stiffness_map.to_long_csv(),
        }
        no_grasp = stiffness_map.chosen is None
        return files, ("no safe grasp location: every probed entry is flagged" if no_grasp else None)

    return run


def resolve_sensitivity(
    cfg: dict, fixture_arg: str | None, noise: bool, geom, ring, sensor, probe_cfg, fixtures
) -> Run:
    sens = cfg["sensitivity"]
    fixture_a, _, fixture_b = (fixture_arg or "").partition(",")
    name_a = fixture_a or sens["fixture_a"]
    name_b = fixture_b or sens["fixture_b"]
    need_pair = "sensitivity.fixture_a and sensitivity.fixture_b (or --fixture a,b) must name two fixtures"
    if bool(name_a) != bool(name_b):
        raise ConfigError(need_pair)
    fa = fb = None
    if name_a:
        fa = _uniform_fixture(fixtures, name_a, "--fixture" if fixture_a else "sensitivity.fixture_a", "sensitivity")
        fb = _uniform_fixture(fixtures, name_b, "--fixture" if fixture_b else "sensitivity.fixture_b", "sensitivity")
        if fa.surface_offset != fb.surface_offset:
            raise ConfigError(
                f"sensitivity probes both fixtures at one surface offset; fixtures.{name_a}.surface_offset_mm "
                f"is {fa.surface_offset!r} and fixtures.{name_b}.surface_offset_mm is {fb.surface_offset!r}"
            )
    for dc in sens["dc_grid_mm"]:  # the probe settings the sweep takes at each closing
        built(f"sensitivity.dc_grid_mm entry {dc!r}", replace, probe_cfg, probe_step=dc / probe_cfg.n_probe_steps)
    # fb has fa's offset; the noisy sensor gives the sigma the sweep ranks by
    table, sensor = _rig(cfg, name_a, fa, ring, sensor, True)
    if fa is None:
        return _fails(ConfigError(need_pair))

    def run():
        ranked, left_out = sensitivity_sweep(
            geom, ring, sensor, table, stiffness_at(fa, 0.0), stiffness_at(fb, 0.0),
            dc_grid=sens["dc_grid_mm"], base_cfg=probe_cfg,
            surface_offset=fa.surface_offset, max_open=cfg["gripper"]["max_open_mm"],
        )
        lines = ["p0_kpa,dc_mm,separation_kpa,z"]
        for p0, dc, sep, z in ranked:
            lines.append(f"{p0!r},{dc!r},{sep!r},{z!r}")
        files = {"sensitivity.csv": "\n".join(lines) + "\n"}
        dropped = "; ".join(f"p0={p0!r} kPa d_c={dc!r} mm" for p0, dc in left_out)
        return files, (f"sensitivity left out flagged pairs: {dropped}" if dropped else None)

    return run


COMMANDS = {
    "calibrate": resolve_calibrate,
    "probe": resolve_probe,
    "scenario": resolve_scenario,
    "sensitivity": resolve_sensitivity,
}


PARSER = argparse.ArgumentParser(
    prog="softgrip",
    description="Pneumatic self-sensing gripper simulator and probing pipeline",
)
PARSER.add_argument("command", choices=COMMANDS)
PARSER.add_argument("--config", required=True, help="path to the JSON scenario config")
PARSER.add_argument("--fixture", default=None, help="fixture name (probe) or 'a,b' pair (sensitivity)")
PARSER.add_argument("--seed", type=int, default=None, help="override the config seed")
PARSER.add_argument("--noise", choices=["on", "off"], default="on")
PARSER.add_argument("--dry-run", action="store_true", help="validate and print the resolved config")
PARSER.add_argument("--out", default=None, help="override the config output_dir")


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config)
        # each model is built once, here, before any command's own checks
        geom, ring, sensor = build_geometry(cfg), build_ring(cfg), build_sensor(cfg)
        probe_cfg = build_probe_config(cfg)
        fixtures = {name: build_fixture(cfg, name) for name in cfg["fixtures"]}
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be non-negative, got {args.seed}")
            cfg["seed"] = args.seed
        out_dir = args.out or cfg["output_dir"] or os.curdir
        if "\0" in out_dir:
            raise ConfigError(f"--out must not contain NUL, got {json.dumps(out_dir)}")
        if os.path.exists(out_dir) and not os.path.isdir(out_dir):
            raise ConfigError(f"output directory '{out_dir}' exists and is not a directory")
        noise = args.noise == "on"
        run = COMMANDS[args.command](cfg, args.fixture, noise, geom, ring, sensor, probe_cfg, fixtures)
        if args.dry_run:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return EXIT_OK
        files, problem = run()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SoftgripError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_FLAG
    files["run_meta.json"] = _json_text({
        "command": args.command,
        "config_sha256": config_hash(cfg),
        "seed": cfg["seed"],
        "noise": noise,
        "version": __version__,
    })
    missing, head = [], os.path.normpath(out_dir)
    while head and not os.path.lexists(head):  # out_dir and each missing parent, leaf first
        missing.append(head)
        head = os.path.dirname(head)
    path, made, created, moved = out_dir, [], [], []  # (file, where its old file went) in moved
    try:
        for folder in reversed(missing):
            os.mkdir(folder)
            made.append(folder)
        for name, text in files.items():
            path = os.path.join(out_dir, name)
            if not missing and os.path.lexists(path):
                aside = os.path.join(out_dir, f".tmp-{os.urandom(8).hex()}.old")
                os.replace(path, aside)
                moved.append((path, aside))
            _atomic_write(path, text)
            created.append(path)
    except OSError as exc:
        # undo: remove the files and directories this run made, put back the files it moved
        for done in created:
            with contextlib.suppress(OSError):
                os.unlink(done)
        for done, aside in moved:
            with contextlib.suppress(OSError):
                os.replace(aside, done)
        for folder in reversed(made):  # leaf first
            with contextlib.suppress(OSError):
                os.rmdir(folder)
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_RUNTIME_FLAG
    # every file is in place: only now drop the previous run's
    for _, aside in moved:
        with contextlib.suppress(OSError):
            os.unlink(aside)
    if problem is not None:
        print(problem, file=sys.stderr)
        return EXIT_RUNTIME_FLAG
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
