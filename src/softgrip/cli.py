"""Command-line entry point: reproducible calibrate / probe / scenario /
sensitivity runs driven by a JSON config file.

Each command is resolved, then run. ``main`` alone builds the models: each
model and fixture once, so a bad value fails every command alike.
``resolve_<cmd>`` takes them, makes every other check, builds the plan and
tables and returns the run, which makes no check and returns the files it
produced (name -> text, in write order) and a runtime-flag message or None.
``--dry-run`` resolves and prints the config, so it exits 2 exactly when the
run would, with the same message; only a name the run needs but nothing sets
(``--fixture`` for probe, ``plan.fixture``, the sensitivity pair) is left to
the run. ``main`` alone writes, adding ``run_meta.json`` last, so one output
rule holds for every command:

- exit 0: every file is written;
- exit 3 with a flag (no_contact, contact_overshoot, out_of_table,
  travel_exhausted, saturated, no safe grasp, a sensitivity pair left out):
  every file is written and the flag goes to stderr;
- exit 2 (config error), or exit 3 with ``error:``: nothing is written, and a
  write that fails puts back the files of the run before.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from collections.abc import Callable
from dataclasses import asdict

import numpy as np

from . import __version__
from .calibration import generate_locked_sweep, generate_regulated_sweep, hysteresis_sweep, write_csv
from .config import (
    build_fixture, build_geometry, build_probe_config, build_ring, build_sensor, config_hash, fixture_named,
    load_config,
)
from .contact import stiffness_at
from .errors import ConfigError, SoftgripError
from .planner import execute_plan, make_plan
from .probing import GripperSim, run_probe, sensitivity_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME_FLAG = 3

# a command's run: no checks, returns (files, runtime-flag message or None)
Run = Callable[[], "tuple[dict, str | None]"]


def _atomic_write(path: str, text: str) -> str | None:
    """Write via a temp file in the same directory, then rename.

    A file already at path is first moved aside in the same directory; the
    return value is where (None if there was none), for the caller to put back
    or to drop. A write that fails leaves path as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    aside = None
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        if os.path.exists(path):
            aside = f"{tmp}.old"
            os.replace(path, aside)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if aside is not None and os.path.exists(aside):
            os.replace(aside, path)
        raise
    return aside


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _linear_r2(x: np.ndarray, y: np.ndarray) -> float:
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - float(np.sum(resid**2)) / ss_tot


# A probe closes from gripper.max_open_mm in probe.approach_step_mm steps, each
# one settle read; contact_search, the benchmark's longest approach, takes 200.
MAX_APPROACH_STEPS = 10_000
# A settle read's draws grow with probe.settle_reads; the benchmark reads at most 6,144.
MAX_SETTLE_READS = 1_000_000
MAX_PROBE_STEPS = 10_000  # probe.n_probe_steps; the bundled configs take 5
# A probe takes one settle read to lock, one an approach step and one a probe
# step; contact_search's largest probe requests 6,144 x (1 + 200 + 5) readings.
MAX_PROBE_READINGS = 100_000_000
MAX_PLAN_PROBES = 10_000  # plan.n; the bundled plans probe at most 10 locations


def _rig(cfg: dict, name: str | None, fixture, ring, sensor, noise: bool):
    """(locked table, sensor) of a probing command; the sensor is quiet without noise.

    The gripper must open past the fixture's surface in bounded approach steps, a
    probe take bounded steps and readings, and probe.p0_kpa lie in the table's p0 grid.
    """
    max_open, step = cfg["gripper"]["max_open_mm"], cfg["probe"]["approach_step_mm"]
    if max_open <= 0:
        raise ConfigError(f"gripper.max_open_mm must be positive, got {max_open!r}")
    if fixture is not None and fixture.surface_offset > max_open:
        raise ConfigError(
            f"fixtures.{name}.surface_offset_mm {fixture.surface_offset!r} exceeds "
            f"gripper.max_open_mm {max_open!r}"
        )
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
    approach_steps = math.ceil(max_open / step)
    readings = reads * (1 + approach_steps + probe_steps)
    if readings > MAX_PROBE_READINGS:
        raise ConfigError(
            f"probe.settle_reads {reads} in 1 + {approach_steps} approach + {probe_steps} probe steps "
            f"requests {readings} readings, more than {MAX_PROBE_READINGS}"
        )
    table = generate_locked_sweep(ring, **cfg["calibration"]["locked"])
    lo, hi, p0 = float(table.p0_grid[0]), float(table.p0_grid[-1]), cfg["probe"]["p0_kpa"]
    if not lo <= p0 <= hi:
        raise ConfigError(
            f"probe.p0_kpa {p0!r} lies outside calibration.locked.p0_grid_kpa [{lo!r}, {hi!r}]"
        )
    return table, (sensor if noise else sensor.noiseless())


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
    reg = generate_regulated_sweep(ring, **cal["regulated"])
    locked = generate_locked_sweep(ring, **cal["locked"])
    fit_mask = locked.alpha_grid <= 60.0  # the angles of the dp-alpha linearity fit
    if np.count_nonzero(fit_mask) < 2:
        raise ConfigError(
            f"calibration.locked.alpha_step_deg {cal['locked']['alpha_step_deg']!r} leaves "
            "fewer than 2 angles in [0, 60] deg for the dp-alpha fit"
        )
    hp0 = cfg["probe"]["p0_kpa"]  # the leak gap at the pressure the probes lock
    _, fwd, bwd = hysteresis_sweep(
        ring, p0=hp0, alpha_max_deg=cal["locked"]["alpha_max_deg"], alpha_step_deg=cal["locked"]["alpha_step_deg"],
    )

    def run():
        for table in (reg, locked):
            table.meta["plant_config_sha256"] = config_hash(cfg["plant"])
        files = {"regulated.csv": write_csv(reg), "locked.csv": write_csv(locked)}

        # summary: dead-zone extent, dp-alpha linearity, hysteresis gap
        dead_rows = np.all(reg.torque_surface[:, reg.p0_grid >= 5.0] == 0.0, axis=1)
        dead = float(np.max(reg.alpha_grid, where=dead_rows, initial=0.0))
        r2 = min(
            _linear_r2(locked.alpha_grid[fit_mask], locked.dp_surface[fit_mask, j])
            for j in range(locked.p0_grid.size)
        )
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
    fixture = fixture_named(fixtures, fixture_name) if fixture_name else None
    if fixture is not None and fixture.profile.kind != "uniform":
        raise ConfigError(
            f"fixture '{fixture_name}' has a spatial profile; use the scenario command"
        )
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
            f"probe_{fixture_name}.json": _json_text({**asdict(report), "fixture": fixture_name, "noise": noise}),
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
    fixture = fixture_named(fixtures, plan_cfg["fixture"]) if plan_cfg["fixture"] else None
    if plan_cfg["n"] > MAX_PLAN_PROBES:
        raise ConfigError(f"plan.n {plan_cfg['n']} exceeds {MAX_PLAN_PROBES}")
    plan = make_plan(plan_cfg["span"], plan_cfg["n"])
    samples = fixture.profile.samples if fixture else ()  # () for a uniform fixture or none
    if samples and not (samples[0][0] <= 0.0 and plan_cfg["span"] <= samples[-1][0]):
        raise ConfigError(
            f"plan.span {plan_cfg['span']!r} probes [0, {plan_cfg['span']!r}], but fixture "
            f"'{plan_cfg['fixture']}' is sampled over [{samples[0][0]!r}, {samples[-1][0]!r}]"
        )
    if not 0.0 <= plan_cfg["avoid_fraction"] <= 1.0:
        raise ConfigError(f"plan.avoid_fraction must be in [0, 1], got {plan_cfg['avoid_fraction']!r}")
    table, sensor = _rig(cfg, plan_cfg["fixture"], fixture, ring, sensor, noise)
    if fixture is None:
        return _fails(ConfigError("plan.fixture must name a fixture"))

    def run():
        stiffness_map = execute_plan(
            plan, fixture, geom, ring, sensor, table, probe_cfg, seed=cfg["seed"],
            avoid_fraction=plan_cfg["avoid_fraction"], max_open=cfg["gripper"]["max_open_mm"],
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
    need_pair = "sensitivity needs two fixture names (config or --fixture a,b)"
    if bool(name_a) != bool(name_b):
        raise ConfigError(need_pair)
    fa = fb = None
    if name_a:
        fa, fb = fixture_named(fixtures, name_a), fixture_named(fixtures, name_b)
        if fa.profile.kind != "uniform" or fb.profile.kind != "uniform":
            raise ConfigError("sensitivity sweep expects uniform fixtures")
        if fa.surface_offset != fb.surface_offset:
            raise ConfigError(
                f"sensitivity probes both fixtures at one surface offset; '{name_a}' has "
                f"{fa.surface_offset!r} mm and '{name_b}' has {fb.surface_offset!r} mm"
            )
    for dc in sens["dc_grid_mm"]:
        if dc <= 0:
            raise ConfigError(f"sensitivity.dc_grid_mm entries must be positive, got {dc!r}")
    # fb has fa's offset; the noisy sensor gives the sigma the sweep ranks by
    table, sensor = _rig(cfg, name_a, fa, ring, sensor, True)
    if fa is None:
        return _fails(ConfigError(need_pair))

    def run():
        ranked = sensitivity_sweep(
            geom, ring, sensor, table, stiffness_at(fa, 0.0), stiffness_at(fb, 0.0),
            p0_grid=table.p0_grid, dc_grid=sens["dc_grid_mm"], base_cfg=probe_cfg,
            surface_offset=fa.surface_offset, max_open=cfg["gripper"]["max_open_mm"],
        )
        lines = ["p0_kpa,dc_mm,separation_kpa,z"]
        for p0, dc, sep, z in ranked:
            lines.append(f"{p0!r},{dc!r},{sep!r},{z!r}")
        files = {"sensitivity.csv": "\n".join(lines) + "\n"}
        ranked_pairs = {(p0, dc) for p0, dc, _, _ in ranked}
        dropped = [
            f"p0={float(p0)!r} kPa d_c={dc!r} mm"
            for p0 in table.p0_grid
            for dc in sens["dc_grid_mm"]
            if (float(p0), dc) not in ranked_pairs
        ]
        return files, (f"sensitivity left out flagged pairs: {'; '.join(dropped)}" if dropped else None)

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
        out_dir = args.out or cfg["output_dir"]
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
    fresh_dir, written = not os.path.isdir(out_dir), []  # (path, where its old file went)
    try:
        for name, text in files.items():
            path = os.path.join(out_dir, name)
            written.append((path, _atomic_write(path, text)))
    except OSError as exc:
        # undo: remove the files this run added, put back the ones it replaced
        for done, aside in written:
            with contextlib.suppress(OSError):
                if aside is None:
                    os.unlink(done)
                else:
                    os.replace(aside, done)
        if fresh_dir:
            with contextlib.suppress(OSError):
                os.rmdir(out_dir)
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_RUNTIME_FLAG
    # every file is in place: only now drop the previous run's
    for _, aside in written:
        if aside is not None:
            with contextlib.suppress(OSError):
                os.unlink(aside)
    if problem is not None:
        print(problem, file=sys.stderr)
        return EXIT_RUNTIME_FLAG
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
