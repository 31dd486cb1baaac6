"""The library's defaults are the config's: the acceptance tests run on the
dataclass and keyword defaults, the CLI on config.DEFAULTS."""

import inspect

from softgrip.calibration import generate_locked_sweep, generate_regulated_sweep, hysteresis_sweep
from softgrip.config import DEFAULTS, build_geometry, build_probe_config, build_ring, build_sensor
from softgrip.geometry import FingerGeometry
from softgrip.planner import execute_plan
from softgrip.pneumatics import RingModel, SensorModel
from softgrip.probing import ProbeConfig, sensitivity_sweep


def _keyword_defaults(fn) -> dict:
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.default is not inspect.Parameter.empty}


def test_models_built_from_defaults_are_the_dataclass_defaults():
    assert build_geometry(DEFAULTS) == FingerGeometry()
    assert build_ring(DEFAULTS) == RingModel()
    assert build_sensor(DEFAULTS) == SensorModel()
    assert build_probe_config(DEFAULTS) == ProbeConfig()


def test_sweep_defaults_are_the_calibration_sections():
    cal = DEFAULTS["calibration"]
    assert _keyword_defaults(generate_regulated_sweep) == cal["regulated"]
    locked = _keyword_defaults(generate_locked_sweep)
    assert {**locked, "p0_grid_kpa": list(locked["p0_grid_kpa"])} == cal["locked"]
    # calibrate sweeps the locked sweep's angles at the probe's supply pressure
    assert _keyword_defaults(hysteresis_sweep) == {
        "p0": DEFAULTS["probe"]["p0_kpa"],
        "alpha_max_deg": cal["locked"]["alpha_max_deg"],
        "alpha_step_deg": cal["locked"]["alpha_step_deg"],
    }


def test_probing_defaults_are_the_config_defaults():
    sens = _keyword_defaults(sensitivity_sweep)
    assert list(sens["p0_grid"]) == DEFAULTS["calibration"]["locked"]["p0_grid_kpa"]
    assert list(sens["dc_grid"]) == DEFAULTS["sensitivity"]["dc_grid_mm"]
    assert sens["base_cfg"] == ProbeConfig()
    plan = _keyword_defaults(execute_plan)
    assert plan["avoid_fraction"] == DEFAULTS["plan"]["avoid_fraction"]
    assert sens["max_open"] == plan["max_open"] == DEFAULTS["gripper"]["max_open_mm"]
