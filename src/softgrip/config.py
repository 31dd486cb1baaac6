"""Scenario configuration: JSON file with strict validation, the physical
defaults, and builders for the plant / probe / fixture objects.

Config units are external: mm, degrees, kPa, N/mm. Unknown and repeated keys
are rejected, and every value must have the type of its default. DEFAULTS is
the one home of each config-valued default; the CLI builds the models once.
Each build goes through ``built``, so a value that the library rejects is a
config error that names its key or section.
"""

from __future__ import annotations

import hashlib
import json
import math
from copy import deepcopy

from .contact import ObjectModel, StiffnessProfile
from .errors import ConfigError, DomainError
from .geometry import FingerGeometry
from .pneumatics import RingModel, SensorModel
from .probing import ProbeConfig

DEFAULTS = {
    "seed": 0,
    "output_dir": "out",
    "plant": {
        "geometry": {
            "a_mm": 15.0,
            "b_mm": 40.0,
            "alpha_max_deg": 80.0,
            "tip_arm_mm": 40.0,
        },
        "ring": {
            "v0_mm3": 5000.0,
            "kappa_per_rad": 0.28,
            "alpha_slack_deg": 20.0,
            "c1_nmm_per_rad": 30000.0,
            "c2_nmm_per_rad_kpa": 600.0,
            "p_atm_kpa": 101.325,
            "leak_rate_per_s": 5.0e-4,
        },
        "sensor": {
            "full_scale_kpa": 700.0,
            "noise_frac": 0.025 / 3.0,
            "quant_step_kpa": 0.68,
        },
    },
    "gripper": {"max_open_mm": 45.0},
    "calibration": {
        "regulated": {
            "alpha_max_deg": 80.0,
            "alpha_step_deg": 5.0,
            "p_max_kpa": 150.0,
            "p_step_kpa": 5.0,
        },
        "locked": {
            "alpha_max_deg": 80.0,
            "alpha_step_deg": 1.0,
            "p0_grid_kpa": [0.0, 20.0, 40.0, 60.0, 80.0],
        },
    },
    "probe": {
        "p0_kpa": 60.0,
        "approach_step_mm": 2.0,
        "probe_step_mm": 6.0,
        "n_probe_steps": 5,
        "settle_reads": 512,
    },
    "fixtures": {},
    "plan": {
        "span": 90.0,
        "n": 10,
        "fixture": "",
        "avoid_fraction": 0.6,
    },
    "sensitivity": {
        "fixture_a": "",
        "fixture_b": "",
        "dc_grid_mm": [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0],
    },
}

# each fixture field's default, whose type its value must have; samples are
# [coordinate, stiffness] pairs checked on their own, and surface_offset_mm is required
_FIXTURE_FIELDS = {
    "kind": "uniform",
    "base_k_n_per_mm": 0.0,
    "samples": [],
    "surface_offset_mm": 0.0,
    "damage_threshold_n": None,
}


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a repeated key would silently win, so it is an error."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"repeated key '{key}'")
        out[key] = value
    return out


def _merge(out, user, path=""):
    """Merge freshly parsed user config into out, a copy of the defaults, in one
    walk: reject unknown keys and check each value against its default's type."""
    if not isinstance(user, dict):
        raise ConfigError(f"config section '{path or '<root>'}' must be an object")
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in out:
            raise ConfigError(f"unknown config key '{here}'")
        if here == "fixtures":
            if not isinstance(value, dict):
                raise ConfigError("config section 'fixtures' must be an object")
            out[key] = {name: _check_fixture(name, raw) for name, raw in value.items()}
        elif isinstance(out[key], dict):
            _merge(out[key], value, here)
        else:
            out[key] = _check_leaf(here, out[key], value)


def _is_number(value) -> bool:
    """A finite int or float; a bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _check_leaf(here: str, default, value):
    """Reject a value whose type differs from the type of its default, and
    return it as stored: a number where the default is a float (or null), and
    each entry of a number list, as a float, so that 60 and 60.0 resolve, and
    hash, alike."""
    if isinstance(default, str):
        ok, expected = isinstance(value, str), "a string"
    elif isinstance(default, int):
        ok, expected = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, list):
        ok = isinstance(value, list) and all(_is_number(x) for x in value)
        expected = "a list of finite numbers"
    elif default is None:
        ok, expected = value is None or _is_number(value), "null or a finite number"
    else:
        ok, expected = _is_number(value), "a finite number"
    if not ok:
        raise ConfigError(f"'{here}' must be {expected}, got {json.dumps(value)}")
    if isinstance(default, list):
        return [float(x) for x in value]
    if isinstance(default, float) or (default is None and value is not None):
        return float(value)
    return value


def _check_fixture(name, raw) -> dict:
    """Check one fixture's fields and return them as stored (see _check_leaf)."""
    if any(c in name for c in "/\\\0"):  # the name is part of probe's output file names
        raise ConfigError(f"fixture name {json.dumps(name)} must not contain '/', '\\' or NUL")
    if not isinstance(raw, dict):
        raise ConfigError(f"fixture '{name}' must be an object")
    fixture = {}
    for key, value in raw.items():
        here = f"fixtures.{name}.{key}"
        if key not in _FIXTURE_FIELDS:
            raise ConfigError(f"unknown config key '{here}'")
        if key != "samples":
            fixture[key] = _check_leaf(here, _FIXTURE_FIELDS[key], value)
        elif not isinstance(value, list) or not all(
            isinstance(pair, list) and len(pair) == 2 and all(_is_number(x) for x in pair)
            for pair in value
        ):
            raise ConfigError(f"'{here}' must be a list of [coordinate, stiffness] number pairs")
        else:
            fixture[key] = [[float(c), float(k)] for c, k in value]
    if "surface_offset_mm" not in raw:
        raise ConfigError(f"fixture '{name}' is missing 'surface_offset_mm'")
    return fixture


def load_config(path) -> dict:
    """Load, validate and resolve a UTF-8 scenario config file to a plain dict.

    Parses, merges into a copy of DEFAULTS and type-checks; it builds no
    model. The CLI builds each model and fixture from the dict once.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a repeated key, or nesting too deep
        raise ConfigError(f"{path}: {exc}") from None
    resolved = deepcopy(DEFAULTS)
    _merge(resolved, user)
    if resolved["seed"] < 0:
        raise ConfigError(f"'seed' must be non-negative, got {resolved['seed']}")
    if "\0" in resolved["output_dir"]:
        raise ConfigError(f"'output_dir' must not contain NUL, got {json.dumps(resolved['output_dir'])}")
    return resolved


def config_hash(cfg: dict) -> str:
    """Stable hash of the resolved config for run provenance."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def built(path: str, build, *args, **kwargs):
    """build(*args, **kwargs) on values the config holds at path; a library
    error in them is a config error whose message starts with path."""
    try:
        return build(*args, **kwargs)
    except (DomainError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build_geometry(cfg: dict) -> FingerGeometry:
    g = cfg["plant"]["geometry"]
    return built(
        "plant.geometry",
        FingerGeometry,
        a=g["a_mm"],
        b=g["b_mm"],
        alpha_max=math.radians(g["alpha_max_deg"]),
        tip_arm=g["tip_arm_mm"],
    )


def build_ring(cfg: dict) -> RingModel:
    r = cfg["plant"]["ring"]
    return built(
        "plant.ring",
        RingModel,
        v0=r["v0_mm3"],
        kappa=r["kappa_per_rad"],
        alpha_slack=math.radians(r["alpha_slack_deg"]),
        c1=r["c1_nmm_per_rad"],
        c2=r["c2_nmm_per_rad_kpa"],
        p_atm=r["p_atm_kpa"],
        leak_rate=r["leak_rate_per_s"],
    )


def build_sensor(cfg: dict) -> SensorModel:
    s = cfg["plant"]["sensor"]
    return built(
        "plant.sensor",
        SensorModel,
        full_scale=s["full_scale_kpa"],
        noise_frac=s["noise_frac"],
        quant_step=s["quant_step_kpa"],
    )


def build_probe_config(cfg: dict) -> ProbeConfig:
    p = cfg["probe"]
    return built(
        "probe",
        ProbeConfig,
        p0=p["p0_kpa"],
        approach_step=p["approach_step_mm"],
        probe_step=p["probe_step_mm"],
        n_probe_steps=p["n_probe_steps"],
        settle_reads=p["settle_reads"],
    )


def fixture_named(fixtures: dict, name: str, key: str):
    """The fixture of that name, config fields or built model; an unknown name
    is a config error naming key, the config key or flag that gave the name."""
    if name not in fixtures:
        available = ", ".join(sorted(fixtures)) or "<none>"
        raise ConfigError(f"{key}: unknown fixture '{name}'; available: {available}")
    return fixtures[name]


def build_fixture(cfg: dict, name: str) -> ObjectModel:
    path, raw = f"fixtures.{name}", {**_FIXTURE_FIELDS, **fixture_named(cfg["fixtures"], name, "fixtures")}
    samples = () if raw["kind"] == "uniform" else tuple(map(tuple, raw["samples"]))
    profile = built(path, StiffnessProfile, kind=raw["kind"], base_k=raw["base_k_n_per_mm"], samples=samples)
    return built(
        path, ObjectModel,
        profile=profile, surface_offset=raw["surface_offset_mm"], damage_threshold=raw["damage_threshold_n"],
    )
