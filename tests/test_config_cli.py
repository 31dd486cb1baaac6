import copy
import hashlib
import json
import math
import os

import pytest

import numpy as np

from softgrip.cli import (
    EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME_FLAG, MAX_APPROACH_STEPS, MAX_PLAN_PROBES, MAX_PROBE_STEPS,
    MAX_SETTLE_READS, _min_linear_r2, main,
)
from softgrip.config import (
    DEFAULTS,
    build_fixture,
    build_geometry,
    build_probe_config,
    build_ring,
    build_sensor,
    config_hash,
    load_config,
)
from softgrip.errors import ConfigError, RangeError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
CUBES = os.path.join(CONFIG_DIR, "cubes.json")
BANANA = os.path.join(CONFIG_DIR, "banana.json")
ORANGE = os.path.join(CONFIG_DIR, "orange.json")


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_defaults_resolve(tmp_path):
    cfg = load_config(_write(tmp_path, {}))
    assert cfg == DEFAULTS
    assert cfg["probe"]["p0_kpa"] == 60.0


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, {"plant": {"ring": {"volume": 1.0}}})
    with pytest.raises(ConfigError, match="plant.ring.volume"):
        load_config(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_fixture_validation(tmp_path):
    path = _write(tmp_path, {"fixtures": {"x": {"kind": "uniform", "base_k_n_per_mm": 5.0}}})
    with pytest.raises(ConfigError, match="surface_offset_mm"):
        load_config(path)
    path = _write(tmp_path, {"fixtures": {"x": {"surface_offset_mm": 40.0, "color": "red"}}})
    with pytest.raises(ConfigError, match="color"):
        load_config(path)


def test_builders_roundtrip_units(tmp_path):
    cfg = load_config(_write(tmp_path, {"seed": 3}))
    geom = build_geometry(cfg)
    assert geom.a == 15.0
    assert geom.alpha_max == pytest.approx(math.radians(80.0))
    ring = build_ring(cfg)
    assert ring.alpha_slack == pytest.approx(math.radians(20.0))
    assert build_sensor(cfg).noise_frac > 0.0
    assert build_sensor(cfg).noiseless().noise_frac == 0.0
    probe_cfg = build_probe_config(cfg)
    assert probe_cfg.d_c == 30.0


def test_build_fixture_from_bundled_config():
    cfg = load_config(CUBES)
    cube3 = build_fixture(cfg, "cube3")
    assert cube3.profile.base_k == 202.39
    assert cube3.surface_offset == 40.0
    with pytest.raises(ConfigError, match="cube1"):
        build_fixture(cfg, "missing")


def test_config_hash_stable_and_sensitive(tmp_path):
    cfg1 = load_config(_write(tmp_path, {"seed": 1}))
    cfg2 = load_config(_write(tmp_path, {"seed": 1}, name="other.json"))
    cfg3 = load_config(_write(tmp_path, {"seed": 2}, name="third.json"))
    assert config_hash(cfg1) == config_hash(cfg2)
    assert config_hash(cfg1) != config_hash(cfg3)


def test_cli_dry_run(capsys):
    assert main(["probe", "--config", CUBES, "--dry-run"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert "cube1" in doc["fixtures"]


def test_cli_bad_config_path(capsys):
    assert main(["probe", "--config", "/nonexistent.json"]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_cli_unknown_fixture_exits_config(capsys):
    code = main(["probe", "--config", CUBES, "--fixture", "nope", "--noise", "off"])
    assert code == EXIT_CONFIG
    assert "available" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("geometry", "a_mm", -1.0),
        ("geometry", "alpha_max_deg", 90.0),
        ("ring", "kappa_per_rad", 2.0),
    ],
)
def test_cli_invalid_plant_value_exits_config(tmp_path, capsys, section, key, value):
    with open(CUBES) as fh:
        doc = json.load(fh)
    doc.setdefault("plant", {}).setdefault(section, {})[key] = value
    path = _write(tmp_path, doc)
    code = main(["probe", "--config", path, "--fixture", "cube1", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: plant.{section}:")
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def _set(doc, dotted, value):
    *parents, leaf = dotted.split(".")
    for key in parents:
        doc = doc.setdefault(key, {})
    doc[leaf] = value


@pytest.mark.parametrize(
    "key, value",
    [
        ("calibration.locked.alpha_step_deg", 0),
        ("calibration.hysteresis.dt_per_step_s", -1),  # a removed key, as are the other hysteresis ones
        ("calibration.hysteresis.p0_kpa", -5),
        ("calibration.locked.p0_grid_kpa", [20, 0]),
        ("plant.ring.kappa_per_rad", "0.2"),
        ("calibration.hysteresis.p0_kpa", math.nan),
        ("plant.geometry.alpha_max_deg", math.inf),
        ("seed", True),
        ("seed", -1),
        ("probe.n_probe_steps", "5"),
        ("probe.settle_reads", 512.0),
        ("calibration.locked.p0_grid_kpa", [0.0, "x"]),
        ("output_dir", None),
        ("fixtures.cube1.base_k_n_per_mm", "50"),
        ("fixtures.cube1.samples", [[1.0]]),
        ("fixtures", []),
        ("plant.ring.p_atm_kpa", 0),
        ("plant.ring.p_atm_kpa", -1),
        ("calibration.hysteresis.p0_kpa", -1),
    ],
)
def test_cli_bad_value_exits_config(tmp_path, capsys, key, value):
    with open(CUBES) as fh:
        doc = json.load(fh)
    _set(doc, key, value)
    path = _write(tmp_path, doc)
    code = main(["calibrate", "--config", path, "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_cli_calibrate_golden_csv(tmp_path):
    """Any drift in the calibration CSV format or values changes these digests.

    The whole-file digests cover the meta line, whose plant_config_sha256
    changes with the set of plant config keys; the data digests (line 3 on)
    change only with the header or the values.
    """
    out = tmp_path / "cal"
    assert main(["calibrate", "--config", CUBES, "--out", str(out)]) == EXIT_OK
    names = ("regulated.csv", "locked.csv")
    files = {name: (out / name).read_bytes() for name in names}
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    assert digests == {
        "regulated.csv": "71da02f9d0dc26befa6f2c285ab2ba502828613d48840eb3a1fca0ebeb5c277d",
        "locked.csv": "b3fdf56450578ed494bb20909c4176e53b567836d0a3e420db399fb9a8f23a65",
    }
    rows = {name: hashlib.sha256(data.split(b"\n", 2)[2]).hexdigest() for name, data in files.items()}
    assert rows == {
        "regulated.csv": "219a9281fe2c7f8d7648344ee79aaea8a48b78f30fc137be7738e36967ebbbb9",
        "locked.csv": "273fcad63ceeef85688b5836743b56a95fa45a795b468db22b681a75489c9fdf",
    }


@pytest.mark.parametrize(
    "argv, digests",
    [
        (
            ["probe", "--config", CUBES, "--fixture", "cube3", "--noise", "on"],
            {
                "probe_cube3.json": "0d6d82779ae83da26e842c3c70b22c55a9456ecd2640da9e75afc1105756d104",
                "probe_cube3_trace.csv": "e676438909583e668589833a85b90d24b327b64788f6354e785381f39a3da944",
                "run_meta.json": "cc6c26f4fdf48ebecfd4c45703ff27b70af2850a8bdaac657664320d41ad9c6d",
            },
        ),
        (
            ["probe", "--config", CUBES, "--fixture", "cube3", "--noise", "off"],
            {
                "probe_cube3.json": "dc4bf34d3d40fa541a1b09c10a86eee9255a3b71ea26c364d1129513c24d4785",
                "probe_cube3_trace.csv": "ad5226e93aab1b99ab03a81f54203ae1fe683263c0b2ab28daba4cb22bda20e7",
                "run_meta.json": "567de04556f45d4a56abc0985b9eb8922c435e61bb049e74262bcaac0c40813c",
            },
        ),
        (
            ["scenario", "--config", BANANA],
            {
                "stiffness_map.json": "e41f837598b7faf91b5931ef4de0add39412f819c21df5c06a366557b15995d6",
                "stiffness_map.csv": "64281c5c4438041f5e15c996e27978d936e1365ea5f20fb3af93c639aa93a934",
                "stiffness_map_long.csv": "e184403e55bafe32d7573667329a348fcd36af0f8009328329b99d77d9059626",
                "run_meta.json": "5f8db29864c1764c7a92d1fd1ceb1df04a37e9536690061342a337e0c9f23049",
            },
        ),
        (
            ["scenario", "--config", ORANGE],
            {
                "stiffness_map.json": "d051ca3807ffe5a7c746c9d364e045d85f6c13c1b2cad430866a2285708d99eb",
                "stiffness_map.csv": "e4fecc68478be27bca44cbe1a41c7a6ac0b8a303f1e11246043d1f930bedca70",
                "stiffness_map_long.csv": "b0b5a58b8048bfb4e01b367b3faa293650232ca44d31c9ad9fba6e74852d9a89",
                "run_meta.json": "36b778d2215bc37e938150718fcc8f70cb69fd15815cb92dee2a57a8237d2274",
            },
        ),
        (
            ["sensitivity", "--config", CUBES],
            {
                "sensitivity.csv": "254c6db1805ba56b3663b91d2dd8f56462e9b9b544821a5b20105edaf867928c",
                "run_meta.json": "aa3fb7d861838af65cee141192bc186629a60c7f9e9d7be0e7e1c1e73aad0944",
            },
        ),
    ],
    ids=["probe-cube3-noise", "probe-cube3-quiet", "scenario-banana", "scenario-orange", "sensitivity-cubes"],
)
def test_cli_golden_digests(tmp_path, argv, digests):
    """Every file a command writes, run_meta.json included, is pinned byte for byte."""
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == digests


@pytest.mark.parametrize(
    "key, value",
    [
        ("plant.geometry.beta_deg", 20.556),  # derived: atan(a/b)
        ("probe.contact_threshold_kpa", 3.0),  # derived from the sensor model
        ("plan.shape", "elongated"),  # the fixture's profile kind gives the unit
        ("plant.geometry.total_length_mm", 55.0),  # never read
        ("sensitivity.p0_grid_kpa", [0.0, 20.0, 40.0, 60.0, 80.0]),  # calibration.locked.p0_grid_kpa
        ("calibration.hysteresis.p0_kpa", 60.0),  # probe.p0_kpa
        ("calibration.hysteresis.dt_per_step_s", 1.0),  # 1 s a step: plant.ring.leak_rate_per_s is the leak a step
    ],
)
def test_cli_removed_key_exits_config(tmp_path, capsys, key, value):
    with open(CUBES) as fh:
        doc = json.load(fh)
    _set(doc, key, value)
    path = _write(tmp_path, doc)
    unknown = "calibration.hysteresis" if key.startswith("calibration.hysteresis.") else key  # a removed section
    for extra in (["--dry-run"], ["--out", str(tmp_path / "x")]):
        assert main(["calibrate", "--config", path, *extra]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: unknown config key '{unknown}'\n")
    assert not (tmp_path / "x").exists()


def _leaves(doc, path=()):
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def test_cli_config_fuzz_exit_contract(tmp_path, capsys):
    """One leaf of the resolved cubes config set to a junk value: exit 0, 2 or 3, never raise.

    The output rule holds too: exit 2, or exit 3 with an error, writes nothing;
    exit 0, or exit 3 with a flag, writes run_meta.json.
    """
    base = load_config(CUBES)
    leaves = list(_leaves(base))
    junk = ["x", True, None, [], {}, math.nan, math.inf, -math.inf, 0, -1]
    rng = np.random.default_rng(2024)
    for case in range(64):
        doc = copy.deepcopy(base)
        leaf = ".".join(leaves[rng.integers(len(leaves))])
        value = junk[rng.integers(len(junk))]
        _set(doc, leaf, value)
        path = _write(tmp_path, doc, name=f"fuzz{case}.json")
        for argv in (["calibrate"], ["probe", "--fixture", "cube1"]):
            out = tmp_path / f"out{case}-{argv[0]}"
            code = main(argv + ["--config", path, "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME_FLAG), (leaf, value, argv)
            assert "Traceback" not in err
            wrote_nothing = code == EXIT_CONFIG or err.startswith("error:")
            assert (out / "run_meta.json").exists() != wrote_nothing, (leaf, value, argv, err)
            assert out.exists() != wrote_nothing


def test_cli_negative_seed_override_exits_config(tmp_path, capsys):
    argv = ["probe", "--config", CUBES, "--fixture", "cube1", "--seed", "-1", "--out", str(tmp_path / "x")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --seed")


def test_cli_probe_requires_fixture():
    assert main(["probe", "--config", CUBES]) == EXIT_CONFIG


def test_cli_calibrate_outputs(tmp_path):
    out = str(tmp_path / "cal")
    assert main(["calibrate", "--config", CUBES, "--out", out]) == EXIT_OK
    for name in ("regulated.csv", "locked.csv", "calibration_summary.json", "run_meta.json"):
        assert os.path.exists(os.path.join(out, name))
    summary = json.loads((tmp_path / "cal" / "calibration_summary.json").read_text())
    assert summary["dead_zone_extent_deg"] == 20.0
    assert summary["dp_alpha_fit_r2_min"] >= 0.99
    assert summary["hysteresis_gap_kpa_mean"] > 0.0


def _per_column_r2(x, y):
    """Reference: R^2 of one column's own straight-line fit; a constant column counts as 1.0."""
    y = np.ldexp(y, -np.frexp(np.abs(y).max())[1])
    resid = y - np.polyval(np.polyfit(x, y, 1), x)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot


def test_min_linear_r2_equals_the_per_column_fits():
    # one least-squares solve for every column gives each column's own fit, up to rounding
    rng = np.random.default_rng(24)
    for _ in range(200):
        n, k = int(rng.integers(2, 100)), int(rng.integers(2, 20))
        x = np.cumsum(rng.uniform(0.05, 2.0, n))
        slope = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 2.0, k)
        ys = slope * x[:, None] + rng.uniform(0.0, 10.0, k) * rng.normal(size=(n, k))
        ys *= 10.0 ** rng.choice([-300, -1, 0, 300], k)  # magnitudes near 1e-300 and 1e300 too
        # a constant with a short mantissa, so its mean is exact and its spread 0
        ys[:, rng.integers(k)] = rng.integers(1, 1000) * 2.0 ** int(rng.integers(-1000, 1000))
        expected = min(_per_column_r2(x, ys[:, j]) for j in range(k))
        assert _min_linear_r2(x, ys) == pytest.approx(expected, rel=1e-12, abs=0)
    constant = np.full((5, 3), 3.0 * 2.0**-1000)
    assert _min_linear_r2(np.arange(5.0), constant) == 1.0


def test_cli_probe_cube_ordering(tmp_path):
    krs = {}
    for name in ("cube1", "cube2", "cube3"):
        out = str(tmp_path / name)
        code = main(
            ["probe", "--config", CUBES, "--fixture", name, "--noise", "off", "--out", out]
        )
        assert code == EXIT_OK
        doc = json.loads((tmp_path / name / f"probe_{name}.json").read_text())
        assert doc["flags"] == []
        krs[name] = doc["k_r"]
        trace = (tmp_path / name / f"probe_{name}_trace.csv").read_text()
        assert "np." not in trace  # plain float reprs only
    assert krs["cube1"] < krs["cube2"] < krs["cube3"]


def test_cli_probe_travel_exhausted(tmp_path, capsys):
    # a closing far past the end of the travel is flagged, not reported as k_r
    with open(CUBES) as fh:
        doc = json.load(fh)
    _set(doc, "probe.probe_step_mm", 1e9)
    path = _write(tmp_path, doc)
    for noise in ("on", "off"):
        out = tmp_path / noise
        code = main(["probe", "--config", path, "--fixture", "cube1", "--noise", noise, "--out", str(out)])
        assert code == EXIT_RUNTIME_FLAG
        assert "travel_exhausted" in capsys.readouterr().err
        report = json.loads((out / "probe_cube1.json").read_text())
        assert report["flags"] == ["travel_exhausted"]
        assert report["est_force"] is None and report["k_r"] is None and report["k_o_est"] is None
        assert len(report["dp_trace"]) == 5  # the default n_probe_steps
    # closing the whole 40 mm from a 40 mm surface stays within the contact
    # estimate's accuracy of one approach step and is not flagged
    _set(doc, "probe.probe_step_mm", 8.0)
    path = _write(tmp_path, doc, name="full.json")
    assert main(["probe", "--config", path, "--fixture", "cube1", "--out", str(tmp_path / "full")]) == EXIT_OK


def test_cli_probe_saturated(tmp_path, capsys):
    # a finger that stops at 35 deg cannot yield to the stiff cube: the last
    # step reads no dp above the contact threshold, so the probe is flagged
    with open(CUBES) as fh:
        doc = json.load(fh)
    _set(doc, "plant.geometry.alpha_max_deg", 35)
    path = _write(tmp_path, doc)
    for noise in ("on", "off"):
        out = tmp_path / noise
        code = main(["probe", "--config", path, "--fixture", "cube3", "--noise", noise, "--out", str(out)])
        assert code == EXIT_RUNTIME_FLAG
        assert "saturated" in capsys.readouterr().err
        assert json.loads((out / "probe_cube3.json").read_text())["flags"] == ["saturated"]
    # the soft cube still bends the short finger and is not flagged
    assert main(["probe", "--config", path, "--fixture", "cube1", "--out", str(tmp_path / "soft")]) == EXIT_OK


@pytest.mark.parametrize("fixture, alpha_max", [("cube1", 30.0), ("cube3", 20.0)])
def test_cli_probe_out_of_table(tmp_path, capsys, fixture, alpha_max):
    # a table that stops at alpha_max cannot invert the last reading of a deeper bend
    with open(CUBES) as fh:
        doc = json.load(fh)
    _set(doc, "calibration.locked.alpha_max_deg", alpha_max)
    out = tmp_path / "x"
    argv = ["probe", "--config", _write(tmp_path, doc), "--fixture", fixture, "--noise", "off", "--out", str(out)]
    assert main(argv) == EXIT_RUNTIME_FLAG
    assert capsys.readouterr().err == "probe finished with flags: out_of_table\n"
    report = json.loads((out / f"probe_{fixture}.json").read_text())
    assert report["flags"] == ["out_of_table"]
    assert report["est_force"] is None and report["k_r"] is None and report["k_o_est"] is None


def test_cli_runtime_error_writes_nothing(tmp_path, capsys, monkeypatch):
    def fail(sim, table, cfg):
        raise RangeError("dp=99.0 outside calibrated hull [0.0, 40.0]")

    monkeypatch.setattr("softgrip.cli.run_probe", fail)
    out = tmp_path / "x"
    assert main(["probe", "--config", CUBES, "--fixture", "cube1", "--out", str(out)]) == EXIT_RUNTIME_FLAG
    assert capsys.readouterr().err == "error: dp=99.0 outside calibrated hull [0.0, 40.0]\n"
    assert not out.exists()


def test_cli_probe_spatial_fixture_rejected(tmp_path):
    code = main(
        ["probe", "--config", BANANA, "--fixture", "banana", "--noise", "off",
         "--out", str(tmp_path / "x")]
    )
    assert code == EXIT_CONFIG


def test_cli_scenario_banana(tmp_path):
    out = str(tmp_path / "banana")
    assert main(["scenario", "--config", BANANA, "--out", out]) == EXIT_OK
    doc = json.loads((tmp_path / "banana" / "stiffness_map.json").read_text())
    assert 80.0 in doc["avoided"] and 90.0 in doc["avoided"]
    assert doc["chosen"] not in doc["avoided"]
    csv = (tmp_path / "banana" / "stiffness_map.csv").read_text().splitlines()
    assert csv[0] == "coord,k_r_n_per_mm,flag"
    assert len(csv) == 11
    assert os.path.exists(os.path.join(out, "stiffness_map_long.csv"))


def test_cli_scenario_orange(tmp_path):
    out = str(tmp_path / "orange")
    assert main(["scenario", "--config", ORANGE, "--out", out]) == EXIT_OK
    doc = json.loads((tmp_path / "orange" / "stiffness_map.json").read_text())
    for coord in (30.0, 60.0, 90.0):
        assert coord in doc["avoided"]


def test_cli_scenario_without_fixture(tmp_path):
    assert main(["scenario", "--config", CUBES, "--out", str(tmp_path / "x")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "key, value, sampled",
    [
        ("plan.span", 100.0, "[0.0, 90.0]"),
        ("fixtures.banana.samples", [[10.0, 150.0], [90.0, 25.0]], "[10.0, 90.0]"),
    ],
)
def test_cli_scenario_span_outside_samples_exits_config(tmp_path, capsys, key, value, sampled):
    # checked before any probe runs: no location of [0, plan.span] may fall outside the samples
    with open(BANANA) as fh:
        doc = json.load(fh)
    _set(doc, key, value)
    out = tmp_path / "x"
    assert main(["scenario", "--config", _write(tmp_path, doc), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: plan.span") and sampled in err
    assert not out.exists()


def test_cli_scenario_no_safe_grasp_writes_map(tmp_path, capsys):
    # every location exceeds a 1 N damage limit: flagged, so exit 3 with the map written
    with open(BANANA) as fh:
        doc = json.load(fh)
    _set(doc, "fixtures.banana.damage_threshold_n", 1.0)
    out = tmp_path / "x"
    assert main(["scenario", "--config", _write(tmp_path, doc), "--out", str(out)]) == EXIT_RUNTIME_FLAG
    assert capsys.readouterr().err == "no safe grasp location: every probed entry is flagged\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "run_meta.json", "stiffness_map.csv", "stiffness_map.json", "stiffness_map_long.csv",
    ]
    smap = json.loads((out / "stiffness_map.json").read_text())
    assert smap["chosen"] is None
    assert smap["avoided"] == [e["coord"] for e in smap["entries"]]
    assert all("damage_risk" in e["flags"] for e in smap["entries"])


def test_cli_sensitivity(tmp_path):
    out = str(tmp_path / "sens")
    assert main(["sensitivity", "--config", CUBES, "--out", out]) == EXIT_OK
    lines = (tmp_path / "sens" / "sensitivity.csv").read_text().splitlines()
    assert lines[0] == "p0_kpa,dc_mm,separation_kpa,z"
    assert len(lines) == 1 + 5 * 7
    zs = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert zs == sorted(zs, reverse=True)


def test_cli_sensitivity_drops_flagged_pairs(tmp_path, capsys):
    # closings of 60 and 90 mm from a 40 mm surface are never applied
    with open(CUBES) as fh:
        doc = json.load(fh)
    _set(doc, "sensitivity.dc_grid_mm", [30, 60, 90])
    _set(doc, "calibration.locked.p0_grid_kpa", [60, 80])  # the pressures sensitivity ranks
    out = tmp_path / "sens"
    assert main(["sensitivity", "--config", _write(tmp_path, doc), "--out", str(out)]) == EXIT_RUNTIME_FLAG
    err = capsys.readouterr().err
    assert err == (
        "sensitivity left out flagged pairs: p0=60.0 kPa d_c=60.0 mm; p0=60.0 kPa d_c=90.0 mm; "
        "p0=80.0 kPa d_c=60.0 mm; p0=80.0 kPa d_c=90.0 mm\n"
    )
    lines = (out / "sensitivity.csv").read_text().splitlines()
    assert lines[0] == "p0_kpa,dc_mm,separation_kpa,z"
    assert sorted(ln.split(",")[:2] for ln in lines[1:]) == [["60.0", "30.0"], ["80.0", "30.0"]]


def test_cli_sensitivity_rejects_unequal_surface_offsets(tmp_path, capsys):
    # both fixtures are probed at one surface offset, so unequal offsets are a config error
    with open(CUBES) as fh:
        doc = json.load(fh)
    _set(doc, "fixtures.cube2.surface_offset_mm", 25.0)
    out = tmp_path / "sens"
    assert main(["sensitivity", "--config", _write(tmp_path, doc), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "cube1" in err and "cube2" in err
    assert not out.exists()


def test_cli_sensitivity_fixture_override(tmp_path):
    out = str(tmp_path / "sens2")
    code = main(
        ["sensitivity", "--config", CUBES, "--fixture", "cube1,cube3", "--out", out]
    )
    assert code == EXIT_OK


def test_cli_seed_override_changes_outputs(tmp_path):
    out1, out2, out3 = (str(tmp_path / n) for n in ("s1", "s2", "s3"))
    for out, seed in ((out1, "5"), (out2, "5"), (out3, "6")):
        assert main(["scenario", "--config", BANANA, "--seed", seed, "--out", out]) == EXIT_OK
    read = lambda o: (tmp_path / os.path.basename(o) / "stiffness_map.json").read_bytes()
    assert read(out1) == read(out2)
    assert read(out1) != read(out3)


def test_run_meta_records_provenance(tmp_path):
    out = str(tmp_path / "meta")
    assert main(["scenario", "--config", BANANA, "--out", out]) == EXIT_OK
    meta = json.loads((tmp_path / "meta" / "run_meta.json").read_text())
    assert meta["command"] == "scenario"
    assert meta["seed"] == 0
    assert meta["noise"] is True
    assert len(meta["config_sha256"]) == 64


def _int_spelled(node):
    """A parsed config with every integral float written as an int."""
    if isinstance(node, dict):
        return {key: _int_spelled(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_int_spelled(value) for value in node]
    return int(node) if isinstance(node, float) and node.is_integer() else node


@pytest.mark.parametrize(
    "config, argv",
    [
        (CUBES, ["calibrate"]),
        (CUBES, ["probe", "--fixture", "cube1", "--noise", "off"]),
        (CUBES, ["sensitivity"]),
        (BANANA, ["scenario"]),
    ],
    ids=["calibrate", "probe", "sensitivity", "scenario"],
)
def test_cli_outputs_do_not_depend_on_number_spelling(tmp_path, config, argv):
    # 60 and 60.0 are one value: every file, run_meta.json's config hash included, is the same
    resolved = load_config(config)  # every key, with its value as a float where that is its type
    spellings = {"float": json.dumps(resolved), "int": json.dumps(_int_spelled(resolved))}
    assert '"p0_kpa": 60,' in spellings["int"] and '"p0_kpa": 60.0,' in spellings["float"]
    outputs = {}
    for spelling, text in spellings.items():
        path = tmp_path / f"{spelling}.json"
        path.write_text(text)
        out = tmp_path / spelling
        assert main([*argv, "--config", str(path), "--out", str(out)]) == EXIT_OK
        outputs[spelling] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert outputs["int"] == outputs["float"]


def test_build_fixture_fills_field_defaults(tmp_path):
    spelled = {"kind": "uniform", "base_k_n_per_mm": 5.0, "surface_offset_mm": 40.0, "damage_threshold_n": None}
    fixtures = {
        "spelled": spelled,
        "omitted": {"base_k_n_per_mm": 5.0, "surface_offset_mm": 40.0},
        "stray": {**spelled, "samples": [[0.0, 1.0], [10.0, 2.0]]},
    }
    cfg = load_config(_write(tmp_path, {"fixtures": fixtures}))
    built = {name: build_fixture(cfg, name) for name in fixtures}
    assert built["omitted"] == built["spelled"] == built["stray"]
    assert built["stray"].profile.samples == ()  # a uniform profile ignores samples
    assert built["spelled"].damage_threshold is None


def test_first_fault_in_file_order_is_reported(tmp_path):
    # one walk checks keys and types together, so the earlier fault wins
    type_first = {"probe": {"n_probe_steps": "5"}, "plan": {"shape": "round"}}
    with pytest.raises(ConfigError, match="probe.n_probe_steps"):
        load_config(_write(tmp_path, type_first))
    key_first = {"plan": {"shape": "round"}, "probe": {"n_probe_steps": "5"}}
    with pytest.raises(ConfigError, match="plan.shape"):
        load_config(_write(tmp_path, key_first, name="other.json"))


# a fixture sampled along its length, which only the scenario command probes
SPATIAL = {"kind": "linear_positions", "samples": [[0.0, 150.0], [90.0, 25.0]], "surface_offset_mm": 40.0}


def _dry_run_case(
    key, value, message, command="probe", config=CUBES, run_flags=("--fixture", "cube1"), id=None
):
    """A config with value at key, or with each of a tuple of values at its tuple of keys."""
    return pytest.param(command, config, run_flags, key, value, message, id=id or f"{command}-{key}-{value}")


@pytest.mark.parametrize(
    "command, config, run_flags, key, value, message",
    [
        _dry_run_case(
            "plant.ring.kappa_per_rad", 2.0, "config error: plant.ring: kappa=2.0 empties the cavity",
            id="plant.ring.kappa_per_rad-2.0-config error: plant.ring: kappa=2.0 empties the cavity",
        ),
        _dry_run_case(
            "probe.n_probe_steps", 0, "config error: probe: n_probe_steps must be >= 1",
            id="probe.n_probe_steps-0-config error: n_probe_steps must be >= 1",
        ),
        _dry_run_case(
            "fixtures.cube1.base_k_n_per_mm", -1, "config error: fixtures.cube1: uniform profile needs base_k > 0",
            id="fixtures.cube1.base_k_n_per_mm--1-config error: uniform profile needs base_k > 0",
        ),
        _dry_run_case(
            "calibration.locked.p0_grid_kpa", [20, 0], "config error: calibration.locked: p0_grid is not strictly",
            id="calibration.locked.p0_grid_kpa-value3-config error: locked sweep p0 grid",
        ),
        # the settings only one command reads: its dry run checks them too
        _dry_run_case(
            "calibration.regulated.p_step_kpa", 0,
            "config error: calibration.regulated: grid step must be positive and finite, got 0\n",
            command="calibrate", run_flags=(),
        ),
        _dry_run_case(  # a removed key
            "calibration.hysteresis.p0_kpa", -1, "config error: unknown config key 'calibration.hysteresis'\n",
            command="calibrate", run_flags=(),
        ),
        _dry_run_case(
            "calibration.locked.alpha_step_deg", 70.0,
            "config error: calibration.locked.alpha_step_deg 70.0 leaves fewer than 2 angles in [0, 60] deg",
            command="calibrate", run_flags=(),
        ),
        _dry_run_case(  # a removed key
            "calibration.hysteresis.dt_per_step_s", -1,
            "config error: unknown config key 'calibration.hysteresis'\n",
            command="calibrate", run_flags=(),
        ),
        _dry_run_case(
            "plan.n", 1, "config error: plan: a probe plan needs at least 2 locations, got 1\n",
            command="scenario", config=BANANA, run_flags=(),
        ),
        _dry_run_case(
            "plan.span", 100.0, "config error: plan.span 100.0 probes [0, 100.0]",
            command="scenario", config=BANANA, run_flags=(),
        ),
        _dry_run_case(
            "plan.fixture", "pear", "config error: plan.fixture: unknown fixture 'pear'",
            command="scenario", config=BANANA, run_flags=(),
        ),
        _dry_run_case(
            "sensitivity.fixture_b", "",
            "config error: sensitivity.fixture_a and sensitivity.fixture_b (or --fixture a,b) must name two fixtures\n",
            command="sensitivity", run_flags=(),
        ),
        _dry_run_case(
            "fixtures.cube2.surface_offset_mm", 30.0,
            "config error: sensitivity probes both fixtures at one surface offset",
            command="sensitivity", run_flags=(),
        ),
        _dry_run_case(
            "probe.p0_kpa", 90, "config error: probe.p0_kpa 90.0 lies outside calibration.locked.p0_grid_kpa",
        ),
        _dry_run_case(
            "probe.p0_kpa", 90, "config error: probe.p0_kpa 90.0 lies outside calibration.locked.p0_grid_kpa",
            command="scenario", config=BANANA, run_flags=(),
        ),
        _dry_run_case(
            "plan.avoid_fraction", 2.0, "config error: plan: avoid_fraction must be in [0, 1], got 2.0\n",
            command="scenario", config=BANANA, run_flags=(),
        ),
        _dry_run_case(
            "gripper.max_open_mm", 30.0,
            "config error: gripper.max_open_mm and fixtures.cube1.surface_offset_mm: "
            "surface_offset 40.0 exceeds max_open 30.0\n",
            command="sensitivity", run_flags=(),
        ),
        _dry_run_case(
            "sensitivity.dc_grid_mm", [10, 0],
            "config error: sensitivity.dc_grid_mm entry 0.0: approach_step 2.0 and probe_step 0.0 must be positive\n",
            command="sensitivity", run_flags=(),
        ),
        _dry_run_case(  # a removed key
            "sensitivity.p0_grid_kpa", [0, 90], "config error: unknown config key 'sensitivity.p0_grid_kpa'\n",
            command="sensitivity", run_flags=(),
        ),
        # faults of the config's shape, found while it loads
        _dry_run_case("plant", 3, "config error: config section 'plant' must be an object\n"),
        _dry_run_case(
            "fixtures", {"x": []}, "config error: fixture 'x' must be an object\n", id="probe-fixtures-not-an-object",
        ),
        _dry_run_case(
            "probe.p0_kpa", 10**400, f"config error: 'probe.p0_kpa' must be a finite number, got {10**400}\n",
            id="probe-probe.p0_kpa-int-past-the-float-range",
        ),
        _dry_run_case(
            "sensitivity", {"fixture_a": "banana", "fixture_b": "banana"},
            "config error: sensitivity.fixture_a names fixture 'banana', which has a spatial profile; "
            "sensitivity takes a uniform fixture, the scenario command a spatial one\n",
            command="sensitivity", config=BANANA, run_flags=(), id="sensitivity-spatial-pair",
        ),
        # a spatial fixture named by the flag or key that gave it
        _dry_run_case(
            "fixtures.cube1", SPATIAL,
            "config error: --fixture names fixture 'cube1', which has a spatial profile; "
            "probe takes a uniform fixture, the scenario command a spatial one\n",
            id="probe-spatial-fixture",
        ),
        _dry_run_case(
            "fixtures.cube2", SPATIAL,
            "config error: sensitivity.fixture_b names fixture 'cube2', which has a spatial profile; "
            "sensitivity takes a uniform fixture, the scenario command a spatial one\n",
            command="sensitivity", run_flags=(), id="sensitivity-spatial-fixture_b",
        ),
        _dry_run_case(
            "fixtures.cube3", SPATIAL,
            "config error: --fixture names fixture 'cube3', which has a spatial profile; "
            "sensitivity takes a uniform fixture, the scenario command a spatial one\n",
            command="sensitivity", run_flags=("--fixture", "cube3,cube1"), id="sensitivity-spatial---fixture",
        ),
        # pressures whose sweep overflows the float range
        _dry_run_case(
            "calibration.locked.p0_grid_kpa", [0, 1e306],
            "config error: calibration.locked: dp_surface holds a non-finite value\n",
            command="calibrate", run_flags=(), id="calibrate-locked-p0-overflows",
        ),
        _dry_run_case(
            "calibration.regulated", {"p_max_kpa": 1e306, "p_step_kpa": 1e305},
            "config error: calibration.regulated: torque_surface holds a non-finite value\n",
            command="calibrate", run_flags=(), id="calibrate-regulated-p-overflows",
        ),
        _dry_run_case(
            "probe.p0_kpa", 1e306,
            "config error: probe.p0_kpa: p0 1e+306 kPa takes the swept pressures, or their sum, past the float range\n",
            command="calibrate", run_flags=(), id="calibrate-hysteresis-p0-overflows",
        ),
        _dry_run_case(  # the sum of finite pressures overflows the mean hysteresis gap
            ("plant.ring.v0_mm3", "plant.ring.leak_rate_per_s", "probe.p0_kpa"), (1.0, 1e-3, 1e308),
            "config error: probe.p0_kpa: p0 1e+308 kPa takes the swept pressures, or their sum, past the float range\n",
            command="calibrate", run_flags=(), id="calibrate-hysteresis-sum-overflows",
        ),
        _dry_run_case(  # with no ADC grid and a probe at 0 kPa only the table sees the overflow
            ("calibration.locked.p0_grid_kpa", "probe.p0_kpa", "plant.sensor.quant_step_kpa"), ([0, 1e306], 0, 0),
            "config error: calibration.locked: dp_surface holds a non-finite value\n",
            id="probe-locked-p0-overflows",
        ),
    ],
)
def test_cli_dry_run_rejects_bad_values(
    tmp_path, capsys, command, config, run_flags, key, value, message
):
    # --dry-run builds what a run builds, so it fails with the run's own message, on one line
    with open(config) as fh:
        doc = json.load(fh)
    for one_key, one_value in zip(key, value) if isinstance(key, tuple) else [(key, value)]:
        _set(doc, one_key, one_value)
    path = _write(tmp_path, doc)
    assert main([command, "--config", path, *run_flags, "--dry-run"]) == EXIT_CONFIG
    dry = capsys.readouterr()
    assert dry.out == "" and dry.err.startswith(message) and dry.err.count("\n") == 1
    out = tmp_path / "x"
    assert main([command, "--config", path, *run_flags, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == dry.err
    assert not out.exists()


@pytest.mark.parametrize(
    "value, message",
    [
        (30.0, "config error: gripper.max_open_mm and fixtures.cube1.surface_offset_mm: "
               "surface_offset 40.0 exceeds max_open 30.0\n"),
        (0, "config error: gripper.max_open_mm and fixtures.cube1.surface_offset_mm: max_open must be positive, got 0.0\n"),
    ],
    ids=["narrower-than-the-fixture", "shut"],
)
def test_cli_probe_dry_run_checks_the_travel(tmp_path, capsys, value, message):
    # a probe's dry run given --fixture checks that fixture against the opening
    with open(CUBES) as fh:
        doc = json.load(fh)
    _set(doc, "gripper.max_open_mm", value)
    path = _write(tmp_path, doc)
    for extra in (["--dry-run"], ["--out", str(tmp_path / "x")]):
        assert main(["probe", "--config", path, "--fixture", "cube1", *extra]) == EXIT_CONFIG
        assert capsys.readouterr().err == message
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("steps", [MAX_APPROACH_STEPS, MAX_APPROACH_STEPS + 1])
def test_cli_approach_steps_are_capped(tmp_path, capsys, steps):
    # a probe takes gripper.max_open_mm / probe.approach_step_mm approach steps
    # at most; a step of 2**-7 mm keeps that ratio exact
    with open(CUBES) as fh:
        doc = json.load(fh)
    _set(doc, "gripper.max_open_mm", steps * 2.0**-7)
    _set(doc, "probe.approach_step_mm", 2.0**-7)
    path = _write(tmp_path, doc)
    out = tmp_path / "x"
    for extra in (["--dry-run"], ["--noise", "off", "--out", str(out)]):
        code = main(["probe", "--config", path, "--fixture", "cube1", *extra])
        err = capsys.readouterr().err
        if steps <= MAX_APPROACH_STEPS:
            assert (code, err) == (EXIT_OK, "")
        else:
            assert code == EXIT_CONFIG
            assert err == (
                f"config error: probe.approach_step_mm 0.0078125 closes gripper.max_open_mm "
                f"{steps * 2.0**-7!r} in {steps} steps, more than {MAX_APPROACH_STEPS}\n"
            )
    assert out.exists() == (steps <= MAX_APPROACH_STEPS)


def test_cli_calibrate_and_scenario_reject_fixture(tmp_path, capsys):
    # neither command reads --fixture, so one given is an error, not ignored
    for command, config, message in (
        ("calibrate", CUBES, "calibrate takes no --fixture"),
        ("scenario", BANANA, "scenario takes its fixture from plan.fixture, not --fixture"),
    ):
        for name in ("nope", "banana"):
            for extra in (["--dry-run"], ["--out", str(tmp_path / "x")]):
                assert main([command, "--config", config, "--fixture", name, *extra]) == EXIT_CONFIG
                assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not (tmp_path / "x").exists()


def test_cli_dry_run_needs_no_names(tmp_path, capsys):
    # a name the run needs but nothing sets is a run's error, not a dry run's
    for command, config in (("probe", CUBES), ("scenario", CUBES), ("sensitivity", BANANA)):
        assert main([command, "--config", config, "--dry-run"]) == EXIT_OK
        assert main([command, "--config", config, "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "argv, key, value, message",
    [
        (
            ["probe", "--config", CUBES, "--fixture", "cube1"],
            "probe.p0_kpa",
            90,
            "probe.p0_kpa 90.0 lies outside calibration.locked.p0_grid_kpa [0.0, 80.0]",
        ),
        (
            ["scenario", "--config", BANANA],
            "probe.p0_kpa",
            90,
            "probe.p0_kpa 90.0 lies outside calibration.locked.p0_grid_kpa [0.0, 80.0]",
        ),
        (
            ["sensitivity", "--config", CUBES],
            "probe.p0_kpa",
            90,
            "probe.p0_kpa 90.0 lies outside calibration.locked.p0_grid_kpa [0.0, 80.0]",
        ),
    ],
    ids=["probe", "scenario", "sensitivity"],
)
def test_cli_p0_outside_locked_grid_exits_config(tmp_path, capsys, argv, key, value, message):
    # checked before any probe runs
    command, _, config, *rest = argv
    with open(config) as fh:
        doc = json.load(fh)
    _set(doc, key, value)
    out = tmp_path / "x"
    assert main([command, "--config", _write(tmp_path, doc), *rest, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_cli_out_is_a_file_exits_config(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    assert main(["probe", "--config", CUBES, "--fixture", "cube1", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: output directory") and "Traceback" not in err
    assert out.read_text() == "keep me\n"


def _full_disk(monkeypatch, path, at):
    """Fail the create ("open") or the first write ("write") of path once, as a
    full disk does; returns the files whose write was attempted, in order."""
    real_open, real_write = os.open, os.write
    opened, written, failed = {}, [], []

    def create(file, flags, *args, **kwargs):
        if at == "open" and str(file) == str(path) and not failed:
            failed.append(file)
            raise OSError(28, "No space left on device")
        fd = real_open(file, flags, *args, **kwargs)
        opened[fd] = str(file)
        return fd

    def write(fd, data):
        if opened.get(fd) not in written:
            written.append(opened.get(fd))
        if at == "write" and opened.get(fd) == str(path) and not failed:
            failed.append(path)
            raise OSError(28, "No space left on device")
        return real_write(fd, data)

    monkeypatch.setattr(os, "open", create)
    monkeypatch.setattr(os, "write", write)
    return written, failed


def test_cli_failed_write_leaves_no_output(tmp_path, capsys, monkeypatch):
    # locked.csv is created, then its write fails: it, regulated.csv and the directory go
    out = tmp_path / "x"
    calls, failed = _full_disk(monkeypatch, out / "locked.csv", "write")
    assert main(["calibrate", "--config", CUBES, "--out", str(out)]) == EXIT_RUNTIME_FLAG
    assert capsys.readouterr().err == f"error: cannot write {out / 'locked.csv'}: No space left on device\n"
    assert calls == [str(out / "regulated.csv"), str(out / "locked.csv")] and failed
    assert not out.exists()


def test_cli_failed_rerun_keeps_previous_run(tmp_path, capsys, monkeypatch):
    # a rerun into the same --out that fails on its second file leaves the first run's files
    out = tmp_path / "x"
    assert main(["calibrate", "--config", CUBES, "--out", str(out)]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    _, failed = _full_disk(monkeypatch, out / "locked.csv", "open")
    with open(CUBES) as fh:
        doc = json.load(fh)
    _set(doc, "plant.ring.c2_nmm_per_rad_kpa", 700.0)
    _set(doc, "probe.p0_kpa", 40.0)  # with c2, every file of the second run differs
    assert main(["calibrate", "--config", _write(tmp_path, doc), "--out", str(out)]) == EXIT_RUNTIME_FLAG
    assert capsys.readouterr().err == f"error: cannot write {out / 'locked.csv'}: No space left on device\n"
    assert failed
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_cli_failed_write_removes_the_directories_it_made(tmp_path, capsys, monkeypatch):
    # --out a/b/c with only tmp_path there: the run makes a, a/b and a/b/c, and a failed write removes all three
    out = tmp_path / "a" / "b" / "c"
    _, failed = _full_disk(monkeypatch, out / "regulated.csv", "write")
    assert main(["calibrate", "--config", CUBES, "--out", str(out)]) == EXIT_RUNTIME_FLAG
    assert capsys.readouterr().err == f"error: cannot write {out / 'regulated.csv'}: No space left on device\n"
    assert failed and os.listdir(tmp_path) == []


def test_cli_failed_write_into_an_existing_directory_keeps_it_whole(tmp_path, capsys, monkeypatch):
    # a previous run's files, a file the run does not write and an empty subdirectory all stay as they were
    out = tmp_path / "a" / "b"
    assert main(["calibrate", "--config", CUBES, "--out", str(out)]) == EXIT_OK
    (out / "notes.txt").write_text("keep me\n")
    (out / "empty").mkdir()
    before = {p.name: p.is_dir() or p.read_bytes() for p in out.iterdir()}
    _, failed = _full_disk(monkeypatch, out / "regulated.csv", "write")
    assert main(["calibrate", "--config", CUBES, "--out", str(out)]) == EXIT_RUNTIME_FLAG
    assert capsys.readouterr().err == f"error: cannot write {out / 'regulated.csv'}: No space left on device\n"
    assert failed and os.listdir(tmp_path) == ["a"] and os.listdir(tmp_path / "a") == ["b"]
    assert {p.name: p.is_dir() or p.read_bytes() for p in out.iterdir()} == before


def test_cli_rerun_replaces_its_files_and_keeps_the_rest(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["calibrate", "--config", CUBES, "--out", str(out)]) == EXIT_OK
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    (out / "notes.txt").write_text("keep me\n")
    with open(CUBES) as fh:
        doc = json.load(fh)
    _set(doc, "plant.ring.c2_nmm_per_rad_kpa", 700.0)
    _set(doc, "probe.p0_kpa", 40.0)  # with c2, every file of the second run differs
    assert main(["calibrate", "--config", _write(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(second) == sorted([*first, "notes.txt"])  # no file moved aside is left
    assert second["notes.txt"] == b"keep me\n"
    assert all(second[name] != text for name, text in first.items())


def test_cli_replaces_a_symlink_at_an_output_name(tmp_path):
    # the link is replaced by the run's file; neither its target nor a dangling one is touched
    out, target = tmp_path / "x", tmp_path / "target.csv"
    out.mkdir()
    target.write_text("keep me\n")
    (out / "locked.csv").symlink_to(target)
    (out / "regulated.csv").symlink_to(tmp_path / "missing.csv")
    assert main(["calibrate", "--config", CUBES, "--out", str(tmp_path / "ref")]) == EXIT_OK
    assert main(["calibrate", "--config", CUBES, "--out", str(out)]) == EXIT_OK
    for name in ("locked.csv", "regulated.csv"):
        assert not (out / name).is_symlink()
        assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
    assert target.read_text() == "keep me\n" and not (tmp_path / "missing.csv").exists()


def test_cli_output_directory_that_cannot_be_made_exits_runtime(tmp_path, capsys):
    # a path under a regular file is not a directory the run can create
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    out = taken / "x"
    assert main(["probe", "--config", CUBES, "--fixture", "cube1", "--out", str(out)]) == EXIT_RUNTIME_FLAG
    assert capsys.readouterr().err == f"error: cannot write {out}: Not a directory\n"
    assert _files_under(tmp_path) == ["taken"] and taken.read_text() == "keep me\n"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_cli_output_files_follow_the_umask(tmp_path, umask):
    out = tmp_path / "x"
    old = os.umask(umask)
    try:
        assert main(["probe", "--config", CUBES, "--fixture", "cube1", "--out", str(out)]) == EXIT_OK
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
    assert sorted(modes) == ["probe_cube1.json", "probe_cube1_trace.csv", "run_meta.json"]
    assert set(modes.values()) == {0o666 & ~umask}


def test_cli_short_writes_are_completed(tmp_path, monkeypatch):
    # os.write may write fewer bytes than asked; every file still ends whole
    ref, out = tmp_path / "ref", tmp_path / "x"
    assert main(["calibrate", "--config", CUBES, "--out", str(ref)]) == EXIT_OK
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:1000]))
    assert main(["calibrate", "--config", CUBES, "--out", str(out)]) == EXIT_OK
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {p.name: p.read_bytes() for p in ref.iterdir()}


def test_cli_calibration_grid_ends_inside_the_joint_range(tmp_path, capsys):
    # a 0.3 deg step does not divide 80 deg; the sweep ends at 79.8 deg, short of
    # the 80.1 deg where a ring with kappa 0.716 rad^-1 has emptied its cavity
    with open(CUBES) as fh:
        doc = json.load(fh)
    _set(doc, "plant.ring.kappa_per_rad", 0.716)
    _set(doc, "calibration.locked.alpha_step_deg", 0.3)
    path = _write(tmp_path, doc)
    assert main(["probe", "--config", path, "--fixture", "cube1", "--dry-run"]) == EXIT_OK
    out = tmp_path / "x"
    assert main(["calibrate", "--config", path, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    last_alpha = float((out / "locked.csv").read_text().splitlines()[-1].split(",")[0])
    assert last_alpha == pytest.approx(79.8) and last_alpha <= 80.0


@pytest.mark.parametrize(
    "key, value, sweep",
    [
        ("calibration.locked.alpha_max_deg", 200.0, "locked"),
        ("calibration.locked.alpha_max_deg", 300.0, "locked"),
        ("calibration.regulated.alpha_max_deg", 300.0, "regulated"),
    ],
)
def test_cli_sweep_past_the_joint_range_exits_config(tmp_path, capsys, key, value, sweep):
    with open(CUBES) as fh:
        doc = json.load(fh)
    _set(doc, key, value)
    path = _write(tmp_path, doc)
    out = tmp_path / "x"
    for extra in (["--dry-run"], ["--out", str(out)]):
        assert main(["calibrate", "--config", path, *extra]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: calibration.{sweep}: alpha_max_deg {value!r} exceeds the 80.0 deg joint range\n"
        )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, key, cap",
    [
        # every probing command sets up one rig, so one check caps its reads
        (["probe", "--config", CUBES, "--fixture", "cube1"], "probe.settle_reads", MAX_SETTLE_READS),
        (["scenario", "--config", BANANA], "probe.settle_reads", MAX_SETTLE_READS),
        (["sensitivity", "--config", CUBES], "probe.settle_reads", MAX_SETTLE_READS),
        (["scenario", "--config", BANANA], "plan.n", MAX_PLAN_PROBES),
    ],
)
def test_cli_work_in_proportion_to_a_value_is_capped(tmp_path, capsys, argv, key, cap):
    with open(argv[2]) as fh:
        doc = json.load(fh)
    _set(doc, key, cap)
    command = [argv[0], "--config", _write(tmp_path, doc), *argv[3:]]
    assert main([*command, "--dry-run"]) == EXIT_OK
    capsys.readouterr()
    _set(doc, key, cap + 1)
    command[2] = _write(tmp_path, doc)
    out = tmp_path / "x"
    assert main([*command, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {key} {cap + 1} exceeds {cap}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["probe", "--config", CUBES, "--fixture", "cube1"],
    ["scenario", "--config", BANANA],
    ["sensitivity", "--config", CUBES],
], ids=["probe", "scenario", "sensitivity"])
def test_cli_probe_steps_and_readings_are_capped(tmp_path, capsys, argv):
    # every probing command caps probe.n_probe_steps and the readings of one
    # settle read, probe.settle_reads, but not the readings of a whole probe: a
    # read costs the same at any length, so both at their caps pass
    with open(argv[2]) as fh:
        doc = json.load(fh)
    _set(doc, "probe.settle_reads", MAX_SETTLE_READS)
    _set(doc, "probe.n_probe_steps", MAX_PROBE_STEPS)
    command = [argv[0], "--config", _write(tmp_path, doc), *argv[3:]]
    assert main([*command, "--dry-run"]) == EXIT_OK
    capsys.readouterr()
    _set(doc, "probe.n_probe_steps", MAX_PROBE_STEPS + 1)
    command[2] = _write(tmp_path, doc)
    out = tmp_path / "x"
    for extra in (["--dry-run"], ["--out", str(out)]):
        assert main([*command, *extra]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: probe.n_probe_steps {MAX_PROBE_STEPS + 1} exceeds {MAX_PROBE_STEPS}\n"
        )
    assert not out.exists()


@pytest.mark.parametrize("quant_step", [0.68, 5.0], ids=["block-sum", "coarse"])
def test_cli_probe_of_a_million_readings_a_read_runs(tmp_path, capsys, quant_step):
    # 10^6 readings a read, 180 contact-free approach steps before the cube and
    # more than 10^8 readings a probe, at b = 8.6 and b = 1.2: each read costs
    # the same at any length, so the probe runs and finds the cube
    doc = {
        "gripper": {"max_open_mm": 400.0},
        "plant": {"sensor": {"quant_step_kpa": quant_step}},
        "probe": {"settle_reads": MAX_SETTLE_READS},
        "fixtures": {"cube": {"kind": "uniform", "base_k_n_per_mm": 120.0, "surface_offset_mm": 40.0}},
    }
    out = tmp_path / "x"
    code = main(["probe", "--config", _write(tmp_path, doc), "--fixture", "cube", "--out", str(out)])
    assert code in (EXIT_OK, EXIT_RUNTIME_FLAG)
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "probe_cube.json").read_text())
    assert report["contact_opening"] == pytest.approx(40.0, abs=2.0)


def _files_under(root):
    return sorted(os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names)


def test_cli_config_not_utf8_exits_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"seed": 1, "output_dir": "o\xffut"}')
    for extra in (["--dry-run"], ["--out", str(tmp_path / "out")]):
        assert main(["probe", "--config", str(path), "--fixture", "cube1", *extra]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"config error: {path}: 'utf-8' codec can't decode byte 0xff in position 28: invalid start byte\n"
        )
    assert _files_under(tmp_path) == ["bad.json"]


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"seed": 1, "seed": 2}', "seed"),
        ('{"probe": {"p0_kpa": 40}, "seed": 0, "probe": {"n_probe_steps": 3}}', "probe"),
        ('{"probe": {"p0_kpa": 40, "p0_kpa": 20}}', "p0_kpa"),
        ('{"fixtures": {"x": {"surface_offset_mm": 40, "base_k_n_per_mm": 5, "surface_offset_mm": 30}}}',
         "surface_offset_mm"),
    ],
    ids=["top-level", "section", "section-key", "fixture-field"],
)
def test_cli_repeated_key_exits_config(tmp_path, capsys, text, key):
    # the second value would silently win, so neither is taken
    path = tmp_path / "cfg.json"
    path.write_text(text)
    for extra in (["--dry-run"], ["--out", str(tmp_path / "out")]):
        assert main(["calibrate", "--config", str(path), *extra]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {path}: repeated key '{key}'\n")
    assert _files_under(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize(
    "key, value",
    [("full_scale_kpa", 1e160), ("full_scale_kpa", 1e300), ("noise_frac", 1e160), ("noise_frac", 1e300),
     ("quant_step_kpa", 1e160), ("quant_step_kpa", 1e300), ("quant_step_kpa", 1e-308)],
)
def test_cli_sensor_past_the_float_range_exits_config(tmp_path, capsys, key, value):
    # the settle sigma squares the reading noise, and a read counts in ADC steps
    with open(CUBES) as fh:
        doc = json.load(fh)
    doc.setdefault("plant", {}).setdefault("sensor", {})[key] = value
    path = _write(tmp_path, doc)
    for command in (["probe", "--fixture", "cube1"], ["sensitivity"]):
        errs = []
        for extra in (["--dry-run"], ["--out", str(tmp_path / "out")]):
            assert main([*command, "--config", path, *extra]) == EXIT_CONFIG
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("config error: plant.sensor: ") and "past the float range" in err
            errs.append(err)
        assert errs[0] == errs[1]
    assert _files_under(tmp_path) == ["cfg.json"]


def _tiny_grid(tmp_path, quant_step, settle_reads, noise_frac=None):
    with open(CUBES) as fh:
        doc = json.load(fh)
    _set(doc, "plant.sensor.quant_step_kpa", quant_step)
    _set(doc, "probe.settle_reads", settle_reads)
    if noise_frac is not None:
        _set(doc, "plant.sensor.noise_frac", noise_frac)
    return _write(tmp_path, doc)


def _adc_limit(tmp_path, capsys, quant_step, noise_frac, limit, past, message):
    # `limit` settle reads run, each of `past` exits 2 with and without --dry-run, writing nothing
    out = tmp_path / "out"
    path = _tiny_grid(tmp_path, quant_step, limit, noise_frac)
    assert main(["probe", "--config", path, "--fixture", "cube1", "--dry-run"]) == EXIT_OK
    assert main(["probe", "--config", path, "--fixture", "cube1", "--out", str(out)]) in (EXIT_OK, EXIT_RUNTIME_FLAG)
    report = json.loads((out / "probe_cube1.json").read_text())
    assert all(math.isfinite(dp) for _, dp in report["dp_trace"])
    capsys.readouterr()
    for reads in past:
        path = _tiny_grid(tmp_path, quant_step, reads, noise_frac)
        for extra in (["--dry-run"], ["--out", str(tmp_path / "past")]):
            assert main(["probe", "--config", path, "--fixture", "cube1", *extra]) == EXIT_CONFIG
            assert capsys.readouterr() == ("", (
                f"config error: plant.sensor.quant_step_kpa {quant_step!r} puts probe.settle_reads {reads} readings "
                f"of up to 700 kPa plus 10 noise sigmas of {message} kPa past the float range in ADC steps\n"
            ))
    assert not (tmp_path / "past").exists()
    return report


def test_cli_read_past_the_float_range_in_adc_steps_exits_config(tmp_path, capsys):
    # a read sums settle_reads readings in ADC steps: 700 kPa of full scale and
    # ten sigmas of 5.83 kPa noise are 7.58e304 steps of 1e-302 kPa, so 2370
    # readings of them are the last in range
    report = _adc_limit(tmp_path, capsys, 1e-302, None, 2370, (2371, 1_000_000), "5.83333")
    assert report["flags"] == []


def test_cli_noisy_read_past_the_float_range_in_adc_steps_exits_config(tmp_path, capsys):
    # noise of ten times full scale: with the pressure, ten sigmas of 7000 kPa
    # are 7.07e306 steps of 1e-302 kPa, so 25 readings are the last in range;
    # on a 7e-304 kPa grid the noise term of 100 readings overflowed a read
    _adc_limit(tmp_path, capsys, 1e-302, 10, 25, (26,), "7000")
    _adc_limit(tmp_path, capsys, 7e-304, 10, 1, (2, 100), "7000")


def test_cli_fine_grid_read_stays_finite(tmp_path):
    # a 1e-160 kPa grid puts sigma at 5.8e160 steps, whose square overflows; the
    # block sum combines its spreads without squaring them
    out = tmp_path / "out"
    path = _tiny_grid(tmp_path, 1e-160, 512)
    assert main(["probe", "--config", path, "--fixture", "cube1", "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "probe_cube1.json").read_text())
    numbers = [report[key] for key in ("contact_opening", "est_force", "k_r", "k_o_est", "est_delta")]
    numbers += [value for row in report["dp_trace"] for value in row]
    assert report["flags"] == [] and all(math.isfinite(value) for value in numbers)
    rows = (out / "probe_cube1_trace.csv").read_text().splitlines()[1:]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


def test_cli_deeply_nested_config_exits_config(tmp_path, capsys):
    # json.load recurses once per level and gives up past the recursion limit
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text('{"seed": ' + "[" * depth + "]" * depth + "}")
    errs = []
    for extra in (["--dry-run"], ["--out", str(tmp_path / "out")]):
        assert main(["calibrate", "--config", str(path), *extra]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"config error: {path}: maximum recursion depth exceeded")
        errs.append(err)
    assert errs[0] == errs[1]
    assert _files_under(tmp_path) == ["deep.json"]


def _cube_named(name):
    return {"fixtures": {name: {"base_k_n_per_mm": 50.83, "surface_offset_mm": 40.0}}}


@pytest.mark.parametrize("name", ["a/b", "a\\b", "a\0b"], ids=["slash", "backslash", "nul"])
def test_cli_fixture_name_that_is_not_a_file_name_exits_config(tmp_path, capsys, name):
    # probe writes probe_<name>.json, so a name must not reach into another directory
    path = _write(tmp_path, _cube_named(name))
    out = tmp_path / "out" / "run"
    for extra in (["--dry-run"], ["--out", str(out)]):
        assert main(["probe", "--config", path, "--fixture", name, *extra]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"config error: fixture name {json.dumps(name)} must not contain '/', '\\' or NUL\n"
        )
    assert _files_under(tmp_path) == ["cfg.json"]


def test_cli_fixture_name_cannot_escape_out(tmp_path, capsys):
    # once out/probe_x/ exists, x/../../../escaped would resolve outside out
    out = tmp_path / "deep" / "out" / "run"
    (out / "probe_x").mkdir(parents=True)
    name = "x/../../../escaped"
    path = _write(tmp_path, _cube_named(name))
    assert main(["probe", "--config", path, "--fixture", name, "--noise", "off", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith('config error: fixture name "x/../../../escaped" must not contain')
    assert _files_under(tmp_path) == ["cfg.json"]
    assert os.listdir(out) == ["probe_x"] and os.listdir(out / "probe_x") == []


def test_cli_output_dir_with_nul_exits_config(tmp_path, capsys):
    path = _write(tmp_path, {"output_dir": "o\0ut"})
    for extra in (["--dry-run"], ["--out", str(tmp_path / "out")]):
        assert main(["calibrate", "--config", path, *extra]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", 'config error: \'output_dir\' must not contain NUL, got "o\\u0000ut"\n')
    assert _files_under(tmp_path) == ["cfg.json"]


def test_cli_out_with_nul_exits_config(tmp_path, capsys):
    out = str(tmp_path / "o\0ut")
    assert main(["calibrate", "--config", CUBES, "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: --out must not contain NUL, got {json.dumps(out)}\n")
    assert _files_under(tmp_path) == []
