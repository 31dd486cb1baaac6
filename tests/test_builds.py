"""The CLI builds each model once per command, and a bad model fails every
command alike, whether the command uses that model or not."""

import dataclasses
import json
import os
import sys
from collections import Counter

import pytest

from softgrip.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME_FLAG, main
from softgrip.config import build_fixture, load_config
from softgrip.contact import ObjectModel
from softgrip.geometry import FingerGeometry
from softgrip.pneumatics import RingModel, SensorModel
from softgrip.probing import ProbeConfig

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
CUBES = os.path.join(CONFIG_DIR, "cubes.json")
BANANA = os.path.join(CONFIG_DIR, "banana.json")

# (config, arguments, exit code); bundled sensitivity leaves out its 10 mm
# closings, whose probes end in the fabric dead zone (dead_zone)
COMMANDS = {
    "calibrate": (CUBES, [], EXIT_OK),
    "probe": (CUBES, ["--fixture", "cube3"], EXIT_OK),
    "scenario": (BANANA, [], EXIT_OK),
    "sensitivity": (CUBES, [], EXIT_RUNTIME_FLAG),
}


def _counted(init, name, built):
    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        # a dataclasses.replace copy (noiseless(), a sensitivity pair's settings) is not a build
        if sys._getframe(1).f_code.co_filename != dataclasses.__file__:
            built[name].append(repr(self))

    return counted_init


@pytest.mark.parametrize("noise", ["on", "off"])
@pytest.mark.parametrize("command", COMMANDS)
def test_each_model_is_built_once_per_command(tmp_path, monkeypatch, command, noise):
    config, names, code = COMMANDS[command]
    cfg = load_config(config)
    fixtures = sorted(repr(build_fixture(cfg, name)) for name in cfg["fixtures"])
    built = {cls.__name__: [] for cls in (FingerGeometry, RingModel, SensorModel, ProbeConfig, ObjectModel)}
    for cls in (FingerGeometry, RingModel, SensorModel, ProbeConfig, ObjectModel):
        monkeypatch.setattr(cls, "__init__", _counted(cls.__init__, cls.__name__, built))
    argv = [command, "--config", config, *names, "--noise", noise, "--out", str(tmp_path / "out")]
    assert main(argv) == code
    counts = {name: len(reprs) for name, reprs in built.items() if name != "ObjectModel"}
    assert counts == {"FingerGeometry": 1, "RingModel": 1, "SensorModel": 1, "ProbeConfig": 1}
    assert sorted(built["ObjectModel"]) == fixtures  # every fixture, each once


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("plant.sensor.full_scale_kpa", 0, id="sensor"),
        pytest.param("probe.n_probe_steps", 0, id="probe-settings"),
        pytest.param(
            "fixtures.spare", {"kind": "uniform", "base_k_n_per_mm": -1.0, "surface_offset_mm": 40.0},
            id="unused-fixture",
        ),
    ],
)
def test_a_bad_model_fails_every_command_alike(tmp_path, capsys, key, value):
    # calibrate uses neither the sensor, the probe settings nor any fixture, and
    # no command uses the spare fixture; each still exits 2 with one message
    with open(CUBES) as fh:
        doc = json.load(fh)
    with open(BANANA) as fh:
        banana = json.load(fh)
    doc["fixtures"].update(banana["fixtures"])
    doc["plan"] = banana["plan"]
    *parents, leaf = key.split(".")
    section = doc
    for part in parents:
        section = section.setdefault(part, {})
    section[leaf] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    names = {"probe": ["--fixture", "cube1"]}
    results = set()
    for command in COMMANDS:
        for extra in (["--dry-run"], ["--out", str(tmp_path / "out")]):
            code = main([command, "--config", str(path), *names.get(command, []), *extra])
            out, err = capsys.readouterr()
            results.add((code, out, err))
    assert len(results) == 1
    code, out, err = results.pop()
    assert (code, out) == (EXIT_CONFIG, "") and err.startswith("config error:")
    assert not (tmp_path / "out").exists()
