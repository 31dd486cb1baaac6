"""config.DEFAULTS is the one home of every config-valued default: the library
entry points the CLI calls take those values as required keywords. The plant
and probe dataclasses keep field defaults for tests that build them by hand,
so they must equal the models built from DEFAULTS."""

from softgrip.config import DEFAULTS, build_geometry, build_probe_config, build_ring, build_sensor
from softgrip.geometry import FingerGeometry
from softgrip.pneumatics import RingModel, SensorModel
from softgrip.probing import ProbeConfig


def test_models_built_from_defaults_are_the_dataclass_defaults():
    assert build_geometry(DEFAULTS) == FingerGeometry()
    assert build_ring(DEFAULTS) == RingModel()
    assert build_sensor(DEFAULTS) == SensorModel()
    assert build_probe_config(DEFAULTS) == ProbeConfig()
