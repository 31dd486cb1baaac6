import pytest

from softgrip.calibration import generate_locked_sweep, generate_regulated_sweep
from softgrip.config import DEFAULTS
from softgrip.geometry import FingerGeometry
from softgrip.pneumatics import RingModel, SensorModel


@pytest.fixture(scope="session")
def geom():
    return FingerGeometry()


@pytest.fixture(scope="session")
def ring():
    return RingModel()


@pytest.fixture(scope="session")
def sensor():
    return SensorModel()


@pytest.fixture(scope="session")
def quiet_sensor(sensor):
    return sensor.noiseless()


@pytest.fixture(scope="session")
def locked_table(ring):
    return generate_locked_sweep(ring, **DEFAULTS["calibration"]["locked"])


@pytest.fixture(scope="session")
def regulated_table(ring):
    return generate_regulated_sweep(ring, **DEFAULTS["calibration"]["regulated"])
