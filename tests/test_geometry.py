import math

import numpy as np
import pytest

from softgrip.errors import DomainError
from softgrip.geometry import (
    FingerGeometry,
    object_deformation,
    tip_extent,
    tip_extent_inverse,
)


def test_default_design_angle_and_radius(geom):
    assert geom.beta == pytest.approx(0.35877067027057225, abs=1e-15)
    assert geom.radius == pytest.approx(42.720018726587654, abs=1e-12)


def test_tip_extent_zero_at_rest(geom):
    assert tip_extent(geom, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_tip_extent_at_design_angle(geom):
    assert tip_extent(geom, geom.beta) == pytest.approx(geom.a, abs=1e-12)


def test_tip_extent_frozen_values(geom):
    assert tip_extent(geom, math.radians(30.0)) == pytest.approx(
        22.009618943233416, abs=1e-12
    )
    assert tip_extent(geom, math.radians(20.0)) == pytest.approx(
        14.585416421238122, abs=1e-12
    )
    assert tip_extent(geom, math.radians(80.0)) == pytest.approx(
        51.78758745548436, abs=1e-12
    )


def test_tip_extent_strictly_increasing(geom):
    grid = np.linspace(0.0, geom.alpha_max, 801)
    vals = [tip_extent(geom, float(a)) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert np.array_equal(tip_extent(geom, grid), vals)


def test_tip_extent_inverse_roundtrip(geom):
    for alpha in np.linspace(0.0, geom.alpha_max, 41):
        ext = tip_extent(geom, float(alpha))
        assert tip_extent_inverse(geom, ext) == pytest.approx(float(alpha), abs=1e-12)


def test_tip_extent_inverse_out_of_reach(geom):
    with pytest.raises(DomainError):
        tip_extent_inverse(geom, -1.0)
    with pytest.raises(DomainError):
        tip_extent_inverse(geom, 60.0)


def test_deformation_at_rest_equals_closing(geom):
    assert object_deformation(geom, 12.5, 0.0) == pytest.approx(12.5)


def test_deformation_frozen_value(geom):
    assert object_deformation(geom, 10.0, math.radians(10.0)) == pytest.approx(
        2.826189188505907, abs=1e-12
    )


def test_deformation_vanishes_when_finger_absorbs_closing(geom):
    d_c = tip_extent(geom, 0.25)
    assert object_deformation(geom, d_c, 0.25) == pytest.approx(0.0, abs=1e-12)


def test_deformation_decreases_with_bending(geom):
    vals = [object_deformation(geom, 30.0, a) for a in np.linspace(0.0, 1.0, 50)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_deformation_can_go_negative(geom):
    assert object_deformation(geom, 1.0, 1.0) < 0.0


def test_domain_checks(geom):
    with pytest.raises(DomainError):
        tip_extent(geom, geom.alpha_max + 0.1)
    with pytest.raises(DomainError):
        object_deformation(geom, -1.0, 0.2)


def test_invalid_geometry_rejected():
    with pytest.raises(DomainError):
        FingerGeometry(a=-1.0)
    with pytest.raises(DomainError):
        FingerGeometry(tip_arm=0.0)
    with pytest.raises(DomainError):
        FingerGeometry(alpha_max=math.radians(90.0))
    # the design angle is atan(a/b), derived, never set
    with pytest.raises(TypeError):
        FingerGeometry(beta=0.5)


def test_pinned_design_angle_random_geometries():
    # over seeded random (a, b, alpha_max) the fingertip extent is zero at rest
    # and strictly increasing over the joint range, by construction
    rng = np.random.default_rng(6)
    for _ in range(200):
        a, b = 10.0 ** rng.uniform(0.0, 2.0, size=2)
        geom = FingerGeometry(a=float(a), b=float(b), alpha_max=math.radians(float(rng.uniform(1.0, 80.0))))
        assert geom.beta == math.atan2(geom.a, geom.b)
        assert abs(tip_extent(geom, 0.0)) <= 1e-12
        vals = tip_extent(geom, np.linspace(0.0, geom.alpha_max, 4001))
        assert np.all(np.diff(vals) > 0.0)
