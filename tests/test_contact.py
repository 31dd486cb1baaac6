import dataclasses
import hashlib
import math
from collections import Counter

import numpy as np
import pytest

import softgrip.contact
from softgrip.contact import (
    ALPHA_TOL,
    ObjectModel,
    _residual,
    solve_equilibrium,
    solve_equilibrium_bruteforce,
    stiffness_at,
)
from softgrip.errors import ConfigError, DomainError, RangeError, SoftgripError
from softgrip.geometry import FingerGeometry, tip_extent, tip_extent_inverse
from softgrip.pneumatics import RingModel, RingState, joint_torque, lock, pressure_at_angle


def _locked(ring, p0):
    return lock(RingState(p_gauge=p0, alpha=0.0), ring)


BANANA = ObjectModel(
    surface_offset=40.0,
    kind="linear_positions",
    samples=((0.0, 150.0), (70.0, 150.0), (80.0, 25.0), (90.0, 25.0)),
)


def test_uniform_profile():
    obj = ObjectModel(surface_offset=40.0, kind="uniform", base_k=42.0)
    assert stiffness_at(obj, 0.0) == 42.0
    assert stiffness_at(obj, 123.0) == 42.0


def test_sampled_profile_interpolates():
    assert stiffness_at(BANANA, 30.0) == 150.0
    assert stiffness_at(BANANA, 80.0) == 25.0
    assert stiffness_at(BANANA, 75.0) == pytest.approx(87.5)
    assert stiffness_at(BANANA, 90.0) == 25.0


def test_soft_tail_is_softest():
    firm = [stiffness_at(BANANA, c) for c in (0.0, 10.0, 50.0, 70.0)]
    soft = [stiffness_at(BANANA, c) for c in (80.0, 90.0)]
    assert max(soft) < min(firm)


def test_profile_range_check():
    with pytest.raises(RangeError):
        stiffness_at(BANANA, -1.0)
    with pytest.raises(RangeError):
        stiffness_at(BANANA, 91.0)


def test_object_model_via_stiffness_at():
    obj = dataclasses.replace(BANANA, damage_threshold=500.0)
    assert stiffness_at(obj, 80.0) == 25.0


# (fields changed on BANANA, the start of the message), in the order ObjectModel checks them
INVALID_OBJECTS = [
    ({"kind": "radial"}, "unknown stiffness profile kind 'radial'"),
    ({"kind": "uniform", "base_k": 0.0}, "uniform profile needs base_k > 0, got 0.0"),
    ({"samples": ((0.0, 1.0),)}, "sampled profile needs at least 2 samples"),
    ({"samples": ((0.0, 1.0), (0.0, 2.0))}, "sample coordinates must be strictly increasing"),
    ({"samples": ((0.0, 1.0), (1.0, -2.0))}, "all sampled stiffness values must be positive"),
    ({"kind": "angular_positions", "samples": ((0.0, 1.0), (190.0, 2.0))}, "angular coordinates must lie in [0, 180]"),
    ({"surface_offset": -1.0}, "surface_offset must be non-negative, got -1.0"),
    ({"damage_threshold": 0.0}, "damage_threshold must be positive when set"),
    # each kind takes only its own stiffness field; a forgotten kind reads as uniform
    ({"kind": "uniform", "base_k": 150.0}, "kind 'uniform' (the default) takes base_k, not samples;"),
    ({"base_k": 150.0}, "kind 'linear_positions' takes samples, not base_k, got base_k 150.0"),
]


def test_profile_validation():
    for fields, message in INVALID_OBJECTS:
        with pytest.raises(ConfigError) as exc:
            dataclasses.replace(BANANA, **fields)
        assert str(exc.value).startswith(message), fields


def test_zero_stiffness_limit(geom, ring):
    nv = _locked(ring, 60.0)
    eq = solve_equilibrium(geom, ring, nv, 0.0, 30.0)
    assert eq.alpha_star == 0.0
    assert eq.force == 0.0
    assert eq.delta == 30.0
    assert eq.dp == 0.0


def test_no_closing_no_contact(geom, ring):
    nv = _locked(ring, 60.0)
    eq = solve_equilibrium(geom, ring, nv, 100.0, 0.0)
    assert eq.alpha_star == 0.0 and eq.delta == 0.0
    assert eq.force == 0.0


def test_free_bend_inside_dead_zone(geom, ring):
    # a shallow closing is absorbed by the torque-free fabric slack
    nv = _locked(ring, 60.0)
    d_c = 10.0
    eq = solve_equilibrium(geom, ring, nv, 100.0, d_c)
    assert eq.force == 0.0
    assert eq.delta == 0.0
    assert eq.alpha_star == pytest.approx(tip_extent_inverse(geom, d_c), abs=1e-12)
    assert eq.dp > 0.0
    assert not eq.saturated


def test_free_bend_boundary(geom, ring):
    nv = _locked(ring, 60.0)
    e_slack = tip_extent(geom, ring.alpha_slack)
    eq = solve_equilibrium(geom, ring, nv, 50.0, e_slack)
    assert eq.alpha_star == pytest.approx(ring.alpha_slack, abs=1e-9)
    assert eq.force == pytest.approx(0.0, abs=1e-9)


def test_equilibrium_balances_torques(geom, ring):
    nv = _locked(ring, 60.0)
    for k in (30.0, 80.0, 200.0):
        eq = solve_equilibrium(geom, ring, nv, k, 30.0)
        p = pressure_at_angle(nv, ring, eq.alpha_star)
        lhs = joint_torque(ring, eq.alpha_star, p)
        rhs = k * eq.delta * geom.tip_arm
        assert lhs == pytest.approx(rhs, rel=2e-3)
        assert eq.force == pytest.approx(k * eq.delta, rel=1e-12)


def test_rigid_object_limit(geom, ring):
    # an extremely stiff object barely deforms; the finger stops early
    nv = _locked(ring, 60.0)
    eq = solve_equilibrium(geom, ring, nv, 1e5, 30.0)
    assert eq.delta < 0.05
    assert tip_extent(geom, eq.alpha_star) == pytest.approx(30.0, abs=0.05)


def test_saturation_branch(geom, ring):
    # stiff object with a closing deeper than the finger can absorb: no root
    nv = _locked(ring, 0.0)
    eq = solve_equilibrium(geom, ring, nv, 1e9, 55.0)
    assert eq.saturated
    assert eq.alpha_star == 0.0
    assert eq.force == pytest.approx(1e9 * 55.0)


def test_stiffer_object_larger_pressure_rise(geom, ring):
    nv = _locked(ring, 60.0)
    dps = [solve_equilibrium(geom, ring, nv, k, 30.0).dp for k in (10, 50, 100, 200, 400)]
    assert all(b > a for a, b in zip(dps, dps[1:]))


def test_deeper_closing_larger_pressure_rise(geom, ring):
    nv = _locked(ring, 60.0)
    dps = [solve_equilibrium(geom, ring, nv, 100.0, dc).dp for dc in (10, 20, 30, 40)]
    assert all(b > a for a, b in zip(dps, dps[1:]))


def test_solver_matches_bruteforce_reference_case(geom, ring):
    nv = _locked(ring, 60.0)
    fast = solve_equilibrium(geom, ring, nv, 202.39, 30.0)
    slow = solve_equilibrium_bruteforce(geom, ring, nv, 202.39, 30.0)
    assert abs(fast.alpha_star - slow.alpha_star) <= math.radians(0.01)
    assert fast.force == pytest.approx(slow.force, rel=5e-3)


def test_solver_matches_bruteforce_randomized(geom, ring):
    rng = np.random.default_rng(21)
    for _ in range(40):
        k = float(rng.uniform(10.0, 500.0))
        p0 = float(rng.uniform(0.0, 80.0))
        d_c = float(rng.uniform(2.0, 45.0))
        nv = _locked(ring, p0)
        fast = solve_equilibrium(geom, ring, nv, k, d_c)
        slow = solve_equilibrium_bruteforce(geom, ring, nv, k, d_c)
        assert fast.saturated == slow.saturated
        assert abs(fast.alpha_star - slow.alpha_star) <= math.radians(0.01)
        # half a grid cell of the oracle is its own force resolution
        floor = k * geom.radius * math.radians(5e-4)
        assert abs(fast.force - slow.force) <= max(5e-3 * abs(slow.force), floor)


def _random_plant(rng):
    """(geom, ring, nv, k_o, d_c) drawn over the valid ranges; the fingertip
    extent increases over [0, alpha_max] from zero at rest."""
    ring = RingModel(
        v0=float(rng.uniform(1000.0, 10000.0)),
        kappa=float(rng.uniform(0.0, 0.7)),
        alpha_slack=math.radians(float(rng.uniform(0.0, 30.0))),
        c1=float(rng.uniform(0.0, 60000.0)),
        c2=float(rng.uniform(0.0, 1200.0)),
    )
    alpha_max = math.radians(float(rng.uniform(15.0, 80.0)))
    a, b = float(rng.uniform(5.0, 30.0)), float(rng.uniform(20.0, 60.0))
    geom = FingerGeometry(a=a, b=b, alpha_max=alpha_max)
    d_c = float(rng.uniform(0.0, tip_extent(geom, alpha_max) + 10.0))
    k = float(rng.uniform(10.0, 500.0))
    nv = _locked(ring, float(rng.uniform(0.0, 80.0)))
    return geom, ring, nv, k, d_c


def test_solver_matches_bruteforce_random_plants():
    rng = np.random.default_rng(33)
    for _ in range(60):
        geom, ring, nv, k, d_c = _random_plant(rng)
        fast = solve_equilibrium(geom, ring, nv, k, d_c)
        slow = solve_equilibrium_bruteforce(geom, ring, nv, k, d_c)
        assert fast.saturated == slow.saturated
        assert abs(fast.alpha_star - slow.alpha_star) <= math.radians(0.01)
        floor = k * geom.radius * math.radians(5e-4)
        assert abs(fast.force - slow.force) <= max(5e-3 * abs(slow.force), floor)


def test_residual_sign_flips_around_root(geom, ring):
    nv = _locked(ring, 60.0)
    for k in (30.0, 150.0, 400.0):
        eq = solve_equilibrium(geom, ring, nv, k, 30.0)
        assert not eq.saturated and eq.force > 0.0
        eps = 1e-3
        assert _residual(geom, ring, nv, k, 30.0, eq.alpha_star - eps) < 0.0
        assert _residual(geom, ring, nv, k, 30.0, eq.alpha_star + eps) > 0.0


def test_bruteforce_free_bend(geom, ring):
    nv = _locked(ring, 60.0)
    eq = solve_equilibrium_bruteforce(geom, ring, nv, 100.0, 10.0)
    assert eq.force == 0.0
    assert eq.alpha_star == pytest.approx(tip_extent_inverse(geom, 10.0), abs=math.radians(0.01))


def test_solver_rejects_negative_closing(geom, ring):
    nv = _locked(ring, 60.0)
    with pytest.raises(DomainError):
        solve_equilibrium(geom, ring, nv, 50.0, -1.0)


def _bisection_reference(geom, ring, nv, k_o, d_c):
    """The plain bisection the solver used before its Illinois step: (alpha or
    None when saturated, residual evaluations including the one at alpha_max)."""
    lo, hi = min(ring.alpha_slack, geom.alpha_max), geom.alpha_max
    evals = 1
    if _residual(geom, ring, nv, k_o, d_c, hi) < 0.0:
        return None, evals
    while hi - lo > ALPHA_TOL:
        mid = 0.5 * (lo + hi)
        evals += 1
        if _residual(geom, ring, nv, k_o, d_c, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), evals


def test_solver_matches_bisection_reference(monkeypatch):
    # seeded random rings and geometries over their valid ranges; every solve
    # that reaches the bracket is held to the bisection answer and its cost
    evals = [0]

    def counted(*args):
        evals[0] += 1
        return _residual(*args)

    monkeypatch.setattr(softgrip.contact, "_residual", counted)
    rng = np.random.default_rng(404)
    costs = []
    saturated = 0
    for _ in range(1500):
        geom, ring, nv, k, d_c = _random_plant(rng)
        slack = min(ring.alpha_slack, geom.alpha_max)
        evals[0] = 0
        eq = solve_equilibrium(geom, ring, nv, k, d_c)
        cost = evals[0]
        if k * geom.tip_arm * d_c <= softgrip.contact.TORQUE_FLOOR or d_c <= tip_extent(geom, slack):
            assert cost == 0  # no-resistance and free-bend solves never bracket
            continue
        ref, ref_cost = _bisection_reference(geom, ring, nv, k, d_c)
        assert eq.saturated == (ref is None)
        if ref is None:
            saturated += 1
            continue
        assert abs(eq.alpha_star - ref) <= ALPHA_TOL
        assert cost <= ref_cost
        costs.append(cost)
    assert len(costs) > 500 and saturated > 100
    assert min(costs) >= 1
    assert np.mean(costs) <= 8.0


def _outcome(fn, *args):
    """repr of fn(*args), or of the package error it raises."""
    try:
        return repr(fn(*args))
    except SoftgripError as exc:
        return repr(exc)


# sha256 over the repr of solve_equilibrium's outcome on the cases below,
# pinned from the solver before its plant calls skipped their domain checks:
# an implementation change must keep every result bit for bit
SOLVE_DIGEST = "2beb2e2ce3e382a779812fcdec0c1922be5aa30fb081e105b66481cf03aba3dc"


def test_solver_outcomes_are_bit_identical():
    rng = np.random.default_rng(2718)
    cases = [_random_plant(rng) for _ in range(2000)]
    for geom, ring, nv, k, d_c in cases[::10]:
        cases.append((geom, ring, nv, 0.0, d_c))  # k_o 0: no resistance
        cases.append((geom, ring, nv, k, -d_c - 1.0))  # DomainError
        cases.append((geom, ring, nv, 1e9, d_c))  # mostly saturated
    stiff_ring = RingModel(alpha_slack=math.radians(30.0))
    short = FingerGeometry(alpha_max=math.radians(25.0))  # alpha_max below alpha_slack
    for d_c in (0.0, 5.0, tip_extent(short, short.alpha_max), 20.0, 40.0):
        cases.append((short, stiff_ring, _locked(stiff_ring, 60.0), 100.0, d_c))
    outcomes = [_outcome(solve_equilibrium, *case) for case in cases]
    kinds = Counter(
        "error" if o.startswith("DomainError") else "saturated" if "saturated=True" in o
        else "no force" if "force=0.0," in o else "force"
        for o in outcomes
    )
    assert min(kinds[kind] for kind in ("error", "saturated", "no force", "force")) > 50
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == SOLVE_DIGEST
