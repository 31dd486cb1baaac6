import pytest

from softgrip.config import DEFAULTS
from softgrip.contact import ObjectModel, StiffnessProfile
from softgrip.errors import ConfigError
from softgrip.planner import ProbePlan, StiffnessMap, execute_plan, make_plan
from softgrip.probing import ProbeConfig

CFG = ProbeConfig()
# the plan's avoid fraction and execute_plan's settings as the config sets them by default
AVOID = DEFAULTS["plan"]["avoid_fraction"]
PLAN = {"seed": DEFAULTS["seed"], "max_open": DEFAULTS["gripper"]["max_open_mm"]}

BANANA = ObjectModel(
    profile=StiffnessProfile(
        kind="linear_positions",
        samples=(
            (0.0, 150.0), (10.0, 150.0), (20.0, 150.0), (30.0, 150.0),
            (40.0, 150.0), (50.0, 150.0), (60.0, 150.0), (70.0, 150.0),
            (80.0, 25.0), (90.0, 25.0),
        ),
    ),
    surface_offset=40.0,
)

ORANGE = ObjectModel(
    profile=StiffnessProfile(
        kind="angular_positions",
        samples=(
            (0.0, 150.0), (30.0, 25.0), (60.0, 25.0), (90.0, 25.0),
            (120.0, 150.0), (150.0, 150.0), (180.0, 150.0),
        ),
    ),
    surface_offset=40.0,
)


def test_make_plan_elongated():
    plan = make_plan(90.0, 10, AVOID)
    assert plan.locations == tuple(float(x) for x in range(0, 100, 10))


def test_make_plan_round():
    plan = make_plan(180.0, 7, AVOID)
    assert plan.locations == (0.0, 30.0, 60.0, 90.0, 120.0, 150.0, 180.0)


def test_make_plan_endpoints_only():
    assert make_plan(50.0, 2, AVOID).locations == (0.0, 50.0)


def test_make_plan_validation():
    with pytest.raises(ConfigError):
        make_plan(90.0, 1, AVOID)
    with pytest.raises(ConfigError):
        make_plan(0.0, 5, AVOID)
    with pytest.raises(ConfigError):
        ProbePlan((0.0, 0.0, 1.0), AVOID)
    with pytest.raises(ConfigError):
        ProbePlan((0.0,), AVOID)


def test_plan_messages_carry_the_bad_value():
    # ProbePlan is the one home of the plan checks; make_plan passes its values through
    with pytest.raises(ConfigError, match="at least 2 locations, got 1$"):
        make_plan(90.0, 1, AVOID)
    with pytest.raises(ConfigError, match="at least 2 locations, got 0$"):
        make_plan(90.0, -1, AVOID)  # a negative count plans no locations
    with pytest.raises(ConfigError, match="strictly increasing, got -1.25 after 0.0$"):
        make_plan(-5.0, 5, AVOID)
    with pytest.raises(ConfigError, match=r"avoid_fraction must be in \[0, 1\], got -0.5$"):
        ProbePlan((0.0, 1.0), -0.5)


def test_banana_soft_tail_avoided(geom, ring, quiet_sensor, locked_table):
    plan = make_plan(90.0, 10, AVOID)
    smap = execute_plan(plan, BANANA, geom, ring, quiet_sensor, locked_table, CFG, **PLAN)
    assert 80.0 in smap.avoided and 90.0 in smap.avoided
    assert smap.chosen not in (80.0, 90.0)
    assert smap.chosen not in smap.avoided


def test_banana_firm_region_ranks_equal(geom, ring, quiet_sensor, locked_table):
    plan = make_plan(90.0, 10, AVOID)
    smap = execute_plan(plan, BANANA, geom, ring, quiet_sensor, locked_table, CFG, **PLAN)
    firm = [k for c, k, f in smap.entries if c <= 70.0]
    soft = [k for c, k, f in smap.entries if c >= 80.0]
    assert max(soft) < min(firm)
    # noise-free, uniform firm region: ties break toward the smallest coordinate
    assert smap.chosen == 0.0


def test_orange_soft_arc_avoided(geom, ring, quiet_sensor, locked_table):
    plan = make_plan(180.0, 7, AVOID)
    smap = execute_plan(plan, ORANGE, geom, ring, quiet_sensor, locked_table, CFG, **PLAN)
    for coord in (30.0, 60.0, 90.0):
        assert coord in smap.avoided
    assert smap.chosen not in smap.avoided


def test_uniform_object_nothing_avoided(geom, ring, quiet_sensor, locked_table):
    uniform = ObjectModel(
        profile=StiffnessProfile(kind="uniform", base_k=100.0), surface_offset=40.0
    )
    plan = make_plan(50.0, 4, AVOID)
    smap = execute_plan(plan, uniform, geom, ring, quiet_sensor, locked_table, CFG, **PLAN)
    assert smap.avoided == []
    assert smap.chosen == 0.0


def test_map_ranking_matches_true_stiffness(geom, ring, quiet_sensor, locked_table):
    gradient = ObjectModel(
        profile=StiffnessProfile(
            kind="linear_positions", samples=((0.0, 40.0), (60.0, 220.0))
        ),
        surface_offset=40.0,
    )
    plan = make_plan(60.0, 4, 0.0)
    smap = execute_plan(plan, gradient, geom, ring, quiet_sensor, locked_table, CFG, **PLAN)
    krs = [k for _, k, _ in smap.entries]
    assert all(b > a for a, b in zip(krs, krs[1:]))
    assert smap.chosen == 60.0


def test_avoid_fraction_zero_keeps_everything(geom, ring, quiet_sensor, locked_table):
    plan = make_plan(90.0, 10, 0.0)
    smap = execute_plan(plan, BANANA, geom, ring, quiet_sensor, locked_table, CFG, **PLAN)
    assert smap.avoided == []
    with pytest.raises(ConfigError, match="avoid_fraction must be in"):
        make_plan(90.0, 10, 1.5)


def test_damage_threshold_flags_and_avoids(geom, ring, quiet_sensor, locked_table):
    fragile = ObjectModel(
        profile=BANANA.profile, surface_offset=40.0, damage_threshold=300.0
    )
    plan = make_plan(90.0, 10, AVOID)
    smap = execute_plan(plan, fragile, geom, ring, quiet_sensor, locked_table, CFG, **PLAN)
    # the firm region exceeds the damage limit; only the soft tail is graspable
    for c, k, flags in smap.entries:
        if c <= 70.0:
            assert "damage_risk" in flags
            assert c in smap.avoided
    assert smap.chosen in (80.0, 90.0)


def test_all_locations_flagged_chooses_none(geom, ring, quiet_sensor, locked_table):
    doomed = ObjectModel(
        profile=StiffnessProfile(kind="uniform", base_k=150.0),
        surface_offset=40.0,
        damage_threshold=1.0,
    )
    plan = make_plan(30.0, 3, AVOID)
    smap = execute_plan(plan, doomed, geom, ring, quiet_sensor, locked_table, CFG, **PLAN)
    assert smap.chosen is None
    assert smap.avoided == [0.0, 15.0, 30.0]
    assert all("damage_risk" in flags for _, _, flags in smap.entries)


def test_execution_deterministic_per_seed(geom, ring, sensor, locked_table):
    plan = make_plan(90.0, 10, AVOID)
    m1 = execute_plan(plan, BANANA, geom, ring, sensor, locked_table, CFG, **{**PLAN, "seed": 7})
    m2 = execute_plan(plan, BANANA, geom, ring, sensor, locked_table, CFG, **{**PLAN, "seed": 7})
    assert m1.to_dict() == m2.to_dict()
    m3 = execute_plan(plan, BANANA, geom, ring, sensor, locked_table, CFG, **{**PLAN, "seed": 8})
    assert m3.entries != m1.entries


def test_map_serialization():
    smap = StiffnessMap(
        entries=[(0.0, 12.5, ()), (10.0, 4.0, ("damage_risk",))],
        chosen=0.0,
        avoided=[10.0],
    )
    doc = smap.to_dict()
    assert doc["chosen"] == 0.0
    assert doc["entries"][1]["flags"] == ["damage_risk"]
    lines = smap.to_csv().splitlines()
    assert lines[0] == "coord,k_r_n_per_mm,flag"
    assert lines[2] == "10.0,4.0,damage_risk"
    long_lines = smap.to_long_csv().splitlines()
    assert long_lines[0] == "coord,quantity,value"
    assert "0.0,chosen,1" in long_lines
    assert "10.0,avoided,1" in long_lines
