"""Self-tests of the benchmark: generators, regime classifier, tracer.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import softgrip.cli  # noqa: E402
from softgrip import config as sg_config  # noqa: E402
from softgrip.contact import solve_equilibrium  # noqa: E402
from softgrip.geometry import FingerGeometry, tip_extent  # noqa: E402
from softgrip.pneumatics import RingModel, RingState, lock  # noqa: E402

from layertrace import COUNTS, PER_LAYER, SPANS, LayerTracer, _resolve, classify_regime  # noqa: E402
from workloads import QUALITY_METRICS, WORKLOADS, CalibrationDense, ContactSearch  # noqa: E402

GENERATED = [ContactSearch, CalibrationDense]


@pytest.mark.parametrize("cls", GENERATED)
def test_same_seed_gives_byte_identical_configs(cls, tmp_path):
    a = cls(ROOT, tmp_path / "a", 7)
    b = cls(ROOT, tmp_path / "b", 7)
    other = cls(ROOT, tmp_path / "c", 8)
    for i in (0, 1, 2, 57, 1000):
        ca, cb = a.command(i), b.command(i)
        a.write_config(ca)
        b.write_config(cb)
        assert ca.config_path.read_bytes() == cb.config_path.read_bytes()
        assert ca.argv[0] == cb.argv[0] and ca.argv[-1] == cb.argv[-1]  # command and --seed
        assert ca.expect == cb.expect
        assert ca.config_text != other.command(i).config_text


def test_fruit_stream_is_deterministic(tmp_path):
    cls = WORKLOADS["fruit_scenario"]
    a, b = cls(ROOT, tmp_path, 3), cls(ROOT, tmp_path, 3)
    assert [a.command(i).argv for i in range(6)] == [b.command(i).argv for i in range(6)]
    assert [a.command(i).argv[2] for i in range(2)] == [str(ROOT / "configs" / f) for f in ("banana.json", "orange.json")]
    assert a.command(0).expect["soft"] == (80.0, 90.0)
    assert a.command(1).expect["soft"] == (30.0, 60.0, 90.0)


@pytest.mark.parametrize("cls", GENERATED)
def test_generated_configs_pass_validation(cls, tmp_path):
    wl = cls(ROOT, tmp_path, 11)
    for i in range(64):
        cmd = wl.command(i)
        wl.write_config(cmd)
        cfg = sg_config.load_config(cmd.config_path)
        sg_config.build_geometry(cfg)
        sg_config.build_ring(cfg)
        sg_config.build_probe_config(cfg)
        for name in cfg["fixtures"]:
            fixture = sg_config.build_fixture(cfg, name)
            assert fixture.surface_offset < cfg["gripper"]["max_open_mm"]


def test_calibration_ranges_stay_inside_ring_model():
    ring = CalibrationDense.RING
    for corner in (0, 1):
        RingModel(
            v0=ring["v0_mm3"][corner],
            kappa=ring["kappa_per_rad"][corner],
            c1=ring["c1_nmm_per_rad"][corner],
            c2=ring["c2_nmm_per_rad_kpa"][corner],
            leak_rate=ring["leak_rate_per_s"][corner],
        )


@pytest.fixture(scope="module")
def plant():
    geom, ring = FingerGeometry(), RingModel()
    return geom, ring, lock(RingState(p_gauge=60.0, alpha=0.0), ring)


def test_regime_free_bend_at_or_below_slack_extent(plant):
    geom, ring, state = plant
    e_slack = tip_extent(geom, ring.alpha_slack)
    for d_c in (0.25 * e_slack, e_slack):
        assert classify_regime(solve_equilibrium(geom, ring, state, 100.0, d_c)) == "free_bend"


def test_regime_saturated_for_very_stiff_object(plant):
    geom, ring, state = plant
    beyond_reach = tip_extent(geom, geom.alpha_max) + 10.0
    assert classify_regime(solve_equilibrium(geom, ring, state, 1e4, beyond_reach)) == "saturated"


def test_regime_bracketed_and_no_resistance(plant):
    geom, ring, state = plant
    assert classify_regime(solve_equilibrium(geom, ring, state, 100.0, 20.0)) == "bracketed"
    assert classify_regime(solve_equilibrium(geom, ring, state, 1e-9, 1.0)) == "no_resistance"


def _run(cmd, out):
    with redirect_stderr(io.StringIO()):
        rc = softgrip.cli.main([*cmd.argv, "--out", str(out)])
    return rc, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", ["fruit_scenario", "contact_search"])
def test_wrappers_leave_results_unchanged(name, tmp_path):
    wl = WORKLOADS[name](ROOT, tmp_path, 5)
    cmds = [wl.command(i) for i in range(2)]
    for cmd in cmds:
        wl.write_config(cmd)
    plain = [_run(cmd, tmp_path / f"plain{i}") for i, cmd in enumerate(cmds)]

    def bindings():
        return [getattr(*_resolve(module, path)) for module, path, _ in SPANS + COUNTS]

    originals = bindings()

    counts = []
    for attempt in range(2):
        tracer = LayerTracer()
        tracer.install()
        try:
            traced = [_run(cmd, tmp_path / f"traced{attempt}{i}") for i, cmd in enumerate(cmds)]
        finally:
            tracer.uninstall()
        assert traced == plain
        assert tracer.spans and all(s[2] >= s[1] for s in tracer.spans)
        metrics = tracer.metrics(len(cmds))
        assert {m for m, _, _ in PER_LAYER} == set(metrics) | {"trace.overhead_ops_per_s"}
        counts.append({k: v for k, v in metrics.items() if k.endswith("_calls") or "_calls." in k})
    assert counts[0] == counts[1]
    assert bindings() == originals
    assert all(wl.check(cmd, rc, files).ok for cmd, (rc, files) in zip(cmds, plain))


def test_checks_reject_wrong_outputs(tmp_path):
    wl = ContactSearch(ROOT, tmp_path, 2)
    cmd = wl.command(0)
    wl.write_config(cmd)
    rc, files = _run(cmd, tmp_path / "out")
    assert wl.check(cmd, rc, files).ok
    assert not wl.check(cmd, 3, files).ok
    doc = json.loads(files["probe_obj.json"])
    doc["contact_opening"] += 2.5
    assert not wl.check(cmd, rc, dict(files, **{"probe_obj.json": json.dumps(doc).encode()})).ok
    assert not wl.check(cmd, rc, {k: v for k, v in files.items() if k != "run_meta.json"}).ok


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [tuple(m) for m in PER_LAYER]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {k: unit for k, (unit, _) in QUALITY_METRICS.items()}.items() <= e2e.items()
    assert e2e["setup_s"] == "s" and max(m["bound"] for m in bench["end_to_end"]) == bench["end_to_end"][0]["bound"]
