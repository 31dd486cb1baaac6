import math

import numpy as np
import pytest

from softgrip import pneumatics
from softgrip.errors import DomainError, StateError
from softgrip.pneumatics import (
    MAX_DRAW,
    MIN_LOOK_BLOCK,
    SUM_DRAW_MIN_STEPS,
    PressureSensor,
    RingModel,
    RingState,
    SensorModel,
    joint_torque,
    leak_path,
    lock,
    measurement_sigma,
    pressure_at_angle,
    quantize,
    volume_at_angle,
)


def _locked(model, p0, alpha=0.0):
    return lock(RingState(p_gauge=p0, alpha=alpha), model)


def test_volume_at_rest_is_v0(ring):
    assert volume_at_angle(ring, 0.0) == ring.v0


def test_volume_frozen_value():
    model = RingModel(kappa=0.15)
    assert volume_at_angle(model, math.radians(30.0)) == pytest.approx(
        4607.3009183012755, abs=1e-9
    )


def test_volume_rigid_cavity():
    model = RingModel(kappa=0.0)
    for alpha in (0.0, 0.5, 1.0):
        assert volume_at_angle(model, alpha) == model.v0


def test_volume_strictly_decreasing(ring):
    grid = np.linspace(0.0, math.radians(80.0), 161)
    vols = [volume_at_angle(ring, float(a)) for a in grid]
    assert all(b < a for a, b in zip(vols, vols[1:]))


def test_lock_traps_gas_quantity(ring):
    state = _locked(ring, 60.0)
    assert state.nv_const == pytest.approx(806625.0)
    assert state.locked


def test_double_lock_rejected(ring):
    state = _locked(ring, 60.0)
    with pytest.raises(StateError):
        lock(state, ring)


def test_pressure_at_lock_angle_unchanged(ring):
    for p0 in (0.0, 20.0, 60.0, 150.0):
        state = _locked(ring, p0)
        assert pressure_at_angle(state, ring, 0.0) == pytest.approx(p0, abs=1e-12)


def test_pressure_frozen_value():
    model = RingModel(kappa=0.15)
    state = _locked(model, 60.0)
    dp = pressure_at_angle(state, model, math.radians(20.0)) - 60.0
    assert dp == pytest.approx(8.913676244087965, abs=1e-9)


def test_pressure_matches_ode_oracle(ring):
    # integrate dp/dalpha = (p + p_atm) * kappa / (1 - kappa*alpha) with RK4
    # and compare against the closed-form trapped-gas law
    p0, alpha_end, n = 60.0, math.radians(20.0), 20000
    p, al, h = p0, 0.0, alpha_end / 20000

    def f(a, p):
        return (p + ring.p_atm) * ring.kappa / (1.0 - ring.kappa * a)

    for _ in range(n):
        k1 = f(al, p)
        k2 = f(al + h / 2, p + h * k1 / 2)
        k3 = f(al + h / 2, p + h * k2 / 2)
        k4 = f(al + h, p + h * k3)
        p += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        al += h
    state = _locked(ring, p0)
    assert pressure_at_angle(state, ring, alpha_end) == pytest.approx(p, abs=1e-8)


def test_gas_law_invariant_along_sweep(ring):
    state = _locked(ring, 40.0)
    for alpha in np.linspace(0.0, math.radians(80.0), 33):
        p = pressure_at_angle(state, ring, float(alpha))
        assert (p + ring.p_atm) * volume_at_angle(ring, float(alpha)) == pytest.approx(
            state.nv_const, rel=1e-12
        )


def test_pressure_rigid_cavity_constant():
    model = RingModel(kappa=0.0)
    state = _locked(model, 60.0)
    for alpha in (0.0, 0.4, 1.2):
        assert pressure_at_angle(state, model, alpha) == pytest.approx(60.0)


def test_pressure_rise_strictly_increasing(ring):
    state = _locked(ring, 60.0)
    grid = np.linspace(0.0, math.radians(80.0), 81)
    ps = [pressure_at_angle(state, ring, float(a)) for a in grid]
    assert all(b > a for a, b in zip(ps, ps[1:]))


def test_pressure_requires_locked_ring(ring):
    with pytest.raises(StateError):
        pressure_at_angle(RingState(p_gauge=60.0), ring, 0.1)


def test_pressure_rise_nearly_linear_in_angle(ring):
    # fit dp vs alpha over [0, 60 deg]; R^2 must stay high for the estimator
    state = _locked(ring, 60.0)
    alphas = np.radians(np.arange(0.0, 61.0))
    dps = np.array([pressure_at_angle(state, ring, a) - 60.0 for a in alphas])
    coef = np.polyfit(alphas, dps, 1)
    resid = dps - np.polyval(coef, alphas)
    r2 = 1.0 - np.sum(resid**2) / np.sum((dps - dps.mean()) ** 2)
    assert r2 >= 0.99


def test_torque_dead_zone(ring):
    for p in (5.0, 60.0, 150.0):
        for a_deg in (0.0, 10.0, 20.0):
            assert joint_torque(ring, math.radians(a_deg), p) == 0.0


def test_torque_increases_with_angle_and_pressure(ring):
    t1 = joint_torque(ring, math.radians(30.0), 60.0)
    t2 = joint_torque(ring, math.radians(40.0), 60.0)
    t3 = joint_torque(ring, math.radians(30.0), 80.0)
    assert 0.0 < t1 < t2
    assert t1 < t3


def test_torque_closed_form(ring):
    alpha = math.radians(45.0)
    expect = (ring.c1 + ring.c2 * 70.0) * (alpha - ring.alpha_slack)
    assert joint_torque(ring, alpha, 70.0) == pytest.approx(expect, rel=1e-12)


def test_leak_reduces_gas_quantity(ring):
    model = RingModel(leak_rate=1e-2)
    state = _locked(model, 60.0)
    leaked = leak_path(state, model, np.zeros(2))
    assert leaked.nv_const[0] == pytest.approx(0.99 * state.nv_const, rel=1e-12)
    assert leaked.nv_const[1] == pytest.approx(0.99**2 * state.nv_const, rel=1e-12)
    assert leaked.alpha.shape == (2,)


def test_leak_noop_cases(ring):
    path = np.radians([0.0, 30.0, 60.0])
    model = RingModel(leak_rate=0.0)
    state = _locked(model, 60.0)
    assert np.all(leak_path(state, model, path).nv_const == state.nv_const)
    with pytest.raises(StateError):
        leak_path(RingState(p_gauge=60.0), ring, path)


def test_leak_floors_at_atmospheric(ring):
    model = RingModel(leak_rate=0.5e6)
    state = _locked(model, 60.0)
    path = np.radians([0.0, 40.0])
    leaked = leak_path(state, model, path)
    assert leaked.nv_const[0] == pytest.approx(model.p_atm * model.v0)
    assert leaked.nv_const[1] == pytest.approx(model.p_atm * volume_at_angle(model, path[1]))
    assert np.all(pressure_at_angle(leaked, model, path) == 0.0)


def test_leak_lowers_pressure_at_same_angle(ring):
    model = RingModel(leak_rate=2e-2)
    state = _locked(model, 60.0)
    alpha = math.radians(40.0)
    before = pressure_at_angle(state, model, alpha)
    after = pressure_at_angle(leak_path(state, model, np.full(1, alpha)), model, alpha)
    assert after[0] < before


def test_quantize_round_half_up():
    assert quantize(np.array([1.26, 1.24, 1.25, -0.3]), 0.5).tolist() == [1.5, 1.0, 1.5, -0.5]
    assert quantize(np.array([3.1415]), 0.0).tolist() == [3.1415]


def test_noiseless_sensor_reads_exactly(quiet_sensor):
    stream = PressureSensor(quiet_sensor, seed=5)
    assert stream.read_avg(61.37, 1) == 61.37
    assert stream.read_avg(61.37, 8) == 61.37


def test_quantization_only_sensor():
    model = SensorModel(noise_frac=0.0, quant_step=0.5)
    stream = PressureSensor(model)
    assert stream.read_avg(1.26, 1) == pytest.approx(1.5)
    assert stream.read_avg(1.26, 4) == pytest.approx(1.5)


def test_sensor_stream_deterministic(sensor):
    reads1 = [PressureSensor(sensor, seed=42).read_avg(60.0, 1) for _ in range(1)]
    s1 = PressureSensor(sensor, seed=42)
    s2 = PressureSensor(sensor, seed=42)
    seq1 = [s1.read_avg(60.0, 1) for _ in range(20)] + [s1.read_avg(60.0, 16)]
    seq2 = [s2.read_avg(60.0, 1) for _ in range(20)] + [s2.read_avg(60.0, 16)]
    assert seq1 == seq2
    assert reads1[0] == seq1[0]


def test_sensor_noise_statistics(sensor):
    stream = PressureSensor(sensor, seed=7)
    reads = np.array([stream.read_avg(60.0, 1) for _ in range(4000)])
    assert abs(reads.mean() - 60.0) < 5 * sensor.sigma / math.sqrt(4000) + sensor.quant_step
    assert reads.std() == pytest.approx(sensor.sigma, rel=0.1)


def test_settle_averaging_shrinks_scatter(sensor):
    stream = PressureSensor(sensor, seed=11)
    avgs = np.array([stream.read_avg(60.0, 256) for _ in range(100)])
    assert avgs.std() < 0.25 * sensor.sigma


def test_measurement_sigma_formula(sensor):
    per_read = math.sqrt(sensor.sigma**2 + sensor.quant_step**2 / 12.0)
    assert measurement_sigma(sensor, 512) == pytest.approx(per_read / math.sqrt(512))
    assert measurement_sigma(sensor, 1) == pytest.approx(per_read)


def test_model_validation():
    with pytest.raises(DomainError):
        RingModel(v0=0.0)
    with pytest.raises(DomainError):
        RingModel(kappa=0.8)  # cavity collapses before full bending
    with pytest.raises(DomainError):
        RingModel(leak_rate=-1.0)
    for p_atm in (0.0, -1.0):
        with pytest.raises(DomainError, match="p_atm"):
            RingModel(p_atm=p_atm)
    with pytest.raises(DomainError):
        SensorModel(full_scale=0.0)
    # the squared reading noise and the full scale in ADC steps must be finite
    for params in ({"full_scale": 1e160}, {"noise_frac": 1e300}, {"quant_step": 1e160}, {"quant_step": 1e-308}):
        with pytest.raises(DomainError, match="past the float range"):
            SensorModel(**params)
    SensorModel(quant_step=1e-300)  # 7e302 steps over the full scale: still in range
    with pytest.raises(DomainError):
        RingState(p_gauge=-1.0)
    with pytest.raises(DomainError):
        volume_at_angle(RingModel(), -0.1)
    with pytest.raises(DomainError):
        joint_torque(RingModel(), 0.5, -2.0)


def _reference_counts(model, p_true, m, size, seed):
    """Block sums of m readings drawn one by one, in quantization steps."""
    rng, q = np.random.default_rng(seed), model.quant_step
    counts = np.empty(size, dtype=np.int64)
    rows = max(1, 4096 // m)
    for i in range(0, size, rows):
        z = rng.standard_normal((min(rows, size - i), m))
        counts[i : i + len(z)] = np.floor(p_true / q + 0.5 + model.sigma / q * z).sum(axis=1)
    return counts


def _read_counts(model, p_true, m, size, seed):
    """Block sums read_avg drew for size reads of m readings, in quantization steps."""
    stream = PressureSensor(model, seed=seed)
    reads = np.array([stream.read_avg(p_true, m) for _ in range(size)])
    counts = np.rint(reads * m / model.quant_step)
    assert np.all(np.abs(counts - reads * m / model.quant_step) < 1e-6)
    return counts.astype(np.int64)


def _chi_square_passes(a, b, bins=20):
    """Two-sample chi-square of equal-size integer samples at the 0.1% level.

    Bins are cut between integers at the pooled quantiles; the critical value
    is the Wilson-Hilferty approximation of the chi-square quantile.
    """
    cuts = np.unique(np.quantile(np.concatenate([a, b]), np.linspace(0.0, 1.0, bins + 1))[1:-1].round())
    hist_a = np.bincount(np.searchsorted(cuts - 0.5, a), minlength=cuts.size + 1)
    hist_b = np.bincount(np.searchsorted(cuts - 0.5, b), minlength=cuts.size + 1)
    used = hist_a + hist_b > 0
    stat = float(np.sum((hist_a - hist_b)[used] ** 2 / (hist_a + hist_b)[used]))
    dof = int(used.sum()) - 1
    assert dof >= 1
    critical = dof * (1.0 - 2.0 / (9 * dof) + 3.0902 * math.sqrt(2.0 / (9 * dof))) ** 3
    return stat < critical


# b = sigma / quant_step: 4.0 exactly (dyadic values) at the guard, and the default sensor's
AT_GUARD = SensorModel(full_scale=8.0, noise_frac=0.25, quant_step=0.5)
CASES = [(model, m, frac) for model in (AT_GUARD, SensorModel()) for m in (1, 2, 8, 512) for frac in (0.0, 0.37)]


@pytest.mark.parametrize(
    "model, m, frac", CASES, ids=[f"b{mod.sigma / mod.quant_step:.2f}-m{m}-frac{f}" for mod, m, f in CASES]
)
def test_block_sum_matches_per_reading_draws(model, m, frac):
    # the block sum drawn from one normal and m - 1 uniforms has the law of m
    # quantized readings drawn one by one, on and off the half-up tie point
    assert model.sigma / model.quant_step >= SUM_DRAW_MIN_STEPS
    p_true, size = (88.0 + frac) * model.quant_step, 20_000
    drawn = _read_counts(model, p_true, m, size, seed=m)
    assert _chi_square_passes(drawn, _reference_counts(model, p_true, m, size, seed=100 + m))


@pytest.mark.parametrize("m", (2, 8))
@pytest.mark.parametrize("frac", (0.0, 0.37))
def test_block_sum_guard_is_needed(monkeypatch, m, frac):
    # at b = 0.3 the one-normal identity is wrong, and the same test sees it;
    # read_avg itself draws such readings one by one and passes
    model = SensorModel(full_scale=1.0, noise_frac=0.15, quant_step=0.5)
    p_true, size = (88.0 + frac) * model.quant_step, 20_000
    reference = _reference_counts(model, p_true, m, size, seed=100 + m)
    assert _chi_square_passes(_read_counts(model, p_true, m, size, seed=m), reference)
    monkeypatch.setattr(pneumatics, "SUM_DRAW_MIN_STEPS", 0.0)
    assert not _chi_square_passes(_read_counts(model, p_true, m, size, seed=m), reference)


def _expected_draws(model, rng, n):
    """Draw from rng what read_avg draws for a read of n readings: one block."""
    if model.sigma == 0:
        return
    if model.quant_step > 0 and model.sigma < SUM_DRAW_MIN_STEPS * model.quant_step:
        rng.standard_normal(n)
    else:
        rng.standard_normal()
        if model.quant_step > 0:
            rng.random(n - 1)


def test_read_avg_draws_one_path_per_sensor():
    # each sensor draws what its path needs for its one block: one normal and
    # n - 1 uniforms at b >= 4, n normals below, one normal unquantized,
    # nothing noiseless
    rng = np.random.default_rng(8)
    models = [SensorModel(), SensorModel(noise_frac=0.0), SensorModel(quant_step=0.0), AT_GUARD]
    for _ in range(40):
        models.append(
            SensorModel(noise_frac=float(rng.uniform(0.0, 0.05)), quant_step=float(rng.choice([0.0, 0.68, 5.0])))
        )
    for i, model in enumerate(models):
        for n in (1, 512, 4096):
            stream, ref = PressureSensor(model, seed=i), np.random.default_rng(i)
            got = stream.read_avg(float(rng.uniform(0.0, 150.0)), n)
            _expected_draws(model, ref, n)
            assert type(got) is float
            assert stream._rng.bit_generator.state == ref.bit_generator.state


def test_unquantized_read_is_one_normal_per_block():
    # quant_step 0: the block sum is m * p + sigma * sqrt(m) * z, so the mean
    # has mean p and sd sigma / sqrt(m); a plain read is one block of n
    model = SensorModel(quant_step=0.0)
    for n in (1, 512, 4 * MIN_LOOK_BLOCK):
        got = PressureSensor(model, seed=n).read_avg(60.0, n)
        ref = np.random.default_rng(n)
        assert got == (n * 60.0 + math.sqrt(n) * model.sigma * ref.standard_normal()) / n
    stream = PressureSensor(model, seed=3)
    reads = np.array([stream.read_avg(60.0, 64) for _ in range(4000)])
    assert abs(reads.mean() - 60.0) < 5 * model.sigma / math.sqrt(64 * 4000)
    assert reads.std() == pytest.approx(model.sigma / 8, rel=0.05)


def test_noise_free_read_is_the_quantized_pressure():
    model = SensorModel(noise_frac=0.0, quant_step=0.68)
    stream = PressureSensor(model, seed=4)
    state = stream._rng.bit_generator.state
    for p_true in (0.0, 0.34, 59.99, 60.0, 61.37, 149.5):
        expect = float(quantize(np.array([p_true]), model.quant_step)[0])
        for n in (1, 512, 2048, 4096):
            assert stream.read_avg(p_true, n) == expect
    assert stream._rng.bit_generator.state == state


def test_reruns_from_one_seed_are_identical():
    # fast path, per-reading fallback (b ~ 1.2) and unquantized, short and long
    calls = [(60.0, 1), (60.0, 512), (45.0, 4096), (70.0, 2048)]
    for model in (SensorModel(), SensorModel(quant_step=5.0), SensorModel(quant_step=0.0)):
        runs = []
        for _ in range(2):
            stream = PressureSensor(model, seed=12)
            runs.append([stream.read_avg(*call) for call in calls * 3])
        assert runs[0] == runs[1]


def test_quantize_array_in_place():
    values = np.array([1.26, 1.24, 1.25, -0.3])
    out = quantize(values, 0.5)
    assert out is values
    assert out.tolist() == [1.5, 1.0, 1.5, -0.5]


def _drawn(model, seed, p_true, n, below):
    """How many readings a one-read bounded batch summed, told from its stream's state."""
    stream = PressureSensor(model, seed=seed)
    stream.read_avg_batch(p_true, 1, n, below)
    ref, done = np.random.default_rng(seed), 0
    for end in (n // 4, n // 2, 3 * n // 4, n):
        ref.standard_normal()  # each block's sum: one normal and m - 1 uniforms
        ref.random(end - done - 1)
        done = end
        if ref.bit_generator.state == stream._rng.bit_generator.state:
            return end
    raise AssertionError("the read drew a length off the look schedule")


def test_unbounded_read_is_unchanged():
    # these floats pin the block-sum draw: a plain read is one block at any
    # length, and an unbounded batch of one read of n >= 4 * MIN_LOOK_BLOCK
    # draws the four blocks of the look schedule without looking
    assert PressureSensor(SensorModel(), seed=3).read_avg(60.0, 512) == 60.52796875000001
    assert PressureSensor(SensorModel(), seed=3).read_avg_batch(60.0, 1, 512) == [60.52796875000001]
    assert PressureSensor(SensorModel(), seed=4).read_avg_batch(0.0, 1, 2048) == [-0.20154296875000002]
    assert PressureSensor(SensorModel(), seed=4).read_avg_batch(0.0, 1, 2048, math.inf) == [-0.20154296875000002]
    n, stream, ref = 2048, PressureSensor(SensorModel(), seed=4), np.random.default_rng(4)
    assert stream.read_avg(0.0, n) == -0.08765625
    ref.standard_normal()  # one block: one normal, then n - 1 uniforms
    ref.random(n - 1)
    assert stream._rng.bit_generator.state == ref.bit_generator.state


def test_bounded_read_stops_early_only_far_under_the_bound(sensor):
    # a bound k settle sigmas above the true pressure: at 6 sigma most reads run
    # to full length, at 12 sigma none does (half stop at the first look, after
    # n/4 readings, whose own sigma is twice the full read's)
    n = 4 * MIN_LOOK_BLOCK
    sigma = measurement_sigma(sensor, n)
    lengths = {
        k: [_drawn(sensor, seed, 60.0, n, 60.0 + k * sigma) for seed in range(2000)] for k in (6, 12, 24)
    }
    full = {k: drawn.count(n) for k, drawn in lengths.items()}
    first_look = {k: drawn.count(n // 4) for k, drawn in lengths.items()}
    assert full == {6: 1628, 12: 0, 24: 0}
    assert first_look == {6: 1, 12: 970, 24: 2000}


def test_bounded_read_at_its_bound_never_stops_early(sensor):
    # true pressure at the bound: a look stops with probability Phi(-6) ~ 1e-9, so
    # over 10^4 one-read batches none does, and each equals the unbounded one
    # bit for bit
    n = 4 * MIN_LOOK_BLOCK
    bounded, full = PressureSensor(sensor, seed=21), PressureSensor(sensor, seed=21)
    for i in range(10_000):
        p_true = 40.0 + 0.01 * i
        assert bounded.read_avg_batch(p_true, 1, n, p_true) == full.read_avg_batch(p_true, 1, n)
    assert bounded._rng.bit_generator.state == full._rng.bit_generator.state


def test_short_bounded_read_is_the_unbounded_read(sensor):
    # below four blocks of MIN_LOOK_BLOCK a look would cost more than it saves,
    # so a bounded one-read batch is the plain read
    for n in (1, 5, 512, 4 * MIN_LOOK_BLOCK - 1):
        bounded, full = PressureSensor(sensor, seed=n), PressureSensor(sensor, seed=n)
        assert bounded.read_avg_batch(60.0, 1, n, 1e9) == [full.read_avg(60.0, n)]
        assert bounded._rng.bit_generator.state == full._rng.bit_generator.state
    # quantization only: the mean is the quantized value at any length
    quantized = PressureSensor(SensorModel(noise_frac=0.0, quant_step=0.5))
    assert quantized.read_avg_batch(1.26, 1, 4 * MIN_LOOK_BLOCK, 10.0) == [1.5]


class RecordingRng:
    """A Generator that records the size of every draw taken from it."""

    def __init__(self, rng):
        self.rng, self.normals, self.uniforms = rng, [], []

    def standard_normal(self, size=None):
        self.normals.append(size)
        return self.rng.standard_normal(size)

    def random(self, size):
        self.uniforms.append(size)
        return self.rng.random(size)


# the four sensor paths: block sums (b >= 4), readings one by one (b ~ 1.2),
# one normal a block unquantized, and no draw noise-free
BLOCK_SUM, PER_READING = SensorModel(), SensorModel(quant_step=5.0)
UNQUANTIZED, NOISE_FREE = SensorModel(quant_step=0.0), SensorModel(noise_frac=0.0)
NOISY, NOISY_IDS = (BLOCK_SUM, PER_READING, UNQUANTIZED), ("block-sum", "per-reading", "unquantized")


def _keys(model, means, n):
    """Integer keys of settle means for the chi-square test: the count of grid
    steps times 3n / end, an integer for each block end of a read of n; a
    twentieth of the full read's sigma unquantized."""
    if model.quant_step > 0:
        keys = np.asarray(means) * (3 * n) / model.quant_step
        assert np.all(np.abs(keys - np.rint(keys)) < 1e-6)
        return np.rint(keys).astype(np.int64)
    return np.floor(np.asarray(means) / (measurement_sigma(model, n) / 20)).astype(np.int64)


def _blocks_per_read(normals, model, n, k):
    """Blocks each of k batched reads drew, from the sizes of its normal draws
    (one draw a block for all reads still drawing, k of them in one chunk)."""
    per_read = n // 4 if n >= 4 * MIN_LOOK_BLOCK else n
    live = [size // per_read if model is PER_READING else size for size in normals]
    assert live[0] == k and all(a >= b for a, b in zip(live, live[1:]))
    return np.repeat(np.arange(1, len(live) + 1), np.diff([*live, 0]) * -1)


@pytest.mark.parametrize("bounded", (False, True), ids=("unbounded", "bounded"))
@pytest.mark.parametrize("n", (512, 4 * MIN_LOOK_BLOCK))
@pytest.mark.parametrize("model", NOISY, ids=NOISY_IDS)
def test_batched_reads_have_the_law_of_scalar_reads(model, n, bounded):
    # unbounded, each mean has the law of a plain read; bounded, the law of a
    # one-read batch, with the same number of blocks drawn before a look stops
    # the read. The bound sits 9 full-read sigmas above the true pressure, so
    # the bounded long reads stop at each of their looks
    p_true, size = 60.0, 6000
    below = p_true + 9 * measurement_sigma(model, n) if bounded else math.inf
    stream = PressureSensor(model, seed=1)
    stream._rng = RecordingRng(stream._rng)
    scalar, scalar_blocks = [], []
    for _ in range(size):
        before = len(stream._rng.normals)
        scalar += stream.read_avg_batch(p_true, 1, n, below) if bounded else [stream.read_avg(p_true, n)]
        scalar_blocks.append(len(stream._rng.normals) - before)
    rows = MAX_DRAW // (n // 4 + 1 if n >= 4 * MIN_LOOK_BLOCK else n + 1)
    batch, batch_blocks = [], []
    batched = PressureSensor(model, seed=2)
    rng = batched._rng
    for _ in range(size // rows):  # one chunk a batch, so its normal draws tell the blocks drawn
        batched._rng = RecordingRng(rng)
        batch += batched.read_avg_batch(p_true, rows, n, below)
        batch_blocks += _blocks_per_read(batched._rng.normals, model, n, rows).tolist()
    scalar, scalar_blocks = scalar[: len(batch)], scalar_blocks[: len(batch)]
    assert _chi_square_passes(_keys(model, batch, n), _keys(model, scalar, n))
    if bounded and n >= 4 * MIN_LOOK_BLOCK:
        assert set(batch_blocks) == set(scalar_blocks) == {1, 2, 3, 4}
        assert _chi_square_passes(np.array(batch_blocks), np.array(scalar_blocks))
    else:  # no look: every batched read draws all its blocks, and a plain read is one
        assert set(batch_blocks) == {1 if n < 4 * MIN_LOOK_BLOCK else 4}
        assert set(scalar_blocks) == {1}


def test_noise_free_batch_is_the_quantized_pressure():
    for model in (NOISE_FREE, SensorModel(noise_frac=0.0, quant_step=0.0)):
        stream = PressureSensor(model, seed=4)
        state = stream._rng.bit_generator.state
        for n, below in ((1, math.inf), (512, math.inf), (4096, 60.0)):
            assert stream.read_avg_batch(61.37, 3, n, below) == [stream.read_avg(61.37, n)] * 3
        assert stream._rng.bit_generator.state == state


@pytest.mark.parametrize("model", NOISY, ids=NOISY_IDS)
def test_batch_spanning_chunks_keeps_draws_bounded(model):
    # 300 reads of 4096 take five chunks of at most 64 reads; no draw holds more
    # than MAX_DRAW values, and the means keep the law of one-read batches
    n, k = 4096, 300
    below = 60.0 + 9 * measurement_sigma(model, n)
    stream = PressureSensor(model, seed=6)
    stream._rng = RecordingRng(stream._rng)
    batch = []
    for _ in range(20):
        batch += stream.read_avg_batch(60.0, k, n, below)
    sizes = [size for size in stream._rng.normals + stream._rng.uniforms if size is not None]
    assert max(sizes) <= MAX_DRAW
    assert len(stream._rng.normals) >= 20 * 5  # each batch drew its first block in five chunks
    scalar = PressureSensor(model, seed=7)
    reference = [scalar.read_avg_batch(60.0, 1, n, below)[0] for _ in range(len(batch))]
    assert _chi_square_passes(_keys(model, batch, n), _keys(model, reference, n))


@pytest.mark.parametrize("model", (BLOCK_SUM, PER_READING), ids=("block-sum", "per-reading"))
def test_reads_longer_than_a_draw_are_drawn_in_pieces(monkeypatch, model):
    # with a 100-value cap a 512-reading block is drawn in six pieces, in a
    # batch and in a scalar read, and keeps the law of readings drawn one by one
    monkeypatch.setattr(pneumatics, "MAX_DRAW", 100)
    m, size = 512, 4000
    p_true = 88.37 * model.quant_step
    for batched in (False, True):
        stream = PressureSensor(model, seed=9)
        stream._rng = RecordingRng(stream._rng)
        if batched:
            means = stream.read_avg_batch(p_true, size, m)
        else:
            means = [stream.read_avg(p_true, m) for _ in range(size)]
        sizes = [s for s in stream._rng.normals + stream._rng.uniforms if s is not None]
        assert max(sizes) <= 100
        counts = np.rint(np.array(means) * m / model.quant_step).astype(np.int64)
        assert _chi_square_passes(counts, _reference_counts(model, p_true, m, size, seed=10))


def test_batched_reruns_from_one_seed_are_identical():
    calls = [(60.0, 2, 512, math.inf), (45.0, 150, 4096, 47.0), (45.0, 70, 2048, math.inf), (70.0, 3, 4096, 75.0)]
    for model in (BLOCK_SUM, PER_READING, UNQUANTIZED):
        runs = []
        for _ in range(2):
            stream = PressureSensor(model, seed=12)
            runs.append([stream.read_avg_batch(*call) for call in calls] + [stream.read_avg(60.0, 4096)])
        assert runs[0] == runs[1]
        assert all(type(mean) is float and len(run) == call[1] for run, call in zip(runs[0], calls) for mean in run)
