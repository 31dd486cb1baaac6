import math

import numpy as np
import pytest

from softgrip import pneumatics
from softgrip.errors import DomainError, StateError
from softgrip.pneumatics import (
    LEVELS,
    REST_MEAN,
    REST_VAR,
    SUM_DRAW_MIN_STEPS,
    TAIL_SIGMAS,
    PressureSensor,
    RingModel,
    RingState,
    SensorModel,
    joint_torque,
    leak_path,
    lock,
    measurement_sigma,
    pressure_at_angle,
    _block_sums,
    _cell_law,
    _uniform_sum,
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
    # a noise-free read is its pressure rounded half-up onto the ADC grid
    stream = PressureSensor(SensorModel(noise_frac=0.0, quant_step=0.5))
    assert [stream.read_avg(p, 1) for p in (1.26, 1.24, 1.25, -0.3)] == [1.5, 1.0, 1.5, -0.5]
    assert PressureSensor(SensorModel(noise_frac=0.0, quant_step=0.0)).read_avg(3.1415, 1) == 3.1415


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


def _block_sum_law(model, p_true, m):
    """(lowest value, probabilities) of the sum of m quantized readings, in
    quantization steps, each reading floor(a + b * z) for a = p_true /
    quant_step + 1/2, b = sigma / quant_step and z standard normal.

    A reading is floor(a) + j, with j in the cell [j - f, j + 1 - f) of b * z,
    f = a - floor(a); the cells, 12 sigmas out, take the normal mass of each
    from _normal_mass, and the block sum's law is their m-fold convolution.
    """
    a, b = p_true / model.quant_step + 0.5, model.sigma / model.quant_step
    base, w = math.floor(a), math.ceil(12.0 * b) + 1
    f = a - base
    cells = np.array([_normal_mass((j - f) / b, (j + 1 - f) / b) for j in range(-w, w + 1)])
    size = 2 * m * w + 1  # the support of the sum of m cells
    n = 1 << (size - 1).bit_length()  # a circular convolution this long does not wrap
    law = np.fft.irfft(np.fft.rfft(cells / cells.sum(), n) ** m, n)[:size].clip(0.0)
    return m * (base - w), law / law.sum()


def _law_chi_square_passes(counts, lowest, law, bins=20):
    """One-sample chi-square of integer counts against the law of the values
    lowest, lowest + 1, ... at the 0.1% level.

    Bins end at the law's quantiles, each bin and the rest past it expecting
    at least 5 counts; the critical value is the Wilson-Hilferty
    approximation of the chi-square quantile.
    """
    cdf, ends, least = np.cumsum(law), [], 5.0 / counts.size
    for end in np.unique(np.searchsorted(cdf, np.arange(1, bins) / bins)).tolist():
        if cdf[end] - (cdf[ends[-1]] if ends else 0.0) >= least and 1.0 - cdf[end] >= least:
            ends.append(end)  # a bin ends at value lowest + end
    observed = np.bincount(np.searchsorted(ends, counts - lowest), minlength=len(ends) + 1)
    expected = counts.size * np.diff(np.concatenate([[0.0], cdf[ends], [1.0]]))
    stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = len(ends)
    assert dof >= 1
    critical = dof * (1.0 - 2.0 / (9 * dof) + 3.0902 * math.sqrt(2.0 / (9 * dof))) ** 3
    return stat < critical


# b = sigma / quant_step: 4.0 exactly (dyadic values) at the guard, and the default sensor's;
# below the guard, coarse grids whose blocks are drawn from the reading law's cells
AT_GUARD = SensorModel(full_scale=8.0, noise_frac=0.25, quant_step=0.5)
CASES = [(model, m, frac) for model in (AT_GUARD, SensorModel()) for m in (1, 2, 8, 512, 2048) for frac in (0.0, 0.37)]
CASES += [
    (SensorModel(full_scale=1.0, noise_frac=b / 2.0, quant_step=0.5), m, frac)
    for b in (0.3, 1.0, 2.5, 3.9) for m in (1, 2, 7, 512, 6144) for frac in (0.0, 0.37)
]


@pytest.mark.parametrize(
    "model, m, frac", CASES, ids=[f"b{mod.sigma / mod.quant_step:.2f}-m{m}-frac{f}" for mod, m, f in CASES]
)
def test_block_sum_matches_per_reading_draws(model, m, frac):
    # the block sum has the law of m quantized readings drawn one by one, on
    # and off the half-up tie point: drawn from one normal and m - 1 uniforms
    # at b >= 4, and from the reading law's cells below
    p_true, size = (88.0 + frac) * model.quant_step, 20_000
    drawn = _read_counts(model, p_true, m, size, seed=m)
    assert _law_chi_square_passes(drawn, *_block_sum_law(model, p_true, m))


@pytest.mark.parametrize("m", (2, 8))
@pytest.mark.parametrize("frac", (0.0, 0.37))
def test_block_sum_guard_is_needed(monkeypatch, m, frac):
    # at b = 0.3 the one-normal identity is wrong, and the same test sees it;
    # read_avg itself draws such a block from the reading law's cells and passes
    model = SensorModel(full_scale=1.0, noise_frac=0.15, quant_step=0.5)
    p_true, size = (88.0 + frac) * model.quant_step, 20_000
    law = _block_sum_law(model, p_true, m)
    assert _law_chi_square_passes(_read_counts(model, p_true, m, size, seed=m), *law)
    monkeypatch.setattr(pneumatics, "SUM_DRAW_MIN_STEPS", 0.0)
    assert not _law_chi_square_passes(_read_counts(model, p_true, m, size, seed=m), *law)


def _normal_mass(lo, hi, intervals=4000):
    """The standard normal's mass on [lo, hi] by Simpson's rule on its density,
    which keeps the relative precision of a far tail's small cells."""
    x = np.linspace(lo, hi, intervals + 1)
    w = np.ones(intervals + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float(np.dot(w, np.exp(-x * x / 2.0))) * (hi - lo) / (3.0 * intervals) / math.sqrt(2.0 * math.pi)


def test_cell_law_is_the_normal_mass_of_each_cell():
    # each cell j holds the normal mass of f + b * z in [j, j + 1), far cells
    # on either side included; the cells leave out at most the two tails past
    # TAIL_SIGMAS sigmas
    tail = math.erfc(TAIL_SIGMAS / math.sqrt(2.0))
    for b in (0.3, 1.0, 2.5, 3.999):
        for f in (0.0, 0.37, 0.5, 0.999):
            cells, p = _cell_law(f, b)
            w = math.ceil(TAIL_SIGMAS * b)
            assert cells.tolist() == list(range(-w, w + 1))
            assert 1.0 - tail - 1e-14 <= p.sum() <= 1.0 + 1e-14
            expect = [_normal_mass((j - f) / b, (j + 1 - f) / b) for j in cells.tolist()]
            assert p.tolist() == pytest.approx(expect, rel=1e-9, abs=1e-300)
    assert _cell_law(0.25, 1e-9)[1].tolist() == [0.0, 1.0, 0.0]


def _summed_uniforms(rng, n, size):
    """size sums of n values of rng.random, drawn a few rows at a time."""
    rows, sums = max(1, (1 << 16) // n), []
    for i in range(0, size, rows):
        sums.append(rng.random((min(rows, size - i), n)).sum(axis=1))
    return np.concatenate(sums)


@pytest.mark.parametrize("n", (1, 2, 511, 2047, 6143))
def test_level_sum_matches_summed_uniforms(n):
    # LEVELS binary levels drawn as binomials and the rest as a normal of its
    # mean and variance have the law of n uniforms summed, keyed on a 2^-10 grid
    size = 20_000
    rng = np.random.default_rng(n)
    levels = _uniform_sum(rng, n, size) + n * REST_MEAN + math.sqrt(n * REST_VAR) * rng.standard_normal(size)
    direct = _summed_uniforms(np.random.default_rng(100 + n), n, size)
    assert _chi_square_passes(np.floor(levels * 1024).astype(np.int64), np.floor(direct * 1024).astype(np.int64))
    assert type(_uniform_sum(rng, n, None)) is np.float64


class CenteredRng:
    """A stream whose normals are 0 and whose binomials sit at their mean."""

    def standard_normal(self, size=None):
        return 0.0 if size is None else np.zeros(size)

    def binomial(self, n, p, size):
        return np.full(size, n * p)


@pytest.mark.parametrize("m", (1, 3, 4097))
def test_block_sum_is_centered(m):
    # with every draw at its mean the level sum is (m - 1) / 2 less the rest's
    # mean, so the block sum is floor(m * x + 1/2); a rest mean left out would
    # add (m - 1) * 2^-13, half a step at m = 4097
    for x in (0.0, 0.25, 10.7):
        assert _block_sums(CenteredRng(), x, 8.6, True, m) == math.floor(m * x + 0.5)
        assert _block_sums(CenteredRng(), x, 8.6, True, m, 2).tolist() == [math.floor(m * x + 0.5)] * 2


def _expected_draws(model, rng, p_true, n):
    """Draw from rng what read_avg draws for a read of n readings of p_true: one block."""
    if model.sigma == 0:
        return
    if model.quant_step > 0 and model.sigma < SUM_DRAW_MIN_STEPS * model.quant_step:
        a = p_true / model.quant_step + 0.5
        rng.multinomial(n, _cell_law(a - math.floor(a), model.sigma / model.quant_step)[1])
    else:
        rng.standard_normal()
        if model.quant_step > 0:
            rng.binomial(n - 1, 0.5, LEVELS)


def test_read_avg_draws_one_path_per_sensor():
    # each sensor draws what its path needs for its one block: one normal and
    # LEVELS binomials at b >= 4, one multinomial over the reading law's cells
    # below, one normal unquantized, nothing noiseless
    rng = np.random.default_rng(8)
    models = [SensorModel(), SensorModel(noise_frac=0.0), SensorModel(quant_step=0.0), AT_GUARD]
    for _ in range(40):
        models.append(
            SensorModel(noise_frac=float(rng.uniform(0.0, 0.05)), quant_step=float(rng.choice([0.0, 0.68, 5.0])))
        )
    for i, model in enumerate(models):
        for n in (1, 512, 4096):
            stream, ref = PressureSensor(model, seed=i), np.random.default_rng(i)
            p_true = float(rng.uniform(0.0, 150.0))
            got = stream.read_avg(p_true, n)
            _expected_draws(model, ref, p_true, n)
            assert type(got) is float
            assert stream._rng.bit_generator.state == ref.bit_generator.state


def test_unquantized_read_is_one_normal_per_block():
    # quant_step 0: the block sum is m * p + sigma * sqrt(m) * z, so the mean
    # has mean p and sd sigma / sqrt(m); a plain read is one block of n
    model = SensorModel(quant_step=0.0)
    for n in (1, 512, 2048):
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
        expect = math.floor(p_true / model.quant_step + 0.5) * model.quant_step
        for n in (1, 512, 2048, 4096):
            assert stream.read_avg(p_true, n) == expect
    assert stream._rng.bit_generator.state == state


def test_reruns_from_one_seed_are_identical():
    # block sums, a coarse grid's cells (b ~ 1.2) and unquantized, short and long
    calls = [(60.0, 1), (60.0, 512), (45.0, 4096), (70.0, 2048)]
    for model in (SensorModel(), SensorModel(quant_step=5.0), SensorModel(quant_step=0.0)):
        runs = []
        for _ in range(2):
            stream = PressureSensor(model, seed=12)
            runs.append([stream.read_avg(*call) for call in calls * 3])
        assert runs[0] == runs[1]


def test_unbounded_read_is_unchanged():
    # these floats pin the block-sum draw: a read is one block at any length,
    # one normal and LEVELS binomials, and a batch of one read is the plain read
    # bit for bit
    for seed, p_true, n, expect in ((3, 60.0, 512, 60.526640625000006), (4, 0.0, 2048, -0.07869140625000001)):
        assert PressureSensor(SensorModel(), seed=seed).read_avg(p_true, n) == expect
        assert PressureSensor(SensorModel(), seed=seed).read_avg_batch(p_true, 1, n) == [expect]
    n, stream, ref = 2048, PressureSensor(SensorModel(), seed=4), np.random.default_rng(4)
    stream.read_avg(0.0, n)
    ref.standard_normal()
    ref.binomial(n - 1, 0.5, LEVELS)
    assert stream._rng.bit_generator.state == ref.bit_generator.state


class RecordingRng:
    """A Generator that records how many values each draw taken from it returns."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def _record(self, values):
        self.sizes.append(np.size(values))
        return values

    def standard_normal(self, size=None):
        return self._record(self.rng.standard_normal(size))

    def binomial(self, n, p, size):
        return self._record(self.rng.binomial(n, p, size))

    def multinomial(self, n, pvals, size=None):
        return self._record(self.rng.multinomial(n, pvals, size))


# the four sensor paths: block sums (b >= 4), a coarse grid (b ~ 1.2) whose
# block is one multinomial over the per-reading law's cells, one normal a block
# unquantized, and no draw noise-free
BLOCK_SUM, COARSE = SensorModel(), SensorModel(quant_step=5.0)
UNQUANTIZED, NOISE_FREE = SensorModel(quant_step=0.0), SensorModel(noise_frac=0.0)
NOISY, NOISY_IDS = (BLOCK_SUM, COARSE, UNQUANTIZED), ("block-sum", "per-reading", "unquantized")


def _keys(model, means, n):
    """Integer keys of settle means for the chi-square test: the block sum in
    grid steps; a twentieth of the read's sigma unquantized."""
    if model.quant_step > 0:
        keys = np.asarray(means) * n / model.quant_step
        assert np.all(np.abs(keys - np.rint(keys)) < 1e-6)
        return np.rint(keys).astype(np.int64)
    return np.floor(np.asarray(means) / (measurement_sigma(model, n) / 20)).astype(np.int64)


@pytest.mark.parametrize("n", (512, 2048), ids=("512-unbounded", "2048-unbounded"))
@pytest.mark.parametrize("model", NOISY, ids=NOISY_IDS)
def test_batched_reads_have_the_law_of_scalar_reads(model, n):
    # each batched mean has the law of a plain read of the same length; every
    # read is unbounded: it sums all n of its readings, none stops early
    p_true, size = 60.0, 6000
    stream = PressureSensor(model, seed=1)
    scalar = [stream.read_avg(p_true, n) for _ in range(size)]
    batch = PressureSensor(model, seed=2).read_avg_batch(p_true, size, n)
    assert _chi_square_passes(_keys(model, batch, n), _keys(model, scalar, n))


def test_noise_free_batch_is_the_quantized_pressure():
    for model in (NOISE_FREE, SensorModel(noise_frac=0.0, quant_step=0.0)):
        stream = PressureSensor(model, seed=4)
        state = stream._rng.bit_generator.state
        for n in (1, 512, 4096):
            assert stream.read_avg_batch(61.37, 3, n) == [stream.read_avg(61.37, n)] * 3
        assert stream._rng.bit_generator.state == state


@pytest.mark.parametrize("n", (1, 512, 1_000_000))
def test_coarse_read_draws_at_most_its_cells(n):
    # a read at b < 4 is one multinomial, so it draws no more values than the
    # reading law has cells at any length, and a batch of k reads k times that
    b = COARSE.sigma / COARSE.quant_step
    cells = 2 * math.ceil(TAIL_SIGMAS * b) + 1
    stream = PressureSensor(COARSE, seed=n)
    stream._rng = RecordingRng(stream._rng)
    mean = stream.read_avg(61.37, n)
    assert sum(stream._rng.sizes) <= cells
    assert abs(mean - 61.37) < 8 * measurement_sigma(COARSE, n) + COARSE.quant_step
    stream._rng.sizes.clear()
    assert len(stream.read_avg_batch(61.37, 150, n)) == 150
    assert len(stream._rng.sizes) == 1 and stream._rng.sizes[0] <= 150 * cells


def test_coarse_read_past_int64_steps():
    # a b = 2 sensor whose pressure sits past 2^63 ADC steps reads in floats
    model = SensorModel(full_scale=700.0, noise_frac=2e-300 / 700.0, quant_step=1e-300)
    assert model.sigma / model.quant_step < SUM_DRAW_MIN_STEPS
    stream = PressureSensor(model, seed=3)
    for read in [stream.read_avg(60.0, 512), *stream.read_avg_batch(60.0, 3, 512)]:
        assert read == pytest.approx(60.0, rel=1e-12)


def test_batched_reruns_from_one_seed_are_identical():
    calls = [(60.0, 2, 512), (45.0, 150, 4096), (45.0, 70, 2048), (70.0, 3, 4096)]
    for model in (BLOCK_SUM, COARSE, UNQUANTIZED):
        runs = []
        for _ in range(2):
            stream = PressureSensor(model, seed=12)
            runs.append([stream.read_avg_batch(*call) for call in calls] + [stream.read_avg(60.0, 4096)])
        assert runs[0] == runs[1]
        assert all(type(mean) is float and len(run) == call[1] for run, call in zip(runs[0], calls) for mean in run)
