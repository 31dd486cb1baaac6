"""Ground-truth pneumatic plant: ring cavity volume vs bending, isothermal
locked-air pressure, the joint torque surface with its fabric-slack dead zone,
valve leakage, and the quantized noisy pressure sensor.

Pressures are gauge kPa unless named otherwise; volumes mm^3; torques N*mm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, StateError

JOINT_RANGE_DEG = 80.0  # the ring's cavity must not empty over [0, JOINT_RANGE_DEG]


@dataclass(frozen=True)
class RingModel:
    """Parameters of one soft pneumatic ring and its torque surface.

    Volume follows v0 * (1 - kappa * alpha); the trapped-gas pressure then obeys
    the isothermal law (p + p_atm) * V = const while the valve is locked.
    Torque is (c1 + c2 * p) * max(0, alpha - alpha_slack): zero inside the fabric
    dead zone, growing with both bending and pressure beyond it.
    """

    v0: float = 5000.0
    kappa: float = 0.28
    alpha_slack: float = math.radians(20.0)
    c1: float = 30000.0
    c2: float = 600.0
    p_atm: float = 101.325
    leak_rate: float = 5.0e-4

    def __post_init__(self):
        if self.v0 <= 0:
            raise DomainError(f"v0 must be positive, got {self.v0}")
        if not 0.0 <= self.kappa * math.radians(JOINT_RANGE_DEG) < 1.0:
            raise DomainError(f"kappa={self.kappa} empties the cavity within the joint range")
        if not 0.0 <= self.alpha_slack <= math.radians(30.0):
            raise DomainError(f"alpha_slack must be in [0, 30 deg], got {self.alpha_slack} rad")
        if self.c1 < 0 or self.c2 < 0:
            raise DomainError("torque coefficients must be non-negative")
        if self.leak_rate < 0:
            raise DomainError(f"leak_rate must be non-negative, got {self.leak_rate}")
        if self.p_atm <= 0:
            raise DomainError(f"p_atm must be positive, got {self.p_atm}")


@dataclass(frozen=True)
class RingState:
    """Ring state, or states as arrays; nv_const is the conserved (p_abs * V) when locked."""

    p_gauge: float = 0.0
    alpha: float = 0.0
    locked: bool = False
    nv_const: float = 0.0

    def __post_init__(self):
        if _lowest(self.p_gauge) < 0:
            raise DomainError(f"gauge pressure must be non-negative, got {_lowest(self.p_gauge)}")


# Each plant formula below has an unchecked core (_volume, _gas_pressure,
# _torque; geometry has _extent) and a public function that checks its domain
# and then calls the core. The public functions take a float or a numpy array
# for each state argument and give a float for floats. The equilibrium solver
# calls the cores on floats inside the interval where it has proven the checks
# redundant (see contact); everything else goes through the checked functions.


def _lowest(x):
    """Smallest value of a float or an array, for domain checks."""
    return x.min() if isinstance(x, np.ndarray) else x


def _clip_negative(x):
    """max(x, 0) of a float or, elementwise, of an array."""
    return np.maximum(x, 0.0) if isinstance(x, np.ndarray) else max(x, 0.0)


def _volume(model: RingModel, alpha):
    """Ring cavity volume v0 * (1 - kappa * alpha) (mm^3), unchecked."""
    return model.v0 * (1.0 - model.kappa * alpha)


def _gas_pressure(model: RingModel, nv, volume):
    """Gauge pressure (kPa) of the gas quantity nv = p_abs * V trapped in volume,
    unchecked; rounding can take it a hair below zero."""
    return nv / volume - model.p_atm


def _torque(model: RingModel, past, p_gauge):
    """Joint torque (N*mm) at an angle past >= 0 beyond the slack, unchecked."""
    return (model.c1 + model.c2 * p_gauge) * past


def volume_at_angle(model: RingModel, alpha):
    """Ring cavity volume at bending angle alpha (mm^3); strictly decreasing."""
    if _lowest(alpha) < 0:
        raise DomainError(f"alpha must be non-negative, got {_lowest(alpha)}")
    volume = _volume(model, alpha)
    if _lowest(volume) <= 0:
        raise DomainError(f"alpha={alpha} rad collapses the cavity")
    return volume


def lock(state: RingState, model: RingModel) -> RingState:
    """Close the valve, trapping the current amount of air."""
    if state.locked:
        raise StateError("ring is already locked")
    nv = (state.p_gauge + model.p_atm) * volume_at_angle(model, state.alpha)
    return replace(state, locked=True, nv_const=nv)


def pressure_at_angle(state: RingState, model: RingModel, alpha):
    """Gauge pressure of the trapped air at bending angle alpha."""
    if not state.locked:
        raise StateError("pressure_at_angle requires a locked ring")
    return _clip_negative(_gas_pressure(model, state.nv_const, volume_at_angle(model, alpha)))


def joint_torque(model: RingModel, alpha, p_gauge):
    """Joint torque (N*mm) at bending angle alpha and instantaneous gauge pressure.

    Array arguments broadcast against each other.
    """
    if _lowest(alpha) < 0:
        raise DomainError(f"alpha must be non-negative, got {_lowest(alpha)}")
    if _lowest(p_gauge) < 0:
        raise DomainError(f"p_gauge must be non-negative, got {_lowest(p_gauge)}")
    return _torque(model, _clip_negative(alpha - model.alpha_slack), p_gauge)


def leak_path(state: RingState, model: RingModel, alphas: np.ndarray) -> RingState:
    """Locked ring state after a path through the angles alphas (rad), one second a step.

    Each step moves to the next angle and leaks the trapped gas quantity by
    leak_rate, floored at atmospheric pressure at that angle. The result
    holds the path in alpha and the gas quantity after each step in nv_const,
    both arrays, ready for pressure_at_angle.
    """
    if not state.locked:
        raise StateError("leak_path requires a locked ring")
    keep = 1.0 - model.leak_rate
    nv = state.nv_const
    path = []
    for floor in (model.p_atm * volume_at_angle(model, alphas)).tolist():
        nv = max(nv * keep, floor)
        path.append(nv)
    return replace(state, alpha=alphas, nv_const=np.array(path))


@dataclass(frozen=True)
class SensorModel:
    """Pressure sensor: gaussian noise as a fraction of full scale, ADC quantization."""

    full_scale: float = 700.0
    noise_frac: float = 0.025 / 3.0  # 2.5% max deviation read as a 3-sigma bound
    quant_step: float = 0.68  # 10-bit ADC over the full scale

    def __post_init__(self):
        if self.full_scale <= 0:
            raise DomainError(f"full_scale must be positive, got {self.full_scale}")
        if self.noise_frac < 0 or self.quant_step < 0:
            raise DomainError("noise_frac and quant_step must be non-negative")
        # measurement_sigma squares sigma and quant_step; a read counts in grid steps
        q = self.quant_step
        if not math.isfinite(self.sigma * self.sigma + q * q / 12.0) or (
            q > 0 and not math.isfinite(max(self.full_scale, self.sigma) / q)
        ):
            raise DomainError(
                f"full_scale={self.full_scale}, noise_frac={self.noise_frac} and quant_step={q} "
                "put the reading noise or the full scale in ADC steps past the float range"
            )

    @property
    def sigma(self) -> float:
        """1-sigma noise of a single raw reading (kPa)."""
        return self.noise_frac * self.full_scale

    def noiseless(self) -> "SensorModel":
        return replace(self, noise_frac=0.0, quant_step=0.0)


def quantize(values: np.ndarray, step: float) -> np.ndarray:
    """Round a float array half-up onto a grid of the given step, in place.

    Returns the array; step 0 passes it through.
    """
    if step <= 0:
        return values
    values /= step
    values += 0.5
    np.floor(values, out=values)
    values *= step
    return values


def measurement_sigma(sensor: SensorModel, settle_reads: int) -> float:
    """1-sigma of a settle-averaged measurement, quantization included."""
    per_read = math.sqrt(sensor.sigma**2 + sensor.quant_step**2 / 12.0)
    return per_read / math.sqrt(max(settle_reads, 1))


# Sigmas of a settle-averaged measurement that make a comparison sure: the
# contact threshold sits this far above the baseline.
SURE_SIGMAS = 6.0

# A block's sum is drawn in one piece (see PressureSensor.read_avg) once the
# reading noise spans this many quantization steps, b = sigma / quant_step. Its
# law then differs from m per-reading draws by at most
# 2 * m * exp(-pi^2 * b^2 / 2) per value, below 1e-34 * m; a coarser grid
# draws its readings one by one.
SUM_DRAW_MIN_STEPS = 4.0

# Binary levels of a block's uniform sum drawn exactly (see _uniform_sum), their
# weights 2^-1 .. 2^-LEVELS, and the mean and variance per uniform of the rest.
LEVELS = 12
LEVEL_WEIGHTS = np.array([2.0**-j for j in range(1, LEVELS + 1)])
REST_MEAN, REST_VAR = 2.0**-LEVELS / 2.0, 4.0**-LEVELS / 12.0

# The most values one draw from a sensor stream holds, so a batched read's
# memory stays bounded for any number of reads of any length. Only readings
# drawn one by one (b < SUM_DRAW_MIN_STEPS) come near it.
MAX_DRAW = 1 << 16


def _row_sums(draw, m: int, k: int | None):
    """Sums of k rows of m values from draw(size), or of one row for k None.

    The rows are one flat draw; a row longer than MAX_DRAW (k is then 1 or
    None) is drawn and summed in pieces of at most MAX_DRAW.
    """
    if m <= MAX_DRAW:
        return draw(m).sum() if k is None else draw(k * m).reshape(k, m).sum(axis=1)
    total = sum(draw(min(MAX_DRAW, m - i)).sum() for i in range(0, m, MAX_DRAW))
    return total if k is None else np.array([total])


def _uniform_sum(rng, n: int, k: int | None):
    """The top LEVELS binary levels of a sum of n uniforms: one value for k None,
    else an array of k.

    rng.random() returns a multiple of 2^-53 whose 53 bits are fair coins, so
    u_1 + ... + u_n is in law exactly sum_{j=1..53} 2^-j * B_j, the B_j
    independent Binomial(n, 1/2). This draws the first LEVELS terms; the rest
    is 2^-LEVELS times another such sum, with mean n * REST_MEAN and variance
    n * REST_VAR, which the caller draws as a normal.
    """
    return rng.binomial(n, 0.5, LEVELS if k is None else (k, LEVELS)).dot(LEVEL_WEIGHTS)


def _block_sums(rng, x: float, b: float, quantized: bool, m: int, k: int | None = None):
    """Sums of blocks of m readings of true value x with noise b, in grid steps
    (in kPa when not quantized): one sum for k None, else an array of k.

    The law of a block sum is written here alone; see PressureSensor.read_avg.
    """
    if not quantized:
        return m * x + math.sqrt(m) * b * rng.standard_normal(k)
    if b >= SUM_DRAW_MIN_STEPS:
        n = m - 1
        # hypot, as (sqrt(m) * b)^2 can overflow where sqrt(m) * b does not
        spread = rng.standard_normal(k) * math.hypot(math.sqrt(m) * b, math.sqrt(n * REST_VAR))
        spread -= _uniform_sum(rng, n, k)
        spread += m * (x + 0.5) - n * REST_MEAN
        return math.floor(spread) if k is None else np.floor(spread, out=spread)
    return _row_sums(lambda size: quantize(b * rng.standard_normal(size) + x, 1.0), m, k)


class PressureSensor:
    """Stateful seeded sampling stream for one SensorModel.

    Deterministic for a fixed seed and call sequence; one instance must be
    confined to a single simulation at a time.
    """

    def __init__(self, model: SensorModel, seed=0):
        self.model = model
        self._rng = np.random.default_rng(seed)
        # the ADC grid step and the reading noise in steps (kPa and sigma unquantized)
        q = model.quant_step
        self._quantized = q > 0
        self._step, self._b = (q, model.sigma / q) if q > 0 else (1.0, model.sigma)

    def _quiet(self, p_true: float) -> float:
        """The mean of a noise-free read, which draws nothing: the quantized p_true."""
        q = self.model.quant_step
        return math.floor(p_true / q + 0.5) * q if q > 0 else p_true

    def read_avg(self, p_true: float, n: int) -> float:
        """Settle-averaged measurement over n consecutive readings.

        A reading is quant_step * floor(a + b * z), half-up on the ADC grid:
        a = p_true / quant_step + 1/2, b = sigma / quant_step and z standard
        normal. The estimator sees only the mean, so the read draws the sum
        of its n readings as one block, not the readings. floor(W) for W ~
        N(a, b^2) has the law of W - U at the integers, U uniform on [0, 1),
        up to ~2 * exp(-pi^2 * b^2 / 2) in its characteristic function, so a
        block of m readings sums to quant_step * floor(m * a + sqrt(m) * b * z
        - (u_1 + ... + u_{m-1})): one normal and a sum of m - 1 uniforms,
        drawn as its top LEVELS binary levels with the rest a normal folded
        into z's (_uniform_sum). That normal moves the characteristic
        function of the floor by at most e^-2 * 2^(-4 * LEVELS) / (16 * 2880
        * m), about 1e-20 / m, below the ~5e-18 * sqrt(m) that rng.random's
        2^-53 grid puts on the uniforms themselves; a block costs one normal
        and LEVELS binomials at any m. Below SUM_DRAW_MIN_STEPS the readings
        are drawn one by one; without quantization the block sums to m *
        p_true + sqrt(m) * sigma * z, and without noise the mean is the
        quantized p_true, drawing nothing. read_avg_batch draws many reads of
        one pressure with this law at once.
        """
        if n < 1:
            raise DomainError(f"settle read count must be >= 1, got {n}")
        if self._b == 0:
            return self._quiet(p_true)
        return float(_block_sums(self._rng, p_true / self._step, self._b, self._quantized, n) * self._step / n)

    def read_avg_batch(self, p_true: float, k: int, n: int) -> list:
        """k settle-averaged measurements of one true pressure, as a list.

        Each has the law of read_avg(p_true, n) and is one block. The reads
        are drawn together, as many at a time as keep each draw within
        MAX_DRAW values: a block sum takes LEVELS + 1 values, a read drawn
        reading by reading n.
        """
        if n < 1:
            raise DomainError(f"settle read count must be >= 1, got {n}")
        step, b = self._step, self._b
        if b == 0:
            return [self._quiet(p_true)] * k
        x, per_read = p_true / step, n if self._quantized and b < SUM_DRAW_MIN_STEPS else LEVELS + 1
        rows, means = max(1, MAX_DRAW // per_read), []
        for first in range(0, k, rows):
            sums = _block_sums(self._rng, x, b, self._quantized, n, min(rows, k - first))
            means += (sums * step / n).tolist()
        return means
