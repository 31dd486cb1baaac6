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
# contact threshold sits this far above the baseline, and a bounded read stops
# early only when its mean sits this far under the bound.
SURE_SIGMAS = 6.0

# A look at a read's running mean, with the extra block it needs, costs about
# as much as drawing the sums of 1,400 readings (some 4 us against 3 ns a
# reading, numpy 2.4 on a 2-core Xeon). A contact-free approach step mostly
# stops at its first look and saves 3n/4 readings, so a bounded read looks
# only when each of its four blocks holds at least this many. A batched read
# (PressureSensor.read_avg_batch) cuts each of its reads into the same blocks,
# so it keeps that law, and one look after a block serves all of its reads.
MIN_LOOK_BLOCK = 512

# A block's sum is drawn in one piece (see PressureSensor.read_avg) once the
# reading noise spans this many quantization steps, b = sigma / quant_step. Its
# law then differs from m per-reading draws by at most
# 2 * m * exp(-pi^2 * b^2 / 2) per value, below 1e-34 * m; a coarser grid
# draws its readings one by one.
SUM_DRAW_MIN_STEPS = 4.0

# The most values one draw from a sensor stream holds, so a batched read's
# memory stays bounded for any number of reads of any length.
MAX_DRAW = 1 << 16


def _look_ends(n: int) -> tuple:
    """Reading counts at which a read of n readings ends its blocks."""
    return (n // 4, n // 2, 3 * n // 4, n) if n >= 4 * MIN_LOOK_BLOCK else (n,)


def _row_sums(draw, m: int, k: int | None):
    """Sums of k rows of m values from draw(size), or of one row for k None.

    The rows are one flat draw; a row longer than MAX_DRAW (k is then 1 or
    None) is drawn and summed in pieces of at most MAX_DRAW.
    """
    if m <= MAX_DRAW:
        return draw(m).sum() if k is None else draw(k * m).reshape(k, m).sum(axis=1)
    total = sum(draw(min(MAX_DRAW, m - i)).sum() for i in range(0, m, MAX_DRAW))
    return total if k is None else np.array([total])


def _block_sums(rng, x: float, b: float, quantized: bool, m: int, k: int | None = None):
    """Sums of blocks of m readings of true value x with noise b, in grid steps
    (in kPa when not quantized): one sum for k None, else an array of k.

    The law of a block sum is written here alone; see PressureSensor.read_avg.
    """
    if not quantized:
        return m * x + math.sqrt(m) * b * rng.standard_normal(k)
    if b >= SUM_DRAW_MIN_STEPS:
        spread = rng.standard_normal(k) * (math.sqrt(m) * b)
        spread -= _row_sums(rng.random, m - 1, k)
        spread += m * (x + 0.5)
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

    def _sure_under(self, mean, end: int, below: float):
        """Whether a running mean over end readings lies SURE_SIGMAS measurement
        sigmas of its own length under the bound (elementwise for an array)."""
        return mean + SURE_SIGMAS * measurement_sigma(self.model, end) < below

    def read_avg(self, p_true: float, n: int, below: float = math.inf) -> float:
        """Settle-averaged measurement over n consecutive readings.

        A reading is quant_step * floor(a + b * z), half-up on the ADC grid:
        a = p_true / quant_step + 1/2, b = sigma / quant_step and z standard
        normal. The estimator sees only the mean, so the read draws the sum
        of each block of m readings, not the readings. floor(W) for W ~ N(a,
        b^2) has the law of W - U at the integers, U uniform on [0, 1), up to
        ~2 * exp(-pi^2 * b^2 / 2) in its characteristic function, so a block
        sums to quant_step * floor(m * a + sqrt(m) * b * z - (u_1 + ... +
        u_{m-1})): one normal, then m - 1 uniforms. Below SUM_DRAW_MIN_STEPS
        the m readings are drawn one by one; without quantization a block sums
        to m * p_true + sqrt(m) * sigma * z, and without noise the mean is the
        quantized p_true, drawing nothing.

        A read of n >= 4 * MIN_LOOK_BLOCK readings draws four blocks, ending
        at n/4, n/2, 3n/4 and n; a shorter one draws one. With a finite upper
        bound the read looks at its running mean after each of the first three
        blocks (Wald's sequential test) and returns that mean once it lies
        SURE_SIGMAS measurement sigmas of its own length under the bound. A
        read that never stops early draws and returns exactly what the
        unbounded read does. read_avg_batch draws many reads of one pressure
        with this law at once.
        """
        if n < 1:
            raise DomainError(f"settle read count must be >= 1, got {n}")
        step, b = self._step, self._b
        if b == 0:
            return self._quiet(p_true)
        x, start, count = p_true / step, 0, 0
        for end in _look_ends(n):
            # count sums the readings so far in grid steps (kPa without quantization)
            count += _block_sums(self._rng, x, b, self._quantized, end - start)
            mean = count * step / end
            if end < n and below < math.inf and self._sure_under(mean, end, below):
                break
            start = end
        return float(mean)

    def read_avg_batch(self, p_true: float, k: int, n: int, below: float = math.inf) -> list:
        """k settle-averaged measurements of one true pressure, as a list.

        Each has exactly the law of read_avg(p_true, n, below): the same
        blocks, looks and draws per block. The reads are drawn together,
        block by block, as many at a time as keep each draw within MAX_DRAW
        values; a read that stops at a look draws no further block. Only the
        order in which the stream's numbers go to the reads differs from k
        read_avg calls.
        """
        if n < 1:
            raise DomainError(f"settle read count must be >= 1, got {n}")
        step, b = self._step, self._b
        if b == 0:
            return [self._quiet(p_true)] * k
        x, ends = p_true / step, _look_ends(n)
        rows = max(1, MAX_DRAW // (ends[0] + 1))  # no block holds more than ends[0] + 1 readings
        means = []
        for first in range(0, k, rows):
            size = min(rows, k - first)
            if len(ends) == 1:  # one block, no look
                counts = _block_sums(self._rng, x, b, self._quantized, n, size)
                means += [count * step / n for count in counts.tolist()]
                continue
            out, live = np.empty(size), np.arange(size)  # live: the reads still drawing
            start, count = 0, 0
            for end in ends:
                count = count + _block_sums(self._rng, x, b, self._quantized, end - start, live.size)
                mean = count * step / end
                if end < n and below < math.inf:
                    sure = self._sure_under(mean, end, below)
                    out[live[sure]] = mean[sure]
                    live, count = live[~sure], count[~sure]
                    if not live.size:
                        break
                start = end
            else:
                out[live] = mean
            means += out.tolist()
        return means
