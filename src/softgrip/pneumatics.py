"""Ground-truth pneumatic plant: ring cavity volume vs bending, isothermal
locked-air pressure, the joint torque surface with its fabric-slack dead zone,
valve leakage, and the quantized noisy pressure sensor.

Pressures are gauge kPa unless named otherwise; volumes mm^3; torques N*mm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError

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
    """The open ring that the valve closes on, or rings as arrays."""

    p_gauge: float = 0.0
    alpha: float = 0.0

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


def lock(state: RingState, model: RingModel):
    """Close the valve, trapping the gas quantity nv = p_abs * V that the
    isothermal law conserves; a float, or an array for array states."""
    return (state.p_gauge + model.p_atm) * volume_at_angle(model, state.alpha)


def pressure_at_angle(nv, model: RingModel, alpha):
    """Gauge pressure of the trapped gas quantity nv at bending angle alpha."""
    return _clip_negative(_gas_pressure(model, nv, volume_at_angle(model, alpha)))


def joint_torque(model: RingModel, alpha, p_gauge):
    """Joint torque (N*mm) at bending angle alpha and instantaneous gauge pressure.

    Array arguments broadcast against each other.
    """
    if _lowest(alpha) < 0:
        raise DomainError(f"alpha must be non-negative, got {_lowest(alpha)}")
    if _lowest(p_gauge) < 0:
        raise DomainError(f"p_gauge must be non-negative, got {_lowest(p_gauge)}")
    return _torque(model, _clip_negative(alpha - model.alpha_slack), p_gauge)


def leak_path(nv: float, model: RingModel, alphas: np.ndarray) -> np.ndarray:
    """Trapped gas quantity after each step of a path through the angles
    alphas (rad), one second a step, starting from nv.

    Each step moves to the next angle and leaks the trapped gas quantity by
    leak_rate, floored at atmospheric pressure at that angle. The result is
    an array that pressure_at_angle takes with alphas.
    """
    keep = 1.0 - model.leak_rate
    path = []
    for floor in (model.p_atm * volume_at_angle(model, alphas)).tolist():
        nv = max(nv * keep, floor)
        path.append(nv)
    return np.array(path)


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


def measurement_sigma(sensor: SensorModel, settle_reads: int) -> float:
    """1-sigma of a settle-averaged measurement, quantization included."""
    per_read = math.sqrt(sensor.sigma**2 + sensor.quant_step**2 / 12.0)
    return per_read / math.sqrt(max(settle_reads, 1))


# Sigmas of a settle-averaged measurement that make a comparison sure: the
# contact threshold sits this far above the baseline.
SURE_SIGMAS = 6.0

# A block's sum is drawn from one normal and its uniform levels (see
# PressureSensor.read_avg) once the reading noise spans this many quantization
# steps, b = sigma / quant_step. Its law then differs from m per-reading draws
# by at most 2 * m * exp(-pi^2 * b^2 / 2) per value, below 1e-34 * m; a coarser
# grid draws the block from the reading law's cells (_cell_law).
SUM_DRAW_MIN_STEPS = 4.0

# Noise sigmas on either side of a reading's true value that its cells span
# (_cell_law); cli bounds a settle read's sum in ADC steps by as many.
TAIL_SIGMAS = 10.0

# Binary levels of a block's uniform sum drawn exactly (see _uniform_sum), their
# weights 2^-1 .. 2^-LEVELS, and the mean and variance per uniform of the rest.
LEVELS = 12
LEVEL_WEIGHTS = np.array([2.0**-j for j in range(1, LEVELS + 1)])
REST_MEAN, REST_VAR = 2.0**-LEVELS / 2.0, 4.0**-LEVELS / 12.0


def _cell_law(f: float, b: float):
    """The cells j = -w..w, w = ceil(TAIL_SIGMAS * b), and the probability of
    each that floor(f + b * z) = j, for f in [0, 1] and z standard normal.

    Each edge j - f takes its nearer normal tail, the mass below it for j <= 0
    and above it for j >= 1. A cell is the difference of its edges' tails, so
    a far cell keeps its relative precision; cell 0, whose edges straddle the
    mean, is one less both tails. The mass past the window, at most
    erfc(TAIL_SIGMAS / sqrt 2), is left out; rng.multinomial gives it to the
    last cell.
    """
    w, scale = math.ceil(TAIL_SIGMAS * b), b * math.sqrt(2.0)
    tails = np.array([math.erfc(abs(j - f) / scale) / 2.0 for j in range(-w, w + 2)])
    p = np.abs(np.diff(tails))
    p[w] = 1.0 - tails[w] - tails[w + 1]
    return np.arange(-w, w + 1), p


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
    # base stays a float: m * base as an int could pass int64 in the sum below
    base = float(math.floor(x + 0.5))
    cells, p = _cell_law(x + 0.5 - base, b)
    return m * base + rng.multinomial(m, p, k).dot(cells)


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
        of its n readings as one block, not the readings, at a cost that does
        not grow with n. From SUM_DRAW_MIN_STEPS up, floor(W) for W ~
        N(a, b^2) has the law of W - U at the integers, U uniform on [0, 1),
        up to ~2 * exp(-pi^2 * b^2 / 2) in its characteristic function, so a
        block of m readings sums to quant_step * floor(m * a + sqrt(m) * b * z
        - (u_1 + ... + u_{m-1})): one normal and a sum of m - 1 uniforms,
        drawn as its top LEVELS binary levels with the rest a normal folded
        into z's (_uniform_sum). That normal moves the characteristic
        function of the floor by at most e^-2 * 2^(-4 * LEVELS) / (16 * 2880
        * m), about 1e-20 / m, below the ~5e-18 * sqrt(m) that rng.random's
        2^-53 grid puts on the uniforms themselves; a block costs one normal
        and LEVELS binomials. Below SUM_DRAW_MIN_STEPS a reading is floor(a)
        + j, j = floor(f + b * z) with f = a - floor(a), and the block sums to
        m * floor(a) + sum_j j * N_j, (N_j) multinomial over the cells |j| <=
        ceil(TAIL_SIGMAS * b) (_cell_law): one multinomial over at most 81
        cells. Its law differs from m readings drawn one by one by at most m *
        erfc(TAIL_SIGMAS / sqrt 2), about 1.5e-23 * m, in total variation,
        plus the rounding of erfc and of the cell probabilities, about 1e-16
        a cell. Without quantization the block sums to m * p_true + sqrt(m) *
        sigma * z, and without noise the mean is the quantized p_true,
        drawing nothing. read_avg_batch draws many reads of one pressure with
        this law at once.
        """
        if n < 1:
            raise DomainError(f"settle read count must be >= 1, got {n}")
        if self._b == 0:
            return self._quiet(p_true)
        return float(_block_sums(self._rng, p_true / self._step, self._b, self._quantized, n) * self._step / n)

    def read_avg_batch(self, p_true: float, k: int, n: int) -> list:
        """k settle-averaged measurements of one true pressure, as a list.

        Each has the law of read_avg(p_true, n) and is one block; the k
        blocks are drawn together, in one draw of each kind a block takes.
        """
        if n < 1:
            raise DomainError(f"settle read count must be >= 1, got {n}")
        if self._b == 0:
            return [self._quiet(p_true)] * k
        sums = _block_sums(self._rng, p_true / self._step, self._b, self._quantized, n, k)
        return (sums * self._step / n).tolist()
