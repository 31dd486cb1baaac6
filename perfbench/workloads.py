"""Seeded workload generators and per-command output checks.

Each workload turns a workload seed into an endless, deterministic stream of
``softgrip`` CLI commands. Command ``i`` depends only on ``(seed, i)``, so a run
that stops after any number of commands has seen exactly the same inputs as
every other run with that seed, and any prefix of the stream is balanced:
continuous parameters come from a randomly shifted Kronecker (R_d) sequence,
whose every prefix covers its ranges evenly, so the work mix in a time-bounded
run hardly depends on where the run stops or on the seed.

The program receives only the generated config files and CLI arguments. The
checks read the command's output files and never call into ``softgrip``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Quality metrics reported by every workload. A workload that does not run the
# command a metric is read from reports that metric's acceptance threshold.
QUALITY_METRICS = {
    # name: (unit, value when not applicable)
    "soft_spot_avoid_rate": ("frac", 1.0),
    "contact_err_mm_p90": ("mm", 2.0),
    "dp_fit_r2_min": ("r2", 0.99),
}


def _r_sequence_alphas(dims: int) -> np.ndarray:
    """Step vector of the R_d low-discrepancy sequence (Roberts 2018)."""
    phi = 2.0
    for _ in range(64):  # fixed point of x = (1 + x) ** (1 / (d + 1))
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return np.array([phi ** -(k + 1) for k in range(dims)])


class Stream:
    """Parameters and CLI seed of command ``i`` as a pure function of (seed, i)."""

    def __init__(self, seed: int, dims: int):
        self.seed = int(seed)
        self._alphas = _r_sequence_alphas(dims)
        self._shift = np.random.default_rng([self.seed, 0xB5]).random(dims)

    def unit(self, i: int) -> np.ndarray:
        """Point ``i`` of the shifted sequence, in [0, 1)^dims."""
        return np.mod(self._shift + (i + 1) * self._alphas, 1.0)

    def cli_seed(self, i: int) -> int:
        return int(np.random.default_rng([self.seed, 0x5EED, i]).integers(0, 2**31 - 1))


def _lerp(u: float, lo: float, hi: float) -> float:
    return round(lo + (hi - lo) * float(u), 6)


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``--out`` is appended by the runner."""

    argv: tuple
    config_path: Path
    config_text: str | None  # written before the command runs; None for bundled configs
    expect: dict  # what the check needs to know about the generated inputs


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    quality: float | None = None  # this command's sample of the workload's quality metric


def _json(files: dict, name: str):
    if name not in files:
        raise ValueError(f"missing output {name}")
    return json.loads(files[name].decode())


def _csv_rows(files: dict, name: str, header: list) -> list:
    if name not in files:
        raise ValueError(f"missing output {name}")
    rows = list(csv.reader(io.StringIO(files[name].decode())))
    if not rows or rows[0] != header:
        raise ValueError(f"{name}: unexpected header {rows[:1]}")
    return rows[1:]


def _check_run_meta(files: dict, command: str, seed: int | None) -> None:
    meta = _json(files, "run_meta.json")
    if meta.get("command") != command:
        raise ValueError(f"run_meta command {meta.get('command')!r}, expected {command!r}")
    if seed is not None and meta.get("seed") != seed:
        raise ValueError(f"run_meta seed {meta.get('seed')}, expected {seed}")
    if len(meta.get("config_sha256", "")) != 64:
        raise ValueError("run_meta has no config hash")


class Workload:
    """Base class: a command stream, its checks and its quality metric."""

    name = ""
    quality_metric = ""
    # The end-to-end run keeps issuing commands until --seconds have passed and
    # at least min_commands have run; the quality metric covers exactly the
    # first min_commands, so it repeats for a fixed seed.
    min_commands = 100
    # The traced run replays exactly this many commands, so counts repeat.
    trace_commands = 20
    # Consecutive commands whose latencies add up to one latency sample.
    latency_group = 1

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = Path(root)
        self.workdir = Path(workdir)

    def command(self, i: int) -> Command:
        raise NotImplementedError

    def check(self, cmd: Command, rc, files: dict) -> Outcome:
        """Judge one command from its exit code and output files."""
        if rc != 0:
            return Outcome(False, f"exit code {rc}, expected 0")
        try:
            return Outcome(True, quality=self._check_files(cmd, files))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return Outcome(False, f"{type(exc).__name__}: {exc}")

    def _check_files(self, cmd: Command, files: dict) -> float:
        raise NotImplementedError

    def quality(self, samples: list) -> float:
        raise NotImplementedError

    def setup_configs(self) -> list:
        """Write and return the config files the set-up measurement loads and validates."""
        cmds = [self.command(i) for i in range(4)]
        for cmd in cmds:
            self.write_config(cmd)
        return sorted({str(cmd.config_path) for cmd in cmds})

    def write_config(self, cmd: Command) -> None:
        if cmd.config_text is not None and not cmd.config_path.exists():
            cmd.config_path.parent.mkdir(parents=True, exist_ok=True)
            cmd.config_path.write_text(cmd.config_text)


# ---------------------------------------------------------------------------


class FruitScenario(Workload):
    """`scenario` on the bundled banana and orange configs, alternating.

    The paper's headline pipeline: 10 + 7 noisy probes per pair, dominated by
    the equilibrium solver. A command's latency is bimodal (banana vs orange),
    so one latency sample is a banana+orange pair.
    """

    name = "fruit_scenario"
    quality_metric = "soft_spot_avoid_rate"
    min_commands = 200
    trace_commands = 100
    latency_group = 2
    FRUITS = ("banana", "orange")

    def __init__(self, root, workdir, seed):
        super().__init__(root, workdir, seed)
        self.stream = Stream(seed, 1)
        self._fruit = {}
        for fruit in self.FRUITS:
            path = self.root / "configs" / f"{fruit}.json"
            raw = json.loads(path.read_text())
            self._fruit[fruit] = (path, self._soft_coords(raw))

    @staticmethod
    def _soft_coords(raw: dict) -> tuple:
        """Plan locations whose true local stiffness is below the avoid fraction."""
        plan = raw["plan"]
        samples = raw["fixtures"][plan["fixture"]]["samples"]
        coords = [float(c) for c, _ in samples]
        ks = [float(k) for _, k in samples]
        locations = np.linspace(0.0, float(plan["span"]), int(plan["n"]))
        local = np.interp(locations, coords, ks)
        soft = local < plan["avoid_fraction"] * local.max()
        return tuple(float(x) for x in locations), tuple(float(x) for x in locations[soft])

    def command(self, i):
        fruit = self.FRUITS[i % 2]
        path, (locations, soft) = self._fruit[fruit]
        seed = self.stream.cli_seed(i)
        return Command(
            argv=("scenario", "--config", str(path), "--seed", str(seed)),
            config_path=path,
            config_text=None,
            expect={"seed": seed, "locations": locations, "soft": soft},
        )

    def _check_files(self, cmd, files):
        doc = _json(files, "stiffness_map.json")
        coords = tuple(float(e["coord"]) for e in doc["entries"])
        if len(coords) != len(cmd.expect["locations"]) or not np.allclose(
            coords, cmd.expect["locations"], rtol=0.0, atol=1e-9
        ):
            raise ValueError(f"map coordinates {coords} differ from the plan")
        for e in doc["entries"]:
            if not e["flags"] and not (isinstance(e["k_r"], float) and math.isfinite(e["k_r"]) and e["k_r"] > 0):
                raise ValueError(f"bad k_r {e['k_r']!r} at {e['coord']}")
        avoided = {float(c) for c in doc["avoided"]}
        chosen = float(doc["chosen"])
        soft = set(cmd.expect["soft"])
        if chosen in soft or chosen in avoided:
            raise ValueError(f"chose {chosen}, which is soft or avoided")
        if not soft <= avoided:
            raise ValueError(f"soft coordinates {sorted(soft - avoided)} not avoided")
        n = len(coords)
        if len(_csv_rows(files, "stiffness_map.csv", ["coord", "k_r_n_per_mm", "flag"])) != n:
            raise ValueError("stiffness_map.csv row count")
        long_rows = _csv_rows(files, "stiffness_map_long.csv", ["coord", "quantity", "value"])
        if len(long_rows) != 3 * n or sum(r[1] == "chosen" and r[2] == "1" for r in long_rows) != 1:
            raise ValueError("stiffness_map_long.csv content")
        _check_run_meta(files, "scenario", cmd.expect["seed"])
        return 1.0  # every soft coordinate avoided; a miss fails the check above

    def quality(self, samples):
        # failed commands contribute 0: a scenario that missed a soft spot
        return sum(s or 0.0 for s in samples) / len(samples)


class ContactSearch(Workload):
    """`probe` on generated uniform fixtures far from a wide-open gripper.

    About 150 noisy approach steps per probe, each a settle-averaged sensor
    read of a few thousand samples: the sensor-sampling layer dominates.
    """

    name = "contact_search"
    quality_metric = "contact_err_mm_p90"
    min_commands = 1000
    trace_commands = 150
    MAX_OPEN_MM = 400.0
    APPROACH_STEP_MM = 2.0
    OFFSET_MM = (80.0, 120.0)
    K_N_PER_MM = (20.0, 250.0)
    SETTLE_READS = (2048, 6144)

    def __init__(self, root, workdir, seed):
        super().__init__(root, workdir, seed)
        self.stream = Stream(seed, 3)

    def command(self, i):
        u = self.stream.unit(i)
        offset = _lerp(u[0], *self.OFFSET_MM)
        k = _lerp(u[1], *self.K_N_PER_MM)
        reads = int(self.SETTLE_READS[0] + (self.SETTLE_READS[1] - self.SETTLE_READS[0]) * float(u[2]))
        cfg = {
            "seed": 0,
            "gripper": {"max_open_mm": self.MAX_OPEN_MM},
            "probe": {"approach_step_mm": self.APPROACH_STEP_MM, "settle_reads": reads},
            "fixtures": {
                "obj": {"kind": "uniform", "base_k_n_per_mm": k, "surface_offset_mm": offset}
            },
        }
        seed = self.stream.cli_seed(i)
        path = self.workdir / "configs" / f"contact_{i:06d}.json"
        return Command(
            argv=("probe", "--config", str(path), "--fixture", "obj", "--seed", str(seed)),
            config_path=path,
            config_text=json.dumps(cfg, indent=2, sort_keys=True) + "\n",
            expect={"seed": seed, "offset": offset, "n_steps": 5},
        )

    def _check_files(self, cmd, files):
        doc = _json(files, "probe_obj.json")
        if doc["flags"]:
            raise ValueError(f"flags {doc['flags']}")
        err = abs(float(doc["contact_opening"]) - cmd.expect["offset"])
        if not err <= self.APPROACH_STEP_MM:
            raise ValueError(f"contact opening off by {err} mm")
        for key in ("est_force", "k_r", "k_o_est"):
            if not (isinstance(doc[key], float) and math.isfinite(doc[key]) and doc[key] > 0):
                raise ValueError(f"bad {key} {doc[key]!r}")
        rows = _csv_rows(files, "probe_obj_trace.csv", ["step", "dc_mm", "dp_kpa"])
        if len(rows) != cmd.expect["n_steps"] or len(doc["dp_trace"]) != len(rows):
            raise ValueError("probe trace length")
        if not all(math.isfinite(float(x)) for r in rows for x in r):
            raise ValueError("probe trace has a non-finite value")
        _check_run_meta(files, "probe", cmd.expect["seed"])
        return err

    def quality(self, samples):
        # a failed command counts as missing the contact by the whole approach step
        errs = [self.APPROACH_STEP_MM if s is None else s for s in samples]
        return float(np.percentile(errs, 90))


class CalibrationDense(Workload):
    """`calibrate` on generated ring parameters at fine sweep grids.

    Write-heavy (about 1.2 MB of CSV per command); no solver or sensor runs.
    """

    name = "calibration_dense"
    quality_metric = "dp_fit_r2_min"
    min_commands = 100
    trace_commands = 30
    # ranges inside RingModel's validated domain; kappa <= 0.30 keeps the
    # dp-alpha fit above R^2 = 0.99 and the fixed 20 deg slack sets the dead zone
    RING = {
        "v0_mm3": (3000.0, 8000.0),
        "kappa_per_rad": (0.10, 0.30),
        "c1_nmm_per_rad": (15000.0, 45000.0),
        "c2_nmm_per_rad_kpa": (300.0, 900.0),
        "leak_rate_per_s": (1.0e-4, 1.0e-3),
    }
    DEAD_ZONE_DEG = 20.0
    R2_MIN = 0.99
    REGULATED = {"alpha_max_deg": 80.0, "alpha_step_deg": 0.5, "p_max_kpa": 120.0, "p_step_kpa": 1.0}
    LOCKED = {"alpha_max_deg": 80.0, "alpha_step_deg": 0.1, "p0_grid_kpa": [5.0 * j for j in range(17)]}

    def __init__(self, root, workdir, seed):
        super().__init__(root, workdir, seed)
        self.stream = Stream(seed, len(self.RING))

    def command(self, i):
        u = self.stream.unit(i)
        ring = {key: _lerp(u[d], lo, hi) for d, (key, (lo, hi)) in enumerate(self.RING.items())}
        ring["alpha_slack_deg"] = self.DEAD_ZONE_DEG
        cfg = {
            "seed": 0,
            "plant": {"ring": ring},
            "calibration": {"regulated": self.REGULATED, "locked": self.LOCKED},
        }
        seed = self.stream.cli_seed(i)
        path = self.workdir / "configs" / f"calibration_{i:06d}.json"
        return Command(
            argv=("calibrate", "--config", str(path), "--seed", str(seed)),
            config_path=path,
            config_text=json.dumps(cfg, indent=2, sort_keys=True) + "\n",
            expect={"seed": seed},
        )

    @staticmethod
    def _caltab(files, name, n_alpha, n_p0):
        if name not in files:
            raise ValueError(f"missing output {name}")
        parts = files[name].decode().split("\n", 3)
        if len(parts) < 4 or parts[0] != "# caltab v1" or not parts[1].startswith("# meta: ") or (
            parts[2] != "alpha_deg,p0_kpa,dp_kpa,torque_nmm"
        ):
            raise ValueError(f"{name}: bad header")
        body = parts[3]
        values = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
        if values.size != 4 * n_alpha * n_p0 or not np.all(np.isfinite(values)):
            raise ValueError(f"{name}: expected {n_alpha * n_p0} complete rows")
        return values.reshape(n_alpha, n_p0, 4)

    def _check_files(self, cmd, files):
        reg, lock = self.REGULATED, self.LOCKED
        n_a_reg = round(reg["alpha_max_deg"] / reg["alpha_step_deg"]) + 1
        n_p_reg = round(reg["p_max_kpa"] / reg["p_step_kpa"]) + 1
        n_a_lock = round(lock["alpha_max_deg"] / lock["alpha_step_deg"]) + 1
        self._caltab(files, "regulated.csv", n_a_reg, n_p_reg)
        locked = self._caltab(files, "locked.csv", n_a_lock, len(lock["p0_grid_kpa"]))
        if np.any(np.diff(locked[:, :, 2], axis=0) < -1e-9):
            raise ValueError("locked.csv dp is not monotone in alpha")
        summary = _json(files, "calibration_summary.json")
        if summary["dead_zone_extent_deg"] != self.DEAD_ZONE_DEG:
            raise ValueError(f"dead zone {summary['dead_zone_extent_deg']} deg")
        r2 = float(summary["dp_alpha_fit_r2_min"])
        if not self.R2_MIN <= r2 <= 1.0:
            raise ValueError(f"dp-alpha fit R^2 {r2} below {self.R2_MIN}")
        _check_run_meta(files, "calibrate", cmd.expect["seed"])
        return r2

    def quality(self, samples):
        # a failed command counts as a fit at zero
        return min(0.0 if s is None else s for s in samples)


WORKLOADS = {w.name: w for w in (FruitScenario, ContactSearch, CalibrationDense)}
