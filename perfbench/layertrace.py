"""Per-layer tracing of softgrip from outside the package.

The package's modules import each other's functions by name, so a call is
intercepted by rebinding the name in the module that makes the call (for
example ``softgrip.probing.solve_equilibrium``), or the attribute on the class
for methods. Calls at a layer boundary become spans (name, start, end, parent,
command id) kept in memory; hot plant leaf functions, called thousands of
times per command, are only counted. Time spent in a counted leaf therefore
belongs to the self time of the span that called it.

``LayerTracer.install`` patches, ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import Counter
from time import perf_counter

# (module, attribute path, span name); the layer is the span name's prefix.
SPANS = [
    ("softgrip.cli", "main", "cli.main"),
    ("softgrip.cli", "_atomic_write", "cli.atomic_write"),
    ("softgrip.cli", "load_config", "config.load_config"),
    ("softgrip.cli", "config_hash", "config.config_hash"),
    ("softgrip.cli", "build_fixture", "config.build_fixture"),
    ("softgrip.cli", "build_geometry", "config.build_geometry"),
    ("softgrip.cli", "build_ring", "config.build_ring"),
    ("softgrip.cli", "build_sensor", "config.build_sensor"),
    ("softgrip.cli", "build_probe_config", "config.build_probe_config"),
    ("softgrip.cli", "generate_locked_sweep", "calibration.locked_sweep"),
    ("softgrip.cli", "generate_regulated_sweep", "calibration.regulated_sweep"),
    ("softgrip.cli", "hysteresis_sweep", "calibration.hysteresis_sweep"),
    ("softgrip.cli", "write_csv", "calibration.write_csv"),
    ("softgrip.probing", "angle_from_dp", "calibration.angle_from_dp"),
    ("softgrip.calibration", "angle_from_dp", "calibration.angle_from_dp"),
    ("softgrip.probing", "force_from_dp", "calibration.force_from_dp"),
    ("softgrip.cli", "make_plan", "planner.make_plan"),
    ("softgrip.cli", "execute_plan", "planner.execute_plan"),
    ("softgrip.cli", "run_probe", "probing.run_probe"),
    ("softgrip.planner", "run_probe", "probing.run_probe"),
    ("softgrip.probing", "detect_contact", "probing.detect_contact"),
    ("softgrip.probing", "probe", "probing.probe"),
    ("softgrip.probing", "GripperSim.close_to", "probing.close_to"),
    ("softgrip.probing", "GripperSim.true_equilibrium", "probing.true_equilibrium"),
    ("softgrip.probing", "solve_equilibrium", "contact.solve_equilibrium"),
    ("softgrip.pneumatics", "PressureSensor.read_avg", "pneumatics.read_avg"),
]

# (module, attribute, counter key): key is "<layer>.<function>@<calling module>".
COUNTS = [
    ("softgrip.contact", "pressure_at_angle", "pneumatics.pressure_at_angle@contact"),
    ("softgrip.probing", "pressure_at_angle", "pneumatics.pressure_at_angle@probing"),
    ("softgrip.calibration", "pressure_at_angle", "pneumatics.pressure_at_angle@calibration"),
    ("softgrip.contact", "joint_torque", "pneumatics.joint_torque@contact"),
    ("softgrip.calibration", "joint_torque", "pneumatics.joint_torque@calibration"),
    ("softgrip.contact", "tip_extent", "geometry.tip_extent@contact"),
    ("softgrip.probing", "tip_extent", "geometry.tip_extent@probing"),
    ("softgrip.geometry", "tip_extent", "geometry.tip_extent@geometry"),
    ("softgrip.contact", "tip_extent_inverse", "geometry.tip_extent_inverse@contact"),
    ("softgrip.calibration", "interp_dp", "calibration.interp_dp@calibration"),
    ("softgrip.calibration", "interp_torque", "calibration.interp_torque@calibration"),
]

LAYERS = ("cli", "config", "calibration", "planner", "probing", "contact", "pneumatics", "geometry")
REGIMES = ("no_resistance", "free_bend", "bracketed", "saturated")

# Every per-layer metric as (name, unit, better). Counts are totals over the
# traced pass, *_ms are milliseconds per command, *_us_p50 are per-call medians.
PER_LAYER = [
    *((f"contact.solve_calls.{r}", "count", "lower") for r in REGIMES),
    *((f"contact.solve_us_p50.{r}", "us", "lower") for r in REGIMES),
    ("contact.self_ms", "ms", "lower"),
    ("contact.pressure_evals_per_solve", "ratio", "lower"),
    ("pneumatics.read_avg_calls", "count", "lower"),
    ("pneumatics.read_avg_us_p50", "us", "lower"),
    ("pneumatics.samples_drawn", "count", "lower"),
    ("pneumatics.read_avg_self_ms", "ms", "lower"),
    ("pneumatics.pressure_at_angle_calls", "count", "lower"),
    ("pneumatics.joint_torque_calls", "count", "lower"),
    ("geometry.tip_extent_calls", "count", "lower"),
    ("geometry.tip_extent_inverse_calls", "count", "lower"),
    ("calibration.locked_sweep_ms", "ms", "lower"),
    ("calibration.regulated_sweep_ms", "ms", "lower"),
    ("calibration.hysteresis_sweep_ms", "ms", "lower"),
    ("calibration.write_csv_ms", "ms", "lower"),
    ("calibration.angle_from_dp_calls", "count", "lower"),
    ("calibration.angle_from_dp_us_p50", "us", "lower"),
    ("calibration.interp_dp_calls", "count", "lower"),
    ("calibration.table_builds_per_op", "ratio", "lower"),
    ("calibration.self_ms", "ms", "lower"),
    ("probing.run_probe_ms", "ms", "lower"),
    ("probing.self_ms", "ms", "lower"),
    ("probing.approach_steps_per_probe", "ratio", "lower"),
    ("probing.solves_per_probe", "ratio", "lower"),
    ("probing.useful_solve_ratio", "ratio", "higher"),
    ("planner.execute_plan_ms", "ms", "lower"),
    ("planner.self_ms", "ms", "lower"),
    ("planner.probes_per_op", "ratio", "lower"),
    ("config.load_ms", "ms", "lower"),
    ("config.self_ms", "ms", "lower"),
    ("cli.command_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.bytes_written_per_op", "B", "lower"),
    # traced minus untraced commands per second over the same commands
    ("trace.overhead_ops_per_s", "1/s", "higher"),
]


def classify_regime(result) -> str:
    """Solver regime of an EquilibriumResult, read from the result alone.

    saturated: the spring dominates everywhere (flagged by the solver).
    no_resistance: the finger does not bend at all.
    free_bend: it bends inside the fabric dead zone and carries no force.
    bracketed: a torque balance beyond the dead zone was bracketed and bisected.
    """
    if result.saturated:
        return "saturated"
    if result.alpha_star == 0.0:
        return "no_resistance"
    if result.force == 0.0:
        return "free_bend"
    return "bracketed"


def _settle_reads(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["n"]


# what a span records about its call, by span name
DETAILS = {
    "contact.solve_equilibrium": lambda args, kwargs, result: classify_regime(result),
    "pneumatics.read_avg": _settle_reads,
    "cli.atomic_write": lambda args, kwargs, result: len(args[1].encode()),  # bytes written
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class LayerTracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, command id, detail]
        self.spans: list = []
        self.counts: Counter = Counter()
        self.command_id = -1
        self._stack: list = []
        self._saved: list = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, path, key in COUNTS:
            self._patch(module_name, path, lambda fn, key=key: self._counting(fn, key))
        for module_name, path, name in SPANS:
            self._patch(module_name, path, lambda fn, name=name: self._spanning(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, module_name, path, make_wrapper):
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _counting(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanning(self, fn, name):
        spans, stack = self.spans, self._stack
        detail = DETAILS.get(name)

        def spanned(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command_id, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if detail is not None:
                span[5] = detail(args, kwargs, result)
            return result

        return spanned

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, cmd, detail) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": t0, "end": t1, "parent": parent, "command": cmd, "detail": detail}
                    )
                    + "\n"
                )

    def self_times(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def layer_self_seconds(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for span, own in zip(self.spans, self.self_times()):
            out[span[0].split(".", 1)[0]] += own
        return out

    def metrics(self, commands: int) -> dict:
        """Per-layer metrics of a traced pass over ``commands`` CLI commands.

        ``*_calls`` and other counts are totals over the pass; ``*_ms`` are
        milliseconds per command; ``*_us_p50`` is the median microseconds per call.
        """
        spans = self.spans
        own = self.self_times()
        by_name: dict = {}
        for i, span in enumerate(spans):
            by_name.setdefault(span[0], []).append(i)

        def calls(name):
            return len(by_name.get(name, ()))

        def per_cmd_ms(name):
            return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ())) * 1e3 / commands

        def p50_us(indices):
            return statistics.median(spans[i][2] - spans[i][1] for i in indices) * 1e6 if indices else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        def with_parent(name, parent):
            return [i for i in by_name.get(name, ()) if spans[i][3] >= 0 and spans[spans[i][3]][0] == parent]

        def counted(prefix):
            return sum(v for k, v in self.counts.items() if k.split("@")[0] == prefix)

        layer_ms = {k: v * 1e3 / commands for k, v in self.layer_self_seconds().items()}
        m = {}
        solves = by_name.get("contact.solve_equilibrium", [])
        for regime in REGIMES:
            hits = [i for i in solves if spans[i][5] == regime]
            m[f"contact.solve_calls.{regime}"] = len(hits)
            m[f"contact.solve_us_p50.{regime}"] = p50_us(hits)
        m["contact.self_ms"] = layer_ms["contact"]
        m["contact.pressure_evals_per_solve"] = ratio(
            self.counts["pneumatics.pressure_at_angle@contact"], len(solves)
        )

        reads = by_name.get("pneumatics.read_avg", [])
        m["pneumatics.read_avg_calls"] = len(reads)
        m["pneumatics.read_avg_us_p50"] = p50_us(reads)
        m["pneumatics.samples_drawn"] = sum(spans[i][5] for i in reads)
        m["pneumatics.read_avg_self_ms"] = sum(own[i] for i in reads) * 1e3 / commands
        m["pneumatics.pressure_at_angle_calls"] = counted("pneumatics.pressure_at_angle")
        m["pneumatics.joint_torque_calls"] = counted("pneumatics.joint_torque")

        m["geometry.tip_extent_calls"] = counted("geometry.tip_extent")
        m["geometry.tip_extent_inverse_calls"] = counted("geometry.tip_extent_inverse")

        m["calibration.locked_sweep_ms"] = per_cmd_ms("calibration.locked_sweep")
        m["calibration.regulated_sweep_ms"] = per_cmd_ms("calibration.regulated_sweep")
        m["calibration.hysteresis_sweep_ms"] = per_cmd_ms("calibration.hysteresis_sweep")
        m["calibration.write_csv_ms"] = per_cmd_ms("calibration.write_csv")
        inversions = by_name.get("calibration.angle_from_dp", [])
        m["calibration.angle_from_dp_calls"] = len(inversions)
        m["calibration.angle_from_dp_us_p50"] = p50_us(inversions)
        m["calibration.interp_dp_calls"] = counted("calibration.interp_dp")
        m["calibration.table_builds_per_op"] = calls("calibration.locked_sweep") / commands
        m["calibration.self_ms"] = layer_ms["calibration"]

        probes = calls("probing.run_probe")
        m["probing.run_probe_ms"] = per_cmd_ms("probing.run_probe")
        m["probing.self_ms"] = layer_ms["probing"]
        m["probing.approach_steps_per_probe"] = ratio(
            len(with_parent("probing.close_to", "probing.detect_contact")), probes
        )
        m["probing.solves_per_probe"] = ratio(len(solves), probes)
        m["probing.useful_solve_ratio"] = ratio(
            len(with_parent("contact.solve_equilibrium", "probing.close_to")), len(solves)
        )

        m["planner.execute_plan_ms"] = per_cmd_ms("planner.execute_plan")
        m["planner.self_ms"] = layer_ms["planner"]
        m["planner.probes_per_op"] = len(with_parent("probing.run_probe", "planner.execute_plan")) / commands

        m["config.load_ms"] = per_cmd_ms("config.load_config")
        m["config.self_ms"] = layer_ms["config"]
        m["cli.command_ms"] = per_cmd_ms("cli.main")
        m["cli.self_ms"] = layer_ms["cli"]
        m["cli.bytes_written_per_op"] = sum(spans[i][5] for i in by_name.get("cli.atomic_write", ())) / commands
        return m
