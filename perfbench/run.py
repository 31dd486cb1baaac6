"""End-to-end and per-layer benchmark of the softgrip CLI.

Drives ``softgrip.cli.main`` in-process, from one thread, as a closed loop with
one client: the next command starts only after the previous one returned and
its outputs were checked. Run from the repository root:

    python3 perfbench/run.py --workload fruit_scenario --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` replays a fixed
command prefix untraced and then traced, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

from layertrace import LAYERS, PER_LAYER, LayerTracer
from workloads import QUALITY_METRICS, WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"  # generated configs and command outputs; removed at exit
OUT_ROOT = ROOT / ".perfbench_out"  # result records and span files

SETUP_REPEATS = 9  # fresh interpreters per run, spread over the window; setup_s is their median
WARMUP = 2  # commands run before timing; the timed loop must reproduce their outputs
RERUN_EVERY = 50  # every 50th command (offset 25) is re-run after the window

REFERENCE_LOOPS = 1500  # iterations of the speed probe loop; about 0.15 ms at full speed

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import softgrip.cli
from softgrip import config
for path in sys.argv[2:]:
    cfg = config.load_config(path)
    config.build_geometry(cfg)
    config.build_ring(cfg)
    config.build_sensor(cfg)
    config.build_probe_config(cfg)
    for name in cfg["fixtures"]:
        config.build_fixture(cfg, name)
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)), flush=True)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class SetupProbe:
    """Times a fresh interpreter from spawn until it has imported softgrip.cli
    and loaded and validated the workload's configs."""

    def __init__(self, config_paths: list, tmpdir: Path):
        self.argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *config_paths]
        self.env = dict(os.environ, TMPDIR=str(tmpdir))

    def measure(self) -> float:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=60, env=self.env, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        return float(proc.stdout.strip().splitlines()[-1]) - start


class HostSpeed:
    """Corrects timings for the machine's changing speed.

    On a shared host the CPU can run the same work up to twice as slowly for
    stretches of seconds, and how much of a run falls into such stretches
    differs from run to run. A fixed pure-Python loop is timed before the
    first and after every timed event (a command or a set-up sample); each
    event's time is multiplied by the run's fastest loop time over the mean
    loop time on either side of the event. The uncorrected figures are
    printed in the notes.
    """

    def __init__(self):
        self.loops = []

    def probe(self) -> None:
        """Time the loop three times and keep the fastest, which drops a probe
        that was itself interrupted."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            x = 0.0
            for k in range(REFERENCE_LOOPS):
                x += math.sin(k * 1e-3)
            times.append(time.perf_counter() - start)
        self.loops.append(min(times))

    def factors(self) -> list:
        """Correction for the event between probes k and k + 1, for each k."""
        fast = min(self.loops)
        return [2.0 * fast / (a + b) for a, b in zip(self.loops, self.loops[1:])]


class Client:
    """Runs one CLI command at a time and snapshots its output directory."""

    def __init__(self, cli_module, workload, workdir: Path):
        self.cli = cli_module
        self.workload = workload
        self.out = workdir / "out"

    def run(self, i: int, out: Path | None = None):
        """Execute command i; returns (command, exit code, seconds, files, error)."""
        cmd = self.workload.command(i)
        self.workload.write_config(cmd)
        out = out or self.out
        shutil.rmtree(out, ignore_errors=True)
        argv = [*cmd.argv, "--out", str(out)]
        sink = io.StringIO()
        error = ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.cli.main(argv)  # looked up per call so a tracer's patch applies
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a failed command, not a failed benchmark
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()} if out.is_dir() else {}
        return cmd, rc, elapsed, files, error

    def judge(self, cmd, rc, files, error) -> Outcome:
        if error:
            return Outcome(False, error)
        return self.workload.check(cmd, rc, files)


def output_digest(files: dict) -> str:
    h = hashlib.sha256()
    for name, data in sorted(files.items()):
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def end_to_end(client: Client, seconds: int, setup: SetupProbe):
    wl = client.workload
    reference = {i: output_digest(client.run(i)[3]) for i in range(WARMUP)}
    resample = {}
    outcomes = []
    events = []  # (is a set-up sample, raw seconds), one per gap between speed probes
    speed = HostSpeed()
    gc.collect()
    speed.probe()
    start = time.perf_counter()
    i = 0
    while i < wl.min_commands or time.perf_counter() - start < seconds:
        # set-up samples are spread over the window, each between two commands
        taken = sum(e[0] for e in events)
        if taken < SETUP_REPEATS and taken * seconds / SETUP_REPEATS <= time.perf_counter() - start:
            events.append((True, setup.measure()))
            speed.probe()
        cmd, rc, elapsed, files, error = client.run(i)
        speed.probe()
        events.append((False, elapsed))
        outcome = client.judge(cmd, rc, files, error)
        if outcome.ok and i in reference and output_digest(files) != reference[i]:
            outcome = Outcome(False, "output differs from its warm-up run")
        if i % RERUN_EVERY == RERUN_EVERY // 2:
            resample[i] = output_digest(files)
        outcomes.append(outcome)
        i += 1
    window = time.perf_counter() - start
    while sum(e[0] for e in events) < SETUP_REPEATS:
        events.append((True, setup.measure()))
        speed.probe()
    rerun_dir = client.out.parent / "rerun"
    for j, digest in resample.items():
        if outcomes[j].ok and output_digest(client.run(j, rerun_dir)[3]) != digest:
            outcomes[j] = Outcome(False, "sampled re-run differs")

    factors = speed.factors()
    raw_setup = [t for is_setup, t in events if is_setup]
    raw_lat = [t for is_setup, t in events if not is_setup]
    setup_times = [t * f for (is_setup, t), f in zip(events, factors) if is_setup]
    latencies = [t * f for (is_setup, t), f in zip(events, factors) if not is_setup]
    n = len(latencies)
    g = wl.latency_group

    def grouped(values):
        return [sum(values[k:k + g]) * 1e3 for k in range(0, n - n % g, g)]

    samples = grouped(latencies)
    raw_samples = grouped(raw_lat)
    failed = [(j, o.reason) for j, o in enumerate(outcomes) if not o.ok]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "op_p50_ms": (float(numpy.percentile(samples, 50)), "ms"),
        "op_p90_ms": (float(numpy.percentile(samples, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - len(failed) / n, "frac"),
    }
    for name, (unit, not_applicable) in QUALITY_METRICS.items():
        if name == wl.quality_metric:
            value = wl.quality([o.quality if o.ok else None for o in outcomes[: wl.min_commands]])
        else:
            value = not_applicable
        metrics[name] = (value, unit)
    notes = [
        f"commands: {n} in a {window:.1f} s window (closed loop, 1 client, output checks excluded from latency)",
        f"latency samples: {len(samples)} ({'one per command' if g == 1 else f'one per {g} consecutive commands'})",
        f"failed_frac: {len(failed) / n:.6g} ({len(failed)} of {n})",
        f"re-runs compared: {WARMUP + len(resample)}",
        f"{wl.quality_metric}: over the first {wl.min_commands} commands; other quality metrics do not apply here "
        "and report their acceptance threshold",
        f"speed correction: median {statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}",
        f"uncorrected: setup_s {statistics.median(raw_setup):.4f}, ops_per_s {n / sum(raw_lat):.4f}, "
        f"op_p50_ms {numpy.percentile(raw_samples, 50):.4f}, op_p90_ms {numpy.percentile(raw_samples, 90):.4f}",
        f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}",
    ]
    return metrics, n, failed, notes


def traced(client: Client, spans_path: Path):
    wl = client.workload
    count = wl.trace_commands
    client.run(0)
    gc.collect()
    untraced, digests = [], []
    for i in range(count):
        _, _, elapsed, files, _ = client.run(i)
        untraced.append(elapsed)
        digests.append(output_digest(files))

    tracer = LayerTracer()
    tracer.install()
    traced_times, failed = [], []
    try:
        gc.collect()
        for i in range(count):
            tracer.command_id = i
            cmd, rc, elapsed, files, error = client.run(i)
            traced_times.append(elapsed)
            outcome = client.judge(cmd, rc, files, error)
            if outcome.ok and output_digest(files) != digests[i]:
                outcome = Outcome(False, "traced output differs from the untraced run")
            if not outcome.ok:
                failed.append((i, outcome.reason))
    finally:
        tracer.uninstall()
    tracer.write_jsonl(spans_path)

    metrics = tracer.metrics(count)
    metrics["trace.overhead_ops_per_s"] = count / sum(traced_times) - count / sum(untraced)
    layer_s = tracer.layer_self_seconds()
    total = sum(layer_s.values())
    notes = [
        f"traced commands: {count} (fixed prefix of the stream, replayed untraced then traced)",
        f"untraced ops_per_s: {count / sum(untraced):.4f}; traced: {count / sum(traced_times):.4f}",
        "layer self-time share of traced command time: "
        + ", ".join(f"{layer} {layer_s[layer] / total:.1%}" for layer in LAYERS),
        f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
    ]
    return {name: (metrics[name], unit) for name, unit, _ in PER_LAYER}, count, failed, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "softgrip" / "cli.py").is_file():
        print(f"perfbench: no softgrip sources under {SRC}", file=sys.stderr)
        return 2
    env = environment(args)
    print("env: " + json.dumps(env, sort_keys=True), flush=True)

    WORK_ROOT.mkdir(exist_ok=True)
    OUT_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    tmpdir = workdir / "tmp"
    tmpdir.mkdir()
    saved_tempdir = tempfile.tempdir
    try:
        workload = WORKLOADS[args.workload](ROOT, workdir, args.seed)
        sys.path.insert(0, str(SRC))
        import softgrip.cli

        tempfile.tempdir = str(tmpdir)  # the CLI's own temp files stay inside the checkout
        client = Client(softgrip.cli, workload, workdir)
        stem = f"{args.workload}_seed{args.seed}"
        if args.trace:
            metrics, attempted, failed, notes = traced(client, OUT_ROOT / f"spans_{stem}.jsonl")
        else:
            metrics, attempted, failed, notes = end_to_end(client, args.seconds, SetupProbe(workload.setup_configs(), tmpdir))
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    for index, reason in failed[:10]:
        print(f"FAILED command {index}: {reason}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, env=env, notes=notes, failures=failed[:100])
    (OUT_ROOT / f"result_{stem}_trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
