"""Run-to-run spread of the end-to-end metrics, checked against BENCHMARK.json.

Runs the benchmark once per seed on each named workload (one run at a time)
and prints, per metric, the median and the distance between the first and
third quartiles as a share of the median, next to a third of the metric's
bound. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 fruit_scenario contact_search
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=None, help="defaults to run_seconds")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    all_ok = True
    for workload in args.workloads:
        values: dict = {}
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run([sys.executable, *cmd[1:]], cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed commands", file=sys.stderr)
                all_ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            all_ok &= ok
            print(f"{workload:18s} {metric['name']:22s} median {med:12.6g}  spread {spread:7.2%}  "
                  f"third of bound {metric['bound'] / 3:7.2%}  {'ok' if ok else 'WIDE'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
