"""Run workloads over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 bench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs ``bench/run.py`` once per (workload, seed), one after another, with
run_seconds from BENCHMARK.json, and prints for every end-to-end metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
distance between the quartiles as a share of the median.  ``--out`` writes
the same figures as JSON, with the commit, Python version and CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--out")
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    report = {"commit": _commit(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "run_seconds": spec["run_seconds"],
              "how_to_run": "python3 bench/run.py --workload NAME --seed N "
                            f"--seconds {spec['run_seconds']} --trace 0",
              "seeds": args.seeds, "workloads": {}}
    for name in names:
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        summary = {}
        for metric, vs in values.items():
            q1, median, q3 = statistics.quantiles(vs, n=4)
            summary[metric] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median, "values": vs}
            print(f"{name:15s} {metric:16s} median {median:.6g} "
                  f"spread {(q3 - q1) / median:.4f}", flush=True)
        report["workloads"][name] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
