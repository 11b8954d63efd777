"""The eqcartan benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (bench/workloads.py says why each exists): cartan-sparse,
classes-denseq, f2-sweep, cli-docs.  Each is a closed loop with one caller:
the next instance starts only after the previous one has finished, and at
most one child process runs at a time.  A run does the number of rounds that
take --seconds on the reference host (``Workload.round_s``), so every run of a
workload measures the same mix of instances.

Every time reported is a wall time scaled to a host of fixed speed
(bench/clock.py): the shared hosts this runs on change speed by a quarter or
more for seconds to tens of seconds at a time, and a fixed stdlib loop timed
between and inside instances tracks that change.  The summary lines give the
instances' wall time and the host's speed beside the scaled figures.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs the same rounds twice, untraced and then traced, and
reports per-layer self times and work counts per traced instance, and the
tracing overhead.  Either way the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it are a
readable summary.  The benchmark exits with 2 and prints no result when the
eqcartan sources are not beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

from clock import Clock
from tracing import Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 11     # fresh interpreters timed per run, after one warm-up
# Runs continue past their rounds until this many instances ran: ten must
# lie beyond the tail percentile, and with fewer than 16 it would sit among
# the cheapest instances of cartan-sparse (bench/workloads.py sizes every
# mix so that at --seconds 18 no extra round is needed).
MIN_SAMPLES = 16

END_TO_END = {
    "instances_per_s": "1/s",
    "instance_s_p50": "s",
    "instance_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "certified_share": "share",
}

PER_LAYER = {
    "linalg.row_reduce.s": "s/instance",
    "linalg.row_reduce.calls": "count/instance",
    "linalg.row_reduce.cells": "count/instance",
    "linalg.row_reduce.pivots": "count/instance",
    "linalg.solve.s": "s/instance",
    "linalg.solve.calls": "count/instance",
    "linalg.kernel_basis.s": "s/instance",
    "linalg.undetermined": "count/instance",
    "cartan.solve_iota.s": "s/instance",
    "cartan.identity_report.s": "s/instance",
    "cartan.gamma_q.calls": "count/instance",
    "cartan.gamma_u.calls": "count/instance",
    "cartan.induced_connection.s": "s/instance",
    "cartan.flatten_equivariant.s": "s/instance",
    "complexes.cohomology.s": "s/instance",
    "complexes.cohomology.calls": "count/instance",
    "complexes.dvr_diagonalize.s": "s/instance",
    "complexes.dvr_diagonalize.calls": "count/instance",
    "complexes.dvr_diagonalize.cells": "count/instance",
    "complexes.u_module_decomposition.s": "s/instance",
    "complexes.les_consistency.s": "s/instance",
    "complexes.compose.calls": "count/instance",
    "novikov.elem_mul.calls": "count/instance",
    "novikov.elem_mul.term_products": "count/instance",
    "novikov.invert_truncated.s": "s/instance",
    "novikov.invert_truncated.calls": "count/instance",
    "novikov.invert_truncated.out_terms": "count/instance",
    "novikov.useries_mul.calls": "count/instance",
    "novikov.elem_add.calls": "count/instance",
    "novikov.build.calls": "count/instance",
    "novikov.setup_eq.calls": "count/instance",
    "quantum.uq_identity_check.s": "s/instance",
    "quantum.star_useries.calls": "count/instance",
    "finite2.verify_relations.s": "s/instance",
    "finite2.assemble_and_check.s": "s/instance",
    "schema.load_document.s": "s/instance",
    "schema.objects.s": "s/instance",
    "schema.dumps.s": "s/instance",
    "cli.main.s": "s/instance",
    "cli.process_s": "s/instance",
    "cli.import_s": "s/instance",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(modules, clock):
    """Median import time of the workload's modules in a fresh interpreter,
    scaled by the host speed around each probe.

    The first probe is discarded: it may compile the bytecode cache."""
    code = ("import time; t = time.perf_counter(); import "
            + ", ".join(modules) + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES + 1):
        with clock.timed() as timing:
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 cwd=ROOT, capture_output=True, text=True,
                                 check=True, timeout=60).stdout
        # the probe's own import time, less the share of the probe the
        # speed samples took, at the reference host's speed
        times.append(float(out) * timing.scaled / timing.elapsed)
    return statistics.median(times[1:])


def run_instance(inst, tracer, clock):
    """(label, scaled seconds of program work, failure reason or None,
    wall seconds, speed samples taken inside the instance included)."""
    span = tracer.instance() if tracer else nullcontext()
    failure = None
    with clock.timed() as timing:
        try:
            with span:
                out = inst.run()
        except Exception as exc:  # a crash is a failed instance, not a verdict
            failure = f"{type(exc).__name__}: {exc}"
    if failure is None:
        try:
            failure = inst.check(out)
        except (KeyError, TypeError, ValueError) as exc:
            failure = f"unreadable verdict: {exc!r}"
    return inst.label, timing.scaled, failure, timing.elapsed


def run_rounds(workload, seed, ctx, rounds, clock, tracer=None,
               min_samples=1):
    """Run ``rounds`` whole rounds, and more while fewer than
    ``min_samples`` instances ran."""
    records = []
    r = 0
    while r < rounds or len(records) < min_samples:
        for inst in workload.round(seed, r, ctx):
            records.append(run_instance(inst, tracer, clock))
        r += 1
    return records, r


def tail(times):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(times)
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs)


def end_to_end(records, setup_s, peak_rss_mb):
    times = [t for _, t, _, _ in records]
    certified = sum(1 for _, _, f, _ in records if f is None)
    value, pct, count = tail(times)
    metrics = {
        "instances_per_s": certified / sum(times),
        "instance_s_p50": statistics.median(times),
        "instance_s_tail": value,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "certified_share": certified / len(records),
    }
    notes = [f"instance_s_tail is p{pct:.2f} of {count} samples",
             f"fail_share = {len(records) - certified}/{len(records)}"]
    return metrics, notes


def per_layer(records, span_files, untraced_s, cli):
    """Per-layer metrics per traced instance, from the written span files.

    Span times are wall times (the speed samples taken inside a span
    included); they are scaled by the traced instances' own ratio of scaled
    to wall time, so that they add up like the instance times."""
    self_s = {}
    counts = {}
    import_s = 0.0
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            dump = json.load(fh)
        for name, s in self_times(dump["spans"]).items():
            self_s[name] = self_s.get(name, 0.0) + s
        for name, c in dump["counts"].items():
            counts[name] = counts.get(name, 0) + c
        import_s += dump.get("import_s", 0.0)
    traced_s = sum(t for _, t, _, _ in records)
    scale = traced_s / sum(wall for _, _, _, wall in records)
    n = len(records)
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            metrics[name] = traced_s / untraced_s
        elif name == "cli.process_s":
            # each cli-docs instance is one process, timed from outside
            metrics[name] = (traced_s if cli else 0.0) / n
        elif name == "cli.import_s":
            metrics[name] = scale * import_s / n
        elif name.endswith(".s"):
            metrics[name] = scale * self_s.get(name[:-2], 0.0) / n
        else:
            metrics[name] = counts.get(name, 0) / n
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "eqcartan" / "__init__.py").is_file():
        print(f"bench: no eqcartan sources at {SRC}", file=sys.stderr)
        return 2
    # the workloads are defined at the default truncation orders
    for var in ("EQCARTAN_Q_ORDER", "EQCARTAN_U_ORDER"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    # one core for the speed samples, the instances and their child
    # processes, so that the samples measure the core the work runs on
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    workdir = ROOT / ".bench_work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workload, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def _run(args, workload, workloads, workdir):
    runner = workloads.CliRunner(str(ROOT), str(workdir))
    ctx = {"cli": runner}
    in_process = workload.name != "cli-docs"
    rounds = max(1, round(args.seconds / workload.round_s))
    clock = Clock()
    if args.trace:
        rounds = max(1, rounds // 2)
        first, _ = run_rounds(workload, args.seed, ctx, rounds, clock)
        tracer = Tracer()
        tracer.install()
        runner.trace = True
        try:
            records, _ = run_rounds(workload, args.seed, ctx, rounds,
                                    clock, tracer=tracer)
        finally:
            tracer.uninstall()
        own = workdir / "trace.json"
        tracer.dump(own)
        metrics = per_layer(records, [own, *runner.trace_files],
                            sum(t for _, t, _, _ in first), not in_process)
        units = PER_LAYER
        notes = [f"{rounds} rounds untraced, then the same rounds traced; "
                 "per-layer values are per traced instance"]
        records = first + records
    else:
        setup_s = measure_setup(workload.modules, clock)
        records, rounds = run_rounds(workload, args.seed, ctx, rounds,
                                     clock, min_samples=MIN_SAMPLES)
        if in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = runner.peak_rss_kb
        metrics, notes = end_to_end(records, setup_s, peak_kb / 1024)
        units = END_TO_END
        notes.insert(0, f"{rounds} rounds")
    failures = [(label, f) for label, _, f, _ in records if f is not None]
    print(f"workload {workload.name}, seed {args.seed}: {len(records)} "
          f"instances, {len(failures)} failed")
    print(f"  {sum(w for _, _, _, w in records):.3f} s of wall time; the "
          f"host ran at {clock.speed():.3f} of the reference speed")
    for note in notes:
        print(f"  {note}")
    for label, f in failures[:10]:
        print(f"  FAILED {label}: {f}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
