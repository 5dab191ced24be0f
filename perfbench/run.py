"""The repository's benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 45 \
        --trace 0

Workloads: ``sweep-cold`` and ``service-warm`` (see
``perfbench/workloads.py`` and ``BENCHMARK.json``). The seed draws the
inputs; the timed part repeats the workload's unit for about
``--seconds`` (at least twice) and reports the best repetition of each
operation, in host CPU seconds. Every output is checked against the
expected statistics in ``perfbench/expected``.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` a separate traced unit
gives the per-layer metrics (plus ``trace.overhead``) and its spans are
written under ``.perfbench/traces``. Metric names and units are those
``BENCHMARK.json`` declares. The line before it records the
environment (nproc, Python, numpy, commit, source stamp) and the drawn
inputs. The exit code is 0 only when every output was correct.

Ambient ``REPRO_*`` variables are removed before the program is
imported, so a shell with ``REPRO_SOA=0`` or ``REPRO_SAMPLE`` set cannot
change what is measured. The serial engine (``jobs=1``) is used
throughout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Scratch space for caches, traces and server state, relative to the
#: repository root (ignored by git).
WORK_DIR = ".perfbench"

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_TRIALS = 3

#: Units after which ``peak_rss_mb`` is read. The peak keeps growing a
#: little with every unit (the sweep server keeps every job), so a fixed
#: count keeps it independent of how many units the host's speed lets a
#: run fit.
RSS_AFTER_UNITS = 2


def strip_environment() -> list[str]:
    """Remove every ``REPRO_*`` variable; returns the removed names."""
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    return removed


def environment_record(root: Path, stripped: list[str]) -> dict:
    from repro.harness.cache import version_stamp

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "source_stamp": version_stamp(),
        "stripped_env": stripped,
    }


def measure(workload, seconds: float,
            min_units: int) -> tuple[list, float | None]:
    """Repeat the unit while another one is expected to end within
    ``seconds``, and at least ``min_units`` times. Returns the units and
    the peak RSS after ``RSS_AFTER_UNITS`` of them (None if fewer ran)."""
    units = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        units.append(workload.unit())
        if len(units) == RSS_AFTER_UNITS:
            peak_rss_mb = workload.peak_rss_mb()
        elapsed = time.perf_counter() - start
        if (len(units) >= min_units
                and elapsed * (len(units) + 1) / len(units) > seconds):
            return units, peak_rss_mb


def traced(workload, seconds: float, trace_path: Path,
           names: list[str]) -> dict[str, float]:
    """Untraced units for half the time, then one traced unit."""
    import layers
    import tracing

    baseline, _ = measure(workload, seconds / 2, min_units=1)
    tracer = tracing.Tracer()
    unit, server_summary = workload.traced_unit(tracer, trace_path)
    tracer.write(trace_path)
    summary = layers.merge_summaries(tracer.summary(), server_summary or {})
    # CPU seconds per unit of work, traced over untraced (best unit).
    overhead = (unit.cpu_s / unit.work) / min(u.cpu_s / u.work
                                              for u in baseline)
    return layers.per_layer(summary, unit, overhead, names)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few-second smoke version of the "
                             "workload (self-tests)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    stripped = strip_environment()
    sys.path.insert(0, str(root / "src"))
    bench = json.loads((root / "BENCHMARK.json").read_text())

    import gate
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (want one "
              f"of {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    checks = gate.Gate(gate.load(cls.expected))
    workdir = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    workload = cls(root, workdir, args.seed, args.size, checks)
    samples = {}
    try:
        setups = workload.setup(
            1 if args.trace or args.size == "tiny" else SETUP_TRIALS)
        if args.trace:
            trace_path = (root / WORK_DIR / "traces"
                          / f"{args.workload}.spans")
            declared = bench["per_layer"]
            values = traced(workload, args.seconds, trace_path,
                            [m["name"] for m in declared])
        else:
            declared = bench["end_to_end"]
            units, peak_rss_mb = measure(workload, args.seconds,
                                         min_units=RSS_AFTER_UNITS)
            values = {"setup_s": statistics.median(setups),
                      "peak_rss_mb": peak_rss_mb,
                      **workload.summarize(units)}
            samples = {"setups": len(setups), "units": len(units),
                       "ops_per_unit": len(units[0].op_cpu_s)}
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "inputs": workload.describe(),
        "work_unit": workload.work_unit,
        "samples": samples,
        "env": environment_record(root, stripped),
        "mismatches": checks.mismatches,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
