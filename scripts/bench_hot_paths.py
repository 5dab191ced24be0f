#!/usr/bin/env python3
"""Microbenchmarks for the simulator and compressor hot paths.

Measures the three paths the perf work targets:

* ``sim`` — end-to-end `run_app` wall time and simulated cycles per
  second for a memory-bound CABA run and a compute-leaning Base run.
* ``cycle_loop`` — per-run ``Simulator.run()`` wall clock on the
  Table 1 machine with the issue core (memoized, class-screened scan)
  vs. the same core reduced to the plain per-warp scan (no memos, no
  screening), everything else shared and both in one process. Gated
  two ways: the plain scan must not regress by more than 3% over the
  checked-in baseline, and the core must hold the 2x per-run speedup
  acceptance floor (geomean over the benchmark apps).
* ``cycle_loop_sampled`` — the same per-run ``Simulator.run()`` unit,
  exact vs. interval-sampled (``repro.gpu.sampling``) at the default
  10 % detail fraction, at full trace scale (the calibrated operating
  point). Gated: sampled runs must hold a 3x speedup geomean over the
  exact path *and* stay within the documented 2 % error bound on
  IPC and bandwidth utilization.
* ``bdi`` — BDI compress+decompress round-trip throughput over
  generated application lines (the byte-level inner loop).
* ``subroutines`` — assist-warp subroutine construction cost (the
  per-run `SubroutineLibrary` path).
* ``plane_build`` — batch ``size_table`` kernels vs. the scalar
  ``compress()`` loop, per algorithm.
* ``figure_sweep`` — a cold multi-design figure sweep (three apps x
  five designs plus the Fig. 11 compression study) with compression
  planes on vs. off.
* ``trace_overhead`` — the same runs with the observability layer
  attached (``trace=True``), reported as a ratio over the untraced
  time. Gated two ways: the ratio itself must stay under 1.20x (the
  batched ledger keeps attribution cheap when tracing is *on*), and
  the *untraced* path is gated against the checked-in baseline — the
  observability hooks are designed to be free when disabled, so
  tracing-disabled wall time must stay within 3% of the recorded
  ``after`` numbers.
* ``engine_dispatch`` — a multi-spec batch through the fault-tolerant
  per-future engine vs. a raw ``pool.map`` of the same batch, measured
  back to back in the same process. Gated: the engine's retry/timeout
  bookkeeping must keep dispatch within 3% of the ``pool.map``
  baseline.

Simulator results are merged into ``BENCH_runner.json`` under
``--label``; the compression sections are written to
``BENCH_compression.json`` and gated against the checked-in baseline —
the script exits nonzero if the sweep speedup drops below the 2x
acceptance floor or regresses more than 10% from the baseline. Refresh
the baseline intentionally with ``--update-baseline``.

    python scripts/bench_hot_paths.py --label after

Run with a warm process (no persistent cache, no memoized runs) so the
numbers reflect simulation cost, not cache hits.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import time

# The benchmark must measure real simulation work, never cache hits.
os.environ["REPRO_CACHE"] = "0"

from repro import design as designs  # noqa: E402
from repro.compression import make_algorithm  # noqa: E402
from repro.core.params import CabaParams  # noqa: E402
from repro.core.subroutines import SubroutineLibrary  # noqa: E402
from repro.gpu import sm as sm_mod  # noqa: E402
from repro.gpu.config import GPUConfig  # noqa: E402
from repro.gpu.sampling import SampleConfig  # noqa: E402
from repro.gpu.simulator import Simulator  # noqa: E402
from repro.harness import figures  # noqa: E402
from repro.harness.runner import (  # noqa: E402
    RunSpec,
    _make_caba_factory,
    build_image,
    clear_caches,
    geomean,
    run_app,
    run_spec,
)
from repro.workloads.apps import get_app  # noqa: E402
from repro.workloads.data_patterns import make_line_generator  # noqa: E402
from repro.workloads.tracegen import TraceScale, build_kernel  # noqa: E402

SWEEP_APPS = ("PVC", "MM", "CONS")
SWEEP_ALGORITHMS = ("bdi", "fpc", "cpack", "bestofall")


def bench_sim(repeats: int) -> dict:
    """End-to-end run_app wall time (the figure-harness unit of work)."""
    points = [("PVC", designs.caba("bdi")), ("MM", designs.base())]
    # Warm the shared line-info caches once so repeats measure the
    # simulator, not first-touch compression of the memory image.
    for app, point in points:
        run_app(app, point, use_cache=False)
    out = {}
    for app, point in points:
        best = float("inf")
        cycles = 0
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_app(app, point, use_cache=False)
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
            cycles = result.cycles
        out[f"{app}-{point.name}"] = {
            "seconds": round(best, 4),
            "cycles": cycles,
            "cycles_per_second": round(cycles / best),
        }
    return out


@contextlib.contextmanager
def plain_scan():
    """Reduce the issue core to the plain per-warp scan: no memoized
    slot outcomes and per-pc tables that screen nothing, so every live
    warp takes the full ``_try_issue`` path."""
    memo_kind, tables = sm_mod._MEMO_KIND, sm_mod.issue_tables
    sm_mod._MEMO_KIND = (0,) * len(memo_kind)
    sm_mod.issue_tables = lambda program: sm_mod.plain_tables(
        len(program.body)
    )
    try:
        yield
    finally:
        sm_mod._MEMO_KIND, sm_mod.issue_tables = memo_kind, tables


def bench_cycle_loop(repeats: int, work: float) -> dict:
    """Per-run simulator wall clock: issue core vs. plain scan.

    Unlike ``sim`` (which times the whole ``run_app`` harness on the
    small machine), this times ``Simulator.run()`` alone on the Table 1
    machine, switching the core's memos and class screening off per
    run with the kernel, image and controller factory shared — the
    ratio isolates what they buy. The two legs are interleaved (plain,
    core, plain, ...) so machine noise lands on both equally, and each
    leg keeps its best of ``repeats``. Simulated cycle counts must
    match (the byte-identity contract); a mismatch aborts the
    benchmark.
    """
    points = [("PVC", designs.caba("bdi")), ("MM", designs.base())]
    config = GPUConfig()
    scale = TraceScale(work=work)
    modes = [("reference", plain_scan), ("core", contextlib.nullcontext)]
    out: dict = {"scale_work": work, "points": {}}
    for app_name, point in points:
        profile = get_app(app_name)
        image = build_image(profile, point, config, scale)
        kernel = build_kernel(profile, config, scale)
        factory, regs = _make_caba_factory(
            point, config, CabaParams(), plane=image.plane
        )

        def one_run(mode) -> tuple[float, int]:
            with mode():
                sim = Simulator(
                    config, kernel, point, image,
                    caba_factory=factory,
                    assist_regs_per_thread=regs,
                )
                start = time.perf_counter()
                result = sim.run()
                return time.perf_counter() - start, result.stats.cycles

        # Warm the shared per-line compression caches (first touch
        # of the image is compression work, not simulation).
        one_run(contextlib.nullcontext)
        best = {name: float("inf") for name, _ in modes}
        cycles = {}
        for _ in range(repeats):
            for name, mode in modes:
                elapsed, cyc = one_run(mode)
                best[name] = min(best[name], elapsed)
                cycles[name] = cyc
        if cycles["core"] != cycles["reference"]:
            raise AssertionError(
                f"{app_name}-{point.name}: issue core and plain scan "
                f"disagree on simulated cycles "
                f"({cycles['core']} vs {cycles['reference']})"
            )
        out["points"][f"{app_name}-{point.name}"] = {
            "cycles": cycles["reference"],
            "reference_seconds": round(best["reference"], 4),
            "core_seconds": round(best["core"], 4),
            "speedup": round(best["reference"] / best["core"], 3),
        }
    out["speedup_geomean"] = round(
        geomean(e["speedup"] for e in out["points"].values()), 3
    )
    return out


def bench_cycle_loop_sampled(repeats: int) -> dict:
    """Sampled vs. exact ``Simulator.run()`` wall clock, with errors.

    Runs the ``cycle_loop`` benchmark points on the default machine
    (``GPUConfig.small()``) at full trace scale — the operating point
    the sampling engine is calibrated for (the full Table-1 machine is
    outside the certified matrix) — in exact mode and with the default
    :class:`SampleConfig` (10 % detail), sharing the kernel and image.
    Records the per-point speedup and the sampled run's relative error
    on IPC and bandwidth utilization; ``check_runner`` gates the
    speedup geomean at the 3x acceptance floor and the errors at the
    documented 2 % bound. Errors are deterministic (sampling has no
    randomness), so the error gate is exact; only the speedup side is
    subject to machine noise.
    """
    points = [("PVC", designs.caba("bdi")), ("MM", designs.base())]
    config = GPUConfig.small()
    scale = TraceScale()
    sample = SampleConfig()
    out: dict = {
        "scale_work": scale.work,
        "sample": f"{sample.warmup}:{sample.measure}:{sample.skip}",
        "detail_fraction": round(sample.detail_fraction, 4),
        "points": {},
    }
    for app_name, point in points:
        profile = get_app(app_name)
        image = build_image(profile, point, config, scale)
        kernel = build_kernel(profile, config, scale)
        factory = None
        regs = 0
        if point.uses_assist_warps:
            factory, regs = _make_caba_factory(
                point, config, CabaParams(), plane=image.plane
            )

        def one_run(sample_cfg):
            sim = Simulator(
                config, kernel, point, image,
                caba_factory=factory,
                assist_regs_per_thread=regs,
                sample=sample_cfg,
            )
            start = time.perf_counter()
            result = sim.run()
            return time.perf_counter() - start, result

        one_run(sample)  # warm the shared per-line compression caches
        modes = (("exact", None), ("sampled", sample))
        best = {name: float("inf") for name, _ in modes}
        results = {}
        for _ in range(repeats):
            for name, cfg in modes:
                elapsed, result = one_run(cfg)
                best[name] = min(best[name], elapsed)
                results[name] = result
        exact, sampled = results["exact"], results["sampled"]
        ipc_err = abs(sampled.ipc - exact.ipc) / exact.ipc
        bw_err = abs(
            sampled.bandwidth_utilization() - exact.bandwidth_utilization()
        ) / max(exact.bandwidth_utilization(), 1e-12)
        out["points"][f"{app_name}-{point.name}"] = {
            "exact_cycles": exact.cycles,
            "sampled_cycles": sampled.cycles,
            "exact_seconds": round(best["exact"], 4),
            "sampled_seconds": round(best["sampled"], 4),
            "speedup": round(best["exact"] / best["sampled"], 3),
            "ipc_err": round(ipc_err, 5),
            "bw_err": round(bw_err, 5),
        }
    out["speedup_geomean"] = round(
        geomean(e["speedup"] for e in out["points"].values()), 3
    )
    return out


def bench_trace_overhead(repeats: int) -> dict:
    """Traced re-runs of the ``sim`` points, as a ratio over untraced.

    The untraced side is re-measured here, interleaved with the traced
    runs, rather than reusing the ``sim`` section's numbers: the
    overhead gate is a same-machine-state ratio, and minutes can pass
    between sections — wall-clock drift would otherwise masquerade as
    tracing cost (the same reasoning behind ``bench_cycle_loop``'s
    interleaving). Each timed run gets a parked garbage collector
    (collect, then disable): traced runs allocate far more, and in a
    long-lived bench process the collector's gen-2 pauses — whose cost
    tracks process history, not this run — land disproportionately on
    the traced side and can double the apparent overhead."""
    points = [("PVC", designs.caba("bdi")), ("MM", designs.base())]
    out = {}

    def timed(**kwargs) -> float:
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            run_app(**kwargs)
            return time.perf_counter() - start
        finally:
            gc.enable()

    for app, point in points:
        untraced = traced = float("inf")
        ratios = []
        # The ratio sits near its budget, so it gets a deeper best-of
        # than the wall-clock sections regardless of --repeats. The
        # gated statistic is the BEST (minimum) of per-pair ratios —
        # the script's best-of-N convention applied to a ratio. Each
        # pair runs back to back so a machine-speed epoch mostly hits
        # both sides, and the cleanest pair approximates the noiseless
        # machine; best-traced/best-untraced across different epochs
        # was observed reporting 1.05x-1.4x for the same build on a
        # shared host. A real batching regression floors every pair,
        # so the minimum still catches it.
        for _ in range(max(repeats, 5)):
            u = timed(app=app, design=point, use_cache=False)
            t = timed(app=app, design=point, use_cache=False, trace=True)
            untraced = min(untraced, u)
            traced = min(traced, t)
            ratios.append(t / u)
        out[f"{app}-{point.name}"] = {
            "traced_seconds": round(traced, 4),
            "untraced_seconds": round(untraced, 4),
            "overhead": round(min(ratios), 3),
        }
    return out


def bench_engine_dispatch(repeats: int) -> dict:
    """Fault-tolerant per-future dispatch vs. raw ``pool.map``.

    Both paths run the identical cold spec batch on two workers; the
    ratio isolates the engine's submission/retry/timeout bookkeeping,
    since the simulation work is the same on either side.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.harness import parallel

    config = GPUConfig.small()
    scale = TraceScale(work=0.25)
    points = [designs.base(), designs.caba("bdi")]
    specs = [RunSpec(app, point, config, scale)
             for app in SWEEP_APPS for point in points]
    map_best = engine_best = float("inf")
    for _ in range(repeats):
        clear_caches()
        start = time.perf_counter()
        with ProcessPoolExecutor(max_workers=2) as pool:
            list(pool.map(parallel._worker_run, specs))
        map_best = min(map_best, time.perf_counter() - start)
    for _ in range(repeats):
        clear_caches()
        start = time.perf_counter()
        with parallel.ExperimentEngine(jobs=2, retries=0) as engine:
            engine.run_many(specs)
        engine_best = min(engine_best, time.perf_counter() - start)
    clear_caches()
    return {
        "specs": len(specs),
        "jobs": 2,
        "map_seconds": round(map_best, 4),
        "engine_seconds": round(engine_best, 4),
        "overhead": round(engine_best / map_best, 3),
    }


def check_runner(record: dict, baseline: dict) -> list[str]:
    """Gates: tracing-disabled sim time within 3% of the checked-in
    baseline (the observability layer must be free when off); per-future
    engine dispatch within 3% of the pool.map baseline; the plain-scan
    cycle loop must not regress by more than 3%; and the issue core
    must hold the 2x per-run speedup acceptance floor."""
    failures = []
    sim_record = record.get("sim", {})
    baseline_sim = baseline.get("sim", {})
    for key in sorted(set(sim_record) & set(baseline_sim)):
        now = sim_record[key]["seconds"]
        base = baseline_sim[key]["seconds"]
        if now > 1.03 * base:
            failures.append(
                f"{key} tracing-disabled time {now:.3f}s exceeds 3% "
                f"budget over baseline {base:.3f}s "
                f"({now / base - 1:+.1%})"
            )
    dispatch = record.get("engine_dispatch", {})
    if dispatch and dispatch["overhead"] > 1.03:
        failures.append(
            f"engine dispatch {dispatch['engine_seconds']:.3f}s exceeds "
            f"3% budget over pool.map {dispatch['map_seconds']:.3f}s "
            f"({dispatch['overhead'] - 1:+.1%})"
        )
    cyc = record.get("cycle_loop", {})
    base_points = baseline.get("cycle_loop", {}).get("points", {})
    for key, entry in sorted(cyc.get("points", {}).items()):
        base = base_points.get(key)
        if base and entry["reference_seconds"] > 1.03 * base["reference_seconds"]:
            failures.append(
                f"{key} plain-scan cycle loop "
                f"{entry['reference_seconds']:.3f}s exceeds 3% budget "
                f"over baseline {base['reference_seconds']:.3f}s "
                f"({entry['reference_seconds'] / base['reference_seconds'] - 1:+.1%})"
            )
    if cyc:
        gm = cyc.get("speedup_geomean", 0.0)
        if gm < 2.0:
            failures.append(
                f"issue-core per-run speedup geomean {gm:.2f}x is below "
                f"the 2.0x acceptance floor"
            )
    trace = record.get("trace_overhead", {})
    for key, entry in sorted(trace.items()):
        if entry["overhead"] > 1.20:
            failures.append(
                f"{key} tracing overhead {entry['overhead']:.2f}x "
                f"exceeds the 1.20x budget (batched ledger flushes "
                f"should keep attribution cheap)"
            )
    samp = record.get("cycle_loop_sampled", {})
    if samp:
        gm = samp.get("speedup_geomean", 0.0)
        if gm < 3.0:
            failures.append(
                f"sampled-mode speedup geomean {gm:.2f}x is below the "
                f"3.0x acceptance floor"
            )
        for key, entry in sorted(samp.get("points", {}).items()):
            for metric in ("ipc_err", "bw_err"):
                if entry[metric] > 0.02:
                    failures.append(
                        f"{key} sampled {metric} {entry[metric]:.2%} "
                        f"exceeds the 2% error bound"
                    )
    return failures


def bench_bdi(lines: int, repeats: int) -> dict:
    """BDI compress+decompress round trips over real app data."""
    line_size = 128
    bdi = make_algorithm("bdi", line_size)
    gen = make_line_generator(get_app("PVC").data, line_size, seed=7)
    payloads = [gen(i) for i in range(lines)]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for data in payloads:
            compressed = bdi.compress(data)
            bdi.decompress(compressed)
        best = min(best, time.perf_counter() - start)
    return {
        "lines": lines,
        "seconds": round(best, 4),
        "lines_per_second": round(lines / best),
    }


def bench_subroutines(repeats: int) -> dict:
    """Cost of building every assist program a CABA-BDI run needs."""
    encodings = ("ZEROS", "REPEAT", "B8D1", "B8D2", "B4D1")
    iterations = 2000
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            library = SubroutineLibrary(line_size=128)
            library.compression("bdi")
            for encoding in encodings:
                library.decompression("bdi", encoding)
        best = min(best, time.perf_counter() - start)
    return {
        "library_builds": iterations,
        "seconds": round(best, 4),
        "builds_per_second": round(iterations / best),
    }


def bench_plane_build(lines: int, repeats: int) -> dict:
    """Batch ``size_table`` kernels vs. the scalar compress loop."""
    line_size = 128
    gen = make_line_generator(get_app("PVC").data, line_size, seed=7)
    payloads = [gen(i) for i in range(lines)]
    out = {}
    for name in ("bdi", "fpc", "cpack", "fvc"):
        algo = make_algorithm(name, line_size)
        scalar = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for data in payloads:
                algo.compress(data)
            scalar = min(scalar, time.perf_counter() - start)
        batched = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            algo.size_table(payloads)
            batched = min(batched, time.perf_counter() - start)
        out[name] = {
            "lines": lines,
            "scalar_seconds": round(scalar, 4),
            "batch_seconds": round(batched, 4),
            "speedup": round(scalar / batched, 2),
        }
    return out


def _figure_sweep_once() -> float:
    """One cold multi-design sweep plus the Fig. 11 compression study."""
    config = GPUConfig.small()
    scale = TraceScale(work=0.25, waves=0.25)
    points = [designs.base()]
    points += [designs.caba(algo) for algo in SWEEP_ALGORITHMS]
    start = time.perf_counter()
    for app in SWEEP_APPS:
        for point in points:
            run_spec(RunSpec(app, point, config, scale), use_cache=False)
    figures.fig11_compression_ratio(apps=SWEEP_APPS, sample_lines=1600)
    return time.perf_counter() - start


def bench_figure_sweep() -> dict:
    """Cold figure sweep with compression planes off, then on."""
    prior = os.environ.get("REPRO_PLANES")
    out = {}
    try:
        for mode, flag in (("planes_off", "0"), ("planes_on", "1")):
            os.environ["REPRO_PLANES"] = flag
            clear_caches()
            out[mode] = {"seconds": round(_figure_sweep_once(), 4)}
    finally:
        if prior is None:
            os.environ.pop("REPRO_PLANES", None)
        else:
            os.environ["REPRO_PLANES"] = prior
        clear_caches()
    out["speedup"] = round(
        out["planes_off"]["seconds"] / out["planes_on"]["seconds"], 3
    )
    return out


def check_compression(record: dict, baseline: dict) -> list[str]:
    """Regression gates for the compression benchmarks."""
    failures = []
    sweep = record["figure_sweep"]["speedup"]
    if sweep < 2.0:
        failures.append(
            f"figure-sweep plane speedup {sweep:.2f}x is below the "
            f"2.0x acceptance floor"
        )
    if not baseline:
        return failures
    base_sweep = baseline.get("figure_sweep", {}).get("speedup")
    if base_sweep and sweep < 0.9 * base_sweep:
        failures.append(
            f"figure-sweep speedup regressed >10%: "
            f"{sweep:.2f}x vs baseline {base_sweep:.2f}x"
        )
    for name, entry in record["plane_build"].items():
        base = baseline.get("plane_build", {}).get(name)
        if base and entry["speedup"] < 0.9 * base["speedup"]:
            failures.append(
                f"{name} batch-kernel speedup regressed >10%: "
                f"{entry['speedup']:.2f}x vs baseline "
                f"{base['speedup']:.2f}x"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="after",
                        help="record name in BENCH_runner.json")
    parser.add_argument("--out", default="BENCH_runner.json")
    parser.add_argument("--comp-out", default="BENCH_compression.json")
    parser.add_argument("--section",
                        choices=("all", "runner", "cycle_loop",
                                 "cycle_loop_sampled", "compression"),
                        default="all")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the compression baseline record")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--cycle-work", type=float, default=0.5,
                        help="TraceScale.work for the cycle_loop section")
    parser.add_argument("--bdi-lines", type=int, default=4000)
    parser.add_argument("--plane-lines", type=int, default=4000)
    args = parser.parse_args()

    status = 0
    if args.section in ("all", "runner", "cycle_loop",
                        "cycle_loop_sampled"):
        clear_caches()
        merged = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                merged = json.load(fh)
        # Grab the previously checked-in numbers before overwriting the
        # label — they are the reference for the regression gates.
        baseline = merged.get(args.label, {})
        if args.section in ("cycle_loop", "cycle_loop_sampled"):
            # Refresh only the requested section in place.
            record = dict(baseline)
            record["python"] = platform.python_version()
        else:
            sim = bench_sim(args.repeats)
            record = {
                "python": platform.python_version(),
                "sim": sim,
                "trace_overhead": bench_trace_overhead(args.repeats),
                "bdi": bench_bdi(args.bdi_lines, args.repeats),
                "subroutines": bench_subroutines(args.repeats),
                "engine_dispatch": bench_engine_dispatch(args.repeats),
            }
        if args.section != "cycle_loop_sampled":
            record["cycle_loop"] = bench_cycle_loop(
                args.repeats, args.cycle_work
            )
        if args.section != "cycle_loop":
            record["cycle_loop_sampled"] = bench_cycle_loop_sampled(
                args.repeats
            )
        merged[args.label] = record

        before = merged.get("before", {}).get("sim", {})
        after = merged.get("after", {}).get("sim", {})
        for key in sorted(set(before) & set(after)):
            speedup = before[key]["seconds"] / after[key]["seconds"]
            merged.setdefault("speedup", {})[key] = round(speedup, 3)

        with open(args.out, "w") as fh:
            json.dump(merged, fh, indent=2)
            fh.write("\n")
        print(json.dumps(record, indent=2))
        print(f"wrote {args.out} [{args.label}]")

        runner_failures = check_runner(record, baseline)
        for failure in runner_failures:
            print(f"REGRESSION: {failure}")
        if runner_failures:
            status = 1

    if args.section in ("all", "compression"):
        try:
            from repro.compression import batch
            numpy_backend = batch.np is not None
        except ImportError:  # pragma: no cover
            numpy_backend = False
        clear_caches()
        comp = {
            "python": platform.python_version(),
            "numpy_backend": numpy_backend,
            "plane_build": bench_plane_build(args.plane_lines, args.repeats),
            "figure_sweep": bench_figure_sweep(),
        }

        stored = {}
        if os.path.exists(args.comp_out):
            with open(args.comp_out) as fh:
                stored = json.load(fh)
        if args.update_baseline or "baseline" not in stored:
            stored["baseline"] = comp
        stored["latest"] = comp
        with open(args.comp_out, "w") as fh:
            json.dump(stored, fh, indent=2)
            fh.write("\n")
        print(json.dumps(comp, indent=2))
        print(f"wrote {args.comp_out}")

        failures = check_compression(comp, stored["baseline"])
        for failure in failures:
            print(f"REGRESSION: {failure}")
        if failures:
            status = 1
    return status


if __name__ == "__main__":
    import sys

    sys.exit(main())
