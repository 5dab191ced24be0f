"""Per-layer numbers of a traced unit.

The metric names and units are those of ``per_layer`` in
``BENCHMARK.json``. Host-time layer metrics are self times from the span
tracer: a span's duration minus the time its child spans cover. Count
metrics are exact: call counts at the wrapped boundaries, or statistics
of the simulated runs (``RunResult``) and the server's ``/v1/stats``.
"""

from __future__ import annotations

from repro.gpu.stats import Slot


def merge_summaries(*summaries: dict) -> dict:
    """Sum tracer summaries (the benchmark's and the server's)."""
    merged: dict = {}
    for summary in summaries:
        for section, values in summary.items():
            if not isinstance(values, dict):
                continue
            into = merged.setdefault(section, {})
            for key, value in values.items():
                into[key] = into.get(key, 0) + value
    return merged


def per_layer(summary: dict, unit, overhead: float,
              names: list[str]) -> dict[str, float]:
    """The per-layer metrics ``names`` for one traced unit.

    ``unit.runs`` holds ``(RunResult, GPUConfig)`` pairs of the simulated
    runs; ``unit.counters`` holds counts the workload took itself (the
    ``service.*`` metrics, which read 0 on a workload without a server).
    """
    self_s = summary.get("self_s", {})
    total_s = summary.get("total_s", {})
    calls = summary.get("calls", {})
    sums = summary.get("sums", {})
    hits = summary.get("hits", {})
    errors = summary.get("errors", {})
    runs = unit.runs
    counters = unit.counters

    def own(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    def mean(values) -> float:
        values = [v for v in values if v is not None]
        return sum(values) / len(values) if values else 0.0

    cycles = sum(result.cycles for result, _ in runs)
    # Issue-slot shares, weighted by each run's slot count.
    slot_totals = dict.fromkeys(Slot, 0.0)
    total_slots = 0
    for result, config in runs:
        weight = result.cycles * config.n_sms * config.schedulers_per_sm
        total_slots += weight
        for slot, share in result.slot_breakdown.items():
            slot_totals[slot] += weight * share

    bursts = {"read": 0, "write": 0, "metadata": 0}
    for result, _ in runs:
        for kind in bursts:
            bursts[kind] += result.dram_bursts.get(kind, 0)
    gets = calls.get("cache.get", 0)
    stored = sums.get("plane.stored_bytes", 0)

    metrics = {
        "workloads.build_kernel_s": own("workloads.build_kernel"),
        "workloads.linegen_s": own("workloads.linegen"),
        "workloads.lines_generated": calls.get("workloads.linegen", 0),
        "plane.build_s": own("plane.build"),
        "plane.compose_s": own("plane.compose"),
        "plane.lines": sums.get("plane.lines", 0),
        "plane.bytes_ratio": (sums.get("plane.raw_bytes", 0) / stored
                              if stored else 0.0),
        "runner.build_image_s": own("runner.build_image"),
        "runner.simulations": counters.get("runner.simulations", 0),
        "gpu.simulator.self_s": own("gpu.simulator.run",
                                    "gpu.simulator.schedule"),
        "gpu.events_scheduled": calls.get("gpu.simulator.schedule", 0),
        "gpu.cycles": cycles,
        "gpu.host_us_per_cycle": (total_s.get("gpu.simulator.run", 0.0)
                                  / cycles * 1e6 if cycles else 0.0),
        "gpu.sm.tick_s": own("gpu.sm.tick"),
        "gpu.sm.ticks": calls.get("gpu.sm.tick", 0),
        "gpu.instructions": sum(r.instructions for r, _ in runs),
        "core.controller_s": sum(value for name, value in self_s.items()
                                 if name.startswith("core.controller.")),
        "core.assist_instructions": sum(r.assist_instructions
                                        for r, _ in runs),
        "core.decompressions": calls.get(
            "core.controller.request_decompression", 0),
        "core.lines_compressed": sum(r.lines_compressed for r, _ in runs),
        "memory.load_s": own("memory.load", "memory.complete_fill"),
        "memory.store_s": own("memory.store"),
        "memory.loads": calls.get("memory.load", 0),
        "memory.stores": calls.get("memory.store", 0),
        "memory.l2_hit_rate": mean(r.l2_hit_rate for r, _ in runs),
        "memory.md_cache_hit_rate": mean(r.md_cache_hit_rate
                                         for r, _ in runs),
        "memory.dram_bursts_read": bursts["read"],
        "memory.dram_bursts_write": bursts["write"],
        "memory.dram_bursts_metadata": bursts["metadata"],
        "memory.bandwidth_utilization": mean(r.bandwidth_utilization
                                             for r, _ in runs),
        "memory.rmw_reads": sum(r.rmw_reads for r, _ in runs),
        "energy.evaluate_s": own("energy.evaluate"),
        "cache.get_s": own("cache.get"),
        "cache.put_s": own("cache.put"),
        "cache.plane_put_s": own("cache.put_plane"),
        "cache.gets": gets,
        "cache.hit_ratio": hits.get("cache.get", 0) / gets if gets else 0.0,
        "cache.bytes_written": counters.get("cache.bytes_written", 0),
        "engine.run_many_s": total_s.get("engine.run_many", 0.0),
        "engine.overhead_s": (total_s.get("engine.run_many", 0.0)
                              - total_s.get("runner.run_spec", 0.0)
                              if "engine.run_many" in total_s else 0.0),
        "engine.retries": errors.get("runner.run_spec", 0),
        "trace.overhead": overhead,
    }
    for slot in Slot:
        metrics[f"gpu.slot.{slot.name.lower()}"] = (
            slot_totals[slot] / total_slots if total_slots else 0.0)
    for name in names:
        if name.startswith("service."):
            metrics[name] = counters.get(name, 0)
    return metrics
