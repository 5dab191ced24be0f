"""Correctness gate: expected statistics of every drawable run.

Each simulated run is reduced to the fields the golden fixture pins
(cycles, instructions, assist_instructions, dram_bursts, l2_hit_rate,
slot_breakdown, lines_compressed), with floats rendered by ``repr`` so the
comparison is exact. Each compression plane a run builds is reduced to a
digest of its per-line ``(size, bursts, encoding)`` table.

The expected values live in ``perfbench/expected/<workload>.json`` and
are regenerated with ``python3 perfbench/make_expected.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.gpu.stats import Slot

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def spec_id(app: str, design: str, machine: str) -> str:
    """Key of one simulated run in an expected-stats file."""
    return f"{app}/{design}@{machine}"


def snapshot(result) -> dict:
    """Exact summary of a :class:`RunResult` (floats via ``repr``)."""
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "assist_instructions": result.assist_instructions,
        "dram_bursts": dict(sorted(result.dram_bursts.items())),
        "l2_hit_rate": repr(result.l2_hit_rate),
        "slot_breakdown": {slot.name: repr(value)
                           for slot, value in result.slot_breakdown.items()},
        "lines_compressed": result.lines_compressed,
    }


def plane_id(app: str, machine: str) -> str:
    """Key of the plane digests of one app's runs on one machine."""
    return f"planes:{app}@{machine}"


def plane_digest(plane) -> str:
    """Digest of a :class:`CompressionPlane`: its algorithm and every
    line's ``(size, bursts, encoding)``."""
    digest = hashlib.sha256(
        f"{plane.algorithm_name}/{plane.line_size}/{plane.burst_bytes}\n"
        .encode())
    for line in sorted(plane.table):
        size, bursts, encoding = plane.table[line]
        digest.update(f"{line}:{int(size)}:{int(bursts)}:{encoding}\n"
                      .encode())
    return digest.hexdigest()


def cached_plane_digests(cache_dir: Path) -> list[str]:
    """Sorted digests of the planes stored in a run-cache directory."""
    from repro.harness.cache import RunCache

    cache = RunCache(root=cache_dir)
    return sorted(plane_digest(cache.get_plane(key))
                  for key in cache.backend.list("planes"))


def snapshot_from_payload(payload: dict) -> dict:
    """The same summary from a service result body entry.

    JSON floats round-trip exactly, so ``repr`` of the parsed float equals
    ``repr`` of the simulator's float.
    """
    return {
        "cycles": payload["cycles"],
        "instructions": payload["instructions"],
        "assist_instructions": payload["assist_instructions"],
        "dram_bursts": dict(sorted(payload["dram_bursts"].items())),
        "l2_hit_rate": repr(payload["l2_hit_rate"]),
        "slot_breakdown": {
            slot.name: repr(payload["slot_breakdown"][slot.name.lower()])
            for slot in Slot},
        "lines_compressed": payload["lines_compressed"],
    }


def load(workload: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{workload}.json").read_text())


def save(workload: str, entries: dict) -> Path:
    EXPECTED_DIR.mkdir(parents=True, exist_ok=True)
    path = EXPECTED_DIR / f"{workload}.json"
    path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    return path


class Gate:
    """Counts operations and mismatches against one expected-stats file."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, key: str, actual) -> bool:
        """One operation whose outcome must equal the stored entry."""
        want = self.expected.get(key)
        return self.record(want is not None and want == actual,
                           f"{key}: expected {want!r}, got {actual!r}")

    def record(self, ok: bool, message: str = "") -> bool:
        """Count one operation; a failed one keeps ``message``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0
