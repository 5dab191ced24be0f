"""Concurrent access to the persistent run cache.

The cache's contract under concurrency is *graceful degradation*: a
reader racing a writer, a sweeper, or a ``clear`` must see either a
valid entry or a miss — never an exception, never garbage. These tests
drive the races with real threads and real processes (the parallel
engine's workers share one cache directory exactly this way).
"""

import os
import pickle
import subprocess
import sys
import threading
import time
from collections import Counter

from repro import design as designs
from repro.energy.model import EnergyBreakdown
from repro.gpu.config import GPUConfig
from repro.gpu.stats import Slot
from repro.harness.cache import RunCache
from repro.harness.runner import RunResult, RunSpec


def make_result(app: str = "MM", cycles: int = 1234) -> RunResult:
    """A minimal raw-free RunResult (also imported by the cross-process
    worker below, so it pickles with a stable class identity)."""
    return RunResult(
        app=app, design="Base", cycles=cycles, ipc=1.0,
        instructions=cycles, assist_instructions=0,
        bandwidth_utilization=0.5, compression_ratio=1.0,
        energy=EnergyBreakdown(),
        slot_breakdown={slot: 0.2 for slot in Slot},
        md_cache_hit_rate=None, dram_bursts={}, l2_hit_rate=0.0,
        truncated=False, occupancy_blocks=1,
    )


def _spec(app: str = "MM") -> RunSpec:
    return RunSpec(app, designs.base(), GPUConfig.small(), sample=None)


def _put(cache: RunCache, spec: RunSpec) -> RunResult:
    result = make_result(app=spec.app)
    cache.put(spec, result)
    return result


class TestCorruptEntries:
    def test_truncated_pickle_reads_as_miss(self, tmp_path):
        cache = RunCache(root=tmp_path)
        spec = _spec()
        _put(cache, spec)
        path = cache._path(cache.key(spec))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert cache.get(spec) is None

    def test_garbage_bytes_read_as_miss(self, tmp_path):
        cache = RunCache(root=tmp_path)
        spec = _spec()
        _put(cache, spec)
        cache._path(cache.key(spec)).write_bytes(b"not a pickle at all")
        assert cache.get(spec) is None

    def test_entry_deleted_before_read_is_a_miss(self, tmp_path):
        cache = RunCache(root=tmp_path)
        spec = _spec()
        _put(cache, spec)
        cache._path(cache.key(spec)).unlink()
        assert cache.get(spec) is None

    def test_corrupt_plane_reads_as_miss(self, tmp_path):
        cache = RunCache(root=tmp_path)
        cache._plane_path("deadbeef").parent.mkdir(parents=True)
        cache._plane_path("deadbeef").write_bytes(b"\x80garbage")
        assert cache.get_plane("deadbeef") is None


class TestThreadRaces:
    """Reader threads racing destructive maintenance: every get() must
    return a valid result or None; any exception fails the test."""

    ROUNDS = 200

    def _race(self, tmp_path, disrupt) -> Counter:
        """Race three readers against ``ROUNDS`` disruptions; returns
        the readers' tally of hits and misses."""
        cache = RunCache(root=tmp_path)
        specs = [_spec(app) for app in ("MM", "PVC", "CONS")]
        expected = {spec: _put(cache, spec).cycles for spec in specs}
        errors: list[BaseException] = []
        stop = threading.Event()
        seen = Counter()

        def reader() -> None:
            try:
                while not stop.is_set():
                    for spec in specs:
                        hit = cache.get(spec)
                        assert hit is None or \
                            hit.cycles == expected[spec]
                        seen["miss" if hit is None else "hit"] += 1
                    # Yield the GIL: a reader spinning on misses would
                    # otherwise make the disrupting thread wait a whole
                    # switch interval per syscall.
                    time.sleep(0)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(self.ROUNDS):
                disrupt(cache, specs)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        assert not errors, f"reader crashed: {errors[0]!r}"
        return seen

    def test_get_races_clear(self, tmp_path):
        def disrupt(cache, specs):
            cache.clear()
            for spec in specs:
                _put(cache, spec)

        seen = self._race(tmp_path, disrupt)
        # Both sides of the race happened: reads landed between a clear
        # and the re-put as well as after it.
        assert seen["hit"] >= 1 and seen["miss"] >= 1

    def test_get_races_sweep_tmp(self, tmp_path):
        def disrupt(cache, specs):
            # Strew tmp leftovers among live entries, then sweep with a
            # zero age threshold (maximally aggressive).
            stamp_dir = cache.root / cache.stamp
            for index in range(3):
                (stamp_dir / f"left{index}.tmp").write_bytes(b"x")
            cache.sweep_tmp(max_age=0.0)

        self._race(tmp_path, disrupt)

    def test_concurrent_writers_same_key_keep_entry_valid(self, tmp_path):
        cache = RunCache(root=tmp_path)
        spec = _spec()
        expected = make_result(app=spec.app)
        errors: list[BaseException] = []

        def writer() -> None:
            try:
                for _ in range(100):
                    cache.put(spec, expected, overwrite=True)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        hit = cache.get(spec)
        assert hit is not None and hit.cycles == expected.cycles


_WORKER_SCRIPT = r"""
import sys

sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.harness.cache import RunCache
from repro.harness.runner import RunSpec
from harness.test_cache_concurrency import make_result

cache = RunCache(root={root!r})
specs = [RunSpec(app, designs.base(), GPUConfig.small(), sample=None)
         for app in ("MM", "PVC", "CONS")]
for _ in range(50):
    for spec in specs:
        cache.put(spec, make_result(app=spec.app), overwrite=True)
        hit = cache.get(spec)
        assert hit is None or hit.app == spec.app, hit
print("worker-ok")
"""


class TestCrossProcess:
    def test_two_processes_share_one_cache_dir(self, tmp_path):
        """Two real processes hammer the same keys in one directory —
        the atomic-write protocol must keep every read valid in both,
        and must leave no torn entries or tmp leftovers behind."""
        here = os.path.dirname(__file__)
        script = _WORKER_SCRIPT.format(
            src=os.path.abspath(os.path.join(here, "..", "..", "src")),
            tests=os.path.abspath(os.path.join(here, "..")),
            root=str(tmp_path),
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", script],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
            assert b"worker-ok" in out
        # Every entry left behind is a complete, valid pickle.
        cache = RunCache(root=tmp_path)
        entries = list((tmp_path / cache.stamp).glob("*.pkl"))
        assert len(entries) == 3
        for path in entries:
            with open(path, "rb") as fh:
                pickle.load(fh)
        assert cache.info()["tmp_entries"] == 0
