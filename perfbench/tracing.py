"""Span tracer that wraps the layers' public methods from outside.

Nothing under ``src/`` knows about it: :func:`install` replaces class
attributes and module functions with timing wrappers before a simulator
is built, and the :class:`Installation` it returns puts the originals
back, so untraced measurements run the program exactly as shipped.

Each call becomes one span ``(name, start, end, parent, spec)``. Spans are
kept in per-thread arrays (the sweep server calls the cache from several
threads) and written out when the benchmark ends. Self time, the span's
duration minus the time covered by its child spans, is accumulated as the
spans close.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from array import array
from pathlib import Path

perf_counter_ns = time.perf_counter_ns


class _ThreadBuffer:
    """Spans and per-name accumulators of one thread."""

    def __init__(self, thread_no: int) -> None:
        self.thread_no = thread_no
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.spec = array("i")
        self.stack: list[list[int]] = []
        self.spec_id = -1
        self.self_ns: dict[int, int] = {}
        self.total_ns: dict[int, int] = {}
        self.calls: dict[int, int] = {}


class Tracer:
    """Records spans around wrapped callables."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: list[_ThreadBuffer] = []
        #: Name -> count of calls that returned a non-None value (cache
        #: hits) and name -> summed value of a per-call measure.
        self.hits: dict[str, int] = {}
        self.sums: dict[str, float] = {}
        self.errors: dict[str, int] = {}

    def _id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._local.buffer
        except AttributeError:
            with self._lock:
                buf = _ThreadBuffer(len(self.buffers))
                self.buffers.append(buf)
            self._local.buffer = buf
            return buf

    def set_spec(self, spec_id: int) -> None:
        """Tag this thread's following spans with ``spec_id``."""
        self._buffer().spec_id = spec_id

    def wrap(self, fn, name: str, on_result=None):
        """A wrapper of ``fn`` that records one span per call.

        ``on_result(tracer, result)`` runs after each successful call, for
        counts that come from the returned value.
        """
        nid = self._id(name)
        buffer_of = self._buffer

        def traced(*args, **kwargs):
            buf = buffer_of()
            stack = buf.stack
            idx = len(buf.start)
            buf.name.append(nid)
            buf.start.append(0)
            buf.end.append(0)
            buf.parent.append(stack[-1][0] if stack else -1)
            buf.spec.append(buf.spec_id)
            frame = [idx, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                buf.start[idx] = t0
                buf.end[idx] = t1
                buf.self_ns[nid] = buf.self_ns.get(nid, 0) + dur - frame[1]
                buf.total_ns[nid] = buf.total_ns.get(nid, 0) + dur
                buf.calls[nid] = buf.calls.get(nid, 0) + 1
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    def _merged(self, field: str) -> dict[str, int]:
        out: dict[str, int] = {}
        for buf in self.buffers:
            for nid, value in getattr(buf, field).items():
                name = self.names[nid]
                out[name] = out.get(name, 0) + value
        return out

    def summary(self) -> dict:
        """Per-name self seconds, total seconds and call counts."""
        return {
            "self_s": {k: v / 1e9 for k, v in self._merged("self_ns").items()},
            "total_s": {k: v / 1e9
                        for k, v in self._merged("total_ns").items()},
            "calls": self._merged("calls"),
            "hits": dict(self.hits),
            "sums": dict(self.sums),
            "errors": dict(self.errors),
            "spans": sum(len(buf.start) for buf in self.buffers),
        }

    def write(self, path: Path) -> None:
        """Write every span as little-endian columns plus a name table.

        Layout: a JSON header line (names, per-thread span counts), then
        per thread the ``name`` (u16), ``start`` and ``end`` (i64 ns),
        ``parent`` and ``spec`` (i32) columns in that order.
        """
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            header = {"names": self.names,
                      "threads": [len(buf.start) for buf in self.buffers]}
            out.write(json.dumps(header).encode() + b"\n")
            for buf in self.buffers:
                buf.name.tofile(out)
                buf.start.tofile(out)
                buf.end.tofile(out)
                buf.parent.tofile(out)
                buf.spec.tofile(out)


# ----------------------------------------------------------------------
# Layer wrapping
# ----------------------------------------------------------------------
def _count_cache_hit(tracer, result):
    if result is not None:
        tracer.hits["cache.get"] = tracer.hits.get("cache.get", 0) + 1


def _plane_stats(tracer, plane):
    table = plane.table
    tracer.sums["plane.lines"] = tracer.sums.get("plane.lines", 0) + len(table)
    tracer.sums["plane.raw_bytes"] = (
        tracer.sums.get("plane.raw_bytes", 0) + len(table) * plane.line_size
    )
    tracer.sums["plane.stored_bytes"] = (
        tracer.sums.get("plane.stored_bytes", 0)
        + sum(entry[0] for entry in table.values())
    )


def _public_functions(cls) -> list[str]:
    """Public plain methods of ``cls`` (inherited ones included)."""
    names = []
    for name in dir(cls):
        if name.startswith("_"):
            continue
        if inspect.isfunction(inspect.getattr_static(cls, name)):
            names.append(name)
    return names


class Installation:
    """The set of attributes one :func:`install` replaced."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object, bool]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        for owner, attr, original, had in reversed(self._saved):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every traced layer boundary; returns what to undo."""
    from repro.core.controller import CabaController
    from repro.energy.model import EnergyModel
    from repro.gpu.simulator import Simulator
    from repro.gpu.sm import SM
    from repro.harness import cache as cache_mod
    from repro.harness import parallel, runner
    from repro.memory import plane as plane_mod
    from repro.memory.hierarchy import MemorySystem

    inst = Installation()

    def method(cls, attr, name, on_result=None):
        fn = inspect.getattr_static(cls, attr)
        inst.patch(cls, attr, tracer.wrap(fn, name, on_result))

    def function(module, attr, name, on_result=None):
        inst.patch(module, attr,
                   tracer.wrap(getattr(module, attr), name, on_result))

    make_line_generator = runner.make_line_generator

    def traced_make(*args, **kwargs):
        """Every generator the runner makes records a span per line."""
        return tracer.wrap(make_line_generator(*args, **kwargs),
                           "workloads.linegen")

    # workloads: kernel build and line generation
    function(runner, "build_kernel", "workloads.build_kernel")
    inst.patch(runner, "make_line_generator", traced_make)
    # plane: batch kernels behind the plane builders
    function(plane_mod, "build_plane", "plane.build", _plane_stats)
    function(plane_mod, "compose_best_of_all", "plane.compose", _plane_stats)
    # runner
    function(runner, "build_image", "runner.build_image")
    traced_run_spec = tracer.wrap(runner.run_spec, "runner.run_spec")
    spec_ids = itertools.count()

    def run_spec(*args, **kwargs):
        tracer.set_spec(next(spec_ids))
        return traced_run_spec(*args, **kwargs)

    inst.patch(runner, "run_spec", run_spec)
    # gpu.simulator and gpu.sm
    method(Simulator, "run", "gpu.simulator.run")
    method(Simulator, "schedule", "gpu.simulator.schedule")
    method(SM, "tick", "gpu.sm.tick")
    method(SM, "tick_soa", "gpu.sm.tick")
    # core.controller
    for attr in _public_functions(CabaController):
        method(CabaController, attr, f"core.controller.{attr}")
    # memory
    method(MemorySystem, "load", "memory.load")
    method(MemorySystem, "complete_fill", "memory.complete_fill")
    method(MemorySystem, "store", "memory.store")
    # energy
    method(EnergyModel, "evaluate", "energy.evaluate")
    # cache
    method(cache_mod.RunCache, "get", "cache.get", _count_cache_hit)
    method(cache_mod.RunCache, "put", "cache.put")
    method(cache_mod.RunCache, "put_plane", "cache.put_plane")
    # engine
    method(parallel.ExperimentEngine, "run_many", "engine.run_many")
    return inst


def install_client(tracer: Tracer) -> Installation:
    """Wrap the sweep-service client calls (submit, wait, fetch)."""
    from repro.service.client import ServiceClient

    inst = Installation()
    for attr in ("submit", "wait", "result_bytes"):
        fn = inspect.getattr_static(ServiceClient, attr)
        inst.patch(ServiceClient, attr, tracer.wrap(fn, f"service.{attr}"))
    return inst
