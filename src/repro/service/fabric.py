"""Distributed sweep fabric: lease-based coordination over HTTP.

The single-node sweep server (PR 9) drains every work through an
in-process :class:`~repro.harness.parallel.ExperimentEngine`. The
fabric replaces that engine — and only that engine — with a
:class:`FabricCoordinator` that *leases* spec batches to remote worker
processes instead of simulating locally. Everything above it
(:class:`~repro.service.jobs.JobStore` dedup, events, quotas) is
unchanged, because the coordinator is engine-shaped: it implements the
same ``run_many(specs, strict=False, on_result=..., on_failure=...)``
/ ``close()`` surface the store already drives.

Protocol (all JSON over the existing sweep server):

* ``POST /v1/workers/register`` ``{name, stamp}`` — admits a worker.
  The version stamp must match the coordinator's: a worker built from
  different source would poison the content-addressed cache.
* ``POST /v1/workers/lease`` ``{worker, max_specs?}`` — grants up to
  ``max_specs`` pending specs under one lease with a TTL.
* ``POST /v1/workers/complete`` ``{worker, lease, done, failures,
  simulated, cached}`` — reports a lease's outcome. Results travel out
  of band: the worker uploads each result to ``/v1/cache/runs/<key>``
  *before* reporting the key done, so completion is just "the entry
  exists now" and the coordinator resolves it from its own cache.
* ``POST /v1/workers/heartbeat`` ``{worker}`` — extends the worker's
  active leases.

Failure semantics: the coordinator is the third transport of the
shared :class:`~repro.harness.parallel.Schedule` (after the inline and
process-pool transports of ``harness/parallel.py``). A lease is one
``take`` of up to ``lease_specs`` tasks under the lease TTL and a
heartbeat renews them. A lease that reaches its TTL without completion
(worker crashed, hung, or partitioned) has each of its specs charged
one attempt and fed back to the pending queue. A spec that exhausts
its attempt budget becomes a structured
:class:`~repro.harness.parallel.RunFailure` (``kind="lease-expired"``),
exactly what the store already renders. A completion settles only the
keys of the caller's own lease. Because completed specs land in the
shared cache keyed by content, re-leased and resumed sweeps coalesce
onto cached entries and never pay for a simulation twice.

Knobs (also documented in README.md):

* ``REPRO_FABRIC=1`` — make ``repro serve`` fabric-mode by default.
* ``REPRO_FABRIC_LEASE_TTL`` — lease TTL in seconds (default 30).
* ``REPRO_FABRIC_LEASE_SPECS`` — specs per lease (default 4).
* ``REPRO_FABRIC_RETRIES`` — attempts per spec before a structured
  failure (default 3).
* ``REPRO_FABRIC_POLL`` — idle worker poll interval (default 1.0s).
"""

from __future__ import annotations

import base64
import os
import pickle
import threading
import time
from dataclasses import dataclass

from repro.harness import cache as cache_mod
from repro.harness import runner
from repro.harness.cache import HTTPCacheBackend, version_stamp
from repro.harness.parallel import (
    BatchResult,
    Schedule,
    Task,
    deliver,
    resolve_cached,
)
from repro.harness.runner import RunSpec
from repro.service.specs import spec_label


class FabricError(RuntimeError):
    """A fabric-protocol violation (unknown worker, stale lease, stamp
    mismatch); mapped to a structured HTTP 409 by the server."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(message)


# ----------------------------------------------------------------------
# Spec wire format
# ----------------------------------------------------------------------
def encode_spec(spec: RunSpec) -> str:
    """RunSpec -> base64 pickle. Lossless (specs carry frozen dataclass
    trees a JSON round-trip would flatten); safe because both ends are
    the same trusted code base — enforced by the register-time stamp
    check, which refuses workers built from different source."""
    return base64.b64encode(
        pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_spec(data: str) -> RunSpec:
    return pickle.loads(base64.b64decode(data.encode("ascii")))


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, ""))
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, ""))
    except ValueError:
        return default


@dataclass
class FabricConfig:
    lease_ttl: float = 30.0     # seconds a lease stays valid unrenewed
    lease_specs: int = 4        # specs granted per lease
    retries: int = 3            # attempts per spec before RunFailure
    poll: float = 1.0           # idle-worker poll hint (seconds)

    @classmethod
    def from_env(cls) -> "FabricConfig":
        return cls(
            lease_ttl=max(0.1, _env_float("REPRO_FABRIC_LEASE_TTL", 30.0)),
            lease_specs=max(1, _env_int("REPRO_FABRIC_LEASE_SPECS", 4)),
            retries=max(1, _env_int("REPRO_FABRIC_RETRIES", 3)),
            poll=max(0.05, _env_float("REPRO_FABRIC_POLL", 1.0)),
        )


def fabric_enabled() -> bool:
    """Default for ``repro serve --fabric`` (the flag still wins)."""
    return os.environ.get("REPRO_FABRIC", "0") == "1"


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
@dataclass
class _Lease:
    worker: str
    tasks: dict[str, Task]  # cache key -> the granted attempt


class FabricCoordinator:
    """Engine-shaped lease coordinator (``run_many``/``close``).

    A transport over the shared :class:`~repro.harness.parallel.Schedule`:
    a lease is one ``take``, a heartbeat renews the lease's tasks, and
    an expired lease fails them as ``lease-expired``. ``run_many`` owns
    the schedule and blocks until remote workers drain it;
    ``lease``/``complete``/``heartbeat`` are called concurrently from
    the server's request threads. Lock ordering: store callbacks
    (``on_result``/``on_failure``) are always fired *outside* the
    coordinator lock, because they take the JobStore lock — which may
    itself call :meth:`stats` while held.
    """

    def __init__(self, config: FabricConfig | None = None) -> None:
        if cache_mod.get_cache() is None:
            raise FabricError(
                "cache-disabled",
                "the fabric requires the persistent cache "
                "(REPRO_CACHE=0 is set); results travel through it")
        self.config = config or FabricConfig.from_env()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._workers: set[str] = set()
        self._leases: dict[str, _Lease] = {}
        self._schedule: Schedule | None = None
        self._seq = 0
        self._stopping = False
        self._counters = {
            "leases_granted": 0,
            "leases_expired": 0,
            "specs_requeued": 0,
            "completed": 0,
            "remote_simulated": 0,
            "remote_cached": 0,
        }

    # ------------------------------------------------------------------
    # Engine surface (called by the JobStore drain thread)
    # ------------------------------------------------------------------
    def run_many(self, specs, strict: bool = True,
                 label: str | None = None,
                 on_result=None, on_failure=None) -> BatchResult:
        if strict:
            raise ValueError("the fabric coordinator only runs "
                             "strict=False batches (the JobStore's mode)")
        ordered = list(specs)
        schedule = Schedule(ordered, attempts=self.config.retries)
        with self._lock:
            if self._schedule is not None:
                raise RuntimeError("a fabric batch is already active "
                                   "(the store serializes batches)")
            self._schedule = schedule
            resolve_cached(schedule)

        # Wake often enough to expire dead leases promptly even when no
        # worker traffic arrives to do it for us.
        tick = min(1.0, self.config.lease_ttl / 4.0)
        finished = False
        while not finished:
            with self._lock:
                self._expire_locked()
                if self._stopping:
                    schedule.abort("fabric coordinator shut down with "
                                   "the spec unresolved")
                outcomes = schedule.drain()
                if not outcomes and not schedule.done:
                    self._cond.wait(timeout=tick)
                    outcomes = schedule.drain()
                finished = schedule.done
                if finished:
                    self._schedule = None
                    self._leases.clear()
            deliver(outcomes, on_result, on_failure)
        return schedule.batch(ordered)

    def close(self) -> None:
        self.abort()

    def abort(self) -> None:
        """Fail any unresolved specs and wake a blocked ``run_many``
        (called by ``JobStore.close`` before joining its drain)."""
        with self._lock:
            self._stopping = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Worker protocol (called from server request threads)
    # ------------------------------------------------------------------
    def register(self, name: str, stamp: str) -> dict:
        if stamp != version_stamp():
            raise FabricError(
                "stamp-mismatch",
                f"worker stamp {stamp!r} != coordinator stamp "
                f"{version_stamp()!r}; the worker is running different "
                "source and would poison the content-addressed cache")
        with self._lock:
            self._seq += 1
            worker_id = f"w{self._seq}-{name}"
            self._workers.add(worker_id)
        return {
            "worker": worker_id,
            "lease_ttl": self.config.lease_ttl,
            "lease_specs": self.config.lease_specs,
            "poll": self.config.poll,
        }

    def lease(self, worker_id: str, max_specs: int | None = None) -> dict:
        with self._lock:
            self._worker_locked(worker_id)
            self._expire_locked()
            tasks = [] if self._schedule is None else self._schedule.take(
                max_specs or self.config.lease_specs, self.config.lease_ttl)
            if not tasks:
                return {"lease": None, "specs": []}
            self._seq += 1
            lease_id = f"l{self._seq}"
            cache = cache_mod.get_cache()
            lease = _Lease(worker_id,
                           {cache.key(task.spec): task for task in tasks})
            self._leases[lease_id] = lease
            self._counters["leases_granted"] += 1
            return {
                "lease": lease_id,
                "ttl": self.config.lease_ttl,
                "specs": [
                    {"key": key, "label": spec_label(task.spec),
                     "spec": encode_spec(task.spec)}
                    for key, task in lease.tasks.items()
                ],
            }

    def complete(self, worker_id: str, lease_id: str,
                 done: list[str], failures: list[dict],
                 simulated: int = 0, cached: int = 0) -> dict:
        with self._lock:
            self._worker_locked(worker_id)
            lease = self._leases.get(lease_id)
            if lease is None or lease.worker != worker_id:
                # The lease already expired (its specs are requeued or
                # re-resolved elsewhere). The worker's uploads are still
                # in the cache, so nothing is lost — whoever holds the
                # re-lease finds the entries and reports them cached.
                raise FabricError(
                    "stale-lease",
                    f"lease {lease_id!r} is not active for "
                    f"{worker_id!r} (expired and requeued?)")
            del self._leases[lease_id]
            schedule = self._schedule
            self._counters["remote_simulated"] += max(0, int(simulated))
            self._counters["remote_cached"] += max(0, int(cached))
            # Only this lease's own keys are settled: a report naming
            # another worker's spec is ignored.
            for key in done:
                task = lease.tasks.pop(key, None)
                if task is None:
                    continue
                result = runner.cached_result(task.spec)
                if result is not None:
                    schedule.succeed(task, result)
                    self._counters["completed"] += 1
                elif schedule.fail(
                        task, "upload-missing",
                        "worker reported the spec done but its result "
                        "is absent from the cache"):
                    # Claimed done but the upload never landed: a lost
                    # attempt, never a silent success.
                    self._counters["specs_requeued"] += 1
            for failure in failures:
                task = lease.tasks.pop(str(failure.get("key", "")), None)
                if task is not None and schedule.fail(
                        task, str(failure.get("kind", "error")),
                        str(failure.get("exception", "worker error"))):
                    self._counters["specs_requeued"] += 1
            # Leased specs the worker did not report at all (e.g. it
            # was told to stop mid-batch) go straight back to pending
            # without burning an attempt — nothing ran.
            for task in lease.tasks.values():
                schedule.release(task)
                self._counters["specs_requeued"] += 1
            self._cond.notify_all()
        return {"ok": True}

    def heartbeat(self, worker_id: str) -> dict:
        with self._lock:
            self._worker_locked(worker_id)
            extended = 0
            for lease in self._leases.values():
                if lease.worker == worker_id:
                    for task in lease.tasks.values():
                        self._schedule.renew(task, self.config.lease_ttl)
                    extended += 1
        return {"ok": True, "extended": extended, "worker": worker_id}

    def stats(self) -> dict:
        with self._lock:
            return {
                **self._counters,
                "workers": len(self._workers),
                "active_leases": len(self._leases),
                "pending_specs": (self._schedule.pending
                                  if self._schedule is not None else 0),
                "lease_ttl": self.config.lease_ttl,
            }

    # ------------------------------------------------------------------
    # Internals (all *_locked require self._lock)
    # ------------------------------------------------------------------
    def _worker_locked(self, worker_id: str) -> None:
        if worker_id not in self._workers:
            raise FabricError("unknown-worker",
                              f"worker {worker_id!r} is not registered")

    def _expire_locked(self) -> None:
        schedule = self._schedule
        lapsed = set(schedule.expired()) if schedule is not None else set()
        if not lapsed:
            return
        for lease_id, lease in list(self._leases.items()):
            if lapsed.isdisjoint(lease.tasks.values()):
                continue
            del self._leases[lease_id]
            self._counters["leases_expired"] += 1
            for task in lease.tasks.values():
                if schedule.fail(
                        task, "lease-expired",
                        f"lease {lease_id} on worker {lease.worker} "
                        f"reached its TTL ({self.config.lease_ttl:g}s) "
                        "unrenewed"):
                    self._counters["specs_requeued"] += 1
        self._cond.notify_all()


# ----------------------------------------------------------------------
# Worker loop (the `repro worker` command)
# ----------------------------------------------------------------------
class FabricWorker:
    """One worker process: register, lease, simulate, upload, repeat.

    Results are written to the coordinator's cache via the HTTP
    backend *before* the lease is reported complete, so a crash
    between upload and completion wastes nothing — the re-leased spec
    is found in the cache and reported ``cached``. Local runs use
    ``persist=False``: the worker's only durable store is the
    coordinator's, keeping every node's view of "already paid for"
    identical.
    """

    def __init__(self, url: str, name: str | None = None,
                 lease_specs: int | None = None,
                 poll: float | None = None,
                 max_idle: float | None = None,
                 stall_after: int | None = None,
                 log=None) -> None:
        # Imported here (not module top) so the harness layer's
        # cache module never has to import service code.
        from repro.service.client import ServiceClient
        self.client = ServiceClient(url, tenant=f"worker-{name or os.getpid()}")
        self.backend = HTTPCacheBackend(url)
        self.name = name or f"pid{os.getpid()}"
        self.lease_specs = lease_specs
        self.poll = poll
        self.max_idle = max_idle
        #: Test hook: stall (hold the current lease, stop heartbeating,
        #: sleep forever) after completing this many specs — makes
        #: kill-recovery deterministic in the smoke lane.
        self.stall_after = stall_after
        self._log = log or (lambda message: None)
        self._stalled = threading.Event()
        self._stop = threading.Event()
        self.completed = 0
        self.simulated = 0
        self.cached = 0

    def stop(self) -> None:
        """Ask the loop to exit after the current lease."""
        self._stop.set()

    def run(self) -> dict:
        """Blocking worker loop; returns its counters on clean exit."""
        grant = self.client.register_worker(self.name, version_stamp())
        worker_id = grant["worker"]
        ttl = float(grant["lease_ttl"])
        poll = self.poll if self.poll is not None else float(grant["poll"])
        self._log(f"registered as {worker_id} (ttl {ttl:g}s)")

        beat = threading.Thread(
            target=self._heartbeat, args=(worker_id, ttl),
            name=f"repro-worker-heartbeat-{self.name}", daemon=True)
        beat.start()

        idle = 0.0
        while not self._stop.is_set():
            lease = self.client.lease(worker_id, self.lease_specs)
            if not lease["specs"]:
                if self.max_idle is not None and idle >= self.max_idle:
                    break
                time.sleep(poll)
                idle += poll
                continue
            idle = 0.0
            self._run_lease(worker_id, lease)
        self._stop.set()
        return {"worker": worker_id, "completed": self.completed,
                "simulated": self.simulated, "cached": self.cached}

    # ------------------------------------------------------------------
    def _run_lease(self, worker_id: str, lease: dict) -> None:
        from repro.service.client import ServiceError
        done: list[str] = []
        failures: list[dict] = []
        simulated = cached = 0
        for item in lease["specs"]:
            if self.stall_after is not None \
                    and self.completed >= self.stall_after:
                self._log("stalling (test hook): holding lease "
                          f"{lease['lease']} without completing")
                self._stalled.set()  # silences the heartbeat too
                while True:
                    time.sleep(3600.0)
            key = item["key"]
            spec = decode_spec(item["spec"])
            if self.backend.has("runs", key):
                # Another node (or a previous life of this lease)
                # already paid for this spec.
                cached += 1
                done.append(key)
                self.completed += 1
                continue
            try:
                result = runner.run_spec(spec, persist=False)
                data = pickle.dumps(result,
                                    protocol=pickle.HIGHEST_PROTOCOL)
                self.backend.put("runs", key, data)
            except Exception as exc:
                failures.append({"key": key, "kind": "error",
                                 "exception": repr(exc)})
                continue
            simulated += 1
            done.append(key)
            self.completed += 1
            self._log(f"ran {item['label']} ({key[:12]})")
        self.simulated += simulated
        self.cached += cached
        try:
            self.client.complete(worker_id, lease["lease"],
                                 done=done, failures=failures,
                                 simulated=simulated, cached=cached)
        except ServiceError as exc:
            if exc.code != "stale-lease":
                raise
            # Our lease expired under us (e.g. a long simulation
            # outlived the TTL without a heartbeat landing). The
            # uploads are in the cache; the re-leaseholder will report
            # them cached. Keep going.
            self._log(f"lease {lease['lease']} went stale before "
                      "completion; results remain in the cache")

    def _heartbeat(self, worker_id: str, ttl: float) -> None:
        interval = max(0.05, ttl / 3.0)
        while not self._stop.wait(interval):
            if self._stalled.is_set():
                return
            try:
                self.client.heartbeat(worker_id)
            except Exception:
                pass  # transient; the next beat (or lease) retries
