"""Parallel experiment engine: fan a run matrix out over processes.

Every ``(app, design, config)`` point of the paper's experiment matrix
is independent and fully deterministic, so the figure harnesses simply
enumerate their :class:`~repro.harness.runner.RunSpec` lists up front
and submit them here.

One :class:`Schedule` tracks a batch: it deduplicates the specs, grants
attempts as :class:`Task` handles with optional deadlines, charges
failed attempts, queues retries behind an exponential backoff, and
records each spec's terminal result or structured :class:`RunFailure`
(spec, kind, attempts, exception, traceback, worker pid). It is a pure
state machine over an injected clock, driven by three transports:

* inline (``jobs=1``, the default): each attempt runs in-process; a
  retry waits out its backoff while the other specs run;
* the process pool of :class:`ExperimentEngine` (``jobs>1``): cache
  hits resolve up front, at most ``jobs`` per-spec futures run at a
  time, each result is checkpointed into both cache layers as it
  lands, a broken pool (killed worker) is respawned with the in-flight
  specs replayed one at a time, and a per-spec wall-clock timeout
  cancels hung workers;
* the HTTP lease coordinator of :mod:`repro.service.fabric`.

``run_many(strict=False)`` returns the partial results plus the failure
report; the default ``strict=True`` raises :class:`ExperimentFailure`
after the rest of the batch has completed (completed results stay
checkpointed, so a rerun only redoes the failures).

Knobs (also documented in README.md):

* ``--jobs N`` / ``REPRO_JOBS`` — worker processes.
* ``--retries N`` / ``REPRO_RETRIES`` — retry budget per spec
  (default 1 retry, i.e. up to two attempts).
* ``REPRO_RUN_TIMEOUT`` — per-spec wall-clock seconds before a running
  worker is considered hung and cancelled (0/unset disables; pool mode
  only — a serial run cannot be interrupted).
* ``REPRO_RETRY_BACKOFF`` — base backoff delay in seconds
  (default 0.1; attempt ``n`` waits ``base * 2**(n-1)``, capped at 5s).
* ``REPRO_FAULT_SPEC`` — deterministic fault injection for tests, e.g.
  ``PVC@CABA-BDI:raise:1;MM:hang:*`` (see :func:`maybe_inject_fault`).
* ``REPRO_FAULT_HANG`` — sleep length of an injected hang (default
  300s, so any realistic ``REPRO_RUN_TIMEOUT`` fires first).
"""

from __future__ import annotations

import os
import time
import traceback as traceback_mod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.harness import runner
from repro.harness.runner import RunResult, RunSpec

#: Exponential-backoff cap so a long retry ladder stays bounded.
_BACKOFF_CAP = 5.0


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS``; 1 (serial) when unset/invalid."""
    env = os.environ.get("REPRO_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def default_retries() -> int:
    """Retry budget from ``REPRO_RETRIES``; 1 when unset/invalid."""
    env = os.environ.get("REPRO_RETRIES", "")
    try:
        return max(0, int(env))
    except ValueError:
        return 1


def default_timeout() -> float | None:
    """Per-spec timeout from ``REPRO_RUN_TIMEOUT``; None disables."""
    env = os.environ.get("REPRO_RUN_TIMEOUT", "")
    try:
        value = float(env)
    except ValueError:
        return None
    return value if value > 0 else None


def _backoff_delay(attempt: int) -> float:
    """Delay before retry number ``attempt`` (1-based)."""
    try:
        base = float(os.environ.get("REPRO_RETRY_BACKOFF", "0.1"))
    except ValueError:
        base = 0.1
    if base <= 0:
        return 0.0
    return min(_BACKOFF_CAP, base * (2.0 ** (attempt - 1)))


# ----------------------------------------------------------------------
# Failure records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunFailure:
    """One spec that exhausted its retry budget.

    ``kind`` is ``"error"`` (worker exception), ``"timeout"`` (exceeded
    the per-spec wall clock) or ``"pool-broken"`` (the worker process
    died — e.g. OOM-killed — taking the pool down with it).
    """

    spec: RunSpec
    kind: str
    attempts: int
    exception: str
    traceback: str = ""
    worker_pid: int | None = None

    def describe(self) -> str:
        where = f" [pid {self.worker_pid}]" if self.worker_pid else ""
        return (f"{self.spec.app}/{self.spec.design.name}: {self.kind} "
                f"after {self.attempts} attempt(s){where}: {self.exception}")


def render_failures(failures: Sequence[RunFailure]) -> str:
    """Human-readable multi-line failure report."""
    lines = [f"{len(failures)} run(s) failed:"]
    lines += [f"  - {failure.describe()}" for failure in failures]
    return "\n".join(lines)


class ExperimentFailure(RuntimeError):
    """Raised by strict ``run_many`` after the batch has drained.

    Carries the structured failure report plus everything that did
    complete (already checkpointed to the caches), so callers can
    surface partial progress.
    """

    def __init__(self, failures: Sequence[RunFailure],
                 completed: dict[RunSpec, RunResult],
                 label: str | None = None) -> None:
        self.failures = list(failures)
        self.completed = dict(completed)
        self.label = label
        prefix = f"[{label}] " if label else ""
        super().__init__(prefix + render_failures(self.failures))


@dataclass
class BatchResult:
    """``run_many(strict=False)`` return value: partial results aligned
    with the input specs (``None`` where the spec failed) plus the
    structured failure report."""

    results: list[RunResult | None]
    failures: list[RunFailure]

    @property
    def ok(self) -> bool:
        return not self.failures

    def completed(self) -> list[RunResult]:
        return [run for run in self.results if run is not None]


# ----------------------------------------------------------------------
# Deterministic fault injection (tests / chaos drills)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Fault:
    app: str
    design: str | None  # None matches every design
    mode: str           # raise | kill | hang
    attempt: int | None  # None matches every attempt

    def matches(self, spec: RunSpec, attempt: int) -> bool:
        if self.app != spec.app:
            return False
        if self.design is not None and self.design != spec.design.name:
            return False
        return self.attempt is None or self.attempt == attempt


_FAULT_MODES = ("raise", "kill", "hang")


class InjectedFault(RuntimeError):
    """The exception an injected ``raise`` fault throws in a worker."""


def _parse_faults(text: str) -> tuple[_Fault, ...]:
    """Parse ``REPRO_FAULT_SPEC``: ``app[@design]:mode[:attempt]``
    entries joined by ``;``. ``attempt`` is 1-based or ``*`` (default
    ``1`` — a single-shot fault on the first attempt)."""
    faults = []
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad fault entry {entry!r} "
                             f"(want app[@design]:mode[:attempt])")
        target, mode = parts[0], parts[1]
        if mode not in _FAULT_MODES:
            raise ValueError(f"bad fault mode {mode!r} "
                             f"(want one of {_FAULT_MODES})")
        app, _, design = target.partition("@")
        attempt: int | None = 1
        if len(parts) == 3:
            attempt = None if parts[2] == "*" else int(parts[2])
        faults.append(_Fault(app, design or None, mode, attempt))
    return tuple(faults)


def _fault_for(spec: RunSpec, attempt: int) -> str | None:
    """The injected fault mode for this (spec, attempt), or None."""
    text = os.environ.get("REPRO_FAULT_SPEC", "")
    if not text:
        return None
    for fault in _parse_faults(text):
        if fault.matches(spec, attempt):
            return fault.mode
    return None


def maybe_inject_fault(spec: RunSpec, attempt: int) -> None:
    """Execute the ``REPRO_FAULT_SPEC`` fault for this (spec, attempt).

    Runs inside the worker (and on the serial path), so tests can
    deterministically crash (``raise``), kill (``kill`` — ``os._exit``,
    which breaks the whole pool) or hang (``hang`` — sleep past any
    reasonable ``REPRO_RUN_TIMEOUT``) specific specs on specific
    attempts. No-op unless the environment variable is set.
    """
    mode = _fault_for(spec, attempt)
    if mode is None:
        return
    if mode == "raise":
        raise InjectedFault(
            f"injected fault: {spec.app}/{spec.design.name} "
            f"attempt {attempt}"
        )
    if mode == "kill":
        os._exit(86)
    if mode == "hang":
        try:
            seconds = float(os.environ.get("REPRO_FAULT_HANG", "300"))
        except ValueError:
            seconds = 300.0
        time.sleep(seconds)


# ----------------------------------------------------------------------
# Worker entry point
# ----------------------------------------------------------------------
@dataclass
class _WorkerFailure:
    """Picklable failure envelope a worker returns instead of raising,
    so the parent learns the worker pid and formatted traceback."""

    exception: str
    traceback: str
    worker_pid: int


def _worker_run(spec: RunSpec, attempt: int = 1) -> RunResult | _WorkerFailure:
    """Top-level (picklable) pool entry point: one spec, raw-free result.

    Exceptions are converted to a :class:`_WorkerFailure` envelope —
    never raised — so a bad spec cannot poison the future machinery and
    the parent gets structured context. (A ``kill`` fault bypasses this
    via ``os._exit`` and surfaces as ``BrokenProcessPool`` instead.)
    """
    try:
        maybe_inject_fault(spec, attempt)
        return runner.run_spec(spec)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:
        return _WorkerFailure(
            exception=repr(exc),
            traceback=traceback_mod.format_exc(),
            worker_pid=os.getpid(),
        )


# ----------------------------------------------------------------------
# Schedule: the attempt/deadline state machine every transport drives
# ----------------------------------------------------------------------
@dataclass(eq=False)
class Task:
    """One granted attempt of one spec. Handles compare by identity: a
    handle whose attempt was already settled or requeued is stale, and
    the :class:`Schedule` ignores every report made with it."""

    spec: RunSpec
    attempt: int
    deadline: float | None = None


class Schedule:
    """Attempts, retries and deadlines for one batch of specs.

    A pure state machine over an injected ``clock``: it touches no
    cache, pool or lock, so the inline, process-pool and HTTP-lease
    transports all drive the same one. Every open spec is in exactly
    one place — ready, delayed (waiting out a retry backoff) or held by
    a granted :class:`Task` — until it settles for good as a result or
    a :class:`RunFailure`.

    Args:
        specs: The batch; duplicates collapse onto their first position.
        attempts: Attempt budget per spec (``>= 1``).
        backoff: ``attempt -> seconds`` to wait before retrying once
            that attempt failed; ``None`` retries immediately.
        clock: Monotonic time source for deadlines and backoff.
    """

    def __init__(self, specs: Iterable[RunSpec], attempts: int,
                 backoff: Callable[[int], float] | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        self.attempts = attempts
        self._backoff = backoff
        self._clock = clock
        self._ready: deque[tuple[RunSpec, int]] = deque(
            (spec, 1) for spec in dict.fromkeys(specs))
        self._delayed: list[tuple[float, RunSpec, int]] = []
        self._held: dict[RunSpec, Task] = {}
        self.results: dict[RunSpec, RunResult] = {}
        self.failures: dict[RunSpec, RunFailure] = {}
        self._news: list[tuple[RunSpec, RunResult | RunFailure]] = []

    @property
    def done(self) -> bool:
        """Every spec has settled as a result or a failure."""
        return not (self._ready or self._delayed or self._held)

    @property
    def pending(self) -> int:
        """Specs waiting for a grant (ready or backing off)."""
        return len(self._ready) + len(self._delayed)

    def take(self, n: int, ttl: float | None = None) -> list[Task]:
        """Grant up to ``n`` ready specs, each due back within ``ttl``
        seconds (``None``: no deadline)."""
        now = self._clock()
        if self._delayed:
            self._ready.extend((spec, attempt) for at, spec, attempt
                               in self._delayed if at <= now)
            self._delayed = [item for item in self._delayed if item[0] > now]
        granted = []
        while self._ready and len(granted) < n:
            spec, attempt = self._ready.popleft()
            task = Task(spec, attempt, None if ttl is None else now + ttl)
            self._held[spec] = task
            granted.append(task)
        return granted

    def renew(self, task: Task, ttl: float | None) -> None:
        """Restart a held task's deadline ``ttl`` seconds from now
        (``None`` suspends it)."""
        if self._held.get(task.spec) is task:
            task.deadline = None if ttl is None else self._clock() + ttl

    def succeed(self, task: Task, result: RunResult) -> None:
        if self._drop(task):
            self.results[task.spec] = result
            self._news.append((task.spec, result))

    def fail(self, task: Task, kind: str, exception: str,
             traceback: str = "", worker_pid: int | None = None) -> bool:
        """Charge the task's attempt: a terminal :class:`RunFailure`
        once the budget is spent, else a retry (after the backoff).
        Returns whether a retry was queued."""
        if not self._drop(task):
            return False
        if task.attempt >= self.attempts:
            self._terminal(RunFailure(
                spec=task.spec, kind=kind, attempts=task.attempt,
                exception=exception, traceback=traceback,
                worker_pid=worker_pid))
            return False
        retry = (task.spec, task.attempt + 1)
        delay = self._backoff(task.attempt) if self._backoff else 0.0
        if delay > 0:
            self._delayed.append((self._clock() + delay, *retry))
        else:
            self._ready.append(retry)
        return True

    def release(self, task: Task) -> None:
        """Requeue a held task that never ran; no attempt is charged."""
        if self._drop(task):
            self._ready.append((task.spec, task.attempt))

    def expired(self) -> list[Task]:
        """Held tasks whose deadline has passed (still held: the caller
        decides what that costs)."""
        now = self._clock()
        return [task for task in self._held.values()
                if task.deadline is not None and task.deadline <= now]

    def next_wake(self) -> float | None:
        """Earliest deadline or backoff end; ``None`` when neither."""
        times = [task.deadline for task in self._held.values()
                 if task.deadline is not None]
        times += [at for at, _, _ in self._delayed]
        return min(times, default=None)

    def abort(self, reason: str) -> None:
        """Fail every open spec as ``aborted`` on its current attempt."""
        open_specs = [*self._ready,
                      *((spec, attempt) for _, spec, attempt in self._delayed),
                      *((task.spec, task.attempt)
                        for task in self._held.values())]
        self._ready.clear()
        self._delayed.clear()
        self._held.clear()
        for spec, attempt in open_specs:
            self._terminal(RunFailure(spec=spec, kind="aborted",
                                      attempts=attempt, exception=reason))

    def drain(self) -> list[tuple[RunSpec, RunResult | RunFailure]]:
        """Terminal outcomes recorded since the last drain."""
        news, self._news = self._news, []
        return news

    def batch(self, ordered: Sequence[RunSpec]) -> BatchResult:
        """Results aligned with ``ordered`` plus the failure report."""
        return BatchResult(results=[self.results.get(s) for s in ordered],
                           failures=list(self.failures.values()))

    def _terminal(self, failure: RunFailure) -> None:
        self.failures[failure.spec] = failure
        self._news.append((failure.spec, failure))

    def _drop(self, task: Task) -> bool:
        """End ``task``'s hold; False when it is not the current one."""
        if self._held.get(task.spec) is not task:
            return False
        del self._held[task.spec]
        return True


def deliver(outcomes: Iterable[tuple[RunSpec, RunResult | RunFailure]],
            on_result: Callable[[RunSpec, RunResult], None] | None = None,
            on_failure: Callable[[RunFailure], None] | None = None) -> None:
    """Fire ``run_many``'s callbacks for outcomes drained from a
    :class:`Schedule` (outside any lock, since callbacks take their
    own)."""
    for spec, outcome in outcomes:
        if isinstance(outcome, RunFailure):
            if on_failure is not None:
                on_failure(outcome)
        elif on_result is not None:
            on_result(spec, outcome)


def resolve_cached(schedule: Schedule) -> None:
    """Settle every spec the in-process memo or the persistent cache
    already holds; the misses go back to the schedule unrun."""
    for task in schedule.take(schedule.pending):
        hit = runner.cached_result(task.spec)
        if hit is None:
            schedule.release(task)
        else:
            schedule.succeed(task, hit)


class ExperimentEngine:
    """Shared executor for experiment matrices.

    Args:
        jobs: Worker processes. ``None`` reads ``REPRO_JOBS``; ``1``
            keeps everything in-process (serial fallback).
        retries: Retry budget per spec. ``None`` reads ``REPRO_RETRIES``
            (default 1 retry).
        timeout: Per-spec wall-clock seconds before a running worker is
            treated as hung. ``None`` reads ``REPRO_RUN_TIMEOUT``;
            ``0`` disables explicitly. Pool mode only.
    """

    def __init__(self, jobs: int | None = None,
                 retries: int | None = None,
                 timeout: float | None = None) -> None:
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.retries = retries if retries is not None else default_retries()
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if timeout is None:
            timeout = default_timeout()
        elif timeout <= 0:
            timeout = None
        self.timeout = timeout
        self._pool: ProcessPoolExecutor | None = None
        #: Pools respawned after a breakage/timeout (observability).
        self.pool_respawns = 0

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _recycle_pool(self) -> None:
        """Tear the pool down hard (terminating hung/zombie workers)
        and let the next submission build a fresh one."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self.pool_respawns += 1
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self, spec: RunSpec) -> RunResult:
        return self.run_many([spec])[0]

    def run_many(
        self,
        specs: Iterable[RunSpec],
        strict: bool = True,
        label: str | None = None,
        on_result: Callable[[RunSpec, RunResult], None] | None = None,
        on_failure: Callable[[RunFailure], None] | None = None,
    ) -> list[RunResult] | BatchResult:
        """Execute ``specs``; the result list is aligned with the input
        order (duplicates resolve to the same result object).

        With ``strict=True`` (default) any spec that exhausts its retry
        budget raises :class:`ExperimentFailure` — but only after every
        other spec has completed and been checkpointed, so a rerun only
        redoes the failures. With ``strict=False`` the return value is
        a :class:`BatchResult` carrying the partial results (``None``
        at failed positions) and the failure report. ``label`` names
        the batch (e.g. the figure id) in failure reports.

        ``on_result`` is invoked once per *unique* spec the moment its
        result resolves (cache hit or worker landing — the same moment
        it is checkpointed), and ``on_failure`` the moment a spec
        exhausts its retry budget; the sweep service streams per-spec
        progress from these. Callbacks run on the calling thread and
        must not raise.
        """
        ordered = list(specs)
        schedule = Schedule(ordered, attempts=self.retries + 1,
                            backoff=_backoff_delay)

        def report() -> None:
            deliver(schedule.drain(), on_result, on_failure)

        if self.jobs <= 1:
            self._run_serial(schedule, report)
        else:
            resolve_cached(schedule)
            report()
            self._run_pool(schedule, report)

        batch = schedule.batch(ordered)
        if not strict:
            return batch
        if batch.failures:
            raise ExperimentFailure(batch.failures, schedule.results,
                                    label=label)
        return batch.results

    # ------------------------------------------------------------------
    def _settle(self, schedule: Schedule, task: Task,
                outcome: RunResult | _WorkerFailure) -> None:
        """Report one attempt's outcome (either local transport)."""
        if isinstance(outcome, _WorkerFailure):
            schedule.fail(task, "error", outcome.exception,
                          traceback=outcome.traceback,
                          worker_pid=outcome.worker_pid)
            return
        if self.jobs > 1:
            # Checkpoint as results land, not at batch end (an inline
            # run_spec has already checkpointed its own result).
            runner.record_result(task.spec, outcome)
        schedule.succeed(task, outcome)

    def _run_serial(self, schedule: Schedule,
                    report: Callable[[], None]) -> None:
        """Inline execution with the same retry/failure contract as the
        pool (timeouts excepted: a hung in-process run cannot be
        interrupted). A retry waits out its backoff while the other
        specs run."""
        while not schedule.done:
            granted = schedule.take(1)
            if not granted:
                # Only backoff-delayed retries remain; sleep them in.
                time.sleep(max(0.0, schedule.next_wake() - time.monotonic()))
                continue
            (task,) = granted
            self._settle(schedule, task, _worker_run(task.spec, task.attempt))
            report()

    # ------------------------------------------------------------------
    def _run_pool(self, schedule: Schedule,
                  report: Callable[[], None]) -> None:
        """Per-spec futures with retry, pool recovery and timeouts.

        At most ``jobs`` futures are in flight at a time, so a spec's
        wall-clock deadline starts roughly when its worker starts, not
        when a huge batch was enqueued.
        """
        running: dict = {}  # future -> Task
        #: After an ambiguous pool break (several specs in flight, the
        #: culprit unknowable) the affected tasks stay held and replay
        #: one at a time, so a repeat break charges exactly the guilty
        #: spec.
        quarantine: deque[Task] = deque()

        def submit(task: Task) -> None:
            schedule.renew(task, self.timeout)
            future = self._ensure_pool().submit(_worker_run, task.spec,
                                                task.attempt)
            running[future] = task

        while not schedule.done:
            if quarantine:
                # Solo replay: exactly one in-flight task until the
                # quarantine drains, so breakage is attributable.
                if not running:
                    submit(quarantine.popleft())
            else:
                for task in schedule.take(self.jobs - len(running)):
                    submit(task)

            wake = schedule.next_wake()
            if not running:
                # Only backoff-delayed retries remain; sleep them in.
                time.sleep(max(0.0, wake - time.monotonic()))
                continue
            done, _ = wait(
                running, return_when=FIRST_COMPLETED,
                timeout=None if wake is None
                else max(0.0, wake - time.monotonic()))

            broken: list[tuple[Task, str]] = []
            for future in done:
                task = running.pop(future)
                if future.cancelled():
                    schedule.release(task)  # recycled before it started
                    continue
                exc = future.exception()
                if exc is not None:
                    # A worker process died (os._exit, OOM-kill, ...):
                    # every in-flight future fails with the same
                    # BrokenProcessPool.
                    broken.append((task, repr(exc)))
                    continue
                self._settle(schedule, task, future.result())

            if broken:
                # Remaining in-flight futures died with the pool too.
                affected = [task for task, _ in broken]
                affected += running.values()
                running.clear()
                self._recycle_pool()
                if len(affected) == 1:
                    # Unambiguous: this task's worker broke the pool.
                    schedule.fail(affected[0], "pool-broken", broken[0][1])
                else:
                    # Culprit unknowable: replay them one at a time (no
                    # attempt charged for the ambiguous break; deadlines
                    # restart at resubmission).
                    for task in affected:
                        schedule.renew(task, None)
                    quarantine.extend(affected)

            expired = schedule.expired()
            if expired:
                for task in expired:
                    schedule.fail(task, "timeout",
                                  f"TimeoutError: no result within "
                                  f"{self.timeout}s")
                # The hung workers hold pool slots until killed; recycle
                # and requeue the survivors (no attempt spent — they
                # were not at fault; the expired tasks are settled and
                # their release is ignored).
                for task in running.values():
                    schedule.release(task)
                running.clear()
                self._recycle_pool()
            report()

# ----------------------------------------------------------------------
# Shared default engine (what the figure harnesses submit through)
# ----------------------------------------------------------------------
_engine: ExperimentEngine | None = None


def get_engine() -> ExperimentEngine:
    global _engine
    if _engine is None:
        _engine = ExperimentEngine()
    return _engine


def configure(jobs: int | None, retries: int | None = None,
              timeout: float | None = None) -> ExperimentEngine:
    """Install a fresh default engine with ``jobs`` workers."""
    global _engine
    if _engine is not None:
        _engine.close()
    _engine = ExperimentEngine(jobs=jobs, retries=retries, timeout=timeout)
    return _engine


def shutdown() -> None:
    """Tear down the default engine's pool (idempotent)."""
    global _engine
    if _engine is not None:
        _engine.close()
        _engine = None


def run_specs(
    specs: Sequence[RunSpec],
    strict: bool = True,
    label: str | None = None,
) -> list[RunResult] | BatchResult:
    """Run ``specs`` through the shared default engine."""
    return get_engine().run_many(specs, strict=strict, label=label)
