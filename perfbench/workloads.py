"""The benchmark's workloads, as clients of the program's public API.

Every workload is a repeatable *unit* of work plus a *set-up*:

* ``sweep-cold``  the Fig. 7 five-design matrix over two seed-drawn apps
  on ``GPUConfig.small()``, from an empty cache and fresh runner memos,
  through the serial engine (``ExperimentEngine.run_many``).
* ``service-warm`` a ``repro serve`` subprocess over a cache that a
  separate process filled during set-up; two client threads (two
  tenants, one connection each) run a closed loop of submit, wait and
  fetch until a fixed batch of jobs is done. The server reads each spec
  from the cache once and then answers from its in-process memo.

Units are timed in host CPU seconds: those of this process, plus the
server's for service-warm.

Two further workloads were left out: cold compression planes, and a
CABA-BDI + Base pair on the 15-SM Table-1 machine. With a fixed time
budget for all runs, fewer workloads leave each run long enough to repeat
well on a shared 2-vCPU host. Their layers (line generation, plane
kernels, plane cache writes, the issue loop with its SoA screen) all run
inside sweep-cold.

sweep-cold draws its apps from cost-matched pairs: the benchmark
compares runs made with different seeds, so every draw must cost about
the same host time (see ``BENCHMARK.json`` for the layers each workload
exercises and bypasses).
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import tracing

from repro import design as designs
from repro.gpu.config import GPUConfig
from repro.harness import cache as cache_mod
from repro.harness import parallel, runner
from repro.harness.runner import RunSpec
from repro.service.client import ServiceClient

HERE = Path(__file__).resolve().parent

#: Five-design matrix of Fig. 7 (Base, HW-BDI-Mem, HW-BDI, CABA-BDI,
#: Ideal-BDI).
FIG7_DESIGNS = designs.figure7_designs()

#: sweep-cold app pairs: one is drawn per seed. Single apps differ by up
#: to 1.4x in CPU time per five-design sweep; the two pairs cost within
#: 2% of each other when measured back to back, simulate within 8% as
#: many instructions, and each pairs a BDI-friendly value mix (KM, CONS)
#: with a text/dictionary (JPEG) or narrow/float (SLA) one.
SWEEP_PAIRS = (("KM", "SLA"), ("JPEG", "CONS"))

#: service-warm universe: the set-up fills the cache with these specs;
#: each job is the cross product of a drawn app subset and design subset.
SERVICE_APPS = ("RAY", "CONS")
SERVICE_DESIGNS = ("base", "hw")
SERVICE_DESIGN_NAMES = {"base": "Base", "hw": "HW-BDI"}
#: Jobs per timed batch: short batches, so the run's fastest one comes
#: from a quiet stretch of the host.
SERVICE_BATCH_JOBS = 250
#: Jobs in the traced batch: enough for a p99 with ten jobs beyond it.
SERVICE_TRACE_JOBS = 1000
SERVICE_CONNECTIONS = 2
#: service-warm gives the client and the server a CPU each (when it has
#: two). Left to the scheduler, their threads migrate between CPUs, and a
#: batch costs 10-40% more CPU time, by an amount that changes from run to
#: run (measured on a 2-vCPU host).
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPUS, SERVER_CPUS = (({_CPUS[0]}, {_CPUS[1]}) if len(_CPUS) >= 2
                            else (set(_CPUS), set(_CPUS)))


def child_env(root: Path, **extra: str) -> dict:
    """Environment for processes the benchmark starts: the (already
    stripped) ambient environment, ``src`` on the path, plus ``extra``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env.update(extra)
    return env


@dataclass
class Unit:
    """Outcome of one timed unit.

    ``op_cpu_s`` holds the host CPU seconds of each operation: a simulated
    run for sweep-cold, which does the same runs in the same order in
    every unit, or the whole batch for service-warm. They add up to
    ``cpu_s``.
    """

    cpu_s: float
    work: float
    op_cpu_s: list[float]
    #: ``(RunResult, GPUConfig)`` of each simulated run.
    runs: list = field(default_factory=list)
    #: Counts the workload took itself, by per-layer metric name.
    counters: dict = field(default_factory=dict)


class Workload:
    """One workload: draws its inputs from a seed and runs units."""

    name = ""
    #: What ``Unit.work`` counts (for the printed record).
    work_unit = ""
    #: Expected-statistics file the gate compares against.
    expected = ""

    def __init__(self, root: Path, workdir: Path, seed: int,
                 size: str, gate_: gate.Gate) -> None:
        self.root = root
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.size = size
        self.gate = gate_
        self._units = 0

    def fresh_dir(self) -> Path:
        self._units += 1
        path = self.workdir / f"unit-{self._units}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def describe(self) -> dict:
        raise NotImplementedError

    def setup(self, trials: int) -> list[float]:
        """Run the set-up ``trials`` times; returns each one's seconds."""
        raise NotImplementedError

    def unit(self, tracer=None) -> Unit:
        raise NotImplementedError

    def summarize(self, units: list[Unit]) -> dict[str, float]:
        """Best-of-N CPU time over the run's units.

        Other tenants of a shared host slow it down for stretches of
        seconds to minutes. CPU time leaves out the time the program waits
        to be scheduled (a service job crosses threads and processes
        several times), and each operation's fastest repetition is the
        steadiest estimate of its cost. ``cpu_s`` is the sum of those: one
        unit with every operation at its best.
        """
        best = [min(times) for times in zip(*(u.op_cpu_s for u in units))]
        cpu = sum(best)
        return {"cpu_s": cpu, "work_per_cpu_s": units[0].work / cpu}

    def traced_unit(self, tracer, trace_path: Path):
        """One unit with every layer wrapped; returns the unit and the
        tracer summary of any other process involved (None here)."""
        installed = tracing.install(tracer)
        try:
            return self.unit(tracer), None
        finally:
            installed.undo()

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process that does the work (this one)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        """Stop anything the workload started."""

    def import_setups(self, code: str, trials: int) -> list[float]:
        """Time fresh interpreters importing what the workload uses."""
        times = []
        for _ in range(trials):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=self.root,
                           env=child_env(self.root), check=True,
                           timeout=120)
            times.append(time.perf_counter() - t0)
        # This process pays the same stamp cost once, outside the units.
        cache_mod.version_stamp()
        return times


# ----------------------------------------------------------------------
# Simulation sweep
# ----------------------------------------------------------------------
_SIM_IMPORTS = ("import repro.harness.parallel, repro.harness.runner\n"
                "from repro.harness.cache import version_stamp\n"
                "version_stamp()\n")


class SweepCold(Workload):
    name = "sweep-cold"
    expected = "sweep-cold"
    work_unit = "simulated instructions (parent + assist)"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.size == "tiny":
            self.apps = ["RAY"]
            self.designs = (designs.base(), designs.caba("bdi"))
        else:
            self.apps = list(self.rng.choice(SWEEP_PAIRS))
            self.designs = FIG7_DESIGNS

    def describe(self) -> dict:
        return {"apps": self.apps,
                "designs": [d.name for d in self.designs]}

    def setup(self, trials: int) -> list[float]:
        parallel.configure(jobs=1)
        return self.import_setups(_SIM_IMPORTS, trials)

    def unit(self, tracer=None) -> Unit:
        config = GPUConfig.small()
        specs = [RunSpec(app=app, design=design, config=config, sample=None)
                 for app in self.apps for design in self.designs]
        directory = self.fresh_dir()
        os.environ["REPRO_CACHE_DIR"] = str(directory)
        runner.clear_caches()
        engine = parallel.get_engine()
        sims_before = runner.simulation_count()
        marks: list[float] = []
        c0 = time.process_time()
        results = engine.run_many(
            specs, on_result=lambda spec, result: marks.append(
                time.process_time()))
        ops = [b - a for a, b in zip([c0] + marks, marks)]
        work = 0
        for spec, result in zip(specs, results):
            work += result.instructions + result.assist_instructions
            self.gate.check(gate.spec_id(spec.app, spec.design.name, "small"),
                            gate.snapshot(result))
        want = sorted(digest for app in self.apps for digest in
                      self.gate.expected.get(gate.plane_id(app, "small"), []))
        got = gate.cached_plane_digests(directory)
        self.gate.record(bool(want) and got == want,
                         f"planes of {self.apps}: expected {len(want)} "
                         f"digests, got {len(got)}, or they differ")
        counters = {
            "runner.simulations": runner.simulation_count() - sims_before,
            "cache.bytes_written": _tree_bytes(directory),
        }
        shutil.rmtree(directory, ignore_errors=True)
        return Unit(sum(ops), work, ops,
                    runs=[(result, config) for result in results],
                    counters=counters)


# ----------------------------------------------------------------------
# Sweep service
# ----------------------------------------------------------------------
_LISTENING = re.compile(r"listening on (http://[\w.\-]+:\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class _Server:
    """A ``repro serve`` subprocess (via ``perfbench/serve.py``)."""

    def __init__(self, root: Path, cache_dir: Path,
                 trace_out: Path | None = None) -> None:
        cmd = [sys.executable, "-u", str(HERE / "serve.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        env = child_env(root, REPRO_CACHE_DIR=str(cache_dir),
                        REPRO_SERVE_RATE="0")
        self._log = open(cache_dir.parent / "server.log", "ab")
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        self.url = None
        self._drain = None
        try:
            # The interpreter is still starting up, so no thread of the
            # server exists yet; the threads it starts inherit this mask.
            os.sched_setaffinity(self.proc.pid, SERVER_CPUS)
            for line in self.proc.stdout:
                match = _LISTENING.search(line)
                if match:
                    self.url = match.group(1)
                    break
            if self.url is None:
                raise RuntimeError("sweep server exited before listening")
            # Keep reading stdout so the server never blocks on a full pipe.
            self._drain = threading.Thread(target=self._read_rest,
                                           daemon=True)
            self._drain.start()
        except BaseException:
            self.stop()
            raise

    def _read_rest(self) -> None:
        for _ in self.proc.stdout:
            pass

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server so far (all threads)."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        # utime and stime, fields 14 and 15 of proc(5).
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return kb / 1024

    def stop(self) -> None:
        """SIGTERM (``serve.py`` turns it into a clean shutdown), then
        wait; kill if it does not end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.proc.stdout.close()
        self._log.close()


class ServiceWarm(Workload):
    name = "service-warm"
    #: The service universe is part of the sweep-cold universe.
    expected = "sweep-cold"
    work_unit = "jobs"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.size == "tiny":
            self.apps, self.designs = ["RAY"], ["base"]
            self.batch_jobs = self.trace_jobs = 20
        else:
            self.apps, self.designs = list(SERVICE_APPS), list(SERVICE_DESIGNS)
            self.batch_jobs = SERVICE_BATCH_JOBS
            self.trace_jobs = SERVICE_TRACE_JOBS
        self.job_seed = self.rng.randrange(2 ** 32)
        self.server: _Server | None = None
        self.cache_dir: Path | None = None
        self.bodies: dict[str, bytes] = {}
        self._jobs_done = 0

    def describe(self) -> dict:
        return {"apps": self.apps, "designs": self.designs,
                "batch_jobs": self.batch_jobs,
                "connections": SERVICE_CONNECTIONS}

    def _sweep(self, apps, designs_) -> dict:
        return {"sweep": {"apps": sorted(apps), "designs": sorted(designs_),
                          "algorithm": "bdi", "config": "small"}}

    def _check_body(self, payload: dict, body: bytes) -> bool:
        """First body of a sweep: every result matches the expected
        statistics; later bodies: byte-identical to the first."""
        key = json.dumps(payload, sort_keys=True)
        first = self.bodies.get(key)
        if first is not None:
            return body == first
        sweep = payload["sweep"]
        names = [(app, SERVICE_DESIGN_NAMES[d])
                 for app in sweep["apps"] for d in sweep["designs"]]
        try:
            data = json.loads(body)
            results = data["results"]
            ok = (data["status"] == "done" and not data["failures"]
                  and len(results) == len(names))
            for (app, design), entry in zip(names, results):
                want = self.gate.expected.get(
                    gate.spec_id(app, design, "small"))
                ok = ok and (entry["app"], entry["design"]) == (app, design) \
                    and gate.snapshot_from_payload(entry) == want
        except (ValueError, KeyError, TypeError):
            return False
        if ok:
            self.bodies[key] = body
        return ok

    def setup(self, trials: int) -> list[float]:
        """Each trial fills an empty cache from a separate process, starts
        a server over it and fetches the whole universe once (one cache
        read per spec); the last server stays up."""
        fill = ("import json, sys\n"
                "from repro.harness.parallel import run_specs\n"
                "from repro.service.specs import parse_request\n"
                "run_specs(parse_request(json.loads(sys.argv[1])))\n")
        payload = self._sweep(self.apps, self.designs)
        # Threads this process starts from now on inherit the mask.
        os.sched_setaffinity(0, CLIENT_CPUS)
        times = []
        for _ in range(trials):
            if self.server is not None:
                self.server.stop()
                self.server = None
            self.cache_dir = self.fresh_dir()
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", fill, json.dumps(payload)],
                cwd=self.root,
                env=child_env(self.root, REPRO_CACHE_DIR=str(self.cache_dir)),
                check=True, timeout=120)
            self.server = _Server(self.root, self.cache_dir)
            client = ServiceClient(self.server.url, tenant="setup")
            job = client.submit(payload)
            client.wait(job["job"], timeout=120, poll=0.5)
            body = client.result_bytes(job["job"])
            times.append(time.perf_counter() - t0)
            self.gate.record(
                job.get("served_from") == "cache"
                and self._check_body(payload, body),
                "service set-up: results differ from the expected "
                "statistics or were not served from the filled cache")
        return times

    def _stats(self, client: ServiceClient) -> dict:
        stats = client.stats()
        return {
            "simulations": stats["simulations"],
            "cache": stats["served_from"].get("cache", 0),
            "coalesced": stats["served_from"].get("coalesced", 0),
            "rejected": sum(t["rejected"] for t in stats["tenants"].values()),
        }

    def unit(self, tracer=None, jobs: int | None = None) -> Unit:
        """One batch of ``jobs`` (default: a timed batch's size)."""
        jobs = jobs or self.batch_jobs
        url = self.server.url
        before = self._stats(ServiceClient(url))
        lock = threading.Lock()
        claimed = [0]
        records: list[tuple] = []
        errors: list[str] = []

        def connection(index: int) -> None:
            client = ServiceClient(url, tenant=f"tenant-{index}", timeout=30)
            rng = random.Random(self.job_seed * 7919 + index
                                + 31 * self._jobs_done)
            while True:
                with lock:
                    if claimed[0] >= jobs:
                        return
                    job_no = self._jobs_done + claimed[0]
                    claimed[0] += 1
                apps = rng.sample(self.apps, rng.randint(1, len(self.apps)))
                designs_ = rng.sample(self.designs,
                                      rng.randint(1, len(self.designs)))
                payload = self._sweep(apps, designs_)
                if tracer is not None:
                    tracer.set_spec(job_no)
                try:
                    t0 = time.perf_counter()
                    job = client.submit(payload)
                    t1 = time.perf_counter()
                    client.wait(job["job"], timeout=30, poll=1.0)
                    t2 = time.perf_counter()
                    body = client.result_bytes(job["job"])
                    t3 = time.perf_counter()
                except Exception as exc:  # keep the loop going; counted
                    with lock:
                        errors.append(f"job {job_no}: {exc}")
                    continue
                with lock:
                    records.append((payload, body, t0, t1, t2, t3,
                                    job.get("served_from")))

        threads = [threading.Thread(target=connection, args=(i,))
                   for i in range(SERVICE_CONNECTIONS)]
        c0 = time.process_time() + self.server.cpu_s()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cpu = time.process_time() + self.server.cpu_s() - c0
        self._jobs_done += jobs
        after = self._stats(ServiceClient(url))

        for message in errors:
            self.gate.record(False, message)
        latencies = []
        for payload, body, s0, s1, s2, s3, served_from in records:
            self.gate.record(
                served_from == "cache" and self._check_body(payload, body),
                f"job {payload}: body differs or was not served from "
                f"cache ({served_from})")
            latencies.append(s3 - s0)
        simulations = after["simulations"] - before["simulations"]
        self.gate.record(simulations == 0,
                         f"{simulations} simulations in the timed part")
        counters = {
            "service.submit_ms": _median_ms([r[3] - r[2] for r in records]),
            "service.wait_ms": _median_ms([r[4] - r[3] for r in records]),
            "service.result_ms": _median_ms([r[5] - r[4] for r in records]),
            "service.result_bytes": (sum(len(r[1]) for r in records)
                                     / max(1, len(records))),
            "service.served_from_cache": after["cache"] - before["cache"],
            "service.coalesced": after["coalesced"] - before["coalesced"],
            "service.rejected": after["rejected"] - before["rejected"],
            "service.simulations": simulations,
        }
        counters["service.job_p50_ms"] = _percentile(latencies, 50) * 1e3
        counters["service.job_p99_ms"] = _percentile(latencies, 99) * 1e3
        # The batch is one operation: its jobs overlap in time.
        return Unit(cpu, len(records), [cpu], counters=counters)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process that does the work (the server)."""
        return self.server.peak_rss_mb()

    def traced_unit(self, tracer, trace_path: Path):
        """Restart the server traced over the filled cache, run one
        batch with the client calls traced, and collect the server's
        summary when it stops."""
        server_trace = trace_path.with_suffix(".server.spans")
        self.server.stop()
        self.server = _Server(self.root, self.cache_dir, server_trace)
        installed = tracing.install_client(tracer)
        try:
            unit = self.unit(tracer, self.trace_jobs)
        finally:
            installed.undo()
            self.server.stop()
            self.server = None
        return unit, json.loads(server_trace.with_suffix(".json").read_text())

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {cls.name: cls for cls in (SweepCold, ServiceWarm)}


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
