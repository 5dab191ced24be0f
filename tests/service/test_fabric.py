"""Distributed sweep fabric (`repro.service.fabric`).

Unit tests drive the coordinator's lease protocol directly (fabricated
results, no simulation); the integration test at the bottom is the
issue's acceptance scenario — a sweep dispatched to two worker
processes over real HTTP must be byte-identical to the single-node run
with **zero duplicate simulations**.
"""

import threading
import time

import pytest

from repro.harness import runner
from repro.harness.cache import version_stamp
from repro.harness.parallel import ExperimentEngine, RunFailure
from repro.service.client import ServiceClient, ServiceError
from repro.service.fabric import (
    FabricConfig,
    FabricCoordinator,
    FabricError,
    FabricWorker,
    decode_spec,
    encode_spec,
)
from repro.service.jobs import JobStore
from repro.service.server import ServiceConfig, SweepServer
from repro.service.specs import parse_request

from .conftest import make_result

PAYLOAD = {"sweep": {"apps": ["MM"], "designs": ["base", "caba"]}}


def _specs():
    return parse_request(PAYLOAD)


def _config(**overrides) -> FabricConfig:
    defaults = dict(lease_ttl=30.0, lease_specs=2, retries=3, poll=0.05)
    defaults.update(overrides)
    return FabricConfig(**defaults)


class _Batch:
    """Runs ``coordinator.run_many`` on a thread and collects the
    store-facing callbacks."""

    def __init__(self, coordinator, specs) -> None:
        self.results = {}
        self.failures = []
        self.batch = None
        self.thread = threading.Thread(
            target=self._run, args=(coordinator, specs), daemon=True)
        self.thread.start()

    def _run(self, coordinator, specs) -> None:
        self.batch = coordinator.run_many(
            specs, strict=False,
            on_result=lambda spec, result: self.results.__setitem__(
                spec, result),
            on_failure=self.failures.append,
        )

    def join(self, timeout: float = 30.0):
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "run_many never returned"
        return self.batch


class TestSpecWire:
    def test_encode_decode_round_trip(self):
        for spec in _specs():
            assert decode_spec(encode_spec(spec)) == spec


class TestProtocol:
    def test_register_rejects_stamp_mismatch(self):
        coordinator = FabricCoordinator(_config())
        with pytest.raises(FabricError) as exc_info:
            coordinator.register("w", "somebody-elses-stamp")
        assert exc_info.value.code == "stamp-mismatch"

    def test_lease_requires_registration(self):
        coordinator = FabricCoordinator(_config())
        with pytest.raises(FabricError) as exc_info:
            coordinator.lease("ghost")
        assert exc_info.value.code == "unknown-worker"

    def test_lease_complete_resolves_batch(self):
        coordinator = FabricCoordinator(_config())
        specs = _specs()
        batch = _Batch(coordinator, specs)
        worker = coordinator.register("w", version_stamp())["worker"]

        deadline = time.monotonic() + 10.0
        done = []
        while len(done) < len(specs):
            assert time.monotonic() < deadline
            lease = coordinator.lease(worker)
            if lease["lease"] is None:
                time.sleep(0.01)
                continue
            for item in lease["specs"]:
                spec = decode_spec(item["spec"])
                # Stand-in for the worker's upload: land the result in
                # the coordinator's cache through the checkpoint path.
                runner.record_result(spec, make_result(spec))
                done.append(item["key"])
            coordinator.complete(worker, lease["lease"],
                                 done=[i["key"] for i in lease["specs"]],
                                 failures=[], simulated=len(lease["specs"]))
        result = batch.join()
        assert not result.failures
        assert all(r is not None for r in result.results)
        assert set(batch.results) == set(specs)
        stats = coordinator.stats()
        assert stats["completed"] == len(specs)
        assert stats["remote_simulated"] == len(specs)

    def test_expired_lease_requeues_and_survivor_completes(self):
        coordinator = FabricCoordinator(_config(lease_ttl=0.2,
                                                lease_specs=2))
        specs = _specs()
        batch = _Batch(coordinator, specs)
        crasher = coordinator.register("crasher", version_stamp())["worker"]
        lease = coordinator.lease(crasher)
        assert len(lease["specs"]) == len(specs)
        # The crasher never completes nor heartbeats; its lease expires
        # and the specs go back to the queue for the survivor.
        survivor = coordinator.register("survivor",
                                        version_stamp())["worker"]
        deadline = time.monotonic() + 10.0
        regranted = []
        while len(regranted) < len(specs):
            assert time.monotonic() < deadline
            grant = coordinator.lease(survivor)
            if grant["lease"] is None:
                time.sleep(0.02)
                continue
            for item in grant["specs"]:
                spec = decode_spec(item["spec"])
                runner.record_result(spec, make_result(spec))
                regranted.append(item["key"])
            coordinator.complete(
                survivor, grant["lease"],
                done=[i["key"] for i in grant["specs"]], failures=[])
        result = batch.join()
        assert not result.failures
        stats = coordinator.stats()
        assert stats["leases_expired"] >= 1
        assert stats["specs_requeued"] >= len(specs)
        # The crasher's complete is now a structured stale-lease error.
        with pytest.raises(FabricError) as exc_info:
            coordinator.complete(crasher, lease["lease"], done=[],
                                 failures=[])
        assert exc_info.value.code == "stale-lease"

    def test_retries_exhausted_becomes_structured_failure(self):
        coordinator = FabricCoordinator(_config(lease_ttl=0.1,
                                                retries=2, lease_specs=2))
        specs = _specs()[:1]
        batch = _Batch(coordinator, specs)
        worker = coordinator.register("w", version_stamp())["worker"]
        granted = 0
        deadline = time.monotonic() + 20.0
        while granted < 2:  # burn both attempts by letting leases die
            assert time.monotonic() < deadline
            grant = coordinator.lease(worker)
            if grant["lease"] is None:
                time.sleep(0.02)
                continue
            granted += 1
            # never complete: the TTL does the failing
        result = batch.join()
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "lease-expired"
        assert failure.attempts == 2
        assert batch.failures == [failure]

    def test_worker_failure_report_charges_an_attempt(self):
        coordinator = FabricCoordinator(_config(retries=1))
        specs = _specs()[:1]
        batch = _Batch(coordinator, specs)
        worker = coordinator.register("w", version_stamp())["worker"]
        deadline = time.monotonic() + 10.0
        while True:
            assert time.monotonic() < deadline
            grant = coordinator.lease(worker)
            if grant["lease"] is not None:
                break
            time.sleep(0.01)
        coordinator.complete(
            worker, grant["lease"], done=[],
            failures=[{"key": grant["specs"][0]["key"], "kind": "error",
                       "exception": "BoomError: injected"}])
        result = batch.join()
        assert len(result.failures) == 1
        assert result.failures[0].kind == "error"
        assert "BoomError" in result.failures[0].exception

    def test_done_without_upload_is_not_silent_success(self):
        """A worker claiming a spec done whose result never landed in
        the cache must cost an attempt, not fabricate a completion."""
        coordinator = FabricCoordinator(_config(retries=1))
        specs = _specs()[:1]
        batch = _Batch(coordinator, specs)
        worker = coordinator.register("w", version_stamp())["worker"]
        deadline = time.monotonic() + 10.0
        while True:
            assert time.monotonic() < deadline
            grant = coordinator.lease(worker)
            if grant["lease"] is not None:
                break
            time.sleep(0.01)
        coordinator.complete(worker, grant["lease"],
                             done=[grant["specs"][0]["key"]], failures=[])
        result = batch.join()
        assert len(result.failures) == 1
        assert result.failures[0].kind == "upload-missing"

    def test_complete_only_settles_the_callers_own_lease(self):
        """A report naming a key leased to another worker is ignored:
        it must neither fail that spec nor block its holder's result."""
        coordinator = FabricCoordinator(_config(retries=1, lease_specs=1))
        specs = _specs()
        batch = _Batch(coordinator, specs)
        holder = coordinator.register("a", version_stamp())["worker"]
        meddler = coordinator.register("b", version_stamp())["worker"]
        deadline = time.monotonic() + 10.0
        while True:
            assert time.monotonic() < deadline
            grant = coordinator.lease(holder)
            if grant["lease"] is not None:
                break
            time.sleep(0.01)
        other = coordinator.lease(meddler)
        assert other["lease"] is not None
        key = grant["specs"][0]["key"]
        # Presenting the holder's lease id is refused and leaves the
        # lease active for its holder.
        with pytest.raises(FabricError) as exc_info:
            coordinator.complete(meddler, grant["lease"], done=[key],
                                 failures=[])
        assert exc_info.value.code == "stale-lease"
        coordinator.complete(
            meddler, other["lease"], done=[],
            failures=[{"key": key, "kind": "error",
                       "exception": "BoomError: not my spec"}])

        spec = decode_spec(grant["specs"][0]["spec"])
        runner.record_result(spec, make_result(spec))
        coordinator.complete(holder, grant["lease"], done=[key],
                             failures=[])
        # The meddler's own spec went back unreported; finish it.
        again = coordinator.lease(meddler)
        (item,) = again["specs"]
        retried = decode_spec(item["spec"])
        runner.record_result(retried, make_result(retried))
        coordinator.complete(meddler, again["lease"], done=[item["key"]],
                             failures=[])
        result = batch.join()
        assert not result.failures
        assert batch.results[spec] == make_result(spec)
        assert set(batch.results) == set(specs)

    def test_abort_fails_open_specs(self):
        coordinator = FabricCoordinator(_config())
        batch = _Batch(coordinator, _specs())
        time.sleep(0.05)
        coordinator.abort()
        result = batch.join()
        assert result.failures
        assert all(f.kind == "aborted" for f in result.failures)


class TestIntegration:
    """The acceptance scenario, over real HTTP and real simulations."""

    def test_two_worker_sweep_matches_single_node(self, tmp_path,
                                                  monkeypatch):
        n_specs = len(_specs())

        # --- single-node reference run --------------------------------
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "single"))
        runner.clear_caches()
        store = JobStore(engine=ExperimentEngine(jobs=1))
        server = SweepServer(store, ServiceConfig(host="127.0.0.1",
                                                  port=0))
        host, port = server.start_background()
        client = ServiceClient(f"http://{host}:{port}", tenant="ref")
        before = runner.simulation_count()
        accepted = client.submit(PAYLOAD)
        final = client.wait(accepted["job"], timeout=600.0)
        assert final["status"] == "done"
        single_sims = runner.simulation_count() - before
        assert single_sims == n_specs
        single_bytes = client.result_bytes(accepted["job"])
        server.stop()
        store.close()

        # --- same sweep through the fabric, fresh cache ---------------
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fabric"))
        runner.clear_caches()
        coordinator = FabricCoordinator(
            _config(lease_ttl=15.0, lease_specs=1))
        store = JobStore(engine=coordinator)
        server = SweepServer(store, ServiceConfig(host="127.0.0.1",
                                                  port=0))
        host, port = server.start_background()
        url = f"http://{host}:{port}"
        try:
            client = ServiceClient(url, tenant="fab")
            before = runner.simulation_count()
            accepted = client.submit(PAYLOAD)
            workers = [FabricWorker(url, name=f"w{i}", max_idle=2.0)
                       for i in range(2)]
            threads = [threading.Thread(target=w.run, daemon=True)
                       for w in workers]
            for thread in threads:
                thread.start()
            final = client.wait(accepted["job"], timeout=600.0)
            assert final["status"] == "done"

            # Zero duplicate simulations across the whole fabric: the
            # workers share this process, so the counter covers both.
            assert runner.simulation_count() - before == n_specs
            fabric_bytes = client.result_bytes(accepted["job"])
            assert fabric_bytes == single_bytes

            stats = client.stats()
            assert stats["fabric"]["remote_simulated"] == n_specs
            assert stats["fabric"]["remote_cached"] == 0
            assert stats["fabric"]["completed"] == n_specs

            # Resubmission is served from the shared cache: a resumed
            # sweep costs nothing.
            again = ServiceClient(url, tenant="resumer").submit(PAYLOAD)
            assert again["served_from"] == "cache"
            assert runner.simulation_count() - before == n_specs

            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            assert sum(w.simulated for w in workers) == n_specs
        finally:
            server.stop()
            store.close()

    def test_fabric_endpoints_404_without_fabric_engine(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "plain"))
        runner.clear_caches()
        store = JobStore(engine=ExperimentEngine(jobs=1))
        server = SweepServer(store, ServiceConfig(host="127.0.0.1",
                                                  port=0))
        host, port = server.start_background()
        try:
            client = ServiceClient(f"http://{host}:{port}")
            with pytest.raises(ServiceError) as exc_info:
                client.register_worker("w", version_stamp())
            assert exc_info.value.status == 404
            assert exc_info.value.code == "fabric-disabled"
        finally:
            server.stop()
            store.close()
