"""Issue-core vs. plain-scan equivalence suite.

The simulator has one issue core (:mod:`repro.gpu.sm`): a per-scheduler
scan that screens warps inline from per-pc tables (scoreboard need
masks, instruction classes) and memoizes stall outcomes under seq
counters. Its oracle is the same core with both accelerations switched
off — ``_MEMO_KIND`` zeroed, so no slot outcome is ever replayed, and
tables that screen nothing, so every live warp takes the full per-warp
``_try_issue`` path. That is exactly the plain per-warp scan, and the
two must agree byte for byte:

* the plain scan reproduces ``tests/fixtures/golden_stats.json``
  byte-exactly (the fixture pins the core, so transitivity gives
  core == plain scan over the 5-app x 5-algorithm matrix);
* both are compared head to head on traced workload runs, down to the
  stall ledger's per-(category, warp) charges;
* hypothesis-fuzzed kernels, with and without assist warps, are run
  both ways and compared;
* over-invalidating every scheduler's memo on every ``touch`` leaves
  results byte-identical (seq counters may only err towards a rescan).
"""

import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import design as designs
from repro.gpu import sm as sm_mod
from repro.gpu import warp as warp_mod
from repro.gpu.config import GPUConfig
from repro.harness.runner import clear_caches, run_app
from repro.workloads.tracegen import TraceScale

from tests.gpu.test_simulator_fuzz import bodies, run_program
from tests.harness.test_golden_stats import (
    APPS,
    ALGORITHMS,
    FIXTURE,
    SCALE,
    _design_for,
    _snapshot,
)


@contextmanager
def plain_scan():
    """Run the simulations inside the block on the plain per-warp scan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sm_mod, "_MEMO_KIND", (0,) * len(sm_mod._MEMO_KIND))
        mp.setattr(sm_mod, "issue_tables",
                   lambda program: sm_mod.plain_tables(len(program.body)))
        yield


def _fingerprint(result):
    """Comparable summary of a raw simulation result."""
    return {
        "cycles": result.cycles,
        "parent_instructions": result.stats.parent_instructions,
        "assist_instructions": result.stats.assist_instructions,
        "slots": [list(sm.slots) for sm in result.stats.sms],
        "dram_reads": result.memory.stats.dram_reads,
        "dram_writes": result.memory.stats.dram_writes,
        "stats_repr": repr(result.stats),
        "sm_stats": [repr(sm.__dict__) for sm in result.stats.sms],
        "obs": result.obs.export() if result.obs is not None else None,
    }


# ----------------------------------------------------------------------
# Plain scan vs. the golden fixture (full app/algorithm matrix)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("app", APPS)
def test_reference_mode_matches_golden(app, algorithm):
    """The plain per-warp scan reproduces the pinned stats byte-exactly.

    The fixture is generated by the memoized core, so this closes the
    loop: plain scan == golden == core for every (app, algorithm) cell.
    """
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        pytest.skip("fixture is being regenerated")
    golden = json.loads(Path(FIXTURE).read_text())
    key = f"{app}/{algorithm}"
    assert key in golden, f"fixture has no entry for {key}"
    with plain_scan():
        clear_caches()
        run = run_app(app, _design_for(algorithm), GPUConfig.small(),
                      scale=SCALE, use_cache=False)
    assert _snapshot(run) == golden[key]


# ----------------------------------------------------------------------
# Head-to-head on representative traced workloads
# ----------------------------------------------------------------------
def _traced_run(app, algorithm):
    clear_caches()
    run = run_app(app, _design_for(algorithm), GPUConfig.small(),
                  scale=TraceScale(work=0.25, waves=0.25), use_cache=False,
                  keep_raw=True, trace=True)
    return _fingerprint(run.raw)


@pytest.mark.parametrize("app,algorithm", [
    ("PVC", "bdi"),        # memory-bound, assist warps + decompression
    ("MM", "none"),        # compute-leaning baseline
    ("CONS", "bestofall"), # store-heavy, composed algorithm
])
def test_modes_agree_head_to_head(app, algorithm):
    core = _traced_run(app, algorithm)
    with plain_scan():
        plain = _traced_run(app, algorithm)
    assert core["obs"]["ledger"]["per_warp"], "run was not traced"
    assert core == plain


# ----------------------------------------------------------------------
# Over-invalidation
# ----------------------------------------------------------------------
def test_over_invalidation_is_byte_identical(monkeypatch):
    """A memo is only as good as its seq counter: bumping *every*
    scheduler's counter on every ``touch`` (what a stray or late touch
    from another warp does to one of them) forces extra rescans but
    must never change a result."""
    scale = TraceScale(work=0.25, waves=0.25)
    design = _design_for("bdi")

    def run_once():
        clear_caches()
        return _fingerprint(run_app(
            "PVC", design, GPUConfig.small(), scale=scale,
            use_cache=False, keep_raw=True,
        ).raw)

    clean = run_once()

    touches = [0]

    def over_touch(warp):
        touches[0] += 1
        seq = warp.seq
        for s in range(len(seq)):
            seq[s] += 1

    # Every module that imported touch by name gets the over-eager one.
    real_touch = warp_mod.touch
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, "touch", None) is real_touch):
            monkeypatch.setattr(module, "touch", over_touch)
    over = run_once()
    monkeypatch.undo()

    assert touches[0] > 0, "touch was never called"
    assert over == clean


# ----------------------------------------------------------------------
# Fuzzed kernels both ways
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(kinds=bodies, iterations=st.integers(min_value=1, max_value=3))
def test_fuzzed_programs_agree_across_modes(kinds, iterations):
    with plain_scan():
        reference = run_program(kinds, iterations, designs.base())
    core = run_program(kinds, iterations, designs.base())
    assert _fingerprint(core) == _fingerprint(reference)


@settings(max_examples=6, deadline=None)
@given(kinds=bodies, iterations=st.integers(min_value=1, max_value=3))
def test_fuzzed_caba_runs_agree_across_modes(kinds, iterations):
    """Assist warps share the parent warps' units and gate them, but
    never invalidate a memo themselves: their activity must not
    disturb the parent warps' memoized scan."""
    from repro.compression import make_algorithm
    from repro.core.controller import CabaController
    from repro.core.params import CabaParams
    from repro.core.subroutines import SubroutineLibrary
    from repro.gpu.isa import Program
    from repro.gpu.kernel import Kernel
    from repro.gpu.simulator import Simulator
    from repro.memory.image import MemoryImage
    from tests.gpu.test_simulator_fuzz import _instr

    def run_once():
        config = GPUConfig.small()
        body = tuple(_instr(kind, salt=i) for i, kind in enumerate(kinds))
        kernel = Kernel(
            name="fuzz-caba",
            program=Program(body=body, iterations=iterations),
            n_blocks=3,
            warps_per_block=2,
            regs_per_thread=16,
        )
        algo = make_algorithm("bdi", config.line_size)
        image = MemoryImage(
            lambda line: bytes(config.line_size), algo, config.line_size
        )
        library = SubroutineLibrary(line_size=config.line_size)

        def factory(sm):
            return CabaController(sm, CabaParams(), library, "bdi")

        sim = Simulator(
            config, kernel, designs.caba("bdi"), image,
            caba_factory=factory,
            assist_regs_per_thread=library.register_demand("bdi"),
        )
        return sim.run()

    with plain_scan():
        reference = run_once()
    core = run_once()
    assert _fingerprint(core) == _fingerprint(reference)
