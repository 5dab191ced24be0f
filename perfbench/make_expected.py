"""Regenerate the benchmark's expected statistics.

Run from the repository root::

    python3 perfbench/make_expected.py

Simulates every (app, design) any seed can draw, from cold caches, and
rewrites ``perfbench/expected/sweep-cold.json``: the statistics of each
run and the digests of the compression planes each app's runs build.
Only regenerate after a change that is meant to alter simulated results;
the gate exists to catch the others.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(root / "src"))

    import gate
    import workloads as wl
    from repro.gpu.config import GPUConfig
    from repro.harness import runner
    from repro.harness.runner import RunSpec

    scratch = root / ".perfbench" / "make-expected"
    entries = {}
    # The service universe and the tiny smoke runs draw from the same file.
    apps = sorted({app for pair in wl.SWEEP_PAIRS for app in pair}
                  | set(wl.SERVICE_APPS) | {"RAY"})
    for app in apps:
        shutil.rmtree(scratch, ignore_errors=True)
        os.environ["REPRO_CACHE_DIR"] = str(scratch)
        runner.clear_caches()
        for design in wl.FIG7_DESIGNS:
            result = runner.run_spec(RunSpec(
                app=app, design=design, config=GPUConfig.small(),
                sample=None))
            key = gate.spec_id(app, design.name, "small")
            entries[key] = gate.snapshot(result)
            print(key, flush=True)
        entries[gate.plane_id(app, "small")] = \
            gate.cached_plane_digests(scratch)
    shutil.rmtree(scratch, ignore_errors=True)
    gate.save("sweep-cold", entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
