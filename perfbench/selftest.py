"""Self-tests of the benchmark.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` has the required shape.
2. A tiny-size run of each workload, traced and untraced, exits 0 and
   prints exactly the metrics ``BENCHMARK.json`` names, with its units.
3. A planted mismatch (one perturbed expected statistic or plane digest,
   in a copy of the benchmark over this ``src/``) fails the gate: the run
   exits non-zero and reports ``correct: false``.
4. Without ``src/`` (only ``BENCHMARK.json`` and ``perfbench/``), the
   benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench" / "selftest"

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message, flush=True)
    if not ok:
        failures.append(message)


def check_benchmark_json(bench: dict) -> None:
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the contract keys")
    expect(all(PATH.match(p) and ".." not in p.split("/")
               and not p.startswith("/") for p in bench["paths"])
           and 1 <= len(bench["paths"]) <= 16, "paths are valid")
    expect(isinstance(bench["run_seconds"], int)
           and 1 <= bench["run_seconds"] <= 60, "run_seconds in 1..60")
    expect(2 <= len(bench["workloads"]) <= 8
           and all(set(w) == {"name", "why"} and len(w["why"]) <= 200
                   and "\n" not in w["why"] for w in bench["workloads"]),
           "workloads have a name and a one-line why of <= 200 characters")
    names = [m["name"] for section in ("workloads", "end_to_end",
                                       "per_layer")
             for m in bench[section]]
    expect(all(NAME.match(n) for n in names), "names are well formed")
    expect(len(names) == len(set(names)), "names are used once")
    expect(all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in bench["end_to_end"]),
           "end-to-end metrics have bounds in (0, 0.25]")
    expect(all(set(m) == {"name", "unit", "better"}
               for m in bench["per_layer"]), "per-layer metrics have no bound")
    expect(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in bench["end_to_end"] + bench["per_layer"]),
           "units and directions are well formed")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    expect(bounds.get("setup_s") == max(bounds.values()),
           "setup_s has the largest bound")


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py"] + args, cwd=cwd,
        capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_smoke(bench: dict) -> None:
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(["--workload", workload, "--seed", "1",
                               "--seconds", "1", "--trace", str(trace),
                               "--size", "tiny"])
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                expect(False, f"{label}: last line is a JSON result")
                continue
            expect(code == 0 and result.get("correct") is True,
                   f"{label}: exits 0 with correct outputs")
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"},
                   f"{label}: result has exactly the contract keys")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: metric.get("unit")
                   for name, metric in result.get("metrics", {}).items()}
            expect(got == want, f"{label}: metric names and units match "
                                f"BENCHMARK.json {section}")
            values = [m.get("value") for m in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) for v in values),
                   f"{label}: every value is a number")
            if trace == 0:
                expect(all(v > 0 for v in values),
                       f"{label}: end-to-end values are never 0")


def copy_benchmark(name: str) -> Path:
    """A directory holding only ``BENCHMARK.json`` and ``perfbench/``."""
    copy = SCRATCH / name
    shutil.rmtree(copy, ignore_errors=True)
    copy.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
    shutil.copytree(HERE, copy / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def perturb_cycles(expected: dict) -> None:
    expected["RAY/CABA-BDI@small"]["cycles"] += 1


def perturb_plane(expected: dict) -> None:
    expected["planes:RAY@small"][0] = "0" * 64


def check_planted_mismatch(perturb) -> None:
    copy = copy_benchmark("planted")
    (copy / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = copy / HERE.name / "expected" / "sweep-cold.json"
    expected = json.loads(path.read_text())
    perturb(expected)
    path.write_text(json.dumps(expected))
    code, lines = run(["--workload", "sweep-cold", "--seed", "1",
                       "--seconds", "1", "--trace", "0", "--size", "tiny"],
                      cwd=copy)
    result = json.loads(lines[-1]) if lines else {}
    expect(code != 0 and result.get("correct") is False
           and result.get("failed", 0) >= 1,
           f"{perturb.__name__}: a perturbed expected value fails the gate")


def check_without_source() -> None:
    code, lines = run(["--workload", "sweep-cold", "--seed", "1",
                       "--seconds", "1", "--trace", "0"],
                      cwd=copy_benchmark("bare"))
    expect(code != 0 and not lines,
           "without src/ the benchmark exits non-zero and prints nothing")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_benchmark_json(bench)
    check_planted_mismatch(perturb_cycles)
    check_planted_mismatch(perturb_plane)
    check_without_source()
    check_smoke(bench)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
