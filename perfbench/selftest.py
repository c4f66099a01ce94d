"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches catalog.py; runs every workload at the
small size with tracing off, and once with tracing on, asserting that the
last line carries every metric BENCHMARK.json names, finite and with its
unit; asserts that the output checks fail against a deliberately corrupted
reference; and asserts that the benchmark refuses to run without the
program's sources. Takes about a minute.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".perfbench_work" / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess, units: dict[str, str]) -> dict:
    assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == set(units), set(units) ^ set(result["metrics"])
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, (name, metric)
        assert metric["unit"] == units[name], (name, metric)
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, metric)
    return result


def check_manifest() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"] and spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER]


def corrupt_reference(path: Path) -> None:
    """Shift every recorded value of the small size by 1%, past DRIFT_TOL."""
    ref = json.loads((BENCH_DIR / "reference.json").read_text())
    for workload in ref["small"].values():
        for entry in workload.values():
            for op in entry.values():
                op["digest"] = {k: [v * 1.01 + 1e-3 for v in vals] for k, vals in op["digest"].items()}
    path.write_text(json.dumps(ref))


def main() -> int:
    check_manifest()
    end_to_end = {name: unit for name, unit, _, _ in END_TO_END}
    per_layer = {name: unit for name, unit, _, _ in PER_LAYER}
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS:
            r = result_of(bench("--workload", workload, "--trace", "0", "--size", "small"), end_to_end)
            assert r["correct"] and r["failed"] == 0, (workload, r)
        r = result_of(bench("--workload", "flow3d", "--trace", "1", "--size", "small"), per_layer)
        assert r["correct"] and r["failed"] == 0, r

        bad = SCRATCH / "corrupted-reference.json"
        corrupt_reference(bad)
        for workload in WORKLOADS:
            r = result_of(bench("--workload", workload, "--trace", "0", "--size", "small",
                                "--reference", str(bad)), end_to_end)
            assert not r["correct"] and r["failed"] == r["attempted"], (workload, r)

        bare = SCRATCH / "bare"
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "flow3d", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.parent.rmdir()  # only when no benchmark run is using it
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
