"""Self-test of the benchmark: every workload's case list at tiny N.

Run with ``python3 -m pytest benchmark/test_benchmark.py -q`` (about 40 s).
It checks the output contract, not performance: every metric named in
BENCHMARK.json is printed with a unit, the per-command metrics appear for
the commands a workload runs, no case fails, the computed counts repeat
exactly between two runs, and the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH_DIR))

import cases  # noqa: E402
import spans  # noqa: E402

COMMANDS_RUN = {"dense-large": {"analog", "bound"}, "grover-wide": {"grover"},
                "claims-grid": {"analog", "grover", "bound", "stats"}}


def bench(workload: str, trace: int, cwd: pathlib.Path = ROOT, seed: int = 5):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = json.loads(next(line for line in lines if line.startswith("# env: "))[len("# env: "):])
    assert env["blas_threads"] == min(2, env["nproc"])
    assert env["numpy"] and env["blas"] and env["python"]
    printed = {}
    for line in lines:
        if line.startswith("# metric "):
            name, _, rest = line[len("# metric "):].partition(" = ")
            value, unit = rest.rsplit(" ", 1)
            printed[name] = (float(value), unit)
    return result, printed


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(cases.WORKLOADS)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_end_to_end_metrics(workload):
    result, printed = parse(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"].pop(metric["name"])
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
        assert printed[metric["name"]] == (entry["value"], metric["unit"])
    assert not result["metrics"]
    assert printed["failed_ratio"] == (0.0, "ratio")
    for cmd in ("analog", "grover", "bound", "stats"):
        present = {f"{cmd}.wall_s", f"{cmd}.peak_rss_mb"} <= set(printed)
        assert present == (cmd in COMMANDS_RUN[workload])
    for cmd in COMMANDS_RUN[workload] & {"analog", "grover"}:
        assert f"{cmd}.headroom_digits" in printed


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_per_layer_metrics_and_computed_counts_repeat(workload):
    first, _ = parse(bench(workload, 1))
    second, printed = parse(bench(workload, 1))
    assert first["correct"] is True and first["failed"] == 0
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _ in spans.LAYER_METRICS]
    for metric in SPEC["per_layer"]:
        entry = first["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] == printed[metric["name"]][1]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in spans.COMPUTED:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("grover-wide", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
