"""Tiny-size runs of every workload, and the benchmark's own contract.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = bench("--workload", workload, "--seed", 3, "--seconds", 0.5, "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_benchmark_json_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in SPEC["per_layer"]] == spans.metric_names()
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.UNITS)
    layer_map = json.loads((BENCH / "layers.json").read_text())
    assert set(layer_map) <= set(spans.metric_names())
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(workloads.NAMES)


def test_tail_is_the_eleventh_largest_sample_but_never_below_the_median():
    assert run.tail(list(range(1, 101))) == (90, 90.0, 10)
    assert run.tail(list(range(21, 0, -1)))[0] == 11
    assert run.tail([5, 1, 3]) == (3, 50.0, 1)


def test_a_run_is_a_fixed_number_of_whole_cycles():
    plan = {"cycle_s": 3.4}
    assert run.cycles_for(18, plan, trace=False) == 5
    assert run.cycles_for(18, plan, trace=True) == 3  # pairs of untraced and traced cycles
    assert run.cycles_for(0.5, plan, trace=False) == 1


def test_times_scale_by_the_reference_kernel():
    assert run.scaled(0.3, run.REFERENCE_S) == 0.3
    assert run.scaled(0.3, 2 * run.REFERENCE_S) == 0.15  # a host at half speed


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "analyze", "--seed", 1, "--seconds", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
