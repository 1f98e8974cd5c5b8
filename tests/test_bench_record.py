import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_record  # noqa: E402
import numpy as np  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def probe_of(ratio):
    """A core_probe() result whose ratio is ratio."""
    return {"one_process_s": 1.0, "two_processes_s": [ratio, 1.0], "ratio": ratio}


# A child interpreter, small as a command-line run is, so that its bare
# interpreter's peak RSS is not the test process's. Its core probe is
# stubbed: the first reads a busy second core, so seed 1's first run is
# discarded and the seed run again; every later probe passes.
STUBBED_PROBE_RUN = """
import sys
import bench_record
from test_bench_record import probe_of
ratios = iter([2.0, 1.0, 1.0, 1.0])
bench_record.core_probe = lambda: probe_of(next(ratios))
sys.exit(bench_record.main(sys.argv[1:]))
"""


def test_tiny_record_of_one_workload(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "-c", STUBBED_PROBE_RUN, "--pr", "0", "--tiny", "--workload", "fit",
         "--output", str(out)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": f"{ROOT / 'tools'}{os.pathsep}{ROOT / 'tests'}"},
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert (payload["pr"], payload["tiny"], payload["seeds"]) == (0, True, list(bench_record.SEEDS))
    provenance = payload["provenance"]
    for key in ("nproc", "python", "numpy", "scipy", "git_commit", "src_lines"):
        assert key in provenance
    assert list(payload["workloads"]) == ["fit"]
    fit = payload["workloads"]["fit"]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert [run["seed"] for run in fit["runs"]] == list(bench_record.SEEDS)
    for run in fit["runs"]:
        assert run["correct"] and run["fail_ratio"] == 0.0
        assert set(run["metrics"]) == end_to_end
        assert run["core_probe"] == probe_of(1.0) and not run["probe_exceeded"]
        # The floor under peak_rss_mb: an interpreter that does nothing.
        assert 0 < provenance["bare_interpreter_maxrss_mb"] < run["metrics"]["peak_rss_mb"]
    (discarded,) = fit["discarded"]
    assert discarded["seed"] == 1 and discarded["core_probe"] == probe_of(2.0)
    assert discarded["reason"] == f"probe ratio 2.00 > {bench_record.PROBE_MAX_RATIO}"
    assert set(discarded["metrics"]) == end_to_end
    assert fit["median"] == {
        name: statistics.median(run["metrics"][name] for run in fit["runs"]) for name in end_to_end
    }
    assert fit["traced"]["seed"] == bench_record.TRACE_SEED
    assert set(fit["traced"]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_a_seed_that_never_passes_the_probe_keeps_its_last_run(monkeypatch):
    calls = iter(range(100))

    def bench(workload, seed, trace, tiny):
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"audio_s_per_s": {"value": float(next(calls))}}}
        return {"nproc": 2}, result

    monkeypatch.setattr(bench_record, "core_probe", lambda: probe_of(2.0))
    monkeypatch.setattr(bench_record, "bench", bench)
    fit = bench_record.record(["fit"], tiny=True)["workloads"]["fit"]
    tries = bench_record.PROBE_TRIES
    assert [run["metrics"]["audio_s_per_s"] for run in fit["runs"]] == [
        (i + 1) * tries - 1.0 for i in range(len(bench_record.SEEDS))
    ]
    assert all(run["probe_exceeded"] for run in fit["runs"])
    assert len(fit["discarded"]) == (tries - 1) * len(bench_record.SEEDS)
    assert fit["median"]["audio_s_per_s"] == 2 * tries - 1.0


def test_core_probe_times_one_process_against_two():
    # About 1 when the second core is free and 2 when the two share one.
    probe = bench_record.core_probe()
    assert probe["one_process_s"] > 0 and len(probe["two_processes_s"]) == 2
    assert probe["ratio"] == max(probe["two_processes_s"]) / probe["one_process_s"]


def test_bare_maxrss_is_not_the_callers_peak():
    # A child inherits its parent's ru_maxrss: started straight from this
    # process, the bare interpreter would read at least these 200 MB.
    ballast = np.ones(25_000_000)
    try:
        assert 0 < bench_record.bare_maxrss_mb() < 40
    finally:
        del ballast
