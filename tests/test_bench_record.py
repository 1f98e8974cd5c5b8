import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_record  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tiny_record_of_one_workload(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), "--pr", "0", "--tiny",
         "--workload", "fit", "--output", str(out)],
        capture_output=True, text=True, timeout=300,
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
        # The floor under peak_rss_mb: an interpreter that does nothing.
        assert 0 < provenance["bare_interpreter_maxrss_mb"] < run["metrics"]["peak_rss_mb"]
    assert set(fit["median"]) == end_to_end
    assert fit["traced"]["seed"] == bench_record.TRACE_SEED
    # Whether the second core was free: one process's kernel time against
    # the slower of two at once, about 1 when free and 2 when shared.
    probe = fit["core_probe"]
    assert probe["one_process_s"] > 0 and len(probe["two_processes_s"]) == 2
    assert probe["ratio"] == max(probe["two_processes_s"]) / probe["one_process_s"]
    assert set(fit["traced"]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
