"""Record the benchmark of this checkout into BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N
    python3 tools/bench_record.py --pr N --workload fit --tiny --output /tmp/bench.json

Runs the benchmark's own ``perfbench/run.py``, unmodified, from the
repository root: one child process per workload and seed, on the three
seeds ``SEEDS``, then one traced run (``--trace 1``) per workload on
``TRACE_SEED``. It never runs ``--workload all``: ``run.py`` keeps the
high-water mark it reaches while it builds the inputs, and every worker
it starts afterwards inherits it, so a later workload's ``peak_rss_mb``
would read that of the largest input instead of its own. Each run's
first line (the provenance) and last line (the result) are kept.

The file holds the provenance (``nproc``, usable CPUs, the Python,
numpy and scipy versions, the git revision and the ``src/`` line count
as ``run.py`` reports them, and the ``ru_maxrss`` of a bare interpreter
started by this script, the floor under every ``peak_rss_mb``), then
per workload each seed's end-to-end metrics and fail ratio, their
medians, and the traced run's per-layer metrics. ``--tiny`` runs the
benchmark's tiny inputs for ``TINY_SECONDS``, which makes a run take
seconds; its figures mean nothing and it writes ``"tiny": true``.
A run that fails stops the script with its stderr and exit code 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("analyze", "fit", "gradcheck", "compare")  # BENCHMARK.json's order
SEEDS = (1, 2, 3)
TRACE_SEED = 7  # the benchmark's traced-run seed
SECONDS = 12  # BENCHMARK.json's run_seconds
TINY_SECONDS = 0.5
RUN_TIMEOUT_S = 600
BARE_MAXRSS = "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"


def bare_maxrss_mb() -> float:
    """Peak RSS of an interpreter that does nothing, in MB as run.py counts them (KiB / 1024)."""
    out = subprocess.run([sys.executable, "-c", BARE_MAXRSS], capture_output=True, text=True,
                         check=True).stdout
    return int(out) / 1024.0


def bench(workload: str, seed: int, trace: bool, tiny: bool) -> tuple[dict, dict]:
    """(provenance, result) of one run.py child."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(TINY_SECONDS if tiny else SECONDS), "--trace", str(int(trace))]
    if tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[0])["provenance"], json.loads(lines[-1])


def run_entry(seed: int, result: dict) -> dict:
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_ratio": result["failed"] / result["attempted"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def record(workloads, tiny: bool) -> dict:
    bare_mb = bare_maxrss_mb()  # first, before any child has run
    provenances, entries = [], {}
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            provenance, result = bench(workload, seed, False, tiny)
            provenances.append(provenance)
            runs.append(run_entry(seed, result))
        provenance, traced = bench(workload, TRACE_SEED, True, tiny)
        provenances.append(provenance)
        names = runs[0]["metrics"]
        entries[workload] = {
            "runs": runs,
            "median": {name: statistics.median(r["metrics"][name] for r in runs) for name in names},
            "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "traced": run_entry(TRACE_SEED, traced),
        }
    if any(p != provenances[0] for p in provenances):
        raise RuntimeError("the provenance changed between runs")
    return {
        "tiny": tiny,
        "seconds": TINY_SECONDS if tiny else SECONDS,
        "seeds": list(SEEDS),
        "provenance": {**provenances[0], "bare_interpreter_maxrss_mb": bare_mb},
        "workloads": entries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="record only this workload (repeatable; default: all four)")
    parser.add_argument("--tiny", action="store_true", help="the benchmark's tiny inputs")
    parser.add_argument("--output", type=Path, help="default: BENCH_<pr>.json at the root")
    args = parser.parse_args(argv)
    output = args.output or ROOT / f"BENCH_{args.pr}.json"
    try:
        payload = {"pr": args.pr, **record(args.workload or WORKLOADS, args.tiny)}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
